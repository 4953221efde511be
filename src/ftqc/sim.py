"""Exact statevector simulation with measurement and Pauli-frame tracking.

Small-scale reference simulator used to verify every circuit construction
in the package.  Measurements draw from a single per-run PRNG via the
inverse CDF of the measured qubit's marginal, so a (circuit, seed) pair
always reproduces bit-identical results.  Pauli corrections entering
through FRAME gates are not applied to the amplitudes; they are tracked as
one exact Pauli operator, a ``core.Pauli`` i^phase * Z^z X^x over integer
bit masks (bit q for qubit q), and conjugated through subsequent Clifford
gates, which is how hardware defers such corrections.  Reported
measurement outcomes are frame-corrected, i.e. they are the outcomes the
corrected state would have produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import core, kernels
from .core import Circuit, Gate, Pauli

DEFAULT_QUBIT_CAP = 22
# the one default seed: run() and channel_equal() use it when given none, and
# the CLI's seeded command falls back to it after --seed and FTQC_SEED
DEFAULT_SEED = 740021


class SimulationError(RuntimeError):
    pass


class StateVector:
    """Dense complex128 state on n qubits; qubit j is bit j of the basis index."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray, *, cap: int = DEFAULT_QUBIT_CAP):
        if n_qubits > cap:
            raise SimulationError(f"{n_qubits} qubits exceeds the simulator cap of {cap}")
        if amps.shape != (1 << n_qubits,):
            raise ValueError(f"amplitude array has shape {amps.shape}, expected {(1 << n_qubits,)}")
        self.n_qubits = n_qubits
        self.amps = np.ascontiguousarray(amps, dtype=np.complex128)

    @classmethod
    def zero(cls, n_qubits: int, *, cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        return cls.basis(n_qubits, 0, cap=cap)

    @classmethod
    def basis(cls, n_qubits: int, index: int, *, cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        if n_qubits > cap:
            raise SimulationError(f"{n_qubits} qubits exceeds the simulator cap of {cap}")
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps, cap=cap)

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex], *, cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        arr = np.array(amps, dtype=np.complex128)
        n = int(round(math.log2(arr.size)))
        if 1 << n != arr.size:
            raise ValueError("amplitude count must be a power of two")
        return cls(n, arr, cap=cap)

    @classmethod
    def plus(cls, n_qubits: int, *, cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        amps = np.full(1 << n_qubits, 1.0 / np.sqrt(1 << n_qubits), dtype=np.complex128)
        return cls(n_qubits, amps, cap=cap)

    def copy(self) -> "StateVector":
        # the original already passed its caller's cap
        return StateVector(self.n_qubits, self.amps.copy(), cap=self.n_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self, other: "StateVector", *, cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        """self on the low qubits, other on the high qubits."""
        return StateVector(self.n_qubits + other.n_qubits, np.kron(other.amps, self.amps), cap=cap)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def product_state(
    n_qubits: int,
    parts: Mapping[tuple[int, ...], np.ndarray] | Iterable[tuple[tuple[int, ...], np.ndarray]] = (),
    *,
    cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Tensor product with named blocks; unassigned qubits start in |0>.

    Each entry maps a tuple of qubit indices to a statevector on those
    qubits, little-endian in tuple order (bit j of the block index lives on
    qubits[j]).
    """
    items = list(parts.items()) if isinstance(parts, Mapping) else list(parts)
    claimed: set[int] = set()
    for qubits, vec in items:
        if len(set(qubits)) != len(qubits) or claimed.intersection(qubits):
            raise ValueError("product blocks must use disjoint qubits")
        if max(qubits, default=-1) >= n_qubits:
            raise ValueError("block qubit outside register")
        if np.asarray(vec).shape != (1 << len(qubits),):
            raise ValueError("block amplitude length does not match its qubit count")
        claimed.update(qubits)
    idx = np.zeros(1, dtype=np.int64)
    amp = np.ones(1, dtype=np.complex128)
    for qubits, vec in items:
        # bit j of the local index sets qubit qubits[j]
        offsets = np.zeros(1, dtype=np.int64)
        for q in qubits:
            offsets = np.concatenate((offsets, offsets | (1 << q)))
        idx = (idx[:, None] | offsets[None, :]).reshape(-1)
        amp = (amp[:, None] * np.asarray(vec)[None, :]).reshape(-1)
    out = np.zeros(1 << n_qubits, dtype=np.complex128)
    out[idx] = amp
    return StateVector(n_qubits, out, cap=cap)


# ---------------------------------------------------------------------------
# Pauli frames


class PauliFrame:
    """Deferred Pauli correction E = i^s * prod_q Z^{z_q} X^{x_q}, held as one core.Pauli.

    ``x`` and ``z`` are that Pauli's integer bit masks (bit q for qubit q)
    and ``phase_i`` its exponent s of i, mod 4.  The tracked simulation
    holds |psi_sim> while the corrected state is E|psi_sim>.  Updates and
    composition are Pauli products; propagation conjugates E through a
    Clifford gate, phase included, so materializing the frame reproduces
    the explicit-gate simulation exactly (not just up to phase).  Composing
    a frame with itself cancels every X/Z factor but can leave a global
    sign in ``phase_i``.
    """

    __slots__ = ("n_qubits", "pauli")

    def __init__(self, n_qubits: int, pauli: Pauli = Pauli()):
        self.n_qubits = n_qubits
        self.pauli = pauli

    @property
    def x(self) -> int:
        return self.pauli.x

    @property
    def z(self) -> int:
        return self.pauli.z

    @property
    def phase_i(self) -> int:
        return self.pauli.phase

    def copy(self) -> "PauliFrame":
        return PauliFrame(self.n_qubits, self.pauli)

    def update(self, qubit: int, pauli: str) -> None:
        """Fold a new X or Z correction onto the existing frame (left side)."""
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} outside a frame of {self.n_qubits}")
        if pauli == "X":
            self.pauli = Pauli(x=1 << qubit) * self.pauli
        elif pauli == "Z":
            self.pauli = Pauli(z=1 << qubit) * self.pauli
        else:
            raise ValueError(f"unknown pauli {pauli!r}")

    def compose(self, other: "PauliFrame") -> "PauliFrame":
        """Frame for other applied first, then self."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("frame size mismatch")
        return PauliFrame(self.n_qubits, self.pauli * other.pauli)

    def propagate(self, g: Gate) -> None:
        """Replace E by G E G^dag for a gate G the frame can cross."""
        kind = g.kind
        x, z, _ = self.pauli
        if kind in core.CLIFFORD_KINDS:
            if x | z:  # a pure phase commutes with every gate
                self.pauli = self.pauli.conjugate(kind, g.qubits)
        elif kind in (core.T, core.TDG, core.RZ):
            if x >> g.qubits[0] & 1:
                raise SimulationError(f"X frame cannot cross diagonal gate {kind}")
        elif kind == core.CRZ:
            if any(x >> q & 1 for q in g.qubits):
                raise SimulationError("X frame cannot cross CRZ")
        elif kind == core.TOFFOLI:
            c1, c2, t = g.qubits
            if x >> c1 & 1 or x >> c2 & 1 or z >> t & 1:
                raise SimulationError("frame cannot cross Toffoli on these qubits")
        else:
            raise SimulationError(f"cannot propagate frame through {kind}")

    def apply_to(self, state: StateVector) -> StateVector:
        """Materialize the correction: returns E|state>."""
        out = state.copy()
        n = out.n_qubits
        x, z, phase = self.pauli
        for q in range(n):
            if x >> q & 1:
                out.amps = kernels.apply_1q(out.amps, n, q, _DENSE[core.X])
            if z >> q & 1:
                out.amps = kernels.apply_diag_1q(out.amps, n, q, 1.0, -1.0)
        if phase:
            out.amps *= 1j ** phase
        return out


@dataclass
class SimResult:
    state: StateVector
    record: dict[int, int]
    frame: PauliFrame
    qubit_outcomes: dict[int, int] = field(default_factory=dict)

    def corrected_state(self) -> StateVector:
        return self.frame.apply_to(self.state)


# the gate table run() dispatches on: dense 1q matrices, and diagonal entries
_DENSE = {k: core.GATE_MATRICES[k] for k in (core.X, core.Y, core.H)}
_DIAG = {
    core.Z: (1.0, -1.0),
    core.S: (1.0, 1j),
    core.SDG: (1.0, -1j),
    core.T: (1.0, np.exp(1j * math.pi / 4)),
    core.TDG: (1.0, np.exp(-1j * math.pi / 4)),
}


def run(
    circuit: Circuit,
    initial: StateVector | None = None,
    *,
    seed: int | None = DEFAULT_SEED,
    rng: np.random.Generator | None = None,
    cap: int = DEFAULT_QUBIT_CAP,
) -> SimResult:
    """Simulate a circuit layer by layer.

    Measurements inside one layer consume randomness in listed order.
    FRAME gates with a condition read the (frame-corrected) outcome stored
    under their key.
    """
    n = circuit.n_qubits
    if n > cap:
        raise SimulationError(f"{n} qubits exceeds the simulator cap of {cap}")
    if initial is None:
        state = StateVector.zero(n, cap=cap)
    else:
        if initial.n_qubits != n:
            raise ValueError("initial state size does not match circuit")
        state = initial.copy()
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    frame = PauliFrame(n)
    record: dict[int, int] = {}
    qubit_outcomes: dict[int, int] = {}
    amps = state.amps
    K = kernels

    for layer in circuit.layers:
        for g in layer:
            kind = g.kind
            if kind == core.MEASURE:
                q = g.qubits[0]
                p1 = K.prob_one(amps, n, q)
                p0 = 1.0 - p1
                outcome = 0 if rng.random() < p0 else 1
                amps = K.collapse(amps, n, q, outcome, p0 if outcome == 0 else p1)
                x, z, phase = frame.pauli
                true_outcome = outcome ^ (x >> q & 1)
                if z >> q & 1:
                    # Z^z X^x |m_sim> = (-1)^(z * m_true) X^x |m_sim>: the Z
                    # factor on a collapsed qubit reduces to a phase
                    frame.pauli = Pauli(x, z ^ 1 << q, (phase + 2 * true_outcome) % 4)
                record[g.key] = true_outcome
                qubit_outcomes[q] = true_outcome
                continue
            if kind == core.FRAME:
                if g.cond is None or record.get(g.cond, 0) == 1:
                    frame.update(g.qubits[0], g.pauli)
                continue
            frame.propagate(g)
            amps = _apply_unitary(amps, n, g)
    state.amps = amps
    return SimResult(state=state, record=record, frame=frame, qubit_outcomes=qubit_outcomes)


def _apply_unitary(amps: np.ndarray, n: int, g: Gate) -> np.ndarray:
    """Apply one unitary gate to amplitudes over n qubits: the one gate dispatch."""
    kind = g.kind
    if kind in _DIAG:
        d0, d1 = _DIAG[kind]
        return kernels.apply_diag_1q(amps, n, g.qubits[0], d0, d1)
    if kind == core.RZ:
        return kernels.apply_diag_1q(amps, n, g.qubits[0], 1.0, np.exp(1j * g.angle))
    if kind == core.CNOT:
        return kernels.apply_cnot(amps, n, g.qubits[0], g.qubits[1])
    if kind == core.TOFFOLI:
        return kernels.apply_toffoli(amps, n, *g.qubits)
    if kind == core.CRZ:
        mask = (1 << g.qubits[0]) | (1 << g.qubits[1])
        return kernels.apply_phase_on_ones(amps, n, mask, np.exp(1j * g.angle))
    return kernels.apply_1q(amps, n, g.qubits[0], _DENSE[kind])


# amplitudes per block run (1 MB of complex128): a block holds
# max(1, _BLOCK_AMPS >> n) states of an n-qubit circuit.  Blocks of 2^14 to
# 2^16 amplitudes timed alike on the whole-matrix checks; larger ones ran
# slower (256-MB blocks: 2.3x the verify benchmark's wall time, 2 cores).
_BLOCK_AMPS = 1 << 16


def _block_size(n_qubits: int, n_states: int) -> int:
    """States per block run, a power of two when n_states is one."""
    return min(max(1, _BLOCK_AMPS >> n_qubits), n_states)


def _run_block(circuit: Circuit, block: np.ndarray) -> np.ndarray:
    """Run a measurement-free circuit on every row of a (B, 2^n) block at once.

    The block is C-contiguous complex128, B is a power of two, and the
    block is updated in place.  Amplitude i of row r is index r * 2^n + i of
    one state on n + log2(B) qubits, so each gate is one kernel call on that
    state and acts on every row alike: each row comes out bit for bit as a
    run() of that row alone would leave it.
    """
    amps = block.reshape(-1)
    n = circuit.n_qubits + block.shape[0].bit_length() - 1
    for layer in circuit.layers:
        for g in layer:
            amps = _apply_unitary(amps, n, g)
    return amps.reshape(block.shape)


def _require_unitary(circuit: Circuit) -> None:
    if any(not g.is_unitary for g in circuit.gates()):
        raise ValueError("circuit contains measurements or frame updates")


def to_unitary(circuit: Circuit, *, cap: int = 12) -> np.ndarray:
    """Dense unitary of a measurement-free circuit.

    The basis columns are run in blocks (see _BLOCK_AMPS): one pass over the
    circuit per block, each column equal bit for bit to a run() of its
    basis state.
    """
    n = circuit.n_qubits
    if n > cap:
        raise SimulationError(f"refusing to build a 2^{n} unitary (cap {cap})")
    _require_unitary(circuit)
    dim = 1 << n
    u = np.empty((dim, dim), dtype=np.complex128)
    size = _block_size(n, dim)
    for start in range(0, dim, size):
        basis = np.eye(size, dim, start, dtype=np.complex128)
        u[:, start:start + size] = _run_block(circuit, basis).T
    return u


def project_onto(
    state: StateVector, qubits: tuple[int, ...], block: np.ndarray
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Contract <block| against the given qubits.

    Returns (residual amplitudes on the remaining qubits in ascending
    order, those qubit indices).  The residual norm squared is the
    probability weight on |block>; it is NOT renormalized.
    """
    n = state.n_qubits
    rest = tuple(q for q in range(n) if q not in qubits)
    return _project(state.amps, n, qubits, block), rest


def _project(amps: np.ndarray, n: int, qubits: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """project_onto on a flat array of 2^n amplitudes: the residual amplitudes."""
    m = len(qubits)
    a = amps.reshape([2] * n)
    vec = np.asarray(block).reshape([2] * m) if m else np.asarray(block)
    state_axes = [n - 1 - q for q in qubits]
    # block axis j corresponds to bit (m-1-j) of the block index
    block_axes = [m - 1 - j for j in range(m)]
    res = np.tensordot(vec.conj(), a, axes=(block_axes, state_axes)) if m else a * block
    return np.ascontiguousarray(res).reshape(-1)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return False
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < tol or nb < tol:
        return bool(na < tol and nb < tol)
    return bool(abs(abs(np.vdot(a, b)) / (na * nb) - 1.0) <= tol)


def run_with_helpers(
    circuit: Circuit,
    data: Mapping[tuple[int, ...], np.ndarray],
    helpers: Mapping[tuple[int, ...], np.ndarray] | None = None,
    *,
    cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[np.ndarray, float]:
    """Run a measurement-free circuit with helper registers, then project them back.

    The data blocks and the helper blocks start in one product state; every
    qubit outside the data blocks is a helper, in |0> unless a helper block
    names it.  After the run the helpers are projected back onto that same
    reference state.  Returns (amplitudes, leakage).  The amplitudes are the
    data register's, unnormalized, with bit j on the j-th data qubit in the
    order the data blocks list them.  Leakage is ||psi - |ref> (x) amps||,
    the norm of the output's part orthogonal to the helper reference state:
    the amplitude that left it.  Unlike sqrt(1 - ||amps||^2), it does not
    turn rounding eps into sqrt(eps).  This is the one-input case of the
    block run that effective_unitary makes; a circuit with MEASURE or FRAME
    gates is rejected with ValueError.
    """
    _require_unitary(circuit)
    amps, leaks = _run_rows_with_helpers(circuit, [data], helpers or {}, cap)
    return amps[0], leaks[0]


def _run_rows_with_helpers(
    circuit: Circuit,
    datas: Sequence[Mapping[tuple[int, ...], np.ndarray]],
    helpers: Mapping[tuple[int, ...], np.ndarray],
    cap: int,
) -> tuple[np.ndarray, list[float]]:
    """run_with_helpers on B data inputs at once, B a power of two.

    Every input names the same data qubits.  Row r of the block run starts
    in the product state of datas[r] and the helpers; returns the (B, 2^k)
    data amplitudes and the B leakages, each row bit for bit what a run of
    that input alone gives.
    """
    n = circuit.n_qubits
    data_qubits = tuple(q for qs in datas[0] for q in qs)
    rows = np.empty((len(datas), 1 << n), dtype=np.complex128)
    for row, data in zip(rows, datas):
        row[:] = product_state(n, [*data.items(), *helpers.items()], cap=cap).amps
    rows = _run_block(circuit, rows)
    ancillas = tuple(q for q in range(n) if q not in data_qubits)
    if not ancillas:
        return _in_order(rows, tuple(range(n)), data_qubits), [0.0] * len(rows)
    m = len(ancillas)
    anc_pos = {q: i for i, q in enumerate(ancillas)}
    local = {tuple(anc_pos[q] for q in qs): vec for qs, vec in helpers.items()}
    ref = product_state(m, local, cap=max(cap, m)).amps
    # one contraction per row: the BLAS kernel behind it is chosen by the
    # column count, so contracting all rows at once can move last bits
    amps = np.array([_project(row, n, ancillas, ref) for row in rows])
    rest = tuple(q for q in range(n) if q not in ancillas)
    # each row's part orthogonal to |ref>: psi - |ref> (x) amps, with the
    # ancilla axes moved first (after the row axis) in the block order
    # project_onto uses
    anc_axes = [n - q for q in reversed(ancillas)]
    psi = np.moveaxis(rows.reshape([len(rows)] + [2] * n), anc_axes, range(1, m + 1))
    ortho = ref.reshape([1] + [2] * m + [1] * (n - m)) * amps.reshape([len(rows)] + [1] * m + [2] * (n - m))
    np.subtract(psi, ortho, out=ortho)
    leaks = [float(np.linalg.norm(row)) for row in ortho]
    return _in_order(amps, rest, data_qubits), leaks


def effective_unitary(
    circuit: Circuit,
    data_qubits: tuple[int, ...],
    fixed: Mapping[tuple[int, ...], np.ndarray] | None = None,
    *,
    cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[np.ndarray, float]:
    """Action on a data block, with ancilla blocks fixed to given states.

    Column j is what run_with_helpers gives for basis state j of the data
    block, with the ancillas (everything outside data_qubits) in the
    supplied block states, default |0>; the columns are run in blocks (see
    _BLOCK_AMPS), one pass over the circuit per block.  Returns (matrix,
    worst leakage over the columns); the matrix is exactly unitary iff
    leakage is zero.  A circuit with MEASURE or FRAME gates is rejected
    with ValueError.
    """
    _require_unitary(circuit)
    data_qubits = tuple(data_qubits)
    dim = 1 << len(data_qubits)
    mat = np.empty((dim, dim), dtype=np.complex128)
    worst = 0.0
    size = _block_size(circuit.n_qubits, dim)
    for start in range(0, dim, size):
        basis = np.eye(size, dim, start, dtype=np.complex128)
        amps, leaks = _run_rows_with_helpers(circuit, [{data_qubits: e} for e in basis], fixed or {}, cap)
        mat[:, start:start + size] = amps.T
        worst = max(worst, *leaks)
    return mat, worst


def random_state(n_qubits: int, rng: np.random.Generator, *, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Haar-random pure state from normalized complex Gaussians."""
    re = rng.standard_normal(1 << n_qubits)
    im = rng.standard_normal(1 << n_qubits)
    amps = re + 1j * im
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps, cap=cap)


def channel_equal(
    circuit_a: Circuit,
    circuit_b: Circuit,
    n_data: int,
    *,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
    out_a: tuple[int, ...] | None = None,
    out_b: tuple[int, ...] | None = None,
    cap: int = DEFAULT_QUBIT_CAP,
) -> bool:
    """Monte-Carlo equivalence of two circuits as channels on n_data qubits.

    Both circuits take the data on qubits 0..n_data-1; extra qubits start
    in |0>.  Measurement randomness is resimulated per trial; after frame
    corrections are materialized, every non-output qubit must sit in a
    definite basis state (measured, or returned to |0>), and the state on
    the output qubits must match across circuits up to a global phase.
    """
    out_a = tuple(range(n_data)) if out_a is None else out_a
    out_b = tuple(range(n_data)) if out_b is None else out_b
    master = np.random.default_rng(seed)
    for trial in range(trials):
        psi = random_state(n_data, master, cap=cap)
        va = _run_and_extract(circuit_a, psi, out_a, master, cap)
        vb = _run_and_extract(circuit_b, psi, out_b, master, cap)
        if va is None or vb is None:
            return False
        if not states_equal_up_to_phase(va, vb, tol):
            return False
    return True


def _run_and_extract(
    circuit: Circuit,
    data_state: StateVector,
    out_map: tuple[int, ...],
    rng: np.random.Generator,
    cap: int,
) -> np.ndarray | None:
    n = circuit.n_qubits
    n_data = data_state.n_qubits
    initial = product_state(n, {tuple(range(n_data)): data_state.amps}, cap=cap)
    res = run(circuit, initial, rng=rng, cap=cap)
    corrected = res.frame.apply_to(res.state)
    others = tuple(q for q in range(n) if q not in out_map)
    if others:
        # non-output qubits: measured ones hold their corrected outcome, the
        # rest must have been returned to |0>
        values = [res.qubit_outcomes.get(q, 0) for q in others]
        block = np.zeros(1 << len(others), dtype=np.complex128)
        block[sum(v << j for j, v in enumerate(values))] = 1.0
        amps, rest = project_onto(corrected, others, block)
    else:
        amps, rest = corrected.amps, tuple(range(n))
    weight = float(np.sum(np.abs(amps) ** 2))
    if abs(weight - 1.0) > 1e-9:
        return None  # output entangled with leftover qubits: not a clean channel
    return _in_order(amps, rest, out_map)


def _in_order(amps: np.ndarray, rest: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Amplitudes over the ascending qubits `rest`, reordered so bit j is order[j].

    A leading row axis, as in a (B, 2^k) array, is kept.
    """
    pos = {q: i for i, q in enumerate(rest)}
    k = len(order)
    lead = amps.ndim - 1
    # axis for qubit rest[i] is (k-1-i); logical bit j (order[j]) becomes bit j
    perm = [lead + k - 1 - pos[order[k - 1 - j]] for j in range(k)]
    a = amps.reshape(amps.shape[:lead] + (2,) * k)
    return np.transpose(a, [*range(lead), *perm]).reshape(amps.shape)
