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

One size limit, QUBIT_CAP, bounds every state: _check_size raises
SimulationError before any amplitude is allocated, in StateVector,
basis (and so zero), random_state, run, effective_unitary and _support
(and so product_state).  The dense matrices of to_unitary and
effective_unitary, 4^n entries for n qubits, have a tighter one,
_UNITARY_QUBITS, that _check_matrix applies.

The whole-matrix checks (to_unitary and effective_unitary) treat
circuits built only from X, CNOT, Toffoli and diagonal gates (Z, S, S†,
T, T†, RZ, CRZ) apart.  Such a circuit sends each basis state to one
basis state times a phase, so one evaluator, _permute_phases, carries
every listed input amplitude as a column of bit-planes, and multiplies
it as the kernels would: the results are bit for bit those of the
kernel path, at a cost set by the listed inputs rather than by 2^n
amplitudes per input.

run() has one sparse route, _Support, which holds the state as its
listed basis indices and their amplitudes.  It takes a circuit of X,
CNOT and Toffoli gates alone, and any circuit with a MEASURE, when at
most a quarter of the input's amplitudes are listed (_SPARSE_SHARE).
Stretches of phase-permutation gates run on _permute_phases, H and Y
pair each index with its partner, and a MEASURE keeps the half of the
support it selects.  A support that grows past the share is scattered
once into the output, allocated when the route is entered, and the
dense path takes the remaining gates.  The teleported Jordan-Wigner
ladder, whose Bell-pair halves start in |0> and are measured away, is
the case this serves: at span 8 its support stays within 2^15 of 2^20
amplitudes.  channel_equal enters the route from the lists _support
builds, without a dense input to scan.  Every other run, and every
denser input, takes the dense path.  Unitary circuits with H, Y, a
diagonal gate or CRZ stay on it because to_unitary's columns must equal
run() bit for bit, and a gathered H rounds differently from the
kernel's tiles; a measured circuit has no such twin, so the route
matches the dense path's outcomes and frame, and its amplitudes up to
rounding.  effective_unitary is the one way to run a circuit with
helper registers and project them back: it sums each column's listed
outputs in a fixed order, with no BLAS call, so its bytes do not depend
on BLAS threads.

The dense path, which the block runs of the whole-matrix checks share
(_run_block), relabels instead of moving: it holds X and CNOT gates as a
pending affine map on basis indices over GF(2) (_Relabel), the
bookkeeping of a stabilizer tableau, and moves no amplitude for them.  A
gate on wires the map leaves alone runs its kernel on the stored
amplitudes, a one-qubit diagonal gate on a relabelled wire multiplies
the amplitudes it selects, and anything else on such a wire, a MEASURE
and the end of a run first apply the map with one gather.  A
Jordan-Wigner ladder and its mirror compose to the identity, so the
CNOTs of a Trotter step move nothing.  The bytes are those of the
gate-by-gate kernel loop.  A Pauli frame's X part is applied the same
way, as one copy that reads the state at flipped indices (_flipped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import core, kernels
from .core import Circuit, Gate, Pauli

# the one size limit (see above): 2^22 complex128 amplitudes are 64 MB
QUBIT_CAP = 22
# the one default seed: run() and channel_equal() use it when given none, and
# the CLI's seeded command falls back to it after --seed and FTQC_SEED
DEFAULT_SEED = 740021


class SimulationError(RuntimeError):
    pass


def _check_size(n_qubits: int) -> None:
    if n_qubits > QUBIT_CAP:
        raise SimulationError(f"{n_qubits} qubits exceeds the simulator cap of {QUBIT_CAP}")


class StateVector:
    """Dense complex128 state on n qubits; qubit j is bit j of the basis index."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray):
        _check_size(n_qubits)
        if amps.shape != (1 << n_qubits,):
            raise ValueError(f"amplitude array has shape {amps.shape}, expected {(1 << n_qubits,)}")
        self.n_qubits = n_qubits
        self.amps = np.ascontiguousarray(amps, dtype=np.complex128)

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        _check_size(n_qubits)
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())


def product_state(
    n_qubits: int,
    parts: Mapping[tuple[int, ...], np.ndarray] | Iterable[tuple[tuple[int, ...], np.ndarray]] = (),
) -> StateVector:
    """Tensor product with named blocks; unassigned qubits start in |0>.

    Each entry maps a tuple of qubit indices to a statevector on those
    qubits, little-endian in tuple order (bit j of the block index lives on
    qubits[j]).
    """
    idx, amp = _support(n_qubits, parts)
    out = np.zeros(1 << n_qubits, dtype=np.complex128)
    out[idx] = amp
    return StateVector(n_qubits, out)


def _support(
    n_qubits: int,
    parts: Mapping[tuple[int, ...], np.ndarray] | Iterable[tuple[tuple[int, ...], np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """The basis indices product_state fills, and their amplitudes.

    Every entry of every block is listed, zero amplitudes included.
    """
    _check_size(n_qubits)
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
        idx = (idx[:, None] | _spread(qubits)[None, :]).reshape(-1)
        amp = (amp[:, None] * np.asarray(vec)[None, :]).reshape(-1)
    return idx, amp


def _spread(qubits: Iterable[int]) -> np.ndarray:
    """The basis index of every local index j, whose bit b sets qubit qubits[b]."""
    return _xor_span(0, [1 << q for q in qubits])


def _xor_span(start: int, masks: Iterable[int]) -> np.ndarray:
    """Entry j is start ^ masks[b] for every bit b of j, built by doubling."""
    idx = np.array([start], dtype=np.int64)
    for m in masks:
        idx = np.concatenate((idx, idx ^ m))
    return idx


def _compress(idx: np.ndarray, qubits: Iterable[int]) -> np.ndarray:
    """The local index of each basis index, bit b read off qubits[b]: _spread's inverse."""
    local = np.zeros(len(idx), dtype=np.int64)
    for b, q in enumerate(qubits):
        local |= (idx >> q & 1) << b
    return local


def _flipped(amps: np.ndarray, n: int, mask: int) -> np.ndarray:
    """A copy of n-qubit amplitudes with index i moved to i ^ mask: X on every
    qubit of mask, as one copy through a view that reads each run of flipped
    bits backwards (reversing an axis of 2^k entries XORs its index with
    2^k - 1).

    It stays apart from _Relabel on purpose: on the span-8 teleported
    ladder's frame, the relabelling's index gather took 7.3 ms against
    3.8 ms for this copy (median of 21, one BLAS thread)."""
    if not mask:
        return amps.copy()
    runs: list[list[int]] = []  # [bits, flipped] from the top bit down
    for q in reversed(range(n)):
        f = mask >> q & 1
        if runs and runs[-1][1] == f:
            runs[-1][0] += 1
        else:
            runs.append([1, f])
    view = amps.reshape([1 << k for k, _ in runs])
    return view[tuple(slice(None, None, -1 if f else 1) for _, f in runs)].copy().reshape(-1)


# ---------------------------------------------------------------------------
# Pauli frames


class PauliFrame:
    """Deferred Pauli correction E = i^s * prod_q Z^{z_q} X^{x_q}, held as one core.Pauli.

    ``pauli.x`` and ``pauli.z`` are its integer bit masks (bit q for qubit
    q) and ``pauli.phase`` its exponent s of i, mod 4.  The tracked
    simulation holds |psi_sim> while the corrected state is E|psi_sim>.
    Updates and composition are Pauli products; propagation conjugates E
    through a Clifford gate, phase included, so materializing the frame
    reproduces the explicit-gate simulation exactly (not just up to phase).
    Composing a frame with itself cancels every X/Z factor but can leave a
    global sign in ``pauli.phase``.
    """

    __slots__ = ("n_qubits", "pauli")

    def __init__(self, n_qubits: int, pauli: Pauli = Pauli()):
        self.n_qubits = n_qubits
        self.pauli = pauli

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
        """Materialize the correction: returns E|state>, in a new state.

        X^x is one copy of the amplitudes that reads them at index i ^ x
        (_flipped); the Z factors and i^s then multiply that copy in place,
        so the call allocates one state.  The bytes are those of applying
        the factors one kernel pass at a time.  A state of another size
        raises ValueError.
        """
        if state.n_qubits != self.n_qubits:
            raise ValueError("frame size mismatch")
        n = state.n_qubits
        x, z, phase = self.pauli
        amps = _flipped(state.amps, n, x)
        for q in range(n):
            if z >> q & 1:
                kernels.apply_diag_1q(amps, n, q, 1.0, -1.0)
        if phase:
            amps *= 1j ** phase
        return StateVector(n, amps)


def _corrected_at(frame: PauliFrame, amps: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The amplitudes of E|psi> at the basis indices idx alone, for the frame
    E = i^s Z^z X^x: entry y is i^s (-1)^|z & y| psi[y ^ x], with no copy of
    the state.  Each Z factor negates the entries whose index has its bit
    set, as apply_to's pass does on the whole state, so the bytes (signed
    zeros included) are apply_to's at idx."""
    x, z, phase = frame.pauli
    out = amps[idx ^ x]
    for q in range(z.bit_length()):
        if z >> q & 1:
            out[idx >> q & 1 == 1] *= -1.0
    if phase:
        out *= 1j ** phase
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
) -> SimResult:
    """Simulate a circuit layer by layer.

    Measurements inside one layer consume randomness in listed order.
    FRAME gates with a condition read the (frame-corrected) outcome stored
    under their key.  Two kinds of circuit run on the support of their
    state (_Support) rather than on 2^n amplitudes, while it lists at most
    2^n / _SPARSE_SHARE amplitudes whose bytes are not all zero (-0
    counts): one of X, CNOT and Toffoli gates alone, whose output is bit
    for bit the kernels' (on the 19-qubit adder that took 0.19-0.26x the
    kernels' time at a quarter of the support and 0.04x at 1/1024, and
    1.1-1.4x at full support), and any circuit with a MEASURE, whose
    outcomes and frame are the kernels' and whose amplitudes may differ
    from theirs in the last bits.  Such a run never copies its input; a
    support that outgrows the share is scattered once into the output and
    the dense path takes the remaining gates.  A unitary circuit with any
    other gate, or a denser input, takes the dense path from the start, so
    to_unitary's columns stay bit for bit those of run().  The dense path
    folds X and CNOT into a pending relabelling of basis indices
    (_Relabel) and runs the other gates on the kernels; its amplitudes,
    records and frame are bit for bit those of one kernel call per gate.
    On the 18-qubit two-body excitation of the statevector benchmark (232
    gates: 176 CNOTs that move nothing, 28 H, 10 S, 10 S^dag and 8 RZ),
    a run takes 45 ms (median over five seeds, 2 cores, one BLAS thread).
    """
    n = circuit.n_qubits
    _check_size(n)
    if initial is not None and initial.n_qubits != n:
        raise ValueError("initial state size does not match circuit")
    support = _Support.enter(circuit, initial)
    amps = None
    if support is None:
        amps = (StateVector.zero(n) if initial is None else initial.copy()).amps
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    return _run(circuit, amps, support, rng)


def _run(circuit: Circuit, amps: np.ndarray | None, support: _Support | None, rng: np.random.Generator) -> SimResult:
    """run()'s loop, on the support when one is given and else on amps, which it overwrites."""
    n = circuit.n_qubits
    dense = None if support is not None else _Relabel(amps, n)
    frame = PauliFrame(n)
    record: dict[int, int] = {}
    qubit_outcomes: dict[int, int] = {}
    K = kernels

    for layer in circuit.layers:
        for g in layer:
            kind = g.kind
            if kind == core.MEASURE:
                q = g.qubits[0]
                if dense is not None:
                    amps = dense.flushed()
                    outcome, prob = _draw(K.prob_one(amps, n, q), rng)
                    K.collapse(amps, n, q, outcome, prob)  # in place
                else:
                    outcome = support.measure(q, rng)
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
            if dense is not None:
                dense.apply(g)
            elif not support.apply(g):
                dense, support = _Relabel(support.scatter(), n), None  # outgrew the share
    amps = dense.flushed() if dense is not None else support.scatter()
    return SimResult(state=StateVector(n, amps), record=record, frame=frame, qubit_outcomes=qubit_outcomes)


def _draw(p1: float, rng: np.random.Generator) -> tuple[int, float]:
    """A measurement's outcome by the inverse CDF of one uniform, and its probability."""
    p0 = 1.0 - p1
    return (0, p0) if rng.random() < p0 else (1, p1)


def _diagonal(g: Gate) -> tuple[complex, complex]:
    """Entries (d0, d1) of a one-qubit diagonal gate: a _DIAG kind or RZ."""
    return (1.0, np.exp(1j * g.angle)) if g.kind == core.RZ else _DIAG[g.kind]


def _apply_unitary(amps: np.ndarray, n: int, g: Gate) -> np.ndarray:
    """Apply one unitary gate to amplitudes over n qubits: the one gate dispatch."""
    kind = g.kind
    if kind in _DIAG or kind == core.RZ:
        return kernels.apply_diag_1q(amps, n, g.qubits[0], *_diagonal(g))
    if kind == core.CNOT:
        return kernels.apply_cnot(amps, n, g.qubits[0], g.qubits[1])
    if kind == core.TOFFOLI:
        return kernels.apply_toffoli(amps, n, *g.qubits)
    if kind == core.CRZ:
        mask = (1 << g.qubits[0]) | (1 << g.qubits[1])
        return kernels.apply_phase_on_ones(amps, n, mask, np.exp(1j * g.angle))
    return kernels.apply_1q(amps, n, g.qubits[0], _DENSE[kind])


class _Relabel:
    """Dense amplitudes and the X and CNOT gates not yet applied to them.

    The pending gates are an affine map on basis indices over GF(2): the
    amplitude stored at index x belongs to the basis state whose qubit q
    is parity(x & rows[q]) ^ (flip >> q & 1).  cols holds the inverse
    map's columns, so that applying the map is one gather.  X and CNOT
    update the masks and move no amplitude.  A gate whose wires the map
    leaves alone (their rows and columns are the identity's and their flip
    bits clear) runs its kernel on the stored array, where its amplitude
    pairs line up.  A one-qubit diagonal gate on a moved wire multiplies
    the stored amplitudes whose mapped bit is set; any other gate on a
    moved wire, and flushed(), first apply the map.  So each amplitude
    meets the multiplications of a gate-by-gate kernel run in the same
    order, and the bytes are that run's.
    """

    __slots__ = ("n", "amps", "rows", "cols", "flip")

    def __init__(self, amps: np.ndarray, n: int):
        self.n, self.amps = n, amps
        self._reset()

    def _reset(self) -> None:
        self.rows = [1 << q for q in range(self.n)]
        self.cols = list(self.rows)
        self.flip = 0

    def apply(self, g: Gate) -> None:
        """Apply one unitary gate."""
        kind, qs = g.kind, g.qubits
        if kind == core.X:
            self.flip ^= 1 << qs[0]
            return
        if kind == core.CNOT:
            c, t = qs
            self.rows[t] ^= self.rows[c]
            self.cols[c] ^= self.cols[t]
            self.flip ^= (self.flip >> c & 1) << t
            return
        moved = self._moved()
        if any(moved >> q & 1 for q in qs):
            if kind in _DIAG or kind == core.RZ:
                self._diagonal(qs[0], *_diagonal(g))
                return
            self.flushed()
        self.amps = _apply_unitary(self.amps, self.n, g)

    def flushed(self) -> np.ndarray:
        """The amplitudes with the map applied; the map is then the identity."""
        if self._moved():
            src = 0  # the stored index of basis state 0
            for q, col in enumerate(self.cols):
                if self.flip >> q & 1:
                    src ^= col
            # index y reads src ^ the cols of y's bits.  lo and hi span the
            # low and high halves of the bits by doubling (6x faster at 2^18
            # than doubling all of them), and their outer XOR is formed 2^14
            # entries at a time, so the gather holds no state-sized index;
            # 'clip' skips take's buffered bounds check
            half = self.n // 2
            lo, hi = _xor_span(src, self.cols[:half]), _xor_span(0, self.cols[half:])
            out = np.empty_like(self.amps)
            rows = out.reshape(len(hi), len(lo))
            step = max(1, (1 << 14) // len(lo))
            for i in range(0, len(hi), step):
                np.take(self.amps, hi[i:i + step, None] ^ lo, out=rows[i:i + step], mode="clip")
            self.amps = out
            self._reset()
        return self.amps

    def _moved(self) -> int:
        """The wires the map does not leave alone, as a mask: 0 for the identity."""
        moved = self.flip
        for q, row in enumerate(self.rows):
            if row != 1 << q:
                moved |= row | 1 << q
        return moved

    def _diagonal(self, q: int, d0: complex, d1: complex) -> None:
        """diag(d0, d1) on qubit q, an entry of exactly 1 skipped as the kernel does."""
        row = self.rows[q]
        ones = np.array([self.flip >> q & 1], dtype=bool)  # mapped bit q of every stored index
        for b in range(self.n):
            ones = np.concatenate((ones, ones ^ bool(row >> b & 1)))
        # an index gather and scatter: 2.2 ms on 2^17 of 2^18 amplitudes
        # through the bool mask, 1.4 ms through its flatnonzero
        if d0 != 1.0:
            self.amps[np.flatnonzero(~ones)] *= d0
        if d1 != 1.0:
            self.amps[np.flatnonzero(ones)] *= d1


# ---------------------------------------------------------------------------
# Phase-permutation circuits
#
# X, CNOT, Toffoli and the diagonal gates send each basis state to one basis
# state times a phase, so a circuit built only from them is evaluated on its
# basis-state inputs, not on 2^n amplitudes per input.

# the gates that only move amplitudes, and those that also multiply them
_PERMUTATION = frozenset((core.X, core.CNOT, core.TOFFOLI))
_PHASE_PERMUTATION = _PERMUTATION.union((core.RZ, core.CRZ, *_DIAG))


def _is_phase_permutation(circuit: Circuit) -> bool:
    return all(g.kind in _PHASE_PERMUTATION for g in circuit.gates())


def _permute_phases(
    circuit: Circuit | Iterable[Iterable[Gate]], planes: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run a phase-permutation circuit, or its gates given as layers, on
    basis-state inputs, in place.

    planes is an (n_qubits, inputs) bool array whose row q holds wire q of
    every input; amps holds one complex128 amplitude per input.  Returns
    both as they stand after the circuit.  A diagonal gate multiplies the
    amplitudes it selects by the entry _apply_unitary hands its kernel,
    into a new array (numpy rounds a one-element product made in place
    without the fused multiply-add of its other loops), and skips an entry
    of exactly 1 as the kernel does, so each amplitude goes through the
    multiplications of a run(), in the same order.  Any other gate raises
    SimulationError.
    """
    for layer in circuit:
        for g in layer:
            kind, qs = g.kind, g.qubits
            if kind == core.X:
                np.logical_not(planes[qs[0]], out=planes[qs[0]])
            elif kind == core.CNOT:
                planes[qs[1]] ^= planes[qs[0]]
            elif kind == core.TOFFOLI:
                planes[qs[2]] ^= planes[qs[0]] & planes[qs[1]]
            elif kind == core.CRZ:
                sel = planes[qs[0]] & planes[qs[1]]
                amps[sel] = amps[sel] * np.exp(1j * g.angle)
            elif kind in _DIAG or kind == core.RZ:
                d0, d1 = _diagonal(g)
                if d0 != 1.0:
                    amps[~planes[qs[0]]] = amps[~planes[qs[0]]] * d0
                if d1 != 1.0:
                    amps[planes[qs[0]]] = amps[planes[qs[0]]] * d1
            else:
                raise SimulationError(f"{kind} does not send basis states to basis states")
    return planes, amps


def _planes(n: int, idx: np.ndarray) -> np.ndarray:
    """Bit-planes of basis indices: row q holds bit q of every index."""
    planes = np.empty((n, len(idx)), dtype=bool)
    for q, plane in enumerate(planes):
        np.bitwise_and(idx >> q, 1, out=plane, casting="unsafe")
    return planes


def _indices(planes: np.ndarray) -> np.ndarray:
    """Basis indices of bit-planes: the inverse of _planes."""
    idx = np.zeros(planes.shape[1], dtype=np.int64)
    for q, plane in enumerate(planes):
        idx |= plane.astype(np.int64) << q
    return idx


def _routes(circuit: Circuit) -> bool:
    """Whether run() takes a circuit on its state's support, if sparse enough:
    one of X, CNOT and Toffoli gates alone, or one with a MEASURE."""
    kinds = {g.kind for g in circuit.gates()}
    return kinds <= _PERMUTATION or core.MEASURE in kinds


# run() keeps a circuit on its state's support while at most 1/_SPARSE_SHARE
# of the amplitudes are listed.  On the 19-qubit adder (best of 5, 2 cores)
# the bit-plane evaluator timed 0.04x the kernels' time at 1/1024 support,
# 0.11-0.15x at 1/8, 0.19-0.26x at 1/4, 0.48x at 1/2 and 1.1-1.4x at full
# support, the lower figure for a support in one block and the higher for
# one scattered at random.  Its arrays take about n + 48 bytes per listed
# amplitude besides the output, so at 1/4 they add about one state's bytes.
_SPARSE_SHARE = 4


class _Support:
    """run()'s state as its listed basis indices and their amplitudes.

    Every index the support does not list holds +0.  Phase-permutation
    gates wait in a stretch that _permute_phases runs on bit-planes once
    a gate of another kind needs the state, so a circuit of X, CNOT and
    Toffoli gates alone makes one conversion to planes and one back, and
    moves each amplitude bit for bit as the kernels would.  H and Y pair
    each index with its partner idx ^ (1 << q) and drop the results that
    are zero; a MEASURE sums |a|^2 over the indices with the qubit set,
    draws as the kernel path does and keeps the chosen half.  The output
    array is allocated on entry: H and Y use it as a scratch that is +0
    between gates, and scatter() fills it once.
    """

    __slots__ = ("n", "idx", "amps", "stretch", "out")

    def __init__(self, n: int, idx: np.ndarray, amps: np.ndarray):
        self.n = n
        self.out = np.zeros(1 << n, dtype=np.complex128)
        self.idx, self.amps = idx, amps
        self.stretch: list[Gate] = []

    @classmethod
    def enter(cls, circuit: Circuit, initial: StateVector | None) -> "_Support | None":
        """The support of run()'s input, or None when the kernels take the run:
        a unitary circuit with a gate other than X, CNOT and Toffoli, or an
        input with more than 2^n / _SPARSE_SHARE listed amplitudes.

        The support lists every amplitude whose bytes are not all zero, -0
        included.  Besides the output, the scan takes one byte per amplitude.
        """
        if not _routes(circuit):
            return None
        n = circuit.n_qubits
        if initial is None:
            return cls(n, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128))
        words = initial.amps.view(np.int64)  # -0 has a nonzero word
        listed = np.logical_or(words[0::2], words[1::2])
        if np.count_nonzero(listed) * _SPARSE_SHARE > 1 << n:
            return None
        idx = np.flatnonzero(listed)
        return cls(n, idx, initial.amps[idx])

    @classmethod
    def listed(cls, circuit: Circuit, idx: np.ndarray, amps: np.ndarray) -> "_Support | None":
        """enter() for an input given as distinct basis indices and their
        amplitudes, +0 everywhere else: the same support, found without
        scanning 2^n amplitudes."""
        if not _routes(circuit):
            return None
        keep = amps.view(np.int64).reshape(-1, 2).any(axis=1)  # what enter()'s scan lists
        order = np.argsort(idx[keep])
        if len(order) * _SPARSE_SHARE > 1 << circuit.n_qubits:
            return None
        return cls(circuit.n_qubits, idx[keep][order], amps[keep][order])

    def apply(self, g: Gate) -> bool:
        """Apply a unitary gate; False once the support outgrows the share."""
        if g.kind in _PHASE_PERMUTATION:
            self.stretch.append(g)
            return True
        self._flush()
        self._pair(g.qubits[0], _DENSE[g.kind])
        return len(self.idx) * _SPARSE_SHARE <= len(self.out)

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit q and keep the half of the support it selects."""
        self._flush()
        ones = (self.idx & (1 << q)) != 0
        outcome, prob = _draw(float(np.sum(np.abs(self.amps[ones]) ** 2)), rng)
        keep = ones if outcome else ~ones
        self.idx = self.idx[keep]
        self.amps = self.amps[keep] * (1.0 / np.sqrt(prob))
        return outcome

    def scatter(self) -> np.ndarray:
        """The state as 2^n amplitudes, in the array allocated on entry."""
        self._flush()
        self.out[self.idx] = self.amps
        return self.out

    def _flush(self) -> None:
        if self.stretch:
            planes, self.amps = _permute_phases([self.stretch], _planes(self.n, self.idx), self.amps)
            self.idx = _indices(planes)
            self.stretch = []

    def _pair(self, q: int, m: np.ndarray) -> None:
        """A dense one-qubit gate: both entries of every pair the support touches."""
        bit = 1 << q
        out, idx, amps = self.out, self.idx, self.amps
        nonzero = amps != 0  # out tells a listed index by its nonzero amplitude
        if not nonzero.all():
            idx, amps = idx[nonzero], amps[nonzero]
        out[idx] = amps
        # the bit-clear index of every pair once: a listed one, or the partner
        # of a listed bit-set index whose own entry is unlisted
        low = idx & ~bit
        low = low[(low == idx) | (out[low] == 0)]
        high = low | bit
        a0, a1 = out[low], out[high]
        out[idx] = 0.0
        m00, m01, m10, m11 = m.flat
        new = np.concatenate((a0 * m00 + a1 * m01, a0 * m10 + a1 * m11))
        keep = new != 0
        self.idx, self.amps = np.concatenate((low, high))[keep], new[keep]


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

    The block is C-contiguous complex128 and B is a power of two; the
    block may be overwritten, and the rows after the circuit are returned.
    Amplitude i of row r is index r * 2^n + i of one state on n + log2(B)
    qubits, so the circuit runs on that state as run() would (_Relabel)
    and acts on every row alike.  From 3 qubits up each row comes
    out bit for bit as a run() of that row alone would leave it.  On 1 or 2
    qubits a run() multiplies single amplitudes (a diagonal gate on a
    2-amplitude state, a CRZ on a 4-amplitude one), which numpy rounds
    without the fused multiply-add of its longer loops, so last bits can
    differ from the block's, by up to 4.6e-16 in a fuzz of such circuits.
    """
    dense = _Relabel(block.reshape(-1), circuit.n_qubits + block.shape[0].bit_length() - 1)
    for layer in circuit.layers:
        for g in layer:
            dense.apply(g)
    return dense.flushed().reshape(block.shape)


def _outputs(
    circuit: Circuit, idx: np.ndarray, amps: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonzero amplitudes a measurement-free circuit leaves, input by input.

    Input r has amplitude amps[r, i] at basis index idx[r, i] and +0
    elsewhere; the row count is a power of two, and amps may be overwritten.
    Yields batches of (input, basis index, amplitude), each input whole in
    one batch and each amplitude bit for bit a block run's (_run_block).
    A phase-permutation circuit on 3 qubits or more is evaluated once, on
    the listed indices alone; any other runs its inputs as dense rows, a
    block at a time (see _BLOCK_AMPS).
    """
    n = circuit.n_qubits
    if n >= 3 and _is_phase_permutation(circuit):
        planes, out = _permute_phases(circuit, _planes(n, idx.ravel()), amps.ravel())
        keep = out != 0
        yield np.repeat(np.arange(len(idx)), idx.shape[1])[keep], _indices(planes)[keep], out[keep]
        return
    size = _block_size(n, len(idx))
    for start in range(0, len(idx), size):
        block = np.zeros((size, 1 << n), dtype=np.complex128)
        np.put_along_axis(block, idx[start:start + size], amps[start:start + size], axis=1)
        after = _run_block(circuit, block)
        rows, index = np.nonzero(after)
        yield start + rows, index, after[rows, index]


def _require_unitary(circuit: Circuit) -> None:
    if any(not g.is_unitary for g in circuit.gates()):
        raise ValueError("circuit contains measurements or frame updates")


# widest matrix to_unitary and effective_unitary build: 2^12 x 2^12
# complex128 is 256 MB
_UNITARY_QUBITS = 12


def _check_matrix(n_qubits: int) -> None:
    if n_qubits > _UNITARY_QUBITS:
        raise SimulationError(f"refusing to build a 2^{n_qubits} unitary (cap {_UNITARY_QUBITS})")


def to_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free circuit.

    A phase-permutation circuit (X, CNOT, Toffoli, Z, S, S†, T, T†, RZ and
    CRZ only) is evaluated once on all 2^n basis states (_permute_phases),
    which fills one entry per column.  Any other circuit runs its basis
    columns in blocks (see _BLOCK_AMPS), one pass over the circuit per
    block.  Either way the columns are bit for bit those of the block
    run, which from 3 qubits up is a run() of each basis state (see
    _run_block).
    """
    n = circuit.n_qubits
    _check_matrix(n)
    _require_unitary(circuit)
    dim = 1 << n
    u = np.empty((dim, dim), dtype=np.complex128)
    if _is_phase_permutation(circuit):
        # every basis state with amplitude 1, then with the +0 a block run of
        # any other column carries on it: that zero fills the rest of its row
        cols = np.arange(dim)
        amps = np.repeat(np.array([1.0, 0.0], dtype=np.complex128), dim)
        planes, amps = _permute_phases(circuit, _planes(n, np.tile(cols, 2)), amps)
        rows = _indices(planes[:, :dim])
        u[rows] = amps[dim:, None]
        u[rows, cols] = amps[:dim]
        return u
    size = _block_size(n, dim)
    for start in range(0, dim, size):
        basis = np.eye(size, dim, start, dtype=np.complex128)
        u[:, start:start + size] = _run_block(circuit, basis).T
    return u


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return False
    na, nb = math.sqrt(np.sum(np.abs(a) ** 2)), math.sqrt(np.sum(np.abs(b) ** 2))
    if na < tol or nb < tol:
        return bool(na < tol and nb < tol)
    return bool(abs(abs(np.sum(a.conj() * b)) / (na * nb) - 1.0) <= tol)


def effective_unitary(
    circuit: Circuit,
    data_qubits: tuple[int, ...],
    fixed: Mapping[tuple[int, ...], np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Action on a data block, with helper registers run and projected back.

    The data block and the helper blocks start in one product state:
    every qubit outside data_qubits is a helper, in |0> unless a block of
    fixed names it.  Column j runs basis state j of the data block, then
    projects the helpers back onto that same reference state |ref>; its
    bit j lives on data_qubits[j].  Both are read off the column's listed
    outputs (_outputs).  Entry i sums conj(ref[a]) * psi over the outputs
    with data bits i, in ascending helper index a, each product formed
    part by part with no fused multiply-add, and the terms that differ
    only on the helpers below every data qubit summed first: so from 3
    qubits up it is bit for bit a run() of the column's input followed by
    the reference projection in tests/reference.py.  A column's leakage
    ||psi - |ref> (x) column|| is the amplitude that left |ref>: the square
    root of the correctly rounded sum (math.fsum) of its squared parts on
    the union of both supports, which no summation order moves.  Unlike
    sqrt(1 - ||column||^2), it does not turn rounding eps into sqrt(eps).
    With no helpers the matrix is to_unitary's in data order.  Returns
    (matrix, worst leakage over the columns); the matrix is exactly
    unitary iff leakage is zero.  A circuit with MEASURE or FRAME gates is
    rejected with ValueError.
    """
    _require_unitary(circuit)
    data_qubits = tuple(data_qubits)
    n = circuit.n_qubits
    _check_size(n)
    _check_matrix(len(data_qubits))
    helpers = fixed or {}
    d = len(data_qubits)
    dim = 1 << d
    # row j: the indices data basis state j and the helper blocks fill
    idx, amp = _support(n, [(data_qubits, np.ones(dim, dtype=np.complex128)), *helpers.items()])
    ancillas = tuple(q for q in range(n) if q not in data_qubits)
    if not ancillas:
        order = _spread(data_qubits)
        return to_unitary(circuit)[np.ix_(order, order)], 0.0
    m = len(ancillas)
    # |ref> as its listed helper indices, ascending, and their amplitudes
    local = {q: k for k, q in enumerate(ancillas)}
    ref_idx, ref_amp = _support(m, [(tuple(local[q] for q in qs), vec) for qs, vec in helpers.items()])
    by_idx = np.argsort(ref_idx)
    ref_idx, ref_amp = ref_idx[by_idx], ref_amp[by_idx]
    low = next((k for k, q in enumerate(ancillas) if q != k), m)  # helpers below every data qubit
    mat = np.zeros((dim, dim), dtype=np.complex128)
    worst = 0.0
    for col, out, psi in _outputs(circuit, idx.reshape(dim, -1), amp.reshape(dim, -1)):
        # each output keyed (column, data bits, helper index a)
        a = _compress(out, ancillas)
        key = (col << d | _compress(out, data_qubits)) << m | a
        # the matrix: an entry's terms in ascending a, those that differ only
        # below bit `low` of a summed on their own first
        at = np.minimum(np.searchsorted(ref_idx, a), len(ref_idx) - 1)
        hit = np.flatnonzero(ref_idx[at] == a)
        hit = hit[np.argsort(key[hit])]
        c, b = ref_amp[at[hit]].conj(), psi[hit]
        terms = np.empty(len(hit), dtype=np.complex128)
        terms.real = c.real * b.real - c.imag * b.imag
        terms.imag = c.real * b.imag + c.imag * b.real
        first = np.diff(key[hit] >> low, prepend=-1) != 0
        sums = np.zeros(np.count_nonzero(first), dtype=np.complex128)
        np.add.at(sums, np.cumsum(first) - 1, terms)
        entry = key[hit][first] >> m
        np.add.at(mat, (entry & (dim - 1), entry >> d), sums)
        # the leakage: psi - |ref> (x) column on the union of both supports
        batch = np.unique(col)
        rows, cols = np.nonzero(mat[:, batch])
        cols = batch[cols]
        r = len(ref_idx)
        keys = np.concatenate((key, np.repeat((cols << d | rows) << m, r) | np.tile(ref_idx, len(rows))))
        diffs = np.concatenate((psi, -(np.tile(ref_amp, len(rows)) * np.repeat(mat[rows, cols], r))))
        keys, where = np.unique(keys, return_inverse=True)
        diff = np.zeros(len(keys), dtype=np.complex128)
        np.add.at(diff, where, diffs)
        squares = diff.view(np.float64) ** 2
        starts = 2 * (np.flatnonzero(np.diff(keys >> (d + m))) + 1)
        worst = max(worst, *(math.sqrt(math.fsum(part.tolist())) for part in np.split(squares, starts)))
    return mat, worst


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state from normalized complex Gaussians."""
    _check_size(n_qubits)
    re = rng.standard_normal(1 << n_qubits)
    im = rng.standard_normal(1 << n_qubits)
    amps = re + 1j * im
    amps /= np.sqrt(np.sum(re * re) + np.sum(im * im))
    return StateVector(n_qubits, amps)


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
) -> bool:
    """Monte-Carlo equivalence of two circuits as channels on n_data qubits.

    Both circuits take the data on qubits 0..n_data-1; extra qubits start
    in |0>.  Measurement randomness is resimulated per trial.  With the
    frame corrections applied (read at the output amplitudes alone, by
    _corrected_at), every non-output qubit must sit in a definite basis
    state (measured, or returned to |0>), and the state on the output
    qubits must match across circuits up to a global phase.
    """
    out_a = tuple(range(n_data)) if out_a is None else out_a
    out_b = tuple(range(n_data)) if out_b is None else out_b
    master = np.random.default_rng(seed)
    for trial in range(trials):
        psi = random_state(n_data, master)
        va = _run_and_extract(circuit_a, psi, out_a, master)
        vb = _run_and_extract(circuit_b, psi, out_b, master)
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
) -> np.ndarray | None:
    n = circuit.n_qubits
    parts = {tuple(range(data_state.n_qubits)): data_state.amps}
    support = _Support.listed(circuit, *_support(n, parts))
    amps = None if support is not None else product_state(n, parts).amps
    res = _run(circuit, amps, support, rng)
    # non-output qubits: measured ones hold their corrected outcome, the rest
    # must have been returned to |0>; bit j of the output sits on out_map[j]
    fixed = sum(res.qubit_outcomes.get(q, 0) << q for q in range(n) if q not in out_map)
    amps = _corrected_at(res.frame, res.state.amps, _spread(out_map) | fixed)
    weight = float(np.sum(np.abs(amps) ** 2))
    if abs(weight - 1.0) > 1e-9:
        return None  # output entangled with leftover qubits: not a clean channel
    return amps
