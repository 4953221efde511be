"""Gates, circuits and resource accounting for a fixed fault-tolerant gate set.

The instruction set is deliberately small: the Paulis, H, the Z-axis phase
gates S/S†/T/T†, CNOT and Toffoli, plus computational-basis measurement and
classically conditioned Pauli-frame updates.  Arbitrary-angle RZ and CRZ
gates exist only as placeholders inside circuits that have not yet been
synthesized down to the fault-tolerant set; ``Circuit.fault_tolerant`` is
False whenever one is present.

Conventions used throughout the package:

* qubit ``j`` is the j-th least significant bit of a basis-state index,
* ``RZ(phi) = diag(1, e^{i phi})`` and ``CRZ(phi)`` phases only ``|11>``,
* depth is the number of layers; measurements occupy a slot in a layer
  like any other gate, while frame updates are classical bookkeeping: they
  take no time slot of their own and may share a layer with gates on the
  same qubit (within a layer, listed order is execution order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# |+>, the input of PAR and QVR ancillas; shared, so read-only
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
PLUS.setflags(write=False)

# Gate kinds.  Order matters only for deterministic iteration in searches.
X, Y, Z, H, S, SDG, T, TDG = "X", "Y", "Z", "H", "S", "SDG", "T", "TDG"
CNOT, TOFFOLI = "CNOT", "TOFFOLI"
RZ, CRZ = "RZ", "CRZ"
MEASURE, FRAME = "MEASURE", "FRAME"

SINGLE_QUBIT_KINDS = (X, Y, Z, H, S, SDG, T, TDG)
CLIFFORD_KINDS = frozenset({X, Y, Z, H, S, SDG, CNOT})
PAULI_KINDS = frozenset({X, Y, Z})

_ARITY = {kind: 1 for kind in SINGLE_QUBIT_KINDS}
_ARITY.update({CNOT: 2, TOFFOLI: 3, RZ: 1, CRZ: 2, MEASURE: 1, FRAME: 1})

# Adjoint within the alphabet; every fault-tolerant kind has one.
ADJOINT = {X: X, Y: Y, Z: Z, H: H, S: SDG, SDG: S, T: TDG, TDG: T}

# The rotation methods, named once for every module: exact and sequence are
# built by synth.emit_rz, kickback by ftqc.kickback, sk and par are priced only.
EXACT, SEQUENCE, KICKBACK, SK, PAR = "exact", "sequence", "kickback", "sk", "par"


def check_epsilon(epsilon: float, name: str = "epsilon") -> None:
    """Reject an accuracy that is not finite and positive (NaN included)."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {epsilon!r}")


@dataclass(frozen=True)
class Gate:
    """One instruction.

    ``angle`` is only meaningful for RZ/CRZ placeholders.  ``key`` labels a
    measurement so that later FRAME gates can condition on its outcome via
    ``cond``.  ``pauli`` selects which correction a FRAME gate folds into
    the tracked frame.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    key: int | None = None
    pauli: str | None = None
    cond: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")
        if (self.angle is not None) != (self.kind in (RZ, CRZ)):
            raise ValueError(f"angle is required for RZ/CRZ and forbidden otherwise ({self.kind})")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.kind} angle must be finite, got {self.angle!r}")
        if (self.key is not None) and self.kind != MEASURE:
            raise ValueError("key is only valid on MEASURE")
        if self.kind == FRAME:
            if self.pauli not in ("X", "Z"):
                raise ValueError("FRAME needs pauli 'X' or 'Z'")
        elif self.pauli is not None or self.cond is not None:
            raise ValueError("pauli/cond are only valid on FRAME")

    @property
    def is_unitary(self) -> bool:
        return self.kind not in (MEASURE, FRAME)


def gate(kind: str, *qubits: int, **kw) -> Gate:
    return Gate(kind, tuple(qubits), **kw)


def rz(angle: float, q: int) -> Gate:
    return Gate(RZ, (q,), angle=float(angle))


def crz(angle: float, control: int, target: int) -> Gate:
    return Gate(CRZ, (control, target), angle=float(angle))


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate(TOFFOLI, (c1, c2, target))


def measure(q: int, key: int) -> Gate:
    return Gate(MEASURE, (q,), key=key)


def frame_update(q: int, pauli: str, cond: int | None = None) -> Gate:
    return Gate(FRAME, (q,), pauli=pauli, cond=cond)


@dataclass(frozen=True)
class ResourceProfile:
    """Depth / T-count / gate-count / qubit summary of a circuit or model.

    Toffolis are priced at 7 T gates, matching their expansion over
    {H, T, T†, CNOT}; depth is in layers under full parallelism.
    """

    depth: int
    t_count: int
    total_gates: int
    qubits: int

    def in_series(self, other: "ResourceProfile") -> "ResourceProfile":
        """Sequential composition on a shared register."""
        return ResourceProfile(
            depth=self.depth + other.depth,
            t_count=self.t_count + other.t_count,
            total_gates=self.total_gates + other.total_gates,
            qubits=max(self.qubits, other.qubits),
        )

    def in_parallel(self, other: "ResourceProfile") -> "ResourceProfile":
        """Side-by-side composition on disjoint registers."""
        return ResourceProfile(
            depth=max(self.depth, other.depth),
            t_count=self.t_count + other.t_count,
            total_gates=self.total_gates + other.total_gates,
            qubits=self.qubits + other.qubits,
        )

    def times(self, k: int) -> "ResourceProfile":
        """k sequential repetitions."""
        if k < 0:
            raise ValueError("repetition count must be non-negative")
        return ResourceProfile(self.depth * k, self.t_count * k, self.total_gates * k, self.qubits)

    def with_qubits(self, qubits: int) -> "ResourceProfile":
        return replace(self, qubits=qubits)


class Circuit:
    """An immutable layered circuit.

    Within a layer all quantum gates act on disjoint qubits and are
    considered simultaneous; zero-duration FRAME updates may overlap
    anything and execute in listed order.  Measurement keys must be unique
    across the circuit and a conditional frame update may only reference a
    key measured in an earlier layer.
    """

    __slots__ = ("n_qubits", "layers")

    def __init__(self, n_qubits: int, layers: Iterable[Iterable[Gate]]):
        if n_qubits <= 0:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = int(n_qubits)
        self.layers: tuple[tuple[Gate, ...], ...] = tuple(tuple(layer) for layer in layers)
        seen_keys: set[int] = set()
        measured_keys: set[int] = set()
        for layer in self.layers:
            used: set[int] = set()
            for g in layer:
                if max(g.qubits) >= self.n_qubits:
                    raise ValueError(f"gate {g} addresses qubit outside register of {self.n_qubits}")
                if g.kind != FRAME:
                    overlap = used.intersection(g.qubits)
                    if overlap:
                        raise ValueError(f"layer reuses qubit(s) {sorted(overlap)}")
                    used.update(g.qubits)
                if g.kind == MEASURE:
                    if g.key in seen_keys:
                        raise ValueError(f"duplicate measurement key {g.key}")
                    seen_keys.add(g.key)
                if g.kind == FRAME and g.cond is not None and g.cond not in measured_keys:
                    raise ValueError(f"frame update conditions on key {g.cond} not yet measured")
            measured_keys |= {g.key for g in layer if g.kind == MEASURE}

    def __iter__(self) -> Iterator[tuple[Gate, ...]]:
        return iter(self.layers)

    def gates(self) -> Iterator[Gate]:
        for layer in self.layers:
            yield from layer

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def fault_tolerant(self) -> bool:
        return all(g.kind not in (RZ, CRZ) for g in self.gates())

    def profile(self) -> ResourceProfile:
        t = 0
        total = 0
        for g in self.gates():
            total += 1
            if g.kind in (T, TDG):
                t += 1
            elif g.kind == TOFFOLI:
                t += 7
        return ResourceProfile(depth=self.depth, t_count=t, total_gates=total, qubits=self.n_qubits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Circuit)
            and self.n_qubits == other.n_qubits
            and self.layers == other.layers
        )

    def __repr__(self) -> str:
        return f"Circuit(n_qubits={self.n_qubits}, depth={self.depth}, gates={sum(len(l) for l in self.layers)})"


@lru_cache(maxsize=None)
def built_profile(build: Callable[..., Circuit], *args) -> ResourceProfile:
    """build(*args).profile(), built once per (build, args) for the process:
    the one way the estimators price a circuit they construct."""
    return build(*args).profile()


class CircuitBuilder:
    """Accumulates gates and packs them into layers as early as possible.

    A gate lands in the first layer after the latest layer touching any of
    its qubits; conditional frame updates are additionally held back until
    after the measurement they read.  Frame updates do not block the layer:
    they are classical, so a later gate on the same qubit may share it.
    """

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self._layers: list[list[Gate]] = []
        self._qubit_free: dict[int, int] = {}
        self._key_layer: dict[int, int] = {}

    def append(self, g: Gate) -> "CircuitBuilder":
        at = max((self._qubit_free.get(q, 0) for q in g.qubits), default=0)
        if g.kind == FRAME and g.cond is not None:
            if g.cond not in self._key_layer:
                raise ValueError(f"conditional frame update before measurement key {g.cond}")
            at = max(at, self._key_layer[g.cond] + 1)
        while len(self._layers) <= at:
            self._layers.append([])
        self._layers[at].append(g)
        if g.kind == FRAME:
            # zero duration: later gates may share this layer (they execute
            # after it, in listed order) but must not land before it
            q = g.qubits[0]
            self._qubit_free[q] = max(self._qubit_free.get(q, 0), at)
        else:
            for q in g.qubits:
                self._qubit_free[q] = at + 1
        if g.kind == MEASURE:
            self._key_layer[g.key] = at
        return self

    def extend(self, gates: Iterable[Gate]) -> "CircuitBuilder":
        for g in gates:
            self.append(g)
        return self

    def barrier(self) -> "CircuitBuilder":
        """Force everything appended later into strictly later layers."""
        n = len(self._layers)
        for q in range(self.n_qubits):
            self._qubit_free[q] = max(self._qubit_free.get(q, 0), n)
        return self

    def build(self) -> Circuit:
        return Circuit(self.n_qubits, self._layers)


# ---------------------------------------------------------------------------
# matrices and the distance metric

_SQ = 1.0 / math.sqrt(2.0)

GATE_MATRICES: dict[str, np.ndarray] = {
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
    H: np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    S: np.array([[1, 0], [0, 1j]], dtype=complex),
    SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


def rz_matrix(angle: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)


def dist(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant (Fowler) distance sqrt((d - |tr(U^dag V)|) / d).

    Computed as ||U - e^{i theta} V||_F / sqrt(2d) with
    e^{i theta} = conj(tr U^dag V) / |tr U^dag V|, the phase that best
    aligns V with U. For unitary U and V the two forms are equal. The
    trace form subtracts two nearly equal numbers, so rounding of order
    eps in either matrix shows up as a distance of order sqrt(eps); the
    difference form keeps it at eps.

    Zero iff U and V agree up to a global phase; obeys the triangle
    inequality, so per-gate errors in a product can be summed.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dist needs two square matrices of equal shape, got {u.shape} and {v.shape}")
    overlap = np.vdot(u, v)
    size = abs(overlap)
    # with zero overlap every phase gives the same (maximal) distance
    diff = u - (overlap.conjugate() / size if size > 0 else 1.0) * v
    return float(np.sqrt(np.vdot(diff, diff).real / (2 * u.shape[0])))


# ---------------------------------------------------------------------------
# Pauli operators in symplectic form (Aaronson & Gottesman, quant-ph/0406196)


class Pauli(NamedTuple):
    """The Pauli operator i^phase * Z^z X^x over integer bit masks.

    Bit q of ``x`` (``z``) puts an X (Z) factor on qubit q, the Z factor to
    the left, so a qubit with both bits set carries Z X = i Y.  ``phase``
    is an exponent of i, mod 4.  The identity is ``Pauli()``.
    """

    x: int = 0
    z: int = 0
    phase: int = 0

    def __mul__(self, other: "Pauli") -> "Pauli":
        # moving X^x1 right past Z^z2 costs (-1)^|x1 & z2|
        return Pauli(
            self.x ^ other.x,
            self.z ^ other.z,
            (self.phase + other.phase + 2 * (self.x & other.z).bit_count()) % 4,
        )

    def letters(self) -> tuple[tuple[int, str], ...]:
        """(qubit, letter) pairs in ascending qubit order, phase dropped.

        Z^z X^x is i^|x & z| times this tensor product of X, Y and Z.
        """
        codes = ((q, (self.x >> q & 1) | (self.z >> q & 1) << 1)
                 for q in range((self.x | self.z).bit_length()))
        return tuple((q, "_XZY"[code]) for q, code in codes if code)

    def conjugate(self, kind: str, qubits: tuple[int, ...]) -> "Pauli":
        """G P G^dag for a Clifford gate G of the given kind on those qubits."""
        x, z, s = self
        q = qubits[0]
        xq, zq = x >> q & 1, z >> q & 1
        if kind == CNOT:
            # X_c -> X_c X_t and Z_t -> Z_c Z_t; no factor reorders
            t = qubits[1]
            return Pauli(x ^ xq << t, z ^ (z >> t & 1) << q, s)
        if kind == X:
            s += 2 * zq
        elif kind == Z:
            s += 2 * xq
        elif kind == Y:
            s += 2 * (xq ^ zq)
        elif kind == H:
            # X <-> Z, and Z X -> X Z = -Z X
            flip = (xq ^ zq) << q
            x, z = x ^ flip, z ^ flip
            s += 2 * (xq & zq)
        elif kind in (S, SDG):
            # S X S^dag = Y = i^3 Z X, S^dag X S = -Y = i Z X
            z ^= xq << q
            s += (3 if kind == S else 1) * xq
        else:
            raise ValueError(f"{kind} is not a Clifford gate")
        return Pauli(x, z, s % 4)


# ---------------------------------------------------------------------------
# plain-text serialization: one layer per line, gates joined by "; ", each
# gate "KIND q0[,q1[,q2]][@angle]"; measurements carry "key=N" and frame
# updates "pauli=P [cond=N]".  Angles round-trip at 17 significant digits.

_HEADER = "# ftqc-circuit v1"


def circuit_to_text(c: Circuit) -> str:
    lines = [_HEADER, f"qubits {c.n_qubits}"]
    for layer in c.layers:
        parts = []
        for g in layer:
            tok = f"{g.kind} {','.join(str(q) for q in g.qubits)}"
            if g.angle is not None:
                tok += f"@{g.angle:.17g}"
            if g.kind == MEASURE:
                tok += f" key={g.key}"
            if g.kind == FRAME:
                tok += f" pauli={g.pauli}"
                if g.cond is not None:
                    tok += f" cond={g.cond}"
            parts.append(tok)
        lines.append("; ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Read back what circuit_to_text writes (the CLI's --circuit files).

    Public API with no caller inside the package: it is the round-trip
    partner of circuit_to_text, so a saved circuit can be loaded and run
    or checked again, layers as written.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError("circuit text must start with a 'qubits N' line")
    n_qubits = int(lines[0].split()[1])
    layers: list[list[Gate]] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        layer = []
        for tok in ln.split(";"):
            tok = tok.strip()
            if not tok:
                continue
            fields = tok.split()
            kind = fields[0]
            spec = fields[1]
            angle = None
            if "@" in spec:
                spec, angle_s = spec.split("@", 1)
                angle = float(angle_s)
            qubits = tuple(int(q) for q in spec.split(","))
            kw: dict = {}
            for extra in fields[2:]:
                k, _, v = extra.partition("=")
                if k == "key":
                    kw["key"] = int(v)
                elif k == "cond":
                    kw["cond"] = int(v)
                elif k == "pauli":
                    kw["pauli"] = v
                else:
                    raise ValueError(f"line {lineno}: unknown gate attribute {extra!r}")
            try:
                layer.append(Gate(kind, qubits, angle=angle, **kw))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        layers.append(layer)
    return Circuit(n_qubits, layers)
