"""Second-quantized chemistry circuits and their resource estimates.

The electronic Hamiltonian in an orbital basis is a sum of one-body terms
h_pq a_p^dag a_q and two-body terms h_pqrs a_p^dag a_q^dag a_r a_s.  This
module ingests the integral tables (``load_integrals``/``apply_cutoff``),
maps each term to qubits with the Jordan-Wigner transform, and builds the
Trotter-step propagator circuits:

* ``excitation_operator_strings`` expands the hermitian generator of a
  term into commuting Pauli strings: a product of ladder operators is a
  sum over plain-int (x, z) masks with exact dyadic coefficients, its
  hermitian conjugate is read off the same sum, and only the returned
  strings are spelled out as letters,
* ``build_excitation`` turns those strings into a circuit: basis changes
  into the Z basis (H for an X factor, H.S.H / H.S^dag.H around a Y
  factor), a CNOT parity ladder, one phase rotation on the parity wire,
  and the mirror image.  Between two strings each wire gets one word,
  the first string's way back followed by the next one's way in, with
  adjacent adjoint pairs cancelled.  The controlled variant used in
  phase estimation realizes every rotation through an AND ancilla (two
  Toffolis around a plain rotation, ancilla restored to |0>) so only
  single-qubit rotations ever need synthesis.  The estimator does not
  price this built block yet (ROADMAP item 6); it prices each string's
  ladder and rotation from cost models,
* ``build_jw_ladder`` provides the parity ladder either directly (depth
  span-1) or teleported to constant depth: one Bell pair per interior
  wire lets all ladder CNOTs run in a single layer, and the Bell-state
  measurements relocate each interior wire onto its Bell half with Pauli
  corrections that ride the classical frame.

``estimate_second_quantized`` prices a full phase-estimation run (2^n - 1
controlled Trotter steps for n readout bits) without simulating it, using
per-method rotation cost models; ``rotation_profile`` documents those
models.  It walks the same masks, expands each term's strings once per
index pattern and prices each parity ladder once per (span, mode) for
the process with core.built_profile (a term value only scales its
pattern's strings), and prices a rotation once per call, or once per
angle where the price depends on it.  Gate-level circuits stay exactly
verifiable on the statevector simulator; the estimator is pure
arithmetic over term structure.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import (
    ADJOINT,
    EXACT,
    KICKBACK,
    PAR,
    SEQUENCE,
    SK,
    H,
    S,
    SDG,
    TWO_PI,
    Circuit,
    CircuitBuilder,
    Pauli,
    ResourceProfile,
    built_profile,
    check_epsilon,
    cnot,
    frame_update,
    gate,
    measure,
    rz_matrix,
    toffoli,
)
from .kickback import ripple_profile
from .par import register_bits_for
from .synth import emit_rz, min_sequence

# Rotation methods priced by the estimator.  At gate level build_excitation
# takes exact or sequence (synth.emit_rz); the rest enter as cost models.
METHODS = (KICKBACK, SEQUENCE, SK, PAR)

LADDER_DIRECT = "direct"
LADDER_TELEPORTED = "teleported"

HERMITICITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Integral terms and tables


@dataclass(frozen=True)
class OneBodyTerm:
    """h_pq entry; generates h (a_p^dag a_q + a_q^dag a_p), or h n_p on the
    diagonal (the number operator is its own hermitian conjugate)."""

    p: int
    q: int
    value: float

    def __post_init__(self) -> None:
        if min(self.p, self.q) < 0:
            raise ValueError("orbital indices must be non-negative")
        if not math.isfinite(self.value):
            raise ValueError(f"term value {self.value!r} is not finite")

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.p, self.q)


@dataclass(frozen=True)
class TwoBodyTerm:
    """h_pqrs entry; generates h (a_p^dag a_q^dag a_r a_s + h.c.), without
    doubling when the operator is already self-adjoint (s=p, r=q)."""

    p: int
    q: int
    r: int
    s: int
    value: float

    def __post_init__(self) -> None:
        if min(self.indices) < 0:
            raise ValueError("orbital indices must be non-negative")
        if not math.isfinite(self.value):
            raise ValueError(f"term value {self.value!r} is not finite")

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.p, self.q, self.r, self.s)


Term = OneBodyTerm | TwoBodyTerm


@dataclass(frozen=True)
class IntegralTable:
    """Molecular integrals over n_orbitals spin-orbitals, atomic units.

    Hermiticity is enforced where both partners appear: h_pq must equal
    h_qp (real values) within 1e-12, and h_pqrs must equal h_srqp.  A
    repeated entry with a conflicting value is rejected the same way.
    """

    n_orbitals: int
    one_body: tuple[OneBodyTerm, ...] = ()
    two_body: tuple[TwoBodyTerm, ...] = ()

    def __post_init__(self) -> None:
        if self.n_orbitals < 0:
            raise ValueError("orbital count must be non-negative")
        for t in self.one_body + self.two_body:
            if max(t.indices) >= self.n_orbitals:
                raise ValueError(
                    f"term {t.indices} outside register of {self.n_orbitals} orbitals"
                )
        seen: dict[tuple[int, ...], float] = {}
        for t in self.one_body:
            self._check_pair(seen, (t.p, t.q), (t.q, t.p), t.value, "one-body")
        seen = {}
        for t in self.two_body:
            self._check_pair(
                seen, (t.p, t.q, t.r, t.s), (t.s, t.r, t.q, t.p), t.value, "two-body"
            )

    @staticmethod
    def _check_pair(seen, key, partner, value, kind) -> None:
        for other in (key, partner):
            if other in seen and abs(seen[other] - value) > HERMITICITY_TOL:
                raise ValueError(
                    f"{kind} block not hermitian: {key} -> {value!r} conflicts "
                    f"with {other} -> {seen[other]!r}"
                )
        seen[key] = value

    @property
    def n_terms(self) -> int:
        return len(self.one_body) + len(self.two_body)

    def terms(self) -> tuple[Term, ...]:
        return self.one_body + self.two_body

    def sorted_terms(self) -> tuple[Term, ...]:
        """Deterministic Trotter ordering: |h| descending, then indices."""
        return tuple(sorted(self.terms(), key=lambda t: (-abs(t.value), t.indices)))


def load_integrals(source) -> IntegralTable:
    """Parse a plain-text integral file into a table.

    Lines are ``p q value`` (one-body) or ``p q r s value`` (two-body)
    with 1-based orbital indices, ``#`` starting a comment; anything else
    is an error reported with its line number.  The orbital count is the
    largest index seen.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            text = fh.read()
    one: list[OneBodyTerm] = []
    two: list[TwoBodyTerm] = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 5):
            raise ValueError(
                f"line {lineno}: expected 'p q value' or 'p q r s value', "
                f"got {len(parts)} fields"
            )
        try:
            indices = [int(tok) for tok in parts[:-1]]
            value = float(parts[-1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if min(indices) < 1:
            raise ValueError(f"line {lineno}: orbital indices are 1-based")
        top = max(top, max(indices))
        if len(parts) == 3:
            one.append(OneBodyTerm(indices[0] - 1, indices[1] - 1, value))
        else:
            two.append(TwoBodyTerm(*(i - 1 for i in indices), value))
    return IntegralTable(top, tuple(one), tuple(two))


@dataclass(frozen=True)
class CutoffReport:
    """What a cutoff kept, plus a retained-count curve for plotting."""

    threshold: float
    retained: int
    dropped: int
    curve: tuple[tuple[float, int], ...]  # (threshold, retained) descending


def apply_cutoff(table: IntegralTable, threshold: float) -> tuple[IntegralTable, CutoffReport]:
    """Drop every term with |value| <= threshold.

    The report's curve samples the retained count at decade thresholds
    10^0 .. 10^-16 so the falloff can be plotted without recomputing.
    When nothing is dropped the input table itself is returned.
    """
    if not threshold >= 0:
        raise ValueError("cutoff threshold must be non-negative")
    values = sorted(abs(t.value) for t in table.terms())

    def above(level: float) -> int:
        return len(values) - bisect_right(values, level)

    retained = above(threshold)
    kept = table
    if retained < table.n_terms:
        kept = IntegralTable(
            table.n_orbitals,
            tuple(t for t in table.one_body if abs(t.value) > threshold),
            tuple(t for t in table.two_body if abs(t.value) > threshold),
        )
    report = CutoffReport(
        threshold=threshold,
        retained=retained,
        dropped=table.n_terms - retained,
        curve=tuple((10.0**e, above(10.0**e)) for e in range(0, -17, -1)),
    )
    return kept, report


# ---------------------------------------------------------------------------
# Jordan-Wigner expansion
#
# Modes map to qubits in register order with a_j = (prod_{k<j} Z_k) (X_j +
# iY_j)/2, so qubit j's |1> marks an occupied orbital j and the Z chain
# carries the fermionic sign.  Since iY_j = Z_j X_j, the ladder operators
# are a_j = (X_j + Z_j X_j)/2 and a_j^dag = (X_j - Z_j X_j)/2 on the chain
# z = (1 << j) - 1.  A product of k ladder operators is then a sum of
# Z^z X^x over plain-int masks (x, z) with coefficients n / 2^k for small
# integers n: moving X^x1 right past Z^z2 only costs (-1)^|x1 & z2|, so
# the sums are exact.  The hermitian conjugate of that product needs no
# second expansion, since (Z^z X^x)^dag = X^x Z^z = (-1)^|x & z| Z^z X^x:
# strings with an odd number of Y factors cancel against it and the rest
# double.  Finally Z^z X^x = i^|x & z| times the tensor product of its
# letters, a sign for the strings that survive.


@lru_cache(maxsize=4096)
def _jw_expansion(
    mode_ops: tuple[tuple[int, bool], ...], self_adjoint: bool
) -> tuple[tuple[int, bool, int, int], ...]:
    """A product of ladder operators [(index, dagger)] expanded once per
    (operators, self-adjoint flag) for the process, with everything but
    the term value: each Z^z X^x that survives the conjugate as
    (n, flip, x, z), n / 2^len(mode_ops) its exact coefficient before the
    conjugate doubles it and flip the sign of i^|x & z|.  Every string of
    the product has the same X part, the xor of the mode bits, so the
    sign of moving it past a chain and that of a Z_j passing its bit j
    are one per factor.  Strings whose n cancels to 0 are left out: no
    term value lifts them above the floor."""
    x = 0
    terms = {0: 1}  # z -> n
    for j, dagger in mode_ops:
        bit, chain = 1 << j, (1 << j) - 1
        # times Z^chain X^bit, and times -/+ Z^(chain | bit) X^bit
        first = -1 if (x & chain).bit_count() & 1 else 1
        second = -first if dagger != bool(x & bit) else first
        product: dict[int, int] = {}
        for z, n in terms.items():
            key = z ^ chain
            product[key] = product.get(key, 0) + first * n
            key ^= bit
            product[key] = product.get(key, 0) + second * n
        terms = product
        x ^= bit
    out = []
    for z, n in terms.items():
        n_y = (x & z).bit_count()
        if n and (self_adjoint or not n_y & 1):
            out.append((n, bool(n_y & 2), x, z))
    return tuple(out)


def _generator_masks(term: Term, n_orbitals: int | None) -> list[tuple[float, int, int]]:
    """The hermitian generator of a term as (real coeff, x, z) triples,
    unordered: coeff times the tensor product of the letters of Z^z X^x.
    The term value scales the cached expansion of its index pattern."""
    if n_orbitals is not None and max(term.indices) >= n_orbitals:
        raise ValueError(
            f"term {term.indices} outside register of {n_orbitals} orbitals"
        )
    if isinstance(term, OneBodyTerm):
        ops = ((term.p, True), (term.q, False))
        self_adjoint = term.p == term.q
    else:
        ops = ((term.p, True), (term.q, True), (term.r, False), (term.s, False))
        self_adjoint = term.s == term.p and term.r == term.q
    value = term.value
    scale = 0.5 ** len(ops)
    floor = 1e-15 * max(1.0, abs(value))
    out = []
    for n, flip, x, z in _jw_expansion(ops, self_adjoint):
        c = n * scale * value
        if not self_adjoint:
            c += c
        if abs(c) > floor:
            out.append((-c if flip else c, x, z))
    return out


class PauliString(NamedTuple):
    """One term coeff * P of a hermitian Pauli-sum generator."""

    coeff: float
    ops: tuple[tuple[int, str], ...]  # (qubit, letter) ascending


def excitation_operator_strings(
    term: Term, n_orbitals: int | None = None
) -> tuple[PauliString, ...]:
    """Jordan-Wigner Pauli expansion of a term's hermitian generator A.

    One-body off-diagonal: A = h (a_p^dag a_q + a_q^dag a_p); diagonal:
    A = h a_p^dag a_p.  Two-body: A = h (a_p^dag a_q^dag a_r a_s + h.c.),
    with the conjugate omitted when the operator is already self-adjoint
    (s=p and r=q).  All returned coefficients are real and the strings of
    one term pairwise commute, so exp(-iA dt) factors exactly into one
    rotation per string.  A string with empty ops is a global phase.
    Strings are sorted by their ops.
    """
    strings = (
        PauliString(c, Pauli(x, z).letters()) for c, x, z in _generator_masks(term, n_orbitals)
    )
    return tuple(sorted(strings, key=lambda s: s.ops))


# ---------------------------------------------------------------------------
# Excitation circuits

_BASIS_PRE = {"X": (H,), "Y": (H, S, H)}  # into the Z basis
_BASIS_POST = {"X": (H,), "Y": (H, SDG, H)}  # and back


def _cancel_adjoints(kinds) -> list[str]:
    """A word of single-qubit gates, in the order they act, with adjacent
    adjoint pairs (H.H, S.S^dag, S^dag.S) cancelled until none is left."""
    out: list[str] = []
    for kind in kinds:
        if out and ADJOINT[kind] == out[-1]:
            out.pop()
        else:
            out.append(kind)
    return out


def build_excitation(
    term: Term,
    dt: float,
    *,
    n_orbitals: int | None = None,
    method: str = EXACT,
    epsilon: float = 1e-4,
    controlled: bool = False,
) -> Circuit:
    """Propagator exp(-i A dt) for one integral term, string by string.

    Each Pauli string becomes basis changes + CNOT parity ladder + one
    rotation of angle 2 c dt on the parity wire + mirror; for one-body
    off-diagonal terms that rotation angle is exactly h dt.  The basis
    changes merge at each boundary between strings: a wire gets the
    closing word of string k and the opening word of string k+1 as one
    word with adjacent adjoint pairs cancelled (X to X and Y to Y leave
    nothing, X to Y leaves S.H and Y to X leaves H.S^dag, gates listed in
    the order they act), and a wire absent from string k+1 is closed in
    full.  The merges are exact identities, and every CNOT, Toffoli and
    rotation is that of the string-by-string circuit, in its order; on
    the 18-orbital double excitation (0, 5, 12, 17) the H, S and S^dag
    counts fall from 96, 16 and 16 to 28, 10 and 10.
    estimate_second_quantized does not price this block yet (ROADMAP
    item 6).  Each rotation is synth.emit_rz's, by method "exact" or
    "sequence"; a sequence word that misses epsilon raises ValueError.
    The plain circuit realizes the propagator up to a global phase.
    With controlled=True (wire layout: orbitals, control, AND ancilla)
    each rotation is wrapped in two Toffolis against a |0> ancilla so the
    phase lands only when the control is set, and the accumulated global
    phase is repaid by one extra rotation on the control itself, making
    the block exactly diag(I, exp(-i A dt)).
    """
    if n_orbitals is None:
        n_orbitals = max(term.indices) + 1
    strings = excitation_operator_strings(term, n_orbitals)
    if controlled:
        control = n_orbitals
        ancilla = n_orbitals + 1
        builder = CircuitBuilder(n_orbitals + 2)
    else:
        control = ancilla = None
        builder = CircuitBuilder(max(n_orbitals, 1))
    phase_sum = 0.0  # the realized circuit misses exp(-i phase_sum)
    owed: dict[int, str] = {}  # wire -> letter of the last string, not yet closed
    for coeff, ops in strings:
        alpha = coeff * dt
        phase_sum += alpha
        if not ops:
            continue
        theta = 2.0 * alpha
        letters = dict(ops)
        for q in sorted(owed.keys() | letters.keys()):
            word = _BASIS_POST.get(owed.get(q), ()) + _BASIS_PRE.get(letters.get(q), ())
            builder.extend(gate(kind, q) for kind in _cancel_adjoints(word))
        owed = letters
        wires = [q for q, _ in ops]
        for a, b in zip(wires, wires[1:]):
            builder.append(cnot(a, b))
        target = wires[-1]
        if controlled:
            builder.append(toffoli(control, target, ancilla))
            emit_rz(builder, theta % TWO_PI, ancilla, method, epsilon)
            builder.append(toffoli(control, target, ancilla))
        else:
            emit_rz(builder, theta % TWO_PI, target, method, epsilon)
        for a, b in reversed(list(zip(wires, wires[1:]))):
            builder.append(cnot(a, b))
    for q, letter in owed.items():
        builder.extend(gate(kind, q) for kind in _BASIS_POST.get(letter, ()))
    if controlled:
        emit_rz(builder, -phase_sum % TWO_PI, control, method, epsilon)
    return builder.build()


# ---------------------------------------------------------------------------
# CNOT parity ladders


def _check_ladder(span: int, mode: str) -> None:
    if span < 2:
        raise ValueError("ladder needs at least two wires")
    if mode not in (LADDER_DIRECT, LADDER_TELEPORTED):
        raise ValueError(f"unknown ladder mode {mode!r}")


def build_jw_ladder(span: int, mode: str = LADDER_DIRECT) -> Circuit:
    """Prefix-parity CNOT ladder over `span` wires.

    direct: CNOT(0,1), CNOT(1,2), ..., depth span-1 on span qubits.

    teleported: constant depth on 3 span - 4 qubits.  Each interior wire
    j gets a Bell pair (e_j, f_j); every ladder CNOT then runs in one
    layer with f_j standing in for the not-yet-computed wire j, and a
    Bell-state measurement (CNOT, H, two measurements) glues wire j onto
    f_j afterwards.  The measurement outcomes leave Pauli errors whose
    propagation through the pre-applied CNOTs is folded classically:
    with a_j, b_j the two outcomes of BSM j and B_j = b_1 xor .. xor
    b_j, wire f_j needs X^{B_j} Z^{a_j} and the last data wire needs
    X^{B_{span-2}}.  Those land as conditional frame updates, so the
    built circuit is channel-equal to the direct ladder on the relocated
    outputs of ladder_output_map.
    """
    _check_ladder(span, mode)
    if mode == LADDER_DIRECT or span == 2:
        builder = CircuitBuilder(span if mode == LADDER_DIRECT else 2)
        for a in range(span - 1):
            builder.append(cnot(a, a + 1))
        return builder.build()
    inner = span - 2
    builder = CircuitBuilder(3 * span - 4)
    e = [span + 2 * j for j in range(inner)]
    f = [span + 2 * j + 1 for j in range(inner)]
    key_a = [2 * j for j in range(inner)]
    key_b = [2 * j + 1 for j in range(inner)]
    for j in range(inner):
        builder.append(gate(H, e[j]))
        builder.append(cnot(e[j], f[j]))
    # one fixed schedule for every span: without the fence the span-3 case
    # packs a layer tighter and the depth would depend on span
    builder.barrier()
    builder.append(cnot(0, 1))
    for j in range(inner):
        builder.append(cnot(f[j], j + 2))
    for j in range(inner):
        builder.append(cnot(j + 1, e[j]))  # BSM of carrier wire j+1 with e_j
        builder.append(gate(H, j + 1))
        builder.append(measure(e[j], key=key_b[j]))
        builder.append(measure(j + 1, key=key_a[j]))
    for j in range(inner):
        for i in range(j + 1):
            builder.append(frame_update(f[j], "X", cond=key_b[i]))
        builder.append(frame_update(f[j], "Z", cond=key_a[j]))
    for i in range(inner):
        builder.append(frame_update(span - 1, "X", cond=key_b[i]))
    return builder.build()


def ladder_output_map(span: int, mode: str = LADDER_DIRECT) -> tuple[int, ...]:
    """Where each logical ladder wire ends up in the built circuit."""
    _check_ladder(span, mode)
    if mode == LADDER_DIRECT or span == 2:
        return tuple(range(span))
    return (0,) + tuple(span + 2 * j + 1 for j in range(span - 2)) + (span - 1,)


# ---------------------------------------------------------------------------
# Cost models


class RotationCost(NamedTuple):
    """Priced controlled rotation: full block plus its synthesis depth."""

    block: ResourceProfile
    rotation_depth: int  # the approximated-rotation part of block.depth


def _sequence_fit(epsilon: float) -> tuple[int, int]:
    """Reference fit for optimal-sequence length beyond exhaustive reach:
    depth -24.9 log10(eps) - 7.64 and T count -9.75 log10(eps) - 2.81."""
    log = math.log10(epsilon)
    depth = max(1.0, -24.9 * log - 7.64)
    t = max(0.0, -9.75 * log - 2.81)
    return math.ceil(depth), math.ceil(t)


# Exhaustive search handles coarse tolerances directly; below this the fit
# lines take over.  Power-law constants for the Solovay-Kitaev model are
# calibrated against this package's own compiler at recursion level 4
# (lengths ~7000 at eps ~1e-4 over several angles).
SEQUENCE_SEARCH_REACH = 0.05
SK_DEPTH_COEFF = 31.0
SK_T_COEFF = 14.8
PAR_MEAN_GATES = 4  # mean rounds ~2, a CNOT and a measurement per round
PAR_ANCILLA_COUNT = 6  # precomputed ancillas per rotation (2^-6 fallback rate)


def rotation_profile(method: str, epsilon: float, angle: float | None = None) -> ResourceProfile:
    """Cost model for one single-qubit phase rotation at accuracy epsilon.

    kickback: gate-level ripple-carry controlled addition at the register
    width that quantizes angles to epsilon (ripple_profile's worst-case
    addend); the width depends on epsilon alone, so every epsilon that
    quantizes to one width shares that adder's core.built_profile entry.
    sequence: exhaustive minimal sequence when epsilon (and the angle) is
    within search reach, else the fit lines.  sk: power law
    coeff * log10(1/eps)^4 in depth and T.  par: four gates mean, with
    the T bill of the six ancilla preparations (fit-line sequences)
    attributed to the rotation since they are consumed by it.
    """
    check_epsilon(epsilon)
    if method == KICKBACK:
        return ripple_profile(register_bits_for(epsilon), True)
    if method == SEQUENCE:
        if angle is not None and epsilon >= SEQUENCE_SEARCH_REACH:
            seq = min_sequence(rz_matrix(angle), epsilon)
            if seq.satisfied:
                return ResourceProfile(
                    depth=seq.length, t_count=seq.t_count,
                    total_gates=seq.length, qubits=1,
                )
        depth, t = _sequence_fit(epsilon)
        return ResourceProfile(depth=depth, t_count=t, total_gates=depth, qubits=1)
    if method == SK:
        scale = math.log10(1.0 / epsilon) ** 4
        return ResourceProfile(
            depth=math.ceil(SK_DEPTH_COEFF * scale),
            t_count=math.ceil(SK_T_COEFF * scale),
            total_gates=math.ceil(SK_DEPTH_COEFF * scale),
            qubits=1,
        )
    if method == PAR:
        _, t_prep = _sequence_fit(epsilon)
        return ResourceProfile(
            depth=PAR_MEAN_GATES,
            t_count=PAR_ANCILLA_COUNT * t_prep,
            total_gates=PAR_MEAN_GATES,
            qubits=1 + PAR_ANCILLA_COUNT,
        )
    raise ValueError(f"unknown rotation method {method!r}")


def controlled_rotation_profile(method: str, epsilon: float, angle: float | None = None) -> RotationCost:
    """Cost model for one controlled phase rotation at accuracy epsilon.

    Default construction: two Toffolis around one plain rotation on an
    AND ancilla.  Sequence-based rotations instead use the two-CNOT,
    two-rotation decomposition (the third rotation commutes with the
    phase-estimation control and merges into a neighbour, a count-level
    saving).  Controlled PARs cascade directly at the same mean four
    gates; their ancillas are simply prepared with controlled rotations.
    """
    if method == PAR:
        inner = rotation_profile(PAR, epsilon)
        block = ResourceProfile(
            depth=inner.depth,
            t_count=inner.t_count,
            total_gates=inner.total_gates,
            qubits=inner.qubits + 1,  # the control wire (closes the angle debt)
        )
        return RotationCost(block=block, rotation_depth=inner.depth)
    if method == SEQUENCE:
        half = rotation_profile(SEQUENCE, epsilon, angle)
        block = ResourceProfile(
            depth=2 + 2 * half.depth,
            t_count=2 * half.t_count,
            total_gates=2 + 2 * half.total_gates,
            qubits=2,
        )
        return RotationCost(block=block, rotation_depth=2 * half.depth)
    inner = rotation_profile(method, epsilon, angle)
    block = ResourceProfile(
        depth=2 + inner.depth,
        t_count=14 + inner.t_count,
        total_gates=2 + inner.total_gates,
        qubits=inner.qubits + 2,  # control and AND ancilla around the rotation wire
    )
    return RotationCost(block=block, rotation_depth=inner.depth)


# ---------------------------------------------------------------------------
# Trotter plans and the end-to-end estimator


@dataclass(frozen=True)
class TrotterPlan:
    """One phase-estimation readout configuration.

    n readout bits take 2^n - 1 controlled Trotter steps of size dt; every
    controlled rotation inside a step is approximated to epsilon_max with
    the given method.
    """

    dt: float
    readout_bits: int
    method: str
    epsilon_max: float = 1e-4

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("time step must be positive")
        if self.readout_bits < 1:
            raise ValueError("need at least one readout bit")
        if self.method not in METHODS:
            raise ValueError(f"unknown rotation method {self.method!r}")
        check_epsilon(self.epsilon_max, "epsilon_max")

    @property
    def steps(self) -> int:
        return (1 << self.readout_bits) - 1


@dataclass(frozen=True)
class SecondQuantizedEstimate:
    """Resource estimate for a full second-quantized phase-estimation run."""

    profile: ResourceProfile  # the whole run
    per_step: ResourceProfile
    rotation_depth: int  # depth spent inside approximated rotations, whole run
    clifford_depth: int  # everything else (basis changes, ladders, wrappers)
    rotation_count: int  # controlled rotations across the run
    steps: int
    wall_clock_seconds: float
    method: str
    ladder_mode: str

    @property
    def rotation_fraction(self) -> float:
        """Share of execution time spent rotating (a Fig.-14-style ratio)."""
        if self.profile.depth == 0:
            return 0.0
        return self.rotation_depth / self.profile.depth


def estimate_second_quantized(
    table: IntegralTable,
    plan: TrotterPlan,
    *,
    ladder_mode: str = LADDER_TELEPORTED,
    seconds_per_gate: float = 1e-3,
) -> SecondQuantizedEstimate:
    """Price a phase-estimation run over the table without simulating it.

    Terms are walked in the deterministic (|h| descending, indices) order
    and fully serialized within a step; each Pauli string costs its basis
    changes, two parity ladders (teleported by default, making the depth
    independent of how far apart the orbitals sit), and one controlled
    rotation priced by the plan's method at epsilon_max.  The per-step
    total is multiplied by the 2^n - 1 steps and wall clock is depth
    times seconds_per_gate (default 1 ms per gate), which must be finite.
    An empty table is a zero-depth run.  A term's strings are expanded
    once per index pattern for the process and scaled by its value on
    each call, so pricing a table again under another plan repeats only
    the arithmetic.
    """
    _check_ladder(2, ladder_mode)  # also when no string needs a ladder
    if not seconds_per_gate > 0:
        raise ValueError("seconds_per_gate must be positive")
    # a rotation's price depends on its angle only where sequences are
    # searched exhaustively; otherwise one price serves every string
    by_angle = plan.method == SEQUENCE and plan.epsilon_max >= SEQUENCE_SEARCH_REACH
    costs: dict[float | None, RotationCost] = {}
    depth = 0
    t_count = 0
    gates = 0
    rot_depth = 0
    rotations = 0
    ladder_extra_qubits = 0
    rot_extra_qubits = 0
    for term in table.sorted_terms():
        for coeff, x, z in _generator_masks(term, table.n_orbitals):
            weight = (x | z).bit_count()
            if not weight:
                continue  # global phase: repaid inside a neighbouring rotation
            n_y = (x & z).bit_count()
            n_x = x.bit_count() - n_y
            basis_depth = 3 if n_y else (1 if n_x else 0)
            depth += 2 * basis_depth
            gates += 2 * (n_x + 3 * n_y)
            if weight >= 2:  # a one-wire string needs no ladder
                ladder = built_profile(build_jw_ladder, weight, ladder_mode)
                depth += 2 * ladder.depth
                t_count += 2 * ladder.t_count
                gates += 2 * ladder.total_gates
                ladder_extra_qubits = max(ladder_extra_qubits, ladder.qubits - weight)
            angle = 2.0 * coeff * plan.dt if by_angle else None
            cost = costs.get(angle)
            if cost is None:
                cost = costs[angle] = controlled_rotation_profile(
                    plan.method, plan.epsilon_max, angle
                )
            depth += cost.block.depth
            t_count += cost.block.t_count
            gates += cost.block.total_gates
            rot_depth += cost.rotation_depth
            # every block includes the shared control and the orbital target
            rot_extra_qubits = max(rot_extra_qubits, cost.block.qubits - 2)
            rotations += 1
    qubits = 0
    if table.n_terms:
        qubits = table.n_orbitals + 1 + ladder_extra_qubits + rot_extra_qubits
    per_step = ResourceProfile(depth=depth, t_count=t_count, total_gates=gates, qubits=qubits)
    total = per_step.times(plan.steps)
    rotation_depth = rot_depth * plan.steps
    wall_clock = total.depth * seconds_per_gate
    if not math.isfinite(wall_clock):
        raise ValueError(
            f"seconds_per_gate {seconds_per_gate!r} times depth {total.depth} "
            "overflows the wall clock"
        )
    return SecondQuantizedEstimate(
        profile=total,
        per_step=per_step,
        rotation_depth=rotation_depth,
        clifford_depth=total.depth - rotation_depth,
        rotation_count=rotations * plan.steps,
        steps=plan.steps,
        wall_clock_seconds=wall_clock,
        method=plan.method,
        ladder_mode=ladder_mode,
    )
