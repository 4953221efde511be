"""Single-qubit gate synthesis over the fault-tolerant alphabet.

Two compilers live here.  ``min_sequence`` runs a breadth-first search over
canonical gate strings and returns a provably shortest sequence within its
length budget, which plays the role of optimal-sequence lookup at desk
scale.  ``solovay_kitaev`` is the classic baseline: nearest neighbour in an
epsilon-net at level 0, group-commutator refinement above.

Sequences are written in circuit order (first gate applied first), so the
composed matrix is the right-to-left product.  All searches share one
lazily grown net keyed by a global-phase-invariant fingerprint of the
composed unitary; growth, search and tie-breaking are deterministic.

The net grows a whole length at a time in numpy: one broadcast product
of the 8 gates with the previous length's stack, a boolean table that
drops the reducible (last gate, gate) pairs, one int64 key per candidate,
and a stable deduplication in which a unitary's first sequence in
(sequence, gate) order wins, against every shorter length as well.

Both compilers look the net up the same way: the SU(2) part of each
entry is stored as a real unit quaternion, all in one (4, N) array in
length order, and |tr U^dag V| = 2 |q_U . q_V|.  So a lookup scores every
entry with one real product, ranks each length by its largest overlap
with ``np.maximum.reduceat`` and breaks ties only on the length it
chooses; the chosen row alone gets a distance, min(|p - q|, |p + q|) /
sqrt 2, exact hits included.  SK reports the distance of the product its
recursion built, and stops recursing where the correction is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from . import core
from .core import ADJOINT, GATE_MATRICES, Gate, dist, gate

# Deterministic enumeration order (plain string sort of the kind names).
ALPHABET: tuple[str, ...] = tuple(sorted(core.SINGLE_QUBIT_KINDS))

MAX_NET_LEN = 16
# the highest Solovay-Kitaev level synthesize escalates to
MAX_SK_LEVEL = 8

_ID2 = np.eye(2, dtype=complex)


# keys round each real and imaginary part to 10 decimal digits
_KEY_SCALE = 1e10
# one key: the eight int64 parts of a 2x2 complex matrix as one item
_KEY_ROW = np.dtype((np.void, 64))


def _phase_keys(stack: np.ndarray) -> np.ndarray:
    """Global-phase-invariant fingerprints of a stack of 2x2 unitaries.

    Per matrix, the entry of largest magnitude (first in row-major order
    among ties, with a 1e-6 slack so exact magnitude ties stay
    deterministic under float noise) is rotated to the positive real
    axis, then every real and imaginary part is scaled by 1e10 and rounded
    half to even.  Distinct short products over this alphabet are
    separated by far more than the rounding scale, and equal-up-to-phase
    products collide as required.

    Returns one key per matrix: its eight rounded parts as int64, viewed
    as a single 64-byte item so that keys compare and sort as wholes.
    """
    flat = stack.reshape(-1, 4)
    mags = np.abs(flat)
    top = np.argmax(mags >= mags.max(axis=1, keepdims=True) - 1e-6, axis=1)
    at = np.arange(len(flat)), top
    phase = flat[at] / mags[at]
    canon = flat * np.conj(phase)[:, None]
    parts = np.rint(canon.view(np.float64) * _KEY_SCALE).astype(np.int64)
    return parts.view(_KEY_ROW).ravel()


def _quaternion(a, b, c, d):
    """(Re a', Im a', Re b', Im b') of [[a', b'], [-b'*, a'*]] = U / sqrt(det U),
    U = [[a, b], [c, d]], entrywise on arrays; the root's sign matters nowhere."""
    s = np.sqrt(a * d - b * c)
    a, b = a / s, b / s
    return a.real, a.imag, b.real, b.imag


def compose_kinds(kinds: tuple[str, ...]) -> np.ndarray:
    """Matrix of a sequence in circuit order (first gate applied first)."""
    u = _ID2
    for k in kinds:
        u = GATE_MATRICES[k] @ u
    return u


def adjoint_kinds(kinds: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(map(ADJOINT.__getitem__, reversed(kinds)))


def _build_reduction_table() -> dict[tuple[str, str], tuple[str, ...]]:
    """Ordered gate pairs whose product collapses to <= 1 alphabet gate.

    Derived numerically: the pair (a, b) meaning "a then b" reduces when
    M_b @ M_a equals, up to global phase, the identity or a single gate.
    Sequences containing such a pair are non-canonical (a shorter or equal
    representative exists), so the search never extends into them.
    """
    table: dict[tuple[str, str], tuple[str, ...]] = {}
    singles = {(): _ID2}
    for k in ALPHABET:
        singles[(k,)] = GATE_MATRICES[k]
    for a in ALPHABET:
        for b in ALPHABET:
            prod = GATE_MATRICES[b] @ GATE_MATRICES[a]
            for kinds, m in singles.items():
                # threshold sits far above float rounding and far below
                # the smallest gap between distinct products (~0.14), so
                # the match is unambiguous either way
                if dist(prod, m) < 1e-6:
                    table[(a, b)] = kinds
                    break
    return table


REDUCTIONS = _build_reduction_table()


# the alphabet as one (8, 2, 2) stack, in ALPHABET order
_GATE_STACK = np.stack([GATE_MATRICES[g] for g in ALPHABET])


def _reducible_mask() -> np.ndarray:
    """Boolean table: [a, b] is True when gate ALPHABET[a] then gate
    ALPHABET[b] is a pair of REDUCTIONS.  The extra last row stands for the
    empty sequence, which every gate extends."""
    mask = np.zeros((len(ALPHABET) + 1, len(ALPHABET)), dtype=bool)
    for a, b in REDUCTIONS:
        mask[ALPHABET.index(a), ALPHABET.index(b)] = True
    return mask


_REDUCIBLE = _reducible_mask()


@dataclass(slots=True)
class _Level:
    """All canonical sequences of one fixed length."""

    kinds: list[tuple[str, ...]]
    stack: np.ndarray


class _Net:
    """Shared, lazily grown enumeration of canonical sequences by length.

    A level is grown from the one below in a few numpy calls.  One
    broadcast product of the gate stack with the level's stack forms every
    (sequence, gate) extension in row-major order, the pairs listed in
    ``REDUCTIONS`` are masked out, and the survivors' phase-invariant keys
    are deduplicated against every key seen so far, the first occurrence
    winning.  So a level lists, in (sequence, gate) order, the extensions
    whose unitary no shorter or earlier sequence already has.

    The levels are also kept concatenated in row order: ``kinds`` per row,
    ``starts`` (array: ``start_rows``) the first row of each length,
    ``rows`` the flattened matrices, of which each level's ``stack`` is a
    view, and ``quats`` their quaternions.  Levels never change once grown,
    so a prefix of rows is the net up to any grown length.
    """

    def __init__(self) -> None:
        identity = _ID2[None].copy()
        self.levels: list[_Level] = [_Level([()], identity)]
        # keys of every row, and the ALPHABET index of each top-level
        # row's last gate (len(ALPHABET) for the empty sequence)
        self.keys = _phase_keys(identity)
        self.last_gate = np.array([len(ALPHABET)])
        self.kinds: list[tuple[str, ...]] = [()]
        self.starts: list[int] = [0, 1]
        self._set_rows(identity.reshape(1, 4))

    def grow_to(self, max_len: int) -> None:
        if max_len > MAX_NET_LEN:
            raise ValueError(f"net length {max_len} exceeds enumeration bound {MAX_NET_LEN}")
        grown = len(self.levels)
        while len(self.levels) - 1 < max_len:
            prev = self.levels[-1]
            # candidate c extends sequence c // 8 by gate c % 8
            cand = np.flatnonzero(~_REDUCIBLE[self.last_gate])
            mats = np.matmul(_GATE_STACK, prev.stack[:, None]).reshape(-1, 2, 2)[cand]
            keys = _phase_keys(mats)
            # return_index sorts stably, so it gives each key's first row
            _, first = np.unique(np.concatenate([self.keys, keys]), return_index=True)
            new = np.sort(first[first >= len(self.keys)]) - len(self.keys)
            seq, last = np.divmod(cand[new], len(ALPHABET))
            kinds_out = [
                prev.kinds[i] + (ALPHABET[g],) for i, g in zip(seq.tolist(), last.tolist())
            ]
            self.levels.append(_Level(kinds_out, mats[new]))
            self.keys = np.concatenate([self.keys, keys[new]])
            self.last_gate = last
            self.kinds += kinds_out
            self.starts.append(len(self.kinds))
        if len(self.levels) > grown:
            self._set_rows(np.concatenate([lvl.stack.reshape(-1, 4) for lvl in self.levels]))
            for lvl, a, b in zip(self.levels, self.starts, self.starts[1:]):
                lvl.stack = self.rows[a:b].reshape(-1, 2, 2)

    def _set_rows(self, rows: np.ndarray) -> None:
        self.rows, self.start_rows = rows, np.array(self.starts)
        self.quats = np.array(_quaternion(*rows.T))
        for a in (self.rows, self.quats, self.start_rows):
            a.setflags(write=False)

    def matrix(self, row: int) -> np.ndarray:
        return self.rows[row].reshape(2, 2)


_SHARED_NET = _Net()


class SequenceDB:
    """Canonical sequences up to a length bound, one per distinct unitary.

    Levels are shared with the global net, so building a longer database
    never recomputes shorter ones.
    """

    def __init__(self, max_len: int):
        _SHARED_NET.grow_to(max_len)
        self.max_len = max_len
        self._levels = _SHARED_NET.levels[: max_len + 1]

    def __len__(self) -> int:
        return _SHARED_NET.starts[self.max_len + 1]

    def sequences(self) -> Iterator[tuple[str, ...]]:
        yield from _SHARED_NET.kinds[: len(self)]

    @cached_property
    def _row_of(self) -> dict[tuple[str, ...], int]:
        return {kinds: row for row, kinds in enumerate(self.sequences())}

    def __contains__(self, kinds: tuple[str, ...]) -> bool:
        return kinds in self._row_of

    def matrix(self, kinds: tuple[str, ...]) -> np.ndarray:
        return _SHARED_NET.matrix(self._row_of[kinds])

    def levels(self) -> Iterator[_Level]:
        yield from self._levels


def build_net(max_len: int) -> SequenceDB:
    """Exhaustive canonical enumeration up to max_len (bound: 16)."""
    return SequenceDB(max_len)


@dataclass(frozen=True)
class GateSequence:
    """A synthesis result: gates in circuit order plus its quality.

    ``tolerance`` is the caller's requested bound when there was one;
    ``satisfied`` reports whether the achieved distance met it.
    """

    kinds: tuple[str, ...]
    target: np.ndarray
    achieved_distance: float
    tolerance: float | None = None

    @property
    def satisfied(self) -> bool:
        return self.tolerance is None or self.achieved_distance <= self.tolerance

    @property
    def length(self) -> int:
        return len(self.kinds)

    @property
    def non_pauli_length(self) -> int:
        return sum(1 for k in self.kinds if k not in core.PAULI_KINDS)

    @property
    def t_count(self) -> int:
        return sum(1 for k in self.kinds if k in (core.T, core.TDG))

    def matrix(self) -> np.ndarray:
        return compose_kinds(self.kinds)

    def to_gates(self, qubit: int) -> list[Gate]:
        return [gate(k, qubit) for k in self.kinds]


def _trace_dist(overlap: np.ndarray) -> np.ndarray:
    """dist from the quaternion overlap |q_U . q_V|, by the trace form.

    Non-increasing in the overlap, rounding included, so the least
    distance of a set of rows is the distance of its largest overlap.
    """
    return np.sqrt(np.maximum(0.0, 1.0 - overlap))


def _pick(overlap: np.ndarray, first: int, q: np.ndarray) -> tuple[float, int]:
    """Best (distance, row) of one level, ties broken lexicographically.

    ``overlap`` holds |q_U . q| for the level's rows, which start at net
    row ``first``.  Rows are ranked and tied by the trace form; the chosen
    row's distance takes the difference form, which keeps rounding eps at
    eps where the trace form makes it sqrt(eps).
    """
    # a row tied within 1e-12 in distance lies far inside 1e-9 in overlap
    near = (overlap >= overlap[overlap.argmax()] - 1e-9).nonzero()[0]
    d = _trace_dist(overlap[near]).tolist()
    ties = [first + i for i, di in zip(near.tolist(), d) if di <= min(d) + 1e-12]
    row = min(ties, key=_SHARED_NET.kinds.__getitem__)
    p, q = _SHARED_NET.quats[:, row].tolist(), q.tolist()
    apart = math.hypot(*(x - y for x, y in zip(p, q)))
    across = math.hypot(*(x + y for x, y in zip(p, q)))
    return min(apart, across) / math.sqrt(2.0), row


def _lookup(target: np.ndarray, max_len: int, epsilon: float | None = None) -> tuple[float, int]:
    """Nearest (distance, row) over lengths 0..max_len of the shared net.

    Shortest first, then lexicographic order; a longer level wins only by
    more than 1e-12.  With ``epsilon`` the search stops at the first length
    that reaches it, which is then minimal.  The grown prefix is scored in
    one batched scan; lengths past it are grown and scanned one at a time,
    so a hit at length L never enumerates length L + 1.  Each length is
    ranked by its largest overlap (below 1e-6, by its best row's distance).
    """
    net = _SHARED_NET
    q = np.array(_quaternion(*target.ravel().tolist()))
    best_d, best = math.inf, None
    length = 0
    while length <= max_len:
        top = max(length, min(max_len, len(net.levels) - 1))
        net.grow_to(top)
        starts = net.starts[length : top + 2]
        lo = starts[0]
        ov = np.abs(q @ net.quats[:, lo : starts[-1]])
        # no level is empty (sizes grow with length), so neither is a segment
        level_max = np.maximum.reduceat(ov, net.start_rows[length : top + 1] - lo)
        for a, b, dmin in zip(starts, starts[1:], _trace_dist(level_max).tolist()):
            level = (ov[a - lo : b - lo], a)
            if dmin < 1e-6:
                dmin = _pick(*level, q)[0]
            if dmin < best_d - 1e-12:
                best_d, best = dmin, level
            if epsilon is not None and dmin <= epsilon:
                return _pick(*level, q)
        length = top + 1
    return _pick(*best, q)


def _check_target(target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError("synthesis target must be a 2x2 unitary")
    # u^dag u against the identity entry by entry; NaN fails every comparison
    a, b, c, d = target.ravel().tolist()
    if not (
        abs(abs(a) ** 2 + abs(c) ** 2 - 1.0) <= 1e-8
        and abs(abs(b) ** 2 + abs(d) ** 2 - 1.0) <= 1e-8
        and abs(a.conjugate() * b + c.conjugate() * d) <= 1e-8
    ):
        raise ValueError("synthesis target is not unitary")
    return target


def min_sequence(target: np.ndarray, epsilon: float, max_len: int = 14) -> GateSequence:
    """Shortest canonical sequence with dist <= epsilon, breadth-first.

    Searches lengths 0..max_len in order, so the first satisfying length is
    minimal.  If nothing satisfies within the budget, the best sequence
    found is returned with ``satisfied`` False.
    """
    core.check_epsilon(epsilon)
    if not 0 <= max_len <= MAX_NET_LEN:
        raise ValueError(f"max_len {max_len} is outside the enumeration bound 0..{MAX_NET_LEN}")
    target = _check_target(target)
    d, row = _lookup(target, max_len, epsilon)
    return GateSequence(_SHARED_NET.kinds[row], target, d, tolerance=epsilon)


# ---------------------------------------------------------------------------
# Solovay-Kitaev

def _to_su2(u: np.ndarray) -> np.ndarray:
    return u / np.sqrt(np.linalg.det(u))


def _axis_angle(u_su2: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotation axis and angle of U = cos(t/2) I - i sin(t/2) (n . sigma)."""
    c = float(np.clip((u_su2[0, 0] + u_su2[1, 1]).real / 2.0, -1.0, 1.0))
    t = 2.0 * math.acos(c)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    if s < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    n = np.array([-u_su2[0, 1].imag, -u_su2[0, 1].real, -u_su2[0, 0].imag]) / s
    return n / np.linalg.norm(n), t


_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    ns = axis[0] * _SIGMA[0] + axis[1] * _SIGMA[1] + axis[2] * _SIGMA[2]
    return math.cos(angle / 2.0) * _ID2 - 1j * math.sin(angle / 2.0) * ns


def balanced_commutator_factors(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V, W with V W V† W† = delta up to global phase.

    V and W are rotations by a common balanced angle about conjugated x/y
    axes.  With s = sin(phi/2), the commutator of R_x(phi) and R_y(phi) is
    a rotation by theta where sin(theta/2) = 2 s^2 sqrt(1 - s^4); solving
    the quartic for s^2 gives the balanced angle, and a similarity
    transform aligns the commutator's axis with delta's.
    """
    d = _to_su2(np.asarray(delta, dtype=complex))
    if (d[0, 0] + d[1, 1]).real < 0:
        # -d is the same correction up to phase; its branch lies nearer I
        d = -d
    axis_d, theta = _axis_angle(d)
    if theta < 1e-7:
        # below double-precision resolution of the axis; the commutator
        # would only chase representation noise
        return _ID2.copy(), _ID2.copy()
    big_s = math.sin(theta / 2.0)
    x = math.sqrt(max(0.0, (1.0 - math.sqrt(max(0.0, 1.0 - big_s * big_s))) / 2.0))
    phi = 2.0 * math.asin(math.sqrt(x))
    v0 = _rotation_about(np.array([1.0, 0.0, 0.0]), phi)
    w0 = _rotation_about(np.array([0.0, 1.0, 0.0]), phi)
    comm = v0 @ w0 @ v0.conj().T @ w0.conj().T
    axis_c, _ = _axis_angle(comm)
    cross = np.cross(axis_c, axis_d)
    norm = float(np.linalg.norm(cross))
    dot = float(np.clip(np.dot(axis_c, axis_d), -1.0, 1.0))
    if norm < 1e-12:
        if dot > 0:
            s_mat = _ID2
        else:
            # antiparallel: rotate by pi about any axis perpendicular to axis_d
            helper = np.array([1.0, 0.0, 0.0])
            if abs(np.dot(helper, axis_d)) > 0.9:
                helper = np.array([0.0, 1.0, 0.0])
            perp = np.cross(axis_d, helper)
            s_mat = _rotation_about(perp / np.linalg.norm(perp), math.pi)
    else:
        s_mat = _rotation_about(cross / norm, math.atan2(norm, dot))
    v = s_mat @ v0 @ s_mat.conj().T
    w = s_mat @ w0 @ s_mat.conj().T
    return v, w


def _sk(u: np.ndarray, level: int, db: SequenceDB) -> tuple[tuple[str, ...], np.ndarray]:
    if level == 0:
        # the nearest net element and its stored matrix
        row = _lookup(u, db.max_len)[1]
        return _SHARED_NET.kinds[row], _SHARED_NET.matrix(row)
    kb, mb = _sk(u, level - 1, db)
    delta = u @ mb.conj().T
    v, w = balanced_commutator_factors(delta)
    if np.array_equal(v, _ID2) and np.array_equal(w, _ID2):
        # below the commutator's resolution: the correction is the
        # identity, whose words are empty, so this level is the one below
        return kb, mb
    kv, mv = _sk(v, level - 1, db)
    kw, mw = _sk(w, level - 1, db)
    kinds = kb + adjoint_kinds(kw) + adjoint_kinds(kv) + kw + kv
    mat = mv @ mw @ mv.conj().T @ mw.conj().T @ mb
    return kinds, mat


def solovay_kitaev(target: np.ndarray, level: int, db: SequenceDB) -> GateSequence:
    """Group-commutator recursion on top of a nearest-net-element base case."""
    if level < 0:
        raise ValueError("level must be non-negative")
    target = _check_target(target)
    # the recursion's product is the word's matrix, rounded differently
    kinds, mat = _sk(target, level, db)
    return GateSequence(kinds, target, dist(mat, target))


def synthesize(target: np.ndarray, epsilon: float) -> GateSequence:
    """Compile to within ``epsilon``, escalating when the net falls short.

    The breadth-first search is provably shortest but length-capped, so
    tolerances beyond its coverage fall through to Solovay-Kitaev at
    increasing recursion level while the level budget lasts.  A level that
    does no better than the one below does not stop it; the precision
    floor does: a level whose distance equals the level below's, as its
    commutator correction was the identity.  The best sequence seen is
    returned even when the tolerance was never met (``satisfied`` False).
    """
    best = min_sequence(target, epsilon)
    previous = None
    for level in range(1, MAX_SK_LEVEL + 1):
        if best.satisfied:
            break
        cand = solovay_kitaev(target, level, build_net(14))
        if cand.achieved_distance == previous:
            break
        previous = cand.achieved_distance
        if previous < best.achieved_distance:
            best = GateSequence(cand.kinds, cand.target, previous, tolerance=epsilon)
    return best



def rz_sequence(theta: float, epsilon: float) -> GateSequence:
    """synthesize's word for RZ(theta); ValueError when even it misses epsilon."""
    seq = synthesize(core.rz_matrix(theta), epsilon)
    if not seq.satisfied:
        raise ValueError(f"no sequence within epsilon={epsilon:g} of RZ({theta!r}) (best "
                         f"{seq.achieved_distance:.3g}); relax the budget")
    return seq


def emit_rz(builder, theta: float, wire: int, method: str, epsilon, control: int | None = None) -> None:
    """Append RZ(theta) on wire (CRZ under a control) the method's way: "exact"
    is the rz/crz placeholder, "sequence" the word of rz_sequence(theta,
    epsilon), which has no controlled form.  An angle of exactly 0 appends
    nothing.  Every gate-level rotation of the package is emitted here."""
    if method not in (core.EXACT, core.SEQUENCE):
        raise ValueError(f"gate-level rotations are {core.EXACT!r} or {core.SEQUENCE!r}, "
                         f"got {method!r}; kickback and PAR have circuits and cost models of their own")
    if method == core.SEQUENCE and control is not None:
        raise ValueError("synthesized controlled rotations are not provided; use the kickback form")
    if theta == 0.0:
        return
    if method == core.EXACT:
        builder.append(core.rz(theta, wire) if control is None else core.crz(theta, control, wire))
    else:
        builder.extend(rz_sequence(theta, epsilon).to_gates(wire))
