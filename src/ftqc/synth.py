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

Both compilers look the net up the same way: the grown net's matrices
are stored as one stacked (N, 4) array in length order, so a lookup
scores every entry with one matrix-vector product, takes the per-length
minima with ``np.minimum.reduceat`` and breaks ties only on the length
it chooses.  SK reports the distance of the product its recursion
already built, not of the word multiplied out again.
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


def unitary_key(u: np.ndarray, digits: int = 10) -> bytes:
    """Global-phase-invariant fingerprint of a 2x2 unitary.

    The entry of largest magnitude (first in row-major order among ties,
    with a 1e-6 slack so exact magnitude ties stay deterministic under
    float noise) is rotated to the positive real axis, then all entries
    are rounded.  Distinct short products over this alphabet are separated
    by far more than the rounding scale, and equal-up-to-phase products
    collide as required.
    """
    flat = u.reshape(-1)
    mags = np.abs(flat)
    idx = int(np.argmax(mags >= mags.max() - 1e-6))
    ph = flat[idx] / mags[idx]
    v = flat * np.conj(ph)
    return b",".join(
        b"%d:%d" % (round(z.real * 10**digits), round(z.imag * 10**digits)) for z in v
    )


def compose_kinds(kinds: tuple[str, ...]) -> np.ndarray:
    """Matrix of a sequence in circuit order (first gate applied first)."""
    u = _ID2
    for k in kinds:
        u = GATE_MATRICES[k] @ u
    return u


def adjoint_kinds(kinds: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(ADJOINT[k] for k in reversed(kinds))


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


class _Level:
    """All canonical sequences of one fixed length."""

    __slots__ = ("kinds", "stack")

    def __init__(self, kinds: list[tuple[str, ...]], mats: list[np.ndarray]):
        self.kinds = kinds
        self.stack = np.stack(mats) if mats else np.zeros((0, 2, 2), dtype=complex)


class _Net:
    """Shared, lazily grown enumeration of canonical sequences by length.

    The levels are also kept concatenated in row order: ``kinds`` per row,
    ``starts`` the first row of each length, and ``rows`` the flattened
    matrices, of which each level's ``stack`` is a view.  Levels never
    change once grown, so a prefix of rows is the net up to any grown
    length.
    """

    def __init__(self) -> None:
        self.levels: list[_Level] = [_Level([()], [_ID2])]
        self.seen: set[bytes] = {unitary_key(_ID2)}
        self.kinds: list[tuple[str, ...]] = [()]
        self.starts: list[int] = [0, 1]
        self.rows = self.levels[0].stack.reshape(1, 4)

    def grow_to(self, max_len: int) -> None:
        if max_len > MAX_NET_LEN:
            raise ValueError(f"net length {max_len} exceeds enumeration bound {MAX_NET_LEN}")
        grown = len(self.levels)
        while len(self.levels) - 1 < max_len:
            prev = self.levels[-1]
            kinds_out: list[tuple[str, ...]] = []
            mats_out: list[np.ndarray] = []
            for seq, u in zip(prev.kinds, prev.stack):
                last = seq[-1] if seq else None
                for g in ALPHABET:
                    if last is not None and (last, g) in REDUCTIONS:
                        continue
                    v = GATE_MATRICES[g] @ u
                    key = unitary_key(v)
                    if key in self.seen:
                        continue
                    self.seen.add(key)
                    kinds_out.append(seq + (g,))
                    mats_out.append(v)
            self.levels.append(_Level(kinds_out, mats_out))
            self.kinds += kinds_out
            self.starts.append(len(self.kinds))
        if len(self.levels) > grown:
            self.rows = np.concatenate([lvl.stack.reshape(-1, 4) for lvl in self.levels])
            self.rows.setflags(write=False)
            for lvl, a, b in zip(self.levels, self.starts, self.starts[1:]):
                lvl.stack = self.rows[a:b].reshape(-1, 2, 2)

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


def _batch_dist(rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """dist to ``target`` of each row of flattened 2x2 matrices."""
    # |tr(U^dag V)| = |sum conj(u) v| = |sum u conj(v)|: no conjugated copy
    ov = np.abs(rows @ target.reshape(4).conj())
    return np.sqrt(np.maximum(0.0, (2.0 - ov) / 2.0))


def _pick(d: np.ndarray, first: int, target: np.ndarray) -> tuple[float, int]:
    """Best (distance, row) of one level, ties broken lexicographically.

    ``d`` holds the batched distances of the level's rows, which start at
    net row ``first``.
    """
    dmin = float(d.min())
    rows = first + np.flatnonzero(d <= dmin + 1e-12)
    if dmin < 1e-6:
        # near-exact hits: the batched trace form turns rounding into
        # sqrt(eps) noise, so re-evaluate through dist(), whose difference
        # form keeps it at eps and ranks exact hits correctly
        refined = [(dist(_SHARED_NET.matrix(i), target), i) for i in rows]
        dmin = min(r for r, _ in refined)
        rows = [i for r, i in refined if r <= dmin + 1e-12]
    return dmin, min(rows, key=_SHARED_NET.kinds.__getitem__)


def _lookup(target: np.ndarray, max_len: int, epsilon: float | None = None) -> tuple[float, int]:
    """Nearest (distance, row) over lengths 0..max_len of the shared net.

    Shortest first, then lexicographic order; a longer level wins only by
    more than 1e-12.  With ``epsilon`` the search stops at the first length
    that reaches it, which is then minimal.  The grown prefix is scored in
    one batched scan; lengths past it are grown and scanned one at a time,
    so a hit at length L never enumerates length L + 1.
    """
    net = _SHARED_NET
    best_d, best = math.inf, None
    length = 0
    while length <= max_len:
        top = max(length, min(max_len, len(net.levels) - 1))
        net.grow_to(top)
        starts = net.starts[length : top + 2]
        lo = starts[0]
        d = _batch_dist(net.rows[lo : starts[-1]], target)
        # no level is empty (sizes grow with length), so neither is a segment
        level_mins = np.minimum.reduceat(d, [a - lo for a in starts[:-1]]).tolist()
        for a, b, dmin in zip(starts, starts[1:], level_mins):
            level = (d[a - lo : b - lo], a)
            if dmin < 1e-6:
                dmin = _pick(*level, target)[0]
            if dmin < best_d - 1e-12:
                best_d, best = dmin, level
            if epsilon is not None and dmin <= epsilon:
                return _pick(*level, target)
        length = top + 1
    return _pick(*best, target)


def _nearest(target: np.ndarray, db: SequenceDB) -> tuple[tuple[str, ...], np.ndarray]:
    """Nearest net element and its stored matrix."""
    _, row = _lookup(target, db.max_len)
    return _SHARED_NET.kinds[row], _SHARED_NET.matrix(row)


def _check_target(target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError("synthesis target must be a 2x2 unitary")
    if not core.is_unitary(target, tol=1e-8):
        raise ValueError("synthesis target is not unitary")
    return target


def min_sequence(target: np.ndarray, epsilon: float, max_len: int = 14) -> GateSequence:
    """Shortest canonical sequence with dist <= epsilon, breadth-first.

    Searches lengths 0..max_len in order, so the first satisfying length is
    minimal.  If nothing satisfies within the budget, the best sequence
    found is returned with ``satisfied`` False.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
        return _nearest(u, db)
    kb, mb = _sk(u, level - 1, db)
    delta = u @ mb.conj().T
    v, w = balanced_commutator_factors(delta)
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
    increasing recursion level.  The escalation stops at the first level
    that does not improve on the level below it: past the recursion's
    precision floor the commutator correction is the identity, and deeper
    levels only return the same word at a higher cost.  The best sequence
    seen is returned even when the tolerance was never met (``satisfied``
    is False then).
    """
    best = min_sequence(target, epsilon)
    if best.satisfied:
        return best
    db = build_net(14)
    previous = math.inf
    for level in range(1, MAX_SK_LEVEL + 1):
        cand = solovay_kitaev(target, level, db)
        if cand.achieved_distance >= previous:
            break
        previous = cand.achieved_distance
        if cand.achieved_distance < best.achieved_distance:
            best = GateSequence(
                cand.kinds, cand.target, cand.achieved_distance, tolerance=epsilon
            )
        if best.achieved_distance <= epsilon:
            break
    return best
