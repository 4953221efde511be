"""Programmable ancilla rotations: probabilistic cascades of phase teleportation.

Ancilla j is prepared ahead of time in (|0> + e^{i 2^{j-1} phi} |1>) /
sqrt(2).  One round entangles the current data qubit with the next
ancilla by a single CNOT and measures the data qubit; the state moves to
the ancilla wire carrying either R_Z(theta) or R_Z(-theta), each with
probability 1/2, plus an X correction tracked as a Pauli frame.  On
failure the next round retries with the doubled angle, so the first
success telescopes to a net R_Z(phi) exactly: 2^{m-1} phi - (2^{m-1} -
1) phi = phi.  After M failures a deterministic fallback rotates by the
residual 2^M phi.  The expected number of rounds is below 2, and all the
expensive synthesis happens at preparation time.

Each preparation method realizes RZ(theta) as a 2x2 action, computed
once per angle (_rz_action) by the construction every module shares:
"exact" is core.rz_matrix, "sequence" the matrix of the word
synth.rz_sequence compiles (the word synth.emit_rz would emit), and
"kickback" reads a kickback rotation's action on its target off
sim.effective_unitary, with the gamma register as the helper.  Ancilla
j is that action at 2^{j-1} phi on |+>, and the fallback is the action
at 2^M phi, computed at most once per ancilla set.

Round algebra (ancilla amplitudes (w0, w1), data (chi0, chi1), raw
outcome r on the measured qubit): r=0 leaves (w0 chi0, w1 chi1) on the
ancilla wire, r=1 leaves (w0 chi1, w1 chi0) = X (w1 chi0, w0 chi1).
With a pending X frame f on the data qubit the corrected outcome is
r xor f, and success/failure classification under corrected outcomes is
exactly the frameless rule.

A controlled set enacts CRZ(phi) on (control, target), little-endian:
index c + 2 d.  Its round ancillas are entangled with the control at
preparation time, so the cascade runs the same algebra on two branches
that share each measurement: control=0 meets |+> and control=1 the
prepared ancilla, and the target-side cascade telescopes to CRZ(phi).
The fallback acts on the control=1 branch alone.  A failed round also
leaves the known phase e^{i theta_m} on the control=1 branch (the global
phase of the uncontrolled case, made relative by the control), so the
protocol closes with one deterministic rotation of the control by minus
the summed failed-round angles: the control debt.

_round holds the round algebra once, for one branch or two.  It serves
the failure-path table below, and execute_par through _cascade, which
adds the fallback; execute_par runs the cascade its set asks for and
closes a controlled set's debt.  Both cascades are cross-checked against
per-round circuits in the tests.

Statistics come from one failure-path table.  Every trial of
par_statistics starts from |+>, and round m runs only if rounds 1..m-1
all failed (round 1 on raw 1; later rounds, under the pending X frame, on
raw 0), so the state before round m -- and its p0 -- is the same in every
trial.  The M values of p0 along that path decide each trial from its
uniforms alone, so the statistics read the generator's stream in numpy
chunks and never build a state, yet consume the very doubles, in the
same order, that one execute_par call per trial would.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import EXACT, KICKBACK, PLUS, SEQUENCE, TWO_PI, check_epsilon, rz_matrix
from .kickback import GammaRegister, gamma_state, kickback_rotation
from .sim import DEFAULT_SEED, QUBIT_CAP, effective_unitary
from .synth import rz_sequence

# uniforms par_statistics reads per rng.random call; bounds its memory at any trial count
_CHUNK = 4096

# the data amplitudes (d=0, d=1) of one control value, or one ancilla's
Branch = tuple[complex, complex]


def register_bits_for(epsilon: float) -> int:
    """Smallest register width n with quantization error 2 pi / 2^{n+1} <= epsilon."""
    check_epsilon(epsilon)
    n = 1
    while TWO_PI / (1 << (n + 1)) > epsilon:
        n += 1
    return n


@dataclass(frozen=True)
class ParAncillaSet:
    """Prepared rotation ancillas for one base angle.

    ancillas[j] is the two-amplitude state used in round j+1; its |1>
    phase is 2^j phi (mod 2 pi) up to the preparation method's accuracy.
    For a controlled set the stored vector is the control=1 branch; the
    control=0 branch is always |+>.
    """

    phi: float
    method: str
    epsilon_each: float
    ancillas: tuple[np.ndarray, ...]
    controlled: bool = False

    def __post_init__(self) -> None:
        if not self.ancillas:
            raise ValueError("need at least one ancilla")
        if self.method not in (EXACT, KICKBACK, SEQUENCE):
            raise ValueError(f"unknown preparation method {self.method!r}")

    @property
    def m_count(self) -> int:
        """M, the number of cascade rounds before the fallback."""
        return len(self.ancillas)

    def phase_of(self, j: int) -> float:
        """Realized |1>-amplitude phase of ancilla j (1-based), in [0, 2 pi)."""
        w = self.ancillas[j - 1]
        return float(np.angle(w[1] / w[0])) % TWO_PI

    @cached_property
    def _branch_ancillas(self) -> tuple[tuple[Branch, ...], ...]:
        """Per round, the ancilla each branch meets, as Python complex pairs.

        One branch meets ancillas[j]; a controlled set's control=0 branch
        meets |+> and its control=1 branch ancillas[j].
        """
        plus = ((complex(PLUS[0]), complex(PLUS[1])),) if self.controlled else ()
        return tuple(plus + ((complex(w[0]), complex(w[1])),) for w in self.ancillas)

    @cached_property
    def fallback(self) -> np.ndarray:
        """The method's 2x2 action of RZ(2^M phi), run after M failed rounds; built on first use."""
        return _rz_action((self.phi * (1 << self.m_count)) % TWO_PI, self.method, self.epsilon_each)


def _rz_action(theta: float, method: str, epsilon: float) -> np.ndarray:
    """The 2x2 action by which a preparation method realizes RZ(theta).

    "exact" is rz_matrix(theta), diag(1, e^{i theta}); "sequence" is the
    matrix of synth.rz_sequence(theta, epsilon), the word synth.emit_rz
    emits (ValueError when it misses epsilon); "kickback" is a kickback
    rotation's action on its target, with a register sized from epsilon
    projected back onto its gamma state.
    """
    if method == EXACT:
        return rz_matrix(theta)
    if method == SEQUENCE:
        return rz_sequence(theta, epsilon).matrix()
    if method != KICKBACK:
        raise ValueError(f"unknown preparation method {method!r}")
    n = register_bits_for(epsilon)
    # a kickback rotation takes up to 1 target + n data + (n - 1) carries
    if n > QUBIT_CAP // 2:
        raise ValueError(
            f"epsilon_each={epsilon:g} needs a {n}-bit register, beyond the "
            f"{QUBIT_CAP // 2}-bit simulable kickback; relax the budget"
        )
    reg = GammaRegister(1, n)
    kr = kickback_rotation(theta, reg)
    action, _ = effective_unitary(kr.circuit, (kr.layout.target,), {kr.layout.gamma: gamma_state(reg).amps})
    return action


def prepare_ancillas(
    phi: float,
    m_count: int,
    method: str = EXACT,
    epsilon_each: float = 1e-4,
    *,
    controlled: bool = False,
) -> ParAncillaSet:
    """Build the M doubled-angle ancillas for a PAR cascade.

    Angles are reduced mod 2 pi, and ancilla j is the method's action of
    RZ(2^{j-1} phi) (_rz_action) on |+>: (R [1, 1]) / sqrt(2).  method
    "exact" writes the amplitudes analytically; "kickback" simulates a
    kickback rotation with a register sized from epsilon_each, at most
    QUBIT_CAP // 2 bits; "sequence" compiles each rotation within
    epsilon_each by synth.rz_sequence, the rule synth.emit_rz follows,
    and raises ValueError when even the best word misses.  Sequence
    preparation is for uncontrolled sets only: the sequence alphabet has
    no controlled member, so controlled sets must use exact or kickback
    preparation.
    """
    if method == SEQUENCE and controlled:
        raise ValueError("controlled ancillas need exact or kickback preparation")
    ancillas = tuple(
        (_rz_action((phi * (1 << j)) % TWO_PI, method, epsilon_each) @ np.ones(2)) / math.sqrt(2.0)
        for j in range(m_count)
    )
    return ParAncillaSet(phi, method, epsilon_each, ancillas, controlled)


class ParOutcome(NamedTuple):
    state: np.ndarray
    rounds: int
    fallback_used: bool


def _unit_branches(state: np.ndarray, count: int) -> list[Branch]:
    """The normalized data amplitudes (d=0, d=1) of each control value c.

    With two branches the state is little-endian over (control, target):
    index c + 2 d.
    """
    flat = np.asarray(state).reshape(-1)
    if flat.shape != (2 * count,):
        raise ValueError(f"PAR on {count} branch(es) takes a state of {2 * count} amplitudes")
    amps = flat.tolist()
    norm = math.sqrt(sum([abs(a) ** 2 for a in amps]))
    return [(amps[c] / norm, amps[c + count] / norm) for c in range(count)]


def _round(
    ancillas: tuple[Branch, ...], branches: list[Branch], outcome: Callable[[float], int]
) -> tuple[float, int, list[Branch]]:
    """One cascade round on branches that share its measurement.

    Branch c holds data amplitudes (chi0, chi1) and meets ancillas[c], as
    ParAncillaSet._branch_ancillas lists them per round: one branch for a
    plain set, control values 0 and 1 for a controlled one.  outcome(p0)
    picks the raw measurement result, where p0 is the probability of raw
    0; the sum starts at 0.0, so one branch gets the one-branch sum bit
    for bit.  Returns p0, the raw result and the normalized branches it
    leaves on the ancilla wire (before any Pauli frame).
    """
    p0 = 0.0
    for (w0, w1), (chi0, chi1) in zip(ancillas, branches):
        p0 += abs(w0 * chi0) ** 2 + abs(w1 * chi1) ** 2
    raw = outcome(p0)
    scale = 1.0 / math.sqrt(1.0 - p0 if raw else p0)
    return p0, raw, [
        (w0 * chi[raw] * scale, w1 * chi[1 - raw] * scale) for (w0, w1), chi in zip(ancillas, branches)
    ]


def _cascade(
    branches: list[Branch], aset: ParAncillaSet, rng: np.random.Generator
) -> tuple[list[Branch], int, bool]:
    """Rounds on the branches until one succeeds, else the fallback.

    One rng.random() draw per executed round decides the raw measurement
    outcome, mirroring the statevector simulator's inverse-CDF rule.
    After M failed rounds the pending X is materialized on the data and
    the set's fallback acts on the last branch: the data itself, or
    control=1.  Returns the branches, the rounds run and whether the
    fallback ran; a controlled set's debt is left to execute_par.
    """
    def draw(p0: float) -> int:
        return 0 if rng.random() < p0 else 1

    frame_x = 0
    for m, ancillas in enumerate(aset._branch_ancillas, 1):
        _, raw, branches = _round(ancillas, branches, draw)
        frame_x ^= raw  # the corrected outcome
        if frame_x == 0:
            return branches, m, False
    # all rounds failed: materialize the pending X, then rotate the residual,
    # in Python scalars as the rounds are (a matmul can fuse multiply-adds)
    branches = [(chi1, chi0) for chi0, chi1 in branches]
    (a, b), (c, d) = aset.fallback.tolist()
    chi0, chi1 = branches[-1]
    branches[-1] = (a * chi0 + b * chi1, c * chi0 + d * chi1)
    return branches, aset.m_count, True


def execute_par(
    state: np.ndarray,
    aset: ParAncillaSet,
    *,
    seed: int = DEFAULT_SEED,
    rng: np.random.Generator | None = None,
) -> ParOutcome:
    """Run the set's cascade until success or fallback.

    A plain set rotates a single-qubit state of 2 amplitudes.  A
    controlled set enacts CRZ(phi) on a two-qubit state of 4 amplitudes,
    little-endian over (control, target), and closes its control debt
    (module docstring).  One rng.random() draw per executed round decides
    the raw measurement outcome, so a (state, set, seed) triple
    reproduces exactly.  Returns the logical output state (Pauli frame
    resolved), the number of rounds executed, and whether the
    deterministic fallback ran.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    branches, rounds, fallback = _cascade(_unit_branches(state, 1 + aset.controlled), aset, rng)
    out = np.array(branches).T.reshape(-1)  # index c + 2 d
    if aset.controlled:
        control_debt = sum(aset.phase_of(m) for m in range(1, rounds + fallback))
        if control_debt:
            out[1::2] *= cmath.exp(-1j * control_debt)
    return ParOutcome(out, rounds, fallback)


def expected_rounds(m_count: int) -> float:
    """Truncated mean round count: sum_{m<=M} m 2^-m + M 2^-M."""
    if m_count < 1:
        raise ValueError("need at least one round")
    total = sum(m * 2.0**-m for m in range(1, m_count + 1))
    return total + m_count * 2.0**-m_count


def _failure_path_p0(aset: ParAncillaSet) -> np.ndarray:
    """p0 of round m, for m = 1..M, in a cascade on |+> whose earlier rounds all failed."""
    branches = _unit_branches(PLUS, 1)
    fail = 1  # round 1 fails on raw 1 and leaves an X frame, so later rounds fail on raw 0
    p0s = []
    for ancillas in aset._branch_ancillas:
        p0, _, branches = _round(ancillas, branches, lambda _p0: fail)
        p0s.append(p0)
        fail = 0
    return np.array(p0s)


def par_statistics(
    phi: float,
    m_count: int,
    trials: int,
    *,
    seed: int = DEFAULT_SEED,
    method: str = EXACT,
    epsilon_each: float = 1e-4,
) -> dict:
    """Seeded Monte Carlo over the cascade: round histogram and fallback rate.

    Each trial starts from |+>; per-round gate cost is 2 (one CNOT and
    one measurement; X corrections ride the Pauli frame), so mean_gates
    is twice mean_rounds.

    The result is exactly that of one execute_par(PLUS, ...) call per
    trial on one generator seeded with seed.  Round m of a trial runs
    only after rounds 1..m-1 failed, so its p0 is the m-th entry of one
    failure-path table: round 1 fails when its uniform u >= p0, and each
    later round when u < p0.  The uniforms come in chunks of
    rng.random(n), which for PCG64 are the doubles successive
    rng.random() calls return, in the same order.  M numpy passes over a
    chunk give the round count of a trial starting at every position, and
    whether it ends in the fallback; a Python loop then steps from one
    trial start to the next.  No state is built, and memory is bounded
    by the chunk, not by trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    aset = prepare_ancillas(phi, m_count, method, epsilon_each)
    p0 = _failure_path_p0(aset)
    rng = np.random.default_rng(seed)
    counts = [0] * (m_count + 1)  # counts[m]: trials that ran m rounds
    fallbacks = 0
    done = 0
    pending = np.empty(0)  # uniforms drawn but not yet consumed by a trial
    while done < trials:
        u = np.concatenate((pending, rng.random(max(_CHUNK, m_count))))
        starts = len(u) - m_count + 1  # trials starting here have all M uniforms at hand
        failed = u[:starts] >= p0[0]  # the trial at i failed every round so far
        rounds = np.ones(starts, dtype=np.int64)
        for m in range(1, m_count):
            rounds += failed
            failed &= u[m : m + starts] < p0[m]
        rounds_at, fallback_at = rounds.tolist(), failed.tolist()
        pos = 0
        while pos < starts and done < trials:
            r = rounds_at[pos]
            counts[r] += 1
            fallbacks += fallback_at[pos]
            pos += r
            done += 1
        pending = u[pos:]
    mean_rounds = sum(m * c for m, c in enumerate(counts)) / trials
    return {
        "phi": phi,
        "ancillas": m_count,
        "trials": trials,
        "mean_rounds": mean_rounds,
        "mean_gates": 2.0 * mean_rounds,
        "fallback_rate": fallbacks / trials,
        "expected_rounds": expected_rounds(m_count),
        "histogram": {m: counts[m] for m in range(1, m_count + 1)},
    }
