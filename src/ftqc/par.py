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

Round algebra (ancilla amplitudes (w0, w1), data (chi0, chi1), raw
outcome r on the measured qubit): r=0 leaves (w0 chi0, w1 chi1) on the
ancilla wire, r=1 leaves (w0 chi1, w1 chi0) = X (w1 chi0, w0 chi1).
With a pending X frame f on the data qubit the corrected outcome is
r xor f, and success/failure classification under corrected outcomes is
exactly the frameless rule.  _round holds this algebra once; execute_par
applies it per round and is cross-checked against per-round circuits in
the tests.

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
from typing import Callable, NamedTuple

import numpy as np

from .core import PLUS, TWO_PI, rz_matrix
from .kickback import GammaRegister, gamma_state, kickback_rotation
from .sim import DEFAULT_SEED, QUBIT_CAP, run_with_helpers
from .synth import min_sequence

PREPARE_EXACT = "exact"
PREPARE_KICKBACK = "kickback"
PREPARE_SEQUENCE = "sequence"

# uniforms par_statistics reads per rng.random call; bounds its memory at any trial count
_CHUNK = 4096


def register_bits_for(epsilon: float) -> int:
    """Smallest register width n with quantization error 2 pi / 2^{n+1} <= epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
    m_count: int
    method: str
    epsilon_each: float
    ancillas: tuple[np.ndarray, ...]
    controlled: bool = False

    def __post_init__(self) -> None:
        if self.m_count < 1:
            raise ValueError("need at least one ancilla")
        if self.method not in (PREPARE_EXACT, PREPARE_KICKBACK, PREPARE_SEQUENCE):
            raise ValueError(f"unknown preparation method {self.method!r}")
        if len(self.ancillas) != self.m_count:
            raise ValueError("ancilla count does not match M")

    def phase_of(self, j: int) -> float:
        """Realized |1>-amplitude phase of ancilla j (1-based), in [0, 2 pi)."""
        w = self.ancillas[j - 1]
        return float(np.angle(w[1] / w[0])) % TWO_PI


def _exact_ancilla(theta: float) -> np.ndarray:
    return np.array([1.0, cmath.exp(1j * theta)]) / math.sqrt(2.0)


def _kickback_ancilla(theta: float, n: int, chi: np.ndarray = PLUS) -> np.ndarray:
    """Simulate a kickback rotation on chi (default |+>) and read back the qubit state."""
    reg = GammaRegister(1, n)
    kr = kickback_rotation(theta, reg)
    vec, _ = run_with_helpers(
        kr.circuit, {(kr.layout.target,): chi}, {kr.layout.gamma: gamma_state(reg).amps}
    )
    return vec / np.linalg.norm(vec)


def _sequence_ancilla(theta: float, epsilon: float) -> np.ndarray:
    return min_sequence(rz_matrix(theta), epsilon).matrix() @ PLUS


def prepare_ancillas(
    phi: float,
    m_count: int,
    method: str = PREPARE_EXACT,
    epsilon_each: float = 1e-4,
    *,
    controlled: bool = False,
) -> ParAncillaSet:
    """Build the M doubled-angle ancillas for a PAR cascade.

    Angles are reduced mod 2 pi before preparation.  method "exact"
    writes the amplitudes analytically; "kickback" simulates a kickback
    rotation on |+> with a register sized from epsilon_each; "sequence"
    applies a minimal Clifford+T approximation to |+> (uncontrolled sets
    only: the sequence alphabet has no controlled member, so controlled
    sets must use exact or kickback preparation).
    """
    if m_count < 1:
        raise ValueError("need at least one ancilla")
    if method == PREPARE_KICKBACK:
        n = register_bits_for(epsilon_each)
        # a kickback rotation takes up to 1 target + n data + (n - 1) carries,
        # and the controlled fallback one more control and an AND ancilla
        max_bits = (QUBIT_CAP - 2) // 2 if controlled else QUBIT_CAP // 2
        if n > max_bits:
            raise ValueError(
                f"epsilon_each={epsilon_each:g} needs a {n}-bit register, beyond the "
                f"{max_bits}-bit simulable kickback; relax the budget"
            )
    if method == PREPARE_SEQUENCE and controlled:
        raise ValueError("controlled ancillas need exact or kickback preparation")
    ancillas = []
    for j in range(m_count):
        theta = (phi * (1 << j)) % TWO_PI
        if method == PREPARE_EXACT:
            ancillas.append(_exact_ancilla(theta))
        elif method == PREPARE_KICKBACK:
            ancillas.append(_kickback_ancilla(theta, n))
        else:
            ancillas.append(_sequence_ancilla(theta, epsilon_each))
    return ParAncillaSet(
        phi=phi,
        m_count=m_count,
        method=method,
        epsilon_each=epsilon_each,
        ancillas=tuple(ancillas),
        controlled=controlled,
    )


class ParOutcome(NamedTuple):
    state: np.ndarray
    rounds: int
    fallback_used: bool


def _fallback_state(chi: np.ndarray, aset: ParAncillaSet) -> np.ndarray:
    """Apply the deterministic residual rotation 2^M phi to a logical qubit."""
    alpha = (aset.phi * (1 << aset.m_count)) % TWO_PI
    if aset.method == PREPARE_EXACT:
        return np.array([chi[0], chi[1] * cmath.exp(1j * alpha)])
    if aset.method == PREPARE_SEQUENCE:
        seq = min_sequence(rz_matrix(alpha), aset.epsilon_each)
        return seq.matrix() @ chi
    return _kickback_ancilla(alpha, register_bits_for(aset.epsilon_each), chi)


def _unit_qubit(state: np.ndarray) -> tuple[complex, complex]:
    """The amplitudes of a single-qubit state, normalized."""
    flat = np.asarray(state).reshape(-1)
    if flat.shape != (2,):
        raise ValueError("PAR acts on a single-qubit state")
    chi0, chi1 = complex(flat[0]), complex(flat[1])
    norm = math.sqrt(abs(chi0) ** 2 + abs(chi1) ** 2)
    return chi0 / norm, chi1 / norm


def _round(
    ancilla: np.ndarray, chi0: complex, chi1: complex, outcome: Callable[[float], int]
) -> tuple[float, int, complex, complex]:
    """One cascade round on data (chi0, chi1) with the given ancilla.

    outcome(p0) picks the raw measurement result, where p0 is the
    probability of raw 0.  Returns p0, the raw result and the normalized
    state it leaves on the ancilla wire (before any Pauli frame).
    """
    w0, w1 = ancilla
    p0 = abs(w0 * chi0) ** 2 + abs(w1 * chi1) ** 2
    raw = outcome(p0)
    if raw == 0:
        scale = 1.0 / math.sqrt(p0)
        return p0, raw, w0 * chi0 * scale, w1 * chi1 * scale
    scale = 1.0 / math.sqrt(1.0 - p0)
    return p0, raw, w0 * chi1 * scale, w1 * chi0 * scale


def execute_par(
    state: np.ndarray,
    aset: ParAncillaSet,
    *,
    seed: int = DEFAULT_SEED,
    rng: np.random.Generator | None = None,
) -> ParOutcome:
    """Run the cascade on a single-qubit state until success or fallback.

    One rng.random() draw per executed round decides the raw measurement
    outcome, mirroring the statevector simulator's inverse-CDF rule, so a
    (state, set, seed) triple reproduces exactly.  Returns the logical
    output state (Pauli frame resolved), the number of rounds executed,
    and whether the deterministic fallback ran.
    """
    if aset.controlled:
        raise ValueError("controlled sets go through execute_controlled_par")
    if rng is None:
        rng = np.random.default_rng(seed)
    chi0, chi1 = _unit_qubit(state)

    def draw(p0: float) -> int:
        return 0 if rng.random() < p0 else 1

    frame_x = 0
    for m in range(1, aset.m_count + 1):
        _, raw, chi0, chi1 = _round(aset.ancillas[m - 1], chi0, chi1, draw)
        corrected = raw ^ frame_x
        frame_x = corrected
        if corrected == 0:
            return ParOutcome(np.array([chi0, chi1]), m, False)
    # all rounds failed: materialize the pending X, then rotate the residual
    logical = np.array([chi1, chi0])
    return ParOutcome(_fallback_state(logical, aset), aset.m_count, True)


def execute_controlled_par(
    state: np.ndarray,
    aset: ParAncillaSet,
    *,
    seed: int = DEFAULT_SEED,
    rng: np.random.Generator | None = None,
) -> ParOutcome:
    """Cascade enacting a controlled rotation on a two-qubit state.

    state is little-endian over (control, target): index = c + 2 d.  The
    round ancillas are entangled with the control at preparation time
    (control=0 branch |+>, control=1 branch aset.ancillas[j]), so both
    branches share each measurement outcome and the target-side cascade
    telescopes to CRZ(phi).  A failed round additionally leaves the known
    phase e^{i theta_m} on the control=1 branch (the global phase of the
    uncontrolled case, made relative by the control), so the protocol
    closes with one deterministic control rotation by minus the summed
    failed-round angles.
    """
    if not aset.controlled:
        raise ValueError("this set was prepared without controlled=True")
    if rng is None:
        rng = np.random.default_rng(seed)
    psi = np.asarray(state, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValueError("controlled PAR takes a two-qubit state")
    # psi_cd[c][d]
    psi_cd = np.array([[psi[0], psi[2]], [psi[1], psi[3]]])
    psi_cd = psi_cd / np.linalg.norm(psi_cd)
    frame_x = 0
    fallback = False
    rounds = aset.m_count
    control_debt = 0.0  # accumulated control=1 phase from failed rounds
    for m in range(1, aset.m_count + 1):
        branch = (PLUS, aset.ancillas[m - 1])
        p0 = sum(
            abs(branch[c][b] * psi_cd[c][b]) ** 2 for c in (0, 1) for b in (0, 1)
        )
        raw = 0 if rng.random() < p0 else 1
        new = np.empty_like(psi_cd)
        for c in (0, 1):
            for b in (0, 1):
                new[c][b] = branch[c][b] * psi_cd[c][b ^ raw]
        psi_cd = new / math.sqrt(p0 if raw == 0 else 1.0 - p0)
        corrected = raw ^ frame_x
        frame_x = corrected
        if corrected == 0:
            rounds = m
            break
        control_debt += aset.phase_of(m)
    else:
        fallback = True
        psi_cd = psi_cd[:, ::-1]  # materialize the pending X on the target
        alpha = (aset.phi * (1 << aset.m_count)) % TWO_PI
        if aset.method == PREPARE_EXACT:
            psi_cd[1][1] *= cmath.exp(1j * alpha)
        else:
            n = register_bits_for(aset.epsilon_each)
            reg = GammaRegister(1, n)
            kr = kickback_rotation(alpha, reg, controlled=True)
            lay = kr.layout
            vec, _ = run_with_helpers(
                kr.circuit,
                {(lay.control, lay.target): psi_cd.T.reshape(-1)},  # index c + 2 d
                {lay.gamma: gamma_state(reg).amps},
            )
            vec = vec / np.linalg.norm(vec)
            psi_cd = np.array([[vec[0], vec[2]], [vec[1], vec[3]]])
    if control_debt:
        psi_cd[1] *= cmath.exp(-1j * control_debt)
    out = np.array([psi_cd[0][0], psi_cd[1][0], psi_cd[0][1], psi_cd[1][1]])
    return ParOutcome(out, rounds, fallback)


def expected_rounds(m_count: int | None = None) -> float:
    """Truncated mean round count: sum_{m<=M} m 2^-m + M 2^-M; 2.0 unbounded."""
    if m_count is None:
        return 2.0
    if m_count < 1:
        raise ValueError("need at least one round")
    total = sum(m * 2.0**-m for m in range(1, m_count + 1))
    return total + m_count * 2.0**-m_count


def _failure_path_p0(aset: ParAncillaSet) -> np.ndarray:
    """p0 of round m, for m = 1..M, in a cascade on |+> whose earlier rounds all failed."""
    chi0, chi1 = _unit_qubit(PLUS)
    fail = 1  # round 1 fails on raw 1 and leaves an X frame, so later rounds fail on raw 0
    p0s = []
    for ancilla in aset.ancillas:
        p0, _, chi0, chi1 = _round(ancilla, chi0, chi1, lambda _p0: fail)
        p0s.append(p0)
        fail = 0
    return np.array(p0s)


def par_statistics(
    phi: float,
    m_count: int,
    trials: int,
    *,
    seed: int = DEFAULT_SEED,
    method: str = PREPARE_EXACT,
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
