"""First-quantized split-operator simulation models.

Position-basis grids of ``b`` particles with ``p`` qubits per spatial
dimension.  Pair interactions become diagonal Coulomb phases through a
fixed-point Newton-Raphson 1/r pipeline feeding a variable rotation;
kinetic phases go through per-axis QFTs, |k|^2 arithmetic and another
variable rotation.  Pair evaluation is scheduled either in-place
(round-robin rounds on shared position registers) or fully-parallel
(copy-expansion onto fresh registers, every pair at once).

Two things here are gate-level and simulator-checkable: the desk-scale
one-dimensional potential-phase circuit (positions -> r^2 table ->
quantized 1/r table -> bitwise rotation -> mirrored uncompute) and the
small reversible arithmetic it leans on (register adder, schoolbook
multiplier whose rows are ftqc.kickback.emit_controlled_add,
copy-expansion tree).  The step models price every adder,
subtractor, multiplier and copy-expansion tree from those built circuits
at the estimator's width, so the fully-parallel potential step costs its
fan-out with the tree it would run and the 1/r pipeline its multiplies
with the multiplier the tests check.  Only the composition into Newton
iterations, pair units and whole steps is a ResourceProfile model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, NamedTuple

from .core import (
    Circuit,
    CircuitBuilder,
    ResourceProfile,
    RZ,
    X,
    cnot,
    gate,
    rz,
    toffoli,
)
from .kickback import emit_controlled_add, emit_register_add, ripple_profile
from .qvr import build_qft_via_qvr, build_qvr_bitwise, build_qvr_kickback, qvr_params

__all__ = [
    "IN_PLACE",
    "FULLY_PARALLEL",
    "MODES",
    "POTENTIAL_STEP",
    "KINETIC_STEP",
    "DEFAULT_WIDTH",
    "GridSpec",
    "PhysicalConstants",
    "StepModel",
    "InvSqrt",
    "fixed_format",
    "newton_invsqrt",
    "newton_iterations_bound",
    "invsqrt_fixed",
    "pair_schedule",
    "emit_register_add",
    "build_register_adder",
    "MultiplierLayout",
    "multiplier_layout",
    "build_multiplier",
    "build_copy_expansion",
    "register_adder_profile",
    "multiply_profile",
    "newton_profile",
    "build_potential_step",
    "build_kinetic_step",
    "estimate_first_quantized",
    "PotentialPhaseLayout",
    "build_potential_phase_circuit",
]

IN_PLACE = "in-place"
FULLY_PARALLEL = "fully-parallel"
MODES = (IN_PLACE, FULLY_PARALLEL)

POTENTIAL_STEP = "potential"
KINETIC_STEP = "kinetic"

DEFAULT_WIDTH = 32

_MAX_NEWTON_ITERATIONS = 60


# ---------------------------------------------------------------------------
# grid and physics

@dataclass(frozen=True)
class GridSpec:
    """Position-basis register layout: 2^p grid points per axis, b particles.

    Each particle occupies 3p qubits, one p-qubit register per spatial
    dimension.
    """

    p: int
    b: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need at least one qubit per spatial dimension")
        if self.b < 2:
            raise ValueError("need at least two particles")

    @property
    def particle_width(self) -> int:
        return 3 * self.p

    @property
    def position_qubits(self) -> int:
        return 3 * self.p * self.b


@dataclass(frozen=True)
class PhysicalConstants:
    """Charges, masses and the step length for one simulated system.

    Defaults put hbar at 1 and eps0 at 1/(4 pi), i.e. Hartree atomic
    units, so a (+1, -1) charge pair at unit distance has potential -1.
    """

    charges: tuple[float, ...]
    masses: tuple[float, ...]
    dt: float
    hbar: float = 1.0
    eps0: float = 1.0 / (4.0 * math.pi)

    def __post_init__(self) -> None:
        object.__setattr__(self, "charges", tuple(float(c) for c in self.charges))
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if not self.charges:
            raise ValueError("need at least one particle")
        if len(self.charges) != len(self.masses):
            raise ValueError("need one charge and one mass per particle")
        if any(m <= 0.0 for m in self.masses):
            raise ValueError("masses must be positive")
        if not self.dt > 0.0:
            raise ValueError("time step must be positive")
        if self.hbar <= 0.0 or self.eps0 <= 0.0:
            raise ValueError("hbar and eps0 must be positive")

    @property
    def n_particles(self) -> int:
        return len(self.charges)

    def check_particles(self, b: int) -> None:
        if self.n_particles != b:
            raise ValueError(
                f"constants describe {self.n_particles} particles, the grid has {b}"
            )

    def potential_scale(self, i: int, j: int, dt_factor: float = 1.0) -> float:
        """Rotation scale of the (i, j) pair phase: |q_i q_j| dt / (8 pi^2 eps0 hbar)."""
        return (
            abs(self.charges[i] * self.charges[j])
            * self.dt
            * dt_factor
            / (8.0 * math.pi**2 * self.eps0 * self.hbar)
        )

    def kinetic_scale(self, j: int, dt_factor: float = 1.0) -> float:
        """Rotation scale of particle j's momentum phase: hbar dt / (4 pi m_j)."""
        return self.hbar * self.dt * dt_factor / (4.0 * math.pi * self.masses[j])


# ---------------------------------------------------------------------------
# fixed-point Newton-Raphson inverse square root

def fixed_format(width: int) -> tuple[int, int]:
    """(integer_bits, fraction_bits) of the width-bit unsigned fixed-point
    format used for the r^2 and 1/r registers: the integer field takes
    width // 2 bits, the fraction the rest."""
    if width < 2:
        raise ValueError("fixed-point registers need at least 2 bits")
    return width // 2, width - width // 2


class InvSqrt(NamedTuple):
    value: float
    iterations: int


def newton_invsqrt(
    r_squared: float, width: int = DEFAULT_WIDTH, a0: float | None = None
) -> InvSqrt:
    """Inverse square root by the Newton-Raphson map a <- a (3 - a^2 r^2) / 2.

    Iterates until successive iterates agree within one ulp of the
    width-bit fixed-point format (see fixed_format) and returns the final
    iterate along with the number of corrections applied beyond the
    starting value; an input whose first update already agrees reports 0
    iterations.  The default start a0 = 2^(-ceil(e/2)), with e the
    exponent of the leading bit of r^2, sits inside the basin of
    attraction for every positive input.

    The grid singularity is not handled here: r^2 <= 0 raises ValueError
    and the register-write helpers cap it instead (see invsqrt_fixed).  A
    caller-supplied start outside the basin makes the map collapse to
    zero or diverge; that is reported as ArithmeticError rather than
    returned as a silently wrong value.
    """
    if not r_squared > 0.0:
        raise ValueError("inverse square root needs r^2 > 0; same-cell pairs are capped by the caller")
    _, frac_bits = fixed_format(width)
    ulp = 2.0**-frac_bits
    if a0 is None:
        lead = math.frexp(r_squared)[1] - 1  # r^2 = m * 2^lead with m in [1, 2)
        a0 = 2.0 ** ((-lead) // 2)  # floor division of the negation = -ceil(lead/2)
    a = float(a0)
    if not (a > 0.0 and math.isfinite(a)):
        raise ArithmeticError("starting value outside the basin of the iteration")
    for iterations in range(_MAX_NEWTON_ITERATIONS + 1):
        nxt = 0.5 * a * (3.0 - a * a * r_squared)
        if not (nxt > 0.0 and math.isfinite(nxt)):
            raise ArithmeticError("starting value outside the basin of the iteration")
        if abs(nxt - a) <= ulp:
            if nxt * nxt * r_squared < 0.5:
                # zero is the map's other fixed point; iterates settling
                # near it mean the start was outside the basin, and the
                # absolute-ulp agreement rule alone would not notice
                raise ArithmeticError(
                    "iteration collapsed toward zero; starting value outside the basin"
                )
            return InvSqrt(nxt, iterations)
        a = nxt
    raise ArithmeticError("iteration failed to settle; starting value outside the basin")


@lru_cache(maxsize=None)
def newton_iterations_bound(width: int = DEFAULT_WIDTH) -> int:
    """Worst iteration count over the exponent sweep r^2 = 2^k, k in
    [-20, 20]: the per-evaluation budget the cost model charges."""
    return max(newton_invsqrt(2.0**k, width).iterations for k in range(-20, 21))


def _invsqrt_precise(r_squared: float) -> float:
    """The same iteration driven to double-precision agreement.

    Register tables quantize the result; quantizing a half-converged
    iterate could land one grid step away from the true rounding, so
    table writes converge well past the target width first.
    """
    lead = math.frexp(r_squared)[1] - 1
    a = 2.0 ** ((-lead) // 2)
    for _ in range(80):
        nxt = 0.5 * a * (3.0 - a * a * r_squared)
        if abs(nxt - a) <= 2.0**-50 * a:
            return nxt
        a = nxt
    return a


def invsqrt_fixed(r_squared: float, width: int = DEFAULT_WIDTH) -> int:
    """1 / sqrt(r^2) as a width-bit fixed-point integer, rounded to nearest.

    r^2 <= 0 -- two particles in the same grid cell -- saturates to the
    largest representable value so the diagonal phase stays unitary;
    overflow for r^2 < 1 saturates the same way.  Callers surface the cap
    through their reports.
    """
    top = (1 << width) - 1
    if r_squared <= 0.0:
        return top
    _, frac_bits = fixed_format(width)
    return min(round(_invsqrt_precise(r_squared) * (1 << frac_bits)), top)


# ---------------------------------------------------------------------------
# pair scheduling

def pair_schedule(b: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Round-robin rounds covering every unordered particle pair once.

    Within a round the pairs are disjoint, so one round's interactions
    can run concurrently on the shared position registers.  Even b gives
    b - 1 rounds of b/2 pairs; odd b gives b rounds with one particle
    sitting out per round.
    """
    if b < 2:
        raise ValueError("need at least two particles")
    n = b if b % 2 == 0 else b + 1  # odd counts get a bye seat
    ring = list(range(1, n))
    rounds = []
    for _ in range(n - 1):
        seats = [0] + ring
        pairs = [
            (min(x, y), max(x, y))
            for x, y in ((seats[i], seats[n - 1 - i]) for i in range(n // 2))
            if x < b and y < b
        ]
        rounds.append(tuple(sorted(pairs)))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


# ---------------------------------------------------------------------------
# gate-level reversible arithmetic and the cost models taken from it

def build_register_adder(width: int) -> Circuit:
    """|a>|b>|0> -> |a>|a + b mod 2^width>|0>.

    Wires: a on 0..width-1, b on width..2*width-1, the carry ancilla last.
    """
    if width < 1:
        raise ValueError("adder needs at least one bit")
    builder = CircuitBuilder(2 * width + 1)
    emit_register_add(builder, range(width), range(width, 2 * width), 2 * width)
    return builder.build()


class MultiplierLayout(NamedTuple):
    """Wire map of build_multiplier."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    product: tuple[int, ...]
    copy: tuple[int, ...]
    carry: int


def multiplier_layout(width: int) -> MultiplierLayout:
    a = tuple(range(width))
    b = tuple(range(width, 2 * width))
    product = tuple(range(2 * width, 4 * width))
    copy = tuple(range(4 * width, 5 * width))
    return MultiplierLayout(a, b, product, copy, 5 * width)


def build_multiplier(width: int) -> Circuit:
    """Schoolbook reversible multiplier |a>|b>|0...0> -> |a>|b>|a*b>.

    Each row adds b, controlled on one bit of a, into a (width+1)-bit
    slice of the 2*width-bit product by emit_controlled_add: a width-bit
    gated copy of b, ripple-added with the top slice bit taking only the
    final carry, then uncopied.  The slice always holds less than 2^width
    beforehand, so every row add is exact and the full product appears
    without modular wrap.  The copy register and the carry ancilla return
    to |0> on every input.

    This is the multiplier the cost models price (multiply_profile) at
    every width: width rows of 2*width Toffolis and one MAJ/UMA register
    add, so the gate count grows as width^2.
    """
    if width < 1:
        raise ValueError("multiplier needs at least one bit")
    lay = multiplier_layout(width)
    builder = CircuitBuilder(lay.carry + 1)
    for i in range(width):
        emit_controlled_add(builder, lay.a[i], lay.b, lay.copy, lay.product[i : i + width + 1], lay.carry)
    return builder.build()


def build_copy_expansion(width: int, instances: int) -> Circuit:
    """Transversal-CNOT doubling tree fanning one register's basis data out.

    Wires: the source register on 0..width-1 followed by instances-1
    fresh registers.  Every doubling round copies from all filled
    registers at once, so the depth is ceil(log2 instances).  This is
    basis-state copying for arithmetic fan-out, not cloning: on a
    superposition the instances come out correlated, each with the same
    computational-basis marginal as the source had.
    """
    if width < 1:
        raise ValueError("registers need at least one bit")
    if instances < 1:
        raise ValueError("need at least the original register")
    builder = CircuitBuilder(width * instances)
    have = 1
    while have < instances:
        take = min(have, instances - have)
        for s in range(take):
            src = s * width
            dst = (have + s) * width
            for j in range(width):
                builder.append(cnot(src + j, dst + j))
        have += take
    return builder.build()


@lru_cache(maxsize=None)
def register_adder_profile(width: int) -> ResourceProfile:
    """Register-register addition cost, taken from the circuit we ship."""
    return build_register_adder(width).profile()


@lru_cache(maxsize=None)
def _subtractor_profile(width: int) -> ResourceProfile:
    """Register subtraction cost: build_register_adder conjugated by X on
    its target, since NOT(NOT b + a) = b - a, built and counted."""
    flips = [gate(X, w) for w in range(width, 2 * width)]
    builder = CircuitBuilder(2 * width + 1).extend(flips)
    builder.extend(build_register_adder(width).gates()).extend(flips)
    return builder.build().profile()


@lru_cache(maxsize=None)
def _copy_tree_profile(width: int, instances: int) -> ResourceProfile:
    """Copy-expansion cost, taken from the doubling tree we ship."""
    return build_copy_expansion(width, instances).profile()


@lru_cache(maxsize=None)
def multiply_profile(width: int) -> ResourceProfile:
    """Multiplication cost, taken from the schoolbook multiplier we ship."""
    return build_multiplier(width).profile()


def _multiply_scratch(width: int) -> int:
    """Wires build_multiplier holds besides its operands: product, copy, carry."""
    lay = multiplier_layout(width)
    return len(lay.product) + len(lay.copy) + 1


@lru_cache(maxsize=None)
def newton_profile(width: int = DEFAULT_WIDTH) -> ResourceProfile:
    """One full inverse-square-root evaluation at the iteration budget.

    Each iteration is three multiplies (a*a, that times r^2, a times the
    polynomial) priced from build_multiplier, and one constant add for the
    3 - x step priced from ripple_profile's worst addend.  Register budget:
    the multiplier's wires plus the persistent iterate register.
    """
    per_iter = multiply_profile(width).times(3).in_series(ripple_profile(width))
    budget = newton_iterations_bound(width)
    return per_iter.times(budget).with_qubits(multiply_profile(width).qubits + width)


@lru_cache(maxsize=None)
def _qft_profile(q: int) -> ResourceProfile:
    """Fourier-transform cost on a q-wire axis register, taken from build_qft_via_qvr."""
    return build_qft_via_qvr(q).profile()


@lru_cache(maxsize=None)
def _qvr_profile(xi: float, width: int) -> ResourceProfile:
    """Kickback rotation cost on a width-bit value register at scale xi."""
    return build_qvr_kickback(qvr_params(xi, width)).profile()


# ---------------------------------------------------------------------------
# step models

@dataclass(frozen=True)
class StepModel:
    """One assembled split-operator substep as a costed schedule.

    unit is the per-pair (potential) or per-particle (kinetic) block and
    parts breaks it into named stages.  schedule lists rounds of groups
    that run concurrently; profile covers the whole substep.  gamma_specs
    collects the distinct rotation scales that need prepared eigenstate
    registers -- equal masses or equal charge products share one.
    singular_capped records that same-cell pairs hit the capped 1/r
    value rather than an infinity.
    """

    kind: str
    mode: str
    width: int
    unit: ResourceProfile
    parts: tuple[tuple[str, ResourceProfile], ...]
    schedule: tuple[tuple[tuple[int, ...], ...], ...]
    profile: ResourceProfile
    gamma_specs: tuple[float, ...]
    singular_capped: bool = False

    def part(self, name: str) -> ResourceProfile:
        for label, prof in self.parts:
            if label == name:
                return prof
        raise KeyError(name)


def build_potential_step(
    grid: GridSpec,
    constants: PhysicalConstants,
    mode: str = IN_PLACE,
    *,
    width: int = DEFAULT_WIDTH,
) -> StepModel:
    """Pair-interaction phase substep.

    Per pair: three subtract-square-accumulate axis units into an r^2
    register, a Newton-Raphson 1/r evaluation, one kickback rotation at
    scale |q_i q_j| dt / (8 pi^2 eps0 hbar), and the arithmetic mirrored
    to clear the workspace.  in-place mode serializes pair_schedule's
    rounds (floor(b/2) concurrent pairs, so depth grows with the round
    count, roughly linearly in b); fully-parallel mode first fans every
    position register out through build_copy_expansion's CNOT doubling
    tree (depth ceil(log2(b-1)), priced from the built tree, copy and
    uncopy) and runs all b(b-1)/2 pairs at once, for a flat depth and a
    register count growing as b(b-1).

    The unit block is priced at the largest pair scale so rounds stay
    rectangular; gamma_specs still lists every distinct scale.  The grid
    always contains same-cell configurations, so singular_capped is set:
    those cells see the capped 1/r of invsqrt_fixed.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    constants.check_particles(grid.b)
    b = grid.b
    pairs = [(i, j) for i in range(b) for j in range(i + 1, b)]
    scales = tuple(sorted({constants.potential_scale(i, j) for i, j in pairs}))

    sub = _subtractor_profile(width)
    axis = sub.in_series(multiply_profile(width)).in_series(sub)
    distance = axis.times(3)
    newton = newton_profile(width)
    qvr = _qvr_profile(scales[-1], width)
    mirror = newton.in_series(distance)
    unit_seq = distance.in_series(newton).in_series(qvr).in_series(mirror)
    # one pair holds, besides its two position registers: three per-axis
    # differences, the r^2 accumulator, the Newton iterate, the multiply
    # scratch, and the kickback rotation's wires beyond its value register
    workspace = 5 * width + _multiply_scratch(width) + (qvr.qubits - width)
    unit = unit_seq.with_qubits(2 * grid.particle_width + workspace)
    parts = (
        ("pair-distance", distance),
        ("inverse-root", newton),
        ("rotation", qvr),
        ("mirror", mirror),
    )

    copy_gates = 0
    if mode == IN_PLACE:
        schedule = pair_schedule(b)
        depth = unit.depth * len(schedule)
        concurrent = max(len(rnd) for rnd in schedule)
        qubits = grid.position_qubits + concurrent * workspace
    else:
        # every particle fans out to its b - 1 pairs and back (no gates at b = 2)
        tree = _copy_tree_profile(grid.particle_width, b - 1)
        copy_gates = 2 * b * tree.total_gates
        schedule = (tuple(pairs),)
        depth = unit.depth + 2 * tree.depth
        qubits = b * (b - 1) * grid.particle_width + len(pairs) * workspace
    profile = ResourceProfile(
        depth=depth,
        t_count=len(pairs) * unit.t_count,
        total_gates=len(pairs) * unit.total_gates + copy_gates,
        qubits=qubits,
    )
    return StepModel(
        kind=POTENTIAL_STEP,
        mode=mode,
        width=width,
        unit=unit,
        parts=parts,
        schedule=schedule,
        profile=profile,
        gamma_specs=scales,
        singular_capped=True,
    )


def build_kinetic_step(
    grid: GridSpec,
    constants: PhysicalConstants,
    *,
    width: int = DEFAULT_WIDTH,
    dt_factor: float = 1.0,
) -> StepModel:
    """Momentum-phase substep.

    Per particle: QFT each of the three axis registers, square and
    accumulate |k|^2 (three multiplies, two adds), one kickback rotation
    at scale hbar dt / (4 pi m_j), mirror the arithmetic, and QFT back.
    All particles run concurrently on disjoint registers, so the depth
    does not grow with b.  dt_factor scales the step length; the
    split-operator estimator uses half steps.
    """
    constants.check_particles(grid.b)
    if not dt_factor > 0.0:
        raise ValueError("dt_factor must be positive")
    qft = _qft_profile(grid.p)
    fourier = qft.in_parallel(qft).in_parallel(qft)  # three axes at once
    ksq = multiply_profile(width).times(3).in_series(register_adder_profile(width).times(2))
    scales = tuple(sorted({constants.kinetic_scale(j, dt_factor) for j in range(grid.b)}))
    qvr_by_scale = {s: _qvr_profile(s, width) for s in scales}

    def unit_for(j: int) -> ResourceProfile:
        qvr = qvr_by_scale[constants.kinetic_scale(j, dt_factor)]
        seq = fourier.in_series(ksq).in_series(qvr).in_series(ksq).in_series(fourier)
        workspace = (
            width  # |k|^2 accumulator
            + _multiply_scratch(width)
            + (qvr.qubits - width)
            + 3 * (qft.qubits - grid.p)  # kickback registers inside each axis QFT
        )
        return seq.with_qubits(grid.particle_width + workspace)

    units = [unit_for(j) for j in range(grid.b)]
    profile = reduce(lambda x, y: x.in_parallel(y), units)
    qvr0 = qvr_by_scale[constants.kinetic_scale(0, dt_factor)]
    parts = (
        ("fourier", fourier),
        ("k-squared", ksq),
        ("rotation", qvr0),
        ("mirror", ksq.in_series(fourier)),
    )
    return StepModel(
        kind=KINETIC_STEP,
        mode=FULLY_PARALLEL,
        width=width,
        unit=units[0],
        parts=parts,
        schedule=(tuple((j,) for j in range(grid.b)),),
        profile=profile,
        gamma_specs=scales,
        singular_capped=False,
    )


def estimate_first_quantized(
    grid: GridSpec,
    constants: PhysicalConstants,
    steps: int,
    mode: str = IN_PLACE,
    *,
    width: int = DEFAULT_WIDTH,
) -> ResourceProfile:
    """Whole-evolution cost under the split-operator decomposition.

    Each step is a half kinetic phase, the pair potential phase, and the
    second half kinetic phase; steps repeats that in sequence, so depth,
    T-count and gate count are linear in steps while the register is
    shared.  steps = 0 leaves all counts at zero.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    half = build_kinetic_step(grid, constants, width=width, dt_factor=0.5).profile
    pot = build_potential_step(grid, constants, mode, width=width).profile
    return half.in_series(pot).in_series(half).times(steps)


# ---------------------------------------------------------------------------
# desk-scale gate-level potential phase

def _and_chain(src: list[int], work: list[int]) -> tuple[list, int]:
    """Toffoli chain computing AND(src) onto work wires; returns the gate
    list and the wire carrying the product (src[0] itself for one bit)."""
    if len(src) == 1:
        return [], src[0]
    gates = [toffoli(src[0], src[1], work[0])]
    for i in range(2, len(src)):
        gates.append(toffoli(work[i - 2], src[i], work[i - 1]))
    return gates, work[len(src) - 2]


def _emit_table_write(
    builder: CircuitBuilder,
    src: list[int],
    dst: list[int],
    work: list[int],
    table: Callable[[int], int],
) -> None:
    """XOR a classical table of the src pattern into dst.

    For every pattern with a nonzero entry: conjugate src by X so the
    pattern reads all-ones, AND the source bits on the work chain, fan
    the entry's set bits into dst, then unwind the chain and the X's.
    Self-inverse while src is unchanged, which is what makes the mirror
    stage a literal replay.
    """
    for pattern in range(1 << len(src)):
        value = table(pattern)
        if value == 0:
            continue
        flips = [src[k] for k in range(len(src)) if not (pattern >> k) & 1]
        chain, control = _and_chain(src, work)
        for wire in flips:
            builder.append(gate(X, wire))
        builder.extend(chain)
        for k, wire in enumerate(dst):
            if (value >> k) & 1:
                builder.append(cnot(control, wire))
        builder.extend(reversed(chain))
        for wire in flips:
            builder.append(gate(X, wire))


class PotentialPhaseLayout(NamedTuple):
    """Wire map and bookkeeping of build_potential_phase_circuit."""

    x1: tuple[int, ...]
    x2: tuple[int, ...]
    r_squared: tuple[int, ...]
    inv_r: tuple[int, ...]
    work: tuple[int, ...]
    capped_cells: int  # position patterns whose 1/r sits at the cap
    xi: float  # folded rotation scale actually applied


def build_potential_phase_circuit(
    p: int, width: int, constants: PhysicalConstants
) -> tuple[Circuit, PotentialPhaseLayout]:
    """Gate-level two-particle potential phase on a one-dimensional grid.

    Applies exp(-i V dt / hbar) with V = q1 q2 / (4 pi eps0 r) evaluated
    at the width-bit quantized 1/r of invsqrt_fixed: a reversible table
    write takes the position bits to (x1 - x2)^2, a second one takes the
    r^2 register to the capped fixed-point 1/r, a bitwise variable
    rotation applies the phase on the value register, and both tables
    are replayed to return every workspace wire to |0> exactly.

    Same-cell patterns (x1 = x2) hit the cap; the layout reports how
    many position patterns did.  The rotation scale folds the sign and
    the fixed-point scaling into a value in [0, 2^width): the register
    value is an integer, so shifting the scale by 2^width is a whole
    turn per unit and changes nothing.

    One spatial dimension and two particles keep the register small
    enough for exact simulation; the production-scale cost model of the
    same step is build_potential_step.
    """
    if p < 1:
        raise ValueError("need at least one qubit per dimension")
    constants.check_particles(2)
    int_bits, frac_bits = fixed_format(width)
    r2_bits = 2 * p  # (x1 - x2)^2 <= (2^p - 1)^2 < 2^(2p)
    x1 = tuple(range(p))
    x2 = tuple(range(p, 2 * p))
    r2 = tuple(range(2 * p, 2 * p + r2_bits))
    inv_r = tuple(range(2 * p + r2_bits, 2 * p + r2_bits + width))
    work_n = max(1, max(2 * p, r2_bits) - 1)
    base = 2 * p + r2_bits + width
    work = tuple(range(base, base + work_n))

    signed_scale = (
        constants.charges[0]
        * constants.charges[1]
        * constants.dt
        / (8.0 * math.pi**2 * constants.eps0 * constants.hbar)
    )
    xi = (-signed_scale * (1 << int_bits)) % float(1 << width)

    def r2_entry(pattern: int) -> int:
        x1v = pattern & ((1 << p) - 1)
        x2v = pattern >> p
        return (x1v - x2v) ** 2

    inv_entries = [invsqrt_fixed(float(v), width) for v in range(1 << r2_bits)]
    top = (1 << width) - 1
    capped = sum(1 for pat in range(1 << (2 * p)) if inv_entries[r2_entry(pat)] == top)

    builder = CircuitBuilder(base + work_n)
    positions = list(x1 + x2)
    _emit_table_write(builder, positions, list(r2), list(work), r2_entry)
    _emit_table_write(builder, list(r2), list(inv_r), list(work), lambda v: inv_entries[v])
    for g in build_qvr_bitwise(width, xi).gates():
        if g.kind != RZ:  # the exact bitwise form only emits rotations
            raise AssertionError(f"unexpected gate {g.kind} in bitwise rotation")
        builder.append(rz(g.angle, inv_r[g.qubits[0]]))
    _emit_table_write(builder, list(r2), list(inv_r), list(work), lambda v: inv_entries[v])
    _emit_table_write(builder, positions, list(r2), list(work), r2_entry)
    layout = PotentialPhaseLayout(x1, x2, r2, inv_r, work, capped, xi)
    return builder.build(), layout
