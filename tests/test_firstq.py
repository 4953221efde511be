"""Tests for the first-quantized step models and their gate-level pieces.

Oracles: Newton-Raphson values against math.sqrt in double precision,
reversible arithmetic against Python-int arithmetic on exhaustive or
seeded basis inputs, run on bit-planes by the phase-permutation
evaluator, the schedule against the complete-graph edge set, the
desk-scale potential phase against a diagonal matrix built from the
independently quantized 1/r, and the scaling claims against least-squares
fits of the assembled profiles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc import firstq, sim
from ftqc.cli import main
from ftqc.core import CircuitBuilder, X, gate
from ftqc.firstq import (
    FULLY_PARALLEL,
    IN_PLACE,
    KINETIC_STEP,
    POTENTIAL_STEP,
    GridSpec,
    PhysicalConstants,
    _subtractor_profile,
    build_copy_expansion,
    build_kinetic_step,
    build_multiplier,
    build_potential_phase_circuit,
    build_potential_step,
    build_register_adder,
    estimate_first_quantized,
    fixed_format,
    invsqrt_fixed,
    multiplier_layout,
    multiply_profile,
    newton_invsqrt,
    newton_iterations_bound,
    newton_profile,
    pair_schedule,
    register_adder_profile,
)
from ftqc.kickback import ripple_profile
from ftqc.qvr import build_qft_via_qvr
from ftqc.sim import StateVector, effective_unitary, product_state, random_state, run


def electrons(b: int, dt: float = 1e-3) -> PhysicalConstants:
    return PhysicalConstants(charges=(-1.0,) * b, masses=(1.0,) * b, dt=dt)


def basis_out(circuit, index: int) -> int:
    """Run a classical-reversible circuit on one basis state and return the
    output basis index (asserting the output really is a basis state)."""
    result = run(circuit, StateVector.basis(circuit.n_qubits, index), seed=0)
    amps = result.state.amps
    out = int(np.argmax(np.abs(amps)))
    assert abs(abs(amps[out]) - 1.0) < 1e-12
    return out


def evaluate(circuit, inputs: list[int]) -> list[int]:
    """Outputs of a classical-reversible circuit on basis-state inputs of
    any width, run on bit-planes by the phase-permutation evaluator; every
    amplitude must come out exactly 1."""
    planes = np.array([[v >> q & 1 for v in inputs] for q in range(circuit.n_qubits)], dtype=bool)
    planes, amps = sim._permute_phases(circuit, planes, np.ones(len(inputs), dtype=np.complex128))
    np.testing.assert_array_equal(amps, 1.0)
    return [sum(int(b) << q for q, b in enumerate(planes[:, i])) for i in range(len(inputs))]


def fit_r_squared(x, y, degree: int) -> float:
    coeffs = np.polyfit(x, y, degree)
    fit = np.polyval(coeffs, x)
    ss_res = float(np.sum((np.asarray(y) - fit) ** 2))
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# fixed-point Newton-Raphson


class TestNewtonInvsqrt:
    def test_fixed_point_of_one(self):
        value, iterations = newton_invsqrt(1.0)
        assert value == 1.0
        assert iterations == 0

    def test_r_squared_four_is_exact_half(self):
        value, iterations = newton_invsqrt(4.0, 32)
        assert abs(value - 0.5) <= 2.0**-30
        assert iterations == 0  # the a0 rule lands on the fixed point

    def test_explicit_a0_at_fixed_point(self):
        assert newton_invsqrt(1.0, 32, a0=1.0) == (1.0, 0)

    def test_exponent_sweep_stays_within_five_iterations(self):
        for k in range(-20, 21):
            result = newton_invsqrt(2.0**k, 32)
            assert result.iterations <= 5, (k, result)
            assert abs(result.value - 2.0 ** (-k / 2)) <= 2.0**-14

    def test_iterations_bound_is_five_at_32_bits(self):
        assert newton_iterations_bound(32) == 5

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.25])
    def test_nonpositive_input_rejected(self, bad):
        with pytest.raises(ValueError):
            newton_invsqrt(bad)

    @pytest.mark.parametrize("a0", [-1.0, 0.0, 100.0, math.inf, math.nan])
    def test_start_outside_basin_reported(self, a0):
        # a0^2 r^2 >= 3 makes the next iterate nonpositive; nonfinite or
        # nonpositive starts are refused outright
        with pytest.raises(ArithmeticError):
            newton_invsqrt(2.0, 32, a0=a0)

    def test_boundary_start_collapses_to_zero_and_is_reported(self):
        # a0 = sqrt(3)/r makes the next iterate exactly zero
        with pytest.raises(ArithmeticError):
            newton_invsqrt(1.0, 32, a0=math.sqrt(3.0))

    @given(st.floats(min_value=2.0**-10, max_value=2.0**10))
    @settings(max_examples=200, deadline=None)
    def test_stopping_rule_postcondition(self, r_squared):
        # the returned iterate moves by at most one ulp under one more update
        value, _ = newton_invsqrt(r_squared, 32)
        ulp = 2.0**-16
        assert value > 0.0
        nxt = 0.5 * value * (3.0 - value * value * r_squared)
        assert abs(nxt - value) <= ulp
        assert abs(value - 1.0 / math.sqrt(r_squared)) <= 4 * ulp

    def test_fixed_format(self):
        assert fixed_format(32) == (16, 16)
        assert fixed_format(4) == (2, 2)
        assert fixed_format(5) == (2, 3)
        with pytest.raises(ValueError):
            fixed_format(1)


class TestInvsqrtFixed:
    def test_same_cell_saturates(self):
        assert invsqrt_fixed(0.0, 4) == 15
        assert invsqrt_fixed(-2.0, 4) == 15

    def test_small_r_overflow_saturates(self):
        # 1/r = 10 does not fit 2 integer bits
        assert invsqrt_fixed(0.01, 4) == 15

    @pytest.mark.parametrize(
        "r_squared,width,expected",
        [(1.0, 4, 4), (4.0, 4, 2), (9.0, 4, 1), (1.0, 8, 16), (2.0, 8, 11)],
    )
    def test_examples(self, r_squared, width, expected):
        # expected = round(2^frac / sqrt(r^2)) by hand
        assert invsqrt_fixed(r_squared, width) == expected

    @pytest.mark.parametrize("width", [4, 8])
    def test_matches_independent_square_root_quantization(self, width):
        _, frac = fixed_format(width)
        top = (1 << width) - 1
        for v in range(1, 256):
            direct = min(round((1.0 / math.sqrt(v)) * (1 << frac)), top)
            assert invsqrt_fixed(float(v), width) == direct, v


# ---------------------------------------------------------------------------
# pair scheduling


class TestPairSchedule:
    def test_two_particles(self):
        assert pair_schedule(2) == (((0, 1),),)

    def test_four_particles(self):
        rounds = pair_schedule(4)
        assert len(rounds) == 3
        assert all(len(r) == 2 for r in rounds)
        assert sorted(p for r in rounds for p in r) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_five_particles_with_bye(self):
        rounds = pair_schedule(5)
        assert len(rounds) == 5
        assert sum(len(r) for r in rounds) == 10
        assert max(len(r) for r in rounds) == 2

    def test_too_few_particles(self):
        with pytest.raises(ValueError):
            pair_schedule(1)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=39, deadline=None)
    def test_partitions_complete_graph(self, b):
        rounds = pair_schedule(b)
        assert len(rounds) == (b - 1 if b % 2 == 0 else b)
        seen = [p for r in rounds for p in r]
        assert len(seen) == len(set(seen)) == b * (b - 1) // 2
        assert set(seen) == {(i, j) for i in range(b) for j in range(i + 1, b)}
        for rnd in rounds:
            touched = [x for pair in rnd for x in pair]
            assert len(touched) == len(set(touched))


# ---------------------------------------------------------------------------
# gate-level arithmetic


class TestRegisterAdder:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_modular_addition(self, width):
        circuit = build_register_adder(width)
        assert circuit.n_qubits == 2 * width + 1
        mask = (1 << width) - 1
        pairs = [(a, b) for a in range(1 << width) for b in range(1 << width)]
        for (a, b), out in zip(pairs, evaluate(circuit, [a | (b << width) for a, b in pairs])):
            assert out & mask == a  # addend restored
            assert (out >> width) & mask == (a + b) & mask
            assert out >> (2 * width) == 0  # carry ancilla cleared

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_subtraction_prices_the_x_conjugated_adder(self, width):
        flips = [gate(X, w) for w in range(width, 2 * width)]
        builder = CircuitBuilder(2 * width + 1).extend(flips)
        circuit = builder.extend(build_register_adder(width).gates()).extend(flips).build()
        mask = (1 << width) - 1
        pairs = [(a, b) for a in range(1 << width) for b in range(1 << width)]
        for (a, b), out in zip(pairs, evaluate(circuit, [a | (b << width) for a, b in pairs])):
            assert out == a | ((b - a) & mask) << width
        assert _subtractor_profile(width) == circuit.profile()
        assert _subtractor_profile(width).total_gates == register_adder_profile(width).total_gates + 2 * width

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_register_adder(0)


def check_products(width: int, pairs: list[tuple[int, int]]) -> None:
    """build_multiplier(width) on the (a, b) inputs: a and b kept, a*b in
    the product, the copy register and the carry back at 0."""
    circuit = build_multiplier(width)
    assert circuit.n_qubits == 5 * width + 1
    for (a, b), out in zip(pairs, evaluate(circuit, [a | (b << width) for a, b in pairs])):
        assert out == a | b << width | (a * b) << (2 * width)


class TestMultiplier:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_products(self, width):
        check_products(width, [(a, b) for a in range(1 << width) for b in range(1 << width)])

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_seeded_products(self, width):
        # the outputs span 5 * width + 1 > 64 wires from width 16 on
        rng = np.random.default_rng(width)
        top = (1 << width) - 1
        pairs = [(int(rng.integers(top + 1)), int(rng.integers(top + 1))) for _ in range(300)]
        check_products(width, pairs + [(top, top), (top, 1), (0, top), (1 << (width - 1), top)])

    def test_layout_is_contiguous(self):
        lay = multiplier_layout(2)
        assert lay.a == (0, 1)
        assert lay.b == (2, 3)
        assert lay.product == (4, 5, 6, 7)
        assert lay.copy == (8, 9)
        assert lay.carry == 10


class TestCopyExpansion:
    @pytest.mark.parametrize("instances,depth", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
    def test_tree_depth(self, instances, depth):
        assert build_copy_expansion(3, instances).depth == depth

    def test_basis_fanout(self):
        circuit = build_copy_expansion(2, 3)
        for v in range(4):
            out = basis_out(circuit, v)
            assert out == v | (v << 2) | (v << 4)

    def test_marginals_match_source(self):
        # three particles at one qubit per axis: each needs b - 1 = 2
        # instances; after the tree every instance shows the source's
        # computational-basis marginal (correlated, not cloned)
        rng = np.random.default_rng(7)
        source = random_state(1, rng)
        circuit = build_copy_expansion(1, 2)
        initial = product_state(2, {(0,): source.amps})
        final = run(circuit, initial, seed=0).state
        probs = np.abs(final.amps) ** 2
        want = np.abs(source.amps) ** 2
        for wire in range(2):
            marginal = [
                sum(p for idx, p in enumerate(probs) if (idx >> wire) & 1 == bit)
                for bit in (0, 1)
            ]
            assert np.allclose(marginal, want, atol=1e-12)
        # correlation, not product: cross terms vanish
        assert probs[0b01] < 1e-12 and probs[0b10] < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            build_copy_expansion(0, 2)
        with pytest.raises(ValueError):
            build_copy_expansion(2, 0)


# ---------------------------------------------------------------------------
# composed cost models


class TestArithmeticModels:
    def test_multiply_prices_the_built_multiplier(self):
        for width in range(1, 33):
            assert multiply_profile(width) == build_multiplier(width).profile()

    def test_newton_charges_the_iteration_budget(self):
        per_iter = multiply_profile(32).times(3).in_series(ripple_profile(32))
        assert newton_profile(32).t_count == newton_iterations_bound(32) * per_iter.t_count

    def test_validation(self):
        with pytest.raises(ValueError):
            multiply_profile(0)


class TestPotentialStep:
    def test_two_particle_modes_agree(self):
        g = GridSpec(3, 2)
        inp = build_potential_step(g, electrons(2), IN_PLACE)
        par = build_potential_step(g, electrons(2), FULLY_PARALLEL)
        assert inp.profile == par.profile
        assert inp.unit == par.unit

    def test_in_place_depth_follows_round_count(self):
        d4 = build_potential_step(GridSpec(4, 4), electrons(4), IN_PLACE).profile.depth
        d8 = build_potential_step(GridSpec(4, 8), electrons(8), IN_PLACE).profile.depth
        assert d8 * 3 == d4 * 7  # 7 rounds versus 3

    def test_fully_parallel_qubits_scale_with_ordered_pairs(self):
        q3 = build_potential_step(GridSpec(4, 3), electrons(3), FULLY_PARALLEL).profile.qubits
        q6 = build_potential_step(GridSpec(4, 6), electrons(6), FULLY_PARALLEL).profile.qubits
        assert q6 == 5 * q3  # 6*5 ordered pairings versus 3*2

    @pytest.mark.parametrize("b", range(2, 7))
    def test_fully_parallel_prices_the_built_copy_tree(self, b):
        # every particle copies out to its b - 1 pairs and back: the tree's
        # depth twice, and its CNOTs twice per particle, around the pairs
        g = GridSpec(2, b)
        model = build_potential_step(g, electrons(b), FULLY_PARALLEL)
        tree = build_copy_expansion(g.particle_width, b - 1).profile()
        pairs = b * (b - 1) // 2
        assert model.profile.depth == model.unit.depth + 2 * tree.depth
        assert model.profile.total_gates == (
            pairs * model.unit.total_gates + 2 * b * tree.total_gates
        )

    def test_schedules(self):
        g = GridSpec(2, 5)
        inp = build_potential_step(g, electrons(5), IN_PLACE)
        assert inp.schedule == pair_schedule(5)
        par = build_potential_step(g, electrons(5), FULLY_PARALLEL)
        assert len(par.schedule) == 1
        assert len(par.schedule[0]) == 10

    def test_t_count_is_per_pair(self):
        g = GridSpec(2, 5)
        model = build_potential_step(g, electrons(5), IN_PLACE)
        assert model.profile.t_count == 10 * model.unit.t_count

    def test_gamma_specs_deduplicate_equal_charge_products(self):
        c = PhysicalConstants(charges=(1.0, -1.0, 2.0), masses=(1.0, 1.0, 4.0), dt=1e-3)
        model = build_potential_step(GridSpec(2, 3), c, IN_PLACE)
        # |q_i q_j| over pairs: {1, 2, 2} -> two distinct rotation scales
        assert len(model.gamma_specs) == 2

    def test_singular_cap_is_flagged(self):
        model = build_potential_step(GridSpec(2, 2), electrons(2), IN_PLACE)
        assert model.singular_capped
        assert model.kind == POTENTIAL_STEP

    def test_parts_cover_the_unit_depth(self):
        model = build_potential_step(GridSpec(2, 2), electrons(2), IN_PLACE)
        total = sum(prof.depth for _, prof in model.parts)
        assert total == model.unit.depth

    def test_validation(self):
        with pytest.raises(ValueError):
            build_potential_step(GridSpec(2, 2), electrons(2), "sideways")
        with pytest.raises(ValueError):
            build_potential_step(GridSpec(2, 3), electrons(2), IN_PLACE)


class TestKineticStep:
    def test_depth_independent_of_particle_count(self):
        depths = {
            build_kinetic_step(GridSpec(3, b), electrons(b)).profile.depth
            for b in (2, 3, 5, 7)
        }
        assert len(depths) == 1

    def test_single_qubit_axis_fourier_is_one_hadamard_layer(self):
        model = build_kinetic_step(GridSpec(1, 2), electrons(2))
        fourier = model.part("fourier")
        assert fourier.depth == 1
        assert fourier.t_count == 0
        assert fourier.total_gates == 3  # one H per spatial dimension

    def test_equal_masses_share_a_gamma_spec(self):
        model = build_kinetic_step(GridSpec(2, 4), electrons(4))
        assert len(model.gamma_specs) == 1
        mixed = PhysicalConstants(
            charges=(-1.0, -1.0, 1.0), masses=(1.0, 1.0, 1836.0), dt=1e-3
        )
        assert len(build_kinetic_step(GridSpec(2, 3), mixed).gamma_specs) == 2

    def test_dt_factor_scales_the_rotation(self):
        full = build_kinetic_step(GridSpec(2, 2), electrons(2), dt_factor=1.0)
        half = build_kinetic_step(GridSpec(2, 2), electrons(2), dt_factor=0.5)
        assert half.gamma_specs[0] == pytest.approx(full.gamma_specs[0] / 2)

    def test_qubits_sum_over_particles(self):
        model = build_kinetic_step(GridSpec(2, 5), electrons(5))
        assert model.profile.qubits == 5 * model.unit.qubits
        assert model.kind == KINETIC_STEP

    def test_qft_is_built_once_per_grid_width(self, monkeypatch, capsys):
        # every particle count of both calls prices its Fourier transforms at
        # one grid width, so one built QFT serves them all
        built = []

        def counting_build_qft_via_qvr(q, approx_drop=0):
            built.append((q, approx_drop))
            return build_qft_via_qvr(q, approx_drop)

        firstq._qft_profile.cache_clear()
        monkeypatch.setattr(firstq, "build_qft_via_qvr", counting_build_qft_via_qvr)
        argv = ["estimate-1q", "--particles", "12", "--grid-bits", "5", "--steps", "3",
                "--mode", "parallel", "--width", "8"]
        assert main(argv) == 0 and main(argv) == 0
        capsys.readouterr()
        assert built == [(5, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_kinetic_step(GridSpec(2, 2), electrons(2), dt_factor=0.0)
        with pytest.raises(ValueError):
            build_kinetic_step(GridSpec(2, 3), electrons(2))


class TestEstimator:
    def test_zero_steps_zero_counts(self):
        profile = estimate_first_quantized(GridSpec(2, 2), electrons(2), 0)
        assert (profile.depth, profile.t_count, profile.total_gates) == (0, 0, 0)

    def test_linear_in_steps(self):
        one = estimate_first_quantized(GridSpec(2, 2), electrons(2), 1023)
        two = estimate_first_quantized(GridSpec(2, 2), electrons(2), 2046)
        assert two.depth == 2 * one.depth
        assert two.t_count == 2 * one.t_count
        assert two.qubits == one.qubits

    def test_step_is_half_kinetic_potential_half_kinetic(self):
        g, c = GridSpec(2, 3), electrons(3)
        half = build_kinetic_step(g, c, dt_factor=0.5).profile
        pot = build_potential_step(g, c, IN_PLACE).profile
        assert estimate_first_quantized(g, c, 1) == half.in_series(pot).in_series(half)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            estimate_first_quantized(GridSpec(2, 2), electrons(2), -1)

    def test_scaling_trends(self):
        bs = list(range(2, 21))
        depth_inplace, depth_parallel, qubits_parallel = [], [], []
        for b in bs:
            g, c = GridSpec(10, b), electrons(b)
            depth_inplace.append(estimate_first_quantized(g, c, 1023, IN_PLACE).depth)
            prof = estimate_first_quantized(g, c, 1023, FULLY_PARALLEL)
            depth_parallel.append(prof.depth)
            qubits_parallel.append(prof.qubits)
        assert fit_r_squared(bs, depth_inplace, 1) >= 0.99
        assert max(depth_parallel) / min(depth_parallel) <= 1.05
        assert fit_r_squared(bs, qubits_parallel, 2) >= 0.99


# ---------------------------------------------------------------------------
# desk-scale potential phase (exact simulation)


def quantized_inverse_r(r_squared: int, width: int) -> int:
    """Independent quantization oracle via math.sqrt."""
    top = (1 << width) - 1
    if r_squared <= 0:
        return top
    _, frac = fixed_format(width)
    return min(round((1.0 / math.sqrt(r_squared)) * (1 << frac)), top)


def diagonal_oracle(p: int, width: int, constants: PhysicalConstants) -> np.ndarray:
    _, frac = fixed_format(width)
    q1q2 = constants.charges[0] * constants.charges[1]
    d = 1 << (2 * p)
    diag = np.zeros(d, dtype=complex)
    for pattern in range(d):
        x1 = pattern & ((1 << p) - 1)
        x2 = pattern >> p
        inv_r = quantized_inverse_r((x1 - x2) ** 2, width) * 2.0**-frac
        potential = q1q2 / (4.0 * math.pi * constants.eps0) * inv_r
        diag[pattern] = np.exp(-1j * potential * constants.dt / constants.hbar)
    return np.diag(diag)


class TestPotentialPhaseCircuit:
    ATTRACTIVE = PhysicalConstants(charges=(1.0, -1.0), masses=(1836.0, 1.0), dt=0.05)

    def test_desk_scale_matches_direct_diagonal(self):
        circuit, layout = build_potential_phase_circuit(2, 4, self.ATTRACTIVE)
        assert circuit.n_qubits == 15  # fits the exact simulator comfortably
        data = layout.x1 + layout.x2
        matrix, leakage = effective_unitary(circuit, data)
        oracle = diagonal_oracle(2, 4, self.ATTRACTIVE)
        overlap = abs(np.trace(oracle.conj().T @ matrix)) / matrix.shape[0]
        assert overlap >= 1.0 - 1e-8
        assert leakage <= 1e-7

    def test_workspace_uncomputed_exactly_on_every_basis_input(self):
        circuit, layout = build_potential_phase_circuit(2, 4, self.ATTRACTIVE)
        shift = len(layout.x1) + len(layout.x2)
        for pattern in range(1 << shift):
            out = basis_out(circuit, pattern)
            assert out == pattern  # diagonal on positions, workspace cleared

    def test_phase_value_by_hand(self):
        # x1=0, x2=1: r=1 so quantized 1/r is exactly 1.0; with charges
        # +1/-1 in atomic units the potential is -1 and the phase e^{+i dt}
        circuit, layout = build_potential_phase_circuit(2, 4, self.ATTRACTIVE)
        matrix, _ = effective_unitary(circuit, layout.x1 + layout.x2)
        pattern = 0 | (1 << 2)
        assert matrix[pattern, pattern] == pytest.approx(np.exp(1j * 0.05), abs=1e-12)

    def test_repulsive_pair_folds_the_sign(self):
        repulsive = PhysicalConstants(charges=(1.0, 1.0), masses=(1.0, 1.0), dt=0.05)
        circuit, layout = build_potential_phase_circuit(2, 4, repulsive)
        matrix, leakage = effective_unitary(circuit, layout.x1 + layout.x2)
        oracle = diagonal_oracle(2, 4, repulsive)
        overlap = abs(np.trace(oracle.conj().T @ matrix)) / matrix.shape[0]
        assert overlap >= 1.0 - 1e-8
        assert leakage <= 1e-7

    def test_tiny_grid_variant(self):
        circuit, layout = build_potential_phase_circuit(1, 2, self.ATTRACTIVE)
        matrix, leakage = effective_unitary(circuit, layout.x1 + layout.x2)
        oracle = diagonal_oracle(1, 2, self.ATTRACTIVE)
        overlap = abs(np.trace(oracle.conj().T @ matrix)) / matrix.shape[0]
        assert overlap >= 1.0 - 1e-8
        assert leakage <= 1e-7

    def test_same_cell_patterns_are_counted_as_capped(self):
        _, layout = build_potential_phase_circuit(2, 4, self.ATTRACTIVE)
        assert layout.capped_cells == 4  # the four x1 == x2 grid diagonals

    def test_rotation_scale_is_folded_nonnegative(self):
        _, layout = build_potential_phase_circuit(2, 4, self.ATTRACTIVE)
        assert 0.0 <= layout.xi < 16.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_potential_phase_circuit(0, 4, self.ATTRACTIVE)
        with pytest.raises(ValueError):
            build_potential_phase_circuit(2, 4, electrons(3))


# ---------------------------------------------------------------------------
# domain types


class TestDomainTypes:
    def test_grid_spec(self):
        g = GridSpec(3, 4)
        assert g.particle_width == 9
        assert g.position_qubits == 36
        with pytest.raises(ValueError):
            GridSpec(0, 4)
        with pytest.raises(ValueError):
            GridSpec(3, 1)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            PhysicalConstants(charges=(1.0,), masses=(1.0, 2.0), dt=1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(charges=(1.0,), masses=(0.0,), dt=1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(charges=(1.0,), masses=(1.0,), dt=0.0)
        with pytest.raises(ValueError):
            PhysicalConstants(charges=(), masses=(), dt=1.0)

    def test_atomic_unit_scales(self):
        c = PhysicalConstants(charges=(1.0, -1.0), masses=(1.0, 2.0), dt=0.1)
        # |q1 q2| dt / (8 pi^2 eps0 hbar) with eps0 = 1/(4 pi) is dt / (2 pi)
        assert c.potential_scale(0, 1) == pytest.approx(0.1 / (2.0 * math.pi))
        # hbar dt / (4 pi m)
        assert c.kinetic_scale(1) == pytest.approx(0.1 / (8.0 * math.pi))
        assert c.kinetic_scale(1, dt_factor=0.5) == pytest.approx(0.05 / (8.0 * math.pi))
