"""Tests for the programmable-ancilla rotation cascade.

Oracles: branch outcomes are forced through a stub generator so every
trajectory is checked against the analytically applied rotation; the
fast in-module algebra is cross-validated against explicit per-round
circuits run on the statevector simulator with a shared random stream;
par_statistics must repr-equal one execute_par call per trial
(reference.per_trial_par_statistics) on the same seed.
"""

import math

import numpy as np
import pytest
from reference import per_trial_par_statistics, project_onto

from ftqc import par
from ftqc.core import (
    H,
    X,
    CircuitBuilder,
    cnot,
    crz,
    crz_matrix,
    dist,
    gate,
    measure,
    rz,
    rz_matrix,
)
from ftqc.kickback import GammaRegister, kickback_rotation
from ftqc.par import (
    PREPARE_EXACT,
    PREPARE_KICKBACK,
    PREPARE_SEQUENCE,
    ParAncillaSet,
    execute_par,
    expected_rounds,
    par_statistics,
    prepare_ancillas,
    register_bits_for,
)
from ftqc.sim import (
    DEFAULT_SEED,
    product_state,
    run,
    states_equal_up_to_phase,
)

PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
TWO_PI = 2 * math.pi


class ForcedDraws:
    """Stub random source: bit 0 forces raw outcome 0, bit 1 forces 1."""

    def __init__(self, bits):
        self.bits = list(bits)

    def random(self):
        return 0.25 if self.bits.pop(0) == 0 else 0.75


def diag_rotation(phi: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]])


class TestPrepareAncillas:
    def test_zero_angle_gives_plus(self):
        aset = prepare_ancillas(0.0, 4)
        for w in aset.ancillas:
            assert np.allclose(w, PLUS, atol=1e-15)

    def test_doubling(self):
        aset = prepare_ancillas(math.pi / 2, 3)
        assert abs(aset.phase_of(1) - math.pi / 2) < 1e-12
        assert abs(aset.phase_of(2) - math.pi) < 1e-12
        assert aset.phase_of(3) % TWO_PI < 1e-12  # 2 pi wraps to 0

    def test_kickback_prepared_within_quantization(self):
        eps = 0.013  # sized so the register is 8 bits
        assert register_bits_for(eps) == 8
        aset = prepare_ancillas(1.0, 3, PREPARE_KICKBACK, eps)
        for j in range(1, 4):
            nominal = (1.0 * (1 << (j - 1))) % TWO_PI
            diff = abs(aset.phase_of(j) - nominal)
            diff = min(diff, TWO_PI - diff)
            assert diff <= math.pi / 2**8 + 1e-9

    def test_sequence_prepared(self):
        aset = prepare_ancillas(0.7, 2, PREPARE_SEQUENCE, 0.15)
        for j in (1, 2):
            exact = np.array([1.0, np.exp(1j * (0.7 * 2 ** (j - 1)))]) / math.sqrt(2)
            assert abs(np.vdot(exact, aset.ancillas[j - 1])) >= 0.97

    def test_rejections(self):
        with pytest.raises(ValueError):
            prepare_ancillas(1.0, 0)
        with pytest.raises(ValueError):
            prepare_ancillas(1.0, 2, "telepathy")
        with pytest.raises(ValueError):
            prepare_ancillas(1.0, 2, PREPARE_SEQUENCE, controlled=True)
        with pytest.raises(ValueError):
            # needs a register beyond the simulable kickback width
            prepare_ancillas(1.0, 2, PREPARE_KICKBACK, 1e-6)
        with pytest.raises(ValueError, match="at least one ancilla"):
            ParAncillaSet(1.0, PREPARE_EXACT, 1e-4, ())
        # M is the ancilla count, not a second field that could disagree with it
        assert prepare_ancillas(1.0, 3).m_count == 3

    def test_kickback_register_fits_the_simulator(self):
        # a kickback rotation takes up to 2n wires, and a controlled set
        # runs the same rotation, so 11 bits is the widest register under
        # the 22-qubit cap with or without a control.  pi needs the addend
        # 2^10 and no carries: the accepted sets simulate 12 wires.
        assert register_bits_for(1.53e-3) == 12 and register_bits_for(2e-3) == 11
        for controlled in (False, True):
            prepare_ancillas(math.pi, 1, PREPARE_KICKBACK, 2e-3, controlled=controlled)
            with pytest.raises(ValueError, match="relax the budget"):
                prepare_ancillas(math.pi, 1, PREPARE_KICKBACK, 1.53e-3, controlled=controlled)


class TestSequenceBudget:
    """Sequence preparation compiles with synthesize and meets its budget."""

    @pytest.mark.parametrize("eps,m_count", [(0.05, 20), (1e-3, 8)])
    def test_every_action_is_within_budget(self, eps, m_count):
        for phi in (0.7, 1.3, 1.37, 2.31):
            aset = prepare_ancillas(phi, m_count, PREPARE_SEQUENCE, eps)
            for j in range(m_count):
                theta = (phi * (1 << j)) % TWO_PI
                action = par._rz_action(theta, PREPARE_SEQUENCE, eps)
                assert dist(action, rz_matrix(theta)) <= eps, (phi, j)
                np.testing.assert_array_equal(aset.ancillas[j], action @ np.ones(2) / math.sqrt(2.0))
            residual = (phi * (1 << m_count)) % TWO_PI
            assert dist(aset.fallback, rz_matrix(residual)) <= eps, phi

    def test_a_miss_is_an_error(self):
        # 1e-11 is below the Solovay-Kitaev floor (3.8e-10 for RZ(0.7))
        with pytest.raises(ValueError, match="relax the budget"):
            prepare_ancillas(0.7, 1, PREPARE_SEQUENCE, 1e-11)


class TestRotationOncePerAngle:
    """A set computes its method's rotation once per angle: M ancillas and,
    on first use, the fallback, however many trials run."""

    @pytest.mark.parametrize(
        "method,eps,controlled",
        [(PREPARE_EXACT, 1e-4, False), (PREPARE_SEQUENCE, 0.05, False), (PREPARE_KICKBACK, 0.05, False),
         (PREPARE_EXACT, 1e-4, True), (PREPARE_KICKBACK, 0.05, True)],
    )
    def test_thousand_trials(self, monkeypatch, method, eps, controlled):
        calls = []
        real = par._rz_action
        monkeypatch.setattr(par, "_rz_action", lambda *args: calls.append(args) or real(*args))
        m_count = 2
        aset = prepare_ancillas(1.37, m_count, method, eps, controlled=controlled)
        state = np.full(4, 0.5) if controlled else PLUS
        rng = np.random.default_rng(5)
        fallbacks = sum(execute_par(state, aset, rng=rng).fallback_used for _ in range(1000))
        assert fallbacks > 100  # about a quarter of the trials
        assert len(calls) == m_count + 1


class TestExecutePar:
    def test_quarter_turn_every_seed(self):
        aset = prepare_ancillas(math.pi / 4, 8)
        want = diag_rotation(math.pi / 4) @ PLUS
        for seed in range(60):
            out = execute_par(PLUS, aset, seed=seed)
            assert abs(np.vdot(want, out.state)) >= 1 - 1e-12

    def test_exhaustive_branches(self):
        # raw-outcome patterns are in bijection with cascade branches;
        # sweeping all 2^6 covers every success round and the fallback
        phi = 2.31
        aset = prepare_ancillas(phi, 6)
        want = diag_rotation(phi) @ PLUS
        saw_fallback = False
        for pattern in range(64):
            bits = [(pattern >> i) & 1 for i in range(6)]
            out = execute_par(PLUS, aset, rng=ForcedDraws(bits))
            saw_fallback |= out.fallback_used
            assert abs(np.vdot(want, out.state)) >= 1 - 1e-10, bits
        assert saw_fallback

    def test_all_fail_pattern_reaches_fallback(self):
        # corrected outcome m is raw_m xor corrected_{m-1}: all-fail in
        # corrected terms is raw pattern 1,0,0,...
        aset = prepare_ancillas(1.9, 5)
        out = execute_par(PLUS, aset, rng=ForcedDraws([1, 0, 0, 0, 0]))
        assert out.fallback_used and out.rounds == 5
        want = diag_rotation(1.9) @ PLUS
        assert abs(np.vdot(want, out.state)) >= 1 - 1e-12

    def test_arbitrary_input_states(self):
        rng = np.random.default_rng(31)
        phi = 0.83
        aset = prepare_ancillas(phi, 10)
        for _ in range(20):
            chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            chi /= np.linalg.norm(chi)
            out = execute_par(chi, aset, rng=rng)
            want = diag_rotation(phi) @ chi
            assert abs(np.vdot(want, out.state)) >= 1 - 1e-12

    def test_kickback_prepared_cascade(self):
        # success branches telescope quantized angles; the residual is at
        # most the sum of per-ancilla quantization errors
        eps = 0.013
        n = register_bits_for(eps)
        aset = prepare_ancillas(1.0, 4, PREPARE_KICKBACK, eps)
        want = diag_rotation(1.0) @ PLUS
        for pattern in range(16):
            bits = [(pattern >> i) & 1 for i in range(4)]
            out = execute_par(PLUS, aset, rng=ForcedDraws(bits))
            angle_cap = 6 * math.pi / 2**n
            assert abs(np.vdot(want, out.state)) >= 1 - angle_cap**2

    def test_statistics(self):
        stats = par_statistics(1.0, 20, 20000, seed=7)
        assert 1.95 <= stats["mean_rounds"] <= 2.05
        assert stats["mean_gates"] == 2 * stats["mean_rounds"]
        assert sum(stats["histogram"].values()) == 20000
        assert set(stats["histogram"]) == set(range(1, 21))
        assert stats["expected_rounds"] == expected_rounds(20)

    def test_fallback_rate(self):
        stats = par_statistics(1.0, 6, 20000, seed=11)
        p = 2.0**-6
        sigma = math.sqrt(p * (1 - p) / 20000)
        assert abs(stats["fallback_rate"] - p) <= 4 * sigma

    def test_rejections(self):
        aset = prepare_ancillas(1.0, 2, controlled=True)
        with pytest.raises(ValueError):
            execute_par(PLUS, aset)
        with pytest.raises(ValueError):
            execute_par(np.ones(3), prepare_ancillas(1.0, 2))


class TestStatisticsMatchPerTrial:
    TRIALS = (1, 777, 20000)
    SEEDS = (7, 11, 20260816)
    METHODS = ((PREPARE_EXACT, 1e-4), (PREPARE_SEQUENCE, 0.05), (PREPARE_KICKBACK, 0.05))

    @pytest.mark.parametrize("m_count", [1, 2, 6, 20])
    @pytest.mark.parametrize("method,eps", METHODS)
    def test_equals_one_execute_par_per_trial(self, method, eps, m_count):
        # 20,000 trials draw at least 20,000 uniforms: more than three chunks
        assert max(self.TRIALS) > 3 * par._CHUNK
        for trials in self.TRIALS:
            for seed in self.SEEDS:
                args = (1.37, m_count, trials)
                kwargs = {"seed": seed, "method": method, "epsilon_each": eps}
                assert repr(par_statistics(*args, **kwargs)) == repr(
                    per_trial_par_statistics(*args, **kwargs)
                ), (trials, seed)

    @pytest.mark.parametrize("method,eps", METHODS)
    def test_equals_per_trial_with_the_real_fallback(self, method, eps):
        args = (1.37, 1, 777)
        kwargs = {"seed": 5, "method": method, "epsilon_each": eps}
        stats = par_statistics(*args, **kwargs)
        assert 0 < stats["fallback_rate"] < 1
        assert repr(stats) == repr(per_trial_par_statistics(*args, **kwargs))


class TestCascadeMatchesCircuits:
    def test_fast_algebra_equals_per_round_circuits(self):
        # per-round circuit: one CNOT from the programmed ancilla onto the
        # data qubit, then measure the data qubit; the state moves to the
        # ancilla wire; X corrections stay classical
        phi = 1.37
        m_count = 8
        aset = prepare_ancillas(phi, m_count)
        builder = CircuitBuilder(2)
        round_circuit = builder.extend([cnot(1, 0), measure(0, key=0)]).build()
        assert sum(1 for _ in round_circuit.gates()) == 2
        for seed in range(12):
            fast = execute_par(PLUS, aset, seed=seed)
            rng = np.random.default_rng(seed)
            chi = PLUS.astype(complex)
            frame_x = 0
            rounds = 0
            fallback = False
            for m in range(1, m_count + 1):
                init = product_state(2, {(0,): chi, (1,): aset.ancillas[m - 1]})
                res = run(round_circuit, init, rng=rng)
                raw = res.record[0]
                basis = np.zeros(2)
                basis[raw] = 1.0
                vec, _ = project_onto(res.state, (0,), basis)
                chi = vec / np.linalg.norm(vec)
                rounds = m
                corrected = raw ^ frame_x
                frame_x = corrected
                if corrected == 0:
                    break
            else:
                fallback = True
                chi = np.array([chi[1], chi[0]])
                chi = diag_rotation((phi * (1 << m_count)) % TWO_PI) @ chi
            assert rounds == fast.rounds
            assert fallback == fast.fallback_used
            assert states_equal_up_to_phase(chi, fast.state, tol=1e-10)


class TestControlledPar:
    def test_matches_crz_on_random_states(self):
        phi = 1.3
        aset = prepare_ancillas(phi, 8, controlled=True)
        rng = np.random.default_rng(5)
        target = crz_matrix(phi)
        for _ in range(40):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            out = execute_par(psi, aset, rng=rng)
            assert abs(np.vdot(target @ psi, out.state)) >= 1 - 1e-10

    def test_every_branch_exact(self):
        phi = 2.7
        aset = prepare_ancillas(phi, 4, controlled=True)
        rng = np.random.default_rng(9)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        want = crz_matrix(phi) @ psi
        saw_fallback = False
        for pattern in range(16):
            bits = [(pattern >> i) & 1 for i in range(4)]
            out = execute_par(psi, aset, rng=ForcedDraws(bits))
            saw_fallback |= out.fallback_used
            assert abs(np.vdot(want, out.state)) >= 1 - 1e-12, bits
        assert saw_fallback

    def test_kickback_fallback_branch(self):
        aset = prepare_ancillas(1.3, 2, PREPARE_KICKBACK, 1e-2, controlled=True)
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        out = execute_par(psi, aset, rng=ForcedDraws([1, 0]))
        assert out.fallback_used
        want = crz_matrix(1.3) @ psi
        assert abs(np.vdot(want, out.state)) >= 1 - 1e-6

    def test_widest_controlled_kickback_fallback_runs(self):
        # 11 bits, the one limit.  The fallback's angle 2 phi has the odd
        # addend 651, so its kickback takes every carry: 2 * 11 = 22 wires
        phi = math.pi * 651 / 2048
        assert kickback_rotation(2 * phi, GammaRegister(1, 11)).circuit.n_qubits == 22
        aset = prepare_ancillas(phi, 1, PREPARE_KICKBACK, 2e-3, controlled=True)
        psi = np.full(4, 0.5)
        out = execute_par(psi, aset, rng=ForcedDraws([1]))
        assert out.fallback_used
        # only the ancilla's angle is off, by at most half a step of 2 pi / 2^11
        assert abs(np.vdot(crz_matrix(phi) @ psi, out.state)) >= math.cos(math.pi / 2**12)

    def test_three_qubit_circuit_protocol(self):
        # the cascade needs only control + two recycled carrier qubits:
        # each round reprograms the retired qubit by a controlled rotation
        # and teleports the data across; afterwards one deterministic
        # rotation on the control repays the failed-round phases
        phi = 0.9
        m_count = 4
        aset = prepare_ancillas(phi, m_count, controlled=True)
        master = np.random.default_rng(17)
        for trial in range(15):
            psi = master.standard_normal(4) + 1j * master.standard_normal(4)
            psi /= np.linalg.norm(psi)
            seed_run = int(master.integers(0, 2**31))
            fast = execute_par(psi, aset, seed=seed_run)

            rng = np.random.default_rng(seed_run)
            state = product_state(3, {(0, 1): psi})
            carrier, spare = 1, 2
            spare_value = 0
            frame_x = 0
            debt = 0.0
            rounds = 0
            fallback = False
            for m in range(1, m_count + 1):
                theta = (phi * (1 << (m - 1))) % TWO_PI
                b = CircuitBuilder(3)
                if spare_value:
                    b.append(gate(X, spare))
                b.extend(
                    [
                        gate(H, spare),
                        crz(theta, 0, spare),
                        cnot(spare, carrier),
                        measure(carrier, key=m),
                    ]
                )
                res = run(b.build(), state, rng=rng)
                state = res.state
                raw = res.record[m]
                spare_value = raw
                carrier, spare = spare, carrier
                rounds = m
                corrected = raw ^ frame_x
                frame_x = corrected
                if corrected == 0:
                    break
                debt += theta
            else:
                fallback = True
            b = CircuitBuilder(3)
            if fallback:
                if frame_x:
                    b.append(gate(X, carrier))
                    frame_x = 0
                b.append(crz((phi * (1 << m_count)) % TWO_PI, 0, carrier))
            if debt:
                b.append(rz(-debt, 0))
            final_circuit = b.build()
            if list(final_circuit.gates()):
                state = run(final_circuit, state, rng=rng).state
            block = np.zeros(2)
            block[spare_value] = 1.0
            vec, rest = project_onto(state, (spare,), block)
            vec = vec / np.linalg.norm(vec)
            # rest is (0, carrier) ascending: index = c + 2 d either way
            assert rounds == fast.rounds and fallback == fast.fallback_used
            assert states_equal_up_to_phase(vec, fast.state, tol=1e-9)
            want = crz_matrix(phi) @ psi
            assert states_equal_up_to_phase(vec, want, tol=1e-9)

    def test_rejections(self):
        # the set says which cascade runs; a state of the other size is refused
        plain = prepare_ancillas(1.0, 2)
        with pytest.raises(ValueError, match="2 amplitudes"):
            execute_par(np.ones(4) / 2, plain)
        ctrl = prepare_ancillas(1.0, 2, controlled=True)
        with pytest.raises(ValueError, match="4 amplitudes"):
            execute_par(np.ones(2), ctrl)


class TestExpectedRounds:
    def test_examples(self):
        assert expected_rounds(1) == 1.0
        assert expected_rounds(2) == 1.5
        assert expected_rounds() == 2.0
        assert expected_rounds(None) == 2.0

    def test_closed_form(self):
        # sum_{m<=M} m 2^-m + M 2^-M collapses to 2 - 2^{1-M}
        for m_count in range(1, 40):
            assert abs(expected_rounds(m_count) - (2.0 - 2.0 ** (1 - m_count))) < 1e-15

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            expected_rounds(0)


class TestDefaultSeed:
    """sim.DEFAULT_SEED is the one default: an unseeded call repeats the seeded one."""

    def test_execute_par(self):
        aset = prepare_ancillas(1.0, 6)
        want = execute_par(PLUS, aset, seed=DEFAULT_SEED)
        for _ in range(12):  # calls seeded from the OS would spread over round counts
            out = execute_par(PLUS, aset)
            assert out.rounds == want.rounds
            np.testing.assert_array_equal(out.state, want.state)

    def test_execute_par_controlled(self):
        aset = prepare_ancillas(1.0, 6, controlled=True)
        psi = np.full(4, 0.5)
        want = execute_par(psi, aset, seed=DEFAULT_SEED)
        for _ in range(12):
            out = execute_par(psi, aset)
            assert out.rounds == want.rounds
            np.testing.assert_array_equal(out.state, want.state)

    def test_par_statistics(self):
        assert par_statistics(1.0, 6, 1000) == par_statistics(1.0, 6, 1000, seed=DEFAULT_SEED)
