"""Tests for phase-kickback rotations, eigenstates and adders.

Oracles: adder behaviour is checked against direct integer arithmetic
(both by classical propagation of the X/CNOT/Toffoli list over basis
indices and by statevector simulation), eigenphases against
e^{2 pi i k u / 2^n} evaluated directly, and modular solutions against
exhaustive search.
"""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import block_overlap, decompose_toffolis

from ftqc.core import (
    CNOT,
    TOFFOLI,
    CircuitBuilder,
    X,
    circuit_to_text,
    dist,
    rz_matrix,
)
from ftqc.firstq import (
    PhysicalConstants,
    build_multiplier,
    build_potential_phase_circuit,
    build_register_adder,
)
from ftqc.kickback import (
    RIPPLE_CARRY,
    AdderSpec,
    GammaRegister,
    build_adder,
    carries_needed,
    emit_controlled_add,
    emit_register_add,
    gamma_state,
    kickback_rotation,
    phase_error,
    solve_mod,
)
from ftqc.par import prepare_ancillas
from ftqc.qvr import build_qft_via_qvr, build_qvr_bitwise, build_qvr_kickback, qvr_params
from ftqc.secondq import OneBodyTerm, TwoBodyTerm, build_excitation
from ftqc import sim
from ftqc.sim import (
    QUBIT_CAP,
    SimulationError,
    StateVector,
    effective_unitary,
    product_state,
    run,
)


def classical_apply(circuit, index: int) -> int:
    """Propagate a basis index through an X/CNOT/Toffoli circuit.

    Independent of the statevector simulator: permutation circuits act on
    basis states by pure bit arithmetic.
    """
    for g in circuit.gates():
        if g.kind == X:
            index ^= 1 << g.qubits[0]
        elif g.kind == CNOT:
            if (index >> g.qubits[0]) & 1:
                index ^= 1 << g.qubits[1]
        elif g.kind == TOFFOLI:
            if (index >> g.qubits[0]) & 1 and (index >> g.qubits[1]) & 1:
                index ^= 1 << g.qubits[2]
        else:
            raise AssertionError(f"non-permutation gate {g.kind} in adder")
    return index


def simulate_basis(circuit, index: int) -> int:
    res = run(circuit, StateVector.basis(circuit.n_qubits, index))
    out = int(np.argmax(np.abs(res.state.amps)))
    # permutation circuits keep basis states exact
    assert res.state.amps[out] == 1.0 + 0.0j
    return out


class TestGammaRegister:
    def test_validation(self):
        with pytest.raises(ValueError):
            GammaRegister(2, 3)
        with pytest.raises(ValueError):
            GammaRegister(9, 3)
        with pytest.raises(ValueError):
            GammaRegister(0, 3)
        with pytest.raises(ValueError):
            GammaRegister(1, 0)
        assert GammaRegister(7, 3).modulus == 8

    def test_plain_single_qubit(self):
        # e^{-i pi} = -1: the one-qubit register is |-> exactly
        amps = gamma_state(GammaRegister(1, 1)).amps
        assert np.allclose(amps * math.sqrt(2), [1.0, -1.0], atol=1e-15)

    def test_two_qubit_amplitudes(self):
        # direct evaluation of e^{-2 pi i y / 4} for y = 0..3
        amps = gamma_state(GammaRegister(1, 2)).amps
        assert np.allclose(amps * 2, [1.0, -1.0j, -1.0, 1.0j], atol=1e-15)

    @pytest.mark.parametrize("k,n", [(3, 2), (5, 4), (11, 4), (1, 5)])
    def test_separable_per_qubit(self, k, n):
        # the register factorizes: qubit j holds
        # (|0> + e^{-2 pi i k 2^j / 2^n} |1>) / sqrt(2)
        parts = {
            (j,): np.array([1.0, np.exp(-2j * np.pi * k * (1 << j) / (1 << n))])
            / math.sqrt(2)
            for j in range(n)
        }
        expected = product_state(n, parts).amps
        got = gamma_state(GammaRegister(k, n)).amps
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_normalized(self):
        for k, n in [(1, 1), (3, 3), (63, 6)]:
            amps = gamma_state(GammaRegister(k, n)).amps
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-14

    def test_size_limit_comes_first(self):
        # past the cap nothing is built: 2^23 amplitudes would be 128 MB,
        # and 2^64 more than numpy can index
        assert QUBIT_CAP < 23
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError, match="23 qubits exceeds"):
                gamma_state(GammaRegister(1, 23))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(SimulationError, match="64 qubits exceeds"):
            gamma_state(GammaRegister(1, 64))


class TestSolveMod:
    def test_unit_k(self):
        # round(8 * 0.5) = 4 with k = 1
        assert solve_mod(1, 3, math.pi) == 4

    def test_inverse_needed(self):
        # brute force over u in [0, 8): 3u = 2 (mod 8) only at u = 6
        assert solve_mod(3, 3, math.pi / 2) == 6
        assert [u for u in range(8) if (3 * u) % 8 == 2] == [6]

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            solve_mod(4, 3, 1.0)

    @given(
        k=st.integers(0, 200).map(lambda i: 2 * i + 1),
        n=st.integers(1, 16),
        phi=st.floats(-10.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_solution_and_residual(self, k, n, phi):
        modulus = 1 << n
        u = solve_mod(k, n, phi)
        assert 0 <= u < modulus
        reduced = math.fmod(phi, 2 * math.pi)
        if reduced < 0:
            reduced += 2 * math.pi
        target = math.floor(modulus * reduced / (2 * math.pi) + 0.5)
        assert (k * u) % modulus == target % modulus
        assert abs(phase_error(n, phi)) <= 2 * math.pi / (1 << (n + 1))

    def test_half_integer_rounds_up(self):
        # 2^2 * phi / 2 pi = 1.5 exactly: half-up gives 2
        phi = 1.5 * 2 * math.pi / 4
        assert solve_mod(1, 2, phi) == 2


class TestRippleAdder:
    def test_zero_addend_is_identity(self):
        c = build_adder(AdderSpec(RIPPLE_CARRY, 4), 0)
        assert list(c.gates()) == []
        assert c.n_qubits == 4

    def test_spec_example(self):
        # 6 + 3 = 9 = 1 (mod 8)
        c = build_adder(AdderSpec(RIPPLE_CARRY, 3), 3)
        out = simulate_basis(c, 6)
        assert out & 7 == 1 and out >> 3 == 0

    def test_exhaustive_small_widths_simulated(self):
        for n in range(1, 4):
            for a in range(1 << n):
                c = build_adder(AdderSpec(RIPPLE_CARRY, n), a)
                for x in range(1 << n):
                    out = simulate_basis(c, x)
                    assert out & ((1 << n) - 1) == (x + a) % (1 << n), (n, a, x)
                    assert out >> n == 0, "carry ancillas not restored"

    def test_exhaustive_n6_classical(self):
        # full 64 x 64 sweep via bit arithmetic on the emitted gate list
        n = 6
        for a in range(1 << n):
            c = build_adder(AdderSpec(RIPPLE_CARRY, n), a)
            for x in range(1 << n):
                out = classical_apply(c, x)
                assert out & 63 == (x + a) % 64, (a, x)
                assert out >> n == 0

    def test_n6_simulated_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = int(rng.integers(0, 64))
            x = int(rng.integers(0, 64))
            c = build_adder(AdderSpec(RIPPLE_CARRY, 6), a)
            out = simulate_basis(c, x)
            assert out & 63 == (x + a) % 64
            assert out >> 6 == 0

    def test_controlled_adder(self):
        spec = AdderSpec(RIPPLE_CARRY, 3, controlled=True)
        for a in range(8):
            c = build_adder(spec, a)
            ctrl_bit = c.n_qubits - 1
            for ctrl in (0, 1):
                for x in range(8):
                    out = simulate_basis(c, x | (ctrl << ctrl_bit))
                    want = ((x + a) % 8) if ctrl else x
                    assert out == want | (ctrl << ctrl_bit), (a, ctrl, x)

    def test_addend_out_of_range(self):
        with pytest.raises(ValueError):
            build_adder(AdderSpec(RIPPLE_CARRY, 3), 8)
        with pytest.raises(ValueError):
            build_adder(AdderSpec(RIPPLE_CARRY, 3), -1)
        with pytest.raises(ValueError):
            AdderSpec("lookahead-model", 4)

    def test_classical_folding_saves_gates(self):
        # a power-of-two addend needs no carry chain at all
        c = build_adder(AdderSpec(RIPPLE_CARRY, 6), 32)
        assert carries_needed(6, 32) == 0
        assert [g.kind for g in c.gates()] == [X]
        # low zero bits shorten the chain
        assert carries_needed(6, 8) < carries_needed(6, 1)

    def test_survives_toffoli_expansion(self):
        c = decompose_toffolis(build_adder(AdderSpec(RIPPLE_CARRY, 3), 3))
        res = run(c, StateVector.basis(c.n_qubits, 6))
        amps = res.state.amps
        assert abs(amps[1]) > 1 - 1e-12

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_widths(self, data):
        n = data.draw(st.integers(1, 6))
        a = data.draw(st.integers(0, (1 << n) - 1))
        x = data.draw(st.integers(0, (1 << n) - 1))
        c = build_adder(AdderSpec(RIPPLE_CARRY, n), a)
        out = classical_apply(c, x)
        assert out & ((1 << n) - 1) == (x + a) % (1 << n)
        assert out >> n == 0


class TestRegisterAdder:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("narrow", [False, True])
    def test_adds_modulo_register_width(self, width, narrow):
        reach = width - 1 if narrow else width
        builder = CircuitBuilder(reach + width + 1)
        addend = tuple(range(reach))
        target = tuple(range(reach, reach + width))
        emit_register_add(builder, addend, target, reach + width)
        circuit = builder.build()
        for a in range(1 << reach):
            for t in range(1 << width):
                out = classical_apply(circuit, a | t << reach)
                assert out == a | ((a + t) % (1 << width)) << reach

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            emit_register_add(CircuitBuilder(6), (0, 1, 2), (3, 4), 5)
        with pytest.raises(ValueError):
            emit_register_add(CircuitBuilder(1), (), (), 0)

    def test_builders_keep_their_circuit_texts(self):
        # every builder that emits the register adder, on a fixed sample; the
        # texts other than the multiplier's predate the adder's one definition,
        # and the multiplier's are those with a width-bit copy register
        texts = [circuit_to_text(build_register_adder(w)) for w in range(1, 7)]
        texts += [circuit_to_text(build_multiplier(w)) for w in range(1, 5)]
        texts += [
            circuit_to_text(build_qvr_kickback(qvr_params(xi, q), controlled))
            for xi in (0.8125, 0.3, 1 / 3, 2.7)
            for q in (1, 3, 5)
            for controlled in (False, True)
        ]
        texts += [circuit_to_text(build_qft_via_qvr(q)) for q in range(1, 7)]
        constants = PhysicalConstants(charges=(-1.0, 1.0), masses=(1.0, 1.0), dt=0.1)
        texts.append(circuit_to_text(build_potential_phase_circuit(2, 4, constants)[0]))
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == "b2401d120021ca346886401e281760549c8f101a05ea5adf20a53072908d9c84"


class TestControlledAdd:
    INPUTS = 64

    @pytest.mark.parametrize("width", range(1, 17))
    def test_adds_the_addend_under_the_control(self, width):
        # t -> t + c a mod 2^width on seeded basis inputs, run on bit-planes,
        # for copies as wide as the target or one bit narrower and every
        # addend width up to theirs, the rest of the copies being zero pads
        rng = np.random.default_rng(width)
        for reach in (width - 1, width):
            for bits in range(reach + 1):
                addend = tuple(range(1, 1 + bits))
                copies = tuple(range(1 + bits, 1 + bits + reach))
                target = tuple(range(1 + bits + reach, 1 + bits + reach + width))
                carry = target[-1] + 1
                builder = CircuitBuilder(carry + 1)
                emit_controlled_add(builder, 0, addend, copies, target, carry)
                circuit = builder.build()

                c = np.arange(self.INPUTS) % 2  # the control set and clear
                a = rng.integers(0, 1 << bits, self.INPUTS)
                t = rng.integers(0, 1 << width, self.INPUTS)
                planes = np.zeros((circuit.n_qubits, self.INPUTS), dtype=bool)
                planes[0] = c
                for j, wire in enumerate(addend):
                    planes[wire] = (a >> j) & 1
                for j, wire in enumerate(target):
                    planes[wire] = (t >> j) & 1
                want = planes.copy()
                for j, wire in enumerate(target):
                    want[wire] = ((t + c * a) % (1 << width) >> j) & 1
                amps = np.ones(self.INPUTS, dtype=np.complex128)
                planes, amps = sim._permute_phases(circuit, planes, amps)
                # control, addend, copies and carry come back as they went in
                np.testing.assert_array_equal(planes, want, err_msg=f"{reach=} {bits=}")
                np.testing.assert_array_equal(amps, 1.0)

    def test_rejects_fewer_copies_than_addend_bits(self):
        with pytest.raises(ValueError, match="copy wire"):
            emit_controlled_add(CircuitBuilder(8), 0, (1, 2, 3), (4, 5), (6, 7), 8)


PINS = json.loads((Path(__file__).parent / "data" / "circuit_pins.json").read_text())


def pinned_circuits():
    """(family, case, circuit) for every circuit tests/data/circuit_pins.json pins."""
    for w in range(1, 9):
        yield "build_register_adder", f"w={w}", build_register_adder(w)
        yield "build_multiplier", f"w={w}", build_multiplier(w)
    for q in range(1, 9):
        yield "build_qft_via_qvr", f"q={q} drop=0", build_qft_via_qvr(q)
        for xi in (0.1, 0.375, 1.25, 4.0):
            for controlled in (False, True):
                circuit = build_qvr_kickback(qvr_params(xi, q), controlled)
                yield "build_qvr_kickback", f"xi={xi} q={q} controlled={controlled}", circuit
    for n in range(1, 9):
        for phi in (0.0, 0.7, 2.345, 5.5):
            for controlled in (False, True):
                circuit = kickback_rotation(phi, GammaRegister(1, n), controlled).circuit
                yield "kickback_rotation", f"phi={phi} n={n} controlled={controlled}", circuit
    for q in range(1, 9):
        for xi in (0.1, 0.375, 1.25, 4.0, 6.0, 8.0):
            for controlled in (False, True):
                circuit = build_qvr_bitwise(q, xi, controlled=controlled)
                yield "build_qvr_bitwise", f"xi={xi} q={q} exact controlled={controlled}", circuit
            if q <= 4:
                circuit = build_qvr_bitwise(q, xi, epsilon_total=1e-2, method="sequence")
                yield "build_qvr_bitwise", f"xi={xi} q={q} sequence", circuit
    for term, n_orbitals in PINNED_TERMS:
        for method, epsilon in (("exact", 1e-4), ("sequence", 2e-2)):
            for controlled in (False, True):
                circuit = build_excitation(
                    term, 0.7, n_orbitals=n_orbitals, method=method, epsilon=epsilon, controlled=controlled
                )
                yield "build_excitation", f"{term} {method} controlled={controlled}", circuit
    for p, width, constants in pinned_potential_cases():
        yield "build_potential_phase_circuit", f"p={p} w={width} {constants}", build_potential_phase_circuit(
            p, width, constants
        )[0]


PINNED_TERMS = (
    (OneBodyTerm(0, 2, 0.3), 3),
    (OneBodyTerm(1, 1, -0.7), 2),
    (TwoBodyTerm(0, 1, 2, 3, 0.25), 4),
    (TwoBodyTerm(1, 0, 0, 1, 0.4), 2),
    (TwoBodyTerm(0, 5, 12, 17, -0.15), 18),
)


def pinned_potential_cases():
    pair = PhysicalConstants(charges=(1.0, -1.0), masses=(1836.0, 1.0), dt=0.05)
    repulsive = PhysicalConstants(charges=(1.0, 1.0), masses=(1.0, 1.0), dt=0.3)
    for p in (1, 2):
        for width in (3, 4, 6):
            for constants in (pair, repulsive):
                yield p, width, constants


def pinned_values():
    """(family, case, bytes) for every non-circuit value tests/data/circuit_pins.json pins:
    the potential phase layout and the bytes of PAR ancillas and fallbacks."""
    for p, width, constants in pinned_potential_cases():
        layout = build_potential_phase_circuit(p, width, constants)[1]
        yield "potential_phase_layout", f"p={p} w={width} {constants}", repr(layout).encode()
    for method, epsilon, controls in (("exact", 1e-4, (False, True)), ("sequence", 0.05, (False,)),
                                      ("kickback", 0.05, (False, True))):
        for phi in (0.7, 2.345, 5.5):
            for controlled in controls:
                aset = prepare_ancillas(phi, 4, method, epsilon, controlled=controlled)
                data = b"".join(a.tobytes() for a in aset.ancillas) + aset.fallback.tobytes()
                yield "prepare_ancillas", f"phi={phi} {method} controlled={controlled}", data


def circuit_digests() -> dict[str, dict[str, str]]:
    """sha256 of circuit_to_text for each pinned circuit, by family and case."""
    digests: dict[str, dict[str, str]] = {}
    for family, case, circuit in pinned_circuits():
        text = circuit_to_text(circuit).encode()
        digests.setdefault(family, {})[case] = hashlib.sha256(text).hexdigest()
    return digests


def value_digests() -> dict[str, dict[str, str]]:
    """sha256 of each pinned value's bytes, by family and case."""
    digests: dict[str, dict[str, str]] = {}
    for family, case, data in pinned_values():
        digests.setdefault(family, {})[case] = hashlib.sha256(data).hexdigest()
    return digests


class TestCircuitPins:
    def test_builders_match_their_pinned_digests(self):
        # the register adder, the multiplier, the QFT, kickback QVR and the
        # kickback rotation, gate for gate as they were before the controlled
        # register add and the kickback layout each got one definition; bitwise
        # QVR, excitations and the potential phase as they were before each
        # rotation method got one emitter
        got = circuit_digests()
        assert got.keys() == PINS["sha256"].keys()
        moved = [
            f"{family} {case}"
            for family, cases in PINS["sha256"].items()
            for case, digest in cases.items()
            if got[family].get(case) != digest
        ]
        assert not moved, moved
        assert all(got[f].keys() == PINS["sha256"][f].keys() for f in got)

    def test_layouts_and_ancillas_match_their_pinned_digests(self):
        # the potential phase layout, and the amplitudes of every PAR method's
        # ancillas and fallback, byte for byte
        got = value_digests()
        assert got == PINS["value_sha256"]


class TestEigenstateProperty:
    def test_exhaustive_n4(self):
        # adding u multiplies the register by e^{2 pi i k u / 16} exactly
        n = 4
        for k in range(1, 16, 2):
            init_amps = gamma_state(GammaRegister(k, n)).amps
            for u in range(16):
                c = build_adder(AdderSpec(RIPPLE_CARRY, n), u)
                init = product_state(c.n_qubits, {tuple(range(n)): init_amps})
                out = run(c, init).state.amps
                expected = np.exp(2j * np.pi * k * u / 16) * init.amps
                assert np.max(np.abs(out - expected)) < 1e-13, (k, u)

    def test_n6_spot(self):
        n = 6
        reg = GammaRegister(45, n)
        init_amps = gamma_state(reg).amps
        for u in (1, 13, 32, 63):
            c = build_adder(AdderSpec(RIPPLE_CARRY, n), u)
            init = product_state(c.n_qubits, {tuple(range(n)): init_amps})
            out = run(c, init).state.amps
            phase = np.vdot(init.amps, out)
            assert abs(phase - np.exp(2j * np.pi * reg.k * u / 64)) < 1e-12


class TestKickbackRotation:
    def test_zero_angle(self):
        kr = kickback_rotation(0.0, GammaRegister(1, 4))
        assert kr.u == 0 and kr.delta_phi == 0.0
        assert list(kr.circuit.gates()) == []

    def test_exact_t_gate(self):
        # 2^4 * (pi/4) / 2 pi = 2 exactly, so the angle is representable
        reg = GammaRegister(1, 4)
        kr = kickback_rotation(math.pi / 4, reg)
        assert kr.u == 2
        assert kr.delta_phi == 0.0
        mat, leak = effective_unitary(
            kr.circuit, (kr.layout.target,), {kr.layout.gamma: gamma_state(reg).amps}
        )
        assert leak < 1e-12
        target = np.diag([1.0, np.exp(1j * np.pi / 4)])
        assert dist(mat, target) <= 1e-9
        assert dist(mat, rz_matrix(math.pi / 4)) <= 1e-9

    def test_generic_angles_meet_bound(self):
        rng = np.random.default_rng(11)
        reg = GammaRegister(59, 8)
        g = gamma_state(reg).amps
        for _ in range(8):
            phi = float(rng.uniform(0, 2 * math.pi))
            kr = kickback_rotation(phi, reg)
            mat, leak = effective_unitary(
                kr.circuit, (kr.layout.target,), {kr.layout.gamma: g}
            )
            assert leak < 1e-7
            assert dist(mat, rz_matrix(phi)) <= abs(kr.delta_phi) / 2 + 1e-9
            # the synthesized angle itself matches phi - delta_phi
            measured = float(np.angle(mat[1, 1] / mat[0, 0]))
            # compare on the circle: a residual just below 2 pi is a hit
            r = (measured - (phi - kr.delta_phi)) % (2 * math.pi)
            assert min(r, 2 * math.pi - r) < 1e-7

    def test_register_reuse(self):
        # arbitrary target state: the register stays in its product state
        reg = GammaRegister(23, 5)
        g = gamma_state(reg).amps
        kr = kickback_rotation(2.1, reg)
        target_state = np.array([0.6, 0.8j])
        init = product_state(
            kr.circuit.n_qubits,
            {(kr.layout.target,): target_state, kr.layout.gamma: g},
        )
        out = run(kr.circuit, init).state
        assert block_overlap(out, kr.layout.gamma, g) >= 1 - 1e-10

    def test_controlled_rotation(self):
        reg = GammaRegister(3, 4)
        kr = kickback_rotation(1.0, reg, controlled=True)
        mat, leak = effective_unitary(
            kr.circuit,
            (kr.layout.control, kr.layout.target),
            {kr.layout.gamma: gamma_state(reg).amps},
        )
        assert leak < 1e-12
        target = np.diag([1.0, 1.0, 1.0, np.exp(1j * (1.0 - kr.delta_phi))])
        assert dist(mat, target) <= 1e-9

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("controlled", [False, True])
    def test_leakage_is_rounding_sized(self, n, controlled):
        # the register returns to gamma_state exactly; complex128 rounding
        # must show as leakage of its own size, not its square root
        reg = GammaRegister(1, n)
        kr = kickback_rotation(0.7, reg, controlled=controlled)
        data = (kr.layout.control, kr.layout.target) if controlled else (kr.layout.target,)
        _, leak = effective_unitary(kr.circuit, data, {kr.layout.gamma: gamma_state(reg).amps})
        assert leak <= 1e-12

    def test_fault_tolerant_gate_set(self):
        kr = kickback_rotation(1.0, GammaRegister(7, 5))
        assert kr.circuit.fault_tolerant
        kinds = {g.kind for g in kr.circuit.gates()}
        assert kinds <= {X, CNOT, TOFFOLI}

    def test_predicted_error_tracks_angle(self):
        rng = np.random.default_rng(3)
        for n in (4, 8, 12):
            for _ in range(40):
                phi = float(rng.uniform(0, 2 * math.pi))
                assert abs(phase_error(n, phi)) <= 2 * math.pi / (1 << (n + 1))
