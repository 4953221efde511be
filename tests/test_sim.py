"""Statevector simulator: state construction, measurement via inverse CDF,
Pauli-frame tracking, projection helpers, the whole-matrix checks on both
of their paths, the sparse route and the relabelling of X and CNOT in
dense runs, and channel comparison."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    apply_frame_by_factors,
    block_overlap,
    dense_measured_run,
    dense_run,
    digests_across_blas_threads,
    matrix_of,
    project_onto,
    sequential_circuit,
)

from ftqc import core, firstq, kernels, kickback, secondq, sim
from ftqc.core import (
    Circuit,
    CircuitBuilder,
    Pauli,
    cnot,
    crz,
    frame_update,
    gate,
    measure,
    rz,
    toffoli,
)
from ftqc.sim import (
    QUBIT_CAP,
    SimulationError,
    StateVector,
    apply_frame,
    channel_equal,
    effective_unitary,
    product_state,
    random_state,
    run,
    states_equal_up_to_phase,
    to_unitary,
)

SQ = 1.0 / math.sqrt(2.0)


class FakeRng:
    """Feeds a preset sequence of uniforms to the measurement sampler."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestStateVector:
    def test_zero_and_basis(self):
        s = StateVector.zero(2)
        assert s.amps[0] == 1.0 and np.count_nonzero(s.amps) == 1
        s = StateVector.basis(3, 5)
        assert s.amps[5] == 1.0

    def test_cap_enforced(self):
        assert StateVector.zero(QUBIT_CAP).n_qubits == QUBIT_CAP
        with pytest.raises(SimulationError, match=f"{QUBIT_CAP + 1} qubits exceeds"):
            StateVector.zero(QUBIT_CAP + 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: product_state(64),
            lambda: random_state(64, np.random.default_rng(0)),
            lambda: effective_unitary(core.Circuit(64, []), tuple(range(64))),
        ],
        ids=["product_state", "random_state", "effective_unitary"],
    )
    def test_oversized_state_refused_before_allocation(self, make):
        # 2^64 amplitudes cannot be allocated, so anything but the cap's
        # SimulationError means an allocation came first
        with pytest.raises(SimulationError, match="64 qubits exceeds"):
            make()

    def test_amplitude_length_checked(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("dtype", [np.complex64, np.clongdouble, np.float64])
    def test_amplitudes_stored_as_complex128(self, dtype):
        s = StateVector(1, np.array([0.6, 0.8], dtype=dtype))
        assert s.amps.dtype == np.dtype(np.complex128)
        np.testing.assert_allclose(s.amps, [0.6, 0.8], rtol=1e-7)


class TestProductState:
    def test_default_is_all_zero(self):
        s = product_state(3)
        assert s.amps[0] == 1.0

    def test_single_qubit_blocks(self):
        s = product_state(2, {(0,): np.array([0, 1]), (1,): np.array([SQ, SQ])})
        np.testing.assert_allclose(s.amps, [0, SQ, 0, SQ], atol=1e-15)

    def test_block_bit_order(self):
        # block bit j lives on qubits[j]: index 1 of a block on (2, 0) sets qubit 2
        vec = np.array([0, 1, 0, 0], dtype=complex)
        s = product_state(3, {(2, 0): vec})
        assert s.amps[0b100] == 1.0

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            product_state(3, {(0, 1): np.eye(4)[0], (1,): np.array([1, 0])})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            product_state(2, {(2,): np.array([1, 0])})

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            product_state(2, {(0,): np.array([1, 0, 0, 0])})


class TestRun:
    def test_bell_state(self):
        c = sequential_circuit(2, [gate(core.H, 0), cnot(0, 1)])
        res = run(c)
        np.testing.assert_allclose(res.state.amps, [SQ, 0, 0, SQ], atol=1e-15)

    def test_inverse_cdf_outcome_mapping(self):
        init = StateVector(1, np.array([math.sqrt(0.3), math.sqrt(0.7)]))
        c = sequential_circuit(1, [measure(0, key=0)])
        # p0 = 0.3: a draw below p0 gives 0, at/above gives 1
        res = run(c, init.copy(), rng=FakeRng([0.25]))
        assert res.record[0] == 0
        np.testing.assert_allclose(res.state.amps, [1, 0], atol=1e-12)
        res = run(c, init.copy(), rng=FakeRng([0.35]))
        assert res.record[0] == 1
        np.testing.assert_allclose(res.state.amps, [0, 1], atol=1e-12)

    def test_measurement_collapses_partner(self):
        b = CircuitBuilder(2)
        b.append(gate(core.H, 0))
        b.append(cnot(0, 1))
        b.append(measure(0, key=0))
        b.append(measure(1, key=1))
        c = b.build()
        for seed in range(20):
            res = run(c, seed=seed)
            assert res.record[0] == res.record[1]

    def test_determinism_per_seed(self):
        b = CircuitBuilder(3)
        for q in range(3):
            b.append(gate(core.H, q))
            b.append(measure(q, key=q))
        c = b.build()
        r1 = run(c, seed=99)
        r2 = run(c, seed=99)
        assert r1.record == r2.record
        np.testing.assert_array_equal(r1.state.amps, r2.state.amps)

    def test_measurement_statistics(self):
        c = sequential_circuit(1, [gate(core.H, 0), measure(0, key=0)])
        ones = sum(run(c, seed=s).record[0] for s in range(200))
        assert 60 <= ones <= 140  # binomial(200, 1/2), +-5 sigma

    def test_cap(self):
        c = core.Circuit(QUBIT_CAP + 1, [])
        with pytest.raises(SimulationError, match=f"{QUBIT_CAP + 1} qubits exceeds"):
            run(c)

    def test_initial_size_mismatch(self):
        c = sequential_circuit(2, [gate(core.H, 0)])
        with pytest.raises(ValueError):
            run(c, StateVector.zero(3))

    def test_crz_action(self):
        c = sequential_circuit(2, [crz(0.9, 0, 1)])
        u = to_unitary(c)
        expect = np.eye(4, dtype=complex)
        expect[3, 3] = np.exp(0.9j)
        np.testing.assert_allclose(u, expect, atol=1e-15)

    def test_rz_action(self):
        c = sequential_circuit(1, [rz(-1.3, 0)])
        np.testing.assert_allclose(to_unitary(c), core.rz_matrix(-1.3), atol=1e-15)

    def test_toffoli_action(self):
        c = sequential_circuit(3, [toffoli(0, 1, 2)])
        u = to_unitary(c)
        # qubit 2 flips exactly when qubits 0 and 1 are set
        assert u[0b111, 0b011] == 1.0 and u[0b011, 0b111] == 1.0
        assert u[0b001, 0b001] == 1.0


def frame_matrix(f: Pauli, n: int) -> np.ndarray:
    """Dense matrix of the tracked correction on n qubits, for oracle comparisons."""
    m = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        p = np.eye(2, dtype=complex)
        if f.x >> q & 1:
            p = matrix_of(gate(core.X, 0)) @ p
        if f.z >> q & 1:
            p = matrix_of(gate(core.Z, 0)) @ p
        m = np.kron(m, p)
    return (1j ** f.phase) * m


def random_frame(n, rng) -> Pauli:
    """X and Z corrections on random qubits, each folded onto the left."""
    f = Pauli()
    for q in range(n):
        for p in (Pauli(x=1 << q), Pauli(z=1 << q)):
            if rng.integers(2):
                f = p * f
    return f


def random_pauli(n, rng) -> Pauli:
    return Pauli(int(rng.integers(1 << n)), int(rng.integers(1 << n)), int(rng.integers(4)))


def frame_run(n, *corrections) -> Pauli:
    """The frame run() leaves after FRAME gates of the given (qubit, letter) pairs, in order."""
    return run(sequential_circuit(n, [frame_update(q, p) for q, p in corrections])).frame


class TestPauliFrame:
    def test_update_is_involutive_on_masks(self):
        assert frame_run(2, (0, "X"), (0, "X")) == Pauli()
        assert frame_run(2, (1, "Z"), (0, "X"), (1, "Z"), (0, "X")) == Pauli()

    def test_fold_order_and_phase(self):
        # a later correction multiplies from the left: X then Z is Z X = i Y,
        # Z then X is X Z = -Z X; each matches its explicit-gate run
        rng = np.random.default_rng(4)
        for order, want in (("XZ", Pauli(0b10, 0b10, 0)), ("ZX", Pauli(0b10, 0b10, 2))):
            f = frame_run(2, *((1, p) for p in order))
            assert f == want
            psi = random_state(2, rng)
            explicit = run(sequential_circuit(2, [gate(p, 1) for p in order]), psi).state
            np.testing.assert_array_equal(apply_frame(f, psi).amps, explicit.amps)

    def test_update_rejects_qubit_outside_frame(self):
        # a frame has no size of its own: the circuit checks a correction's
        # qubit, and the gate its letter
        with pytest.raises(ValueError, match="outside register"):
            Circuit(2, [[frame_update(2, "X")]])
        for q, p in ((-1, "X"), (0, "Y")):
            with pytest.raises(ValueError):
                frame_update(q, p)

    def test_apply_to_matches_dense_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_frame(3, rng)
            psi = random_state(3, rng)
            out = apply_frame(f, psi)
            np.testing.assert_allclose(out.amps, frame_matrix(f, 3) @ psi.amps, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_apply_to_matches_the_factor_loop(self, n):
        # X^x as one reversed-stride copy, then the Z passes and i^s: bit for
        # bit one kernel pass per factor, signed zeros included
        rng = np.random.default_rng(360 + n)
        for _ in range(20):
            f = random_pauli(n, rng)
            psi = random_state(n, rng)
            psi.amps[rng.integers(0, 1 << n, 2)] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
            kept = bits(psi.amps).copy()
            got = apply_frame(f, psi)
            np.testing.assert_array_equal(bits(got.amps), bits(apply_frame_by_factors(f, psi).amps))
            np.testing.assert_array_equal(bits(psi.amps), kept)  # the input is left alone

    @pytest.mark.parametrize("n", range(5, 13))
    def test_read_at_indices_matches_apply_to(self, n):
        # channel_equal reads the corrected outputs at a few indices instead
        # of materializing E|psi>: the same values, signed zeros included
        rng = np.random.default_rng(390 + n)
        for _ in range(20):
            f = random_pauli(n, rng)
            psi = random_state(n, rng)
            psi.amps[rng.integers(0, 1 << n, 2)] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
            out_map = tuple(int(q) for q in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            fixed = sum(int(rng.integers(2)) << q for q in range(n) if q not in out_map)
            idx = np.concatenate((sim._spread(out_map) | fixed, rng.integers(0, 1 << n, 16)))
            want = apply_frame(f, psi).amps[idx]
            got = sim._corrected_at(f, psi.amps, idx)
            assert np.array_equal(got, want)
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("span", range(3, 9))
    def test_apply_to_matches_the_factor_loop_on_teleported_ladders(self, span):
        c, psi = teleported_ladder_input(span, np.random.default_rng(370 + span))
        flips = 0
        for seed in range(371, 377):
            res = run(c, psi, seed=seed)
            flips += res.frame.x != 0
            want = apply_frame_by_factors(res.frame, res.state)
            np.testing.assert_array_equal(bits(res.corrected_state().amps), bits(want.amps))
        assert flips  # the case the reversed-stride copy serves

    def test_apply_to_allocates_one_state(self):
        # one copy of the state, and the Z passes' ufunc buffers
        n = 18
        psi = random_state(n, np.random.default_rng(380))
        f = Pauli(0b101011000000100101, 0b010100000011000110, 3)
        tracemalloc.start()
        try:
            out = apply_frame(f, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.amps.nbytes <= peak < 1.1 * psi.amps.nbytes, peak
        assert out.amps.flags.c_contiguous and out.n_qubits == n

    @pytest.mark.parametrize("state_qubits", [4, 7])
    def test_apply_to_rejects_a_state_of_another_size(self, state_qubits):
        # a factor on the first qubit past the state, or further out, once
        # was dropped and the state returned unchanged
        above = 1 << state_qubits
        for f in (Pauli(x=above, z=above << 1), Pauli(z=above << 3), Pauli(x=1, z=above | 1, phase=2)):
            with pytest.raises(ValueError, match=f"outside a {state_qubits}-qubit state"):
                apply_frame(f, StateVector.zero(state_qubits))
        widest = Pauli(x=above >> 1, z=above - 1)  # every qubit of the state is in range
        assert apply_frame(widest, StateVector.zero(state_qubits)).n_qubits == state_qubits

    @pytest.mark.parametrize("kind", [core.X, core.Y, core.Z, core.H, core.S, core.SDG])
    def test_single_qubit_propagation_exact(self, kind):
        # G (E |psi>) must equal E' (G |psi>) with E' the propagated frame,
        # including the global phase
        rng = np.random.default_rng(7)
        c = sequential_circuit(1, [gate(kind, 0)])
        for z in (0, 1):
            for x in (0, 1):
                f = Pauli(x, z)
                psi = random_state(1, rng)
                direct = run(c, apply_frame(f, psi)).state.amps
                deferred = apply_frame(sim._propagate(f, gate(kind, 0)), run(c, psi.copy()).state).amps
                np.testing.assert_allclose(direct, deferred, atol=1e-14)

    def test_cnot_propagation_exact(self):
        rng = np.random.default_rng(8)
        c = sequential_circuit(2, [cnot(0, 1)])
        for code in range(16):
            f = Pauli(x=(code >> 1 & 1) | (code >> 3 & 1) << 1, z=(code & 1) | (code >> 2 & 1) << 1)
            psi = random_state(2, rng)
            direct = run(c, apply_frame(f, psi)).state.amps
            deferred = apply_frame(sim._propagate(f, cnot(0, 1)), run(c, psi.copy()).state).amps
            np.testing.assert_allclose(direct, deferred, atol=1e-14)

    def test_diagonal_gates_block_x_frames(self):
        with pytest.raises(SimulationError):
            sim._propagate(Pauli(x=0b1), gate(core.T, 0))
        f = Pauli(z=0b1, phase=1)
        assert sim._propagate(f, gate(core.T, 0)) == f  # Z commutes with any Z rotation

    @pytest.mark.parametrize(
        "frame,g,message",
        [
            (Pauli(x=0b1), gate(core.T, 0), "X frame cannot cross diagonal gate T$"),
            (Pauli(x=0b1), gate(core.TDG, 0), "X frame cannot cross diagonal gate TDG"),
            (Pauli(x=0b10), rz(0.3, 1), "X frame cannot cross diagonal gate RZ"),
            (Pauli(x=0b01), crz(0.3, 0, 1), "X frame cannot cross CRZ"),
            (Pauli(x=0b10), crz(0.3, 0, 1), "X frame cannot cross CRZ"),
            (Pauli(x=0b001), toffoli(0, 1, 2), "frame cannot cross Toffoli on these qubits"),
            (Pauli(x=0b010), toffoli(0, 1, 2), "frame cannot cross Toffoli on these qubits"),
            (Pauli(z=0b100), toffoli(0, 1, 2), "frame cannot cross Toffoli on these qubits"),
            (Pauli(), measure(0, key=0), "cannot propagate frame through MEASURE"),
        ],
        ids=["T", "TDG", "RZ", "CRZ-control", "CRZ-target", "Toffoli-c1", "Toffoli-c2", "Toffoli-target",
             "MEASURE"],
    )
    def test_each_crossing_error(self, frame, g, message):
        with pytest.raises(SimulationError, match=message):
            sim._propagate(frame, g)

    def test_toffoli_crossing_rules(self):
        ok = Pauli(x=0b100, z=0b011, phase=3)
        assert sim._propagate(ok, toffoli(0, 1, 2)) == ok  # commuting combination passes
        for bad in (Pauli(x=0b001), Pauli(z=0b100)):
            with pytest.raises(SimulationError):
                sim._propagate(bad, toffoli(0, 1, 2))

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f1 = random_frame(2, rng)
            f2 = random_frame(2, rng)
            psi = random_state(2, rng)
            seq = apply_frame(f2, apply_frame(f1, psi)).amps
            combo = apply_frame(f2 * f1, psi).amps
            np.testing.assert_allclose(seq, combo, atol=1e-14)

    def test_compose_with_self_cancels_masks(self):
        rng = np.random.default_rng(10)
        f = random_frame(3, rng)
        sq = f * f
        assert not sq.x and not sq.z
        assert sq.phase in (0, 2)  # at most a leftover global sign

    def test_frame_gate_flips_reported_outcome(self):
        b = CircuitBuilder(1)
        b.append(frame_update(0, "X"))
        b.append(measure(0, key=0))
        res = run(b.build())
        assert res.record[0] == 1
        np.testing.assert_allclose(res.corrected_state().amps, [0, 1], atol=1e-15)

    def test_z_frame_measurement_phase_exact(self):
        # measuring through a Z frame must reproduce the explicit-Z run
        # including the collapsed state's sign
        plus = StateVector(1, core.PLUS)
        framed = CircuitBuilder(1)
        framed.append(frame_update(0, "Z"))
        framed.append(measure(0, key=0))
        explicit = sequential_circuit(1, [gate(core.Z, 0), measure(0, key=0)])
        for r in (0.2, 0.8):
            a = run(framed.build(), plus.copy(), rng=FakeRng([r]))
            b = run(explicit, plus.copy(), rng=FakeRng([r]))
            assert a.record[0] == b.record[0]
            np.testing.assert_allclose(a.corrected_state().amps, b.state.amps, atol=1e-14)

    def test_conditioned_frame_reads_record(self):
        # deterministic measurement of |1> fires the conditioned correction
        b = CircuitBuilder(2)
        b.append(gate(core.X, 0))
        b.append(measure(0, key=0))
        b.append(frame_update(1, "X", cond=0))
        res = run(b.build())
        assert res.record[0] == 1
        np.testing.assert_allclose(res.corrected_state().amps[0b11], 1.0, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_clifford_circuit_propagation(self, seed):
        # push a random frame through a random Clifford circuit and compare
        # against materializing it up front
        rng = np.random.default_rng(seed)
        n = 3
        gates = []
        for _ in range(12):
            if rng.integers(4) == 0:
                q = int(rng.integers(n))
                t = int((q + 1 + rng.integers(n - 1)) % n)
                gates.append(cnot(q, t))
            else:
                kind = [core.X, core.Y, core.Z, core.H, core.S, core.SDG][rng.integers(6)]
                gates.append(gate(kind, int(rng.integers(n))))
        c = sequential_circuit(n, gates)
        f = random_frame(n, rng)
        psi = random_state(n, rng)
        direct = run(c, apply_frame(f, psi)).state.amps
        for g in gates:
            f = sim._propagate(f, g)
        deferred = apply_frame(f, run(c, psi.copy()).state).amps
        np.testing.assert_allclose(direct, deferred, atol=1e-13)


class TestProjection:
    def test_project_bell_onto_plus(self):
        c = sequential_circuit(2, [gate(core.H, 0), cnot(0, 1)])
        bell = run(c).state
        res, rest = project_onto(bell, (1,), np.array([SQ, SQ]))
        assert rest == (0,)
        np.testing.assert_allclose(res, [0.5, 0.5], atol=1e-15)

    def test_project_basis_block(self):
        s = StateVector.basis(3, 0b110)
        res, rest = project_onto(s, (1, 2), np.eye(4)[0b11])
        assert rest == (0,)
        np.testing.assert_allclose(res, [1, 0], atol=1e-15)

    def test_block_overlap(self):
        c = sequential_circuit(2, [gate(core.H, 0), cnot(0, 1)])
        bell = run(c).state
        assert abs(block_overlap(bell, (0, 1), np.eye(4)[3]) - 0.5) < 1e-12

    def test_states_equal_up_to_phase(self):
        v = np.array([SQ, 1j * SQ])
        assert states_equal_up_to_phase(v, np.exp(1.1j) * v)
        assert not states_equal_up_to_phase(v, np.array([1.0, 0.0]))
        assert not states_equal_up_to_phase(v, np.zeros(2))


class TestEffectiveUnitary:
    def test_matrix_cap(self):
        # 13 data qubits would make a 4^13-entry matrix, past to_unitary's limit too
        with pytest.raises(SimulationError, match="refusing to build a 2\\^13 unitary"):
            effective_unitary(core.Circuit(13, []), tuple(range(13)))

    def test_hadamard_sandwich_reverses_cnot(self):
        b = CircuitBuilder(2)
        b.extend([gate(core.H, 0), gate(core.H, 1), cnot(0, 1), gate(core.H, 0), gate(core.H, 1)])
        m, leak = effective_unitary(b.build(), (0, 1))
        # no ancillas: nothing can leak
        assert leak < 1e-12
        np.testing.assert_allclose(m, to_unitary(sequential_circuit(2, [cnot(1, 0)])), atol=1e-14)

    def test_dirty_ancilla_reports_leakage(self):
        c = sequential_circuit(2, [cnot(0, 1)])
        m, leak = effective_unitary(c, (0,))
        assert abs(leak - 1.0) < 1e-12  # the |1> column leaves the ancilla in |1>

    def test_compute_uncompute_has_no_leakage(self):
        c = sequential_circuit(2, [cnot(0, 1), cnot(0, 1)])
        m, leak = effective_unitary(c, (0,))
        assert leak < 1e-12
        np.testing.assert_allclose(m, np.eye(2), atol=1e-14)

    def test_fixed_ancilla_block(self):
        c = sequential_circuit(2, [cnot(1, 0)])
        m, leak = effective_unitary(c, (0,), fixed={(1,): np.array([0.0, 1.0])})
        assert leak < 1e-12
        np.testing.assert_allclose(m, matrix_of(gate(core.X, 0)), atol=1e-14)

    def test_data_qubit_order_controls_basis(self):
        c = sequential_circuit(2, [cnot(0, 1)])
        m01, _ = effective_unitary(c, (0, 1))
        m10, _ = effective_unitary(c, (1, 0))
        np.testing.assert_allclose(m01, to_unitary(c), atol=1e-14)
        # reversing the data order permutes basis bits
        perm = [0, 2, 1, 3]
        np.testing.assert_allclose(m10, m01[np.ix_(perm, perm)], atol=1e-14)

    @pytest.mark.parametrize("last", [measure(1, key=0), frame_update(1, "X")], ids=["measure", "frame"])
    def test_rejects_non_unitary_circuits(self, last):
        # a sampled branch is not a matrix: refuse it rather than draw one
        c = sequential_circuit(2, [gate(core.H, 0), cnot(0, 1), last])
        with pytest.raises(ValueError):
            effective_unitary(c, (0,))


# one sha256 of every effective_unitary matrix and leakage, for the
# (circuit, data qubits, helpers) cases pickled on stdin
_PROJECTION_DIGEST = """
import hashlib, pickle, sys
from ftqc import sim

digest = hashlib.sha256()
for circuit, data, helpers in pickle.load(sys.stdin.buffer):
    mat, leak = sim.effective_unitary(circuit, data, helpers)
    digest.update(mat.tobytes())
    digest.update(repr(leak).encode())
print(digest.hexdigest())
"""

# sha256 of the random_state bytes at 16 qubits
_RANDOM_STATE_DIGEST = """
import hashlib
import numpy as np
from ftqc import sim

print(hashlib.sha256(sim.random_state(16, np.random.default_rng(16)).amps.tobytes()).hexdigest())
"""


class TestHelperProjectionDeterminism:
    def test_effective_unitary_is_byte_identical_across_blas_threads(self):
        """The helpers are projected back, and the leakage summed, without
        BLAS, so the bytes of effective_unitary do not depend on how many
        threads BLAS may use.  The cases: the kickback rotations,
        uncontrolled and controlled, with the gamma state as the helper,
        and random circuits at 14 and 16 wires with two superposed helpers,
        whose leakage took BLAS's summation order while a BLAS norm
        measured it."""
        cases = []
        for n in (5, 7):
            reg = kickback.GammaRegister(1, n)
            gamma = kickback.gamma_state(reg).amps
            for controlled in (False, True):
                for phi in (0.7, 2.345, 1.1):
                    rot = kickback.kickback_rotation(phi, reg, controlled=controlled)
                    lay = rot.layout
                    data = (lay.control, lay.target) if controlled else (lay.target,)
                    cases.append((rot.circuit, data, {lay.gamma: gamma}))
        for n in (14, 16):
            rng = np.random.default_rng(n)
            helpers = {(4, 1): unit_vector(rng, 4), (5, 6, 7): unit_vector(rng, 8)}
            cases.append((random_unitary_circuit(n, seed=7 + n, extra=200), (0, 2), helpers))
        digests = digests_across_blas_threads(_PROJECTION_DIGEST, pickle.dumps(cases))
        assert len(digests) == 1, digests

    def test_random_state_is_byte_identical_across_blas_threads(self):
        # normalized by a numpy sum: a BLAS norm sums in an order that
        # depends on its thread count from about 14 qubits up
        digests = digests_across_blas_threads(_RANDOM_STATE_DIGEST)
        assert len(digests) == 1, digests

    def test_widest_kickback_projection_stays_on_the_support(self):
        # the 22-wire kickback rotation of PAR's widest fallback: an 11-bit
        # gamma helper and every carry.  Projected on the support it peaks
        # near 1 MB; scattering rows of 2^22 amplitudes took 504 MB.
        phi = math.pi * 651 / 2048
        reg = kickback.GammaRegister(1, 11)
        rot = kickback.kickback_rotation(2 * phi, reg)
        assert rot.circuit.n_qubits == 22
        gamma = kickback.gamma_state(reg).amps
        tracemalloc.start()
        try:
            mat, leak = effective_unitary(rot.circuit, (rot.layout.target,), {rot.layout.gamma: gamma})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 << 20, peak
        # 2 phi is on the 11-bit grid, so the rotation is exact up to rounding
        np.testing.assert_allclose(mat, np.diag([1.0, np.exp(2j * phi)]), atol=1e-12)
        assert leak < 1e-12


# every unitary gate kind the simulator dispatches on
UNITARY_1Q = (core.X, core.Y, core.Z, core.H, core.S, core.SDG, core.T, core.TDG)


def random_unitary_circuit(n, seed, extra=60, kinds=(*UNITARY_1Q, core.RZ, core.CNOT, core.TOFFOLI, core.CRZ)):
    """Seeded circuit on n qubits holding each given kind (default: every unitary one) at least once."""
    rng = np.random.default_rng(seed)
    kinds = list(kinds)
    kinds += [kinds[i] for i in rng.integers(0, len(kinds), extra)]
    gates = []
    for kind in rng.permutation(np.array(kinds, dtype=object)):
        qs = [int(q) for q in rng.permutation(n)]
        if kind in UNITARY_1Q:
            gates.append(gate(kind, qs[0]))
        elif kind == core.RZ:
            gates.append(rz(rng.uniform(-np.pi, np.pi), qs[0]))
        elif kind == core.CNOT:
            gates.append(cnot(qs[0], qs[1]))
        elif kind == core.TOFFOLI:
            gates.append(toffoli(*qs[:3]))
        else:
            gates.append(crz(rng.uniform(-np.pi, np.pi), qs[0], qs[1]))
    return sequential_circuit(n, gates)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def helper_oracle(circuit, data_qubits, helpers, vec, after=None):
    """effective_unitary's column for one data input, from a run() of its own.

    after, if given, replaces that run(): the amplitudes the circuit left.
    The helpers are projected back with project_onto; the leakage is the
    norm of psi - |ref> (x) amps, the square root of the correctly rounded
    sum of its squared real and imaginary parts.
    """
    n = circuit.n_qubits
    if after is None:
        psi = run(circuit, product_state(n, [(data_qubits, vec), *helpers.items()])).state
    else:
        psi = StateVector(n, after)
    ancillas = tuple(q for q in range(n) if q not in data_qubits)
    ref = product_state(len(ancillas), {tuple(ancillas.index(q) for q in qs): v for qs, v in helpers.items()}).amps
    resid, rest = project_onto(psi, ancillas, ref)
    # bit j of a data index sits on data_qubits[j]; residual bit i on rest[i]
    to_rest = [sum((j >> b & 1) << rest.index(q) for b, q in enumerate(data_qubits)) for j in range(len(vec))]
    # full[a, r]: the basis index with ancilla bits a and rest bits r
    full = np.zeros((len(ref), len(resid)), dtype=np.int64)
    for i, q in enumerate(ancillas):
        full |= (np.arange(len(ref))[:, None] >> i & 1) << q
    for i, q in enumerate(rest):
        full |= (np.arange(len(resid))[None, :] >> i & 1) << q
    ortho = ref[:, None] * resid[None, :]
    np.subtract(psi.amps[full], ortho, out=ortho)
    return resid[to_rest], math.sqrt(math.fsum((ortho.view(np.float64) ** 2).ravel().tolist()))


class TestBlockRuns:
    """Whole-matrix builders run their columns in blocks; each column must
    equal, bit for bit, a run() of that column's input alone."""

    # 1 << 8 amplitudes split every matrix below into several blocks;
    # 1 << 16 puts all the columns of each into one block
    @pytest.fixture(params=[1 << 8, 1 << 16], ids=["several-blocks", "one-block"])
    def block_amps(self, request, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_AMPS", request.param)
        return request.param

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_to_unitary_matches_per_column_runs(self, block_amps, n):
        c = random_unitary_circuit(n, seed=40 + n)
        dim = 1 << n
        assert (sim._block_size(n, dim) < dim) == (block_amps == 1 << 8)
        u = to_unitary(c)
        oracle = np.stack([run(c, StateVector.basis(n, j)).state.amps for j in range(dim)], axis=1)
        np.testing.assert_array_equal(bits(u), bits(oracle))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_effective_unitary_matches_per_column_runs(self, block_amps, n):
        c = random_unitary_circuit(n, seed=50 + n)
        rng = np.random.default_rng(60 + n)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        helpers = {(4, 1): h / np.linalg.norm(h)}
        data = (n - 1, 0, 3)  # non-adjacent, in permuted order
        assert (sim._block_size(n, 8) < 8) == (block_amps == 1 << 8)
        m, leak = effective_unitary(c, data, helpers)
        cols = [helper_oracle(c, data, helpers, e) for e in np.eye(8, dtype=np.complex128)]
        np.testing.assert_array_equal(bits(m), bits(np.stack([v for v, _ in cols], axis=1)))
        assert leak == max(lk for _, lk in cols)  # positive floats: == is bitwise
        assert leak > 1e-3  # a random circuit does not return its helpers

    @pytest.mark.parametrize("n", [6, 7])
    def test_single_data_qubit_matches_per_column_runs(self, n):
        # both columns in one block: projecting a row back must not depend
        # on how many rows share the block
        c = random_unitary_circuit(n, seed=80 + n)
        rng = np.random.default_rng(90 + n)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        helpers = {(0, 4, 5): h / np.linalg.norm(h)}
        assert sim._block_size(n, 2) == 2
        m, leak = effective_unitary(c, (2,), helpers)
        cols = [helper_oracle(c, (2,), helpers, e) for e in np.eye(2, dtype=np.complex128)]
        np.testing.assert_array_equal(bits(m), bits(np.stack([v for v, _ in cols], axis=1)))
        assert leak == max(lk for _, lk in cols)

    def test_leakage_is_correctly_rounded(self):
        # up to 2^13 squared parts per column, where numpy's pairwise sum
        # rounds the worst column's leakage to a neighbouring float of fsum's
        n = 12
        rng = np.random.default_rng(n)
        helpers = {(4, 1): unit_vector(rng, 4), (5, 6, 7): unit_vector(rng, 8)}
        c = random_unitary_circuit(n, seed=7 + n, extra=200)
        m, leak = effective_unitary(c, (0, 2), helpers)
        cols = [helper_oracle(c, (0, 2), helpers, e) for e in np.eye(4, dtype=np.complex128)]
        np.testing.assert_array_equal(bits(m), bits(np.stack([v for v, _ in cols], axis=1)))
        assert leak == max(lk for _, lk in cols)


PHASE_PERMUTATION_KINDS = (
    core.X, core.Z, core.S, core.SDG, core.T, core.TDG, core.RZ, core.CNOT, core.TOFFOLI, core.CRZ)
# the kinds that fit on 1 and 2 qubits
SMALL_KINDS = {
    1: (core.X, core.Z, core.S, core.SDG, core.T, core.TDG, core.RZ),
    2: (core.X, core.Z, core.S, core.SDG, core.T, core.TDG, core.RZ, core.CNOT, core.CRZ),
}


def unit_vector(rng, size):
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def block_run(circuit, rows):
    """The kernels on every row at once: one state whose row index sits on
    the bits above the circuit's, as the block path lays it out."""
    n = circuit.n_qubits + len(rows).bit_length() - 1
    return dense_run(core.Circuit(n, circuit.layers), np.ravel(rows)).reshape(len(rows), -1)


class TestPhasePermutation:
    """Circuits of X, CNOT, Toffoli and diagonal gates take the basis-state
    evaluator in the whole-matrix checks.  Every output must equal, bit for
    bit, what the gate-by-gate kernel run (reference.dense_run) gives,
    signed zeros included; on 1 or 2 qubits, what it gives on all columns
    at once (block_run), as the block path did before the evaluator."""

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_to_unitary_matches_dense_runs(self, n):
        c = random_unitary_circuit(n, seed=100 + n, kinds=PHASE_PERMUTATION_KINDS)
        assert sim._is_phase_permutation(c)
        dim = 1 << n
        oracle = np.stack([dense_run(c, np.eye(1, dim, j)[0]) for j in range(dim)], axis=1)
        np.testing.assert_array_equal(bits(to_unitary(c)), bits(oracle))

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_to_unitary_matches_block_run(self, n):
        # on 1 or 2 qubits a run() of one column multiplies single
        # amplitudes, which numpy rounds differently; the block path runs
        # every column at once, and the evaluator must match that
        c = random_unitary_circuit(n, seed=190 + n, kinds=SMALL_KINDS[n])
        dim = 1 << n
        np.testing.assert_array_equal(bits(to_unitary(c)), bits(block_run(c, np.eye(dim, dtype=np.complex128)).T))

    def test_small_effective_unitary_matches_block_run(self):
        c = random_unitary_circuit(1, seed=193, kinds=SMALL_KINDS[1])
        m, leak = effective_unitary(c, (0,))
        np.testing.assert_array_equal(bits(m), bits(block_run(c, np.eye(2, dtype=np.complex128)).T))
        assert leak == 0.0
        c = random_unitary_circuit(2, seed=194, kinds=SMALL_KINDS[2])
        helpers = {(0,): unit_vector(np.random.default_rng(195), 2)}
        basis = np.eye(2, dtype=np.complex128)
        rows = block_run(c, [product_state(2, [((1,), e), *helpers.items()]).amps for e in basis])
        cols = [helper_oracle(c, (1,), helpers, e, after=row) for e, row in zip(basis, rows)]
        m, leak = effective_unitary(c, (1,), helpers)
        np.testing.assert_array_equal(bits(m), bits(np.stack([v for v, _ in cols], axis=1)))
        assert leak == max(lk for _, lk in cols)

    def test_zero_angles_match_dense_runs(self):
        # RZ(0) has the entry exactly 1, which the kernel skips; multiplying
        # by it would clear the sign of some zeros.  CRZ(0) is multiplied.
        c = random_unitary_circuit(7, seed=170, kinds=PHASE_PERMUTATION_KINDS)
        gates = []
        for i, g in enumerate(c.gates()):
            gates += [g, rz(0.0, i % 7), crz(0.0, i % 7, (i + 3) % 7)]
        c = sequential_circuit(7, gates)
        oracle = np.stack([dense_run(c, np.eye(1, 128, j)[0]) for j in range(128)], axis=1)
        np.testing.assert_array_equal(bits(to_unitary(c)), bits(oracle))

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("superposed", [False, True], ids=["basis-helpers", "superposed-helper"])
    def test_effective_unitary_matches_dense_runs(self, n, superposed):
        c = random_unitary_circuit(n, seed=110 + n, kinds=PHASE_PERMUTATION_KINDS)
        rng = np.random.default_rng(120 + n)
        if superposed:
            helpers = {(4, 1): unit_vector(rng, 4)}
        else:
            helpers = {(4, 1): np.eye(4, dtype=np.complex128)[2], (2,): np.array([0.0, 1.0])}
        data = (n - 1, 0, 3)  # non-adjacent, in permuted order
        m, leak = effective_unitary(c, data, helpers)
        cols = [helper_oracle(c, data, helpers, e) for e in np.eye(8, dtype=np.complex128)]
        np.testing.assert_array_equal(bits(m), bits(np.stack([v for v, _ in cols], axis=1)))
        assert leak == max(lk for _, lk in cols)  # positive floats: == is bitwise

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_one_element_selections_match_dense_runs(self, n):
        # one data qubit and |0> helpers list two inputs, so a diagonal gate
        # often selects one of them: that product must round as the
        # kernels' longer selections do
        c = random_unitary_circuit(n, seed=200, kinds=PHASE_PERMUTATION_KINDS)
        m, leak = effective_unitary(c, (1,))
        cols = [helper_oracle(c, (1,), {}, e) for e in np.eye(2, dtype=np.complex128)]
        np.testing.assert_array_equal(bits(m), bits(np.stack([v for v, _ in cols], axis=1)))
        assert leak == max(lk for _, lk in cols)

    def test_effective_unitary_on_every_qubit_matches_dense_runs(self):
        # no ancillas: the rows reach the matrix without a projection, so
        # the oracle reads the kernel run directly (project_onto multiplies
        # by 1, which clears the sign of some zeros)
        c = random_unitary_circuit(6, seed=130, kinds=PHASE_PERMUTATION_KINDS)
        data = (2, 5, 0, 4, 1, 3)
        m, leak = effective_unitary(c, data)
        # index[j]: the basis index whose bit data[b] is bit b of j
        index = [sum((j >> b & 1) << q for b, q in enumerate(data)) for j in range(64)]
        oracle = np.stack([dense_run(c, np.eye(1, 64, index[j])[0])[index] for j in range(64)], axis=1)
        np.testing.assert_array_equal(bits(m), bits(oracle))
        assert leak == 0.0

    def test_rows_match_dense_runs(self, monkeypatch):
        # the outputs the helpers are projected from: each input's are its
        # dense run's nonzero entries, bit for bit.  The phase-permutation
        # circuit comes in one batch; the other, with H and Y, in a block
        # of rows per batch.
        monkeypatch.setattr(sim, "_BLOCK_AMPS", 1 << 9)
        rng = np.random.default_rng(181)
        inputs = [[((6, 2), unit_vector(rng, 4)), ((0,), unit_vector(rng, 2))] for _ in range(4)]
        for c, batches in ((random_unitary_circuit(8, seed=180, kinds=PHASE_PERMUTATION_KINDS), 1),
                           (random_unitary_circuit(8, seed=182), 2)):
            idx, amps = map(np.stack, zip(*(sim._support(8, items) for items in inputs)))
            outputs = list(sim._outputs(c, idx, amps))
            assert len(outputs) == batches
            col, index, amp = map(np.concatenate, zip(*outputs))
            for r, items in enumerate(inputs):
                want = dense_run(c, product_state(8, items).amps)
                mine = np.argsort(index[col == r])
                np.testing.assert_array_equal(index[col == r][mine], np.flatnonzero(want))
                np.testing.assert_array_equal(bits(amp[col == r][mine]), bits(want[want != 0]))

    def test_potential_step_matches_dense_runs(self):
        constants = firstq.PhysicalConstants(charges=(1.3, -0.7), masses=(1.0, 1.0), dt=0.21)
        c, lay = firstq.build_potential_phase_circuit(2, 4, constants)
        assert sim._is_phase_permutation(c)
        data = lay.x1 + lay.x2
        m, leak = effective_unitary(c, data)
        cols = [helper_oracle(c, data, {}, e) for e in np.eye(1 << len(data), dtype=np.complex128)]
        np.testing.assert_array_equal(bits(m), bits(np.stack([v for v, _ in cols], axis=1)))
        assert leak == max(lk for _, lk in cols) == 0.0  # the workspace returns to |0> exactly

    def test_ripple_adder_matches_dense_runs(self):
        c = kickback.build_adder(kickback.AdderSpec(kickback.RIPPLE_CARRY, 6), 0b100101)
        assert c.n_qubits == 11 and sim._is_phase_permutation(c)
        dim = 1 << c.n_qubits
        oracle = np.stack([dense_run(c, np.eye(1, dim, j)[0]) for j in range(dim)], axis=1)
        np.testing.assert_array_equal(bits(to_unitary(c)), bits(oracle))

    @pytest.mark.parametrize(
        "g", [gate(core.H, 0), gate(core.Y, 1), measure(0, key=0), frame_update(1, "X")],
        ids=["H", "Y", "MEASURE", "FRAME"])
    def test_other_gates_are_rejected(self, g):
        c = sequential_circuit(2, [cnot(0, 1), g])
        assert not sim._is_phase_permutation(c)
        with pytest.raises(SimulationError):
            sim._permute_phases(c, sim._planes(2, np.arange(4)), np.ones(4, dtype=np.complex128))

    def test_wide_circuit_matches_integer_reference(self):
        # bit-planes hold circuits wider than a 64-bit basis index
        n, count = 70, 500
        rng = np.random.default_rng(160)
        gates = []
        for kind in rng.choice([core.X, core.CNOT, core.TOFFOLI], 400):
            qs = [int(q) for q in rng.permutation(n)]
            gates.append(gate(kind, qs[0]) if kind == core.X else cnot(*qs[:2]) if kind == core.CNOT
                         else toffoli(*qs[:3]))
        c = sequential_circuit(n, gates)
        inputs = [int(rng.integers(1 << 35)) << 35 | int(rng.integers(1 << 35)) for _ in range(count)]
        planes = np.array([[v >> q & 1 for v in inputs] for q in range(n)], dtype=bool)
        planes, amps = sim._permute_phases(c, planes, np.ones(count, dtype=np.complex128))
        want = []
        for v in inputs:
            for g in c.gates():
                *controls, target = g.qubits
                if all(v >> q & 1 for q in controls):
                    v ^= 1 << target
            want.append(v)
        assert max(want).bit_length() > 64
        assert [sum(int(b) << q for q, b in enumerate(planes[:, i])) for i in range(count)] == want
        np.testing.assert_array_equal(amps, 1.0)


PERMUTATION_KINDS = (core.X, core.CNOT, core.TOFFOLI)
KERNELS = ("apply_1q", "apply_diag_1q", "apply_cnot", "apply_toffoli", "apply_phase_on_ones", "prob_one", "collapse")


def forbid(monkeypatch, module, names):
    """Make each named function of module raise when called."""
    def boom(*args, **kwargs):
        raise AssertionError("called a function this run must not reach")
    for name in names:
        monkeypatch.setattr(module, name, boom)


def sparse_inputs(n, rng):
    """Inputs with at most 2^(n-2) listed amplitudes: basis states, product
    blocks on a few qubits, and a scattered state holding -0 entries."""
    dim = 1 << n
    inputs = [StateVector.basis(n, int(j)) for j in rng.choice(dim, 3, replace=False)]
    qs = [int(q) for q in rng.permutation(n)]
    blocks = [(tuple(qs[:2]), unit_vector(rng, 4))] if n >= 4 else []
    if n != 4:
        blocks.append(((qs[-1],), unit_vector(rng, 2)))
    inputs.append(product_state(n, blocks))
    amps = np.zeros(dim, dtype=np.complex128)
    pos = rng.choice(dim, dim >> 2, replace=False)
    amps[pos] = unit_vector(rng, len(pos))
    signed_zeros = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    amps[pos[:3]] = signed_zeros[: len(pos[:3])]
    inputs.append(StateVector(n, amps))
    return inputs


class TestSparseRun:
    """run() evaluates an X/CNOT/Toffoli circuit on the support of a sparse
    input; every other run takes the kernels.  The result must be bit for
    bit the kernels' (reference.dense_run), signed zeros included."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_dense_runs(self, n, monkeypatch):
        c = random_unitary_circuit(n, seed=200 + n, kinds=PERMUTATION_KINDS)
        inputs = sparse_inputs(n, np.random.default_rng(210 + n))
        kept = [bits(s.amps).copy() for s in inputs]
        oracle = [dense_run(c, s.amps) for s in inputs] + [dense_run(c, StateVector.zero(n).amps)]
        forbid(monkeypatch, kernels, KERNELS)  # so each run below takes the route
        got = [run(c, s) for s in inputs] + [run(c)]
        for res, want in zip(got, oracle):
            np.testing.assert_array_equal(bits(res.state.amps), bits(want))
            assert res.record == {} and res.qubit_outcomes == {} and res.frame == Pauli()
        for s, before in zip(inputs, kept):
            np.testing.assert_array_equal(bits(s.amps), before)  # the input is left alone

    def test_consumes_no_randomness(self):
        c = random_unitary_circuit(6, seed=220, kinds=PERMUTATION_KINDS)
        rng = np.random.default_rng(221)
        before = rng.bit_generator.state
        run(c, StateVector.basis(6, 5), rng=rng)
        assert rng.bit_generator.state == before

    def test_support_rule_boundary(self, monkeypatch):
        # dim / _SPARSE_SHARE listed amplitudes take the route; one more does not
        n = 8
        dim = 1 << n
        c = random_unitary_circuit(n, seed=230, kinds=PERMUTATION_KINDS)
        amps = np.zeros(dim, dtype=np.complex128)
        amps[: dim // sim._SPARSE_SHARE] = -0.0
        want = dense_run(c, amps)
        with monkeypatch.context() as m:
            forbid(m, kernels, KERNELS)
            np.testing.assert_array_equal(bits(run(c, StateVector(n, amps)).state.amps), bits(want))
        amps[dim // sim._SPARSE_SHARE] = 1.0
        want = dense_run(c, amps)
        forbid(monkeypatch, sim, ["_permute_phases"])
        np.testing.assert_array_equal(bits(run(c, StateVector(n, amps)).state.amps), bits(want))

    @pytest.mark.parametrize("n", [3, 9])
    def test_full_support_takes_the_kernels(self, n, monkeypatch):
        c = random_unitary_circuit(n, seed=240 + n, kinds=PERMUTATION_KINDS)
        psi = random_state(n, np.random.default_rng(250 + n))
        want = dense_run(c, psi.amps)
        forbid(monkeypatch, sim, ["_permute_phases"])
        np.testing.assert_array_equal(bits(run(c, psi).state.amps), bits(want))

    @pytest.mark.parametrize("g", [gate(core.H, 1), gate(core.T, 2), crz(0.3, 0, 2)], ids=["H", "T", "CRZ"])
    def test_other_gates_take_the_kernels(self, g, monkeypatch):
        c = sequential_circuit(8, [*random_unitary_circuit(8, seed=260, kinds=PERMUTATION_KINDS).gates(), g])
        psi = StateVector.basis(8, 0b10110)
        forbid(monkeypatch, sim, ["_permute_phases"])
        res = run(c, psi, seed=261)
        assert res.state.amps.any()
        np.testing.assert_array_equal(bits(res.state.amps), bits(dense_run(c, psi.amps)))

    def test_adder_run_allocates_one_state(self):
        # the 21-qubit adder on 2^11 listed amplitudes: the output state and
        # the support, not a copy of the input nor X temporaries
        c = kickback.build_adder(kickback.AdderSpec(kickback.RIPPLE_CARRY, 11), 0b10110010111)
        assert c.n_qubits == 21
        amps = np.zeros(1 << 21, dtype=np.complex128)
        amps[: 1 << 11] = unit_vector(np.random.default_rng(270), 1 << 11)
        psi = StateVector(21, amps)
        tracemalloc.start()
        try:
            out = run(c, psi).state.amps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * amps.nbytes, peak
        assert np.count_nonzero(out) == 1 << 11


def teleport_circuit(include_z_fix=True):
    b = CircuitBuilder(3)
    b.append(gate(core.H, 1))
    b.append(cnot(1, 2))
    b.append(cnot(0, 1))
    b.append(gate(core.H, 0))
    b.append(measure(0, key=0))
    b.append(measure(1, key=1))
    b.append(frame_update(2, "X", cond=1))
    if include_z_fix:
        b.append(frame_update(2, "Z", cond=0))
    return b.build()


class TestChannelEqual:
    def test_teleportation_is_identity(self):
        ident = core.Circuit(1, [])
        assert channel_equal(teleport_circuit(), ident, 1, out_a=(2,), out_b=(0,))

    def test_broken_teleportation_detected(self):
        ident = core.Circuit(1, [])
        assert not channel_equal(teleport_circuit(include_z_fix=False), ident, 1, out_a=(2,), out_b=(0,))

    def test_unitary_circuits_compare_directly(self):
        a = sequential_circuit(1, [gate(core.H, 0), gate(core.S, 0), gate(core.H, 0)])
        b = sequential_circuit(1, [gate(core.H, 0), gate(core.S, 0), gate(core.H, 0)])
        assert channel_equal(a, b, 1)

    def test_different_unitaries_detected(self):
        a = sequential_circuit(1, [gate(core.T, 0)])
        b = sequential_circuit(1, [gate(core.S, 0)])
        assert not channel_equal(a, b, 1)

    def test_listed_input_matches_the_scanned_one(self, monkeypatch):
        # each trial enters the route from product_state's lists, not from a
        # dense input that run() scans back; its bytes are the scanned run's,
        # and a dense run's where the route does not apply
        cases = [(teleport_circuit(), 1, (2,)), (random_unitary_circuit(6, seed=390), 2, (0, 1))]
        for span in (3, 5, 8):
            for kind in (secondq.LADDER_TELEPORTED, secondq.LADDER_DIRECT):
                cases.append((secondq.build_jw_ladder(span, kind), span, secondq.ladder_output_map(span, kind)))
        wants = []
        for i, (c, n_data, out_map) in enumerate(cases):
            psi = random_state(n_data, np.random.default_rng(400 + i))
            res = run(c, product_state(c.n_qubits, {tuple(range(n_data)): psi.amps}), rng=np.random.default_rng(i))
            fixed = sum(res.qubit_outcomes.get(q, 0) << q for q in range(c.n_qubits) if q not in out_map)
            wants.append((psi, apply_frame_by_factors(res.frame, res.state).amps[sim._spread(out_map) | fixed]))
        forbid(monkeypatch, sim._Support, ["enter"])  # the scan
        for i, ((c, n_data, out_map), (psi, want)) in enumerate(zip(cases, wants)):
            got = sim._run_and_extract(c, psi, out_map, np.random.default_rng(i))
            if i == 1:
                assert got is None  # an entangled leftover
            else:
                np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("n", [5, 7, 10])
    def test_listed_support_is_the_scan(self, n):
        # the same indices, in the same ascending order, with the same bytes:
        # an amplitude with a -0 part listed and +0 dropped, as the scan of a
        # product_state finds them
        rng = np.random.default_rng(410 + n)
        c = random_measured_circuit(n, 420 + n)
        blocks = {(n - 1, 0): unit_vector(rng, 4), (2,): unit_vector(rng, 2)}
        blocks[n - 1, 0][1], blocks[2,][0] = complex(-0.0, 0.0), 0.0
        idx, amp = sim._support(n, blocks)
        scanned = sim._Support.enter(c, product_state(n, blocks))
        listed = sim._Support.listed(c, idx, amp)
        np.testing.assert_array_equal(listed.idx, scanned.idx)
        np.testing.assert_array_equal(bits(listed.amps), bits(scanned.amps))
        assert len(listed.idx) < len(idx)  # products of +0 whose bytes are all zero are dropped
        assert sim._Support.listed(random_unitary_circuit(n, seed=n), idx, amp) is None  # takes the kernels

    def test_entangled_leftover_rejected(self):
        # a CNOT into an unmeasured ancilla is not a clean 1-qubit channel
        a = sequential_circuit(2, [cnot(0, 1)])
        ident = core.Circuit(1, [])
        assert not channel_equal(a, ident, 1, out_a=(0,), out_b=(0,))


MEASURED_KINDS = (
    core.H, core.Y, core.S, core.T, core.RZ, core.CRZ, core.CNOT, core.TOFFOLI, core.MEASURE, core.FRAME)


def random_measured_circuit(n, seed, extra=50):
    """Seeded circuit on n qubits holding each of MEASURED_KINDS at least once.

    A FRAME names X or Z and is conditioned on a key measured before it,
    or on none.  A frame can fail to cross a later gate, so callers pass
    the circuit through the oracle and take the next seed when it raises.
    """
    rng = np.random.default_rng(seed)
    kinds = list(MEASURED_KINDS)
    kinds += [kinds[i] for i in rng.integers(0, len(kinds), extra)]
    gates, keys = [], []
    for kind in rng.permutation(np.array(kinds, dtype=object)):
        qs = [int(q) for q in rng.permutation(n)]
        if kind in (core.H, core.Y, core.S, core.T):
            gates.append(gate(kind, qs[0]))
        elif kind == core.RZ:
            gates.append(rz(rng.uniform(-np.pi, np.pi), qs[0]))
        elif kind == core.CRZ:
            gates.append(crz(rng.uniform(-np.pi, np.pi), qs[0], qs[1]))
        elif kind == core.CNOT:
            gates.append(cnot(qs[0], qs[1]))
        elif kind == core.TOFFOLI:
            gates.append(toffoli(*qs[:3]))
        elif kind == core.MEASURE:
            keys.append(len(keys))
            gates.append(measure(qs[0], key=keys[-1]))
        else:
            cond = keys[int(rng.integers(len(keys)))] if keys and rng.random() < 0.8 else None
            gates.append(frame_update(qs[0], "XZ"[int(rng.integers(2))], cond=cond))
    return sequential_circuit(n, gates)


def assert_same_run(got, want):
    """The route's run against the kernels': outcomes and frame exactly,
    amplitudes up to rounding."""
    assert got.record == want.record
    assert got.qubit_outcomes == want.qubit_outcomes
    assert got.frame == want.frame
    np.testing.assert_allclose(got.state.amps, want.state.amps, rtol=0, atol=1e-14)


def teleported_ladder_input(span, rng):
    c = secondq.build_jw_ladder(span, secondq.LADDER_TELEPORTED)
    amps = np.zeros(1 << c.n_qubits, dtype=np.complex128)
    amps[: 1 << span] = unit_vector(rng, 1 << span)
    return c, StateVector(c.n_qubits, amps)


class TestSupportRun:
    """run() keeps a circuit with a MEASURE on its state's support while at
    most 2^n / _SPARSE_SHARE amplitudes are listed.  Its record, outcomes
    and frame must be those of the kernel loop (reference.dense_measured_run),
    its amplitudes within 1e-14 of that loop's, and no kernel runs until
    the support outgrows the share."""

    @pytest.mark.parametrize("seed", range(6))
    def test_teleportation_matches_kernel_run(self, seed, monkeypatch):
        # a 1-qubit input on 3 qubits outgrows a quarter at the first H, so
        # every listed amplitude is allowed here
        monkeypatch.setattr(sim, "_SPARSE_SHARE", 1)
        c = teleport_circuit()
        psi = product_state(3, {(0,): unit_vector(np.random.default_rng(290 + seed), 2)})
        kept = bits(psi.amps).copy()
        want = dense_measured_run(c, psi.amps, 300 + seed)
        forbid(monkeypatch, kernels, KERNELS)
        rng = np.random.default_rng(300 + seed)
        assert_same_run(run(c, psi, rng=rng), want)
        # one uniform per MEASURE, as the kernel loop draws them
        ref = np.random.default_rng(300 + seed)
        ref.random(2)
        assert rng.random() == ref.random()
        np.testing.assert_array_equal(bits(psi.amps), kept)  # the input is left alone

    @pytest.mark.parametrize("span", range(3, 9))
    def test_teleported_ladders_match_kernel_runs(self, span, monkeypatch):
        c, psi = teleported_ladder_input(span, np.random.default_rng(310 + span))
        if span < 5:
            # the Bell pairs of spans 3 and 4 take more than a quarter of
            # their 2^5 and 2^8 amplitudes; from span 5 the default holds
            monkeypatch.setattr(sim, "_SPARSE_SHARE", 1)
        wants = [dense_measured_run(c, psi.amps, seed) for seed in (320, 321)]
        forbid(monkeypatch, kernels, KERNELS)
        for seed, want in zip((320, 321), wants):
            assert_same_run(run(c, psi, seed=seed), want)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_random_measured_circuits_match_kernel_runs(self, n, monkeypatch):
        # every listed amplitude is allowed, so the route takes every gate
        monkeypatch.setattr(sim, "_SPARSE_SHARE", 1)
        rng = np.random.default_rng(330 + n)
        cases = []
        for k, psi in enumerate(sparse_inputs(n, rng)):
            for seed in range(1000 * n + 100 * k, 1000 * n + 100 * k + 50):
                c = random_measured_circuit(n, seed)
                try:
                    cases.append((c, psi, seed, dense_measured_run(c, psi.amps, seed)))
                    break
                except SimulationError:  # a frame that cannot cross a later gate
                    continue
        assert len(cases) == 5
        forbid(monkeypatch, kernels, KERNELS)
        for c, psi, seed, want in cases:
            assert_same_run(run(c, psi, seed=seed), want)

    def test_measured_permutation_takes_the_route(self, monkeypatch):
        # a MEASURE sends an X/CNOT/Toffoli circuit to the route, with the
        # X/CNOT/Toffoli stretch on bit-planes: the case TestSparseRun pins
        # for H, T and CRZ, which take the kernels
        c = sequential_circuit(8, [*random_unitary_circuit(8, seed=260, kinds=PERMUTATION_KINDS).gates(),
                                   measure(1, key=0)])
        psi = StateVector.basis(8, 0b10110)
        want = dense_measured_run(c, psi.amps, 261)
        forbid(monkeypatch, kernels, KERNELS)
        res = run(c, psi, seed=261)
        assert_same_run(res, want)
        np.testing.assert_array_equal(bits(res.state.amps), bits(want.state.amps))

    def test_outgrown_support_hands_off_to_the_kernels(self, monkeypatch):
        # the head takes 2^3 listed amplitudes of 2^9 to 2^7, a quarter; the
        # tail's H doubles them past it, and the kernels take the rest
        n = 9
        rng = np.random.default_rng(340)
        psi = product_state(n, {(0, 4, 7): unit_vector(rng, 8)})
        head = [gate(core.H, 1), cnot(1, 2), gate(core.T, 2), gate(core.H, 3), measure(2, key=0),
                gate(core.H, 5), gate(core.H, 6), gate(core.Y, 6), crz(0.4, 5, 6), frame_update(8, "X", cond=0),
                gate(core.H, 2)]
        tail = [gate(core.H, 8), measure(8, key=1), cnot(0, 8), rz(0.3, 8), measure(5, key=2)]
        c = sequential_circuit(n, head + tail)
        want = dense_measured_run(c, psi.amps, 341)
        calls = []
        for name in KERNELS:
            kernel = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a))
        handed = []
        scatter = sim._Support.scatter
        monkeypatch.setattr(sim._Support, "scatter", lambda self: handed.append(len(self.idx)) or scatter(self))
        assert_same_run(run(c, psi, seed=341), want)
        # scattered once, at 2^8 listed amplitudes; the kernels ran only the
        # gates after the tail's H, and of those the CNOT and the RZ on its
        # moved target stayed off them (sim._Relabel)
        assert handed == [1 << 8]
        assert calls == ["prob_one", "collapse", "prob_one", "collapse"]

    def test_ladder_run_peaks_below_the_kernel_loop(self):
        # the span-8 teleported ladder (20 qubits) on 2^8 listed amplitudes:
        # the output state and the support.  The kernel loop, which copies
        # the input and sums each measured half into temporaries, peaked at
        # 1.26-1.28x the state's bytes.
        c, psi = teleported_ladder_input(8, np.random.default_rng(350))
        assert c.n_qubits == 20
        tracemalloc.start()
        try:
            out = run(c, psi, seed=351).state.amps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * psi.amps.nbytes, peak
        assert np.count_nonzero(out) == 1 << 8


def relabel_circuit(n, seed, measured=False, rounds=40):
    """Seeded circuit that moves a wire and then acts on it.

    Each round puts a CNOT into a random wire q, or an X on it, then a gate
    of a random kind with q among its wires: every unitary kind, and a
    MEASURE if measured, comes first once each.  A quarter of the rounds
    then repeat their X or CNOT, so the map can return to the identity.
    """
    rng = np.random.default_rng(seed)
    kinds = [*UNITARY_1Q, core.RZ, core.CNOT, core.TOFFOLI, core.CRZ, *([core.MEASURE] if measured else [])]
    gates = []
    for r in range(rounds):
        q, a, b = (int(w) for w in rng.permutation(n)[:3])
        move = cnot(a, q) if rng.random() < 0.7 else gate(core.X, q)
        kind = kinds[r] if r < len(kinds) else kinds[int(rng.integers(len(kinds)))]
        if kind in UNITARY_1Q:
            g = gate(kind, q)
        elif kind == core.RZ:
            g = rz(rng.uniform(-np.pi, np.pi), q)
        elif kind == core.CNOT:
            g = cnot(q, b) if rng.random() < 0.5 else cnot(b, q)
        elif kind == core.TOFFOLI:
            g = toffoli(*[int(w) for w in rng.permutation([q, a, b])])
        elif kind == core.CRZ:
            g = crz(rng.uniform(-np.pi, np.pi), q, b)
        else:
            g = measure(q, key=r)
        gates += [move, g] + ([move] if rng.random() < 0.25 else [])
    return sequential_circuit(n, gates)


def dense_input(n, rng):
    """A random state on n qubits holding -0 entries: the kernels take it."""
    psi = random_state(n, rng)
    psi.amps[rng.choice(1 << n, 3, replace=False)] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    return psi


@pytest.fixture
def relabel_paths(monkeypatch):
    """Counts of the diagonals run on a moved wire and of the gathers."""
    seen = {"diagonal": 0, "gather": 0}
    diagonal, flushed = sim._Relabel._diagonal, sim._Relabel.flushed

    def count_diagonal(self, *args):
        seen["diagonal"] += 1
        return diagonal(self, *args)

    def count_flushed(self):
        seen["gather"] += self._moved() != 0
        return flushed(self)

    monkeypatch.setattr(sim._Relabel, "_diagonal", count_diagonal)
    monkeypatch.setattr(sim._Relabel, "flushed", count_flushed)
    return seen


# sha256 of every run() on the (circuit, amplitudes) cases pickled on stdin
_RUN_DIGEST = """
import hashlib, pickle, sys
from ftqc import sim

digest = hashlib.sha256()
for circuit, amps in pickle.load(sys.stdin.buffer):
    res = sim.run(circuit, sim.StateVector(circuit.n_qubits, amps), seed=5)
    digest.update(res.state.amps.tobytes())
    digest.update(repr(sorted(res.record.items())).encode())
print(digest.hexdigest())
"""


class TestRelabel:
    """Dense runs hold X and CNOT as a pending GF(2) map on basis indices
    (sim._Relabel) instead of moving amplitudes.  Their amplitudes, records
    and frames must be bit for bit those of the gate-by-gate kernel loop
    (reference.dense_run and dense_measured_run), signed zeros included."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_unitary_runs_match_the_kernel_loop(self, n, relabel_paths):
        rng = np.random.default_rng(500 + n)
        for seed in (510 + n, 530 + n):
            c = relabel_circuit(n, seed)
            psi = dense_input(n, rng)
            kept = bits(psi.amps).copy()
            res = run(c, psi)
            np.testing.assert_array_equal(bits(res.state.amps), bits(dense_run(c, psi.amps)))
            assert res.frame == Pauli() and res.record == {}
            np.testing.assert_array_equal(bits(psi.amps), kept)  # the input is left alone
        assert relabel_paths["diagonal"] and relabel_paths["gather"]

    @pytest.mark.parametrize("n", range(3, 13))
    def test_measured_runs_match_the_kernel_loop(self, n, relabel_paths):
        rng = np.random.default_rng(550 + n)
        for seed in (560 + n, 580 + n):
            c = relabel_circuit(n, seed, measured=True)
            psi = dense_input(n, rng)
            want = dense_measured_run(c, psi.amps, seed)
            got = run(c, psi, seed=seed)
            assert got.record == want.record and got.qubit_outcomes == want.qubit_outcomes
            assert got.frame == want.frame
            np.testing.assert_array_equal(bits(got.state.amps), bits(want.state.amps))
        assert relabel_paths["diagonal"] and relabel_paths["gather"]

    @pytest.mark.parametrize("block_amps", [1 << 8, 1 << 16], ids=["several-blocks", "one-block"])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_to_unitary_matches_per_column_runs(self, n, block_amps, monkeypatch):
        # each block of columns is one state whose top bits no gate touches
        monkeypatch.setattr(sim, "_BLOCK_AMPS", block_amps)
        c = relabel_circuit(n, 600 + n)
        u = to_unitary(c)
        for j in range(1 << n):
            np.testing.assert_array_equal(bits(u[:, j]), bits(dense_run(c, StateVector.basis(n, j).amps)))

    def test_mirrored_ladders_move_no_amplitude(self, relabel_paths, monkeypatch):
        # a two-body excitation on 10 orbitals: each Pauli string's CNOT
        # ladder is mirrored back to the identity, and its rotation lands on
        # the ladder's parity wire, so no CNOT kernel runs and nothing is gathered
        c = secondq.build_excitation(secondq.TwoBodyTerm(0, 3, 6, 9, 0.7), 0.4, n_orbitals=10)
        psi = dense_input(10, np.random.default_rng(620))
        want = dense_run(c, psi.amps)
        forbid(monkeypatch, kernels, ["apply_cnot"])
        np.testing.assert_array_equal(bits(run(c, psi).state.amps), bits(want))
        assert relabel_paths == {"diagonal": 8, "gather": 0}

    def test_gather_holds_two_states(self, relabel_paths):
        # run()'s copy of the input and the gathered copy, with no
        # state-sized index beside them (that would be half a state more)
        n = 18
        c = sequential_circuit(n, [cnot(0, 17), gate(core.X, 5), cnot(17, 9), gate(core.H, 9)])
        psi = dense_input(n, np.random.default_rng(650))
        want = dense_run(c, psi.amps)
        tracemalloc.start()
        try:
            out = run(c, psi).state.amps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert relabel_paths["gather"] == 1
        assert peak < 2.2 * psi.amps.nbytes, peak
        np.testing.assert_array_equal(bits(out), bits(want))

    def test_runs_are_byte_identical_across_blas_threads(self):
        rng = np.random.default_rng(630)
        cases = [(relabel_circuit(n, 640 + n, measured=measured), dense_input(n, rng).amps)
                 for n in (10, 12) for measured in (False, True)]
        digests = digests_across_blas_threads(_RUN_DIGEST, pickle.dumps(cases))
        assert len(digests) == 1, digests


class TestToUnitary:
    def test_rejects_measurement(self):
        c = sequential_circuit(1, [measure(0, key=0)])
        with pytest.raises(ValueError):
            to_unitary(c)

    def test_hh_is_identity(self):
        c = sequential_circuit(1, [gate(core.H, 0), gate(core.H, 0)])
        np.testing.assert_allclose(to_unitary(c), np.eye(2), atol=1e-15)

    def test_ss_is_z(self):
        c = sequential_circuit(1, [gate(core.S, 0), gate(core.S, 0)])
        np.testing.assert_allclose(to_unitary(c), matrix_of(gate(core.Z, 0)), atol=1e-15)

    def test_cap(self):
        c = core.Circuit(13, [])
        with pytest.raises(SimulationError):
            to_unitary(c)


class TestRandomState:
    def test_normalized_and_deterministic(self):
        s1 = random_state(4, np.random.default_rng(3))
        s2 = random_state(4, np.random.default_rng(3))
        assert abs(np.linalg.norm(s1.amps) - 1.0) < 1e-12
        np.testing.assert_array_equal(s1.amps, s2.amps)
