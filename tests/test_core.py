"""Gate/circuit layer: construction rules, layering, resource accounting,
the phase-invariant distance, and the plain-text circuit format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    decompose_toffolis,
    is_unitary,
    matrix_of,
    packed_circuit,
    sequential_circuit,
    toffoli_expansion,
)

from ftqc import core, par, secondq, synth
from ftqc.core import (
    ADJOINT,
    CNOT,
    RZ,
    SDG,
    TDG,
    TOFFOLI,
    Circuit,
    CircuitBuilder,
    GATE_MATRICES,
    Gate,
    H,
    Pauli,
    ResourceProfile,
    S,
    T,
    X,
    Y,
    Z,
    circuit_from_text,
    circuit_to_text,
    cnot,
    crz,
    dist,
    frame_update,
    gate,
    measure,
    rz,
    rz_matrix,
    toffoli,
)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


class TestGateConstruction:
    def test_arities_enforced(self):
        with pytest.raises(ValueError):
            gate(H, 0, 1)
        with pytest.raises(ValueError):
            gate(CNOT, 0)
        with pytest.raises(ValueError):
            gate(TOFFOLI, 0, 1)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            cnot(2, 2)
        with pytest.raises(ValueError):
            toffoli(0, 1, 0)

    def test_negative_qubits_rejected(self):
        with pytest.raises(ValueError):
            gate(X, -1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("RX", (0,))

    def test_angle_only_on_rotations(self):
        assert rz(0.5, 0).angle == 0.5
        assert crz(0.25, 0, 1).angle == 0.25
        with pytest.raises(ValueError):
            Gate(H, (0,), angle=0.1)
        with pytest.raises(ValueError):
            Gate(RZ, (0,))  # missing angle

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_rotation_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            rz(angle, 0)
        with pytest.raises(ValueError, match="finite"):
            crz(angle, 0, 1)
        with pytest.raises(ValueError, match="line 2: RZ angle must be finite"):
            circuit_from_text(f"qubits 1\nRZ 0@{angle}\n")

    def test_measure_and_frame_attributes(self):
        m = measure(3, key=7)
        assert m.key == 7 and not m.is_unitary
        f = frame_update(1, "X", cond=7)
        assert f.pauli == "X" and f.cond == 7 and not f.is_unitary
        with pytest.raises(ValueError):
            frame_update(0, "Y")  # only X and Z corrections are tracked
        with pytest.raises(ValueError):
            Gate(X, (0,), key=1)
        with pytest.raises(ValueError):
            Gate(X, (0,), cond=1)

    def test_adjoint_table_involution(self):
        for k, adj in ADJOINT.items():
            assert ADJOINT[adj] == k
        assert ADJOINT[T] == TDG and ADJOINT[S] == SDG
        # adjoint is correct at the matrix level
        for k, adj in ADJOINT.items():
            np.testing.assert_allclose(
                matrix_of(gate(k, 0)).conj().T, matrix_of(gate(adj, 0)), atol=1e-15
            )


BAD_EPSILONS = [math.nan, math.inf, -math.inf, 0.0, -1e-3]


class TestAccuracyCheck:
    """One check of an accuracy for every entry point that takes one."""

    ENTRY_POINTS = {
        "check_epsilon": core.check_epsilon,
        "register_bits_for": par.register_bits_for,
        "min_sequence": lambda eps: synth.min_sequence(rz_matrix(0.3), eps),
        **{f"rotation_profile {m}": lambda eps, m=m: secondq.rotation_profile(m, eps) for m in secondq.METHODS},
        "TrotterPlan": lambda eps: secondq.TrotterPlan(dt=0.1, readout_bits=3, method=core.PAR, epsilon_max=eps),
    }

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejects_non_finite_or_non_positive(self, entry, epsilon):
        with pytest.raises(ValueError, match="must be positive and finite"):
            self.ENTRY_POINTS[entry](epsilon)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_accepts_a_finite_positive_accuracy(self, entry):
        self.ENTRY_POINTS[entry](0.1)


class TestResourceProfile:
    a = ResourceProfile(depth=3, t_count=2, total_gates=5, qubits=4)
    b = ResourceProfile(depth=10, t_count=1, total_gates=12, qubits=2)

    def test_in_series(self):
        c = self.a.in_series(self.b)
        assert c == ResourceProfile(13, 3, 17, 4)

    def test_in_parallel(self):
        c = self.a.in_parallel(self.b)
        assert c == ResourceProfile(10, 3, 17, 6)

    def test_times(self):
        assert self.a.times(3) == ResourceProfile(9, 6, 15, 4)
        assert self.a.times(0) == ResourceProfile(0, 0, 0, 4)
        with pytest.raises(ValueError):
            self.a.times(-1)

    def test_with_qubits(self):
        assert self.a.with_qubits(9).qubits == 9
        assert self.a.with_qubits(9).depth == self.a.depth


class TestCircuit:
    def test_layer_disjointness(self):
        with pytest.raises(ValueError):
            Circuit(2, [[gate(H, 0), gate(X, 0)]])
        # disjoint qubits in one layer are fine
        Circuit(2, [[gate(H, 0), gate(X, 1)]])

    def test_qubit_range(self):
        with pytest.raises(ValueError):
            Circuit(2, [[gate(H, 2)]])
        with pytest.raises(ValueError):
            Circuit(0, [])

    def test_duplicate_measure_keys(self):
        with pytest.raises(ValueError):
            Circuit(2, [[measure(0, key=0)], [measure(1, key=0)]])

    def test_cond_requires_earlier_measurement(self):
        with pytest.raises(ValueError):
            Circuit(2, [[frame_update(0, "X", cond=5)]])
        # same layer is too early: the outcome does not exist yet
        with pytest.raises(ValueError):
            Circuit(2, [[measure(0, key=5), frame_update(1, "X", cond=5)]])
        Circuit(2, [[measure(0, key=5)], [frame_update(1, "X", cond=5)]])

    def test_depth_and_counts(self):
        c = Circuit(3, [[gate(H, 0), gate(X, 1)], [cnot(0, 1)], [toffoli(0, 1, 2)]])
        assert c.depth == 3
        p = c.profile()
        assert p == ResourceProfile(depth=3, t_count=7, total_gates=4, qubits=3)

    def test_t_count_sources(self):
        c = sequential_circuit(1, [gate(T, 0), gate(TDG, 0), gate(S, 0)])
        assert c.profile().t_count == 2

    def test_fault_tolerant_flag(self):
        assert sequential_circuit(2, [gate(H, 0), cnot(0, 1)]).fault_tolerant
        assert not sequential_circuit(1, [rz(0.1, 0)]).fault_tolerant
        assert not sequential_circuit(2, [crz(0.1, 0, 1)]).fault_tolerant
        assert sequential_circuit(1, [measure(0, key=0)]).fault_tolerant

    def test_equality(self):
        c1 = sequential_circuit(2, [gate(H, 0)])
        c2 = sequential_circuit(2, [gate(H, 0)])
        c3 = sequential_circuit(2, [gate(H, 1)])
        assert c1 == c2 and c1 != c3


class TestCircuitBuilder:
    def test_asap_packing(self):
        c = packed_circuit(3, [gate(H, 0), gate(H, 1), cnot(0, 1), gate(H, 2)])
        # H0, H1 and H2 all fit in layer 0; the CNOT waits for 0 and 1
        assert c.depth == 2
        assert set(g.qubits[0] for g in c.layers[0] if g.kind == "H") == {0, 1, 2}

    def test_dependency_stacking(self):
        c = packed_circuit(1, [gate(H, 0), gate(T, 0), gate(H, 0)])
        assert c.depth == 3

    def test_barrier(self):
        b = CircuitBuilder(2)
        b.append(gate(H, 0))
        b.barrier()
        b.append(gate(H, 1))
        c = b.build()
        assert c.depth == 2
        assert c.layers[1][0].qubits == (1,)

    def test_conditional_waits_for_measurement(self):
        b = CircuitBuilder(2)
        b.append(measure(0, key=0))
        b.append(frame_update(1, "X", cond=0))
        c = b.build()
        # qubit 1 was free in layer 0, but the condition forces layer 1
        assert c.depth == 2

    def test_frame_updates_take_no_time_slot(self):
        # classical bookkeeping: both corrections of a teleportation-style
        # block land in one layer even though they touch the same qubit
        b = CircuitBuilder(2)
        b.append(measure(0, key=0))
        b.append(frame_update(1, "X", cond=0))
        b.append(frame_update(1, "Z", cond=0))
        c = b.build()
        assert c.depth == 2
        assert [g.kind for g in c.layers[1]] == ["FRAME", "FRAME"]

    def test_frame_fences_later_gates_on_its_qubit(self):
        # a gate appended after a cond-delayed frame may share its layer but
        # must not be hoisted in front of it
        b = CircuitBuilder(2)
        b.append(measure(0, key=0))
        b.append(frame_update(1, "X", cond=0))
        b.append(gate(H, 1))
        c = b.build()
        assert c.depth == 2
        assert [g.kind for g in c.layers[1]] == ["FRAME", "H"]

    def test_conditional_before_measurement_rejected(self):
        b = CircuitBuilder(2)
        with pytest.raises(ValueError):
            b.append(frame_update(1, "X", cond=0))

    def test_sequential_circuit_one_gate_per_layer(self):
        c = sequential_circuit(2, [gate(H, 0), gate(H, 1)])
        assert c.depth == 2


class TestMatrices:
    def test_rz_convention(self):
        m = rz_matrix(0.7)
        assert m[0, 0] == 1.0
        assert abs(m[1, 1] - np.exp(0.7j)) < 1e-15

    def test_crz_phases_only_11(self):
        m = matrix_of(crz(0.7, 0, 1))
        np.testing.assert_allclose(np.diag(m)[:3], [1, 1, 1])
        assert abs(m[3, 3] - np.exp(0.7j)) < 1e-15

    def test_cnot_first_listed_qubit_is_control(self):
        m = matrix_of(cnot(0, 1))
        # gate-local basis: first listed qubit is the high bit, so |10> -> |11>
        v = np.zeros(4)
        v[0b10] = 1.0
        out = m @ v
        assert abs(out[0b11] - 1.0) < 1e-15

    def test_toffoli_flips_only_on_both_controls(self):
        m = matrix_of(toffoli(0, 1, 2))
        v = np.zeros(8)
        v[0b110] = 1.0
        assert abs((m @ v)[0b111] - 1.0) < 1e-15
        v = np.zeros(8)
        v[0b100] = 1.0
        assert abs((m @ v)[0b100] - 1.0) < 1e-15

    def test_all_gate_matrices_unitary(self):
        for k in core.SINGLE_QUBIT_KINDS:
            assert is_unitary(matrix_of(gate(k, 0)))
        assert is_unitary(matrix_of(cnot(0, 1)))
        assert is_unitary(matrix_of(toffoli(0, 1, 2)))
        assert is_unitary(rz_matrix(1.234))

    def test_s_squares_to_z(self):
        s = matrix_of(gate(S, 0))
        np.testing.assert_allclose(s @ s, matrix_of(gate(Z, 0)), atol=1e-15)

    def test_h_squares_to_identity(self):
        h = matrix_of(gate(H, 0))
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)


class TestDist:
    # oracle values computed from the closed form sqrt((d - |tr(U^dag V)|)/d)
    # with |1 + e^{i pi/4}| etc. evaluated in plain math/cmath
    def test_identity_vs_t(self):
        assert abs(dist(np.eye(2), matrix_of(gate(T, 0))) - 0.27589937928294306) < 1e-14

    def test_identity_vs_z(self):
        assert abs(dist(np.eye(2), matrix_of(gate(Z, 0))) - 1.0) < 1e-14

    def test_h_vs_x(self):
        assert abs(dist(matrix_of(gate(H, 0)), matrix_of(gate(X, 0))) - 0.5411961001461969) < 1e-14

    def test_identity_vs_cnot(self):
        assert abs(dist(np.eye(4), matrix_of(cnot(0, 1))) - 0.7071067811865476) < 1e-14

    def test_identity_vs_small_rotation(self):
        assert abs(dist(np.eye(2), rz_matrix(0.3)) - 0.10596660824975837) < 1e-14

    def test_zero_on_self_and_global_phase(self):
        rng = np.random.default_rng(11)
        u = haar_unitary(4, rng)
        # the trace form sqrt((d - |tr U^dag V|)/d) would turn float64
        # rounding in u into sqrt(eps) ~ 1e-8; dist keeps it at eps
        assert dist(u, u) < 1e-14
        assert dist(u, np.exp(0.823j) * u) < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dist(np.eye(2), np.eye(4))
        with pytest.raises(ValueError):
            dist(np.ones((2, 3)), np.ones((2, 3)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_equals_trace_form(self, seed, d, scale):
        # scale 0 pairs two independent Haar unitaries; otherwise
        # v = e^{i phi} u exp(i 10^-scale H), down to distances near 1e-12
        rng = np.random.default_rng(seed)
        u = haar_unitary(d, rng)
        if scale == 0:
            v = haar_unitary(d, rng)
        else:
            e = haar_unitary(d, rng)
            w = (e * np.exp(1j * 10.0**-scale * rng.standard_normal(d))) @ e.conj().T
            v = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * (u @ w)
        ld = np.clongdouble
        overlap = abs(np.sum(u.astype(ld).conj() * v.astype(ld)))
        trace_form = float(np.sqrt(max(np.longdouble(0), (d - overlap) / d)))
        got = dist(u, v)
        if got > 1e-3:
            assert abs(got - trace_form) <= 1e-12
        else:
            # the trace form's own rounding r shows as a gap of r / dist
            assert abs(got - trace_form) * got <= 1e-14

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (haar_unitary(2, rng) for _ in range(3))
        assert dist(u, w) <= dist(u, v) + dist(v, w) + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        assert abs(dist(u, v) - dist(v, u)) < 1e-12


class TestToffoliExpansion:
    def test_gate_census(self):
        gates = toffoli_expansion(0, 1, 2)
        assert len(gates) == 15
        assert all(g.kind in ("H", "T", "TDG", "CNOT") for g in gates)
        c = sequential_circuit(3, gates)
        assert c.profile().t_count == 7

    def test_decompose_toffolis_removes_all(self):
        c = packed_circuit(4, [toffoli(0, 1, 2), cnot(2, 3), toffoli(1, 2, 3)])
        d = decompose_toffolis(c)
        assert all(g.kind != TOFFOLI for g in d.gates())
        assert d.profile().t_count == 14

    def test_exact_at_extended_precision(self):
        from ftqc.sim import to_unitary

        gates = toffoli_expansion(0, 1, 2)
        exp = sequential_circuit(3, gates)
        ref = sequential_circuit(3, [toffoli(0, 1, 2)])
        assert dist(to_unitary(exp), to_unitary(ref)) < 1e-12
        # not merely close: the same product, taken in clongdouble from
        # natively built entries (qubit j is bit j), is the Toffoli exactly
        # up to rounding
        ld = np.clongdouble
        sq = 1 / np.sqrt(np.longdouble(2))
        eighth = (1 + ld(1j)) * sq  # e^{i pi / 4}
        one_q = {
            "H": np.array([[sq, sq], [sq, -sq]], dtype=ld),
            "T": np.array([[1, 0], [0, eighth]], dtype=ld),
            "TDG": np.array([[1, 0], [0, np.conj(eighth)]], dtype=ld),
        }

        def permutation(f):
            m = np.zeros((8, 8), dtype=ld)
            for i in range(8):
                m[f(i), i] = 1
            return m

        u = np.eye(8, dtype=ld)
        for g in gates:
            if g.kind == "CNOT":
                c, t = g.qubits
                m = permutation(lambda i: i ^ (((i >> c) & 1) << t))
            else:
                m = np.ones((1, 1), dtype=ld)
                for q in reversed(range(3)):
                    m = np.kron(m, one_q[g.kind] if q == g.qubits[0] else np.eye(2, dtype=ld))
            u = m @ u
        v = permutation(lambda i: i ^ (4 if i & 3 == 3 else 0))
        assert np.max(np.abs(u - v)) < 1e-18


def pauli_matrix(p: Pauli, n: int) -> np.ndarray:
    """Dense i^phase * Z^z X^x on n qubits; qubit j is bit j of the index."""
    m = np.ones((1, 1), dtype=complex)
    for q in reversed(range(n)):
        f = np.eye(2, dtype=complex)
        if p.x >> q & 1:
            f = GATE_MATRICES[X] @ f
        if p.z >> q & 1:
            f = GATE_MATRICES[Z] @ f
        m = np.kron(m, f)
    return 1j**p.phase * m


def one_qubit_on(u: np.ndarray, q: int, n: int) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for k in reversed(range(n)):
        m = np.kron(m, u if k == q else np.eye(2))
    return m


def cnot_on(c: int, t: int, n: int) -> np.ndarray:
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(1 << n):
        m[i ^ ((i >> c) & 1) << t, i] = 1
    return m


@st.composite
def paulis(draw, n):
    top = (1 << n) - 1
    return Pauli(draw(st.integers(0, top)), draw(st.integers(0, top)), draw(st.integers(0, 3)))


class TestPauli:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), paulis(n), paulis(n))))
    @settings(max_examples=200, deadline=None)
    def test_product_matches_dense(self, case):
        n, p1, p2 = case
        np.testing.assert_array_equal(pauli_matrix(p1 * p2, n), pauli_matrix(p1, n) @ pauli_matrix(p2, n))

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(st.just(n), paulis(n), st.integers(0, n - 1))
        ),
        st.sampled_from([X, Y, Z, H, S, SDG]),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_qubit_conjugation_matches_dense(self, case, kind):
        n, p, q = case
        g = one_qubit_on(GATE_MATRICES[kind], q, n)
        np.testing.assert_allclose(
            pauli_matrix(p.conjugate(kind, (q,)), n),
            g @ pauli_matrix(p, n) @ g.conj().T,
            atol=1e-14,
        )

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(st.just(n), paulis(n), st.permutations(range(n)))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_cnot_conjugation_matches_dense(self, case):
        n, p, order = case
        c, t = order[:2]
        g = cnot_on(c, t, n)
        np.testing.assert_array_equal(
            pauli_matrix(p.conjugate(CNOT, (c, t)), n), g @ pauli_matrix(p, n) @ g.T
        )

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), paulis(n))))
    @settings(max_examples=100, deadline=None)
    def test_letters_drop_the_y_phase(self, case):
        n, p = case
        letters = np.ones((1, 1), dtype=complex)
        named = dict(p.letters())
        for q in reversed(range(n)):
            letters = np.kron(letters, GATE_MATRICES[named[q]] if q in named else np.eye(2))
        n_y = (p.x & p.z).bit_count()
        np.testing.assert_array_equal(pauli_matrix(p, n), 1j ** (p.phase + n_y) * letters)

    def test_non_clifford_gate_is_refused(self):
        with pytest.raises(ValueError, match="not a Clifford"):
            Pauli(x=1).conjugate(T, (0,))


class TestTextFormat:
    def test_round_trip(self):
        b = CircuitBuilder(3)
        b.append(gate(H, 0))
        b.append(rz(math.pi / 7, 1))
        b.append(cnot(0, 1))
        b.append(crz(-2.5, 1, 2))
        b.append(measure(0, key=0))
        b.append(frame_update(2, "X", cond=0))
        b.append(frame_update(1, "Z"))
        c = b.build()
        text = circuit_to_text(c)
        assert circuit_from_text(text) == c

    def test_angles_survive_at_full_precision(self):
        c = sequential_circuit(1, [rz(2 * math.pi / 3, 0)])
        c2 = circuit_from_text(circuit_to_text(c))
        assert c2.layers[0][0].angle == c.layers[0][0].angle

    def test_layer_structure_preserved(self):
        c = Circuit(2, [[gate(H, 0), gate(H, 1)], [cnot(0, 1)]])
        c2 = circuit_from_text(circuit_to_text(c))
        assert c2.depth == 2 and len(c2.layers[0]) == 2

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nqubits 1\n# another\nH 0\n"
        c = circuit_from_text(text)
        assert c.n_qubits == 1 and c.depth == 1

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_text("H 0\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            circuit_from_text("qubits 1\nH 0 key=3\n")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError, match="unknown gate attribute"):
            circuit_from_text("qubits 1\nMEASURE 0 key=0 flavor=up\n")

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_any_angle_round_trips(self, angle):
        c = sequential_circuit(1, [rz(angle, 0)])
        c2 = circuit_from_text(circuit_to_text(c))
        assert c2.layers[0][0].angle == float(angle)
