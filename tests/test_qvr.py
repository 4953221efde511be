"""Tests for variable rotations and the Fourier transform built on them.

Oracles: directly constructed diagonal phase matrices and the DFT matrix
from its definition; the kickback form is checked against the bitwise
form, which is itself checked against the diagonal oracle.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import qft_gamma_state

from ftqc import qvr, secondq, synth
from ftqc.core import CRZ, RZ, SEQUENCE, T, TDG, CircuitBuilder, H, circuit_to_text, dist
from ftqc.firstq import PhysicalConstants, build_potential_phase_circuit
from ftqc.qvr import (
    FRAC_BITS,
    build_qft_via_qvr,
    build_qvr_bitwise,
    build_qvr_kickback,
    eigenstate_for,
    qvr_layout,
    qvr_params,
)
from ftqc.secondq import OneBodyTerm, TwoBodyTerm, build_excitation
from ftqc.sim import effective_unitary, to_unitary

TWO_PI = 2 * math.pi


def diagonal_oracle(q: int, xi: float) -> np.ndarray:
    """The defining action: |u> gains e^{2 pi i xi u / 2^q}."""
    u = np.arange(1 << q, dtype=np.longdouble)
    ang = TWO_PI * np.longdouble(xi) * u / (1 << q)
    return np.diag(np.cos(ang) + np.clongdouble(1j) * np.sin(ang))


def dft_matrix(q: int) -> np.ndarray:
    n = 1 << q
    x = np.arange(n, dtype=np.longdouble)
    ang = TWO_PI * np.outer(x, x) / n
    return (np.cos(ang) + np.clongdouble(1j) * np.sin(ang)) / np.sqrt(np.longdouble(n))


def kickback_effective(params, controlled=False):
    """Unitary on the data wires with helpers fixed, plus leakage."""
    layout = qvr_layout(params, controlled)
    circuit = build_qvr_kickback(params, controlled)
    fixed = {}
    if not params.empty:
        fixed[layout.gamma] = eigenstate_for(params).amps
        for w in layout.scratch + layout.pads + (layout.ancilla,):
            fixed[(w,)] = np.array([1.0, 0.0])
    data = layout.theta if not controlled else layout.theta + (layout.control,)
    return effective_unitary(circuit, data, fixed=fixed)


class TestQvrParams:
    @pytest.mark.parametrize(
        "xi,m,w,p,k",
        [
            (1.0, 1, 0, 0, 1),
            (0.75, 2, -1, 2, 3),
            (6.0, 2, 2, -1, 3),
            (0.8125, 4, -1, 4, 13),
        ],
    )
    def test_examples(self, xi, m, w, p, k):
        got = qvr_params(xi, 3)
        assert (got.m, got.w, got.p, got.k) == (m, w, p, k)
        assert got.n == p + 3
        assert got.xi_bits == xi

    def test_zero_scale_is_empty(self):
        p = qvr_params(0.0, 4)
        assert p.empty and p.numerator == 0
        with pytest.raises(ValueError):
            p.k_reduced

    def test_rejections(self):
        with pytest.raises(ValueError):
            qvr_params(-1.0, 3)
        with pytest.raises(ValueError):
            qvr_params(1.0, 0)

    @given(
        st.floats(min_value=1e-6, max_value=64.0, allow_nan=False),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_decomposition_properties(self, xi, q):
        p = qvr_params(xi, q)
        # truncation toward zero at the stated grid
        assert p.xi_bits <= xi < float(p.xi_bits) + 2.0**-FRAC_BITS + 1e-12 * xi
        if p.numerator:
            assert p.k % 2 == 1
            assert p.k * 2**-p.p == float(p.xi_bits)
            assert p.m == (p.k).bit_length()
            if not p.empty:
                assert p.k_reduced % 2 == 1

class TestBitwise:
    def test_single_bit_odd_integer(self):
        # |0>,|1> pick up e^{2 pi i xi u / 2}: a Z for odd xi
        c = build_qvr_bitwise(1, 3.0)
        assert dist(to_unitary(c), np.diag([1.0, -1.0])) < 1e-12

    def test_three_bit_diagonal(self):
        c = build_qvr_bitwise(3, 1.0)
        assert dist(to_unitary(c), diagonal_oracle(3, 1.0).astype(complex)) < 1e-8

    def test_fractional_scale(self):
        c = build_qvr_bitwise(4, 0.8125)
        assert dist(to_unitary(c), diagonal_oracle(4, 0.8125).astype(complex)) < 1e-8

    def test_integer_multiple_of_register_is_identity(self):
        c = build_qvr_bitwise(3, 8.0)
        assert not list(c.gates())

    def test_synthesized_within_budget(self):
        c = build_qvr_bitwise(4, 1.0, epsilon_total=1e-3, method=SEQUENCE)
        kinds = {g.kind for g in c.gates()}
        assert "RZ" not in kinds and "CRZ" not in kinds
        assert dist(to_unitary(c), diagonal_oracle(4, 1.0).astype(complex)) <= 1e-3

    def test_controlled(self):
        q = 3
        c = build_qvr_bitwise(q, 0.75, controlled=True)
        u = to_unitary(c)
        want = np.eye(16, dtype=complex)
        want[8:, 8:] = diagonal_oracle(q, 0.75).astype(complex)
        assert dist(u, want) < 1e-8

    def test_rejections(self):
        with pytest.raises(ValueError):
            build_qvr_bitwise(0, 1.0)
        with pytest.raises(ValueError):
            build_qvr_bitwise(2, 1.0, method="magic")
        with pytest.raises(ValueError):
            build_qvr_bitwise(2, 1.0, controlled=True, method=SEQUENCE)
        with pytest.raises(ValueError, match="finite"):
            build_qvr_bitwise(2, math.nan)

    def test_missed_sequence_budget_raises(self):
        # synthesize's best word for RZ(0.3 pi) is 7.3e-11 away, 7x over budget
        with pytest.raises(ValueError, match="relax the budget"):
            build_qvr_bitwise(1, 0.3, epsilon_total=1e-11, method=SEQUENCE)


ATTRACTIVE = PhysicalConstants(charges=(1.0, -1.0), masses=(1836.0, 1.0), dt=0.05)


class TestOneRotationEmitter:
    """Every rotation a builder places comes from synth.emit_rz.

    The builders run three ways: as they are, with emit_rz wrapped by a
    recorder that forwards each call, and with emit_rz muted.  The wrapped
    circuit must be the plain one, the muted one must hold no rotation and
    no T gate, and adding the recorded gates to the muted circuit's must
    give the plain circuit's gates, one for one.
    """

    BUILDERS = {
        "bitwise exact": lambda: build_qvr_bitwise(4, 0.8125),
        "bitwise controlled": lambda: build_qvr_bitwise(3, 6.0, controlled=True),
        "bitwise sequence": lambda: build_qvr_bitwise(2, 1.25, epsilon_total=1e-2, method=SEQUENCE),
        "potential phase": lambda: build_potential_phase_circuit(2, 4, ATTRACTIVE)[0],
        "excitation exact controlled": lambda: build_excitation(TwoBodyTerm(0, 1, 2, 3, 0.25), 0.7, controlled=True),
        "excitation sequence": lambda: build_excitation(OneBodyTerm(0, 2, 0.3), 0.7, method=SEQUENCE, epsilon=2e-2),
        "excitation sequence controlled": lambda: build_excitation(
            TwoBodyTerm(1, 0, 0, 1, 0.4), 0.7, method=SEQUENCE, epsilon=2e-2, controlled=True
        ),
    }

    def build_with(self, monkeypatch, emitter, name):
        with monkeypatch.context() as m:
            m.setattr(qvr, "emit_rz", emitter)
            m.setattr(secondq, "emit_rz", emitter)
            return self.BUILDERS[name]()

    @pytest.mark.parametrize("name", BUILDERS)
    def test_rotations_are_the_emitted_ones(self, monkeypatch, name):
        plain = self.BUILDERS[name]()
        emitted = []

        def recorder(builder, theta, wire, method, epsilon, control=None):
            scratch = CircuitBuilder(builder.n_qubits)
            synth.emit_rz(scratch, theta, wire, method, epsilon, control)
            gates = list(scratch.build().gates())
            emitted.extend(gates)
            builder.extend(gates)

        recorded = self.build_with(monkeypatch, recorder, name)
        muted = self.build_with(monkeypatch, lambda *args, **kw: None, name)
        assert circuit_to_text(recorded) == circuit_to_text(plain)
        assert emitted and {g.kind for g in muted.gates()}.isdisjoint({RZ, CRZ, T, TDG})
        assert Counter(plain.gates()) == Counter(muted.gates()) + Counter(emitted)


class TestKickback:
    @pytest.mark.parametrize("xi", [1.0, 0.75, 6.0, 0.8125])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_matches_bitwise_exact(self, xi, q):
        params = qvr_params(xi, q)
        u_eff, leak = kickback_effective(params)
        assert leak < 1e-12
        d = dist(u_eff, diagonal_oracle(q, xi))
        # complex128 rounding lands near 6e-15 with the difference-form metric
        assert d <= 1e-9

    def test_gamma_register_preserved(self):
        # leakage out of the fixed gamma block is exactly the failure mode
        params = qvr_params(0.8125, 4)
        _, leak = kickback_effective(params)
        assert leak < 1e-12

    def test_empty_scale_gives_empty_circuit(self):
        params = qvr_params(6.0, 1)  # n = 0: every phase a whole turn
        assert params.empty
        c = build_qvr_kickback(params)
        assert not list(c.gates())

    def test_controlled_form(self):
        q = 3
        params = qvr_params(0.75, q)
        u_eff, leak = kickback_effective(params, controlled=True)
        assert leak < 1e-12
        want = np.eye(1 << (q + 1), dtype=np.clongdouble)
        want[1 << q :, 1 << q :] = diagonal_oracle(q, 0.75)
        assert dist(u_eff, want) <= 1e-9

    def test_t_count_ordering(self):
        # one register addition beats per-bit synthesis already at q=4
        params = qvr_params(1.0, 4)
        kb = build_qvr_kickback(params).profile()
        bw = build_qvr_bitwise(4, 1.0, epsilon_total=1e-3, method=SEQUENCE).profile()
        assert kb.t_count < bw.t_count

class TestQftViaQvr:
    def qft_unitary(self, q):
        c = build_qft_via_qvr(q)
        g = qft_gamma_state(q)
        fixed = {}
        if g is not None:
            gw = tuple(range(q, q + g.n_qubits))
            fixed[gw] = g.amps
            for w in range(q + g.n_qubits, c.n_qubits):
                fixed[(w,)] = np.array([1.0, 0.0])
        return effective_unitary(c, tuple(range(q)), fixed=fixed)

    def test_single_qubit_is_hadamard(self):
        c = build_qft_via_qvr(1)
        assert [g.kind for g in c.gates()] == [H]

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_dft(self, q):
        u, leak = self.qft_unitary(q)
        assert leak < 1e-12
        assert dist(u, dft_matrix(q)) <= 1e-8

    def test_five_qubit(self):
        u, leak = self.qft_unitary(5)
        assert dist(u, dft_matrix(5)) <= 1e-8

    def test_rejections(self):
        with pytest.raises(ValueError):
            build_qft_via_qvr(0)
