"""Tests for the second-quantized toolchain: integral tables, Jordan-Wigner
excitation circuits, teleported parity ladders, and the run estimator.

Oracles: annihilation operators assembled as dense kron products (the
symbolic Pauli expansion is checked against them with no circuit in the
loop), the expansion as ``core.Pauli`` products in ``reference`` (which
the int-mask expansion must match float for float), a clongdouble
Taylor/scaling-squaring matrix exponential for the propagator checks
(kept apart from the complex128 arithmetic of the circuits it checks),
and direct statevector simulation for channel equality and the
small-system phase-estimation readout.
"""

import hashlib
import io
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import excitation_sandwich, pauli_generator_masks

from ftqc import cli, kickback, secondq
from ftqc.core import (
    ADJOINT,
    CNOT,
    EXACT,
    FRAME,
    KICKBACK,
    MEASURE,
    PAR,
    RZ,
    SDG,
    SEQUENCE,
    SK,
    H,
    S,
    CircuitBuilder,
    built_profile,
    dist,
    gate,
    measure,
)
from ftqc.kickback import RIPPLE_CARRY, AdderSpec, build_adder
from ftqc.par import register_bits_for
from ftqc.secondq import (
    LADDER_DIRECT,
    LADDER_TELEPORTED,
    IntegralTable,
    OneBodyTerm,
    TrotterPlan,
    TwoBodyTerm,
    apply_cutoff,
    build_excitation,
    build_jw_ladder,
    controlled_rotation_profile,
    estimate_second_quantized,
    excitation_operator_strings,
    ladder_output_map,
    load_integrals,
    rotation_profile,
)
from ftqc.sim import (
    channel_equal,
    effective_unitary,
    product_state,
    random_state,
    run,
    to_unitary,
)

FIXTURE = Path(__file__).parent / "data" / "integrals_12.txt"
PINS = json.loads((Path(__file__).parent / "data" / "estimate_2q_pins.json").read_text())

_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_PAULI_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def mode_lowering(j: int, m: int) -> np.ndarray:
    """Annihilation operator for mode j on m modes, built from its
    definition: Z chain below, |0><1| at j, identity above."""
    op = np.ones((1, 1), dtype=complex)
    for k in range(m):
        if k < j:
            factor = _PAULI_1Q["Z"]
        elif k == j:
            factor = _SIGMA_MINUS
        else:
            factor = np.eye(2)
        op = np.kron(factor, op)
    return op


def term_matrix(term, m: int) -> np.ndarray:
    """Dense hermitian generator of one integral term."""
    a = [mode_lowering(j, m) for j in range(m)]

    def prod(ops):
        out = np.eye(1 << m, dtype=complex)
        for j, dag in ops:
            out = out @ (a[j].conj().T if dag else a[j])
        return out

    if isinstance(term, OneBodyTerm):
        base = prod([(term.p, True), (term.q, False)])
        if term.p == term.q:
            return term.value * base
        return term.value * (base + base.conj().T)
    base = prod([(term.p, True), (term.q, True), (term.r, False), (term.s, False)])
    if term.s == term.p and term.r == term.q:
        return term.value * base
    return term.value * (base + base.conj().T)


def expm_ld(a: np.ndarray) -> np.ndarray:
    """exp(a) in clongdouble: Taylor series after scaling-and-squaring.

    Forty terms at a norm scaled below 1/2 leave a remainder far under
    the extended-precision epsilon, so the result is accurate to ~1e-18
    where a double-precision exponential would stop near 1e-16.
    """
    a = np.asarray(a).astype(np.clongdouble)
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    a = a / np.clongdouble(2**s)
    out = np.eye(a.shape[0], dtype=np.clongdouble)
    p = np.eye(a.shape[0], dtype=np.clongdouble)
    for k in range(1, 40):
        p = p @ a / np.clongdouble(k)
        out = out + p
    for _ in range(s):
        out = out @ out
    return out


def string_matrix(coeff: float, ops, m: int) -> np.ndarray:
    mats = dict(ops)
    out = np.ones((1, 1), dtype=complex)
    for k in range(m):
        out = np.kron(_PAULI_1Q[mats[k]] if k in mats else np.eye(2), out)
    return coeff * out


def circuit_gates(circuit):
    return [g for layer in circuit.layers for g in layer]


TERM_SHAPES = [
    pytest.param(OneBodyTerm(0, 0, 0.5), id="number"),
    pytest.param(OneBodyTerm(1, 1, -0.7), id="number-high"),
    pytest.param(OneBodyTerm(0, 1, 0.5), id="hop"),
    pytest.param(OneBodyTerm(1, 3, 0.25), id="hop-chain"),
    pytest.param(TwoBodyTerm(0, 1, 1, 0, 0.5), id="number-number"),
    pytest.param(TwoBodyTerm(0, 1, 2, 3, 0.3), id="double-excitation"),
    pytest.param(TwoBodyTerm(0, 2, 2, 1, 0.4), id="mixed"),
    pytest.param(TwoBodyTerm(3, 1, 0, 2, 0.6), id="scrambled"),
]


class TestTermTypes:
    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            OneBodyTerm(-1, 0, 1.0)
        with pytest.raises(ValueError):
            TwoBodyTerm(0, 1, -2, 0, 1.0)

    def test_indices_property(self):
        assert OneBodyTerm(3, 1, 0.5).indices == (3, 1)
        assert TwoBodyTerm(0, 1, 2, 3, 0.5).indices == (0, 1, 2, 3)


class TestIntegralTable:
    def test_counts_and_terms(self):
        t = IntegralTable(
            3,
            one_body=(OneBodyTerm(0, 1, 0.5), OneBodyTerm(2, 2, -0.25)),
            two_body=(TwoBodyTerm(0, 1, 1, 0, 0.125),),
        )
        assert t.n_terms == 3
        assert len(t.terms()) == 3

    def test_index_outside_register_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            IntegralTable(2, one_body=(OneBodyTerm(0, 5, 1.0),))
        with pytest.raises(ValueError, match="outside"):
            IntegralTable(3, two_body=(TwoBodyTerm(0, 1, 2, 3, 1.0),))

    def test_hermitian_pair_accepted(self):
        t = IntegralTable(
            2, one_body=(OneBodyTerm(0, 1, 0.5), OneBodyTerm(1, 0, 0.5))
        )
        assert t.n_terms == 2

    def test_one_body_conflict_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            IntegralTable(
                2, one_body=(OneBodyTerm(0, 1, 0.5), OneBodyTerm(1, 0, 0.25))
            )

    def test_two_body_conflict_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            IntegralTable(
                4,
                two_body=(
                    TwoBodyTerm(0, 1, 2, 3, 0.5),
                    TwoBodyTerm(3, 2, 1, 0, 0.4),
                ),
            )

    def test_duplicate_entry_conflict_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            IntegralTable(
                2, one_body=(OneBodyTerm(0, 1, 0.5), OneBodyTerm(0, 1, 0.6))
            )

    def test_sorted_terms_by_magnitude_then_indices(self):
        t = IntegralTable(
            3,
            one_body=(
                OneBodyTerm(2, 2, 0.1),
                OneBodyTerm(0, 0, -0.5),
                OneBodyTerm(1, 1, 0.5),
            ),
        )
        ordered = t.sorted_terms()
        assert [s.indices for s in ordered] == [(0, 0), (1, 1), (2, 2)]


class TestLoadIntegrals:
    def test_empty_file(self):
        t = load_integrals(io.StringIO(""))
        assert t.n_terms == 0 and t.n_orbitals == 0

    def test_comments_and_blank_lines_skipped(self):
        t = load_integrals(io.StringIO("# header\n\n1 1 0.5  # trailing\n"))
        assert t.n_terms == 1

    def test_two_orbital_toy(self):
        t = load_integrals(io.StringIO("1 2 0.5\n"))
        assert t.n_orbitals == 2
        assert t.one_body == (OneBodyTerm(0, 1, 0.5),)

    def test_two_body_line(self):
        t = load_integrals(io.StringIO("1 2 2 1 0.25\n"))
        assert t.two_body == (TwoBodyTerm(0, 1, 1, 0, 0.25),)

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            load_integrals(io.StringIO("1 1 0.5\n# ok\n1 2\n"))

    def test_bad_number_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            load_integrals(io.StringIO("1 2 half\n"))

    def test_zero_index_rejected_as_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            load_integrals(io.StringIO("0 1 0.5\n"))

    def test_non_hermitian_file_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            load_integrals(io.StringIO("1 2 0.5\n2 1 0.25\n"))

    def test_fixture_loads_all_entries(self):
        t = load_integrals(FIXTURE)
        assert t.n_orbitals == 12
        assert t.n_terms == 231
        assert len(t.one_body) == 78 and len(t.two_body) == 153

    def test_path_string_and_file_object_agree(self):
        with open(FIXTURE, encoding="utf-8") as fh:
            from_obj = load_integrals(fh)
        assert from_obj == load_integrals(str(FIXTURE))


class TestApplyCutoff:
    def test_zero_threshold_keeps_everything(self):
        t = load_integrals(FIXTURE)
        kept, report = apply_cutoff(t, 0.0)
        assert kept == t
        assert report.retained == 231 and report.dropped == 0

    def test_infinite_threshold_drops_everything(self):
        t = load_integrals(FIXTURE)
        kept, report = apply_cutoff(t, math.inf)
        assert kept.n_terms == 0 and report.retained == 0
        assert report.dropped == 231
        assert kept.n_orbitals == t.n_orbitals

    def test_retained_count_monotone_in_threshold(self):
        t = load_integrals(FIXTURE)
        counts = [apply_cutoff(t, 10.0**-e)[1].retained for e in range(0, 13)]
        assert counts == sorted(counts)

    def test_fixture_knee_at_ninety_nine(self):
        kept, report = apply_cutoff(load_integrals(FIXTURE), 1e-10)
        assert report.retained == 99 and kept.n_terms == 99
        assert report.dropped == 132

    def test_curve_shape(self):
        _, report = apply_cutoff(load_integrals(FIXTURE), 1e-6)
        thresholds = [th for th, _ in report.curve]
        counts = [c for _, c in report.curve]
        assert len(report.curve) == 17
        assert thresholds == sorted(thresholds, reverse=True)
        assert counts == sorted(counts)  # looser threshold keeps fewer
        assert counts[-1] == 231

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            apply_cutoff(IntegralTable(1), -1.0)

    def test_nothing_dropped_returns_the_input_table(self):
        t = load_integrals(FIXTURE)
        assert apply_cutoff(t, 0.0)[0] is t
        kept, _ = apply_cutoff(t, 1e-10)
        assert kept is not t and kept.n_terms == 99

    # every decade 10^0 .. 10^-16 is itself a term value, with both signs
    ON_DECADES = IntegralTable(
        17,
        tuple(OneBodyTerm(i, i, (-1.0) ** i * 10.0**-i) for i in range(17)),
        (TwoBodyTerm(0, 1, 1, 0, 1e-3), TwoBodyTerm(1, 0, 0, 1, -1e-3)),
    )

    @staticmethod
    def _scanned_curve(table):
        # the curve by definition: one scan of the values per decade
        values = [abs(t.value) for t in table.terms()]
        return tuple((10.0**e, sum(1 for v in values if v > 10.0**e)) for e in range(0, -17, -1))

    @pytest.mark.parametrize("threshold", [0.0, 1e-10, 1e-3, 0.1, math.inf])
    @pytest.mark.parametrize("name", ["integrals_12", "on_decades"])
    def test_curve_and_counts_match_a_scan(self, name, threshold):
        table = load_integrals(FIXTURE) if name == "integrals_12" else self.ON_DECADES
        kept, report = apply_cutoff(table, threshold)
        assert report.curve == self._scanned_curve(table)
        retained = sum(1 for t in table.terms() if abs(t.value) > threshold)
        assert report.retained == kept.n_terms == retained
        assert report.dropped == table.n_terms - retained
        assert kept.terms() == tuple(t for t in table.terms() if abs(t.value) > threshold)

    @pytest.mark.parametrize("name", ["integrals_12", "on_decades"])
    def test_csv_bytes_match_a_scan(self, tmp_path, name):
        if name == "integrals_12":
            path, table = FIXTURE, load_integrals(FIXTURE)
        else:
            table = self.ON_DECADES
            path = tmp_path / "on_decades.txt"
            path.write_text("".join(
                " ".join(str(i + 1) for i in t.indices) + f" {t.value!r}\n" for t in table.terms()
            ))
            assert load_integrals(path) == table
        csv_file = tmp_path / "curve.csv"
        status = cli.main([
            "estimate-2q", "--integrals", str(path), *PINS["args"], "--method", "par",
            "--json", str(tmp_path / "out.json"), "--csv", str(csv_file),
        ])
        assert status == 0
        want = "threshold,retained\r\n" + "".join(
            f"{threshold!r},{retained}\r\n" for threshold, retained in self._scanned_curve(table)
        )
        assert csv_file.read_bytes() == want.encode()
        if name == "integrals_12":
            assert hashlib.sha256(want.encode()).hexdigest() == PINS["csv_sha256"]


class TestExcitationStrings:
    @pytest.mark.parametrize("term", TERM_SHAPES)
    def test_matches_dense_ladder_oracle(self, term):
        m = max(term.indices) + 1
        total = np.zeros((1 << m, 1 << m), dtype=complex)
        for coeff, ops in excitation_operator_strings(term):
            total += string_matrix(coeff, ops, m)
        assert np.allclose(total, term_matrix(term, m), atol=1e-12)

    @pytest.mark.parametrize(
        "term,count",
        [
            (OneBodyTerm(0, 0, 0.5), 2),  # number operator: identity + Z
            (OneBodyTerm(0, 1, 0.5), 2),  # XX + YY halves
            (OneBodyTerm(1, 3, 0.25), 2),  # same, with a Z chain inside
            (TwoBodyTerm(0, 1, 1, 0, 0.5), 4),  # number-number product
            (TwoBodyTerm(0, 1, 2, 3, 0.3), 8),  # all indices distinct
        ],
    )
    def test_string_counts(self, term, count):
        assert len(excitation_operator_strings(term)) == count

    @pytest.mark.parametrize("term", TERM_SHAPES)
    def test_strings_pairwise_commute(self, term):
        strings = excitation_operator_strings(term)
        for s1, s2 in itertools.combinations(strings, 2):
            d1, d2 = dict(s1.ops), dict(s2.ops)
            clashes = sum(1 for q in set(d1) & set(d2) if d1[q] != d2[q])
            assert clashes % 2 == 0

    @pytest.mark.parametrize("term", TERM_SHAPES)
    def test_coefficients_real_and_ops_sorted(self, term):
        for coeff, ops in excitation_operator_strings(term):
            assert isinstance(coeff, float)
            qubits = [q for q, _ in ops]
            assert qubits == sorted(qubits)
            assert all(letter in "XYZ" for _, letter in ops)

    def test_register_bound_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            excitation_operator_strings(OneBodyTerm(0, 3, 1.0), n_orbitals=2)

    def test_fixture_expansion_is_pinned(self):
        # sha256 over the repr of every term's strings, in file order: the
        # coefficients (repr round-trips floats) and the letter tuples must
        # not move by one bit
        table = load_integrals(FIXTURE)
        digest = hashlib.sha256()
        for term in table.terms():
            digest.update(repr(excitation_operator_strings(term, table.n_orbitals)).encode())
        assert table.n_terms == 231
        assert digest.hexdigest() == "23ab659c2c4fef5f231f5f01774c0cfdd4f08ee8d2962d51e53e8ef94960c056"

    @given(
        st.integers(1, 10).flatmap(
            lambda m: st.tuples(
                st.lists(st.integers(0, m - 1), min_size=4, max_size=4),
                st.sampled_from(["one-body", "two-body", "self-adjoint"]),
            )
        ),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_mask_expansion_matches_pauli_oracle(self, shape, value):
        # the oracle expands the product and its conjugate as core.Pauli
        # products; every coefficient must agree to the last bit
        (p, q, r, s), kind = shape
        if kind == "one-body":
            term = OneBodyTerm(p, q, value)
        elif kind == "two-body":
            term = TwoBodyTerm(p, q, r, s, value)
        else:
            term = TwoBodyTerm(p, q, q, p, value)
        triples = secondq._generator_masks(term, None)
        masks = {(x, z): c for c, x, z in triples}
        assert len(masks) == len(triples)
        assert masks == pauli_generator_masks(term)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match="not finite"):
            OneBodyTerm(0, 1, value)
        with pytest.raises(ValueError, match="not finite"):
            TwoBodyTerm(0, 1, 2, 3, value)

    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_one_body_matches_oracle(self, p, q, value):
        term = OneBodyTerm(p, q, value)
        total = np.zeros((32, 32), dtype=complex)
        for coeff, ops in excitation_operator_strings(term, n_orbitals=5):
            total += string_matrix(coeff, ops, 5)
        assert np.allclose(total, term_matrix(term, 5), atol=1e-12)

    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 4),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_two_body_matches_oracle(self, p, q, r, s, value):
        term = TwoBodyTerm(p, q, r, s, value)
        total = np.zeros((32, 32), dtype=complex)
        for coeff, ops in excitation_operator_strings(term, n_orbitals=5):
            total += string_matrix(coeff, ops, 5)
        assert np.allclose(total, term_matrix(term, 5), atol=1e-12)


def _hex_masks(triples) -> dict[tuple[int, int], str]:
    """(coeff, x, z) triples as {(x, z): coeff.hex()}, so equality is bitwise."""
    masks = {(x, z): c.hex() for c, x, z in triples}
    assert len(masks) == len(triples)
    return masks


class TestCachedExpansion:
    """The expansion of a term's ladder-operator product is cached per
    index pattern; the term value scales it anew on every call."""

    def test_every_pattern_on_four_orbitals_matches_the_oracle_cold_and_warm(self):
        terms = [OneBodyTerm(p, q, math.pi / 10) for p, q in itertools.product(range(4), repeat=2)]
        terms += [TwoBodyTerm(*idx, -1.2345678901234567) for idx in itertools.product(range(4), repeat=4)]
        secondq._jw_expansion.cache_clear()
        for call in ("cold", "warm"):
            for term in terms:
                want = {key: c.hex() for key, c in pauli_generator_masks(term).items()}
                assert _hex_masks(secondq._generator_masks(term, 4)) == want, (call, term)
        info = secondq._jw_expansion.cache_info()
        assert (info.misses, info.hits) == (len(terms), len(terms))

    @pytest.mark.parametrize(
        "indices",
        [(1, 3), (2, 2), (0, 1, 2, 3), (2, 0, 0, 2), (1, 1, 2, 2), (3, 1, 1, 0)],
    )
    def test_values_sharing_a_pattern_are_each_scaled(self, indices):
        # one cache entry serves every value: a cache that kept the first
        # value's coefficients, or its floor, would fail the later ones
        make = OneBodyTerm if len(indices) == 2 else TwoBodyTerm
        secondq._jw_expansion.cache_clear()
        for value in (0.3, -2.5e3, 3e-15, -1e-300):
            term = make(*indices, value)
            want = {key: c.hex() for key, c in pauli_generator_masks(term).items()}
            assert _hex_masks(secondq._generator_masks(term, None)) == want, value
        assert secondq._jw_expansion.cache_info().misses == 1

    def test_cached_entry_is_an_immutable_tuple(self):
        secondq._jw_expansion.cache_clear()
        secondq._generator_masks(TwoBodyTerm(0, 1, 2, 3, 0.5), None)
        entry = secondq._jw_expansion(((0, True), (1, True), (2, False), (3, False)), False)
        info = secondq._jw_expansion.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert info.maxsize is not None  # bounded memory
        assert isinstance(entry, tuple) and len(entry) == 8
        for item in entry:
            assert isinstance(item, tuple)
            n, flip, x, z = item
            assert type(n) is int and n != 0
            assert type(flip) is bool and type(x) is int and type(z) is int


class TestBuildExcitation:
    DT = 0.83

    @pytest.mark.parametrize("term", TERM_SHAPES)
    def test_propagator_matches_dense_exponential(self, term):
        m = max(term.indices) + 1
        circ = build_excitation(term, self.DT)
        u = to_unitary(circ)
        oracle = expm_ld(-1j * self.DT * term_matrix(term, m))
        assert dist(u, oracle) <= 1e-8

    def test_two_orbital_coupling_at_criterion_tolerance(self):
        term = OneBodyTerm(0, 1, 0.5)
        oracle_generator = term_matrix(term, 2)
        for dt in (0.3, 0.83, 2.0):
            u = to_unitary(build_excitation(term, dt))
            assert u.shape == (4, 4)
            assert dist(u, expm_ld(-1j * dt * oracle_generator)) <= 1e-8

    def test_zero_coupling_is_identity(self):
        for term in (OneBodyTerm(0, 1, 0.0), TwoBodyTerm(0, 1, 2, 3, 0.0)):
            circ = build_excitation(term, self.DT)
            m = max(term.indices) + 1
            assert dist(to_unitary(circ), np.eye(1 << m)) <= 1e-12

    @pytest.mark.parametrize(
        "term",
        [
            pytest.param(OneBodyTerm(0, 1, 0.5), id="hop"),
            pytest.param(TwoBodyTerm(0, 1, 2, 3, 0.3), id="double-excitation"),
        ],
    )
    def test_controlled_block_is_exact_controlled_propagator(self, term):
        m = max(term.indices) + 1
        circ = build_excitation(term, self.DT, controlled=True)
        mat, leak = effective_unitary(circ, tuple(range(m + 1)))
        assert leak <= 1e-9  # the AND ancilla returns to |0> exactly
        d = 1 << m
        expected = np.eye(2 * d, dtype=np.clongdouble)
        expected[d:, d:] = expm_ld(-1j * self.DT * term_matrix(term, m))
        # phase-exact, not just phase-invariant: the repaid global phase
        # must make the block a strict controlled propagator
        assert float(np.max(np.abs(mat - expected))) <= 1e-8

    def test_control_off_acts_as_identity(self):
        circ = build_excitation(TwoBodyTerm(0, 1, 2, 3, 0.3), self.DT, controlled=True)
        psi = random_state(4, np.random.default_rng(5))
        init = product_state(6, {(0, 1, 2, 3): psi.amps})
        out = run(circ, init, seed=1).state.amps
        assert float(np.max(np.abs(out - init.amps))) <= 1e-12

    def test_sequence_rotations_stay_within_budget(self):
        term = OneBodyTerm(0, 1, 0.5)
        eps = 2e-2
        circ = build_excitation(term, 1.3, method=SEQUENCE, epsilon=eps)
        assert all(g.kind != RZ for g in circuit_gates(circ))
        oracle = expm_ld(-1j * 1.3 * term_matrix(term, 2))
        # two synthesized rotations, so at most twice the per-rotation budget
        assert dist(to_unitary(circ), oracle) <= 2 * eps

    def test_missed_sequence_budget_raises(self):
        # the one rotation is RZ(-0.7 mod 2 pi), whose best word is 1.86e-10 away, 18.6x over budget
        with pytest.raises(ValueError, match="relax the budget"):
            build_excitation(OneBodyTerm(0, 0, 0.5), 1.4, method=SEQUENCE, epsilon=1e-11)

    def test_non_finite_time_step_rejected(self):
        for dt in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                build_excitation(OneBodyTerm(0, 1, 0.5), dt)

    @pytest.mark.parametrize("method", [KICKBACK, PAR])
    def test_estimator_methods_rejected_at_gate_level(self, method):
        with pytest.raises(ValueError, match="cost model"):
            build_excitation(OneBodyTerm(0, 1, 0.5), 0.5, method=method)

    def test_hop_rotation_angle_is_coupling_times_dt(self):
        circ = build_excitation(OneBodyTerm(0, 1, 0.5), self.DT)
        angles = [g.angle for g in circuit_gates(circ) if g.kind == RZ]
        assert angles == pytest.approx([0.5 * self.DT] * 2, rel=1e-12)

    def test_register_bound_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            build_excitation(OneBodyTerm(0, 3, 1.0), 0.5, n_orbitals=2)


def _terms(n_orbitals: int):
    """One- and two-body terms on n_orbitals, coincident indices included."""
    index = st.integers(0, n_orbitals - 1)
    value = st.floats(min_value=-2, max_value=2, allow_nan=False)
    return st.one_of(
        st.builds(OneBodyTerm, index, index, value),
        st.builds(TwoBodyTerm, index, index, index, index, value),
    )


_BASIS_KINDS = (H, S, SDG)


class TestMergedBasisChanges:
    """build_excitation merges each wire's basis changes at string
    boundaries; the string-by-string sandwich of reference is its oracle."""

    @given(
        st.integers(2, 6).flatmap(lambda m: st.tuples(st.just(m), _terms(m))),
        st.floats(min_value=0.1, max_value=1.5),
        st.sampled_from([(EXACT, 1e-4), (SEQUENCE, 2e-2)]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_string_by_string_sandwich(self, sized_term, dt, rotation, controlled):
        m, term = sized_term
        method, epsilon = rotation
        kwargs = dict(n_orbitals=m, method=method, epsilon=epsilon, controlled=controlled)
        merged = build_excitation(term, dt, **kwargs)
        oracle = excitation_sandwich(term, dt, **kwargs)
        if controlled:
            data = tuple(range(m + 1))
            (u, leak), (want, want_leak) = effective_unitary(merged, data), effective_unitary(oracle, data)
            # an exact rotation returns the AND ancilla to |0>; a synthesized
            # one leaks by its own error, the same in both circuits
            assert leak <= (1e-12 if method == EXACT else want_leak + 1e-12)
        else:
            u, want = to_unitary(merged), to_unitary(oracle)
        assert float(np.max(np.abs(u - want))) <= 1e-12
        rest = [[g for g in circuit_gates(c) if g.kind not in _BASIS_KINDS] for c in (merged, oracle)]
        assert rest[0] == rest[1]
        basis = [Counter(g.kind for g in circuit_gates(c) if g.kind in _BASIS_KINDS) for c in (merged, oracle)]
        assert all(basis[0][k] <= basis[1][k] for k in _BASIS_KINDS)

    def test_double_excitation_gate_counts(self):
        circ = build_excitation(TwoBodyTerm(0, 5, 12, 17, 0.7), 0.4, n_orbitals=18)
        counts = Counter(g.kind for g in circuit_gates(circ))
        assert counts == {H: 28, S: 10, SDG: 10, CNOT: 176, RZ: 8}
        assert sum(counts.values()) == 232

    @pytest.mark.parametrize("term", TERM_SHAPES)
    @pytest.mark.parametrize("controlled", [False, True], ids=["plain", "controlled"])
    def test_no_wire_holds_an_adjacent_adjoint_pair(self, term, controlled):
        # one-qubit pairs only: a mirrored ladder's last CNOT can meet the
        # next string's first, and sharing ladders is not this merge
        last: dict[int, str] = {}
        for g in circuit_gates(build_excitation(term, 0.83, controlled=controlled)):
            if g.kind in ADJOINT:
                assert last.get(g.qubits[0]) != ADJOINT[g.kind], g
            for q in g.qubits:
                last[q] = g.kind


class TestJwLadder:
    def test_direct_shape(self):
        for span in range(2, 7):
            circ = build_jw_ladder(span, LADDER_DIRECT)
            assert circ.depth == span - 1
            assert circ.n_qubits == span
            gates = circuit_gates(circ)
            assert len(gates) == span - 1
            assert all(g.kind == CNOT for g in gates)

    def test_span_two_teleported_is_single_cnot(self):
        circ = build_jw_ladder(2, LADDER_TELEPORTED)
        assert circ.n_qubits == 2 and circ.depth == 1
        assert [g.kind for g in circuit_gates(circ)] == [CNOT]
        assert ladder_output_map(2, LADDER_TELEPORTED) == (0, 1)

    def test_rejections(self):
        with pytest.raises(ValueError):
            build_jw_ladder(1, LADDER_DIRECT)
        with pytest.raises(ValueError):
            build_jw_ladder(4, "magic")
        with pytest.raises(ValueError):
            ladder_output_map(1)
        with pytest.raises(ValueError):
            ladder_output_map(4, "magic")
        with pytest.raises(ValueError):
            build_jw_ladder(2, "bogus")
        with pytest.raises(ValueError):
            ladder_output_map(2, "bogus")

    @pytest.mark.parametrize("span", [3, 4, 5])
    def test_channel_equal_to_direct_ladder(self, span):
        direct = build_jw_ladder(span, LADDER_DIRECT)
        tele = build_jw_ladder(span, LADDER_TELEPORTED)
        assert channel_equal(
            direct,
            tele,
            span,
            out_b=ladder_output_map(span, LADDER_TELEPORTED),
            trials=50,
            seed=11,
        )

    def test_teleported_depth_constant_across_spans(self):
        depths = {build_jw_ladder(s, LADDER_TELEPORTED).depth for s in range(3, 9)}
        # the fixed teleported schedule packs into seven layers at any span
        assert depths == {7}

    def test_teleported_qubit_count(self):
        for span in range(3, 9):
            assert build_jw_ladder(span, LADDER_TELEPORTED).n_qubits == 3 * span - 4

    def test_teleported_measurement_and_frame_counts(self):
        span = 6
        gates = circuit_gates(build_jw_ladder(span, LADDER_TELEPORTED))
        inner = span - 2
        assert sum(1 for g in gates if g.kind == MEASURE) == 2 * inner
        # per interior wire j (1-based): j X-corrections and one Z; the last
        # data wire absorbs the full parity chain
        expected_frames = sum(j + 1 for j in range(1, inner + 1)) + inner
        assert sum(1 for g in gates if g.kind == FRAME) == expected_frames

    def test_output_map_teleported_structure(self):
        span = 5
        out = ladder_output_map(span, LADDER_TELEPORTED)
        assert len(out) == span
        assert out[0] == 0 and out[-1] == span - 1
        assert out[1:-1] == (6, 8, 10)  # the Bell halves standing in


class TestRotationProfiles:
    def test_sequence_fit_beyond_search_reach(self):
        prof = rotation_profile(SEQUENCE, 1e-4)
        assert (prof.depth, prof.t_count) == (92, 37)
        assert prof.total_gates == 92 and prof.qubits == 1

    def test_sequence_fit_tightens_with_epsilon(self):
        prof = rotation_profile(SEQUENCE, 1e-8)
        assert (prof.depth, prof.t_count) == (192, 76)

    def test_sequence_search_used_within_reach(self):
        prof = rotation_profile(SEQUENCE, 0.1, angle=math.pi / 4)
        assert (prof.depth, prof.t_count) == (1, 1)  # the T gate itself
        prof = rotation_profile(SEQUENCE, 0.1, angle=math.pi / 2)
        assert (prof.depth, prof.t_count) == (1, 0)  # the S gate

    def test_sequence_fit_ignores_angle_below_reach(self):
        assert rotation_profile(SEQUENCE, 1e-4, angle=math.pi / 4).depth == 92

    def test_sk_power_law(self):
        prof = rotation_profile(SK, 1e-3)
        assert (prof.depth, prof.t_count) == (2511, 1199)  # coeff * 3^4
        assert rotation_profile(SK, 1e-4).depth == 7936  # coeff * 4^4

    def test_par_profile(self):
        prof = rotation_profile(PAR, 1e-4)
        assert prof.depth == 4 and prof.total_gates == 4
        assert prof.qubits == 7  # target plus six precomputed ancillas
        assert prof.t_count == 6 * 37  # six fit-line ancilla preparations

    def test_kickback_profile_structure(self):
        n = register_bits_for(1e-4)
        prof = rotation_profile(KICKBACK, 1e-4)
        assert prof.qubits > n  # register plus carries
        assert prof.t_count > 0 and prof.depth > 1
        assert rotation_profile(KICKBACK, 1e-8).depth > prof.depth

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_kickback_profile_is_the_built_adder(self, epsilon):
        n = register_bits_for(epsilon)
        circuit = build_adder(AdderSpec(RIPPLE_CARRY, n, controlled=True), (1 << n) - 1)
        assert rotation_profile(KICKBACK, epsilon) == circuit.profile()

    def test_kickback_estimate_builds_the_adder_once(self, monkeypatch):
        built = []

        def counting_build_adder(spec, addend):
            built.append((spec, addend))
            return build_adder(spec, addend)

        built_profile.cache_clear()
        monkeypatch.setattr(kickback, "build_adder", counting_build_adder)
        estimate_second_quantized(
            load_integrals(FIXTURE), TrotterPlan(dt=0.1, readout_bits=10, method=KICKBACK)
        )
        assert len(built) <= 1

    def test_single_rotation_depth_ordering(self):
        depths = {
            m: rotation_profile(m, 1e-4).depth
            for m in (PAR, SEQUENCE, SK)
        }
        assert depths[PAR] < depths[SEQUENCE] < depths[SK]

    def test_rejections(self):
        with pytest.raises(ValueError):
            rotation_profile(SK, 0.0)
        with pytest.raises(ValueError):
            rotation_profile("magic", 1e-4)
        with pytest.raises(ValueError):
            controlled_rotation_profile("magic", 1e-4)


class TestControlledRotationProfiles:
    def test_par_cascades_without_wrapper(self):
        cost = controlled_rotation_profile(PAR, 1e-4)
        assert cost.block.depth == 4 and cost.rotation_depth == 4
        assert cost.block.qubits == 8  # six ancillas, target, control
        assert cost.block.t_count == rotation_profile(PAR, 1e-4).t_count

    def test_sequence_uses_two_rotation_decomposition(self):
        cost = controlled_rotation_profile(SEQUENCE, 1e-4)
        assert cost.block.depth == 2 + 2 * 92
        assert cost.block.t_count == 2 * 37
        assert cost.block.qubits == 2
        assert cost.rotation_depth == 2 * 92

    def test_default_wrapper_adds_two_toffolis(self):
        for method in (SK, KICKBACK):
            inner = rotation_profile(method, 1e-4)
            cost = controlled_rotation_profile(method, 1e-4)
            assert cost.block.depth == inner.depth + 2
            assert cost.block.t_count == inner.t_count + 14
            assert cost.block.qubits == inner.qubits + 2
            assert cost.rotation_depth == inner.depth


class TestTrotterPlan:
    @pytest.mark.parametrize("bits,steps", [(1, 1), (4, 15), (10, 1023)])
    def test_steps(self, bits, steps):
        assert TrotterPlan(dt=0.1, readout_bits=bits, method=PAR).steps == steps

    def test_rejections(self):
        with pytest.raises(ValueError):
            TrotterPlan(dt=0.0, readout_bits=3, method=PAR)
        with pytest.raises(ValueError):
            TrotterPlan(dt=0.1, readout_bits=0, method=PAR)
        with pytest.raises(ValueError):
            TrotterPlan(dt=0.1, readout_bits=3, method="magic")
        with pytest.raises(ValueError):
            TrotterPlan(dt=0.1, readout_bits=3, method=PAR, epsilon_max=0.0)


class TestEstimator:
    TOY = IntegralTable(2, one_body=(OneBodyTerm(0, 1, 0.5),))

    @staticmethod
    def fixture_table():
        kept, _ = apply_cutoff(load_integrals(FIXTURE), 1e-10)
        return kept

    def test_empty_table_is_zero_depth_run(self):
        est = estimate_second_quantized(
            IntegralTable(4), TrotterPlan(dt=0.1, readout_bits=3, method=PAR)
        )
        assert est.profile.depth == 0 and est.profile.qubits == 0
        assert est.rotation_count == 0 and est.rotation_fraction == 0.0
        assert est.wall_clock_seconds == 0.0

    def test_par_rotation_depth_is_four_per_rotation(self):
        for table in (self.TOY, self.fixture_table()):
            est = estimate_second_quantized(
                table, TrotterPlan(dt=0.05, readout_bits=4, method=PAR)
            )
            assert est.rotation_depth == 4 * est.rotation_count

    def test_extra_readout_bit_scales_depth_by_step_ratio(self):
        plans = [
            TrotterPlan(dt=0.1, readout_bits=b, method=SEQUENCE) for b in (3, 4)
        ]
        ests = [estimate_second_quantized(self.TOY, p) for p in plans]
        assert ests[0].per_step == ests[1].per_step
        assert ests[1].profile.depth * plans[0].steps == ests[0].profile.depth * plans[1].steps
        assert (plans[0].steps, plans[1].steps) == (7, 15)

    def test_method_depth_ordering_on_99_term_table(self):
        table = self.fixture_table()
        assert table.n_terms == 99
        depths = {}
        for method in (PAR, SEQUENCE, SK):
            plan = TrotterPlan(dt=0.05, readout_bits=10, method=method)
            assert plan.steps == 1023
            depths[method] = estimate_second_quantized(table, plan).profile.depth
        assert depths[PAR] < depths[SEQUENCE] < depths[SK]

    def test_teleported_depth_independent_of_register_size(self):
        plan = TrotterPlan(dt=0.1, readout_bits=2, method=SEQUENCE)
        tele, direct = [], []
        for m in (4, 8, 12):
            table = IntegralTable(m, one_body=(OneBodyTerm(0, m - 1, 0.5),))
            tele.append(
                estimate_second_quantized(table, plan).profile.depth
            )
            direct.append(
                estimate_second_quantized(
                    table, plan, ladder_mode=LADDER_DIRECT
                ).profile.depth
            )
        assert len(set(tele)) == 1
        assert direct[0] < direct[1] < direct[2]

    def test_depth_splits_into_rotation_and_clifford(self):
        for method in (PAR, SEQUENCE, SK, KICKBACK):
            est = estimate_second_quantized(
                self.TOY, TrotterPlan(dt=0.1, readout_bits=3, method=method)
            )
            assert est.rotation_depth + est.clifford_depth == est.profile.depth
            assert 0.0 < est.rotation_fraction < 1.0

    def test_wall_clock_uses_seconds_per_gate(self):
        plan = TrotterPlan(dt=0.1, readout_bits=3, method=SEQUENCE)
        est = estimate_second_quantized(self.TOY, plan, seconds_per_gate=2e-3)
        assert est.wall_clock_seconds == pytest.approx(est.profile.depth * 2e-3)

    def test_qubit_accounting_on_toy_table(self):
        plan = TrotterPlan(dt=0.1, readout_bits=3, method=SEQUENCE)
        est = estimate_second_quantized(self.TOY, plan)
        # two orbitals, the shared control, and nothing else: the span-2
        # ladder and the two-rotation block bring no extra wires
        assert est.per_step.qubits == 3
        est_par = estimate_second_quantized(
            self.TOY, TrotterPlan(dt=0.1, readout_bits=3, method=PAR)
        )
        assert est_par.per_step.qubits == 3 + 6  # plus the PAR ancilla bank

    def test_estimate_is_deterministic(self):
        plan = TrotterPlan(dt=0.05, readout_bits=5, method=PAR)
        table = self.fixture_table()
        assert estimate_second_quantized(table, plan) == estimate_second_quantized(
            table, plan
        )

    def test_rejections(self):
        plan = TrotterPlan(dt=0.1, readout_bits=3, method=PAR)
        with pytest.raises(ValueError):
            estimate_second_quantized(self.TOY, plan, ladder_mode="magic")
        with pytest.raises(ValueError):
            estimate_second_quantized(self.TOY, plan, seconds_per_gate=0.0)
        with pytest.raises(ValueError, match="seconds_per_gate"):
            estimate_second_quantized(self.TOY, plan, seconds_per_gate=1e308)

    def test_ladders_are_built_once_per_span_and_mode(self, monkeypatch):
        built = []

        def counting_build_jw_ladder(span, mode=LADDER_DIRECT):
            built.append((span, mode))
            return build_jw_ladder(span, mode)

        built_profile.cache_clear()
        monkeypatch.setattr(secondq, "build_jw_ladder", counting_build_jw_ladder)
        table = load_integrals(FIXTURE)
        plan = TrotterPlan(dt=0.05, readout_bits=10, method=PAR)
        for mode in (LADDER_TELEPORTED, LADDER_DIRECT):
            for _ in range(2):
                estimate_second_quantized(table, plan, ladder_mode=mode)
        assert built
        assert len(built) == len(set(built))
        assert {mode for _, mode in built} == {LADDER_TELEPORTED, LADDER_DIRECT}

    def test_strings_are_expanded_once_per_index_pattern(self):
        secondq._jw_expansion.cache_clear()
        table = load_integrals(FIXTURE)
        for method in (SK, KICKBACK):
            estimate_second_quantized(table, TrotterPlan(dt=0.05, readout_bits=10, method=method))
        patterns = {(type(t), t.indices) for t in table.terms()}
        assert len(patterns) == table.n_terms == 231
        info = secondq._jw_expansion.cache_info()
        assert (info.misses, info.hits) == (len(patterns), len(patterns))

    @pytest.mark.parametrize(
        "method,epsilon",
        [(KICKBACK, 1e-4), (SK, 1e-4), (PAR, 1e-4), (SEQUENCE, 1e-4),
         (SEQUENCE, 0.1)],
    )
    def test_rotations_priced_once_per_call_or_angle(self, monkeypatch, method, epsilon):
        priced = []

        def counting_profile(m, eps, angle=None):
            priced.append(angle)
            return controlled_rotation_profile(m, eps, angle)

        monkeypatch.setattr(secondq, "controlled_rotation_profile", counting_profile)
        table = load_integrals(FIXTURE)
        plan = TrotterPlan(dt=0.05, readout_bits=10, method=method, epsilon_max=epsilon)
        est = estimate_second_quantized(table, plan)
        if epsilon < secondq.SEQUENCE_SEARCH_REACH:
            assert priced == [None]
            return
        angles = {
            2.0 * coeff * plan.dt
            for term in table.terms()
            for coeff, ops in excitation_operator_strings(term, table.n_orbitals)
            if ops
        }
        assert len(priced) == len(set(priced)) == len(angles) < est.rotation_count // plan.steps
        assert set(priced) == angles


class TestPinnedEstimates:
    """estimate-2q outputs on integrals_12, byte for byte: their sha256
    digests are pinned in tests/data/estimate_2q_pins.json."""

    @pytest.mark.parametrize("config", sorted(PINS["json_sha256"]))
    def test_cli_outputs_are_pinned(self, tmp_path, config):
        method, epsilon = config.split()
        json_file, csv_file = tmp_path / "out.json", tmp_path / "out.csv"
        status = cli.main([
            "estimate-2q", "--integrals", str(FIXTURE), *PINS["args"],
            "--method", method, "--epsilon", epsilon,
            "--json", str(json_file), "--csv", str(csv_file),
        ])
        assert status == 0
        assert hashlib.sha256(json_file.read_bytes()).hexdigest() == PINS["json_sha256"][config]
        assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == PINS["csv_sha256"]

    @pytest.mark.parametrize("config", sorted(PINS["estimate_sha256"]))
    def test_estimates_are_pinned_in_both_ladder_modes(self, config):
        method, epsilon, ladder_mode = config.split()
        args = dict(zip(PINS["args"][::2], PINS["args"][1::2]))
        plan = TrotterPlan(
            dt=float(args["--dt"]), readout_bits=int(args["--readout-bits"]),
            method=method, epsilon_max=float(epsilon),
        )
        est = estimate_second_quantized(load_integrals(FIXTURE), plan, ladder_mode=ladder_mode)
        assert hashlib.sha256(repr(est).encode()).hexdigest() == PINS["estimate_sha256"][config]


class TestSmallSystemPhaseEstimation:
    """One-readout-bit phase estimation on a two-orbital table, checked
    against dense diagonalization of the exact per-step propagator."""

    TABLE = IntegralTable(
        2,
        one_body=(
            OneBodyTerm(0, 0, 0.8),
            OneBodyTerm(1, 1, -0.45),
            OneBodyTerm(0, 1, 0.3),
        ),
        two_body=(TwoBodyTerm(0, 1, 1, 0, 0.2),),
    )
    DT = 4.4  # places every eigenphase well away from the readout boundary

    @classmethod
    def pe_circuit(cls, with_measure: bool):
        m = cls.TABLE.n_orbitals
        b = CircuitBuilder(m + 2)
        b.append(gate(H, m))
        for term in cls.TABLE.sorted_terms():
            sub = build_excitation(term, cls.DT, n_orbitals=m, controlled=True)
            for layer in sub.layers:
                for g in layer:
                    b.append(g)
        b.append(gate(H, m))
        if with_measure:
            b.append(measure(m, key=0))
        return b.build()

    @classmethod
    def oracle_eigensystem(cls):
        u = np.eye(4, dtype=np.clongdouble)
        for term in cls.TABLE.sorted_terms():
            u = expm_ld(-1j * cls.DT * term_matrix(term, 2)) @ u
        return np.linalg.eig(u.astype(complex))

    def test_control_marginal_matches_eigenphase(self):
        circ = self.pe_circuit(with_measure=False)
        vals, vecs = self.oracle_eigensystem()
        for k in range(4):
            predicted = math.sin(np.angle(vals[k]) / 2.0) ** 2
            res = run(circ, product_state(4, {(0, 1): vecs[:, k]}), seed=3)
            probs = np.abs(res.state.amps) ** 2
            p1 = float(sum(probs[i] for i in range(16) if (i >> 2) & 1))
            assert abs(p1 - predicted) <= 1e-8

    def test_readout_majority_gives_top_eigenphase_bit(self):
        circ = self.pe_circuit(with_measure=True)
        vals, vecs = self.oracle_eigensystem()
        seen = set()
        for k in range(4):
            predicted = math.sin(np.angle(vals[k]) / 2.0) ** 2
            assert abs(predicted - 0.5) > 0.2  # the fixture guards its margin
            oracle_bit = 1 if predicted > 0.5 else 0
            init = product_state(4, {(0, 1): vecs[:, k]})
            ones = sum(run(circ, init, seed=s).record[0] for s in range(151))
            assert (1 if ones > 75 else 0) == oracle_bit
            seen.add(oracle_bit)
        assert seen == {0, 1}


class TestResourceOrderingWithKickback:
    def test_kickback_sits_between_par_and_sk_here(self):
        # not a contract, just a record of how the models land relative to
        # each other at the default tolerance on the shipped fixture
        kept, _ = apply_cutoff(load_integrals(FIXTURE), 1e-10)
        depths = {
            m: estimate_second_quantized(
                kept, TrotterPlan(dt=0.05, readout_bits=10, method=m)
            ).profile.depth
            for m in (PAR, KICKBACK, SK)
        }
        assert depths[PAR] < depths[KICKBACK] < depths[SK]
