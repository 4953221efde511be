"""Sequence synthesis: canonical net enumeration, Solovay-Kitaev, and the
breadth-first minimal search, each checked against independent oracles."""

import hashlib
import math

import numpy as np
import pytest

from ftqc import synth
from ftqc.core import GATE_MATRICES, dist, rz_matrix
from ftqc.synth import (
    ALPHABET,
    REDUCTIONS,
    GateSequence,
    adjoint_kinds,
    balanced_commutator_factors,
    build_net,
    compose_kinds,
    min_sequence,
    solovay_kitaev,
    synthesize,
    unitary_key,
)


def haar_su2(rng):
    """A uniform unit quaternion is a Haar-random SU(2) element."""
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * d, c + 1j * b], [-c + 1j * b, a - 1j * d]])


def words_digest(words):
    h = hashlib.sha256()
    for kinds in words:
        h.update((" ".join(kinds) + "\n").encode())
    return h.hexdigest()


def dist_to_each(reps, v):
    """dist(r, v) for every row r of reps (flattened 2x2 matrices), by the
    same difference form as core.dist, zero-overlap case included."""
    overlap = reps.conj() @ v.ravel()
    size = np.abs(overlap)
    phase = np.ones_like(overlap)
    nonzero = size > 0
    phase[nonzero] = overlap[nonzero].conj() / size[nonzero]
    diff = reps - phase[:, None] * v.ravel()
    return np.sqrt(np.einsum("ij,ij->i", diff.conj(), diff).real / (2 * 2))


def brute_distinct_by_level(max_len):
    """Independent enumeration: no canonicalization, no shared key function.

    Dedup is pairwise distance clustering with a threshold far above float
    noise and far below the observed in-group gap (~0.14 at these lengths).
    Each candidate is compared with all representatives in one numpy call.
    """
    reps = np.zeros((64, 4), dtype=complex)
    reps[0] = np.eye(2).ravel()
    count = 1
    levels = [[np.eye(2, dtype=complex)]]
    frontier = levels[0]
    for _ in range(max_len):
        new = []
        for u in frontier:
            for g in ALPHABET:
                v = GATE_MATRICES[g] @ u
                if np.all(dist_to_each(reps[:count], v) >= 1e-6):
                    if count == len(reps):
                        reps = np.concatenate([reps, np.zeros_like(reps)])
                    reps[count] = v.ravel()
                    count += 1
                    new.append(v)
        levels.append(new)
        frontier = new
    return levels


def brute_min_length(target, eps, levels):
    for length, mats in enumerate(levels):
        for u in mats:
            if dist(u, target) <= eps:
                return length
    return None


class TestReductions:
    def test_identity_pairs(self):
        assert REDUCTIONS[("H", "H")] == ()
        assert REDUCTIONS[("T", "TDG")] == ()
        assert REDUCTIONS[("S", "SDG")] == ()

    def test_phase_gate_merges(self):
        assert REDUCTIONS[("T", "T")] == ("S",)
        assert REDUCTIONS[("S", "S")] == ("Z",)
        assert REDUCTIONS[("TDG", "TDG")] == ("SDG",)

    def test_pauli_products(self):
        assert REDUCTIONS[("X", "Y")] == ("Z",)
        assert REDUCTIONS[("Y", "Z")] == ("X",)

    def test_irreducible_pairs_absent(self):
        assert ("S", "T") not in REDUCTIONS
        assert ("H", "T") not in REDUCTIONS
        assert ("T", "H") not in REDUCTIONS


class TestUnitaryKey:
    def test_phase_invariance(self):
        u = GATE_MATRICES["H"] @ GATE_MATRICES["T"]
        assert unitary_key(u) == unitary_key(np.exp(0.7j) * u)

    def test_distinct_gates_distinct_keys(self):
        keys = {unitary_key(GATE_MATRICES[k]) for k in ALPHABET}
        assert len(keys) == len(ALPHABET)


class TestNet:
    def test_level_one_contains_alphabet(self):
        db = build_net(1)
        for k in ALPHABET:
            assert (k,) in db

    def test_level_two_examples(self):
        db = build_net(2)
        assert ("H", "T") in db
        assert ("T", "T") not in db  # merged into the shorter S
        assert ("T", "TDG") not in db  # cancels
        # the unitary of T,T is still represented, by S
        np.testing.assert_array_less(
            dist(db.matrix(("S",)), compose_kinds(("T", "T"))), 1e-6
        )

    def test_sizes_match_independent_enumeration(self):
        db = build_net(5)
        brute = brute_distinct_by_level(5)
        net_sizes = [len(lvl.kinds) for lvl in db.levels()]
        assert net_sizes == [len(level) for level in brute]

    def test_vectorized_oracle_matches_loop(self):
        # reference: the same enumeration with one dist call per pair
        reps = [np.eye(2, dtype=complex)]
        levels = [[np.eye(2, dtype=complex)]]
        for _ in range(5):
            new = []
            for u in levels[-1]:
                for g in ALPHABET:
                    v = GATE_MATRICES[g] @ u
                    if all(dist(r, v) >= 1e-6 for r in reps):
                        reps.append(v)
                        new.append(v)
            levels.append(new)
        fast = brute_distinct_by_level(5)
        assert [len(level) for level in fast] == [len(level) for level in levels]
        for got, want in zip(fast, levels):
            np.testing.assert_array_equal(np.array(got), np.array(want))

    def test_every_brute_element_is_represented(self):
        db = build_net(4)
        net_mats = [m for lvl in db.levels() for m in lvl.stack]
        for level in brute_distinct_by_level(4):
            for u in level:
                assert any(dist(m, u) < 1e-6 for m in net_mats)

    def test_size_monotone(self):
        sizes = [len(build_net(n)) for n in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            build_net(17)

    def test_matrices_match_sequences(self):
        db = build_net(3)
        for kinds in list(db.sequences())[:40]:
            assert dist(db.matrix(kinds), compose_kinds(kinds)) < 1e-12


class TestBalancedCommutator:
    def test_reconstructs_rotation(self):
        from ftqc.synth import _rotation_about

        rng = np.random.default_rng(4)
        for _ in range(40):
            theta = rng.uniform(1e-3, 1.5)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            delta = _rotation_about(axis, theta)
            v, w = balanced_commutator_factors(delta)
            assert dist(v @ w @ v.conj().T @ w.conj().T, delta) < 1e-6

    def test_identity_shortcut(self):
        v, w = balanced_commutator_factors(np.eye(2, dtype=complex))
        np.testing.assert_allclose(v, np.eye(2))
        np.testing.assert_allclose(w, np.eye(2))


class TestSolovayKitaev:
    def test_target_in_net(self):
        db = build_net(6)
        for level in (0, 1, 2):
            seq = solovay_kitaev(rz_matrix(math.pi / 4), level, db)
            assert seq.kinds == ("T",)
            assert seq.achieved_distance <= 1e-10

    def test_level_zero_matches_linear_scan(self):
        db = build_net(5)
        target = rz_matrix(0.1)
        seq = solovay_kitaev(target, 0, db)
        # oracle: plain scan over every stored sequence
        best = min(
            ((dist(compose_kinds(k), target), len(k), k) for k in db.sequences()),
        )
        assert seq.kinds == best[2]
        assert abs(seq.achieved_distance - best[0]) < 1e-12

    def test_median_improves_with_level(self):
        # a length-6 base net is too coarse for the commutator correction to
        # beat plain nearest-lookup; length 9 gives it enough resolution
        db = build_net(9)
        rng = np.random.default_rng(17)
        d0, d2 = [], []
        for _ in range(50):
            target = rz_matrix(rng.uniform(0, 2 * math.pi))
            d0.append(solovay_kitaev(target, 0, db).achieved_distance)
            d2.append(solovay_kitaev(target, 2, db).achieved_distance)
        assert np.median(d2) < np.median(d0)

    def test_achieved_distance_invariant(self):
        # the reported distance must be that of the emitted word, at every
        # level up to words of ~165k gates
        db = build_net(14)
        rng = np.random.default_rng(23)
        for target in [rz_matrix(2.714)] + [haar_su2(rng) for _ in range(5)]:
            for level in range(7):
                seq = solovay_kitaev(target, level, db)
                honest = dist(compose_kinds(seq.kinds), target)
                assert abs(seq.achieved_distance - honest) <= 1e-12

    def test_level_three_beats_lookup(self):
        # The commutator must correct toward the target on either SU(2)
        # branch of delta; a branch near -I makes every level worse.
        def rotation(angle, axis):
            n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
            ns = sum(c * GATE_MATRICES[p] for c, p in zip(n, "XYZ"))
            return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * ns

        rng = np.random.default_rng(31)
        haar = [haar_su2(rng) for _ in range(30)]
        targets = [rz_matrix(2.714), rotation(2.22, (math.cos(1.0), math.sin(1.0), 0.5))] + haar
        db = build_net(14)
        for target in targets:
            d0 = solovay_kitaev(target, 0, db).achieved_distance
            d3 = solovay_kitaev(target, 3, db).achieved_distance
            assert d3 < d0

    def test_rejects_bad_target(self):
        db = build_net(2)
        with pytest.raises(ValueError):
            solovay_kitaev(np.eye(3), 0, db)
        with pytest.raises(ValueError):
            solovay_kitaev(np.ones((2, 2)), 0, db)
        with pytest.raises(ValueError):
            solovay_kitaev(rz_matrix(0.3), -1, db)


class TestSynthesize:
    def test_escalation_stops_at_the_sk_floor(self, monkeypatch):
        # RZ(0.7) reaches about 4e-10 at level 6; level 7's commutator
        # correction is the identity, so it rebuilds the level-6 word and
        # escalation must end there, without computing level 8
        calls = []
        real_sk = synth.solovay_kitaev

        def counted(target, level, db):
            calls.append((level, real_sk(target, level, db)))
            return calls[-1][1]

        monkeypatch.setattr(synth, "solovay_kitaev", counted)
        seq = synthesize(rz_matrix(0.7), 1e-11)
        assert [level for level, _ in calls] == list(range(1, 8))
        level6, level7 = calls[5][1], calls[6][1]
        assert level7.kinds == level6.kinds
        assert level7.achieved_distance == level6.achieved_distance
        assert seq.kinds == level6.kinds
        assert seq.achieved_distance == level6.achieved_distance > 1e-11
        assert not seq.satisfied


class TestMinSequence:
    def test_exact_singles(self):
        seq = min_sequence(rz_matrix(math.pi / 2), 1e-10)
        assert seq.kinds == ("S",) and seq.length == 1 and seq.satisfied

    def test_t_at_tight_epsilon(self):
        seq = min_sequence(rz_matrix(math.pi / 4), 1e-9)
        assert seq.kinds == ("T",) and seq.satisfied

    def test_epsilon_monotonicity(self):
        # pi/8 sits near the worst-case coverage of the length-bounded net
        # (best distance ~0.11 within length 12), so neither tolerance is
        # reachable; both searches exhaust the bound and return their best,
        # and the best-at-looser-epsilon can never be longer
        loose = min_sequence(rz_matrix(math.pi / 8), 0.06, max_len=12)
        tight = min_sequence(rz_matrix(math.pi / 8), 0.01, max_len=12)
        assert loose.length <= tight.length
        assert loose.achieved_distance <= tight.achieved_distance + 1e-12

    def test_non_satisfying_flagged(self):
        seq = min_sequence(rz_matrix(1.0), 1e-6, max_len=4)
        assert not seq.satisfied
        assert seq.achieved_distance > 1e-6
        assert abs(seq.achieved_distance - dist(seq.matrix(), rz_matrix(1.0))) <= 1e-12

    def test_optimal_against_brute_force(self):
        levels = brute_distinct_by_level(7)
        rng = np.random.default_rng(41)
        for _ in range(6):
            target = rz_matrix(rng.uniform(0, 2 * math.pi))
            eps = 0.15
            expect = brute_min_length(target, eps, levels)
            got = min_sequence(target, eps, max_len=7)
            if expect is None:
                assert not got.satisfied
            else:
                assert got.satisfied and got.length == expect

    def test_length_counts(self):
        seq = GateSequence(("X", "T", "H", "TDG"), np.eye(2), 0.0)
        assert seq.length == 4
        assert seq.non_pauli_length == 3
        assert seq.t_count == 2

    def test_to_gates(self):
        seq = min_sequence(rz_matrix(math.pi / 4), 1e-9)
        gates = seq.to_gates(2)
        assert [g.kind for g in gates] == ["T"]
        assert gates[0].qubits == (2,)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            min_sequence(rz_matrix(0.3), 0.0)

    def test_budget_bound(self):
        with pytest.raises(ValueError):
            min_sequence(rz_matrix(0.3), 1e-3, max_len=17)
        with pytest.raises(ValueError):
            min_sequence(rz_matrix(0.3), 1e-3, max_len=-1)

    def test_length_trend_grows_with_precision(self):
        rng = np.random.default_rng(15)
        angles = rng.uniform(0, 2 * math.pi, 10)
        ladder = (0.5, 0.2, 0.12)
        means = []
        for eps in ladder:
            results = [min_sequence(rz_matrix(a), eps, max_len=14) for a in angles]
            assert all(r.satisfied for r in results)
            means.append(np.mean([r.length for r in results]))
        assert means == sorted(means)
        assert means[-1] > means[0]

    def test_adjoint_kinds(self):
        kinds = ("H", "T", "S", "X")
        adj = adjoint_kinds(kinds)
        assert adj == ("X", "SDG", "TDG", "H")
        np.testing.assert_allclose(
            compose_kinds(adj), compose_kinds(kinds).conj().T, atol=1e-12
        )


class TestGoldenWords:
    """Digests of emitted words, pinned so that a faster lookup or
    recursion must reproduce every choice, tie-breaks included."""

    def test_solovay_kitaev_words(self):
        db = build_net(14)
        rng = np.random.default_rng(2024)
        targets = [rz_matrix(a) for a in rng.uniform(0, 2 * math.pi, 12)]
        targets += [haar_su2(rng) for _ in range(10)]
        words = [solovay_kitaev(t, level, db).kinds for t in targets for level in range(5)]
        assert words_digest(words) == (
            "9e737d1c0530a982a29ae8fa568de71fed95b0d91a27f80277c97329526e5207"
        )

    def test_synthesize_words(self):
        # at 0.05 about half of the targets fall through to SK
        rng = np.random.default_rng(2025)
        targets = [rz_matrix(a) for a in rng.uniform(0, 2 * math.pi, 250)]
        targets += [haar_su2(rng) for _ in range(250)]
        words = [synthesize(t, eps).kinds for eps in (0.12, 0.05) for t in targets]
        assert words_digest(words) == (
            "5e15ea45a0eea5d93db76122c79fbb2db55662ecaa863243a0a05398bc3e6d5a"
        )

    def test_exact_words(self):
        for word in (("T",), ("S",), ("T", "H")):
            seq = synthesize(compose_kinds(word), 1e-9)
            assert seq.kinds == word and seq.satisfied
