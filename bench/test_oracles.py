"""Each benchmark check accepts a correct output and rejects a corrupted one.

    python3 -m pytest bench/test_oracles.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as orc  # noqa: E402
from oracles import Mismatch  # noqa: E402

from ftqc import kickback, qvr, sim, synth  # noqa: E402


def test_sequence_check_rejects_one_changed_gate():
    target = orc.z_rotation(0.7)
    seq = synth.synthesize(target, 1e-3)
    kinds = tuple(seq.kinds)
    orc.check_sequence(kinds, target, 1e-3, seq.achieved_distance, seq.t_count)
    i = next(j for j, k in enumerate(kinds) if k == "H")
    changed = kinds[:i] + ("S",) + kinds[i + 1:]
    with pytest.raises(Mismatch):
        orc.check_sequence(changed, target, 1e-3, seq.achieved_distance, orc.t_count(changed))


def test_sequence_check_rejects_a_wrong_t_count():
    target = orc.z_rotation(0.3)
    seq = synth.synthesize(target, 1e-2)
    with pytest.raises(Mismatch, match="T count"):
        orc.check_sequence(tuple(seq.kinds), target, 1e-2, seq.achieved_distance, seq.t_count + 1)


def test_known_words_and_their_neighbours():
    for word in (("T",), ("S",), ("T", "H")):
        orc.check_sequence(word, orc.compose(word), 1e-12, 0.0, orc.t_count(word))
    with pytest.raises(Mismatch):
        orc.check_sequence(("H", "T"), orc.compose(("T", "H")), 1e-9, 0.0, 1)


def _ladder(target, top):
    db = synth.build_net(orc.NET_DEPTH)
    return [(tuple(s.kinds), s.achieved_distance, s.t_count)
            for s in (synth.solovay_kitaev(target, level, db) for level in range(top + 1))]


def _honest(kinds, target):
    return kinds, orc.fowler_distance(orc.compose(kinds), target), orc.t_count(kinds)


def test_sk_ladder_check_rejects_a_recursion_cut_short():
    target = orc.z_rotation(1.1)
    ladder = _ladder(target, 3)
    orc.check_sk_ladder(ladder, target)
    with pytest.raises(Mismatch, match="too short"):  # each level runs one level too few
        orc.check_sk_ladder([ladder[0]] + ladder[:3], target)
    with pytest.raises(Mismatch, match="too short"):  # every level returns the level-0 lookup
        orc.check_sk_ladder([ladder[0]] * 4, target)
    with pytest.raises(Mismatch, match="beyond the net"):
        orc.check_sk_ladder([_honest(ladder[0][0] + ("H",) * 20, target)] + ladder[1:], target)


def test_sk_ladder_check_rejects_a_tail_that_is_no_commutator():
    target = orc.z_rotation(0.4)
    ladder = _ladder(target, 1)
    base, word = ladder[0][0], ladder[1][0]
    assert orc.is_commutator_tail(word[len(base):])
    tail = list(word[len(base):])
    tail[-1] = {"T": "S", "S": "T"}.get(tail[-1], "T")  # one gate changed
    with pytest.raises(Mismatch, match="no group commutator"):
        orc.check_sk_ladder([ladder[0], _honest(base + tuple(tail), target)], target)
    with pytest.raises(Mismatch, match="does not extend"):
        orc.check_sk_ladder([ladder[0], _honest(("X",) + word, target)], target)


def test_closed_form_gates_match_their_definitions():
    assert orc.fowler_distance(orc.compose(("T", "T")), orc.GATE_MATRICES["S"]) < 1e-15
    assert orc.fowler_distance(orc.compose(("H", "Z", "H")), orc.GATE_MATRICES["X"]) < 1e-15
    assert orc.fowler_distance(orc.compose(("S", "H", "S", "H", "S", "H")), np.eye(2)) < 1e-15


def test_adder_check_rejects_an_output_off_by_one():
    n, addend = 4, 11
    u = sim.to_unitary(kickback.build_adder(kickback.AdderSpec(kickback.RIPPLE_CARRY, n), addend))
    orc.check_adder_unitary(u, n, addend)
    with pytest.raises(Mismatch, match="x \\+ addend"):
        orc.check_adder_unitary(u, n, addend + 1)
    psi = np.exp(1j * np.arange(1 << n)) / 4.0
    out = np.zeros(1 << (2 * n - 1), dtype=complex)
    out[(np.arange(1 << n) + addend + 1) % (1 << n)] = psi
    with pytest.raises(Mismatch):
        orc.check_shifted_state(out, psi, n, addend)


def test_kickback_check_rejects_a_flipped_phase_sign():
    n, k, phi = 6, 5, 2.0
    reg = kickback.GammaRegister(k, n)
    rot = kickback.kickback_rotation(phi, reg)
    m, _ = sim.effective_unitary(rot.circuit, (rot.layout.target,), {rot.layout.gamma: kickback.gamma_state(reg).amps})
    expected = np.diag([1.0, orc.phases([orc.grid_phase(phi, n)])[0]])
    orc.check_equal(m, expected, 1e-10, "kickback")
    with pytest.raises(Mismatch):
        orc.check_equal(m.conj(), expected, 1e-10, "kickback")


def test_qvr_check_rejects_a_flipped_phase_sign():
    xi, q = Fraction(13, 16), 3
    params = qvr.qvr_params(float(xi), q)
    lay = qvr.qvr_layout(params)
    m, _ = sim.effective_unitary(qvr.build_qvr_kickback(params), lay.theta,
                                 {lay.gamma: qvr.eigenstate_for(params).amps})
    orc.check_equal(m, orc.qvr_diagonal(xi, q), 1e-10, "qvr")
    with pytest.raises(Mismatch):
        orc.check_equal(m, orc.qvr_diagonal(-xi, q), 1e-10, "qvr")


def test_unitarity_check_rejects_leakage():
    orc.check_unitary(np.diag([1.0, 1j]))
    with pytest.raises(Mismatch):
        orc.check_unitary(np.diag([1.0, 0.999]))


def test_excitation_closed_form_matches_a_dense_exponential():
    n, creators, annihilators, h, dt = 5, (0, 3), (1, 4), -0.7, 0.9
    dim = 1 << n
    a = np.column_stack([orc.apply_term(np.eye(dim)[:, j].astype(complex), n, creators, annihilators, h)
                         for j in range(dim)])
    assert np.allclose(a, a.conj().T)
    w, v = np.linalg.eigh(a)
    propagator = v @ np.diag(np.exp(-1j * w * dt)) @ v.conj().T
    psi = np.exp(1j * np.arange(dim)) / math.sqrt(dim)
    orc.check_same_ray(orc.excitation_expected(psi, n, creators, annihilators, h, dt), propagator @ psi, 1e-12, "x")
    with pytest.raises(Mismatch):
        orc.check_same_ray(orc.excitation_expected(psi, n, creators, annihilators, -h, dt),
                           propagator @ psi, 1e-9, "x")


def test_strict_json_rejects_non_finite_numbers():
    assert orc.strict_json('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(Mismatch):
            orc.strict_json(bad)


def _record(depth=6, steps=3):
    per = {"depth": depth, "t_count": 4, "total_gates": 9, "qubits": 5}
    prof = {"depth": depth * steps, "t_count": 4 * steps, "total_gates": 9 * steps, "qubits": 5}
    return {"steps": steps, "profile": prof, "per_step": per, "wall_clock_seconds": depth * steps * 1e-3,
            "rotation_depth": 2 * steps, "clifford_depth": (depth - 2) * steps, "terms": 7}


def test_2q_record_check_rejects_inconsistent_totals():
    orc.check_2q_record(_record(), 2, 1e-3, 7)
    bad = _record()
    bad["profile"]["t_count"] += 1
    with pytest.raises(Mismatch, match="per_step"):
        orc.check_2q_record(bad, 2, 1e-3, 7)
    bad = _record()
    bad["wall_clock_seconds"] *= 2
    with pytest.raises(Mismatch, match="wall_clock"):
        orc.check_2q_record(bad, 2, 1e-3, 7)


def test_method_family_check_rejects_a_misordered_depth():
    def rec(depth, count=10):
        return {"rotation_count": count, "profile": {"depth": depth}}
    family = {("par", 1e-4): rec(1), ("sequence", 1e-4): rec(2), ("sk", 1e-4): rec(3)}
    orc.check_method_family(family)
    with pytest.raises(Mismatch, match="par < sequence < sk"):
        orc.check_method_family({**family, ("sk", 1e-4): rec(2)})
    with pytest.raises(Mismatch, match="rotation_count"):
        orc.check_method_family({**family, ("par", 1e-4): rec(1, count=11)})


def test_frontier_check_rejects_a_dominated_point():
    clouds = {"a": {(10, 5), (12, 3), (12, 4), (15, 3)}, "b": {(7, 9)}}
    rows = [["method", "qubits", "depth"], ["a", "10", "5"], ["a", "12", "3"], ["b", "7", "9"]]
    record = {"frontier_sizes": {"a": 2, "b": 1}, "argmin": {"method": "a", "qubits": 12, "depth": 3}}
    orc.check_frontier(clouds, rows, record)
    with pytest.raises(Mismatch, match="non-dominated"):
        orc.check_frontier(clouds, rows + [["a", "15", "3"]], record)


def test_1q_curve_check_rejects_broken_shapes():
    rounds = [b - 1 + b % 2 for b in range(2, 9)]
    inplace = [[b, 100 + 40 * r, 0, 3 * b] for b, r in zip(range(2, 9), rounds)]
    parallel = [[b, 1000 + (b > 3), 0, 5 * b * b + b + 1] for b in range(2, 9)]
    orc.check_1q_curves(inplace, parallel)
    bent = [row[:] for row in inplace]
    bent[-1][1] += 1
    with pytest.raises(Mismatch, match="linear"):
        orc.check_1q_curves(bent, parallel)
    growing = [[b, 1000 * b, 0, q] for b, _, _, q in parallel]
    with pytest.raises(Mismatch, match="flat"):
        orc.check_1q_curves(inplace, growing)


def test_par_check_rejects_a_mean_beyond_four_sigma():
    m, trials = 6, 20000
    mean = sum(j * 2.0 ** -j for j in range(1, m + 1)) + m * 2.0 ** -m
    rec = {"expected_rounds": mean, "trials": trials, "histogram": {"1": trials}, "mean_rounds": mean,
           "mean_gates": 2 * mean, "fallback_rate": 312 / trials}
    orc.check_par_record(rec, m, trials)
    with pytest.raises(Mismatch, match="4 sigma"):
        orc.check_par_record({**rec, "mean_rounds": mean + 0.05, "mean_gates": 2 * (mean + 0.05)}, m, trials)
    with pytest.raises(Mismatch, match="fallback"):
        orc.check_par_record({**rec, "fallback_rate": 400 / trials}, m, trials)


def test_rare_fallbacks_use_the_exact_binomial_tail():
    p = 2.0 ** -20
    assert orc.binomial_within_four_sigma(0, 20000, p)
    assert orc.binomial_within_four_sigma(1, 20000, p)
    assert not orc.binomial_within_four_sigma(3, 20000, p)
