"""Tests for efficient frontiers and cost-function optimization.

Oracles: hand-checked dominance fixtures, brute-force minimization over
all points, and property tests (idempotence, dominated-point insertion,
frontier membership of every monotone optimum) on random point clouds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc.frontier import (
    BUILTIN_COSTS,
    FrontierPoint,
    builtin_cost,
    efficient_frontier,
    optimize_cost,
)

points_strategy = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(
        lambda t: FrontierPoint(qubits=t[0], depth=t[1])
    ),
    min_size=1,
    max_size=40,
)


class TestFrontierPoint:
    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            FrontierPoint(-1, 5)
        with pytest.raises(ValueError):
            FrontierPoint(5, -1)


class TestEfficientFrontier:
    def test_single_point(self):
        pt = FrontierPoint(10, 100)
        assert efficient_frontier([pt]) == [pt]

    def test_dominated_points_removed(self):
        pts = [FrontierPoint(10, 100), FrontierPoint(10, 90), FrontierPoint(20, 90)]
        assert [(p.qubits, p.depth) for p in efficient_frontier(pts)] == [(10, 90)]

    def test_incomparable_points_retained(self):
        pts = [FrontierPoint(10, 100), FrontierPoint(20, 50)]
        assert [(p.qubits, p.depth) for p in efficient_frontier(pts)] == [
            (10, 100),
            (20, 50),
        ]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            efficient_frontier([])

    @given(points_strategy)
    @settings(max_examples=200, deadline=None)
    def test_sorted_and_strictly_improving(self, pts):
        front = efficient_frontier(pts)
        qubits = [p.qubits for p in front]
        depths = [p.depth for p in front]
        assert qubits == sorted(qubits)
        assert len(set(qubits)) == len(qubits)
        assert all(a > b for a, b in zip(depths, depths[1:]))

    @given(points_strategy)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, pts):
        front = efficient_frontier(pts)
        assert efficient_frontier(front) == front

    @given(points_strategy, st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_no_point_on_frontier_is_dominated(self, pts, q, d):
        front = efficient_frontier(pts)
        for p in front:
            dominators = [
                o for o in pts
                if (o.qubits <= p.qubits and o.depth < p.depth)
                or (o.qubits < p.qubits and o.depth <= p.depth)
            ]
            assert not dominators

    @given(points_strategy)
    @settings(max_examples=200, deadline=None)
    def test_adding_a_dominated_point_changes_nothing(self, pts):
        front = efficient_frontier(pts)
        anchor = front[0]
        dominated = FrontierPoint(anchor.qubits + 1, anchor.depth + 1)
        assert efficient_frontier(pts + [dominated]) == front


class TestOptimizeCost:
    FIXTURE = {
        "kickback": efficient_frontier([FrontierPoint(30, 40, "kickback")]),
        "par": efficient_frontier(
            [FrontierPoint(10, 100, "par"), FrontierPoint(25, 60, "par")]
        ),
        "sequence": efficient_frontier([FrontierPoint(12, 95, "sequence")]),
    }

    def test_depth_only(self):
        method, point, cost = optimize_cost(self.FIXTURE, builtin_cost("depth"))
        assert (method, point.depth, cost) == ("kickback", 40, 40.0)

    def test_qubits_only(self):
        method, point, cost = optimize_cost(self.FIXTURE, builtin_cost("qubits"))
        assert (method, point.qubits, cost) == ("par", 10, 10.0)

    def test_weighted_sum_matches_brute_force(self):
        fn = builtin_cost("weighted-sum", alpha=2.0, beta=1.0)
        method, point, cost = optimize_cost(self.FIXTURE, fn)
        everything = [p for front in self.FIXTURE.values() for p in front]
        assert cost == min(fn(p.qubits, p.depth) for p in everything)
        assert fn(point.qubits, point.depth) == cost

    def test_qubit_cap_redirects_the_choice(self):
        method, point, _ = optimize_cost(self.FIXTURE, builtin_cost("depth-with-qubit-cap", cap=26))
        assert method == "par" and point.qubits == 25

    def test_tie_breaks_on_qubits_then_method_name(self):
        tied = {
            "zeta": [FrontierPoint(5, 50, "zeta")],
            "alpha": [FrontierPoint(5, 50, "alpha")],
            "mid": [FrontierPoint(9, 50, "mid")],
        }
        method, point, _ = optimize_cost(tied, builtin_cost("depth"))
        assert method == "alpha"
        assert point.qubits == 5

    def test_custom_callable(self):
        method, _, cost = optimize_cost(self.FIXTURE, lambda q, d: q * d)
        assert cost == min(
            p.qubits * p.depth for front in self.FIXTURE.values() for p in front
        )

    def test_a_nan_cost_raises_and_an_infinite_one_is_kept(self):
        # NaN compares false against every key, so it must not be skipped
        with pytest.raises(ValueError, match="^the cost of sequence at 12 qubits and depth 95 is NaN$"):
            optimize_cost(self.FIXTURE, lambda q, d: math.nan if q == 12 else float(d))
        method, point, cost = optimize_cost(self.FIXTURE, builtin_cost("depth-with-qubit-cap", cap=5))
        assert (method, point.qubits, cost) == ("par", 10, math.inf)

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            optimize_cost({}, builtin_cost("depth"))

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError):
            builtin_cost("surface-area")
        with pytest.raises(ValueError):
            builtin_cost("depth-with-qubit-cap")  # needs a cap

    def test_builtin_names_frozen(self):
        assert BUILTIN_COSTS == ("depth", "qubits", "weighted-sum", "depth-with-qubit-cap")

    @given(
        points_strategy,
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_optimum_lies_on_the_frontier(self, pts, alpha, beta):
        frontiers = {"only": efficient_frontier(pts)}
        fn = builtin_cost("weighted-sum", alpha=alpha, beta=beta)
        _, point, cost = optimize_cost(frontiers, fn)
        assert point in frontiers["only"]
        # and it is the global optimum over the raw cloud too
        assert cost <= min(fn(p.qubits, p.depth) for p in pts) + 1e-9
