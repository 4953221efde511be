"""Pareto frontiers over (qubits, depth) operating points.

Every compilation method yields a cloud of operating points: machine
size on one axis, execution depth on the other.  The efficient frontier
keeps, for each achievable size, the smallest achievable depth; picking
an implementation is then a matter of minimizing a cost function over
the frontiers of all candidate methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "FrontierPoint",
    "efficient_frontier",
    "optimize_cost",
    "builtin_cost",
    "COST_DEPTH",
    "COST_QUBITS",
    "COST_WEIGHTED",
    "COST_CAPPED",
    "BUILTIN_COSTS",
]

COST_DEPTH = "depth"
COST_QUBITS = "qubits"
COST_WEIGHTED = "weighted-sum"
COST_CAPPED = "depth-with-qubit-cap"
BUILTIN_COSTS = (COST_DEPTH, COST_QUBITS, COST_WEIGHTED, COST_CAPPED)


@dataclass(frozen=True)
class FrontierPoint:
    """One operating point: machine size against execution depth.

    method tags where the point came from.
    """

    qubits: int
    depth: int
    method: str = ""

    def __post_init__(self) -> None:
        if self.qubits < 0 or self.depth < 0:
            raise ValueError("coordinates must be non-negative")


def efficient_frontier(points: Iterable[FrontierPoint]) -> list[FrontierPoint]:
    """Pareto-minimal subset: for each qubit count the smallest depth,
    with dominated sizes removed.

    Sorted by qubits ascending; depth is strictly decreasing along the
    result (a larger machine only stays interesting if it is faster).
    Ties at identical coordinates keep the first point listed.
    """
    pts = list(points)
    if not pts:
        raise ValueError("frontier of an empty point set")
    best: dict[int, FrontierPoint] = {}
    for pt in pts:
        cur = best.get(pt.qubits)
        if cur is None or pt.depth < cur.depth:
            best[pt.qubits] = pt
    out: list[FrontierPoint] = []
    for q in sorted(best):
        pt = best[q]
        if not out or pt.depth < out[-1].depth:
            out.append(pt)
    return out


def builtin_cost(
    name: str, *, alpha: float = 1.0, beta: float = 1.0, cap: int | None = None
) -> Callable[[int, int], float]:
    """Named cost functions over (qubits, depth).

    depth and qubits read off one coordinate; weighted-sum is
    alpha*qubits + beta*depth; depth-with-qubit-cap is depth where the
    machine fits under cap qubits and +inf where it does not.
    """
    if name == COST_DEPTH:
        return lambda qubits, depth: float(depth)
    if name == COST_QUBITS:
        return lambda qubits, depth: float(qubits)
    if name == COST_WEIGHTED:
        return lambda qubits, depth: alpha * qubits + beta * depth
    if name == COST_CAPPED:
        if cap is None:
            raise ValueError("depth-with-qubit-cap needs a cap")
        return lambda qubits, depth: float(depth) if qubits <= cap else math.inf
    raise ValueError(f"unknown cost function {name!r}; built-ins: {', '.join(BUILTIN_COSTS)}")


def optimize_cost(
    frontiers: Mapping[str, Sequence[FrontierPoint]],
    cost: Callable[[int, int], float],
) -> tuple[str, FrontierPoint, float]:
    """Global argmin of a cost function across per-method frontiers.

    cost is a callable over (qubits, depth), such as one builtin_cost
    returns.  Returns (method, point, cost value); ties break toward
    fewer qubits, then the lexicographically smaller method name.  A
    cost of +inf is a value like any other; a NaN cost orders against
    nothing, so it raises ValueError naming its point.
    """
    best: tuple[float, int, str, FrontierPoint] | None = None
    for method in sorted(frontiers):
        for pt in frontiers[method]:
            key = (cost(pt.qubits, pt.depth), pt.qubits, method)
            if math.isnan(key[0]):
                raise ValueError(f"the cost of {method} at {pt.qubits} qubits and depth {pt.depth} is NaN")
            if best is None or key < (best[0], best[1], best[2]):
                best = (*key, pt)
    if best is None:
        raise ValueError("no points to optimize over")
    return best[2], best[3], best[0]
