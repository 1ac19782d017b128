"""Exact bounded-Lipschitz distance between point-cloud varifolds.

The distance is the supremum of ``integral of phi d(V - W)`` over test
functions with sup norm and Lipschitz constant at most 1 on the product
of R^n with the plane manifold, metrized by

    dist((x, S), (y, T)) = |x - y| + |P_S - P_T|_op.

For discrete measures the supremum is attained by a function defined on
the union of the supports (any feasible assignment of values extends to
the whole space with the same bounds, and clamping to [-1, 1] preserves
feasibility), so the computation is a finite linear program: maximize
``w . phi`` subject to box constraints and the pairwise Lipschitz
constraints.  Its dual is solved instead: the flat-norm (generalized
Wasserstein) transport of the positive part of ``w`` onto the negative
part, where a unit moved costs ``min(d, 2)`` and a unit left in place
costs 1.  HiGHS solves it on a few nearest-neighbour columns, and the
node-balance duals price the missing ones, so the program grows with the
columns the optimum uses rather than with all pairs.  The cost of the
final flow bounds the distance from above; the c-transform of the final
duals is a feasible test function and bounds it from below, and the two
close at the optimum (``bl_distance_detail`` reports both).

The test-function class here is two-sided (phi in [-1, 1]); with the
sum metric above this gives the closed forms ``m * min(2, |x - y|)`` for
equal-mass Dirac pairs and ``|m1 - m2|`` for a shared support point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse

from .errors import DimensionMismatch, EngineError
from .geometry import plane_distances
from .varifold import Varifold

__all__ = [
    "SupportProblem",
    "build_support_problem",
    "bounded_lipschitz_distance",
    "bl_distance_detail",
    "bounded_lipschitz_lower_bound",
]

CONSTRAINT_TOL = 1e-12
SEED_NEIGHBOURS = 8  # opposite-sign neighbours per node in the first round
PRICED_PER_SOURCE = 4  # most negative reduced costs added per source and round
# HiGHS's defaults (1e-7) would let it leave small per-node imbalances
# unbalanced, which on near-coincident states is most of the distance
HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class SupportProblem:
    """Finite program data on the atoms of V followed by those of W."""

    positions: np.ndarray  # (K, n)
    frames: np.ndarray  # (K, d, n)
    weights: np.ndarray  # (K,), signed masses of V - W
    distances: np.ndarray  # (K, K) ground metric

    @property
    def size(self) -> int:
        return self.positions.shape[0]


def _check_compatible(v: Varifold, w: Varifold) -> None:
    if (v.d, v.n) != (w.d, w.n):
        raise DimensionMismatch(
            f"varifolds live in different spaces: ({v.d}, {v.n}) vs ({w.d}, {w.n})"
        )


def build_support_problem(v: Varifold, w: Varifold) -> SupportProblem:
    """V's atoms followed by W's, with signed weights and the pairwise ground metric.

    Coincident atoms stay separate nodes; their ground distance is 0, so
    the transport moves mass between them at no cost.
    """
    _check_compatible(v, w)
    pos = np.concatenate([v.positions, w.positions])
    frm = np.concatenate([v.frames, w.frames])
    weights = np.concatenate([v.masses, -w.masses])
    k = pos.shape[0]
    dist = np.empty((k, k))
    chunk = max(1, 2_000_000 // max(1, k * v.d * v.n))
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        spatial = np.linalg.norm(pos[lo:hi, None, :] - pos[None, :, :], axis=2)
        dist[lo:hi] = spatial + plane_distances(frm[lo:hi, None], frm[None, :])
    return SupportProblem(pos, frm, weights, dist)


def _smallest_per_row(values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the ``count`` smallest entries of each row."""
    rows, width = values.shape
    take = min(count, width)
    if rows == 0 or take == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    cols = np.argpartition(values, take - 1, axis=1)[:, :take]
    return np.repeat(np.arange(rows), take), cols.reshape(-1)


def _solve_support_lp(problem: SupportProblem) -> tuple[float, np.ndarray, int]:
    """The optimum as a min-cost transport, by column generation.

    Mass flows from the positive-weight nodes (sources) to the
    negative-weight ones (sinks): a unit moved from i to j costs d_ij, a
    unit left unmatched costs 1 at its node.  Only opposite-sign pairs with
    d_ij < 2 can carry flow in an optimum, and zero-weight nodes take no
    part.  The columns start from each node's SEED_NEIGHBOURS nearest
    opposite-sign nodes; each round HiGHS solves the restricted problem,
    every missing column is priced with the node-balance duals
    (``d_ij - y_i - z_j``) and at most PRICED_PER_SOURCE of the most
    negative columns per source are added, until none is below
    -CONSTRAINT_TOL.

    The returned test function is the c-transform of the final sink duals,
    ``phi_i = clip(min_j (-z_j + d_ij), -1, 1)`` over the sinks j, taken on
    every support node: it is 1-Lipschitz by the triangle inequality, so
    ``w . phi`` bounds the optimum from below, while the returned value is
    the cost of the final flow, a bound from above.
    Returns (flow cost, phi, pricing rounds).
    """
    k = problem.size
    w = problem.weights
    src, snk = np.flatnonzero(w > 0.0), np.flatnonzero(w < 0.0)
    if src.size + snk.size == 0:
        return 0.0, np.zeros(k), 0
    p, q = src.size, snk.size
    nodes = p + q
    cost = problem.distances[np.ix_(src, snk)]
    rows_a, cols_a = _smallest_per_row(cost, SEED_NEIGHBOURS)
    cols_b, rows_b = _smallest_per_row(cost.T, SEED_NEIGHBOURS)
    seeds = np.unique(np.concatenate([rows_a * q + cols_a, rows_b * q + cols_b]))
    i, j = np.unravel_index(seeds, cost.shape)
    near = cost[i, j] < 2.0
    i, j = i[near], j[near]
    supply = np.abs(w[np.concatenate([src, snk])])
    # HiGHS sees supplies of at most 1, so its feasibility tolerance is relative
    scale = supply.max()
    slack_rows = np.arange(nodes)
    rounds = 0
    while True:
        rounds += 1
        # column (i, j) enters the balance rows of source i and sink j
        a_eq = sparse.csc_array(
            (
                np.ones(2 * i.size + nodes),
                np.concatenate([np.stack([i, p + j], axis=1).reshape(-1), slack_rows]),
                np.concatenate([np.arange(0, 2 * i.size, 2), 2 * i.size + np.arange(nodes + 1)]),
            ),
            shape=(nodes, i.size + nodes),
        )
        res = optimize.linprog(
            np.concatenate([cost[i, j], np.ones(nodes)]),
            A_eq=a_eq,
            b_eq=supply / scale,
            method="highs",
            options=HIGHS_TOLERANCES,
        )
        if not res.success:
            raise EngineError(f"bounded-Lipschitz transport failed: {res.message}")
        # the slack columns cap every dual at 1 (up to round-off, hence the
        # clip), so a pair with d_ij >= 2 never prices negative
        duals = np.minimum(res.eqlin.marginals, 1.0)
        y, z = duals[:p], duals[p:]
        reduced = cost - y[:, None] - z[None, :]
        reduced[i, j] = np.inf
        new_i, new_j = _smallest_per_row(reduced, PRICED_PER_SOURCE)
        entering = reduced[new_i, new_j] < -CONSTRAINT_TOL
        if not entering.any():
            break
        i = np.concatenate([i, new_i[entering]])
        j = np.concatenate([j, new_j[entering]])
    # a feasible flow: each node's flows cut back to its supply, the rest left
    # in place (per node, where supply minus carried mass is exact when close)
    flow = np.maximum(res.x[: i.size], 0.0) * scale
    for node, part in ((i, supply[:p]), (j, supply[p:])):
        carried = np.bincount(node, flow, minlength=part.size)
        flow *= (part / np.maximum(carried, part))[node]
    left = supply - np.concatenate([np.bincount(i, flow, minlength=p), np.bincount(j, flow, minlength=q)])
    upper = float(cost[i, j] @ flow + left.sum())
    transform = np.min(problem.distances[:, snk] - z, axis=1, initial=np.inf)
    return upper, np.clip(transform, -1.0, 1.0), rounds


def bounded_lipschitz_distance(v: Varifold, w: Varifold) -> float:
    """The bounded-Lipschitz distance between two varifolds (exact transport optimum)."""
    value, _, _ = _solve_support_lp(build_support_problem(v, w))
    return value


def bl_distance_detail(v: Varifold, w: Varifold) -> dict:
    """Distance plus solver metadata.

    Gives the support size, the pricing rounds and the certified bracket
    ``[w . phi, flow cost]`` around the distance.
    """
    problem = build_support_problem(v, w)
    value, phi, rounds = _solve_support_lp(problem)
    return {
        "distance": value,
        "support_size": problem.size,
        "iterations": rounds,
        "bracket": [float(np.dot(problem.weights, phi)), value],
    }


def bounded_lipschitz_lower_bound(v: Varifold, w: Varifold, phi) -> float:
    """Certified lower bound from an explicit test function.

    ``phi(position, frame)``, with the node's ``(d, n)`` frame, is evaluated
    on the union support and checked feasible (values in [-1, 1], pairwise
    Lipschitz with respect to the ground metric); the witness value
    ``|sum_i w_i phi_i|`` then bounds the distance from below.
    """
    problem = build_support_problem(v, w)
    if problem.size == 0:
        return 0.0
    values = np.array([float(phi(x, f)) for x, f in zip(problem.positions, problem.frames)])
    if np.any(np.abs(values) > 1.0 + 1e-9):
        raise ValueError("witness is infeasible: values exceed the unit sup bound")
    # pairs i < j, in row blocks of about a million entries
    k = problem.size
    rows = max(1, 1_000_000 // k)
    for lo in range(0, k, rows):
        block = slice(lo, lo + rows)
        slack = np.abs(values[block, None] - values[None, lo:]) - problem.distances[block, lo:]
        if float(np.triu(slack, 1).max()) > 1e-9:
            raise ValueError("witness is infeasible: Lipschitz constraint violated on the support")
    return float(abs(np.dot(problem.weights, values)))
