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
constraints.  The LP is solved by HiGHS with lazily generated Lipschitz
rows, which keeps memory linear until constraints actually bind.

The test-function class here is two-sided (phi in [-1, 1]); with the
sum metric above this gives the closed forms ``m * min(2, |x - y|)`` for
equal-mass Dirac pairs and ``|m1 - m2|`` for a shared support point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse
from scipy.spatial import cKDTree

from .errors import DimensionMismatch, EngineError
from .geometry import Plane, plane_distances
from .varifold import Varifold

__all__ = [
    "SupportProblem",
    "build_support_problem",
    "bounded_lipschitz_distance",
    "bl_distance_detail",
    "bounded_lipschitz_lower_bound",
]

DEDUP_TOL = 1e-12
CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True)
class SupportProblem:
    """Finite program data on the deduplicated union of two supports."""

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
    """Union support with signed weights and the pairwise ground metric.

    Atoms whose positions and projectors agree within 1e-12 (entrywise) are
    merged: in input order (V, then W), each atom joins the first kept atom
    it matches, and weights add for V and subtract for W.
    """
    _check_compatible(v, w)
    n, d = v.n, v.d
    positions = np.concatenate([v.positions, w.positions])
    frames = np.concatenate([v.frames, w.frames])
    signed = np.concatenate([v.masses, -w.masses])
    count = positions.shape[0]
    if count == 0:
        return SupportProblem(np.zeros((0, n)), np.zeros((0, d, n)), np.zeros(0), np.zeros((0, 0)))

    # candidate pairs (i < j) by position, then the projector test on those only
    pairs = cKDTree(positions).query_pairs(DEDUP_TOL, p=np.inf, output_type="ndarray")
    target = np.arange(count)
    if pairs.size:
        i, j = pairs[:, 0], pairs[:, 1]
        proj_i = np.einsum("jdi,jdk->jik", frames[i], frames[i])
        proj_j = np.einsum("jdi,jdk->jik", frames[j], frames[j])
        match = np.abs(proj_i - proj_j).max(axis=(1, 2)) <= DEDUP_TOL
        i, j = i[match], j[match]
        order = np.lexsort((i, j))
        # a kept atom's status is final before any later atom is tested against it
        for a, b in zip(i[order].tolist(), j[order].tolist()):
            if target[b] == b and target[a] == a:
                target[b] = a
    kept = np.flatnonzero(target == np.arange(count))
    slot = np.zeros(count, dtype=int)
    slot[kept] = np.arange(kept.size)
    weights = np.zeros(kept.size)
    np.add.at(weights, slot[target], signed)

    pos = positions[kept]
    frm = frames[kept]
    k = kept.size
    dist = np.empty((k, k))
    chunk = max(1, 2_000_000 // (k * d * n))
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        spatial = np.linalg.norm(pos[lo:hi, None, :] - pos[None, :, :], axis=2)
        dist[lo:hi] = spatial + plane_distances(frm[lo:hi, None], frm[None, :])
    np.fill_diagonal(dist, 0.0)
    return SupportProblem(pos, frm, weights, dist)


def _solve_support_lp(problem: SupportProblem) -> tuple[float, np.ndarray, int]:
    """Maximize w . phi over the box-and-Lipschitz polytope.

    Lipschitz rows are generated lazily: solve with the current rows, add
    every violated pair, repeat.  The problem is always feasible (phi = 0)
    and bounded (box), so HiGHS cannot fail; a failure raises.
    Returns (optimum, phi, lp_iterations).
    """
    k = problem.size
    if k == 0:
        return 0.0, np.zeros(0), 0
    w = problem.weights
    dist = problem.distances
    iu, ju = np.triu_indices(k, 1)
    active = np.zeros(iu.size, dtype=bool)
    rounds = 0
    phi = np.zeros(k)
    while True:
        rounds += 1
        if active.any():
            # each pair (i, j) gives the rows phi_i - phi_j <= d and phi_j - phi_i <= d
            i, j = iu[active], ju[active]
            cols = np.stack([i, j, i, j], axis=1).reshape(-1)
            signs = np.tile([1.0, -1.0, -1.0, 1.0], i.size)
            a_ub = sparse.csr_array(
                (signs, cols, np.arange(0, cols.size + 1, 2)), shape=(2 * i.size, k)
            )
            b_ub = np.repeat(dist[i, j], 2)
        else:
            a_ub, b_ub = None, None
        res = optimize.linprog(
            -w, A_ub=a_ub, b_ub=b_ub, bounds=[(-1.0, 1.0)] * k, method="highs"
        )
        if not res.success:
            raise EngineError(f"bounded-Lipschitz LP failed: {res.message}")
        phi = res.x
        gaps = np.abs(phi[iu] - phi[ju]) - dist[iu, ju]
        violated = gaps > CONSTRAINT_TOL
        if not violated.any():
            return float(-res.fun), phi, rounds
        active |= violated


def bounded_lipschitz_distance(v: Varifold, w: Varifold) -> float:
    """The bounded-Lipschitz distance between two varifolds (exact LP optimum)."""
    value, _, _ = _solve_support_lp(build_support_problem(v, w))
    return value


def bl_distance_detail(v: Varifold, w: Varifold) -> dict:
    """Distance plus solver metadata (support size, lazy-constraint rounds)."""
    problem = build_support_problem(v, w)
    value, phi, rounds = _solve_support_lp(problem)
    return {
        "distance": value,
        "support_size": problem.size,
        "iterations": rounds,
    }


def bounded_lipschitz_lower_bound(v: Varifold, w: Varifold, phi) -> float:
    """Certified lower bound from an explicit test function.

    ``phi(position, plane)`` is evaluated on the union support and checked
    feasible (values in [-1, 1], pairwise Lipschitz with respect to the
    ground metric); the witness value ``|sum_i w_i phi_i|`` then bounds the
    distance from below.
    """
    problem = build_support_problem(v, w)
    if problem.size == 0:
        return 0.0
    values = np.array(
        [float(phi(problem.positions[i], Plane(problem.frames[i]))) for i in range(problem.size)]
    )
    if np.any(np.abs(values) > 1.0 + 1e-9):
        raise ValueError("witness is infeasible: values exceed the unit sup bound")
    iu, ju = np.triu_indices(problem.size, 1)
    slack = np.abs(values[iu] - values[ju]) - problem.distances[iu, ju]
    if slack.size and float(slack.max()) > 1e-9:
        raise ValueError("witness is infeasible: Lipschitz constraint violated on the support")
    return float(abs(np.dot(problem.weights, values)))
