import tracemalloc

import numpy as np
import pytest
from conftest import ground_metric, random_frame
from scipy.optimize import linear_sum_assignment, linprog

from varmcf.errors import DimensionMismatch
from varmcf.ingest import ShapeSpec, generate
from varmcf.metric import (
    _solve_support_lp,
    bl_distance_detail,
    bounded_lipschitz_distance,
    build_support_problem,
)
from varmcf.varifold import Varifold


def dirac(x, angle=0.0, mass=1.0):
    return Varifold(1, 2, [x], [[[np.cos(angle), np.sin(angle)]]], [mass])


def random_varifold(rng, count, mass=None, spread=1.0):
    positions = spread * rng.standard_normal((count, 2))
    angles = rng.uniform(0.0, np.pi, count)
    frames = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, None, :]
    masses = np.full(count, mass) if mass is not None else rng.random(count) + 0.1
    return Varifold(1, 2, positions, frames, masses)


def assignment_oracle(v, w):
    """Independent optimum via the dual transport problem.

    For varifolds whose atoms all carry one common mass c, the dual of the
    support LP is an assignment problem on mass units: ship a unit at cost
    ``c * min(2, ground distance)`` or absorb it at cost ``c`` on either
    side.  The Hungarian method solves it exactly.
    """
    c = v.masses[0]
    assert np.allclose(v.masses, c) and np.allclose(w.masses, c)
    p, q = len(v), len(w)
    dist = ground_metric(v.positions, v.projectors(), w.positions, w.projectors())
    size = p + q
    cost = np.zeros((size, size))
    cost[:p, :q] = c * np.minimum(2.0, dist)
    cost[:p, q:] = c  # destroy a v unit
    cost[p:, :q] = c  # create a w unit
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


class TestClosedForms:
    def test_identical_varifolds(self):
        v = random_varifold(np.random.default_rng(0), 8)
        assert bounded_lipschitz_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("gap", [0.3, 1.0, 1.9, 2.5, 10.0])
    def test_dirac_pair_min_of_two_and_distance(self, gap):
        m = 0.7
        v = dirac([0.0, 0.0], mass=m)
        w = dirac([gap, 0.0], mass=m)
        expected = m * min(2.0, gap)
        assert bounded_lipschitz_distance(v, w) == pytest.approx(expected, abs=1e-9)

    def test_shared_point_mass_difference(self):
        v = dirac([0.2, -0.1], mass=1.3)
        w = dirac([0.2, -0.1], mass=0.4)
        assert bounded_lipschitz_distance(v, w) == pytest.approx(0.9, abs=1e-12)

    def test_plane_term_enters_the_ground_metric(self):
        v = dirac([0.0, 0.0], angle=0.0)
        w = dirac([0.0, 0.0], angle=np.pi / 2)
        # same position, orthogonal lines: ground distance is 1
        assert bounded_lipschitz_distance(v, w) == pytest.approx(1.0, abs=1e-9)

    def test_coincident_atoms_against_one_atom(self):
        # 0.5 + 0.25 at one point against 0.5 there: only the surplus 0.25 pays
        v = Varifold(1, 2, np.zeros((2, 2)), np.tile(np.eye(1, 2), (2, 1, 1)), [0.5, 0.25])
        w = dirac([0.0, 0.0], mass=0.5)
        assert bounded_lipschitz_distance(v, w) == pytest.approx(0.25, abs=1e-12)

    def test_dimension_mismatch(self):
        v = dirac([0.0, 0.0])
        w = Varifold(1, 3, np.zeros((1, 3)), np.eye(1, 3)[None], [1.0])
        with pytest.raises(DimensionMismatch):
            bounded_lipschitz_distance(v, w)


class TestAgainstOracles:
    def test_two_point_instance_against_literal_grid_search(self):
        # tiny instance where the value grid is exhaustively searchable
        m1, m2, gap = 0.9, 0.6, 1.2
        v = dirac([0.0, 0.0], mass=m1)
        w = dirac([gap, 0.0], mass=m2)
        grid = np.linspace(-1.0, 1.0, 2001)
        p1, p2 = np.meshgrid(grid, grid, indexing="ij")
        feasible = np.abs(p1 - p2) <= gap
        objective = np.where(feasible, m1 * p1 - m2 * p2, -np.inf)
        oracle = float(objective.max())
        assert bounded_lipschitz_distance(v, w) == pytest.approx(oracle, abs=2e-3)

    @pytest.mark.parametrize("seed", range(8))
    def test_ten_atom_instances_against_assignment_oracle(self, seed):
        rng = np.random.default_rng(seed)
        v = random_varifold(rng, 10, mass=0.1)
        w = random_varifold(rng, 10, mass=0.1)
        lp = bounded_lipschitz_distance(v, w)
        oracle = assignment_oracle(v, w)
        assert lp == pytest.approx(oracle, abs=2e-3)

    def test_unbalanced_counts_against_assignment_oracle(self):
        rng = np.random.default_rng(99)
        v = random_varifold(rng, 12, mass=0.25)
        w = random_varifold(rng, 5, mass=0.25)
        assert bounded_lipschitz_distance(v, w) == pytest.approx(
            assignment_oracle(v, w), abs=1e-9
        )


class TestMetricProperties:
    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = random_varifold(rng, 6)
            w = random_varifold(rng, 4)
            d = bounded_lipschitz_distance(v, w)
            assert d >= 0.0
            assert d == pytest.approx(bounded_lipschitz_distance(w, v), abs=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            a = random_varifold(rng, 5)
            b = random_varifold(rng, 5)
            c = random_varifold(rng, 5)
            dab = bounded_lipschitz_distance(a, b)
            dbc = bounded_lipschitz_distance(b, c)
            dac = bounded_lipschitz_distance(a, c)
            assert dac <= dab + dbc + 1e-9

    def test_mass_difference_lower_bound_and_caps(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_varifold(rng, 7)
            w = random_varifold(rng, 3)
            d = bounded_lipschitz_distance(v, w)
            assert d >= abs(v.mass() - w.mass()) - 1e-10
            problem = build_support_problem(v, w)
            assert d <= min(2.0 * (v.mass() + w.mass()), np.abs(problem.weights).sum()) + 1e-10

    def test_zero_iff_equal_as_measures(self):
        v = dirac([0.0, 0.0])
        moved = dirac([1e-6, 0.0])
        assert bounded_lipschitz_distance(v, moved) > 1e-7
        # two coincident half-mass atoms equal one full atom as a measure
        split = Varifold(1, 2, np.zeros((2, 2)), np.tile(np.eye(1, 2), (2, 1, 1)), [0.5, 0.5])
        assert bounded_lipschitz_distance(v, split) == pytest.approx(0.0, abs=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        v = random_varifold(rng, 9)
        w = random_varifold(rng, 9)
        first = bounded_lipschitz_distance(v, w)
        second = bounded_lipschitz_distance(v, w)
        assert abs(first - second) <= 1e-10

    def test_weak_star_continuity_under_refinement(self):
        # successive samplings of the same circle approach each other
        gaps = [
            bounded_lipschitz_distance(
                generate(ShapeSpec("circle", samples=n)),
                generate(ShapeSpec("circle", samples=2 * n)),
            )
            for n in (20, 40, 80)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestSupportProblem:
    def test_weights_sum_to_mass_difference(self):
        rng = np.random.default_rng(5)
        v = random_varifold(rng, 6)
        w = random_varifold(rng, 4)
        problem = build_support_problem(v, w)
        assert problem.weights.sum() == pytest.approx(v.mass() - w.mass(), abs=1e-12)

    def test_distances_symmetric_triangle(self):
        # against itself, V's atoms are the sinks, so the top block of
        # to_sinks is the V x V ground metric
        v = random_varifold(np.random.default_rng(6), 6)
        problem = build_support_problem(v, v)
        p = len(v)
        assert problem.to_sinks.shape == (2 * p, p)
        d = problem.to_sinks[:p]
        assert np.abs(d - d.T).max() <= 1e-12
        assert np.all(np.diag(d) == 0.0)
        for i in range(p):
            for j in range(p):
                assert d[i, j] <= d[i].max() * 2 + 1e-9  # finite
                assert np.all(d[i, j] <= d[i] + d[:, j] + 1e-9)
        _, dense = dense_support(v, v)
        assert np.abs(problem.to_sinks - dense[:, p:]).max() <= 1e-12

    def test_sinks_are_the_positive_mass_atoms_of_w(self):
        rng = np.random.default_rng(12)
        v = random_varifold(rng, 4)
        w = random_varifold(rng, 5)
        w = Varifold(1, 2, w.positions, w.frames, [0.3, 0.0, 0.2, 0.0, 0.1])
        problem = build_support_problem(v, w)
        _, dense = dense_support(v, w)
        sinks = len(v) + np.array([0, 2, 4])
        assert problem.to_sinks.shape == (9, 3)
        assert np.abs(problem.to_sinks - dense[:, sinks]).max() <= 1e-12


def dense_support(v, w):
    """Signed weights and the (K, K) ground metric of V's atoms followed by
    W's, built by the tests' own ground metric."""
    pos = np.concatenate([v.positions, w.positions])
    prj = np.concatenate([v.projectors(), w.projectors()])
    return np.concatenate([v.masses, -w.masses]), ground_metric(pos, prj, pos, prj)


def dense_support_reference(v, w, tol=1e-12):
    """Support with coincident atoms merged by hand: greedy O(K^2) merge and
    n x n SVDs of projector differences."""
    positions, frames, projectors, weights = [], [], [], []
    for source, sign in ((v, 1.0), (w, -1.0)):
        projs = source.projectors()
        for j in range(len(source)):
            for i in range(len(positions)):
                if (
                    np.abs(positions[i] - source.positions[j]).max() <= tol
                    and np.abs(projectors[i] - projs[j]).max() <= tol
                ):
                    weights[i] += sign * source.masses[j]
                    break
            else:
                positions.append(source.positions[j])
                frames.append(source.frames[j])
                projectors.append(projs[j])
                weights.append(sign * source.masses[j])
    pos, prj = np.stack(positions), np.stack(projectors)
    return pos, np.stack(frames), np.array(weights), ground_metric(pos, prj, pos, prj)


def tilted(frame, angle):
    """Frame with its first row turned by ``angle`` towards the last axis."""
    out = frame.copy()
    out[0] = np.cos(angle) * frame[0] + np.sin(angle) * np.eye(frame.shape[1])[-1]
    return out


class TestSupportBuildAgainstDenseReference:
    """Coincident atoms stay separate nodes; the transport must give the
    distance of the hand-merged support."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_planted_duplicates(self, d):
        rng = np.random.default_rng(100 + d)
        n = 3
        frames = [random_frame(rng, d, n) for _ in range(30)]
        positions = list(rng.standard_normal((30, n)))
        masses = list(rng.random(30) + 0.1)
        # duplicates within V: exact copies of atoms 0 and 1
        for j in (0, 1, 0):
            positions.append(positions[j].copy())
            frames.append(frames[j])
            masses.append(rng.random() + 0.1)
        # a position chain 0.7e-12 apart: the middle atom merges, the last does not
        base = np.array([0.25, -0.5, 0.75])
        axis = np.eye(d, n)  # span of the first d axes; the tilt leaves it
        for k in range(3):
            positions.append(base + np.array([0.7e-12 * k, 0.0, 0.0]))
            frames.append(axis)
            masses.append(0.5)
        v = Varifold(d, n, np.stack(positions), np.stack(frames), np.array(masses))

        w_pos = [v.positions[j].copy() for j in (2, 3, 30)]  # shared with V
        w_frm = [v.frames[j] for j in (2, 3, 30)]
        for gap in (0.5e-12, 2e-12):  # near-duplicates of atom 4 and of the base atom
            w_pos.append(v.positions[4] + gap * np.array([1.0, -1.0, 1.0]))
            w_frm.append(v.frames[4])
            w_pos.append(base.copy())
            w_frm.append(tilted(axis, gap))
        w_pos.extend(rng.standard_normal((10, n)))
        w_frm.extend(random_frame(rng, d, n) for _ in range(10))
        count = len(w_pos)
        w = Varifold(d, n, np.stack(w_pos), np.stack(w_frm), rng.random(count) + 0.1)

        _, _, weights, dist = dense_support_reference(v, w)
        # 3 within V, 1 in the chain, 3 shared and the two 0.5e-12 near-duplicates
        assert weights.size == len(v) + len(w) - 9
        detail = assert_certified(v, w)
        assert detail["support_size"] == len(v) + len(w)
        assert detail["distance"] == pytest.approx(dense_dual_lp(weights, dist), abs=1e-10)


def bounded_lipschitz_lower_bound(v, w, phi):
    """Certified lower bound from an explicit test function.

    ``phi(position, frame)``, with the node's ``(d, n)`` frame, is evaluated
    on the union support and checked feasible (values in [-1, 1], pairwise
    Lipschitz with respect to the tests' ground metric); the witness value
    ``|sum_i w_i phi_i|`` then bounds the distance from below.
    """
    problem = build_support_problem(v, w)
    if problem.size == 0:
        return 0.0
    values = np.array([float(phi(x, f)) for x, f in zip(problem.positions, problem.frames)])
    if np.any(np.abs(values) > 1.0 + 1e-9):
        raise ValueError("witness is infeasible: values exceed the unit sup bound")
    pos = problem.positions
    prj = np.concatenate([v.projectors(), w.projectors()])
    # pairs i < j, in row blocks of about a million entries
    k = problem.size
    rows = max(1, 1_000_000 // k)
    for lo in range(0, k, rows):
        block = slice(lo, lo + rows)
        dist = ground_metric(pos[block], prj[block], pos[lo:], prj[lo:])
        slack = np.abs(values[block, None] - values[None, lo:]) - dist
        if float(np.triu(slack, 1).max()) > 1e-9:
            raise ValueError("witness is infeasible: Lipschitz constraint violated on the support")
    return float(abs(np.dot(problem.weights, values)))


class TestLowerBound:
    def test_zero_witness(self):
        rng = np.random.default_rng(7)
        v, w = random_varifold(rng, 4), random_varifold(rng, 4)
        assert bounded_lipschitz_lower_bound(v, w, lambda x, p: 0.0) == 0.0

    def test_constant_witness_gives_mass_gap(self):
        rng = np.random.default_rng(8)
        v, w = random_varifold(rng, 5), random_varifold(rng, 3)
        got = bounded_lipschitz_lower_bound(v, w, lambda x, p: 1.0)
        assert got == pytest.approx(abs(v.mass() - w.mass()), abs=1e-12)

    def test_clamped_distance_witness_recovers_dirac_distance(self):
        m, gap = 0.7, 1.4
        target = np.array([gap, 0.0])
        v = dirac([0.0, 0.0], mass=m)
        w = dirac([gap, 0.0], mass=m)

        def witness(x, frame):
            return float(np.clip(np.linalg.norm(x - target) - 1.0, -1.0, 1.0))

        got = bounded_lipschitz_lower_bound(v, w, witness)
        assert got == pytest.approx(m * min(2.0, gap), abs=1e-12)
        assert got <= bounded_lipschitz_distance(v, w) + 1e-9

    def test_infeasible_witness_rejected(self):
        rng = np.random.default_rng(9)
        v, w = random_varifold(rng, 4), random_varifold(rng, 4)
        with pytest.raises(ValueError):
            bounded_lipschitz_lower_bound(v, w, lambda x, p: 3.0)
        # a unit jump across two support points 0.1 apart breaks Lipschitz
        near_a, near_b = dirac([0.0, 0.0]), dirac([0.1, 0.0])
        with pytest.raises(ValueError):
            bounded_lipschitz_lower_bound(
                near_a, near_b, lambda x, p: 1.0 if x[0] > 0.05 else -1.0
            )

    def test_lipschitz_check_spans_row_blocks(self):
        # 1,200 support points are checked in more than one row block; the
        # only violation is the pair of the last two points, a unit jump
        # across a gap of 0.01
        count = 1200
        x = np.stack([0.01 * np.arange(count), np.zeros(count)], axis=1)
        frames = np.tile([[[1.0, 0.0]]], (count, 1, 1))
        v = Varifold(1, 2, x, frames, np.ones(count))
        w = dirac([0.0, 5.0])
        end = x[-1, 0] - 0.005

        def ramp(x, frame):
            return float(np.clip(x[0] - 6.0, -1.0, 1.0))

        assert bounded_lipschitz_lower_bound(v, w, ramp) >= 0.0
        with pytest.raises(ValueError, match="Lipschitz"):
            bounded_lipschitz_lower_bound(v, w, lambda x, p: 1.0 if x[0] > end else 0.0)

    def test_any_feasible_witness_is_a_lower_bound(self):
        rng = np.random.default_rng(10)
        v, w = random_varifold(rng, 6), random_varifold(rng, 6)
        d = bounded_lipschitz_distance(v, w)
        anchors = rng.standard_normal((5, 2))
        for anchor in anchors:
            def witness(x, frame, a=anchor):
                return float(np.clip(np.linalg.norm(x - a) - 1.0, -1.0, 1.0))

            assert bounded_lipschitz_lower_bound(v, w, witness) <= d + 1e-9


def assert_certified(v, w):
    """Check the bracket of ``bl_distance_detail`` and the test function behind it.

    The lower end must be ``w . phi`` for the returned ``phi``, and ``phi``
    must pass the feasibility checks of ``bounded_lipschitz_lower_bound``.
    """
    detail = bl_distance_detail(v, w)
    lower, upper = detail["bracket"]
    assert lower - 1e-12 <= detail["distance"] <= upper
    assert upper - lower <= 1e-9
    problem = build_support_problem(v, w)
    _, phi, _ = _solve_support_lp(problem)
    assert float(np.dot(problem.weights, phi)) == lower

    def witness(x, frame):
        # coincident nodes share a row of the ground metric, hence their phi
        at = (problem.positions == x).all(axis=1) & (problem.frames == frame).all(axis=(1, 2))
        return phi[np.flatnonzero(at)[0]]

    assert bounded_lipschitz_lower_bound(v, w, witness) == pytest.approx(abs(lower), abs=1e-12)
    return detail


class TestDetail:
    def test_detail_fields(self):
        rng = np.random.default_rng(11)
        v, w = random_varifold(rng, 5), random_varifold(rng, 5)
        detail = bl_distance_detail(v, w)
        assert set(detail) == {"distance", "support_size", "iterations", "bracket"}
        assert detail["support_size"] == 10
        assert detail["iterations"] >= 1
        assert detail["distance"] == pytest.approx(bounded_lipschitz_distance(v, w), abs=1e-10)
        assert_certified(v, w)

    def test_lopsided_support_stays_small(self):
        # 2,000 atoms against 10 sinks: memory follows K * q, not K^2
        # (a (K, K) float64 ground metric alone would be 31 MiB)
        big = generate(ShapeSpec("circle", samples=2000))
        small = generate(ShapeSpec("circle", samples=10, radius=0.5))
        tracemalloc.start()
        try:
            detail = bl_distance_detail(big, small)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        lower, upper = detail["bracket"]
        assert upper - lower <= 1e-9


def dense_dual_lp(weights, dist):
    """The distance as one dense LP: maximize w . phi over the box [-1, 1]
    and all K(K-1)/2 pairs of Lipschitz rows of the (K, K) ground metric
    ``dist``, with no column generation."""
    k = weights.size
    assert 0 < k <= 120
    iu, ju = np.triu_indices(k, 1)
    pair = np.arange(iu.size)
    a_ub = np.zeros((2 * iu.size, k))
    a_ub[2 * pair, iu], a_ub[2 * pair, ju] = 1.0, -1.0
    a_ub[2 * pair + 1, iu], a_ub[2 * pair + 1, ju] = -1.0, 1.0
    b_ub = np.repeat(dist[iu, ju], 2)
    res = linprog(-weights, A_ub=a_ub, b_ub=b_ub, bounds=[(-1.0, 1.0)] * k, method="highs")
    assert res.success
    return float(-res.fun)


class TestTransportAgainstDenseReference:
    """The column-generated transport against the dense dual LP, to 1e-9."""

    def check(self, v, w):
        detail = assert_certified(v, w)
        reference = dense_dual_lp(*dense_support(v, w))
        assert detail["distance"] == pytest.approx(reference, abs=1e-9)
        return detail

    @pytest.mark.parametrize("seed", range(5))
    def test_criterion_08_pairs(self, seed):
        rng = np.random.default_rng(seed)
        self.check(random_varifold(rng, 10, mass=0.1), random_varifold(rng, 10, mass=0.1))

    def test_equal_mass_pairs_exercise_pricing(self):
        rounds = []
        for count in (30, 60):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                v = random_varifold(rng, count, mass=1.0 / count, spread=0.5)
                w = random_varifold(rng, count, mass=1.0 / count, spread=0.5)
                rounds.append(self.check(v, w)["iterations"])
        assert max(rounds) >= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_unequal_masses(self, seed):
        rng = np.random.default_rng(20 + seed)
        self.check(random_varifold(rng, 40, spread=0.5), random_varifold(rng, 25, spread=0.5))

    def test_planted_merges_leave_zero_weight_nodes(self):
        rng = np.random.default_rng(30)
        v = random_varifold(rng, 30, spread=0.5)
        extra = random_varifold(rng, 20, spread=0.5)
        # atoms 0-9 of V reappear in W with their own mass, atoms 10-14 with less
        masses = np.concatenate([v.masses[:10], 0.5 * v.masses[10:15], extra.masses])
        w = Varifold(
            1,
            2,
            np.concatenate([v.positions[:15], extra.positions]),
            np.concatenate([v.frames[:15], extra.frames]),
            masses,
        )
        problem = build_support_problem(v, w)
        # the shared atoms stay separate nodes, paired at zero ground distance
        assert problem.size == len(v) + len(w)
        self.check(v, w)

    def test_empty_w(self):
        v = random_varifold(np.random.default_rng(40), 12)
        detail = self.check(v, Varifold.empty(1, 2))
        assert detail["distance"] == pytest.approx(v.mass(), abs=1e-12)

    def test_near_coincident_states_keep_small_imbalances(self):
        # W is V translated by delta with every mass scaled by 1 - eta; for a
        # shift below half the atom spacing the value is N (m eta + m' delta):
        # phi = 1 on V and 1 - delta on W attains it.  Each node's imbalance
        # m eta is 5e-8 of the largest supply, under the default 1e-7 feasibility
        # tolerance of HiGHS.
        v = generate(ShapeSpec("circle", samples=100))
        delta, eta = 4e-7, 5e-8
        m = v.masses[0]
        w = Varifold(1, 2, v.positions + [delta, 0.0], v.frames, v.masses * (1.0 - eta))
        expected = 100 * (m * eta + m * (1.0 - eta) * delta)
        detail = assert_certified(v, w)
        assert detail["distance"] == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert detail["bracket"][0] == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_supports_more_than_two_apart_need_no_column(self):
        rng = np.random.default_rng(50)
        v = random_varifold(rng, 15, spread=0.3)
        far = random_varifold(rng, 10, spread=0.3)
        w = Varifold(1, 2, far.positions + [10.0, 0.0], far.frames, far.masses)
        detail = self.check(v, w)
        assert detail["iterations"] == 1
        assert detail["distance"] == pytest.approx(v.mass() + w.mass(), abs=1e-12)
