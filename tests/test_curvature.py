import numpy as np
import pytest

from varmcf.curvature import (
    QuadratureSpec,
    _lattice,
    curvature_field,
    dissipation,
)
from varmcf.errors import QuadratureBudgetExceeded
from varmcf.ingest import ShapeSpec, generate
from varmcf.kernel import Kernel
from varmcf.varifold import Varifold, first_variation


def field_divergence(v, field):
    return first_variation(v, field.differentials)


def circle(n_atoms, radius=1.0):
    return generate(ShapeSpec("circle", samples=n_atoms, radius=radius))


def planar_rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotation_x(angle):
    rot = np.eye(3)
    rot[1:, 1:] = planar_rotation(angle)
    return rot


def rotation_z(angle):
    rot = np.eye(3)
    rot[:2, :2] = planar_rotation(angle)
    return rot


def single_atom(mass=1.0):
    return Varifold(1, 2, np.zeros((1, 2)), np.eye(1, 2)[None], [mass])


def arc_quadrature_mass(kernel, y, radius=1.0, nodes=100_000):
    """1-d arc-length oracle for the smoothed mass of the unit-density circle."""
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    seg = 2.0 * np.pi * radius / nodes
    return float(np.sum(kernel.values(pts - y)) * seg)


def arc_quadrature_first_variation(kernel, y, radius=1.0, nodes=100_000):
    """Arc-length oracle for the smoothed first variation of the circle."""
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    tangents = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    grads = kernel.gradients(pts - y)
    proj = tangents * np.einsum("ji,ji->j", tangents, grads)[:, None]
    return proj.sum(axis=0) * (2.0 * np.pi * radius / nodes)


def lattice_reference(v, kernel, spec):
    """Every lattice cell against every atom, cut at r: the sums `curvature_field` takes.

    Returns the velocities, differentials and dissipation, the sums of the
    absolute terms behind the largest velocity and differential (the scale
    of their rounding, which stays nonzero where symmetry cancels a sum),
    the set of (atom, cell id) pairs of nonzero kernel value, with the
    C-order cell ids of `_lattice`, and the cell centres in id order.
    """
    r = spec.radius(kernel.eps)
    h = 2.0 * r / spec.points_per_axis
    lo = v.positions.min(axis=0) - r
    hi = v.positions.max(axis=0) + r
    counts = np.ceil((hi - lo) / h).astype(int)
    mid = 0.5 * (lo + hi)
    axes = [mid[i] + (np.arange(k) - 0.5 * (k - 1)) * h for i, k in enumerate(counts)]
    cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, v.n)
    diff = v.positions[None, :, :] - cells[:, None, :]  # (cells, atoms, n)
    near = np.linalg.norm(diff, axis=2) <= r
    flat = diff.reshape(-1, v.n)
    val = np.where(near, kernel.values(flat).reshape(near.shape), 0.0)
    grad = np.where(near[..., None], kernel.gradients(flat).reshape(diff.shape), 0.0)
    projectors = np.einsum("jdi,jdk->jik", v.frames, v.frames)
    mass = val @ v.masses
    var = np.einsum("j,jik,cjk->ci", v.masses, projectors, grad)
    denom = mass + kernel.eps
    raw = -var / denom[:, None]
    volume = h**v.n
    velocities = volume * np.einsum("cj,ci->ji", val, raw)
    differentials = volume * np.einsum("ca,cjb->jab", raw, grad)
    rate = volume * float(np.sum(np.einsum("ci,ci->c", var, var) / denom))
    size = np.linalg.norm(raw, axis=1)
    scales = (
        volume * float(np.max(val.T @ size)),
        volume * float(np.max(np.einsum("cj,c->j", np.linalg.norm(grad, axis=2), size))),
    )
    c, j = np.nonzero(val)
    pairs = set(zip(j.tolist(), c.tolist()))
    return velocities, differentials, rate, scales, pairs, cells


def block_values(kernel, spec, diff):
    """The kernel values `curvature_field` weighs a block's candidates with."""
    r2 = np.einsum("bis,bis->bs", diff, diff)
    val, _ = kernel._value_and_grad_scalar(r2, spec.radius(kernel.eps))
    return val


def weighted_pairs(v, kernel, spec):
    """The (atom, cell id) candidates of `_lattice` with nonzero kernel value, in block order."""
    _, _, blocks = _lattice(v, kernel, spec)
    listed = []
    for atoms, diff, ids in blocks():
        b, s = np.nonzero(block_values(kernel, spec, diff))
        listed.extend(zip(atoms[b].tolist(), ids[b, s].tolist()))
    return listed


def space_curve(count):
    """A closed curve in R^3 (d = 1, n = 3): a circle tilted out of every axis plane."""
    t = 2.0 * np.pi * np.arange(count) / count
    x = np.stack([np.cos(t), np.sin(t), 0.3 * np.sin(2.0 * t)], axis=1)
    tangents = np.stack([-np.sin(t), np.cos(t), 0.6 * np.cos(2.0 * t)], axis=1)
    speed = np.linalg.norm(tangents, axis=1)
    frames = (tangents / speed[:, None])[:, None, :]
    return Varifold(1, 3, x, frames, speed * 2.0 * np.pi / count)


def on_cell_faces():
    # at eps 0.2 and 8 points per axis h = 0.25 and the lattice is 12 x 8
    # cells, so each atom sits on a face between two cells along both axes
    # and the nearest cell is a rint tie
    return Varifold(1, 2, [[0.0, 0.0], [1.0, 0.0]], [[[1.0, 0.0]], [[0.6, 0.8]]], [1.0, 0.5])


def far_clusters():
    # a long, narrow lattice (33 x 10 cells at eps 0.1 and 8 points per
    # axis): candidates off its short axis wrap into neighbouring rows of
    # the linear index
    x = [[0.0, 0.0], [0.1, 0.05], [3.0, 0.2], [3.1, 0.25]]
    frames = [[[1.0, 0.0]], [[0.6, 0.8]], [[0.0, 1.0]], [[0.8, -0.6]]]
    return Varifold(1, 2, x, frames, [1.0, 0.5, 0.75, 1.25])


class TestStencilAgainstBruteForce:
    @pytest.mark.parametrize(
        "make, eps, q",
        [
            (lambda: circle(40), 0.1, 16),
            (lambda: generate(ShapeSpec("sphere", samples=30)), 0.3, 8),
            (lambda: space_curve(30), 0.2, 8),
            (single_atom, 0.2, 16),
            (far_clusters, 0.1, 8),
            (on_cell_faces, 0.2, 8),
        ],
        ids=[
            "circle-d1-n2", "sphere-d2-n3", "curve-d1-n3", "single-atom", "far-clusters", "cell-faces"
        ],
    )
    def test_field_and_pairs_match_every_cell_against_every_atom(self, make, eps, q):
        v = make()
        kernel, spec = Kernel.create(v.n, eps), QuadratureSpec(q)
        velocities, differentials, rate, scales, pairs, _ = lattice_reference(v, kernel, spec)
        field = curvature_field(v, kernel, spec)
        assert np.abs(field.velocities - velocities).max() <= 1e-12 * scales[0]
        assert np.abs(field.differentials - differentials).max() <= 1e-12 * scales[1]
        assert field.dissipation == pytest.approx(rate, rel=1e-12, abs=0.0)
        # near r = 1 the cutoff takes the weights toward 0, so a pair missed
        # there could pass the field checks; each must be a candidate once
        listed = weighted_pairs(v, kernel, spec)
        assert len(listed) == len(set(listed)) and set(listed) == pairs

    @pytest.mark.parametrize(
        "make, eps",
        [
            (lambda: circle(100), 0.1),
            (lambda: generate(ShapeSpec("sphere", samples=100)), 0.2),
            (lambda: space_curve(60), 0.2),
        ],
        ids=["circle-n2", "sphere-n3", "curve-n3"],
    )
    def test_block_differences_are_c_contiguous(self, make, eps):
        # the stencil axis is the last, so the field's passes run at unit stride
        v = make()
        kernel = Kernel.create(v.n, eps)
        _, _, blocks = _lattice(v, kernel, QuadratureSpec())
        for _, diff, _ in blocks():
            assert diff.flags.c_contiguous


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(points_per_axis=2)
        for factor in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="domain_radius_factor"):
                QuadratureSpec(domain_radius_factor=factor)
        for nodes in (0, -1):
            with pytest.raises(ValueError, match=f"max_nodes must be >= 1, got {nodes}"):
                QuadratureSpec(max_nodes=nodes)

    def test_lattice_weights_integrate_the_kernel(self):
        # the cells weighted for a single atom integrate the kernel; at
        # factor 8 the ball holds all but exp(-32) of the Gaussian
        eps = 0.12
        kernel = Kernel.create(2, eps)
        spec = QuadratureSpec(24, 8.0)
        atom = Varifold(1, 2, [[0.3, -0.2]], [[[1.0, 0.0]]], [1.0])
        _, h, blocks = _lattice(atom, kernel, spec)
        total = 0.0
        for _, diff, _ in blocks():
            val = block_values(kernel, spec, diff)
            total += val.sum()
            weighted = val != 0.0
            assert np.all(np.linalg.norm(diff, axis=1)[weighted] <= spec.radius(eps))
        assert h**2 * total == pytest.approx(1.0, abs=1e-6)

    def test_budget_enforced(self):
        spec = QuadratureSpec(points_per_axis=64, max_nodes=1000)
        with pytest.raises(QuadratureBudgetExceeded):
            curvature_field(circle(20), Kernel.create(2, 0.2), spec)
        # two close atoms: the 9 x 8 lattice fits, their 138 stencil candidates do not
        pair = Varifold(1, 2, [[0.0, 0.0], [0.01, 0.0]], [[[1.0, 0.0]]] * 2, [1.0, 1.0])
        spec = QuadratureSpec(points_per_axis=8, max_nodes=80)
        with pytest.raises(QuadratureBudgetExceeded, match="138 stencil candidates exceed budget 80"):
            curvature_field(pair, Kernel.create(2, 0.2), spec)

    def test_candidate_budget_is_checked_before_any_kernel_call(self, monkeypatch):
        # 100 atoms in R^3 at 16 points per axis: 2,945 candidates each
        v = generate(ShapeSpec("sphere", samples=100))
        kernel = Kernel.create(3, 0.2)
        curvature_field(v, kernel, QuadratureSpec(max_nodes=294_500))
        evaluated = []
        evaluate = Kernel._value_and_grad_scalar

        def counting(self, r2, *args):
            evaluated.append(np.size(r2))
            return evaluate(self, r2, *args)

        monkeypatch.setattr(Kernel, "_value_and_grad_scalar", counting)
        spec = QuadratureSpec(max_nodes=294_499)
        with pytest.raises(QuadratureBudgetExceeded, match="294500 stencil candidates exceed"):
            curvature_field(v, kernel, spec)
        assert evaluated == []

    def test_refined_doubles_points(self):
        spec = QuadratureSpec()
        assert spec.refined().points_per_axis == 2 * spec.points_per_axis


def _pair_convolutions(
    kernel: Kernel,
    points: np.ndarray,
    positions: np.ndarray,
    frames: np.ndarray,
    masses: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed mass and first variation of the given atoms at many points.

    Returns ``(mass (P,), variation (P, n))`` with
    ``variation_p = sum_j m_j P_j grad(x_j - y_p)``.
    """
    npts = points.shape[0]
    n = points.shape[1]
    if positions.shape[0] == 0 or npts == 0:
        return np.zeros(npts), np.zeros((npts, n))
    diffs = positions[None, :, :] - points[:, None, :]
    r2 = np.einsum("pjn,pjn->pj", diffs, diffs)
    val, slope = kernel._value_and_grad_scalar(r2)
    mass = val @ masses
    grads = slope[:, :, None] * diffs
    tangential = np.einsum("jdn,pjn->pjd", frames, grads)
    variation = np.einsum("j,jdn,pjd->pn", masses, frames, tangential)
    return mass, variation


def smoothed_mass(v: Varifold, kernel: Kernel, y: np.ndarray) -> float:
    """Kernel-smoothed mass at a point: ``sum_j m_j Phi(x_j - y)`` (exact sum)."""
    y = np.asarray(y, dtype=float).reshape(1, -1)
    mass, _ = _pair_convolutions(kernel, y, v.positions, v.frames, v.masses)
    return float(mass[0])


def smoothed_first_variation(v: Varifold, kernel: Kernel, y: np.ndarray) -> np.ndarray:
    """Kernel-smoothed first variation at a point (exact sum over atoms)."""
    y = np.asarray(y, dtype=float).reshape(1, -1)
    _, var = _pair_convolutions(kernel, y, v.positions, v.frames, v.masses)
    return var[0]


def raw_curvature(v: Varifold, kernel: Kernel, y: np.ndarray) -> np.ndarray:
    """Pointwise regularized curvature before the outer smoothing.

    ``- smoothed_first_variation / (smoothed_mass + eps)``; the eps in the
    denominator keeps the field bounded everywhere.
    """
    y = np.asarray(y, dtype=float).reshape(1, -1)
    mass, var = _pair_convolutions(kernel, y, v.positions, v.frames, v.masses)
    return -var[0] / (mass[0] + kernel.eps)


class TestSmoothedMass:
    def test_far_point_vanishes(self):
        v = circle(30)
        kernel = Kernel.create(2, 0.1)
        assert smoothed_mass(v, kernel, np.array([5.0, 0.0])) == 0.0

    def test_single_atom_peak(self):
        kernel = Kernel.create(2, 0.2)
        v = single_atom(mass=0.7)
        expected = 0.7 * kernel.values(np.zeros((1, 2)))[0]
        assert smoothed_mass(v, kernel, np.zeros(2)) == pytest.approx(expected, rel=1e-14)

    def test_circle_matches_arc_oracle(self):
        kernel = Kernel.create(2, 0.1)
        v = circle(400)
        y = v.positions[17]
        oracle = arc_quadrature_mass(kernel, y)
        assert smoothed_mass(v, kernel, y) == pytest.approx(oracle, rel=0.01)


class TestSmoothedFirstVariation:
    def test_single_atom_center(self):
        kernel = Kernel.create(2, 0.2)
        v = single_atom()
        assert np.abs(smoothed_first_variation(v, kernel, np.zeros(2))).max() == 0.0

    def test_reflection_symmetric_pair_cancels(self):
        # two atoms mirror-symmetric about y with matching planes
        frames = np.tile(np.eye(1, 2), (2, 1, 1))
        v = Varifold(1, 2, [[0.3, 0.1], [-0.3, -0.1]], frames, [1.0, 1.0])
        kernel = Kernel.create(2, 0.25)
        val = smoothed_first_variation(v, kernel, np.zeros(2))
        assert np.abs(val).max() <= 1e-14

    def test_circle_points_outward(self):
        kernel = Kernel.create(2, 0.05)
        v = circle(400)
        y = v.positions[5]
        val = smoothed_first_variation(v, kernel, y)
        oracle = arc_quadrature_first_variation(kernel, y)
        assert np.linalg.norm(val - oracle) <= 0.02 * np.linalg.norm(oracle)
        outward = y / np.linalg.norm(y)
        assert np.dot(val, outward) > 0.0


class TestRawCurvature:
    def test_far_point(self):
        v = circle(30)
        kernel = Kernel.create(2, 0.1)
        assert np.abs(raw_curvature(v, kernel, np.array([7.0, 0.0]))).max() == 0.0

    def test_single_atom_center(self):
        kernel = Kernel.create(2, 0.3)
        assert np.abs(raw_curvature(single_atom(), kernel, np.zeros(2))).max() == 0.0

    def test_circle_points_inward(self):
        kernel = Kernel.create(2, 0.05)
        v = circle(400)
        y = v.positions[42]
        val = raw_curvature(v, kernel, y)
        assert np.dot(val, y / np.linalg.norm(y)) < 0.0

    def test_bounded_by_scaling_law(self):
        # |raw| <= c1 M eps^-2 with the recomputed constants
        rng = np.random.default_rng(2)
        for eps in (0.1, 0.3):
            kernel = Kernel.create(2, eps)
            from varmcf.kernel import unit_ball_volume

            c1 = 2.0 * (1.0 + unit_ball_volume(2) * kernel.c0) * (1.0 + kernel.c0)
            for count in (1, 20):
                v = circle(max(count, 3))
                cap = max(1.0, v.mass())
                pts = rng.standard_normal((50, 2))
                vals = np.array([raw_curvature(v, kernel, p) for p in pts])
                assert np.linalg.norm(vals, axis=1).max() <= c1 * cap * eps**-2


class TestCurvatureField:
    def test_single_atom_velocity_vanishes(self):
        kernel = Kernel.create(2, 0.3)
        field = curvature_field(single_atom(), kernel, QuadratureSpec())
        assert np.abs(field.velocities).max() <= 1e-8

    def test_crossing_lines_center_is_stationary(self):
        v = generate(ShapeSpec("crossing-lines", samples=21, length=2.0))
        kernel = Kernel.create(2, 0.2)
        field = curvature_field(v, kernel, QuadratureSpec())
        center = np.flatnonzero(np.linalg.norm(v.positions, axis=1) == 0.0)
        assert len(center) == 2
        assert np.abs(field.velocities[center]).max() <= 1e-8

    def test_circle_recovers_curvature(self):
        kernel = Kernel.create(2, 0.05)
        v = circle(400)
        field = curvature_field(v, kernel, QuadratureSpec())
        speeds = np.linalg.norm(field.velocities, axis=1)
        assert np.all((0.9 <= speeds) & (speeds <= 1.1))
        inward = -v.positions / np.linalg.norm(v.positions, axis=1, keepdims=True)
        cosines = np.einsum("ji,ji->j", field.velocities, inward) / speeds
        assert np.all(cosines >= np.cos(np.radians(5.0)))

    @pytest.mark.parametrize(
        "kind, samples, eps, rot, h_band, dh_band",
        [
            ("circle", 400, 0.05, planar_rotation(0.3), 1e-4, 3e-3),
            ("sphere", 100, 0.2, rotation_x(0.5) @ rotation_z(0.3), 2e-3, 8e-3),
            ("torus", 400, 0.1, rotation_x(0.9) @ rotation_z(0.4), 1e-4, 3e-4),
        ],
        ids=["circle", "sphere", "torus"],
    )
    def test_field_is_rotation_equivariant(self, kind, samples, eps, rot, h_band, dh_band):
        # the lattice is not rotated with the state, so the field of the
        # rotated state differs from the rotated field by quadrature error
        # only; the bands were fixed before the first run, at 4-21x the
        # defects measured at the default quadrature
        v = generate(ShapeSpec(kind, samples=samples))
        turned = Varifold(v.d, v.n, v.positions @ rot.T, v.frames @ rot.T, v.masses)
        kernel = Kernel.create(v.n, eps)
        base = curvature_field(v, kernel, QuadratureSpec())
        field = curvature_field(turned, kernel, QuadratureSpec())
        h_defect = np.abs(field.velocities - base.velocities @ rot.T).max()
        dh_defect = np.abs(field.differentials - rot @ base.differentials @ rot.T).max()
        assert h_defect <= h_band * np.abs(base.velocities).max()
        assert dh_defect <= dh_band * np.abs(base.differentials).max()

    def test_differential_matches_finite_differences(self):
        # central differences of the velocity sum in the atom's position,
        # with the atom's lattice cells and the raw field on them held fixed;
        # the raw field sums the atoms within the kernel ball of each cell
        kernel = Kernel.create(2, 0.05)
        v = circle(150)
        spec = QuadratureSpec()
        field = curvature_field(v, kernel, spec)
        *_, pairs, centres = lattice_reference(v, kernel, spec)
        atom = 7
        cells = centres[sorted(c for j, c in pairs if j == atom)]

        def cut_raw(z):
            near = np.linalg.norm(v.positions - z, axis=1) <= spec.radius(kernel.eps)
            ball = Varifold(1, 2, v.positions[near], v.frames[near], v.masses[near])
            return raw_curvature(ball, kernel, z)

        raw = np.array([cut_raw(z) for z in cells])
        volume = (2.0 * spec.radius(kernel.eps) / spec.points_per_axis) ** 2

        def velocity_at(x):
            return volume * kernel.values(x - cells) @ raw

        h = 1e-5
        fd = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (velocity_at(v.positions[atom] + e) - velocity_at(v.positions[atom] - e)) / (
                2.0 * h
            )
        analytic = field.differentials[atom]  # standard Jacobian layout
        assert np.abs(analytic - fd.T).max() <= 1e-3 * max(1.0, np.abs(analytic).max())

    def test_scaling_bounds_over_mass_grid(self):
        from varmcf.kernel import unit_ball_volume

        for eps in (0.2, 0.4):
            kernel = Kernel.create(2, eps)
            c1 = 2.0 * (1.0 + unit_ball_volume(2) * kernel.c0) * (1.0 + kernel.c0)
            for scale in (0.5, 4.0):
                base = circle(40)
                v = Varifold(1, 2, base.positions, base.frames, scale * base.masses)
                cap = max(1.0, v.mass())
                field = curvature_field(v, kernel, QuadratureSpec(points_per_axis=8))
                assert np.linalg.norm(field.velocities, axis=1).max() <= c1 * cap * eps**-2
                assert field.sup_differential <= c1 * cap * eps**-4

    def test_empty_varifold(self):
        field = curvature_field(Varifold.empty(1, 2), Kernel.create(2, 0.2), QuadratureSpec())
        assert field.velocities.shape == (0, 2) and field.sup_differential == 0.0

    @pytest.mark.parametrize(
        "make, eps",
        [(lambda: circle(100), 0.1), (lambda: generate(ShapeSpec("sphere", samples=100)), 0.2)],
        ids=["circle", "sphere"],
    )
    def test_kernel_is_evaluated_once_per_candidate(self, make, eps, monkeypatch):
        v = make()
        kernel, spec = Kernel.create(v.n, eps), QuadratureSpec()
        # the stencil: integer offsets o with |o| <= r / h + sqrt(n) / 2
        reach = spec.points_per_axis / 2 + np.sqrt(v.n) / 2
        width = int(reach)
        axis = np.arange(-width, width + 1) ** 2
        squares = sum(np.ix_(*([axis] * v.n)))
        stencil = int(np.count_nonzero(squares <= reach * reach))
        evaluated = []
        evaluate = Kernel._value_and_grad_scalar

        def counting(self, r2, *args):
            evaluated.append(np.size(r2))
            return evaluate(self, r2, *args)

        monkeypatch.setattr(Kernel, "_value_and_grad_scalar", counting)
        curvature_field(v, kernel, spec)
        assert sum(evaluated) == len(v) * stencil


class TestEnergyInequality:
    """``sum_j m_j |h_j|^2 <= W D``, with ``W = max_j h^n sum_c Phi(x_j - z_c)``.

    Cauchy-Schwarz over each atom's cells bounds ``|h_j|^2`` by
    ``W h^n sum_c Phi(x_j - z_c) |raw_c|^2``; summed with the masses this is
    ``W h^n sum_c mass_c |raw_c|^2``, at most ``W D`` because
    ``mass_c <= mass_c + eps``.  It is the per-step form of the L^2 bound on
    the generalized mean curvature.
    """

    @pytest.mark.parametrize(
        "kind, samples, eps",
        [
            ("circle", 400, 0.05),
            ("dumbbell", 400, 0.05),
            ("sphere", 400, 0.1),
            ("torus", 400, 0.1),
            ("crossing-lines", 21, 0.2),  # 21 atoms per line
        ],
    )
    def test_energy_is_bounded_by_dissipation(self, kind, samples, eps):
        v = generate(ShapeSpec(kind, samples=samples))
        kernel, spec = Kernel.create(v.n, eps), QuadratureSpec()
        field = curvature_field(v, kernel, spec)
        _, h, blocks = _lattice(v, kernel, spec)
        sums = np.zeros(len(v))
        for atoms, diff, _ in blocks():
            sums[atoms] = block_values(kernel, spec, diff).sum(axis=1)
        weight = h**v.n * sums.max()
        energy = float(v.masses @ np.einsum("ji,ji->j", field.velocities, field.velocities))
        assert energy <= weight * field.dissipation


class TestDissipation:
    def test_empty(self):
        assert dissipation(Varifold.empty(1, 2), Kernel.create(2, 0.2), QuadratureSpec()) == 0.0

    def test_single_atom_matches_velocity_divergence(self):
        kernel = Kernel.create(2, 0.3)
        spec = QuadratureSpec()
        v = single_atom()
        d = dissipation(v, kernel, spec)
        assert d > 0.0
        field = curvature_field(v, kernel, spec)
        assert abs(field_divergence(v, field) + d) <= 1e-3 * d

    def test_circle_willmore_energy(self):
        kernel = Kernel.create(2, 0.05)
        v = circle(400)
        d = dissipation(v, kernel, QuadratureSpec())
        assert d == pytest.approx(2.0 * np.pi, rel=0.15)

    def test_identity_tightens_under_refinement(self):
        kernel = Kernel.create(2, 0.1)
        v = circle(50)
        spec = QuadratureSpec()
        rels = []
        for q in (spec, spec.refined()):
            field = curvature_field(v, kernel, q)
            d = dissipation(v, kernel, q)
            rels.append(abs(field_divergence(v, field) + d) / d)
        assert rels[0] <= 1e-2
        assert rels[1] <= 1e-3

    def test_velocity_divergence_nonpositive(self):
        # the exact identity makes deltaV(h) = -D <= 0; quadrature noise only
        kernel = Kernel.create(2, 0.1)
        for shape in (circle(40), generate(ShapeSpec("segment", samples=20))):
            field = curvature_field(shape, kernel, QuadratureSpec())
            assert field_divergence(shape, field) <= 1e-6


class TestStability:
    def test_velocity_lipschitz_in_the_varifold(self):
        # perturbation response fit: the growth rate in eps stays below n + 5
        from varmcf.metric import bounded_lipschitz_distance

        rng = np.random.default_rng(4)
        base = circle(40)
        rates = []
        for eps in (0.1, 0.2, 0.4):
            kernel = Kernel.create(2, eps)
            spec = QuadratureSpec(points_per_axis=8)
            f0 = curvature_field(base, kernel, spec)
            worst = 0.0
            for amplitude in (1e-4, 1e-3):
                jitter = amplitude * rng.standard_normal(base.positions.shape)
                moved = Varifold(1, 2, base.positions + jitter, base.frames, base.masses)
                fm = curvature_field(moved, kernel, spec)
                gap = float(np.linalg.norm(fm.velocities - f0.velocities, axis=1).max())
                dist = bounded_lipschitz_distance(base, moved)
                worst = max(worst, gap / dist)
            rates.append(worst)
        slopes = np.diff(np.log(rates)) / np.diff(np.log([0.1, 0.2, 0.4]))
        assert np.all(slopes >= -(2 + 5) - 0.5)
