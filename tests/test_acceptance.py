"""End-to-end acceptance criteria.

Each test prints one pass line (visible with ``pytest -v -s`` or in the
verbose test listing) and pins the tolerances of the corresponding
guarantee; shared heavy runs live in session fixtures.
"""

import time

import numpy as np
import pytest
from conftest import ground_metric, random_frame
from scipy.optimize import linear_sum_assignment
from test_curvature import arc_quadrature_first_variation, arc_quadrature_mass

from varmcf.curvature import QuadratureSpec, curvature_field, dissipation
from varmcf.flow import GaussianBump, brakke_residual, refinement_study
from varmcf.geometry import align_frames, plane_distances, tangential_jacobian
from varmcf.ingest import ShapeSpec, generate
from varmcf.kernel import Kernel, kernel_bound_check, unit_sphere_area
from varmcf.metric import bounded_lipschitz_distance
from varmcf.varifold import SampledMap, Varifold, compose_check, first_variation


def _report(label: str, detail: str) -> None:
    print(f"ACCEPTANCE {label}: PASS ({detail})")


def _random_varifold(rng, count, mass=None):
    positions = rng.standard_normal((count, 2))
    angles = rng.uniform(0.0, np.pi, count)
    frames = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, None, :]
    masses = np.full(count, mass) if mass is not None else rng.random(count) + 0.1
    return Varifold(1, 2, positions, frames, masses)


def test_criterion_01_kernel_suite():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_integral = 0.0
    worst_fd = 0.0
    for n in (1, 2, 3):
        for eps in (0.1, 0.3, 0.7):
            kernel = Kernel.create(n, eps)

            # unit integral, via an independent fine radial Riemann sum
            h = 1.0 / 400_000
            r = (np.arange(400_000) + 0.5) * h
            f, _, _ = kernel.radial(r)
            integral = float(np.sum(f * unit_sphere_area(n) * r ** (n - 1)) * h)
            worst_integral = max(worst_integral, abs(integral - 1.0))
            assert abs(integral - 1.0) <= 1e-8

            # pointwise derivative bounds at 1e4 random points in the unit ball
            raw = rng.standard_normal((10_000, n))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            samples = raw * (rng.random(10_000) ** (1.0 / n))[:, None]
            report = kernel_bound_check(kernel, samples)
            assert report["gradient"]["violations"] == 0
            assert report["hessian"]["violations"] == 0

            # gradient and Hessian against central differences, relative 1e-5
            # (sampled off the cutoff junction spheres, where the profile's
            # second derivative jumps and stencils are meaningless)
            pts = []
            while len(pts) < 100:
                x = rng.standard_normal(n)
                x *= rng.random() ** (1.0 / n) / np.linalg.norm(x)
                radius = np.linalg.norm(x)
                if abs(radius - 0.5) > 1e-3 and abs(radius - 1.0) > 1e-3:
                    pts.append(x)
            grad_scale = kernel.values(np.zeros((1, n)))[0] / eps**2
            for x in pts:
                _, grad, hess = kernel.eval(x)
                fd_g = np.empty(n)
                fd_h = np.empty((n, n))
                step = 1e-6
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = step
                    fd_g[i] = (kernel.values(x + e)[0] - kernel.values(x - e)[0]) / (2 * step)
                    fd_h[i] = (kernel.gradients(x + e)[0] - kernel.gradients(x - e)[0]) / (
                        2 * step
                    )
                fd_h = 0.5 * (fd_h + fd_h.T)
                rel_g = np.linalg.norm(grad - fd_g) / max(np.linalg.norm(grad), 1e-4 * grad_scale)
                rel_h = np.abs(hess - fd_h).max() / max(
                    np.abs(hess).max(), 1e-4 * grad_scale / eps
                )
                worst_fd = max(worst_fd, rel_g, rel_h)
                assert rel_g <= 1e-5
                assert rel_h <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(
        "01 kernel suite",
        f"integral off by {worst_integral:.2e}, worst fd rel {worst_fd:.2e}, {elapsed:.1f}s",
    )


def _unit_circle_oracle(kernel, radius, radial_nodes=400, arc_nodes=20_000, angle_nodes=2000):
    """Dissipation and speed of the unit-density unit circle, apart from the lattice.

    Rotational symmetry reduces the smoothed mass and first variation to
    functions of the radius rho, tabulated on the band |rho - 1| <= radius
    by the arc-length oracles.  D is the radial integral of
    ``2 pi rho |var|^2 / (mass + eps)``; the speed is the polar quadrature
    of ``Phi(x - z) raw(|z|) z / |z|`` over the band at x = (1, 0).
    """
    step = 2.0 * radius / radial_nodes
    rho = 1.0 - radius + (np.arange(radial_nodes) + 0.5) * step
    mass = np.empty(radial_nodes)
    var = np.empty(radial_nodes)
    for k, r in enumerate(rho):
        y = np.array([r, 0.0])
        mass[k] = arc_quadrature_mass(kernel, y, nodes=arc_nodes)
        var[k] = arc_quadrature_first_variation(kernel, y, nodes=arc_nodes)[0]
    dissipation_oracle = float(np.sum(2.0 * np.pi * rho * var**2 / (mass + kernel.eps)) * step)

    raw = -var / (mass + kernel.eps)
    theta = -np.pi + 2.0 * np.pi * (np.arange(angle_nodes) + 0.5) / angle_nodes
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    velocity = np.zeros(2)
    for r, raw_r in zip(rho, raw):
        phi = kernel.values(np.array([1.0, 0.0]) - r * unit)
        velocity += raw_r * r * (phi @ unit)
    velocity *= step * 2.0 * np.pi / angle_nodes
    return dissipation_oracle, float(np.linalg.norm(velocity))


def test_criterion_02_dissipation_identity():
    start = time.time()
    v = generate(ShapeSpec("circle", samples=50))
    kernel = Kernel.create(2, 0.1)
    d_oracle, speed_oracle = _unit_circle_oracle(kernel, QuadratureSpec().radius(kernel.eps))
    rels, d_errs, speed_errs = [], [], []
    for spec, gate in ((QuadratureSpec(), 1e-2), (QuadratureSpec().refined(), 1e-3)):
        field = curvature_field(v, kernel, spec)
        div = first_variation(v, field.differentials)
        d = dissipation(v, kernel, spec)
        rel = abs(div + d) / d
        rels.append(rel)
        assert rel <= gate

        # the identity holds by construction; the continuum oracle can fail
        d_errs.append(abs(d - d_oracle) / d_oracle)
        speeds = np.linalg.norm(field.velocities, axis=1)
        speed_errs.append(float(np.abs(speeds - speed_oracle).max()) / speed_oracle)
        assert d_errs[-1] <= 1e-3
        assert speed_errs[-1] <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(
        "02 dissipation identity",
        f"rel error {rels[0]:.2e} default, {rels[1]:.2e} doubled; against the continuum "
        f"D off by {max(d_errs):.2e}, |h| by {max(speed_errs):.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_mass_behavior(circle_benchmark, brakke_runs, stationarity_runs):
    start = time.time()
    trajectories = [circle_benchmark, *brakke_runs.values(), *stationarity_runs.values()]
    violations = 0
    for traj in trajectories:
        violations += sum(0 if d.mass_bound_ok else 1 for d in traj.diagnostics)
    assert violations == 0

    # nonpositive velocity first variation and contained Jacobians, per step
    for traj in trajectories:
        for d in traj.diagnostics:
            assert d.velocity_first_variation <= 1e-3
            assert 0.5 <= d.jacobian_min <= d.jacobian_max <= 1.5

    traj = circle_benchmark
    taus = np.diff(np.asarray(traj.times))
    budget = float(sum(t * d.dissipation for t, d in zip(taus, traj.diagnostics)))
    masses = traj.mass_history()
    residual = abs(masses[-1] - masses[0] + budget)
    bound = 5.0 * taus.max() * traj.times[-1]
    assert residual <= bound
    assert budget <= masses[0] + bound
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(
        "03 mass behavior",
        f"0 bound violations across {len(trajectories)} runs, "
        f"cumulative residual {residual:.2e} <= {bound:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_circle_benchmark(circle_benchmark):
    traj = circle_benchmark
    worst = 0.0
    for t, snap in zip(traj.times, traj.snapshots):
        mean_radius = float(np.linalg.norm(snap.positions, axis=1).mean())
        oracle = np.sqrt(1.0 - 2.0 * t)
        deviation = abs(mean_radius - oracle) / oracle
        worst = max(worst, deviation)
        assert deviation <= 0.10
    speeds = np.linalg.norm(traj.field_at(0).velocities, axis=1)
    assert np.all(np.abs(speeds - 1.0) <= 0.10)
    _report(
        "04 circle benchmark",
        f"worst radius deviation {worst:.3f}, |h| in "
        f"[{speeds.min():.3f}, {speeds.max():.3f}] at t=0",
    )


def test_criterion_05_stationarity(stationarity_runs):
    atom_traj = stationarity_runs["single-atom"]
    drift = max(
        float(np.abs(s.positions - atom_traj.snapshots[0].positions).max())
        for s in atom_traj.snapshots
    )
    assert drift <= 1e-6

    lines_traj = stationarity_runs["crossing-lines"]
    v0 = lines_traj.snapshots[0]
    center = np.flatnonzero(np.linalg.norm(v0.positions, axis=1) == 0.0)
    assert center.size == 2
    center_drift = max(
        float(np.abs(s.positions[center]).max()) for s in lines_traj.snapshots
    )
    assert center_drift <= 1e-6
    _report(
        "05 stationarity",
        f"atom drift {drift:.2e}, crossing-center drift {center_drift:.2e} over 100 steps",
    )


def test_criterion_06_refinement_convergence():
    start = time.time()
    v0 = generate(ShapeSpec("circle", samples=100))
    rows = refinement_study(v0, eps=0.1, levels=range(3, 7), horizon=0.1)
    ratios = [r.ratio for r in rows if r.ratio is not None]
    assert len(ratios) == 3
    in_band = sum(1 for r in ratios if 0.3 <= r <= 0.8)
    assert in_band >= 2
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(
        "06 refinement convergence",
        f"ratios {[round(r, 3) for r in ratios]}, {in_band}/3 in [0.3, 0.8], {elapsed:.0f}s",
    )


def test_criterion_07_brakke_residual_rate(brakke_runs):
    bump = GaussianBump([1.0, 0.0], 0.6)
    residuals = []
    deltas = []
    for steps, traj in sorted(brakke_runs.items()):
        residuals.append(brakke_residual(traj, bump, 0.0, 0.1))
        deltas.append(0.1 / steps)
    slope = float(np.polyfit(np.log(deltas), np.log(residuals), 1)[0])
    assert 0.7 <= slope <= 1.3
    _report("07 brakke residual rate", f"log-log slope {slope:.3f} over m in (50, 100, 200)")


def test_criterion_08_bounded_lipschitz_distance():
    rng = np.random.default_rng(88)

    # closed forms
    def dirac(x, mass=1.0):
        return Varifold(1, 2, [x], np.eye(1, 2)[None], [mass])

    for gap in (0.5, 1.5, 3.0):
        got = bounded_lipschitz_distance(dirac([0.0, 0.0]), dirac([gap, 0.0]))
        assert abs(got - min(2.0, gap)) <= 1e-9
    got = bounded_lipschitz_distance(dirac([0.3, 0.3], 1.2), dirac([0.3, 0.3], 0.5))
    assert abs(got - 0.7) <= 1e-9

    # triangle inequality over 1000 random triples
    worst_slack = np.inf
    for _ in range(1000):
        a = _random_varifold(rng, 3)
        b = _random_varifold(rng, 3)
        c = _random_varifold(rng, 3)
        slack = (
            bounded_lipschitz_distance(a, b)
            + bounded_lipschitz_distance(b, c)
            - bounded_lipschitz_distance(a, c)
        )
        worst_slack = min(worst_slack, slack)
        assert slack >= -1e-9

    # the LP against the independent assignment-form optimum on 10-atom pairs
    worst_gap = 0.0
    for seed in range(5):
        local = np.random.default_rng(seed)
        v = _random_varifold(local, 10, mass=0.1)
        w = _random_varifold(local, 10, mass=0.1)
        lp = bounded_lipschitz_distance(v, w)
        dist = ground_metric(v.positions, v.projectors(), w.positions, w.projectors())
        cost = np.zeros((20, 20))
        cost[:10, :10] = 0.1 * np.minimum(2.0, dist)
        cost[:10, 10:] = 0.1
        cost[10:, :10] = 0.1
        rows, cols = linear_sum_assignment(cost)
        oracle = float(cost[rows, cols].sum())
        worst_gap = max(worst_gap, abs(lp - oracle))
        assert abs(lp - oracle) <= 2e-3
    _report(
        "08 bounded-Lipschitz distance",
        f"triangle slack >= {worst_slack:.2e}, oracle gap <= {worst_gap:.2e}",
    )


def test_criterion_09_push_forward_composition():
    def small_affine(rng):
        # linear part capped at operator norm 0.15 so the composite map
        # stays inside the diffeomorphism certificate
        a = rng.standard_normal((2, 2))
        a *= 0.15 / np.linalg.norm(a, ord=2)
        return a, rng.standard_normal(2)

    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        v = _random_varifold(rng, 50)
        a_g, b_g = small_affine(rng)
        g = SampledMap(v.positions @ a_g.T + b_g, np.tile(a_g, (50, 1, 1)))
        mid = v.positions + (v.positions @ a_g.T + b_g)
        a_f, b_f = small_affine(rng)
        f = SampledMap(mid @ a_f.T + b_f, np.tile(a_f, (50, 1, 1)))
        gap = compose_check(v, f, g)
        worst = max(worst, gap)
        assert gap <= 1e-9
    _report("09 push-forward composition", f"max discrepancy {worst:.2e} over 5 affine pairs")


def test_criterion_10_plane_algebra_suite():
    rng = np.random.default_rng(1010)
    worst_margin = np.inf
    for d, n in ((1, 2), (1, 3), (2, 3), (2, 4)):
        for _ in range(1000):
            s = random_frame(rng, d, n)
            t = random_frame(rng, d, n)
            fa, fb = align_frames(s, t)
            margin = 2.0 * plane_distances(s, t) + 1e-9 - np.linalg.norm(fa - fb, ord=2)
            worst_margin = min(worst_margin, margin)
            assert margin >= 0.0

    d, n = 2, 4
    s = random_frame(rng, d, n)
    sizes = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
    worst_errs = []
    for size in sizes:
        errs = []
        for _ in range(60):
            r = rng.standard_normal((n, n))
            r *= size / np.abs(r).max()
            j, _ = tangential_jacobian(np.eye(n) + r, s)
            errs.append(abs(j - 1.0 - float(np.trace(r @ (s.T @ s)))))
        worst_errs.append(max(errs))
    slope = float(np.polyfit(np.log(sizes), np.log(worst_errs), 1)[0])
    assert 1.8 <= slope <= 2.2
    _report(
        "10 plane algebra suite",
        f"alignment bound slack >= {worst_margin:.2e}, expansion slope {slope:.3f}",
    )
