import math

import numpy as np
import pytest

from varmcf.kernel import (
    CubicCutoff,
    Kernel,
    kernel_bound_check,
    unit_ball_volume,
    unit_sphere_area,
)

# Independent 2-d tensor-grid quadrature oracle, frozen before the build
# (midpoint grid on [-1,1]^2, converged to ~1e-12 at 8000^2 cells).
C_EPS_HALF_N2_ORACLE = 1.502428746796870

EPS_GRID = [0.05, 0.1, 0.3, 0.7]
DIM_GRID = [1, 2, 3]


def radial_riemann_integral(kernel: Kernel, nodes: int = 400_000) -> float:
    """Independent check of the unit integral: fine radial midpoint sum."""
    h = 1.0 / nodes
    r = (np.arange(nodes) + 0.5) * h
    f, _, _ = kernel.radial(r)
    return float(np.sum(f * unit_sphere_area(kernel.n) * r ** (kernel.n - 1)) * h)


class TestCutoff:
    def test_plateau(self):
        p, dp, ddp = CubicCutoff()(0.25)
        assert (p, dp, ddp) == (1.0, 0.0, 0.0)

    def test_outside_support(self):
        p, dp, ddp = CubicCutoff()(1.5)
        assert (p, dp, ddp) == (0.0, 0.0, 0.0)

    def test_midpoint_values(self):
        p, dp, ddp = CubicCutoff()(0.75)
        assert p == pytest.approx(0.5, abs=1e-15)
        assert dp == pytest.approx(-3.0, abs=1e-15)
        assert ddp == pytest.approx(0.0, abs=1e-15)

    def test_shape_and_monotonicity(self):
        r = np.linspace(0.0, 1.2, 1201)
        p, dp, _ = CubicCutoff()(r)
        assert np.all((0.0 <= p) & (p <= 1.0))
        assert np.all(dp <= 0.0)
        assert np.abs(dp).max() <= 3.0 + 1e-12

    def test_declared_bounds_are_attained(self):
        cutoff = CubicCutoff()
        r = np.linspace(0.5, 1.0, 100_001)[1:-1]
        _, dp, ddp = cutoff(r)
        hess = np.maximum(np.abs(ddp), np.abs(dp) / r)
        assert np.abs(dp).max() == pytest.approx(cutoff.gradient_bound, rel=1e-4)
        assert hess.max() <= cutoff.hessian_bound + 1e-9
        assert hess.max() == pytest.approx(cutoff.hessian_bound, rel=1e-3)


class TestNormalization:
    def test_small_eps_no_truncation(self):
        assert Kernel.create(2, 0.05).c_eps == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", DIM_GRID)
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_at_least_one_and_capped(self, n, eps):
        kernel = Kernel.create(n, eps)
        assert 1.0 <= kernel.c_eps <= kernel.cap + 1e-12

    def test_matches_frozen_2d_oracle(self):
        assert Kernel.create(2, 0.5).c_eps == pytest.approx(C_EPS_HALF_N2_ORACLE, abs=1e-8)

    def test_rejects_bad_eps(self):
        for eps in (1.0, 0.0):
            with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
                Kernel.create(2, eps)

    @pytest.mark.parametrize("n", DIM_GRID)
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_unit_integral(self, n, eps):
        kernel = Kernel.create(n, eps)
        assert radial_riemann_integral(kernel) == pytest.approx(1.0, abs=1e-8)


class TestEval:
    def test_at_origin(self):
        kernel = Kernel.create(2, 0.3)
        value, grad, hess = kernel.eval(np.zeros(2))
        assert value == pytest.approx(kernel.c_eps / (2.0 * math.pi * 0.09), rel=1e-14)
        assert np.abs(grad).max() == 0.0
        assert np.allclose(hess, -value / 0.09 * np.eye(2))

    def test_outside_support(self):
        kernel = Kernel.create(2, 0.3)
        value, grad, hess = kernel.eval(np.array([1.0, 0.5]))
        assert value == 0.0
        assert np.abs(grad).max() == 0.0
        assert np.abs(hess).max() == 0.0

    @pytest.mark.parametrize("n, eps", [(1, 0.15), (2, 0.05), (3, 0.2), (3, 0.9)])
    def test_pair_evaluator_equals_the_full_cutoff_formula(self, n, eps):
        # the cutoff terms are evaluated only beyond radius 1/2; inside it
        # the profile is 1 with zero slope, so every value must be unchanged
        kernel = Kernel.create(n, eps)
        edges = [0.0, 0.25, np.nextafter(0.25, 1.0), 1.0]
        r2 = np.concatenate([np.random.default_rng(2).uniform(0.0, 1.3, 5000), edges])
        r = np.sqrt(r2)
        p, dp, _ = CubicCutoff()(r)
        g = (2.0 * math.pi * eps * eps) ** (-n / 2.0) * np.exp(-r2 / (2.0 * eps * eps))
        value = kernel.c_eps * p * g
        slope = np.where(r > 0.0, dp / np.where(r > 0.0, r, 1.0), 0.0)
        val, s = kernel._value_and_grad_scalar(r2)
        assert np.array_equal(val, value)
        assert np.array_equal(s, -value / (eps * eps) + kernel.c_eps * g * slope)

    @pytest.mark.parametrize("radius", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_radius_cut_zeroes_exactly_beyond_the_radius(self, n, radius):
        # the reference: the uncut evaluation with value and slope set to
        # +0.0 where r2 > radius**2, bit for bit and with the sign of zero
        kernel = Kernel.create(n, 0.15)
        limit = radius**2
        edges = [
            0.25,
            np.nextafter(0.25, 1.0),
            limit,
            np.nextafter(limit, 0.0),
            np.nextafter(limit, 2.0),
            1.0,
        ]
        r2 = np.concatenate([np.random.default_rng(3).uniform(0.0, 1.3, 5000), edges])
        val, s = kernel._value_and_grad_scalar(r2)
        outside = r2 > limit
        val[outside] = 0.0
        s[outside] = 0.0
        cut_val, cut_s = kernel._value_and_grad_scalar(r2, radius)
        for got, want in ((cut_val, val), (cut_s, s)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_radial_symmetry_and_positivity(self):
        kernel = Kernel.create(3, 0.4)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 3))
        vals = kernel.values(x)
        assert np.all(vals >= 0.0)
        rotated = x @ _rotation3(rng)
        assert np.allclose(kernel.values(rotated), vals, atol=1e-12)

    def test_gradient_matches_finite_differences_example(self):
        kernel = Kernel.create(2, 0.3)
        x = np.array([0.2, 0.0])
        _, grad, _ = kernel.eval(x)
        fd = _fd_gradient(kernel, x)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)


def _rotation3(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q


def _fd_gradient(kernel, x, h=1e-6):
    n = x.size
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (kernel.values(x + e)[0] - kernel.values(x - e)[0]) / (2.0 * h)
    return out


def _fd_hessian(kernel, x, h=1e-4):
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (kernel.gradients(x + e)[0] - kernel.gradients(x - e)[0]) / (2.0 * h)
    return 0.5 * (out + out.T)


def sample_unit_ball(rng, count, n, junction_guard=1e-3):
    """Random points in the unit ball, away from the cutoff junction spheres.

    The cutoff's second derivative jumps at radii 1/2 and 1, so finite
    differences straddling those spheres are meaningless; derivative
    comparisons sample away from them.
    """
    out = []
    while len(out) < count:
        x = rng.standard_normal((4 * count, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        r = rng.random(4 * count) ** (1.0 / n)
        pts = x * r[:, None]
        keep = (np.abs(r - 0.5) > junction_guard) & (np.abs(r - 1.0) > junction_guard)
        out.extend(pts[keep])
    return np.array(out[:count])


class TestDerivativesAgainstFiniteDifferences:
    @pytest.mark.parametrize("n", DIM_GRID)
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.7])
    def test_gradient_and_hessian(self, n, eps):
        kernel = Kernel.create(n, eps)
        rng = np.random.default_rng(42)
        pts = sample_unit_ball(rng, 100, n)
        grad_scale = kernel.values(np.zeros((1, n)))[0] / eps**2
        hess_scale = grad_scale / eps
        for x in pts:
            _, grad, hess = kernel.eval(x)
            fd_g = _fd_gradient(kernel, x, h=1e-6 * max(eps, 0.1))
            fd_h = _fd_hessian(kernel, x, h=1e-5)
            denom_g = max(np.linalg.norm(grad), 1e-8 * grad_scale)
            denom_h = max(np.linalg.norm(hess), 1e-8 * hess_scale)
            assert np.linalg.norm(grad - fd_g) / denom_g <= 1e-5
            assert np.linalg.norm(hess - fd_h) / denom_h <= 1e-3


class TestBoundCheck:
    @pytest.mark.parametrize("n", DIM_GRID)
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.7])
    def test_no_violations_in_unit_ball(self, n, eps):
        rng = np.random.default_rng(7)
        samples = sample_unit_ball(rng, 10_000, n, junction_guard=0.0)
        report = kernel_bound_check(Kernel.create(n, eps), samples)
        assert report["gradient"]["violations"] == 0
        assert report["hessian"]["violations"] == 0
        assert report["l1_gradient"]["ok"] and report["l1_hessian"]["ok"]
        assert report["ok"]

    def test_origin_and_outside_samples(self):
        kernel = Kernel.create(2, 0.3)
        report = kernel_bound_check(kernel, np.array([[0.0, 0.0], [1.5, 0.0]]))
        assert report["ok"]
        # outside the support everything vanishes: the bound holds with slack 0
        outside = kernel_bound_check(kernel, np.array([[1.5, 0.0]]))
        assert outside["gradient"]["worst_slack"] == pytest.approx(0.0, abs=1e-15)

    def test_report_carries_both_constant_sets(self):
        report = kernel_bound_check(Kernel.create(2, 0.3), np.zeros((1, 2)))
        constants = report["constants"]
        assert constants["nominal_hessian_bound"] == 9.0
        assert constants["cutoff_hessian_bound"] == 24.0
        assert constants["c0"] > constants["c0_nominal"] > 0.0

    def test_lipschitz_scaling_bound(self):
        # empirical Lipschitz quotients stay below the derived cap
        rng = np.random.default_rng(5)
        for n, eps in [(1, 0.1), (2, 0.2), (2, 0.4), (3, 0.3)]:
            kernel = Kernel.create(n, eps)
            bound = (kernel.cap * (2 * math.pi) ** (-n / 2) + kernel.c0) * eps ** (-n - 2)
            a = sample_unit_ball(rng, 400, n, junction_guard=0.0) * 1.2
            b = a + 1e-4 * rng.standard_normal(a.shape)
            quotients = np.abs(kernel.values(a) - kernel.values(b)) / np.linalg.norm(
                a - b, axis=1
            )
            assert quotients.max() <= bound * (1.0 + 1e-9)


class TestConstants:
    def test_c0_positive_and_dimension_dependent(self):
        k2, k3 = Kernel.create(2, 0.3), Kernel.create(3, 0.3)
        assert k2.c0 > 0.0 and k3.c0 > 0.0
        assert k2.c0 != k3.c0

    def test_cap_reciprocal_is_ball_mass(self):
        # the cap is 1 / (mass of the unit-scale Gaussian in B_{1/2})
        n = 2
        samples = 4_000_000
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((samples, n))
        frac = float(np.mean(np.linalg.norm(pts, axis=1) < 0.5))
        assert 1.0 / Kernel.create(n, 0.3).cap == pytest.approx(frac, abs=2e-4)

    def test_ball_and_sphere_constants(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi)
        assert unit_sphere_area(1) == pytest.approx(2.0)
