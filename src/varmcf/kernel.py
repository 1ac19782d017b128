"""Compactly supported regularization kernel at scale eps.

The kernel is a Gaussian of scale eps, cut off by a fixed radial profile
that is 1 on [0, 1/2] and 0 beyond 1, renormalized to unit integral.  The
normalization constant is computed by adaptive radial quadrature and the
derivative-bound constant c0 is recomputed for the cutoff actually
implemented (see `CubicCutoff`): the nominal bound pair (3, 9) for the
cutoff's gradient and Hessian is infeasible for any profile that drops
from 1 to 0 on [1/2, 1] with vanishing endpoint slopes, so the cubic
smoothstep is used, which attains gradient bound 3 exactly and Hessian
bound 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize

from .errors import QuadratureError

__all__ = [
    "CubicCutoff",
    "Kernel",
    "kernel_bound_check",
    "unit_ball_volume",
    "unit_sphere_area",
]

NOMINAL_GRADIENT_BOUND = 3.0
NOMINAL_HESSIAN_BOUND = 9.0


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


class CubicCutoff:
    """Radial cubic-smoothstep cutoff: 1 on [0, 1/2], 0 on [1, inf).

    On [1/2, 1] the profile is ``1 - (3 s^2 - 2 s^3)`` with ``s = 2 r - 1``.
    The radial derivative peaks at 3 (midpoint) and the second derivative
    at 24 (junctions), where it jumps; both derivatives exist away from the
    junction spheres, which is all the kernel formulas require.
    """

    gradient_bound = 3.0
    hessian_bound = 24.0  # max over r of max(|p''|, |p'| / r)

    def __call__(self, r):
        """Profile, first and second derivatives at radii r."""
        r = np.asarray(r, dtype=float)
        p, dp = self.profile(r)
        s = np.clip(2.0 * r - 1.0, 0.0, 1.0)
        ddp = np.where((r > 0.5) & (r < 1.0), -24.0 * (1.0 - 2.0 * s), 0.0)
        return p, dp, ddp

    def profile(self, r):
        """Profile and first derivative at radii r."""
        r = np.asarray(r, dtype=float)
        s = np.clip(2.0 * r - 1.0, 0.0, 1.0)
        p = 1.0 - (3.0 * s**2 - 2.0 * s**3)
        dp = np.where((r > 0.5) & (r < 1.0), -12.0 * s * (1.0 - s), 0.0)
        return p, dp


_CUTOFF = CubicCutoff()


def _gaussian(r2: np.ndarray, eps: float, n: int) -> np.ndarray:
    g = np.exp(np.divide(r2, -2.0 * eps * eps))
    g *= (2.0 * math.pi * eps * eps) ** (-n / 2.0)
    return g


@lru_cache(maxsize=None)
def _normalization(n: int, eps: float) -> float:
    """1 / integral of cutoff * Gaussian over R^n, by adaptive radial quadrature."""
    sigma = unit_sphere_area(n)

    def integrand(r):
        p, _ = _CUTOFF.profile(r)
        return p * _gaussian(np.asarray(r) ** 2, eps, n) * sigma * r ** (n - 1)

    pts = sorted({min(0.5, 5.0 * eps), 0.5})
    val, err = integrate.quad(integrand, 0.0, 1.0, points=pts, epsabs=0.0, epsrel=1e-12, limit=200)
    if not np.isfinite(val) or val <= 0.0 or err > 1e-10 * val:
        raise QuadratureError(
            f"normalization quadrature did not converge (value {val:.3e}, error {err:.3e})"
        )
    # the cutoff only removes Gaussian mass, so the constant is >= 1; the
    # quadrature can land an ulp below for tiny eps
    return max(1.0, 1.0 / val)


@lru_cache(maxsize=None)
def normalization_cap(n: int) -> float:
    """The eps-independent upper bound on the normalization constant.

    Reciprocal of the mass the unit-scale Gaussian places in the ball of
    radius 1/2; depends only on the ambient dimension.
    """
    sigma = unit_sphere_area(n)
    val, err = integrate.quad(
        lambda r: _gaussian(np.asarray(r) ** 2, 1.0, n) * sigma * r ** (n - 1),
        0.0,
        0.5,
        epsabs=0.0,
        epsrel=1e-12,
    )
    if err > 1e-10 * val:
        raise QuadratureError("cap quadrature did not converge")
    return 1.0 / val


@lru_cache(maxsize=None)
def derivative_constant(n: int, cutoff_factor: float) -> float:
    """The constant c0 dominating the cutoff-region derivative terms.

    Supremum over eps in (0, 1) of
    ``c(eps) * K * eps^(-2-n) * (2 pi)^(-n/2) * exp(-1 / (8 eps^2))``
    with ``K = max(hessian_bound, 2 * gradient_bound)`` of the cutoff.
    Recomputed here for the implemented profile rather than the nominal one.
    """
    k = cutoff_factor

    def neg_log(eps):
        return -(
            math.log(_normalization(n, float(eps)))
            + math.log(k)
            - (2 + n) * math.log(eps)
            - (n / 2) * math.log(2 * math.pi)
            - 1.0 / (8.0 * eps * eps)
        )

    res = optimize.minimize_scalar(neg_log, bounds=(1e-3, 1.0 - 1e-9), method="bounded")
    # The maximizer is interior (the expression vanishes at both ends).
    return float(math.exp(-res.fun))


@dataclass(frozen=True)
class Kernel:
    """Immutable evaluator for the cut-off Gaussian kernel at scale eps."""

    n: int
    eps: float
    c_eps: float
    c0: float

    @classmethod
    def create(cls, n: int, eps: float) -> "Kernel":
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        k = max(_CUTOFF.hessian_bound, 2.0 * _CUTOFF.gradient_bound)
        return cls(
            n=int(n),
            eps=float(eps),
            c_eps=_normalization(int(n), float(eps)),
            c0=derivative_constant(int(n), k),
        )

    @property
    def cap(self) -> float:
        """Dimension-dependent upper bound on the normalization constant."""
        return normalization_cap(self.n)

    # Radial building blocks ------------------------------------------------

    def radial(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, first and second radial derivatives of the profile F(r).

        The kernel is F(|x|); its gradient is ``F'(r) x/r`` and its Hessian
        has eigenvalues F''(r) (radial) and F'(r)/r (tangential).
        """
        r = np.asarray(r, dtype=float)
        eps2 = self.eps * self.eps
        p, dp, ddp = _CUTOFF(r)
        g = _gaussian(r * r, self.eps, self.n)
        f = self.c_eps * p * g
        fp = self.c_eps * dp * g - (r / eps2) * f
        fpp = (
            self.c_eps * ddp * g
            - 2.0 * (r / eps2) * self.c_eps * dp * g
            + (r * r / (eps2 * eps2) - 1.0 / eps2) * f
        )
        return f, fp, fpp

    def values(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.einsum("pi,pi->p", points, points)
        return self._value_and_grad_scalar(r2)[0]

    def _value_and_grad_scalar(
        self, r2: np.ndarray, radius: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Kernel value and the scalar s(r) with grad(x) = s(|x|) x, cut at ``radius``.

        Operates on squared radii.  For ``radius <= 1`` the value and s are
        +0.0 where ``r2 > radius**2`` and, the cutoff being 0 there, where
        ``r2 >= 1``.  The cutoff terms and their square roots are evaluated
        only for r2 in ``(1/4, radius**2]``, so never when ``radius <= 1/2``:
        inside 1/2 the cutoff is 1 with zero slope, so there the value and s
        follow without it.  s is finite everywhere.
        """
        eps2 = self.eps * self.eps
        limit = radius**2
        gauss = _gaussian(r2, self.eps, self.n)
        val = gauss * self.c_eps
        val[r2 > limit] = 0.0
        s = val / -eps2
        s += 0.0  # a zero value gets the slope +0.0, as from the cutoff term
        if limit > 0.25:
            cut = np.flatnonzero((r2 > 0.25) & (r2 <= limit))
            r, gc = np.sqrt(r2.take(cut)), gauss.take(cut)
            p, dp = _CUTOFF.profile(r)
            vc = self.c_eps * p * gc
            val.put(cut, vc)
            s.put(cut, vc / -eps2 + self.c_eps * gc * (dp / r))
        return val, s

    def gradients(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.einsum("pi,pi->p", points, points)
        _, s = self._value_and_grad_scalar(r2)
        return s[:, None] * points

    def hessians(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(points, axis=1)
        _, fp, fpp = self.radial(r)
        # at r = 0 the direction is undefined and the Hessian is fpp * I
        safe = np.where(r > 0.0, r, 1.0)
        u = points / safe[:, None]
        uu = u[:, :, None] * u[:, None, :]
        tangential = np.where(r > 0.0, fp / safe, fpp)
        eye = np.eye(points.shape[1])
        return fpp[:, None, None] * uu + tangential[:, None, None] * (eye - uu)

    def eval(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian at a single point."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        value = float(self.values(x)[0])
        grad = self.gradients(x)[0]
        hess = self.hessians(x)[0]
        return value, grad, hess

    def gradient_l1(self) -> float:
        """L1 norm of the kernel gradient, by radial quadrature."""
        return self._radial_l1(lambda f, fp, fpp, r: np.abs(fp))

    def hessian_l1(self) -> float:
        """L1 norm of the pointwise Hessian operator norm."""

        def integrand(f, fp, fpp, r):
            tang = np.where(r > 0.0, np.abs(fp) / np.where(r > 0.0, r, 1.0), np.abs(fpp))
            return np.maximum(np.abs(fpp), tang)

        return self._radial_l1(integrand)

    def _radial_l1(self, magnitude) -> float:
        sigma = unit_sphere_area(self.n)

        def f(r):
            ra = np.asarray(r, dtype=float)
            val, fp, fpp = self.radial(ra)
            return magnitude(val, fp, fpp, ra) * sigma * ra ** (self.n - 1)

        pts = sorted({min(0.5, self.eps), min(0.5, 5.0 * self.eps), 0.5})
        val, err = integrate.quad(f, 0.0, 1.0, points=pts, epsabs=0.0, epsrel=1e-10, limit=400)
        if err > 1e-8 * max(val, 1.0):
            raise QuadratureError("L1 quadrature did not converge")
        return float(val)


def kernel_bound_check(kernel: Kernel, samples: np.ndarray) -> dict:
    """Verify the derivative bounds of the kernel pointwise and in L1.

    Checks, at every sample point x,

        |grad(x)|  <= eps^-2 value(x) + c0 * [|x| < 1]
        |hess(x)|  <= 2 eps^-4 value(x) + 2 c0 * [|x| < 1]

    with c0 recomputed for the implemented cutoff, plus the L1 bounds
    ``(1 + omega_n c0) eps^-2`` and ``2 (1 + omega_n c0) eps^-4`` by radial
    quadrature.  Returns a report with violation counts and worst slacks;
    both the nominal and the recomputed constants are included.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    eps, c0 = kernel.eps, kernel.c0
    r = np.linalg.norm(samples, axis=1)
    f, fp, fpp = kernel.radial(r)
    grad_norm = np.abs(fp)
    tang = np.where(r > 0.0, np.abs(fp) / np.where(r > 0.0, r, 1.0), np.abs(fpp))
    hess_norm = np.maximum(np.abs(fpp), tang)
    inside = (r < 1.0).astype(float)

    grad_rhs = eps**-2 * f + c0 * inside
    hess_rhs = 2.0 * eps**-4 * f + 2.0 * c0 * inside
    grad_slack = grad_rhs - grad_norm
    hess_slack = hess_rhs - hess_norm
    tol = 1e-9 * max(1.0, float(np.max(grad_rhs)))

    omega = unit_ball_volume(kernel.n)
    l1_grad = kernel.gradient_l1()
    l1_hess = kernel.hessian_l1()
    l1_grad_bound = (1.0 + omega * c0) * eps**-2
    l1_hess_bound = 2.0 * (1.0 + omega * c0) * eps**-4

    nominal_k = max(NOMINAL_HESSIAN_BOUND, 2.0 * NOMINAL_GRADIENT_BOUND)
    report = {
        "n": kernel.n,
        "eps": eps,
        "samples": int(samples.shape[0]),
        "gradient": {
            "violations": int(np.sum(grad_slack < -tol)),
            "worst_slack": float(np.min(grad_slack)),
        },
        "hessian": {
            "violations": int(np.sum(hess_slack < -tol)),
            "worst_slack": float(np.min(hess_slack)),
        },
        "l1_gradient": {
            "value": l1_grad,
            "bound": l1_grad_bound,
            "ok": bool(l1_grad <= l1_grad_bound * (1.0 + 1e-9)),
        },
        "l1_hessian": {
            "value": l1_hess,
            "bound": l1_hess_bound,
            "ok": bool(l1_hess <= l1_hess_bound * (1.0 + 1e-9)),
        },
        "constants": {
            "c_eps": kernel.c_eps,
            "c_cap": kernel.cap,
            "c0": c0,
            "c0_nominal": derivative_constant(kernel.n, nominal_k),
            "cutoff_gradient_bound": _CUTOFF.gradient_bound,
            "cutoff_hessian_bound": _CUTOFF.hessian_bound,
            "nominal_gradient_bound": NOMINAL_GRADIENT_BOUND,
            "nominal_hessian_bound": NOMINAL_HESSIAN_BOUND,
        },
    }
    report["ok"] = bool(
        report["gradient"]["violations"] == 0
        and report["hessian"]["violations"] == 0
        and report["l1_gradient"]["ok"]
        and report["l1_hessian"]["ok"]
    )
    return report
