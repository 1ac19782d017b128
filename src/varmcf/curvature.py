"""Regularized mean curvature of a point-cloud varifold.

The velocity field is a double convolution: the kernel smooths the mass
and the first variation of the varifold into a pointwise field

    raw(y) = - smoothed_first_variation(y) / (smoothed_mass(y) + eps),

which is then convolved once more with the kernel to produce the per-atom
velocity and its spatial differential.  Both convolutions and the
dissipation integral run over one list of (lattice cell, atom) pairs
within ``r = min(1, factor * eps)`` of each other, on a uniform lattice
centred on the atoms' bounding box; the kernel is evaluated once per
pair.  Cell sums give the smoothed fields, atom sums the velocities and
differentials, and the cells the dissipation, so the discrete identity
``sum_j m_j tr(P_j Dh_j) = -dissipation`` holds up to rounding.

The inner sums are cut at r, where the Gaussian factor of the kernel is
below 4e-6 of its peak; the point evaluators (`smoothed_mass`,
`smoothed_first_variation`, `raw_curvature`) sum over every atom.  All
sums run in a fixed order, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import QuadratureBudgetExceeded
from .kernel import Kernel
from .varifold import SampledMap, Varifold

__all__ = [
    "QuadratureSpec",
    "CellPairs",
    "CurvatureField",
    "cell_pairs",
    "smoothed_mass",
    "smoothed_first_variation",
    "raw_curvature",
    "curvature_field",
    "dissipation",
]

# Pairs evaluated per batch; bounds the per-pair temporaries.
PAIR_CHUNK = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Lattice of the convolution and dissipation sums.

    points_per_axis : cells per kernel-ball diameter (>= 4); the lattice
        spacing is ``2 r / points_per_axis``.
    domain_radius_factor : the kernel ball radius is
        ``r = min(1, factor * eps)`` (>= 4; the Gaussian mass beyond 4 eps
        is below 3.4e-4, beyond 5 eps below 3.8e-6 of the total).
    max_nodes : budget on the cells of the lattice over the bounding box
        and on the number of (cell, atom) pairs.
    """

    points_per_axis: int = 16
    domain_radius_factor: float = 5.0
    max_nodes: int = 20_000_000

    def __post_init__(self):
        if self.points_per_axis < 4:
            raise ValueError("points_per_axis must be >= 4")
        if self.domain_radius_factor < 4.0:
            raise ValueError("domain_radius_factor must be >= 4")

    def refined(self, factor: int = 2) -> "QuadratureSpec":
        """Same spec with ``factor`` times as many points per axis."""
        return replace(self, points_per_axis=self.points_per_axis * factor)

    def radius(self, eps: float) -> float:
        """Radius r of the kernel ball at scale eps."""
        return min(1.0, self.domain_radius_factor * eps)


@dataclass(frozen=True)
class CellPairs:
    """The (lattice cell, atom) pairs within the kernel ball radius.

    ``centres`` holds only the cells that pair with at least one atom;
    ``cell[p]`` and ``atom[p]`` index the two ends of pair p.
    """

    centres: np.ndarray  # (C, n)
    cell: np.ndarray  # (P,)
    atom: np.ndarray  # (P,)
    volume: float  # h^n


@dataclass(frozen=True)
class CurvatureField(SampledMap):
    """The regularized curvature h sampled on the atoms, the map a step
    pushes by (``id + tau h``), plus the mass-decay rate ``dissipation``
    computed from the same pairs.
    """

    dissipation: float


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


def cell_pairs(v: Varifold, eps: float, spec: QuadratureSpec) -> CellPairs:
    """Lattice cells and atoms within ``r = spec.radius(eps)`` of each other.

    Cell centres sit at ``mid + (k - (K - 1) / 2) h`` per axis, with mid the
    midpoint of the r-fattened bounding box of the atoms and K cells per
    axis covering it.  Raises QuadratureBudgetExceeded when the lattice
    over the box, or the pair list, exceeds ``spec.max_nodes``.
    """
    n = v.n
    radius = spec.radius(eps)
    h = 2.0 * radius / spec.points_per_axis
    if len(v) == 0:
        empty = np.zeros(0, dtype=np.intp)
        return CellPairs(np.zeros((0, n)), empty, empty, h**n)
    lo = v.positions.min(axis=0) - radius
    hi = v.positions.max(axis=0) + radius
    counts = np.ceil((hi - lo) / h).astype(int)
    total = math.prod(counts.tolist())
    if total > spec.max_nodes:
        raise QuadratureBudgetExceeded(f"{total} lattice cells exceed budget {spec.max_nodes}")
    mid = 0.5 * (lo + hi)
    axes = [mid[i] + (np.arange(counts[i]) - 0.5 * (counts[i] - 1)) * h for i in range(n)]
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    atoms = cKDTree(v.positions)
    dist, _ = atoms.query(grid, k=1, distance_upper_bound=radius)
    centres = grid[dist <= radius]
    pairs = cKDTree(centres).sparse_distance_matrix(atoms, radius, output_type="ndarray")
    if pairs.size > spec.max_nodes:
        raise QuadratureBudgetExceeded(f"{pairs.size} pairs exceed budget {spec.max_nodes}")
    return CellPairs(centres, pairs["i"].astype(np.intp), pairs["j"].astype(np.intp), h**n)


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of the rows ``values[p]`` grouped by ``index[p]`` into ``size`` bins."""
    width = values[0].size
    flat = (index[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.bincount(flat, values.reshape(-1), minlength=size * width)
    return sums.reshape((size,) + values.shape[1:])


def curvature_field(v: Varifold, kernel: Kernel, spec: QuadratureSpec) -> CurvatureField:
    """Per-atom velocity, differential and dissipation of the regularized curvature.

    With ``Phi`` the kernel and the sums over the pairs of `cell_pairs`:

        mass_c = sum_j m_j Phi(x_j - z_c)
        var_c  = sum_j m_j P_j grad-Phi(x_j - z_c)
        raw_c  = -var_c / (mass_c + eps)
        h_j    = h^n sum_c Phi(x_j - z_c) raw_c
        Dh_j   = h^n sum_c raw_c grad-Phi(x_j - z_c)^T
        D      = h^n sum_c |var_c|^2 / (mass_c + eps)

    Differentials use the standard Jacobian layout: entry (a, b) is the
    derivative of component a in direction b.
    """
    n, count = v.n, len(v)
    pairs = cell_pairs(v, kernel.eps, spec)
    cells, total = pairs.centres.shape[0], pairs.cell.size
    val, slope = np.empty(total), np.empty(total)
    chunks = [slice(lo, lo + PAIR_CHUNK) for lo in range(0, total, PAIR_CHUNK)]

    # Cell sums; grad-Phi(x - z) = s(|x - z|) (x - z).
    mass = np.zeros(cells)
    var = np.zeros((cells, n))
    for sl in chunks:
        c, a = pairs.cell[sl], pairs.atom[sl]
        diff = np.take(v.positions, a, axis=0) - np.take(pairs.centres, c, axis=0)
        val[sl], slope[sl] = kernel._value_and_grad_scalar(np.einsum("pi,pi->p", diff, diff))
        frames = np.take(v.frames, a, axis=0)
        tangent = np.einsum("pdi,pd->pi", frames, np.einsum("pdk,pk->pd", frames, diff))
        mass += np.bincount(c, v.masses[a] * val[sl], minlength=cells)
        var += _scatter(c, (v.masses[a] * slope[sl])[:, None] * tangent, cells)
    denom = mass + kernel.eps
    raw = -var / denom[:, None]

    # Atom sums over the same pairs.
    velocities = np.zeros((count, n))
    differentials = np.zeros((count, n, n))
    for sl in chunks:
        c, a = pairs.cell[sl], pairs.atom[sl]
        diff = np.take(v.positions, a, axis=0) - np.take(pairs.centres, c, axis=0)
        grad = slope[sl][:, None] * diff
        raw_c = np.take(raw, c, axis=0)
        velocities += _scatter(a, val[sl][:, None] * raw_c, count)
        differentials += _scatter(a, raw_c[:, :, None] * grad[:, None, :], count)
    rate = float(np.sum(np.einsum("ci,ci->c", var, var) / denom)) * pairs.volume
    return CurvatureField(velocities * pairs.volume, differentials * pairs.volume, rate)


def dissipation(v: Varifold, kernel: Kernel, spec: QuadratureSpec) -> float:
    """Mass-decay rate of the regularized flow, as computed by `curvature_field`.

    The lattice sum of ``|smoothed_first_variation|^2 / (smoothed_mass + eps)``; >= 0.
    """
    return curvature_field(v, kernel, spec).dissipation
