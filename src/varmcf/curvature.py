"""Regularized mean curvature of a point-cloud varifold.

The velocity field is a double convolution: the kernel smooths the mass
and the first variation of the varifold into a pointwise field

    raw(y) = - (smoothed first variation)(y) / ((smoothed mass)(y) + eps),

which is then convolved once more with the kernel to produce the per-atom
velocity and its spatial differential.  Both convolutions and the
dissipation integral run over the (lattice cell, atom) pairs within
``r = min(1, factor * eps)`` of each other, on a uniform lattice centred
on the atoms' bounding box.

Each atom reaches its cells through one integer stencil, the offsets
``o`` with ``|o| <= r / h + sqrt(n) / 2`` from its nearest cell, so the
candidate pairs form dense (atom, offset) blocks; candidates beyond r
weigh zero.  The field takes two passes over the candidates and evaluates
the kernel once per candidate, in the first: that pass adds the smoothed
mass and first variation into the lattice, one ``bincount`` per
component, and keeps each candidate's kernel value and slope; the second
walks the same candidates again, gathers the raw field back and forms
each atom's velocity and differential as one small matrix product.  The
cells give the dissipation, so the discrete identity
``sum_j m_j tr(P_j Dh_j) = -dissipation`` holds up to rounding.

The inner sums are cut at r (`QuadratureSpec` states the error of the
cut).  All sums run in a fixed order whatever the thread count, so
results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureBudgetExceeded
from .kernel import Kernel
from .varifold import SampledMap, Varifold

__all__ = [
    "QuadratureSpec",
    "CurvatureField",
    "curvature_field",
    "dissipation",
]

# Stencil candidates evaluated per atom block; bounds the per-block temporaries.
BLOCK_CANDIDATES = 1 << 13


@dataclass(frozen=True)
class QuadratureSpec:
    """Lattice of the convolution and dissipation sums.

    points_per_axis : cells per kernel-ball diameter (>= 4); the lattice
        spacing is ``2 r / points_per_axis``.
    domain_radius_factor : the kernel ball radius is
        ``r = min(1, factor * eps)`` (>= 4).  Against a cut at 10 eps, the
        default cut at 5 eps moves the velocities by 4e-5 to 1e-4 relative,
        and the differentials by 3e-4 at eps 0.05, rising to 3e-2 at eps
        0.00625 (circles sampled at spacing eps/4).
    max_nodes : budget (>= 1) on the cells of the lattice over the
        bounding box and on the stencil candidates, the (atom, cell) pairs
        the field evaluates, within r or not.  Both are checked before any
        kernel evaluation.  The field keeps a kernel value and slope per
        candidate between its two passes, so at most ``16 * max_nodes``
        bytes (4.7 MB for the 100-atom sphere at eps 0.2, 2,945 candidates
        per atom).
    """

    points_per_axis: int = 16
    domain_radius_factor: float = 5.0
    max_nodes: int = 20_000_000

    def __post_init__(self):
        if self.points_per_axis < 4:
            raise ValueError("points_per_axis must be >= 4")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if not (math.isfinite(self.domain_radius_factor) and self.domain_radius_factor >= 4.0):
            raise ValueError(
                f"domain_radius_factor must be finite and >= 4, got {self.domain_radius_factor}"
            )

    def refined(self, factor: int = 2) -> "QuadratureSpec":
        """Same spec with ``factor`` times as many points per axis."""
        return replace(self, points_per_axis=self.points_per_axis * factor)

    def radius(self, eps: float) -> float:
        """Radius r of the kernel ball at scale eps."""
        return min(1.0, self.domain_radius_factor * eps)


@dataclass(frozen=True)
class CurvatureField(SampledMap):
    """The regularized curvature h sampled on the atoms, the map a step
    pushes by (``id + tau h``), plus the mass-decay rate ``dissipation``
    computed from the same pairs.
    """

    dissipation: float


def _lattice(v: Varifold, kernel: Kernel, spec: QuadratureSpec):
    """The lattice of the sums and every atom's candidate cells on it.

    The lattice covers the r-fattened bounding box of the atoms: cell ``k``
    (a multi-index with ``0 <= k < counts``) sits at
    ``mid + (k - (counts - 1) / 2) h``, mid the centre of the box, and has the
    C-order linear id ``k . strides``.  The candidates of atom j are the cells
    ``base_j + o`` over the integer offsets ``|o| <= r / h + sqrt(n) / 2``:
    every cell within r of the atom is one, because ``delta_j``, the atom
    minus the centre of its nearest cell, is at most ``h sqrt(n) / 2`` long.

    Returns ``(cells, h, blocks)``: the lattice's cell count, its spacing
    and a generator function over the candidates in atom blocks of about
    ``BLOCK_CANDIDATES``, which yields the same blocks each time it runs.
    Each block is ``(atoms, diff, ids)``: the atom indices,
    ``diff[b, :, s] = x_j - z`` for atom ``j = atoms[b]`` and its candidate
    cell z, and the cells' linear ids; ``diff`` is C-contiguous.  Blocks
    take the atoms in the lattice order of their nearest cells, so a
    block's cells lie close together.  The id of a candidate off the
    lattice wraps into another row or is clipped to the lattice, but such a
    cell is more than ``r + h / 2`` from the atom.

    Raises QuadratureBudgetExceeded when the lattice's cells or the
    candidates exceed ``spec.max_nodes``.
    """
    n = v.n
    radius = spec.radius(kernel.eps)
    h = 2.0 * radius / spec.points_per_axis
    lo = v.positions.min(axis=0) - radius
    hi = v.positions.max(axis=0) + radius
    counts = np.ceil((hi - lo) / h).astype(int)
    cells = math.prod(counts.tolist())
    if cells > spec.max_nodes:
        raise QuadratureBudgetExceeded(f"{cells} lattice cells exceed budget {spec.max_nodes}")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (counts - 1)
    nearest = np.rint((v.positions - mid) / h + half).astype(np.intp)
    delta = v.positions - (mid + (nearest - half) * h)

    reach = radius / h + 0.5 * math.sqrt(n)
    width = math.floor(reach)
    # a column mask returns Fortran order; C order puts the stencil at unit stride
    grid = np.indices((2 * width + 1,) * n).reshape(n, -1) - width
    offsets = np.ascontiguousarray(grid[:, np.einsum("is,is->s", grid, grid) <= reach * reach])
    candidates = len(v) * offsets.shape[1]
    if candidates > spec.max_nodes:
        raise QuadratureBudgetExceeded(
            f"{candidates} stencil candidates exceed budget {spec.max_nodes}"
        )
    strides = np.array([math.prod(counts[i + 1:].tolist()) for i in range(n)], dtype=np.intp)
    steps, shifts, base = h * offsets, strides @ offsets, nearest @ strides

    def blocks():
        per_block = max(1, BLOCK_CANDIDATES // shifts.size)
        order = np.argsort(base, kind="stable")
        for start in range(0, order.size, per_block):
            atoms = order[start:start + per_block]
            diff = delta[atoms, :, None] - steps
            ids = np.clip(base[atoms, None] + shifts, 0, cells - 1)
            yield atoms, diff, ids

    return cells, h, blocks


def curvature_field(v: Varifold, kernel: Kernel, spec: QuadratureSpec) -> CurvatureField:
    """Per-atom velocity, differential and dissipation of the regularized curvature.

    With ``Phi`` the kernel and the sums over the (cell, atom) pairs within r:

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
    if count == 0:
        return CurvatureField(np.zeros((0, n)), np.zeros((0, n, n)), 0.0)
    cells, h, blocks = _lattice(v, kernel, spec)
    radius = spec.radius(kernel.eps)
    volume = h**n
    projectors = v.projectors()

    # Cell sums over the lattice, each block adding into the span of its cells.
    mass = np.zeros(cells)
    var = np.zeros((n, cells))
    kept = []
    for atoms, diff, ids in blocks():
        r2 = np.einsum("bis,bis->bs", diff, diff)
        val, slope = kernel._value_and_grad_scalar(r2, radius)
        kept.append((val, slope))
        first = int(ids.min())
        local = (ids - first).reshape(-1)
        span = slice(first, first + int(local.max()) + 1)
        masses = v.masses[atoms, None]
        mass[span] += np.bincount(local, (masses * val).reshape(-1))
        weighted = (masses * slope)[:, None, :] * (projectors[atoms] @ diff)
        for i in range(n):
            var[i, span] += np.bincount(local, weighted[:, i].reshape(-1))
    denom = mass + kernel.eps
    raw = np.ascontiguousarray((-var / denom).T)

    # Per-atom sums over the same candidates, with the kernel values kept from
    # the cell sums: per atom, the product [val; slope diff] raw holds h_j
    # in its first row and Dh_j^T below it.
    sampled = np.empty((count, 1 + n, n))
    for (atoms, diff, ids), (val, slope) in zip(blocks(), kept):
        weights = np.empty((val.shape[0], 1 + n, val.shape[1]))
        weights[:, 0] = val
        np.multiply(slope[:, None, :], diff, out=weights[:, 1:])
        sampled[atoms] = weights @ np.take(raw, ids, axis=0)
    sampled *= volume
    rate = float(np.sum(np.einsum("ic,ic->c", var, var) / denom)) * volume
    return CurvatureField(sampled[:, 0], sampled[:, 1:].transpose(0, 2, 1), rate)


def dissipation(v: Varifold, kernel: Kernel, spec: QuadratureSpec) -> float:
    """Mass-decay rate of the regularized flow, as computed by `curvature_field`.

    The lattice sum of ``|var_c|^2 / (mass_c + eps)`` of `curvature_field`; >= 0.
    """
    return curvature_field(v, kernel, spec).dissipation
