"""Point-cloud varifolds: weighted Dirac atoms carrying tangent planes.

A varifold here is a finite sum of atoms (position, plane, mass) in R^n
with d-dimensional planes, stored as stacked arrays (positions (N, n),
frames (N, d, n), masses (N,)) so the measure operations vectorize.
All values are immutable and every operation is a pure function, so the
module is safe for concurrent use.  Reductions run in fixed (atom-index)
order, which keeps results deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CertificateViolation, DimensionMismatch
from .geometry import FRAME_ORTHO_TOL, plane_distances, tangential_jacobian

__all__ = [
    "Varifold",
    "SampledMap",
    "first_variation",
    "weighted_first_variation",
    "push_forward",
    "compose",
    "compose_check",
]

DEFAULT_DIFFEO_SAFETY = 0.5


class Varifold:
    """An immutable weighted point cloud with tangent planes.

    Parameters
    ----------
    d, n : int
        Dimension of the planes and of the ambient space, 1 <= d <= n.
    positions : (N, n) array
    frames : (N, d, n) array
        Row-orthonormal basis per atom (checked to ``FRAME_ORTHO_TOL``).
    masses : (N,) array of nonnegative weights.
    """

    __slots__ = ("d", "n", "positions", "frames", "masses")

    def __init__(self, d: int, n: int, positions, frames, masses):
        d, n = int(d), int(n)
        if not 1 <= d <= n:
            raise DimensionMismatch(f"need 1 <= d <= n, got ({d}, {n})")
        positions = np.array(positions, dtype=float).reshape(-1, n)
        count = positions.shape[0]
        frames = np.array(frames, dtype=float).reshape(count, d, n)
        masses = np.array(masses, dtype=float).reshape(count)
        if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(frames)):
            raise ValueError("positions and frames must be finite")
        if np.any(masses < 0.0) or not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite and nonnegative")
        if count:
            gram = np.einsum("jdi,jei->jde", frames, frames)
            dev = np.abs(gram - np.eye(d)).max()
            if dev > FRAME_ORTHO_TOL:
                raise ValueError(f"atom frames are not orthonormal (max deviation {dev:.3e})")
        for arr in (positions, frames, masses):
            arr.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "masses", masses)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Varifold instances are immutable")

    def __len__(self) -> int:
        return self.positions.shape[0]

    def __repr__(self) -> str:
        return f"Varifold(d={self.d}, n={self.n}, atoms={len(self)}, mass={self.mass():.6g})"

    @classmethod
    def empty(cls, d: int, n: int) -> "Varifold":
        return cls(d, n, np.zeros((0, n)), np.zeros((0, d, n)), np.zeros(0))

    def projectors(self) -> np.ndarray:
        """Stacked (N, n, n) orthogonal projectors onto the atom planes."""
        return np.einsum("jdi,jdk->jik", self.frames, self.frames)

    def mass(self) -> float:
        return float(np.sum(self.masses))


@dataclass(frozen=True)
class SampledMap:
    """A displacement field sampled on the atoms of a varifold.

    ``velocities[j]`` is the displacement at atom j and ``differentials[j]``
    its spatial Jacobian, so the induced map is ``x + tau * velocities``
    with differential ``I + tau * differentials``.
    """

    velocities: np.ndarray
    differentials: np.ndarray

    def __post_init__(self):
        velocities = np.asarray(self.velocities, dtype=float)
        diffs = np.asarray(self.differentials, dtype=float)
        shape = velocities.shape
        if velocities.ndim != 2 or diffs.shape != (shape[0], shape[1], shape[1]):
            raise DimensionMismatch(f"inconsistent sampled map shapes {shape} / {diffs.shape}")
        if not (np.all(np.isfinite(velocities)) and np.all(np.isfinite(diffs))):
            raise ValueError("sampled map entries must be finite")
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "differentials", diffs)

    def __len__(self) -> int:
        return self.velocities.shape[0]

    @cached_property
    def sup_differential(self) -> float:
        """Largest operator norm among the sampled differentials.

        Computed once (one SVD per sample) and kept: a step's certificate
        gate and its diagnostics both read it.
        """
        if len(self) == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.differentials, ord=2, axis=(1, 2))))


def _check_samples(v: Varifold, count: int, what: str) -> None:
    if count != len(v):
        raise DimensionMismatch(f"{what}: expected {len(v)} per-atom samples, got {count}")


def first_variation(v: Varifold, x_jacobians) -> float:
    """Discrete first variation of v against a sampled vector field.

    Only the field's Jacobian samples enter: the value is
    ``sum_j m_j tr(P_j DX(x_j))``.
    """
    jac = np.asarray(x_jacobians, dtype=float)
    _check_samples(v, jac.shape[0], "first_variation")
    if len(v) == 0:
        return 0.0
    # tr(P DX) with P = F^T F: sum_{a,b} (F^T F)_{ab} DX_{ba}
    per_atom = np.einsum("jda,jdb,jba->j", v.frames, v.frames, jac)
    return float(np.dot(v.masses, per_atom))


def weighted_first_variation(v: Varifold, phi_values, phi_gradients, x_values, x_jacobians) -> float:
    """Discrete weighted first variation:
    ``sum_j m_j (phi_j tr(P_j DX_j) + grad(phi)_j . X_j)``.
    """
    phi = np.asarray(phi_values, dtype=float).reshape(-1)
    gphi = np.asarray(phi_gradients, dtype=float)
    xv = np.asarray(x_values, dtype=float)
    jac = np.asarray(x_jacobians, dtype=float)
    for arr, what in ((phi, "phi"), (gphi, "grad phi"), (xv, "X"), (jac, "DX")):
        _check_samples(v, arr.shape[0], f"weighted_first_variation ({what})")
    if len(v) == 0:
        return 0.0
    div = np.einsum("jda,jdb,jba->j", v.frames, v.frames, jac)
    transport = np.einsum("ji,ji->j", gphi, xv)
    return float(np.dot(v.masses, phi * div + transport))


def push_forward(
    v: Varifold,
    f: SampledMap,
    tau: float,
    safety: float = DEFAULT_DIFFEO_SAFETY,
) -> Varifold:
    """Transport the varifold by the sampled map ``id + tau * f``.

    Per atom: positions move by ``tau * value``, planes map through
    ``I + tau * differential`` and masses are scaled by the tangential
    Jacobian.  The atom count never changes.

    The sampled diffeomorphism certificate ``tau * max_j |Df_j| <= safety``
    is enforced first (the true supremum over R^n is not observable from
    samples); violations raise :class:`CertificateViolation` without
    touching any state.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    _check_samples(v, len(f), "push_forward")
    if tau == 0.0 or len(v) == 0:
        return v
    certificate = tau * f.sup_differential
    if certificate > safety:
        raise CertificateViolation(certificate, safety)

    positions = v.positions + tau * f.velocities
    jac, frames = tangential_jacobian(np.eye(v.n) + tau * f.differentials, v.frames)
    return Varifold(v.d, v.n, positions, frames, v.masses * jac)


def compose(v: Varifold, outer: SampledMap, inner: SampledMap) -> SampledMap:
    """Chain-rule assembly of ``(id + outer) o (id + inner)`` on v's atoms.

    ``inner`` must be sampled on v's atoms and ``outer`` on their images
    under ``id + inner`` (index-aligned).  Both maps are taken at unit time
    step.
    """
    _check_samples(v, len(inner), "compose (inner)")
    _check_samples(v, len(outer), "compose (outer)")
    velocities = inner.velocities + outer.velocities
    fo, fi = outer.differentials, inner.differentials
    diffs = fo + fi + np.einsum("jab,jbc->jac", fo, fi)
    return SampledMap(velocities, diffs)


def compose_check(v: Varifold, outer: SampledMap, inner: SampledMap) -> float:
    """Max discrepancy between iterated and composed push-forwards.

    Pushes v by ``inner`` then ``outer`` (unit time steps) and compares with
    the single push by the chain-rule composition: the result is the largest
    position / mass / plane deviation over atoms.  The contract is <= 1e-9.
    """
    step_inner = push_forward(v, inner, 1.0)
    step_outer = push_forward(step_inner, outer, 1.0)
    direct = push_forward(v, compose(v, outer, inner), 1.0)

    if len(v) == 0:
        return 0.0
    pos_err = float(np.max(np.linalg.norm(step_outer.positions - direct.positions, axis=1)))
    mass_err = float(np.max(np.abs(step_outer.masses - direct.masses)))
    plane_err = float(np.max(plane_distances(step_outer.frames, direct.frames)))
    return max(pos_err, mass_err, plane_err)
