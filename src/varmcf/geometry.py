"""Small dense linear algebra on the Grassmannian of d-planes in R^n.

Planes are stored as row-orthonormal frames; the associated orthogonal
projector is derived and cached.  Everything here is a pure function of
small (n <= ~16) dense matrices, computed by direct factorizations.  The
plane distance and the tangential Jacobian take stacked frames ``(..., d, n)``
so that a whole varifold, or every pair of two supports, is one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegeneratePushforward, DimensionMismatch

__all__ = [
    "LinearMap",
    "Plane",
    "plane_distance",
    "plane_distances",
    "principal_angles",
    "align_frames",
    "tangential_jacobian",
    "det_perturbation_check",
]

# An n x n real matrix acting on R^n (e.g. the differential of a map).
LinearMap = np.ndarray

FRAME_ORTHO_TOL = 1e-10
GRAM_RANK_TOL = 1e-14


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Plane:
    """A d-dimensional linear subspace of R^n.

    Parameters
    ----------
    frame : (d, n) ndarray
        Rows form an orthonormal basis of the subspace (checked to 1e-10).

    The n x n orthogonal projector ``frame.T @ frame`` is computed once and
    cached.  Instances are immutable and safe to share across threads.
    """

    frame: np.ndarray
    projector: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        frame = _as_readonly(self.frame)
        if frame.ndim != 2:
            raise DimensionMismatch(f"frame must be d x n, got shape {frame.shape}")
        d, n = frame.shape
        if not 1 <= d <= n:
            raise DimensionMismatch(f"need 1 <= d <= n, got (d, n) = ({d}, {n})")
        gram = frame @ frame.T
        if not np.allclose(gram, np.eye(d), atol=FRAME_ORTHO_TOL, rtol=0.0):
            raise ValueError(
                f"frame rows are not orthonormal (max deviation "
                f"{np.abs(gram - np.eye(d)).max():.3e})"
            )
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "projector", _as_readonly(frame.T @ frame))

    @property
    def d(self) -> int:
        return self.frame.shape[0]

    @property
    def n(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def span(cls, vectors: np.ndarray) -> "Plane":
        """Plane spanned by the rows of ``vectors`` (orthonormalized by QR)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        q, r, _ = scipy.linalg.qr(vectors.T, mode="economic", pivoting=True)
        rank = int(np.sum(np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())))
        if rank < vectors.shape[0]:
            raise ValueError("spanning vectors are linearly dependent")
        return cls(q.T)

    def normal_projector(self) -> np.ndarray:
        """Projector onto the orthogonal complement, I_n - P."""
        return np.eye(self.n) - self.projector


def _check_same_space(s: Plane, t: Plane) -> None:
    if (s.d, s.n) != (t.d, t.n):
        raise DimensionMismatch(
            f"planes live in different spaces: ({s.d}, {s.n}) vs ({t.d}, {t.n})"
        )


def plane_distances(frames_s: np.ndarray, frames_t: np.ndarray) -> np.ndarray:
    """Stacked operator 2-norms ``|P_s - P_t|`` of projector differences.

    ``frames_s`` and ``frames_t`` are row-orthonormal ``(..., d, n)`` stacks
    with the same d that broadcast against each other.  For equal-dimension
    planes the norm is the largest singular value of the d x n residual
    ``F_s (I - P_t)``, the sine of the largest principal angle, so it is read
    off as the top eigenvalue of a d x d Gram matrix.  The residual is taken
    of ``F_s - F_t`` (``F_t (I - P_t)`` vanishes), which keeps small angles
    accurate and identical frames at exactly zero.
    """
    frames_s = np.asarray(frames_s, dtype=float)
    frames_t = np.asarray(frames_t, dtype=float)
    if frames_s.shape[-2:] != frames_t.shape[-2:]:
        raise DimensionMismatch(
            f"planes live in different spaces: {frames_s.shape[-2:]} vs {frames_t.shape[-2:]}"
        )
    diff = frames_s - frames_t
    residual = diff - (diff @ np.swapaxes(frames_t, -1, -2)) @ frames_t
    gram = residual @ np.swapaxes(residual, -1, -2)
    top = gram[..., 0, 0] if gram.shape[-1] == 1 else np.linalg.eigvalsh(gram)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def plane_distance(s: Plane, t: Plane) -> float:
    """Operator 2-norm of the projector difference.

    Equals the sine of the largest principal angle between the subspaces,
    so the value lies in [0, 1].
    """
    return float(plane_distances(s.frame, t.frame))


def principal_angles(s: Plane, t: Plane) -> np.ndarray:
    """Principal angles (radians, nondecreasing) between two d-planes."""
    _check_same_space(s, t)
    sig = np.linalg.svd(s.frame @ t.frame.T, compute_uv=False)
    return np.arccos(np.clip(sig, 0.0, 1.0))


def align_frames(s: Plane, t: Plane) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frames of ``s`` and ``t`` rotated into mutual alignment.

    Uses the SVD of ``frame_s @ frame_t.T``: rotating each frame by the
    corresponding singular-vector factor pairs the basis vectors along the
    principal directions, which realizes the operator-norm bound
    ``|frame_s - frame_t| <= 2 * plane_distance(s, t)``.
    """
    _check_same_space(s, t)
    u, _, wt = np.linalg.svd(s.frame @ t.frame.T)
    return u.T @ s.frame, wt @ t.frame


def tangential_jacobian(df: LinearMap, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of linear maps restricted to planes, and the image frames.

    ``df`` is a stack of ``(..., n, n)`` maps and ``frames`` a stack of
    ``(..., d, n)`` row-orthonormal frames; the two broadcast.  With
    ``y = df @ frames^T`` the Jacobians ``(...)`` are ``det(y^T y) ** 0.5``
    and the image frames ``(..., d, n)`` are the transposed Q factors of the
    reduced QR of ``y`` (a basis of its column span).  Raises
    :class:`DegeneratePushforward`, naming the first offending stack index,
    when some ``y`` loses rank (the map crushes the plane).
    """
    df = np.asarray(df, dtype=float)
    frames = np.asarray(frames, dtype=float)
    n = frames.shape[-1]
    if df.shape[-2:] != (n, n):
        raise DimensionMismatch(f"differential must be {n} x {n}, got {df.shape[-2:]}")
    y = df @ np.swapaxes(frames, -1, -2)
    det = np.linalg.det(np.swapaxes(y, -1, -2) @ y)
    bad = det <= GRAM_RANK_TOL
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f" at atom {index[0] if len(index) == 1 else index}" if index else ""
        raise DegeneratePushforward(
            f"push-forward is degenerate{where}: Gram determinant "
            f"{det[index]:.3e} <= {GRAM_RANK_TOL:.0e}"
        )
    q, _ = np.linalg.qr(y)
    return np.sqrt(det), np.swapaxes(q, -1, -2)


def det_perturbation_check(q: np.ndarray) -> tuple[float, float]:
    """First-order determinant expansion errors for I + Q, |Q|_inf <= 1.

    Returns ``(|det(I+Q) - 1|, |det(I+Q) - 1 - tr(Q)|)``; the second is
    second order in the entrywise max norm of Q, which tests assert as a
    rate (the sharp constant is not tracked).
    """
    q = np.asarray(q, dtype=float)
    k = q.shape[0]
    if q.shape != (k, k):
        raise DimensionMismatch(f"expected a square matrix, got {q.shape}")
    det = float(np.linalg.det(np.eye(k) + q))
    return abs(det - 1.0), abs(det - 1.0 - float(np.trace(q)))
