"""Small dense linear algebra on the Grassmannian of d-planes in R^n.

A d-plane is stored as a row-orthonormal ``(d, n)`` frame, and a stack of
planes (a whole varifold, or every pair of two supports) as ``(..., d, n)``
frames; its orthogonal projector is ``frame.T @ frame``.  Everything here
is a pure function of small (n <= ~16) dense matrices, computed by direct
factorizations.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePushforward, DimensionMismatch

__all__ = [
    "plane_distances",
    "principal_angles",
    "align_frames",
    "tangential_jacobian",
]

FRAME_ORTHO_TOL = 1e-10
GRAM_RANK_TOL = 1e-14


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


def principal_angles(frame_s: np.ndarray, frame_t: np.ndarray) -> np.ndarray:
    """Principal angles (radians, nondecreasing) between the planes of two ``(d, n)`` frames."""
    sig = np.linalg.svd(frame_s @ frame_t.T, compute_uv=False)
    return np.arccos(np.clip(sig, 0.0, 1.0))


def align_frames(frame_s: np.ndarray, frame_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two ``(d, n)`` frames rotated within their planes into mutual alignment.

    Uses the SVD of ``frame_s @ frame_t.T``: rotating each frame by the
    corresponding singular-vector factor pairs the basis vectors along the
    principal directions, which realizes the operator-norm bound
    ``|frame_s - frame_t| <= 2 * plane_distances(frame_s, frame_t)``.
    """
    u, _, wt = np.linalg.svd(frame_s @ frame_t.T)
    return u.T @ frame_s, wt @ frame_t


def tangential_jacobian(df: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
