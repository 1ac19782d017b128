import numpy as np
import pytest
from conftest import random_frame

from varmcf.errors import DegeneratePushforward, DimensionMismatch
from varmcf.geometry import (
    FRAME_ORTHO_TOL,
    align_frames,
    plane_distances,
    tangential_jacobian,
)
from varmcf.varifold import Varifold

SPACES = [(1, 2), (1, 3), (2, 3), (2, 4)]


def line2(angle):
    return np.array([[np.cos(angle), np.sin(angle)]])


def projector(frame):
    return frame.T @ frame


def principal_angles(frame_s: np.ndarray, frame_t: np.ndarray) -> np.ndarray:
    """Principal angles (radians, nondecreasing) between the planes of two ``(d, n)`` frames."""
    sig = np.linalg.svd(frame_s @ frame_t.T, compute_uv=False)
    return np.arccos(np.clip(sig, 0.0, 1.0))


class TestPlane:
    def test_rejects_non_orthonormal_frame(self):
        # a varifold checks its frames to FRAME_ORTHO_TOL, the one orthonormality tolerance
        def atom(gram_deviation):
            frame = [[[np.sqrt(1.0 + gram_deviation), 0.0]]]
            return Varifold(1, 2, [[0.0, 0.0]], frame, [1.0])

        atom(0.5 * FRAME_ORTHO_TOL)
        with pytest.raises(ValueError, match="not orthonormal"):
            atom(2.0 * FRAME_ORTHO_TOL)

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(DimensionMismatch):
            Varifold(3, 2, [[0.0, 0.0]], np.eye(3, 2)[None], [1.0])

    @pytest.mark.parametrize("d,n", SPACES)
    def test_projector_invariants(self, d, n):
        rng = np.random.default_rng(7)
        frames = np.stack([random_frame(rng, d, n) for _ in range(20)])
        for p in Varifold(d, n, np.zeros((20, n)), frames, np.ones(20)).projectors():
            assert np.abs(p - p.T).max() < 1e-10
            assert np.abs(p @ p - p).max() < 1e-10
            assert abs(np.trace(p) - d) < 1e-10


class TestPlaneDistance:
    def test_identical_planes(self):
        s = line2(0.7)
        assert plane_distances(s, s) == 0.0

    def test_orthogonal_lines(self):
        assert plane_distances(line2(0.0), line2(np.pi / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_line_matches_eigenvalue_oracle(self):
        # oracle: eigenvalues of the explicit 2x2 projector difference
        alpha = 0.3
        s, t = line2(0.0), line2(alpha)
        diff = projector(s) - projector(t)
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
        assert plane_distances(s, t) == pytest.approx(oracle, abs=1e-12)
        assert plane_distances(s, t) == pytest.approx(np.sin(alpha), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            plane_distances(line2(0.0), np.array([[1.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("d,n", SPACES)
    def test_metric_properties(self, d, n):
        rng = np.random.default_rng(11)
        planes = [random_frame(rng, d, n) for _ in range(12)]
        for a in planes:
            for b in planes:
                dab = plane_distances(a, b)
                assert 0.0 <= dab <= 1.0 + 1e-12
                assert dab == pytest.approx(plane_distances(b, a), abs=1e-12)
                for c in planes:
                    assert dab <= plane_distances(a, c) + plane_distances(c, b) + 1e-9

    def test_equals_sine_of_largest_principal_angle(self):
        rng = np.random.default_rng(3)
        for d, n in SPACES:
            s, t = random_frame(rng, d, n), random_frame(rng, d, n)
            theta = principal_angles(s, t)[-1]
            assert plane_distances(s, t) == pytest.approx(np.sin(theta), abs=1e-9)


class TestAlignFrames:
    def test_same_plane_different_frames(self):
        rng = np.random.default_rng(5)
        base = random_frame(rng, 2, 4)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        other = q @ base
        fa, fb = align_frames(base, other)
        assert np.abs(fa - fb).max() < 1e-10

    def test_orthogonal_lines_saturate_bound(self):
        fa, fb = align_frames(line2(0.0), line2(np.pi / 2))
        gap = np.linalg.norm(fa - fb, ord=2)
        assert gap == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert gap <= 2.0

    @pytest.mark.parametrize("d,n", SPACES)
    def test_alignment_bound(self, d, n):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s, t = random_frame(rng, d, n), random_frame(rng, d, n)
            fa, fb = align_frames(s, t)
            assert np.allclose(fa @ fa.T, np.eye(d), atol=1e-10)
            assert np.allclose(fb @ fb.T, np.eye(d), atol=1e-10)
            # rotated frames still span the same planes
            assert np.abs(projector(fa) - projector(s)).max() < 1e-10
            assert np.abs(projector(fb) - projector(t)).max() < 1e-10
            gap = np.linalg.norm(fa - fb, ord=2)
            assert gap <= 2.0 * plane_distances(s, t) + 1e-9


class TestTangentialJacobian:
    def test_identity_map(self):
        s = line2(0.0)
        j, image = tangential_jacobian(np.eye(2), s)
        assert j == pytest.approx(1.0, abs=1e-14)
        assert plane_distances(image, s) < 1e-12

    @pytest.mark.parametrize("d,n", SPACES)
    def test_uniform_scaling(self, d, n):
        rng = np.random.default_rng(17)
        s = random_frame(rng, d, n)
        a = 0.2
        j, image = tangential_jacobian((1.0 + a) * np.eye(n), s)
        assert j == pytest.approx((1.0 + a) ** d, rel=1e-12)
        assert plane_distances(image, s) < 1e-12

    def test_shear_line(self):
        # oracle: the 1x1 Gram determinant of the sheared direction
        tau = 0.1
        s = line2(0.0)
        df = np.eye(2)
        df[1, 0] = tau
        j, image = tangential_jacobian(df, s)
        assert j == pytest.approx(np.sqrt(1.0 + tau**2), rel=1e-12)
        expected = np.array([[1.0, tau]]) / np.sqrt(1.0 + tau**2)
        assert plane_distances(image, expected) < 1e-12

    def test_image_projector_formula(self):
        rng = np.random.default_rng(19)
        for d, n in SPACES:
            s = random_frame(rng, d, n)
            df = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            _, image = tangential_jacobian(df, s)
            y = df @ s.T
            oracle = y @ np.linalg.inv(y.T @ y) @ y.T
            assert np.abs(image.T @ image - oracle).max() < 1e-9

    def test_degenerate_map(self):
        s = line2(0.0)
        crush = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegeneratePushforward):
            tangential_jacobian(crush, s)

    def test_multiplicativity(self):
        rng = np.random.default_rng(23)
        for d, n in SPACES:
            s = random_frame(rng, d, n)
            df = np.eye(n) + 0.2 * rng.standard_normal((n, n))
            dg = np.eye(n) + 0.2 * rng.standard_normal((n, n))
            j_g, mid = tangential_jacobian(dg, s)
            j_f, _ = tangential_jacobian(df, mid)
            j_fg, _ = tangential_jacobian(df @ dg, s)
            assert abs(j_fg - j_f * j_g) < 1e-9

    @pytest.mark.parametrize("d,n", SPACES)
    def test_stacked_matches_per_atom_reference(self, d, n):
        # reference: per-atom Gram determinant and the image projector
        # y (y^T y)^{-1} y^T, compared by the top singular value of the difference
        rng = np.random.default_rng(37)
        count = 40
        frames = np.stack([random_frame(rng, d, n) for _ in range(count)])
        dfs = np.eye(n) + 0.3 * rng.standard_normal((count, n, n))
        jac, images = tangential_jacobian(dfs, frames)
        assert jac.shape == (count,) and images.shape == (count, d, n)
        for j in range(count):
            y = dfs[j] @ frames[j].T
            gram = y.T @ y
            ref = np.sqrt(np.linalg.det(gram))
            assert abs(jac[j] - ref) <= 1e-14 * ref
            oracle = y @ np.linalg.inv(gram) @ y.T
            gap = np.linalg.svd(images[j].T @ images[j] - oracle, compute_uv=False)[0]
            assert gap <= 1e-12

    def test_stacked_names_the_crushed_atom(self):
        rng = np.random.default_rng(41)
        frames = np.stack([random_frame(rng, 2, 3) for _ in range(10)])
        dfs = np.tile(np.eye(3), (10, 1, 1))
        dfs[6] = np.eye(3) - frames[6].T @ frames[6]  # maps the plane to 0
        with pytest.raises(DegeneratePushforward, match=r"at atom 6:"):
            tangential_jacobian(dfs, frames)

    def test_first_order_expansion_is_second_order_accurate(self):
        # |J(I + R) - 1 - tr(R P)| should scale like |R|_inf^2
        rng = np.random.default_rng(29)
        d, n = 2, 4
        s = random_frame(rng, d, n)
        sizes = np.array([0.1, 0.05, 0.025, 0.0125])
        worst = []
        for size in sizes:
            errs = []
            for _ in range(50):
                r = rng.standard_normal((n, n))
                r *= size / np.abs(r).max()
                j, _ = tangential_jacobian(np.eye(n) + r, s)
                errs.append(abs(j - 1.0 - np.trace(r @ projector(s))))
            worst.append(max(errs))
        slope = np.polyfit(np.log(sizes), np.log(worst), 1)[0]
        assert 1.8 <= slope <= 2.2

