import numpy as np
import pytest
from conftest import random_frame
from hypothesis import given, settings
from hypothesis import strategies as st

from varmcf.errors import CertificateViolation, DegeneratePushforward, DimensionMismatch
from varmcf.geometry import plane_distances
from varmcf.ingest import ShapeSpec, generate
from varmcf.varifold import (
    SampledMap,
    Varifold,
    compose,
    compose_check,
    first_variation,
    push_forward,
    weighted_first_variation,
)


def single_atom(x=(0.0, 0.0), angle=0.0, mass=1.0):
    return Varifold(1, 2, [x], [[[np.cos(angle), np.sin(angle)]]], [mass])


def random_cloud(rng, count, d=1, n=2):
    positions = rng.standard_normal((count, n))
    frames = np.stack([random_frame(rng, d, n) for _ in range(count)])
    masses = rng.random(count) + 0.1
    return Varifold(d, n, positions, frames, masses)


class TestVarifold:
    def test_empty(self):
        v = Varifold.empty(1, 2)
        assert len(v) == 0 and v.mass() == 0.0

    def test_three_atoms(self):
        positions = [[float(i), 0.0] for i in range(3)]
        v = Varifold(1, 2, positions, np.tile(np.eye(1, 2), (3, 1, 1)), [0.5, 0.5, 0.5])
        assert v.mass() == pytest.approx(1.5)

    def test_circle_total_mass(self):
        v = generate(ShapeSpec("circle", samples=100))
        assert v.mass() == pytest.approx(2.0 * np.pi, abs=1e-12)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Varifold(1, 2, [[0.0, 0.0]], [[[1.0, 0.0]]], [-1.0])

    def test_rejects_sloppy_frames(self):
        with pytest.raises(ValueError):
            Varifold(1, 2, [[0.0, 0.0]], [[[1.0, 1.0]]], [1.0])

    def test_immutability(self):
        v = single_atom()
        with pytest.raises(ValueError):
            v.positions[0, 0] = 5.0
        with pytest.raises(AttributeError):
            v.masses = np.ones(1)


class TestFirstVariation:
    def test_constant_field_vanishes(self):
        v = random_cloud(np.random.default_rng(0), 10)
        zeros = np.zeros((10, 2, 2))
        assert first_variation(v, zeros) == 0.0

    def test_identity_jacobian_gives_mass_times_d(self):
        v = single_atom(mass=0.7)
        val = first_variation(v, np.eye(2)[None])
        assert val == pytest.approx(0.7 * 1.0)

    def test_shear_with_zero_tangential_trace(self):
        # plane along e1; DX = e1 x e2 + e2 x e1 has no diagonal part on it
        v = single_atom(angle=0.0)
        dx = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert first_variation(v, dx[None]) == pytest.approx(0.0, abs=1e-15)

    def test_length_mismatch(self):
        v = random_cloud(np.random.default_rng(1), 4)
        with pytest.raises(DimensionMismatch):
            first_variation(v, np.zeros((3, 2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_linearity(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        v = random_cloud(rng, 6)
        ja = rng.standard_normal((6, 2, 2))
        jb = rng.standard_normal((6, 2, 2))
        lhs = first_variation(v, alpha * ja + beta * jb)
        rhs = alpha * first_variation(v, ja) + beta * first_variation(v, jb)
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(alpha) + abs(beta)))

    def test_linear_in_masses(self):
        rng = np.random.default_rng(3)
        v = random_cloud(rng, 6)
        jac = rng.standard_normal((6, 2, 2))
        doubled = Varifold(v.d, v.n, v.positions, v.frames, 2.0 * v.masses)
        assert first_variation(doubled, jac) == pytest.approx(
            2.0 * first_variation(v, jac), rel=1e-12
        )


class TestWeightedFirstVariation:
    def test_unit_weight_reduces_to_first_variation(self):
        rng = np.random.default_rng(5)
        v = random_cloud(rng, 8)
        jac = rng.standard_normal((8, 2, 2))
        values = rng.standard_normal((8, 2))
        weighted = weighted_first_variation(
            v, np.ones(8), np.zeros((8, 2)), values, jac
        )
        assert weighted == pytest.approx(first_variation(v, jac), rel=1e-12)

    def test_zero_field(self):
        v = random_cloud(np.random.default_rng(6), 8)
        assert weighted_first_variation(
            v, np.ones(8), np.ones((8, 2)), np.zeros((8, 2)), np.zeros((8, 2, 2))
        ) == pytest.approx(0.0)

    def test_hand_evaluated_transport_term(self):
        # one atom at (2, 0) with mass 3, phi = x1, X = e1 constant
        v = single_atom(x=(2.0, 0.0), mass=3.0)
        val = weighted_first_variation(
            v,
            np.array([2.0]),
            np.array([[1.0, 0.0]]),
            np.array([[1.0, 0.0]]),
            np.zeros((1, 2, 2)),
        )
        assert val == pytest.approx(3.0)


class TestPushForward:
    def test_zero_time_is_bit_exact(self):
        v = random_cloud(np.random.default_rng(7), 12)
        f = SampledMap(np.ones((12, 2)), np.tile(np.eye(2), (12, 1, 1)))
        out = push_forward(v, f, 0.0)
        assert out is v

    def test_translation(self):
        v = random_cloud(np.random.default_rng(8), 12)
        shift = np.array([0.3, -0.2])
        f = SampledMap(np.tile(shift, (12, 1)), np.zeros((12, 2, 2)))
        out = push_forward(v, f, 0.5)
        assert np.allclose(out.positions, v.positions + 0.5 * shift)
        assert np.allclose(out.masses, v.masses, rtol=1e-14)
        assert plane_distances(out.frames, v.frames).max() < 1e-12

    def test_radial_contraction_scales_mass(self):
        v = generate(ShapeSpec("circle", samples=200))
        f = SampledMap(-v.positions, np.tile(-np.eye(2), (200, 1, 1)))
        out = push_forward(v, f, 0.1)
        assert np.allclose(out.masses, 0.9 * v.masses, rtol=1e-12)
        assert out.mass() == pytest.approx(0.9 * 2.0 * np.pi, rel=1e-12)
        assert np.allclose(np.linalg.norm(out.positions, axis=1), 0.9, atol=1e-12)

    def test_certificate_violation(self):
        v = single_atom()
        f = SampledMap(np.zeros((1, 2)), np.tile(3.0 * np.eye(2), (1, 1, 1)))
        with pytest.raises(CertificateViolation) as err:
            push_forward(v, f, 0.5)
        assert err.value.certificate == pytest.approx(1.5)

    def test_degenerate_map(self):
        v = single_atom(angle=0.0)
        crush = np.array([[-1.0, 0.0], [0.0, 0.0]])  # I + 1.0 * crush kills e1
        with pytest.raises(DegeneratePushforward):
            push_forward(v, SampledMap(np.zeros((1, 2)), crush[None]), 1.0, safety=1.0)

    def test_jacobian_range_under_small_certificate(self):
        rng = np.random.default_rng(9)
        v = random_cloud(rng, 30)
        diffs = rng.standard_normal((30, 2, 2))
        diffs *= 0.1 / np.max(np.linalg.norm(diffs, ord=2, axis=(1, 2)))
        out = push_forward(v, SampledMap(np.zeros((30, 2)), diffs), 1.0)
        ratios = out.masses / v.masses
        assert np.all((0.5 <= ratios) & (ratios <= 1.5))

    def test_atom_count_invariant(self):
        v = random_cloud(np.random.default_rng(10), 17)
        f = SampledMap(np.zeros((17, 2)), np.zeros((17, 2, 2)))
        assert len(push_forward(v, f, 0.3)) == 17

    def test_mass_expansion_is_second_order(self):
        # |mass(pushed) - mass - tau * deltaV(h)| = O(tau^2) for a fixed field
        rng = np.random.default_rng(11)
        v = random_cloud(rng, 25)
        values = rng.standard_normal((25, 2))
        diffs = rng.standard_normal((25, 2, 2))
        diffs /= np.max(np.linalg.norm(diffs, ord=2, axis=(1, 2)))
        f = SampledMap(values, diffs)
        dv = first_variation(v, diffs)
        taus = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = []
        for tau in taus:
            out = push_forward(v, f, tau)
            errs.append(abs(out.mass() - v.mass() - tau * dv))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestCompose:
    def test_identity_maps(self):
        v = random_cloud(np.random.default_rng(12), 10)
        ident = SampledMap(np.zeros((10, 2)), np.zeros((10, 2, 2)))
        assert compose_check(v, ident, ident) <= 1e-12

    def test_two_translations_exact(self):
        # dyadic data keeps the float additions associative, so exactly 0
        positions = np.array([[0.5, 0.25], [1.0, -0.75], [-0.5, 2.0]])
        frames = np.tile(np.eye(1, 2), (3, 1, 1))
        v = Varifold(1, 2, positions, frames, np.ones(3))
        g = SampledMap(np.tile([0.5, 0.25], (3, 1)), np.zeros((3, 2, 2)))
        f = SampledMap(np.tile([0.25, -0.5], (3, 1)), np.zeros((3, 2, 2)))
        assert compose_check(v, f, g) == 0.0

    def test_random_affine_pair(self):
        rng = np.random.default_rng(13)
        v = random_cloud(rng, 50)
        a_g = rng.standard_normal((2, 2))
        a_g *= 0.15 / np.linalg.norm(a_g, ord=2)
        b_g = rng.standard_normal(2)
        g = SampledMap(v.positions @ a_g.T + b_g, np.tile(a_g, (50, 1, 1)))
        mid = v.positions + (v.positions @ a_g.T + b_g)
        a_f = rng.standard_normal((2, 2))
        a_f *= 0.15 / np.linalg.norm(a_f, ord=2)
        b_f = rng.standard_normal(2)
        f = SampledMap(mid @ a_f.T + b_f, np.tile(a_f, (50, 1, 1)))
        assert compose_check(v, f, g) <= 1e-9

    def test_chain_rule_assembly(self):
        rng = np.random.default_rng(14)
        v = random_cloud(rng, 5)
        g = SampledMap(rng.standard_normal((5, 2)), 0.1 * rng.standard_normal((5, 2, 2)))
        f = SampledMap(rng.standard_normal((5, 2)), 0.1 * rng.standard_normal((5, 2, 2)))
        combined = compose(v, f, g)
        for j in range(5):
            expected = (np.eye(2) + f.differentials[j]) @ (np.eye(2) + g.differentials[j])
            assert np.allclose(np.eye(2) + combined.differentials[j], expected, atol=1e-14)
