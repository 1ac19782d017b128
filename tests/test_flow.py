import json

import numpy as np
import pytest

from varmcf.cli import main
from varmcf.curvature import QuadratureSpec, curvature_field
from varmcf.errors import CertificateViolation, ConfigError, EngineError
from varmcf.flow import (
    FailureRecord,
    FlowConfig,
    GaussianBump,
    StepDiagnostics,
    Subdivision,
    Trajectory,
    brakke_residual,
    evolve,
    read_trajectory_json,
    refinement_study,
    write_atoms_csv,
    write_diagnostics_csv,
    write_trajectory_json,
)
from varmcf.ingest import ShapeSpec, generate
from varmcf.metric import bounded_lipschitz_distance
from varmcf.varifold import Varifold

FAST_QUAD = QuadratureSpec(points_per_axis=8)


def single_atom():
    return Varifold(1, 2, np.zeros((1, 2)), np.eye(1, 2)[None], [1.0])


def one_step(v, eps, tau, quadrature=FAST_QUAD):
    """The trajectory of a single flow step of size tau."""
    config = FlowConfig(eps=eps, subdivision=Subdivision.uniform(1, tau), quadrature=quadrature)
    return evolve(v, config)


def circle(n_atoms, radius=1.0):
    return generate(ShapeSpec("circle", samples=n_atoms, radius=radius))


class ConstantTest:
    """phi(x, t) = c."""

    def __init__(self, c: float = 1.0):
        self.c = float(c)

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], self.c)

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros_like(x)


class TestSubdivision:
    def test_uniform(self):
        sub = Subdivision.uniform(4, 0.8)
        assert sub.steps == 4
        assert sub.delta == pytest.approx(0.2)
        assert sub.horizon == pytest.approx(0.8)

    def test_dyadic(self):
        sub = Subdivision.dyadic(3)
        assert sub.steps == 8
        assert sub.delta == pytest.approx(0.125)

    def test_validation(self):
        with pytest.raises(ValueError):
            Subdivision(np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            Subdivision(np.array([0.0, 0.5, 0.5]))

    def test_horizon_beyond_one_warns(self):
        with pytest.warns(UserWarning):
            Subdivision.uniform(4, 1.5)


class TestStep:
    def test_single_atom_keeps_position_and_mass_for_tiny_tau(self):
        v = single_atom()
        traj = one_step(v, 0.3, 1e-9)
        out, diag = traj.snapshots[-1], traj.diagnostics[0]
        assert np.abs(out.positions - v.positions).max() <= 1e-8
        assert np.abs(out.masses - v.masses).max() <= 1e-8
        assert diag.mass_bound_ok

    def test_single_atom_mass_decays_at_the_dissipation_rate(self):
        v = single_atom()
        tau = 1e-3
        traj = one_step(v, 0.3, tau)
        out, diag = traj.snapshots[-1], traj.diagnostics[0]
        assert np.abs(out.positions - v.positions).max() <= 1e-8
        drop = v.mass() - out.mass()
        assert drop > 0.0
        assert drop == pytest.approx(tau * diag.dissipation, rel=1e-2)

    def test_circle_shrinks_and_loses_mass(self):
        v = circle(100)
        traj = one_step(v, 0.05, 1e-3, QuadratureSpec())
        out, diag = traj.snapshots[-1], traj.diagnostics[0]
        assert np.all(np.linalg.norm(out.positions, axis=1) < 1.0)
        assert out.mass() < v.mass()
        assert diag.mass_after <= diag.mass_before + 1e-3
        assert 0.5 <= diag.jacobian_min <= diag.jacobian_max <= 1.5

    def test_certificate_norm_is_computed_once_per_step(self, monkeypatch):
        # the gate in push_forward and the diagnostics row share one SVD pass
        norm, calls = np.linalg.norm, []

        def counting(x, ord=None, axis=None, keepdims=False):
            calls.append(ord)
            return norm(x, ord=ord, axis=axis, keepdims=keepdims)

        monkeypatch.setattr(np.linalg, "norm", counting)
        subdivision = Subdivision.uniform(3, 0.003)
        config = FlowConfig(eps=0.1, subdivision=subdivision, quadrature=FAST_QUAD)
        traj = evolve(circle(30), config)
        assert len(traj.diagnostics) == 3
        assert calls.count(2) == 3

    def test_certificate_violation_leaves_no_state(self):
        v = circle(30)
        traj = one_step(v, 0.05, 1.0)
        assert traj.failure.step == 0
        assert traj.failure.reason.startswith("CertificateViolation: ")
        assert traj.snapshots == [v] and traj.diagnostics == []
        assert traj.field_at(0).sup_differential > traj.config.diffeo_safety


class TestEvolve:
    def test_single_atom_constant_positions(self):
        config = FlowConfig(eps=0.3, subdivision=Subdivision.uniform(20, 0.02), quadrature=FAST_QUAD)
        traj = evolve(single_atom(), config)
        assert traj.failure is None
        assert len(traj.snapshots) == 21
        drift = max(np.abs(s.positions).max() for s in traj.snapshots)
        assert drift <= 1e-8

    def test_crossing_lines_center_pinned(self):
        v = generate(ShapeSpec("crossing-lines", samples=15, length=2.0))
        config = FlowConfig(eps=0.2, subdivision=Subdivision.uniform(20, 0.02), quadrature=FAST_QUAD)
        traj = evolve(v, config)
        center = np.flatnonzero(np.linalg.norm(v.positions, axis=1) == 0.0)
        final = traj.snapshots[-1]
        assert np.abs(final.positions[center]).max() <= 1e-6
        # endpoints genuinely contract: the fixture is not globally rigid
        assert np.linalg.norm(final.positions, axis=1).max() < 1.0

    def test_circle_tracks_the_shrinking_radius_law(self):
        config = FlowConfig(eps=0.05, subdivision=Subdivision.uniform(40, 0.04))
        traj = evolve(circle(200), config)
        for t, snap in zip(traj.times, traj.snapshots):
            mean_radius = np.linalg.norm(snap.positions, axis=1).mean()
            assert mean_radius == pytest.approx(np.sqrt(1.0 - 2.0 * t), rel=0.1)

    def test_mass_monotone_with_per_step_slack(self):
        config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(10, 0.01), quadrature=FAST_QUAD)
        traj = evolve(circle(50), config)
        assert all(d.mass_bound_ok for d in traj.diagnostics)
        masses = traj.mass_history()
        assert np.all(np.diff(masses) <= 1e-12)

    def test_abort_keeps_partial_trajectory(self):
        config = FlowConfig(
            eps=0.05,
            subdivision=Subdivision(np.array([0.0, 1e-4, 0.9])),
            quadrature=FAST_QUAD,
            diffeo_safety=0.05,
        )
        traj = evolve(circle(30), config)
        assert traj.failure is not None
        assert traj.failure.step == 1
        assert traj.failure.reason.startswith("CertificateViolation: ")
        assert len(traj.snapshots) == 2

    def test_field_error_ends_the_run_with_a_failure_record(self):
        # the 576-cell lattice fits max_nodes, the 3,450 stencil candidates do not
        spec = QuadratureSpec(points_per_axis=8, max_nodes=1000)
        config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(4, 0.004), quadrature=spec)
        traj = evolve(circle(50), config)
        assert traj.failure is not None
        assert (traj.failure.step, traj.failure.time) == (0, 0.0)
        assert traj.failure.reason.startswith("QuadratureBudgetExceeded: ")
        assert "3450 stencil candidates exceed budget 1000" in traj.failure.reason
        assert len(traj.snapshots) == 1 and traj.diagnostics == []

    def test_strict_gate_rejects_coarse_subdivisions(self):
        config = FlowConfig(
            eps=0.3,
            subdivision=Subdivision.uniform(10, 1.0),
            quadrature=FAST_QUAD,
            step_mode="strict",
        )
        with pytest.raises(CertificateViolation):
            evolve(single_atom(), config)

    def test_strict_gate_passes_fine_subdivisions(self):
        eps = 0.6
        limit = (1.0 + 1.0) ** -3 * eps**8
        steps = int(np.ceil(0.01 / limit)) + 1
        config = FlowConfig(
            eps=eps,
            subdivision=Subdivision.uniform(steps, 0.01),
            quadrature=FAST_QUAD,
            step_mode="strict",
        )
        traj = evolve(single_atom(), config)
        assert traj.failure is None
        assert all(d.gate == "strict" for d in traj.diagnostics)

    @pytest.mark.parametrize("constant", [-1.0, 0.0, np.nan, np.inf])
    def test_strict_constant_must_be_finite_and_positive(self, constant):
        # -1, 0 and NaN would pass every step of the strict gate
        with pytest.raises(ValueError, match="strict_constant must be finite and positive"):
            FlowConfig(
                eps=0.1,
                subdivision=Subdivision.uniform(2, 0.002),
                step_mode="strict",
                strict_constant=constant,
            )


class TestSpaceFlows:
    """Flows in R^3: a sphere, a torus and a curve of codimension 2."""

    def test_sphere_shrinks_inward_at_the_dissipation_rate(self):
        tau = 0.005
        config = FlowConfig(eps=0.2, subdivision=Subdivision.uniform(3, 3 * tau))
        traj = evolve(generate(ShapeSpec("sphere", samples=100)), config)
        assert traj.failure is None
        masses = traj.mass_history()
        assert np.all(np.diff(masses) < 0.0)
        for k, diag in enumerate(traj.diagnostics):
            x, h = traj.snapshots[k].positions, traj.fields[k].velocities
            assert np.all(np.einsum("ji,ji->j", h, x) < 0.0)
            speed = np.linalg.norm(h, axis=1)
            assert speed.max() / speed.min() <= 1.1
            decay = tau * diag.dissipation
            assert abs(masses[k + 1] - masses[k] + decay) / decay <= 5e-2

    def test_sphere_shrinks_at_the_exact_rate(self):
        # the unit 2-sphere has |H| = 2 and shrinks as R(t)^2 = 1 - 4t
        tau, steps = 0.002, 5
        config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(steps, steps * tau))
        traj = evolve(generate(ShapeSpec("sphere", samples=400)), config)
        assert traj.failure is None
        speed = np.linalg.norm(traj.fields[0].velocities, axis=1)
        assert np.all(np.abs(speed - 2.0) <= 0.1 * 2.0)
        shrinkage = 1.0 - np.linalg.norm(traj.snapshots[-1].positions, axis=1).mean()
        exact = 1.0 - np.sqrt(1.0 - 4.0 * steps * tau)
        assert abs(shrinkage - exact) <= 0.1 * exact

    def test_torus_tube_shrinks_toward_its_core_circle(self):
        def from_core(x):
            # the default torus has its core circle of radius 1 in the plane z = 0
            planar = x * np.array([1.0, 1.0, 0.0])
            return x - planar / np.linalg.norm(planar, axis=1, keepdims=True)

        tau = 0.001
        config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(3, 3 * tau))
        traj = evolve(generate(ShapeSpec("torus", samples=400)), config)
        assert traj.failure is None
        masses = traj.mass_history()
        assert np.all(np.diff(masses) < 0.0)
        for k, diag in enumerate(traj.diagnostics):
            decay = tau * diag.dissipation
            assert abs(masses[k + 1] - masses[k] + decay) / decay <= 5e-2
        x, h = traj.snapshots[0].positions, traj.fields[0].velocities
        assert np.all(np.einsum("ji,ji->j", h, from_core(x)) < 0.0)
        tube = [np.linalg.norm(from_core(v.positions), axis=1).mean() for v in traj.snapshots]
        assert np.all(np.diff(tube) < 0.0)

    def test_circle_in_space_stays_in_its_plane(self):
        count = 200
        theta = 2.0 * np.pi * np.arange(count) / count
        zero = np.zeros(count)
        v = Varifold(
            1,
            3,
            np.stack([np.cos(theta), np.sin(theta), zero], axis=1),
            np.stack([-np.sin(theta), np.cos(theta), zero], axis=1)[:, None, :],
            np.full(count, 2.0 * np.pi / count),
        )
        config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(3, 0.003))
        traj = evolve(v, config)
        assert traj.failure is None
        for k in range(len(traj.diagnostics)):
            x, h = traj.snapshots[k].positions, traj.fields[k].velocities
            speed = np.linalg.norm(h, axis=1)
            assert np.abs(h[:, 2]).max() <= 1e-12 * speed.max()
            assert np.all(np.einsum("ji,ji->j", h, x) < 0.0)
            assert speed.max() / speed.min() <= 1.01


@pytest.fixture(scope="module")
def residual_traj():
    config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(16, 0.02))
    return evolve(circle(60), config)


class TestBrakkeResidual:
    @pytest.fixture()
    def traj(self, residual_traj):
        return residual_traj

    def test_equal_endpoints_vanish(self, traj):
        assert brakke_residual(traj, GaussianBump([0.0, 0.0], 0.5), 0.01, 0.01) == 0.0

    def test_constant_test_function_reduces_to_mass_decay(self, traj):
        residual = brakke_residual(traj, ConstantTest(), 0.0, 0.02)
        masses = traj.mass_history()
        taus = np.diff(np.asarray(traj.times))
        decay = sum(
            tau * d.velocity_first_variation for tau, d in zip(taus, traj.diagnostics)
        )
        assert residual == pytest.approx(abs(masses[-1] - masses[0] - decay), abs=1e-12)

    def test_residual_shrinks_linearly_with_the_step(self):
        bump = GaussianBump([1.0, 0.0], 0.6)
        residuals = []
        for m in (8, 16, 32):
            config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(m, 0.02))
            traj = evolve(circle(60), config)
            residuals.append(brakke_residual(traj, bump, 0.0, 0.02))
        slope = np.polyfit(np.log([0.02 / 8, 0.02 / 16, 0.02 / 32]), np.log(residuals), 1)[0]
        assert 0.7 <= slope <= 1.3

    def test_moving_bump_time_derivative_enters(self, traj):
        moving = GaussianBump([0.0, 0.0], 0.7, velocity=[0.5, 0.0])
        static = GaussianBump([0.0, 0.0], 0.7)
        assert brakke_residual(traj, moving, 0.0, 0.02) != pytest.approx(
            brakke_residual(traj, static, 0.0, 0.02), rel=1e-3
        )

    def test_requires_subdivision_times(self, traj):
        with pytest.raises(ValueError):
            brakke_residual(traj, ConstantTest(), 0.0, 0.0033)


class TestRefinementStudy:
    def test_single_atom_is_refinement_stable(self):
        # positions are pinned by symmetry; the mass still decays at the
        # dissipation rate, so the refinement gap is O(delta * horizon) and
        # only a short horizon drives it below 1e-8
        rows = refinement_study(single_atom(), 0.3, [2, 3], spec=FAST_QUAD, horizon=1e-5)
        assert [r.level for r in rows] == [2, 3]
        assert all(r.distance <= 1e-8 for r in rows)

    def test_aborted_level_is_named(self):
        spec = QuadratureSpec(points_per_axis=8, max_nodes=1000)
        with pytest.raises(EngineError, match="level 2 aborted: QuadratureBudgetExceeded"):
            refinement_study(circle(50), 0.1, [2, 3], spec=spec, horizon=0.004)

    def test_circle_distances_halve(self):
        rows = refinement_study(circle(50), 0.1, [3, 5], horizon=0.08)
        assert all(r.distance > 0.0 for r in rows)
        ratios = [r.ratio for r in rows if r.ratio is not None]
        assert len(ratios) == 2
        for ratio in ratios:
            assert 0.3 <= ratio <= 0.8

    def test_nearby_starts_stay_nearby(self):
        v = circle(40)
        amplitude = 1e-4
        rng = np.random.default_rng(0)
        w = Varifold(
            1, 2, v.positions + amplitude * rng.standard_normal(v.positions.shape), v.frames, v.masses
        )
        d0 = bounded_lipschitz_distance(v, w)
        config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(16, 0.02), quadrature=FAST_QUAD)
        dT = bounded_lipschitz_distance(evolve(v, config).snapshots[-1], evolve(w, config).snapshots[-1])
        assert dT <= 10.0 * d0
        assert dT > 0.0


def cut_to_two_steps(doc, failure=None):
    """Keep the first 3 snapshots and 2 rows of the 3-step record, with ``failure``."""
    doc.update(snapshots=doc["snapshots"][:3], diagnostics=doc["diagnostics"][:2])
    if failure is not None:
        doc["failure"] = failure


@pytest.fixture(scope="module")
def serialized_traj():
    config = FlowConfig(eps=0.15, subdivision=Subdivision.uniform(3, 0.006), quadrature=FAST_QUAD)
    return evolve(circle(12), config)


PINNED_TRAJECTORY = """{
  "config": {
    "eps": 0.10000000000000001,
    "times": [0, 9.9999999999999995e-21, 0.10000000000000001],
    "quadrature": {
      "points_per_axis": 8,
      "domain_radius_factor": 5,
      "max_nodes": 20000000
    },
    "diffeo_safety": 0.5,
    "step_mode": "strict",
    "strict_constant": 1
  },
  "snapshots": [
    {
      "t": 0,
      "d": 1,
      "n": 2,
      "atoms": [
        {
          "x": [0.10000000000000001, 0],
          "frame": [
            [1, 0]
          ],
          "m": 9.9999999999999995e-21
        }
      ]
    },
    {
      "t": 9.9999999999999995e-21,
      "d": 1,
      "n": 2,
      "atoms": [
        {
          "x": [0.10000000000000001, 0],
          "frame": [
            [1, 0]
          ],
          "m": 9.9999999999999995e-21
        }
      ]
    }
  ],
  "diagnostics": [
    {
      "step": 0,
      "t_start": 0,
      "t_end": 9.9999999999999995e-21,
      "mass_before": 9.9999999999999995e-21,
      "mass_after": 9.9999999999999995e-21,
      "dissipation": 0,
      "velocity_first_variation": 0.10000000000000001,
      "certificate": 1,
      "safety": 0.5,
      "jacobian_min": 1,
      "jacobian_max": 1,
      "mass_bound_ok": true,
      "gate": "strict"
    }
  ],
  "failure": {
    "step": 1,
    "time": 9.9999999999999995e-21,
    "reason": "diffeomorphism certificate 1 exceeds limit 0.5"
  }
}
"""

PINNED_DIAGNOSTICS = (
    "step,t_start,t_end,mass_before,mass_after,dissipation,velocity_first_variation,"
    "certificate,jacobian_min,jacobian_max,mass_bound_ok,gate\r\n"
    "0,0,9.9999999999999995e-21,9.9999999999999995e-21,9.9999999999999995e-21,0,"
    "0.10000000000000001,1,1,1,1,strict\r\n"
)


class TestSerialization:
    @pytest.fixture()
    def traj(self, serialized_traj):
        return serialized_traj

    def test_json_roundtrip_is_bit_identical(self, tmp_path, traj):
        path = tmp_path / "traj.json"
        write_trajectory_json(traj, path)
        back = read_trajectory_json(path)
        for a, b in zip(traj.snapshots, back.snapshots):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.frames, b.frames)
            assert np.array_equal(a.masses, b.masses)
        twice = tmp_path / "twice.json"
        write_trajectory_json(back, twice)
        assert path.read_bytes() == twice.read_bytes()

    def test_atom_template_matches_the_record_layout(self):
        # the per-atom template against the generic writer on plain atom records
        from varmcf.flow import _to_json, varifold_to_dict

        frames = [[[1.0, 0.0, -0.0], [0.0, -1.0, 0.0]], [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]]
        v = Varifold(2, 3, [[-0.0, 1e-300, -2.5e10], [3.0, 0.1, -7.25]], frames, [1e-17, 3.0])
        records = [
            {"x": x, "frame": f, "m": m}
            for x, f, m in zip(v.positions.tolist(), v.frames.tolist(), v.masses.tolist())
        ]
        for indent in (0, 6):
            expected = _to_json({"d": 2, "n": 3, "atoms": records}, indent)
            assert _to_json(varifold_to_dict(v), indent) == expected
        empty = Varifold.empty(1, 2)
        assert _to_json(varifold_to_dict(empty)) == _to_json({"d": 1, "n": 2, "atoms": []})

    def test_diagnostics_csv_has_one_row_per_step(self, tmp_path, traj):
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(traj.diagnostics)
        assert lines[0].split(",")[:3] == ["step", "t_start", "t_end"]

    def test_atoms_csv_covers_every_snapshot(self, tmp_path, traj):
        path = tmp_path / "atoms.csv"
        write_atoms_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(traj.snapshots) * 12
        assert lines[0] == "t,atom_id,x1,x2,m,h_norm"

    def test_unknown_quadrature_key_is_a_config_error(self, tmp_path, traj):
        path = tmp_path / "traj.json"
        write_trajectory_json(traj, path)
        doc = json.loads(path.read_text())
        doc["config"]["quadrature"]["rule"] = "tensor-midpoint"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="rule"):
            read_trajectory_json(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: doc["diagnostics"][0].pop("gate"),
                "diagnostics[0]: missing keys ['gate']",
            ),
            (
                lambda doc: doc["diagnostics"][1].update(stray=1),
                "diagnostics[1]: unknown keys ['stray']",
            ),
            (
                lambda doc: doc.update(failure={"step": 3, "time": 0.0, "reason": "", "stray": 1}),
                "failure: unknown keys ['stray']",
            ),
            (lambda doc: doc["config"].pop("eps"), "config: missing keys ['eps']"),
            (
                lambda doc: doc["snapshots"][1]["atoms"][3].pop("m"),
                "snapshots[1].atoms[3]: missing keys ['m']",
            ),
            (
                lambda doc: doc["snapshots"][1].update(d=None),
                "snapshots[1].d: expected int, got None",
            ),
            (
                lambda doc: doc["snapshots"][1]["atoms"][3].update(m="x"),
                "snapshots[1].atoms[3].m: expected float, got 'x'",
            ),
            (
                lambda doc: doc["snapshots"][1]["atoms"][3].update(x=[1.0]),
                "snapshots[1].atoms[3].x: expected a list of 2, got [1.0]",
            ),
            (lambda doc: doc.update(snapshots=5), "snapshots: expected a list, got 5"),
            (lambda doc: doc.update(diagnostics=5), "diagnostics: expected a list, got 5"),
            (
                lambda doc: doc["snapshots"][1].update(atoms=5),
                "snapshots[1].atoms: expected a list, got 5",
            ),
            (lambda doc: doc["config"].update(times="ab"), "config.times: expected a list, got 'ab'"),
            (
                lambda doc: doc["config"].update(times=[0.0, "ab"]),
                "config.times: expected float, got 'ab'",
            ),
            (
                lambda doc: doc["snapshots"][2].update(t="ab"),
                "snapshots[2].t: expected float, got 'ab'",
            ),
            (
                lambda doc: doc.update(diagnostics=doc["diagnostics"][:1]),
                "diagnostics: expected one row per step (3), got 1",
            ),
            (
                lambda doc: doc["snapshots"].pop(1),
                "snapshots[1].t: 0.004 is not config.times[1] = 0.002",
            ),
            (
                lambda doc: doc["snapshots"].append(doc["snapshots"][-1]),
                "snapshots: 5 records for 4 config times",
            ),
            (
                cut_to_two_steps,
                "snapshots: 3 records for 4 config times and no failure record",
            ),
            (
                lambda doc: cut_to_two_steps(doc, {"step": 0, "time": 0.0, "reason": ""}),
                "failure.step: 0 is not 2, the last snapshot's index",
            ),
            (
                lambda doc: cut_to_two_steps(doc, {"step": 2, "time": 0.0, "reason": ""}),
                "failure.time: 0.0 is not config.times[2] = 0.004",
            ),
            (
                lambda doc: doc.update(failure={"step": 2, "time": 0.004, "reason": ""}),
                "failure.step: 2 is not 3, the last snapshot's index",
            ),
            (
                lambda doc: doc.update(failure={"step": 3, "time": 0.006, "reason": ""}),
                "failure.step: 3 is not a step of config.times, which has 3",
            ),
        ],
        ids=[
            "row-without-gate",
            "row-extra-key",
            "failure-extra-key",
            "config-without-eps",
            "atom-without-m",
            "snapshot-d-null",
            "atom-m-string",
            "atom-x-short",
            "snapshots-number",
            "diagnostics-number",
            "atoms-number",
            "config-times-string",
            "config-times-item-string",
            "snapshot-t-string",
            "diagnostics-dropped",
            "snapshot-dropped",
            "snapshot-extra",
            "snapshots-cut",
            "failure-before-last-snapshot",
            "failure-time-off",
            "failure-on-intact-run",
            "failure-past-last-step",
        ],
    )
    def test_malformed_record_exits_1_naming_the_key(self, tmp_path, capsys, traj, edit, message):
        path = tmp_path / "traj.json"
        write_trajectory_json(traj, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["diagnose", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_writers_match_the_pinned_format(self, tmp_path):
        # -0.0, floats that print as integers and 1e-20 must keep the text
        # the writers have always produced
        atom = Varifold(1, 2, [[0.1, -0.0]], [[[1.0, 0.0]]], [1e-20])
        config = FlowConfig(
            eps=0.1,
            subdivision=Subdivision(np.array([0.0, 1e-20, 0.1])),
            quadrature=FAST_QUAD,
            step_mode="strict",
        )
        diag = StepDiagnostics(
            0, 0.0, 1e-20, 1e-20, 1e-20, -0.0, 0.1, 1.0, 0.5, 1.0, 1.0, True, "strict"
        )
        failure = FailureRecord(1, 1e-20, "diffeomorphism certificate 1 exceeds limit 0.5")
        traj = Trajectory(config, [0.0, 1e-20], [atom, atom], [diag], [], failure)
        write_trajectory_json(traj, tmp_path / "traj.json")
        write_diagnostics_csv(traj, tmp_path / "diag.csv")
        assert (tmp_path / "traj.json").read_text() == PINNED_TRAJECTORY
        assert (tmp_path / "diag.csv").read_bytes() == PINNED_DIAGNOSTICS.encode()

    def test_reloaded_trajectory_supports_diagnostics(self, tmp_path, traj):
        path = tmp_path / "traj.json"
        write_trajectory_json(traj, path)
        back = read_trajectory_json(path)
        residual = brakke_residual(back, ConstantTest(), back.times[0], back.times[-1])
        assert residual == pytest.approx(
            brakke_residual(traj, ConstantTest(), traj.times[0], traj.times[-1]), abs=1e-12
        )
