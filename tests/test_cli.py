import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_flow import ConstantTest

import varmcf
from varmcf.cli import main
from varmcf.flow import brakke_residual, read_trajectory_json


def run_config(tmp_path, **overrides):
    config = {
        "schema": 1,
        "input": {"shape": {"kind": "circle", "samples": 24}},
        "flow": {
            "eps": 0.1,
            "horizon": 0.004,
            "steps": 4,
        },
        "outputs": {
            "trajectory": str(tmp_path / "traj.json"),
            "diagnostics": str(tmp_path / "diag.csv"),
            "csv": str(tmp_path / "atoms.csv"),
        },
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


class TestEvolve:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        path, config = run_config(tmp_path)
        assert main(["evolve", str(path)]) == 0
        traj = read_trajectory_json(config["outputs"]["trajectory"])
        assert len(traj.diagnostics) == 4
        diag_lines = (tmp_path / "diag.csv").read_text().strip().splitlines()
        assert len(diag_lines) == 1 + 4
        assert (tmp_path / "atoms.csv").exists()

    def test_determinism_is_byte_level(self, tmp_path):
        path, config = run_config(tmp_path)
        assert main(["evolve", str(path)]) == 0
        first = (tmp_path / "traj.json").read_bytes()
        assert main(["evolve", str(path)]) == 0
        assert (tmp_path / "traj.json").read_bytes() == first

    def test_certificate_abort_exits_2_with_partial_outputs(self, tmp_path, capsys):
        path, config = run_config(
            tmp_path,
            flow={
                "eps": 0.05,
                "horizon": 0.9,
                "steps": 2,
                "quadrature": {"points_per_axis": 8},
                "diffeo_safety": 0.05,
            },
        )
        assert main(["evolve", str(path)]) == 2
        traj = read_trajectory_json(config["outputs"]["trajectory"])
        assert traj.failure is not None
        err = capsys.readouterr().err
        assert "step" in err

    def test_field_error_exits_2_with_partial_outputs(self, tmp_path, capsys):
        # the 2,304-cell lattice fits max_nodes, the 5,784 stencil candidates do not
        flow = {"eps": 0.1, "horizon": 0.004, "steps": 4, "quadrature": {"max_nodes": 3000}}
        path, config = run_config(tmp_path, flow=flow)
        assert main(["evolve", str(path)]) == 2
        traj = read_trajectory_json(config["outputs"]["trajectory"])
        assert traj.failure is not None and traj.failure.step == 0
        assert traj.failure.reason.startswith("QuadratureBudgetExceeded: ")
        assert len(traj.snapshots) == 1
        assert len((tmp_path / "diag.csv").read_text().splitlines()) == 1
        rows = (tmp_path / "atoms.csv").read_text().splitlines()
        # the speed column is empty: the field of that snapshot is what failed
        assert len(rows) == 1 + 24 and all(row.endswith(",") for row in rows[1:])
        err = capsys.readouterr().err
        assert "aborted at step 0" in err and "QuadratureBudgetExceeded" in err

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        path, _ = run_config(tmp_path, input={"file": str(tmp_path / "ghost.csv"), "d": 1})
        assert main(["evolve", str(path)]) == 1
        assert "ghost.csv" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path, _ = run_config(tmp_path, extra_field=1)
        assert main(["evolve", str(path)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": 0}, "config: unknown keys ['seed']"),
            (
                {"input": {"shape": {"kind": "circle", "samples": "24"}}},
                "input.shape.samples: expected int, got '24'",
            ),
            (
                {"flow": {"eps": 0.1, "steps": 4, "quadrature": {"points_per_axis": "16"}}},
                "flow.quadrature.points_per_axis: expected int, got '16'",
            ),
            (
                {"input": {"file": "cloud.csv", "d": 1, "neighbors": None}},
                "input.neighbors: expected int, got None",
            ),
            ({"input": {"file": "cloud.csv", "d": "1"}}, "input.d: expected int, got '1'"),
            (
                {"input": {"file": "cloud.csv", "d": 1, "neighbors": 8.7}},
                "input.neighbors: expected int, got 8.7",
            ),
            (
                {"flow": {"eps": 0.1, "horizon": 0.5, "times": [0, 0.001, 0.002]}},
                "flow.horizon: not allowed with 'times', which set it",
            ),
            (
                {"input": {"file": "cloud.csv", "format": "csv", "d": 1}},
                "input: unknown keys ['format']",
            ),
            (
                {"flow": {"eps": 0.1, "steps": 4, "step_mode": "strict", "strict_constant": 0}},
                "strict_constant must be finite and positive, got 0.0",
            ),
            (
                {"flow": {"eps": 0.1, "horizon": 0.004, "steps": 4, "quadrature": {"max_nodes": 0}}},
                "max_nodes must be >= 1, got 0",
            ),
        ],
        ids=[
            "seed",
            "samples-string",
            "points-per-axis-string",
            "neighbors-null",
            "d-string",
            "neighbors-float",
            "horizon-with-times",
            "input-format",
            "strict-constant-zero",
            "max-nodes-zero",
        ],
    )
    def test_malformed_config_exits_1_naming_the_key(self, tmp_path, capsys, overrides, message):
        path, _ = run_config(tmp_path, **overrides)
        assert main(["evolve", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flow, message",
        [
            ({"eps": 0.1, "times": [0, math.inf]}, "subdivision times must be finite"),
            ({"eps": 0.1, "times": [0, 0.001, math.nan]}, "subdivision times must be finite"),
            ({"eps": 0.1, "horizon": math.inf, "steps": 4}, "horizon must be finite, got inf"),
            (
                {"eps": 0.1, "steps": 4, "quadrature": {"domain_radius_factor": math.nan}},
                "domain_radius_factor must be finite and >= 4, got nan",
            ),
        ],
        ids=["times-inf", "times-nan", "horizon-inf", "radius-factor-nan"],
    )
    def test_non_finite_numbers_exit_1_before_any_step(
        self, tmp_path, capsys, recwarn, flow, message
    ):
        path, config = run_config(tmp_path, flow=flow)
        assert main(["evolve", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not Path(config["outputs"]["trajectory"]).exists()

    def test_wrong_schema_rejected(self, tmp_path, capsys):
        path, _ = run_config(tmp_path, schema=99)
        assert main(["evolve", str(path)]) == 1

    def test_quadrature_rule_rejected(self, tmp_path, capsys):
        flow = {"eps": 0.1, "horizon": 0.004, "steps": 4, "quadrature": {"rule": "tensor-gauss"}}
        path, _ = run_config(tmp_path, flow=flow)
        assert main(["evolve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown keys" in err and "rule" in err

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        # the 100-atom sphere's field runs its batched products through BLAS
        src = str(Path(varmcf.__file__).resolve().parents[1])
        runs = (({"kind": "circle", "samples": 24}, 0.1), ({"kind": "sphere", "samples": 100}, 0.2))
        for shape, eps in runs:
            outputs = []
            for threads in ("1", "2"):
                run_dir = tmp_path / f"{shape['kind']}-threads{threads}"
                run_dir.mkdir()
                path, config = run_config(
                    run_dir, input={"shape": shape}, flow={"eps": eps, "horizon": 0.004, "steps": 4}
                )
                env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
                env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
                proc = subprocess.run(
                    [sys.executable, "-m", "varmcf.cli", "evolve", str(path)],
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(
                    [Path(config["outputs"][k]).read_bytes() for k in ("trajectory", "diagnostics")]
                )
            assert outputs[0] == outputs[1], shape["kind"]


class TestGenerateAndDistance:
    def test_identical_files_have_zero_distance(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["generate", "--kind", "circle", "--samples", "16", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["distance", str(out), str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["distance"] == pytest.approx(0.0, abs=1e-10)
        assert report["support_size"] == 32
        assert report["bracket"] == [0.0, 0.0]

    def test_plane_dimension_contradicting_the_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["generate", "--kind", "circle", "--samples", "24", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["distance", str(out), str(out), "--d", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{out}: d: 2 was requested, but the frames have 1 rows" in err
        assert "Traceback" not in err

    def test_dirac_pair_closed_form(self, tmp_path, capsys):
        gap = 1.3
        for name, x in (("a.json", 0.0), ("b.json", gap)):
            doc = {
                "d": 1,
                "n": 2,
                "atoms": [{"x": [x, 0.0], "frame": [[1.0, 0.0]], "m": 1.0}],
            }
            (tmp_path / name).write_text(json.dumps(doc))
        assert main(["distance", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["distance"] == pytest.approx(min(2.0, gap), abs=1e-9)
        assert "warning" not in captured.err

    def test_dimension_mismatch_exits_1(self, tmp_path, capsys):
        doc2 = {"d": 1, "n": 2, "atoms": [{"x": [0.0, 0.0], "frame": [[1.0, 0.0]], "m": 1.0}]}
        doc3 = {
            "d": 1,
            "n": 3,
            "atoms": [{"x": [0.0, 0.0, 0.0], "frame": [[1.0, 0.0, 0.0]], "m": 1.0}],
        }
        (tmp_path / "a.json").write_text(json.dumps(doc2))
        (tmp_path / "b.json").write_text(json.dumps(doc3))
        assert main(["distance", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1

    def test_far_supports_warn(self, tmp_path, capsys):
        for name, x in (("a.json", 0.0), ("b.json", 50.0)):
            doc = {"d": 1, "n": 2, "atoms": [{"x": [x, 0.0], "frame": [[1.0, 0.0]], "m": 1.0}]}
            (tmp_path / name).write_text(json.dumps(doc))
        assert main(["distance", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        captured = capsys.readouterr()
        assert "saturates" in captured.err
        assert json.loads(captured.out)["distance"] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize(
        "graph, message",
        [
            ({"vertices": [[0, 0], [1, 0]], "edges": [[0, 5]]}, "edge [0, 5]: expected two vertex indices in [0, 2)"),
            ({"vertices": [[0, 0], [1, 0]], "edges": [[0, -1]]}, "edge [0, -1]: expected two vertex indices in [0, 2)"),
            ({"vertices": [[0, 0], [1, 0]], "edges": [[0, 1.0]]}, "edge [0, 1.0]: expected two vertex indices in [0, 2)"),
            ({"vertices": [[0, 0], [1, 0]], "edges": []}, "edges: expected a non-empty list, got []"),
            ({"vertices": [0, 1], "edges": [[0, 1]]}, "vertices: expected a non-empty (V, n) array, got shape (2,)"),
        ],
        ids=["index-past-end", "index-negative", "index-float", "no-edges", "flat-vertices"],
    )
    def test_malformed_graph_exits_1(self, tmp_path, capsys, graph, message):
        shape = {"kind": "custom-graph", "samples": 10, "graph": graph}
        path, _ = run_config(tmp_path, input={"shape": shape})
        runs = [
            ["generate", "--kind", "custom-graph", "--samples", "10", "--graph", json.dumps(graph),
             "--out", str(tmp_path / "g.json")],
            ["evolve", str(path)],
        ]
        for argv in runs:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"error: invalid graph specification: {message}" in err and "Traceback" not in err

    def test_generated_shapes_cover_all_kinds(self, tmp_path):
        kinds = {
            "circle": [],
            "segment": [],
            "sphere": [],
            "torus": [],
            "dumbbell": [],
            "crossing-lines": [],
        }
        for kind in kinds:
            out = tmp_path / f"{kind}.json"
            assert main(["generate", "--kind", kind, "--samples", "32", "--out", str(out)]) == 0
            assert out.exists()


class TestRefineStudy:
    def test_single_atom_table(self, tmp_path, capsys):
        atom = {"d": 1, "n": 2, "atoms": [{"x": [0.0, 0.0], "frame": [[1.0, 0.0]], "m": 1.0}]}
        (tmp_path / "atom.json").write_text(json.dumps(atom))
        config = {
            "schema": 1,
            "input": {"file": str(tmp_path / "atom.json")},
            "eps": 0.3,
            "levels": [2, 3],
            "horizon": 1e-5,
            "quadrature": {"points_per_axis": 8},
        }
        (tmp_path / "rs.json").write_text(json.dumps(config))
        assert main(["refine-study", str(tmp_path / "rs.json")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "level,distance,ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2" and float(first[1]) <= 1e-8 and first[2] == ""

    def test_single_row_has_no_ratio(self, tmp_path, capsys):
        atom = {"d": 1, "n": 2, "atoms": [{"x": [0.0, 0.0], "frame": [[1.0, 0.0]], "m": 1.0}]}
        (tmp_path / "atom.json").write_text(json.dumps(atom))
        config = {
            "schema": 1,
            "input": {"file": str(tmp_path / "atom.json")},
            "eps": 0.3,
            "levels": [2, 2],
            "horizon": 1e-5,
            "quadrature": {"points_per_axis": 8},
        }
        (tmp_path / "rs.json").write_text(json.dumps(config))
        assert main(["refine-study", str(tmp_path / "rs.json")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",")

    def test_descending_levels_exit_1_naming_the_key(self, tmp_path, capsys):
        atom = {"d": 1, "n": 2, "atoms": [{"x": [0.0, 0.0], "frame": [[1.0, 0.0]], "m": 1.0}]}
        (tmp_path / "atom.json").write_text(json.dumps(atom))
        config = {
            "schema": 1,
            "input": {"file": str(tmp_path / "atom.json")},
            "eps": 0.3,
            "levels": [3, 2],
        }
        (tmp_path / "rs.json").write_text(json.dumps(config))
        assert main(["refine-study", str(tmp_path / "rs.json")]) == 1
        err = capsys.readouterr().err
        assert "config.levels: first level above last" in err and "Traceback" not in err

    def test_non_finite_horizon_exits_1(self, tmp_path, capsys, recwarn):
        config = {
            "schema": 1,
            "input": {"shape": {"kind": "circle", "samples": 24}},
            "eps": 0.1,
            "levels": [1, 2],
            "horizon": math.nan,
        }
        (tmp_path / "rs.json").write_text(json.dumps(config))
        assert main(["refine-study", str(tmp_path / "rs.json")]) == 1
        captured = capsys.readouterr()
        assert "horizon must be finite, got nan" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestKernelCheck:
    def test_valid_run_exits_0(self, capsys):
        assert main(["kernel-check", "--n", "2", "--eps", "0.3", "--samples", "2000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["gradient"]["violations"] == 0
        constants = report["constants"]
        assert {"c0", "c0_nominal", "nominal_hessian_bound", "cutoff_hessian_bound"} <= set(
            constants
        )

    def test_invalid_eps_exits_1(self, capsys):
        assert main(["kernel-check", "--n", "2", "--eps", "1.0"]) == 1
        assert "error: eps must lie in (0, 1), got 1.0" in capsys.readouterr().err
        assert main(["kernel-check", "--n", "0", "--eps", "0.3"]) == 1

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_exits_1(self, capsys, samples):
        assert main(["kernel-check", "--n", "2", "--eps", "0.3", "--samples", str(samples)]) == 1
        err = capsys.readouterr().err
        assert f"error: samples must be at least 1, got {samples}" in err and "Traceback" not in err


class TestDiagnose:
    def test_recomputes_budget_and_residual(self, tmp_path, capsys):
        path, config = run_config(tmp_path)
        assert main(["evolve", str(path)]) == 0
        capsys.readouterr()
        assert main(["diagnose", config["outputs"]["trajectory"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["steps"] == 4
        assert report["mass_bound_violations"] == 0
        assert report["budget_within_initial_mass"] is True
        assert report["brakke_residual_constant"] < 1e-6
        assert report["mass_decay_residual"] <= 5.0 * report["max_step"] * report["horizon"]

    def test_reads_the_rows_without_rebuilding_a_field(self, tmp_path, capsys, monkeypatch):
        path, config = run_config(tmp_path)
        assert main(["evolve", str(path)]) == 0
        capsys.readouterr()
        saved = config["outputs"]["trajectory"]
        traj = read_trajectory_json(saved)
        expected = brakke_residual(traj, ConstantTest(), traj.times[0], traj.times[-1])

        def no_field(*args, **kwargs):
            raise AssertionError("diagnose rebuilt a curvature field")

        monkeypatch.setattr("varmcf.flow.curvature_field", no_field)
        monkeypatch.setattr("varmcf.curvature.curvature_field", no_field)
        assert main(["diagnose", saved]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["brakke_residual_constant"] == expected
