import json

import numpy as np
import pytest

from varmcf.cli import main
from varmcf.errors import LoadError
from varmcf.geometry import plane_distances
from varmcf.ingest import ShapeSpec, estimate_tangent_planes, generate, load, save_varifold_json


class TestLoad:
    def test_csv_with_masses(self, tmp_path):
        # no frame columns: the planes come from PCA, the masses from the file
        t = np.arange(6.0)
        masses = 0.25 * (t + 1.0)
        path = tmp_path / "line.csv"
        path.write_text("x1,x2,m\n" + "".join(f"{a},{2.0 * a},{m}\n" for a, m in zip(t, masses)))
        v = load(path, d=1, k=3)
        assert len(v) == 6
        assert np.array_equal(v.masses, masses)
        assert plane_distances(v.frames, np.array([[1.0, 2.0]]) / np.sqrt(5.0)).max() < 1e-12

    def test_frameless_file_needs_a_plane_dimension(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("x1,x2\n" + "".join(f"{a},0\n" for a in range(6)))
        with pytest.raises(ValueError, match="plane dimension d is required"):
            load(path)

    def test_csv_with_frames(self, tmp_path):
        path = tmp_path / "framed.csv"
        path.write_text("x1,x2,t11,t12,m\n0.0,0.0,1.0,0.0,1.0\n1.0,0.0,0.0,1.0,1.0\n")
        v = load(path)
        assert v.frames.shape == (2, 1, 2)

    def test_csv_columns_are_placed_by_name(self, tmp_path):
        path = tmp_path / "swapped.csv"
        path.write_text("x2,x1,t11,t12\n0.0,1.0,1.0,0.0\n")
        v = load(path)
        assert np.array_equal(v.positions, [[1.0, 0.0]])
        assert np.array_equal(v.frames, [[[1.0, 0.0]]])

    @pytest.mark.parametrize(
        "header, message",
        [
            ("x1,x3,t11,t12", "coordinate columns must be x1..x2, each once; header is x1,x3,t11,t12"),
            ("x1,x1,t11,t12", "coordinate columns must be x1..x2, each once; header is x1,x1,t11,t12"),
            ("x1,x2,t11,t11", "frame columns must be t11..t12, each once; header is x1,x2,t11,t11"),
        ],
        ids=["x-gap", "x-twice", "t-twice"],
    )
    def test_misnamed_csv_columns_exit_1_through_distance(self, tmp_path, capsys, header, message):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(header + "\n0.0,1.0,1.0,0.0\n")
        good.write_text("x1,x2,t11,t12\n0.0,1.0,1.0,0.0\n")
        assert main(["distance", str(bad), str(good)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: {message}" in err and "Traceback" not in err

    def test_malformed_row_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0.0,0.0\n0.5,oops\n")
        with pytest.raises(LoadError, match="row 3"):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="not found"):
            load(tmp_path / "nope.csv")

    def test_json_roundtrip_of_generated_varifold(self, tmp_path):
        v = generate(ShapeSpec("circle", samples=12))
        path = tmp_path / "circle.json"
        save_varifold_json(v, path)
        rebuilt = load(path)
        assert np.array_equal(rebuilt.positions, v.positions)
        assert np.array_equal(rebuilt.frames, v.frames)
        assert np.array_equal(rebuilt.masses, v.masses)

    def test_json_save_load_save_is_byte_stable(self, tmp_path):
        v = generate(ShapeSpec("circle", samples=7))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_varifold_json(v, first)
        save_varifold_json(load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_slightly_off_frames_are_reorthonormalized(self, tmp_path):
        frame = [[1.0 + 5e-7, 1e-7]]
        doc = {"d": 1, "n": 2, "atoms": [{"x": [0.0, 0.0], "frame": frame, "m": 1.0}]}
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc))
        v = load(path)
        gram = v.frames[0] @ v.frames[0].T
        assert np.abs(gram - np.eye(1)).max() <= 1e-12

    @pytest.mark.parametrize(
        "doc, message",
        [
            # a string is not a list of coordinates, even one that reads like digits
            ({"atoms": [{"x": [0.0, 0.0]}, {"x": "12"}]}, "atom 1: x: expected a list of numbers, got '12'"),
            # frames are read from every atom, not only when atom 0 carries one
            (
                {"atoms": [{"x": [0.0, 0.0]}, {"x": [1.0, 0.0], "frame": [[1.0, 0.0]]}]},
                "atom 1: frame: present, but atom 0 has none",
            ),
            (
                {"atoms": [{"x": [0.0, 0.0], "m": 1.0}, {"x": [1.0, 0.0]}]},
                "atom 1: m: missing, but atom 0 has one",
            ),
            (
                {"atoms": [{"x": [0.0, 0.0]}, {"x": [1.0, 0.0, 2.0]}]},
                "atom 1: x: expected 2 coordinates as on atom 0, got 3",
            ),
            ({"atoms": [{"x": [0.0, 0.0], "m": "0.5"}]}, "atom 0: m: expected a number, got '0.5'"),
            (
                {
                    "atoms": [
                        {"x": [0.0, 0.0], "frame": [[1.0, 0.0]]},
                        {"x": [1.0, 0.0], "frame": [[1.0, 0.1]]},
                    ]
                },
                "atom 1: frame is not orthonormal (deviation 4.988e-03 > 1e-6)",
            ),
            ([1, 2], "expected an object with an 'atoms' list, got a list"),
            ({"atoms": 5}, "atoms: expected a list, got 5"),
            ({"atoms": {"a": 1}}, "atoms: expected a list, got {'a': 1}"),
            ({"atoms": [5]}, "atom 0: expected an object, got 5"),
            ({"atoms": [{"x": []}]}, "atom 0: x: expected a list of numbers, got []"),
            # frames are checked per atom against len(x) and atom 0, as x is
            (
                {"atoms": [{"x": [0, 0], "frame": [[1, 0]]}, {"x": [1, 0], "frame": [[1, 0], [0, 1]]}]},
                "atom 1: frame: expected 1 rows as on atom 0, got 2",
            ),
            (
                {"atoms": [{"x": [0, 0], "frame": [[1, 0, 0]]}, {"x": [1, 0], "frame": [[1, 0, 0]]}]},
                "atom 0: frame: expected 1 to 2 rows of 2 numbers, got [[1, 0, 0]]",
            ),
            (
                {"atoms": [{"x": [0, 0], "frame": [[1, 0]]}, {"x": [1, 0], "frame": [1, 0]}]},
                "atom 1: frame: expected 1 to 2 rows of 2 numbers, got [1, 0]",
            ),
            ({"atoms": []}, "no atoms"),
            # the file's n and d, and the requested d = 1, must agree with the atoms
            (
                {"d": 2, "n": 2, "atoms": [{"x": [0, 0], "frame": [[1, 0]]}]},
                "d: the file gives 2, but atom 0's frame has 1 rows",
            ),
            (
                {"d": "1", "n": 2, "atoms": [{"x": [0, 0], "frame": [[1, 0]]}]},
                "d: the file gives '1', but atom 0's frame has 1 rows",
            ),
            (
                {"d": 1, "n": 3, "atoms": [{"x": [0, 0], "frame": [[1, 0]]}]},
                "n: the file gives 3, but atom 0 has 2 coordinates",
            ),
            (
                {"atoms": [{"x": [0, 0, 0], "frame": [[1, 0, 0], [0, 1, 0]]}]},
                "d: 1 was requested, but the frames have 2 rows",
            ),
            (
                {"d": 2, "n": 2, "atoms": [{"x": [0, 0]}, {"x": [1, 0]}]},
                "d: the file gives 2, but d = 1 was requested",
            ),
        ],
        ids=[
            "x-string",
            "frame-after-atom-0",
            "m-on-some-atoms",
            "x-ragged",
            "m-string",
            "frame-off",
            "top-level-list",
            "atoms-number",
            "atoms-object",
            "atom-number",
            "x-empty",
            "frame-rows-differ",
            "frame-too-wide",
            "frame-not-rows",
            "no-atoms",
            "file-d-vs-frame",
            "file-d-string",
            "file-n-vs-x",
            "requested-d-vs-frame",
            "file-d-vs-requested-d",
        ],
    )
    def test_malformed_json_atom_names_file_atom_and_key(self, tmp_path, doc, message):
        path = tmp_path / "cloud.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError) as info:
            load(path, d=1)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,x2\n", "no data rows"),
            (
                "x1,x2,t11,t12,t21,t22,t31,t32\n0,0,1,0,0,1,0,0\n",
                "frame columns give 3 rows, more than the 2 coordinates",
            ),
        ],
        ids=["header-only", "frame-rows-beyond-n"],
    )
    def test_malformed_csv_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        with pytest.raises(LoadError) as info:
            load(path, d=1)
        assert str(info.value) == f"{path}: {message}"

    def test_badly_off_csv_frame_names_file_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,t11,t12\n0.0,0.0,1.0,0.0\n1.0,0.0,1.0,0.1\n")
        with pytest.raises(LoadError) as info:
            load(path)
        message = "frame is not orthonormal (deviation 4.988e-03 > 1e-6)"
        assert str(info.value) == f"{path}: row 3: {message}"

    def test_badly_off_frames_are_rejected(self, tmp_path):
        doc = {"d": 1, "n": 2, "atoms": [{"x": [0.0, 0.0], "frame": [[1.0, 0.1]], "m": 1.0}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match="orthonormal"):
            load(path)


class TestEstimatePlanes:
    def test_points_on_a_line(self):
        t = np.linspace(0.0, 1.0, 30)
        v = estimate_tangent_planes(np.stack([t, 2.0 * t], axis=1), d=1, k=5, masses=np.ones(30))
        direction = np.array([[1.0, 2.0]]) / np.sqrt(5.0)
        assert plane_distances(v.frames, direction).max() < 1e-8

    def test_noiseless_circle_tangents(self):
        theta = 2.0 * np.pi * np.arange(200) / 200
        points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        v = estimate_tangent_planes(points, d=1, k=8, masses=np.ones(200))
        true = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
        angles = np.degrees(np.arcsin(np.minimum(1.0, plane_distances(v.frames, true))))
        assert angles.max() <= 2.0

    def test_duplicated_points_are_degenerate(self):
        pts = np.zeros((10, 2))
        with pytest.raises(LoadError, match="degenerate"):
            estimate_tangent_planes(pts, d=1, k=3, masses=np.ones(10))

    def test_neighbor_count_validation(self):
        points = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ValueError):
            estimate_tangent_planes(points, d=1, k=1, masses=np.ones(10))
        with pytest.raises(ValueError):
            estimate_tangent_planes(points, d=1, k=10, masses=np.ones(10))

    def test_plane_dimension_validation(self):
        # d = 3 in R^2 used to end in an IndexError traceback
        points = np.random.default_rng(0).standard_normal((10, 2))
        for d in (0, 3):
            with pytest.raises(ValueError, match="need 1 <= d <= n"):
                estimate_tangent_planes(points, d=d, k=8, masses=np.ones(10))

    def test_rigid_motion_equivariance(self):
        # generic (jittered) cloud: exact neighbor ties, as on a symmetric
        # shape, make neighbor membership itself ambiguous under rotation
        rng = np.random.default_rng(1)
        theta = 2.0 * np.pi * np.arange(64) / 64
        pts = np.stack([1.3 * np.cos(theta), 0.9 * np.sin(theta)], axis=1)
        pts += 1e-3 * rng.standard_normal(pts.shape)
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        shift = rng.standard_normal(2)
        v_base = estimate_tangent_planes(pts, d=1, k=6, masses=np.ones(64))
        v_moved = estimate_tangent_planes(pts @ rot.T + shift, d=1, k=6, masses=np.ones(64))
        for j in range(64):
            conjugated = rot @ v_base.projectors()[j] @ rot.T
            assert np.abs(v_moved.projectors()[j] - conjugated).max() <= 1e-8


class TestGenerate:
    def test_circle_four_atoms(self):
        v = generate(ShapeSpec("circle", samples=4))
        angles = np.arctan2(v.positions[:, 1], v.positions[:, 0])
        assert np.allclose(np.sort(np.mod(angles, 2 * np.pi)), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
        assert np.allclose(v.masses, np.pi / 2)
        for j in range(4):
            assert abs(np.dot(v.frames[j, 0], v.positions[j])) < 1e-12

    def test_circle_mass_exact(self):
        for radius in (0.5, 1.0, 2.5):
            v = generate(ShapeSpec("circle", samples=101, radius=radius))
            assert v.mass() == pytest.approx(2.0 * np.pi * radius, rel=1e-14)

    def test_unit_mass_mode(self):
        v = generate(ShapeSpec("circle", samples=10, mass_mode="unit-per-atom"))
        assert np.all(v.masses == 1.0)

    def test_crossing_lines_double_center(self):
        v = generate(ShapeSpec("crossing-lines", samples=9, angle=np.pi / 2))
        at_origin = np.flatnonzero(np.linalg.norm(v.positions, axis=1) == 0.0)
        assert len(at_origin) == 2
        assert len(v) == 18
        dirs = v.frames[at_origin][:, 0, :]
        assert np.allclose(np.abs(dirs), np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_crossing_lines_single_center(self):
        v = generate(
            ShapeSpec("crossing-lines", samples=9, angle=np.pi / 2, intersection="single")
        )
        at_origin = np.flatnonzero(np.linalg.norm(v.positions, axis=1) == 0.0)
        assert len(at_origin) == 1
        # first line's direction by convention, with the merged mass
        assert np.allclose(v.frames[at_origin[0], 0], [1.0, 0.0])
        assert v.masses[at_origin[0]] == pytest.approx(2.0 * (2.0 / 9.0))

    def test_crossing_lines_symmetry_is_exact(self):
        v = generate(ShapeSpec("crossing-lines", samples=11, angle=0.6))
        flipped = -v.positions
        # every atom position has its exact mirror in the fixture
        for row in flipped:
            assert np.any(np.all(v.positions == row, axis=1))

    def test_sphere_area(self):
        v = generate(ShapeSpec("sphere", samples=2000))
        assert v.mass() == pytest.approx(4.0 * np.pi, rel=0.005)
        radii = np.linalg.norm(v.positions, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)
        for j in range(0, 2000, 97):
            assert np.abs(v.frames[j] @ v.positions[j]).max() < 1e-12

    def test_torus_smoke(self):
        v = generate(ShapeSpec("torus", samples=500, radius=1.0, minor_radius=0.3))
        assert v.mass() == pytest.approx(4.0 * np.pi**2 * 0.3, rel=1e-12)
        assert v.frames.shape == (500, 2, 3)

    def test_segment(self):
        v = generate(ShapeSpec("segment", samples=10, length=3.0))
        assert v.mass() == pytest.approx(3.0, rel=1e-14)
        assert np.allclose(v.positions[:, 1], 0.0)

    def test_dumbbell_neck_and_bells(self):
        v = generate(ShapeSpec("dumbbell", samples=400, neck=0.3))
        radii = np.linalg.norm(v.positions, axis=1)
        assert radii.max() == pytest.approx(1.0, abs=1e-3)
        waist = np.abs(v.positions[np.abs(v.positions[:, 0]) < 0.02][:, 1])
        assert waist.min() == pytest.approx(0.3, abs=0.02)
        gram = np.einsum("jdi,jei->jde", v.frames, v.frames)
        assert np.abs(gram - 1.0).max() < 1e-10

    def test_custom_graph(self):
        graph = {"vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], "edges": [[0, 1], [1, 2]]}
        v = generate(ShapeSpec("custom-graph", samples=20, graph=graph))
        assert v.mass() == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeSpec("blob", samples=10)
        with pytest.raises(ValueError):
            ShapeSpec("circle", samples=2)
        with pytest.raises(ValueError):
            ShapeSpec("circle", samples=10, mass_mode="by-area")
        with pytest.raises(ValueError):
            ShapeSpec("circle", samples=10, radius=-1.0)
