"""SHA-256 digests of the curvature field and of the CLI outputs, checked.

Prints, per field case, the digests of the velocities, the differentials
and the dissipation (float64 bytes) that `curvature_field` returns at the
default quadrature.  Then it runs fixed `varmcf` commands in-process
(through `varmcf.cli.main`, in a temporary directory) and prints, per
command, its exit code and the digests of its stdout, its stderr and every
file it writes.  It compares the lines with `field_hashes.txt` next to this
script and exits 1, naming the first case that differs, unless all match.
Two versions of the program compute the same numbers and write the same
bytes exactly when every line matches.  A change meant to move them records
its new lines with ``python scripts/field_hashes.py > scripts/field_hashes.txt``.

The backend runs one thread unless OMP_NUM_THREADS or OPENBLAS_NUM_THREADS
is set; the outputs do not depend on the thread count.

Usage: python scripts/field_hashes.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(name, "1")

import numpy as np  # noqa: E402  (after the thread settings, which numpy reads on import)

from varmcf.cli import main as cli_main  # noqa: E402
from varmcf.curvature import QuadratureSpec, curvature_field  # noqa: E402
from varmcf.ingest import ShapeSpec, generate  # noqa: E402
from varmcf.kernel import Kernel  # noqa: E402

CASES = [
    ("circle", 100, 0.1),
    ("circle", 400, 0.05),
    ("sphere", 100, 0.2),
    ("sphere", 400, 0.1),
    ("torus", 400, 0.1),
]
EXPECTED = Path(__file__).with_name("field_hashes.txt")


# evolve runs by name: the config's input and flow blocks
EVOLVE_RUNS = {
    "circle": ({"shape": {"kind": "circle", "samples": 100}},
               {"eps": 0.1, "horizon": 0.004, "steps": 4}),
    "sphere": ({"shape": {"kind": "sphere", "samples": 60}},
               {"eps": 0.25, "horizon": 0.002, "steps": 2}),
    # a short first step passes the certificate, the second fails it
    "abort": ({"shape": {"kind": "circle", "samples": 24}},
              {"eps": 0.05, "times": [0.0, 1e-5, 0.01], "diffeo_safety": 0.05}),
}


def _outputs(name: str) -> dict[str, str]:
    return {key: f"{name}.{key}.{ext}"
            for key, ext in (("trajectory", "json"), ("diagnostics", "csv"), ("csv", "csv"))}


def _frameless_cloud(seed: int, count: int, radius: float) -> np.ndarray:
    """Points near a circle of the given radius, jittered from a fixed seed."""
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, count))
    r = radius + 0.01 * rng.standard_normal(count)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _input_files() -> dict[str, str]:
    files = {
        f"{name}.config.json": json.dumps(
            {"schema": 1, "input": input_, "flow": flow, "outputs": _outputs(name)}
        )
        for name, (input_, flow) in EVOLVE_RUNS.items()
    }
    a = _frameless_cloud(11, 100, 1.0)
    files["cloud_a.csv"] = "x1,x2\n" + "".join(f"{x!r},{y!r}\n" for x, y in a.tolist())
    b = _frameless_cloud(12, 100, 0.9)
    files["cloud_b.json"] = json.dumps({"atoms": [{"x": p} for p in b.tolist()]})
    files["study.json"] = json.dumps({
        "schema": 1, "input": {"shape": {"kind": "circle", "samples": 40}},
        "eps": 0.1, "levels": [1, 3], "horizon": 0.004,
    })
    return files


# (label, argv, files the command writes)
CLI_RUNS = (
    [(f"evolve-{name}", ["evolve", f"{name}.config.json"], list(_outputs(name).values()))
     for name in EVOLVE_RUNS]
    + [(f"diagnose-{name}", ["diagnose", _outputs(name)["trajectory"]], [])
       for name in EVOLVE_RUNS]
    + [
        ("generate-circle-100", ["generate", "--kind", "circle", "--samples", "100",
                                 "--out", "c100.json"], ["c100.json"]),
        ("generate-circle-80", ["generate", "--kind", "circle", "--samples", "80",
                                "--radius", "0.9", "--out", "c80.json"], ["c80.json"]),
        ("distance-circles", ["distance", "c100.json", "c80.json"], []),
        # coincident atoms on every node: the transport pairs them at zero cost
        ("distance-self", ["distance", "c100.json", "c100.json"], []),
        # frameless clouds: the planes come from PCA over 8 neighbours
        ("distance-frameless", ["distance", "cloud_a.csv", "cloud_b.json", "--d", "1"], []),
        ("kernel-check", ["kernel-check", "--n", "2", "--eps", "0.3"], []),
        ("refine-study", ["refine-study", "study.json"], []),
    ]
)


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def field_lines():
    for kind, samples, eps in CASES:
        v = generate(ShapeSpec(kind, samples=samples))
        field = curvature_field(v, Kernel.create(v.n, eps), QuadratureSpec())
        yield (
            f"{kind}-{samples} eps={eps}"
            f" velocities={digest(field.velocities)}"
            f" differentials={digest(field.differentials)}"
            f" dissipation={digest(field.dissipation)}"
        )


def cli_lines():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _input_files().items():
                Path(name).write_text(text)
            for label, argv, written in CLI_RUNS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(argv)
                streams = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
                files = {name: Path(name).read_bytes() for name in written}
                yield f"{label} exit={code}" + "".join(
                    f" {key}={digest(data)}" for key, data in {**streams, **files}.items()
                )
        finally:
            os.chdir(cwd)


def main() -> int:
    lines = []
    for line in itertools.chain(field_lines(), cli_lines()):
        lines.append(line)
        print(line)
    for line, want in itertools.zip_longest(lines, EXPECTED.read_text().splitlines()):
        if line != want:
            case = re.split(r" \S+=[0-9a-f]{64}", line or want)[0]
            print(f"error: {case} differs from {EXPECTED.name}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
