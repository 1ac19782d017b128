"""SHA-256 digests of the curvature field on five fixed cases, checked.

Prints, per case, the digests of the velocities, the differentials and the
dissipation (float64 bytes) that `curvature_field` returns at the default
quadrature, then compares the lines with `field_hashes.txt` next to this
script and exits 1, naming the first case that differs, unless all match.
Two versions of the field compute the same numbers exactly when every line
matches.  A change meant to move the field records its new lines with
``python scripts/field_hashes.py > scripts/field_hashes.txt``.

The backend runs one thread unless OMP_NUM_THREADS or OPENBLAS_NUM_THREADS
is set; the field does not depend on the thread count.

Usage: python scripts/field_hashes.py
"""

import hashlib
import itertools
import os
import sys
from pathlib import Path

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(name, "1")

import numpy as np  # noqa: E402  (after the thread settings, which numpy reads on import)

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


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def main() -> int:
    lines = []
    for kind, samples, eps in CASES:
        v = generate(ShapeSpec(kind, samples=samples))
        field = curvature_field(v, Kernel.create(v.n, eps), QuadratureSpec())
        lines.append(
            f"{kind}-{samples} eps={eps}"
            f" velocities={digest(field.velocities)}"
            f" differentials={digest(field.differentials)}"
            f" dissipation={digest(field.dissipation)}"
        )
        print(lines[-1])
    for line, want in itertools.zip_longest(lines, EXPECTED.read_text().splitlines()):
        if line != want:
            case = (line or want).split(" velocities=")[0]
            print(f"error: {case} differs from {EXPECTED.name}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
