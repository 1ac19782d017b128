"""SHA-256 digests of the curvature field on five fixed cases.

Prints, per case, the digests of the velocities, the differentials and the
dissipation (float64 bytes) that `curvature_field` returns at the default
quadrature.  Two versions of the field compute the same numbers exactly
when every line matches, so comparing this output before and after a
change checks that the change kept the field bitwise.

The backend runs one thread unless OMP_NUM_THREADS or OPENBLAS_NUM_THREADS
is set; the field does not depend on the thread count.

Usage: python scripts/field_hashes.py
"""

import hashlib
import os

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


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def main() -> int:
    for kind, samples, eps in CASES:
        v = generate(ShapeSpec(kind, samples=samples))
        field = curvature_field(v, Kernel.create(v.n, eps), QuadratureSpec())
        print(
            f"{kind}-{samples} eps={eps}"
            f" velocities={digest(field.velocities)}"
            f" differentials={digest(field.differentials)}"
            f" dissipation={digest(field.dissipation)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
