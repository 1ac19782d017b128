import numpy as np
import pytest
import scipy.linalg

from varmcf.flow import FlowConfig, Subdivision, evolve
from varmcf.ingest import ShapeSpec, generate
from varmcf.varifold import Varifold


def random_frame(rng, d, n):
    """Row-orthonormal (d, n) frame of the span of d standard normal vectors.

    The pivoted QR keeps every seeded frame the tests have always drawn.
    """
    q, _, _ = scipy.linalg.qr(rng.standard_normal((d, n)).T, mode="economic", pivoting=True)
    return q.T


def ground_metric(pos_a, prj_a, pos_b, prj_b):
    """The ground metric between two node lists, built without varmcf's plane algebra.

    Entry (i, j) is ``|x_i - y_j|`` plus the top singular value of the
    projector difference ``P_i - Q_j``, for positions ``(a, n)``, ``(b, n)``
    and projectors ``(a, n, n)``, ``(b, n, n)``.
    """
    spatial = np.linalg.norm(pos_a[:, None] - pos_b[None], axis=2)
    return spatial + np.linalg.svd(prj_a[:, None] - prj_b[None], compute_uv=False)[..., 0]


# Heavy shared runs for the acceptance criteria, computed once per session.


@pytest.fixture(scope="session")
def circle_benchmark():
    """Unit circle, eps = 0.05, 400 atoms, 200 uniform steps to T = 0.2."""
    v0 = generate(ShapeSpec("circle", samples=400))
    config = FlowConfig(eps=0.05, subdivision=Subdivision.uniform(200, 0.2))
    traj = evolve(v0, config)
    assert traj.failure is None
    return traj


@pytest.fixture(scope="session")
def brakke_runs():
    """Circle flows at three subdivision sizes for the residual-rate check."""
    v0 = generate(ShapeSpec("circle", samples=100))
    runs = {}
    for steps in (50, 100, 200):
        config = FlowConfig(eps=0.1, subdivision=Subdivision.uniform(steps, 0.1))
        runs[steps] = evolve(v0, config)
        assert runs[steps].failure is None
    return runs


@pytest.fixture(scope="session")
def stationarity_runs():
    """Single atom and symmetric crossing lines, 100 steps each."""
    atom = Varifold(1, 2, np.zeros((1, 2)), np.eye(1, 2)[None], [1.0])
    atom_config = FlowConfig(eps=0.3, subdivision=Subdivision.uniform(100, 0.1))
    lines = generate(ShapeSpec("crossing-lines", samples=21, length=2.0, angle=np.pi / 3))
    lines_config = FlowConfig(eps=0.2, subdivision=Subdivision.uniform(100, 0.05))
    runs = {
        "single-atom": evolve(atom, atom_config),
        "crossing-lines": evolve(lines, lines_config),
    }
    for traj in runs.values():
        assert traj.failure is None
    return runs
