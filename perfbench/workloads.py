"""The four benchmark workloads: their inputs, one round of work, and its checks.

Every workload makes its inputs from the seed alone.  The flow workloads
take an analytic shape and permute its atom order by the seed, so the
geometry, the work and every count stay fixed while the order of every
reduction inside the program changes.  ``bl-distance`` jitters the inner
circle of each pair from the seed.

A round is fixed work and is repeated unchanged; the checks compare the
program's outputs with computations made here, apart from the program, or
with properties the method must have.  No check compares against a stored
copy of earlier output.  Entry points are looked up through their modules
(``varmcf.flow.evolve``, not a local name) so the traced run can wrap them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import varmcf.flow
import varmcf.ingest
import varmcf.kernel
import varmcf.metric
from varmcf.varifold import Varifold

# Sizes.  "full" is what BENCHMARK.json measures; "smoke" runs the same
# code and checks on smaller inputs in seconds.
SIZES = {
    "full": {
        "circle-flow": {"atoms": 400, "eps": 0.05, "tau": 0.001, "steps": 2},
        "sphere-flow": {"atoms": 100, "eps": 0.2, "tau": 0.005, "steps": 1},
        "bl-distance": {"atoms": (100, 400)},
        "refinement": {"atoms": 100, "eps": 0.1, "horizon": 0.1, "levels": (3, 4, 5)},
    },
    "smoke": {
        "circle-flow": {"atoms": 100, "eps": 0.1, "tau": 0.001, "steps": 3},
        "sphere-flow": {"atoms": 40, "eps": 0.2, "tau": 0.005, "steps": 1},
        "bl-distance": {"atoms": (50, 100)},
        "refinement": {"atoms": 50, "eps": 0.1, "horizon": 0.1, "levels": (2, 3)},
    },
}

# Tolerances of the checks, fixed before measuring.
CURVATURE_TOL = 0.10  # |h(0)| against the analytic curvature of the unit circle
SHRINK_TOL = 0.10  # 1 - rbar(T) against the exact law 1 - sqrt(1 - 2T)
DISSIPATION_TOL = 1e-2  # |sum m tr(P Dh) + D| / D
MASS_RATE_TOL = 5e-2  # |dM + tau D| / (tau D) per step; first order in tau |Dh|
SPHERE_SPREAD = 1.1  # max |h| / min |h| on the sphere
ORACLE_TOL = 1e-9  # LP value against the assignment oracle
RATIO_RANGE = (0.3, 0.8)  # successive refinement ratios
BOUND_SLACK = 1e-9  # relative rounding allowance on the refinement brackets


def _permuted(v: Varifold, rng: np.random.Generator) -> Varifold:
    p = rng.permutation(len(v))
    return Varifold(v.d, v.n, v.positions[p], v.frames[p], v.masses[p])


def _flow_setup(kind: str, size: dict, seed: int) -> dict:
    """Shape, a seed-chosen atom order, the kernel and the flow config."""
    n = 3 if kind == "sphere" else 2
    v = varmcf.ingest.generate(varmcf.ingest.ShapeSpec(kind, samples=size["atoms"]))
    v0 = _permuted(v, np.random.default_rng(seed))
    varmcf.kernel.Kernel.create(n, size["eps"])
    inputs = {"v0": v0, "size": size}
    if "steps" in size:
        inputs["config"] = varmcf.flow.FlowConfig(
            eps=size["eps"],
            subdivision=varmcf.flow.Subdivision.uniform(size["steps"], size["steps"] * size["tau"]),
        )
    return inputs


def _inner_circle(count: int, rng: np.random.Generator):
    """Circle of radius about 0.9 with jittered angles, radii and plane angles.

    Every atom carries mass 2 pi / count, the unit circle's atom mass.
    Returns the varifold and the positions and plane angles used to build it.
    """
    theta = 2.0 * math.pi * (np.arange(count) + rng.uniform(-0.3, 0.3, count)) / count
    rho = 0.9 + rng.uniform(-0.02, 0.02, count)
    alpha = theta + math.pi / 2.0 + rng.uniform(-0.1, 0.1, count)
    x = rho[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    frames = np.stack([np.cos(alpha), np.sin(alpha)], axis=1)[:, None, :]
    return Varifold(1, 2, x, frames, np.full(count, 2.0 * math.pi / count)), x, alpha


def setup(name: str, size: dict, seed: int) -> dict:
    if name in ("circle-flow", "refinement"):
        return _flow_setup("circle", size, seed)
    if name == "sphere-flow":
        return _flow_setup("sphere", size, seed)
    if name == "bl-distance":
        rng = np.random.default_rng(seed)
        pairs = []
        for count in size["atoms"]:
            unit = varmcf.ingest.generate(varmcf.ingest.ShapeSpec("circle", samples=count))
            inner, x, alpha = _inner_circle(count, rng)
            pairs.append({"unit": unit, "inner": inner, "inner_x": x, "inner_alpha": alpha})
        return {"pairs": pairs}
    raise ValueError(f"unknown workload {name!r}")


def operations(name: str) -> list[tuple]:
    """(owner, attribute, kind) of the calls that are this workload's operations."""
    if name == "bl-distance":
        return [(varmcf.metric, "bounded_lipschitz_distance", "distance")]
    ops = [(varmcf.flow, "evolve", "evolve")]
    if name == "refinement":
        ops.append((varmcf.flow, "bounded_lipschitz_distance", "distance"))
    return ops


def run_round(name: str, inputs: dict, outdir: Path) -> None:
    """One round of the workload's fixed work."""
    if name in ("circle-flow", "sphere-flow"):
        traj = varmcf.flow.evolve(inputs["v0"], inputs["config"])
        if name == "circle-flow":
            varmcf.flow.write_trajectory_json(traj, outdir / "trajectory.json")
            varmcf.flow.write_diagnostics_csv(traj, outdir / "diagnostics.csv")
    elif name == "bl-distance":
        for pair in inputs["pairs"]:
            varmcf.metric.bounded_lipschitz_distance(pair["unit"], pair["inner"])
    elif name == "refinement":
        size = inputs["size"]
        inputs["rows"] = varmcf.flow.refinement_study(
            inputs["v0"], eps=size["eps"], levels=size["levels"], horizon=size["horizon"]
        )


def atom_ops(call) -> int:
    """Atoms times operations in one recorded call: atoms x steps, or atoms per side."""
    if call.kind == "evolve":
        return len(call.args[0]) * len(call.result.diagnostics)
    return len(call.args[0])


def operation_count(call) -> int:
    return len(call.result.diagnostics) if call.kind == "evolve" else 1


# Checks ------------------------------------------------------------------------


def _first_variation(v: Varifold, dh: np.ndarray) -> float:
    """sum_j m_j tr(P_j Dh_j) with P = F^T F, i.e. sum over frame rows f of f . Dh f."""
    return float(np.dot(v.masses, np.einsum("jdb,jab,jda->j", v.frames, dh, v.frames)))


def _dissipation_defect(traj, k: int) -> float:
    d = traj.diagnostics[k].dissipation
    return abs(_first_variation(traj.snapshots[k], traj.fields[k].differentials) + d) / d


def _masses(traj) -> np.ndarray:
    return np.array([float(np.sum(v.masses)) for v in traj.snapshots])


def _mass_rate_defect(traj) -> float:
    """Largest |dM + tau D| / (tau D) over the steps: each step's mass change,
    from the snapshot masses, against the Brakke-type decay rate -tau D."""
    loss = -np.diff(_masses(traj))
    decay = np.diff(traj.times) * np.array([d.dissipation for d in traj.diagnostics])
    return float(np.max(np.abs(loss - decay) / decay))


def _complete(traj, steps: int) -> list[str]:
    if traj.failure is not None:
        return [f"certificate abort: {traj.failure.reason}"]
    if len(traj.diagnostics) != steps:
        return [f"ran {len(traj.diagnostics)} of {steps} steps"]
    return []


def check_circle(inputs: dict, calls: list, outdir: Path) -> dict:
    size = inputs["size"]
    traj = calls[-1].result
    bad = _complete(traj, size["steps"])
    if bad:
        return {"failures": bad}
    speed = np.linalg.norm(traj.fields[0].velocities, axis=1)
    curvature_dev = float(np.max(np.abs(speed - 1.0)))
    if curvature_dev > CURVATURE_TOL:
        bad.append(f"|h(0)| deviates from curvature 1 by {curvature_dev:.3g}")

    horizon = traj.times[-1]
    r0 = float(np.mean(np.linalg.norm(traj.snapshots[0].positions, axis=1)))
    r1 = float(np.mean(np.linalg.norm(traj.snapshots[-1].positions, axis=1)))
    shrink_ratio = (r0 - r1) / (1.0 - math.sqrt(1.0 - 2.0 * horizon))
    if abs(shrink_ratio - 1.0) > SHRINK_TOL:
        bad.append(f"radius shrinkage is {shrink_ratio:.4f} of the exact law")

    masses = _masses(traj)
    taus = np.diff(traj.times)
    if np.any(masses[1:] > masses[:-1]):
        bad.append("mass rose in a step")
    if np.any(masses[1:] > masses[:-1] + taus):
        bad.append("per-step mass bound violated")

    defect = _dissipation_defect(traj, 0)
    if defect > DISSIPATION_TOL:
        bad.append(f"dissipation identity off by {defect:.3g} at step 0")
    rate = _mass_rate_defect(traj)
    if rate > MASS_RATE_TOL:
        bad.append(f"mass change per step is off -tau D by {rate:.3g}")

    with open(outdir / "trajectory.json") as fh:
        doc = json.load(fh)
    for snap, v in zip(doc["snapshots"], traj.snapshots, strict=True):
        x = np.array([a["x"] for a in snap["atoms"]])
        m = np.array([a["m"] for a in snap["atoms"]])
        if not (np.array_equal(x, v.positions) and np.array_equal(m, v.masses)):
            bad.append(f"trajectory file differs from the run at t = {snap['t']}")
            break
    with open(outdir / "diagnostics.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != size["steps"]:
        bad.append(f"diagnostics file has {rows} rows, expected {size['steps']}")
    return {
        "failures": bad,
        "max_curvature_deviation": curvature_dev,
        "shrink_ratio": shrink_ratio,
        "dissipation_defect": defect,
        "mass_rate_defect": rate,
    }


def check_sphere(inputs: dict, calls: list, outdir: Path) -> dict:
    traj = calls[-1].result
    bad = _complete(traj, inputs["size"]["steps"])
    if bad:
        return {"failures": bad}
    spreads, defects = [], []
    for k in range(len(traj.diagnostics)):
        x = traj.snapshots[k].positions
        h = traj.fields[k].velocities
        if np.any(np.einsum("ji,ji->j", h, x) >= 0.0):
            bad.append(f"a velocity does not point inward at step {k}")
        speed = np.linalg.norm(h, axis=1)
        spreads.append(float(speed.max() / speed.min()))
        defects.append(_dissipation_defect(traj, k))
    if max(spreads) > SPHERE_SPREAD:
        bad.append(f"max|h| / min|h| = {max(spreads):.4f}")
    if max(defects) > DISSIPATION_TOL:
        bad.append(f"dissipation identity off by {max(defects):.3g}")
    masses = _masses(traj)
    if np.any(masses[1:] >= masses[:-1]):
        bad.append("mass did not decay in a step")
    rate = _mass_rate_defect(traj)
    if rate > MASS_RATE_TOL:
        bad.append(f"mass change per step is off -tau D by {rate:.3g}")
    speed0 = np.linalg.norm(traj.fields[0].velocities, axis=1)
    return {
        "failures": bad,
        "speed_spread": max(spreads),
        "dissipation_defect": max(defects),
        "mass_rate_defect": rate,
        "mean_speed_t0": float(speed0.mean()),
    }


def assignment_distance(x, alpha, y, beta, m: float) -> float:
    """BL distance of two equal-mass line clouds in the plane, by assignment.

    Matching two atoms costs m min(2, d) with d = |x - y| + |sin(alpha - beta)|
    (the projector distance of two lines); disposing of one atom costs m.
    """
    p, q = len(x), len(y)
    d = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    d += np.abs(np.sin(alpha[:, None] - beta[None, :]))
    forbidden = 4.0 * m * (p + q)
    cost = np.zeros((p + q, q + p))
    cost[:p, :q] = m * np.minimum(2.0, d)
    cost[:p, q:] = forbidden
    cost[p:, :q] = forbidden
    cost[np.arange(p), q + np.arange(p)] = m
    cost[p + np.arange(q), np.arange(q)] = m
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def check_bl(inputs: dict, calls: list, outdir: Path) -> dict:
    bad, errors = [], []
    pairs = inputs["pairs"]
    for pair, call in zip(pairs, calls[-len(pairs):], strict=True):
        count = len(pair["unit"])
        theta = 2.0 * math.pi * np.arange(count) / count
        x = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        oracle = assignment_distance(
            x, theta + math.pi / 2.0, pair["inner_x"], pair["inner_alpha"], 2.0 * math.pi / count
        )
        err = abs(call.result - oracle)
        errors.append(err)
        if err > ORACLE_TOL:
            bad.append(f"N = {count}: LP {call.result!r} against assignment {oracle!r}")
    return {"failures": bad, "oracle_errors": errors}


def _line_sin(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|sin| of the angle between lines in the plane given by unit frame rows."""
    return np.abs(f[:, 0, 0] * g[:, 0, 1] - f[:, 0, 1] * g[:, 0, 0])


def check_refinement(inputs: dict, calls: list, outdir: Path) -> dict:
    rows = inputs["rows"]
    distances = [c for c in calls if c.kind == "distance"][-len(rows):]
    bad = []
    ratios = [r.ratio for r in rows[1:]]
    lo, hi = RATIO_RANGE
    if not all(r is not None and lo <= r <= hi for r in ratios):
        bad.append(f"refinement ratios {ratios} outside [{lo}, {hi}]")
    brackets = []
    for row, call in zip(rows, distances, strict=True):
        v, w = call.args[:2]
        if call.result != row.distance:
            bad.append(f"level {row.level}: reported distance differs from the computed one")
        lower = abs(float(np.sum(v.masses)) - float(np.sum(w.masses)))
        d = np.linalg.norm(v.positions - w.positions, axis=1) + _line_sin(v.frames, w.frames)
        upper = float(
            np.sum(np.minimum(v.masses, w.masses) * np.minimum(2.0, d) + np.abs(v.masses - w.masses))
        )
        brackets.append((lower, row.distance, upper))
        slack = BOUND_SLACK * upper
        if not lower - slack <= row.distance <= upper + slack:
            bad.append(f"level {row.level}: {row.distance!r} outside [{lower!r}, {upper!r}]")
    return {"failures": bad, "ratios": ratios, "brackets": brackets}


CHECKS = {
    "circle-flow": check_circle,
    "sphere-flow": check_sphere,
    "bl-distance": check_bl,
    "refinement": check_refinement,
}


def round_signature(name: str, inputs: dict, calls: list) -> list:
    """The outputs of one round, for checking that every round repeats the first."""
    if name == "refinement":
        return [r.distance for r in inputs["rows"]]
    out = []
    for c in calls:
        if c.kind == "evolve":
            final = c.result.snapshots[-1]
            out.append((final.positions.tobytes(), final.masses.tobytes()))
        else:
            out.append(c.result)
    return out
