"""Command-line front end.

Subcommands: generate, evolve, distance, refine-study, kernel-check,
diagnose.  Run configurations are JSON documents with a versioned
``schema`` field; unknown keys are rejected before any compute.  Exit
codes: 0 success, 1 input/config error, 2 abort: a step of ``evolve``
failed (partial outputs are still written), the strict step gate failed,
or ``kernel-check`` found a bound violated.

The numerical backend reads its thread count (``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS``) when numpy loads, which importing this package
already does, so set those variables before the process starts.  Outputs
do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import CertificateViolation, ConfigError, EngineError
from .flow import _check_keys, _scalar, flow_config_from_dict, record_from_dict

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_ABORT = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: expected \"schema\": {SCHEMA_VERSION}")
    return doc


def _varifold_from_input(data: dict):
    from .ingest import ShapeSpec, generate, load

    _check_keys(data, "input", optional=("shape", "file", "d", "neighbors"))
    if ("shape" in data) == ("file" in data):
        raise ConfigError("input: provide exactly one of 'shape' or 'file'")
    if "shape" in data:
        return generate(record_from_dict(ShapeSpec, data["shape"], "input.shape"))
    d = _scalar(data["d"], int, "input.d") if "d" in data else None
    k = _scalar(data.get("neighbors", 8), int, "input.neighbors")
    return load(data["file"], d=d, k=k)


def cmd_generate(args) -> int:
    from .ingest import ShapeSpec, generate, save_varifold_json

    # options left out are absent from args, so ShapeSpec's defaults apply
    spec = {f.name: getattr(args, f.name) for f in fields(ShapeSpec) if hasattr(args, f.name)}
    if "graph" in spec:
        spec["graph"] = json.loads(spec["graph"])
    v = generate(ShapeSpec(**spec))
    save_varifold_json(v, args.out)
    print(f"wrote {len(v)} atoms (mass {v.mass():.17g}) to {args.out}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, "config", required=("schema", "input", "flow", "outputs"))
    _check_keys(
        config["outputs"], "outputs", required=("trajectory",), optional=("diagnostics", "csv")
    )

    from .flow import evolve, write_atoms_csv, write_diagnostics_csv, write_trajectory_json

    v0 = _varifold_from_input(config["input"])
    flow_config = flow_config_from_dict(config["flow"], "flow")
    traj = evolve(v0, flow_config)

    outputs = config["outputs"]
    write_trajectory_json(traj, outputs["trajectory"])
    if "diagnostics" in outputs:
        write_diagnostics_csv(traj, outputs["diagnostics"])
    if "csv" in outputs:
        write_atoms_csv(traj, outputs["csv"])
    if traj.failure is not None:
        print(
            f"aborted at step {traj.failure.step} (t = {traj.failure.time:.17g}): "
            f"{traj.failure.reason}",
            file=sys.stderr,
        )
        return EXIT_ABORT
    print(f"completed {len(traj.diagnostics)} steps; final mass {traj.snapshots[-1].mass():.17g}")
    return EXIT_OK


def cmd_distance(args) -> int:
    from scipy.spatial import cKDTree

    from .flow import _to_json
    from .ingest import load
    from .metric import bl_distance_detail

    va, vb = (load(path, d=args.d, k=args.neighbors) for path in (args.file_a, args.file_b))
    detail = bl_distance_detail(va, vb)  # raises first when the ambient spaces differ
    if len(va) and len(vb) and cKDTree(vb.positions).query(va.positions)[0].min() > 2.0:
        print(
            "warning: supports are more than 2 apart; the distance saturates near its cap there",
            file=sys.stderr,
        )
    print(_to_json(detail))
    return EXIT_OK


def cmd_refine_study(args) -> int:
    config = _load_config(args.config)
    _check_keys(
        config,
        "config",
        required=("schema", "input", "eps", "levels"),
        optional=("horizon", "quadrature", "diffeo_safety"),
    )
    levels = config["levels"]
    if not (isinstance(levels, list) and len(levels) == 2):
        raise ConfigError("levels must be [first, last]")
    first, last = (_scalar(j, int, "config.levels") for j in levels)
    if first > last:
        raise ConfigError("config.levels: first level above last")

    from .curvature import QuadratureSpec
    from .flow import refinement_study

    options = {
        k: _scalar(config[k], float, f"config.{k}")
        for k in ("eps", "horizon", "diffeo_safety")
        if k in config
    }
    if "quadrature" in config:
        quadrature = record_from_dict(QuadratureSpec, config["quadrature"], "config.quadrature")
        options["spec"] = quadrature
    v0 = _varifold_from_input(config["input"])
    rows = refinement_study(v0, levels=range(first, last + 1), **options)
    print("level,distance,ratio")
    for row in rows:
        ratio = "" if row.ratio is None else format(row.ratio, ".17g")
        print(f"{row.level},{format(row.distance, '.17g')},{ratio}")
    return EXIT_OK


def cmd_kernel_check(args) -> int:
    import numpy as np

    from .flow import _to_json
    from .kernel import Kernel, kernel_bound_check

    if args.samples < 1:
        return _fail(f"samples must be at least 1, got {args.samples}")
    kernel = Kernel.create(args.n, args.eps)
    rng = np.random.default_rng(args.seed)
    # uniform samples in the unit ball, where the bounds are nontrivial
    raw = rng.standard_normal((args.samples, args.n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = rng.random(args.samples) ** (1.0 / args.n)
    samples = raw * radii[:, None]
    report = kernel_bound_check(kernel, samples)
    print(_to_json(report))
    return EXIT_OK if report["ok"] else EXIT_ABORT


def cmd_diagnose(args) -> int:
    from .flow import ConstantTest, _to_json, brakke_residual, read_trajectory_json

    traj = read_trajectory_json(args.trajectory)
    if len(traj.snapshots) < 2:
        return _fail("trajectory has no steps to diagnose")
    a, b = traj.times[0], traj.times[-1]
    taus = [t1 - t0 for t0, t1 in zip(traj.times, traj.times[1:])]
    budget = sum(tau * d.dissipation for tau, d in zip(taus, traj.diagnostics))
    mass0 = traj.snapshots[0].mass()
    mass1 = traj.snapshots[-1].mass()
    delta = max(taus)
    report = {
        "steps": len(traj.diagnostics),
        "horizon": b,
        "max_step": delta,
        "mass_initial": mass0,
        "mass_final": mass1,
        "dissipation_budget": budget,
        "budget_within_initial_mass": bool(budget <= mass0 + 5.0 * delta * b),
        "mass_decay_residual": abs(mass1 - mass0 + budget),
        "mass_bound_violations": sum(0 if d.mass_bound_ok else 1 for d in traj.diagnostics),
        "brakke_residual_constant": brakke_residual(traj, ConstantTest(), a, b),
    }
    print(_to_json(report))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varmcf",
        description="Regularized mean curvature flow for point-cloud varifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="sample an analytic shape to JSON", argument_default=argparse.SUPPRESS
    )
    gen.add_argument("--kind", required=True)
    gen.add_argument("--samples", type=int, required=True)
    gen.add_argument("--mass-mode", dest="mass_mode")
    gen.add_argument("--radius", type=float)
    gen.add_argument("--minor-radius", dest="minor_radius", type=float)
    gen.add_argument("--neck", type=float)
    gen.add_argument("--angle", type=float)
    gen.add_argument("--length", type=float)
    gen.add_argument("--intersection")
    gen.add_argument("--graph", help="JSON {vertices, edges} for custom-graph")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=cmd_generate)

    ev = sub.add_parser("evolve", help="run a flow from a JSON config")
    ev.add_argument("config")
    ev.set_defaults(handler=cmd_evolve)

    dist = sub.add_parser("distance", help="bounded-Lipschitz distance between two files")
    dist.add_argument("file_a")
    dist.add_argument("file_b")
    dist.add_argument("--d", type=int, default=None, help="plane dimension when estimating")
    dist.add_argument("--neighbors", type=int, default=8)
    dist.set_defaults(handler=cmd_distance)

    ref = sub.add_parser("refine-study", help="dyadic refinement study from a JSON config")
    ref.add_argument("config")
    ref.set_defaults(handler=cmd_refine_study)

    ker = sub.add_parser("kernel-check", help="verify kernel derivative bounds")
    ker.add_argument("--n", type=int, required=True)
    ker.add_argument("--eps", type=float, required=True)
    ker.add_argument("--samples", type=int, default=10_000)
    ker.add_argument("--seed", type=int, default=0)
    ker.set_defaults(handler=cmd_kernel_check)

    diag = sub.add_parser("diagnose", help="recompute diagnostics from a saved trajectory")
    diag.add_argument("trajectory")
    diag.set_defaults(handler=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CertificateViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (EngineError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
