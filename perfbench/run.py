"""Benchmark of varmcf: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: circle-flow, sphere-flow, bl-distance, refinement (see README.md).
The workload runs in its own process with OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1 before its interpreter
starts, importing varmcf from ``src``.  With ``--trace 0`` the last line of
output carries the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of a traced round.  The line before it records the environment.
The exit code is 0 only when every check passed.  This launcher imports
only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("circle-flow", "sphere-flow", "bl-distance", "refinement")
SETUP_PROBES = {"full": 5, "smoke": 1}
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "run_s": "s", "atom_ops_per_s": "1/s", "peak_rss_mib": "MiB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def spawn(args, size: str, outdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run worker.py single-threaded and return the JSON on its last line."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", size, "--outdir", str(outdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} overran {DEADLINE_S:.0f} s; killed") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, same checks")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "varmcf" / "__init__.py").is_file():
        print(f"error: no varmcf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    outdir = ROOT / "perfbench" / "out" / f"{args.workload}-{size}"
    outdir.mkdir(parents=True, exist_ok=True)

    report = spawn(args, size, outdir, deadline, setup_only=False)
    metrics = report.pop("metrics")
    if not args.trace:
        # Set-up probes run after the workload, whose imports have written the
        # bytecode caches, so every probe starts from the same state.
        samples = [
            spawn(args, size, outdir, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES[size])
        ]
        metrics["setup_s"] = median(samples)
        report["setup_s_samples"] = samples
    report["env"]["nproc"] = os.cpu_count()
    report["env"]["threads"] = 1
    correct = not report["failures"]
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": 0,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    report["result"] = result
    with open(outdir / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({"env": report["env"], "rounds": report["rounds"], "checks": report["checks"]},
                     default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
