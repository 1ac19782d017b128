"""Reduced-size pass over all four workloads, untraced and traced, with every check.

Usage (from the repository root): python3 perfbench/smoke.py [--seed N]

Each workload runs one round on small inputs (see ``SIZES["smoke"]`` in
workloads.py) through run.py, so the processes, checks and reports are the
ones the full benchmark uses.  Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    start = time.monotonic()
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", "0", "--trace", str(trace), "--smoke"]
            t = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
            print(f"{workload:12s} trace={trace} {status} {time.monotonic() - t:6.1f} s")
            if proc.returncode != 0:
                failed.append((workload, trace))
                sys.stderr.write(proc.stderr)
    print(f"smoke: {len(failed)} failed, {time.monotonic() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
