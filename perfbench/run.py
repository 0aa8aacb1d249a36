"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload mc_mean_time --seed 1 --seconds 20 --trace 0

Run from the repository root. The program runs in a child process
(worker.py) so that set-up time counts from that process's start and the
peak RSS is the program's alone. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc_mean_time", "committor_profile", "flow_quadrature")
# a run must end within 180 s; rounds stop starting after --seconds
CHILD_TIMEOUT = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path("src") / "metastable" / "__init__.py").is_file():
        print("run from the repository root: src/metastable not found", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # numpy seeds and Philox keys must be non-negative
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed % (1 << 63)), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    # One thread per process: idle BLAS threads spin on the second CPU of a
    # two-CPU machine and slow the main thread by up to a third, at random.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    spawned = time.monotonic()
    # the program's own prints go to stderr; stdout carries only the result
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"{args.workload}: no result within {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
        return 1
    result_path = out / "result.json"
    if code != 0 or not result_path.is_file():
        print(f"{args.workload}: worker exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    walls = result["walls"]
    # Other load on a shared host only ever slows a round, so the fastest
    # round is the closest to the program's own cost (timeit's rule); every
    # round repeats the same operations at the same size.
    wall = min(walls)
    print(f"{args.workload}: {len(walls)} rounds, wall_s per round "
          + ", ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
        print(f"{args.workload}: traced wall_s {wall:.4f}, {result['spans']} spans", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": result["first_call"] - spawned, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
