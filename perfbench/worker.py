"""One benchmark run of one workload, in its own process.

Started by run.py, which times this process from its start and reads its
peak RSS. Set-up, then timed rounds until ``--seconds`` have passed (at
least one), then the correctness checks with tracing off. Writes
``result.json`` (and ``trace.npz`` when traced) into ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def heap_releaser():
    """glibc's ``malloc_trim``, or a no-op where the C library has none.

    Called before every round, outside the timed section. Without it the heap
    pages that one round's freed noise-chunk copies leave behind stay resident
    into the next round, and the run's peak RSS lands on one of several levels
    a chunk apart, depending on how glibc happened to place the copies.
    """
    name = ctypes.util.find_library("c")
    trim = getattr(ctypes.CDLL(name), "malloc_trim", None) if name else None
    if trim is None:
        return lambda: None
    return lambda: trim(0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import metastable

    if Path(metastable.__file__).resolve().parent != (SRC / "metastable").resolve():
        print(f"imported metastable from {metastable.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    out = Path(args.out)
    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
        rec.on = True

    workload = WORKLOADS[args.workload](out, args.seed)
    workload.setup()
    release_heap = heap_releaser()

    timed_from = len(rec) if rec else 0
    first_call = time.monotonic()
    walls, failed = [], 0
    while True:
        release_heap()
        t0 = time.perf_counter()
        failed += workload.run_round(len(walls))
        walls.append(time.perf_counter() - t0)
        if time.monotonic() - first_call >= args.seconds:
            break

    result = {
        "first_call": first_call,
        "walls": walls,
        "attempted": len(walls) * workload.ops_per_round,
        "failed": failed,
    }
    if rec:
        rec.on = False
        rec.write(out / "trace.npz")
        result["layers"] = tracing.layer_metrics(rec, timed_from, len(walls))
        result["spans"] = len(rec)
    result["failures"] = workload.verify()
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
