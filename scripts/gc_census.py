#!/usr/bin/env python3
"""Garbage collections and job times of one benchmark workload, in process.

Runs the first N jobs of a workload from ``sepalbench/workloads.py``,
seeded as the benchmark seeds it, in one closed loop: each job is timed,
then checked untimed, as ``sepalbench/run.py`` does.  A ``gc.callbacks``
hook counts the collections of each generation over the loop (input
generation excluded), and the script prints them, the generation-2
collections per 1,000 jobs, the p50 and p99 job times (nearest rank,
not scaled to a reference speed), and the number of objects the collector
tracks once the first job is drawn and after the loop, since that live
heap sets what one generation-2 collection costs.  The first count waits
for the first job because some workloads (``resolve-wide``) make each
input only when its job is drawn.  The exit code is 1 if a job's check
failed.  Output into a closed pipe stops quietly.  Run from the root of a
checkout:

    PYTHONPATH=src python3 scripts/gc_census.py --workload verify-small --jobs 2000 --seed 7
"""

import argparse
import gc
import importlib
import math
import os
import pathlib
import sys
from time import perf_counter
from types import SimpleNamespace

sys.dont_write_bytecode = True  # leave no cache files in sepalbench/
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "sepalbench"))

from workloads import WORKLOADS  # noqa: E402

MODULES = ("graphs", "constructions", "staralg", "homs", "monoids",
           "mnlab", "sweeps")


def nearest_rank(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--jobs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error("--jobs must be positive")

    S = SimpleNamespace(**{m: importlib.import_module(f"sepal.{m}")
                           for m in MODULES})
    workload = WORKLOADS[args.workload]
    jobs = iter(workload.generate(S, args.seed))
    job = next(jobs)
    heap = [len(gc.get_objects())]
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    times = []
    failed = 0
    gc.callbacks.append(count)
    try:
        for i in range(args.jobs):
            if i:
                job = next(jobs)
            t0 = perf_counter()
            out = workload.run(S, job)
            times.append(perf_counter() - t0)
            failed += bool(workload.check(S, job, out))
    finally:
        gc.callbacks.remove(count)
    heap.append(len(gc.get_objects()))

    lines = [
        f"workload: {args.workload}, seed {args.seed}, {args.jobs} jobs, "
        f"{failed} failed",
        "collections: gen0 {}, gen1 {}, gen2 {}".format(*collections)
        + f" ({1000 * collections[2] / args.jobs:.1f} gen2 per 1,000 jobs)",
        f"job ms: p50 {1000 * nearest_rank(times, 50):.2f}, "
        f"p99 {1000 * nearest_rank(times, 99):.2f}",
        "tracked objects: {:,} once the first job is drawn, {:,} after "
        "the loop".format(*heap)]
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: point stdout at the null device, so that the
        # final flush at exit has nowhere to fail
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
