#!/usr/bin/env python3
"""Benchmark of the sepal workbench.

Run from the root of a checkout:

    python3 sepalbench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0

The benchmark imports ``sepal`` from ``src/`` of the checkout and drives
its public API from one process and one thread in a closed loop: each job
starts when the previous one ends.  Every job's output is checked against
references the benchmark computes itself (``oracles.py``).

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond a counter of word-problem answers.  Its times are scaled to a
reference machine speed, measured by a calibration pass between rounds
(see ``harness.CAL_REF_S``); the report lines also give them as measured.  ``--trace 1`` wraps the layer
boundaries listed in ``layers.py`` and runs each round of jobs traced and
then untraced on freshly built inputs, to get the tracing overhead; it
writes the spans under ``.sepalbench/`` and reports the per-layer metrics.
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  ``layer_map.json`` says which end-to-end
metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from harness import (AnswerCount, LoopResult, closed_loop, end_to_end,
                     failure_lines, load_sepal)
from layers import METRICS, TARGETS, per_layer
from spans import Tracer, install, summarize
from workloads import WORKLOADS

# Set-up (import plus input generation) is repeated and its median reported.
SETUP_REPEATS = 3


def timed_run(workload, args, src: Path) -> tuple[dict, list[str]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        jobs = None
        S, import_s = load_sepal(src)
        t0 = perf_counter()
        jobs = workload.generate(S, args.seed)
        setups.append(import_s + perf_counter() - t0)
    counter = AnswerCount(S.monoids)
    try:
        loop = closed_loop(workload, S, jobs, args.seconds,
                           pausable=(counter,))
    finally:
        counter.restore()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, lines = end_to_end(loop, setups, peak)
    searches = sum(counter.answers.values())
    if searches:
        lines.append(f"unknown_ratio {counter.answers['unknown'] / searches:.4f}"
                     f" ratio ({counter.answers['unknown']} of {searches} "
                     "budgeted congruent searches)")
    else:
        lines.append("unknown_ratio n/a (no budgeted searches in this workload)")
    return _result(metrics, lines, [loop])


def traced_run(workload, args, src: Path, out_dir: Path) -> tuple[dict, list[str]]:
    """Alternate rounds run traced with the same rounds run untraced on
    freshly built inputs, so both see the same machine and the ratio of
    their job times is the tracing overhead."""
    S, _ = load_sepal(src)
    tracer = Tracer()
    restore = install(tracer, TARGETS, "sepal")
    try:
        traced_jobs = iter(workload.generate(S, args.seed))
    finally:
        restore()
    plain_jobs = iter(workload.generate(S, args.seed))
    tracer.counts.clear()
    traced, plain = LoopResult(), LoopResult()
    t_start = perf_counter()
    while perf_counter() - t_start < args.seconds:
        restore = install(tracer, TARGETS, "sepal")
        try:
            closed_loop(workload, S, traced_jobs, limit=workload.round_size,
                        tracer=tracer, into=traced)
        finally:
            restore()
        closed_loop(workload, S, plain_jobs, limit=workload.round_size,
                    into=plain)
    overhead = traced.busy_s / plain.busy_s
    values = per_layer(summarize(tracer), tracer.counts, traced.attempted,
                       overhead)
    path = out_dir / f"trace-{workload.name}.spans"
    tracer.write(path)
    metrics = {name: (values[name], unit) for name, unit, _ in METRICS}
    lines = [f"traced {traced.attempted} jobs in {traced.busy_s:.3f} s, "
             f"the same jobs untraced in {plain.busy_s:.3f} s, "
             f"overhead ratio {overhead:.4f}",
             f"{len(tracer)} spans written to {path}"]
    lines += [f"{name} {values[name]:.6g} {unit}" for name, unit, _ in METRICS]
    return _result(metrics, lines, [traced, plain])


def _result(metrics, lines, loops) -> tuple[dict, list[str]]:
    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    for l in loops:
        lines += failure_lines(l)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "sepal" / "__init__.py").is_file():
        print(f"error: no sepal sources at {src / 'sepal'}; run from the "
              "root of a sepal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    if args.trace:
        result, lines = traced_run(workload, args, src, root / ".sepalbench")
    else:
        result, lines = timed_run(workload, args, src)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
