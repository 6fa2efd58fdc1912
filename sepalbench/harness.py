"""Closed-loop job runner and the statistics the benchmark reports."""

from __future__ import annotations

import gc
import importlib
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

MODULES = ("graphs", "constructions", "staralg", "homs", "monoids", "mnlab",
           "sweeps")

# Tail percentiles tried from the top; the first with at least MIN_BEYOND
# samples above it is reported.  Tenths of a percent, to rank exactly.
PERCENTILES = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


# Reference machine speed.  On a shared machine the CPU speed drifts by up
# to a third from one minute to the next, which moves every job alike, so
# the benchmark times a fixed calibration pass between rounds and reports
# every time scaled to the speed at which that pass takes CAL_REF_S:
# t * CAL_REF_S / (median calibration time of the run).
CAL_REF_S = 0.012


def calibration_s() -> float:
    """Seconds one fixed pass of dict, tuple and Fraction work takes.  It
    runs no sepal code, and runs with the cyclic collector off so the
    program's collector settings do not reach it either."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict = {}
        total = Fraction(0)
        for i in range(1500):
            key = ((f"e{i % 97}", i % 3), ("f", i % 5))
            table[key] = table.get(key, Fraction(0)) + Fraction(i % 7, 3)
            total += table[key]
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def load_sepal(src: Path) -> tuple[SimpleNamespace, float]:
    """Import ``sepal`` afresh from ``src`` and return its modules with the
    seconds the import took.  Earlier imports are dropped first, so each
    call pays the whole import."""
    for name in [n for n in sys.modules if n == "sepal" or n.startswith("sepal.")]:
        del sys.modules[name]
    t0 = perf_counter()
    mods = {name: importlib.import_module(f"sepal.{name}") for name in MODULES}
    seconds = perf_counter() - t0
    where = Path(sys.modules["sepal"].__file__).resolve().parent
    if where != (src / "sepal").resolve():
        raise ImportError(f"sepal was imported from {where}, not {src}")
    return SimpleNamespace(**mods), seconds


def tail(latencies) -> tuple[float, float] | None:
    """(percentile, value) at the highest percentile of ``PERCENTILES``
    that has at least ``MIN_BEYOND`` samples beyond it, by nearest rank;
    None when even the median has fewer."""
    xs = sorted(latencies)
    n = len(xs)
    for p in PERCENTILES:
        rank = -(-p * n // 1000)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p / 10, xs[rank - 1]
    return None


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[int, str, list[str]]] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this run's times to times at the reference speed."""
        if not self.calibrations:
            return 1.0
        return CAL_REF_S / statistics.median(self.calibrations)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


class AnswerCount:
    """Counts the answers of ``monoids.congruent`` while it is installed
    and not paused; the benchmark pauses it while it checks outputs."""

    def __init__(self, monoids):
        self.answers: Counter = Counter()
        self.paused = False
        self._monoids = monoids
        self._original = original = monoids.congruent

        def congruent(*args, **kwargs):
            ans = original(*args, **kwargs)
            if not self.paused:
                self.answers[ans.answer] += 1
            return ans
        monoids.congruent = congruent

    def restore(self) -> None:
        self._monoids.congruent = self._original


def closed_loop(workload, S, jobs, seconds: float | None = None,
                limit: int | None = None, tracer=None, pausable=(),
                into: LoopResult | None = None) -> LoopResult:
    """Run jobs one after another, each when the previous one ends, until
    ``seconds`` have passed (stopping only between rounds) or ``limit``
    jobs have run, adding them to ``into`` if given.  Only ``workload.run``
    is timed; its output is checked afterwards with ``tracer`` and every
    ``pausable`` paused.  A calibration pass runs before every round and
    after the last."""
    paused = [x for x in (tracer, *pausable) if x is not None]
    res = LoopResult() if into is None else into
    first = res.attempted
    it = iter(jobs)
    t_start = perf_counter()
    while True:
        done = res.attempted
        if done % workload.round_size == 0:
            res.calibrations.append(calibration_s())
        if limit is not None and done - first >= limit:
            break
        if (seconds is not None and done % workload.round_size == 0
                and perf_counter() - t_start >= seconds):
            break
        job = next(it)
        if tracer is not None:
            tracer.current_job = done
        out = None
        problems = None
        t0 = perf_counter()
        try:
            out = workload.run(S, job)
        except Exception:
            problems = ["raised " + traceback.format_exc(limit=-3)]
        res.latencies.append(perf_counter() - t0)
        if problems is None:
            for x in paused:
                x.paused = True
            try:
                problems = workload.check(S, job, out)
            except Exception:
                problems = ["check raised " + traceback.format_exc(limit=-3)]
            finally:
                for x in paused:
                    x.paused = False
        if problems:
            res.failures.append((done, workload.describe(job), problems))
    if tracer is not None:
        tracer.current_job = -1
    return res


def end_to_end(loop: LoopResult, setups: list[float],
               peak_rss_mib: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one untraced run and the report lines
    that go with them.  Times are scaled to the reference speed; the lines
    also give them as measured."""
    n = loop.attempted
    k = loop.scale
    busy = loop.busy_s
    p50 = statistics.median(loop.latencies)
    setup = statistics.median(setups)
    metrics = {
        "jobs_per_s": (n / (busy * k), "1/s"),
        "job_p50_ms": (p50 * k * 1e3, "ms"),
    }
    lines = [
        f"speed scale {k:.4f} (median of {len(loop.calibrations)} "
        "calibration passes; times below at the reference speed, "
        "as measured in brackets)",
        f"jobs_per_s {n / (busy * k):.4f} 1/s "
        f"({n} jobs in {busy:.3f} s of job time; {n / busy:.4f})",
        f"job_p50_ms {p50 * k * 1e3:.3f} ms (n={n}; {p50 * 1e3:.3f})",
    ]
    t = tail(loop.latencies)
    if t is None:
        lines.append(f"job_tail_ms omitted: {n} jobs leave fewer than "
                     f"{MIN_BEYOND} beyond the median")
    else:
        metrics["job_tail_ms"] = (t[1] * k * 1e3, "ms")
        lines.append(f"job_tail_ms {t[1] * k * 1e3:.3f} ms "
                     f"(p{t[0]:g}, n={n}; {t[1] * 1e3:.3f})")
    metrics["setup_s"] = (setup * k, "s")
    metrics["peak_rss_mb"] = (peak_rss_mib, "MiB")
    lines += [
        f"fail_ratio {loop.failed / n:.4f} ratio "
        f"({loop.failed} of {n} jobs failed a check)",
        f"setup_s {setup * k:.4f} s (median of {len(setups)}: "
        + ", ".join(f"{s:.4f}" for s in setups) + ")",
        f"peak_rss_mb {peak_rss_mib:.1f} MiB",
    ]
    return metrics, lines


def failure_lines(loop: LoopResult, limit: int = 5) -> list[str]:
    out = []
    for index, what, problems in loop.failures[:limit]:
        out.append(f"FAILED job {index} ({what}):")
        out += [f"    {p}" for p in problems[:5]]
    return out
