"""Self-tests of the benchmark harness on synthetic data.

Run from the root of a checkout:  python3 -m pytest sepalbench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from run import _result  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_children():
    # A [0, 10] holds B [1, 5], which holds C [2, 4]; D [6, 7] is A's
    # second child.  The clock reads once per open and once per close.
    tr = spans.Tracer(clock=ScriptedClock([0, 1, 2, 4, 5, 6, 7, 10]))
    tr.current_job = 0
    a = tr.open(tr.name_id("A"))
    b = tr.open(tr.name_id("B"))
    c = tr.open(tr.name_id("C"))
    tr.close(c)
    tr.close(b)
    d = tr.open(tr.name_id("D"))
    tr.close(d)
    tr.close(a)
    assert list(tr.parent) == [-1, a, b, a]
    assert spans.self_times(tr.start, tr.end, tr.parent) == [5, 2, 2, 1]
    summary = spans.summarize(tr)
    assert summary.self_s == {"A": 5, "B": 2, "C": 2, "D": 1}
    assert summary.calls == {"A": 1, "B": 1, "C": 1, "D": 1}
    assert summary.child_calls == {("A", "B"): 1, ("B", "C"): 1,
                                   ("A", "D"): 1}


def test_self_time_counts_overlapping_children_once():
    # children that overlap or stick out of the parent only cover the
    # parent's own interval once
    assert spans.self_times([0, 1, 2, 8], [10, 3, 5, 12],
                            [-1, 0, 0, 0]) == [4, 2, 3, 4]
    assert spans.self_times([0, 1, 2], [10, 5, 6], [-1, 0, 0]) == [5, 4, 4]
    assert spans.self_times([0], [10], [-1]) == [10]
    assert spans.self_times([0, 12], [10, 14], [-1, 0]) == [10, 2]


def test_setup_spans_are_kept_apart_from_job_spans():
    tr = spans.Tracer(clock=ScriptedClock([0, 3, 3, 4]))
    s = tr.open(tr.name_id("setup"))
    tr.close(s)
    tr.current_job = 0
    j = tr.open(tr.name_id("work"))
    tr.close(j)
    summary = spans.summarize(tr)
    assert summary.setup_s == {"setup": 3}
    assert summary.calls == {"work": 1}


def test_install_wraps_names_imported_elsewhere_and_restores(tmp_path):
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def square(x):
        return x * x

    class Box:
        def grow(self, k):
            return k + 1

    grow = Box.grow
    lib.square, lib.Box = square, Box
    user.square = square          # as after "from .lib import square"
    sys.modules.update({"fakepkg": pkg, "fakepkg.lib": lib,
                        "fakepkg.user": user})
    try:
        tr = spans.Tracer()
        tr.current_job = 0

        def count(counts, args, kwargs, result):
            counts["squared"] += result

        restore = spans.install(tr, [
            spans.Target("fakepkg.lib", "square", "lib.square", count),
            spans.Target("fakepkg.lib", "Box.grow", "lib.grow"),
        ], "fakepkg")
        assert lib.square(2) == 4 and user.square(3) == 9
        assert Box().grow(1) == 2
        tr.paused = True
        assert user.square(5) == 25
        tr.paused = False
        summary = spans.summarize(tr)
        assert summary.calls == {"lib.square": 2, "lib.grow": 1}
        assert tr.counts["squared"] == 13
        restore()
        assert lib.square is square and user.square is square
        assert Box.__dict__["grow"] is grow and len(tr) == 3
        tr.write(tmp_path / "t.spans")
        header = (tmp_path / "t.spans").read_bytes().split(b"\n", 1)[0]
        assert b'"spans": 3' in header
    finally:
        for name in ("fakepkg", "fakepkg.lib", "fakepkg.user"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("n, want", [
    (10000, 99.9),   # 10 samples beyond p99.9
    (9999, 99.0),
    (1000, 99.0),    # exactly 10 beyond p99
    (999, 95.0),
    (200, 95.0),
    (199, 90.0),
    (100, 90.0),
    (40, 75.0),
    (39, 50.0),
    (20, 50.0),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, want):
    p, value = harness.tail([float(i) for i in range(n)])
    assert p == want
    beyond = sum(1 for x in range(n) if x > value)
    assert beyond >= harness.MIN_BEYOND


def test_tail_value_is_nearest_rank_and_order_free():
    xs = [float(i) for i in range(1, 1001)]
    assert harness.tail(list(reversed(xs))) == (99.0, 990.0)


def test_tail_is_omitted_with_too_few_samples():
    assert harness.tail([1.0] * 19) is None
    loop = harness.LoopResult(latencies=[0.01] * 19)
    metrics, lines = harness.end_to_end(loop, [1.0], 10.0)
    assert "job_tail_ms" not in metrics
    assert any(line.startswith("job_tail_ms omitted") for line in lines)


class FakeWorkload:
    """Jobs are integers: multiples of 5 raise in ``run``, multiples of 3
    fail their check; the check records whether the watcher was paused."""
    name = "fake"
    round_size = 1

    def __init__(self, watcher):
        self.watcher = watcher

    def run(self, S, job):
        if job % 5 == 0:
            raise ValueError("boom")
        return job

    def check(self, S, job, out):
        assert self.watcher.paused
        return ["bad"] if job % 3 == 0 else []

    def describe(self, job):
        return str(job)


def test_failed_jobs_count_against_jobs_attempted():
    watcher = types.SimpleNamespace(paused=False)
    loop = harness.closed_loop(FakeWorkload(watcher), None, range(1, 100),
                               limit=30, pausable=(watcher,))
    assert not watcher.paused
    assert loop.attempted == 30
    failing = [j for j in range(1, 31) if j % 5 == 0 or j % 3 == 0]
    assert loop.failed == len(failing) == 14
    assert [desc for _, desc, _ in loop.failures] == [str(j) for j in failing]
    assert "raised" in loop.failures[1][2][0]          # job 5
    assert len(loop.calibrations) == 31                 # before each job, after the last
    loop.calibrations = [harness.CAL_REF_S]
    metrics, lines = harness.end_to_end(loop, [0.5, 0.7, 0.6], 12.0)
    assert f"fail_ratio {14 / 30:.4f} ratio (14 of 30 jobs failed a check)" in lines
    assert metrics["setup_s"] == (0.6, "s")
    result, _ = _result(metrics, [], [loop, loop])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 60, 28)


def test_loop_stops_only_between_rounds():
    watcher = types.SimpleNamespace(paused=False)
    work = FakeWorkload(watcher)
    work.round_size = 4
    loop = harness.closed_loop(work, None, (j for j in range(1, 10 ** 6)
                                            if j % 3 and j % 5),
                               seconds=0.1, pausable=(watcher,))
    assert loop.attempted % 4 == 0 and loop.attempted > 0
    assert loop.failed == 0


def test_replay_accepts_only_relation_steps():
    rels = [((1, 0), (0, 2))]                    # a = 2b
    assert oracles.replay(rels, [(1, 0), (0, 2)], (1, 0), (0, 2)) is None
    assert oracles.replay(rels, [(0, 2), (1, 0)], (0, 2), (1, 0)) is None
    assert "applies no relation" in oracles.replay(
        rels, [(1, 0), (0, 3)], (1, 0), (0, 3))
    assert "endpoints" in oracles.replay(rels, [(1, 0)], (1, 0), (0, 2))


def test_resolution_shape_of_e23():
    # E(2,3): v emits a group of 3 and a group of 2 edges to w
    edges = [(f"e{i}", "v", "w") for i in (1, 2, 3)] + \
        [(f"f{i}", "v", "w") for i in (1, 2)]
    sep = [("v", (("e1", "e2", "e3"), ("f1", "f2")))]
    up, lo, ne, groups = oracles.resolution_shape(("v",), ("w",), edges, sep)
    assert (up, lo, ne) == (1, 6, 12)
    assert groups == {"w": [2, 2, 2, 3, 3]}


def test_group_names_match_the_program_format():
    assert [oracles.group_name(k) for k in (0, 1, 4)] == ["Z", "0", "Z/4"]


def test_layer_map_and_benchmark_file_name_every_per_layer_metric():
    import json
    import layers
    here = Path(__file__).resolve().parents[1]
    names = [name for name, _, _ in layers.METRICS]
    mapped = [n for entry in json.loads((here / "layer_map.json").read_text())["map"]
              for n in entry["per_layer"]]
    assert sorted(mapped) == sorted(names)
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(layers.METRICS)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def test_per_layer_normalizes_by_jobs_and_takes_setup_apart():
    import layers
    summary = spans.SpanSummary(
        calls={"staralg.mul": 10, "constructions.is_hsat": 8},
        self_s={"staralg.mul": 2.0},
        setup_s={"sweeps.weighted_sweep": 1.5},
        child_calls={("constructions.enumerate_hsat", "constructions.is_hsat"): 8})
    counts = {"staralg.mul.pairs": 40.0, "staralg.mul.terms_out": 10.0,
              "constructions.enumerate_hsat.sets_found": 2.0,
              "monoids.congruent.answers.unknown": 3.0}
    values = layers.per_layer(summary, counts, jobs=2, overhead_ratio=1.25)
    assert set(values) == {name for name, _, _ in layers.METRICS}
    assert values["staralg.mul.calls"] == 5
    assert values["staralg.mul.self_s"] == 1.0
    assert values["staralg.mul.pairs"] == 20
    assert values["staralg.mul.terms_per_pair"] == 0.25
    assert values["constructions.enumerate_hsat.found_per_scan"] == 0.25
    assert values["monoids.congruent.unknown_ratio"] == 0.0   # no calls traced
    assert values["sweeps.weighted_sweep.s"] == 1.5
    assert values["trace.overhead_ratio"] == 1.25


def test_times_are_scaled_to_the_reference_speed():
    # calibration passes ran twice as long as the reference: the machine
    # ran at half speed, so every reported time halves
    loop = harness.LoopResult(latencies=[0.01 * i for i in range(1, 101)],
                              calibrations=[2 * harness.CAL_REF_S] * 3
                              + [100.0])
    assert loop.scale == 0.5
    metrics, lines = harness.end_to_end(loop, [2.0, 4.0, 3.0], 50.0)
    assert metrics["job_p50_ms"][0] == pytest.approx(505 * 0.5)
    assert metrics["job_tail_ms"][0] == pytest.approx(900 * 0.5)
    assert metrics["jobs_per_s"][0] == pytest.approx(100 / (50.5 * 0.5))
    assert metrics["setup_s"] == (1.5, "s")
    assert metrics["peak_rss_mb"] == (50.0, "MiB")
    assert harness.LoopResult().scale == 1.0
