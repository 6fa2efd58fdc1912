"""Smoke runs of the scripts in ``scripts/``, so a renamed library name
they use breaks a test instead of the script alone."""

import gc
import os
import pathlib
import re
import runpy
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("name, args, line", [
    ("bratteli_growth.py", ("--depth", "2"),
     "union: 80 vertices, 377 edges"),
    ("example59.py", ("--min", "3", "--max", "3"),
     " 3  3    0      Z        -    1        0   (1, 1)"),
    ("sweep_phi.py",
     ("--vertices", "1", "--edges", "2", "--weight", "2", "--sample", "0"),
     "family: 6 weighted graphs (<= 1 vertices, 2 edges, weight 2)"),
], ids=["bratteli_growth", "example59", "sweep_phi"])
def test_script_runs(name, args, line):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()


@pytest.mark.parametrize("args, message", [
    (("--depth", "-1"), "bratteli_growth.py: error: --depth must be nonnegative"),
    (("--cap", "-5"), "bratteli_growth.py: error: --cap must be positive"),
    (("--cap", "1000001"),
     "bratteli_growth.py: error: --cap must be at most 1000000"),
    (("--m", "3", "--n", "2"), "error: need 1 <= m <= n, got m=3, n=2"),
    (("--graph", "BAD"), "error: not bipartite: edge 'e' has unknown range "
     "'zz'; separation does not cover s^-1(u): no groups given"),
], ids=["negative-depth", "negative-cap", "cap-past-the-limit", "m-above-n",
        "invalid-graph"])
def test_bratteli_growth_refuses_bad_input(tmp_path, args, message):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph separated\nvertex u\nedge e = u -> zz\n")
    done = run_script("bratteli_growth.py",
                      *(str(bad) if a == "BAD" else a for a in args))
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert lines[-1] == message
    # argparse prints its usage first; a GraphError is one line
    assert len(lines) == 1 or lines[0].startswith("usage:")


def test_gc_census_counts_collections_and_times_jobs():
    done = run_script("gc_census.py", "--workload", "resolve-wide",
                      "--jobs", "9", "--seed", "1")
    assert done.returncode == 0, done.stderr
    head, collections, times, heap = done.stdout.splitlines()
    assert head == "workload: resolve-wide, seed 1, 9 jobs, 0 failed"
    counts = re.fullmatch(r"collections: gen0 \d+, gen1 \d+, gen2 (\d+) "
                          r"\((\d+\.\d) gen2 per 1,000 jobs\)", collections)
    assert counts and float(counts[2]) == round(1000 * int(counts[1]) / 9, 1)
    assert re.fullmatch(r"job ms: p50 \d+\.\d\d, p99 \d+\.\d\d", times)
    live = re.fullmatch(r"tracked objects: ([\d,]+) once the first job is "
                        r"drawn, ([\d,]+) after the loop", heap)
    assert live
    # the library and the workload's inputs are live before the loop
    assert int(live[1].replace(",", "")) > 1000
    assert int(live[2].replace(",", "")) > 1000


def test_gc_census_counts_the_heap_with_a_lazy_first_input(monkeypatch,
                                                           capsys):
    # a workload that makes each input only when its job is drawn, as
    # resolve-wide does: the first count must hold the first job's input
    script = runpy.run_path(str(ROOT / "scripts" / "gc_census.py"))
    before = []

    def generate(S, seed):
        while True:
            before.append(len(gc.get_objects()))
            yield [[] for _ in range(20_000)]

    lazy = SimpleNamespace(generate=generate, run=lambda S, job: None,
                           check=lambda S, job, out: None)
    monkeypatch.setitem(script["main"].__globals__, "WORKLOADS",
                        {"lazy": lazy})
    monkeypatch.setattr(sys, "argv", ["gc_census.py", "--workload", "lazy",
                                      "--jobs", "2"])
    assert script["main"]() == 0
    heap = capsys.readouterr().out.splitlines()[3]
    first = int(re.match(r"tracked objects: ([\d,]+)", heap)[1]
                .replace(",", ""))
    # other objects come and go in between; the input's 20,000 lists stay
    assert first > before[0] + 10_000


class ClosedPipe:
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_gc_census_into_a_closed_pipe_stops_quietly(monkeypatch, capsys):
    # in process: the script's main() with a stdout that refuses writes
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    script = runpy.run_path(str(ROOT / "scripts" / "gc_census.py"))
    monkeypatch.setattr(sys, "argv", ["gc_census.py", "--workload",
                                      "resolve-wide", "--jobs", "1"])
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert script["main"]() == 0
    assert capsys.readouterr().err == ""


def test_gc_census_into_a_pipe_closed_early_exits_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "gc_census.py"),
         "--workload", "resolve-wide", "--jobs", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader is gone before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""


@pytest.mark.parametrize("args, message", [
    (("--workload", "nope"), "argument --workload: invalid choice: 'nope'"),
    (("--workload", "verify-small", "--jobs", "0"), "--jobs must be positive"),
], ids=["unknown-workload", "no-jobs"])
def test_gc_census_refuses_bad_input(args, message):
    done = run_script("gc_census.py", *args)
    assert done.returncode == 2
    assert message in done.stderr.splitlines()[-1]
