"""Smoke runs of the scripts in ``scripts/``, so a renamed library name
they use breaks a test instead of the script alone."""

import os
import pathlib
import re
import subprocess
import sys

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
    (("--m", "3", "--n", "2"), "error: need 1 <= m <= n, got m=3, n=2"),
    (("--graph", "BAD"), "error: not bipartite: edge 'e' has unknown range "
     "'zz'; separation does not cover s^-1(u): no groups given"),
], ids=["negative-depth", "negative-cap", "m-above-n", "invalid-graph"])
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
    head, collections, times = done.stdout.splitlines()
    assert head == "workload: resolve-wide, seed 1, 9 jobs, 0 failed"
    counts = re.fullmatch(r"collections: gen0 \d+, gen1 \d+, gen2 (\d+) "
                          r"\((\d+\.\d) gen2 per 1,000 jobs\)", collections)
    assert counts and float(counts[2]) == round(1000 * int(counts[1]) / 9, 1)
    assert re.fullmatch(r"job ms: p50 \d+\.\d\d, p99 \d+\.\d\d", times)


@pytest.mark.parametrize("args, message", [
    (("--workload", "nope"), "argument --workload: invalid choice: 'nope'"),
    (("--workload", "verify-small", "--jobs", "0"), "--jobs must be positive"),
], ids=["unknown-workload", "no-jobs"])
def test_gc_census_refuses_bad_input(args, message):
    done = run_script("gc_census.py", *args)
    assert done.returncode == 2
    assert message in done.stderr.splitlines()[-1]
