"""Smoke runs of the scripts in ``scripts/``, so a renamed library name
they use breaks a test instead of the script alone."""

import os
import pathlib
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
