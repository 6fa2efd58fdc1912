"""The traced benchmark run wraps program functions by module and attribute
name (``sepalbench/layers.py``).  A rename or move of one of them must fail
here, not only in the next traced run, and so must a call path that goes
around a wrapped function and leaves its layer reading zero."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "sepalbench"


def _targets():
    sys.path.insert(0, str(BENCH))
    try:
        from layers import TARGETS
    finally:
        sys.path.remove(str(BENCH))
    return TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("target", TARGETS,
                         ids=[f"{t.module}:{t.attr}" for t in TARGETS])
def test_trace_target_resolves(target):
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer swaps the attribute in the owner's own namespace
    assert callable(vars(owner).get(attr)), target


def _traced_second(workload: str) -> dict:
    # one traced second of a workload; every job must check out
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    return result["metrics"]


def test_traced_run_sees_the_verify_path():
    metrics = _traced_second("verify-small")
    for name in ("homs.evaluate.calls", "homs.relations.relations_built",
                 "staralg.normal_form.calls"):
        assert metrics[name]["value"] > 0, name


def test_traced_run_sees_the_resolution_path():
    # staralg.mul.pairs is |a|·|b| computed from the operands by the
    # tracer, not pairs the product tried, so it is not checked here
    metrics = _traced_second("resolve-wide")
    for name in ("staralg.mul.calls", "staralg.normal_form.calls",
                 "constructions.one_step_resolution.calls",
                 "constructions.bratteli.union_edges"):
        assert metrics[name]["value"] > 0, name


def test_traced_run_sees_the_monoid_path():
    metrics = _traced_second("monoid-invariants")
    for name in ("monoids.congruent.calls", "monoids.leavitt_type.calls",
                 "mnlab.example_59_report.calls",
                 "constructions.enumerate_hsat.found_per_scan"):
        assert metrics[name]["value"] > 0, name
    # the scan tries only multiples of ord([a]) and skips infinite order
    scanned = metrics["monoids.leavitt_type.scanned"]["value"]
    assert scanned / metrics["monoids.leavitt_type.calls"]["value"] < 20
