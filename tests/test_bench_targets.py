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
    # the gates check graphs through graphs.require_valid, which the
    # tracer wraps
    for name in ("homs.evaluate.calls", "homs.relations.relations_built",
                 "staralg.normal_form.calls", "graphs.validate.calls"):
        assert metrics[name]["value"] > 0, name


def test_traced_run_sees_the_resolution_path():
    # staralg.mul.pairs is |a|·|b| computed from the operands by the
    # tracer, not pairs the product tried, so it is not checked here.
    # phi0 must build its resolution through the wrapped module attribute,
    # or the edges it resolves would not be counted
    metrics = _traced_second("resolve-wide")
    for name in ("staralg.mul.calls", "staralg.normal_form.calls",
                 "constructions.one_step_resolution.calls",
                 "constructions.one_step_resolution.edges_out",
                 "constructions.bratteli.union_edges",
                 "homs.maps.calls", "graphs.validate.calls"):
        assert metrics[name]["value"] > 0, name


def test_traced_run_sees_the_monoid_path():
    metrics = _traced_second("monoid-invariants")
    # a graph's stored report is read through the public validate, so the
    # tracer still sees every check
    for name in ("monoids.congruent.calls", "monoids.leavitt_type.calls",
                 "mnlab.example_59_report.calls", "graphs.validate.calls",
                 "constructions.enumerate_hsat.found_per_scan"):
        assert metrics[name]["value"] > 0, name
    # NextClosure runs at most k closures per order ideal found, each one
    # through the public hsat_closure; closing every ideal found with each
    # outside vertex read 0.176 here
    assert metrics["constructions.enumerate_hsat.found_per_scan"]["value"] > 0.25
    # the scan tries only multiples of ord([a]) and skips infinite order
    scanned = metrics["monoids.leavitt_type.scanned"]["value"]
    assert scanned / metrics["monoids.leavitt_type.calls"]["value"] < 20
