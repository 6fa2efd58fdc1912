"""The traced benchmark run wraps program functions by module and attribute
name (``sepalbench/layers.py``).  A rename or move of one of them must fail
here, not only in the next traced run."""

import importlib
import pathlib
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
