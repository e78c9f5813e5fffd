"""The benchmark's contract with the package, checked without running it.

bench/run_bench.py wraps the functions named in bench/op.py's TRACED and
fails a traced run when a workload's expected span never fires.  This test
reads both files, edits neither, and fails fast when a span target no longer
resolves in the package or a workload expects a span that is not traced.
It also loads each training workload's config through the package, so a
renamed, dropped or re-defaulted config key fails here first.
"""

import importlib
import importlib.util
import json
import os
import sys

import pytest

from imbalanced_ssl.config import RunConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _traced():
    spec = importlib.util.spec_from_file_location("bench_op", os.path.join(BENCH, "op.py"))
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode, before = True, sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module.PACKAGE, module.TRACED


def _workloads():
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        return json.load(fh)["workloads"]


PACKAGE, TRACED = _traced()


@pytest.mark.parametrize("target,name", [(t[0], t[1]) for t in TRACED])
def test_traced_target_resolves_in_the_package(target, name):
    modname, qualname = target.split(":")
    holder = importlib.import_module(f"{PACKAGE}.{modname}")
    for part in qualname.split("."):
        assert hasattr(holder, part), f"{name}: {target} does not resolve"
        holder = getattr(holder, part)
    assert callable(holder), f"{name}: {target} is not callable"


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_expected_spans_are_traced(workload):
    traced = {t[1] for t in TRACED}
    expected = _workloads()[workload]["expected_spans"]
    assert expected
    missing = sorted(set(expected) - traced)
    assert not missing, f"{workload} expects spans that bench/op.py does not trace: {missing}"


@pytest.mark.parametrize("workload", sorted(name for name, w in _workloads().items()
                                            if w["kind"] == "train"))
def test_workload_config_round_trips(workload):
    config = _workloads()[workload]["config"]
    resolved = RunConfig.from_json_obj(config).to_json_obj()
    # compared as text, so an int that comes back as a float also fails
    assert json.dumps(resolved, sort_keys=True) == json.dumps(config, sort_keys=True)
