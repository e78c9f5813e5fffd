"""The benchmark's contract with the package, checked without running it.

bench/run_bench.py wraps the functions named in bench/op.py's TRACED and
fails a traced run when a workload's expected span never fires.  This test
reads both files, edits neither, and fails fast when a span target no longer
resolves in the package or a workload expects a span that is not traced.
It also loads each training workload's config through the package, so a
renamed, dropped or re-defaulted config key fails here first, and it feeds
the counter hooks real objects, so a reshape that drops an attribute a hook
reads fails here too, not first in a traced run.  Last, it runs each
workload's smoke config through bench/op.py with tracing on and checks that
every expected span fires, so a traced function the workload stops calling
fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from imbalanced_ssl.config import RunConfig, TrainSection
from imbalanced_ssl.control import init_thresholds, update_thresholds
from imbalanced_ssl.distributions import head_mask
from imbalanced_ssl.losses import step_plan, total_loss
from imbalanced_ssl.network import (HEAD_NAMES, backward, forward_features,
                                    forward_features_cached, init_model)

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


class _Counters:
    """The part of bench/spans.py's Tracer that a counter hook calls."""

    def __init__(self):
        self.counters = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + int(n)


def test_counter_hooks_read_real_objects():
    hooks = {t[0]: t[2] for t in TRACED if t[2] is not None}
    assert set(hooks) == {"losses:total_loss", "network:forward_features",
                          "network:forward_features_cached", "network:backward",
                          "control:update_thresholds"}
    rng = np.random.default_rng(0)
    k, d = 4, 6
    model = init_model(k, d, (5,), 3, 0)
    x_l, y_l = rng.normal(size=(8, d)), rng.integers(0, k, size=8)
    x_w = rng.normal(size=(12, d))
    x_s = x_w + rng.normal(size=(12, d))
    labeled_counts = np.array([8, 4, 2, 1])
    state = init_thresholds(4.0, 100.0, head_mask(labeled_counts), TrainSection())
    tr = _Counters()

    # the calls of one training step, as the tracer sees them
    plan = step_plan(replace(TrainSection(), labeled_batch=8, unlabeled_batch=12),
                     labeled_counts)
    step = (model, x_l, y_l, x_w, x_s, state, plan)
    losses = total_loss(*step)
    hooks["losses:total_loss"](tr, step, {}, losses)
    grads = (model, losses.cache, losses.head_grads)
    hooks["network:backward"](tr, grads, {}, backward(*grads))
    for target, forward in (("network:forward_features", forward_features),
                            ("network:forward_features_cached", forward_features_cached)):
        hooks[target](tr, (model, x_l), {}, forward(model, x_l))

    # a tick that decays class 0, then one that decays nothing
    hot, cold = np.array([2.0, 0.0, 0.0, 0.0]), np.zeros(k)
    for b in (hot, cold):
        ticked = update_thresholds(state, b, plan.t)
        hooks["control:update_thresholds"](tr, (state, b, plan.t), {}, ticked)
        state = ticked

    kept = {f"losses.consistency.kept_rows.{h}": int(row.sum())
            for h, row in zip(HEAD_NAMES, losses.kept)}
    assert tr.counters == {"losses.consistency.attempted_rows": 12, **kept,
                           "network.backward.rows": 8 + 12,
                           "network.forward_features.rows": 8,
                           "network.forward_features_cached.rows": 8,
                           "control.decay_ticks": 1}


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = _merge(base[key], value) if isinstance(value, dict) else value
    return out


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_expected_spans_fire(workload, tmp_path):
    # one traced operation, run the way bench/run_bench.py runs it: a fresh
    # process on bench/op.py with the workload's smoke config; a training
    # workload that evaluates runs `imbssl evaluate` on every view after it
    spec = _workloads()[workload]
    src = os.path.join(os.path.dirname(BENCH), "src")
    request = {"kind": spec["kind"], "src": src, "out_dir": str(tmp_path), "trace": True}
    if spec["kind"] == "train":
        request["config"] = _merge(_merge(spec["config"], spec["smoke"]), {"train": {"seed": 0}})
        request["evaluate"] = spec["evaluate"]
    else:
        request["args"] = [*spec["smoke"]["args"], "--seed", "0"]
    (tmp_path / "request.json").write_text(json.dumps(request))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "op.py"),
                           str(tmp_path / "request.json"), "0.0"],
                          env=env, capture_output=True, text=True, timeout=300)
    record = json.loads((tmp_path / "record.json").read_text())
    assert proc.returncode == 0 and "error" not in record, record.get("traceback", proc.stderr)
    trace = json.loads((tmp_path / "trace.json").read_text())
    fired = {trace["names"][span[0]] for span in trace["spans"]}
    missing = sorted(set(spec["expected_spans"]) - fired)
    assert not missing, f"{workload}: expected spans that never fired: {missing}"
