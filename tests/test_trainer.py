"""End-to-end trainer behavior on deliberately tiny runs."""

import gc
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from imbalanced_ssl import network, trainer
from imbalanced_ssl.cli import main
from conftest import run_estimation_phase
from imbalanced_ssl.config import RunConfig
from imbalanced_ssl.diagnostics import evaluate
from imbalanced_ssl.losses import LOSS_COLUMNS
from imbalanced_ssl.network import init_model, model_from_checkpoint_obj
from imbalanced_ssl.trainer import (
    TrainingAborted,
    train,
    write_run_artifacts,
)


def _tiny_config(seed=0, **train_kw):
    cfg = RunConfig()
    task = replace(cfg.task, k=4, d=6, seed=seed)
    data = replace(cfg.data, labeled_max=20, unlabeled_max=40, test_per_class=25)
    tr_kw = dict(seed=seed, epochs=4, steps_per_epoch=12, estimation_epochs=1,
                 labeled_batch=16, unlabeled_batch=32)
    tr_kw.update(train_kw)
    train_sec = replace(cfg.train, **tr_kw)
    return RunConfig(task=task, data=data, train=train_sec, anchors=cfg.anchors)


def test_run_completes_with_wellformed_rows():
    cfg = _tiny_config()
    res = train(cfg)
    assert len(res.metrics_rows) == 4
    row = res.metrics_rows[-1]
    for col in ("epoch", "bacc_original", "bacc_output", "bacc_calibrated",
                "bacc_expansive", "recall_head", "recall_nonhead"):
        assert col in row
    # one losses.csv row per step, in LOSS_COLUMNS order
    assert res.losses.shape == (4 * 12, len(LOSS_COLUMNS))
    assert res.losses[:, 0].tolist() == list(range(4 * 12))
    assert np.isfinite(res.losses).all()


def test_head_classes_are_the_most_frequent_labeled_classes():
    """An inverse labeled split puts its most frequent classes last; they are
    the head classes that recall_head measures."""
    cfg = _tiny_config(seed=3, epochs=2)
    res = train(replace(cfg, data=replace(cfg.data, labeled_kind="inverse")))
    ds = res.dataset
    assert ds.labeled_counts().tolist() == [1, 1, 4, 20]
    head = np.arange(ds.task.k) >= 2
    cal = evaluate(res.model, ds.test_x, ds.test_y)["calibrated"]
    assert cal.recall_over(head) != cal.recall_over(~head)
    assert res.metrics_rows[-1]["recall_head"] == cal.recall_over(head)
    assert res.metrics_rows[-1]["recall_nonhead"] == cal.recall_over(~head)


def test_never_reads_unlabeled_ground_truth():
    res = train(_tiny_config(seed=1))
    assert res.summary["audit_reads"] == 0


def test_matching_happens_and_is_recorded():
    res = train(_tiny_config(seed=2))
    assert res.match is not None
    assert res.summary["o_star"] in (
        "consist", "uniform", "inverse", "gaussian", "gaussian-inverse")
    assert res.summary["c"] in (4, 5, 6)
    assert len(res.summary["kl_values"]) == 5
    assert sum(res.summary["estimated_counts"]) == res.dataset.n_unlabeled


def test_thresholds_logged_nonincreasing():
    res = train(_tiny_config(seed=3, epochs=6))
    rows = res.threshold_rows
    assert len(rows) == 6 * 4  # one row per (epoch, class)
    for cls in range(4):
        for col in ("rho_b", "rho_e"):
            traj = [r[col] for r in rows if r["class"] == cls]
            assert len(traj) == 6
            assert all(b <= a + 1e-15 for a, b in zip(traj, traj[1:]))
            assert max(traj) <= 0.95 + 1e-15


def test_deterministic_rerun_is_bitwise_identical():
    a = train(_tiny_config(seed=4))
    b = train(_tiny_config(seed=4))
    assert np.array_equal(a.losses, b.losses)
    assert a.metrics_rows == b.metrics_rows
    assert a.summary["o_star"] == b.summary["o_star"]
    c = train(_tiny_config(seed=5))
    assert not np.array_equal(c.losses, a.losses)


def _memory_held_after_training(steps_per_epoch, epochs=2):
    """Bytes tracemalloc sees held, result included, after a run of a very
    small model, and the peak it saw during the run."""
    cfg = _tiny_config(epochs=epochs, steps_per_epoch=steps_per_epoch, labeled_batch=8,
                       unlabeled_batch=8, hidden=(4,), feature=4, probe_size=8, probe_n_aug=1)
    tracemalloc.start()
    try:
        result = train(cfg)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.losses.shape == (epochs * steps_per_epoch, len(LOSS_COLUMNS))
    return held, peak


def test_loss_record_costs_one_float64_row_per_step():
    # the loss record is one (steps, 9) float64 array: 72 bytes a step, the
    # size RunConfig._array_sizes caps
    _memory_held_after_training(5)  # first-call allocations
    (short, _), (long, _) = _memory_held_after_training(10), _memory_held_after_training(510)
    per_step = (long - short) / 1000
    assert 64 <= per_step <= 96, per_step


def test_epoch_peak_grows_by_the_loss_row_alone():
    # an epoch sums its pseudo-label counts into one (3, K) array as the steps
    # run, so a step adds to the peak no more than its loss row's 72 bytes
    _memory_held_after_training(5, epochs=1)  # first-call allocations
    (_, short), (_, long) = (_memory_held_after_training(10, epochs=1),
                             _memory_held_after_training(1010, epochs=1))
    per_step = (long - short) / 1000
    assert per_step <= 96, per_step


def test_estimation_phase_snapshot():
    cfg = _tiny_config(seed=6)
    model, match, est = run_estimation_phase(cfg)
    assert est.shape == (4,)
    assert est.sum() == cfg.build_dataset().n_unlabeled
    assert match.kind in (
        "consist", "uniform", "inverse", "gaussian", "gaussian-inverse")


def _reject_constant(token):
    raise ValueError(f"abort.json holds the non-JSON token {token}")


def _abort_run(cfg, run_dir):
    """Train until TrainingAborted with every RuntimeWarning raised as an
    error; returns the snapshot and the abort.json written for it, which
    must be strict JSON."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingAborted) as exc:
            train(cfg, run_dir=run_dir)
    with open(os.path.join(run_dir, "abort.json")) as fh:
        written = json.load(fh, parse_constant=_reject_constant)
    with open(os.path.join(run_dir, "checkpoint.json")) as fh:
        model_from_checkpoint_obj(json.load(fh))
    assert set(os.listdir(run_dir)) == {"abort.json", "checkpoint.json"}
    return exc.value.snapshot, written


def test_nonfinite_loss_aborts_with_snapshot(tmp_path):
    cfg = _tiny_config(seed=8, learning_rate=1e9)
    snap, written = _abort_run(cfg, str(tmp_path / "run"))
    assert written == snap
    assert set(snap) == {"epoch", "step", "components"}
    assert snap["step"] >= 1
    assert snap["epoch"] == snap["step"] // cfg.train.steps_per_epoch
    # the weights blew up in an update, so the forward pass went non-finite
    # before a loss could be computed
    assert snap["components"] is None


def test_nonfinite_loss_from_finite_logits_records_components(tmp_path, monkeypatch):
    # finite output-head logits 2e308 apart overflow the log-softmax, so the
    # balanced supervised loss is infinite on the very first step; the
    # infinite components are recorded as null
    def tilted_model(*args, **kwargs):
        model = init_model(*args, **kwargs)
        model.heads["output"].b[:2] = (1e308, -1e308)
        return model

    monkeypatch.setattr(trainer, "init_model", tilted_model)
    snap, written = _abort_run(_tiny_config(seed=12), str(tmp_path / "run"))
    assert written == snap
    assert (snap["epoch"], snap["step"]) == (0, 0)
    components = snap["components"]
    assert set(components) == {"total", "l_basic", "l_sup_b", "l_con_b", "l_sup_e", "l_con_e"}
    assert components["l_sup_b"] is None and components["total"] is None
    assert math.isfinite(components["l_basic"]) and math.isfinite(components["l_sup_e"])


def test_nonfinite_parameters_after_an_epoch_abort(tmp_path, monkeypatch, capsys):
    # the epoch's last update (its third) leaves an infinite weight, which no
    # step checks: the parameter check at the end of the epoch does
    updates = []

    def overflowing_step(model, grad, state):
        network.sgd_step(model, grad, state)
        updates.append(1)
        if len(updates) == 3:
            model.flat[0] = np.inf

    monkeypatch.setattr(trainer, "sgd_step", overflowing_step)
    cfg = _tiny_config(seed=15, epochs=2, steps_per_epoch=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingAborted, match="non-finite parameters after step 2"):
            train(cfg, run_dir=str(tmp_path / "run"))
    with open(tmp_path / "run" / "abort.json") as fh:
        assert json.load(fh, parse_constant=_reject_constant) == {
            "epoch": 0, "step": 2, "components": None}
    assert sorted(os.listdir(tmp_path / "run")) == ["abort.json", "checkpoint.json"]
    # the infinite weight is written as null, so the checkpoint is strict
    # JSON, and evaluating it is a usage error that names the parameter
    with open(tmp_path / "run" / "checkpoint.json") as fh:
        params = json.load(fh, parse_constant=_reject_constant)["params"]
    assert params["backbone.w0"][0] is None
    assert sum(v is None for values in params.values() for v in values) == 1
    capsys.readouterr()
    assert main(["evaluate", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'backbone.w0'" in err
    assert "Traceback" not in err


def test_one_test_set_forward_per_epoch(monkeypatch):
    # every evaluated view (three heads and the calibrated output head) is
    # read off one backbone forward of the test set
    cfg = _tiny_config(seed=13)
    ds = cfg.build_dataset()
    forward = network.forward_features
    test_calls = []

    def counting_forward(model, x):
        if x.shape == ds.test_x.shape and np.array_equal(x, ds.test_x):
            test_calls.append(1)
        return forward(model, x)

    monkeypatch.setattr(network, "forward_features", counting_forward)
    train(cfg, dataset=ds)
    assert len(test_calls) == cfg.train.epochs


def test_one_forward_and_one_backward_per_step(monkeypatch):
    # a step forwards [weak; labeled; strong] once and back-propagates its
    # labeled and strong rows once; the inference forwards of the estimation
    # and measurement code run through forward_features and are not counted
    cfg = _tiny_config(seed=14)
    forward, forward_cached, backward = (network.forward_features,
                                         network.forward_features_cached, network.backward)
    calls = {"forward_features_cached": 0, "backward": 0}
    inference = []

    def counting_forward(model, x):
        inference.append(True)
        try:
            return forward(model, x)
        finally:
            inference.pop()

    def counting_forward_cached(model, x):
        if not inference:
            calls["forward_features_cached"] += 1
            t = cfg.train
            assert x.shape[0] == t.labeled_batch + 2 * t.unlabeled_batch
        return forward_cached(model, x)

    def counting_backward(model, cache, head_grads):
        calls["backward"] += 1
        return backward(model, cache, head_grads)

    monkeypatch.setattr(network, "forward_features", counting_forward)
    monkeypatch.setattr(network, "forward_features_cached", counting_forward_cached)
    monkeypatch.setattr(network, "backward", counting_backward)
    res = train(cfg)
    steps = cfg.train.epochs * cfg.train.steps_per_epoch
    assert len(res.losses) == steps
    assert calls == {"forward_features_cached": steps, "backward": steps}


def test_artifacts_written(tmp_path):
    run_dir = str(tmp_path / "run")
    cfg = _tiny_config(seed=9)
    res = train(cfg, run_dir=run_dir)
    names = set(os.listdir(run_dir))
    assert {"config.json", "metrics.csv", "losses.csv", "thresholds.csv",
            "bias.csv", "checkpoint.json", "summary.json"} <= names
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["o_star"] == res.summary["o_star"]
    with open(os.path.join(run_dir, "config.json")) as fh:
        stored = json.load(fh)
    assert stored["train"]["seed"] == 9
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert "bacc_calibrated" in header


def test_artifact_rewrite_is_byte_identical(tmp_path):
    cfg = _tiny_config(seed=10)
    res = train(cfg)
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    write_run_artifacts(d1, cfg, res)
    write_run_artifacts(d2, cfg, res)
    for name in ("metrics.csv", "losses.csv", "thresholds.csv", "bias.csv",
                 "summary.json", "config.json", "checkpoint.json"):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_empty_unlabeled_rejected():
    cfg = _tiny_config(seed=11)
    ds = cfg.build_dataset()
    ds.unlabeled_x = ds.unlabeled_x[:0]
    with pytest.raises(ValueError):
        train(cfg, dataset=ds)
