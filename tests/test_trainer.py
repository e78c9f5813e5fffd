"""End-to-end trainer behavior on deliberately tiny runs."""

import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from imbalanced_ssl import trainer
from imbalanced_ssl.config import RunConfig, default_config
from imbalanced_ssl.network import init_model, model_from_checkpoint_obj
from imbalanced_ssl.trainer import (
    TrainingAborted,
    run_estimation_phase,
    train,
    write_run_artifacts,
)


def _tiny_config(seed=0, **train_kw):
    cfg = default_config()
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
    assert len(res.loss_rows) == 4 * 12
    assert {"total", "l_basic", "l_sup_b", "l_con_b", "l_sup_e", "l_con_e"} <= set(
        res.loss_rows[0])
    assert all(np.isfinite(r["total"]) for r in res.loss_rows)


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
    assert a.loss_rows == b.loss_rows
    assert a.metrics_rows == b.metrics_rows
    assert a.summary["o_star"] == b.summary["o_star"]
    c = train(_tiny_config(seed=5))
    assert c.loss_rows != a.loss_rows


def test_estimation_phase_snapshot():
    cfg = _tiny_config(seed=6)
    model, match, est = run_estimation_phase(cfg)
    assert est.shape == (4,)
    assert est.sum() == cfg.build_dataset().n_unlabeled
    assert match.kind in (
        "consist", "uniform", "inverse", "gaussian", "gaussian-inverse")


def test_stop_after_estimation_flag():
    cfg = _tiny_config(seed=7)
    res = train(cfg, stop_after_estimation=True)
    assert len(res.metrics_rows) == cfg.train.resolved_estimation_epochs()


def _abort_run(cfg, run_dir):
    """Train until TrainingAborted with every RuntimeWarning raised as an
    error; returns the snapshot and the abort.json written for it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingAborted) as exc:
            train(cfg, run_dir=run_dir)
    with open(os.path.join(run_dir, "abort.json")) as fh:
        written = json.load(fh)
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
    # balanced supervised loss is infinite on the very first step
    def tilted_model(**kwargs):
        model = init_model(**kwargs)
        model.heads["output"].b[:2] = (1e308, -1e308)
        return model

    monkeypatch.setattr(trainer, "init_model", tilted_model)
    snap, written = _abort_run(_tiny_config(seed=12), str(tmp_path / "run"))
    assert written == snap
    assert (snap["epoch"], snap["step"]) == (0, 0)
    components = snap["components"]
    assert set(components) == {"total", "l_basic", "l_sup_b", "l_con_b", "l_sup_e", "l_con_e"}
    assert components["l_sup_b"] == math.inf and components["total"] == math.inf
    assert math.isfinite(components["l_basic"]) and math.isfinite(components["l_sup_e"])


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
