"""End-to-end trainer behavior on deliberately tiny runs."""

import gc
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import imbalanced_ssl
from imbalanced_ssl import network, trainer
from imbalanced_ssl.cli import main
from conftest import run_estimation_phase, src_env, traced_peak
from imbalanced_ssl.config import ConfigError, RunConfig
from imbalanced_ssl.diagnostics import evaluate
from imbalanced_ssl.losses import LOSS_COLUMNS, total_loss
from imbalanced_ssl.network import init_model, model_from_checkpoint_obj
from imbalanced_ssl.trainer import (
    THRESHOLD_COLUMNS,
    TrainingAborted,
    metrics_columns,
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
    columns = metrics_columns(4)
    # one metrics.csv row per epoch, in metrics_columns order
    assert res.metrics.shape == (4, len(columns))
    assert res.metrics[:, 0].tolist() == list(range(4))
    for col in ("bacc_original", "bacc_output", "bacc_calibrated",
                "bacc_expansive", "recall_head", "recall_nonhead"):
        assert col in columns
    assert np.isfinite(res.metrics).all()
    assert res.thresholds.shape == (4, 4, len(THRESHOLD_COLUMNS) - 2)
    assert res.bias.shape == (4, len(network.HEAD_NAMES), 4)
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
    cal = evaluate(res.model, [ds.test_split()])["calibrated"]
    assert cal.recall_over(head) != cal.recall_over(~head)
    final = dict(zip(metrics_columns(4), res.metrics[-1]))
    assert final["recall_head"] == cal.recall_over(head)
    assert final["recall_nonhead"] == cal.recall_over(~head)


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


@pytest.mark.parametrize("est", [pytest.param(0, id="before-the-first-step"),
                                 pytest.param(1, id="after-the-first-epoch"),
                                 pytest.param(3, id="at-the-last-epoch")])
def test_a_run_ends_matched_wherever_its_estimation_phase_ends(tmp_path, est):
    res = train(_tiny_config(seed=2, epochs=3, steps_per_epoch=4, estimation_epochs=est),
                run_dir=str(tmp_path))
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary == res.summary
    for key in ("o_star", "c", "gamma_u", "kl_values", "estimated_counts"):
        assert summary[key] is not None, key
    # an epoch measured before the match has no expansion factor to bound
    # with: its denoise_bound is NaN, an empty metrics.csv cell
    bound = res.metrics[:, metrics_columns(4).index("denoise_bound")]
    assert np.isnan(bound).tolist() == [epoch < est - 1 for epoch in range(3)]
    with open(tmp_path / "metrics.csv") as fh:
        cells = [line.rstrip("\n").split(",") for line in fh]
    column = cells[0].index("denoise_bound")
    assert [row[column] == "" for row in cells[1:]] == [epoch < est - 1 for epoch in range(3)]


def test_thresholds_logged_nonincreasing():
    res = train(_tiny_config(seed=3, epochs=6))
    assert res.thresholds.shape == (6, 4, 3)  # one row per (epoch, class)
    for cls in range(4):
        for col in (0, 1):  # rho_b, rho_e
            traj = res.thresholds[:, cls, col].tolist()
            assert all(b <= a + 1e-15 for a, b in zip(traj, traj[1:]))
            assert max(traj) <= 0.95 + 1e-15


def test_deterministic_rerun_is_bitwise_identical():
    a = train(_tiny_config(seed=4))
    b = train(_tiny_config(seed=4))
    assert np.array_equal(a.losses, b.losses)
    for name in ("metrics", "thresholds", "bias"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.summary["o_star"] == b.summary["o_star"]
    c = train(_tiny_config(seed=5))
    assert not np.array_equal(c.losses, a.losses)


def _memory_held_after_training(steps_per_epoch, epochs=2):
    """Bytes tracemalloc sees held, result included, after a run of a very
    small model, and the peak it saw during the run."""
    cfg = _tiny_config(epochs=epochs, steps_per_epoch=steps_per_epoch, labeled_batch=8,
                       unlabeled_batch=8, hidden=(4,), feature=4, probe_size=8, probe_n_aug=1)

    def held_after_training():
        result = train(cfg)
        gc.collect()
        assert result.losses.shape == (epochs * steps_per_epoch, len(LOSS_COLUMNS))
        return tracemalloc.get_traced_memory()[0]

    return traced_peak(held_after_training)


def test_loss_record_costs_one_float64_row_per_step():
    # the loss record is one (steps, 9) float64 array: 72 bytes a step, the
    # size RunConfig._array_sizes caps
    _memory_held_after_training(5)  # first-call allocations
    (short, _), (long, _) = _memory_held_after_training(10), _memory_held_after_training(510)
    per_step = (long - short) / 1000
    assert 64 <= per_step <= 96, per_step


def test_run_record_costs_its_float64_arrays_alone():
    # the run record is four float64 arrays allocated before the first step;
    # forty more epochs hold no more than their rows of them (an epoch's
    # rows as Python dicts held about 5.7 KB at K = 4)
    def held_after_training(epochs):
        cfg = _tiny_config(epochs=epochs, estimation_epochs=1, steps_per_epoch=2,
                           labeled_batch=8, unlabeled_batch=8, hidden=(4,), feature=4,
                           probe_size=8, probe_n_aug=1)

        def run():
            result = train(cfg)
            gc.collect()
            return (tracemalloc.get_traced_memory()[0],
                    sum(getattr(result, name).nbytes
                        for name in ("metrics", "losses", "thresholds", "bias")))

        return traced_peak(run)[0]

    held_after_training(2)  # first-call allocations
    (short, short_bytes), (long, long_bytes) = held_after_training(2), held_after_training(42)
    grown = long_bytes - short_bytes
    # per epoch: a metrics row, two loss rows, (K, 3) thresholds, (3, K) biases
    assert grown == 40 * 8 * (len(metrics_columns(4)) + 2 * len(LOSS_COLUMNS) + 4 * 3 + 3 * 4)
    # the slack covers allocator caches: about 1.5 KB here; the dicts held 230 KB
    assert long - short <= grown + 8 * 1024, (long - short, grown)


def test_epoch_peak_grows_by_the_loss_row_alone():
    # an epoch sums its pseudo-label counts into one (3, K) array as the steps
    # run, so a step adds to the peak no more than its loss row's 72 bytes
    _memory_held_after_training(5, epochs=1)  # first-call allocations
    (_, short), (_, long) = (_memory_held_after_training(10, epochs=1),
                             _memory_held_after_training(1010, epochs=1))
    per_step = (long - short) / 1000
    assert per_step <= 96, per_step


# a train-default run cut to 4 epochs, which prints, for each epoch after the
# first, the minor page faults a step of it took: those from the end of one
# epoch's measurement to the start of the next's
_FAULTS_PER_STEP = """
import resource
from dataclasses import replace
from imbalanced_ssl import trainer
from imbalanced_ssl.config import RunConfig
measure, around = trainer._epoch_rows, []

def counting_measure(*args):
    around.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    rows = measure(*args)
    around.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return rows

trainer._epoch_rows = counting_measure
cfg = RunConfig()
cfg = replace(cfg, train=replace(cfg.train, epochs=4, estimation_epochs=1))
trainer.train(cfg)
print(*((start - end) / cfg.train.steps_per_epoch
        for end, start in zip(around[1:-1:2], around[2::2])))
"""


def test_steps_after_the_first_epoch_take_no_fresh_page_faults():
    # a step's working arrays are reused from the heap step after step; a
    # long-lived allocation made mid-run can move them so that every later
    # step page-faults them afresh (about 80 minor faults a step at these
    # shapes under glibc 2.36).  The heap depends on what the process ran
    # before, so the run gets a process of its own, as `imbssl train` does
    run = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=src_env(),
                         capture_output=True, text=True, timeout=300, check=True)
    per_step = [float(v) for v in run.stdout.split()]
    assert len(per_step) == 3 and max(per_step) <= 10, per_step


def test_artifact_writing_peak_does_not_grow_with_the_steps(tmp_path):
    # losses.csv becomes Python floats one row at a time; the whole record
    # converted at once would add about 250 bytes a step to the peak
    cfg = _tiny_config(epochs=1)
    res = train(cfg)

    def writing_peak(steps):
        losses = np.random.default_rng(steps).normal(size=(steps, len(LOSS_COLUMNS)))
        losses[:, 0] = np.arange(steps)
        result = replace(res, losses=losses)
        return traced_peak(lambda: write_run_artifacts(str(tmp_path / str(steps)), cfg, result))[1]

    writing_peak(10)  # first-call allocations
    short, long = writing_peak(100), writing_peak(1_000)
    assert long - short < 16 * 1024, (short, long)


def test_artifacts_are_written_without_the_test_split(tmp_path, monkeypatch):
    # train draws the whole test split before its first step and releases
    # it before it writes the artifacts, the run's peak of memory, so 25 or
    # 2,500 test rows a class leave the same bytes held at the write (the
    # split kept would add its 560,000 bytes)
    write, held = trainer.write_run_artifacts, []

    def recording_write(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        write(*args)

    monkeypatch.setattr(trainer, "write_run_artifacts", recording_write)

    def run(per_class):
        cfg = _tiny_config(epochs=1)
        cfg = replace(cfg, data=replace(cfg.data, test_per_class=per_class))
        traced_peak(lambda: train(cfg, run_dir=str(tmp_path / str(per_class))))

    run(25)  # first-call allocations
    run(25)
    run(2_500)
    assert abs(held[2] - held[1]) < 16 * 1024, held


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

    def overflowing_step(model, grad, t):
        network.sgd_step(model, grad, t)
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
    # read off one blocked pass over the test set; its 100 rows are one block
    cfg = _tiny_config(seed=13)
    ds = cfg.build_dataset()
    test_x, _ = ds.test_split()
    forward = network.forward_features
    test_calls = []

    def counting_forward(model, x):
        if x.shape == test_x.shape and np.array_equal(x, test_x):
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
    # train trusts a nonempty unlabeled split: the data section, the one
    # check, refuses a config that would build an empty one
    cfg = _tiny_config(seed=11)
    with pytest.raises(ConfigError, match="unlabeled_max"):
        replace(cfg, data=replace(cfg.data, unlabeled_max=0))


def test_the_plan_takes_the_class_weights_at_the_match(monkeypatch):
    # the estimation epoch trains with all-ones class weights; the match
    # rebuilds the plan once, and every later step reads that one plan
    plans = []

    def recording_total_loss(model, lx, ly, xw, xs, state, plan):
        plans.append(plan)
        return total_loss(model, lx, ly, xw, xs, state, plan)

    monkeypatch.setattr(trainer, "total_loss", recording_total_loss)
    cfg = _tiny_config(seed=16, reweight_unlabeled=True)
    train(cfg)
    first = cfg.train.steps_per_epoch
    assert all(p is plans[0] for p in plans[:first])
    assert np.array_equal(plans[0].class_weights, np.ones((3, 4)))
    matched = plans[first]
    assert all(p is matched for p in plans[first:])
    weights = matched.class_weights
    assert weights.shape == (3, 4) and weights[0].tolist() == [1.0] * 4
    assert np.array_equal(weights[1], weights[2]) and weights[1].mean() == pytest.approx(1.0)
    assert np.array_equal(matched.adjustment, plans[0].adjustment)


def test_no_module_holds_a_process_wide_cache():
    # a per-run value belongs in the run's step plan; a memoised function
    # would keep it in a hidden global, keyed anew on every call
    cached = []
    for info in pkgutil.iter_modules(imbalanced_ssl.__path__):
        module = importlib.import_module(f"imbalanced_ssl.{info.name}")
        cached += [f"{info.name}.{name}" for name, value in vars(module).items()
                   if callable(value) and hasattr(value, "cache_info")]
    assert not cached


def test_every_exported_name_resolves():
    # a name deleted from a module cannot stay in its __all__
    missing = []
    for info in pkgutil.iter_modules(imbalanced_ssl.__path__):
        module = importlib.import_module(f"imbalanced_ssl.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing
