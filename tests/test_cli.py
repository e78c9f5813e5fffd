"""Command-line interface: exit codes, artifacts, and output shape."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_env, traced_peak
from imbalanced_ssl import cli, trainer
from imbalanced_ssl.cli import main
from imbalanced_ssl.config import (AnchorSection, ConfigError, DataSection, RunConfig,
                                   TaskSection, TrainSection)
from imbalanced_ssl.control import inference_blocks
from imbalanced_ssl.diagnostics import evaluate
from imbalanced_ssl.network import init_model, model_from_checkpoint_obj, write_checkpoint


def _tiny_config_obj(seed=0):
    return {
        "task": {"k": 4, "d": 6},
        "data": {"labeled_max": 20, "unlabeled_max": 40, "test_per_class": 25},
        "train": {"seed": seed, "epochs": 3, "steps_per_epoch": 10,
                  "estimation_epochs": 1, "labeled_batch": 16,
                  "unlabeled_batch": 32},
    }


def _write_config(tmp_path, name="config.json", seed=0):
    path = tmp_path / name
    path.write_text(json.dumps(_tiny_config_obj(seed=seed)))
    return str(path)


def test_verify_theorem_passes_at_modest_sample_count(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["verify-theorem", "--samples", "20000", "--tolerance", "0.05",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "36 grid points" in text
    assert "OK" in text
    # the largest sqrt(p(1-p)/n) over the grid: p = 0.5 is not on it, so just below
    # sqrt(0.25 / 20000) = 0.003536
    assert "largest sampling standard error sqrt(p(1-p)/n) = 0.0035" in text
    assert "(tolerance 0.05)" in text.splitlines()[2]
    lines = out.read_text().splitlines()
    assert len(lines) == 37
    # the spec's fields in declaration order, then each probability analytic and sampled
    assert lines[0] == ("gamma,mu1,mu2,sigma1,sigma2,beta,rho,delta_p,"
                        "p_pos_analytic,p_neg_analytic,p_mask_analytic,"
                        "p_pos_mc,p_neg_mc,p_mask_mc,max_abs_diff")


def test_verify_theorem_fails_at_absurd_tolerance(capsys):
    code = main(["verify-theorem", "--samples", "2000", "--tolerance", "1e-9"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err


def test_train_writes_artifacts_and_is_rerun_stable(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["train", cfg, "--out", str(run_a)]) == 0
    out_text = capsys.readouterr().out
    assert "matched anchor" in out_text
    assert "balanced accuracy" in out_text
    for name in ("config.json", "metrics.csv", "losses.csv", "thresholds.csv",
                 "bias.csv", "checkpoint.json", "summary.json"):
        assert (run_a / name).exists(), name

    assert main(["train", cfg, "--out", str(run_b)]) == 0
    assert (run_a / "metrics.csv").read_bytes() == (run_b / "metrics.csv").read_bytes()
    assert (run_a / "losses.csv").read_bytes() == (run_b / "losses.csv").read_bytes()


def test_output_dir_does_not_change_config_hash(tmp_path):
    cfg = _write_config(tmp_path)
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["train", cfg, "--out", str(run_a)]) == 0
    assert main(["train", cfg, "--out", str(run_b)]) == 0
    hashes = [json.loads((run / "summary.json").read_text())["config_hash"]
              for run in (run_a, run_b)]
    assert hashes[0] == hashes[1]
    assert (run_a / "checkpoint.json").read_bytes() == (run_b / "checkpoint.json").read_bytes()
    # config.json still records where the run was written
    assert json.loads((run_b / "config.json").read_text())["output_dir"] == str(run_b)


def test_train_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["train", cfg, "--seed", "5", "--out", str(run_a)]) == 0
    assert main(["train", cfg, "--seed", "6", "--out", str(run_b)]) == 0
    assert (run_a / "metrics.csv").read_bytes() != (run_b / "metrics.csv").read_bytes()
    summary = json.loads((run_a / "summary.json").read_text())
    saved = json.loads((run_a / "config.json").read_text())
    assert saved["train"]["seed"] == 5
    assert "config_hash" in summary


def _one_error_line(capsys) -> str:
    """The stderr of a usage error: one ``error:`` line, no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def test_train_rejects_bad_config(tmp_path, capsys):
    for name, text in [("bad", json.dumps({"train": {"rho_max": 2.0}})),
                       ("garbage", "{not json"),
                       ("typo", json.dumps({"trian": {}})),
                       ("deep", "[" * 100_000 + "]" * 100_000)]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["train", str(path)]) == 2
        _one_error_line(capsys)


# each case under a literal id, the one pytest once gave it by its place in
# the list: a case added anywhere renames no other
OUT_OF_RANGE_TRAIN = {
    "train0": {"dropout": 1.0},
    "train1": {"dropout": 1.5},
    "train2": {"dropout": -0.1},
    "train3": {"weak_strength": -1.0},
    "train4": {"strong_strength": -2.0},
    "train5": {"strong_strength": float("inf")},
    "train6": {"probe_n_aug": 0},
    "train7": {"probe_size": 0},
    "train8": {"tau_b": float("nan"), "lambda_u": float("inf")},
    "train9": {"tau_b": -1.0},
    "train10": {"tau_e": -0.5},
    "train11": {"lambda_u": -5.0},
    "train12": {"lambda_basic": -1.0},
    # the optimizer and controller constants, checked where the others are
    "train13": {"learning_rate": 0.0},
    "train14": {"momentum": 1.0},
    "train15": {"momentum": -0.1},
    "train16": {"weight_decay": -1e-4},
    "train17": {"alpha": 0.0},
    "train18": {"rho_floor": 0.95},
    # a seed keys NumPy's generators, which take no negative one
    "train19": {"seed": -1},
}


@pytest.mark.parametrize("train", list(OUT_OF_RANGE_TRAIN.values()),
                         ids=list(OUT_OF_RANGE_TRAIN))
def test_config_rejects_out_of_range_train_values(train):
    # at load, naming the section and the field
    with pytest.raises(ConfigError) as err:
        RunConfig.from_json_obj({"train": train})
    assert "'train'" in str(err.value)
    assert any(name in str(err.value) for name in train), str(err.value)


@pytest.mark.parametrize("text", [
    *(json.dumps({"train": train}) for train in OUT_OF_RANGE_TRAIN.values()),
    '{"train": {"tau_b": NaN}}',
    '{"train": {"lambda_u": -Infinity}}',
    '{"train": {"tau_b": 1e400}}',
    '{"anchors": {"gamma": 0.5}}',
    '{"anchors": {"gamma": 0}}',
    '{"data": {"labeled_gamma": 0.5}}',
    '{"data": {"unlabeled_gamma": -1}}',
    '{"data": {"labeled_kind": "bimodal"}}',
])
def test_train_rejects_out_of_range_config_file(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["train", str(bad), "--out", str(tmp_path / "run")]) == 2
    _one_error_line(capsys)
    assert not (tmp_path / "run").exists()


# each case under a literal id, the one pytest once gave it by its place in
# the list and its needle: a case added anywhere renames no other
MISTYPED_CONFIGS = {
    "obj0-widths": ({"train": {"hidden": [0]}}, "widths"),
    "obj1-widths": ({"train": {"feature": 0}}, "widths"),
    "obj2-widths": ({"train": {"hidden": [64, -3]}}, "widths"),
    "obj3-seed": ({"train": {"seed": 1.5}}, "seed"),
    "obj4-epochs": ({"train": {"epochs": 1.5}}, "epochs"),
    "obj5-labeled_batch": ({"train": {"labeled_batch": 2.5}}, "labeled_batch"),
    "obj6-estimation_epochs": ({"train": {"estimation_epochs": 0.5}}, "estimation_epochs"),
    "obj7-hidden": ({"train": {"hidden": [64.5]}}, "hidden"),
    "obj8-hidden": ({"train": {"hidden": "64"}}, "hidden"),
    "obj9-epochs": ({"train": {"epochs": True}}, "epochs"),
    "obj10-k": ({"task": {"k": 4.0}}, "k"),
    "obj11-seed": ({"task": {"seed": "1"}}, "seed"),
    "obj12-labeled_max": ({"data": {"labeled_max": 1e2}}, "labeled_max"),
    "obj13-learning_rate": ({"train": {"learning_rate": True}}, "learning_rate"),
    "obj14-spread": ({"task": {"spread": "4"}}, "spread"),
    "obj15-as_variance": ({"anchors": {"as_variance": "false"}}, "as_variance"),
    "obj16-reweight_unlabeled": ({"train": {"reweight_unlabeled": [1]}}, "reweight_unlabeled"),
    "obj17-reweight_unlabeled": ({"train": {"reweight_unlabeled": 0}}, "reweight_unlabeled"),
    "obj18-labeled_kind": ({"data": {"labeled_kind": ["consist"]}}, "labeled_kind"),
    "obj19-spread": ({"task": {"spread": 10**400}}, "spread"),  # no float holds it
    "obj20-epochs": ({"train": {"epochs": 2**64}}, "epochs"),  # no 64-bit integer holds it
    "obj21-'task'": ({"task": {"k": 1}}, "'task'"),
    "obj22-'task'": ({"task": {"d": 1}}, "'task'"),
    "obj23-'task'": ({"task": {"noise": 0}}, "'task'"),
    # sizes far over config.MAX_ARRAY_VALUES: rejected before any allocation
    "obj24-test_per_class": ({"data": {"test_per_class": 10**15}}, "test_per_class"),
    "obj25-labeled_max": ({"data": {"labeled_max": 10**15}}, "labeled_max"),
    "obj26-unlabeled_max": ({"data": {"unlabeled_max": 10**15}}, "unlabeled_max"),
    "obj27-task.k": ({"task": {"k": 10**9}}, "task.k"),
    "obj28-task.d": ({"task": {"d": 10**12}}, "task.d"),
    "obj29-hidden": ({"train": {"hidden": [10**9]}}, "hidden"),
    "obj30-hidden": ({"train": {"hidden": [64, 10**12, 64]}}, "hidden"),
    "obj31-feature": ({"train": {"feature": 10**12}}, "feature"),
    "obj32-labeled_batch": ({"train": {"labeled_batch": 10**15}}, "labeled_batch"),
    "obj33-unlabeled_batch": ({"train": {"unlabeled_batch": 10**15}}, "unlabeled_batch"),
    # an empty unlabeled split leaves training nothing to run on
    "obj34-unlabeled_max": ({"data": {"unlabeled_max": 0}}, "unlabeled_max"),
    # a seed keys NumPy's generators, which take no negative one
    "obj35-seed": ({"task": {"seed": -3}}, "seed"),
    # the metrics record: 10**6 rows of 8,015 columns at K = 2000
    "obj36-metrics.csv": ({"task": {"k": 2000},
                           "data": {"labeled_max": 1, "unlabeled_max": 1, "test_per_class": 1},
                           "train": {"epochs": 10**6, "steps_per_epoch": 1}}, "metrics.csv"),
}


@pytest.mark.parametrize("obj,needle", list(MISTYPED_CONFIGS.values()),
                         ids=list(MISTYPED_CONFIGS))
def test_train_rejects_mistyped_config(tmp_path, capsys, obj, needle):
    with pytest.raises(ConfigError, match=needle):
        RunConfig.from_json_obj(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["train", str(bad), "--out", str(tmp_path / "run")]) == 2
    assert needle in _one_error_line(capsys)
    assert not (tmp_path / "run").exists()


def test_train_rejects_a_task_whose_centers_do_not_fit(tmp_path, capsys):
    # 50 centers pairwise 2 apart on a circle of radius 4 cannot be placed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": {"k": 50, "d": 2}}))
    assert main(["train", str(bad), "--out", str(tmp_path / "run")]) == 2
    assert "could not place 50 centers" in _one_error_line(capsys)
    assert not (tmp_path / "run").exists()


def test_a_bell_that_overflows_is_one_error_line(tmp_path, capsys):
    # the as-variance valley over 1,000 classes overflows a float64: the
    # split counts of a train config and the default anchors of a match
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": {"k": 1000},
        "data": {"labeled_kind": "gaussian-inverse", "labeled_max": 1, "unlabeled_max": 1,
                 "test_per_class": 1},
        "anchors": {"as_variance": True}}))
    assert main(["train", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "gaussian-inverse shape over k = 1000" in _one_error_line(capsys)
    assert not (tmp_path / "run").exists()
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(list(range(1, 1001))))
    assert main(["match-distribution", str(counts), "--as-variance"]) == 2
    assert "gaussian-inverse shape over k = 1000" in _one_error_line(capsys)


@pytest.mark.parametrize("lr", ["1e200", "1e308"])
def test_train_aborts_on_a_divergent_last_update(tmp_path, capsys, lr):
    # the one step's logits are finite; only its update diverges, and the
    # epoch's measurement of the updated parameters overflows (the suite
    # raises a RuntimeWarning as an error, so none may escape on the way)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"train": {{"learning_rate": {lr}, "epochs": 1, "steps_per_epoch": 1}}}}')
    run = tmp_path / "run"
    assert main(["train", str(cfg), "--out", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("aborted:") and "after step 0" in err
    assert sorted(os.listdir(run)) == ["abort.json", "checkpoint.json"]
    abort = json.loads((run / "abort.json").read_text(), parse_constant=_reject_constant)
    assert abort == {"epoch": 0, "step": 0, "components": None}


def test_train_rejects_a_negative_seed_flag(tmp_path, capsys):
    assert main(["train", _write_config(tmp_path), "--seed", "-1",
                 "--out", str(tmp_path / "run")]) == 2
    assert "seed" in _one_error_line(capsys)
    assert not (tmp_path / "run").exists()


_FINISHED_RUN_FILES = {"config.json", "metrics.csv", "losses.csv", "thresholds.csv",
                       "bias.csv", "checkpoint.json", "summary.json"}


@pytest.mark.parametrize("aborted_first", [False, True])
def test_a_reused_run_directory_holds_the_last_run_alone(tmp_path, capsys, aborted_first):
    ok = _write_config(tmp_path, "ok.json")
    diverging = tmp_path / "diverging.json"
    obj = _tiny_config_obj()
    obj["train"].update(learning_rate=1e300, epochs=1, steps_per_epoch=1)
    diverging.write_text(json.dumps(obj))
    run = tmp_path / "run"
    run.mkdir()
    (run / "notes.txt").write_text("kept")  # not a run's file: left alone
    runs = [(ok, 0), (str(diverging), 3)]
    if aborted_first:
        runs.reverse()
    for cfg, code in runs:
        assert main(["train", cfg, "--out", str(run)]) == code
    capsys.readouterr()
    last_cfg, last_code = runs[-1]
    want = {"abort.json", "checkpoint.json"} if last_code == 3 else _FINISHED_RUN_FILES
    assert set(os.listdir(run)) == want | {"notes.txt"}
    assert (run / "notes.txt").read_text() == "kept"
    # the checkpoint is the last run's
    config = RunConfig.from_json_obj(json.loads(open(last_cfg).read()))
    ckpt = json.loads((run / "checkpoint.json").read_text(), parse_constant=_reject_constant)
    assert ckpt["config_hash"] == config.config_hash()


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_config_accepts_integral_numbers_in_float_fields():
    cfg = RunConfig.from_json_obj({"task": {"spread": 4}, "train": {"hidden": [8, 4]}})
    assert cfg.task.spread == 4
    assert cfg.train.hidden == (8, 4)


FLOAT_FIELDS = [(section, f.name)
                for section, cls in (("task", TaskSection), ("data", DataSection),
                                     ("train", TrainSection), ("anchors", AnchorSection))
                for f in fields(cls) if isinstance(getattr(cls(), f.name), float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("section,key", FLOAT_FIELDS)
def test_config_rejects_nonfinite_numbers_in_every_section(section, key, value):
    # from_json_obj is also the path of the Python API and of `imbssl
    # evaluate`, which reads the run's config.json with a plain json.load
    with pytest.raises(ConfigError):
        RunConfig.from_json_obj({section: {key: value}})


def test_evaluate_rejects_nonfinite_run_config(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out", str(run)]) == 0
    stored = json.loads((run / "config.json").read_text())
    stored["train"]["tau_b"] = float("nan")
    (run / "config.json").write_text(json.dumps(stored))
    capsys.readouterr()
    assert main(["evaluate", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tau_b" in err
    assert "Traceback" not in err


def test_evaluate_reports_metrics(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out", str(run)]) == 0
    capsys.readouterr()

    json_out = tmp_path / "eval.json"
    code = main(["evaluate", str(run), "--calibrated", "--json", str(json_out)])
    assert code == 0
    out = capsys.readouterr().out
    # the file holds the printed report byte for byte
    assert json_out.read_text() == out
    printed = json.loads(out)
    assert printed["calibrated"] is True
    assert printed["head"] == "output"
    assert 0.0 <= printed["balanced_accuracy"] <= 1.0
    assert len(printed["per_class_recall"]) == 4
    assert len(printed["confusion"]) == 4

    code = main(["evaluate", str(run), "--head", "expansive"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["head"] == "expansive"


_VIEW_ARGS = ((["--head", "original"], "original"), (["--head", "output"], "output"),
              (["--head", "expansive"], "expansive"), (["--calibrated"], "calibrated"))


def test_evaluate_reports_the_all_views_report_of_its_view(tmp_path, capsys):
    # `evaluate` predicts its one view only; its report is the one an
    # evaluation of every view gives that view, to the last digit
    cfg = _write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out", str(run)]) == 0
    capsys.readouterr()
    model = model_from_checkpoint_obj(json.loads((run / "checkpoint.json").read_text()))
    dataset = RunConfig.from_json_obj(json.loads((run / "config.json").read_text())).build_dataset()
    reports = evaluate(model, [dataset.test_split()])
    for args, view in _VIEW_ARGS:
        assert main(["evaluate", str(run), *args]) == 0
        printed = json.loads(capsys.readouterr().out)
        want = reports[view]
        assert printed["accuracy"] == want.accuracy, view
        assert printed["balanced_accuracy"] == want.balanced_accuracy, view
        assert printed["per_class_recall"] == want.per_class_recall.tolist(), view
        assert printed["confusion"] == want.confusion.tolist(), view


def _untrained_run(run_dir, k, per_class):
    """Write a run directory of an untrained model at the default widths,
    every parameter moved off its initial value, for a 16-wide task of k
    classes with ``per_class`` test rows each.  Returns (model, config)."""
    t = TrainSection()
    config = RunConfig.from_json_obj({"task": {"k": k, "d": 16, "seed": 1},
                                      "data": {"test_per_class": per_class}})
    model = init_model(k=k, d=16, hidden=t.hidden, feature=t.feature, seed=3)
    model.flat += np.random.default_rng(4).normal(scale=0.2, size=model.flat.size)
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        json.dump(config.to_json_obj(), fh)
    write_checkpoint(os.path.join(run_dir, "checkpoint.json"), model)
    return model, config


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([2, 3, 10]), per_class=st.integers(1, 600), data=st.data())
def test_evaluate_streams_the_test_split_in_predicts_blocks(k, per_class, data):
    """The test rows drawn block by block are the whole split's byte for
    byte, for blocks whose edges fall inside classes or on their bounds, and
    `evaluate` over predict's own blocks prints, for every view, the report
    of an evaluation of the whole split (K <= 3 included, where a block of
    other bounds could flip an exact tie)."""
    with tempfile.TemporaryDirectory() as run:
        model, config = _untrained_run(run, k, per_class)
        dataset = config.build_dataset()
        n = dataset.n_test
        test_x, test_y = dataset.test_split()
        cut = st.one_of(st.integers(1, n - 1), st.integers(1, k - 1).map(lambda c: c * per_class))
        edges = sorted({0, n, *(data.draw(st.lists(cut, max_size=8)) if n > 1 else [])})
        for bounds in (list(zip(edges[:-1], edges[1:])), inference_blocks(model, n)):
            xs, ys = zip(*((x.copy(), y) for x, y in dataset.test_blocks(bounds)))
            assert np.concatenate(xs).tobytes() == test_x.tobytes()
            assert np.concatenate(ys).tobytes() == test_y.tobytes()
        reports = evaluate(model, [(test_x, test_y)])
        for args, view in _VIEW_ARGS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["evaluate", run, *args]) == 0
            printed, want = json.loads(out.getvalue()), reports[view]
            assert printed["accuracy"] == want.accuracy, view
            assert printed["balanced_accuracy"] == want.balanced_accuracy, view
            assert printed["per_class_recall"] == want.per_class_recall.tolist(), view
            assert printed["confusion"] == want.confusion.tolist(), view


def test_evaluate_peak_does_not_grow_with_the_test_split(tmp_path):
    # `evaluate` draws its test rows one predict block at a time into one
    # buffer (at most 240 rows, 30 KiB, at the default widths); the whole
    # split drawn at once would add 2.4 MiB from 100 to 2,000 rows a class.
    # What does grow is the block, from 200 rows to 238 or 239: its buffer
    # and two 64-wide activations, 45 KiB
    def peak(per_class):
        run = tmp_path / str(per_class)
        run.mkdir(exist_ok=True)
        _untrained_run(run, 10, per_class)
        with contextlib.redirect_stdout(io.StringIO()):
            code, peak = traced_peak(lambda: main(["evaluate", str(run)]))
        assert code == 0
        return peak

    peak(100)  # first-call allocations
    short, long = peak(100), peak(2_000)
    assert abs(long - short) < 64 * 1024, (short, long)


def test_evaluate_rejects_calibrated_with_another_head(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out", str(run)]) == 0
    capsys.readouterr()
    for head in ("original", "expansive"):
        assert main(["evaluate", str(run), "--head", head, "--calibrated"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--calibrated" in captured.err
    assert main(["evaluate", str(run), "--head", "output", "--calibrated"]) == 0
    assert json.loads(capsys.readouterr().out)["calibrated"] is True


def test_evaluate_missing_run_dir_is_usage_error(tmp_path, capsys):
    code = main(["evaluate", str(tmp_path / "nope")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_corrupt_checkpoint_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out", str(run)]) == 0
    (run / "checkpoint.json").write_text(json.dumps({"params": {}}))
    capsys.readouterr()
    assert main(["evaluate", str(run)]) == 2


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A finished tiny run with a small model: its config.json and
    checkpoint.json, for evaluate's input checks."""
    tmp = tmp_path_factory.mktemp("small_run")
    obj = _tiny_config_obj(seed=2)
    obj["train"].update(hidden=[8], feature=4)
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(obj))
    run = tmp / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(cfg), "--out", str(run)]) == 0
    return {name: json.loads((run / name).read_text())
            for name in ("config.json", "checkpoint.json")}


def _evaluate_in_process(tmp, config, checkpoint):
    """Write a run directory and evaluate it in-process: (exit code, stderr)."""
    for name, obj in (("config.json", config), ("checkpoint.json", checkpoint)):
        with open(os.path.join(tmp, name), "w") as fh:
            json.dump(obj, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["evaluate", tmp])
    return code, err.getvalue()


def _with_param(ckpt, name, i, value):
    params = dict(ckpt["params"])
    params[name] = [*params[name][:i], value, *params[name][i + 1:]]
    return {**ckpt, "params": params}


CORRUPT_CHECKPOINTS = {
    "root-list": lambda c: [c],
    "dims-int": lambda c: {**c, "dims": 5},
    "params-list": lambda c: {**c, "params": [1, 2]},
    "k-null": lambda c: {**c, "k": None},
    "activation-list": lambda c: {**c, "activation": ["relu"]},
    # the network runs ReLU only
    "activation-softplus": lambda c: {**c, "activation": "softplus"},
    "activation-missing": lambda c: {key: v for key, v in c.items() if key != "activation"},
    "k-fractional": lambda c: {**c, "k": c["k"] + 0.7},
    "nan-param": lambda c: _with_param(c, "head_output.b", 0, float("nan")),
    "k-huge": lambda c: {**c, "k": 2**40},  # must fail before any allocation
    "dims-bool": lambda c: {**c, "dims": [True, *c["dims"][1:]]},
    "param-string": lambda c: _with_param(c, "backbone.w0", 3, "0.5"),
    "param-missing": lambda c: {**c, "params": {n: v for n, v in c["params"].items()
                                                if n != "head_original.b"}},
    "param-short": lambda c: {**c, "params": {**c["params"],
                                              "backbone.b0": c["params"]["backbone.b0"][1:]}},
    "param-nested": lambda c: _with_param(c, "backbone.b0", 0, [0.5]),
    "overflowing-weight": lambda c: _with_param(c, "backbone.w0", 0, 1e308),
}


@pytest.mark.parametrize("name", list(CORRUPT_CHECKPOINTS))
def test_evaluate_rejects_a_corrupt_checkpoint(small_run, tmp_path, name):
    bad = CORRUPT_CHECKPOINTS[name](json.loads(json.dumps(small_run["checkpoint.json"])))
    code, err = _evaluate_in_process(str(tmp_path), small_run["config.json"], bad)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    # the one error names the key at fault
    assert not name.startswith("activation") or "activation" in err


def test_evaluate_rejects_a_checkpoint_of_another_class_count(small_run, tmp_path):
    config = json.loads(json.dumps(small_run["config.json"]))
    config["task"]["k"] += 1
    code, err = _evaluate_in_process(str(tmp_path), config, small_run["checkpoint.json"])
    assert code == 2 and "classes" in err


def test_evaluate_rejects_a_checkpoint_of_another_input_width(small_run, tmp_path):
    # before, the forward refused the test inputs without naming either file
    config = json.loads(json.dumps(small_run["config.json"]))
    d = config["task"]["d"]
    config["task"]["d"] = d + 3
    code, err = _evaluate_in_process(str(tmp_path), config, small_run["checkpoint.json"])
    assert code == 2
    assert err == (f"error: checkpoint takes {d} input features, "
                   f"the run's config {d + 3}\n")


@pytest.mark.parametrize("field,value,needle", [
    pytest.param("dims", lambda dims: [dims[0], -dims[1], *dims[2:]], "every width >= 1",
                 id="negative-width"),
    pytest.param("k", lambda k: -k, "k must be >= 2", id="negative-k"),
])
def test_evaluate_rejects_a_nonpositive_width_or_class_count(small_run, tmp_path, field, value,
                                                             needle):
    # refused for its layout, before the parameter count is taken from it
    ckpt = json.loads(json.dumps(small_run["checkpoint.json"]))
    ckpt[field] = value(ckpt[field])
    code, err = _evaluate_in_process(str(tmp_path), small_run["config.json"], ckpt)
    assert code == 2
    assert err.startswith("error: corrupt checkpoint:") and needle in err
    assert "values" not in err


def test_evaluate_accepts_the_small_run(small_run, tmp_path):
    code, err = _evaluate_in_process(str(tmp_path), small_run["config.json"],
                                     small_run["checkpoint.json"])
    assert (code, err) == (0, "")


def _run_dir_of(tmp_path, files):
    run = tmp_path / "run"
    run.mkdir()
    for name, obj in files.items():
        (run / name).write_text(json.dumps(obj))
    return str(run)


def _write_counts(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text("[10, 20, 30, 40]")
    return str(path)


# each command that writes a file, with ``bad`` as its output path
OUTPUT_COMMANDS = {
    "train": lambda tmp, run, bad: ["train", _write_config(tmp), "--out", bad],
    "verify-theorem": lambda tmp, run, bad: ["verify-theorem", "--samples", "200",
                                             "--tolerance", "0.5", "--out", bad],
    "evaluate": lambda tmp, run, bad: ["evaluate", _run_dir_of(tmp, run), "--json", bad],
    "match-distribution": lambda tmp, run, bad: [
        "match-distribution", _write_counts(tmp), "--json", bad],
}


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_an_unwritable_output_path_is_a_usage_error(command, small_run, tmp_path, capsys,
                                                     monkeypatch):
    # a regular file as a parent directory makes the path unwritable even for
    # a root user, whom file modes do not stop
    (tmp_path / "afile").write_text("")
    bad = str(tmp_path / "afile" / "out")

    def no_step(*args, **kwargs):
        raise AssertionError("train took a step before creating its run directory")

    monkeypatch.setattr(trainer, "_train_step", no_step)
    argv = OUTPUT_COMMANDS[command](tmp_path, small_run, bad)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert bad in err


def test_verify_theorem_checks_its_output_path_before_sampling(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("")
    bad = str(tmp_path / "afile" / "x.csv")
    calls = []
    monkeypatch.setattr(cli, "monte_carlo_pseudo_label_probabilities",
                        lambda *args: calls.append(args))
    assert main(["verify-theorem", "--out", bad]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert bad in captured.err and captured.out == ""


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-5"),
                                        ("--seed", "-1"), ("--seed", str(2**128 - 35))])
def test_verify_theorem_checks_samples_and_seed_before_writing(tmp_path, capsys, monkeypatch,
                                                               flag, value):
    # grid row i keys its Philox stream with --seed + i, and a key is below
    # 2**128, so the 36-point grid takes seeds up to 2**128 - 36
    report = tmp_path / "report.csv"
    report.write_bytes(b"an older report\n")
    calls = []
    monkeypatch.setattr(cli, "monte_carlo_pseudo_label_probabilities",
                        lambda *args: calls.append(args))
    assert main(["verify-theorem", flag, value, "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.err.startswith("error:") and flag in captured.err
    assert captured.out == ""
    assert report.read_bytes() == b"an older report\n"


def test_evaluate_prints_no_report_when_its_json_path_fails(small_run, tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    bad = str(tmp_path / "afile" / "e.json")
    assert main(["evaluate", _run_dir_of(tmp_path, small_run), "--json", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and bad in captured.err


_NUMBER = st.one_of(st.floats(), st.integers(), st.integers(-3, 80))


@st.composite
def _checkpoint_mutation(draw, ckpt):
    """A real checkpoint with one part replaced: the root, a top-level key,
    a parameter array or one entry of it, by arbitrary JSON or numbers."""
    where = draw(st.sampled_from(["root", "key", "drop", "array", "entry", "entry", "dims"]))
    if where == "root":
        return draw(_JSON)
    if where in ("key", "drop"):
        key = draw(st.sampled_from([*ckpt, "extra"]))
        if where == "drop":
            return {n: v for n, v in ckpt.items() if n != key}
        return {**ckpt, key: draw(st.one_of(_NUMBER, _JSON))}
    if where == "dims":
        return {**ckpt, "dims": draw(st.lists(st.integers(-2, 40), max_size=5)),
                "k": draw(st.integers(-1, 12))}
    name = draw(st.sampled_from(sorted(ckpt["params"])))
    if where == "array":
        return {**ckpt, "params": {**ckpt["params"], name: draw(st.one_of(_JSON, st.lists(
            _NUMBER, max_size=40)))}}
    i = draw(st.integers(0, len(ckpt["params"][name]) - 1))
    return _with_param(ckpt, name, i, draw(st.one_of(_NUMBER, _JSON)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_evaluate_fuzz_exits_zero_or_two_without_a_traceback(small_run, data):
    """Any corruption of a real checkpoint either evaluates (exit 0) or is a
    usage error (exit 2 with an ``error:`` line); nothing escapes as an
    exception or a warning."""
    ckpt = data.draw(_checkpoint_mutation(small_run["checkpoint.json"]))
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _evaluate_in_process(tmp, small_run["config.json"], ckpt)
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:")


def test_match_distribution_recovers_generator(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps([500, 300, 180, 108, 65, 39, 23, 14, 8, 5]))
    json_out = tmp_path / "match.json"
    code = main(["match-distribution", str(counts), "--json", str(json_out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "o* = consist" in text
    report = json.loads(json_out.read_text())
    assert report["o_star"] == "consist"
    assert report["c"] == 4
    assert len(report["kl_values"]) == 5
    assert report["kl_values"][report["o_star_index"]] == min(report["kl_values"])


def test_match_distribution_accepts_counts_key_and_inverse(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"counts": [5, 8, 14, 23, 39, 65, 108, 180, 300, 500]}))
    assert main(["match-distribution", str(counts)]) == 0
    assert "o* = inverse" in capsys.readouterr().out


def test_match_distribution_marks_only_the_matched_custom_anchor(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text("[1, 2, 3, 4]")
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps([{"proportions": [4, 3, 2, 1], "c": 4},
                                   {"proportions": [1, 2, 3, 4], "c": 5}]))
    assert main(["match-distribution", str(counts), "--anchors", str(anchors)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:3]
    assert ["<-- o*" in row for row in rows] == [False, True]


def test_match_distribution_matches_a_tiny_total_by_its_shape(tmp_path, capsys):
    # the smoothing acts on counts brought to a total of 1, so two equal
    # subnormal counts are uniform, not every shape at KL 0
    counts = tmp_path / "counts.json"
    counts.write_text("[1e-320, 1e-320]")
    json_out = tmp_path / "match.json"
    assert main(["match-distribution", str(counts), "--json", str(json_out)]) == 0
    assert "o* = uniform, c = 5, gamma_u = 1.0000" in capsys.readouterr().out
    report = json.loads(json_out.read_text())
    assert report["o_star"] == "uniform" and report["gamma_u"] == 1.0
    assert max(report["kl_values"]) > 1.0


def test_match_distribution_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    assert main(["match-distribution", str(bad)]) == 2
    bad.write_text('{"n": 3}')
    assert main(["match-distribution", str(bad)]) == 2
    assert main(["match-distribution", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


# a case whose values give pytest no id of their own takes a literal one,
# the one pytest once gave it by its place in the list
@pytest.mark.parametrize("counts,anchors", [
    pytest.param([1, 2, 3, 4], None, id="counts0-None"),  # the anchor file holds null
    pytest.param([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": None}], id="counts1-anchors1"),
    pytest.param([1, 2, 3, 4], [[1, 2, 3, 4]], id="counts2-anchors2"),
    ("[1e400, 2, 3, 4]", False),
    ("[NaN, 2, 3, 4]", False),
    pytest.param([1e308, 1e308, 3, 4], False, id="counts5-False"),
    pytest.param([1, -2, 3, 4], False, id="negative-count"),
    pytest.param([0, 0, 0, 0], False, id="zero-total"),
    pytest.param({"counts": [1, 2, -3, 4]}, False, id="negative-in-counts-key"),
    # inf - inf in a sum warns; the count file must fail on one error line
    pytest.param("[Infinity, -Infinity]", False, id="infinities"),
    pytest.param([[1, 2], [3, 4]], False, id="counts6-False"),
    pytest.param([1, {}], False, id="counts7-False"),
    pytest.param([1, "2"], False, id="counts8-False"),
    pytest.param([1, True], False, id="counts9-False"),
    pytest.param([1, None], False, id="counts10-False"),
    pytest.param("[1, 1%s]" % ("0" * 400), False, id="huge-integer"),  # no float holds it
    pytest.param([1, 2, 3, 4], [{"proportions": ["1", 2, 3, 4], "c": 4}], id="counts12-anchors12"),
    pytest.param([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": "4"}], id="counts13-anchors13"),
    pytest.param([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": True}],
                 id="counts14-anchors14"),
    pytest.param([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": 4, "kind": []}],
                 id="counts15-anchors15"),
    pytest.param([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4]}], id="counts16-anchors16"),
    # a zero class: no finite ratio
    pytest.param([1, 2, 3, 4], [{"proportions": [0, 2, 3, 4], "c": 4}],
                 id="counts17-anchors17"),
    pytest.param([1, 1.7e308], [{"proportions": [1, 5e-324], "c": 4}], id="counts18-anchors18"),
    # nested too deep for the parser
    pytest.param("[" * 100_000 + "]" * 100_000, False, id="deep-counts"),
    pytest.param([1, 2, 3, 4], "[" * 100_000 + "]" * 100_000, id="deep-anchors"),
])
def test_match_distribution_rejects_bad_numbers_and_anchor_files(tmp_path, capsys, counts,
                                                                 anchors):
    path = tmp_path / "counts.json"
    path.write_text(counts if isinstance(counts, str) else json.dumps(counts))
    argv = ["match-distribution", str(path)]
    if anchors is not False:
        anchor_path = tmp_path / "anchors.json"
        anchor_path.write_text(anchors if isinstance(anchors, str) else json.dumps(anchors))
        argv += ["--anchors", str(anchor_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# literal ids, the ones pytest once gave these cases by their place in the list
@pytest.mark.parametrize("flags", [pytest.param(["--gamma", "0.5"], id="flags0"),
                                   pytest.param(["--gamma", "100"], id="flags1"),
                                   pytest.param(["--as-variance"], id="flags2")])
def test_match_distribution_rejects_default_anchor_flags_with_an_anchor_file(tmp_path, capsys,
                                                                             flags):
    path = tmp_path / "counts.json"
    path.write_text("[10, 20, 30, 40]")
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps([{"proportions": [1, 2, 3, 4], "c": 4}]))
    assert main(["match-distribution", str(path), "--anchors", str(anchors), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and flags[0] in captured.err
    assert "o* =" not in captured.out
    # the same flags shape the default anchors
    assert main(["match-distribution", str(path), "--gamma", "100", "--as-variance"]) == 0


@pytest.mark.parametrize("gamma", ["0.5", "0", "-1", "inf", "nan"])
def test_match_distribution_rejects_a_gamma_below_one_or_not_finite(tmp_path, capsys, gamma):
    path = tmp_path / "counts.json"
    path.write_text("[10, 20, 30, 40]")
    assert main(["match-distribution", str(path), "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "gamma" in captured.err
    assert "o* =" not in captured.out


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
_NUMBERS = st.one_of(st.floats(), st.integers())
_COUNTS = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6))


@st.composite
def _match_inputs(draw):
    """A count file and an anchor file (None: the default anchors), each
    either well-formed over k classes or holding arbitrary numbers or JSON."""
    k = draw(st.integers(2, 6))
    good = st.lists(_COUNTS, min_size=k, max_size=k)
    vector = st.one_of(good, st.lists(_NUMBERS, min_size=k, max_size=k), _JSON)
    counts = draw(st.one_of(good, st.fixed_dictionaries({"counts": vector}),
                            st.lists(st.one_of(_NUMBERS, _JSON), max_size=6)))
    kind = st.one_of(st.sampled_from(["consist", "custom", "bimodal"]), _JSON)
    good_anchor = st.fixed_dictionaries(
        {"proportions": good, "c": st.floats(3.0, 10.0, exclude_min=True)},
        optional={"kind": st.sampled_from(["consist", "custom"])})
    any_anchor = st.fixed_dictionaries(
        {"proportions": vector, "c": st.one_of(_NUMBERS, _JSON)}, optional={"kind": kind})
    anchors = draw(st.one_of(st.none(), st.lists(good_anchor, min_size=1, max_size=3),
                             st.lists(any_anchor, min_size=1, max_size=3), _JSON))
    return counts, anchors


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_match_inputs())
def test_match_distribution_fuzz_exits_zero_or_two_without_a_traceback(files):
    """Any count file, with the default anchors or any anchor file, either
    matches (exit 0, a strict-JSON report) or is a usage error (exit 2 with
    an ``error:`` line); nothing escapes as an exception or a warning."""
    counts, anchors = files
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.json")
        with open(path, "w") as fh:
            json.dump(counts, fh)
        report = os.path.join(tmp, "match.json")
        argv = ["match-distribution", path, "--json", report]
        if anchors is not None:
            anchor_path = os.path.join(tmp, "anchors.json")
            with open(anchor_path, "w") as fh:
                json.dump(anchors, fh)
            argv += ["--anchors", anchor_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error:")
        else:
            with open(report) as fh:
                assert len(_strict_json(fh.read())["kl_values"]) >= 1


@pytest.mark.parametrize("tolerance", ["nan", "0", "-0.01", "inf"])
def test_verify_theorem_rejects_a_tolerance_that_is_not_positive_and_finite(capsys,
                                                                           tolerance):
    assert main(["verify-theorem", "--samples", "100", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "tolerance" in captured.err
    assert "OK" not in captured.out


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "imbalanced_ssl.cli", "--help"],
                          env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-theorem" in proc.stdout


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs an affinity call and at least two CPUs to pin one")
def test_verify_report_identical_under_a_cpu_limit(tmp_path):
    # the oracle runs one worker per CPU the process may use; pinned to one
    # CPU it runs one, and the report keeps every byte
    env = src_env()
    cpu = min(os.sched_getaffinity(0))
    pinned = (f"import os, sys; os.sched_setaffinity(0, {{{cpu}}}); "
              "from imbalanced_ssl.cli import main; sys.exit(main(sys.argv[1:]))")
    reports = []
    for name, launch in (("all", ["-m", "imbalanced_ssl.cli"]), ("one", ["-c", pinned])):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run([sys.executable, *launch, "verify-theorem", "--samples", "200000",
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_artifacts_identical_across_blas_thread_counts(tmp_path):
    # batches and a test set large enough for OpenBLAS to split its matmuls
    # across threads
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "task": {"k": 4, "d": 6},
        "data": {"labeled_max": 40, "unlabeled_max": 200, "test_per_class": 250},
        "train": {"seed": 1, "epochs": 3, "steps_per_epoch": 10, "estimation_epochs": 1,
                  "labeled_batch": 64, "unlabeled_batch": 128},
    }))
    artifacts = ("metrics.csv", "losses.csv", "thresholds.csv", "bias.csv", "checkpoint.json")
    runs = []
    for threads in ("1", "2"):
        env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "imbalanced_ssl.cli", "train", str(cfg),
                               "--out", str(run)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append({name: (run / name).read_bytes() for name in artifacts})
    for name in artifacts:
        assert runs[0][name] == runs[1][name], name
