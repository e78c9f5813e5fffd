"""Command-line interface: exit codes, artifacts, and output shape."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imbalanced_ssl
from imbalanced_ssl.cli import main
from imbalanced_ssl.config import (AnchorSection, ConfigError, DataSection, RunConfig,
                                   TaskSection, TrainSection)


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


def test_train_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"rho_max": 2.0}}))
    code = main(["train", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["train", str(garbage)]) == 2

    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"trian": {}}))
    assert main(["train", str(typo)]) == 2

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["train", str(deep)]) == 2


OUT_OF_RANGE_TRAIN = [
    {"dropout": 1.0},
    {"dropout": 1.5},
    {"dropout": -0.1},
    {"weak_strength": -1.0},
    {"strong_strength": -2.0},
    {"strong_strength": float("inf")},
    {"probe_n_aug": 0},
    {"probe_size": 0},
    {"tau_b": float("nan"), "lambda_u": float("inf")},
    {"tau_b": -1.0},
    {"tau_e": -0.5},
    {"lambda_u": -5.0},
    {"lambda_basic": -1.0},
    # the optimizer and controller constants, checked where the others are
    {"learning_rate": 0.0},
    {"momentum": 1.0},
    {"momentum": -0.1},
    {"weight_decay": -1e-4},
    {"alpha": 0.0},
    {"rho_floor": 0.95},
]


@pytest.mark.parametrize("train", OUT_OF_RANGE_TRAIN)
def test_config_rejects_out_of_range_train_values(train):
    # at load, naming the section and the field
    with pytest.raises(ConfigError) as err:
        RunConfig.from_json_obj({"train": train})
    assert "'train'" in str(err.value)
    assert any(name in str(err.value) for name in train), str(err.value)


@pytest.mark.parametrize("text", [
    *(json.dumps({"train": train}) for train in OUT_OF_RANGE_TRAIN),
    '{"train": {"tau_b": NaN}}',
    '{"train": {"lambda_u": -Infinity}}',
    '{"train": {"tau_b": 1e400}}',
    '{"anchors": {"gamma": 0.5}}',
    '{"anchors": {"gamma": 0}}',
    '{"data": {"labeled_gamma": 0.5}}',
    '{"data": {"unlabeled_gamma": -1}}',
])
def test_train_rejects_out_of_range_config_file(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["train", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("obj,needle", [
    ({"train": {"hidden": [0]}}, "widths"),
    ({"train": {"feature": 0}}, "widths"),
    ({"train": {"hidden": [64, -3]}}, "widths"),
    ({"train": {"seed": 1.5}}, "seed"),
    ({"train": {"epochs": 1.5}}, "epochs"),
    ({"train": {"labeled_batch": 2.5}}, "labeled_batch"),
    ({"train": {"estimation_epochs": 0.5}}, "estimation_epochs"),
    ({"train": {"hidden": [64.5]}}, "hidden"),
    ({"train": {"hidden": "64"}}, "hidden"),
    ({"train": {"epochs": True}}, "epochs"),
    ({"task": {"k": 4.0}}, "k"),
    ({"task": {"seed": "1"}}, "seed"),
    ({"data": {"labeled_max": 1e2}}, "labeled_max"),
    ({"train": {"learning_rate": True}}, "learning_rate"),
    ({"task": {"spread": "4"}}, "spread"),
    ({"anchors": {"as_variance": "false"}}, "as_variance"),
    ({"train": {"reweight_unlabeled": [1]}}, "reweight_unlabeled"),
    ({"train": {"reweight_unlabeled": 0}}, "reweight_unlabeled"),
    ({"data": {"labeled_kind": ["consist"]}}, "labeled_kind"),
    ({"task": {"spread": 10**400}}, "spread"),  # no float holds it
    ({"train": {"epochs": 2**64}}, "epochs"),  # no 64-bit integer holds it
    ({"task": {"k": 1}}, "'task'"),
    ({"task": {"d": 1}}, "'task'"),
    ({"task": {"noise": 0}}, "'task'"),
    # sizes far over config.MAX_ARRAY_VALUES: rejected before any allocation
    ({"data": {"test_per_class": 10**15}}, "test_per_class"),
    ({"data": {"labeled_max": 10**15}}, "labeled_max"),
    ({"data": {"unlabeled_max": 10**15}}, "unlabeled_max"),
    ({"task": {"k": 10**9}}, "task.k"),
    ({"task": {"d": 10**12}}, "task.d"),
    ({"train": {"hidden": [10**9]}}, "hidden"),
    ({"train": {"hidden": [64, 10**12, 64]}}, "hidden"),
    ({"train": {"feature": 10**12}}, "feature"),
    ({"train": {"labeled_batch": 10**15}}, "labeled_batch"),
    ({"train": {"unlabeled_batch": 10**15}}, "unlabeled_batch"),
])
def test_train_rejects_mistyped_config(tmp_path, capsys, obj, needle):
    with pytest.raises(ConfigError, match=needle):
        RunConfig.from_json_obj(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["train", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_rejects_a_task_whose_centers_do_not_fit(tmp_path, capsys):
    # 50 centers pairwise 2 apart on a circle of radius 4 cannot be placed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": {"k": 50, "d": 2}}))
    assert main(["train", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "could not place 50 centers" in err
    assert not (tmp_path / "run").exists()


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
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(json_out.read_text())
    assert printed == on_disk
    assert printed["calibrated"] is True
    assert printed["head"] == "output"
    assert 0.0 <= printed["balanced_accuracy"] <= 1.0
    assert len(printed["per_class_recall"]) == 4
    assert len(printed["confusion"]) == 4

    code = main(["evaluate", str(run), "--head", "expansive"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["head"] == "expansive"


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


@pytest.mark.parametrize("corrupt", list(CORRUPT_CHECKPOINTS.values()),
                         ids=list(CORRUPT_CHECKPOINTS))
def test_evaluate_rejects_a_corrupt_checkpoint(small_run, tmp_path, corrupt):
    bad = corrupt(json.loads(json.dumps(small_run["checkpoint.json"])))
    code, err = _evaluate_in_process(str(tmp_path), small_run["config.json"], bad)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_evaluate_rejects_a_checkpoint_of_another_class_count(small_run, tmp_path):
    config = json.loads(json.dumps(small_run["config.json"]))
    config["task"]["k"] += 1
    code, err = _evaluate_in_process(str(tmp_path), config, small_run["checkpoint.json"])
    assert code == 2 and "classes" in err


def test_evaluate_accepts_the_small_run(small_run, tmp_path):
    code, err = _evaluate_in_process(str(tmp_path), small_run["config.json"],
                                     small_run["checkpoint.json"])
    assert (code, err) == (0, "")


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


def test_match_distribution_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    assert main(["match-distribution", str(bad)]) == 2
    bad.write_text('{"n": 3}')
    assert main(["match-distribution", str(bad)]) == 2
    assert main(["match-distribution", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("counts,anchors", [
    ([1, 2, 3, 4], None),  # the anchor file holds null
    ([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": None}]),
    ([1, 2, 3, 4], [[1, 2, 3, 4]]),
    ("[1e400, 2, 3, 4]", False),
    ("[NaN, 2, 3, 4]", False),
    ([1e308, 1e308, 3, 4], False),
    ([[1, 2], [3, 4]], False),
    ([1, {}], False),
    ([1, "2"], False),
    ([1, True], False),
    ([1, None], False),
    pytest.param("[1, 1%s]" % ("0" * 400), False, id="huge-integer"),  # no float holds it
    ([1, 2, 3, 4], [{"proportions": ["1", 2, 3, 4], "c": 4}]),
    ([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": "4"}]),
    ([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": True}]),
    ([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4], "c": 4, "kind": []}]),
    ([1, 2, 3, 4], [{"proportions": [1, 2, 3, 4]}]),
    ([1, 2, 3, 4], [{"proportions": [0, 2, 3, 4], "c": 4}]),  # a zero class: no finite ratio
    ([1, 1.7e308], [{"proportions": [1, 5e-324], "c": 4}]),
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
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--gamma", "0.5"], ["--gamma", "100"], ["--as-variance"]])
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
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-theorem" in proc.stdout


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
    src = os.path.dirname(os.path.dirname(imbalanced_ssl.__file__))
    artifacts = ("metrics.csv", "losses.csv", "thresholds.csv", "bias.csv", "checkpoint.json")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "imbalanced_ssl.cli", "train", str(cfg),
                               "--out", str(run)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append({name: (run / name).read_bytes() for name in artifacts})
    for name in artifacts:
        assert runs[0][name] == runs[1][name], name
