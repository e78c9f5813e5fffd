"""Command-line interface: exit codes, artifacts, and output shape."""

import json
import os
import subprocess
import sys

import pytest

from imbalanced_ssl.cli import main


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
    assert lines[0].startswith("gamma,")


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


def test_match_distribution_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    assert main(["match-distribution", str(bad)]) == 2
    bad.write_text('{"n": 3}')
    assert main(["match-distribution", str(bad)]) == 2
    assert main(["match-distribution", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "imbalanced_ssl.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-theorem" in proc.stdout
