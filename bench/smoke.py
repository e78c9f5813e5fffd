"""Smoke check of the benchmark itself (not of the package): ``python3 bench/smoke.py``.

Runs every workload of BENCHMARK.json at the tiny length of workloads.json,
untraced and traced, and asserts that each result line carries exactly the
metrics BENCHMARK.json names, with their units, that every correctness check
ran (digests, quality figures, repeated sub-seeds), and that the benchmark
refuses to run, printing no result, in a directory holding only
BENCHMARK.json and bench/.  Then it traces train-default at full length on
the writing seed and asserts that the controller's decay branch fired: most
train seeds never push the output-head bias over nu within 10 epochs, but
train seed 2, one of the writing seed's sub-seeds, does.  Exits 0 when all
of that holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("bench", "run_bench.py")


def _run(cwd: str, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", str(trace)] + ["--smoke"] * smoke,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(bench: dict, workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] != 0, f"{workload}: end-to-end metric {m['name']} is 0"

    with open(os.path.join(ROOT, "bench", "results",
                           f"{workload}-seed0-trace{trace}-smoke.json")) as fh:
        full = json.load(fh)
    ops = full["ops"]
    kind = "verify" if workload == "verify-theorem" else "train"
    figure = "theorem_gap" if kind == "verify" else "bacc_calibrated"
    for op in ops:
        assert op["digests"], f"{workload}: an operation was never digested"
        assert figure in op and "quality" in op, f"{workload}: {figure} missing"
    sub_seeds = [op["sub_seed"] for op in ops]
    assert len(sub_seeds) > len(set(sub_seeds)), f"{workload}: no sub-seed was repeated"
    for key in ("threads", "nproc", "cpu_model", "python", "numpy", "blas_version",
                "git_commit", "source_sha256", "workload_seed"):
        assert key in full["environment"], key
    if trace:
        assert any(op["traced"] for op in ops) and any(not op["traced"] for op in ops)
        assert "error_rate" in result["metrics"]


def check_bare_directory(bench: dict) -> None:
    bare = os.path.join(ROOT, "bench", ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(os.path.join(ROOT, "bench")):
        path = os.path.join(ROOT, "bench", name)
        if os.path.isfile(path):
            shutil.copy(path, os.path.join(bare, "bench"))
    try:
        proc = _run(bare, bench["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "the benchmark ran without the program"
        assert '"correct"' not in proc.stdout, "a result was printed without the program"
    finally:
        shutil.rmtree(bare)


def check_decay_branch() -> None:
    proc = _run(ROOT, "train-default", 1, smoke=False)
    assert proc.returncode == 0, f"train-default traced: exit {proc.returncode}\n{proc.stderr}"
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["control.decay_ticks"]["value"] > 0, "the controller never decayed a class"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_workload(bench, workload, trace)
            print(f"ok {workload} trace={trace}", flush=True)
    check_bare_directory(bench)
    print("ok bare directory refused", flush=True)
    check_decay_branch()
    print("ok decay branch fired on train-default")
    return 0


if __name__ == "__main__":
    sys.exit(main())
