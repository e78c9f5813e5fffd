"""The repository benchmark.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload from bench/workloads.json against the package under
``src/`` of this checkout, one operation per fresh process (bench/op.py),
never two at once, with OpenBLAS/OMP/MKL pinned to one thread.  Operations
repeat until ``--seconds`` have passed and at least every sub-seed has run
once and the first one twice.  Every operation's outputs are checked and
digested; repeats of one sub-seed must produce identical digests.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians of
``run_s``, ``setup_s`` and ``peak_rss_mb`` over the operations, and
``quality``, the median over sub-seeds of the operation's own quality figure
(calibrated balanced accuracy for training workloads, tolerance headroom
``1 - theorem_gap / tolerance`` for verify-theorem).  ``run_s`` and
``setup_s`` are wall seconds scaled to a reference speed measured in the same
process (REFERENCE_NOMINAL_S in op.py), which takes out most of the host's
speed drift; the raw wall times stay in the full record.

--trace 1 runs an untraced and a traced operation on each sub-seed in turn,
then traces the first sub-seed again, and prints the per-layer metrics of
BENCHMARK.json from the traced operations (bench/spans.py): span times are
medians per operation; call counts and work counters are exact and summed
over the sub-seeds, one traced operation each, and must repeat exactly when
a sub-seed is traced again.  Cycling matters: the controller's decay branch
fires on only some train seeds (control.decay_ticks).

--smoke swaps in the tiny configs of workloads.json (bench/smoke.py uses it).

The last stdout line is the JSON result; the full record, with environment,
digests and every computed metric, is written to bench/results/, next to the
spans of the last traced operation.  Exit code
0 when every check passed, 1 when one failed, 2 when the benchmark cannot
run at all (no program in this checkout, unknown workload).
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from op import REFERENCE_NOMINAL_S, TRACED
from spans import summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
PACKAGE = "imbalanced_ssl"
OP_SCRIPT = os.path.join(BENCH_DIR, "op.py")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRAIN_DIGESTED = ("metrics.csv", "losses.csv", "thresholds.csv", "bias.csv", "checkpoint.json")
EVAL_TAGS = ("original", "output", "expansive", "calibrated")
VERIFY_GRID_POINTS = 36
# A run with --seed S trains (or draws) with the sub-seeds SUB_SEEDS*S ..
# SUB_SEEDS*S + SUB_SEEDS-1, and quality is their median.
SUB_SEEDS = 4
# No operation starts after LAST_START_S and none may take longer than
# OP_TIMEOUT_S, so a run ends well inside 180 s.
LAST_START_S = 90.0
OP_TIMEOUT_S = 80.0


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    # users import compiled bytecode, so let the warm-up import cache it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = _merge(base[key], value) if isinstance(value, dict) else value
    return out


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, PACKAGE, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, sub_seeds: list[int]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
        "sub_seeds": sub_seeds,
    }


# ---------------------------------------------------------------- operations

def _request(spec: dict, sub_seed: int, traced: bool, out_dir: str, smoke: bool) -> dict:
    req = {"kind": spec["kind"], "src": SRC, "out_dir": out_dir, "trace": traced}
    if spec["kind"] == "train":
        config = _merge(spec["config"], spec["smoke"]) if smoke else spec["config"]
        req["config"] = _merge(config, {"train": {"seed": sub_seed}})
        req["evaluate"] = spec["evaluate"]
    else:
        args = spec["smoke"]["args"] if smoke else spec["args"]
        # each grid row i draws from Philox key base+i: keep the bases 1000 apart
        req["args"] = [*args, "--seed", str(sub_seed * 1000)]
    return req


def run_op(spec: dict, sub_seed: int, traced: bool, out_dir: str, smoke: bool,
           env: dict) -> dict:
    os.makedirs(out_dir)
    request = _request(spec, sub_seed, traced, out_dir, smoke)
    req_path = os.path.join(out_dir, "request.json")
    with open(req_path, "w") as fh:
        json.dump(request, fh)
    with open(os.path.join(out_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, OP_SCRIPT, req_path, repr(t0)],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            returncode = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            returncode = None
    record_path = os.path.join(out_dir, "record.json")
    record = _load_json(record_path) if os.path.exists(record_path) else {}
    op = {"sub_seed": sub_seed, "traced": traced, "returncode": returncode,
          "record": record, "errors": [], "digests": {}}
    if returncode != 0 or "error" in record:
        op["errors"].append(f"operation exited {returncode}: {record.get('error', 'no record')}")
        return op
    if request["kind"] == "train":
        _check_training(op, request, out_dir)
    else:
        _check_verify(op, request, out_dir)
    if traced:
        op["trace"] = _trace_summary(os.path.join(out_dir, "trace.json"))
    return op


def _check_training(op: dict, request: dict, out_dir: str) -> None:
    run_dir = os.path.join(out_dir, "run")
    errors = op["errors"]
    try:
        summary = _load_json(os.path.join(run_dir, "summary.json"))
        for name in TRAIN_DIGESTED:
            op["digests"][name] = _sha256(os.path.join(run_dir, name))
    except (BenchError, OSError) as exc:
        errors.append(f"missing run artifact: {exc}")
        return
    train_cfg = request["config"]["train"]
    if summary.get("audit_reads") != 0:
        errors.append(f"audit_reads = {summary.get('audit_reads')}, expected 0")
    if summary.get("steps") != train_cfg["epochs"] * train_cfg["steps_per_epoch"]:
        errors.append(f"ran {summary.get('steps')} steps")
    if summary.get("o_star") is None:
        errors.append("the estimation phase never matched an anchor")
    final = summary.get("final", {})
    bad = [k for k, v in final.items() if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad or not final:
        errors.append(f"non-finite final metrics: {bad}")
        return
    op["quality"] = final["bacc_calibrated"]
    op["bacc_calibrated"] = final["bacc_calibrated"]
    if not request["evaluate"]:
        return
    if op["record"]["exit_codes"] != [0] * len(EVAL_TAGS):
        errors.append(f"evaluate exit codes {op['record']['exit_codes']}")
        return
    for tag in EVAL_TAGS:
        path = os.path.join(out_dir, f"eval_{tag}.json")
        op["digests"][f"eval_{tag}.json"] = _sha256(path)
        # the checkpoint round trip must reproduce the in-memory model exactly
        got = _load_json(path)["balanced_accuracy"]
        if got != final[f"bacc_{tag}"]:
            errors.append(f"evaluate {tag}: balanced accuracy {got} != trained {final[f'bacc_{tag}']}")


def _check_verify(op: dict, request: dict, out_dir: str) -> None:
    errors = op["errors"]
    if op["record"]["exit_codes"] != [0]:
        errors.append(f"verify-theorem exit codes {op['record']['exit_codes']}")
        return
    path = os.path.join(out_dir, "verify.csv")
    op["digests"]["verify.csv"] = _sha256(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != VERIFY_GRID_POINTS:
        errors.append(f"report has {len(rows)} rows, expected {VERIFY_GRID_POINTS}")
        return
    gap = 0.0
    for row in rows:
        diff = max(abs(float(row[f"p_{c}_analytic"]) - float(row[f"p_{c}_mc"]))
                   for c in ("pos", "neg", "mask"))
        if diff != float(row["max_abs_diff"]):
            errors.append(f"max_abs_diff {row['max_abs_diff']} != recomputed {diff!r}")
        gap = max(gap, diff)
    tolerance = float(request["args"][request["args"].index("--tolerance") + 1])
    op["theorem_gap"] = gap
    op["quality"] = 1.0 - gap / tolerance


def _trace_summary(path: str) -> dict:
    trace = _load_json(path)
    summary = summarize(trace)
    summary["counters"] = trace["counters"]
    summary["bindings"] = trace["bindings"]
    return summary


def check_repeats(ops: list[dict], expected_spans: list[str]) -> None:
    """Repeats of one sub-seed must give identical digests; traced repeats
    of one sub-seed must also give identical call, edge and counter values,
    and every expected span must have fired."""
    first: dict[int, dict] = {}
    first_trace: dict[int, tuple] = {}
    for op in ops:
        if op["errors"]:
            continue
        ref = first.setdefault(op["sub_seed"], op)
        if op["digests"] != ref["digests"]:
            op["errors"].append("artifact digests differ from the first repeat of this sub-seed")
        if not op["traced"]:
            continue
        layers = op["trace"]["layers"]
        silent = [n for n in expected_spans if layers.get(n, {}).get("calls", 0) == 0]
        if silent:
            op["errors"].append(f"expected spans never fired: {silent}")
        counts = (op["trace"]["counters"], op["trace"]["edges"],
                  {n: v["calls"] for n, v in layers.items()})
        if first_trace.setdefault(op["sub_seed"], counts) != counts:
            op["errors"].append("trace counts differ from the first traced repeat of this sub-seed")


# ------------------------------------------------------------------- metrics

def _median(values: list[float]) -> float:
    # only reached empty when every operation failed and the result is void
    return statistics.median(values) if values else 0.0


def _scaled(ops: list[dict], key: str) -> list[float]:
    """Wall seconds at the reference speed: see REFERENCE_NOMINAL_S in op.py."""
    return [op["record"][key] * REFERENCE_NOMINAL_S / op["record"]["reference_s"]
            for op in ops if "reference_s" in op["record"]]


def end_to_end_metrics(ops: list[dict]) -> dict:
    ok = [op for op in ops if not op["errors"]] or ops
    quality = {}
    for op in ok:
        if "quality" in op:
            quality.setdefault(op["sub_seed"], op["quality"])
    return {
        "run_s": (_median(_scaled(ok, "run_s")), "s"),
        "setup_s": (_median(_scaled(ok, "setup_s")), "s"),
        "peak_rss_mb": (_median([op["record"]["peak_rss_mb"] for op in ok
                                 if "peak_rss_mb" in op["record"]]), "MB"),
        "quality": (_median(list(quality.values())), "share"),
    }


def per_layer_metrics(ops: list[dict], span_names: list[str]) -> dict:
    traced = [op for op in ops if op["traced"] and "trace" in op]
    plain = [op for op in ops if not op["traced"] and "run_s" in op["record"]]
    metrics: dict[str, tuple[float, str]] = {}
    if traced:
        layers = [op["trace"]["layers"] for op in traced]
        # exact counts: one traced operation per sub-seed, summed
        once = list({op["sub_seed"]: op["trace"] for op in reversed(traced)}.values())
        counters: dict[str, int] = {}
        edges: dict[str, int] = {}
        for trace in once:
            for key, value in trace["counters"].items():
                counters[key] = counters.get(key, 0) + value
            for key, value in trace["edges"].items():
                edges[key] = edges.get(key, 0) + value
        for name in span_names:
            metrics[f"{name}.calls"] = (
                sum(t["layers"].get(name, {}).get("calls", 0) for t in once), "count")
            for field in ("self_s", "total_s"):
                metrics[f"{name}.{field}"] = (
                    _median([lay.get(name, {}).get(field, 0.0) for lay in layers]), "s")
        for key, value in counters.items():
            metrics[key] = (value, "count")
        steps = metrics["losses.total_loss.calls"][0]
        per_step = edges.get("losses.total_loss>network.head_logits", 0)
        metrics["network.head_logits.calls_per_step"] = (per_step / steps if steps else 0.0,
                                                         "count")
        attempted = counters.get("losses.consistency.attempted_rows", 0)
        for head in ("original", "output", "expansive"):
            kept = counters.get(f"losses.consistency.kept_rows.{head}", 0)
            metrics.setdefault(f"losses.consistency.kept_rows.{head}", (0, "count"))
            metrics[f"losses.consistency.kept_ratio.{head}"] = (
                kept / attempted if attempted else 0.0, "share")
        for key in ("network.forward_features.rows", "network.forward_features_cached.rows",
                    "network.backward.rows", "losses.consistency.attempted_rows",
                    "control.decay_ticks"):
            metrics.setdefault(key, (0, "count"))
        traced_run = _median(_scaled(traced, "run_s"))
        metrics["trace.run_s"] = (traced_run, "s")
        metrics["trace.overhead_s"] = (traced_run - _median(_scaled(plain, "run_s")), "s")
        # root spans (train, evaluate, verify-theorem) wrap the whole timed
        # region, so their own self time is left out: a call site the tracer
        # misses lowers the coverage instead of moving into a root's self time
        metrics["trace.coverage"] = (_median([
            op["trace"]["below_roots_s"] / op["record"]["run_s"] for op in traced]), "share")
    records = [op["record"] for op in ops if "import_s" in op["record"]]
    metrics["setup.import_s"] = (_median([r["import_s"] for r in records]), "s")
    metrics["config.build_dataset.s"] = (
        _median([r.get("build_dataset_s", 0.0) for r in records]), "s")
    metrics["cli.evaluate.s"] = metrics.get("cli.evaluate.total_s", (0.0, "s"))
    metrics["trainer.write_run_artifacts.s"] = metrics.get(
        "trainer.write_run_artifacts.total_s", (0.0, "s"))
    return metrics


# ---------------------------------------------------------------------- main

def _parse(argv):
    p = argparse.ArgumentParser(description="imbalanced-ssl benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny configs, for bench/smoke.py")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
        workloads = _load_json(os.path.join(BENCH_DIR, "workloads.json"))["workloads"]
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
        if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
            raise BenchError(f"no {PACKAGE} package under {SRC}")
        env = _child_env()
        # compile the package's bytecode once, so no timed process pays for it
        warm = subprocess.run([sys.executable, "-c", f"import {PACKAGE}.cli"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        if warm.returncode != 0:
            raise BenchError(f"cannot import {PACKAGE}: {warm.stderr.strip()[-500:]}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = workloads[args.workload]
    sub_seeds = [args.seed * SUB_SEEDS + i for i in range(SUB_SEEDS)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = os.path.join(BENCH_DIR, ".work", tag)
    shutil.rmtree(work, ignore_errors=True)
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    span_names = [name for _, name, _, _ in TRACED]

    ops: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if args.trace:
            # an untraced/traced pair per sub-seed, then the first pair again
            enough = len(ops) >= 2 * SUB_SEEDS + 2 and elapsed >= args.seconds
            sub_seed, traced = sub_seeds[len(ops) // 2 % SUB_SEEDS], len(ops) % 2 == 1
        else:
            enough = len(ops) >= SUB_SEEDS + 1 and elapsed >= args.seconds
            sub_seed, traced = sub_seeds[len(ops) % SUB_SEEDS], False
        if enough or elapsed >= LAST_START_S:
            break
        op_dir = os.path.join(work, f"op{len(ops)}")
        op = run_op(spec, sub_seed, traced, op_dir, args.smoke, env)
        ops.append(op)
        if not op["errors"]:
            if traced:
                shutil.move(os.path.join(op_dir, "trace.json"),
                            os.path.join(results_dir, f"{tag}-spans.json"))
            shutil.rmtree(op_dir)
        rec = op["record"]
        figures = {k: op[k] for k in ("bacc_calibrated", "theorem_gap") if k in op}
        print(f"op {len(ops) - 1} sub_seed={sub_seed} traced={int(traced)} "
              f"wall run_s={rec.get('run_s')} setup_s={rec.get('setup_s')} "
              f"reference_s={rec.get('reference_s')} peak_rss_mb={rec.get('peak_rss_mb')} "
              f"{figures}", flush=True)
    check_repeats(ops, spec["expected_spans"])
    if args.trace and {op["sub_seed"] for op in ops if op["traced"]} != set(sub_seeds):
        ops[-1]["errors"].append(f"the run ended before every sub-seed of {sub_seeds} was traced")
    for i, op in enumerate(ops):
        if op["errors"]:
            print(f"op {i} FAILED: {'; '.join(op['errors'])}")
    failed = sum(1 for op in ops if op["errors"])

    if args.trace:
        computed = per_layer_metrics(ops, span_names)
        computed["error_rate"] = (failed / len(ops), "share")
        wanted = bench["per_layer"]
    else:
        computed = end_to_end_metrics(ops)
        wanted = bench["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in computed and failed:
            computed[entry["name"]] = (0.0, entry["unit"])
        value, unit = computed[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: computed unit {unit}, BENCHMARK.json {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    first_record = next((op["record"] for op in ops if "numpy" in op["record"]), {})
    env_record = environment(args.seed, sub_seeds)
    env_record.update({k: first_record.get(k) for k in
                       ("numpy", "blas", "blas_version", "module")})
    env_record["threads"] = first_record.get("threads")
    digests = {str(s): next((op["digests"] for op in ops
                             if op["sub_seed"] == s and op["digests"]), None)
               for s in sorted({op["sub_seed"] for op in ops})}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    bindings = next((op["trace"]["bindings"] for op in ops if "trace" in op), None)
    full = {"workload": args.workload, "smoke": args.smoke, "trace": args.trace,
            "seconds": args.seconds, "environment": env_record, "digests": digests,
            "rebound_call_sites": bindings,
            "ops": [{k: v for k, v in op.items() if k != "trace"} for op in ops],
            "computed": {k: {"value": v, "unit": u} for k, (v, u) in computed.items()},
            "result": result}
    results_path = os.path.join(results_dir, f"{tag}.json")
    with open(results_path, "w") as fh:
        json.dump(full, fh, indent=1)
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(env_record, sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    print(f"full record: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
