"""One benchmark operation in a fresh process: ``python3 op.py REQUEST T0``.

REQUEST is a JSON file written by run_bench.py; T0 is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start-up, the package import, config resolution and the
dataset build.  The operation itself (``run_s``) is ``train()`` through the
artifacts being written, plus ``imbssl evaluate`` on every head when asked,
or the whole ``imbssl verify-theorem`` command.  After it come the peak RSS
reading and the reference timing (see REFERENCE_NOMINAL_S).  With tracing on,
the spans and counters are written to ``trace.json`` after all of that.  The
record goes to ``record.json`` in the operation directory.
"""

import json
import os
import resource
import sys
import time
import traceback

PACKAGE = "imbalanced_ssl"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 2) == 1 else int(x.shape[0])


def _count_rows(key):
    def hook(tr, args, kwargs, result):
        tr.count(key, _rows(_arg(args, kwargs, 1, "x")))
    return hook


def _backward_rows(tr, args, kwargs, result):
    tr.count("network.backward.rows", _rows(_arg(args, kwargs, 1, "cache").x))


def _consistency_rows(tr, args, kwargs, result):
    # one strong-view batch is forwarded and back-propagated for every head
    tr.count("losses.consistency.attempted_rows", result.cache_strong.x.shape[0])
    for head, hist in result.pseudo_hist.items():
        tr.count(f"losses.consistency.kept_rows.{head}", hist.sum())


def _decay_ticks(tr, args, kwargs, result):
    import numpy as np
    before = _arg(args, kwargs, 0, "state")
    if np.any(result.rho_b < before.rho_b) or np.any(result.rho_e < before.rho_e):
        tr.count("control.decay_ticks")


# (target, span name, counter hook, inline_under): the public functions on the
# training, evaluation and verification paths that the per-layer metrics
# name.  The spans listed in a workload's "expected_spans" (workloads.json)
# must fire on that workload.
TRACED = [
    ("trainer:train", "trainer.train", None, None),
    ("trainer:write_run_artifacts", "trainer.write_run_artifacts", None, None),
    ("losses:total_loss", "losses.total_loss", _consistency_rows, None),
    ("losses:cross_entropy_with_grad", "losses.cross_entropy_with_grad", None, None),
    ("losses:masked_consistency_from_logits", "losses.masked_consistency_from_logits",
     None, None),
    ("network:forward_features", "network.forward_features",
     _count_rows("network.forward_features.rows"), None),
    ("network:forward_features_cached", "network.forward_features_cached",
     _count_rows("network.forward_features_cached.rows"), "network.forward_features"),
    ("network:head_logits", "network.head_logits", None, None),
    ("network:backward", "network.backward", _backward_rows, None),
    ("network:sgd_step", "network.sgd_step", None, None),
    ("data:weak_augment_batch", "data.weak_augment_batch", None, None),
    ("data:strong_augment_batch", "data.strong_augment_batch", None, None),
    ("control:update_thresholds", "control.update_thresholds", _decay_ticks, None),
    ("control:extract_bias_vector", "control.extract_bias_vector", None, None),
    ("control:estimate_unlabeled_distribution", "control.estimate_unlabeled_distribution",
     None, None),
    ("diagnostics:evaluate", "diagnostics.evaluate", None, None),
    ("diagnostics:separation_violation_rate", "diagnostics.separation_violation_rate",
     None, None),
    ("config:RunConfig.build_dataset", "config.build_dataset", None, None),
    ("cli:cmd_evaluate", "cli.evaluate", None, None),
    ("cli:cmd_verify_theorem", "cli.verify_theorem", None, None),
    ("mixture:monte_carlo_pseudo_label_probabilities",
     "mixture.monte_carlo_pseudo_label_probabilities", None, None),
    ("mixture:pseudo_label_probabilities", "mixture.pseudo_label_probabilities", None, None),
    ("normal:standard_normal_cdf", "normal.standard_normal_cdf", None, None),
]


# The host's speed drifts by tens of percent over seconds to minutes, and the
# drift hits this fixed NumPy work (small matmuls for call overhead, a
# Philox/Box-Muller pass for memory traffic) much as it hits the operation.
# It runs twice right after the operation, in the same process and after its
# peak RSS is read, and run_bench.py scales the operation's times by
# REFERENCE_NOMINAL_S / (sum of the two).  The constant is the median of that
# sum over 81 operations on the machine the benchmark was written on (a
# 2-vCPU Intel Xeon VM at 2.1 GHz), so scaled times read as seconds there.
REFERENCE_NOMINAL_S = 0.265


def reference_s() -> float:
    import numpy as np
    a = np.full((64, 64), 0.01)
    x = np.ones((128, 64))
    rng = np.random.Generator(np.random.Philox(key=0))
    start = time.perf_counter()
    for _ in range(1500):
        np.maximum(x @ a, 0.0).sum(axis=0)
    u = rng.random((1_000_000, 3))
    z = np.sqrt(-2.0 * np.log1p(-u[:, 1])) * np.cos(2.0 * np.pi * u[:, 2])
    np.count_nonzero(z > 0.3)
    return time.perf_counter() - start


def _install_tracer():
    from spans import Tracer
    tracer = Tracer()
    for target, name, after, inline_under in TRACED:
        tracer.install(PACKAGE, f"{PACKAGE}.{target}", name, after=after,
                       inline_under=inline_under)
    return tracer


def _blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"numpy": np.__version__}
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def run(request: dict, t0: float) -> dict:
    marks = {"script": time.monotonic()}
    from imbalanced_ssl import cli, trainer
    from imbalanced_ssl.config import RunConfig
    import imbalanced_ssl
    marks["imported"] = time.monotonic()
    src = os.path.realpath(request["src"])
    if not os.path.realpath(imbalanced_ssl.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {imbalanced_ssl.__file__}, expected a module under {src}")
    out_dir = request["out_dir"]
    run_dir = os.path.join(out_dir, "run")
    if request["kind"] == "train":
        config = RunConfig.from_json_obj(request["config"])
        marks["config"] = time.monotonic()
        dataset = config.build_dataset()
        marks["dataset"] = time.monotonic()
    marks["setup_end"] = time.monotonic()

    tracer = _install_tracer() if request["trace"] else None
    exit_codes = []
    t_run = time.monotonic()
    if request["kind"] == "train":
        trainer.train(config, dataset=dataset, run_dir=run_dir)
        if request["evaluate"]:
            for head_args, tag in (
                    (["--head", "original"], "original"), (["--head", "output"], "output"),
                    (["--head", "expansive"], "expansive"), (["--calibrated"], "calibrated")):
                out = os.path.join(out_dir, f"eval_{tag}.json")
                exit_codes.append(cli.main(["evaluate", run_dir, *head_args, "--json", out]))
    else:
        out = os.path.join(out_dir, "verify.csv")
        exit_codes.append(cli.main(["verify-theorem", *request["args"], "--out", out]))
    run_s = time.monotonic() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = reference_s() + reference_s()

    record = {
        "reference_s": reference,
        "setup_s": marks["setup_end"] - t0,
        "run_s": run_s,
        "import_s": marks["imported"] - t0,
        "interpreter_s": marks["script"] - t0,
        "peak_rss_mb": peak_rss_mb,
        "exit_codes": exit_codes,
        "module": imbalanced_ssl.__file__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
    }
    if "dataset" in marks:
        record["build_dataset_s"] = marks["dataset"] - marks["config"]
    record.update(_blas_info())
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "trace.json"))
    return record


def main() -> int:
    request_path, t0 = sys.argv[1], float(sys.argv[2])
    with open(request_path) as fh:
        request = json.load(fh)
    record_path = os.path.join(request["out_dir"], "record.json")
    try:
        record = run(request, t0)
    except Exception as exc:  # the operation boundary: report, do not hide
        record = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
