"""Command-line interface.

Commands: verify-theorem, train, evaluate, match-distribution.  Exit codes:
0 success, 1 tolerance failure, 2 usage/config error, 3 runtime abort.
Every command is deterministic given (config, seed) and writes only inside
its run directory.  IMBSSL_OUTPUT_ROOT sets the default output root
(fallback: ./runs).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import network
from .config import AnchorSection, ConfigError, RunConfig
from .diagnostics import evaluate
from .distributions import (anchor_set_from_json, counts_from_json, default_anchor_set,
                            match_anchor)
from .mixture import (BinaryMixtureSpec, monte_carlo_pseudo_label_probabilities,
                      pseudo_label_probabilities)
from .trainer import TrainingAborted, _json_dump, _write_csv, train

__all__ = ["main"]

OUTPUT_ROOT_ENV = "IMBSSL_OUTPUT_ROOT"

DEFAULT_GRID = {
    "gamma": (0.55, 0.7, 0.9),
    "delta_p": (-0.5, 0.0, 0.5),
    "rho": (0.75, 0.95),
    "beta": (1.0, 4.0),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbssl",
        description="Semi-supervised learning under class imbalance, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vt = sub.add_parser("verify-theorem",
                        help="compare the analytic pseudo-label law against Monte Carlo")
    vt.add_argument("--samples", type=int, default=1_000_000,
                    help="Monte Carlo draws per grid point (default 1e6)")
    vt.add_argument("--tolerance", type=float, default=0.005,
                    help="max allowed per-component |analytic - MC| (default 0.005)")
    vt.add_argument("--seed", type=int, default=0, help="base seed; row i uses seed+i")
    vt.add_argument("--out", default=None, help="CSV report path (optional)")

    tr = sub.add_parser("train", help="run the full training pipeline")
    tr.add_argument("config", nargs="?", default=None,
                    help="JSON config path (omitted: built-in defaults)")
    tr.add_argument("--seed", type=int, default=None, help="override the training seed")
    tr.add_argument("--out", default=None, help="run directory (overrides config)")

    ev = sub.add_parser("evaluate", help="evaluate a finished run's checkpoint")
    ev.add_argument("run_dir", help="run directory holding checkpoint.json + config.json")
    ev.add_argument("--head", default="output",
                    choices=list(network.HEAD_NAMES), help="head to evaluate")
    ev.add_argument("--calibrated", action="store_true",
                    help="use bias-stripped output-head logits (only with --head output)")
    ev.add_argument("--json", dest="json_out", default=None,
                    help="also write the metrics JSON to this path")

    md = sub.add_parser("match-distribution",
                        help="KL-match estimated class counts against the anchor set")
    md.add_argument("counts", help="JSON file: array of counts or {\"counts\": [...]}")
    md.add_argument("--anchors", default=None,
                    help="JSON anchor set (default: the five standard anchors)")
    md.add_argument("--gamma", type=float, default=None,
                    help="imbalance ratio for the default long-tail anchors "
                         f"(default {AnchorSection().gamma:g})")
    md.add_argument("--as-variance", action="store_true",
                    help="read the default bell anchor's width literally as a variance")
    md.add_argument("--json", dest="json_out", default=None,
                    help="also write the match report JSON to this path")
    return parser


def cmd_verify_theorem(args) -> int:
    if not 0.0 < args.tolerance < float("inf"):
        raise ConfigError(f"--tolerance must be a positive finite number, got {args.tolerance}")
    rows = []
    worst = 0.0
    grid = itertools.product(DEFAULT_GRID["gamma"], DEFAULT_GRID["delta_p"],
                             DEFAULT_GRID["rho"], DEFAULT_GRID["beta"])
    for i, (gamma, delta_p, rho, beta) in enumerate(grid):
        spec = BinaryMixtureSpec(gamma=gamma, mu1=-1.0, mu2=1.0, sigma1=1.0, sigma2=1.0,
                                 beta=beta, rho=rho, delta_p=delta_p)
        ana = pseudo_label_probabilities(spec)
        mc = monte_carlo_pseudo_label_probabilities(spec, args.samples, args.seed + i)
        diff = float(np.max(np.abs(ana.as_array() - mc.as_array())))
        worst = max(worst, diff)
        rows.append({**asdict(spec),
                     **{f"{key}_analytic": v for key, v in asdict(ana).items()},
                     **{f"{key}_mc": v for key, v in asdict(mc).items()},
                     "max_abs_diff": diff})
    if args.out:
        _write_csv(args.out, rows[0], (row.values() for row in rows))
    failures = sum(row["max_abs_diff"] > args.tolerance for row in rows)
    print(f"verify-theorem: {len(rows)} grid points, {args.samples} samples each")
    print(f"worst per-component |analytic - MC| = {worst:.6f} (tolerance {args.tolerance})")
    if failures:
        print(f"FAIL: {failures} grid point(s) exceeded tolerance", file=sys.stderr)
        return 1
    print("OK: all grid points within tolerance")
    return 0


def _default_run_dir(config: RunConfig) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return os.path.join(root, f"run-{config.config_hash()[:8]}-seed{config.train.seed}")


def cmd_train(args) -> int:
    config = RunConfig.from_json_obj(_read_json(args.config, "config") if args.config else {})
    if args.seed is not None:
        config = replace(config, train=replace(config.train, seed=args.seed))
    config = replace(config, output_dir=args.out or config.output_dir)
    run_dir = config.output_dir or _default_run_dir(config)
    result = train(config, run_dir=run_dir)
    s = result.summary
    print(f"run directory: {run_dir}")
    print(f"matched anchor: {s['o_star']} (c={s['c']}, gamma_u={s['gamma_u']:.2f})")
    final = s["final"]
    print(f"balanced accuracy: original {final['bacc_original']:.3f}, "
          f"output {final['bacc_output']:.3f}, "
          f"calibrated {final['bacc_calibrated']:.3f}, "
          f"expansive {final['bacc_expansive']:.3f}")
    print(f"non-head recall (calibrated): {final['recall_nonhead']:.3f}")
    return 0


def cmd_evaluate(args) -> int:
    if args.calibrated and args.head != "output":
        raise ConfigError("--calibrated evaluates the output head; it cannot be "
                          f"combined with --head {args.head}")
    ckpt = _read_json(os.path.join(args.run_dir, "checkpoint.json"), "run artifact")
    try:
        model = network.model_from_checkpoint_obj(ckpt)
    except ValueError as exc:
        raise ConfigError(f"corrupt checkpoint: {exc}") from exc
    config = RunConfig.from_json_obj(
        _read_json(os.path.join(args.run_dir, "config.json"), "run artifact"))
    if model.k != config.task.k:
        raise ConfigError(f"checkpoint has {model.k} classes, the run's config {config.task.k}")
    dataset = config.build_dataset()
    view = "calibrated" if args.calibrated else args.head
    with np.errstate(over="raise", invalid="raise"):  # weights that overflow: exit 2
        report = evaluate(model, dataset.test_x, dataset.test_y)[view]
    payload = {
        "head": args.head,
        "calibrated": bool(args.calibrated),
        "accuracy": report.accuracy,
        "balanced_accuracy": report.balanced_accuracy,
        "per_class_recall": [float(r) for r in report.per_class_recall],
        "confusion": report.confusion.tolist(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _read_json(path: str, what: str):
    """A JSON file's content; an unreadable or malformed file (nested too
    deep for the parser included) is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def cmd_match_distribution(args) -> int:
    if args.anchors and (args.gamma is not None or args.as_variance):
        raise ConfigError("--gamma and --as-variance shape the default anchors; "
                          "they cannot be combined with --anchors")
    counts = counts_from_json(_read_json(args.counts, "counts file"))
    if args.anchors:
        obj = _read_json(args.anchors, "anchor set")
        try:
            anchor_set = anchor_set_from_json(obj)
        except ValueError as exc:
            raise ConfigError(f"bad anchor set: {exc}") from exc
        if anchor_set.k != counts.size:
            raise ConfigError(f"anchor set has {anchor_set.k} classes, counts have {counts.size}")
    else:
        gamma = AnchorSection().gamma if args.gamma is None else args.gamma
        anchor_set = default_anchor_set(counts.size, gamma=gamma, as_variance=args.as_variance)
    match = match_anchor(counts, anchor_set)
    print(f"{'anchor':<20} {'c':>4} {'KL':>12}")
    for i, (kind, c, kl) in enumerate(zip(anchor_set.kinds, anchor_set.expansion_factors,
                                          match.kl_values)):
        marker = "  <-- o*" if i == match.index else ""
        print(f"{kind:<20} {c:>4g} {kl:>12.6f}{marker}")
    print(f"o* = {match.kind}, c = {match.expansion_factor:g}, gamma_u = {match.gamma_u:.4f}")
    if args.json_out:
        _json_dump(args.json_out, {
            "o_star": match.kind, "o_star_index": match.index,
            "c": match.expansion_factor, "gamma_u": match.gamma_u,
            "kl_values": list(match.kl_values),
        })
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify-theorem": cmd_verify_theorem,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "match-distribution": cmd_match_distribution,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingAborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
