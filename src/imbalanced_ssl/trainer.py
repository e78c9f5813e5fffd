"""End-to-end training: estimation phase, anchor matching, threshold
initialization, joint optimization of three heads, controller ticks, and
per-epoch measurement.

``train`` only orchestrates: ``_train_step`` runs one SGD step,
``_estimate_and_match`` closes the estimation phase, ``_epoch_rows`` measures
an epoch, and ``write_run_artifacts`` writes the run directory.

Seed streams (all derived from the training seed, documented so runs are
reproducible byte for byte):

  [seed, 10]        model initialization (network module)
  [seed, 20]        minibatch index sampling
  [seed, 21]        weak/strong augmentation draws
  [seed, 22]        probe-set selection for the separation rate
  [seed, 23, epoch] probe augmentations, fresh per epoch

Run-directory artifacts (no timestamps anywhere, reruns are byte-identical):
config.json, metrics.csv, losses.csv, thresholds.csv, bias.csv,
checkpoint.json, summary.json; aborted runs write abort.json and
checkpoint.json only.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import network
from .config import RunConfig, TrainSection
from .control import (ThresholdState, estimate_unlabeled_distribution, extract_bias_vector,
                      init_thresholds, update_thresholds)
from .data import Dataset, strong_augment_batch, weak_augment_batch
from .diagnostics import bias_pattern_report, evaluate, separation_violation_rate
from .distributions import (AnchorMatch, AnchorSet, head_mask, match_anchor,
                            rescale_anchor)
from .losses import LogitAdjustment, total_loss
from .mixture import denoising_bound
from .network import Model, OptimizerState, backward, init_model, sgd_step

__all__ = [
    "TrainingAborted",
    "TrainResult",
    "train",
    "run_estimation_phase",
    "write_run_artifacts",
]

_BATCH_STREAM = 20
_AUG_STREAM = 21
_PROBE_STREAM = 22
_PROBE_AUG_STREAM = 23


class TrainingAborted(RuntimeError):
    """Non-finite logits or loss; carries a diagnostic snapshot (CLI exit
    code 3)."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass
class TrainResult:
    model: Model
    match: AnchorMatch | None
    estimated_counts: np.ndarray | None
    threshold_state: ThresholdState
    metrics_rows: list[dict]
    loss_rows: list[dict]
    threshold_rows: list[dict]
    bias_rows: list[dict]
    summary: dict
    dataset: Dataset


def _sample_batch(rng: np.random.Generator, x: np.ndarray, batch: int,
                  y: np.ndarray | None = None):
    idx = rng.integers(0, x.shape[0], size=batch)
    if y is None:
        return x[idx]
    return x[idx], y[idx]


# the loss components of one step, in losses.csv and abort.json
_LOSS_COMPONENTS = ("total", "l_basic", "l_sup_b", "l_con_b", "l_sup_e", "l_con_e")
_LOSS_COLUMNS = ("step", *_LOSS_COMPONENTS, "mask_rate_head", "mask_rate_nonhead")


def _train_step(model: Model, opt: OptimizerState, state: ThresholdState,
                class_weights: np.ndarray | None, control: bool, dataset: Dataset,
                t: TrainSection, adj: LogitAdjustment, head_classes: np.ndarray,
                batch_rng: np.random.Generator, aug_rng: np.random.Generator,
                epoch: int, step: int) -> tuple[ThresholdState, dict, dict]:
    """One SGD step on a fresh labeled batch and a weak/strong pair of one
    unlabeled batch, then one controller tick when ``control`` is on.

    Returns the thresholds after the tick, the losses.csv row and the step's
    per-head pseudo-label histograms.  Divergence is one explicit check: the
    step's logits and total loss must be finite, otherwise TrainingAborted
    carries the loss components (None when the logits already were not).
    Floating-point warnings are off from the forward pass through the update:
    an overflow there shows up as non-finite logits or loss, at this step or
    the next, and the check reports it.
    """
    xl, yl = _sample_batch(batch_rng, dataset.labeled_x, t.labeled_batch, dataset.labeled_y)
    xu = _sample_batch(batch_rng, dataset.unlabeled_x, t.unlabeled_batch)
    noise = dataset.task.noise
    weak = weak_augment_batch(xu, noise, t.weak_strength, aug_rng)
    strong = strong_augment_batch(xu, noise, t.strong_strength, t.dropout, aug_rng)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = total_loss(
            model, xl, yl, weak, strong, adj,
            rho_b=state.rho_b, rho_e=state.rho_e, rho_max=t.rho_max,
            head_classes=head_classes, tau_b=t.tau_b, tau_e=t.tau_e,
            lambda_u=t.lambda_u, lambda_basic=t.lambda_basic,
            class_weights=class_weights, output_pseudo_source=t.output_pseudo_source,
        )
        row = {"step": step, **{col: getattr(losses, col) for col in _LOSS_COLUMNS[1:]}}
        if not (losses.finite_logits and np.isfinite(losses.total)):
            components = ({name: row[name] for name in _LOSS_COMPONENTS}
                          if losses.finite_logits else None)
            what = "loss" if losses.finite_logits else "logits"
            raise TrainingAborted(f"non-finite {what} at step {step}",
                                  {"epoch": epoch, "step": step, "components": components})
        grads_l = backward(model, losses.cache_labeled, losses.head_grads_labeled)
        grads_s = backward(model, losses.cache_strong, losses.head_grads_strong)
        sgd_step(model, {name: grads_l[name] + grads_s[name] for name in grads_l}, opt)
    if control:
        state = update_thresholds(state, extract_bias_vector(model))
    return state, row, losses.pseudo_hist


def _estimate_and_match(model: Model, dataset: Dataset, anchor_set: AnchorSet,
                        head_classes: np.ndarray, t: TrainSection):
    """Close the estimation phase: histogram the calibrated predictions on
    the unlabeled split, KL-match it against the anchors, and initialize the
    thresholds (and, with ``reweight_unlabeled``, the 1/prior class weights)
    from the matched anchor.  Returns (match, estimated, state, class_weights)."""
    estimated = estimate_unlabeled_distribution(model, dataset.unlabeled_x)
    match = match_anchor(estimated, anchor_set)
    state = init_thresholds(match.expansion_factor, match.gamma_u, head_classes,
                            alpha=t.alpha, nu=t.nu, rho_max=t.rho_max,
                            rho_floor=t.rho_floor)
    class_weights = None
    if t.reweight_unlabeled:
        q = rescale_anchor(anchor_set.anchors[match.index].proportions,
                           np.asarray(estimated, dtype=np.float64))
        inv = 1.0 / q
        class_weights = inv / inv.mean()
    return match, estimated, state, class_weights


# metrics.csv: the leading block is also the summary's "final" record
_EVALUATED = ("original", "output", "calibrated", "expansive")
_SUMMARY_METRICS = (*(f"{m}_{name}" for name in _EVALUATED for m in ("acc", "bacc")),
                    "recall_head", "recall_nonhead", "mu_hat", "denoise_bound")
_THRESHOLD_COLUMNS = ("epoch", "class", "rho_b", "rho_e", "b_opt")


def _metric_columns(k: int) -> list[str]:
    return ["epoch", *_SUMMARY_METRICS, "mask_rate_head", "mask_rate_nonhead",
            *(f"recall_{c}" for c in range(k)),
            *(f"hist_{name}_{c}" for name in network.HEAD_NAMES for c in range(k))]


def _bias_columns(k: int) -> list[str]:
    return ["epoch", "head", *(f"b_{c}" for c in range(k))]


def _epoch_rows(model: Model, dataset: Dataset, t: TrainSection, head_classes: np.ndarray,
                probe: np.ndarray, match: AnchorMatch | None, state: ThresholdState,
                epoch: int, epoch_losses: list[dict], epoch_hists: list[dict]):
    """One epoch's measurement: the metrics.csv row, the thresholds.csv rows
    and the bias.csv rows.  ``epoch_losses``/``epoch_hists`` are the epoch's
    per-step loss rows and pseudo-label histograms."""
    k = model.k
    x, y = dataset.test_x, dataset.test_y
    reports = {name: evaluate(model, x, y, head=name) for name in network.HEAD_NAMES}
    reports["calibrated"] = cal = evaluate(model, x, y, calibrated=True)
    row: dict = {"epoch": epoch}
    for name in _EVALUATED:
        row[f"acc_{name}"] = reports[name].accuracy
        row[f"bacc_{name}"] = reports[name].balanced_accuracy
    row["recall_head"] = cal.recall_over(head_classes)
    row["recall_nonhead"] = cal.recall_over(~head_classes)
    row["mu_hat"] = separation_violation_rate(
        model, "output", probe, t.probe_n_aug, dataset.task.noise,
        strength=t.strong_strength, dropout=t.dropout,
        seed=[t.seed, _PROBE_AUG_STREAM, epoch])
    row["denoise_bound"] = (denoising_bound(match.expansion_factor, row["mu_hat"])
                            if match is not None else None)
    for col in ("mask_rate_head", "mask_rate_nonhead"):
        row[col] = float(np.mean([r[col] for r in epoch_losses]))
    for c, r in enumerate(cal.per_class_recall):
        row[f"recall_{c}"] = float(r)
    for name in network.HEAD_NAMES:
        hist = np.sum([h[name] for h in epoch_hists], axis=0)
        for c in range(k):
            row[f"hist_{name}_{c}"] = int(hist[c])

    b_opt = extract_bias_vector(model).b_opt
    threshold_rows = [{"epoch": epoch, "class": c, "rho_b": float(state.rho_b[c]),
                       "rho_e": float(state.rho_e[c]), "b_opt": float(b_opt[c])}
                      for c in range(k)]
    bias_rows = [{"epoch": epoch, "head": name,
                  **{f"b_{c}": float(model.heads[name].b[c]) for c in range(k)}}
                 for name in network.HEAD_NAMES]
    return row, threshold_rows, bias_rows


def train(config: RunConfig, dataset: Dataset | None = None, run_dir: str | None = None,
          stop_after_estimation: bool = False) -> TrainResult:
    """Run the full pipeline.  Deterministic per (config, seed); never reads
    unlabeled ground truth (the dataset audit counter must not move)."""
    if dataset is None:
        dataset = config.build_dataset()
    if dataset.n_unlabeled == 0:
        raise ValueError("training requires a nonempty unlabeled split")
    audit_start = dataset.audit_reads
    t = config.train
    k = dataset.task.k

    model = init_model(k=k, d=dataset.task.d, hidden=t.hidden, feature=t.feature,
                       seed=t.seed)
    opt = OptimizerState(learning_rate=t.learning_rate, momentum=t.momentum,
                         weight_decay=t.weight_decay)
    adj = LogitAdjustment.from_counts(dataset.labeled_counts())
    head_classes = head_mask(k)
    anchor_set = config.anchors.build(k)
    state = ThresholdState(rho_b=np.full(k, t.rho_max), rho_e=np.full(k, t.rho_max),
                           alpha=t.alpha, nu=t.nu, rho_max=t.rho_max, rho_floor=t.rho_floor)

    batch_rng = np.random.default_rng([t.seed, _BATCH_STREAM])
    aug_rng = np.random.default_rng([t.seed, _AUG_STREAM])
    probe_rng = np.random.default_rng([t.seed, _PROBE_STREAM])
    probe_n = min(t.probe_size, dataset.n_unlabeled)
    probe = dataset.unlabeled_x[probe_rng.choice(dataset.n_unlabeled, size=probe_n,
                                                 replace=False)].copy()

    est_epochs = t.resolved_estimation_epochs()
    match = estimated = class_weights = None
    if est_epochs == 0:
        match, estimated, state, class_weights = _estimate_and_match(
            model, dataset, anchor_set, head_classes, t)

    metrics_rows: list[dict] = []
    loss_rows: list[dict] = []
    threshold_rows: list[dict] = []
    bias_rows: list[dict] = []
    for epoch in range(t.epochs):
        if stop_after_estimation and match is not None:
            break
        hists = []
        for _ in range(t.steps_per_epoch):
            try:
                state, loss_row, hist = _train_step(
                    model, opt, state, class_weights, match is not None, dataset, t, adj,
                    head_classes, batch_rng, aug_rng, epoch=epoch, step=len(loss_rows))
            except TrainingAborted as err:
                if run_dir is not None:
                    _write_abort(run_dir, config, model, err.snapshot)
                raise
            loss_rows.append(loss_row)
            hists.append(hist)
        if epoch == est_epochs - 1:
            match, estimated, state, class_weights = _estimate_and_match(
                model, dataset, anchor_set, head_classes, t)
        metrics_row, t_rows, b_rows = _epoch_rows(
            model, dataset, t, head_classes, probe, match, state, epoch,
            loss_rows[-t.steps_per_epoch:], hists)
        metrics_rows.append(metrics_row)
        threshold_rows += t_rows
        bias_rows += b_rows

    summary = _summary(config, dataset, model, match, estimated, metrics_rows,
                       len(loss_rows), dataset.audit_reads - audit_start)
    result = TrainResult(model=model, match=match, estimated_counts=estimated,
                         threshold_state=state, metrics_rows=metrics_rows,
                         loss_rows=loss_rows, threshold_rows=threshold_rows,
                         bias_rows=bias_rows, summary=summary, dataset=dataset)
    if run_dir is not None:
        write_run_artifacts(run_dir, config, result)
    return result


def _finite_or_none(v):
    if v is None:
        return None
    f = float(v)
    return f if np.isfinite(f) else None


def _summary(config: RunConfig, dataset: Dataset, model: Model, match: AnchorMatch | None,
             estimated: np.ndarray | None, metrics_rows: list[dict], steps: int,
             audit_reads: int) -> dict:
    correlations = bias_pattern_report(model, dataset.labeled_counts())
    final = metrics_rows[-1] if metrics_rows else {}
    matched = match is not None
    return {
        "config_hash": config.config_hash(),
        "o_star": match.kind if matched else None,
        "o_star_index": match.index if matched else None,
        "c": match.expansion_factor if matched else None,
        "gamma_u": _finite_or_none(match.gamma_u) if matched else None,
        "kl_values": [float(v) for v in match.kl_values] if matched else None,
        "estimated_counts": [int(v) for v in estimated] if estimated is not None else None,
        "steps": steps,
        "audit_reads": audit_reads,
        "bias_spearman": {name: _finite_or_none(v) for name, v in correlations.items()},
        "final": {key: _finite_or_none(final.get(key)) for key in _SUMMARY_METRICS},
    }


def run_estimation_phase(config: RunConfig, dataset: Dataset | None = None):
    """Train through the estimation epochs only, then match.  Returns
    (model, match, estimated_counts)."""
    result = train(config, dataset=dataset, stop_after_estimation=True)
    return result.model, result.match, result.estimated_counts


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, rows: list[dict], columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in columns])


def _json_dump(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_abort(run_dir: str, config: RunConfig, model: Model, snapshot: dict) -> None:
    os.makedirs(run_dir, exist_ok=True)
    _json_dump(os.path.join(run_dir, "abort.json"), snapshot)
    _json_dump(os.path.join(run_dir, "checkpoint.json"),
               network.model_to_checkpoint_obj(model, config.config_hash()))


def write_run_artifacts(run_dir: str, config: RunConfig, result: TrainResult) -> None:
    os.makedirs(run_dir, exist_ok=True)
    k = result.model.k
    _json_dump(os.path.join(run_dir, "config.json"), config.to_json_obj())
    for name, rows, columns in (
            ("metrics.csv", result.metrics_rows, _metric_columns(k)),
            ("losses.csv", result.loss_rows, _LOSS_COLUMNS),
            ("thresholds.csv", result.threshold_rows, _THRESHOLD_COLUMNS),
            ("bias.csv", result.bias_rows, _bias_columns(k))):
        _write_csv(os.path.join(run_dir, name), rows, columns)
    _json_dump(os.path.join(run_dir, "checkpoint.json"),
               network.model_to_checkpoint_obj(result.model, config.config_hash()))
    _json_dump(os.path.join(run_dir, "summary.json"), result.summary)
