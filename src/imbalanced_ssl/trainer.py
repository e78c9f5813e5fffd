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
from .losses import LOSS_COLUMNS, LOSS_COMPONENTS, LogitAdjustment, total_loss
from .mixture import denoising_bound
from .network import Model, OptimizerState, init_model, sgd_step

__all__ = [
    "TrainingAborted",
    "TrainResult",
    "train",
    "write_run_artifacts",
]

_BATCH_STREAM = 20
_AUG_STREAM = 21
_PROBE_STREAM = 22
_PROBE_AUG_STREAM = 23


class TrainingAborted(RuntimeError):
    """Non-finite logits, loss or parameters, or parameters that overflow an
    epoch's measurement; carries a diagnostic snapshot (CLI exit code 3)."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass
class TrainResult:
    model: Model
    match: AnchorMatch | None
    estimated_counts: np.ndarray | None
    metrics_rows: list[dict]
    losses: np.ndarray  # (steps, len(LOSS_COLUMNS)) float64, one losses.csv row per step
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


def _train_step(model: Model, opt: OptimizerState, state: ThresholdState,
                class_weights: np.ndarray | None, control: bool, dataset: Dataset,
                t: TrainSection, adj: LogitAdjustment, head_classes: np.ndarray,
                batch_rng: np.random.Generator, aug_rng: np.random.Generator,
                epoch: int, step: int, losses_row: np.ndarray,
                hist: np.ndarray) -> ThresholdState:
    """One SGD step on a fresh labeled batch and a weak/strong pair of one
    unlabeled batch (one backbone forward over all three, one backward), then
    one controller tick when ``control`` is on.

    Writes the step's losses.csv row, in LOSS_COLUMNS order, into
    ``losses_row``, adds the pseudo-labels each head kept into the epoch's
    (3, K) histogram ``hist``, rows in HEAD_NAMES order, and returns the
    thresholds after the tick.  Divergence is one explicit check: the
    step's logits and total loss must be finite, otherwise TrainingAborted
    carries the loss components read from that row, a non-finite one as None
    (the whole record None when the logits already were not), so abort.json
    is strict JSON.
    Floating-point warnings are off from the forward pass through the update:
    an overflow there shows up as non-finite logits or loss at this step or
    the next, or, after an epoch's last step, in ``train``'s parameter check.
    """
    xl, yl = _sample_batch(batch_rng, dataset.labeled_x, t.labeled_batch, dataset.labeled_y)
    xu = _sample_batch(batch_rng, dataset.unlabeled_x, t.unlabeled_batch)
    noise = dataset.task.noise
    weak = weak_augment_batch(xu, noise, t.weak_strength, aug_rng)
    strong = strong_augment_batch(xu, noise, t.strong_strength, t.dropout, aug_rng)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = total_loss(model, xl, yl, weak, strong, adj, state.thresholds, head_classes,
                            t, class_weights)
        losses_row[:] = [step, *(getattr(losses, col) for col in LOSS_COLUMNS[1:])]
        if not (losses.finite_logits and np.isfinite(losses.total)):
            # the row is the step, then the LOSS_COMPONENTS, then the mask rates
            components = (dict(zip(LOSS_COMPONENTS, map(_finite_or_none, losses_row[1:])))
                          if losses.finite_logits else None)
            what = "loss" if losses.finite_logits else "logits"
            raise TrainingAborted(f"non-finite {what} at step {step}",
                                  {"epoch": epoch, "step": step, "components": components})
        sgd_step(model, network.backward(model, losses.cache, losses.head_grads), opt)
    hist += losses.kept
    if control:
        state = update_thresholds(state, model.heads["output"].b)
    return state


def _estimate_and_match(model: Model, dataset: Dataset, anchor_set: AnchorSet,
                        head_classes: np.ndarray, t: TrainSection):
    """Close the estimation phase: histogram the calibrated predictions on
    the unlabeled split, KL-match it against the anchors, and initialize the
    thresholds (and, with ``reweight_unlabeled``, the 1/prior class weights)
    from the matched anchor.  Returns (match, estimated, state, class_weights)."""
    estimated = estimate_unlabeled_distribution(model, dataset.unlabeled_x)
    match = match_anchor(estimated, anchor_set)
    state = init_thresholds(match.expansion_factor, match.gamma_u, head_classes, t)
    class_weights = None
    if t.reweight_unlabeled:
        q = rescale_anchor(anchor_set.proportions[match.index],
                           np.asarray(estimated, dtype=np.float64))
        inv = 1.0 / q
        class_weights = inv / inv.mean()
    return match, estimated, state, class_weights


# metrics.csv: the leading block is also the summary's "final" record
_EVALUATED = ("original", "output", "calibrated", "expansive")
_SUMMARY_METRICS = (*(f"{m}_{name}" for name in _EVALUATED for m in ("acc", "bacc")),
                    "recall_head", "recall_nonhead", "mu_hat", "denoise_bound")


def _epoch_rows(model: Model, dataset: Dataset, t: TrainSection, head_classes: np.ndarray,
                probe: np.ndarray, match: AnchorMatch | None, state: ThresholdState,
                epoch: int, epoch_losses: np.ndarray, hist: np.ndarray):
    """One epoch's measurement: the metrics.csv row, the thresholds.csv rows
    and the bias.csv rows, each with its keys in column order (the CSV
    headers are read off them).  ``epoch_losses`` is the epoch's rows of the
    loss record and ``hist`` the (3, K) count of the pseudo-labels each head
    kept over the epoch, rows in HEAD_NAMES order."""
    k = model.k
    reports = evaluate(model, dataset.test_x, dataset.test_y)
    cal = reports["calibrated"]
    row: dict = {"epoch": epoch}
    for name in _EVALUATED:
        row[f"acc_{name}"] = reports[name].accuracy
        row[f"bacc_{name}"] = reports[name].balanced_accuracy
    row["recall_head"] = cal.recall_over(head_classes)
    row["recall_nonhead"] = cal.recall_over(~head_classes)
    row["mu_hat"] = separation_violation_rate(
        model, probe, t.probe_n_aug, dataset.task.noise,
        strength=t.strong_strength, dropout=t.dropout,
        seed=[t.seed, _PROBE_AUG_STREAM, epoch])
    row["denoise_bound"] = (denoising_bound(match.expansion_factor, row["mu_hat"])
                            if match is not None else None)
    for col in ("mask_rate_head", "mask_rate_nonhead"):
        # one column's mean sums in the order np.mean over a list of the
        # values did; a 2-D mean over axis 0 would not, and its last bits differ
        row[col] = float(epoch_losses[:, LOSS_COLUMNS.index(col)].mean())
    for c, r in enumerate(cal.per_class_recall):
        row[f"recall_{c}"] = float(r)
    for name, counts in zip(network.HEAD_NAMES, hist.tolist()):
        for c, n in enumerate(counts):
            row[f"hist_{name}_{c}"] = n

    b_opt = extract_bias_vector(model)
    threshold_rows = [{"epoch": epoch, "class": c, "rho_b": float(state.rho_b[c]),
                       "rho_e": float(state.rho_e[c]), "b_opt": float(b_opt[c])}
                      for c in range(k)]
    bias_rows = [{"epoch": epoch, "head": name,
                  **{f"b_{c}": float(model.heads[name].b[c]) for c in range(k)}}
                 for name in network.HEAD_NAMES]
    return row, threshold_rows, bias_rows


def train(config: RunConfig, dataset: Dataset | None = None,
          run_dir: str | None = None) -> TrainResult:
    """Run the full pipeline.  Deterministic per (config, seed); never reads
    unlabeled ground truth (the dataset audit counter must not move)."""
    if dataset is None:
        dataset = config.build_dataset()
    if dataset.n_unlabeled == 0:
        raise ValueError("training requires a nonempty unlabeled split")
    audit_start = dataset.audit_reads
    t = config.train
    k = dataset.task.k

    model = init_model(k, dataset.task.d, t.hidden, t.feature, t.seed)
    opt = OptimizerState(t.learning_rate, t.momentum, t.weight_decay)
    adj = LogitAdjustment.from_counts(dataset.labeled_counts())
    head_classes = head_mask(dataset.labeled_counts())
    anchor_set = config.anchors.build(k)
    state = ThresholdState(np.full((len(network.HEAD_NAMES), k), t.rho_max),
                           alpha=t.alpha, nu=t.nu, rho_floor=t.rho_floor)

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

    # RunConfig._array_sizes caps this array's size at load
    losses = np.empty((t.epochs * t.steps_per_epoch, len(LOSS_COLUMNS)))
    metrics_rows: list[dict] = []
    threshold_rows: list[dict] = []
    bias_rows: list[dict] = []
    try:
        for epoch in range(t.epochs):
            hist = np.zeros((len(network.HEAD_NAMES), k), dtype=np.int64)
            first = epoch * t.steps_per_epoch
            for step in range(first, first + t.steps_per_epoch):
                state = _train_step(
                    model, opt, state, class_weights, match is not None, dataset, t, adj,
                    head_classes, batch_rng, aug_rng, epoch, step, losses[step], hist)
            # the step checks the logits from before its update; the epoch's
            # last update is checked here, by the parameters and by the
            # measurement that reads them
            snapshot = {"epoch": epoch, "step": step, "components": None}
            if not np.isfinite(model.flat).all():
                raise TrainingAborted(f"non-finite parameters after step {step}", snapshot)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    if epoch == est_epochs - 1:
                        match, estimated, state, class_weights = _estimate_and_match(
                            model, dataset, anchor_set, head_classes, t)
                    metrics_row, t_rows, b_rows = _epoch_rows(
                        model, dataset, t, head_classes, probe, match, state, epoch,
                        losses[first:step + 1], hist)
            except FloatingPointError as exc:
                raise TrainingAborted(f"parameters after step {step} overflow the epoch's "
                                      f"measurement ({exc})", snapshot) from exc
            metrics_rows.append(metrics_row)
            threshold_rows += t_rows
            bias_rows += b_rows
    except TrainingAborted as err:
        if run_dir is not None:
            _write_abort(run_dir, config, model, err.snapshot)
        raise

    summary = _summary(config, dataset, model, match, estimated, metrics_rows,
                       len(losses), dataset.audit_reads - audit_start)
    result = TrainResult(model=model, match=match, estimated_counts=estimated,
                         metrics_rows=metrics_rows, losses=losses,
                         threshold_rows=threshold_rows, bias_rows=bias_rows, summary=summary,
                         dataset=dataset)
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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, columns, rows) -> None:
    """A header of ``columns``, then each row's values in that order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(value) for value in row] for row in rows)


def _json_dump(path: str, obj) -> None:
    """``obj`` as strict JSON: a NaN or an infinity raises ValueError, it is
    never written as a bare token."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_abort(run_dir: str, config: RunConfig, model: Model, snapshot: dict) -> None:
    os.makedirs(run_dir, exist_ok=True)
    _json_dump(os.path.join(run_dir, "abort.json"), snapshot)
    _json_dump(os.path.join(run_dir, "checkpoint.json"),
               network.model_to_checkpoint_obj(model, config.config_hash()))


def write_run_artifacts(run_dir: str, config: RunConfig, result: TrainResult) -> None:
    os.makedirs(run_dir, exist_ok=True)
    _json_dump(os.path.join(run_dir, "config.json"), config.to_json_obj())
    for name, rows in (("metrics.csv", result.metrics_rows),
                       ("thresholds.csv", result.threshold_rows),
                       ("bias.csv", result.bias_rows)):
        _write_csv(os.path.join(run_dir, name), rows[0], (row.values() for row in rows))
    # the step column is held as a float64 and written as the integer it is
    _write_csv(os.path.join(run_dir, "losses.csv"), LOSS_COLUMNS,
               ([int(row[0]), *row[1:]] for row in result.losses.tolist()))
    _json_dump(os.path.join(run_dir, "checkpoint.json"),
               network.model_to_checkpoint_obj(result.model, config.config_hash()))
    _json_dump(os.path.join(run_dir, "summary.json"), result.summary)
