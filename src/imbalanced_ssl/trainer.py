"""End-to-end training: estimation phase, anchor matching, threshold
initialization, joint optimization of three heads, controller ticks, and
per-epoch measurement.

``train`` only orchestrates: ``_train_step`` runs one SGD step,
``_estimate_and_match`` closes the estimation phase, ``_epoch_rows`` measures
an epoch, and ``write_run_artifacts`` writes the run directory.  The run
record, one float64 array per CSV file, is allocated before the first step,
and each step and each epoch's measurement write their rows into it.

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
checkpoint.json only.  A reused run directory is cleared of these names
before the first step, so it never mixes two runs' files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import network
from .config import RunConfig
from .control import (VIEWS, ThresholdState, estimate_unlabeled_distribution,
                      extract_bias_vector, init_thresholds, update_thresholds)
from .data import Dataset, strong_augment_batch, weak_augment_batch
from .diagnostics import bias_pattern_report, evaluate, separation_violation_rate
from .distributions import AnchorMatch, AnchorSet, match_anchor
from .losses import LOSS_COLUMNS, LOSS_COMPONENTS, StepPlan, step_plan, total_loss
from .mixture import denoising_bound
from .network import Model, init_model, sgd_step

__all__ = [
    "TrainingAborted",
    "TrainResult",
    "THRESHOLD_COLUMNS",
    "metrics_columns",
    "bias_columns",
    "train",
    "write_run_artifacts",
]

# every file a run can write into its directory
_RUN_FILES = ("config.json", "metrics.csv", "losses.csv", "thresholds.csv", "bias.csv",
             "checkpoint.json", "summary.json", "abort.json")

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


# metrics.csv: these columns, then recall_<c> and hist_<head>_<c> (the
# pseudo-labels each head kept over the epoch) of every class c; the block
# from acc_original to denoise_bound is also the summary's "final" record
_METRICS_LEAD = ("epoch", *(f"{m}_{name}" for name in VIEWS for m in ("acc", "bacc")),
                 "recall_head", "recall_nonhead", "mu_hat", "denoise_bound",
                 "mask_rate_head", "mask_rate_nonhead")
_BOUND = _METRICS_LEAD.index("denoise_bound")
_SUMMARY = slice(1, _BOUND + 1)
THRESHOLD_COLUMNS = ("epoch", "class", "rho_b", "rho_e", "b_opt")


def metrics_columns(k: int) -> tuple[str, ...]:
    """The metrics.csv header of a run of k classes."""
    return (*_METRICS_LEAD, *(f"recall_{c}" for c in range(k)),
            *(f"hist_{name}_{c}" for name in network.HEAD_NAMES for c in range(k)))


def bias_columns(k: int) -> tuple[str, ...]:
    """The bias.csv header of a run of k classes."""
    return ("epoch", "head", *(f"b_{c}" for c in range(k)))


@dataclass
class TrainResult:
    """A finished run.  Its record is four float64 arrays, each allocated
    before the first step, one per CSV file:

    - ``metrics`` (epochs, len(metrics_columns(K))): one metrics.csv row per
      epoch in column order, the epoch and the hist_ counts held as floats
      and a denoise_bound from before the match as NaN;
    - ``losses`` (steps, len(LOSS_COLUMNS)): one losses.csv row per step;
    - ``thresholds`` (epochs, K, 3): each class's rho_b, rho_e and b_opt,
      an epoch's thresholds.csv rows;
    - ``bias`` (epochs, 3, K): each head's bias vector, heads in HEAD_NAMES
      order, an epoch's bias.csv rows.
    """

    model: Model
    match: AnchorMatch
    estimated_counts: np.ndarray
    metrics: np.ndarray
    losses: np.ndarray
    thresholds: np.ndarray
    bias: np.ndarray
    summary: dict
    dataset: Dataset


def _sample_batch(rng: np.random.Generator, x: np.ndarray, batch: int,
                  y: np.ndarray | None = None):
    idx = rng.integers(0, x.shape[0], size=batch)
    if y is None:
        return x[idx]
    return x[idx], y[idx]


def _train_step(model: Model, state: ThresholdState, plan: StepPlan, control: bool,
                dataset: Dataset, batch_rng: np.random.Generator,
                aug_rng: np.random.Generator, epoch: int, step: int, losses_row: np.ndarray,
                hist: np.ndarray) -> ThresholdState:
    """One SGD step on a fresh labeled batch and a weak/strong pair of one
    unlabeled batch (one backbone forward over all three, one backward), then
    one controller tick when ``control`` is on.  The run's ``plan`` holds the
    step's fixed inputs and its training section, whose constants the update
    and the tick read; ``state`` holds the thresholds and ``model`` the
    momentum buffer.

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
    t = plan.t
    xl, yl = _sample_batch(batch_rng, dataset.labeled_x, t.labeled_batch, dataset.labeled_y)
    xu = _sample_batch(batch_rng, dataset.unlabeled_x, t.unlabeled_batch)
    noise = dataset.task.noise
    weak = weak_augment_batch(xu, noise, t.weak_strength, aug_rng)
    strong = strong_augment_batch(xu, noise, t.strong_strength, t.dropout, aug_rng)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = total_loss(model, xl, yl, weak, strong, state, plan)
        losses_row[:] = [step, *(getattr(losses, col) for col in LOSS_COLUMNS[1:])]
        if not (losses.finite_logits and np.isfinite(losses.total)):
            # the row is the step, then the LOSS_COMPONENTS, then the mask rates
            components = (dict(zip(LOSS_COMPONENTS, map(_finite_or_none, losses_row[1:])))
                          if losses.finite_logits else None)
            what = "loss" if losses.finite_logits else "logits"
            raise TrainingAborted(f"non-finite {what} at step {step}",
                                  {"epoch": epoch, "step": step, "components": components})
        sgd_step(model, network.backward(model, losses.cache, losses.head_grads), t)
    hist += losses.kept
    if control:
        state = update_thresholds(state, model.heads["output"].b, t)
    return state


def _estimate_and_match(model: Model, dataset: Dataset, anchor_set: AnchorSet,
                        plan: StepPlan):
    """Close the estimation phase: histogram the calibrated predictions on
    the unlabeled split, KL-match it against the anchors, and initialize the
    thresholds from the matched anchor.  Returns (match, estimated, state,
    plan), the plan rebuilt with the 1/prior class weights of the matched
    anchor when ``reweight_unlabeled`` is on."""
    t = plan.t
    estimated = estimate_unlabeled_distribution(model, dataset.unlabeled_x)
    match = match_anchor(estimated, anchor_set)
    state = init_thresholds(match.expansion_factor, match.gamma_u, plan.head_classes, t)
    if t.reweight_unlabeled:
        inv = 1.0 / match.rescaled
        plan = step_plan(t, dataset.labeled_counts(), class_weights=inv / inv.mean())
    return match, estimated, state, plan


def _epoch_rows(model: Model, dataset: Dataset, test: list[tuple[np.ndarray, np.ndarray]],
                plan: StepPlan, probe: np.ndarray, match: AnchorMatch | None,
                state: ThresholdState, epoch: int, epoch_losses: np.ndarray, hist: np.ndarray,
                metrics: np.ndarray, thresholds: np.ndarray, bias: np.ndarray) -> None:
    """One epoch's measurement, written into its rows of the run record:
    ``metrics`` its metrics.csv row, ``thresholds`` its (K, 3) and ``bias``
    its (3, K) block (see TrainResult).  The probe constants and the head
    mask are the plan's.  ``test`` is the whole test split as one evaluation
    block.  ``epoch_losses`` is the epoch's rows of the loss record and
    ``hist`` the (3, K) count of the pseudo-labels each head kept over the
    epoch, rows in HEAD_NAMES order."""
    k, t, head_classes = model.k, plan.t, plan.head_classes
    reports = evaluate(model, test)
    cal = reports["calibrated"]
    mu_hat = separation_violation_rate(
        model, probe, t.probe_n_aug, dataset.task.noise,
        strength=t.strong_strength, dropout=t.dropout,
        seed=[t.seed, _PROBE_AUG_STREAM, epoch])
    lead = len(_METRICS_LEAD)
    metrics[:lead] = (
        epoch, *(v for name in VIEWS
                 for v in (reports[name].accuracy, reports[name].balanced_accuracy)),
        cal.recall_over(head_classes), cal.recall_over(~head_classes), mu_hat,
        denoising_bound(match.expansion_factor, mu_hat) if match is not None else np.nan,
        # the mask rates, the loss record's last two columns
        *epoch_losses[:, -2:].mean(axis=0))
    metrics[lead:lead + k] = cal.per_class_recall
    metrics[lead + k:] = hist.ravel()
    thresholds[:, :2] = state.thresholds[1:].T
    thresholds[:, 2] = extract_bias_vector(model)
    bias[:] = model.head_b.reshape(bias.shape)


def train(config: RunConfig, dataset: Dataset | None = None,
          run_dir: str | None = None) -> TrainResult:
    """Run the full pipeline.  Deterministic per (config, seed); never reads
    unlabeled ground truth (the dataset audit counter must not move).
    ``run_dir`` is created before the first step, so a path that cannot be
    a directory fails at once, and any of _RUN_FILES a run left there before
    is deleted.  A given ``dataset`` has a nonempty unlabeled split, as
    ``build_dataset``'s has (``DataSection`` checks unlabeled_max >= 1)."""
    if dataset is None:
        dataset = config.build_dataset()
    # the whole test split as one block, which each epoch's measurement
    # evaluates, is drawn before the first step: drawn at the first
    # measurement instead, it moved the heap under the steps' arrays so that
    # every later step page-faulted them afresh (train-default under glibc
    # 2.36: 540 -> 108,000 minor faults a run, 19% more run time).  It is
    # released before the artifacts are written, the run's peak of memory
    test = [dataset.test_split()]
    audit_start = dataset.audit_reads
    t = config.train
    k = dataset.task.k

    model = init_model(k, dataset.task.d, t.hidden, t.feature, t.seed)
    plan = step_plan(t, dataset.labeled_counts())
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        # a reused directory holds one run's files: the last run's
        for name in _RUN_FILES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(run_dir, name))
    anchor_set = config.anchors.build(k)
    state = ThresholdState(np.full((len(network.HEAD_NAMES), k), t.rho_max))

    batch_rng = np.random.default_rng([t.seed, _BATCH_STREAM])
    aug_rng = np.random.default_rng([t.seed, _AUG_STREAM])
    probe_rng = np.random.default_rng([t.seed, _PROBE_STREAM])
    probe_n = min(t.probe_size, dataset.n_unlabeled)
    probe = dataset.unlabeled_x[probe_rng.choice(dataset.n_unlabeled, size=probe_n,
                                                 replace=False)].copy()

    est_epochs = t.resolved_estimation_epochs()
    match = estimated = None
    if est_epochs == 0:
        match, estimated, state, plan = _estimate_and_match(model, dataset, anchor_set, plan)

    # the run record; RunConfig._array_sizes caps the loss record's size at load
    losses = np.empty((t.epochs * t.steps_per_epoch, len(LOSS_COLUMNS)))
    metrics = np.empty((t.epochs, len(metrics_columns(k))))
    thresholds = np.empty((t.epochs, k, 3))
    bias = np.empty((t.epochs, len(network.HEAD_NAMES), k))
    try:
        for epoch in range(t.epochs):
            hist = np.zeros((len(network.HEAD_NAMES), k), dtype=np.int64)
            first = epoch * t.steps_per_epoch
            for step in range(first, first + t.steps_per_epoch):
                state = _train_step(model, state, plan, match is not None, dataset,
                                    batch_rng, aug_rng, epoch, step, losses[step], hist)
            # the step checks the logits from before its update; the epoch's
            # last update is checked here, by the parameters and by the
            # measurement that reads them
            snapshot = {"epoch": epoch, "step": step, "components": None}
            if not np.isfinite(model.flat).all():
                raise TrainingAborted(f"non-finite parameters after step {step}", snapshot)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    if epoch == est_epochs - 1:
                        match, estimated, state, plan = _estimate_and_match(
                            model, dataset, anchor_set, plan)
                    _epoch_rows(model, dataset, test, plan, probe, match, state, epoch,
                                losses[first:step + 1], hist, metrics[epoch],
                                thresholds[epoch], bias[epoch])
            except FloatingPointError as exc:
                raise TrainingAborted(f"parameters after step {step} overflow the epoch's "
                                      f"measurement ({exc})", snapshot) from exc
    except TrainingAborted as err:
        if run_dir is not None:
            _write_abort(run_dir, config, model, err.snapshot)
        raise

    summary = _summary(config, dataset, model, match, estimated, metrics[-1],
                       len(losses), dataset.audit_reads - audit_start)
    result = TrainResult(model=model, match=match, estimated_counts=estimated,
                         metrics=metrics, losses=losses, thresholds=thresholds, bias=bias,
                         summary=summary, dataset=dataset)
    del test
    if run_dir is not None:
        write_run_artifacts(run_dir, config, result)
    return result


def _finite_or_none(v):
    f = float(v)
    return f if np.isfinite(f) else None


def _summary(config: RunConfig, dataset: Dataset, model: Model, match: AnchorMatch,
             estimated: np.ndarray, final: np.ndarray, steps: int,
             audit_reads: int) -> dict:
    """The run's summary.json, given the last metrics row; a finished run
    has matched (the estimation phase ends by the last epoch)."""
    correlations = bias_pattern_report(model, dataset.labeled_counts())
    return {
        "config_hash": config.config_hash(),
        "o_star": match.kind,
        "o_star_index": match.index,
        "c": match.expansion_factor,
        "gamma_u": _finite_or_none(match.gamma_u),
        "kl_values": [float(v) for v in match.kl_values],
        "estimated_counts": [int(v) for v in estimated],
        "steps": steps,
        "audit_reads": audit_reads,
        "bias_spearman": {name: _finite_or_none(v) for name, v in correlations.items()},
        "final": dict(zip(_METRICS_LEAD[_SUMMARY], map(_finite_or_none, final[_SUMMARY]))),
    }


def _write_csv(path: str, columns, rows) -> None:
    """A header of ``columns``, then each row's values in that order, as the
    csv module writes them: a float as its shortest repr, None as an empty
    cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _json_dump(path: str, obj) -> None:
    """``obj`` as strict JSON: a NaN or an infinity raises ValueError, it is
    never written as a bare token."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_abort(run_dir: str, config: RunConfig, model: Model, snapshot: dict) -> None:
    _json_dump(os.path.join(run_dir, "abort.json"), snapshot)
    network.write_checkpoint(os.path.join(run_dir, "checkpoint.json"), model,
                             config.config_hash())


def _metrics_cells(metrics: np.ndarray, k: int):
    """metrics.csv rows of the record of a run of k classes: the epoch and
    the hist_ counts as the integers they are, a NaN denoise_bound (before
    the match) as an empty cell."""
    hist = len(_METRICS_LEAD) + k  # after the recall_<c> columns
    for row in metrics:
        cells = row.tolist()
        cells[0] = int(cells[0])
        if math.isnan(cells[_BOUND]):
            cells[_BOUND] = None
        cells[hist:] = map(int, cells[hist:])
        yield cells


def write_run_artifacts(run_dir: str, config: RunConfig, result: TrainResult) -> None:
    """Write the run directory.  Each CSV row becomes Python objects one at
    a time, and the checkpoint a few values at a time, never a whole record."""
    os.makedirs(run_dir, exist_ok=True)
    k = result.model.k
    _json_dump(os.path.join(run_dir, "config.json"), config.to_json_obj())
    _write_csv(os.path.join(run_dir, "metrics.csv"), metrics_columns(k),
               _metrics_cells(result.metrics, k))
    # the step column is held as a float64 and written as the integer it is
    _write_csv(os.path.join(run_dir, "losses.csv"), LOSS_COLUMNS,
               ([int(row[0]), *row[1:].tolist()] for row in result.losses))
    _write_csv(os.path.join(run_dir, "thresholds.csv"), THRESHOLD_COLUMNS,
               ([epoch, c, *row.tolist()] for epoch, block in enumerate(result.thresholds)
                for c, row in enumerate(block)))
    _write_csv(os.path.join(run_dir, "bias.csv"), bias_columns(k),
               ([epoch, name, *row.tolist()] for epoch, block in enumerate(result.bias)
                for name, row in zip(network.HEAD_NAMES, block)))
    network.write_checkpoint(os.path.join(run_dir, "checkpoint.json"), result.model,
                             config.config_hash())
    _json_dump(os.path.join(run_dir, "summary.json"), result.summary)
