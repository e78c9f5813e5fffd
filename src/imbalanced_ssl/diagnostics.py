"""Measurement utilities: augmentation-stability rate, evaluation metrics,
and rank statistics for the bias-pattern report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import data as synth
from . import network
from .control import calibrate_logits
from .network import Model

__all__ = [
    "EvalReport",
    "separation_violation_rate",
    "evaluate",
    "spearman_correlation",
    "bias_pattern_report",
]


def _predict_output(model: Model, x: np.ndarray) -> np.ndarray:
    feats = network.forward_features(model, x)
    return np.argmax(network.head_logits(model.heads["output"], feats), axis=1)


def separation_violation_rate(model: Model, samples: np.ndarray, n_aug: int, noise: float,
                              strength: float, dropout: float,
                              seed: int | Sequence[int]) -> float:
    """Fraction of samples whose output-head prediction flips under at least
    one of n_aug strong augmentations, relative to the unaugmented prediction.
    The augmentations draw from ``np.random.default_rng(seed)``; the trainer
    seeds each epoch's probe with ``[train seed, stream, epoch]``.

    Empirical stand-in for the expansion assumption's violation rate; feeds
    the denoising bound 2c/(c-3)*mu.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("samples must be a nonempty (N, D) array")
    if n_aug < 1:
        raise ValueError("n_aug must be >= 1")
    base = _predict_output(model, x)
    violated = np.zeros(x.shape[0], dtype=bool)
    rng = np.random.default_rng(seed)
    for _ in range(n_aug):
        aug = synth.strong_augment_batch(x, noise, strength, dropout, rng)
        violated |= _predict_output(model, aug) != base
    return float(violated.mean())


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    balanced_accuracy: float
    per_class_recall: np.ndarray
    confusion: np.ndarray  # rows: true class, cols: predicted

    def recall_over(self, class_mask: np.ndarray) -> float:
        return float(self.per_class_recall[np.asarray(class_mask, dtype=bool)].mean())


def _report(preds: np.ndarray, y: np.ndarray, k: int) -> EvalReport:
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    row = confusion.sum(axis=1)
    if np.any(row == 0):
        raise ValueError("every class needs at least one test sample")
    recall = np.diag(confusion) / row
    return EvalReport(
        accuracy=float((preds == y).mean()),
        balanced_accuracy=float(recall.mean()),
        per_class_recall=recall,
        confusion=confusion,
    )


def evaluate(model: Model, test_x: np.ndarray, test_y: np.ndarray) -> dict[str, EvalReport]:
    """One report per view, all from one backbone forward: each head in
    HEAD_NAMES predicts from its own logits, and "calibrated" from the output
    head's bias-stripped logits.  Argmax ties go to the lowest class index;
    balanced accuracy is the mean per-class recall."""
    x = np.asarray(test_x, dtype=np.float64)
    y = np.asarray(test_y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("test set must be nonempty")
    feats = network.forward_features(model, x)
    logits = {name: network.head_logits(model.heads[name], feats)
              for name in network.HEAD_NAMES}
    logits["calibrated"] = calibrate_logits(model, feats)
    return {view: _report(np.argmax(z, axis=1), y, model.k) for view, z in logits.items()}


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``, each tie group given the mean of its ranks."""
    _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inv]


def spearman_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Rank correlation with average ranks on ties; nan when either vector is
    constant (undefined, reported rather than failed)."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("inputs must be equal-length vectors of size >= 2")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return float("nan")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def bias_pattern_report(model: Model, labeled_counts: np.ndarray) -> dict[str, float]:
    """Spearman correlation of each head's bias vector against the labeled
    class counts: (original, output, expansive)."""
    counts = np.asarray(labeled_counts, dtype=np.float64)
    return {name: spearman_correlation(model.heads[name].b, counts)
            for name in network.HEAD_NAMES}
