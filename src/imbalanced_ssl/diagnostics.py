"""Measurement utilities: augmentation-stability rate, evaluation metrics,
and rank statistics for the bias-pattern report.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import data as synth
from . import network
from .control import VIEWS, predict
from .network import Model

__all__ = [
    "EvalReport",
    "separation_violation_rate",
    "evaluate",
    "spearman_correlation",
    "bias_pattern_report",
]


def separation_violation_rate(model: Model, samples: np.ndarray, n_aug: int, noise: float,
                              strength: float, dropout: float,
                              seed: int | Sequence[int]) -> float:
    """Fraction of samples whose output-head prediction flips under at least
    one of n_aug strong augmentations (n_aug >= 1, as ``TrainSection``
    checks ``probe_n_aug``), relative to the unaugmented prediction.
    The augmentations draw from ``np.random.default_rng(seed)``; the trainer
    seeds each epoch's probe with ``[train seed, stream, epoch]``.

    Empirical stand-in for the expansion assumption's violation rate; feeds
    the denoising bound 2c/(c-3)*mu.
    """
    x = np.asarray(samples, dtype=np.float64)
    base = predict(model, x, ("output",))[0]
    violated = np.zeros(x.shape[0], dtype=bool)
    rng = np.random.default_rng(seed)
    for _ in range(n_aug):
        aug = synth.strong_augment_batch(x, noise, strength, dropout, rng)
        violated |= predict(model, aug, ("output",))[0] != base
    return float(violated.mean())


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    balanced_accuracy: float
    per_class_recall: np.ndarray
    confusion: np.ndarray  # rows: true class, cols: predicted

    def recall_over(self, class_mask: np.ndarray) -> float:
        return float(self.per_class_recall[np.asarray(class_mask, dtype=bool)].mean())


def _report(confusion: np.ndarray) -> EvalReport:
    """The metrics of a (k, k) confusion matrix whose every row, a true
    class, holds a count, as the test split's ``DataSection.test_per_class``
    >= 1 rows of each class give."""
    hits = np.diag(confusion)
    recall = hits / confusion.sum(axis=1)
    return EvalReport(
        accuracy=float(hits.sum() / confusion.sum()),
        balanced_accuracy=float(recall.mean()),
        per_class_recall=recall,
        confusion=confusion,
    )


def evaluate(model: Model, blocks: Iterable[tuple[np.ndarray, np.ndarray]],
             views: Sequence[str] = VIEWS) -> dict[str, EvalReport]:
    """One report per view in ``views`` (every view of VIEWS by default)
    over the (rows, labels) pairs of ``blocks``: each block's predictions
    come from one ``predict`` call, each head's from its own logits and
    "calibrated" from the output head's bias-stripped logits, and are
    counted into one confusion matrix per view.  A whole test split is one
    block, ``[dataset.test_split()]``; ``Dataset.test_blocks`` of
    ``inference_blocks`` streams it with the same predictions.  Argmax ties
    go to the lowest class index; balanced accuracy is the mean per-class
    recall."""
    k = model.k
    confusion = np.zeros((len(views), k * k), dtype=np.int64)
    for x, y in blocks:
        cells = np.asarray(y) * k
        for counts, preds in zip(confusion, predict(model, x, views)):
            counts += np.bincount(cells + preds, minlength=k * k)
    return {view: _report(counts.reshape(k, k)) for view, counts in zip(views, confusion)}


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``, each tie group given the mean of its ranks."""
    _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inv]


def spearman_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Rank correlation of two (K,) vectors, K >= 2, with average ranks on
    ties; nan when either vector is constant (undefined, reported rather
    than failed)."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
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
