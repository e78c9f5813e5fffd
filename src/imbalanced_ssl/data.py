"""Synthetic Gaussian-mixture classification tasks with controlled class counts.

Stands in for image benchmarks at desk scale: class centers are pseudo-random
unit directions scaled by ``spread`` (heterogeneous pairwise geometry, so
classes differ in difficulty), samples are isotropic Gaussians around them,
and the labeled/unlabeled/test splits follow exact per-class counts.

Unlabeled ground truth is quarantined: it is stored on the dataset but every
read goes through ``unlabeled_true_labels()``, which increments an audit
counter.  Training code must finish with the counter untouched; only
evaluation and oracle tests may pay the toll.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import TaskSection

__all__ = [
    "Dataset",
    "class_centers",
    "generate",
    "weak_augment_batch",
    "strong_augment_batch",
]

# Seed-stream tags: generation draws centers, labeled, unlabeled, and test
# samples from default_rng([seed, tag]) so the splits are independent and
# reproducible.
_CENTER_STREAM = 0
_LABELED_STREAM = 1
_UNLABELED_STREAM = 2
_TEST_STREAM = 3


@dataclass
class Dataset:
    """Labeled/unlabeled/test splits with exact class counts.

    ``audit_reads`` counts every access to the unlabeled ground truth.
    """

    task: TaskSection  # its seed resolved
    centers: np.ndarray
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    _unlabeled_y: np.ndarray = field(repr=False)
    audit_reads: int = 0

    def unlabeled_true_labels(self) -> np.ndarray:
        """Ground truth of the unlabeled split.  Every call is audited;
        the training path must never take it."""
        self.audit_reads += 1
        return self._unlabeled_y.copy()

    def labeled_counts(self) -> np.ndarray:
        return np.bincount(self.labeled_y, minlength=self.task.k)

    @property
    def n_unlabeled(self) -> int:
        return int(self.unlabeled_x.shape[0])


def class_centers(task: TaskSection) -> np.ndarray:
    """K pseudo-random unit directions scaled by spread, redrawn until all
    pairwise distances reach spread/2; a task whose K centers do not fit in
    D dims that way is a ValueError."""
    rng = np.random.default_rng([task.seed, _CENTER_STREAM])
    centers = np.empty((task.k, task.d), dtype=np.float64)
    min_dist = task.spread / 2.0
    for k in range(task.k):
        for _ in range(10_000):
            v = rng.standard_normal(task.d)
            norm = float(np.linalg.norm(v))
            if norm < 1e-12:
                continue
            candidate = v / norm * task.spread
            if k == 0 or np.min(np.linalg.norm(centers[:k] - candidate, axis=1)) >= min_dist:
                centers[k] = candidate
                break
        else:
            raise ValueError(
                f"could not place {task.k} centers at pairwise distance >= {min_dist} in {task.d} dims"
            )
    return centers


def _as_counts(counts: np.ndarray, k: int, name: str) -> np.ndarray:
    """``counts`` as int64; every entry must be a nonnegative, exactly
    integral number that an int64 holds, one per class."""
    arr = np.asarray(counts)
    if not (np.abs(arr) < 2.0 ** 63).all():  # also false for a NaN
        raise ValueError(f"{name} counts must be finite and fit in an int64")
    if not np.array_equal(arr, np.rint(arr)):
        raise ValueError(f"{name} counts must be integers")
    if np.any(arr < 0):
        raise ValueError(f"{name} counts must be nonnegative")
    if arr.shape != (k,):
        raise ValueError(f"{name} counts have shape {arr.shape}, task has {k} classes")
    return arr.astype(np.int64)


def _sample_split(centers: np.ndarray, counts: np.ndarray, noise: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    k, d = centers.shape
    xs = []
    ys = []
    for cls in range(k):
        n = int(counts[cls])
        if n == 0:
            continue
        xs.append(centers[cls] + noise * rng.standard_normal((n, d)))
        ys.append(np.full(n, cls, dtype=np.int64))
    if not xs:
        return np.empty((0, d), dtype=np.float64), np.empty(0, dtype=np.int64)
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)


def generate(task: TaskSection, labeled_counts: np.ndarray, unlabeled_counts: np.ndarray,
             test_per_class: int) -> Dataset:
    """Draw the three splits.  Per-class histograms equal the requested
    counts (integral arrays, such as ``make_distribution`` returns) exactly;
    the test split is balanced at ``test_per_class``.

    An all-zero unlabeled count vector is allowed (purely supervised runs).
    ``task.seed`` must be resolved (``RunConfig.resolved_task``).
    """
    if task.seed is None:
        raise ValueError("the task seed must be resolved before generating")
    if test_per_class < 1:
        raise ValueError("test_per_class must be >= 1")
    labeled_counts = _as_counts(labeled_counts, task.k, "labeled")
    unlabeled_counts = _as_counts(unlabeled_counts, task.k, "unlabeled")
    centers = class_centers(task)
    lx, ly = _sample_split(centers, labeled_counts, task.noise,
                           np.random.default_rng([task.seed, _LABELED_STREAM]))
    ux, uy = _sample_split(centers, unlabeled_counts, task.noise,
                           np.random.default_rng([task.seed, _UNLABELED_STREAM]))
    tx, ty = _sample_split(centers, np.full(task.k, test_per_class, dtype=np.int64),
                           task.noise, np.random.default_rng([task.seed, _TEST_STREAM]))
    return Dataset(task=task, centers=centers, labeled_x=lx, labeled_y=ly,
                   unlabeled_x=ux, test_x=tx, test_y=ty, _unlabeled_y=uy)


def weak_augment_batch(x: np.ndarray, noise: float, strength: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian jitter: x + N(0, (strength*noise)^2 I)."""
    return x + (strength * noise) * rng.standard_normal(x.shape)


def strong_augment_batch(x: np.ndarray, noise: float, strength: float, dropout: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Heavy corruption: Gaussian noise at ``strength*noise`` plus independent
    zeroing of each coordinate with probability ``dropout``."""
    out = x + (strength * noise) * rng.standard_normal(x.shape)
    if dropout > 0.0:
        keep = rng.random(x.shape) >= dropout
        out = out * keep
    return out
