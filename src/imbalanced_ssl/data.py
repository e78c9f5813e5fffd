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

import csv
from dataclasses import dataclass, field

import numpy as np

from .distributions import ClassDistribution

__all__ = [
    "TaskSpec",
    "Dataset",
    "class_centers",
    "generate",
    "weak_augment_batch",
    "strong_augment_batch",
    "dataset_to_csv",
]

DEFAULT_STRONG_STRENGTH = 1.0
DEFAULT_DROPOUT = 0.2

# Seed-stream tags: generation draws centers, labeled, unlabeled, and test
# samples from default_rng([seed, tag]) so the splits are independent and
# reproducible.
_CENTER_STREAM = 0
_LABELED_STREAM = 1
_UNLABELED_STREAM = 2
_TEST_STREAM = 3


@dataclass(frozen=True)
class TaskSpec:
    """Geometry of the synthetic task.

    ``spread`` scales the unit-direction class centers; ``noise`` is the
    isotropic per-class standard deviation and also the base scale for the
    augmentation operators.
    """

    k: int = 10
    d: int = 16
    spread: float = 4.0
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not (self.spread > 0.0 and np.isfinite(self.spread)):
            raise ValueError("spread must be a positive finite real")
        if not (self.noise > 0.0 and np.isfinite(self.noise)):
            raise ValueError("noise must be a positive finite real")


@dataclass
class Dataset:
    """Labeled/unlabeled/test splits with exact class counts.

    ``audit_reads`` counts every access to the unlabeled ground truth.
    """

    task: TaskSpec
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
    def n_labeled(self) -> int:
        return int(self.labeled_x.shape[0])

    @property
    def n_unlabeled(self) -> int:
        return int(self.unlabeled_x.shape[0])


def class_centers(task: TaskSpec) -> np.ndarray:
    """K pseudo-random unit directions scaled by spread, redrawn until all
    pairwise distances reach spread/2."""
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
            raise RuntimeError(
                f"could not place {task.k} centers at pairwise distance >= {min_dist} in {task.d} dims"
            )
    return centers


def _as_counts(dist: ClassDistribution | np.ndarray, k: int, name: str) -> np.ndarray:
    if isinstance(dist, ClassDistribution):
        counts = dist.int_counts()
    else:
        arr = np.asarray(dist)
        counts = np.rint(arr).astype(np.int64)
        if not np.allclose(arr, counts):
            raise ValueError(f"{name} counts must be integers")
        if np.any(counts < 0):
            raise ValueError(f"{name} counts must be nonnegative")
    if counts.size != k:
        raise ValueError(f"{name} distribution has length {counts.size}, task has {k} classes")
    return counts


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


def generate(task: TaskSpec, labeled_dist: ClassDistribution | np.ndarray,
             unlabeled_dist: ClassDistribution | np.ndarray,
             test_per_class: int) -> Dataset:
    """Draw the three splits.  Per-class histograms equal the requested
    counts exactly; the test split is balanced at ``test_per_class``.

    An all-zero unlabeled count vector is allowed (purely supervised runs).
    """
    if test_per_class < 1:
        raise ValueError("test_per_class must be >= 1")
    labeled_counts = _as_counts(labeled_dist, task.k, "labeled")
    unlabeled_counts = _as_counts(unlabeled_dist, task.k, "unlabeled")
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


def dataset_to_csv(dataset: Dataset, path: str) -> None:
    """Inspection dump: split, class, x_0..x_{D-1}.  Unlabeled rows carry
    class -1 so the dump never leaks hidden labels."""
    d = dataset.task.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["split", "class"] + [f"x_{i}" for i in range(d)])
        for x, y in zip(dataset.labeled_x, dataset.labeled_y):
            writer.writerow(["labeled", int(y)] + [repr(float(v)) for v in x])
        for x in dataset.unlabeled_x:
            writer.writerow(["unlabeled", -1] + [repr(float(v)) for v in x])
        for x, y in zip(dataset.test_x, dataset.test_y):
            writer.writerow(["test", int(y)] + [repr(float(v)) for v in x])
