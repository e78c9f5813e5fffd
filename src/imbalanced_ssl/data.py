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

from collections.abc import Iterator, Sequence
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

    ``audit_reads`` counts every access to the unlabeled ground truth.  The
    test split, ``test_per_class`` rows of each class around ``centers``, is
    not held: it is drawn when it is read, whole by ``test_split`` or a
    block at a time by ``test_blocks``, the same rows each way.
    """

    task: TaskSection  # its seed resolved
    centers: np.ndarray = field(repr=False)
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    _unlabeled_y: np.ndarray = field(repr=False)
    test_per_class: int
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

    @property
    def n_test(self) -> int:
        return self.task.k * self.test_per_class

    def _test_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.task.seed, _TEST_STREAM])

    def test_split(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole test split, rows and labels, drawn afresh and not kept."""
        counts = np.full(self.task.k, self.test_per_class, dtype=np.int64)
        return _sample_split(self.centers, counts, self.task.noise, self._test_rng())

    def test_blocks(self, bounds: Sequence[tuple[int, int]]
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The test rows and labels of each (start, stop) of ``bounds``,
        which tile [0, n_test) in order: the rows of ``test_split``, bit for
        bit, but each block drawn from the split's stream only when it is
        reached, into one buffer of the largest block, so a block's rows
        are valid until the next block is drawn."""
        rng = self._test_rng()
        counts = [self.test_per_class] * self.task.k
        buffer = np.empty((max(stop - start for start, stop in bounds), self.task.d))
        for start, stop in bounds:
            rows = buffer[:stop - start]
            _draw_rows(rows, start, self.centers, counts, self.task.noise, rng)
            yield rows, np.arange(start, stop, dtype=np.int64) // self.test_per_class


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


def _draw_rows(out: np.ndarray, start: int, centers: np.ndarray, counts: list[int],
               noise: float, rng: np.random.Generator) -> None:
    """Rows [start, start + len(out)) of a split of counts[c] rows around
    each center c in class order, drawn into ``out`` as
    center + noise * N(0, I) from the next len(out) rows of ``rng``'s
    stream."""
    stop = start + out.shape[0]
    rng.standard_normal(out=out)
    out *= noise
    at = 0
    for cls, n in enumerate(counts):
        if at >= stop:
            break
        lo, hi = max(at, start), min(at + n, stop)
        if lo < hi:
            out[lo - start:hi - start] += centers[cls]
        at += n


def _sample_split(centers: np.ndarray, counts: np.ndarray, noise: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """counts[c] rows around each center c in class order, drawn into one
    preallocated array by ``_draw_rows``, and the labels."""
    x = np.empty((int(counts.sum()), centers.shape[1]), dtype=np.float64)
    _draw_rows(x, 0, centers, counts.tolist(), noise, rng)
    return x, np.repeat(np.arange(centers.shape[0], dtype=np.int64), counts)


def generate(task: TaskSection, labeled_counts: np.ndarray, unlabeled_counts: np.ndarray,
             test_per_class: int) -> Dataset:
    """Draw the labeled and unlabeled splits; the test split, balanced at
    ``test_per_class``, is drawn when it is read (``Dataset.test_split``).
    Per-class histograms equal the requested counts exactly.  The inputs
    are ``RunConfig.build_dataset``'s: the task with its seed resolved,
    ``make_distribution``'s (K,) int64 counts, and the checked
    ``DataSection.test_per_class``.
    """
    centers = class_centers(task)
    lx, ly = _sample_split(centers, labeled_counts, task.noise,
                           np.random.default_rng([task.seed, _LABELED_STREAM]))
    ux, uy = _sample_split(centers, unlabeled_counts, task.noise,
                           np.random.default_rng([task.seed, _UNLABELED_STREAM]))
    return Dataset(task=task, centers=centers, labeled_x=lx, labeled_y=ly,
                   unlabeled_x=ux, _unlabeled_y=uy, test_per_class=test_per_class)


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
