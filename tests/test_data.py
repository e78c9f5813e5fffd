"""Synthetic Gaussian-cluster task: counts, determinism, augmentation, audit."""

import csv

import numpy as np
import pytest

from imbalanced_ssl.config import RunConfig, TaskSection, TrainSection
from imbalanced_ssl.data import (
    Dataset,
    class_centers,
    generate,
    strong_augment_batch,
    weak_augment_batch,
)
from imbalanced_ssl.distributions import make_distribution


TASK = TaskSection(k=10, d=16, spread=4.0, noise=1.0, seed=0)


def _small_dataset(seed=0):
    task = TaskSection(k=4, d=6, spread=5.0, noise=0.5, seed=seed)
    labeled = np.array([20, 10, 5, 2])
    unlabeled = np.array([8, 16, 24, 40])
    return task, generate(task, labeled, unlabeled, test_per_class=30)


def test_centers_shape_and_separation():
    centers = class_centers(TASK)
    assert centers.shape == (10, 16)
    norms = np.linalg.norm(centers, axis=1)
    assert np.allclose(norms, 4.0)
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.linalg.norm(centers[i] - centers[j]) >= 2.0


def test_centers_deterministic_per_seed():
    a = class_centers(TASK)
    b = class_centers(TaskSection(k=10, d=16, spread=4.0, noise=1.0, seed=0))
    c = class_centers(TaskSection(k=10, d=16, spread=4.0, noise=1.0, seed=1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_counts_are_exact():
    task, ds = _small_dataset()
    assert ds.labeled_counts().tolist() == [20, 10, 5, 2]
    assert np.bincount(ds.unlabeled_true_labels(), minlength=4).tolist() == [
        8, 16, 24, 40]
    test_x, test_y = ds.test_split()
    assert np.bincount(test_y, minlength=4).tolist() == [30] * 4
    assert ds.labeled_x.shape == (37, 6)
    assert ds.unlabeled_x.shape == (88, 6)
    assert test_x.shape == (120, 6)


def test_generation_deterministic():
    _, a = _small_dataset(seed=7)
    _, b = _small_dataset(seed=7)
    _, c = _small_dataset(seed=8)
    assert np.array_equal(a.labeled_x, b.labeled_x)
    assert np.array_equal(a.unlabeled_x, b.unlabeled_x)
    assert np.array_equal(a.test_split()[0], b.test_split()[0])
    assert not np.array_equal(a.labeled_x, c.labeled_x)


def test_accepts_make_distribution_counts():
    task = TaskSection(k=10, d=8, spread=4.0, noise=1.0, seed=3)
    labeled = make_distribution("consist", 10, 50, 100.0, False)
    unlabeled = make_distribution("inverse", 10, 100, 100.0, False)
    assert labeled.dtype == unlabeled.dtype == np.int64
    ds = generate(task, labeled, unlabeled, test_per_class=10)
    assert ds.labeled_counts().tolist() == labeled.tolist()
    assert np.bincount(ds.unlabeled_true_labels(), minlength=10).tolist() == unlabeled.tolist()


def test_audit_counter_tracks_ground_truth_reads():
    _, ds = _small_dataset()
    assert ds.audit_reads == 0
    ds.unlabeled_true_labels()
    ds.unlabeled_true_labels()
    assert ds.audit_reads == 2
    # the returned array is a copy, the stored one stays private
    ys = ds.unlabeled_true_labels()
    ys[:] = -1
    assert ds.unlabeled_true_labels().min() >= 0


def test_samples_cluster_around_their_centers():
    task, ds = _small_dataset()
    centers = class_centers(task)
    d = np.linalg.norm(ds.labeled_x - centers[ds.labeled_y], axis=1)
    # noise 0.5 in 6 dims: distances concentrate near 0.5*sqrt(6) ~ 1.22
    assert d.mean() < 2.5
    far = np.linalg.norm(ds.labeled_x - centers[(ds.labeled_y + 1) % 4], axis=1)
    assert far.mean() > d.mean()


def test_weak_augment_is_mild_and_seeded():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    x = np.random.default_rng(0).normal(size=(50, 6))
    a = weak_augment_batch(x, noise=0.5, strength=0.25, rng=rng1)
    b = weak_augment_batch(x, noise=0.5, strength=0.25, rng=rng2)
    assert np.array_equal(a, b)
    assert a.shape == x.shape
    assert not np.array_equal(a, x)
    drift = np.linalg.norm(a - x, axis=1).mean()
    assert 0.0 < drift < 1.0


def test_strong_augment_perturbs_more_and_drops_coordinates():
    x = np.abs(np.random.default_rng(1).normal(size=(200, 8))) + 1.0
    weak = weak_augment_batch(x, noise=0.5, strength=0.25,
                              rng=np.random.default_rng(5))
    strong = strong_augment_batch(x, noise=0.5, strength=1.0, dropout=0.2,
                                  rng=np.random.default_rng(5))
    assert strong.shape == x.shape
    w = np.linalg.norm(weak - x, axis=1).mean()
    s = np.linalg.norm(strong - x, axis=1).mean()
    assert s > w
    zero_frac = (strong == 0.0).mean()
    assert 0.1 < zero_frac < 0.3


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
        for x, y in zip(*dataset.test_split()):
            writer.writerow(["test", int(y)] + [repr(float(v)) for v in x])


def test_csv_export_byte_stable(tmp_path):
    _, ds = _small_dataset()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dataset_to_csv(ds, str(p1))
    dataset_to_csv(ds, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.count(b"\r") == 0
    header = b1.split(b"\n", 1)[0].decode()
    assert "split" in header


def test_spec_validation():
    with pytest.raises(ValueError):
        TaskSection(k=1, d=4, spread=4.0, noise=1.0, seed=0)
    with pytest.raises(ValueError):
        TaskSection(k=3, d=0, spread=4.0, noise=1.0, seed=0)
    with pytest.raises(ValueError):
        TaskSection(k=3, d=4, spread=-1.0, noise=1.0, seed=0)
    with pytest.raises(ValueError, match="could not place"):
        class_centers(TaskSection(k=50, d=2, seed=0))
    # generate trusts build_dataset's task, whose null seed follows the run's
    cfg = RunConfig(task=TaskSection(k=3, d=4), train=TrainSection(seed=7))
    assert cfg.build_dataset().task.seed == 7
