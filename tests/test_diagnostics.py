"""Evaluation reports, rank correlation, augmentation-stability probe."""

import numpy as np
import pytest
from scipy.stats import rankdata, spearmanr

from imbalanced_ssl.config import TaskSection, TrainSection
from imbalanced_ssl.data import generate
from imbalanced_ssl.diagnostics import (
    _average_ranks,
    bias_pattern_report,
    evaluate,
    separation_violation_rate,
    spearman_correlation,
)
from imbalanced_ssl.network import init_model


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 6, size=12).astype(float)
        b = rng.integers(0, 6, size=12).astype(float)
        assert np.array_equal(_average_ranks(a), rankdata(a))
        want = spearmanr(a, b).statistic
        got = spearman_correlation(a, b)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_spearman_extremes_and_constant():
    x = np.arange(8.0)
    assert spearman_correlation(x, 3 * x + 2) == pytest.approx(1.0)
    assert spearman_correlation(x, -x) == pytest.approx(-1.0)
    assert np.isnan(spearman_correlation(x, np.full(8, 1.0)))


def _separable():
    task = TaskSection(k=4, d=8, spread=12.0, noise=0.3, seed=1)
    return task, generate(task, np.array([40] * 4), np.array([10] * 4),
                          test_per_class=50)


def _train_quick(task, ds, steps=300):
    # a few plain supervised steps are enough on a widely separated task
    from imbalanced_ssl.losses import cross_entropy_with_grad
    from imbalanced_ssl.network import (OptimizerState, backward,
                                        forward_features_cached, head_logits,
                                        init_model, sgd_step)
    m = init_model(k=task.k, d=task.d, hidden=(32, 32), feature=16, seed=0)
    t = TrainSection()
    st = OptimizerState(0.01, t.momentum, t.weight_decay)
    rng = np.random.default_rng(2)
    for _ in range(steps):
        idx = rng.integers(0, ds.labeled_x.shape[0], size=32)
        f, cache = forward_features_cached(m, ds.labeled_x[idx])
        grads_all = []
        for h in ("original", "output", "expansive"):
            z = head_logits(m.heads[h], f)
            _, g = cross_entropy_with_grad(z, ds.labeled_y[idx])
            grads_all.append(g)
        sgd_step(m, backward(m, cache, np.stack(grads_all, axis=1)), st)
    return m


def test_evaluate_on_a_separable_task():
    task, ds = _separable()
    m = _train_quick(task, ds)
    rep = evaluate(m, ds.test_x, ds.test_y)["output"]
    assert rep.balanced_accuracy > 0.98
    assert rep.accuracy > 0.98
    assert rep.confusion.shape == (4, 4)
    assert rep.confusion.sum(axis=1).tolist() == [50] * 4
    assert np.allclose(rep.per_class_recall,
                       np.diag(rep.confusion) / 50.0)
    assert rep.balanced_accuracy == pytest.approx(rep.per_class_recall.mean())


def test_evaluate_head_selection_and_calibration_flag():
    task, ds = _separable()
    m = init_model(k=4, d=8, hidden=(6,), feature=4, seed=5)
    m.heads["output"].b[:] = [50.0, 0.0, 0.0, 0.0]
    reports = evaluate(m, ds.test_x, ds.test_y)
    assert set(reports) == {"original", "output", "expansive", "calibrated"}
    skewed, fixed = reports["output"], reports["calibrated"]
    assert skewed.per_class_recall[0] == 1.0  # bias drowns everything
    assert fixed.per_class_recall.tolist() != skewed.per_class_recall.tolist()


def test_recall_over_masks():
    task, ds = _separable()
    m = _train_quick(task, ds)
    rep = evaluate(m, ds.test_x, ds.test_y)["output"]
    mask = np.array([True, True, False, False])
    assert rep.recall_over(mask) == pytest.approx(rep.per_class_recall[:2].mean())


def test_separation_violation_rate_bounds_and_determinism():
    task, ds = _separable()
    m = _train_quick(task, ds)
    t = TrainSection()
    aug = dict(n_aug=4, strength=t.strong_strength, dropout=t.dropout)
    r1 = separation_violation_rate(m, ds.test_x[:80], noise=task.noise, seed=9, **aug)
    r2 = separation_violation_rate(m, ds.test_x[:80], noise=task.noise, seed=9, **aug)
    assert r1 == r2
    assert 0.0 <= r1 <= 1.0
    # a wildly noisy augmentation must flip more predictions
    r_loud = separation_violation_rate(m, ds.test_x[:80], noise=50.0, seed=9, **aug)
    assert r_loud > r1


def test_bias_pattern_report_keys_and_signs():
    m = init_model(k=4, d=5, hidden=(6,), feature=4, seed=7)
    counts = np.array([40, 20, 10, 5])
    m.heads["original"].b[:] = [4.0, 3.0, 2.0, 1.0]   # tracks the counts
    m.heads["expansive"].b[:] = [1.0, 2.0, 3.0, 4.0]  # opposes them
    m.heads["output"].b[:] = 0.0                      # degenerate, undefined
    rep = bias_pattern_report(m, counts)
    assert set(rep) == {"original", "output", "expansive"}
    assert rep["original"] == pytest.approx(1.0)
    assert rep["expansive"] == pytest.approx(-1.0)
    assert np.isnan(rep["output"])
