"""Loss components: plain and adjusted cross-entropy, masked consistency,
and the combined training objective with its exact decomposition."""

import math

import numpy as np
import pytest

from imbalanced_ssl.losses import (
    LogitAdjustment,
    balanced_softmax_loss,
    base_loss,
    consistency_loss,
    cross_entropy_with_grad,
    masked_consistency_from_logits,
    supervised_balanced_loss,
    total_loss,
)
from imbalanced_ssl.network import forward_features, head_logits, init_model


def _model(seed=0, k=3, d=4):
    return init_model(k=k, d=d, hidden=(6, 5), feature=4, seed=seed)


def test_cross_entropy_hand_values():
    v, g = cross_entropy_with_grad(np.array([[0.0, 0.0]]), np.array([1]))
    assert v == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(g, [[0.5, -0.5]])
    # grad = (softmax - onehot) / n
    z = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, 0.0]])
    y = np.array([2, 1])
    v, g = cross_entropy_with_grad(z, y)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.eye(3)[y]
    assert np.allclose(g, (p - onehot) / 2, atol=1e-12)
    assert v == pytest.approx(-np.log(p[[0, 1], y]).mean(), abs=1e-12)


def test_adjustment_from_counts():
    adj = LogitAdjustment.from_counts(np.array([90, 10]))
    assert np.allclose(adj.delta_p, [math.log(0.9), math.log(0.1)])


def test_balanced_loss_frozen_hand_value():
    # two classes, zero logits, counts 90/10, tau=2, true class = the rare one
    adj = LogitAdjustment.from_counts(np.array([90, 10]))
    v, _ = balanced_softmax_loss(np.array([[0.0, 0.0]]), np.array([1]), 2.0, adj)
    assert v == pytest.approx(4.4067192472642525, abs=1e-12)
    # same number from first principles: CE on logits shifted by 2*log(freq)
    shifted = np.array([2 * math.log(0.9), 2 * math.log(0.1)])
    lse = math.log(math.exp(shifted[0]) + math.exp(shifted[1]))
    assert v == pytest.approx(lse - shifted[1], abs=1e-12)


def test_balanced_tau_zero_is_plain_ce():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(8, 5))
    y = rng.integers(0, 5, size=8)
    adj = LogitAdjustment.from_counts(rng.integers(1, 100, size=5))
    v0, g0 = balanced_softmax_loss(z, y, 0.0, adj)
    v1, g1 = cross_entropy_with_grad(z, y)
    assert v0 == pytest.approx(v1, abs=1e-12)
    assert np.allclose(g0, g1, atol=1e-12)


def test_balanced_uniform_counts_invariant():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(8, 5))
    y = rng.integers(0, 5, size=8)
    adj = LogitAdjustment.from_counts(np.full(5, 37))
    v, g = balanced_softmax_loss(z, y, 3.0, adj)
    v0, g0 = cross_entropy_with_grad(z, y)
    assert v == pytest.approx(v0, abs=1e-12)
    assert np.allclose(g, g0, atol=1e-12)


def test_balanced_tau_raises_rare_class_pressure():
    adj = LogitAdjustment.from_counts(np.array([90, 10]))
    z = np.zeros((1, 2))
    y = np.array([1])
    losses = [balanced_softmax_loss(z, y, t, adj)[0] for t in (0.0, 1.0, 2.0)]
    assert losses[0] < losses[1] < losses[2]


def test_masked_consistency_hand_case():
    # weak confidences: sigmoid(2) ~ 0.881 (below), sigmoid(3) ~ 0.953 (kept),
    # 0.5 (below); only the middle sample contributes, normalized by batch
    w = np.array([[2.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    s = np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 0.0]])
    rep = masked_consistency_from_logits(w, s, thresholds=np.array([0.95, 0.95]))
    assert rep.mask.tolist() == [False, True, False]
    assert rep.pseudo_labels.tolist() == [0, 0, 0]
    kept_ce = -math.log(math.exp(1.0) / (math.exp(1.0) + 1.0))
    assert rep.value == pytest.approx(kept_ce / 3, abs=1e-12)


def test_masked_consistency_boundary_is_inclusive():
    w = np.array([[3.0, 0.0]])
    s = np.array([[1.0, 0.0]])
    conf = 1.0 / (1.0 + math.exp(-3.0))
    kept = masked_consistency_from_logits(w, s, thresholds=np.array([conf, conf]))
    assert kept.mask.tolist() == [True]
    above = masked_consistency_from_logits(
        w, s, thresholds=np.array([np.nextafter(conf, 1.0)] * 2))
    assert above.mask.tolist() == [False]


def test_masked_consistency_per_class_thresholds():
    # two samples, pseudo class 0 and 1, same confidence ~0.953
    w = np.array([[3.0, 0.0], [0.0, 3.0]])
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = masked_consistency_from_logits(w, s, thresholds=np.array([0.9, 0.99]))
    assert rep.mask.tolist() == [True, False]


def test_masked_consistency_class_weights_scale():
    w = np.array([[3.0, 0.0]])
    s = np.array([[1.0, 0.0]])
    rho = np.array([0.9, 0.9])
    plain = masked_consistency_from_logits(w, s, rho)
    doubled = masked_consistency_from_logits(w, s, rho,
                                             class_weights=np.array([2.0, 1.0]))
    assert doubled.value == pytest.approx(2 * plain.value, abs=1e-12)


def test_threshold_domain_checked():
    w = np.array([[3.0, 0.0]])
    s = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        masked_consistency_from_logits(w, s, np.array([0.0, 0.9]))
    with pytest.raises(ValueError):
        masked_consistency_from_logits(w, s, np.array([1.1, 0.9]))
    # everything in (0, 1] is legal, including values below one half
    masked_consistency_from_logits(w, s, np.array([0.35, 1.0]))


def test_supervised_loss_goes_through_the_head():
    m = _model()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    adj = LogitAdjustment.from_counts(np.array([20, 8, 2]))
    rep = supervised_balanced_loss(m, "output", x, y, 2.0, adj)
    z = head_logits(m.heads["output"], forward_features(m, x))
    want, wg = balanced_softmax_loss(z, y, 2.0, adj)
    assert rep.value == pytest.approx(want, abs=1e-12)
    assert np.allclose(rep.logit_gradients, wg, atol=1e-12)


def test_consistency_loss_goes_through_the_head():
    m = _model(seed=3)
    rng = np.random.default_rng(4)
    xw = rng.normal(size=(10, 4))
    xs = xw + rng.normal(size=(10, 4))
    rho = np.full(3, 0.4)
    rep = consistency_loss(m, "expansive", xw, xs, rho)
    zw = head_logits(m.heads["expansive"], forward_features(m, xw))
    zs = head_logits(m.heads["expansive"], forward_features(m, xs))
    want = masked_consistency_from_logits(zw, zs, rho)
    assert rep.value == pytest.approx(want.value, abs=1e-12)
    assert rep.mask.tolist() == want.mask.tolist()


def _step_inputs(seed=5, n=12, k=3, d=4):
    rng = np.random.default_rng(seed)
    labeled_x = rng.normal(size=(8, d))
    labeled_y = rng.integers(0, k, size=8)
    xw = rng.normal(size=(n, d))
    xs = xw + 0.3 * rng.normal(size=(n, d))
    adj = LogitAdjustment.from_counts(np.array([20, 8, 2]))
    return labeled_x, labeled_y, xw, xs, adj


def test_total_loss_decomposition():
    m = _model(seed=6)
    lx, ly, xw, xs, adj = _step_inputs()
    rho = np.array([0.95, 0.6, 0.45])
    out = total_loss(m, lx, ly, xw, xs, adj, rho_b=rho, rho_e=rho * 0.9,
                     rho_max=0.95, head_classes=np.array([True, True, False]),
                     tau_b=2.0, tau_e=4.0, lambda_u=2.0, lambda_basic=1.5)
    # lambda_basic is folded into l_basic itself; lambda_u scales the two
    # balanced consistency terms
    want = (out.l_basic + out.l_sup_b + 2.0 * out.l_con_b
            + out.l_sup_e + 2.0 * out.l_con_e)
    assert out.total == pytest.approx(want, abs=1e-9)


def test_total_loss_base_term_matches_base_loss():
    m = _model(seed=7)
    lx, ly, xw, xs, adj = _step_inputs(6)
    rho = np.full(3, 0.8)
    out = total_loss(m, lx, ly, xw, xs, adj, rho_b=rho, rho_e=rho,
                     rho_max=0.95, head_classes=np.array([True, True, False]))
    assert out.l_basic == pytest.approx(
        base_loss(m, lx, ly, xw, xs, rho_max=0.95), abs=1e-12)


def test_total_loss_bookkeeping_fields():
    m = _model(seed=8)
    lx, ly, xw, xs, adj = _step_inputs(7)
    rho = np.full(3, 0.5)
    out = total_loss(m, lx, ly, xw, xs, adj, rho_b=rho, rho_e=rho,
                     rho_max=0.95, head_classes=np.array([True, True, False]))
    for name in ("original", "output", "expansive"):
        hist = out.pseudo_hist[name]
        assert hist.sum() <= xw.shape[0]
        assert hist.min() >= 0
    assert 0.0 <= out.mask_rate_head <= 1.0
    assert 0.0 <= out.mask_rate_nonhead <= 1.0
    assert set(out.head_grads_labeled) == {"original", "output", "expansive"}


def test_pseudo_source_switch_changes_the_teacher():
    m = _model(seed=9)
    # expansive head forced to vote class 2 with near-certainty
    m.heads["expansive"].w[:] = 0.0
    m.heads["expansive"].b[:] = np.array([0.0, 0.0, 50.0])
    lx, ly, xw, xs, adj = _step_inputs(8)
    rho = np.full(3, 0.5)
    kw = dict(adj=adj, rho_b=rho, rho_e=rho, rho_max=0.95,
              head_classes=np.array([True, True, False]))
    self_taught = total_loss(m, lx, ly, xw, xs, **kw)
    cross_taught = total_loss(m, lx, ly, xw, xs,
                              output_pseudo_source="expansive", **kw)
    assert cross_taught.pseudo_hist["output"][2] == xw.shape[0]
    assert self_taught.pseudo_hist["output"][2] < xw.shape[0]
    with pytest.raises(ValueError):
        total_loss(m, lx, ly, xw, xs, output_pseudo_source="nonsense", **kw)
