"""Loss components: plain and adjusted cross-entropy, masked consistency,
and the combined training objective with its exact decomposition.

The per-head oracles below (one head, one view, one forward at a time) are
the reference the fused training step is checked against."""

import math
from dataclasses import replace

import numpy as np
import pytest

from imbalanced_ssl.config import TrainSection
from imbalanced_ssl.losses import (
    LogitAdjustment,
    LossReport,
    balanced_softmax_loss,
    cross_entropy_with_grad,
    masked_consistency_from_logits,
    total_loss,
)
from imbalanced_ssl.network import (
    HEAD_NAMES,
    backward,
    forward_features,
    forward_features_cached,
    head_logits,
    init_model,
    softmax,
)

T = TrainSection()


def _model(seed=0, k=3, d=4):
    return init_model(k=k, d=d, hidden=(6, 5), feature=4, seed=seed)


def supervised_balanced_loss(model, head, x, y, tau, adj) -> LossReport:
    feats = forward_features(model, x)
    logits = head_logits(model.heads[head], feats)
    value, grad = balanced_softmax_loss(logits, y, tau, adj)
    return LossReport(value=value, logit_gradients=grad)


def consistency_loss(model, head, x_weak, x_strong, thresholds,
                     class_weights=None) -> LossReport:
    """Consistency between pre-built weak and strong views of one unlabeled
    batch, self-labeled by the given head."""
    head_obj = model.heads[head]
    return masked_consistency_from_logits(head_logits(head_obj, forward_features(model, x_weak)),
                                          head_logits(head_obj, forward_features(model, x_strong)),
                                          thresholds, class_weights=class_weights)


def base_loss(model, labeled_x, labeled_y, x_weak, x_strong, rho_max, lambda_basic=1.0):
    """Plain self-training objective on the original head: unadjusted CE plus
    lambda_basic times consistency at one scalar threshold for every class."""
    logits_l = head_logits(model.heads["original"], forward_features(model, labeled_x))
    ce, _ = cross_entropy_with_grad(logits_l, labeled_y)
    con = consistency_loss(model, "original", x_weak, x_strong, np.full(model.k, rho_max))
    return ce + lambda_basic * con.value


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
    out = total_loss(m, lx, ly, xw, xs, adj,
                     thresholds=np.stack([np.full(3, 0.95), rho, rho * 0.9]),
                     head_classes=np.array([True, True, False]),
                     t=replace(T, lambda_basic=1.5))
    # lambda_basic is folded into l_basic itself; lambda_u scales the two
    # balanced consistency terms
    want = (out.l_basic + out.l_sup_b + 2.0 * out.l_con_b
            + out.l_sup_e + 2.0 * out.l_con_e)
    assert out.total == pytest.approx(want, abs=1e-9)


def test_total_loss_base_term_matches_base_loss():
    m = _model(seed=7)
    lx, ly, xw, xs, adj = _step_inputs(6)
    rho = np.full(3, 0.8)
    out = total_loss(m, lx, ly, xw, xs, adj, thresholds=np.stack([np.full(3, 0.95), rho, rho]),
                     head_classes=np.array([True, True, False]), t=T)
    assert out.l_basic == pytest.approx(
        base_loss(m, lx, ly, xw, xs, rho_max=0.95), abs=1e-12)


def test_total_loss_bookkeeping_fields():
    m = _model(seed=8)
    lx, ly, xw, xs, adj = _step_inputs(7)
    rho = np.full(3, 0.5)
    out = total_loss(m, lx, ly, xw, xs, adj, thresholds=np.stack([np.full(3, 0.95), rho, rho]),
                     head_classes=np.array([True, True, False]), t=T)
    assert out.kept.shape == (len(HEAD_NAMES), 3) and out.kept.dtype == np.int64
    assert np.all(out.kept.sum(axis=1) <= xw.shape[0])
    assert out.kept.min() >= 0
    assert 0.0 <= out.mask_rate_head <= 1.0
    assert 0.0 <= out.mask_rate_nonhead <= 1.0
    # one gradient bundle over the labeled and strong rows, for all heads
    assert out.head_grads.shape == (lx.shape[0] + xs.shape[0], len(HEAD_NAMES), 3)
    assert out.cache.x.shape[0] == lx.shape[0] + xs.shape[0]


def test_pseudo_source_switch_changes_the_teacher():
    m = _model(seed=9)
    # expansive head forced to vote class 2 with near-certainty
    m.heads["expansive"].w[:] = 0.0
    m.heads["expansive"].b[:] = np.array([0.0, 0.0, 50.0])
    lx, ly, xw, xs, adj = _step_inputs(8)
    rho = np.full(3, 0.5)
    kw = dict(adj=adj, thresholds=np.stack([np.full(3, 0.95), rho, rho]),
              head_classes=np.array([True, True, False]))
    self_taught = total_loss(m, lx, ly, xw, xs, t=T, **kw)
    cross_taught = total_loss(m, lx, ly, xw, xs,
                              t=replace(T, output_pseudo_source="expansive"), **kw)
    output = HEAD_NAMES.index("output")
    assert cross_taught.kept[output, 2] == xw.shape[0]
    assert self_taught.kept[output, 2] < xw.shape[0]
    # any other source is refused where the constants are checked
    with pytest.raises(ValueError):
        replace(T, output_pseudo_source="nonsense")


def _reference_step(m, lx, ly, xw, xs, adj, thresholds, head_classes, t, class_weights):
    """The training step head by head: three forwards, 2-D losses per head
    and one backward per back-propagated view, gradients summed."""
    k = m.k
    tau_b, tau_e, lambda_u, lambda_basic = t.tau_b, t.tau_e, t.lambda_u, t.lambda_basic
    rho_o, rho_b, rho_e = thresholds
    feats_l, cache_l = forward_features_cached(m, lx)
    feats_w = forward_features(m, xw)
    feats_s, cache_s = forward_features_cached(m, xs)
    logits_l = {h: head_logits(m.heads[h], feats_l) for h in HEAD_NAMES}
    logits_w = {h: head_logits(m.heads[h], feats_w) for h in HEAD_NAMES}
    logits_s = {h: head_logits(m.heads[h], feats_s) for h in HEAD_NAMES}
    ce_o, g_ce_o = cross_entropy_with_grad(logits_l["original"], ly)
    sup_b, g_sup_b = cross_entropy_with_grad(logits_l["output"], ly, tau_b * adj.delta_p)
    sup_e, g_sup_e = cross_entropy_with_grad(logits_l["expansive"], ly, tau_e * adj.delta_p)
    teacher = "output" if t.output_pseudo_source == "self" else "expansive"
    con_o = masked_consistency_from_logits(logits_w["original"], logits_s["original"],
                                           rho_o)
    con_b = masked_consistency_from_logits(logits_w[teacher], logits_s["output"], rho_b,
                                           class_weights=class_weights)
    con_e = masked_consistency_from_logits(logits_w["expansive"], logits_s["expansive"], rho_e,
                                           class_weights=class_weights)
    l_basic = ce_o + lambda_basic * con_o.value
    values = {"total": l_basic + sup_b + lambda_u * con_b.value + sup_e + lambda_u * con_e.value,
              "l_basic": l_basic, "l_sup_b": sup_b, "l_con_b": con_b.value,
              "l_sup_e": sup_e, "l_con_e": con_e.value}
    # backward() overwrites one gradient vector per model, so copy the first
    grads_l = backward(m, cache_l, np.stack([g_ce_o, g_sup_b, g_sup_e], axis=1)).copy()
    grads_s = backward(m, cache_s, np.stack([lambda_basic * con_o.logit_gradients,
                                             lambda_u * con_b.logit_gradients,
                                             lambda_u * con_e.logit_gradients], axis=1))
    grads = dict(m.parameters(grads_l + grads_s))
    hist = {h: np.bincount(rep.pseudo_labels[rep.mask], minlength=k)
            for h, rep in zip(HEAD_NAMES, (con_o, con_b, con_e))}
    is_head = head_classes[con_b.pseudo_labels]
    rates = tuple(1.0 - con_b.mask[sel].sum() / sel.sum() for sel in (is_head, ~is_head))
    return values, grads, hist, rates, cache_s.x


def _margin_safe_thresholds(m, head, xw, rng, size):
    """``size`` thresholds at least 1e-6 away from every weak-view confidence
    of ``head``, so last-bit differences in the logits cannot flip a mask;
    the head's top two logits differ by more than 1e-6 on every row, so no
    pseudo-label can flip either."""
    z = head_logits(m.heads[head], forward_features(m, xw))
    top2 = np.sort(z, axis=1)[:, -2:]
    assert np.min(top2[:, 1] - top2[:, 0]) > 1e-6
    conf = softmax(z).max(axis=1)
    for _ in range(100):
        rho = rng.uniform(0.2, 0.9, size=size)
        if np.min(np.abs(conf[:, None] - rho[None, :])) > 1e-6:
            return rho
    raise AssertionError("no margin-safe thresholds in 100 draws")


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("source", ["self", "expansive"])
def test_fused_step_matches_per_head_reference(source, weighted):
    rng = np.random.default_rng(11)
    k, d = 5, 6
    m = init_model(k=k, d=d, hidden=(16, 12), feature=8, seed=13)
    lx = rng.normal(size=(24, d))
    ly = rng.integers(0, k, size=24)
    xw = 2.0 * rng.normal(size=(40, d))
    xs = xw + rng.normal(size=(40, d))
    adj = LogitAdjustment.from_counts(rng.integers(1, 60, size=k))
    teacher = "output" if source == "self" else "expansive"
    rho_b = _margin_safe_thresholds(m, teacher, xw, rng, k)
    rho_e = _margin_safe_thresholds(m, "expansive", xw, rng, k)
    rho_max = float(_margin_safe_thresholds(m, "original", xw, rng, 1)[0])
    kw = dict(thresholds=np.stack([np.full(k, rho_max), rho_b, rho_e]),
              head_classes=np.arange(k) < 2,
              t=replace(T, tau_b=2.0, tau_e=4.0, lambda_u=1.7, lambda_basic=0.6,
                        output_pseudo_source=source),
              class_weights=rng.uniform(0.3, 3.0, size=k) if weighted else None)

    want, want_grads, want_hist, want_rates, want_strong_x = _reference_step(
        m, lx, ly, xw, xs, adj, **kw)
    st = total_loss(m, lx, ly, xw, xs, adj, **kw)
    grads = dict(m.parameters(backward(m, st.cache, st.head_grads)))

    for name, value in want.items():
        assert getattr(st, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
    assert set(grads) == set(want_grads)
    for name, g in want_grads.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
    for head, kept in zip(HEAD_NAMES, st.kept):
        assert np.array_equal(kept, want_hist[head]), head
    assert (st.mask_rate_head, st.mask_rate_nonhead) == want_rates
    assert np.array_equal(st.cache_strong.x, want_strong_x)
    # the masks are not degenerate: some rows kept and some dropped per head
    assert all(0 < want_hist[h].sum() < xw.shape[0] for h in HEAD_NAMES)
