"""Loss components: plain and adjusted cross-entropy, masked consistency,
and the combined training objective with its exact decomposition.

The loss functions take class-major logits, (K, N) or (K, N, H); the hand
cases below write them row-major and pass the transpose.  The per-head
oracles (one head, one view, one forward at a time) are the reference the
fused training step is checked against."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import balanced_softmax_loss, default_widths, log_prior, per_head_logits, softmax
from imbalanced_ssl.config import TrainSection
from imbalanced_ssl.control import ThresholdState
from imbalanced_ssl.distributions import head_mask
from imbalanced_ssl.losses import (
    LossReport,
    _class_argmax,
    _softmax,
    cross_entropy_with_grad,
    masked_consistency_from_logits,
    step_plan,
    total_loss,
)
from imbalanced_ssl.network import (
    HEAD_NAMES,
    backward,
    forward_features,
    forward_features_cached,
    head_logits,
    init_model,
)

T = TrainSection()


def _model(seed=0, k=3, d=4):
    return init_model(k=k, d=d, hidden=(6, 5), feature=4, seed=seed)


def _plan(lx, xs, counts, t=T, class_weights=None):
    """The step plan of ``t`` at the row counts of the labeled batch ``lx``
    and the strong batch ``xs``."""
    return step_plan(replace(t, labeled_batch=lx.shape[0], unlabeled_batch=xs.shape[0]),
                     counts, class_weights=class_weights)


def supervised_balanced_loss(model, head, x, y, tau, delta_p):
    """Balanced CE of one head on ``x``: the value and the (N, K) gradient."""
    feats = forward_features(model, x)
    return balanced_softmax_loss(per_head_logits(model, head, feats), y, tau, delta_p)


def consistency_loss(model, head, x_weak, x_strong, thresholds) -> LossReport:
    """Unweighted consistency between pre-built weak and strong views of one
    unlabeled batch, self-labeled by the given head."""
    return masked_consistency_from_logits(
        per_head_logits(model, head, forward_features(model, x_weak)).T,
        per_head_logits(model, head, forward_features(model, x_strong)).T,
        thresholds, np.ones(model.k))


def base_loss(model, labeled_x, labeled_y, x_weak, x_strong, rho_max, lambda_basic=1.0):
    """Plain self-training objective on the original head: unadjusted CE plus
    lambda_basic times consistency at one scalar threshold for every class."""
    logits_l = per_head_logits(model, "original", forward_features(model, labeled_x))
    ce, _ = cross_entropy_with_grad(logits_l.T, labeled_y, 0.0)
    con = consistency_loss(model, "original", x_weak, x_strong, np.full(model.k, rho_max))
    return ce + lambda_basic * con.value


def test_cross_entropy_hand_values():
    v, g = cross_entropy_with_grad(np.array([[0.0, 0.0]]).T, np.array([1]), 0.0)
    assert v == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(g.T, [[0.5, -0.5]])
    # grad = (softmax - onehot) / n
    z = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, 0.0]])
    y = np.array([2, 1])
    v, g = cross_entropy_with_grad(z.T, y, 0.0)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.eye(3)[y]
    assert np.allclose(g.T, (p - onehot) / 2, atol=1e-12)
    assert v == pytest.approx(-np.log(p[[0, 1], y]).mean(), abs=1e-12)


def test_step_plan_adjustment_from_counts():
    plan = step_plan(replace(T, tau_b=2.0, tau_e=3.0, labeled_batch=4), np.array([90, 10]))
    assert plan.adjustment.shape == (2, 4, 3)
    # tau = (0, tau_b, tau_e) times log(n_c / n), the same on every labeled row
    want = np.multiply.outer([math.log(0.9), math.log(0.1)], [0.0, 2.0, 3.0])
    assert np.array_equal(plan.adjustment, np.broadcast_to(want[:, None], (2, 4, 3)))
    # a class without labeled samples has no log-prior: refused when the plan is built
    for counts in ([90, 0], [90, -1]):
        with pytest.raises(ValueError, match="positive class counts"):
            step_plan(T, np.array(counts))


def test_step_plan_arrays_are_read_only():
    plan = step_plan(T, np.array([20, 8, 2]), class_weights=np.array([0.5, 1.0, 1.5]))
    assert plan.lambdas.shape == (T.unlabeled_batch, 3)
    assert plan.class_weights.tolist() == [[1.0] * 3, [0.5, 1.0, 1.5], [0.5, 1.0, 1.5]]
    for a in (plan.adjustment, plan.lambdas, plan.head_classes, plan.class_weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


# literal ids, the ones pytest once gave these cases by their place in the list
@pytest.mark.parametrize("counts,head", [
    pytest.param([20, 8, 2], [True, True, False], id="counts0-head0"),
    pytest.param([2, 8, 20, 5], [False, True, True, False], id="counts1-head1"),
    pytest.param([7, 7, 7, 7, 7], [True, True, True, False, False], id="counts2-head2"),
    pytest.param([1, 90], [False, True], id="counts3-head3"),
])
def test_step_plan_splits_the_head_from_its_counts(counts, head):
    plan = step_plan(T, np.array(counts))
    assert plan.head_classes.tolist() == head
    assert np.array_equal(plan.head_classes, head_mask(np.array(counts)))
    # no head mask is taken beside the counts, and the class weights are
    # keyword-only, so a mask in third place cannot pass for class weights
    with pytest.raises(TypeError):
        step_plan(T, np.array(counts), np.ones(len(counts)))


# rows of the weak batch, the labeled inputs, the labels and the strong batch;
# literal ids, the first three the ones pytest once gave them by (n_l, n_s)
@pytest.mark.parametrize("n_w,n_l,n_y,n_s", [
    pytest.param(12, 1, 1, 12, id="1-12"),
    pytest.param(12, 9, 9, 12, id="9-12"),
    pytest.param(11, 8, 8, 11, id="8-11"),
    pytest.param(11, 8, 8, 12, id="weak-11"),
    pytest.param(12, 8, 7, 12, id="labels-7"),
])
def test_total_loss_refuses_a_batch_the_plan_was_not_built_for(n_w, n_l, n_y, n_s):
    m = _model(seed=6)
    lx, ly, xw, xs, counts = _step_inputs()
    plan = _plan(lx, xs, counts)
    rng = np.random.default_rng(0)
    lx, ly = rng.normal(size=(n_l, 4)), rng.integers(0, 3, size=n_y)
    xw, xs = rng.normal(size=(n_w, 4)), rng.normal(size=(n_s, 4))
    # this is the step's one row check: the loss functions check no shape,
    # and without it a 1-row labeled batch would broadcast against the plan's
    # (K, 8, 3) adjustment
    with pytest.raises(ValueError, match=f"have {n_w}, {n_l}, {n_y} and {n_s} rows, "
                                         "the step plan 12, 8, 8 and 12"):
        total_loss(m, lx, ly, xw, xs, ThresholdState(np.full((3, 3), 0.9)), plan)


def test_balanced_loss_frozen_hand_value():
    # two classes, zero logits, counts 90/10, tau=2, true class = the rare one
    v, _ = balanced_softmax_loss(np.array([[0.0, 0.0]]), np.array([1]), 2.0,
                                 log_prior([90, 10]))
    assert v == pytest.approx(4.4067192472642525, abs=1e-12)
    # same number from first principles: CE on logits shifted by 2*log(freq)
    shifted = np.array([2 * math.log(0.9), 2 * math.log(0.1)])
    lse = math.log(math.exp(shifted[0]) + math.exp(shifted[1]))
    assert v == pytest.approx(lse - shifted[1], abs=1e-12)


def test_balanced_tau_zero_is_plain_ce():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(8, 5))
    y = rng.integers(0, 5, size=8)
    v0, g0 = balanced_softmax_loss(z, y, 0.0, log_prior(rng.integers(1, 100, size=5)))
    v1, g1 = cross_entropy_with_grad(z.T, y, 0.0)
    assert v0 == pytest.approx(v1, abs=1e-12)
    assert np.allclose(g0, g1.T, atol=1e-12)


def test_balanced_uniform_counts_invariant():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(8, 5))
    y = rng.integers(0, 5, size=8)
    v, g = balanced_softmax_loss(z, y, 3.0, log_prior(np.full(5, 37)))
    v0, g0 = cross_entropy_with_grad(z.T, y, 0.0)
    assert v == pytest.approx(v0, abs=1e-12)
    assert np.allclose(g, g0.T, atol=1e-12)


def test_balanced_tau_raises_rare_class_pressure():
    z = np.zeros((1, 2))
    y = np.array([1])
    losses = [balanced_softmax_loss(z, y, t, log_prior([90, 10]))[0] for t in (0.0, 1.0, 2.0)]
    assert losses[0] < losses[1] < losses[2]


def test_masked_consistency_hand_case():
    # weak confidences: sigmoid(2) ~ 0.881 (below), sigmoid(3) ~ 0.953 (kept),
    # 0.5 (below); only the middle sample contributes, normalized by batch
    w = np.array([[2.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    s = np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 0.0]])
    rep = masked_consistency_from_logits(w.T, s.T, np.array([0.95, 0.95]), np.ones(2))
    assert rep.mask.tolist() == [False, True, False]
    assert rep.pseudo_labels.tolist() == [0, 0, 0]
    kept_ce = -math.log(math.exp(1.0) / (math.exp(1.0) + 1.0))
    assert rep.value == pytest.approx(kept_ce / 3, abs=1e-12)


def test_masked_consistency_boundary_is_inclusive():
    w = np.array([[3.0, 0.0]])
    s = np.array([[1.0, 0.0]])
    conf = 1.0 / (1.0 + math.exp(-3.0))
    kept = masked_consistency_from_logits(w.T, s.T, np.array([conf, conf]), np.ones(2))
    assert kept.mask.tolist() == [True]
    above = masked_consistency_from_logits(
        w.T, s.T, np.array([np.nextafter(conf, 1.0)] * 2), np.ones(2))
    assert above.mask.tolist() == [False]


def test_masked_consistency_per_class_thresholds():
    # two samples, pseudo class 0 and 1, same confidence ~0.953
    w = np.array([[3.0, 0.0], [0.0, 3.0]])
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = masked_consistency_from_logits(w.T, s.T, np.array([0.9, 0.99]), np.ones(2))
    assert rep.mask.tolist() == [True, False]


def test_masked_consistency_class_weights_scale():
    w = np.array([[3.0, 0.0]])
    s = np.array([[1.0, 0.0]])
    rho = np.array([0.9, 0.9])
    plain = masked_consistency_from_logits(w.T, s.T, rho, np.ones(2))
    doubled = masked_consistency_from_logits(w.T, s.T, rho, np.array([2.0, 1.0]))
    assert doubled.value == pytest.approx(2 * plain.value, abs=1e-12)


def test_threshold_domain_checked():
    # everything in (0, 1] is legal, including values below one half; the
    # rejected values are ThresholdState's to refuse (test_control.py)
    w = np.array([[3.0, 0.0]])
    s = np.array([[1.0, 0.0]])
    rep = masked_consistency_from_logits(w.T, s.T, np.array([0.35, 1.0]), np.ones(2))
    assert rep.mask.tolist() == [True]


def test_supervised_loss_goes_through_the_head():
    m = _model()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    delta_p = log_prior([20, 8, 2])
    value, grad = supervised_balanced_loss(m, "output", x, y, 2.0, delta_p)
    z = per_head_logits(m, "output", forward_features(m, x))
    want, wg = balanced_softmax_loss(z, y, 2.0, delta_p)
    assert value == pytest.approx(want, abs=1e-12)
    assert np.allclose(grad, wg, atol=1e-12)


def test_consistency_loss_goes_through_the_head():
    m = _model(seed=3)
    rng = np.random.default_rng(4)
    xw = rng.normal(size=(10, 4))
    xs = xw + rng.normal(size=(10, 4))
    rho = np.full(3, 0.4)
    rep = consistency_loss(m, "expansive", xw, xs, rho)
    zw = per_head_logits(m, "expansive", forward_features(m, xw))
    zs = per_head_logits(m, "expansive", forward_features(m, xs))
    want = masked_consistency_from_logits(zw.T, zs.T, rho, np.ones(3))
    assert rep.value == pytest.approx(want.value, abs=1e-12)
    assert rep.mask.tolist() == want.mask.tolist()


def _step_inputs(seed=5, n=12, k=3, d=4):
    rng = np.random.default_rng(seed)
    labeled_x = rng.normal(size=(8, d))
    labeled_y = rng.integers(0, k, size=8)
    xw = rng.normal(size=(n, d))
    xs = xw + 0.3 * rng.normal(size=(n, d))
    return labeled_x, labeled_y, xw, xs, np.array([20, 8, 2])


def test_total_loss_decomposition():
    m = _model(seed=6)
    lx, ly, xw, xs, counts = _step_inputs()
    rho = np.array([0.95, 0.6, 0.45])
    out = total_loss(m, lx, ly, xw, xs,
                     ThresholdState(np.stack([np.full(3, 0.95), rho, rho * 0.9])),
                     _plan(lx, xs, counts, t=replace(T, lambda_basic=1.5)))
    # lambda_basic is folded into l_basic itself; lambda_u scales the two
    # balanced consistency terms
    want = (out.l_basic + out.l_sup_b + 2.0 * out.l_con_b
            + out.l_sup_e + 2.0 * out.l_con_e)
    assert out.total == pytest.approx(want, abs=1e-9)


def test_total_loss_base_term_matches_base_loss():
    m = _model(seed=7)
    lx, ly, xw, xs, counts = _step_inputs(6)
    rho = np.full(3, 0.8)
    out = total_loss(m, lx, ly, xw, xs, ThresholdState(np.stack([np.full(3, 0.95), rho, rho])),
                     _plan(lx, xs, counts))
    assert out.l_basic == pytest.approx(
        base_loss(m, lx, ly, xw, xs, rho_max=0.95), abs=1e-12)


def test_total_loss_bookkeeping_fields():
    m = _model(seed=8)
    lx, ly, xw, xs, counts = _step_inputs(7)
    rho = np.full(3, 0.5)
    out = total_loss(m, lx, ly, xw, xs, ThresholdState(np.stack([np.full(3, 0.95), rho, rho])),
                     _plan(lx, xs, counts))
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
    lx, ly, xw, xs, counts = _step_inputs(8)
    rho = np.full(3, 0.5)
    thresholds = ThresholdState(np.stack([np.full(3, 0.95), rho, rho]))
    self_taught = total_loss(m, lx, ly, xw, xs, thresholds, _plan(lx, xs, counts))
    cross_taught = total_loss(m, lx, ly, xw, xs, thresholds,
                              _plan(lx, xs, counts,
                                    t=replace(T, output_pseudo_source="expansive")))
    output = HEAD_NAMES.index("output")
    assert cross_taught.kept[output, 2] == xw.shape[0]
    assert self_taught.kept[output, 2] < xw.shape[0]
    # any other source is refused where the constants are checked
    with pytest.raises(ValueError):
        replace(T, output_pseudo_source="nonsense")


def _reference_step(m, lx, ly, xw, xs, delta_p, thresholds, head_classes, t, class_weights):
    """The training step head by head: three forwards, 2-D losses per head
    and one backward per back-propagated view, gradients summed."""
    k = m.k
    tau_b, tau_e, lambda_u, lambda_basic = t.tau_b, t.tau_e, t.lambda_u, t.lambda_basic
    rho_o, rho_b, rho_e = thresholds
    feats_l, cache_l = forward_features_cached(m, lx)
    feats_w = forward_features(m, xw)
    feats_s, cache_s = forward_features_cached(m, xs)
    logits_l = {h: per_head_logits(m, h, feats_l) for h in HEAD_NAMES}
    logits_w = {h: per_head_logits(m, h, feats_w) for h in HEAD_NAMES}
    logits_s = {h: per_head_logits(m, h, feats_s) for h in HEAD_NAMES}
    ce_o, g_ce_o = cross_entropy_with_grad(logits_l["original"].T, ly, 0.0)
    sup_b, g_sup_b = cross_entropy_with_grad(logits_l["output"].T, ly,
                                             (tau_b * delta_p)[:, None])
    sup_e, g_sup_e = cross_entropy_with_grad(logits_l["expansive"].T, ly,
                                             (tau_e * delta_p)[:, None])
    teacher = "output" if t.output_pseudo_source == "self" else "expansive"
    if class_weights is None:
        class_weights = np.ones(k)
    con_o = masked_consistency_from_logits(logits_w["original"].T, logits_s["original"].T,
                                           rho_o, np.ones(k))
    con_b = masked_consistency_from_logits(logits_w[teacher].T, logits_s["output"].T, rho_b,
                                           class_weights)
    con_e = masked_consistency_from_logits(logits_w["expansive"].T, logits_s["expansive"].T,
                                           rho_e, class_weights)
    l_basic = ce_o + lambda_basic * con_o.value
    values = {"total": l_basic + sup_b + lambda_u * con_b.value + sup_e + lambda_u * con_e.value,
              "l_basic": l_basic, "l_sup_b": sup_b, "l_con_b": con_b.value,
              "l_sup_e": sup_e, "l_con_e": con_e.value}
    # backward() overwrites one gradient vector per model, so copy the first
    grads_l = backward(m, cache_l, np.stack([g_ce_o.T, g_sup_b.T, g_sup_e.T], axis=1)).copy()
    grads_s = backward(m, cache_s, np.stack([lambda_basic * con_o.logit_gradients.T,
                                             lambda_u * con_b.logit_gradients.T,
                                             lambda_u * con_e.logit_gradients.T], axis=1))
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
    z = per_head_logits(m, head, forward_features(m, xw))
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
    counts = rng.integers(1, 60, size=k)
    teacher = "output" if source == "self" else "expansive"
    rho_b = _margin_safe_thresholds(m, teacher, xw, rng, k)
    rho_e = _margin_safe_thresholds(m, "expansive", xw, rng, k)
    rho_max = float(_margin_safe_thresholds(m, "original", xw, rng, 1)[0])
    kw = dict(thresholds=np.stack([np.full(k, rho_max), rho_b, rho_e]),
              head_classes=head_mask(counts),
              t=replace(T, tau_b=2.0, tau_e=4.0, lambda_u=1.7, lambda_basic=0.6,
                        output_pseudo_source=source),
              class_weights=rng.uniform(0.3, 3.0, size=k) if weighted else None)

    want, want_grads, want_hist, want_rates, want_strong_x = _reference_step(
        m, lx, ly, xw, xs, log_prior(counts), **kw)
    st = total_loss(m, lx, ly, xw, xs, ThresholdState(kw["thresholds"]),
                    _plan(lx, xs, counts, kw["t"], kw["class_weights"]))
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


# ---------------------------------------------------------------------------
# the class-major layout against the row-major arithmetic it replaced

_KS = [*range(2, 41), 127, 128, 129, 300]
# wide magnitudes, subnormals and both zeros, plus a small pool for ties and
# -inf entries (no +inf, so no sum meets inf - inf)
_ELEMENTS = st.one_of(st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 1.0, -2.5, 3e-310, -np.inf]))


@st.composite
def _row_major_blocks(draw):
    k = draw(st.sampled_from(_KS))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), k)
    return draw(hnp.arrays(np.float64, shape, elements=_ELEMENTS))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_reductions(rows):
    """The class-major max and argmax of row-major ``rows`` (..., K) against
    NumPy's over the last axis, bit for bit, but for one case: when a row's
    maximum is zero and the row holds both +0.0 and -0.0, NumPy's vectorised
    last-axis max returns the zero its lanes meet last, which a reduction
    over the class axis does not reproduce.  The softmax shift by either
    zero gives the same probabilities, exp(+0.0) == exp(-0.0)."""
    cm = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
    top = np.maximum.reduce(cm, axis=0)
    assert _same_bits(top + 0.0, np.max(rows, axis=-1) + 0.0)
    assert _same_bits(_class_argmax(cm, top), np.argmax(rows, axis=-1))


@settings(max_examples=300, deadline=None)
@given(_row_major_blocks())
def test_class_major_max_and_argmax_equal_numpy_bit_for_bit(rows):
    _check_reductions(rows)
    _check_reductions(rows[:, 0])  # one head: (N, K) rows, (K, N) class-major


@pytest.mark.parametrize("k", _KS)
def test_class_sum_follows_numpy_summation_order(k):
    # the softmax's class sum is NumPy's reduction over the leading class
    # axis, bit for bit; below 8 classes that is also the row-major sum's
    # order, and above it the probabilities stay within rounding of the
    # row-major softmax's.  Logits of mixed sign over 20 orders of
    # magnitude, so any other association of the terms changes some bits
    rng = np.random.default_rng(k)
    rows = rng.normal(size=(64, 3, k)) * 10.0 ** rng.integers(-10, 10, size=(64, 3, k))
    cm = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
    shifted = np.exp(cm - np.maximum.reduce(cm, axis=0))
    probs = cm.copy()
    _, total = _softmax(probs)
    assert _same_bits(total, np.add.reduce(shifted, axis=0))
    assert _same_bits(probs, shifted / total)
    want = np.moveaxis(softmax(rows), -1, 0)
    if k < 8:
        assert _same_bits(probs, want)
    assert np.max(np.abs(probs - want)) <= k * np.finfo(np.float64).eps


def _rm_softmax_and_log(logits):
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


def _rm_flat_at(shape, classes):
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1]) + classes


def _rm_total_loss(m, lx, ly, xw, xs, delta_p, thresholds, head_classes, t, class_weights):
    """The training step in the row-major (N, 3, K) formulation the
    class-major loss layer replaced: values, head gradients, kept counts,
    mask rates, and the (N, 3) consistency masks and pseudo-labels."""
    k, n, n_w, n_wl = m.k, xs.shape[0], xw.shape[0], xw.shape[0] + lx.shape[0]
    feats, _ = forward_features_cached(m, np.concatenate([xw, lx, xs]))
    logits = head_logits(m, feats)
    z_w, z_l, z_s = logits[:n_w], logits[n_w:n_wl], logits[n_wl:]

    adjusted = z_l + np.multiply.outer([0.0, t.tau_b, t.tau_e], delta_p)
    g_sup, logp = _rm_softmax_and_log(adjusted)
    at_y = _rm_flat_at(z_l.shape, ly.reshape(-1, 1))
    sup = -logp.reshape(-1)[at_y].mean(axis=0)
    g_sup.reshape(-1)[at_y] -= 1.0
    g_sup /= lx.shape[0]

    if t.output_pseudo_source == "expansive":
        z_w = z_w[:, [0, 2, 2]]
    probs_w = softmax(z_w)
    pseudo = np.argmax(probs_w, axis=-1)
    at = _rm_flat_at(z_w.shape, pseudo)
    at_class = _rm_flat_at(thresholds.shape, pseudo)
    mask = probs_w.reshape(-1)[at] >= thresholds.reshape(-1)[at_class]
    g_con, logp = _rm_softmax_and_log(z_s)
    per_sample = -logp.reshape(-1)[at]
    # unweighted, the plain 1/n path, which the step's ones-weighted path
    # must equal bit for bit
    if class_weights is None:
        scale = 1.0 / n
    else:
        weights = np.stack([np.ones(k), class_weights, class_weights]).reshape(-1)[at_class]
        per_sample = per_sample * weights
        scale = (weights / n)[..., None]
    con = (per_sample * mask).sum(axis=0) / n
    g_con.reshape(-1)[at] -= 1.0
    g_con *= scale
    g_con[~mask] = 0.0
    g_con = g_con * np.array([t.lambda_basic, t.lambda_u, t.lambda_u])[:, None]

    ce_o, sup_b, sup_e = sup.tolist()
    con_o, con_b, con_e = con.tolist()
    l_basic = ce_o + t.lambda_basic * con_o
    values = {"total": l_basic + sup_b + t.lambda_u * con_b + sup_e + t.lambda_u * con_e,
              "l_basic": l_basic, "l_sup_b": sup_b, "l_con_b": con_b,
              "l_sup_e": sup_e, "l_con_e": con_e}
    kept = np.bincount((pseudo + k * np.arange(3))[mask], minlength=3 * k).reshape(3, k)
    is_head = head_classes[pseudo[:, 1]]
    rates = tuple(0.0 if not sel.any() else 1.0 - float(mask[:, 1][sel].sum()) / int(sel.sum())
                  for sel in (is_head, ~is_head))
    return values, np.concatenate([g_sup, g_con]), kept, rates, mask, pseudo


def _step_case(k):
    """A model with peaked, varied head logits and a (64 labeled, 128 weak +
    128 strong) batch: at K = 10 the default widths at the train-default
    step shape."""
    rng = np.random.default_rng(100 + k)
    if k == 10:
        m = default_widths()
    else:
        m = init_model(k=k, d=16, hidden=(24, 16), feature=12, seed=k)
        m.flat += rng.normal(scale=0.2, size=m.flat.size)
    m.head_w *= 4.0
    lx = 2.0 * rng.normal(size=(64, m.dims[0]))
    xw = 2.0 * rng.normal(size=(128, m.dims[0]))
    xs = xw + rng.normal(size=xw.shape)
    ly = rng.integers(0, k, size=64)
    counts = rng.integers(1, 100, size=k)
    thresholds = np.stack([np.full(k, 0.7), rng.uniform(0.3, 0.95, size=k),
                           rng.uniform(0.2, 0.9, size=k)])
    return m, lx, ly, xw, xs, counts, thresholds, rng


# K = 8, 9 and 40: NumPy's pairwise last-axis sum, which the row-major
# formulation's class sums take, starts its blocks of 8 at K = 8, adds a
# remainder at 9 and runs five blocks at 40
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("source", ["self", "expansive"])
@pytest.mark.parametrize("k", [10, 5, 13, 8, 9, 40])
def test_total_loss_equals_the_row_major_formulation(k, source, weighted, monkeypatch):
    m, lx, ly, xw, xs, counts, thresholds, rng = _step_case(k)
    kw = dict(head_classes=head_mask(counts),
              t=replace(T, lambda_basic=0.6, lambda_u=1.7, output_pseudo_source=source),
              class_weights=rng.uniform(0.3, 3.0, size=k) if weighted else None)
    values, head_grads, kept, rates, mask, pseudo = _rm_total_loss(
        m, lx, ly, xw, xs, log_prior(counts), thresholds, **kw)
    reports = []

    def recording(*args):
        reports.append(masked_consistency_from_logits(*args))
        return reports[-1]

    monkeypatch.setattr("imbalanced_ssl.losses.masked_consistency_from_logits", recording)
    step = total_loss(m, lx, ly, xw, xs, ThresholdState(thresholds),
                      _plan(lx, xs, counts, kw["t"], kw["class_weights"]))
    # the values and gradients within rounding of the row-major ones, which
    # add the K classes in another order; what is decided from them exactly
    for name, value in values.items():
        assert getattr(step, name) == pytest.approx(value, rel=1e-14, abs=0.0), name
    assert step.head_grads.shape == head_grads.shape
    assert np.max(np.abs(step.head_grads - head_grads)) <= 1e-15
    (report,) = reports
    assert np.array_equal(report.mask, mask)
    assert np.array_equal(report.pseudo_labels, pseudo)
    assert _same_bits(step.kept, kept)
    assert (step.mask_rate_head, step.mask_rate_nonhead) == rates
    # the masks are not degenerate: every head keeps some rows and drops some
    assert np.all((0 < kept.sum(axis=1)) & (kept.sum(axis=1) < xw.shape[0]))
