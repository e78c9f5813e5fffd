"""Losses: balanced softmax supervision, masked consistency, and the total
training objective over the three shared-backbone heads.

Gradient convention: every reported gradient is dL/dlogits for the MEAN loss
over its batch (the 1/N is folded in), so backward() can consume the bundles
directly.  Weighting factors (lambda_u on consistency terms, lambda_basic on
the base term) are folded into the bundles as well.

Class-major layout: the loss functions take logits with the class axis
first, (K, N) for one head or (K, N, H) for H stacked heads: the row-major
(N, K) or (N, H, K) logits with their class axis moved to the front.  Every
max, exp-sum and argmax over the K classes is then a few vector operations
over all N * H rows at once, where NumPy would run one short inner loop per
row over a last axis of K (10 by default).  Gradients come back in the same
layout; the per-row outputs (values per head, mask, pseudo-labels) are (N,)
or (N, H); thresholds and class weights are (K,) or (H, K), one row per
head, and a logit adjustment broadcasts against the class-major logits.
The training step transposes its (N, 3, K) logits once, calls each loss
once for all three heads, and writes the gradients back into one
(N, 3, K) array for ``backward``.

The layout is deterministic: a class sum is NumPy's reduction over the
leading class axis, which adds one class at a time, so a rerun gives the
same bits.  It matches the row-major formulation, whose sums run over a
last axis, within rounding: the loss values agree to 1e-14 relative and
the gradients to 1e-15 absolute, and the masks, pseudo-labels and kept
counts are equal exactly.

A run's fixed step inputs are one frozen ``StepPlan``, built and checked
once by ``step_plan``: the tau-scaled labeled log-prior, the consistency
weights, the head/non-head split (``head_mask`` of the labeled counts) and
the class weights, ones until a reweighting match, so reweighted or not the
step runs one path (1.0 multiplies exactly); the step takes the
thresholds, which change, separately, as the ``ThresholdState`` that
checked them.  Every step input is checked once, where it is built (the
thresholds by ``ThresholdState``, the class weights by ``step_plan``, the
four batches' rows by ``total_loss``; the labels lie in [0, K) by the
dataset's construction), and the two loss functions check none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import network
from .distributions import head_mask
from .network import ForwardCache, Model

if TYPE_CHECKING:
    from .config import TrainSection
    from .control import ThresholdState

__all__ = [
    "LossReport",
    "StepLosses",
    "StepPlan",
    "LOSS_COMPONENTS",
    "LOSS_COLUMNS",
    "cross_entropy_with_grad",
    "masked_consistency_from_logits",
    "step_plan",
    "total_loss",
]


@dataclass
class LossReport:
    """The consistency loss's value and logit-level gradients, class-major
    like the logits, with its inclusion mask and pseudo-labels.  With a head
    axis the value is one per head and mask/pseudo-labels are (N, H)."""

    value: float | np.ndarray
    logit_gradients: np.ndarray
    mask: np.ndarray
    pseudo_labels: np.ndarray


def _rows(shape: tuple[int, ...], start: int = 0, step: int = 1) -> np.ndarray:
    """start, start + step, ... laid out in ``shape``.  With the defaults,
    the flat offset of each row of (N,) or (N, H) rows within one class of a
    C-ordered class-major array, so a gather at ``_rows(rows) + classes *
    N_rows`` comes out C-contiguous in the row-major layout."""
    return np.arange(start, start + step * math.prod(shape), step).reshape(shape)


def _class_argmax(x: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``np.argmax(axis=-1)`` of the row-major array over the class axis of
    the class-major one, given its class maximum ``top``: the lowest class
    holding it, as intp.  A row without one (NaN input) gets K - 1."""
    k = x.shape[0]
    # K-1, ..., 0 down the class axis, in the smallest unsigned type that
    # holds K-1: the weight that ranks the lowest class first
    descending = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k - 1))
    ranked = np.maximum.reduce((x == top) * descending.reshape(k, *(1,) * (x.ndim - 1)),
                               axis=0)
    return ((k - 1) - ranked).astype(np.intp)


def _softmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the class axis of the C-ordered class-major logits
    ``x``, in place: the shift, the exp and the division all run in ``x``.
    Returns (top, total), the logits' class maximum and the class sum of
    exp(logits - top), from which a log-softmax entry is (logit - top) -
    log(total) where it is needed."""
    top = np.maximum.reduce(x, axis=0)
    np.subtract(x, top, out=x)
    np.exp(x, out=x)
    total = np.add.reduce(x, axis=0)
    np.divide(x, total, out=x)
    return top, total


def cross_entropy_with_grad(logits: np.ndarray, y: np.ndarray, adjustment: np.ndarray
                            ) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean CE of (logits + adjustment) against y; gradient is
    (softmax(adjusted) - onehot(y)) / N.  Class-major (K, N) logits, or
    (K, N, H) with y labeling every head and one mean per head; the
    adjustment broadcasts against the class-major logits, so a per-class
    shift is (K, 1) for one head and plain CE takes 0.0."""
    z = np.asarray(logits, dtype=np.float64)
    n = z.shape[1]
    # the adjusted logits in a new C-ordered array, for the flat gathers, that
    # the softmax then turns into the gradient
    grad = np.add(z, adjustment, order="C")
    at_y = _rows(z.shape[1:]) + y.reshape(n, *(1,) * (z.ndim - 2)) * z[0].size
    z_y = grad.reshape(-1)[at_y]
    top, total = _softmax(grad)
    # the mean of -logp over the batch
    value = -((z_y - top) - np.log(total)).mean(axis=0)
    grad.reshape(-1)[at_y] -= 1.0
    grad /= n
    return value, grad


def masked_consistency_from_logits(weak_logits: np.ndarray, strong_logits: np.ndarray,
                                   thresholds: np.ndarray, class_weights: np.ndarray
                                   ) -> LossReport:
    """Pseudo-label from the weak view, include iff its confidence reaches
    the pseudo-class threshold, CE on the strong view over included samples,
    averaged over the FULL batch.  Gradients flow only through the strong
    view and are exactly zero on excluded rows (for finite logits).
    Class-major (K, N) logits with (K,) thresholds and class weights, or
    (K, N, H) logits with (H, K) ones, one row per head.  Both views go
    through one softmax.
    """
    w = np.asarray(weak_logits, dtype=np.float64)
    s = np.asarray(strong_logits, dtype=np.float64)
    k, n = w.shape[:2]
    # the weak rows, then the strong rows, in a new C-ordered array that the
    # softmax turns into their probabilities
    probs = np.concatenate([w, s], axis=1, out=np.empty((k, 2 * n, *w.shape[2:])))
    top, total = _softmax(probs)
    probs_w = probs[:, :n]
    conf = np.maximum.reduce(probs_w, axis=0)
    pseudo = _class_argmax(probs_w, conf)
    # the pseudo-class entry of each row's per-class inputs: (K,) or (H, K)
    at_class = pseudo + _rows(w.shape[2:], step=k)
    included = conf >= thresholds.reshape(-1)[at_class]

    # each strong row's pseudo-class logit
    s_at = s[(pseudo, *np.indices(pseudo.shape, sparse=True))]
    weights = class_weights.reshape(-1)[at_class]
    per_sample = -((s_at - top[n:]) - np.log(total[n:])) * weights
    scale = weights / n
    value = (per_sample * included).mean(axis=0)
    # the gradient: the strong probabilities less 1 at each kept row's
    # pseudo-class (s[0].size entries on from the weak rows'), then scaled;
    # an excluded row keeps its probabilities, all >= +0.0, and is scaled by
    # +0.0, so it comes out +0.0 throughout
    at = _rows(pseudo.shape, start=s[0].size) + pseudo * probs[0].size
    probs.reshape(-1)[at] -= included
    grad = probs[:, n:]
    grad *= np.where(included, scale, 0.0)
    return LossReport(value=value, logit_gradients=grad, mask=included,
                      pseudo_labels=pseudo)


# the loss components of one step (StepLosses fields), in losses.csv and
# abort.json, and the losses.csv columns: the step, its components and its
# mask rates
LOSS_COMPONENTS = ("total", "l_basic", "l_sup_b", "l_con_b", "l_sup_e", "l_con_e")
LOSS_COLUMNS = ("step", *LOSS_COMPONENTS, "mask_rate_head", "mask_rate_nonhead")


@dataclass
class StepLosses:
    """One optimization step's values, statistics, and gradient bundle.

    The step forwards one stacked batch ``[weak; labeled; strong]``.
    ``cache`` covers its labeled and strong rows, the rows that carry a
    gradient, and ``head_grads`` is dL_total/dlogits over those rows for
    every head, an (N_labeled + N_strong, H, K) array with the weights folded
    in: one backward(model, cache, head_grads) gives the step's gradients.
    ``cache_strong`` is the strong rows' part of the same cache.
    ``kept`` is the (3, K) int64 count of the pseudo-labels each head kept,
    rows in HEAD_NAMES order.
    ``finite_logits`` is the step's one finiteness check on its logits; when
    it is False no value in the bundle is meaningful.
    """

    total: float
    l_basic: float
    l_sup_b: float
    l_con_b: float
    l_sup_e: float
    l_con_e: float
    head_grads: np.ndarray
    cache: ForwardCache
    cache_strong: ForwardCache
    kept: np.ndarray
    mask_rate_head: float
    mask_rate_nonhead: float
    finite_logits: bool

    @property
    def pseudo_hist(self) -> dict[str, np.ndarray]:
        """``kept`` by head name, for the benchmark's consistency counters."""
        return dict(zip(network.HEAD_NAMES, self.kept))


def _kept_and_mask_rates(pseudo: np.ndarray, included: np.ndarray,
                         head_classes: np.ndarray) -> tuple[np.ndarray, float, float]:
    """From the (N, 3) pseudo-labels and inclusion mask: the (3, K) count of
    the pseudo-labels each head kept, and the output head's share of rows
    dropped among those it labels a head class and among the rest."""
    k = head_classes.size
    heads = pseudo.shape[1]
    # one count of every row by (kept or not, head, pseudo-class)
    codes = pseudo + _rows((heads,), step=k) + (heads * k) * included
    counts = np.bincount(codes.reshape(-1), minlength=2 * heads * k).reshape(2, heads, k)
    output = counts[:, network.HEAD_NAMES.index("output")]
    dropped_head, kept_head = (output @ head_classes).tolist()
    dropped, kept = output.sum(axis=1).tolist()
    rates = []
    for n_kept, n_dropped in ((kept_head, dropped_head),
                              (kept - kept_head, dropped - dropped_head)):
        total = n_kept + n_dropped
        rates.append(0.0 if total == 0 else 1.0 - n_kept / total)
    return counts[1], rates[0], rates[1]


@dataclass(frozen=True)
class StepPlan:
    """A run's fixed step inputs, built and checked once by ``step_plan``,
    read-only, heads in HEAD_NAMES order: ``adjustment`` is tau_h *
    log(n_c / n), tau = (0, tau_b, tau_e), at every (c, row, h) of the
    (K, labeled_batch, 3) class-major labeled logits, and ``lambdas`` is
    (lambda_basic, lambda_u, lambda_u) at every (row, h) of the
    (unlabeled_batch, 3) strong rows, both spelled out in full as NumPy
    iterates a broadcast head axis of 3 one row at a time; ``head_classes``
    is the (K,) ``head_mask`` of the labeled counts, ``class_weights`` the
    (3, K) consistency weights (ones on the original head, and throughout
    until a reweighting match), and ``t`` the training section."""

    t: TrainSection
    adjustment: np.ndarray
    lambdas: np.ndarray
    head_classes: np.ndarray
    class_weights: np.ndarray


def step_plan(t: TrainSection, labeled_counts: np.ndarray, *,
              class_weights: np.ndarray | None = None) -> StepPlan:
    """The StepPlan of a run with training section ``t``, its labeled class
    counts (all positive), which also give the head mask, and the (K,)
    consistency class weights of the balanced heads, ones unless a
    reweighting match gives them."""
    counts = np.asarray(labeled_counts, dtype=np.float64)
    if counts.ndim != 1 or np.any(counts <= 0):
        raise ValueError("logit adjustment needs a vector of strictly positive class counts")
    k = counts.size
    tau_delta = np.multiply.outer([0.0, t.tau_b, t.tau_e], np.log(counts / counts.sum()))
    adjustment = np.ascontiguousarray(
        np.broadcast_to(tau_delta.T[:, None, :], (k, t.labeled_batch, 3)))
    lambdas = np.tile([t.lambda_basic, t.lambda_u, t.lambda_u], (t.unlabeled_batch, 1))
    head_classes = head_mask(labeled_counts)
    cw = np.ones(k) if class_weights is None else np.asarray(class_weights, dtype=np.float64)
    if cw.shape != (k,):
        raise ValueError(f"class_weights must have shape {(k,)}")
    class_weights = np.stack([np.ones(k), cw, cw])
    for a in (adjustment, lambdas, head_classes, class_weights):
        a.flags.writeable = False
    return StepPlan(t=t, adjustment=adjustment, lambdas=lambdas, head_classes=head_classes,
                    class_weights=class_weights)


def total_loss(model: Model, labeled_x: np.ndarray, labeled_y: np.ndarray,
               x_weak: np.ndarray, x_strong: np.ndarray, state: ThresholdState,
               plan: StepPlan) -> StepLosses:
    """L = L_basic + L_sup^b + lambda_u * L_con^b + L_sup^e + lambda_u * L_con^e,
    with the tau-scaled logit adjustment, the lambda weights, the head mask
    and the class weights taken from the run's ``plan``, and
    output_pseudo_source, lambda_u and lambda_basic from ``plan.t``.  The
    weak and strong batches must have the plan's unlabeled_batch rows, and
    the labeled inputs and labels its labeled_batch rows: the step's one row
    check.

    The thresholds are ``state.thresholds``, (3, K), one row per head in
    HEAD_NAMES order, checked when ``state`` was made.  L_basic lives on the
    original head (plain CE + lambda_basic * consistency at its row, rho_max
    in training).  The balanced (output) and expansive heads get tau-adjusted
    supervision and consistency at their own per-class thresholds.  Every
    head self-labels from its own weak view;
    ``output_pseudo_source="expansive"`` switches the output head to the
    expansive head's pseudo-labels instead.

    All three heads train from the first step.  Before an anchor is matched
    every threshold sits at rho_max; matching only changes the thresholds
    and the class weights, never which terms exist.

    One backbone forward covers ``[weak; labeled; strong]``, one matmul gives
    every head's logits, one copy makes them class-major, and each loss runs
    once over the head axis.
    """
    t = plan.t
    rows = (len(x_weak), len(labeled_x), len(labeled_y), len(x_strong))
    planned = (t.unlabeled_batch, t.labeled_batch, t.labeled_batch, t.unlabeled_batch)
    if rows != planned:
        raise ValueError("the weak, labeled x, labeled y and strong batches have "
                         "{}, {}, {} and {} rows, the step plan {}, {}, {} and {}"
                         .format(*rows, *planned))
    n_w, n_l, _, n_s = rows
    k = model.k
    n_wl = n_w + n_l
    feats, cache = network.forward_features_cached(
        model, np.concatenate([x_weak, labeled_x, x_strong]))
    # the losses run class-major: one copy of the (N, 3, K) logits to (K, N, 3),
    # which leaves the row-major logits to be freed
    z = np.ascontiguousarray(network.head_logits(model, feats).transpose(2, 0, 1))
    finite_logits = bool(np.isfinite(z).all())
    z_w, z_l, z_s = z[:, :n_w], z[:, n_w:n_wl], z[:, n_wl:]

    # head rows follow HEAD_NAMES: original, output, expansive
    sup, g_sup = cross_entropy_with_grad(z_l, labeled_y, plan.adjustment)
    if t.output_pseudo_source == "expansive":
        z_w = z_w[..., [0, 2, 2]]
    con = masked_consistency_from_logits(z_w, z_s, state.thresholds, plan.class_weights)

    ce_o, sup_b, sup_e = sup.tolist()
    con_o, con_b, con_e = con.value.tolist()
    l_basic = ce_o + t.lambda_basic * con_o
    total = l_basic + sup_b + t.lambda_u * con_b + sup_e + t.lambda_u * con_e

    # the (N_labeled + N_strong, 3, K) bundle backward reads, written through
    # its class-major view
    head_grads = np.empty((n_l + n_s, len(network.HEAD_NAMES), k))
    g = head_grads.transpose(2, 0, 1)
    g[:, :n_l] = g_sup
    np.multiply(con.logit_gradients, plan.lambdas, out=g[:, n_l:])
    kept, rate_head, rate_nonhead = _kept_and_mask_rates(
        con.pseudo_labels, con.mask, plan.head_classes)
    return StepLosses(
        total=total, l_basic=l_basic, l_sup_b=sup_b, l_con_b=con_b,
        l_sup_e=sup_e, l_con_e=con_e,
        head_grads=head_grads,
        cache=cache.tail(n_w), cache_strong=cache.tail(n_wl),
        kept=kept,
        mask_rate_head=rate_head, mask_rate_nonhead=rate_nonhead,
        finite_logits=finite_logits,
    )
