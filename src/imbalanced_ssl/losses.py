"""Losses: balanced softmax supervision, masked consistency, and the total
training objective over the three shared-backbone heads.

Gradient convention: every reported gradient is dL/dlogits for the MEAN loss
over its batch (the 1/N is folded in), so backward() can consume the bundles
directly.  Weighting factors (lambda_u on consistency terms, lambda_basic on
the base term) are folded into the bundles as well.

Head axis: the loss functions work over the last (class) axis, so they take
either (N, K) logits of one head or (N, H, K) logits of H stacked heads.  With
a head axis, the per-class inputs (adjustment, thresholds, class weights) are
(H, K), one row per head, and every value comes back per head.  The training
step calls each loss once for all three heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import network
from .network import ForwardCache, Model, softmax

if TYPE_CHECKING:
    from .config import TrainSection

__all__ = [
    "LogitAdjustment",
    "LossReport",
    "StepLosses",
    "LOSS_COMPONENTS",
    "LOSS_COLUMNS",
    "cross_entropy_with_grad",
    "balanced_softmax_loss",
    "masked_consistency_from_logits",
    "total_loss",
]


@dataclass(frozen=True)
class LogitAdjustment:
    """Per-class log-frequency shift: delta_p[k] = log(N_k / sum(N)).

    All entries are <= 0 and their exponentials sum to 1.
    """

    delta_p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.delta_p, dtype=np.float64).copy()
        if arr.ndim != 1:
            raise ValueError("delta_p must be a vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("delta_p must be finite (no zero-count classes)")
        if np.any(arr > 1e-12):
            raise ValueError("delta_p entries must be log-proportions (<= 0)")
        if abs(float(np.exp(arr).sum()) - 1.0) > 1e-9:
            raise ValueError("exp(delta_p) must sum to 1")
        arr.flags.writeable = False
        object.__setattr__(self, "delta_p", arr)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "LogitAdjustment":
        c = np.asarray(counts, dtype=np.float64)
        if np.any(c <= 0):
            raise ValueError("logit adjustment needs strictly positive class counts")
        return cls(delta_p=np.log(c / c.sum()))


@dataclass
class LossReport:
    """Value plus logit-level gradients; consistency losses also carry the
    inclusion mask and the pseudo-labels.  With a head axis the value is one
    per head and mask/pseudo-labels are (N, H)."""

    value: float | np.ndarray
    logit_gradients: np.ndarray
    mask: np.ndarray | None = None
    pseudo_labels: np.ndarray | None = None


def _softmax_and_log(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax and log-softmax over the last axis from one shift and one exp;
    the softmax is bit-identical to network.softmax."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


def _flat_at(shape: tuple[int, ...], classes: np.ndarray) -> np.ndarray:
    """Flat index of the entry ``classes[i, ...]`` on the last axis of a
    C-ordered array of ``shape``, at every leading position; ``classes``
    broadcasts against the leading shape.  The loss inputs are made
    C-contiguous, so their ``reshape(-1)`` is a view."""
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1]) + classes


def _check_batch(logits: np.ndarray) -> None:
    if logits.ndim not in (2, 3) or logits.shape[0] == 0:
        raise ValueError("logits must be a nonempty (N, K) or (N, H, K) array")


def cross_entropy_with_grad(logits: np.ndarray, y: np.ndarray,
                            adjustment: np.ndarray | None = None
                            ) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean CE of (logits + adjustment) against y; gradient is
    (softmax(adjusted) - onehot(y)) / N.  With (N, H, K) logits, y labels
    every head and the value is one mean per head."""
    z = np.ascontiguousarray(logits, dtype=np.float64)
    y = np.asarray(y)
    _check_batch(z)
    n = z.shape[0]
    if y.shape != (n,):
        raise ValueError("labels must be a vector matching the batch")
    if y.min() < 0 or y.max() >= z.shape[-1]:
        raise ValueError(f"labels must lie in [0, {z.shape[-1]})")
    adjusted = z if adjustment is None else z + adjustment
    grad, logp = _softmax_and_log(adjusted)
    at_y = _flat_at(z.shape, y.reshape(n, *(1,) * (z.ndim - 2)))
    value = -logp.reshape(-1)[at_y].mean(axis=0)
    grad.reshape(-1)[at_y] -= 1.0
    grad /= n
    return value, grad


def balanced_softmax_loss(logits: np.ndarray, y: np.ndarray, tau,
                          adj: LogitAdjustment) -> tuple[float | np.ndarray, np.ndarray]:
    """CE on logits shifted by tau * delta_p; tau=0 reduces to plain CE.
    With (N, H, K) logits, tau holds one value per head."""
    tau = np.asarray(tau, dtype=np.float64)
    if not np.all(tau >= 0.0):
        raise ValueError("tau must be >= 0")
    return cross_entropy_with_grad(logits, y, adjustment=np.multiply.outer(tau, adj.delta_p))


def _check_thresholds(thresholds: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Large expansion factors legitimately initialize non-head entries well
    # below 1/2 (c=6 saturated gives 0.35), so the only hard requirement is
    # a positive confidence cut.
    rho = np.asarray(thresholds, dtype=np.float64)
    if rho.shape != shape:
        raise ValueError(f"thresholds must have shape {shape}")
    if not np.all((rho > 0.0) & (rho <= 1.0)):
        raise ValueError("thresholds must lie in (0, 1]")
    return rho


def masked_consistency_from_logits(weak_logits: np.ndarray, strong_logits: np.ndarray,
                                   thresholds: np.ndarray,
                                   class_weights: np.ndarray | None = None) -> LossReport:
    """Pseudo-label from the weak view, include iff its confidence reaches
    the pseudo-class threshold, CE on the strong view over included samples,
    averaged over the FULL batch.  Gradients flow only through the strong
    view and are exactly zero on excluded rows.  With (N, H, K) logits,
    thresholds and class weights are (H, K), one row per head.
    """
    w = np.ascontiguousarray(weak_logits, dtype=np.float64)
    s = np.ascontiguousarray(strong_logits, dtype=np.float64)
    _check_batch(w)
    if w.shape != s.shape:
        raise ValueError("weak/strong logits must have matching shapes")
    n = w.shape[0]
    rho = _check_thresholds(thresholds, w.shape[1:])
    probs_w = softmax(w)
    pseudo = np.argmax(probs_w, axis=-1)
    at = _flat_at(w.shape, pseudo)
    # the pseudo-class entry of each row's per-class inputs: (K,) or (H, K)
    at_class = _flat_at(rho.shape, pseudo)
    included = probs_w.reshape(-1)[at] >= rho.reshape(-1)[at_class]

    if class_weights is None:
        weights = np.ones(pseudo.shape, dtype=np.float64)
    else:
        cw = np.asarray(class_weights, dtype=np.float64)
        if cw.shape != rho.shape:
            raise ValueError(f"class_weights must have shape {rho.shape}")
        weights = cw.reshape(-1)[at_class]

    grad, logp = _softmax_and_log(s)
    per_sample = -logp.reshape(-1)[at] * weights
    value = (per_sample * included).sum(axis=0) / n

    grad.reshape(-1)[at] -= 1.0
    grad *= (weights / n)[..., None]
    grad[~included] = 0.0
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
    pseudo_hist: dict[str, np.ndarray]
    mask_rate_head: float
    mask_rate_nonhead: float
    finite_logits: bool


def _aggregate_mask_rates(pseudo: np.ndarray, included: np.ndarray,
                          head_classes: np.ndarray) -> tuple[float, float]:
    is_head = head_classes[pseudo]
    rates = []
    for sel in (is_head, ~is_head):
        total = int(sel.sum())
        rates.append(0.0 if total == 0 else 1.0 - float(included[sel].sum()) / total)
    return rates[0], rates[1]


def total_loss(model: Model, labeled_x: np.ndarray, labeled_y: np.ndarray,
               x_weak: np.ndarray, x_strong: np.ndarray, adj: LogitAdjustment,
               thresholds: np.ndarray, head_classes: np.ndarray, t: TrainSection,
               class_weights: np.ndarray | None = None) -> StepLosses:
    """L = L_basic + L_sup^b + lambda_u * L_con^b + L_sup^e + lambda_u * L_con^e,
    with tau_b, tau_e, lambda_u, lambda_basic and output_pseudo_source read
    from ``t``.

    ``thresholds`` is (3, K), one row per head in HEAD_NAMES order, as
    ``ThresholdState.thresholds`` holds it.  L_basic lives on the original
    head (plain CE + lambda_basic * consistency at its row, rho_max in
    training).  The balanced (output) and expansive heads get tau-adjusted
    supervision and consistency at their own per-class thresholds.  Every
    head self-labels from its own weak view;
    ``output_pseudo_source="expansive"`` switches the output head to the
    expansive head's pseudo-labels instead.

    All three heads train from the first step.  Before an anchor is matched
    every threshold sits at rho_max; matching only changes the thresholds,
    never which terms exist.

    One backbone forward covers ``[weak; labeled; strong]``, one matmul gives
    every head's logits, and each loss runs once over the head axis.
    """
    k = model.k
    n_w = np.shape(x_weak)[0]
    n_wl = n_w + np.shape(labeled_x)[0]
    feats, cache = network.forward_features_cached(
        model, np.concatenate([x_weak, labeled_x, x_strong]))
    logits = network.stacked_head_logits(model, feats)
    finite_logits = bool(np.isfinite(logits).all())
    z_w, z_l, z_s = logits[:n_w], logits[n_w:n_wl], logits[n_wl:]

    # head rows follow HEAD_NAMES: original, output, expansive
    sup, g_sup = balanced_softmax_loss(z_l, labeled_y, [0.0, t.tau_b, t.tau_e], adj)
    if t.output_pseudo_source == "expansive":
        z_w = z_w[:, [0, 2, 2]]
    weights = (None if class_weights is None
               else np.stack([np.ones(k), class_weights, class_weights]))
    con = masked_consistency_from_logits(z_w, z_s, thresholds, class_weights=weights)

    ce_o, sup_b, sup_e = sup.tolist()
    con_o, con_b, con_e = con.value.tolist()
    l_basic = ce_o + t.lambda_basic * con_o
    total = l_basic + sup_b + t.lambda_u * con_b + sup_e + t.lambda_u * con_e

    g_con = con.logit_gradients * np.array([t.lambda_basic, t.lambda_u, t.lambda_u])[:, None]
    heads = len(network.HEAD_NAMES)
    kept = np.bincount((con.pseudo_labels + k * np.arange(heads))[con.mask],
                       minlength=heads * k).reshape(heads, k)
    rate_head, rate_nonhead = _aggregate_mask_rates(
        con.pseudo_labels[:, 1], con.mask[:, 1], np.asarray(head_classes, dtype=bool))
    return StepLosses(
        total=total, l_basic=l_basic, l_sup_b=sup_b, l_con_b=con_b,
        l_sup_e=sup_e, l_con_e=con_e,
        head_grads=np.concatenate([g_sup, g_con]),
        cache=cache.tail(n_w), cache_strong=cache.tail(n_wl),
        pseudo_hist=dict(zip(network.HEAD_NAMES, kept)),
        mask_rate_head=rate_head, mask_rate_nonhead=rate_nonhead,
        finite_logits=finite_logits,
    )
