"""Losses: balanced softmax supervision, masked consistency, and the total
training objective over the three shared-backbone heads.

Gradient convention: every reported gradient is dL/dlogits for the MEAN loss
over its batch (the 1/N is folded in), so backward() can consume the bundles
directly.  Weighting factors (lambda_u on consistency terms, lambda_basic on
the base term) are folded into the bundles as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .network import ForwardCache, Model, forward_features_cached, head_logits, softmax

__all__ = [
    "LogitAdjustment",
    "LossReport",
    "StepLosses",
    "cross_entropy_with_grad",
    "balanced_softmax_loss",
    "supervised_balanced_loss",
    "masked_consistency_from_logits",
    "consistency_loss",
    "base_loss",
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
    inclusion mask and the pseudo-labels."""

    value: float
    logit_gradients: np.ndarray
    mask: np.ndarray | None = None
    pseudo_labels: np.ndarray | None = None


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = np.max(logits, axis=1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def cross_entropy_with_grad(logits: np.ndarray, y: np.ndarray,
                            adjustment: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean CE of (logits + adjustment) against y; gradient is
    (softmax(adjusted) - onehot(y)) / N."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("logits must be a nonempty (N, K) array")
    if y.shape != (z.shape[0],):
        raise ValueError("labels must be a vector matching the batch")
    adjusted = z if adjustment is None else z + adjustment
    n = z.shape[0]
    logp = _log_softmax(adjusted)
    value = float(-logp[np.arange(n), y].mean())
    grad = softmax(adjusted)
    grad[np.arange(n), y] -= 1.0
    grad /= n
    return value, grad


def balanced_softmax_loss(logits: np.ndarray, y: np.ndarray, tau: float,
                          adj: LogitAdjustment) -> tuple[float, np.ndarray]:
    """CE on logits shifted by tau * delta_p; tau=0 reduces to plain CE."""
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    shift = None if tau == 0.0 else tau * adj.delta_p
    return cross_entropy_with_grad(logits, y, adjustment=shift)


def supervised_balanced_loss(model: Model, head: str, x: np.ndarray, y: np.ndarray,
                             tau: float, adj: LogitAdjustment) -> LossReport:
    feats = network.forward_features(model, x)
    logits = head_logits(model.heads[head], feats)
    value, grad = balanced_softmax_loss(logits, y, tau, adj)
    return LossReport(value=value, logit_gradients=grad)


def _check_thresholds(thresholds: np.ndarray, k: int) -> np.ndarray:
    # Large expansion factors legitimately initialize non-head entries well
    # below 1/2 (c=6 saturated gives 0.35), so the only hard requirement is
    # a positive confidence cut.
    rho = np.asarray(thresholds, dtype=np.float64)
    if rho.shape != (k,):
        raise ValueError(f"thresholds must have length {k}")
    if np.any(rho <= 0.0) or np.any(rho > 1.0):
        raise ValueError("thresholds must lie in (0, 1]")
    return rho


def masked_consistency_from_logits(weak_logits: np.ndarray, strong_logits: np.ndarray,
                                   thresholds: np.ndarray,
                                   class_weights: np.ndarray | None = None) -> LossReport:
    """Pseudo-label from the weak view, include iff its confidence reaches
    the pseudo-class threshold, CE on the strong view over included samples,
    averaged over the FULL batch.  Gradients flow only through the strong
    view and are exactly zero on excluded rows.
    """
    w = np.asarray(weak_logits, dtype=np.float64)
    s = np.asarray(strong_logits, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] == 0 or w.shape != s.shape:
        raise ValueError("weak/strong logits must be matching nonempty (N, K) arrays")
    n, k = w.shape
    rho = _check_thresholds(thresholds, k)
    probs_w = softmax(w)
    pseudo = np.argmax(probs_w, axis=1)
    conf = probs_w[np.arange(n), pseudo]
    included = conf >= rho[pseudo]

    weights = np.ones(n, dtype=np.float64)
    if class_weights is not None:
        cw = np.asarray(class_weights, dtype=np.float64)
        if cw.shape != (k,):
            raise ValueError(f"class_weights must have length {k}")
        weights = cw[pseudo]

    logp = _log_softmax(s)
    per_sample = -logp[np.arange(n), pseudo] * weights
    value = float((per_sample * included).sum() / n)

    grad = softmax(s)
    grad[np.arange(n), pseudo] -= 1.0
    grad *= (weights / n)[:, None]
    grad[~included] = 0.0
    return LossReport(value=value, logit_gradients=grad, mask=included,
                      pseudo_labels=pseudo)


def consistency_loss(model: Model, head: str, x_weak: np.ndarray, x_strong: np.ndarray,
                     thresholds: np.ndarray,
                     class_weights: np.ndarray | None = None) -> LossReport:
    """Consistency between pre-built weak and strong views of one unlabeled
    batch, self-labeled by the given head."""
    feats_w = network.forward_features(model, x_weak)
    feats_s = network.forward_features(model, x_strong)
    head_obj = model.heads[head]
    return masked_consistency_from_logits(head_logits(head_obj, feats_w),
                                          head_logits(head_obj, feats_s),
                                          thresholds, class_weights=class_weights)


def base_loss(model: Model, labeled_x: np.ndarray, labeled_y: np.ndarray,
              x_weak: np.ndarray, x_strong: np.ndarray, rho_max: float,
              lambda_basic: float = 1.0) -> float:
    """Plain self-training objective on the original head: unadjusted CE plus
    lambda_basic times consistency at one scalar threshold for every class."""
    feats_l = network.forward_features(model, labeled_x)
    logits_l = head_logits(model.heads["original"], feats_l)
    ce, _ = cross_entropy_with_grad(logits_l, labeled_y)
    k = model.k
    con = consistency_loss(model, "original", x_weak, x_strong, np.full(k, rho_max))
    return ce + lambda_basic * con.value


@dataclass
class StepLosses:
    """One optimization step's values, statistics, and gradient bundles.

    ``head_grads_labeled``/``head_grads_strong`` are dL_total/dlogits per head
    for the labeled and strong-view forward passes, weights folded in; feed
    them to backward() with the matching caches and sum the results.
    ``finite_logits`` is the step's one finiteness check on its nine logit
    arrays; when it is False no value in the bundle is meaningful.
    """

    total: float
    l_basic: float
    l_sup_b: float
    l_con_b: float
    l_sup_e: float
    l_con_e: float
    head_grads_labeled: dict[str, np.ndarray]
    head_grads_strong: dict[str, np.ndarray]
    cache_labeled: ForwardCache
    cache_strong: ForwardCache
    pseudo_hist: dict[str, np.ndarray]
    mask_rate_head: float
    mask_rate_nonhead: float
    finite_logits: bool


def _aggregate_mask_rates(report: LossReport, head_classes: np.ndarray) -> tuple[float, float]:
    pseudo = report.pseudo_labels
    included = report.mask
    is_head = head_classes[pseudo]
    rates = []
    for sel in (is_head, ~is_head):
        total = int(sel.sum())
        rates.append(0.0 if total == 0 else 1.0 - float(included[sel].sum()) / total)
    return rates[0], rates[1]


def total_loss(model: Model, labeled_x: np.ndarray, labeled_y: np.ndarray,
               x_weak: np.ndarray, x_strong: np.ndarray, adj: LogitAdjustment,
               rho_b: np.ndarray, rho_e: np.ndarray, rho_max: float,
               head_classes: np.ndarray, tau_b: float = 2.0, tau_e: float = 4.0,
               lambda_u: float = 2.0, lambda_basic: float = 1.0,
               class_weights: np.ndarray | None = None,
               output_pseudo_source: str = "self") -> StepLosses:
    """L = L_basic + L_sup^b + lambda_u * L_con^b + L_sup^e + lambda_u * L_con^e.

    L_basic lives on the original head (plain CE + lambda_basic * consistency
    at the scalar rho_max).  The balanced (output) and expansive heads get
    tau-adjusted supervision and consistency at their own per-class
    thresholds.  Every head self-labels from its own weak view;
    ``output_pseudo_source="expansive"`` switches the output head to the
    expansive head's pseudo-labels instead.

    All three heads train from the first step.  Before an anchor is matched
    the caller passes scalar-valued threshold vectors at rho_max; matching
    only changes the thresholds, never which terms exist.
    """
    if output_pseudo_source not in ("self", "expansive"):
        raise ValueError("output_pseudo_source must be 'self' or 'expansive'")
    k = model.k
    feats_l, cache_l = forward_features_cached(model, labeled_x)
    feats_w = network.forward_features(model, x_weak)
    feats_s, cache_s = forward_features_cached(model, x_strong)

    logits_l = {h: head_logits(model.heads[h], feats_l) for h in network.HEAD_NAMES}
    logits_w = {h: head_logits(model.heads[h], feats_w) for h in network.HEAD_NAMES}
    logits_s = {h: head_logits(model.heads[h], feats_s) for h in network.HEAD_NAMES}
    finite_logits = all(bool(np.isfinite(z).all())
                        for logits in (logits_l, logits_w, logits_s) for z in logits.values())

    ce_o, g_ce_o = cross_entropy_with_grad(logits_l["original"], labeled_y)
    sup_b, g_sup_b = balanced_softmax_loss(logits_l["output"], labeled_y, tau_b, adj)
    sup_e, g_sup_e = balanced_softmax_loss(logits_l["expansive"], labeled_y, tau_e, adj)

    con_o = masked_consistency_from_logits(logits_w["original"], logits_s["original"],
                                           np.full(k, rho_max))
    weak_for_output = logits_w["expansive"] if output_pseudo_source == "expansive" else logits_w["output"]
    con_b = masked_consistency_from_logits(weak_for_output, logits_s["output"],
                                           rho_b, class_weights=class_weights)
    con_e = masked_consistency_from_logits(logits_w["expansive"], logits_s["expansive"],
                                           rho_e, class_weights=class_weights)

    l_basic = ce_o + lambda_basic * con_o.value
    total = l_basic + sup_b + lambda_u * con_b.value + sup_e + lambda_u * con_e.value

    head_grads_labeled = {"original": g_ce_o, "output": g_sup_b, "expansive": g_sup_e}
    head_grads_strong = {
        "original": lambda_basic * con_o.logit_gradients,
        "output": lambda_u * con_b.logit_gradients,
        "expansive": lambda_u * con_e.logit_gradients,
    }
    pseudo_hist = {}
    for name, rep in (("original", con_o), ("output", con_b), ("expansive", con_e)):
        pseudo_hist[name] = np.bincount(rep.pseudo_labels[rep.mask], minlength=k)
    rate_head, rate_nonhead = _aggregate_mask_rates(con_b, np.asarray(head_classes, dtype=bool))
    return StepLosses(
        total=total, l_basic=l_basic, l_sup_b=sup_b, l_con_b=con_b.value,
        l_sup_e=sup_e, l_con_e=con_e.value,
        head_grads_labeled=head_grads_labeled, head_grads_strong=head_grads_strong,
        cache_labeled=cache_l, cache_strong=cache_s,
        pseudo_hist=pseudo_hist, mask_rate_head=rate_head, mask_rate_nonhead=rate_nonhead,
        finite_logits=finite_logits,
    )
