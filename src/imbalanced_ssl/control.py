"""Decoupled sampling control: threshold initialization from the matched
anchor's expansion factor, bias-driven per-class threshold decay, bias-vector
extraction, logit calibration, and unlabeled-count estimation.

The controller reads exactly one signal: the output head's bias term, a proxy
for accumulated optimization imbalance.  Each step, every class whose bias
exceeds nu has its confidence threshold lowered by alpha on both heads.
Entries only ever decrease.  The decay rule stops at rho_floor; an entry
whose initialization already sits below the floor (large expansion factors
produce these) is frozen there rather than pulled up, so trajectories are
nonincreasing without exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .network import Model

__all__ = [
    "ThresholdState",
    "init_thresholds",
    "update_thresholds",
    "extract_bias_vector",
    "calibrate_logits",
    "estimate_unlabeled_distribution",
]

DEFAULT_ALPHA = 0.005
DEFAULT_NU = 1.0
DEFAULT_RHO_MAX = 0.95
DEFAULT_RHO_FLOOR = 0.5


@dataclass(frozen=True)
class ThresholdState:
    """Per-class confidence thresholds for the balanced (rho_b) and expansive
    (rho_e) heads, plus the controller constants.

    ``thresholds`` is the (3, K) matrix the training step reads, one row per
    head in HEAD_NAMES order: the original head at the scalar rho_max, then
    rho_b and rho_e.  It is built once per state; ``rho_b`` and ``rho_e``
    are read-only views of its rows."""

    rho_b: np.ndarray
    rho_e: np.ndarray
    alpha: float = DEFAULT_ALPHA
    nu: float = DEFAULT_NU
    rho_max: float = DEFAULT_RHO_MAX
    rho_floor: float = DEFAULT_RHO_FLOOR
    thresholds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_floor < self.rho_max <= 1.0:
            raise ValueError("need 0 < rho_floor < rho_max <= 1")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")
        for name in ("rho_b", "rho_e"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError(f"{name} must be a per-class vector")
            if np.any(arr <= 0.0) or np.any(arr > self.rho_max + 1e-12):
                raise ValueError(f"{name} entries must lie in (0, rho_max]")
        if np.shape(self.rho_b) != np.shape(self.rho_e):
            raise ValueError("rho_b and rho_e must have the same length")
        self._set_thresholds(np.stack([np.full(np.shape(self.rho_b), self.rho_max),
                                       self.rho_b, self.rho_e]))

    def _set_thresholds(self, thresholds: np.ndarray) -> None:
        thresholds.flags.writeable = False
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "rho_b", thresholds[1])
        object.__setattr__(self, "rho_e", thresholds[2])

    @property
    def k(self) -> int:
        return int(self.rho_b.size)


def init_thresholds(c: float, gamma_u: float, head_classes: np.ndarray,
                    alpha: float = DEFAULT_ALPHA, nu: float = DEFAULT_NU,
                    rho_max: float = DEFAULT_RHO_MAX,
                    rho_floor: float = DEFAULT_RHO_FLOOR) -> ThresholdState:
    """Head classes start at rho_max on both heads.  Non-head entries:

        rho_b0 = rho_max - ((c - 4) / 10) * min(gamma_u / 50, 1)
        rho_e0 = rho_max - ((c - 3) / 5)  * min(gamma_u / 20, 1)

    capped above at rho_max and required to stay positive.  These values may
    legitimately start below rho_floor (c=6 with saturated imbalance gives
    0.35); the floor only limits the later bias-driven decay.  Larger
    expansion factors and heavier unlabeled imbalance push non-head
    thresholds further down, and the expansive head always at least as far
    as the balanced one once both damping terms saturate.
    """
    if not c > 3.0:
        raise ValueError(f"expansion factor must exceed 3, got {c}")
    if gamma_u < 1.0:
        raise ValueError(f"imbalance ratio must be >= 1, got {gamma_u}")
    head = np.asarray(head_classes, dtype=bool)
    if head.ndim != 1 or head.size < 2:
        raise ValueError("head_classes must be a boolean vector over classes")
    rho_b0 = rho_max - ((c - 4.0) / 10.0) * min(gamma_u / 50.0, 1.0)
    rho_e0 = rho_max - ((c - 3.0) / 5.0) * min(gamma_u / 20.0, 1.0)
    if min(rho_b0, rho_e0) <= 0.0:
        raise ValueError(f"expansion factor {c} drives a threshold nonpositive")
    rho_b = np.where(head, rho_max, min(rho_b0, rho_max))
    rho_e = np.where(head, rho_max, min(rho_e0, rho_max))
    return ThresholdState(rho_b=rho_b, rho_e=rho_e, alpha=alpha, nu=nu,
                          rho_max=rho_max, rho_floor=rho_floor)


def update_thresholds(state: ThresholdState, b_opt: np.ndarray) -> ThresholdState:
    """One controller tick: rho(k) -= alpha wherever b_opt(k) > nu (signed
    comparison, both heads, same rule), given the output head's bias vector
    ``b_opt``.  The decay is clamped at rho_floor; entries already below the
    floor stay where they are, so the trajectory never increases.

    The state was validated when it was built and a tick keeps its
    invariants, so the new state is not validated again; its vectors are
    read-only like the state's own."""
    if np.shape(b_opt) != state.rho_b.shape:
        raise ValueError("bias vector length must match class count")
    hot = np.asarray(b_opt) > state.nu
    if not hot.any():
        return state
    rho = state.thresholds[1:]
    thresholds = state.thresholds.copy()
    thresholds[1:] = np.maximum(rho - state.alpha * hot, np.minimum(rho, state.rho_floor))
    ticked = object.__new__(ThresholdState)
    ticked.__dict__.update(state.__dict__)
    ticked._set_thresholds(thresholds)
    return ticked


def extract_bias_vector(model: Model) -> np.ndarray:
    """The output head's bias term, as a read-only copy.  Never another
    head's."""
    b_opt = model.heads["output"].b.copy()
    b_opt.flags.writeable = False
    return b_opt


def calibrate_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """Inference-time correction: the output head's affine map with its bias
    removed, exactly W_b @ B(x), given the backbone features B(x)."""
    return features @ model.heads["output"].w.T


def estimate_unlabeled_distribution(model: Model, unlabeled_x: np.ndarray) -> np.ndarray:
    """Histogram of calibrated predictions (lowest index wins ties) over the
    unlabeled split; sums to the split size by construction."""
    x = np.asarray(unlabeled_x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("unlabeled set must be a nonempty (M, D) array")
    preds = np.argmax(calibrate_logits(model, network.forward_features(model, x)), axis=1)
    return np.bincount(preds, minlength=model.k).astype(np.int64)
