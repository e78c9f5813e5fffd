"""Decoupled sampling control: threshold initialization from the matched
anchor's expansion factor, bias-driven per-class threshold decay, bias-vector
extraction, logit calibration, blocked inference (``predict``) of the
VIEWS, and unlabeled-count estimation.

The controller reads exactly one signal: the output head's bias term, a proxy
for accumulated optimization imbalance.  Each step, every class whose bias
exceeds nu has its confidence threshold lowered by alpha on both heads.
Entries only ever decrease.  The decay rule stops at rho_floor; an entry
whose initialization already sits below the floor (large expansion factors
produce these) is frozen there rather than pulled up, so trajectories are
nonincreasing without exception.

``ThresholdState`` is the read-only (3, K) threshold matrix alone; alpha, nu
and rho_floor are read off the run's ``TrainSection`` at each tick.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import network
from .network import Model

if TYPE_CHECKING:
    from .config import TrainSection

__all__ = [
    "VIEWS",
    "ThresholdState",
    "init_thresholds",
    "update_thresholds",
    "extract_bias_vector",
    "calibrate_logits",
    "inference_blocks",
    "predict",
    "estimate_unlabeled_distribution",
]

# The views inference predicts from, in the metrics.csv column order: each
# head's logits, and "calibrated", the output head's with its bias removed
VIEWS = ("original", "output", "calibrated", "expansive")

# Inference forwards its input in ceil(N / rows) blocks whose sizes differ by
# at most one, rows = max(_MIN_ROWS, 2 * (_SMALL_PRODUCT // (3K) + 1),
# _BLOCK_BYTES // (8 * widest)), widest the most columns of any array a block
# allocates: a layer's activations or the (rows, 3K) head logits.  Arrays
# below glibc's 128 KiB mmap threshold reuse freed heap memory, while each
# larger one is mapped and page-faulted afresh.
# A split block keeps at least rows // 2 rows.  Blocks of 16 or 32 rows take
# OpenBLAS's small-matrix path and differ from one forward over all rows in
# the last bits, while at every size tried from 48 rows on, a block's
# features matched bit for bit.  Off a 32-wide feature, a product takes that
# path while rows x output width <= _SMALL_PRODUCT: the stacked (rows, 3K)
# logits up to 40 rows at K = 10, a (rows, K) product up to 120.  So the
# calibrated view is the output slab of a bias-free stacked product, not a
# (rows, K) product of its own, and the second term keeps every split block
# above 1,200 / 3K rows, which binds at K <= 3: 402 rows at K = 2 and 268 at
# K = 3 (OpenBLAS 0.3.31, 1 and 2 threads).
_BLOCK_BYTES = 120 * 1024
_MIN_ROWS = 128
_SMALL_PRODUCT = 1200


@dataclass(frozen=True)
class ThresholdState:
    """Per-class confidence thresholds.

    ``thresholds`` is the (3, K) matrix the training step reads, one row per
    head in HEAD_NAMES order: the original head at rho_max, then the balanced
    head's rho_b and the expansive head's rho_e.  It must be a float array
    of shape (3, K), K >= 2, every entry finite and in (0, 1]; entries below
    rho_floor are legal, as ``init_thresholds`` makes them.  It is made
    read-only here; ``rho_b`` and ``rho_e`` are views of its rows."""

    thresholds: np.ndarray

    def __post_init__(self) -> None:
        rho = self.thresholds
        if not (isinstance(rho, np.ndarray) and np.issubdtype(rho.dtype, np.floating)):
            raise ValueError("thresholds must be a float array")
        if rho.ndim != 2 or rho.shape[0] != len(network.HEAD_NAMES) or rho.shape[1] < 2:
            raise ValueError(f"thresholds must have shape (3, K) with K >= 2, got {rho.shape}")
        # NaN fails both comparisons, and +-inf one of them
        if not ((rho > 0.0) & (rho <= 1.0)).all():
            raise ValueError("thresholds must be finite and lie in (0, 1]")
        rho.flags.writeable = False

    @property
    def rho_b(self) -> np.ndarray:
        return self.thresholds[1]

    @property
    def rho_e(self) -> np.ndarray:
        return self.thresholds[2]


def init_thresholds(c: float, gamma_u: float, head_classes: np.ndarray,
                    t: TrainSection) -> ThresholdState:
    """Head classes start at rho_max on both heads.  Non-head entries:

        rho_b0 = rho_max - ((c - 4) / 10) * min(gamma_u / 50, 1)
        rho_e0 = rho_max - ((c - 3) / 5)  * min(gamma_u / 20, 1)

    capped above at rho_max and required to stay positive.  These values may
    legitimately start below rho_floor (c=6 with saturated imbalance gives
    0.35); the floor only limits the later bias-driven decay.  Larger
    expansion factors and heavier unlabeled imbalance push non-head
    thresholds further down, and the expansive head always at least as far
    as the balanced one once both damping terms saturate.  The constants are t's.
    ``c`` and ``gamma_u`` are a match's (``AnchorSet`` keeps c in (3, inf), and
    gamma_u is a finite max/min ratio); ``head_classes`` is the plan's mask.
    """
    rho_b0 = t.rho_max - ((c - 4.0) / 10.0) * min(gamma_u / 50.0, 1.0)
    rho_e0 = t.rho_max - ((c - 3.0) / 5.0) * min(gamma_u / 20.0, 1.0)
    if min(rho_b0, rho_e0) <= 0.0:
        raise ValueError(f"expansion factor {c} drives a threshold nonpositive")
    thresholds = np.stack([np.full(head_classes.size, t.rho_max),
                           np.where(head_classes, t.rho_max, min(rho_b0, t.rho_max)),
                           np.where(head_classes, t.rho_max, min(rho_e0, t.rho_max))])
    return ThresholdState(thresholds)


def update_thresholds(state: ThresholdState, b_opt: np.ndarray,
                      t: TrainSection) -> ThresholdState:
    """One controller tick: rho(k) -= alpha wherever b_opt(k) > nu (signed
    comparison, both heads, same rule), given the output head's (K,) bias
    vector ``b_opt``; alpha, nu and rho_floor are t's.  The decay is clamped
    at rho_floor; entries already below the floor stay where they are, so
    the trajectory never increases.  A tick with no hot class returns
    ``state`` itself."""
    hot = b_opt > t.nu
    if not hot.any():
        return state
    rho = state.thresholds[1:]
    thresholds = state.thresholds.copy()
    thresholds[1:] = np.maximum(rho - t.alpha * hot, np.minimum(rho, t.rho_floor))
    return ThresholdState(thresholds)


def extract_bias_vector(model: Model) -> np.ndarray:
    """The output head's bias term, as a read-only copy.  Never another
    head's."""
    b_opt = model.heads["output"].b.copy()
    b_opt.flags.writeable = False
    return b_opt


def calibrate_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """Inference-time correction: the output head's affine map with its bias
    removed, exactly W_b @ B(x), given the backbone features B(x).  It is the
    output head's slab of the bias-free stacked product, whose bits do not
    depend on the block's rows (see the block rule)."""
    k = model.k
    return (features @ model.head_w.T)[:, k:2 * k]


def _blocks(n: int, rows: int) -> list[tuple[int, int]]:
    """(start, stop) bounds tiling [0, n) with ceil(n / rows) blocks whose
    sizes differ by at most one, so one block when n <= rows."""
    count = -(-n // rows)
    edges = [n * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _block_rows(model: Model) -> int:
    """The rows of a full inference block of ``model``: its widest array,
    activations or stacked head logits, stays within _BLOCK_BYTES, unless a
    split block would then take the small-matrix path (see the block rule)."""
    stacked = len(network.HEAD_NAMES) * model.k
    widest = max(*model.dims[1:], stacked)
    return max(_MIN_ROWS, 2 * (_SMALL_PRODUCT // stacked + 1), _BLOCK_BYTES // (8 * widest))


def inference_blocks(model: Model, n: int) -> list[tuple[int, int]]:
    """The (start, stop) row blocks ``predict`` forwards n rows of input in
    (``_blocks`` of ``_block_rows``).  A caller that hands ``predict`` one
    such block at a time gets the predictions of one call over all rows."""
    return _blocks(n, _block_rows(model))


def predict(model: Model, x: np.ndarray, views: Sequence[str]) -> np.ndarray:
    """The (len(views), N) argmax predictions of each view in ``views`` (of
    VIEWS) over the rows of ``x`` (lowest index wins ties).  The head views
    of a block are read off one ``head_logits`` matmul, made only when a
    head view is asked for, and one argmax over the heads asked for (one
    head's slab when one is), and "calibrated" off ``calibrate_logits``.
    The rows are forwarded in ``inference_blocks``, so no features or
    logits outlive their block, and the predictions equal those of one
    forward over all rows.
    The one row check of inference: ``x`` is a nonempty (N, D) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"inference needs a nonempty (N, D) array, got shape {x.shape}")
    preds = np.empty((len(views), x.shape[0]), dtype=np.intp)
    # the heads asked for span HEAD_NAMES[lo:hi]; the argmax reads that span
    heads = [network.HEAD_NAMES.index(view) for view in views if view != "calibrated"]
    lo, hi = (min(heads), max(heads) + 1) if heads else (0, 0)
    for start, stop in inference_blocks(model, x.shape[0]):
        feats = network.forward_features(model, x[start:stop])
        by_head = (np.argmax(network.head_logits(model, feats)[:, lo:hi], axis=2)
                   if heads else None)
        for out, view in zip(preds, views):
            out[start:stop] = (np.argmax(calibrate_logits(model, feats), axis=1)
                               if view == "calibrated"
                               else by_head[:, network.HEAD_NAMES.index(view) - lo])
    return preds


def estimate_unlabeled_distribution(model: Model, unlabeled_x: np.ndarray) -> np.ndarray:
    """Histogram of calibrated predictions (lowest index wins ties) over the
    unlabeled split; sums to the split size by construction."""
    return np.bincount(predict(model, unlabeled_x, ("calibrated",))[0],
                       minlength=model.k).astype(np.int64)
