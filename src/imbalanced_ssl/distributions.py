"""Class shapes, imbalance measures, and anchor matching.

Class index 0 is always the most frequent *labeled* class; "head" classes are
the first half of that ordering.  ``SHAPES`` lists the five class shapes in
anchor order with the expansion factor each initializes the thresholds from
once matched.  ``shape_proportions`` writes each shape once, as proportions;
they are the KL-matching anchors (``default_anchor_set``) and, scaled so the
largest class holds ``n_max``, the split counts (``make_distribution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SHAPES",
    "ClassDistribution",
    "AnchorSet",
    "AnchorMatch",
    "shape_proportions",
    "make_distribution",
    "head_mask",
    "rescale_anchor",
    "kl_divergence",
    "match_anchor",
    "default_anchor_set",
    "anchor_set_from_json",
    "counts_from_json",
]

KL_SMOOTHING = 1e-6

# The five class shapes in anchor order, each with its expansion factor.
SHAPES = {"consist": 4, "uniform": 5, "inverse": 6, "gaussian": 4, "gaussian-inverse": 6}


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class weights: raw counts for data splits, proportions for anchors.

    ``counts`` is any nonnegative vector with at least one positive entry, a
    finite total and length >= 2; ``proportions`` normalizes it.  ``kind``
    names one of ``SHAPES`` or is "custom".
    """

    counts: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a class distribution needs at least 2 classes")
        with np.errstate(over="ignore"):
            if not np.isfinite(arr.sum()) or np.any(arr < 0.0):
                raise ValueError("class counts must be finite and nonnegative, "
                                 "with a finite total")
        if not np.any(arr > 0.0):
            raise ValueError("class counts must not all be zero")
        if not (isinstance(self.kind, str) and (self.kind in SHAPES or self.kind == "custom")):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def k(self) -> int:
        return int(self.counts.size)

    @property
    def proportions(self) -> np.ndarray:
        return self.counts / float(self.counts.sum())

    def int_counts(self) -> np.ndarray:
        """Counts as integers; rejects non-integral weights."""
        rounded = np.rint(self.counts)
        if not np.allclose(self.counts, rounded, atol=1e-9):
            raise ValueError("distribution does not hold integer counts")
        return rounded.astype(np.int64)


def shape_proportions(kind: str, k: int, gamma: float, as_variance: bool) -> np.ndarray:
    """Proportions of a named shape over ``k`` classes; 1 <= gamma < inf.

    consist is geometric, p_i proportional to gamma^(-i/(k-1)) (max/min =
    gamma), and inverse is it reversed.  gaussian is a bell centered at
    (k-1)/2 of width k/6, the standard deviation (the variance with
    ``as_variance``).  gaussian-inverse is the bell's reciprocal: reversing
    the symmetric bell would be a no-op, the reciprocal is the edge-heavy
    valley that stays distinguishable from it.
    """
    if kind not in SHAPES:
        raise ValueError(f"unknown distribution kind {kind!r}; expected one of {tuple(SHAPES)}")
    if k < 2:
        raise ValueError("k must be >= 2")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"imbalance ratio gamma must be >= 1 and finite, got {gamma}")
    idx = np.arange(k, dtype=np.float64)
    if kind == "uniform":
        return np.full(k, 1.0 / k)
    if kind in ("consist", "inverse"):
        geometric = gamma ** (-idx / (k - 1))
        consist = geometric / geometric.sum()
        return consist if kind == "consist" else consist[::-1].copy()
    std = math.sqrt(k / 6.0) if as_variance else k / 6.0
    exponent = ((idx - (k - 1) / 2.0) ** 2) / (2.0 * std * std)
    weights = np.exp(exponent if kind == "gaussian-inverse" else -exponent)
    return weights / weights.sum()


def make_distribution(kind: str, k: int, n_max: int, gamma: float,
                      as_variance: bool) -> ClassDistribution:
    """Counts for a named shape: its proportions scaled so the largest class
    holds exactly ``n_max`` samples, rounded half up, at least 1 per class."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = shape_proportions(kind, k, gamma, as_variance)
    counts = np.maximum(np.floor(p / p.max() * n_max + 0.5), 1.0)
    return ClassDistribution(counts=counts, kind=kind)


def head_mask(k: int) -> np.ndarray:
    """True for head classes: the first ceil(k/2) indices of the descending
    labeled-count order."""
    if k < 2:
        raise ValueError("k must be >= 2")
    mask = np.zeros(k, dtype=bool)
    mask[: math.ceil(k / 2)] = True
    return mask


def rescale_anchor(anchor: np.ndarray, estimated: np.ndarray) -> np.ndarray:
    """Scale anchor proportions to the total of the estimated counts:
    Q_i = p_i * sum(N^e) / sum(p)."""
    p = np.asarray(anchor, dtype=np.float64)
    n = np.asarray(estimated, dtype=np.float64)
    if p.shape != n.shape:
        raise ValueError(f"length mismatch: anchor {p.shape} vs estimated {n.shape}")
    if np.any(p < 0.0) or p.sum() <= 0.0:
        raise ValueError("anchor proportions must be nonnegative with positive sum")
    total = n.sum()
    if n.size == 0 or total <= 0.0:
        raise ValueError("estimated counts must have a positive total")
    return p * (total / p.sum())


def kl_divergence(estimated: np.ndarray, rescaled: np.ndarray) -> float:
    """KL(estimated || rescaled) after normalizing both to proportions.

    Every category gets +KL_SMOOTHING before normalization, so zero counts on
    either side stay finite.  Natural log.
    """
    p = np.asarray(estimated, dtype=np.float64)
    q = np.asarray(rescaled, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("counts must be nonnegative")
    ps = p + KL_SMOOTHING
    qs = q + KL_SMOOTHING
    ps = ps / ps.sum()
    qs = qs / qs.sum()
    with np.errstate(over="ignore"):
        ratio = ps / qs
    log_ratio = np.log(ratio)
    # ps / qs overflows only for a subnormal qs (a tiny anchor class against
    # a huge total); the difference of logs stays finite there
    big = np.isinf(ratio)
    log_ratio[big] = np.log(ps[big]) - np.log(qs[big])
    return float(np.sum(ps * log_ratio))


@dataclass(frozen=True)
class AnchorSet:
    """Candidate unlabeled-distribution shapes with per-anchor expansion factors."""

    anchors: tuple[ClassDistribution, ...]
    expansion_factors: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ValueError("anchor set must not be empty")
        if len(self.anchors) != len(self.expansion_factors):
            raise ValueError("one expansion factor per anchor required")
        if any(not 3.0 < c < math.inf for c in self.expansion_factors):
            raise ValueError("every expansion factor must be finite and exceed 3")
        k = self.anchors[0].k
        if any(a.k != k for a in self.anchors):
            raise ValueError("all anchors must share the same class count")

    @property
    def k(self) -> int:
        return self.anchors[0].k


def _json_numbers(values, what: str) -> np.ndarray:
    """A JSON array of numbers as floats.  A string, bool, object, array or
    null entry is not a number, nor is an integer too large for a float."""
    if not (isinstance(values, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        raise ValueError(f"{what} must be a JSON array of numbers (no string, bool, object, "
                         "array or null)")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a float") from None


def counts_from_json(obj) -> np.ndarray:
    """Per-class counts from a JSON array of numbers or ``{"counts": [...]}``."""
    if isinstance(obj, dict) and "counts" in obj:
        obj = obj["counts"]
    if not isinstance(obj, list) or len(obj) < 2:
        raise ValueError("counts must be a JSON array with at least 2 entries")
    return _json_numbers(obj, "counts")


def anchor_set_from_json(obj: list[dict]) -> AnchorSet:
    if not (isinstance(obj, list) and all(isinstance(row, dict) for row in obj)):
        raise ValueError('an anchor set is a JSON array of {"proportions": [...], "c": ...} '
                         "objects")
    anchors = []
    factors = []
    for row in obj:
        if "proportions" not in row or "c" not in row:
            raise ValueError('every anchor needs "proportions" and "c"')
        anchors.append(ClassDistribution(counts=_json_numbers(row["proportions"], "proportions"),
                                         kind=row.get("kind", "custom")))
        factors.append(float(_json_numbers([row["c"]], "c")[0]))
    return AnchorSet(anchors=tuple(anchors), expansion_factors=tuple(factors))


def default_anchor_set(k: int, gamma: float, as_variance: bool) -> AnchorSet:
    """One anchor per entry of ``SHAPES``, in its order: the shape's exact
    proportions (no count rounding) with its expansion factor."""
    return AnchorSet(
        anchors=tuple(ClassDistribution(counts=shape_proportions(kind, k, gamma, as_variance),
                                        kind=kind) for kind in SHAPES),
        expansion_factors=tuple(SHAPES.values()),
    )


@dataclass(frozen=True)
class AnchorMatch:
    """Outcome of matching estimated counts against an anchor set."""

    index: int
    kind: str
    expansion_factor: float
    gamma_u: float
    kl_values: tuple[float, ...]


def match_anchor(estimated: np.ndarray, anchor_set: AnchorSet) -> AnchorMatch:
    """Pick the anchor minimizing KL(estimated || rescaled anchor).

    Ties break toward the lowest index.  ``gamma_u`` is the max/min ratio of
    the selected anchor rescaled to the estimated total (the anchor's own
    ratio up to rounding, since rescaling is a scalar multiple); a match
    whose ratio is not finite, such as an anchor with a zero class, raises.
    """
    n = np.asarray(estimated, dtype=np.float64)
    with np.errstate(over="ignore"):
        finite = n.ndim == 1 and np.isfinite(n.sum())
    if not finite:
        raise ValueError("estimated counts must be a vector of finite numbers with a finite total")
    kls = tuple(
        kl_divergence(n, rescale_anchor(a.proportions, n)) for a in anchor_set.anchors
    )
    index = int(np.argmin(kls))
    best = anchor_set.anchors[index]
    q = rescale_anchor(best.proportions, n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gamma_u = float(q.max() / q.min())
    if not math.isfinite(gamma_u):
        raise ValueError(f"the matched anchor {best.kind!r} rescaled to the estimated total "
                         "has no finite max/min ratio")
    return AnchorMatch(
        index=index,
        kind=best.kind,
        expansion_factor=anchor_set.expansion_factors[index],
        gamma_u=gamma_u,
        kl_values=kls,
    )
