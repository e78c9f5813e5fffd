"""Class-count distributions, imbalance measures, and anchor matching.

Class index 0 is always the most frequent *labeled* class; "head" classes are
the first half of that ordering.  Anchor distributions describe candidate
shapes of the unlabeled data (same long-tail as the labeled split, uniform,
inverted long-tail, bell-shaped, inverted bell), each carrying the expansion
factor used to initialize pseudo-label thresholds once it is matched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClassDistribution",
    "AnchorSet",
    "AnchorMatch",
    "make_longtail",
    "make_uniform",
    "make_gaussian_anchor",
    "make_distribution",
    "invert",
    "head_mask",
    "rescale_anchor",
    "kl_divergence",
    "match_anchor",
    "default_anchor_set",
    "anchor_set_from_json",
]

KL_SMOOTHING = 1e-6

DISTRIBUTION_KINDS = ("consist", "uniform", "inverse", "gaussian", "gaussian-inverse", "custom")

# Expansion factors for the default anchors, in default_anchor_set order
# (consist, uniform, inverse, gaussian, gaussian-inverse).
DEFAULT_EXPANSION_FACTORS = (4, 5, 6, 4, 6)


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class weights: raw counts for data splits, proportions for anchors.

    ``counts`` is any nonnegative vector with at least one positive entry and
    length >= 2; ``proportions`` normalizes it.
    """

    counts: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a class distribution needs at least 2 classes")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("class counts must be finite and nonnegative")
        if not np.any(arr > 0.0):
            raise ValueError("class counts must not all be zero")
        if self.kind not in DISTRIBUTION_KINDS:
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


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # Half-away-from-zero for nonnegative input; unambiguous across platforms.
    return np.floor(x + 0.5)


def make_longtail(k: int, n_max: int, gamma: float) -> ClassDistribution:
    """Geometric long-tail: counts[i] = round(n_max * gamma^(-i/(k-1))).

    Class 0 holds exactly ``n_max`` samples and the max/min ratio equals
    ``gamma`` up to rounding.  Every class keeps at least one sample so the
    imbalance ratio stays defined.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if gamma < 1.0:
        raise ValueError(f"imbalance ratio must be >= 1, got {gamma}")
    idx = np.arange(k, dtype=np.float64)
    raw = n_max * gamma ** (-idx / (k - 1))
    counts = np.maximum(_round_half_up(raw), 1.0)
    counts[0] = float(n_max)
    return ClassDistribution(counts=counts, kind="consist")


def make_uniform(k: int, n_per_class: int) -> ClassDistribution:
    if k < 2:
        raise ValueError("k must be >= 2")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    return ClassDistribution(counts=np.full(k, float(n_per_class)), kind="uniform")


def make_gaussian_anchor(k: int, inverted: bool = False, as_variance: bool = False) -> ClassDistribution:
    """Bell-shaped proportions over class indices, centered at (k-1)/2.

    The width parameter k/6 is taken as the standard deviation by default; a
    literal variance reading (std = sqrt(k/6)) is selectable via
    ``as_variance``.

    ``inverted`` takes the pointwise reciprocal of the density before
    normalizing.  For a monotone long-tail that is the same as reversing the
    class order; for this bell (symmetric about its center, where reversal
    would be a no-op) it gives the edge-heavy valley the inverse setting
    needs to stay distinguishable from the bell.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    std = math.sqrt(k / 6.0) if as_variance else k / 6.0
    idx = np.arange(k, dtype=np.float64)
    center = (k - 1) / 2.0
    exponent = ((idx - center) ** 2) / (2.0 * std * std)
    weights = np.exp(exponent if inverted else -exponent)
    return ClassDistribution(
        counts=weights / weights.sum(),
        kind="gaussian-inverse" if inverted else "gaussian",
    )


def invert(dist: ClassDistribution) -> ClassDistribution:
    """Reverse the class order (most frequent becomes least frequent)."""
    kind = {"consist": "inverse", "inverse": "consist",
            "gaussian": "gaussian-inverse", "gaussian-inverse": "gaussian"}.get(dist.kind, dist.kind)
    return ClassDistribution(counts=dist.counts[::-1].copy(), kind=kind)


def make_distribution(kind: str, k: int, n_max: int, gamma: float = 100.0,
                      as_variance: bool = False) -> ClassDistribution:
    """Materialize counts for a named shape, scaled so the largest class has
    ``n_max`` samples (smaller classes keep at least 1)."""
    if kind == "consist":
        return make_longtail(k, n_max, gamma)
    if kind == "inverse":
        return invert(make_longtail(k, n_max, gamma))
    if kind == "uniform":
        return make_uniform(k, n_max)
    if kind in ("gaussian", "gaussian-inverse"):
        props = make_gaussian_anchor(k, inverted=kind == "gaussian-inverse",
                                     as_variance=as_variance).proportions
        counts = np.maximum(_round_half_up(props / props.max() * n_max), 1.0)
        return ClassDistribution(counts=counts, kind=kind)
    raise ValueError(f"unknown distribution kind {kind!r}")


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
    return float(np.sum(ps * np.log(ps / qs)))


@dataclass(frozen=True)
class AnchorSet:
    """Candidate unlabeled-distribution shapes with per-anchor expansion factors."""

    anchors: tuple[ClassDistribution, ...]
    expansion_factors: tuple[float, ...] = field(default=DEFAULT_EXPANSION_FACTORS)

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ValueError("anchor set must not be empty")
        if len(self.anchors) != len(self.expansion_factors):
            raise ValueError("one expansion factor per anchor required")
        if any(not c > 3.0 for c in self.expansion_factors):
            raise ValueError("every expansion factor must exceed 3")
        k = self.anchors[0].k
        if any(a.k != k for a in self.anchors):
            raise ValueError("all anchors must share the same class count")

    @property
    def k(self) -> int:
        return self.anchors[0].k

    def to_json_obj(self) -> list[dict]:
        return [
            {"kind": a.kind, "proportions": a.proportions.tolist(), "c": c}
            for a, c in zip(self.anchors, self.expansion_factors)
        ]


def anchor_set_from_json(obj: list[dict]) -> AnchorSet:
    if not (isinstance(obj, list) and all(isinstance(row, dict) for row in obj)):
        raise ValueError('an anchor set is a JSON array of {"proportions": [...], "c": ...} '
                         "objects")
    anchors = []
    factors = []
    for row in obj:
        anchors.append(ClassDistribution(counts=np.asarray(row["proportions"], dtype=np.float64),
                                         kind=row.get("kind", "custom")))
        factors.append(float(row["c"]))
    return AnchorSet(anchors=tuple(anchors), expansion_factors=tuple(factors))


def default_anchor_set(k: int, gamma: float = 100.0, as_variance: bool = False) -> AnchorSet:
    """The five standard anchors with expansion factors (4, 5, 6, 4, 6):
    consist, uniform, inverse, gaussian, gaussian-inverse.

    The long-tail anchors use exact geometric proportions (no count rounding)
    with ratio ``gamma``.
    """
    idx = np.arange(k, dtype=np.float64)
    geometric = gamma ** (-idx / (k - 1))
    consist = ClassDistribution(counts=geometric / geometric.sum(), kind="consist")
    uniform = ClassDistribution(counts=np.full(k, 1.0 / k), kind="uniform")
    inverse = ClassDistribution(counts=geometric[::-1] / geometric.sum(), kind="inverse")
    gauss = make_gaussian_anchor(k, inverted=False, as_variance=as_variance)
    gauss_inv = make_gaussian_anchor(k, inverted=True, as_variance=as_variance)
    return AnchorSet(
        anchors=(consist, uniform, inverse, gauss, gauss_inv),
        expansion_factors=DEFAULT_EXPANSION_FACTORS,
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
    the selected anchor rescaled to the estimated total (identical to the
    anchor's own ratio, since rescaling is a scalar multiple).
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
    gamma_u = float(q.max() / q.min())
    return AnchorMatch(
        index=index,
        kind=best.kind,
        expansion_factor=anchor_set.expansion_factors[index],
        gamma_u=gamma_u,
        kl_values=kls,
    )
