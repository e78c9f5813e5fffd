"""Class shapes, imbalance measures, and anchor matching.

A class distribution is a plain array: split counts are an int64 vector, and
the anchors are one read-only (A, K) matrix of normalised rows in
``AnchorSet``.  ``SHAPES`` lists the five class shapes in anchor order with
the expansion factor each initializes the thresholds from once matched.
``shape_proportions`` writes each shape once, as proportions; they are the
KL-matching anchors (``default_anchor_set``) and, scaled so the largest class
holds ``n_max``, the split counts (``make_distribution``).  The "head"
classes are the half with the most labeled samples (``head_mask``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SHAPES",
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
                      as_variance: bool) -> np.ndarray:
    """int64 counts for a named shape: its proportions scaled so the largest
    class holds exactly ``n_max`` samples, rounded half up, at least 1 per
    class."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = shape_proportions(kind, k, gamma, as_variance)
    return np.maximum(np.floor(p / p.max() * n_max + 0.5), 1.0).astype(np.int64)


def head_mask(labeled_counts: np.ndarray) -> np.ndarray:
    """True for head classes: the ceil(K/2) classes with the most labeled
    samples, a tie going to the lower class index."""
    counts = np.asarray(labeled_counts)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("head_mask needs a vector of at least 2 class counts")
    mask = np.zeros(counts.size, dtype=bool)
    mask[np.argsort(-counts, kind="stable")[: math.ceil(counts.size / 2)]] = True
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
    """Candidate unlabeled-distribution shapes: anchor ``a`` is row ``a`` of
    ``proportions`` (A, K), named ``kinds[a]`` (one of ``SHAPES`` or
    "custom"), with expansion factor ``expansion_factors[a]``.

    The rows may be given as any nonnegative weights with a finite, positive
    total; each is stored normalised, and the matrix is read-only.
    """

    kinds: tuple[str, ...]
    proportions: np.ndarray
    expansion_factors: tuple[float, ...]

    def __post_init__(self) -> None:
        rows = np.array(self.proportions, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("anchor set must be a nonempty (anchors, classes) matrix")
        if rows.shape[1] < 2:
            raise ValueError("an anchor needs at least 2 classes")
        if not len(self.kinds) == rows.shape[0] == len(self.expansion_factors):
            raise ValueError("one kind and one expansion factor per anchor required")
        with np.errstate(over="ignore"):
            if np.any(rows < 0.0) or not np.isfinite(rows.sum(axis=1)).all():
                raise ValueError("anchor proportions must be finite and nonnegative, "
                                 "with a finite total")
        if not np.any(rows > 0.0, axis=1).all():
            raise ValueError("anchor proportions must not all be zero")
        for kind in self.kinds:
            if not (isinstance(kind, str) and (kind in SHAPES or kind == "custom")):
                raise ValueError(f"unknown distribution kind {kind!r}")
        if any(not 3.0 < c < math.inf for c in self.expansion_factors):
            raise ValueError("every expansion factor must be finite and exceed 3")
        rows = np.stack([row / float(row.sum()) for row in rows])
        rows.flags.writeable = False
        object.__setattr__(self, "proportions", rows)

    @property
    def k(self) -> int:
        return int(self.proportions.shape[1])


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
    if any("proportions" not in row or "c" not in row for row in obj):
        raise ValueError('every anchor needs "proportions" and "c"')
    rows = [_json_numbers(row["proportions"], "proportions") for row in obj]
    if len({row.size for row in rows}) > 1:
        raise ValueError("all anchors must share the same class count")
    return AnchorSet(kinds=tuple(row.get("kind", "custom") for row in obj),
                     proportions=np.array(rows),
                     expansion_factors=tuple(float(_json_numbers([row["c"]], "c")[0])
                                             for row in obj))


def default_anchor_set(k: int, gamma: float, as_variance: bool) -> AnchorSet:
    """One anchor per entry of ``SHAPES``, in its order: the shape's exact
    proportions (no count rounding) with its expansion factor."""
    return AnchorSet(kinds=tuple(SHAPES),
                     proportions=[shape_proportions(kind, k, gamma, as_variance)
                                  for kind in SHAPES],
                     expansion_factors=tuple(SHAPES.values()))


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
    kls = tuple(kl_divergence(n, rescale_anchor(row, n)) for row in anchor_set.proportions)
    index = int(np.argmin(kls))
    kind = anchor_set.kinds[index]
    q = rescale_anchor(anchor_set.proportions[index], n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gamma_u = float(q.max() / q.min())
    if not math.isfinite(gamma_u):
        raise ValueError(f"the matched anchor {kind!r} rescaled to the estimated total "
                         "has no finite max/min ratio")
    return AnchorMatch(
        index=index,
        kind=kind,
        expansion_factor=anchor_set.expansion_factors[index],
        gamma_u=gamma_u,
        kl_values=kls,
    )
