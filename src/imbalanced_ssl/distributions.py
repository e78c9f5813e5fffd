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
    """Proportions of a named shape over ``k`` classes.

    consist is geometric, p_i proportional to gamma^(-i/(k-1)) (max/min =
    gamma), and inverse is it reversed.  gaussian is a bell centered at
    (k-1)/2 of width k/6, the standard deviation (the variance with
    ``as_variance``).  gaussian-inverse is the bell's reciprocal: reversing
    the symmetric bell would be a no-op, the reciprocal is the edge-heavy
    valley that stays distinguishable from it.  A bell whose weights
    overflow a float64 (the as-variance valley from k = 948 on) raises.

    ``kind`` is a key of ``SHAPES``, k >= 2 and 1 <= gamma < inf, as the
    config's ``TaskSection``, ``DataSection`` and ``AnchorSection`` check
    them (and ``counts_from_json`` k, for ``imbssl match-distribution``).
    """
    idx = np.arange(k, dtype=np.float64)
    if kind == "uniform":
        return np.full(k, 1.0 / k)
    if kind in ("consist", "inverse"):
        geometric = gamma ** (-idx / (k - 1))
        consist = geometric / geometric.sum()
        return consist if kind == "consist" else consist[::-1].copy()
    std = math.sqrt(k / 6.0) if as_variance else k / 6.0
    exponent = ((idx - (k - 1) / 2.0) ** 2) / (2.0 * std * std)
    with np.errstate(over="ignore"):
        weights = np.exp(exponent if kind == "gaussian-inverse" else -exponent)
        total = weights.sum()
    if not math.isfinite(total):
        raise ValueError(f"the {kind} shape over k = {k} classes overflows a float64")
    return weights / total


def make_distribution(kind: str, k: int, n_max: int, gamma: float,
                      as_variance: bool) -> np.ndarray:
    """int64 counts for a named shape: its proportions scaled so the largest
    class holds exactly ``n_max`` (>= 1, as ``DataSection`` checks)
    samples, rounded half up, at least 1 per class."""
    p = shape_proportions(kind, k, gamma, as_variance)
    return np.maximum(np.floor(p / p.max() * n_max + 0.5), 1.0).astype(np.int64)


def head_mask(labeled_counts: np.ndarray) -> np.ndarray:
    """True for head classes: the ceil(K/2) classes with the most labeled
    samples, a tie going to the lower class index, given a split's (K,)
    class histogram."""
    counts = np.asarray(labeled_counts)
    mask = np.zeros(counts.size, dtype=bool)
    mask[np.argsort(-counts, kind="stable")[: math.ceil(counts.size / 2)]] = True
    return mask


def rescale_anchor(anchor: np.ndarray, estimated: np.ndarray) -> np.ndarray:
    """Scale anchor proportions to the total of the estimated counts:
    Q_i = p_i * sum(N^e) / sum(p).  The anchor is a row of an ``AnchorSet``
    and the counts have its length and a finite, positive total
    (``counts_from_json``, or a histogram of a nonempty split)."""
    p = np.asarray(anchor, dtype=np.float64)
    return p * (np.asarray(estimated, dtype=np.float64).sum() / p.sum())


def _smoothed(counts: np.ndarray) -> np.ndarray:
    """``counts`` brought to a total of 1 when their total lies in (0, 1),
    plus KL_SMOOTHING in every category."""
    total = counts.sum()
    return (counts / total if 0.0 < total < 1.0 else counts) + KL_SMOOTHING


def kl_divergence(estimated: np.ndarray, rescaled: np.ndarray) -> float:
    """KL(estimated || rescaled) after normalizing both to proportions.

    Each side is first divided by its total when that total lies in (0, 1),
    so the smoothing never swamps a tiny total, and a total of 1 or more is
    left as it is, bit for bit; then every category gets +KL_SMOOTHING before
    normalization, so zero counts on either side stay finite.  Natural log.
    Both are nonnegative vectors of one length: checked counts and an anchor
    rescaled to them (all zero when a subnormal total underflows it).
    """
    ps = _smoothed(np.asarray(estimated, dtype=np.float64))
    qs = _smoothed(np.asarray(rescaled, dtype=np.float64))
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
    """Per-class counts from a JSON array of numbers or ``{"counts": [...]}``.

    The one check of counts from outside the program: at least 2 entries,
    each finite and nonnegative, with a finite, positive total."""
    if isinstance(obj, dict) and "counts" in obj:
        obj = obj["counts"]
    if not isinstance(obj, list) or len(obj) < 2:
        raise ValueError("counts must be a JSON array with at least 2 entries")
    counts = _json_numbers(obj, "counts")
    # NaN fails the first test; summing only nonnegative entries forms no inf - inf
    with np.errstate(over="ignore"):
        ok = (counts >= 0.0).all() and 0.0 < counts.sum() < math.inf
    if not ok:
        raise ValueError("counts must be finite and nonnegative, with a finite, positive total")
    return counts


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
    """Outcome of matching estimated counts against an anchor set;
    ``rescaled`` is the matched anchor rescaled to the estimated total."""

    index: int
    kind: str
    expansion_factor: float
    gamma_u: float
    kl_values: tuple[float, ...]
    rescaled: np.ndarray


def match_anchor(estimated: np.ndarray, anchor_set: AnchorSet) -> AnchorMatch:
    """Pick the anchor minimizing KL(estimated || rescaled anchor).

    ``estimated`` holds ``anchor_set.k`` counts with a finite, positive
    total, as ``counts_from_json`` checks and as a histogram of a nonempty
    split is.  Ties break toward the lowest index.  ``gamma_u`` is the
    max/min ratio of the selected anchor rescaled to the estimated total
    (the anchor's own ratio up to rounding, since rescaling is a scalar
    multiple); a match whose ratio is not finite, such as an anchor with a
    zero class, raises.
    """
    n = np.asarray(estimated, dtype=np.float64)
    rescaled = [rescale_anchor(row, n) for row in anchor_set.proportions]
    kls = tuple(kl_divergence(n, q) for q in rescaled)
    index = int(np.argmin(kls))
    kind = anchor_set.kinds[index]
    q = rescaled[index]
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
        rescaled=q,
    )
