"""Class-count shapes, the five-anchor set, and KL matching."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalanced_ssl.config import AnchorSection, ConfigError, DataSection
from imbalanced_ssl.distributions import (
    KL_SMOOTHING,
    SHAPES,
    AnchorSet,
    anchor_set_from_json,
    default_anchor_set,
    head_mask,
    kl_divergence,
    make_distribution,
    match_anchor,
    rescale_anchor,
    shape_proportions,
)


def imbalance_ratio(counts) -> float:
    """Most frequent over least frequent class count."""
    return float(counts.max()) / float(counts.min())


def _hand_longtail(k, n_max, gamma):
    # n_k = n_max * gamma^(-k/(K-1)), rounded half away from zero, floor 1
    return [max(1, math.floor(n_max * gamma ** (-i / (k - 1)) + 0.5))
            for i in range(k)]


def test_longtail_known_vectors():
    assert make_distribution("consist", 10, 100, 100.0, False).tolist() == [
        100, 60, 36, 22, 13, 8, 5, 3, 2, 1]
    assert make_distribution("consist", 10, 500, 100.0, False).tolist() == [
        500, 300, 180, 108, 65, 39, 23, 14, 8, 5]


def test_longtail_matches_hand_rule():
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = int(rng.integers(2, 15))
        n_max = int(rng.integers(5, 2000))
        gamma = float(rng.uniform(1.5, 500.0))
        got = make_distribution("consist", k, n_max, gamma, False).tolist()
        assert got == _hand_longtail(k, n_max, gamma)


def test_uniform_counts():
    d = make_distribution("uniform", 7, 42, 100.0, False)
    assert d.tolist() == [42] * 7
    assert imbalance_ratio(d) == 1.0


def test_five_anchor_shapes_at_500():
    expected = {
        "consist": [500, 300, 180, 108, 65, 39, 23, 14, 8, 5],
        "uniform": [500] * 10,
        "inverse": [5, 8, 14, 23, 39, 65, 108, 180, 300, 500],
        "gaussian": [14, 58, 170, 349, 500, 500, 349, 170, 58, 14],
        "gaussian-inverse": [500, 118, 40, 20, 14, 14, 20, 40, 118, 500],
    }
    for kind, counts in expected.items():
        d = make_distribution(kind, 10, 500, 100.0, False)
        assert d.dtype == np.int64
        assert d.tolist() == counts


def test_inverse_is_reversed_longtail():
    lt = make_distribution("consist", 10, 500, 100.0, False)
    inv = make_distribution("inverse", 10, 500, 100.0, False)
    assert inv.tolist() == lt[::-1].tolist()


def test_bell_and_valley_are_symmetric():
    for kind in ("gaussian", "gaussian-inverse"):
        c = make_distribution(kind, 10, 500, 100.0, False)
        assert c.tolist() == c[::-1].tolist()
    bell = make_distribution("gaussian", 10, 500, 100.0, False)
    valley = make_distribution("gaussian-inverse", 10, 500, 100.0, False)
    assert bell.argmax() in (4, 5) and valley.argmin() in (4, 5)
    assert valley[0] == valley[-1] == 500


def test_gaussian_variance_flag_narrows_the_bell():
    loose = make_distribution("gaussian", 10, 500, 100.0, False)
    tight = make_distribution("gaussian", 10, 500, 100.0, as_variance=True)
    # literal-variance reading shrinks the width, starving the edge classes
    assert tight[0] < loose[0]
    assert tight.sum() < loose.sum()
    assert tight.tolist() == [1, 14, 83, 274, 500, 500, 274, 83, 14, 1]


def test_unknown_kind_rejected():
    # the shape table trusts its kind: the config refuses any other
    for name in ("labeled_kind", "unlabeled_kind"):
        with pytest.raises(ConfigError, match=name):
            DataSection(**{name: "bimodal"})


@pytest.mark.parametrize("gamma", [0.5, 0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("kind", list(SHAPES))
def test_every_shape_requires_a_finite_gamma_of_at_least_one(kind, gamma):
    # the shape table trusts its gamma: the config's data and anchor sections
    # (``imbssl match-distribution --gamma`` builds the latter) refuse it
    for split in ("labeled", "unlabeled"):
        with pytest.raises(ConfigError, match="gamma"):
            DataSection(**{f"{split}_kind": kind, f"{split}_gamma": gamma})
    with pytest.raises(ConfigError, match="gamma"):
        AnchorSection(gamma=gamma)


@pytest.mark.parametrize("as_variance", [False, True])
@pytest.mark.parametrize("kind", list(SHAPES))
def test_a_bell_that_overflows_is_one_error(kind, as_variance):
    # the as-variance valley's weights pass a float64's range from k = 948 on;
    # every other shape stays finite there
    for k in (947, 948, 1000):
        if kind == "gaussian-inverse" and as_variance and k >= 948:
            with pytest.raises(ValueError, match=f"{kind} shape over k = {k} classes"):
                shape_proportions(kind, k, 100.0, as_variance)
        else:
            p = shape_proportions(kind, k, 100.0, as_variance)
            assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)


def test_default_anchor_set_follows_the_shape_table():
    aset = default_anchor_set(10, 100.0, False)
    assert aset.kinds == tuple(SHAPES)
    assert aset.expansion_factors == tuple(SHAPES.values()) == (4, 5, 6, 4, 6)
    assert aset.proportions.shape == (5, 10) and not aset.proportions.flags.writeable
    for kind, row in zip(aset.kinds, aset.proportions):
        p = shape_proportions(kind, 10, 100.0, False)
        assert np.array_equal(row, p / float(p.sum()))


@st.composite
def _shape_cases(draw):
    return (draw(st.sampled_from(list(SHAPES))), draw(st.integers(2, 30)),
            draw(st.integers(1, 5000)), draw(st.floats(1.0, 1000.0)), draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_shape_cases(), st.floats(1.0, 1e6))
def test_shape_table_properties(case, scale):
    """Split counts follow the one count rule, the inverse shape is the
    consist shape reversed bit for bit, and matching a scaled anchor (a
    histogram with total ``scale`` >= 1) recovers it."""
    kind, k, n_max, gamma, as_variance = case
    p = shape_proportions(kind, k, gamma, as_variance)
    counts = make_distribution(kind, k, n_max, gamma, as_variance)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.maximum(np.floor(p / p.max() * n_max + 0.5), 1.0))
    assert counts.max() == n_max and counts.min() >= 1

    consist = shape_proportions("consist", k, gamma, as_variance)
    inverse = shape_proportions("inverse", k, gamma, as_variance)
    assert np.array_equal(inverse, consist[::-1])

    aset = default_anchor_set(k, gamma, as_variance)
    i = list(SHAPES).index(kind)
    anchor = aset.proportions[i]
    m = match_anchor(scale * anchor, aset)
    # identical anchors cannot be told apart: k = 2 makes the bell the
    # uniform, gamma = 1 makes both long-tails uniform
    assert m.index == i or np.array_equal(aset.proportions[m.index], anchor)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(SHAPES)), st.integers(2, 64), st.integers(1, 10_000),
       st.floats(1.0, 1e300), st.booleans())
def test_split_counts_are_what_generate_trusts(kind, k, n_max, gamma, as_variance):
    """Over the config's whole gamma range, a shape's split counts are (k,)
    int64 counts of at least 1 whose largest is n_max: ``generate`` takes
    them unchecked."""
    counts = make_distribution(kind, k, n_max, gamma, as_variance)
    assert counts.dtype == np.int64 and counts.shape == (k,)
    assert counts.min() >= 1 and counts.max() == n_max


def test_imbalance_ratio():
    assert imbalance_ratio(np.array([100, 25, 1])) == 100.0
    assert imbalance_ratio(make_distribution("consist", 10, 500, 100.0, False)) == 100.0


def test_head_mask_splits_halves():
    assert head_mask(np.arange(10, 0, -1)).tolist() == [True] * 5 + [False] * 5
    assert head_mask(np.array([9, 7, 5, 3, 1])).tolist() == [True, True, True, False, False]
    assert head_mask(np.array([1, 3, 5, 7, 9])).tolist() == [False, False, True, True, True]
    # ties go to the lower class index
    assert head_mask(np.array([4, 4, 4, 4])).tolist() == [True, True, False, False]
    assert head_mask(np.array([2, 5, 5, 2])).tolist() == [False, True, True, False]


# literal ids, the ones pytest once gave these cases by their place in the list
@pytest.mark.parametrize("kind,head", [
    pytest.param("consist", range(0, 5), id="consist-head0"),
    pytest.param("uniform", range(0, 5), id="uniform-head1"),
    pytest.param("inverse", range(5, 10), id="inverse-head2"),
    pytest.param("gaussian", (2, 3, 4, 5, 6), id="gaussian-head3"),
    pytest.param("gaussian-inverse", (0, 1, 2, 8, 9), id="gaussian-inverse-head4"),
])
def test_head_mask_holds_the_most_frequent_labeled_classes(kind, head):
    counts = make_distribution(kind, 10, 100, 100.0, False)
    mask = head_mask(counts)
    assert np.flatnonzero(mask).tolist() == list(head)
    assert counts[mask].min() >= counts[~mask].max()


def test_kl_zero_at_self_and_positive_elsewhere():
    a = np.array([50.0, 30.0, 20.0])
    assert kl_divergence(a, a) == pytest.approx(0.0, abs=1e-9)
    b = np.array([20.0, 30.0, 50.0])
    assert kl_divergence(a, b) > 0.01
    # not symmetric in general
    p = np.array([80.0, 10.0, 10.0])
    q = np.array([40.0, 30.0, 30.0])
    assert abs(kl_divergence(p, q) - kl_divergence(q, p)) > 0.01


def test_kl_scale_invariant_and_zero_safe():
    a = np.array([50.0, 30.0, 20.0])
    b = np.array([30.0, 40.0, 30.0])
    # smoothing is applied to raw counts, so invariance holds only up to it
    assert kl_divergence(a, b) == pytest.approx(kl_divergence(10 * a, b), abs=1e-6)
    assert np.isfinite(kl_divergence(np.array([5.0, 0.0, 3.0]), b))


def test_kl_brings_a_total_below_one_to_one():
    # a total in (0, 1) is divided out before smoothing, a total of 1 or more
    # is not, and an anchor underflowed to all zeros stays finite
    a = np.array([50.0, 30.0, 20.0])
    b = np.array([30.0, 40.0, 30.0])
    for p, q in ((a, b), (a / 100, b / 100), (a, b / 100)):
        ps, qs = p + KL_SMOOTHING, q + KL_SMOOTHING
        ps, qs = ps / ps.sum(), qs / qs.sum()
        assert kl_divergence(p, q) == float(np.sum(ps * np.log(ps / qs)))
    assert kl_divergence(1e-300 * a, b) == pytest.approx(kl_divergence(a / 100, b), rel=1e-12)
    assert kl_divergence(1e-300 * a, 1e-300 * a) == pytest.approx(0.0, abs=1e-12)
    with np.errstate(all="raise"):
        assert math.isfinite(kl_divergence(np.array([5e-324, 0.0]), np.zeros(2)))


def test_kl_stays_finite_against_a_subnormal_anchor_class():
    # the smoothed ratio ps / qs overflows here; the value must not
    kl = kl_divergence(np.array([1.0, 1.7e308]), np.array([1.7e308, 8.5e-16]))
    assert math.isfinite(kl) and kl > 700.0


def test_rescale_preserves_total():
    anchor = np.array([500.0, 300.0, 180.0])
    est = np.array([40.0, 25.0, 35.0])
    scaled = rescale_anchor(anchor, est)
    assert scaled.sum() == pytest.approx(est.sum())
    assert scaled[0] / scaled[1] == pytest.approx(500.0 / 300.0)


def test_match_recovers_every_generator():
    aset = default_anchor_set(10, 100.0, False)
    for i, (kind, anchor) in enumerate(zip(aset.kinds, aset.proportions)):
        m = match_anchor(anchor, aset)
        assert m.index == i
        assert m.kind == kind
        assert m.kl_values[i] == pytest.approx(0.0, abs=1e-9)
        assert min(m.kl_values) == m.kl_values[i]


def test_match_reports_expansion_factor_and_gamma():
    aset = default_anchor_set(10, 100.0, False)
    est = make_distribution("inverse", 10, 500, 100.0, False)
    m = match_anchor(est, aset)
    assert m.expansion_factor == 6
    assert m.gamma_u == pytest.approx(100.0, rel=1e-6)
    # the matched anchor rescaled to the estimate, as the reweighting reads it
    assert np.array_equal(m.rescaled, rescale_anchor(aset.proportions[m.index], est))
    assert m.gamma_u == m.rescaled.max() / m.rescaled.min()
    u = match_anchor(np.full(10, 77.0), aset)
    assert u.kind == "uniform"
    assert u.expansion_factor == 5


def test_match_tie_breaks_to_lowest_index():
    aset = AnchorSet(kinds=("consist", "uniform"), proportions=[[10.0, 20.0, 30.0]] * 2,
                     expansion_factors=(4, 5))
    m = match_anchor(np.array([10.0, 20.0, 30.0]), aset)
    assert m.index == 0


def test_anchor_set_json_roundtrip():
    aset = default_anchor_set(10, 100.0, False)
    obj = [{"kind": kind, "proportions": row.tolist(), "c": c}
           for kind, row, c in zip(aset.kinds, aset.proportions, aset.expansion_factors)]
    json.dumps(obj)  # must be serializable as-is
    back = anchor_set_from_json(obj)
    assert tuple(float(c) for c in back.expansion_factors) == tuple(
        float(c) for c in aset.expansion_factors)
    assert back.kinds == aset.kinds
    assert np.allclose(back.proportions, aset.proportions)


def test_anchor_rows_are_normalised_and_read_only():
    aset = AnchorSet(kinds=("custom", "consist"), proportions=[[1, 3], [0, 2]],
                     expansion_factors=(4, 5.5))
    assert aset.k == 2
    assert aset.proportions.tolist() == [[0.25, 0.75], [0.0, 1.0]]
    with pytest.raises(ValueError):
        aset.proportions[0, 0] = 0.5


@pytest.mark.parametrize("kinds,proportions,factors", [
    pytest.param((), np.empty((0, 3)), (), id="no-anchor"),
    pytest.param(("custom",), [1.0, 2.0], (4,), id="not-a-matrix"),
    pytest.param(("custom",), [[1.0]], (4,), id="one-class"),
    pytest.param(("custom",), [[1.0, 2.0], [2.0, 1.0]], (4, 5), id="kinds-short"),
    pytest.param(("custom", "custom"), [[1.0, 2.0], [2.0, 1.0]], (4,), id="factors-short"),
    pytest.param(("custom", "custom"), [[1.0, 2.0], [1.0, 2.0, 3.0]], (4, 5), id="ragged"),
    pytest.param(("custom",), [[1.0, -1.0, 2.0]], (4,), id="negative"),
    pytest.param(("custom",), [[0.0, 0.0, 0.0]], (4,), id="all-zero"),
    pytest.param(("custom",), [[1e308, 1e308]], (4,), id="infinite-total"),
    pytest.param(("custom",), [[math.inf, 1.0]], (4,), id="infinite-entry"),
    pytest.param(("custom",), [[math.nan, 1.0]], (4,), id="nan-entry"),
    pytest.param(("bimodal",), [[1.0, 2.0]], (4,), id="unknown-kind"),
    pytest.param(([],), [[1.0, 2.0]], (4,), id="kind-not-a-string"),
    pytest.param(("custom",), [[1.0, 2.0]], (3,), id="c-at-3"),
    pytest.param(("custom",), [[1.0, 2.0]], (math.inf,), id="c-infinite"),
    pytest.param(("custom",), [[1.0, 2.0]], (math.nan,), id="c-nan"),
])
def test_anchor_set_validation(kinds, proportions, factors):
    with pytest.raises(ValueError):
        AnchorSet(kinds=kinds, proportions=proportions, expansion_factors=factors)
