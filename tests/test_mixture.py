"""Closed-form pseudo-label probabilities vs independent references.

The heavy full-grid Monte Carlo comparison lives in the acceptance suite;
here the closed form is checked against scipy's normal CDF plugged into the
same decision geometry, plus small simulations and the validation contract.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from imbalanced_ssl.mixture import (
    _BLOCK,
    BinaryMixtureSpec,
    denoising_bound,
    monte_carlo_pseudo_label_probabilities,
    pseudo_label_probabilities,
)


def _spec(**kw):
    base = dict(gamma=0.7, mu1=-1.0, mu2=1.0, sigma1=0.8, sigma2=1.2,
                beta=2.0, rho=0.9, delta_p=0.1)
    base.update(kw)
    return BinaryMixtureSpec(**base)


def _reference(spec):
    """Same three-way split computed with scipy, from the raw acceptance
    regions: the scorer passes x - delta_p through a sigmoid centered on the
    class-mean midpoint, so label +1 fires for x above mid + delta_p + L."""
    mid = 0.5 * (spec.mu1 + spec.mu2)
    L = np.log(spec.rho / (1.0 - spec.rho)) / spec.beta
    hi = mid + spec.delta_p + L    # score > rho above this point
    lo = mid + spec.delta_p - L    # score < 1 - rho below this point
    p_pos = (spec.gamma * norm.sf(hi, spec.mu2, spec.sigma2)
             + (1.0 - spec.gamma) * norm.sf(hi, spec.mu1, spec.sigma1))
    p_neg = (spec.gamma * norm.cdf(lo, spec.mu2, spec.sigma2)
             + (1.0 - spec.gamma) * norm.cdf(lo, spec.mu1, spec.sigma1))
    return p_pos, p_neg, 1.0 - p_pos - p_neg


def test_closed_form_matches_scipy_geometry():
    rng = np.random.default_rng(11)
    for _ in range(30):
        spec = _spec(
            gamma=float(rng.uniform(0.51, 0.99)),
            mu1=float(rng.uniform(-3.0, 0.0)),
            mu2=float(rng.uniform(0.5, 3.0)),
            sigma1=float(rng.uniform(0.2, 2.5)),
            sigma2=float(rng.uniform(0.2, 2.5)),
            beta=float(rng.uniform(0.5, 8.0)),
            rho=float(rng.uniform(0.55, 0.99)),
            delta_p=float(rng.uniform(-1.0, 1.0)),
        )
        got = pseudo_label_probabilities(spec)
        want = _reference(spec)
        assert got.p_pos == pytest.approx(want[0], abs=1e-12)
        assert got.p_neg == pytest.approx(want[1], abs=1e-12)
        assert got.p_mask == pytest.approx(want[2], abs=1e-12)


def test_probabilities_form_a_distribution():
    rng = np.random.default_rng(5)
    for _ in range(50):
        spec = _spec(gamma=float(rng.uniform(0.51, 0.99)),
                     rho=float(rng.uniform(0.55, 0.99)),
                     delta_p=float(rng.uniform(-2.0, 2.0)))
        p = pseudo_label_probabilities(spec)
        for v in (p.p_pos, p.p_neg, p.p_mask):
            assert -1e-15 <= v <= 1.0 + 1e-15
        assert p.p_pos + p.p_neg + p.p_mask == pytest.approx(1.0, abs=1e-15)


def test_monte_carlo_reproducible_and_seed_sensitive():
    spec = _spec()
    a = monte_carlo_pseudo_label_probabilities(spec, n_samples=50_000, seed=3)
    b = monte_carlo_pseudo_label_probabilities(spec, n_samples=50_000, seed=3)
    c = monte_carlo_pseudo_label_probabilities(spec, n_samples=50_000, seed=4)
    assert (a.p_pos, a.p_neg, a.p_mask) == (b.p_pos, b.p_neg, b.p_mask)
    assert (a.p_pos, a.p_neg, a.p_mask) != (c.p_pos, c.p_neg, c.p_mask)


def test_monte_carlo_agrees_at_small_scale():
    for seed, spec in enumerate([
        _spec(),
        _spec(gamma=0.9, beta=4.0, rho=0.75),
        _spec(delta_p=-0.5, sigma1=1.5, sigma2=0.5),
    ]):
        a = pseudo_label_probabilities(spec)
        m = monte_carlo_pseudo_label_probabilities(spec, n_samples=200_000,
                                                   seed=seed)
        assert m.p_pos == pytest.approx(a.p_pos, abs=0.01)
        assert m.p_neg == pytest.approx(a.p_neg, abs=0.01)
        assert m.p_mask == pytest.approx(a.p_mask, abs=0.01)


def _one_block_counts(spec, n, seed):
    """(n_pos, n_neg) by the oracle's documented recipe, with the uniforms
    drawn as one (n, 3) block."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, 3))
    z = np.sqrt(-2.0 * np.log1p(-u[:, 1])) * np.cos(2.0 * np.pi * u[:, 2])
    x = np.where(u[:, 0] < spec.gamma, spec.mu2 + spec.sigma2 * z, spec.mu1 + spec.sigma1 * z)
    mid = 0.5 * (spec.mu1 + spec.mu2)
    with np.errstate(over="ignore"):
        score = 1.0 / (1.0 + np.exp(-spec.beta * ((x - spec.delta_p) - mid)))
    return int(np.count_nonzero(score > spec.rho)), int(np.count_nonzero(score < 1.0 - spec.rho))


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
def test_streamed_oracle_counts_equal_one_block_draw(n):
    # the row blocks continue one Philox stream, so the counts are exactly
    # those of a single (n, 3) draw, at and around every block boundary
    spec = _spec()
    got = monte_carlo_pseudo_label_probabilities(spec, n_samples=n, seed=7)
    n_pos, n_neg = _one_block_counts(spec, n, 7)
    assert (got.p_pos, got.p_neg, got.p_mask) == (n_pos / n, n_neg / n,
                                                  (n - n_pos - n_neg) / n)


def test_oracle_working_set_does_not_grow_with_samples():
    # numpy reports its buffers to tracemalloc, so the peak is a count of
    # bytes, not a timing; one (1e6, 3) draw alone would be 24 MB
    tracemalloc.start()
    try:
        monte_carlo_pseudo_label_probabilities(_spec(), n_samples=1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_masking_grows_with_threshold():
    lo = pseudo_label_probabilities(_spec(rho=0.6))
    hi = pseudo_label_probabilities(_spec(rho=0.99))
    assert hi.p_mask > lo.p_mask


def test_positive_rate_falls_with_adjustment():
    left = pseudo_label_probabilities(_spec(delta_p=-0.5))
    right = pseudo_label_probabilities(_spec(delta_p=0.5))
    assert right.p_pos < left.p_pos


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(gamma=0.5)
    with pytest.raises(ValueError):
        _spec(gamma=1.0)
    with pytest.raises(ValueError):
        _spec(rho=0.5)
    with pytest.raises(ValueError):
        _spec(sigma1=0.0)
    with pytest.raises(ValueError):
        _spec(beta=-1.0)
    with pytest.raises(ValueError):
        _spec(mu1=1.0, mu2=1.0)
    with pytest.raises(ValueError):
        _spec(delta_p=float("nan"))
    with pytest.raises(ValueError):
        monte_carlo_pseudo_label_probabilities(_spec(), n_samples=0, seed=0)


def test_denoising_bound_values_and_domain():
    assert denoising_bound(4.0, 0.1) == pytest.approx(0.8)
    assert denoising_bound(6.0, 0.05) == pytest.approx(0.2)
    # approaches 2*mu as the expansion factor grows
    assert denoising_bound(1e9, 0.25) == pytest.approx(0.5, rel=1e-6)
    with pytest.raises(ValueError):
        denoising_bound(3.0, 0.1)
    with pytest.raises(ValueError):
        denoising_bound(5.0, 1.5)
