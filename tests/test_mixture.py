"""Closed-form pseudo-label probabilities vs independent references.

The heavy full-grid Monte Carlo comparison lives in the acceptance suite;
here the closed form is checked against scipy's normal CDF plugged into the
same decision geometry, plus small simulations and the validation contract.
"""

import concurrent.futures
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest
from scipy.stats import norm

from conftest import traced_peak
import imbalanced_ssl
from imbalanced_ssl import mixture
from imbalanced_ssl.mixture import (
    _BLOCK,
    _WORKERS,
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


def _pin_workers(monkeypatch, cpus):
    """Make the oracle see ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _pool_sizes(monkeypatch):
    """Record the worker count of every pool the oracle opens."""
    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return sizes


# 4 * _BLOCK is the rows the workers hold at once when every one is busy
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4 * _BLOCK - 1, 4 * _BLOCK,
                               4 * _BLOCK + 1, 8 * _BLOCK + 7])
def test_streamed_oracle_counts_equal_one_block_draw(n, monkeypatch):
    # every block starts on a Philox counter boundary, so the blocks' own
    # generators give exactly the uniforms of a single (n, 3) draw, at and
    # around the block boundaries and whichever worker counts which block
    assert 3 * _BLOCK % 4 == 0
    spec = _spec()
    n_pos, n_neg = _one_block_counts(spec, n, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for workers in range(1, _WORKERS + 1):
            with monkeypatch.context() as patch:
                _pin_workers(patch, workers)
                got = monte_carlo_pseudo_label_probabilities(spec, n_samples=n, seed=7)
            assert (got.p_pos, got.p_neg, got.p_mask) == (
                n_pos / n, n_neg / n, (n - n_pos - n_neg) / n), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus, n, workers", [
    (1, 64 * _BLOCK, 1),
    (3, 64 * _BLOCK, 3),
    (64, 64 * _BLOCK, _WORKERS),  # a large host still runs _WORKERS
    (64, 2 * _BLOCK, 2),  # never more workers than blocks
])
def test_oracle_runs_one_worker_per_cpu_up_to_the_cap(cpus, n, workers, monkeypatch):
    _pin_workers(monkeypatch, cpus)
    sizes = _pool_sizes(monkeypatch)
    monte_carlo_pseudo_label_probabilities(_spec(), n_samples=n, seed=0)
    assert sizes == [workers]


@pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (3, 3), (64, _WORKERS)])
def test_oracle_without_an_affinity_call_takes_the_cpu_count(cpus, workers, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count() may be None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sizes = _pool_sizes(monkeypatch)
    spec = _spec()
    n = 4 * _BLOCK + 7
    got = monte_carlo_pseudo_label_probabilities(spec, n_samples=n, seed=7)
    n_pos, n_neg = _one_block_counts(spec, n, 7)
    assert sizes == [workers]
    assert (got.p_pos, got.p_neg) == (n_pos / n, n_neg / n)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_failed_block_stops_the_blocks_not_started(workers, monkeypatch):
    _pin_workers(monkeypatch, workers)
    stops = []

    def event():
        stops.append(threading.Event())
        return stops[-1]

    # the oracle's one use of threading is its stop event: keep a handle on it
    monkeypatch.setattr(mixture, "threading", types.SimpleNamespace(Event=event))
    started = []

    def block_counts(spec, seed, start, stop):
        started.append(start)
        if start == _BLOCK:
            raise RuntimeError("second block failed")
        if start > 0:
            # hold every later block until the oracle stops handing blocks
            # out, however late the failure reaches the caller
            assert stops[0].wait(timeout=10)
        return 0, 0

    monkeypatch.setattr(mixture, "_block_counts", block_counts)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="second block failed"):
        monte_carlo_pseudo_label_probabilities(_spec(), n_samples=64 * _BLOCK, seed=0)
    assert threading.active_count() == threads
    # worker w starts on block w, and only block 0 returns before the stop,
    # so every worker starts at most one block after the failure: worker 0
    # may reach block W, and no block beyond it starts
    assert _BLOCK in started and max(started) <= workers * _BLOCK
    if workers == 1:
        assert started == [0, _BLOCK]


def test_oracle_working_set_does_not_grow_with_samples():
    # one (1e6, 3) draw alone would be 24 MB
    _, peak = traced_peak(
        lambda: monte_carlo_pseudo_label_probabilities(_spec(), n_samples=1_000_000, seed=0))
    assert peak < 8 * 2**20


@pytest.mark.parametrize("cpus", [16, 64])
def test_oracle_working_set_does_not_grow_with_cpus(cpus, monkeypatch):
    # the workers are capped, so a large host holds no more blocks at once
    # than _WORKERS CPUs do; the bound is the one above
    _pin_workers(monkeypatch, cpus)
    _, peak = traced_peak(
        lambda: monte_carlo_pseudo_label_probabilities(_spec(), n_samples=1_000_000, seed=0))
    assert peak < 8 * 2**20


def test_oracle_work_in_flight_does_not_grow_with_samples(monkeypatch):
    # each worker holds one block at a time and no pending block holds
    # memory, so 16 times the blocks raise the peak by at most the working
    # set of one block: the peak of a one-block call
    _pin_workers(monkeypatch, 2)

    def peak(n):
        return traced_peak(
            lambda: monte_carlo_pseudo_label_probabilities(_spec(), n_samples=n, seed=0))[1]

    peak(_BLOCK)  # first call: imports the pool outside the measurement
    one_block = peak(_BLOCK)
    assert abs(peak(64 * _BLOCK) - peak(4 * _BLOCK)) <= one_block


def test_cli_import_leaves_the_thread_pool_unloaded():
    # the training commands import mixture through cli; only the oracle's
    # call loads concurrent.futures
    src = os.path.dirname(os.path.dirname(imbalanced_ssl.__file__))
    code = ("import sys, imbalanced_ssl.cli; "
            "assert 'concurrent.futures' not in sys.modules, 'loaded'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert proc.returncode == 0, proc.stderr


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


def test_denoising_bound_values_and_domain():
    assert denoising_bound(4.0, 0.1) == pytest.approx(0.8)
    assert denoising_bound(6.0, 0.05) == pytest.approx(0.2)
    # approaches 2*mu as the expansion factor grows
    assert denoising_bound(1e9, 0.25) == pytest.approx(0.5, rel=1e-6)
