"""Pseudo-label sampling probabilities for a two-Gaussian binary task.

An unlabeled input x is drawn from N(mu2, sigma2^2) with probability ``gamma``
(positive class) and from N(mu1, sigma1^2) otherwise.  A sigmoid scorer with
sharpness ``beta``, centered on the midpoint decision boundary and shifted by
the logit-adjustment amount ``delta_p``, assigns pseudo-label +1 above
confidence ``rho``, -1 below ``1 - rho``, and abstains (0) in between.

``pseudo_label_probabilities`` evaluates the closed form of the resulting
three-way distribution; ``monte_carlo_pseudo_label_probabilities`` is the
deliberately-dumb sampling oracle used to cross-check it.  The oracle counts
its rows in counter-addressed Philox blocks on one thread per CPU the
process may use, up to ``_WORKERS``; its threads live inside the call and run
only ``_block_counts``, so every traced function still runs on one thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .normal import standard_normal_cdf

__all__ = [
    "BinaryMixtureSpec",
    "PseudoLabelProbabilities",
    "pseudo_label_probabilities",
    "monte_carlo_pseudo_label_probabilities",
    "denoising_bound",
]

# Rows of the Monte Carlo oracle drawn and counted at once, per worker: a
# block's working set is about 0.7 MB whatever the sample count, so more
# samples cost time, not memory.  A multiple of 4, so that every block starts
# on a Philox counter boundary.
_BLOCK = 1 << 14
# The most worker threads the oracle runs, whatever the host, so that its
# rows in flight, _WORKERS * _BLOCK = 65,536, hold a few MB on any host.
_WORKERS = 4


@dataclass(frozen=True)
class BinaryMixtureSpec:
    """Parameters of the binary pseudo-labeling model.

    gamma:   P(Y = +1), in the open interval (1/2, 1).
    mu1/mu2: class-conditional means of the negative/positive class, mu2 > mu1.
    sigma1/sigma2: class-conditional standard deviations, both positive.
    beta:    sigmoid sharpness (confidence grows with training), positive.
    rho:     confidence threshold for accepting a pseudo-label, in (1/2, 1).
    delta_p: logit-adjustment amount applied to the scorer input.
    """

    gamma: float
    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    beta: float
    rho: float
    delta_p: float

    def __post_init__(self) -> None:
        vals = (self.gamma, self.mu1, self.mu2, self.sigma1, self.sigma2,
                self.beta, self.rho, self.delta_p)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("BinaryMixtureSpec fields must be finite")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0.5, 1), got {self.gamma}")
        if not 0.5 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0.5, 1), got {self.rho}")
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise ValueError("sigma1 and sigma2 must be positive")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if not self.mu2 > self.mu1:
            raise ValueError("mu2 must exceed mu1")


@dataclass(frozen=True)
class PseudoLabelProbabilities:
    """Probabilities of pseudo-label +1, -1, and 0 (masked)."""

    p_pos: float
    p_neg: float
    p_mask: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pos, self.p_neg, self.p_mask], dtype=np.float64)


def pseudo_label_probabilities(spec: BinaryMixtureSpec) -> PseudoLabelProbabilities:
    """Closed-form pseudo-label distribution.

    With half-gap a = (mu2 - mu1)/2 and confidence margin
    L = log(rho / (1 - rho)) / beta:

        p_pos = gamma * Phi((a - L - delta_p) / sigma2)
              + (1 - gamma) * Phi((-a - L - delta_p) / sigma1)
        p_neg = (1 - gamma) * Phi((a - L + delta_p) / sigma1)
              + gamma * Phi((-a - L + delta_p) / sigma2)
        p_mask = 1 - p_pos - p_neg

    The positive decision requires x above the midpoint boundary plus both the
    confidence margin and +delta_p; the scorer consumes ``x - delta_p``, which
    is why delta_p enters the acceptance thresholds with a plus sign.  Do not
    flip it.
    """
    s = spec  # validated at construction
    a = 0.5 * (s.mu2 - s.mu1)
    margin = math.log(s.rho / (1.0 - s.rho)) / s.beta
    p_pos = (
        s.gamma * standard_normal_cdf((a - margin - s.delta_p) / s.sigma2)
        + (1.0 - s.gamma) * standard_normal_cdf((-a - margin - s.delta_p) / s.sigma1)
    )
    p_neg = (
        (1.0 - s.gamma) * standard_normal_cdf((a - margin + s.delta_p) / s.sigma1)
        + s.gamma * standard_normal_cdf((-a - margin + s.delta_p) / s.sigma2)
    )
    return PseudoLabelProbabilities(p_pos=p_pos, p_neg=p_neg, p_mask=1.0 - p_pos - p_neg)


def _block_counts(spec: BinaryMixtureSpec, seed: int, start: int,
                  stop: int) -> tuple[int, int]:
    """(n_pos, n_neg) over the oracle's rows ``start`` to ``stop``.

    The block makes its own generator at its row's Philox counter offset:
    Philox4x64 steps its counter before it fills four uint64, one counter
    step per four uniforms, and a row takes three, so row ``start`` (a
    multiple of four) begins at counter ``3 * start // 4``.  The arithmetic
    is the documented recipe, op for op, computed in place."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=3 * start // 4))
    u = rng.random((stop - start, 3))
    positive = u[:, 0] < spec.gamma
    # z = sqrt(-2 ln(1 - u_bm1)) * cos(2 pi u_bm2)
    z = np.negative(u[:, 1])
    np.log1p(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    x = np.multiply(u[:, 2], 2.0 * np.pi)
    z *= np.cos(x, out=x)
    # x = mu_Y + sigma_Y * z, into z
    np.multiply(z, spec.sigma2, out=x)
    x += spec.mu2
    z *= spec.sigma1
    z += spec.mu1
    np.copyto(z, x, where=positive)
    # the score, into z
    z -= spec.delta_p
    z -= 0.5 * (spec.mu1 + spec.mu2)
    z *= -spec.beta
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    return (int(np.count_nonzero(z > spec.rho)),
            int(np.count_nonzero(z < 1.0 - spec.rho)))


def monte_carlo_pseudo_label_probabilities(
    spec: BinaryMixtureSpec, n_samples: int, seed: int
) -> PseudoLabelProbabilities:
    """Empirical pseudo-label frequencies from direct simulation.

    The random stream is fixed so any implementation of this oracle can
    reproduce it bit-for-bit from the same seed:

    * generator: Philox4x64 keyed with ``seed``, counter starting at 0;
    * one row of three uniform doubles in [0, 1) per sample, the rows of one
      row-major ``rng.random((n_samples, 3))`` draw: ``u_label, u_bm1, u_bm2``;
    * class:  Y = +1 iff ``u_label < gamma``;
    * normal variate via the Box-Muller cosine branch on complemented
      uniforms (keeps the log argument in (0, 1]):
      ``z = sqrt(-2 ln(1 - u_bm1)) * cos(2 pi u_bm2)``;
    * x = mu_Y + sigma_Y * z, score
      ``s = 1 / (1 + exp(-beta * ((x - delta_p) - (mu1 + mu2) / 2)))``,
      pseudo-label +1 if s > rho, -1 if s < 1 - rho, else 0.

    The rows are counted in blocks of ``_BLOCK`` (the last one shorter), each
    drawn by its own generator started at the block's Philox counter offset,
    ``3 * start // 4`` for the block that starts at row ``start``: these are
    exactly the uniforms that the one draw gives those rows.  Every CPU the
    process may use runs one worker, up to ``_WORKERS``, and each worker
    counts every W-th block (W the worker count); the counts are integer
    sums, so the result is the same at any worker count and in any
    schedule.  Once a block fails, or the call is interrupted, no block that
    has not started runs, and the call raises.  ``n_samples`` is at least
    1, as ``imbssl verify-theorem`` checks ``--samples``.
    """
    n_samples = int(n_samples)
    # imported here, so that the training commands, which import this module
    # through cli, never load the pool
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    seed = int(seed)
    starts = range(0, n_samples, _BLOCK)
    # the CPUs this process may use; macOS and Windows have no affinity call,
    # and there it is every CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, _WORKERS, len(starts))
    stop = threading.Event()

    def count(first: int) -> tuple[int, int]:
        n_pos = n_neg = 0
        for start in starts[first::workers]:
            if stop.is_set():
                break
            pos, neg = _block_counts(spec, seed, start, min(start + _BLOCK, n_samples))
            n_pos += pos
            n_neg += neg
        return n_pos, n_neg

    with ThreadPoolExecutor(workers) as pool:
        try:
            futures = [pool.submit(count, first) for first in range(workers)]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            # after a failed block or an interrupt, no further block starts;
            # leaving the pool joins its threads
            stop.set()
        n_pos, n_neg = map(sum, zip(*(future.result() for future in futures)))
    n = float(n_samples)
    return PseudoLabelProbabilities(
        p_pos=n_pos / n,
        p_neg=n_neg / n,
        p_mask=(n_samples - n_pos - n_neg) / n,
    )


def denoising_bound(c: float, mu: float) -> float:
    """Upper bound ``2c / (c - 3) * mu`` on the error of a consistency-trained
    classifier with expansion factor ``c`` and separation violation rate ``mu``.

    Defined for c > 3, which ``AnchorSet`` holds of every expansion factor; mu
    is a rate in [0, 1], a mean of booleans.
    """
    return 2.0 * c / (c - 3.0) * mu
