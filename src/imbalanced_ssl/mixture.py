"""Pseudo-label sampling probabilities for a two-Gaussian binary task.

An unlabeled input x is drawn from N(mu2, sigma2^2) with probability ``gamma``
(positive class) and from N(mu1, sigma1^2) otherwise.  A sigmoid scorer with
sharpness ``beta``, centered on the midpoint decision boundary and shifted by
the logit-adjustment amount ``delta_p``, assigns pseudo-label +1 above
confidence ``rho``, -1 below ``1 - rho``, and abstains (0) in between.

``pseudo_label_probabilities`` evaluates the closed form of the resulting
three-way distribution; ``monte_carlo_pseudo_label_probabilities`` is the
deliberately-dumb sampling oracle used to cross-check it.
"""

from __future__ import annotations

import math
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

# Rows of the Monte Carlo oracle drawn and reduced at once: its working set is
# a few MB whatever the sample count, so more samples cost time, not memory.
_BLOCK = 1 << 16


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


def monte_carlo_pseudo_label_probabilities(
    spec: BinaryMixtureSpec, n_samples: int, seed: int
) -> PseudoLabelProbabilities:
    """Empirical pseudo-label frequencies from direct simulation.

    The random stream is fixed so any implementation of this oracle can
    reproduce it bit-for-bit from the same seed:

    * generator: Philox4x64 keyed with ``seed``, counter starting at 0;
    * one row of three uniform doubles in [0, 1) per sample, the rows of one
      row-major (n_samples, 3) block: ``u_label, u_bm1, u_bm2``.  The block is
      drawn in consecutive row blocks of ``_BLOCK`` rows (the last one
      shorter), each ``rng.random((m, 3))`` on the same generator; consecutive
      draws continue one stream, so these are the uniforms of a single
      ``(n_samples, 3)`` draw, and the counts add up across blocks;
    * class:  Y = +1 iff ``u_label < gamma``;
    * normal variate via the Box-Muller cosine branch on complemented
      uniforms (keeps the log argument in (0, 1]):
      ``z = sqrt(-2 ln(1 - u_bm1)) * cos(2 pi u_bm2)``;
    * x = mu_Y + sigma_Y * z, score
      ``s = 1 / (1 + exp(-beta * ((x - delta_p) - (mu1 + mu2) / 2)))``,
      pseudo-label +1 if s > rho, -1 if s < 1 - rho, else 0.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    mid = 0.5 * (spec.mu1 + spec.mu2)
    n_pos = n_neg = 0
    for start in range(0, n_samples, _BLOCK):
        u = rng.random((min(_BLOCK, n_samples - start), 3))
        positive = u[:, 0] < spec.gamma
        z = np.sqrt(-2.0 * np.log1p(-u[:, 1])) * np.cos(2.0 * np.pi * u[:, 2])
        x = np.where(
            positive,
            spec.mu2 + spec.sigma2 * z,
            spec.mu1 + spec.sigma1 * z,
        )
        with np.errstate(over="ignore"):
            score = 1.0 / (1.0 + np.exp(-spec.beta * ((x - spec.delta_p) - mid)))
        n_pos += int(np.count_nonzero(score > spec.rho))
        n_neg += int(np.count_nonzero(score < 1.0 - spec.rho))
    n = float(n_samples)
    return PseudoLabelProbabilities(
        p_pos=n_pos / n,
        p_neg=n_neg / n,
        p_mask=(n_samples - n_pos - n_neg) / n,
    )


def denoising_bound(c: float, mu: float) -> float:
    """Upper bound ``2c / (c - 3) * mu`` on the error of a consistency-trained
    classifier with expansion factor ``c`` and separation violation rate ``mu``.

    Undefined for c <= 3.
    """
    if not c > 3.0:
        raise ValueError(f"expansion factor must exceed 3, got {c}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"violation rate must lie in [0, 1], got {mu}")
    return 2.0 * c / (c - 3.0) * mu
