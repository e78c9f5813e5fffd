"""Standard normal CDF through the platform's complementary error function.

Phi(x) = erfc(-x / sqrt(2)) / 2.  ``math.erfc`` is accurate to a few float64
ulps over the whole line and underflows cleanly to 0 in the far left tail,
so the CDF keeps full relative accuracy where its values are tiny.
"""

from __future__ import annotations

import math

__all__ = ["standard_normal_cdf"]

_SQRT1_2 = 0.7071067811865475244008443621  # 1/sqrt(2)


def standard_normal_cdf(x: float) -> float:
    """Phi(x) = P(Z <= x) for Z ~ N(0, 1).

    Absolute error below 1e-14 for |x| <= 8.  Rejects non-finite input.
    """
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError(f"standard_normal_cdf requires finite input, got {x!r}")
    return 0.5 * math.erfc(-xf * _SQRT1_2)
