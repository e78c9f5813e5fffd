"""Normal CDF accuracy against frozen high-precision tables.

Reference values were produced once with mpmath at 40 significant digits and
pasted here verbatim, so the suite never depends on mpmath at runtime.
"""

import math

import numpy as np
import pytest

from imbalanced_ssl.normal import standard_normal_cdf

# (x, Phi(x)) pairs, mpmath.ncdf at dps=40, 22 digits kept.
_CDF_TABLE = [
    (-37.5, 4.605353009581954843828e-308),
    (-20.0, 2.753624118606233695076e-89),
    (-12.0, 1.776482112077678997696e-33),
    (-10.0, 7.619853024160526065973e-24),
    (-8.0, 6.220960574271784123516e-16),
    (-6.0, 9.865876450376981407009e-10),
    (-5.0, 2.866515718791939116738e-7),
    (-4.0, 0.00003167124183311992125377),
    (-3.0, 0.001349898031630094526652),
    (-2.5, 0.006209665325776135166978),
    (-2.0, 0.02275013194817920720028),
    (-1.5, 0.06680720126885806600449),
    (-1.0, 0.1586552539314570514148),
    (-0.7, 0.2419636522230730147494),
    (-0.5, 0.3085375387259868963623),
    (-0.25, 0.4012936743170762757591),
    (0.0, 0.5),
    (0.25, 0.5987063256829237242409),
    (0.5, 0.6914624612740131036377),
    (0.7, 0.7580363477769269852506),
    (1.0, 0.8413447460685429485852),
    (1.5, 0.9331927987311419339955),
    (2.0, 0.9772498680518207927997),
    (2.5, 0.993790334674223864833),
    (3.0, 0.9986501019683699054733),
    (4.0, 0.9999683287581668800787),
    (5.0, 0.9999997133484281208061),
    (6.0, 0.9999999990134123549623),
    (8.0, 0.9999999999999993779039),
    (10.0, 1.0),
    (20.0, 1.0),
]

_ERFC_TABLE = [
    (0.5, 0.4795001221869534623173),
    (1.0, 0.1572992070502851306588),
    (2.0, 0.004677734981047265837931),
    (5.0, 1.537459794428034850188e-12),
    (10.0, 2.088487583762544757001e-45),
    (26.5, 2.210907664263734275929e-307),
]


def test_table_has_31_points():
    assert len(_CDF_TABLE) == 31


@pytest.mark.parametrize("x,expected", _CDF_TABLE)
def test_cdf_absolute_error(x, expected):
    assert abs(standard_normal_cdf(x) - expected) <= 1e-9


@pytest.mark.parametrize("x,expected", _CDF_TABLE)
def test_cdf_relative_error(x, expected):
    # Relative accuracy matters in the far left tail, where the values are
    # tiny; 0 exactly is only acceptable where the table itself rounds to it.
    got = standard_normal_cdf(x)
    if expected == 0.0 or expected == 1.0:
        assert got == pytest.approx(expected, abs=1e-15)
    else:
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x,expected", _ERFC_TABLE)
def test_erfc_values(x, expected):
    # erfc(x) = 2 Phi(-x sqrt(2)): the erfc table probes the CDF's far tail
    assert 2.0 * standard_normal_cdf(-x * math.sqrt(2.0)) == pytest.approx(expected, rel=1e-12)
    assert 2.0 * standard_normal_cdf(x * math.sqrt(2.0)) == pytest.approx(2.0 - expected,
                                                                          rel=1e-12)


def test_cdf_limits_and_zero():
    assert standard_normal_cdf(0.0) == 0.5
    assert standard_normal_cdf(40.0) == 1.0
    assert standard_normal_cdf(-40.0) == 0.0


def test_cdf_monotone_nondecreasing():
    xs = np.linspace(-12.0, 12.0, 2001)
    vals = [standard_normal_cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cdf_complement_symmetry():
    for x in (0.3, 1.7, 2.9, 4.2):
        assert standard_normal_cdf(-x) == pytest.approx(
            1.0 - standard_normal_cdf(x), abs=1e-15)


def test_cdf_matches_erfc_form():
    # Phi(x) = erfc(-x / sqrt(2)) / 2 is the defining identity; spot-check
    # the wiring rather than trusting it silently.
    for x in (-3.3, -0.4, 0.0, 1.1, 5.5):
        assert standard_normal_cdf(x) == pytest.approx(
            0.5 * math.erfc(-x / math.sqrt(2.0)), abs=1e-16)
