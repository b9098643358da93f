"""Exponential integral kernel against its quadrature/series oracles."""

import math

import mpmath
import pytest

from loglambert import DomainError, EULER_GAMMA, RangeError, ei
from loglambert.expint import (
    _CF_CUTOFF,
    _ROOT_HI,
    _ROOT_WINDOW,
    _SERIES_POS_CUTOFF,
    _asymptotic,
    _continued_fraction,
    _root_taylor,
    _series,
)
from _oracle import quad_ei

# Frozen from the quadrature oracle (quad_ei), cross-checked against the
# power series gamma + ln|x| + sum x^n/(n*n!); both agree to 1e-13.
EI_ONE = 1.8951178163559368
EI_MINUS_ONE = -0.21938393439552026


def test_value_at_one():
    assert ei(1.0) == pytest.approx(EI_ONE, rel=1e-12)
    assert quad_ei(1.0) == pytest.approx(EI_ONE, rel=1e-9)


def test_value_at_minus_one():
    assert ei(-1.0) == pytest.approx(EI_MINUS_ONE, rel=1e-12)
    assert quad_ei(-1.0) == pytest.approx(EI_MINUS_ONE, rel=1e-9)


def test_small_argument_leading_terms():
    # near 0+ the series reduces to gamma + ln x + x + O(x^2)
    x = 1e-8
    assert ei(x) == pytest.approx(EULER_GAMMA + math.log(x) + x, rel=1e-13)
    with pytest.raises(DomainError):
        ei(0.0)


def test_overflow():
    with pytest.raises(OverflowError):
        ei(720.0)
    # just under the limit still evaluates
    assert math.isfinite(ei(709.0))


def test_quadrature_oracle_agreement():
    for x in (-8.0, -3.0, -0.7, 0.2, 0.9, 1.0, 3.5, 7.0, 12.0):
        assert ei(x) == pytest.approx(quad_ei(x), rel=1e-9, abs=1e-12)


def test_overflow_is_typed():
    for x in (720.0, math.inf):
        with pytest.raises(RangeError, match="double range"):
            ei(x)


def test_series_vs_continued_fraction_crossover():
    # Neighbouring regimes overlap at every production switchover and must
    # agree there: the continued fraction and the power series at x = -2.5,
    # the Taylor series about the root and the power series at both edges
    # of its window, and the power and asymptotic series at x = 40.
    switchovers = (
        (_CF_CUTOFF, _continued_fraction, _series),
        (_ROOT_HI - _ROOT_WINDOW, _root_taylor, _series),
        (_ROOT_HI + _ROOT_WINDOW, _root_taylor, _series),
        (_SERIES_POS_CUTOFF, _series, _asymptotic),
    )
    for edge, inner, outer in switchovers:
        for d in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3):
            x = edge + d
            a, b = inner(x), outer(x)
            assert abs(a - b) <= 1e-13 * abs(b), (x, a, b)


def _mp_ei(x):
    # 40 digits, so the reference is exact to double precision even next
    # to the root, where Ei itself is ~1e-17
    with mpmath.workdps(40):
        return float(mpmath.ei(mpmath.mpf(x)))


def test_dense_sweep_at_root_and_switchovers():
    x0 = _ROOT_HI
    xs = [x0, math.nextafter(x0, 0.0), math.nextafter(x0, 1.0)]
    xs += [x0 + 1e-3 * (i / 500 - 1) for i in range(1001)]
    for edge in (_CF_CUTOFF, x0 - _ROOT_WINDOW, x0 + _ROOT_WINDOW, _SERIES_POS_CUTOFF):
        xs += [edge + 1e-3 * (i / 100 - 1) for i in range(201)]
    for x in xs:
        assert ei(x) == pytest.approx(_mp_ei(x), rel=1e-12, abs=0.0), x


def test_relative_accuracy_sweep():
    # log sweep of both signs across the full working range, against an
    # independent high-precision reference
    import mpmath

    lo, hi = -8.0, math.log10(700.0)
    for i in range(30):
        u = lo + (hi - lo) * i / 29
        for x in (10.0**u, -(10.0**u)):
            ref = float(mpmath.ei(mpmath.mpf(x)))
            assert ei(x) == pytest.approx(ref, rel=1e-12)


def test_derivative_identity():
    # d/dx Ei(x) = e^x / x
    for x in (-5.0, -1.0, 0.5, 1.0, 5.0, 10.0):
        h = 1e-6 * max(1.0, abs(x))
        fd = (ei(x + h) - ei(x - h)) / (2.0 * h)
        assert fd == pytest.approx(math.exp(x) / x, rel=1e-6)


def test_entire_part_smooth_through_zero():
    # Ei(x) - ln|x| - gamma extends smoothly through 0
    f = lambda x: ei(x) - math.log(abs(x)) - EULER_GAMMA
    left = f(-1e-7)
    right = f(1e-7)
    assert left == pytest.approx(-1e-7, abs=1e-13)
    assert right == pytest.approx(1e-7, abs=1e-13)
