"""Exponential integral kernel against its quadrature/series oracles."""

import math
import random
import sys

import mpmath
import pytest

from loglambert import DomainError, EULER_GAMMA, RangeError, ei
from loglambert.expint import _ROOT_HI
from _oracle import quad_ei

# Where ei's pieces meet (see expint's docstring), and the half-width of the
# window about the root x0 where the contract is 2 ulps instead of 4.
PIECE_EDGES = (-40.0, -6.0, -1.0, -0.5625, 0.1875, 3.0, 6.0, 20.0, 40.0, 709.0)
ROOT_WINDOW = 0.1

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
    # at the other end e^x underflows: Ei is -0
    assert repr(ei(-800.0)) == "-0.0"


def test_quadrature_oracle_agreement():
    for x in (-8.0, -3.0, -0.7, 0.2, 0.9, 1.0, 3.5, 7.0, 12.0):
        assert ei(x) == pytest.approx(quad_ei(x), rel=1e-9, abs=1e-12)


def test_overflow_is_typed():
    # Ei(716.355491) is 1.0000005 times the largest double: the product
    # e^(x/2) * (g/x) * e^(x/2) overflows there.
    for x in (720.0, 716.355491, math.inf):
        with pytest.raises(RangeError, match="double range"):
            ei(x)


def _mp_ei(x):
    # 40 digits, so the reference is exact to double precision even next
    # to the root, where Ei itself is ~1e-17
    with mpmath.workdps(40):
        return mpmath.ei(mpmath.mpf(x))


def _ulps(x):
    # ei(x)'s error in units in the last place of the correctly rounded Ei(x)
    ref = _mp_ei(x)
    return float(abs(mpmath.mpf(ei(x)) - ref) / math.ulp(float(ref)))


def _contract(x):
    # The ulps ei(x) may be off: 2 next to the root, 4 elsewhere
    return 2.0 if abs(x - _ROOT_HI) < ROOT_WINDOW else 4.0


def test_pieces_meet_at_their_edges():
    # The last double below each edge and the edge itself come from different
    # pieces; each meets the contract, and the step between them is Ei's own
    # slope times one ulp of x, give or take the two errors.
    for edge in PIECE_EDGES:
        below = math.nextafter(edge, -math.inf)
        for x in (below, edge, math.nextafter(edge, math.inf)):
            assert _ulps(x) <= _contract(x), x
        step = ei(edge) - ei(below)
        slope = math.exp(edge) / edge * (edge - below)
        assert abs(step - slope) <= 8.0 * math.ulp(ei(edge)), (edge, step, slope)


def test_dense_sweep_at_root_and_piece_edges():
    # The root window and 201 points about each edge, against 40-digit mpmath
    x0 = _ROOT_HI
    xs = [x0, math.nextafter(x0, 0.0), math.nextafter(x0, 1.0)]
    xs += [x0 + ROOT_WINDOW * (i / 500 - 1) for i in range(1, 1000)]
    for edge in PIECE_EDGES:
        xs += [edge * (1.0 + 1e-5 * (i - 100)) for i in range(201)]
    worst = max(xs, key=lambda x: _ulps(x) / _contract(x))
    assert _ulps(worst) <= _contract(worst), worst


def test_log_uniform_sweep_against_mpmath():
    # |x| log-uniform from 1e-10 up to 745 (x < 0) and 716 (x > 0), drawn
    # from a fixed seed; 4 ulps wherever Ei is a normal double.
    rng = random.Random(20260422)
    xs = [-(10.0 ** rng.uniform(-10.0, math.log10(745.0))) for _ in range(2000)]
    xs += [10.0 ** rng.uniform(-10.0, math.log10(716.0)) for _ in range(2000)]
    normal = [x for x in xs if abs(float(_mp_ei(x))) >= sys.float_info.min]
    assert len(normal) > 3900
    worst = max(normal, key=_ulps)
    assert _ulps(worst) <= 4.0, worst


def test_pinned_values_where_the_series_loops_erred():
    # The asymptotic series formed e^(x - ln x) and was 145 and 234 ulps off
    # at 300 and 700; next to the continued fraction's cutoff it was 23 off.
    for x in (300.0, 700.0, -2.4):
        assert _ulps(x) <= 4.0, x


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
