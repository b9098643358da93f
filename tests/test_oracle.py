"""Self-checks for the brute-force reference implementations."""

import math
import random

import pytest

from loglambert import Params, branches, ei, evaluate
from _oracle import BracketError, bisect_invert, fd_derivative, quad_ei
from _sampling import interior_points


def test_bisect_invert_reference_row():
    p = Params(1.0, 1.0, 1.0)
    y = bisect_invert(p, 4.9, 5.1, 2084.7878)
    assert y == pytest.approx(5.0, abs=1e-4)


def test_bisect_invert_zero_crossing():
    p = Params(1.0, 1.0, 0.0)
    y = bisect_invert(p, 0.2, 0.5, 0.0)
    assert y == pytest.approx(1.0 / math.e, rel=1e-13)


def test_bisect_invert_requires_straddle():
    p = Params(1.0, 1.0, 1.0)
    with pytest.raises(BracketError):
        bisect_invert(p, 4.9, 5.1, 1.0)


def test_bisect_invert_agrees_with_newton_path():
    rng = random.Random(7)
    p = Params(1.0, 1.0, 1.0)
    bi = branches(p)[1]
    xs = interior_points(bi, 120, lo_exp=-4.0, hi_exp=-0.05)
    picked = rng.sample(xs, 100)
    for x in picked:
        fast = evaluate(p, 1, x).y
        slow = bisect_invert(p, max(bi.y_range.lo, fast - 1.0), fast + 1.0, x)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(fast))


def test_quad_ei_against_series_identity():
    # gamma + ln x + sum x^n/(n*n!) evaluated term by term, independent of
    # both the production path and the quadrature
    gamma = 0.57721566490153286061
    for x in (1.0, -1.0, 2.5, -3.0):
        total = gamma + math.log(abs(x))
        term = 1.0
        for n in range(1, 120):
            term *= x / n
            total += term / n
        assert quad_ei(x) == pytest.approx(total, rel=1e-9)


def test_quad_ei_smooth_through_zero():
    gamma = 0.57721566490153286061
    f = lambda x: quad_ei(x) - math.log(abs(x)) - gamma
    # the subtracted part continues smoothly through 0: x + x^2/4 + x^3/18
    for x in (1e-3, -1e-3):
        assert f(x) == pytest.approx(x + x * x / 4.0 + x**3 / 18.0, abs=1e-7)


def test_quad_ei_matches_production():
    for x in (0.5, 1.0, 4.0, 9.0, -0.5, -2.0, -7.0):
        assert quad_ei(x) == pytest.approx(ei(x), rel=1e-9, abs=1e-12)


def test_fd_derivative_mirrors_examples():
    p = Params(1.0, 1.0, 0.0)
    x0 = 0.0  # inverse passes through (0, 1/e) with slope e^{-1/e}
    got = fd_derivative(p, 1, x0, 1e-6)
    assert got == pytest.approx(math.exp(-1.0 / math.e), rel=1e-6)
