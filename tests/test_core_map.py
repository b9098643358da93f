"""Forward map, seam points and the branch catalog."""

import itertools
import math
import re
import sys

import mpmath
import pytest

from loglambert import (
    DomainError,
    Monotone,
    NoSolutionError,
    Params,
    RangeError,
    SingularityError,
    UnsupportedCaseError,
    antiderivative,
    branches,
    derivative,
    evaluate,
    forward,
    forward_slope,
    singular_points,
    singular_residual,
    taylor_first_order,
)
from loglambert import core

P111 = Params(1.0, 1.0, 1.0)


def test_forward_reference_values():
    # golden accuracy-table inputs (a = b = c = 1)
    assert forward(P111, 5.0) == pytest.approx(2084.7878, abs=5e-4)
    assert forward(P111, 6.0) == pytest.approx(7161.0857, abs=5e-4)


def test_forward_zero_crossing():
    p = Params(1.0, 1.0, 0.0)
    # y*(ln y + 1) vanishes at y = 1/e
    assert forward(p, 1.0 / math.e) == 0.0


def test_forward_domain():
    with pytest.raises(DomainError):
        forward(P111, -1.0)
    with pytest.raises(DomainError):
        forward(P111, 0.0)
    with pytest.raises(DomainError):
        forward(Params(1.0, -1.0, 0.0), 1.0)


@pytest.mark.parametrize("fn", [forward, forward_slope])
def test_forward_overflow_is_typed(fn):
    assert math.isfinite(fn(P111, 700.0))
    # e^800 overflows the double range; e^709 does not, but f(709) does
    for y in (800.0, 709.0):
        with pytest.raises(RangeError, match=re.escape(f"y={y!r}")):
            fn(P111, y)


def test_params_validation():
    with pytest.raises(DomainError):
        Params(0.0, 1.0, 1.0)  # degenerate: classical Lambert territory
    with pytest.raises(DomainError):
        Params(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        Params(math.inf, 1.0, 1.0)


def _scan_roots(fn, grid):
    roots = []
    prev = grid[0]
    fprev = fn(prev)
    for t in grid[1:]:
        ft = fn(t)
        if (ft > 0) != (fprev > 0):
            lo, hi = prev, t
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if (fn(mid) > 0) == (fprev > 0):
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
        prev, fprev = t, ft
    return roots


def test_singular_point_derived_a2():
    # unique positive root of 2*(y+1)*ln(y) + y + 4 = 0, found independently
    p = Params(2.0, 1.0, 1.0)
    fn = lambda y: 2.0 * (y + 1.0) * math.log(y) + y + 4.0
    grid = [10.0 ** (-9 + 9.2 * i / 400) for i in range(401)]
    expected = _scan_roots(fn, grid)
    assert len(expected) == 1
    got = singular_points(p)
    assert len(got) == 1
    assert got[0] == pytest.approx(expected[0], rel=1e-12)
    assert abs(singular_residual(p, got[0])) <= 1e-12


def test_singular_point_is_slope_sign_change():
    delta = singular_points(P111)[0]
    assert forward_slope(P111, delta * 0.9) < 0.0
    assert forward_slope(P111, delta * 1.1) > 0.0
    assert abs(singular_residual(P111, delta)) <= 1e-12


def test_singular_points_negative_b_pair():
    p = Params(-2.0, -1.0, 1.0)
    fn = lambda y: -2.0 * (y + 1.0) * math.log(-y) + y
    grid = [-(10.0 ** (1.2 - 7.2 * i / 2000)) for i in range(2001)]
    expected = sorted(_scan_roots(fn, grid))
    assert len(expected) == 2
    got = singular_points(p)
    assert got == pytest.approx(expected, rel=1e-10)
    d2, d1 = got
    assert d2 < d1 < 0.0
    for d in got:
        assert abs(singular_residual(p, d)) <= 1e-12
    # the x = 0 crossing point separates the two seams
    sep, _ = taylor_first_order(p)
    assert d2 < sep < d1
    assert forward(p, sep) == pytest.approx(0.0, abs=1e-14)


def test_branch_catalog_positive_b():
    cat = branches(Params(2.0, 1.0, 1.0))
    assert [bi.index for bi in cat] == [0, 1]
    b0, b1 = cat
    delta = singular_points(Params(2.0, 1.0, 1.0))[0]
    assert b0.y_range.lo == 0.0 and not b0.y_range.lo_closed
    assert b0.y_range.hi == pytest.approx(delta) and b0.y_range.hi_closed
    assert b1.y_range.lo == pytest.approx(delta)
    assert math.isinf(b1.y_range.hi)
    assert math.isinf(b1.x_domain.hi)
    # a > 0: f dips from c to its minimum then rises
    assert b0.monotone is Monotone.DECREASING
    assert b1.monotone is Monotone.INCREASING
    assert b0.x_domain.hi == 1.0 and not b0.x_domain.hi_closed  # limit f -> c
    assert b0.x_domain.lo == b1.x_domain.lo  # shared seam value


def test_branch_catalog_contains_zero_crossing():
    p = Params(1.0, 1.0, 0.0)
    cat = branches(p)
    holder = [bi for bi in cat if bi.y_range.contains(1.0 / math.e)]
    assert len(holder) == 1
    assert holder[0].x_domain.contains(0.0)
    assert holder[0].index == 1


def test_branch_catalog_negative_b():
    p = Params(-2.0, -1.0, 1.0)
    cat = branches(p)
    assert [bi.index for bi in cat] == [0, 1, 2]
    d2, d1 = singular_points(p)
    b0, b1, b2 = cat
    assert b0.y_range.lo == pytest.approx(d1) and b0.y_range.hi == 0.0
    assert b1.y_range.lo == pytest.approx(d2)
    assert b1.y_range.hi == pytest.approx(d1)
    assert math.isinf(b2.y_range.lo) and b2.y_range.hi == pytest.approx(d2)
    # f -> 0+ as y -> -inf, so the outer branch's x-domain is (0, f(d2)]
    assert b2.x_domain.lo == 0.0 and not b2.x_domain.lo_closed
    assert b2.x_domain.hi == pytest.approx(forward(p, d2))
    assert b0.monotone is Monotone.INCREASING
    assert b1.monotone is Monotone.DECREASING
    assert b2.monotone is Monotone.INCREASING


def test_branch_monotone_matches_slope_sign():
    for abc in [(1, 1, 1), (2, 1, 1), (1, 1, 0), (-1, 1, 0),
                (-2, -1, 1), (2, -1, 1), (-1, -1, 0.5)]:
        p = Params(*map(float, abc))
        for bi in branches(p):
            lo, hi = bi.y_range.lo, bi.y_range.hi
            if math.isinf(lo):
                lo = hi - 3.0
            elif lo == 0.0:
                lo = hi / 100.0
            if math.isinf(hi):
                hi = lo + 3.0
            elif hi == 0.0:
                hi = lo / 100.0
            for t in (0.2, 0.5, 0.8):
                y = lo + (hi - lo) * t
                s = forward_slope(p, y)
                if bi.monotone is Monotone.INCREASING:
                    assert s > 0.0
                else:
                    assert s < 0.0


def test_x_domain_is_image_of_y_range():
    for abc in [(1, 1, 1), (-1, 1, 0), (-2, -1, 1), (2, -1, 1)]:
        p = Params(*map(float, abc))
        for bi in branches(p):
            lo, hi = bi.y_range.lo, bi.y_range.hi
            if math.isinf(lo):
                lo = hi - 8.0
            elif lo == 0.0:
                lo = hi * 1e-6
            if math.isinf(hi):
                hi = lo + 8.0
            elif hi == 0.0:
                hi = lo * 1e-6
            for t in (0.0, 0.13, 0.5, 0.87, 1.0):
                y = lo + (hi - lo) * t
                assert bi.x_domain.contains(forward(p, y)), (abc, bi.index, y)


def test_unsupported_cases():
    # The seam count is the catalog's only refusal rule: b < 0 with |c| > a
    # still has two seams here, so it has three branches.
    cat = branches(Params(1.0, -1.0, 5.0))
    assert len(cat) == 3
    seams = sorted({d for bi in cat for d, _ in bi.seams})
    assert seams == pytest.approx([-3.623, -9.07e-4], rel=1e-3)
    with pytest.raises(NoSolutionError):
        # the seam equation is positive at its one knot, its minimum: no seam
        branches(Params(-1.0, -1.0, 5.0))
    with pytest.raises(NoSolutionError):
        # (y+1)*ln(-y) <= 0 on the whole half-line, so with c this negative
        # the seam equation stays below zero everywhere: no crossings
        singular_points(Params(1.0, -1.0, -50.0))


PAPER_SETS = [(1, 1, 1), (2, 1, 1), (1, 1, 0), (-1, 1, 0),
              (-2, -1, 1), (2, -1, 1), (-1, -1, 0.5)]


@pytest.mark.parametrize("abc", [(-0.0776, 6.2e-4, 0.734), (-0.003, 1.0, 0.5),
                                 (-0.8, 0.001, 0.8)])
def test_seam_outside_searched_range_is_range_error(abc):
    # The seams lie near y = 6.5e8, e^333 and 3.5e3, past ln(DBL_MAX) where
    # e^y overflows.
    p = Params(*abc)
    for fn in (singular_points, branches):
        with pytest.raises(RangeError) as info:
            fn(p)
        msg = str(info.value)
        assert "709.78" in msg and "e^-708" in msg
        assert f"a={p.a!r}, b={p.b!r}, c={p.c!r}" in msg


def test_three_seams_are_unsupported():
    # b > 0, a < 0 with s'(1) > 0: s falls, rises, then falls, and here it
    # crosses zero on all three pieces (4 branches).
    with pytest.raises(UnsupportedCaseError, match="has 3 roots"):
        branches(Params(-0.169, 2.278, -2.794))


def test_seam_near_underflow_is_catalogued():
    # |a| small puts the seam near e^{-(a+c+1)/a}: 2.62e-218 here.
    p = Params(0.003, 1.0, 0.5)
    b0, b1 = branches(p)
    delta = b0.y_range.hi
    assert delta == b1.y_range.lo == pytest.approx(2.62e-218, rel=1e-3)
    assert abs(singular_residual(p, delta)) <= 1e-12
    assert b0.monotone is Monotone.DECREASING
    assert b1.monotone is Monotone.INCREASING


def _seam_root_in_log_y(p):
    # The seam of a b > 0 case with 1e-320 < delta < 1e-260, to 60 digits,
    # by bisection in t = ln y (findroot from a point wanders off into the
    # complex plane here).
    a, b, c = (mpmath.mpf(v) for v in (p.a, p.b, p.c))
    with mpmath.workdps(60):
        def s(t):
            return a * (mpmath.exp(t) + 1) * (mpmath.log(b) + t) + mpmath.exp(t) + a + c + 1
        lo, hi = mpmath.mpf(-737), mpmath.mpf(-599)
        s_lo = s(lo)
        assert s_lo * s(hi) < 0
        for _ in range(250):
            mid = (lo + hi) / 2
            if (s(mid) > 0) == (s_lo > 0):
                lo = mid
            else:
                hi = mid
        return float(mpmath.exp(lo))


@pytest.mark.parametrize("p, b_delta, x_in_both", [
    (Params(0.001, 1e-130, 0.0), 0.0, True),
    # math.log of the subnormal b*delta is off by 0.25; branch 0's x-domain
    # (6.43, 6.43] holds no double.
    (Params(0.01, 1e-16, 6.43), 1e-323, False),
], ids=["b_delta_zero", "b_delta_subnormal"])
def test_seam_where_b_times_y_underflows_is_catalogued(p, b_delta, x_in_both):
    # b*delta lies below the least normal double, so ln(b*y) is taken as
    # ln|b| + ln|y| there: the seam is the root of the seam equation to
    # rounding and f' vanishes on it.  A y on the wrong side of 0 is still
    # refused.
    b0, b1 = branches(p)
    (delta, x_seam), = b1.seams
    assert b0.seams == b1.seams
    assert p.b * delta == b_delta < sys.float_info.min
    assert delta == pytest.approx(_seam_root_in_log_y(p), rel=1e-12, abs=0.0)
    assert forward(p, delta) == x_seam
    assert abs(singular_residual(p, delta)) <= 1e-12
    with pytest.raises(SingularityError):
        derivative(p, delta)
    assert math.isfinite(antiderivative(p, 2.0 * delta))
    for fn in (forward, forward_slope, singular_residual, antiderivative):
        with pytest.raises(DomainError, match="b\\*y > 0"):
            fn(p, -delta)
    if x_in_both:  # 0.5*x_seam lies in both x-domains
        for bi in (b0, b1):
            assert bi.y_range.contains(evaluate(p, bi.index, 0.5 * x_seam).y)


def test_seam_solves_are_cheap(monkeypatch):
    # Over a grid of the benchmark's scan_cold plane, each seam is one
    # bracketed solve of (s, s') started at the root of the terms that
    # dominate at the piece's open end.  The bisection point as the start
    # takes 13.4 points per seam; bisecting after a Newton step that has
    # converged to rounding from one side takes 12.1 (max 68).
    points = []
    solve = core._newton_bisect

    def counted(fn, *args):
        result = solve(fn, *args)
        if getattr(fn, "func", None) is core._seam_and_slope:
            points.append(result[2])
        return result

    monkeypatch.setattr(core, "_newton_bisect", counted)
    for sa, sb, la, lb, u in itertools.product(
            (1.0, -1.0), (1.0, -1.0), (-2.5, -1.5, -0.5, 0.5, 1.5),
            (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5), (0.1, 0.5, 0.9)):
        a, b = sa * 10.0 ** la, sb * 10.0 ** lb
        c = (3.0 * (2.0 * u - 1.0) if b > 0.0 else a * (2.0 * u - 1.0) if a > 0.0
             else -3.0 + (abs(a) + 3.0) * u)
        try:
            singular_points(Params(a, b, c))
        except (RangeError, UnsupportedCaseError):
            pass
    assert len(points) == 449
    assert sum(points) / len(points) <= 8.0 and max(points) <= 24


@pytest.mark.parametrize("abc", PAPER_SETS)
def test_seams_match_80_digit_roots(abc):
    a, b, c = (mpmath.mpf(v) for v in abc)
    with mpmath.workdps(80):
        for delta in singular_points(Params(*map(float, abc))):
            root = mpmath.findroot(
                lambda y: a * (y + 1) * mpmath.log(b * y) + y + a + c + 1,
                mpmath.mpf(delta))
            assert abs(mpmath.mpf(delta) - root) <= 8 * math.ulp(delta), (abc, delta)
