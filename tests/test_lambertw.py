"""Classical Lambert W kernel: branch values, residuals, monotonicity."""

import math

import mpmath
import pytest

from loglambert import BRANCH_POINT, ConvergenceError, DomainError, WBranch, lambert_w, w0, wm1


def bisect_w(x, lo, hi):
    # independent oracle: bisection on w*e^w = x
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if (mid * math.exp(mid) - x) * (lo * math.exp(lo) - x) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_known_points():
    assert w0(0.0) == 0.0
    assert w0(math.e) == pytest.approx(1.0, abs=1e-15)
    assert w0(BRANCH_POINT) == pytest.approx(-1.0, abs=1e-7)
    assert wm1(BRANCH_POINT) == pytest.approx(-1.0, abs=1e-7)


def test_w_of_one_against_bisection():
    ref = bisect_w(1.0, 0.0, 1.0)
    assert ref == pytest.approx(0.5671432904, abs=1e-9)
    assert w0(1.0) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("branch", [WBranch.PRINCIPAL, WBranch.NEGATIVE])
def test_roundtrip_residual(branch):
    xs = []
    for k in range(1, 70):
        xs.append(BRANCH_POINT + 10.0 ** (-13 + 0.24 * k))
    if branch is WBranch.PRINCIPAL:
        xs += [10.0 ** (-12 + 0.4 * k) for k in range(61)]  # up to 1e12
    else:
        xs += [-(10.0 ** (-12 + 0.28 * k)) for k in range(40)]
    for x in xs:
        if x < BRANCH_POINT:
            continue
        if branch is WBranch.NEGATIVE and x >= 0.0:
            continue
        w = lambert_w(x, branch)
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x))


def test_matches_mpmath_reference():
    pts0 = [-0.367, -0.3, -0.05, 0.1, 1.0, 10.0, 1e6, 1e12,
            BRANCH_POINT + 1e-6, BRANCH_POINT + 1e-3]
    for x in pts0:
        ref = float(mpmath.lambertw(mpmath.mpf(x)))
        assert w0(x) == pytest.approx(ref, rel=4e-15, abs=4e-15)
    pts1 = [-0.367, -0.3, -0.1, -1e-3, -1e-9, BRANCH_POINT + 1e-6]
    for x in pts1:
        ref = float(mpmath.lambertw(mpmath.mpf(x), -1))
        assert wm1(x) == pytest.approx(ref, rel=4e-15)


def test_monotonicity():
    xs = [BRANCH_POINT + 10.0 ** (-10 + 0.3 * k) for k in range(55)]
    vals = [w0(x) for x in xs if x <= 1e6]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    xs_neg = sorted(x for x in (-(10.0 ** (-9 + 0.25 * k)) for k in range(34))
                    if x > BRANCH_POINT)
    vals = [wm1(x) for x in xs_neg]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing


def test_derivative_identity():
    # finite-difference slope of W0 vs W/(x*(1+W))
    for x in (0.1, 1.0, 5.0, 20.0, 100.0):
        h = 1e-7 * max(1.0, x)
        fd = (w0(x + h) - w0(x - h)) / (2.0 * h)
        w = w0(x)
        assert fd == pytest.approx(w / (x * (1.0 + w)), rel=1e-6)


def test_domain_errors():
    with pytest.raises(DomainError):
        w0(BRANCH_POINT - 1e-6)
    with pytest.raises(DomainError):
        wm1(0.0)
    with pytest.raises(DomainError):
        wm1(0.5)
    with pytest.raises(DomainError):
        w0(math.nan)


def test_principal_branch_at_infinity():
    # W0 grows without bound: its limit at inf is inf, not NaN
    assert w0(math.inf) == math.inf
    assert lambert_w(math.inf, WBranch.PRINCIPAL) == math.inf
    with pytest.raises(DomainError):
        wm1(math.inf)
