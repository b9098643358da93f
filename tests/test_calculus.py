"""Derivative, antiderivative, series expansion and large-x approximation."""

import math
import re
import sys

import mpmath
import pytest

from loglambert import (
    DomainError,
    LogLambertError,
    Params,
    RangeError,
    SingularityError,
    antiderivative,
    asymptotic,
    branches,
    derivative,
    ei,
    evaluate,
    forward,
    lambert_w,
    singular_points,
    singular_residual,
    taylor_coefficients,
    taylor_first_order,
)
from loglambert import core
from _oracle import _simpson, asymptotic_reference, fd_derivative, taylor_reference
from _sampling import interior_points, scan_cold_sample

P111 = Params(1.0, 1.0, 1.0)
P110 = Params(1.0, 1.0, 0.0)
PM02 = Params(1.0, 1.0, -0.2)


SAMPLE = scan_cold_sample(200)


# ---------------------------------------------------------------- derivative

def test_derivative_exact_denominator():
    # at (1,1,0), y = 1/e the denominator is exactly 1
    assert derivative(P110, 1.0 / math.e) == pytest.approx(
        math.exp(-1.0 / math.e), rel=1e-15
    )


def test_derivative_is_reciprocal_forward_slope():
    h = 1e-6
    fd_slope = (forward(P111, 5.0 + h) - forward(P111, 5.0 - h)) / (2.0 * h)
    assert derivative(P111, 5.0) == pytest.approx(1.0 / fd_slope, rel=1e-9)


def test_derivative_singular_at_seam():
    p = Params(2.0, 1.0, 1.0)
    delta = singular_points(p)[0]
    with pytest.raises(SingularityError):
        derivative(p, delta)


def test_derivative_domain():
    with pytest.raises(DomainError):
        derivative(P111, -3.0)


@pytest.mark.parametrize("abc", [(1, 1, 1), (2, 1, 1), (-2, -1, 1)])
def test_derivative_vs_finite_difference_of_inverse(abc):
    p = Params(*map(float, abc))
    for bi in branches(p):
        for x in interior_points(bi, 12, lo_exp=-2.0, hi_exp=-0.05,
                                 unbounded_lo_exp=-2.0):
            h = 1e-6 * max(1.0, abs(x))
            if not (bi.x_domain.contains(x - h) and bi.x_domain.contains(x + h)):
                continue
            y = evaluate(p, bi.index, x).y
            want = derivative(p, y)
            got = fd_derivative(p, bi.index, x, h)
            assert got == pytest.approx(want, rel=1e-5), (abc, bi.index, x)


# ------------------------------------------------------------ antiderivative

def test_antiderivative_closed_form_value():
    # at (1,1,1), y=1 the bracket collapses to 2, so F(1) = 2e - Ei(1)
    assert antiderivative(P111, 1.0) == pytest.approx(
        2.0 * math.e - ei(1.0), rel=1e-14
    )


def test_antiderivative_ei_coefficient_is_minus_a():
    # Quadrature fixes the Ei coefficient: integrating the inverse map
    # between two x values must reproduce F(y2) - F(y1).  A "-2*Ei"
    # variant fails this check by a factor-level margin, the "-a*Ei"
    # form passes at quadrature accuracy.
    x1, x2 = 5.0, 40.0
    quad = _simpson(lambda t: evaluate(P111, 1, t).y, x1, x2, 1e-11)
    y1 = evaluate(P111, 1, x1).y
    y2 = evaluate(P111, 1, x2).y
    diff = antiderivative(P111, y2) - antiderivative(P111, y1)
    assert quad == pytest.approx(diff, rel=1e-9)
    diff_minus_2ei = diff - (2.0 - P111.a) * (ei(y2) - ei(y1))
    assert abs(quad - diff_minus_2ei) > 1e-3 * abs(quad)


@pytest.mark.parametrize("abc,branch", [((1, 1, 1), 1), ((2, 1, 1), 1),
                                        ((1, 1, -0.2), 1), ((-2, -1, 1), 1)])
def test_antiderivative_matches_quadrature(abc, branch):
    p = Params(*map(float, abc))
    bi = branches(p)[branch]
    pts = interior_points(bi, 8, lo_exp=-2.0, hi_exp=-0.1)
    x1, x2 = min(pts), max(pts)
    quad = _simpson(lambda t: evaluate(p, branch, t).y, x1, x2,
                    1e-11 * max(1.0, abs(x2 - x1)))
    y1 = evaluate(p, branch, x1).y
    y2 = evaluate(p, branch, x2).y
    diff = antiderivative(p, y2) - antiderivative(p, y1)
    assert quad == pytest.approx(diff, rel=1e-7)


def test_antiderivative_chain_rule():
    # dF/dx = y: difference quotient of F along x against the inverse value
    p = PM02
    for x in (0.5, 2.0, 10.0):
        h = 1e-6 * max(1.0, x)
        yp = evaluate(p, 1, x + h).y
        ym = evaluate(p, 1, x - h).y
        fd = (antiderivative(p, yp) - antiderivative(p, ym)) / (2.0 * h)
        assert fd == pytest.approx(evaluate(p, 1, x).y, rel=1e-8)


def test_antiderivative_domain():
    with pytest.raises(DomainError):
        antiderivative(P111, 0.0)  # Ei singularity via b*y > 0 gate
    with pytest.raises(DomainError):
        antiderivative(P111, -1.0)


def test_antiderivative_overflow_is_typed():
    # At y = 709 e^y is finite but e^y * bracket is not; past y ~ 709.78
    # e^y and then Ei(y) overflow themselves.  Each is refused with a
    # RangeError (an OverflowError) naming y, never returned as inf or NaN.
    for y in (709.0, 720.0, math.inf):
        with pytest.raises(RangeError, match=re.escape(f"y={y!r}")):
            antiderivative(P111, y)
    assert issubclass(RangeError, OverflowError)


def _derivative_reference(p, y):
    # e^-y / s(y) from the seam equation's own kernel; SingularityError
    # where |s(y)| <= 1e-11 * (1 + |a*(y+1)*ln(b*y)| + |y| + |a+c+1|).
    s = singular_residual(p, y)
    scale = 1.0 + abs(p.a * (y + 1.0) * math.log(p.b * y)) + abs(y) + abs(p.a + p.c + 1.0)
    if abs(s) <= 1e-11 * scale:
        return SingularityError
    return math.exp(-y) / s


def test_derivative_matches_the_seam_equation_to_the_bit():
    # derivative takes ln(b*y) once for the seam equation and the scale of
    # its vertical-tangent test; the value is still e^-y / s(y), and it
    # refuses at the same points, at and next to the seams.
    checked = refused = 0
    for p in SAMPLE:
        try:
            cat = branches(p)
        except LogLambertError:
            continue
        ys = []
        for bi in cat:
            for d, _ in bi.seams:
                ys += [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf * d),
                       d * (1.0 - 1e-9), d * (1.0 + 1e-9), d * 0.9, d * 1.1, d / 7.0, d * 3.0]
        for y in ys:
            if not (abs(p.b * y) >= sys.float_info.min and y > -700.0):
                continue
            want = _derivative_reference(p, y)
            if want is SingularityError:
                refused += 1
                with pytest.raises(SingularityError):
                    derivative(p, y)
            else:
                checked += 1
                assert derivative(p, y).hex() == want.hex(), (p, y)
    assert checked > 1000 and refused > 100


def test_derivative_overflow_is_typed():
    # e^{-y} overflows below y = -709.78; the value is refused with a
    # RangeError naming y, not a bare OverflowError.
    p = Params(-2.0, -1.0, 1.0)
    assert math.isfinite(derivative(p, -700.0))
    for y in (-710.0, -800.0):
        with pytest.raises(RangeError, match=re.escape(f"y={y!r}")):
            derivative(p, y)


# ----------------------------------------------------------- Taylor / series

def test_taylor_first_order_closed_forms():
    a0, a1 = taylor_first_order(P110)
    assert a0 == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert a1 == pytest.approx(math.exp(-1.0 / math.e), rel=1e-15)


def test_taylor_point_is_zero_of_forward():
    a0, a1 = taylor_first_order(PM02)
    w = lambert_w(0.2 * math.e)
    assert a0 == pytest.approx(math.exp(w - 1.0), rel=1e-14)
    assert forward(PM02, a0) == pytest.approx(0.0, abs=1e-15)
    assert a1 == pytest.approx(derivative(PM02, a0), rel=1e-13)


def test_taylor_no_real_expansion_point():
    # a = b = c = 1 puts the W argument at -e, below the branch point
    with pytest.raises(DomainError):
        taylor_first_order(P111)
    # c = e^-2 puts it at -1/e, where W(t) = -1 and f'(a0) = 0
    with pytest.raises(SingularityError, match=r"W\(t\) = -1"):
        taylor_first_order(Params(1.0, 1.0, math.exp(-2.0)))


def test_taylor_coefficients_match_closed_form():
    _, a1 = taylor_first_order(PM02)
    g = taylor_coefficients(PM02, 1)
    assert len(g) == 1
    assert g[0] == pytest.approx(a1, rel=1e-8)
    g110 = taylor_coefficients(P110, 1)
    assert g110[0] == pytest.approx(math.exp(-1.0 / math.e), rel=1e-12)


def test_taylor_partial_sums_track_inverse():
    a0, a1 = taylor_first_order(PM02)
    g = taylor_coefficients(PM02, 3)
    ratios_quadratic = []
    ratios_quartic = []
    for x in (0.04, 0.02, 0.01, -0.01, -0.02, -0.04):
        y = evaluate(PM02, 1, x).y
        lin = a0 + a1 * x
        ratios_quadratic.append(abs(y - lin) / x**2)
        cubic = lin + g[1] * x * x / 2.0 + g[2] * x**3 / 6.0
        ratios_quartic.append(abs(y - cubic) / x**4)
    # both constants stay bounded within a factor 2 under halving on either
    # side of 0: the remainders really are O(x^2) and O(x^4)
    assert max(ratios_quadratic) <= 2.0 * min(ratios_quadratic)
    assert max(ratios_quartic) <= 2.0 * min(ratios_quartic)


def test_taylor_coefficients_match_50_digit_reference():
    # g_1..g_8 on the scan_cold sample against taylor_reference (50-digit
    # W, series product and reversion), coefficients below DBL_MIN skipped.
    # The worst case is 9.5e-14 * k at order k, at a0 = 394.6, where
    # e^(-a0) amplifies the rounding of a0 by |a0|.  Formed as e^(W(t) -
    # 1/a)/b, a0 inherited the rounding of that cancelling exponent: 5.9e-13
    # * k at a = 0.0019 (1/a = 530).
    checked = 0
    for p in SAMPLE:
        try:
            g = taylor_coefficients(p, 8)
        except LogLambertError:
            continue
        for k, (v, ref) in enumerate(zip(g, taylor_reference(p.a, p.b, p.c, 8)), 1):
            if abs(ref) >= sys.float_info.min:
                checked += 1
                assert abs(mpmath.mpf(v) - ref) <= 2e-13 * k * abs(ref), (p, k, v, ref)
    assert checked > 500


def test_taylor_first_order_where_e_to_1_over_a_overflows():
    # 1/a = 1000: e^{1/a} overflows, t = e^1000*1000 does too, but W(t) =
    # 1000 from ln t = 1000 + ln 1000, so a0 = 1 and a1 = e^-1/1.001
    # (40 digits).
    assert taylor_first_order(Params(0.001, 1.0, -1.0)) == (
        1.0, pytest.approx(0.36751192924220012, rel=4e-16))


@pytest.mark.parametrize("abc", [(1e-308, 1.0, -1.0), (5e-309, 1.0, -1.0), (5e-324, -1.0, 1.0)])
def test_taylor_first_order_where_1_over_a_overflows(abc):
    # a*W(t) = 1 + a*ln|b*c/(a*W(t))| is 1 to far below an ulp for a tiny
    # a > 0, so a0 = -c and a1 = e^c, whether 1/a is a double (1e308) or
    # overflows (a < 1/DBL_MAX).
    a0, a1 = taylor_first_order(Params(*abc))
    c = abc[2]
    assert a0 == pytest.approx(-c, rel=4e-16) and a1 == pytest.approx(math.exp(c), rel=4e-16)


@pytest.mark.parametrize("abc", [
    (0.001, 1.0, -1.0),
    (0.0011948482838878463, 17.126053956052434, -0.3724360277158446),
    (0.001000712260022731, -0.3283983392373836, 0.000653482329009756),  # b < 0
    (1e-5, 2.0, -3.0),  # 1/a = 1e5
    (0.0014, 0.01, -0.001),  # 1/a = 714.3, but ln t = 709.3: t is a double
    (0.0013, 1e-300, -1.0),  # a0 = 9.5: e^{-a0} amplifies its rounding
    (0.00141, 0.0276, -1.227),  # e^{1/a} is a double, t is not: ln t = 712.4
    (0.001, 1e-200, -1e-200),  # -b*c/a underflows to 0, ln t = 85.9; g_3 overflows
])
def test_taylor_where_e_to_1_over_a_overflows_matches_50_digits(abc):
    # t = -b*c*e^{1/a}/a > 0 with e^{1/a} or t past the double range: a0 =
    # -c/(a*W(t)) and a1 = e^{-a0}/(a*(W(t) + 1)) against 50-digit W(t), and
    # g_1..g_8 against taylor_reference, within a few ulps (a1: times
    # 1 + |a0|, g_k: the 50-digit test's 2e-13*k).  An order whose
    # reference coefficient is past the double range refuses.
    p = Params(*abc)
    with mpmath.workdps(50):
        a, b, c = (mpmath.mpf(v) for v in abc)
        w = mpmath.lambertw(-b * c * mpmath.exp(1 / a) / a).real
        a0_ref = -c / (a * w)
        a1_ref = mpmath.exp(-a0_ref) / (a * (w + 1))
    a0, a1 = taylor_first_order(p)
    assert abs(a0 - a0_ref) <= 4e-16 * abs(a0_ref)
    assert abs(a1 - a1_ref) <= 4e-16 * (1.0 + abs(a0)) * abs(a1_ref)
    refs = taylor_reference(*abc, 8)
    n = next((k for k, ref in enumerate(refs) if abs(ref) > sys.float_info.max), 8)
    if n < 8:
        with pytest.raises(RangeError, match="series coefficient"):
            taylor_coefficients(p, n + 1)
    for k, (v, ref) in enumerate(zip(taylor_coefficients(p, n), refs), 1):
        assert abs(mpmath.mpf(v) - ref) <= 2e-13 * k * abs(ref), (abc, k, v, ref)


@pytest.mark.parametrize("abc", [
    (0.01857845123162867, 2.951581345482488e-84, -1.827117452184706e-239),
    (0.004842639371358815, 2.5961012021800985e-239, -1.0703123062893806e-83),
])
def test_taylor_first_order_where_t_passes_a_subnormal_value(abc):
    # t = -b*c*e^{1/a}/a is a normal double, but -b*c is subnormal, so the
    # product formed left to right loses bits (a0 was 0.77% and 0.43% off).
    # t is read through ln|t|, good to about |ln t| ulps: a0 within 1e-13.
    with mpmath.workdps(50):
        a, b, c = (mpmath.mpf(v) for v in abc)
        a0_ref = -c / (a * mpmath.lambertw(-b * c * mpmath.exp(1 / a) / a).real)
    a0, _ = taylor_first_order(Params(*abc))
    assert abs(a0 - a0_ref) <= 1e-13 * abs(a0_ref), (a0, a0_ref)


@pytest.mark.parametrize("abc", [
    (5.917085825296067, -0.04116385353566818, 2.9590643875046045),
    (-0.17162393088470534, -7.3939616313350145, 0.15976252030039673),
    (-99.52015885755857, -0.032307363979191706, 10.91711176910345),
])
def test_taylor_coefficients_where_f_prime_at_a0_is_small(abc):
    # |f'(a0)| = |a*(W + 1)|*e^a0 < 1e-8 because e^a0 is small, not because
    # a0 is near a seam: the series answers, within the 50-digit test's
    # 2e-13*k of taylor_reference.
    p = Params(*abc)
    a0, a1 = taylor_first_order(p)
    assert abs(1.0 / a1) < 1e-8
    for k, (v, ref) in enumerate(zip(taylor_coefficients(p, 8), taylor_reference(*abc, 8)), 1):
        assert abs(mpmath.mpf(v) - ref) <= 2e-13 * k * abs(ref), (abc, k, v, ref)


@pytest.mark.parametrize("abc", [
    (0.001, 1.0, 1.0, DomainError),    # t = -e^1000*1000 lies below -1/e, whatever its size
    (-0.001, 1.0, 1.0, RangeError),    # t = 0, so a0 = e^{-1/a}/b, which overflows
    (1.0, -1e-4, 0.0, RangeError),     # a0 = -3679, so e^{-a0} overflows
    (0.0015, 1e300, 0.0, RangeError),  # t = 0, so a0 = e^{-1/a}/b underflows to 0
    (5e-324, 1.0, 0.0, RangeError),    # the same with 1/a = inf, where -b*c*e^{1/a} is NaN
])
def test_taylor_overflow_is_typed(abc):
    *abc, error = abc
    p = Params(*abc)
    names = "below -1/e" if error is DomainError else f"a={p.a!r}, b={p.b!r}, c={p.c!r}"
    for fn in (taylor_first_order, lambda q: taylor_coefficients(q, 4)):
        with pytest.raises(error, match=re.escape(names)):
            fn(p)


def test_taylor_coefficients_overflow_is_typed():
    # a0 = 3679 is finite, but e^{a0} in the forward series is not.
    with pytest.raises(RangeError, match="series coefficient"):
        taylor_coefficients(Params(1.0, 1e-4, 0.0), 4)


def _poly_mul_reference(u, v, order):
    out = [0.0] * (order + 1)
    for i, ui in enumerate(u):
        if ui == 0.0 or i > order:
            continue
        for j, vj in enumerate(v):
            if i + j > order:
                break
            out[i + j] += ui * vj
    return out


def _revert_series_reference(c, n):
    # Series reversion by truncated products, each power of g formed anew
    # for every order: O(n^4), with the summation order the table keeps.
    d = [0.0] * (n + 1)
    d[1] = 1.0 / c[1]
    for m in range(2, n + 1):
        s = [0.0] * (m + 1)
        for k in range(1, m):
            s[k] = d[k]
        total = [0.0] * (m + 1)
        power = s[:]
        for k in range(1, m + 1):
            if k > 1:
                power = _poly_mul_reference(power, s, m)
            ck = c[k] if k < len(c) else 0.0
            if ck == 0.0:
                continue
            for idx in range(m + 1):
                total[idx] += ck * power[idx]
        d[m] = -total[m] / c[1]
    return d


def test_revert_series_matches_truncated_products_to_the_bit():
    # The power table sums what the truncated products summed, in their
    # order, so each coefficient keeps its bits (float.hex: signed zeros
    # apart, NaN as NaN).
    series = []
    for p in SAMPLE:
        try:
            a0, _ = taylor_first_order(p)
            c = core._forward_series(p, a0, 8)
        except (DomainError, RangeError, SingularityError, OverflowError):
            continue
        series.append(c)
    assert len(series) > 50
    series += [
        [0.0, 2.0, 0.0, 0.0, 1.5, 0.0, 0.0, -3.0, 0.0],
        [0.0, -1.0, 0.0, 3.0],
        [0.0, 0.5, -0.0, 0.0, 0.0, 2.0],
        [0.0, 1e-300, 0.0, 1.0],        # d_1^2 = inf meets c_2 = 0
        [0.0, 1.0, 1e300, 1e300, 1.0, 0.0, 1.0, 1.0, 1.0],  # d_3 = inf
    ]
    for c in series:
        for n in range(1, 9):
            want = [v.hex() for v in _revert_series_reference(c, n)]
            assert [v.hex() for v in core._revert_series(c, n)] == want, (c, n)
    # Skipping c_2 = 0 keeps 0 * inf out of d_2.
    assert core._revert_series([0.0, 1e-300, 0.0, 1.0], 2)[2] == 0.0


def test_taylor_order_validation():
    # 3.0 raised a raw TypeError from range, and "3" one from the comparison
    for n in (0, 9, 3.0, math.inf, math.nan, "3"):
        with pytest.raises(DomainError, match="^series order "):
            taylor_coefficients(PM02, n)
    assert taylor_coefficients(PM02, True) == taylor_coefficients(PM02, 1)


# -------------------------------------------------------------- asymptotics

def test_asymptotic_reference_rows():
    # golden rows of the accuracy table (a = b = c = 1)
    for x, approx_ref, err_ref in [
        (2084.7878, 4.3301, 1.33982e-1),
        (76418.4449, 7.3690, 7.88738e-2),
        (749469.2416, 9.3864, 6.13602e-2),
    ]:
        got = asymptotic(P111, x)
        assert got == pytest.approx(approx_ref, abs=1e-4)
        y = evaluate(P111, 1, x).y
        assert abs(got - y) / y == pytest.approx(err_ref, abs=1e-4)


def test_asymptotic_error_decreases():
    errs = []
    for y in range(5, 11):
        x = forward(P111, float(y))
        errs.append(abs(asymptotic(P111, x) - y) / y)
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_asymptotic_domain():
    with pytest.raises(DomainError):
        asymptotic(Params(-1.0, 1.0, 1.0), 10.0)  # needs a != -1
    with pytest.raises(DomainError):
        asymptotic(P111, 0.0)
    with pytest.raises(DomainError):
        asymptotic(P111, -1e6)  # W argument below -1/e


def test_asymptotic_where_b_times_w_is_subnormal():
    # b*W(xi) = 3e-322*W(10/0.99) is subnormal: ln(b*W) follows core's rule
    # (ln|b| + ln|W|), so the approximation matches its own formula in
    # 50-digit arithmetic.
    p = Params(-0.01, 3e-322, 0.0)
    with mpmath.workdps(50):
        a, b, x = mpmath.mpf(p.a), mpmath.mpf(p.b), mpmath.mpf(10.0)
        w = mpmath.lambertw(x / (a + 1)).real
        ref = float(w - mpmath.log((a * mpmath.log(b * w) + 1) / (a + 1)))
    assert asymptotic(p, 10.0) == pytest.approx(ref, rel=1e-14)


def test_asymptotic_where_xi_is_past_the_double_range():
    # e^(c/(a+1)) = e^500 and xi = 1e200*e^500/2 overflow, but W(xi) comes
    # from ln xi = ln(1e200/2) + 500 and the value is a double: the paper's
    # formula in 50 digits.
    # W(xi) = 953.5 cancels against 2s = 1000, so a few ulps of those terms
    # are about 20 of the value's.
    ref = asymptotic_reference(1.0, 1.0, 1000.0, 1e200)
    assert float(ref) == -48.529613508724237
    assert asymptotic(Params(1.0, 1.0, 1000.0), 1e200) == pytest.approx(float(ref), rel=1e-14)


@pytest.mark.parametrize("abc, x", [
    ((1.0, 1.0, 1.0), 1e-310), ((1.0, 1.0, 1.0), 1e-320), ((1.0, 1.0, 1.0), 5e-324),
    ((2.0, 0.5, 3.0), 1e-315), ((1e6, 1.0, 1.0), 1e-320), ((1e6, 1.0, 2.0), 5e-324),
    ((-0.9965800647794545, -0.06896332772299764, -2.61184323122674), -10.0),
    ((0.001, 1.0, 1e-320), 1e-318), ((-0.5, 1.0, 1e-300), 1e-315),
])
def test_asymptotic_where_c_over_w_overflows(abc, x):
    # xi is subnormal (or rounds to 0: e^s underflows for the seventh, a
    # scan_cold catalog), so c/W(xi) overflows while the value, about
    # -ln(c/W(xi)), is a double: the brace's log comes from ln|c/W| with
    # ln|W| = ln|xi| - W, within a few ulps of the paper's formula in 50
    # digits (at 5e-324 the rounded xi alone is off by 21%).  These raised
    # RangeError, or DomainError naming y=0.0.  In the last two c/W(xi) is
    # a double, taken as (c/x)*(a+1)*e^-s: c/W with W rounded to a
    # subnormal was off by 2.5e-8 in the first.
    assert asymptotic(Params(*abc), x) == pytest.approx(float(asymptotic_reference(*abc, x)),
                                                       rel=4e-16)


@pytest.mark.parametrize("x", [1e308, 1e300])
def test_asymptotic_where_e_to_the_s_is_subnormal(x):
    # s = -745 and a + 1 = 2**-52: e^s rounds to the least subnormal (off by
    # 76%) but xi = x*e^s/(a+1) is about 1, so xi comes from ln|xi|.  The
    # product of the rounded e^s gave 1454.761 for x = 1e308, against
    # 1454.265 in 50 digits.
    abc = (-1.0 + 2.0**-52, 1.0, -745.0 * 2.0**-52)
    assert asymptotic(Params(*abc), x) == pytest.approx(float(asymptotic_reference(*abc, x)),
                                                       rel=1e-15)


def test_asymptotic_where_c_over_w_overflows_keeps_the_sign_rules():
    # A negative brace is refused as before; with c = 0 and xi rounding to 0
    # the brace is a*ln(b*W) + 1 < 0, read through ln|xi|.
    with pytest.raises(DomainError, match="log argument not positive .*-e\\^714.99"):
        asymptotic(Params(1.0, 1.0, -1.0), 1e-310)
    with pytest.raises(DomainError, match="log argument -758.25"):
        asymptotic(Params(1e6, 1.0, 0.0), 5e-324)
    with pytest.raises(DomainError, match="needs b\\*y > 0"):
        asymptotic(Params(1e6, -1.0, 2.0), 5e-324)


@pytest.mark.parametrize("p", [
    Params(-1.0 + 2.0**-52, 1.0, 1e300), Params(-1.0 + 2.0**-52, 1.0, -1e300), Params(0.5, 1.0, 1.5e308),
], ids=["1e+300", "-1e+300", "two_s"])
def test_asymptotic_where_s_overflows_is_a_range_error(p):
    # s = c/(a+1) = +-1e300*2**52 is beyond the double range, and so are xi
    # and 2s: the refusal names the approximation, not a NaN W(xi) or a W = 0.
    # At c = 1.5e308, a = 0.5, s = 1e308 is finite, e^s and xi are not, and
    # the value fails only at 2s.
    with pytest.raises(RangeError, match="the large-x approximation leaves the double range"):
        asymptotic(p, 10.0)
