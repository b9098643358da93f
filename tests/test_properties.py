"""Property tests: every input gets a contract-meeting answer or a typed error."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from loglambert import (
    LogLambertError,
    Monotone,
    Params,
    branches,
    evaluate,
    forward,
    singular_residual,
)

Y_MIN = math.exp(-708.0)
Y_MAX = math.log(1.7976931348623157e308)


def _seam_scale(p, y):
    # magnitude of the seam equation's terms, as in derivative()
    return (1.0 + abs(p.a * (y + 1.0) * math.log(p.b * y)) + abs(y)
            + abs(p.a + p.c + 1.0))


def _probes(bi):
    # Interior y values of a branch, spread geometrically in |y|.
    lo, hi = bi.y_range.lo, bi.y_range.hi
    if math.isinf(lo) or math.isinf(hi):
        seam = hi if math.isinf(lo) else lo
        return [seam * k for k in (1.1, 2.0, 10.0)]
    if lo == 0.0 or hi == 0.0:
        seam = lo or hi
        return [seam * k for k in (0.9, 0.5, 1e-3)]
    return [-math.exp(math.log(-lo) * (1.0 - u) + math.log(-hi) * u)
            for u in (0.1, 0.5, 0.9)]


# The parameter ranges of the benchmark's scan_cold workload: |a| in
# 1e-3..1e2, |b| in 1e-3..1e3, all four sign cases; c in (-3, 3) for b > 0,
# (-a, a) for b < 0 < a, and (-3, |a|) for b < 0, a < 0.
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sign_a=st.sampled_from([1.0, -1.0]), sign_b=st.sampled_from([1.0, -1.0]),
       log_a=st.floats(-3.0, 2.0), log_b=st.floats(-3.0, 3.0),
       u=st.floats(0.0, 1.0))
def test_branches_meet_contract_or_refuse(sign_a, sign_b, log_a, log_b, u):
    a, b = sign_a * 10.0 ** log_a, sign_b * 10.0 ** log_b
    if b > 0.0:
        c = 3.0 * (2.0 * u - 1.0)
    elif a > 0.0:
        c = a * (2.0 * u - 1.0)
    else:
        c = -3.0 + (abs(a) + 3.0) * u
    p = Params(a, b, c)
    try:
        cat = branches(p)
    except LogLambertError:
        return
    assert len(cat) == (2 if b > 0.0 else 3)
    seams = sorted({d for bi in cat for d, _ in bi.seams})
    assert len(seams) == len(cat) - 1
    for d in seams:
        assert Y_MIN <= abs(d) <= Y_MAX
        assert abs(singular_residual(p, d)) <= 1e-12 * _seam_scale(p, d)
    for bi in cat:
        for y in _probes(bi):
            # f'(y) = s(y) * e^y has the sign of the seam equation s, which
            # stays finite where e^y overflows.  A probe whose s is below
            # the rounding level of its terms cannot resolve the sign.
            s = singular_residual(p, y)
            if abs(s) <= 1e-12 * _seam_scale(p, y):
                continue
            assert (s > 0.0) == (bi.monotone is Monotone.INCREASING), (p, bi.index, y)


@st.composite
def scan_params(draw):
    # The same scan_cold ranges as test_branches_meet_contract_or_refuse.
    a = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 2.0))
    b = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    u = draw(st.floats(0.0, 1.0))
    if b > 0.0:
        c = 3.0 * (2.0 * u - 1.0)
    elif a > 0.0:
        c = a * (2.0 * u - 1.0)
    else:
        c = -3.0 + (abs(a) + 3.0) * u
    return Params(a, b, c)


def _x_in_domain(bi, u, toward_open):
    # As in scan_cold: a point of the x-domain 10**(-12u) of the span from
    # its seam end (from its open or other end when toward_open) when it is
    # bounded, and max(1, |seam x|) * 10**(52u - 12) past the seam, up to
    # ~1e40, when it is half-infinite.
    dom = bi.x_domain
    if math.isfinite(dom.lo) and math.isfinite(dom.hi):
        anchor, far = (dom.lo, dom.hi) if dom.lo_closed != toward_open else (dom.hi, dom.lo)
        return anchor + (far - anchor) * 10.0 ** (-12.0 * u)
    anchor, sign = (dom.lo, 1.0) if math.isfinite(dom.lo) else (dom.hi, -1.0)
    return anchor + sign * max(1.0, abs(anchor)) * 10.0 ** (52.0 * u - 12.0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=scan_params(), us=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       toward_open=st.booleans())
def test_evaluate_meets_contract_or_refuses(p, us, toward_open):
    try:
        cat = branches(p)
    except LogLambertError:
        return
    for bi, u in zip(cat, us):
        x = _x_in_domain(bi, u, toward_open)
        if not bi.x_domain.contains(x):
            continue  # the distance underflowed onto an open end
        try:
            r = evaluate(p, bi.index, x, 1e-12)
        except LogLambertError:
            continue
        assert bi.y_range.contains(r.y), (p, bi.index, x, r)
        assert abs(forward(p, r.y) - x) <= 1e-12 * max(1.0, abs(x)), (p, bi.index, x, r)
