"""Branch inversion: roundtrips, branch consistency, seams, determinism."""

import math

import pytest

from loglambert import (
    ConvergenceError,
    DomainError,
    Monotone,
    Params,
    branches,
    evaluate,
    forward,
    lambert_w,
)
from loglambert.core import _bracket, _forward_and_slope, _inverter
from _sampling import interior_points

PARAM_SETS = [(1, 1, 1), (2, 1, 1), (1, 1, 0), (-2, -1, 1), (-1, -1, 0.5)]


def test_reference_table_points():
    p = Params(1.0, 1.0, 1.0)
    assert evaluate(p, 1, 2084.7878).y == pytest.approx(5.0, abs=1e-3)
    assert evaluate(p, 1, 749469.2416).y == pytest.approx(10.0, abs=1e-3)


def test_zero_crossing_inverse():
    p = Params(1.0, 1.0, 0.0)
    r = evaluate(p, 1, 0.0)
    assert r.y == pytest.approx(1.0 / math.e, rel=1e-13)
    assert r.residual <= 1e-12


def test_closed_form_point_via_lambert_w():
    # with c = -0.2 the x = 0 preimage is exp(W(0.2*e) - 1)
    p = Params(1.0, 1.0, -0.2)
    expected = math.exp(lambert_w(0.2 * math.e) - 1.0)
    assert evaluate(p, 1, 0.0).y == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("abc", PARAM_SETS)
def test_roundtrip_and_branch_consistency(abc):
    p = Params(*map(float, abc))
    for bi in branches(p):
        for x in interior_points(bi, 60):
            r = evaluate(p, bi.index, x)
            assert bi.y_range.contains(r.y), (abc, bi.index, x, r.y)
            assert abs(forward(p, r.y) - x) <= 1e-10 * max(1.0, abs(x))


@pytest.mark.parametrize("abc", PARAM_SETS)
def test_monotone_along_branch(abc):
    p = Params(*map(float, abc))
    for bi in branches(p):
        xs = sorted(interior_points(bi, 25))
        ys = [evaluate(p, bi.index, x).y for x in xs]
        pairs = list(zip(ys, ys[1:]))
        if bi.monotone is Monotone.INCREASING:
            assert all(a < b for a, b in pairs), (abc, bi.index)
        else:
            assert all(a > b for a, b in pairs), (abc, bi.index)


def _near_seam_points(p, bi):
    # x = f(d) + 10**-k * span for k = 1..12 from each seam d of the branch:
    # the span is the x-domain's width, or max(1, |f(d)|) when it is
    # half-infinite.
    dom = bi.x_domain
    for d, f_d in bi.seams:
        sign = 1.0 if f_d == dom.lo else -1.0
        span = dom.hi - dom.lo
        span = span if math.isfinite(span) else max(1.0, abs(f_d))
        for k in range(1, 13):
            yield f_d + sign * 10.0 ** -k * span


def test_cold_start_near_seams_is_cheap():
    # The branch-point expansion at the seam starts the solver next to the
    # root: on the 12 branches of PARAM_SETS (168 points) the mean point
    # count is 2.3, against 13.3 from the bracket's midpoint.
    counts = []
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for bi in branches(p):
            for x in _near_seam_points(p, bi):
                r = evaluate(p, bi.index, x)
                assert abs(forward(p, r.y) - x) <= 1e-12 * max(1.0, abs(x)), (abc, bi.index, x)
                counts.append(r.iterations)
    assert len(counts) == 168
    assert sum(counts) / len(counts) <= 4.0


def test_far_seam_start_is_not_taken():
    # The seam of branch 0 is at y = 267.8, the root near 0.47: an expansion
    # start that far from its seam would leave Newton crawling down the
    # convex side of e^y, so the solver starts from the midpoint instead.
    p = Params(-1.0, 0.01, -3.0)
    r = evaluate(p, 0, 0.0)
    assert branches(p)[0].y_range.contains(r.y)
    assert abs(forward(p, r.y)) <= 1e-12


def test_bracket_reads_f_at_seams_from_the_catalog():
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for bi in branches(p):
            catalog = dict(bi.seams)
            for x in interior_points(bi, 5):
                for y, f_y in _bracket(p, bi, x):
                    if y in catalog:
                        assert f_y.hex() == catalog[y].hex(), (abc, bi.index, y)
                        assert f_y.hex() == _forward_and_slope(p, y)[0].hex()


def test_seam_evaluation():
    p = Params(1.0, 1.0, 1.0)
    bi = branches(p)[1]
    (delta, x_seam), = bi.seams
    r = evaluate(p, 1, x_seam)
    assert r.at_seam
    assert r.y == delta
    assert r.iterations == 0
    # the other branch shares the seam
    r0 = evaluate(p, 0, x_seam)
    assert r0.at_seam and r0.y == delta


def test_domain_error_reports_interval():
    p = Params(1.0, 1.0, 1.0)
    with pytest.raises(DomainError) as exc:
        evaluate(p, 0, 1e9)
    msg = str(exc.value)
    assert "0.94" in msg and "1)" in msg  # names the valid x-interval
    with pytest.raises(DomainError):
        evaluate(p, 0, 1.0)  # open endpoint: the limit value is excluded
    with pytest.raises(DomainError):
        evaluate(p, 7, 2.0)  # no such branch


def test_tol_validation_and_unreachable_tol():
    p = Params(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(p, 1, 10.0, tol=0.0)
    with pytest.raises(ConvergenceError):
        evaluate(p, 1, 10.0, tol=1e-300)


def test_deterministic_bits():
    p = Params(-2.0, -1.0, 1.0)
    a = evaluate(p, 2, 0.01)
    b = evaluate(p, 2, 0.01)
    assert (a.y, a.residual, a.iterations) == (b.y, b.residual, b.iterations)


def test_huge_argument_on_unbounded_branch():
    p = Params(1.0, 1.0, 1.0)
    r = evaluate(p, 1, 1e300)
    assert abs(forward(p, r.y) - 1e300) <= 1e-10 * 1e300


def test_tiny_argument_near_limit_endpoint():
    # branch 0 of (1,1,1) has x-domain [f(delta), 1); approach the open end
    p = Params(1.0, 1.0, 1.0)
    x = 1.0 - 1e-12
    r = evaluate(p, 0, x)
    assert abs(forward(p, r.y) - x) <= 1e-10
    assert 0.0 < r.y < 1e-11  # preimage collapses toward 0


def test_inverter_widens_its_bracket():
    # Each x lies far beyond the bracket built for the one before it, so the
    # warm inverter answers only if it widens its bracket.
    p = Params(1.0, 1.0, 1.0)
    invert = _inverter(p, 1, 1e-12)
    for x in (10.0, 1e10, 1e100, 1e300):
        y = invert(x)
        assert abs(forward(p, y) - x) <= 1e-12 * x
