"""Branch inversion: roundtrips, branch consistency, seams, determinism."""

import itertools
import math
import random
import sys

import mpmath
import pytest

from loglambert import (
    ConvergenceError,
    DomainError,
    LogLambertError,
    Monotone,
    Params,
    RangeError,
    branches,
    evaluate,
    forward,
    lambert_w,
    singular_residual,
)
from loglambert import core
from loglambert.core import _inverter
from _sampling import interior_points, scan_cold_sample, x_in_domain

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
    # The third-order branch-point series at the seam starts the solver next
    # to the root: on the 12 branches of PARAM_SETS (168 points) the mean
    # point count is 1.61, against 2.30 from its first term alone and 13.3
    # from the bracket's midpoint.
    counts = []
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for bi in branches(p):
            for x in _near_seam_points(p, bi):
                r = evaluate(p, bi.index, x)
                assert abs(forward(p, r.y) - x) <= 1e-12 * max(1.0, abs(x)), (abc, bi.index, x)
                counts.append(r.iterations)
    assert len(counts) == 168
    assert sum(counts) / len(counts) <= 1.8


def test_far_seam_start_is_not_taken():
    # The seam of branch 0 is at y = 267.8, the root near 0.47: an expansion
    # start that far from its seam would leave Newton crawling down the
    # convex side of e^y, so the solver starts from the open end instead.
    p = Params(-1.0, 0.01, -3.0)
    r = evaluate(p, 0, 0.0)
    assert branches(p)[0].y_range.contains(r.y)
    assert abs(forward(p, r.y)) <= 1e-12


def _clipped_range(p, bi):
    # The branch's y-range with an open end clipped to a finite double:
    # y -> 0 to +-1e-307 (the seams of PARAM_SETS lie far above it),
    # |y| -> inf to +-1e300.
    yr = bi.y_range
    return [end if closed else math.copysign(1e300 if math.isinf(end) else 1e-307, p.b)
            for end, closed in ((yr.lo, yr.lo_closed), (yr.hi, yr.hi_closed))]


def _catalog(p):
    # The catalog of p, memoised by the values (a, b, c).
    return core._catalog(p.a, p.b, p.c)


def test_bracket_is_the_branch_range():
    # A seam end as the catalog has it; an open end clipped to a finite
    # double.
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        infos, plans = _catalog(p)
        for bi, plan in zip(infos, plans.values(), strict=True):
            ends = _clipped_range(p, bi)
            assert [plan.lo, plan.hi] == ends, (abc, bi.index)
            assert {d for d, _ in bi.seams} <= set(ends)


def test_plans_hold_the_branch_constants():
    # Each branch's solve plan, built with the catalog: the bracket, the
    # direction, the seams with f''(d) = s'(d)*e^d, where s'(y) =
    # a*(ln(b*y) + 1 + 1/y) + 1 is the slope of the seam equation
    # singular_residual, and the terms k2 = -alpha/2 and k3 = 5*alpha^2/8 -
    # beta/2 of the inverse's series there, alpha = (2s' + s'')/(3s') and
    # beta = (3s' + 3s'' + s''')/(12s'), with s'' and s''' taken here by
    # central differences of s'.
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        infos, plans = _catalog(p)
        assert infos is branches(p)
        assert list(plans) == [bi.index for bi in infos]
        for bi, plan in zip(infos, plans.values(), strict=True):
            assert plan.info is bi
            assert [plan.lo, plan.hi] == _clipped_range(p, bi)
            assert plan.increasing == (bi.monotone is Monotone.INCREASING)
            assert [(d, f_d) for d, f_d, _ in plan.seams] == list(bi.seams)
            for d, _, (curvature, k2, k3) in plan.seams:
                s_prime = core._seam_and_slope(p, d)[1]
                assert curvature == s_prime * math.exp(d), (abc, bi.index, d)
                h = 1e-6 * abs(d)
                slope = (singular_residual(p, d + h) - singular_residual(p, d - h)) / (2.0 * h)
                assert curvature == pytest.approx(slope * math.exp(d), rel=1e-6)
                h = 1e-4 * abs(d)
                s1_hi, s1_lo = (core._seam_and_slope(p, d + dh)[1] for dh in (h, -h))
                s2 = (s1_hi - s1_lo) / (2.0 * h)
                s3 = (s1_hi - 2.0 * s_prime + s1_lo) / (h * h)
                alpha = (2.0 * s_prime + s2) / (3.0 * s_prime)
                beta = (3.0 * s_prime + 3.0 * s2 + s3) / (12.0 * s_prime)
                assert k2 == pytest.approx(-0.5 * alpha, rel=1e-6), (abc, bi.index, d)
                assert k3 == pytest.approx(0.625 * alpha**2 - 0.5 * beta, rel=1e-6), \
                    (abc, bi.index, d)


def _mp_root_from_seam(p, d, width, x):
    # The root of f(y) = x between d and d + width (moved next to 0 when it
    # lies past 0) to 50 digits, by bisection.
    with mpmath.workdps(50):
        a, b, c, x = map(mpmath.mpf, (p.a, p.b, p.c, x))
        lo, hi = mpmath.mpf(d), mpmath.mpf(d) + width
        if b * hi <= 0:
            hi = lo * mpmath.mpf(10) ** -30

        def g(v):
            return (a * v * mpmath.log(b * v) + v + c) * mpmath.exp(v) - x

        g_lo = g(lo)
        assert (g_lo > 0) != (g(hi) > 0)
        for _ in range(170):
            mid = (lo + hi) / 2
            if (g(mid) > 0) == (g_lo > 0):
                lo = mid
            else:
                hi = mid
        return lo


def test_seam_start_is_third_order():
    # At x = f(d) + f''(d)*p^2/2 on either side of each seam d of PARAM_SETS,
    # for p in {1e-1, 1e-2, 1e-3} inside the trust rule p <= min(1, |d|),
    # the start's distance from the 50-digit root falls like p^4: within 3x
    # of the largest p's error scaled by p^4, up to the rounding floor of
    # f(d) and d.  A start of order two falls like p^3 (its first term alone
    # like p^2) and misses that bound by 10x (100x) per decade.
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for plan in _catalog(p)[1].values():
            for d, f_d, (curvature, _, _) in plan.seams:
                side = 1.0 if d == plan.lo else -1.0
                steps = [s for s in (1e-1, 1e-2, 1e-3) if s <= min(1.0, abs(d))]
                assert len(steps) >= 2, (abc, plan.info.index, d)
                scale = None
                for step in steps:
                    x = f_d + 0.5 * curvature * step * step
                    assert plan.x_min <= x <= plan.x_max
                    y = core._seam_start(plan, x)
                    err = float(abs(y - _mp_root_from_seam(p, d, 2.0 * side * step, x)))
                    if scale is None:
                        scale = err / step**4
                    floor = 8.0 * sys.float_info.epsilon * (abs(f_d / (curvature * step)) + abs(d))
                    assert err <= 3.0 * scale * step**4 + floor, (abc, plan.info.index, d, step)


def test_open_end_below_a_low_seam_stays_inside_the_branch():
    # With a = 1/(700 + 0.1k) and c = 0 the seam nearest 0 falls from 1e-304
    # to below the searched e^-708 (RangeError); 34 of these catalogs have it
    # below 2e-307.  The y -> 0 end is clipped to half that seam, so every
    # bracket keeps lo < hi and every answer lies on its own branch.
    low = 0
    for k, b in itertools.product(range(81), (1.0, -1.0)):
        p = Params(1.0 / (700.0 + 0.1 * k), b, 0.0)
        try:
            infos, plans = _catalog(p)
        except RangeError:
            continue
        low += min(abs(d) for bi in infos for d, _ in bi.seams) < 2e-307
        for bi, plan in zip(infos, plans.values(), strict=True):
            assert plan.lo < plan.hi, (p, bi.index)
            for x in interior_points(bi, 3):
                assert bi.y_range.contains(evaluate(p, bi.index, x).y), (p, bi.index, x)
    assert low == 34


def test_inversions_do_no_branch_setup(monkeypatch):
    # The bracket and the other per-branch constants come with the catalog:
    # once it is built, neither evaluate nor a warm inverter builds a plan,
    # and a catalog hit hashes no record.
    infos = [(p, bi) for p in (Params(*map(float, abc)) for abc in PARAM_SETS)
             for bi in branches(p)]
    assert len(infos) == 12
    calls = []
    plan_init = core._Plan.__init__

    def counted_init(plan, *args):
        calls.append(args)
        plan_init(plan, *args)

    def unhashable(record):
        raise AssertionError(f"{record!r} hashed")

    monkeypatch.setattr(core._Plan, "__init__", counted_init)
    monkeypatch.setattr(Params, "__hash__", unhashable)
    for p, bi in infos:
        for x in interior_points(bi, 5):
            y = evaluate(p, bi.index, x).y
            assert abs(forward(p, y) - x) <= 1e-12 * max(1.0, abs(x)), (p, bi.index, x)
    assert calls == []
    for p, bi in infos:
        invert = _inverter(p, bi.index, 1e-12)
        for x in sorted(interior_points(bi, 5)):
            y = invert([x])[0][0]
            assert abs(forward(p, y) - x) <= 1e-12 * max(1.0, abs(x)), (p, bi.index, x)
    assert calls == []
    # A catalog built afresh builds one plan per branch.
    core._catalog.cache_clear()
    assert len(branches(infos[0][0])) == len(calls)


def _open_end_points(bi):
    # x a share 10**-k in from the open end of a bounded x-domain, k = 1..12
    # (its y-end is y -> 0, or y -> -inf for b < 0); on a half-infinite one,
    # x = f(d) + max(1, |f(d)|) * 10**k past the seam's x, k = 1..30.
    dom = bi.x_domain
    if not (math.isfinite(dom.lo) and math.isfinite(dom.hi)):
        (_, f_d), = bi.seams
        sign = 1.0 if f_d == dom.lo else -1.0
        for k in range(1, 31):
            yield f_d + sign * max(1.0, abs(f_d)) * 10.0 ** k
    elif not (dom.lo_closed and dom.hi_closed):
        end, seam_x = (dom.hi, dom.lo) if dom.lo_closed else (dom.lo, dom.hi)
        for k in range(1, 13):
            yield end + (seam_x - end) * 10.0 ** -k


def test_cold_start_near_open_ends_is_cheap():
    # Steps from the branch's open end start the solver close to the root:
    # on the 10 branches of PARAM_SETS with an open end (174 points) the
    # mean point count is 1.57 and the max 4 with Newton steps on the log
    # form toward |y| -> inf, against 2.90 and 11 with fixed-point steps
    # there, and 15.3 and 42 (22.5 and 58 evaluations of f) from walked
    # brackets and midpoints.
    counts = []
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for bi in branches(p):
            for x in _open_end_points(bi):
                assert bi.x_domain.contains(x), (abc, bi.index, x)
                r = evaluate(p, bi.index, x)
                assert abs(forward(p, r.y) - x) <= 1e-12 * max(1.0, abs(x)), (abc, bi.index, x)
                counts.append(r.iterations)
    assert len(counts) == 174
    assert sum(counts) / len(counts) <= 2.0
    assert max(counts) <= 6


def test_unbounded_branch_starts_are_cheap():
    # Newton steps on the log form y - ln(x/P(y)) start the solver close to
    # the root on every unbounded branch of PARAM_SETS, at x log-spaced over
    # 1e-5 <= |x| <= 1e15 (8 per decade, 503 points in the domains): mean
    # 2.25 points and max 11, against 4.56 and 13 from fixed-point steps.
    # The max is Params(1, 1, 0) near the zero of P at y = 1/e (mean 3.5
    # there), where ln(x/P) is steep.
    counts = []
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for bi in branches(p):
            if not (math.isinf(bi.y_range.lo) or math.isinf(bi.y_range.hi)):
                continue
            for k, sign in itertools.product(range(-40, 121), (1.0, -1.0)):
                x = sign * 10.0 ** (k / 8)
                if bi.x_domain.contains(x):
                    r = evaluate(p, bi.index, x)
                    assert abs(forward(p, r.y) - x) <= 1e-12 * max(1.0, abs(x)), (abc, x)
                    counts.append(r.iterations)
    assert len(counts) == 503
    assert sum(counts) / len(counts) <= 2.5
    assert max(counts) <= 12


@pytest.fixture
def f_calls(monkeypatch):
    # Count the evaluations of f (with its slope) made through the core.  A
    # plan holds the f its catalog was built with, so the catalog is cleared
    # when the counter goes in, and again at teardown: no cached plan
    # outlives the test holding the counting wrapper.
    calls = [0]
    inner = core._forward_and_slope

    def counted(p, y):
        calls[0] += 1
        return inner(p, y)

    monkeypatch.setattr(core, "_forward_and_slope", counted)
    core._catalog.cache_clear()
    yield calls
    core._catalog.cache_clear()


def test_f_is_evaluated_only_by_the_solver(monkeypatch, f_calls):
    # No bracket work is left outside the inversion's points: every
    # evaluation of f it makes is one of them.  The first point is
    # evaluated before the solver, which is called only when that point
    # misses tol, and then once.
    solver_calls, newton_bisect = [0], core._newton_bisect

    def counted(*args):
        solver_calls[0] += 1
        return newton_bisect(*args)

    monkeypatch.setattr(core, "_newton_bisect", counted)
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for bi in branches(p):
            xs = [*interior_points(bi, 10), *_near_seam_points(p, bi), *_open_end_points(bi)]
            for x in xs:
                f_calls[0] = solver_calls[0] = 0
                r = evaluate(p, bi.index, x)
                assert f_calls[0] == r.iterations, (p, bi.index, x)
                assert solver_calls[0] == (r.iterations > 1), (p, bi.index, x)


def _warm_solves(monkeypatch, f_calls, sweeps):
    # Inverts each sorted sweep (p, branch, xs) of distinct x with one warm
    # inverter, checking every answer against evaluate's contract; returns
    # (cold, evaluations of f, calls to _solve and _newton_bisect) per invert
    # call, `cold` when the call solved x as evaluate does.  A cold call's
    # evaluations are its inversion's points.
    solves, solver_calls = [], [0]
    solve, newton_bisect = core._solve, core._newton_bisect

    def recorded_solve(p, plan, x, tol):
        result = solve(p, plan, x, tol)
        cold.append(result[2])
        return result

    def recorded_newton_bisect(*args):
        solver_calls[0] += 1
        return newton_bisect(*args)

    monkeypatch.setattr(core, "_solve", recorded_solve)
    monkeypatch.setattr(core, "_newton_bisect", recorded_newton_bisect)
    for p, branch, xs in sweeps:
        assert len(set(xs)) == len(xs)
        invert = _inverter(p, branch, 1e-12)
        for x in xs:
            f_calls[0] = solver_calls[0] = 0
            cold = []
            y = invert([x])[0][0]
            evals, calls = f_calls[0], solver_calls[0] + len(cold)
            assert cold in ([], [evals]), (p, branch, x)
            assert branches(p)[branch].y_range.contains(y), (p, branch, x, y)
            assert abs(forward(p, y) - x) <= 1e-12 * max(1.0, abs(x)), (p, branch, x)
            solves.append((bool(cold), evals, calls))
    return solves


def test_warm_inversion_starts_from_the_inverse_series(monkeypatch, f_calls):
    # On a sorted sweep of a branch, a warm solve starts from the
    # third-order inverse series at the last root where that series is
    # trusted; every other x is solved as evaluate solves it.  These sweeps
    # jump far (25 points across each x-domain), so the series is often
    # past where it is trusted: 209 of the 300 calls start from it, at 3.44
    # evaluations of f per call on average (max 5), where a start from the
    # last root, in place of evaluate's solve, took 4.27 (max 8).  No warm
    # call calls the solver more than once.
    sweeps = [(p, bi.index, sorted(interior_points(bi, 25)))
              for p in (Params(*map(float, abc)) for abc in PARAM_SETS)
              for bi in branches(p)]
    solves = _warm_solves(monkeypatch, f_calls, sweeps)
    warm = [(evals, calls) for cold, evals, calls in solves if not cold]
    assert len(warm) >= len(solves) // 2
    assert sum(evals for evals, _ in warm) / len(warm) <= 3.5
    assert max(evals for evals, _ in warm) <= 6
    assert all(calls <= 1 for _, calls in warm)


def test_warm_inversion_on_a_dense_sweep_takes_two_points(monkeypatch, f_calls):
    # 1% steps in x: every warm call evaluates f at the series start, which
    # meets tol*max(1, |x|) there or at the solver's next point, where a
    # start from the last root took three evaluations.  Neither calls the
    # solver: the inverter takes that Newton point itself, and only a walk
    # needing a third point hands it to _newton_bisect.
    p = Params(1.0, 1.0, 1.0)
    solves = _warm_solves(monkeypatch, f_calls, [(p, 1, [10.0 * 1.01 ** k for k in range(100)])])
    warm = [(evals, calls) for cold, evals, calls in solves if not cold]
    assert len(warm) == 99
    assert sum(evals for evals, _ in warm) / len(warm) <= 2.0
    assert min(evals for evals, _ in warm) >= 1
    assert all(calls == (evals > 2) for evals, calls in warm)


def test_warm_inversion_on_a_fine_sweep_ends_at_the_series_start(monkeypatch, f_calls):
    # 0.1% steps in x: the series start meets tol*max(1, |x|), so it is the
    # root, at one evaluation of f and no call to _solve or _newton_bisect.
    p = Params(1.0, 1.0, 1.0)
    solves = _warm_solves(monkeypatch, f_calls, [(p, 1, [10.0 * 1.001 ** k for k in range(100)])])
    assert [(evals, calls) for cold, evals, calls in solves if not cold] == [(1, 0)] * 99


@pytest.mark.parametrize("b", [10 ** -2.2, 0.01])
def test_no_newton_crawl_below_a_far_seam(b):
    # The seam of branch 0 is at y = 426.8 (b = 10**-2.2) or 267.8 (0.01),
    # the root near 0.45.  Newton steps on the convex side of e^y move y by
    # about 1 each: without the rtsafe rule these took 200 points (then
    # ConvergenceError) and 142.
    p = Params(-1.0, b, -3.0)
    r = evaluate(p, 0, 0.0)
    assert branches(p)[0].y_range.contains(r.y)
    assert abs(forward(p, r.y)) <= 1e-12
    assert r.iterations <= 8


def test_inverter_after_a_far_jump_is_cheap(f_calls):
    # From a root next to the seam at y = 267.8 to x = 0, whose root is
    # near 0.47: the inverse series at the last root is not trusted that far
    # out, so x = 0 is solved as evaluate solves it, from the open end.
    # From the last root, Newton would crawl down the convex side of e^y.
    p = Params(-1.0, 0.01, -3.0)
    invert = _inverter(p, 0, 1e-12)
    for x in (2.0e116, 0.0):
        f_calls[0] = 0
        y = invert([x])[0][0]
        assert branches(p)[0].y_range.contains(y)
        assert abs(forward(p, y) - x) <= 1e-12 * max(1.0, abs(x))
        assert f_calls[0] <= 8, x


@pytest.mark.parametrize("branch", [0, 1])
def test_warm_solve_after_a_seam_root_matches_evaluate(f_calls, branch):
    # A root at the seam has f' = 0, so the inverse series there is not
    # trusted: the next x, 1e-9, 1e-4 and 1e-1 of min(1, domain width)
    # past f(d), is solved as evaluate solves it, from the branch-point
    # expansion, with evaluate's bits and evaluations of f.  A Newton start
    # from the seam root took 28 evaluations where evaluate takes 1.
    p = Params(1.0, 1.0, 1.0)
    bi = branches(p)[branch]
    (d, f_d), = bi.seams
    width = min(1.0, bi.x_domain.hi - bi.x_domain.lo)
    for h in (1e-9, 1e-4, 1e-1):
        x = f_d + h * width
        invert = _inverter(p, branch, 1e-12)
        assert invert([f_d])[0] == [d]
        f_calls[0] = 0
        y = invert([x])[0][0]
        evals = f_calls[0]
        r = evaluate(p, branch, x)
        assert (y.hex(), evals) == (r.y.hex(), r.iterations), (branch, h)


def test_warm_stall_refuses_and_keeps_the_last_root(monkeypatch):
    # tol = 2**-60 sits below f's rounding at y = 5 (x = 2084.8): the cold
    # solve of f(5) lands on 5 exactly, but a warm solve of x + 1e-9 misses
    # at the series start, whose Newton step rounds back onto it, and the
    # solver it hands the start to stalls.  The refusal names branch 1 and
    # comes from the warm path; the walk stays at its last root.
    p = Params(1.0, 1.0, 1.0)
    invert = _inverter(p, 1, 2.0**-60)
    x = forward(p, 5.0)
    assert invert([x])[0] == [5.0]
    calls = {"_solve": 0, "_newton_bisect": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(core, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(core, name, counted)
    with pytest.raises(ConvergenceError, match=r"branch 1\)$"):
        invert([x + 1e-9])
    assert calls == {"_solve": 0, "_newton_bisect": 1}
    assert invert([x])[0] == [5.0]


def test_unsorted_warm_walks_are_cheap(f_calls):
    # One warm inverter per branch walks 40 x drawn as scan_cold draws them
    # (seed 5), in no order: each later x starts from the inverse series at
    # the last root where it is trusted, and is solved as evaluate solves it
    # otherwise.  They average 4.39 evaluations of f per x; a Newton start
    # from the last root where the series is not trusted, or a cold solve
    # only when x is nearer the open end's limit than the last x, took 10.48.
    rng, evals = random.Random(5), []
    for abc in PARAM_SETS:
        p = Params(*map(float, abc))
        for bi in branches(p):
            invert = _inverter(p, bi.index, 1e-12)
            for k in range(40):
                x = x_in_domain(bi, rng.random(), rng.random() < 0.5)
                f_calls[0] = 0
                y = invert([x])[0][0]
                assert bi.y_range.contains(y), (p, bi.index, x, y)
                assert abs(forward(p, y) - x) <= 1e-12 * max(1.0, abs(x)), (p, bi.index, x)
                if k:
                    evals.append(f_calls[0])
    assert len(evals) == 12 * 39
    assert sum(evals) / len(evals) <= 6.0


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


def _domain_probes(dom):
    # Each end of an x-domain and one ulp either side of it, +-0 and +-inf.
    for end in (dom.lo, dom.hi):
        yield math.nextafter(end, -math.inf)
        yield end
        yield math.nextafter(end, math.inf)
    yield from (0.0, -0.0, math.inf, -math.inf)


def test_plan_bounds_admit_what_the_domain_contains():
    # A plan admits x by x_min <= x <= x_max, its x-domain's open ends moved
    # one ulp inward: exactly the points Interval.contains admits, on every
    # plan of PARAM_SETS and of a seeded scan_cold-style sample.  evaluate
    # refuses the others by naming the domain, and NaN as NaN.
    sets = [tuple(map(float, abc)) for abc in PARAM_SETS]
    sets += [(p.a, p.b, p.c) for p in scan_cold_sample(300, 29)]
    plans = []
    for abc in sets:
        try:
            plans += [(abc, plan) for plan in core._catalog(*abc)[1].values()]
        except LogLambertError:
            continue
    assert len(plans) >= 400
    for abc, plan in plans:
        p, dom, index = Params(*abc), plan.info.x_domain, plan.info.index
        for x in _domain_probes(dom):
            admitted = plan.x_min <= x <= plan.x_max
            assert admitted == dom.contains(x), (abc, index, x)
            if not admitted:
                with pytest.raises(DomainError, match=f"outside branch {index} domain"):
                    evaluate(p, index, x)
        with pytest.raises(DomainError, match="^x must not be NaN$"):
            evaluate(p, index, math.nan)


def test_empty_domain_admits_nothing():
    # f(d) rounds to c, so branch 0's x-domain (c, c] is empty in doubles.
    p = Params(0.0432, 480.68, 2.9098)
    plan = core._catalog(p.a, p.b, p.c)[1][0]
    dom = plan.info.x_domain
    assert dom.lo == dom.hi and not dom.lo_closed and dom.hi_closed
    assert plan.x_min > plan.x_max
    for x in _domain_probes(dom):
        assert not dom.contains(x)
        with pytest.raises(DomainError, match="outside branch 0 domain"):
            evaluate(p, 0, x)


def test_refusals_keep_their_order():
    # A bad tol is named before a NaN or out-of-domain x.
    p = Params(1.0, 1.0, 1.0)
    for x in (math.nan, 1e9, 2084.7878):
        with pytest.raises(DomainError, match="tol must be positive"):
            evaluate(p, 1, x, tol=-1.0)


@pytest.mark.parametrize("branch", [1.0, True])
def test_branch_equal_to_an_index_selects_it(branch):
    # Same bits: repr shows each float exactly.
    p = Params(1.0, 1.0, 1.0)
    assert repr(evaluate(p, branch, 2084.7878)) == repr(evaluate(p, 1, 2084.7878))
    assert (repr(_inverter(p, branch, 1e-12)([2084.7878]))
            == repr(_inverter(p, 1, 1e-12)([2084.7878])))


@pytest.mark.parametrize("branch", [-1, 2, "1", None, [1], math.nan, 1.5])
def test_branch_that_is_no_index_is_refused(branch):
    # Each refusal names the valid indices, an unhashable branch included.
    p = Params(1.0, 1.0, 1.0)
    for call in (lambda: evaluate(p, branch, 2084.7878),
                 lambda: _inverter(p, branch, 1e-12)):
        with pytest.raises(DomainError, match=r"valid indices: \[0, 1\]"):
            call()


def test_tol_validation_and_unreachable_tol():
    p = Params(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(p, 1, 10.0, tol=0.0)
    with pytest.raises(ConvergenceError):
        evaluate(p, 1, 10.0, tol=1e-300)
    # An infinite tol accepted the first iterate (y = 4.96, residual 97.5).
    with pytest.raises(DomainError, match="^tol must be finite, got inf$"):
        evaluate(p, 1, 2084.7878, tol=math.inf)
    with pytest.raises(DomainError, match="^tol must be finite, got inf$"):
        _inverter(p, 1, math.inf)([2084.7878])


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


def test_inverter_answers_far_jumps():
    # Each x lies orders of magnitude beyond the one before it, so the
    # last root is a far first point.
    p = Params(1.0, 1.0, 1.0)
    invert = _inverter(p, 1, 1e-12)
    for x in (10.0, 1e10, 1e100, 1e300):
        y = invert([x])[0][0]
        assert abs(forward(p, y) - x) <= 1e-12 * x


def test_a_refusal_mid_batch_leaves_the_walk_at_the_last_root():
    # A batch stops at its first refusal (0.5 lies below branch 1's domain)
    # with the warm start at the last root it answered, so the next batch
    # gives the bits of an inverter that never saw the refused x: 20.0,
    # equal to the last x answered, returns that answer, and 30.0 starts
    # from it.
    p = Params(1.0, 1.0, 1.0)
    refused, clean = _inverter(p, 1, 1e-12), _inverter(p, 1, 1e-12)
    with pytest.raises(DomainError, match="outside branch 1 domain"):
        refused([10.0, 20.0, 0.5, 40.0])
    first = clean([10.0, 20.0])
    after = refused([20.0, 30.0])
    assert repr(after) == repr(clean([20.0, 30.0]))
    # The same walk as one batch of the x in another order, with the index
    # order that walks them ascending: each answer lands in its x's place.
    walked = _inverter(p, 1, 1e-12)([30.0, 10.0, 20.0], [1, 2, 0])
    assert repr(walked) == repr(tuple([a[1], f[0], f[1]] for a, f in zip(after, first)))
