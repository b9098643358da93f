"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report lines.
"""

import math
import random
import time

import pytest

import loglambert as ll
from _oracle import _simpson, fd_derivative
from _sampling import interior_points

PARAM_SETS = [(1, 1, 1), (2, 1, 1), (1, 1, 0), (-2, -1, 1), (-1, -1, 0.5)]

# Golden accuracy table for a = b = c = 1: x, approximation, relative error.
# The y = 4 row's x column is a known misprint (leading digit); the
# recomputed value is carried here and the literal digits are covered by
# the strict expected-failure below.
TABLE = {
    5: (2084.7878, 4.3301, 1.33982e-1),
    6: (7161.0857, 5.3453, 1.09116e-1),
    7: (23710.7124, 6.3581, 9.16961e-2),
    8: (76418.4449, 7.3690, 7.88738e-2),
    9: (241269.4957, 8.3783, 6.90741e-2),
    10: (749469.2416, 9.3864, 6.13602e-2),
}
TABLE_Y4_MISPRINT = 3575.7472
TABLE_Y4_RECOMPUTED = 575.7476


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    p = ll.Params(1.0, 1.0, 1.0)
    for y, (x_ref, approx_ref, err_ref) in TABLE.items():
        x = ll.forward(p, float(y))
        assert x == pytest.approx(x_ref, abs=5e-4)
        approx = ll.asymptotic(p, x)
        assert approx == pytest.approx(approx_ref, abs=1e-4)
        assert abs(approx - y) / y == pytest.approx(err_ref, abs=1e-4)
    assert ll.forward(p, 4.0) == pytest.approx(TABLE_Y4_RECOMPUTED, abs=5e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"accuracy table reproduced (y=5..10; y=4 recomputed) "
               f"in {elapsed:.3f}s")


@pytest.mark.xfail(strict=True,
                   reason="reference table misprint: leading digit of the y=4 x value")
def test_criterion_1_y4_literal_reference_digits():
    p = ll.Params(1.0, 1.0, 1.0)
    assert ll.forward(p, 4.0) == pytest.approx(TABLE_Y4_MISPRINT, abs=5e-4)


def test_criterion_2_roundtrip_all_branches():
    start = time.perf_counter()
    count = 0
    for abc in PARAM_SETS:
        p = ll.Params(*map(float, abc))
        for bi in ll.branches(p):
            for x in interior_points(bi, 200, lo_exp=-8.0, hi_exp=-0.01):
                r = ll.evaluate(p, bi.index, x)
                assert abs(ll.forward(p, r.y) - x) <= 1e-10 * max(1.0, abs(x))
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"{count} roundtrips across {len(PARAM_SETS)} parameter sets "
               f"within 1e-10, {elapsed:.2f}s")


def test_criterion_3_derivative_vs_finite_difference():
    count = 0
    for abc in PARAM_SETS:
        p = ll.Params(*map(float, abc))
        for bi in ll.branches(p):
            for x in interior_points(bi, 50, lo_exp=-2.0, hi_exp=-0.05,
                                     unbounded_lo_exp=-2.0):
                h = 1e-6 * max(1.0, abs(x))
                if not (bi.x_domain.contains(x - h)
                        and bi.x_domain.contains(x + h)):
                    continue
                y = ll.evaluate(p, bi.index, x, tol=1e-13).y
                want = ll.derivative(p, y)
                got = fd_derivative(p, bi.index, x, h)
                assert abs(got - want) <= 1e-5 * abs(want), (abc, bi.index, x)
                count += 1
    _report(3, f"derivative formula vs central differences at {count} points "
               f"within 1e-5")


def test_criterion_4_antiderivative_vs_quadrature():
    rng = random.Random(20240809)
    configs = [((1, 1, 1), 1), ((2, 1, 1), 1), ((1, 1, -0.2), 1),
               ((-2, -1, 1), 1)]
    checked = 0
    for abc, branch in configs:
        p = ll.Params(*map(float, abc))
        bi = ll.branches(p)[branch]
        # interval endpoints kept clear of the seam (where the inverse has a
        # square-root tangent) and well separated from each other
        xs = interior_points(bi, 60, lo_exp=-1.4, hi_exp=-0.1,
                             unbounded_lo_exp=-1.0, unbounded_hi_exp=1.7)
        gap = 20
        for _ in range(5):
            i = rng.randrange(0, len(xs) - gap)
            x1, x2 = sorted((xs[i], xs[i + gap]))
            quad = _simpson(lambda t: ll.evaluate(p, branch, t).y, x1, x2,
                            1e-11 * max(1.0, x2 - x1))
            y1 = ll.evaluate(p, branch, x1).y
            y2 = ll.evaluate(p, branch, x2).y
            diff = ll.antiderivative(p, y2) - ll.antiderivative(p, y1)
            assert quad == pytest.approx(diff, rel=1e-7), (abc, x1, x2)
            checked += 1
    assert checked == 20
    _report(4, "antiderivative matches quadrature on 20 random subintervals "
               "within 1e-7 (fixing the Ei coefficient at -a)")


def test_criterion_5_taylor():
    p = ll.Params(1.0, 1.0, -0.2)
    a0, a1 = ll.taylor_first_order(p)
    g = ll.taylor_coefficients(p, 3)
    assert g[0] == pytest.approx(a1, rel=1e-8)
    ks = []
    for x in (0.04, 0.02, 0.01):
        y = ll.evaluate(p, 1, x).y
        ks.append(abs(y - (a0 + a1 * x)) / x**2)
    assert max(ks) <= 2.0 * min(ks)
    _report(5, f"linear-remainder constant stable under halving "
               f"(K in [{min(ks):.4f}, {max(ks):.4f}]); g1 = a1 within 1e-8")


def test_criterion_6_singular_points():
    p1 = ll.Params(2.0, 1.0, 1.0)
    d1 = ll.singular_points(p1)
    assert len(d1) == 1
    assert abs(ll.singular_residual(p1, d1[0])) <= 1e-12

    p2 = ll.Params(-2.0, -1.0, 1.0)
    d2 = ll.singular_points(p2)
    assert len(d2) == 2
    for d in d2:
        assert abs(ll.singular_residual(p2, d)) <= 1e-12
    separator = math.exp(
        ll.lambert_w(-p2.b * p2.c * math.exp(1.0 / p2.a) / p2.a) - 1.0 / p2.a
    ) / p2.b
    assert d2[0] < separator < d2[1] < 0.0
    _report(6, f"seam points: one for (2,1,1), two for (-2,-1,1) with "
               f"{d2[0]:.4f} < {separator:.4f} < {d2[1]:.4f} < 0, "
               f"residuals <= 1e-12")


def test_criterion_7_maxent_stationarity():
    ep = ll.EntropyParams(q=0.9, q_prime=0.8, r=0.7)
    levels = (0.0, 0.3, 0.6, 0.9)
    alpha = ll.solve_alpha(levels, beta=0.1, ep=ep)
    spec = ll.EnsembleSpec(levels=levels, alpha=alpha, beta=0.1, ep=ep)
    dist = ll.distribution(spec, 0)

    assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12

    params = ep.induced_params()
    for prob, x in zip(dist.probs, dist.x_values):
        u_from_p = math.exp(
            (1.0 - ep.q_prime) / (1.0 - ep.q) * (prob ** (ep.q - 1.0) - 1.0)
        )
        y = ll.evaluate(params, 0, x, tol=1e-14).y
        u_from_y = (1.0 - ep.q_prime) / (1.0 - ep.r) * y
        assert abs(u_from_p - u_from_y) <= 1e-10

    residuals = ll.stationarity_residuals(spec, dist.probs)
    worst = max(abs(r) for r in residuals)
    assert worst <= 1e-6

    spec_eq = ll.EnsembleSpec(levels=(0.4, 0.4), alpha=alpha, beta=0.1, ep=ep)
    dist_eq = ll.distribution(spec_eq, 0)
    assert dist_eq.probs[0] == dist_eq.probs[1]

    _report(7, f"4-level system: sum(p)=1 to 1e-12, u-identity to 1e-10, "
               f"stationarity residual {worst:.2e} <= 1e-6, equal levels "
               f"exactly equal")


def test_criterion_8_limit_recovery():
    for x in (0.5, 2.0, 10.0):
        diffs = [
            abs(ll.ln_qqr(ll.EntropyParams(0.9, 0.8, 1.0 - 10.0**-m), x)
                - ll.ln_qq(0.9, 0.8, x))
            for m in range(2, 7)
        ]
        assert all(a > b for a, b in zip(diffs, diffs[1:])), (x, diffs)
        ep1 = ll.EntropyParams(1.0 - 1e-6, 1.0 - 1e-6, 1.0 - 1e-6)
        assert ll.ln_qqr(ep1, x) == pytest.approx(math.log(x), abs=1e-4)
    _report(8, "three-parameter logarithm: r->1 differences strictly "
               "decreasing (m=2..6), full limit recovers ln within 1e-4")


def test_criterion_9_classical_w_roundtrip():
    xs = [ll.BRANCH_POINT + 1e-6, ll.BRANCH_POINT + 1e-3, -0.2, -1e-6]
    xs += [10.0 ** (-12 + 0.5 * k) for k in range(49)]  # up to 1e12
    worst = 0.0
    for x in xs:
        w = ll.w0(x)
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    for x in [ll.BRANCH_POINT + 1e-6, ll.BRANCH_POINT + 1e-3, -0.2, -0.05,
              -1e-3, -1e-9]:
        w = ll.wm1(x)
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    assert worst <= 1e-13
    _report(9, f"classical W roundtrip residual {worst:.2e} <= 1e-13 on both "
               f"branches incl. branch-point vicinity")
