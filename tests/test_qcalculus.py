"""Deformed logarithms/exponentials and the three-parameter entropy."""

import itertools
import math
import random

import pytest

from loglambert import (
    DomainError,
    EntropyParams,
    RangeError,
    entropy_qqr,
    exp_q,
    ln_q,
    ln_qq,
    ln_qqr,
)


def test_ln_q_values():
    assert ln_q(1.0, 5.0) == pytest.approx(math.log(5.0), rel=1e-15)
    assert ln_q(2.0, 1.0) == 0.0
    assert ln_q(0.5, 4.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError):
        ln_q(0.5, 0.0)
    with pytest.raises(DomainError):
        ln_q(0.5, -2.0)


def test_exp_q_values():
    assert exp_q(1.0, 1.0) == pytest.approx(math.e, rel=1e-15)
    assert exp_q(2.0, 0.0) == 1.0
    assert exp_q(0.5, ln_q(0.5, 7.0)) == pytest.approx(7.0, rel=1e-14)
    with pytest.raises(DomainError):
        exp_q(3.0, 1.0)  # 1 + (1-q)x = -1


def test_exp_q_overflow():
    # Overflow is a RangeError (an OverflowError) naming x: through the
    # deformed power, at the q = 1 limit, and when (1-q)*x itself overflows.
    with pytest.raises(RangeError, match=r"x=1000000\.0"):
        exp_q(0.999, 1e6)
    with pytest.raises(RangeError, match=r"x=710\.0"):
        exp_q(1.0, 710.0)
    with pytest.raises(RangeError, match=r"x=1e\+308"):
        exp_q(-1.0, 1e308)
    assert math.isfinite(exp_q(0.999, 700.0))


def test_ln_qqr_zero_at_one():
    for trip in [(0.9, 0.8, 0.7), (1.3, 1.1, 1.7), (0.5, 2.0, 0.25)]:
        assert ln_qqr(EntropyParams(*trip), 1.0) == 0.0


def test_ln_qqr_all_limits_recover_ln():
    ep = EntropyParams(1.0 - 1e-6, 1.0 - 1e-6, 1.0 - 1e-6)
    for x in (0.5, 2.0, 3.0, 10.0):
        assert ln_qqr(ep, x) == pytest.approx(math.log(x), abs=1e-4)


def test_ln_qqr_r_limit_recovers_two_parameter_form():
    got = ln_qqr(EntropyParams(0.9, 0.8, 1.0 - 1e-6), 2.0)
    assert got == pytest.approx(ln_qq(0.9, 0.8, 2.0), abs=1e-6)


def test_r_limit_chain_strictly_decreasing():
    for x in (0.5, 2.0, 10.0):
        diffs = [
            abs(ln_qqr(EntropyParams(0.9, 0.8, 1.0 - 10.0**-m), x)
                - ln_qq(0.9, 0.8, x))
            for m in range(2, 7)
        ]
        assert all(a > b for a, b in zip(diffs, diffs[1:])), (x, diffs)


def test_ln_qqr_strictly_increasing():
    # x capped at ~2.5: for strongly deformed triples the growth is doubly
    # exponential and overflows long before that matters here
    grid = [10.0 ** (k / 10.0 - 1.5) for k in range(20)]
    for trip in [(0.5, 0.6, 0.7), (0.9, 0.8, 0.7), (0.99, 0.2, 0.5)]:
        ep = EntropyParams(*trip)
        vals = [ln_qqr(ep, x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_ln_qqr_overflow():
    # Overflow in the nested exponentials is a RangeError (an OverflowError)
    # naming x, also through ln_qq and entropy_qqr (1/p = 1e300).
    with pytest.raises(RangeError, match=r"x=1000000\.0"):
        ln_qqr(EntropyParams(0.5, 0.6, 0.7), 1e6)
    with pytest.raises(RangeError, match=r"x=1e\+300"):
        ln_qq(0.5, 0.8, 1e300)
    with pytest.raises(RangeError, match=r"x=9\.99"):
        entropy_qqr(EntropyParams(0.5, 0.8, 0.7), [1e-300, 1.0 - 1e-300])


def test_ln_qqr_refuses_an_overflowing_division():
    # The last stretch's expm1(c*s) is finite (about 1e304) but its division
    # by c = 1e-6 overflows: this returned inf, also through entropy_qqr.
    ep = EntropyParams(0.0, 0.0, 1.0 - 1e-6)
    with pytest.raises(RangeError, match=r"at x=21\.367521367521366$"):
        ln_qqr(ep, 1.0 / 0.0468)
    with pytest.raises(RangeError, match=r"at x=21\.367521367521366$"):
        entropy_qqr(ep, [0.0468, 0.9532])
    assert ln_qqr(ep, 1.0 / 0.04684) == pytest.approx(6.124e304, rel=1e-3)


def _stretched(coeff, s, x):
    # One deformation level as the nested form took it: (e^(coeff*s) - 1)/coeff,
    # s itself within 1e-12 of coeff = 0.
    if abs(coeff) < 1e-12:
        return s
    try:
        return math.expm1(coeff * s) / coeff
    except OverflowError:
        raise RangeError(f"deformed logarithm overflows the double range at x={x!r}") from None


def _raw_ln_q(q, x):
    if not x > 0.0:
        raise DomainError(f"ln_q needs x > 0, got {x!r}")
    return _stretched(1.0 - q, math.log(x), x)


def _raw_ln_qq(q, q_prime, x):
    return _stretched(1.0 - q_prime, _raw_ln_q(q, x), x)


def _finite(s, x):
    # A deformed logarithm that is not finite is refused as an overflow.
    if not math.isfinite(s):
        raise RangeError(f"deformed logarithm overflows the double range at x={x!r}")
    return s


def _nested_ln_q(q, x):
    return _finite(_raw_ln_q(q, x), x)


def _nested_ln_qq(q, q_prime, x):
    return _finite(_raw_ln_qq(q, q_prime, x), x)


def _nested_ln_qqr(ep, x):
    return _finite(_stretched(1.0 - ep.r, _raw_ln_qq(ep.q, ep.q_prime, x), x), x)


def _outcome(fn, *args):
    # The value's repr (its bits, -0.0 and nan included), or the error's
    # class and message.
    try:
        return repr(fn(*args))
    except (DomainError, RangeError) as exc:
        return type(exc).__name__, str(exc)


def test_deformed_logs_equal_the_nested_form():
    # ln_q, ln_qq and ln_qqr take their levels in one loop; each equals the
    # nested form to the bit, refusals and their messages included, on
    # parameters on both sides of the 1e-12 limit switch and far from it.
    params = [1.0 + k * 2.5e-13 for k in range(-6, 7)] + [0.5, 0.9, 1.3, 2.0, -1.0]
    xs = [0.0, -1.0, math.nan, 5e-324, 1e-300, 1e-10, 0.3, 1.0, 2.0, 1e5, 1e300, math.inf]
    outcomes = set()
    for q, x in itertools.product(params, xs):
        assert _outcome(ln_q, q, x) == _outcome(_nested_ln_q, q, x), (q, x)
    for q, q_prime, r in itertools.product(params, repeat=3):
        ep = EntropyParams(q, q_prime, r)
        for x in xs:
            assert _outcome(ln_qq, q, q_prime, x) == _outcome(_nested_ln_qq, q, q_prime, x)
            expected = _outcome(_nested_ln_qqr, ep, x)
            assert _outcome(ln_qqr, ep, x) == expected, (q, q_prime, r, x)
            outcomes.add(expected[0] if isinstance(expected, tuple) else "value")
    assert outcomes == {"DomainError", "RangeError", "value"}


def test_entropy_point_mass_is_zero():
    assert entropy_qqr(EntropyParams(0.9, 0.8, 0.7), (1.0,)) == 0.0
    # zero entries are skipped by continuity
    assert entropy_qqr(EntropyParams(0.9, 0.8, 0.7), (1.0, 0.0)) == 0.0


def test_entropy_boltzmann_gibbs_limit():
    ep = EntropyParams(1.0 - 1e-6, 1.0 - 1e-6, 1.0 - 1e-6, k=1.0)
    assert entropy_qqr(ep, (0.25,) * 4) == pytest.approx(math.log(4.0), abs=1e-4)


def test_entropy_equiprobable_collapses_to_single_log():
    ep = EntropyParams(0.9, 0.8, 0.7, k=1.0)
    assert entropy_qqr(ep, (0.5, 0.5)) == pytest.approx(ln_qqr(ep, 2.0), rel=1e-15)
    ep_k = EntropyParams(0.9, 0.8, 0.7, k=2.5)
    assert entropy_qqr(ep_k, (0.5, 0.5)) == pytest.approx(2.5 * ln_qqr(ep_k, 2.0))


def test_entropy_normalization_check():
    ep = EntropyParams(0.9, 0.8, 0.7)
    with pytest.raises(DomainError):
        entropy_qqr(ep, (0.5, 0.6))
    with pytest.raises(DomainError):
        entropy_qqr(ep, (-0.1, 1.1))


def test_entropy_limit_chain_to_two_parameter_entropy():
    # the entropy approaches its two-parameter counterpart as r -> 1, with
    # monotonically shrinking gaps
    p = (0.5, 0.3, 0.2)
    s_qq = sum(v * ln_qq(0.9, 0.8, 1.0 / v) for v in p)
    diffs = [
        abs(entropy_qqr(EntropyParams(0.9, 0.8, 1.0 - 10.0**-m), p) - s_qq)
        for m in range(2, 7)
    ]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


@pytest.mark.parametrize("trip", [(1.1, 1.2, 1.3), (2.0, 1.5, 1.2)])
def test_entropy_maximal_at_uniform_where_concave(trip):
    # spot check on random 3-point distributions; these parameter triples
    # keep p*ln_qqr(1/p) bounded so the uniform point dominates
    ep = EntropyParams(*trip)
    s_uni = entropy_qqr(ep, (1 / 3, 1 / 3, 1 / 3))
    rng = random.Random(1234)
    for _ in range(300):
        a, b = sorted((rng.random(), rng.random()))
        p = (a, b - a, 1.0 - b)
        if min(p) <= 1e-9:
            continue
        assert entropy_qqr(ep, p) <= s_uni + 1e-12


def test_induced_params():
    ep = EntropyParams(0.9, 0.8, 0.7)
    p = ep.induced_params()
    assert p.a == pytest.approx(0.5)
    assert p.b == pytest.approx(2.0 / 3.0)
    assert p.c == pytest.approx(-5.0)
    with pytest.raises(DomainError):
        EntropyParams(1.0, 0.8, 0.7).induced_params()
    with pytest.raises(DomainError):
        EntropyParams(0.9, 0.8, 0.7, k=-1.0)
