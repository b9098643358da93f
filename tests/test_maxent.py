"""Maximum-entropy distributions: stationarity, identities, continuous mode."""

import math
import random
import re
import sys

import pytest

from loglambert import (
    ConvergenceError,
    DomainError,
    EnsembleSpec,
    EntropyParams,
    IntegrationError,
    Params,
    RangeError,
    antiderivative,
    asymptotic,
    continuous_pdf,
    continuous_weight,
    derivative,
    distribution,
    ei,
    evaluate,
    forward,
    lambert_w,
    level_argument,
    ln_q,
    ln_qq,
    ln_qqr,
    probability,
    pseudo_beta,
    solve_alpha,
    stationarity_residuals,
    suggest_branch,
)
from _oracle import _simpson, continuous_reference, stationarity_residuals_quadratic
from loglambert import core, maxent
from loglambert.maxent import _adaptive_gauss_kronrod, _gauss_kronrod_panel
from loglambert.qcalculus import entropy_qqr, exp_q

EP = EntropyParams(q=0.9, q_prime=0.8, r=0.7)
LEVELS = (0.0, 0.3, 0.6, 0.9)
_rng = random.Random(5)
LEVELS_128 = tuple(sorted(_rng.random() for _ in range(128)))

# Compact-support continuous configuration (q, q', r all above 1): the
# weight vanishes where a*ln(b*y) + 1 crosses 0, at finite |x|.
EP_CONT = EntropyParams(q=1.1, q_prime=1.2, r=1.3)
ALPHA_CONT = 8.0 / (1.5 * math.exp(1.5)) - 10.0 / 3.0
BETA_CONT = -0.4 * math.exp(-3.0)
README_GRID = [-3.7 + 7.4 * i / 100 for i in range(101)]


@pytest.fixture
def count_calls(monkeypatch):
    # count_calls(module, name) replaces module.name by a wrapper that
    # records each call's arguments.  The pass memo starts empty, so that no
    # earlier test's pass saves work, and so does the catalog, whose plans
    # hold the f they were built with; the catalog is cleared again at
    # teardown, so no cached plan outlives the test holding a wrapper.
    def count(module, name):
        maxent._all_weights.cache_clear()
        core._catalog.cache_clear()
        calls = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    yield count
    core._catalog.cache_clear()


@pytest.fixture(scope="module")
def solved_spec():
    alpha = solve_alpha(LEVELS, beta=0.1, ep=EP)
    return EnsembleSpec(levels=LEVELS, alpha=alpha, beta=0.1, ep=EP)


def test_level_argument_hand_evaluation():
    ep = EntropyParams(q=0.9, q_prime=0.8, r=0.7)
    spec = EnsembleSpec(levels=(0.5,), alpha=2.0, beta=1.0, ep=ep)
    cr, cqp = 1.0 - ep.r, 1.0 - ep.q_prime
    ratio = cr / cqp
    by_hand = (-1.0 / cr + 2.0 + 1.0 * 0.5) * ratio * math.exp(ratio)
    assert level_argument(spec, 0) == pytest.approx(by_hand, rel=1e-15)
    # degeneracy guard: r a hair away from 1 still yields a finite argument
    near = EnsembleSpec(levels=(0.5,), alpha=2.0, beta=1.0,
                        ep=EntropyParams(q=0.9, q_prime=0.8, r=1.0 - 1e-6))
    assert math.isfinite(level_argument(near, 0))


# (1-r)/(1-q') = 746, so e^ratio overflows before any level is inverted.
EP_HUGE_RATIO = EntropyParams(0.5, 0.0, -745.0)


@pytest.mark.parametrize("call", [
    lambda: level_argument(EnsembleSpec((0.1, 0.5), 0.0, 0.1, EP_HUGE_RATIO), 0),
    lambda: distribution(EnsembleSpec((0.1, 0.5), 0.0, 0.1, EP_HUGE_RATIO)),
    lambda: solve_alpha((0.1, 0.5), 0.1, EP_HUGE_RATIO),
    lambda: continuous_weight(EP_HUGE_RATIO, 0.0, 0.1, 0, 0.5),
    lambda: continuous_pdf(EP_HUGE_RATIO, 0.0, 0.1, 0, [0.1, 0.5]),
], ids=["level_argument", "distribution", "solve_alpha", "continuous_weight",
        "continuous_pdf"])
def test_an_overflowing_argument_scale_is_refused(call):
    with pytest.raises(RangeError, match=r"e\^746\.0 .* q_prime=0\.0, r=-745\.0"):
        call()


# (1-r)/(1-q') = -1000, so e^ratio underflows to 0 and every argument would be 0.
EP_TINY_RATIO = EntropyParams(2.0, 2.0, -999.0)


@pytest.mark.parametrize("call", [
    lambda: level_argument(EnsembleSpec((0.0,), 0.0, 0.0, EP_TINY_RATIO), 0),
    lambda: distribution(EnsembleSpec((0.0,), 0.0, 0.0, EP_TINY_RATIO)),
    lambda: probability(EnsembleSpec((0.0,), 0.0, 0.0, EP_TINY_RATIO), 0),
    lambda: solve_alpha((0.0,), 0.0, EP_TINY_RATIO),
    lambda: continuous_pdf(EP_TINY_RATIO, 0.0, 0.0, 0, [0.0]),
], ids=["level_argument", "distribution", "probability", "solve_alpha", "continuous_pdf"])
def test_an_underflowing_argument_scale_is_refused(call):
    # level_argument returned 0.0, and distribution and probability answered
    # whatever the levels, alpha and beta.
    with pytest.raises(RangeError, match=r"e\^-1000\.0 .* underflows to 0 for q_prime=2\.0, "
                                         r"r=-999\.0$"):
        call()


def test_level_argument_refuses_an_overflowing_argument():
    # e^ratio = e^704 is finite; the argument's product is not.
    spec = EnsembleSpec(levels=(0.0,), alpha=1.0, beta=0.0, ep=EntropyParams(2.0, 2.0, 705.0))
    with pytest.raises(RangeError, match=r"argument of level 0 .* alpha=1\.0, beta=0\.0"):
        level_argument(spec, 0)


# With r one ulp below 1 and q' = -1e308, (1-r)/(1-q') rounds to 0 and
# every argument would be 0: refused by the rule of the induced coefficients.
@pytest.mark.parametrize("ep", [EntropyParams(0.9, 0.8, 1.0), EntropyParams(0.9, 1.0, 0.7),
                                EntropyParams(0.5, -1e308, 1.0 - 2**-53)])
def test_level_argument_refuses_r_or_q_prime_at_one(ep):
    spec = EnsembleSpec(levels=(0.0, 1.0), alpha=3.0, beta=2.0, ep=ep)
    for i in (0, 1):
        with pytest.raises(DomainError, match=re.escape(f"q_prime={ep.q_prime!r}, r={ep.r!r}")):
            level_argument(spec, i)


# beta*eps = 1e309 overflows for level 1 only.
SPEC_HUGE_LEVEL = EnsembleSpec((0.0, 1e308), 0.0, 10.0, EP)


@pytest.mark.parametrize("call", [
    lambda: level_argument(SPEC_HUGE_LEVEL, 1),
    lambda: distribution(SPEC_HUGE_LEVEL, 1),
    lambda: probability(SPEC_HUGE_LEVEL, 0, 1),
], ids=["level_argument", "distribution", "probability"])
def test_an_overflowing_level_argument_is_one_range_error(call):
    # The cause is the argument, not an inversion at x = inf.
    with pytest.raises(RangeError, match=r"^argument of level 1 \(eps=1e\+308\) overflows "):
        call()


def test_solve_alpha_takes_the_mean_of_levels_whose_sum_overflows():
    # The warm start's mean level: math.fsum of the levels overflows.
    alpha = solve_alpha([1e308, 1e308], 0.0, EntropyParams(1e-300, 3.0, -1e-300))
    assert math.isfinite(alpha)


@pytest.mark.parametrize("fn", [level_argument, probability])
@pytest.mark.parametrize("i", [len(LEVELS), -1])
def test_level_index_out_of_range_raises(fn, i):
    spec = EnsembleSpec(levels=LEVELS, alpha=0.28, beta=0.1, ep=EP)
    with pytest.raises(DomainError, match=rf"i={i} outside 0\.\.3"):
        fn(spec, i)


@pytest.mark.parametrize("fn", [level_argument, probability])
@pytest.mark.parametrize("i", [1.5, 1.0, "1", None])
def test_level_index_that_is_no_integer_raises(fn, i):
    # Only an integer selects a level, as only an integer selects a branch.
    spec = EnsembleSpec(levels=LEVELS, alpha=0.28, beta=0.1, ep=EP)
    with pytest.raises(DomainError, match=rf"i={re.escape(repr(i))} outside 0\.\.3"):
        fn(spec, i, 0) if fn is probability else fn(spec, i)


def test_level_index_true_selects_level_one():
    spec = EnsembleSpec(levels=LEVELS, alpha=0.28, beta=0.1, ep=EP)
    assert level_argument(spec, True) == level_argument(spec, 1)
    assert probability(spec, True, 0) == probability(spec, 1, 0)


def test_level_argument_factored_identity(solved_spec):
    # x_i = e^{(1-r)/(1-q')} * (1 - alpha*(1-r)) * exp_r(-beta_r*eps)^{1-r} / (q'-1)
    ep = solved_spec.ep
    cr, cqp = 1.0 - ep.r, 1.0 - ep.q_prime
    br = pseudo_beta(solved_spec)
    for i, eps in enumerate(solved_spec.levels):
        factored = (
            math.exp(cr / cqp)
            * (1.0 - solved_spec.alpha * cr)
            * exp_q(ep.r, -br * eps) ** cr
            / (ep.q_prime - 1.0)
        )
        assert level_argument(solved_spec, i) == pytest.approx(factored, rel=1e-13)


def test_normalisation_and_partition(solved_spec):
    dist = distribution(solved_spec, 0)
    assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12
    assert dist.partition == pytest.approx(1.0, abs=1e-13)
    assert all(0.0 < p < 1.0 for p in dist.probs)
    assert probability(solved_spec, 2, 0) == pytest.approx(dist.probs[2], rel=1e-15)


def test_stationarity_residuals(solved_spec):
    dist = distribution(solved_spec, 0)
    residuals = stationarity_residuals(solved_spec, dist.probs)
    assert max(abs(r) for r in residuals) <= 1e-6


def test_stationarity_residuals_match_quadratic_reference(solved_spec):
    # The reference differentiates the whole entropy sum at 50 digits; the
    # closed form of one term meets it to the rounding of ln_qqr's stretches
    # (a central difference with step 1e-6 missed it by 2.8e-6 on 128 levels).
    alpha = solve_alpha(LEVELS_128, beta=0.1, ep=EP)
    spec_128 = EnsembleSpec(levels=LEVELS_128, alpha=alpha, beta=0.1, ep=EP)
    for spec in (solved_spec, spec_128):
        probs = distribution(spec).probs
        fast = stationarity_residuals(spec, probs)
        reference = stationarity_residuals_quadratic(spec, probs)
        assert len(fast) == len(reference) == len(spec.levels)
        assert max(abs(u - v) for u, v in zip(fast, reference)) <= 1e-12


@pytest.mark.parametrize("ep", [EntropyParams(1.0 - 5e-13, 0.8, 0.7),
                                EntropyParams(0.9, 1.0 + 5e-13, 0.7),
                                EntropyParams(0.9, 0.8, 1.0)])
def test_stationarity_residuals_limit_stretch(ep):
    # A coefficient within 1e-12 of 0 is the identity stretch, of slope 1.
    rng = random.Random(21)
    probs = [rng.uniform(1e-3, 1.0) for _ in range(16)]
    spec = EnsembleSpec(levels=LEVELS_128[:16], alpha=0.3, beta=0.1, ep=ep)
    reference = stationarity_residuals_quadratic(spec, probs)
    for u, v in zip(stationarity_residuals(spec, probs), reference):
        assert abs(u - v) <= 1e-12 * max(1.0, abs(v))


def test_stationarity_residuals_typed_errors():
    ep = EntropyParams(0.5, 0.8, 0.7)
    spec = EnsembleSpec(levels=(0.0, 1.0), alpha=0.0, beta=0.1, ep=ep)
    # ln_qqr(1/1e-300) overflows in its nested exponentials
    with pytest.raises(RangeError, match=r"x=9\.999999999999999e\+299"):
        stationarity_residuals(spec, [1e-300, 1.0 - 1e-300])
    # ln_qqr stays finite, but the product of the stretches' slopes is inf
    steep = EnsembleSpec(levels=(0.0, 1.0), alpha=0.0, beta=0.1,
                         ep=EntropyParams(0.0, 0.0, 1.0 - 1e-6))
    assert math.isfinite(ln_qqr(steep.ep, 1.0 / 0.04684))
    with pytest.raises(RangeError, match=r"x=21\.34927412467976$"):
        stationarity_residuals(steep, [0.04684, 0.5])
    # the first level that refuses is named, though a later one's ln_qqr overflows
    with pytest.raises(RangeError, match=r"derivative overflows .* x=21\.34927412467976$"):
        stationarity_residuals(steep, [0.04684, 0.0468])
    with pytest.raises(DomainError, match="1 entries for 2 levels"):
        stationarity_residuals(spec, [1.0])
    # nan gave a finite residual, and inf an error about ln_q's x
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=rf"^probs must be finite, got {bad!r}$"):
            stationarity_residuals(spec, [bad, 0.5])
    # a finite p <= 0 still counts as a zero term
    assert stationarity_residuals(spec, [-0.5, 0.5])[0] == spec.alpha


def test_u_substitution_identity(solved_spec):
    ep = solved_spec.ep
    params = ep.induced_params()
    dist = distribution(solved_spec, 0)
    for prob, x in zip(dist.probs, dist.x_values):
        u_from_p = math.exp(
            (1.0 - ep.q_prime) / (1.0 - ep.q) * (prob ** (ep.q - 1.0) - 1.0)
        )
        y = evaluate(params, 0, x, tol=1e-14).y
        u_from_y = (1.0 - ep.q_prime) / (1.0 - ep.r) * y
        assert abs(u_from_p - u_from_y) <= 1e-10


def test_substitution_solves_forward_equation(solved_spec):
    # y_i = ((1-r)/(1-q')) * u_i satisfies the forward equation at x_i
    ep = solved_spec.ep
    params = ep.induced_params()
    dist = distribution(solved_spec, 0)
    for prob, x in zip(dist.probs, dist.x_values):
        u = math.exp(
            (1.0 - ep.q_prime) / (1.0 - ep.q) * (prob ** (ep.q - 1.0) - 1.0)
        )
        y = (1.0 - ep.r) / (1.0 - ep.q_prime) * u
        assert abs(forward(params, y) - x) <= 1e-10


def test_equal_levels_equal_probabilities():
    spec = EnsembleSpec(levels=(0.5, 0.5), alpha=0.28, beta=0.1, ep=EP)
    dist = distribution(spec, 0)
    assert dist.probs[0] == dist.probs[1]  # bitwise: identical computation
    assert dist.probs[0] == pytest.approx(0.5, rel=1e-15)


def test_single_level_normalises():
    spec = EnsembleSpec(levels=(1.0,), alpha=0.3, beta=0.05, ep=EP)
    dist = distribution(spec, 0)
    assert dist.probs == (1.0,)
    assert dist.partition > 0.0


def test_permutation_equivariance():
    perm = (LEVELS[2], LEVELS[0], LEVELS[3], LEVELS[1])
    spec_a = EnsembleSpec(levels=LEVELS, alpha=0.28, beta=0.1, ep=EP)
    spec_b = EnsembleSpec(levels=perm, alpha=0.28, beta=0.1, ep=EP)
    pa = distribution(spec_a, 0).probs
    pb = distribution(spec_b, 0).probs
    assert pb == (pa[2], pa[0], pa[3], pa[1])


def test_suggest_branch():
    assert suggest_branch(EP, 4) == 0
    assert suggest_branch(EP_CONT, 4) == 1


def test_fit_where_c_exceeds_a_with_b_negative():
    # Params(0.5, -2, 1) has |c| > a > 0 with b < 0, outside the paper's
    # sufficient conditions, yet two seams and three branches.
    ep = EntropyParams(1.5, 2.0, 0.5)
    assert ep.induced_params() == Params(0.5, -2.0, 1.0)
    branch = suggest_branch(ep, len(LEVELS))
    alpha = solve_alpha(LEVELS, 0.1, ep, branch)
    spec = EnsembleSpec(levels=LEVELS, alpha=alpha, beta=0.1, ep=ep)
    dist = distribution(spec, branch)
    assert abs(dist.partition - 1.0) <= 1e-14
    assert max(map(abs, stationarity_residuals(spec, dist.probs))) <= 1e-12


@pytest.mark.parametrize("n_levels", [10**30, 10**300, 10**400], ids=["1e30", "1e300", "1e400"])
def test_suggest_branch_refuses_an_overflowing_warm_start(n_levels):
    # These raised a raw OverflowError: `math range error` from the warm
    # start's exp, and `int too large to convert to float` from 1/n_levels.
    with pytest.raises(RangeError, match="^n_levels "):
        suggest_branch(EP, n_levels)


def test_suggest_branch_refuses_a_huge_negative_count_without_printing_it():
    # Formatting -10**5000 raised a raw ValueError (the int-to-str digit limit).
    with pytest.raises(DomainError, match="^n_levels .* got a negative integer of 16610 bits$"):
        suggest_branch(EP, -10**5000)


@pytest.mark.parametrize("call, name", [
    (lambda: solve_alpha([], 0.1, EP), "levels"),
    (lambda: solve_alpha([], 0.1, EP, branch=0), "levels"),
    (lambda: suggest_branch(EP, 0), "n_levels"),
    (lambda: suggest_branch(EP, -1), "n_levels"),
    (lambda: suggest_branch(EP, math.inf), "n_levels"),
    (lambda: suggest_branch(EP, 2.5), "n_levels"),
])
def test_no_levels_is_refused(call, name):
    # These raised ZeroDivisionError, ValueError (min of an empty sequence),
    # ZeroDivisionError, TypeError (a complex power) and ZeroDivisionError,
    # and 2.5 levels got an answer.
    with pytest.raises(DomainError, match=rf"^{name} "):
        call()
    assert suggest_branch(EP, True) == suggest_branch(EP, 1)  # bool is an integer here


@pytest.mark.parametrize("tol", [0.0, -1e-14, math.nan])
def test_solve_alpha_refuses_a_tol_that_is_not_positive(count_calls, tol):
    # Refused before any pass, as evaluate refuses it; such a tol ran passes
    # until ConvergenceError.
    calls = count_calls(maxent, "_all_weights")
    with pytest.raises(DomainError, match=rf"^tol must be positive, got {tol!r}$"):
        solve_alpha(LEVELS, 0.1, EP, tol=tol)
    assert calls == []


def test_solve_alpha_refuses_an_infinite_tol(count_calls):
    # It returned its first alpha, whatever the weights summed to.
    calls = count_calls(maxent, "_all_weights")
    with pytest.raises(DomainError, match="^tol must be finite, got inf$"):
        solve_alpha(LEVELS, 0.1, EP, tol=math.inf)
    assert calls == []


@pytest.mark.parametrize("levels, beta, message", [
    ([math.nan], 0.1, "levels must be finite, got nan"),
    ([0.1, math.inf], 0.1, "levels must be finite, got inf"),
    ([0.1, 0.2], math.nan, "beta must be finite, got nan"),
])
def test_solve_alpha_refuses_a_level_or_beta_that_is_not_finite(count_calls, levels, beta,
                                                                message):
    # Refused before any pass; these blamed the levels' span, as the
    # admissible interval of alpha came out empty.
    calls = count_calls(maxent, "_all_weights")
    with pytest.raises(DomainError, match=rf"^{message}$"):
        solve_alpha(levels, beta, EP)
    assert calls == []


def test_pseudo_beta(solved_spec):
    expected = solved_spec.beta / (1.0 - solved_spec.alpha * (1.0 - EP.r))
    assert pseudo_beta(solved_spec) == pytest.approx(expected, rel=1e-15)


def test_higher_energy_less_probable_on_increasing_branch():
    # branch 1 with beta > 0: the weight formula decreases with the level
    spec = EnsembleSpec(levels=(0.0, 1.0, 2.0, 3.0), alpha=0.0, beta=0.5, ep=EP)
    dist = distribution(spec, 1)
    assert dist.beta_r > 0.0
    assert all(a > b for a, b in zip(dist.probs, dist.probs[1:]))


def test_branch_mismatch_raises():
    # branch 0 of the (0.9, 0.8, 0.7) system has a bounded x-domain; a level
    # this high pushes its argument out of it
    spec = EnsembleSpec(levels=(0.0, 50.0), alpha=0.0, beta=0.5, ep=EP)
    with pytest.raises(DomainError) as exc:
        distribution(spec, 0)
    assert "level 1" in str(exc.value)


def test_weight_overflow_is_a_range_error_naming_the_level():
    # The level's argument lies just inside the brace's zero, where
    # brace^(1/(q-1)) = brace^-100 is beyond the double range.
    spec = EnsembleSpec(levels=(0.0,), alpha=2.589566130524016, beta=0.1,
                        ep=EntropyParams(0.99, 0.8, 0.7))
    for call in (lambda: distribution(spec, 0), lambda: probability(spec, 0, 0)):
        with pytest.raises(RangeError, match=r"level 0 \(eps=0\.0\): weight .* overflows"):
            call()
    with pytest.raises(RangeError, match="overflows the double range at x="):
        continuous_weight(spec.ep, spec.alpha, spec.beta, 0, 0.0)  # eps = 0.0**2


def test_solve_alpha_converges_tightly():
    alpha = solve_alpha(LEVELS, beta=0.1, ep=EP)
    spec = EnsembleSpec(levels=LEVELS, alpha=alpha, beta=0.1, ep=EP)
    assert distribution(spec, 0).partition == pytest.approx(1.0, abs=5e-14)


@pytest.mark.parametrize("levels, passes", [(LEVELS, 2), (LEVELS_128, 2)])
def test_solve_alpha_weight_passes(count_calls, levels, passes):
    # Halley steps on the exact slope and curvature converge cubically from
    # the spread-corrected start; from the uniform start alone they took 3
    # and 2 passes over the levels, Newton on the slope alone 4 and 2, the
    # secant 5 and 4.
    calls = count_calls(maxent, "_all_weights")
    solve_alpha(levels, beta=0.1, ep=EP)
    assert len(calls) <= passes


def test_solve_alpha_pass_census():
    # 200 level sets as maxent_fit draws them: the four triples in turn,
    # 16..128 sorted U(0, 1) levels, beta = 0.1.  From the spread-corrected
    # start 3 of them take a third pass; from the uniform start alone, 56.
    triples = ((0.9, 0.8, 0.7), (0.95, 0.85, 0.75), (0.7, 0.8, 0.9), (0.85, 0.9, 0.6))
    rng = random.Random(1)
    passes = []
    for i in range(200):
        levels = tuple(sorted(rng.random() for _ in range(rng.randint(16, 128))))
        misses = maxent._all_weights.cache_info().misses
        solve_alpha(levels, 0.1, EntropyParams(*triples[i % len(triples)]))
        passes.append(maxent._all_weights.cache_info().misses - misses)
    assert max(passes) <= 3
    assert passes.count(3) <= 0.1 * len(passes)


@pytest.mark.parametrize("slope, brace, deltas", [
    (1.0, 0.0, (-0.1, 0.1)),                # no weight at the start
    (1.0, -0.5, (-0.1, 0.1)),
    (0.0, 0.5, (-0.1, 0.1)),                # a seam
    (math.inf, 0.5, (-0.1, 0.1)),
    (math.nan, 0.5, (-0.1, 0.1)),
    (1.0, 0.5, (-1e200, 1e200)),            # the sum of squares overflows
    (1.0, 0.5, (-math.inf, math.inf)),
    (1.0, 0.5, (math.nan, 0.0)),
])
def test_spread_step_is_zero_where_a_term_is_unusable(slope, brace, deltas):
    params = EP.induced_params()
    assert maxent._spread_step(params, EP.q - 1.0, 1.0, 0.5, slope, brace, deltas) == 0.0


def test_spread_step_is_zero_where_the_slope_of_the_weight_underflows():
    # w' = w*a/(y*B*f'(y))/(q-1) underflows to 0 with a = 1e-300 and
    # f'(y) = 1e300, where w''/w' would divide by zero.
    params = Params(1e-300, 1.0, 1.0)
    assert maxent._spread_step(params, -0.1, 1.0, 0.5, 1e300, 1.0, (-0.1, 0.1)) == 0.0


def test_solve_alpha_refuses_at_adjacent_doubles(count_calls):
    # No double meets tol here: the excess steps from -3.04e-14 to
    # +2.53e-14 between 0.4833915472854921 and 0.48339154728549216.  The
    # refusal names a final sign bracket a few ulps wide around that step,
    # and the closest alpha, here an earlier iterate outside that bracket;
    # unguarded Newton hops about for all 101 passes.
    calls = count_calls(maxent, "_all_weights")
    bracket = r"sign bracket \[(\S+), (\S+)\]"
    closest = r"at alpha=(\S+), an earlier iterate outside it\)$"
    with pytest.raises(ConvergenceError, match=bracket) as exc:
        solve_alpha([0.4, 0.35], 0.1, EntropyParams(0.998, 0.834, 0.783))
    lo, hi = map(float, re.search(bracket, str(exc.value)).groups())
    assert lo <= 0.4833915472854921 < 0.48339154728549216 <= hi
    assert hi - lo <= 8 * math.ulp(lo)
    alpha = float(re.search(closest, str(exc.value)).group(1))
    assert not lo <= alpha <= hi
    assert len(calls) <= 20


@pytest.mark.parametrize("levels, beta, ep, branch", [
    # On branch 1 Z stays below 0.17 on the whole admissible interval of
    # alpha; the solve ends against its lower end.
    ([0.0, 1.0], 0.1, EP, 1),
    # The uniform start lies past the brace's zero, where the weights
    # overflow, and Z stays above 1 on the whole interval.
    ([0.0, 0.5, 1.0, 2.0], 3.0, EntropyParams(0.99, 0.8, 0.7), 0),
])
def test_solve_alpha_refuses_when_no_alpha_normalises(levels, beta, ep, branch):
    with pytest.raises(DomainError, match="no alpha in .* normalises the weights"):
        solve_alpha(levels, beta, ep, branch)


def test_solve_alpha_refuses_an_empty_interval_without_a_pass(count_calls):
    # Branch 0's x-domain is bounded, narrower than these levels' spread.
    calls = count_calls(maxent, "_all_weights")
    with pytest.raises(DomainError, match="levels span more than the branch admits"):
        solve_alpha((0.0, 50.0), 0.5, EP, 0)
    assert calls == []


def test_distribution_after_solve_alpha_reuses_its_last_pass(count_calls):
    # solve_alpha's last pass is at the alpha it returns, so the
    # distribution there comes from the pass memo without evaluating f, and
    # equals a fresh pass to the bit.
    calls = count_calls(core, "_forward_and_slope")
    alpha = solve_alpha(LEVELS_128, beta=0.1, ep=EP)
    assert calls
    calls.clear()
    spec = EnsembleSpec(levels=LEVELS_128, alpha=alpha, beta=0.1, ep=EP)
    dist = distribution(spec)
    assert calls == []
    maxent._all_weights.cache_clear()
    assert repr(distribution(spec)) == repr(dist)
    assert len(calls) >= len(LEVELS_128)


def test_solve_alpha_takes_each_slope_from_its_inversion(count_calls):
    # The slope of Z needs f'(y_i) at every level's root; the inversion's
    # solver computed it there, so no pass evaluates f' again.
    calls = count_calls(core, "forward_slope")
    alpha = solve_alpha(LEVELS_128, 0.1, EP)
    assert calls == []
    spec = EnsembleSpec(levels=LEVELS_128, alpha=alpha, beta=0.1, ep=EP)
    assert abs(distribution(spec).partition - 1.0) <= 1e-14


def test_solve_alpha_takes_each_log_once_per_level_and_pass(count_calls, monkeypatch):
    # A pass takes ln(b*y_i) once per level, in the evaluation of f at the
    # level's root, which hands it out with f and f': the inverter returns
    # it, and the weight's brace, the slope and curvature of Z and the next
    # level's series start all reuse it.  So a 2-pass solve over 128 levels
    # takes no ln(b*y_i) outside f's evaluations, where the inverter took
    # its own at each root, 256.  A ln(b*y) is either math.log(b*y) inline
    # or core's rule _log_by, which maxent does not import.
    assert not hasattr(maxent, "_log_by")
    log_by = [count_calls(core, "_log_by")]
    memo = maxent._all_weights
    passes = count_calls(maxent, "_all_weights")
    solver_f = core._forward_and_slope.__code__
    in_f, outside_f = [], []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def log(v):
            (in_f if sys._getframe(1).f_code is solver_f else outside_f).append(v)
            return math.log(v)

    monkeypatch.setattr(core, "math", CountingMath())
    monkeypatch.setattr(maxent, "math", CountingMath())
    solve_alpha(LEVELS_128, 0.1, EP)
    assert len(passes) == 2
    b = EP.induced_params().b
    products = {b * y for spec, branch in passes for y in memo(spec, branch)[1]}
    assert len(products) == 256
    assert products <= set(in_f)
    taken = [v for v in outside_f + [p.b * y for calls in log_by for p, y, _ in calls]
             if v in products]  # the catalog's seam search takes other logs
    assert taken == []


def test_a_pass_inverts_its_levels_in_one_call(monkeypatch):
    # Each _all_weights miss makes one warm inverter and calls it once, with
    # every level's argument, walked in ascending order; a memo hit makes
    # none.
    inverters, batches = [], []
    make = maxent._inverter

    def counted(*args):
        invert = make(*args)
        inverters.append(args)

        def recorded(xs, order=None):
            batches.append([xs[i] for i in order])
            return invert(xs, order)
        return recorded

    maxent._all_weights.cache_clear()
    monkeypatch.setattr(maxent, "_inverter", counted)
    alpha = solve_alpha(LEVELS_128, 0.1, EP)
    distribution(EnsembleSpec(levels=LEVELS_128, alpha=alpha, beta=0.1, ep=EP))
    misses = maxent._all_weights.cache_info().misses
    assert misses >= 2
    assert len(inverters) == len(batches) == misses
    assert all(len(batch) == 128 and batch == sorted(batch) for batch in batches)


def test_curvature_of_z_is_the_slope_of_its_slope():
    # Z'' from one pass matches the central difference of the exact Z' at
    # alpha +- 1e-4 (within 2.1e-10 relative here), at the normalising alpha
    # on 128 levels and on either side of it.
    alpha = solve_alpha(LEVELS_128, 0.1, EP)
    params, branch = EP.induced_params(), suggest_branch(EP, len(LEVELS_128))
    ratio = (1.0 - EP.r) / (1.0 - EP.q_prime)

    def slopes(a):
        spec = EnsembleSpec(levels=LEVELS_128, alpha=a, beta=0.1, ep=EP)
        _, ys, ws, fps, braces = maxent._all_weights(spec, branch)
        return maxent._z_slopes(params, EP.q - 1.0, ratio * math.exp(ratio),
                                ys, ws, fps, braces)

    h = 1e-4
    for a in (alpha, alpha - 0.1, alpha + 0.02):
        difference = (slopes(a + h)[0] - slopes(a - h)[0]) / (2.0 * h)
        assert slopes(a)[1] == pytest.approx(difference, rel=1e-8), a


@pytest.mark.parametrize("levels", [LEVELS, LEVELS_128])
def test_spread_step_is_close_to_the_newton_step_at_the_uniform_start(levels):
    # The step models Z(alpha_u) - 1 as w''/2 * sum delta_i**2 and Z' as
    # n*K*w'(x_u); the Newton step (Z - 1)/Z' from the pass at alpha_u
    # differs from it by terms of third order in the spread: by 0.24% on 4
    # levels, 8e-6 on 128.
    n, beta = len(levels), 0.1
    params, branch = EP.induced_params(), suggest_branch(EP, n)
    _, ratio, e_ratio = maxent._scale(EP)
    k = ratio * e_ratio
    y = maxent._uniform_y(EP, n)
    x, slope, log_by = core._forward_and_slope(params, y)
    mean = math.fsum(levels) / n
    alpha_u = maxent._level_sum(EP, x) - beta * mean
    _, ys, ws, slopes, braces = maxent._all_weights(
        EnsembleSpec(levels=levels, alpha=alpha_u, beta=beta, ep=EP), branch)
    z1 = maxent._z_slopes(params, EP.q - 1.0, k, ys, ws, slopes, braces)[0]
    newton = (math.fsum(ws) - 1.0) / z1
    step = maxent._spread_step(params, EP.q - 1.0, k, y, slope, params.a * log_by + 1.0,
                               [beta * k * (eps - mean) for eps in levels])
    assert step == pytest.approx(newton, rel=5e-3)


def test_a_pass_walks_ascending_arguments_whatever_the_order_of_its_levels(monkeypatch):
    # Sorted levels with a positive slope of x_i in eps_i skip the key sort;
    # unsorted ones, or a negative slope, are sorted, and every batch the
    # inverter walks ascends.  Each order gives the same bits.
    batches, make = [], maxent._inverter

    def counted(*args):
        invert = make(*args)

        def recorded(xs, order=None):
            batches.append([xs[i] for i in order])
            return invert(xs, order)
        return recorded

    monkeypatch.setattr(maxent, "_inverter", counted)
    maxent._all_weights.cache_clear()
    perm = (LEVELS[2], LEVELS[0], LEVELS[3], LEVELS[1])
    for beta in (0.1, -0.1):
        probs = distribution(EnsembleSpec(levels=LEVELS, alpha=0.28, beta=beta, ep=EP), 0).probs
        permuted = distribution(EnsembleSpec(levels=perm, alpha=0.28, beta=beta, ep=EP), 0).probs
        assert permuted == (probs[2], probs[0], probs[3], probs[1])
    assert len(batches) == 4
    assert all(batch == sorted(batch) for batch in batches)


def test_induced_params_are_memoised_by_value():
    # Every pass and solve asks for them; an equal triple gets the same record.
    first = EntropyParams(0.9, 0.8, 0.7).induced_params()
    assert EntropyParams(0.9, 0.8, 0.7, k=2.0).induced_params() is first
    assert first == Params((1.0 - 0.9) / (1.0 - 0.8), (1.0 - 0.8) / (1.0 - 0.7), -1.0 / (1.0 - 0.8))


def test_pass_memo_is_keyed_by_value():
    maxent._all_weights.cache_clear()
    spec = EnsembleSpec(levels=LEVELS, alpha=0.0, beta=0.1, ep=EP)
    first = distribution(spec, 1)
    info = maxent._all_weights.cache_info()
    equal = EnsembleSpec(levels=tuple(list(LEVELS)), alpha=0.0, beta=0.1,
                         ep=EntropyParams(0.9, 0.8, 0.7))
    assert repr(distribution(equal, 1)) == repr(first)
    assert probability(equal, 2, 1) == first.probs[2]
    assert maxent._all_weights.cache_info().hits == info.hits + 2
    one_level_off = EnsembleSpec(levels=(0.0, 0.3, 0.6, 0.95), alpha=0.0, beta=0.1, ep=EP)
    assert distribution(one_level_off, 1).probs != first.probs
    assert maxent._all_weights.cache_info().misses == info.misses + 1


# ------------------------------------------------------------- continuous

def test_continuous_symmetry():
    # grid built as exact negation pairs so p(x) == p(-x) holds bitwise
    half = [3.7 * i / 30 for i in range(31)]
    grid = [-t for t in reversed(half[1:])] + half
    dens = continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, grid)
    for i in range(len(grid)):
        assert dens[i] == dens[len(grid) - 1 - i]


def test_continuous_normalisation_against_oracle_quadrature():
    grid = README_GRID
    dens = continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, grid)
    # support is cut where the weight's brace crosses zero, just past 3.7415;
    # the remaining sliver carries ~(cut - L)^10 mass, far below tolerance
    total = 2.0 * _simpson(
        lambda t: continuous_weight(EP_CONT, ALPHA_CONT, BETA_CONT, 1, t),
        0.0, 3.7415, 1e-14,
    )
    mid = 50
    w_mid = continuous_weight(EP_CONT, ALPHA_CONT, BETA_CONT, 1, grid[mid])
    assert dens[mid] == pytest.approx(w_mid / total, rel=1e-8)


def test_continuous_pointwise_proportional_to_weight():
    grid = [-3.7, -1.0, 0.0, 0.5, 2.0, 3.7]
    dens = continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, grid)
    w0 = continuous_weight(EP_CONT, ALPHA_CONT, BETA_CONT, 1, 0.0)
    for x, d in zip(grid, dens):
        w = continuous_weight(EP_CONT, ALPHA_CONT, BETA_CONT, 1, x)
        assert d / dens[2] == pytest.approx(w / w0, rel=1e-10)


def _top_level_quadratures(monkeypatch, arguments=()):
    # The (a, b) of each outermost _adaptive_gauss_kronrod call continuous_pdf
    # makes, with the length of `arguments` before and after it.
    calls, depth, inner = [], [0], maxent._adaptive_gauss_kronrod

    def recorded(f, a, b, tol, *rest):
        depth[0] += 1
        before = len(arguments)
        try:
            return inner(f, a, b, tol, *rest)
        finally:
            depth[0] -= 1
            if not depth[0]:
                calls.append((a, b, before, len(arguments)))

    monkeypatch.setattr(maxent, "_adaptive_gauss_kronrod", recorded)
    return calls


def test_continuous_pdf_inversion_count(monkeypatch):
    # 53 distinct grid arguments, the search for L and the inner piece's one
    # G7-K15 panel on [0, x_c], each inverted once by one inverter, in
    # batches of the arguments whose weights the call does not hold yet
    # (68 here); the outer piece, s in [s_c, 1], is one more top-level call
    # that inverts nothing, in any of the panels it splits into.  Inverting
    # every node of the 9 panels over [0, L] took 187; adaptive Simpson 835.
    arguments, inverters = [], []
    make = maxent._inverter

    def counted(*args):
        invert = make(*args)
        inverters.append(args)

        def recorded(xs, order=None):
            arguments.extend(xs)
            return invert(xs, order)
        return recorded

    monkeypatch.setattr(maxent, "_inverter", counted)
    quadratures = _top_level_quadratures(monkeypatch, arguments)
    continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, README_GRID)
    assert len(inverters) == 1
    assert len(set(arguments)) == len(arguments) <= 80
    (inner_a, _, _, _), (outer_a, outer_b, before, after) = quadratures
    assert inner_a == 0.0 and 0.0 < outer_a < outer_b == 1.0
    assert before == after


def test_continuous_pdf_cost(monkeypatch):
    # The README call's evaluations of f through the core (the grid's 53
    # warm inversions take 104, the search for L and the junction 3, the
    # inner piece's 15 nodes 32) and the panels it evaluates: one on [0, x_c]
    # and four in the outer piece, its first over all of s in [s_c, 1] and
    # then the three equal panels that first panel's |K15 - G7| asks for,
    # 60 nodes evaluating f inline.  Integrating t in [1/4, 1] by halving
    # from one panel took 274 evaluations through the core and 9 outer
    # panels, 4 of them discarded.
    f_evals, panels = [0], []
    forward_and_slope, panel = core._forward_and_slope, maxent._gauss_kronrod_panel

    def counted(p, y):
        f_evals[0] += 1
        return forward_and_slope(p, y)

    def recorded(f, a, b):
        panels.append(f)
        return panel(f, a, b)

    monkeypatch.setattr(core, "_forward_and_slope", counted)
    monkeypatch.setattr(maxent, "_forward_and_slope", counted)
    monkeypatch.setattr(maxent, "_gauss_kronrod_panel", recorded)
    core._catalog.cache_clear()
    try:
        continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, README_GRID)
    finally:
        core._catalog.cache_clear()
    inner = panels[0]
    assert f_evals[0] <= 140
    assert panels.count(inner) == 1 and len(panels) - 1 <= 4


def test_continuous_normaliser_against_mpmath_reference():
    # Z = w(0)/p(0) of the README call against 25 digits (mpmath.quad over
    # the whole support, mpmath.findroot at each node).  Inverting every
    # node of the range in x was off by 1.03e-13.
    dens = continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, README_GRID)
    z = continuous_weight(EP_CONT, ALPHA_CONT, BETA_CONT, 1, 0.0) / dens[50]
    z_ref, _ = continuous_reference(EP_CONT, ALPHA_CONT, BETA_CONT, 1, [])
    assert abs(z - z_ref) <= 5e-14 * z_ref


def _anchor_case():
    # (ep, alpha, beta, grid) of the wrong-sign anchor residual: three points
    # at 0.99684 of the support cut.
    ep = EntropyParams(1.1, 1.2, 1.3037614942621056)
    alpha = ALPHA_CONT + 0.02176155583102235
    p = ep.induced_params()
    ratio = (1.0 - ep.r) / (1.0 - ep.q_prime)
    x_star = forward(p, math.exp(-1.0 / p.a) / p.b)
    cut = math.sqrt((x_star / (ratio * math.exp(ratio)) + 1.0 / (1.0 - ep.r) - alpha)
                    / BETA_CONT)
    edge = 0.99684 * cut
    return ep, alpha, BETA_CONT, [-edge, 0.0, edge]


@pytest.mark.parametrize("case, bounds", [
    # The grid's weights carry their inversions' floor (1e-13*max(1, |x|)
    # in f, amplified by 1/(q-1)): the 1.5e-9 at x = 0.53 is that floor.
    ((EntropyParams(1.1232495477723115, 1.0041005441422142, 1.0018068989733162),
      -0.0038361655021007406, -28.04171420434191, [0.0, 0.5313968432239646]),
     (3.7e-12, 1.6e-9)),
    (_anchor_case(), (1.7e-12, 2.3e-15, 1.7e-12)),
    ((EntropyParams(1.0894990535292828, 1.1862963984335415, 1.2880842841619373),
      -2.114759359730773, -0.026974070431778942, [0.0, 1.0406155751111315, 4.077054615182613]),
     (2.6e-14, 4.5e-14, 6.9e-14)),
    ((EntropyParams(1.0796874450527203, 1.2076930940559987, 1.3036229672478286),
      -2.1366518286965803, -0.017833141738777165, [0.0, 2.4871408323353537, 3.9946590461667038]),
     (2.8e-15, 7.8e-15, 2.5e-14)),
], ids=["found66", "anchor", "near_readme_1", "near_readme_2"])
def test_continuous_pdf_against_mpmath_reference_off_the_readme(case, bounds):
    # Densities against 25 digits (mpmath.quad over the whole support,
    # mpmath.findroot at each node), each within its error when the outer
    # piece was integrated in t, y = y0 + (yL - y0)*t**2, halving from one
    # panel: 3.67e-12, 1.52e-9; 1.69e-12, 2.21e-15, 1.69e-12; 2.43e-14,
    # 4.37e-14, 6.73e-14; 2.71e-15, 7.73e-15, 2.45e-14.
    ep, alpha, beta, grid = case
    dens = continuous_pdf(ep, alpha, beta, 1, grid)
    _, reference = continuous_reference(ep, alpha, beta, 1, grid)
    errors = [float(abs(d - r) / r) for d, r in zip(dens, reference)]
    assert all(e <= bound for e, bound in zip(errors, bounds)), errors


def test_continuous_pdf_where_the_anchor_residual_has_the_wrong_sign():
    # The root at x = 0 misses its argument by one ulp with the sign that
    # makes f(y) - A negative just past y0: integrating t in [0, 1] from y0
    # took the square root of it.  Three points at 0.99684 of the support cut.
    ep, alpha, beta, grid = _anchor_case()
    dens = continuous_pdf(ep, alpha, beta, 1, grid)
    assert all(math.isfinite(v) and v >= 0.0 for v in dens)
    assert dens[0] == dens[2] and dens[1] > 0.0


def test_continuous_pdf_junction_fallback_and_equal_roots(monkeypatch):
    # A grid whose argument at the edge rounds to the one at 0 has one root,
    # so the weight does not fall: the tail check refuses, with a type.
    with pytest.raises(IntegrationError, match="grid too narrow"):
        continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, [-1e-170, 0.0, 1e-170])
    # With the junction at t = 1.1, past yL, x_c is beyond L: the inner
    # piece alone covers [0, L] and the outer one is empty.
    two_pieces = continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, README_GRID)
    monkeypatch.setattr(maxent, "_T_C", 1.1)
    quadratures = _top_level_quadratures(monkeypatch)
    one_piece = continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, README_GRID)
    assert [(a, b) for a, b, _, _ in quadratures] == [(0.0, 3.7)]
    assert one_piece == pytest.approx(two_pieces, rel=1e-12)


def test_continuous_pdf_with_beta_zero_refuses_before_any_quadrature(monkeypatch):
    # beta = 0: the density is flat, so the tail checks refuse (at the grid's
    # edge, or while growing L from a grid at 0) and nothing is integrated.
    quadratures = _top_level_quadratures(monkeypatch)
    with pytest.raises(IntegrationError, match="grid too narrow"):
        continuous_pdf(EP_CONT, ALPHA_CONT, 0.0, 1, README_GRID)
    with pytest.raises(IntegrationError, match="while growing the range"):
        continuous_pdf(EP_CONT, ALPHA_CONT, 0.0, 1, [0.0])
    assert quadratures == []


def test_gauss_kronrod_panel_is_exact_to_degree_22():
    for k in range(23):
        k15, _ = _gauss_kronrod_panel(lambda xs: [x ** k for x in xs], 0.0, 1.0)
        assert abs(k15 * (k + 1) - 1.0) <= 8.0 * sys.float_info.epsilon, k
    # The 15 nodes come as one batch: the midpoint, then the symmetric pairs
    # from the ends inward (the split of continuous_pdf's inner piece, whose
    # nodes are warm inversions, depends on the order).
    nodes = []
    _gauss_kronrod_panel(lambda xs: nodes.extend(xs) or [0.0] * len(xs), 1.0, 3.0)
    assert len(nodes) == 15 and nodes[0] == 2.0
    assert all(lo < 2.0 < hi for lo, hi in zip(nodes[1::2], nodes[2::2]))
    assert nodes[1::2] == sorted(nodes[1::2])


def test_adaptive_gauss_kronrod_matches_oracle_simpson():
    # [0, 3.7415] ends just inside the support cut; Simpson at 1e-18, about
    # 1e-14 of the integral, is within 1e-15 of a 20-digit mpmath.quad.
    def g(t):
        return continuous_weight(EP_CONT, ALPHA_CONT, BETA_CONT, 1, t)

    L = 3.7415
    gk = _adaptive_gauss_kronrod(lambda ts: [g(t) for t in ts], 0.0, L, 1e-13 * g(0.0) * L)
    assert gk == pytest.approx(_simpson(g, 0.0, L, 1e-18), rel=1e-13)


def test_adaptive_gauss_kronrod_refuses_an_unresolvable_step():
    # The jump at 0 lies a third of the way into every panel holding it, so
    # no panel is accepted before the depth limit.
    evaluations = []

    def step(xs):
        evaluations.extend(xs)
        return [0.0 if x < 0.0 else 1.0 for x in xs]

    with pytest.raises(IntegrationError, match="recursion exhausted"):
        _adaptive_gauss_kronrod(step, -1.0, 2.0, 1e-13)
    assert len(evaluations) <= 61 * 2 * 15


def test_adaptive_gauss_kronrod_caps_its_split():
    # An integrand of NaNs asks for no finite number of panels: the whole
    # range is cut into _GK_DEPTH panels, and the first of them runs out of
    # depth.
    evaluations = []

    def f(xs):
        evaluations.extend(xs)
        return [math.nan] * len(xs)

    with pytest.raises(IntegrationError, match="recursion exhausted"):
        _adaptive_gauss_kronrod(f, 0.0, 1.0, 1e-13)
    assert len(evaluations) == (1 + 60) * 15


def test_adaptive_gauss_kronrod_cuts_the_whole_range_then_halves(monkeypatch):
    # x**2.5 on [0, 1]: the whole-range panel's |K15 - G7| asks for n = 3
    # equal panels, each held to tol/3.  The first, whose integrand is least
    # smooth at 0, misses and is halved, as is each left half below it
    # until one passes; every other panel passes.  (Halving the whole range
    # too takes 15 panels to these 16: the cut pays where the error is
    # spread over the range, as in continuous_pdf's outer piece.)
    panels, panel = [], maxent._gauss_kronrod_panel

    def recorded(f, a, b):
        k15, g7 = panel(f, a, b)
        panels.append((a, b, abs(k15 - g7)))
        return k15, g7

    monkeypatch.setattr(maxent, "_gauss_kronrod_panel", recorded)
    tol = 1e-12
    total = _adaptive_gauss_kronrod(lambda xs: [x ** 2.5 for x in xs], 0.0, 1.0, tol)
    assert total == pytest.approx(1.0 / 3.5, abs=tol)
    (a, b, err), *below = panels
    n = math.ceil((err / tol) ** (1.0 / 14.0))
    w = 1.0 / n
    depth = next(j for j, (_, _, e) in enumerate(below) if e <= tol / n / 2**j)
    assert (a, b) == (0.0, 1.0) and n == 3 and depth >= 2
    assert [(a, b) for a, b, _ in below] == [
        *[(0.0, w / 2**j) for j in range(depth + 1)],
        *[(w / 2**j, w / 2**(j - 1)) for j in range(depth, 0, -1)],
        *[(k * w, 1.0 if k == n - 1 else (k + 1) * w) for k in range(1, n)],
    ]


def test_adaptive_gauss_kronrod_evaluates_no_panel_twice(monkeypatch):
    # With err/tol just above 1, (err/tol)**(1/14) rounds to 1: one equal
    # panel would be the whole range again.  The cut is at least in two.
    panels, panel = [], maxent._gauss_kronrod_panel

    def recorded(f, a, b):
        panels.append((a, b))
        return panel(f, a, b)

    def f(xs):
        return [x ** 2.5 for x in xs]

    k15, g7 = panel(f, 0.0, 1.0)
    tol = abs(k15 - g7) * (1.0 - 2.0**-52)
    assert (abs(k15 - g7) / tol) ** (1.0 / 14.0) == 1.0
    monkeypatch.setattr(maxent, "_gauss_kronrod_panel", recorded)
    _adaptive_gauss_kronrod(f, 0.0, 1.0, tol)
    assert panels == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]


def test_continuous_grid_too_narrow():
    grid = [-1.0 + 2.0 * i / 20 for i in range(21)]
    with pytest.raises(IntegrationError):
        continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, grid)


def test_continuous_multipliers_must_be_finite():
    # a non-finite multiplier was reported as `x must not be NaN`
    for bad in (math.nan, math.inf, -math.inf):
        for alpha, beta, name in ((bad, BETA_CONT, "alpha"), (ALPHA_CONT, bad, "beta")):
            with pytest.raises(DomainError, match=rf"^{name} must be finite, got {bad!r}$"):
                continuous_pdf(EP_CONT, alpha, beta, 1, README_GRID)
            with pytest.raises(DomainError, match=rf"^{name} must be finite, got {bad!r}$"):
                continuous_weight(EP_CONT, alpha, beta, 1, 0.5)


def test_solve_alpha_checks_its_levels_once(count_calls):
    # Each pass built a validated EnsembleSpec, which checked every level again.
    checks, passes = count_calls(maxent, "_finite"), count_calls(maxent, "_all_weights")
    solve_alpha(LEVELS_128, 0.1, EP)
    assert len(passes) >= 2
    assert [args for args in checks if args[0] == "levels"] == [("levels", LEVELS_128)]


def test_continuous_grid_points_must_be_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="x_grid"):
            continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, [*README_GRID, bad])


def test_continuous_tail_unreachable_for_slow_decay():
    # q < 1: the weight decays only poly-logarithmically in the level, so
    # no finite window can push the tail below the criterion
    grid = [-2.0 + 4.0 * i / 40 for i in range(41)]
    with pytest.raises(IntegrationError):
        continuous_pdf(EP, 0.0, 0.5, 1, grid)


def test_ensemble_spec_validation():
    with pytest.raises(DomainError):
        EnsembleSpec(levels=(), alpha=0.0, beta=0.0, ep=EP)
    with pytest.raises(DomainError):
        EnsembleSpec(levels=(math.inf,), alpha=0.0, beta=0.0, ep=EP)


HUGE = 10**400  # an int past the double range: isfinite and float() raise OverflowError
P = Params(1.0, 1.0, 1.0)


@pytest.mark.parametrize("call, name", [
    (lambda: EntropyParams(HUGE, 0.8, 0.7), "q"),
    (lambda: EntropyParams(0.9, HUGE, 0.7), "q_prime"),
    (lambda: EntropyParams(0.9, 0.8, HUGE), "r"),
    (lambda: EntropyParams(0.9, 0.8, 0.7, k=HUGE), "k"),
    (lambda: EnsembleSpec(levels=(0.0, HUGE), alpha=0.0, beta=0.1, ep=EP), "levels"),
    (lambda: EnsembleSpec(levels=LEVELS, alpha=HUGE, beta=0.1, ep=EP), "alpha"),
    (lambda: EnsembleSpec(levels=LEVELS, alpha=0.0, beta=-HUGE, ep=EP), "beta"),
    (lambda: solve_alpha((0.0, HUGE), 0.1, EP), "levels"),
    (lambda: solve_alpha(LEVELS, HUGE, EP), "beta"),
    (lambda: continuous_pdf(EP_CONT, ALPHA_CONT, BETA_CONT, 1, [0.0, HUGE]), "x_grid points"),
    (lambda: continuous_pdf(EP_CONT, HUGE, BETA_CONT, 1, README_GRID), "alpha"),
    (lambda: continuous_pdf(EP_CONT, ALPHA_CONT, HUGE, 1, README_GRID), "beta"),
    (lambda: continuous_weight(EP_CONT, ALPHA_CONT, BETA_CONT, 1, HUGE), "x"),
    (lambda: stationarity_residuals(EnsembleSpec(levels=(0.0, 1.0), alpha=0.0, beta=0.1, ep=EP),
                                    [HUGE, 0.5]), "probs"),
    (lambda: exp_q(0.9, HUGE), "x"),
    (lambda: exp_q(HUGE, 1.0), "q"),
    (lambda: entropy_qqr(EP, [0.5, HUGE]), "probabilities"),
    (lambda: ln_q(HUGE, 2.0), "q"),
    (lambda: ln_qq(0.9, HUGE, 2.0), "q_prime"),
    (lambda: Params(HUGE, 1, 1), "coefficient a"),
    (lambda: forward(P, HUGE), "y"),
    (lambda: derivative(P, HUGE), "y"),
    (lambda: antiderivative(P, HUGE), "y"),
    (lambda: evaluate(P, 1, HUGE), "x"),
    (lambda: evaluate(P, 1, 2084.7878, tol=HUGE), "tol"),
    (lambda: evaluate(P, 1, core.branches(P)[1].seams[0][1], tol=HUGE), "tol"),
    (lambda: asymptotic(P, HUGE), "x"),
    (lambda: lambert_w(HUGE), "x"),
    (lambda: ei(HUGE), "x"),
], ids=["q", "q_prime", "r", "k", "spec_level", "spec_alpha", "spec_beta", "solve_level",
        "solve_beta", "pdf_grid", "pdf_alpha", "pdf_beta", "weight_x", "residuals_p",
        "exp_q_x", "exp_q_q", "entropy_p", "ln_q_q", "ln_qq_q_prime", "params_a", "forward_y",
        "derivative_y", "antiderivative_y", "evaluate_x", "evaluate_tol",
        "evaluate_tol_at_seam", "asymptotic_x", "lambert_w_x", "ei_x"])
def test_a_value_past_the_double_range_is_refused_by_name(call, name):
    # Each raised a raw OverflowError: `int too large to convert to float`,
    # but for x at a seam, where evaluate answered the seam before it read tol.
    with pytest.raises(DomainError, match=rf"^{name} must be finite, got a value past the "
                                          rf"double range$"):
        call()
