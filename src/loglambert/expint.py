"""Exponential integral Ei(x) (Cauchy principal value), in plain float64.

Every call costs one fixed-degree polynomial or rational in a local
variable v and one exp, log or log1p: no loop runs longer for some x than
for others.  The design is Cody & Thacher's, "Rational Chebyshev
approximations for the exponential integral Ei(x)" (Math. Comp. 23, 1969).
With t = -x, x0 Ei's positive root and E(x) = Ei(x) - gamma - ln|x| =
sum x^n/(n*n!) (entire), the pieces are:

* x < -0.5625:  Ei = -e^-t/t * h, h = t*e^t*E1(t), a rational in
  v = t - (left end) on [0.5625, 1], [1, 6] and [6, 40], and in v = 1/t
  past 40;
* -0.5625 <= x < 0.1875:  Ei = gamma + ln|x| + x*P(x), P = E(x)/x a
  polynomial; gamma + ln t and E(-t) share their sign up to t = e^-gamma;
* 0.1875 <= x <= 6:  Ei = ln(x/x0) + (x - x0)*R(x), R = (E(x) -
  E(x0))/(x - x0) a polynomial on [0.1875, 3] and [3, 6].  Both terms have
  Ei's sign, so nothing cancels at the root; ln(x/x0) = log1p(u/x0), with
  u = x - x0 from x0 = _ROOT_HI + _ROOT_LO, and u/x0 carried to twice the
  double precision up to x = 0.75;
* x > 6:  Ei = e^x/x * g, g = x*e^-x*Ei(x), a rational in v = x - (left
  end) on [6, 20] and [20, 40], and in v = 1/x past 40; past 709, e^x is
  e^(x/2) twice, so that the product overflows only where Ei does.

Each rational is Y + P(v)/Q(v), with Y a short constant near the piece's
values, so that P/Q's rounding is scaled down by its share of the value.
The coefficients are minimax fits to 50-digit mpmath values; see
tests/_ei_fit.py, which makes and prints them.

Accuracy contract: within 4 ulps of Ei wherever Ei is a normal double, and
within 2 ulps for |x - x0| < 0.1 (tests/test_expint.py checks both against
40-digit mpmath; the sweep there reads at most about 2.6 and 1.5).
"""

from __future__ import annotations

import math

from .errors import DomainError, RangeError, _real

__all__ = ["ei", "EULER_GAMMA"]

#: Euler-Mascheroni constant to 20 digits.
EULER_GAMMA = 0.57721566490153286061

# Ei's positive root as an unevaluated sum hi + lo; a single double puts
# an absolute error of ~1e-17 into u = x - x0, which is a large relative
# error in Ei(x) ~ Ei'(x0) * u next to the root.
_ROOT_HI = 0.3725074107813666
_ROOT_LO = 1.3140183414386028e-17
# 1/x0 as hi + lo, hi's halves of 26 bits each, and _ROOT_LO/x0.
_INV_ROOT, _INV_ROOT_LO = 2.6845103508207075, 1.0538757532845968e-16
_INV_ROOT_1, _INV_ROOT_2 = 2.684510350227356, 5.933515900835573e-10
_ROOT_LO_BY_ROOT = 3.527495838760188e-17


def ei(x: float) -> float:
    """Principal-value exponential integral Ei(x), within 4 ulps.

    One piece per call, each a fixed-degree fit and one exp, log or log1p
    (the module docstring lists them): -e^-t/t * h(t) for x < -0.5625,
    gamma + ln|x| + x*P(x) up to 0.1875, ln(x/x0) + (x - x0)*R(x) up to 6,
    and e^x/x * g(x) past 6.  The result is within 4 ulps of Ei wherever
    Ei is a normal double, and within 2 ulps for |x - x0| < 0.1 about the
    root x0.  Raises DomainError at the logarithmic singularity x = 0 and
    at NaN, and RangeError (an OverflowError) once the result exceeds the
    double range (x > ~716.3555).  Ei(x) is -0.0 where e^x underflows
    (x < ~-745.13).
    """
    if type(x) is not float:
        x = _real("x", x)
    if x < -0.5625:  # -e^-t/t * h(t), t = -x
        t = -x
        if t < 6.0:
            if t < 1.0:
                v = t - 0.5625
                h = 0.44 + (0.04420958925032279 + v*(0.5765705283043336 + v*(1.99272720225709
                    + v*(2.934472313998059 + v*(2.034899061351098 + v*(0.6322532422622141
                    + v*(0.06785480834567245))))))) / (1.0 + v*(5.237413317432957
                    + v*(10.668435388868037 + v*(10.692379745188243 + v*(5.485518566940813
                    + v*(1.34504845855397 + v*(0.1211897454541317)))))))
            else:
                v = t - 1.0
                h = 0.6 + (-0.003652637676805887 + v*(0.1803845100756755 + v*(0.5271507119269422
                    + v*(0.5828224335035029 + v*(0.3145233357821665 + v*(0.08682812703914264
                    + v*(0.01154032314245806 + v*(0.000573716964663971
                    + v*(1.4668571736867484e-11))))))))) / (1.0 + v*(3.3702260284059244
                    + v*(4.59807667334124 + v*(3.270605027414171 + v*(1.3009674273233816
                    + v*(0.2874057414532149 + v*(0.03243647725607448
                    + v*(0.0014342945977782091))))))))
        elif t < 40.0:
            v = t - 6.0
            h = 0.87 + (0.0016057754033213744 + v*(0.01793489269591777 + v*(0.009177644887942758
                + v*(0.001862812712662784 + v*(0.00018443756439715035 + v*(8.866813473394019e-06
                + v*(1.6517683269744552e-07))))))) / (1.0 + v*(0.6610439146808896
                + v*(0.1783560949799856 + v*(0.0251018318222394 + v*(0.0019404066990769925
                + v*(7.798003456428745e-05 + v*(1.2705910207783508e-06)))))))
        else:
            v = 1.0 / t
            h = 1.0 + (-5.596373909191892e-19 + v*(-0.999999999999995 + v*(-19.725999614878408
                + v*(-109.84998013790808 + v*(-166.34183651298474
                + v*(-12.925359785591025)))))) / (1.0 + v*(21.725999614870968
                + v*(147.30197937191448 + v*(354.5897963150405 + v*(239.71728229091815)))))
        return -math.exp(x) / t * h
    if x < 0.1875:  # gamma + ln|x| + x*P(x), ln|x| added last
        if x == 0.0:
            raise DomainError("Ei has a logarithmic singularity at 0")
        p = 1.0 + x*(0.2500000000000001 + x*(0.05555555555555646 + x*(0.010416666666650677
            + x*(0.001666666666545585 + x*(0.00023148148201789567 + x*(2.8344676684784607e-05
            + x*(3.100202403634191e-06 + x*(3.061250185325206e-07 + x*(2.731636486917661e-08
            + x*(1.9481145653261124e-09))))))))))
        return math.log(abs(x)) + (EULER_GAMMA + x * p)
    if x <= 6.0:  # ln(x/x0) + (x - x0)*R(x)
        uh = x - _ROOT_HI  # exact up to 2*x0; u = x - x0
        if x < 3.0:
            v = x - 0.1875
            r = 1.154624759455393 + v*(0.29582650579066094 + v*(0.06629433649393524
                + v*(0.012478193817349766 + v*(0.0020006762743201706 + v*(0.0002782205049128814
                + v*(3.4095554677760237e-05 + v*(3.7313149788662814e-06 + v*(3.686375547252659e-07
                + v*(3.32194280382173e-08 + v*(2.7244725860665663e-09 + v*(2.187320016970181e-10
                + v*(1.1781332944111262e-11 + v*(1.7181978277776412e-12 + v*(-4.90700763864602e-14
                + v*(1.2675862063963451e-14)))))))))))))))
        else:
            v = x - 3.0
            r = 2.986772243435986 + v*(1.2845225183414317 + v*(0.38164117612640813
                + v*(0.08598963319560944 + v*(0.01563528002104986 + v*(0.002387150629195305
                + v*(0.00031447939496883856 + v*(3.6461563980525396e-05 + v*(3.777008505934893e-06
                + v*(3.536221522589575e-07 + v*(3.028756565491571e-08 + v*(2.3459240568506608e-09
                + v*(1.8568028958193767e-10 + v*(8.024834328826956e-12 + v*(1.5034121106134898e-12
                + v*(-5.5991995074229536e-14 + v*(9.70225382001281e-15))))))))))))))))
        u = uh - _ROOT_LO
        if x > 0.75:  # ln(x/x0) > 0.69: u/x0's rounding costs at most half an ulp
            return math.log1p(u * _INV_ROOT) + u * r
        # ln(x/x0) = log1p(w), w = u/x0 = wh + wl to twice the double precision:
        # Dekker's exact product of uh and 1/x0's leading double (whose 26-bit
        # halves are _INV_ROOT_1 and _INV_ROOT_2), then uh*(1/x0's low part)
        # less _ROOT_LO/x0.
        wh = uh * _INV_ROOT
        split = uh * 134217729.0  # 2**27 + 1
        uh1 = split - (split - uh)
        uh2 = uh - uh1
        wl = ((((uh1 * _INV_ROOT_1 - wh) + uh1 * _INV_ROOT_2 + uh2 * _INV_ROOT_1)
               + uh2 * _INV_ROOT_2) + (uh * _INV_ROOT_LO - _ROOT_LO_BY_ROOT))
        return math.log1p(wh) + (wl / (1.0 + wh) + u * r)
    if x <= 40.0:  # e^x/x * g(x)
        if x < 20.0:
            v = x - 6.0
            g = 1.27 + (0.00888386048956159 + v*(-0.06093222348938036 + v*(-0.024616926632566757
                + v*(-0.004310903775458486 + v*(-0.0006834895996040885 + v*(-6.609789142000701e-05
                + v*(-5.6167929691016155e-06 + v*(-3.447805463773313e-07
                + v*(-1.7600906451540443e-08 + v*(-6.06941515837437e-10
                + v*(-1.8184651368194517e-11))))))))))) / (1.0 + v*(0.5407927020276023
                + v*(0.14689183712100237 + v*(0.02596905398999898 + v*(0.003337023196889665
                + v*(0.00032689012986128756 + v*(2.5207658238272185e-05 + v*(1.524609617236061e-06
                + v*(7.327989832697424e-08 + v*(2.499238807224743e-09
                + v*(6.734090958189651e-11)))))))))))
        else:
            v = x - 20.0
            g = 1.06 + (-0.004044094407037408 + v*(-0.004709020689324276
                + v*(-0.0013271416824133689 + v*(-0.0002089094027072946
                + v*(-2.1671540318625955e-05 + v*(-1.5924124844172666e-06
                + v*(-8.301303427261765e-08 + v*(-2.95408998957389e-09
                + v*(-5.53738759420682e-11))))))))) / (1.0 + v*(0.3835000422618491
                + v*(0.07323364165474917 + v*(0.008976036753398005 + v*(0.0007752742237764399
                + v*(4.8563359504015664e-05 + v*(2.1836226068759907e-06 + v*(6.461646292588029e-08
                + v*(9.228979400170478e-10)))))))))
        return math.exp(x) / x * g
    if x <= 716.5:  # e^x/x * g(1/x), e^x as e^(x/2) twice past 709
        v = 1.0 / x
        g = 1.0 + (6.4746515091753095e-18 + v*(0.9999999999999513 + v*(-36.54271738393862
            + v*(418.2981935655118 + v*(-1688.3421801166396 + v*(1805.5059977616413)))))) / (1.0
            + v*(-38.54271738400014 + v*(489.3836283638511 + v*(-2459.85314013897
            + v*(4593.9368082794135 + v*(-2268.9275833615793))))))
        if x <= 709.0:
            return math.exp(x) * v * g
        e = math.exp(0.5 * x)
        value = e * (v * g) * e
        if value < math.inf:
            return value
    elif x != x:
        raise DomainError("Ei is undefined at NaN")
    raise RangeError(f"Ei({x!r}) exceeds the double range")
