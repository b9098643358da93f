"""Shared helpers for sampling branch domains and coefficients in tests."""

import math
import random

from loglambert import Params


def interior_points(bi, n, lo_exp=-8.0, hi_exp=-0.02,
                    unbounded_lo_exp=-6.0, unbounded_hi_exp=10.0):
    """Log-spaced x values strictly inside a branch's x-domain.

    For bounded domains the offsets are 10**u fractions of the span
    measured from the seam-side (closed) endpoint, u in [lo_exp, hi_exp].
    For half-infinite domains the offsets are absolute, 10**u for
    u in [unbounded_lo_exp, unbounded_hi_exp].
    """
    lo, hi = bi.x_domain.lo, bi.x_domain.hi
    xs = []
    if math.isfinite(lo) and math.isfinite(hi):
        anchor, far = (lo, hi) if bi.x_domain.lo_closed else (hi, lo)
        span = far - anchor
        for i in range(n):
            u = lo_exp + (hi_exp - lo_exp) * i / max(n - 1, 1)
            xs.append(anchor + span * 10.0**u)
    else:
        anchor = lo if math.isfinite(lo) else hi
        sgn = 1.0 if math.isfinite(lo) else -1.0
        for i in range(n):
            u = unbounded_lo_exp + (unbounded_hi_exp - unbounded_lo_exp) \
                * i / max(n - 1, 1)
            xs.append(anchor + sgn * 10.0**u)
    return [x for x in xs if bi.x_domain.contains(x)]


def x_in_domain(bi, u, toward_open):
    """A point of a branch's x-domain as scan_cold draws one, u in [0, 1].

    10**(-12u) of the span from its seam end (from its open or other end
    when toward_open) when the domain is bounded, and max(1, |seam x|) *
    10**(52u - 12) past the seam, up to ~1e40, when it is half-infinite.
    """
    dom = bi.x_domain
    if math.isfinite(dom.lo) and math.isfinite(dom.hi):
        anchor, far = (dom.lo, dom.hi) if dom.lo_closed != toward_open else (dom.hi, dom.lo)
        return anchor + (far - anchor) * 10.0 ** (-12.0 * u)
    anchor, sign = (dom.lo, 1.0) if math.isfinite(dom.lo) else (dom.hi, -1.0)
    return anchor + sign * max(1.0, abs(anchor)) * 10.0 ** (52.0 * u - 12.0)


def scan_cold_sample(n, seed=18):
    """n coefficient triples drawn over the benchmark's scan_cold ranges.

    The four sign cases of (a, b) in turn, |a| log-uniform on [1e-3, 1e2]
    and |b| on [1e-3, 1e3]; c uniform on (-3, 3) for b > 0 and on
    (-30, 30) for b < 0, where the seam count alone decides between a
    catalog and a typed refusal.
    """
    rng = random.Random(seed)
    sample = []
    for k in range(n):
        sa, sb = ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))[k % 4]
        a, b = sa * 10.0 ** rng.uniform(-3.0, 2.0), sb * 10.0 ** rng.uniform(-3.0, 3.0)
        c = (3.0 if b > 0.0 else 30.0) * (2.0 * rng.random() - 1.0)
        sample.append(Params(a, b, c))
    return sample
