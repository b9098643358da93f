"""Fit the coefficients of `loglambert.expint`'s pieces, and print them.

    python tests/_ei_fit.py [PIECE ...]

With t = -x, x0 Ei's positive root and E(x) = Ei(x) - gamma - ln|x| =
sum x^n/(n*n!) (entire), each piece of the kernel approximates one smooth
function on its interval:

- `h = t*e^t*E1(t)` for x < -0.5625, where Ei = -e^-t/t * h: a rational
  `Y + P(v)/Q(v)` in v = t - (left end) on [0.5625, 1], [1, 6] and
  [6, 40], and in v = 1/t past 40;
- `E(x)/x` on [-0.5625, 0.1875), where Ei = gamma + ln|x| + x*(E(x)/x): a
  polynomial in v = x (the kernel writes x for v);
- `R = (E(x) - E(x0))/(x - x0)` on [0.1875, 6], where Ei = ln(x/x0) +
  (x - x0)*R: a polynomial in v = x - (left end) on [0.1875, 3] and [3, 6];
- `g = x*e^-x*Ei(x)` past 6, where Ei = e^x/x * g: a rational in
  v = x - (left end) on [6, 20] and [20, 40], and in v = 1/x past 40.

A rational's `Y` is a short constant near its values and `Q(0) = 1`.
Anchoring v at the left end gives coefficients of one sign, whose Horner
sums do not cancel.  P and Q come from the rational Remez exchange
(linearised at each step by the previous Q) on 50-digit mpmath values at
800 Chebyshev points, minimising the error relative to the function; then
Q is rounded to doubles and P refitted to the rounded Q.  Each piece
prints as the Horner lines `expint.py` holds, after the largest relative
error of the fit and of its rounded coefficients on those points.  A run
takes about two minutes of pure-Python mpmath and needs only mpmath.  This
file is a tool, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

mp.mp.dps = 50

X0 = mp.findroot(mp.ei, mp.mpf("0.3725"))  # Ei's positive root


def _entire(x):
    # E(x) = Ei(x) - gamma - ln|x| = sum x^n/(n*n!), to 100 digits
    with mp.workdps(100):
        return mp.mpf(0) if x == 0 else mp.ei(x) - mp.euler - mp.log(abs(x))


def h(x):
    t = -x
    return mp.mpf(1) if t == mp.inf else t * mp.exp(t) * mp.e1(t)


def g(x):
    return mp.mpf(1) if x == mp.inf else x * mp.exp(-x) * mp.ei(x)


def e_over_x(x):
    with mp.workdps(100):
        return mp.mpf(1) if x == 0 else _entire(x) / x


def r(x):
    with mp.workdps(100):
        if abs(x - X0) < mp.mpf("1e-40"):
            return (mp.exp(X0) - 1) / X0
        return (_entire(x) - _entire(X0)) / (x - X0)


def _neg(v, c):  # x of v = t - c
    return -(v + c)


def _pos(v, c):  # x of v = x - c
    return v + c


def _recip(v, sign):  # x of v = 1/|x|
    return sign * mp.inf if v == 0 else sign / v


# name: (function of x, x of v, v's interval, Y, (deg P, deg Q)); deg Q = 0
# is a polynomial.
PIECES = {
    "neg_1": (h, lambda v: _neg(v, 0.5625), (0, 1 - 0.5625), 0.44, (6, 6)),
    "neg_6": (h, lambda v: _neg(v, 1.0), (0, 6 - 1.0), 0.6, (8, 7)),
    "neg_40": (h, lambda v: _neg(v, 6.0), (0, 40 - 6.0), 0.87, (6, 6)),
    "neg_tail": (h, lambda v: _recip(v, -1), (0, mp.mpf(1) / 40), 1.0, (5, 4)),
    "near_0": (e_over_x, lambda v: v, (-0.5625, 0.1875), 0.0, (10, 0)),
    "root_3": (r, lambda v: _pos(v, 0.1875), (0, 3 - 0.1875), 0.0, (15, 0)),
    "root_6": (r, lambda v: _pos(v, 3.0), (0, 6 - 3.0), 0.0, (16, 0)),
    "pos_20": (g, lambda v: _pos(v, 6.0), (0, 20 - 6.0), 1.27, (10, 10)),
    "pos_40": (g, lambda v: _pos(v, 20.0), (0, 40 - 20.0), 1.06, (8, 8)),
    "pos_tail": (g, lambda v: _recip(v, 1), (0, mp.mpf(1) / 40), 1.0, (5, 5)),
}


def remez(fs, ws, vs, n, m, iters=40):
    """Minimax P/Q (deg n, deg m, q0 = 1) for values fs at nodes vs, error weighted by 1/ws."""
    grid, count = len(vs), n + m + 2
    ref = [round((grid - 1) * (1 - math.cos(math.pi * i / (count - 1))) / 2) for i in range(count)]
    best, q = None, [mp.mpf(1)]
    for _ in range(iters):
        for _ in range(10):  # the levelled error, with Q in its term taken from the last solve
            rows, rhs = [], []
            for i, k in enumerate(ref):
                v, f, w = vs[k], fs[k], ws[k]
                rows.append([v**j for j in range(n + 1)] + [-f * v**j for j in range(1, m + 1)]
                            + [-((-1) ** i) * w * mp.polyval(q[::-1], v)])
                rhs.append(f)
            sol = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
            p = [sol[j] for j in range(n + 1)]
            q = [mp.mpf(1)] + [sol[n + 1 + j] for j in range(m)]
            level = abs(sol[n + m + 1])
        err = [(mp.polyval(p[::-1], v) / mp.polyval(q[::-1], v) - f) / w
               for v, f, w in zip(vs, fs, ws)]
        worst = max(map(abs, err))
        if best is None or worst < best[0]:
            best = (worst, p, q)
        if worst <= level * (1 + mp.mpf("1e-4")):
            break
        runs, start = [], 0  # the extremum of each run of one sign
        for k in range(1, grid + 1):
            if k == grid or (err[k] > 0) != (err[start] > 0):
                runs.append(max(range(start, k), key=lambda j: abs(err[j])))
                start = k
        while len(runs) > count:
            runs.pop(0 if abs(err[runs[0]]) < abs(err[runs[-1]]) else -1)
        if len(runs) < count:
            break
        ref = runs
    return best


def fit(name, grid=800):
    func, x_of, (lo, hi), y, (n, m) = PIECES[name]
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    vs = [(lo + hi) / 2 - (hi - lo) / 2 * mp.cos(mp.pi * k / (grid - 1)) for k in range(grid)]
    fs = [func(x_of(v)) for v in vs]
    worst, p, q = remez([f - y for f in fs], fs, vs, n, m)
    q = [float(c) for c in q]
    if m:  # with weight f*Q, P's minimax against (f - Y)*Q is the rational's with that Q
        qs = [mp.polyval([mp.mpf(c) for c in q[::-1]], v) for v in vs]
        _, p, _ = remez([(f - y) * qv for f, qv in zip(fs, qs)],
                        [f * qv for f, qv in zip(fs, qs)], vs, n, 0)
    p = [float(c) for c in p]
    return y, p, q, worst, _rounded(y, p, q, vs, fs)


def _rounded(y, p, q, vs, fs):
    # The largest relative error of Y + P/Q with its coefficients rounded to doubles.
    p, q = [mp.mpf(float(c)) for c in p[::-1]], [mp.mpf(c) for c in q[::-1]]
    return max(abs((y + mp.polyval(p, v) / mp.polyval(q, v) - f) / f) for v, f in zip(vs, fs))


def horner(coeffs, v="v"):
    out = repr(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = f"{c!r} + {v}*({out})"
    return out


def wrap(line, indent=4, width=99):
    # Break the assignment before its " + v*(" terms, the way expint.py lays it out.
    tokens = line.replace(" + v*(", "\0+ v*(").split("\0")
    lines, current = [], " " * indent + tokens[0]
    for token in tokens[1:]:
        if len(current) + 1 + len(token) > width:
            lines.append(current)
            current = " " * (indent + 4) + token
        else:
            current += " " + token
    return "\n".join([*lines, current])


def main(names):
    for name in names or PIECES:
        y, p, q, worst, rounded = fit(name)
        print(f"# {name}: relative error {mp.nstr(worst, 3)} fitted, {mp.nstr(rounded, 3)} rounded")
        value = horner(p) if len(q) == 1 else f"{y!r} + ({horner(p)}) / (1.0 + v*({horner(q[1:])}))"
        print(wrap(f"f = {value}"))
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
