"""Test-only oracles for tate: the conversion constant kappa measured on Tate
points, and the series the package builds in one pass, built the long way.

The package takes kappa = 1/lambda in closed form from the Weierstrass map
of the Tate curve onto the minimal model.  Here kappa is measured the long
way, as formal_log(Phi(u)) / log_q(u) for two Tate parameters u:

- tate_point sums the q-series of (X, Y) on the Tate curve to a depth;
- tate_to_curve_point maps (X, Y) to the minimal model by (lambda, r, s, t);
- LogBranch is the branch log_q of the p-adic logarithm with log_q(q) = 0;
- kappa_from_points checks that the image is on the curve and that the two
  quotients agree to prec - 2 digits.

The package takes Delta = (E4^3 - E6^2) / 1728 and solves w(z) by its
recursion; here

- eta_discriminant is Delta as the eta product q prod (1 - q^n)^24;
- formal_log_series_fixed_point reruns a full fixed point for w(z), forms
  x = z/w and y = -1/w through (1 + u)^-1, and divides dx by 2y + a1 x + a3
  over Q.

ROADMAP item 2 needs tate_point and tate_to_curve_point, and item 9 needs
LogBranch; each moves back into the package with its first caller there.
"""

from __future__ import annotations

from fractions import Fraction

from starkheegner.curves import EllipticCurveData
from starkheegner.padics import (
    PadicScalar,
    PrecisionError,
    QuadExtContext,
    QuadExtScalar,
    iwasawa_log,
)
from starkheegner.tate import (
    _eval_series,
    _last_power,
    _poly_mul,
    _sigma_series,
    formal_log,
    iso_tate_to_curve,
    on_curve,
)


class LogBranch:
    """The branch log_q of the p-adic logarithm with log_q(q) = 0."""

    def __init__(self, q: PadicScalar):
        if q.is_zero() or q.valuation() < 1:
            raise ValueError("Tate period must have positive valuation")
        self.q = q
        self.p = q.p
        self.ord_q = q.valuation()
        self._l0q = iwasawa_log(q)

    def log(self, x):
        """log_q(x) = L0(x) - (ord(x)/ord(q)) * L0(q)."""
        if x.is_zero():
            raise ValueError("log of zero")
        return iwasawa_log(x) - self._l0q * Fraction(x.valuation(), self.ord_q)


def tate_point(q, u: QuadExtScalar, depth: int):
    """(X, Y) on the Tate curve for the parameter u (not a power of q)."""
    ctx = u.ctx
    one = ctx.from_ints(1, 0, u.precision())
    qe = ctx.embed(q)
    s1 = _sigma_series(1, depth)
    s1v = ctx.embed(_eval_series([0] + [s1[n] for n in range(1, depth + 1)],
                                 q))
    X = u / ((one - u) * (one - u))
    Y = (u * u) / ((one - u) ** 3)
    qn = one
    for _ in range(1, depth + 1):
        qn = qn * qe
        t1 = qn * u
        t2 = qn / u
        X = X + t1 / ((one - t1) * (one - t1)) + t2 / ((one - t2) * (one - t2))
        Y = Y + t1 * t1 / ((one - t1) ** 3) - t2 / ((one - t2) ** 3)
    X = X - 2 * s1v
    Y = Y + s1v
    return X, Y


def tate_to_curve_point(E, transform, XY):
    lam, r, s, t = transform
    X, Y = XY
    x = lam * lam * X + r
    y = lam ** 3 * Y + s * (lam * lam) * X + t
    return (x, y)


def kappa_from_points(E: EllipticCurveData, q: PadicScalar,
                      ctx: QuadExtContext, prec: int):
    """kappa with formal_log(Phi_Tate(u)) = kappa * log_q(u), measured at
    u = 1 + p and checked against u = (1 + p)^2, the series cut for the
    q.N digits of q read."""
    depth = _last_power(q.N, q.v)
    transform = iso_tate_to_curve(E, q, ctx, depth)
    branch = LogBranch(q)
    u0 = ctx.embed(PadicScalar.from_int(E.p, 1 + E.p, q.N))
    P = tate_to_curve_point(E, transform, tate_point(q, u0, depth))
    if not on_curve(E, P):
        raise ValueError("Tate parametrization image is off the curve")
    kappa = formal_log(E, P, prec + 1) / branch.log(u0)
    u1 = ctx.embed(PadicScalar.from_fraction(E.p, Fraction(1 + E.p) ** 2, q.N))
    P1 = tate_to_curve_point(E, transform, tate_point(q, u1, depth))
    kappa1 = formal_log(E, P1, prec + 1) / branch.log(u1)
    agree = (kappa - kappa1).valuation()
    if agree < prec - 2:
        raise PrecisionError("conversion unstable: the two kappa agree to %d "
                             "of %d digits" % (agree, prec - 2), agree)
    return kappa


def eta_discriminant(length: int):
    """q * prod (1-q^n)^24, exactly, to the given length."""
    # eta product via repeated squaring of prod(1-q^n)
    base = [0] * (length + 1)
    base[0] = 1
    for n in range(1, length + 1):
        nxt = base[:]
        for i in range(length + 1 - n):
            if base[i]:
                nxt[i + n] -= base[i]
        base = nxt
    out = [1] + [0] * length
    for _ in range(24):
        out = _poly_mul(out, base, length)
    return tuple([0] + out[:length])


def formal_log_series_fixed_point(curve_key, length: int):
    """Coefficients [l_1, l_2, ...] of the formal logarithm of the minimal
    model, l_1 = 1, as exact Fractions.  curve_key = (a1, a2, a3, a4, a6)."""
    a1, a2, a3, a4, a6 = curve_key
    L = length + 4
    # w(z) = z^3 (1 + ...), solved by iteration
    w = [0, 0, 0, 1] + [0] * (L - 3)
    for _ in range(L):
        w2 = _poly_mul(w, w, L)
        w3 = _poly_mul(w2, w, L)
        new = [0] * (L + 1)
        new[3] = 1
        for i in range(L + 1):
            acc = new[i]
            if i >= 1:
                acc += a1 * w[i - 1]
            if i >= 2:
                acc += a2 * w[i - 2]
            acc += a3 * w2[i]
            if i >= 1:
                acc += a4 * w2[i - 1]
            acc += a6 * w3[i]
            new[i] = acc
        if new == w:
            break
        w = new
    # x = z/w, y = -1/w as Laurent series: z*w^{-1} and -w^{-1}
    # w = z^3*(1 + u(z)); invert 1 + u
    u = [Fraction(w[i + 3]) for i in range(L - 2)]
    u[0] = Fraction(0)
    inv = [Fraction(1)] + [Fraction(0)] * (L - 3)  # (1+u)^{-1}
    for n in range(1, L - 2):
        s = Fraction(0)
        for k in range(1, n + 1):
            if k < len(u) and u[k]:
                s -= u[k] * inv[n - k]
        inv[n] = s
    # omega = dx/(2y + a1 x + a3); compute via series in z
    # x(z) = z^{-2} * inv(z), y(z) = -z^{-3} * inv(z)
    # denominator: 2y + a1 x + a3 = z^{-3} * (-2*inv + a1 z inv + a3 z^3)
    den = [Fraction(-2) * c for c in inv]
    for i in range(len(inv) - 1):
        den[i + 1] += a1 * inv[i]
    if len(den) > 3:
        den[3] += a3
    # numerator: dx/dz = d/dz (z^{-2} inv) = z^{-3} * (-2*inv + z*inv')
    num = [Fraction(-2) * c for c in inv]
    for i in range(1, len(inv)):
        num[i] += i * inv[i]
    # omega/dz = num/den  (the z^{-3} factors cancel)
    series = _series_div(num, den, length)
    if series[0] != 1:
        raise ArithmeticError("invariant differential starts with %s, not 1"
                              % series[0])
    return tuple(Fraction(series[n - 1], n) for n in range(1, length + 1))


def _series_div(num, den, length):
    if den[0] == 0:
        raise ArithmeticError("series division by a non-unit")
    inv0 = Fraction(1, 1) / den[0]
    out = []
    rem = list(num) + [Fraction(0)] * max(0, length + 1 - len(num))
    for n in range(length + 1):
        c = rem[n] * inv0
        out.append(c)
        for k in range(1, len(den)):
            if n + k <= length:
                rem[n + k] -= c * den[k]
    return out
