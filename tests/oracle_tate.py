"""Test-only oracle: the conversion constant kappa measured on Tate points.

The package takes kappa = 1/lambda in closed form from the Weierstrass map
of the Tate curve onto the minimal model.  Here kappa is measured the long
way, as formal_log(Phi(u)) / log_q(u) for two Tate parameters u:

- tate_point sums the q-series of (X, Y) on the Tate curve to a depth;
- tate_to_curve_point maps (X, Y) to the minimal model by (lambda, r, s, t);
- LogBranch is the branch log_q of the p-adic logarithm with log_q(q) = 0;
- kappa_from_points checks that the image is on the curve and that the two
  quotients agree to prec - 2 digits.

ROADMAP item 2 needs tate_point and tate_to_curve_point, and item 5 needs
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
    one = ctx.one(u.precision() + 6)
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
    u = 1 + p and checked against u = (1 + p)^2."""
    depth = prec // q.v + 2
    transform = iso_tate_to_curve(E, q, ctx, depth)
    branch = LogBranch(q)
    u0 = ctx.embed(PadicScalar.from_int(E.p, 1 + E.p, q.N))
    P = tate_to_curve_point(E, transform, tate_point(q, u0, depth))
    if not on_curve(E, P):
        raise ValueError("Tate parametrization image is off the curve")
    kappa = formal_log(E, P, prec) / branch.log(u0)
    u1 = ctx.embed(PadicScalar.from_fraction(E.p, Fraction(1 + E.p) ** 2, q.N))
    P1 = tate_to_curve_point(E, transform, tate_point(q, u1, depth))
    kappa1 = formal_log(E, P1, prec) / branch.log(u1)
    agree = (kappa - kappa1).valuation()
    if agree < prec - 2:
        raise PrecisionError("conversion unstable: the two kappa agree to %d "
                             "of %d digits" % (agree, prec - 2), agree)
    return kappa
