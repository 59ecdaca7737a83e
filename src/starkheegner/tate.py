"""Tate parameter, the Weierstrass map from the Tate curve to the minimal
model, the conversion constant kappa, and the formal-group logarithm of the
minimal model.

The map is x = lambda^2 X + r, y = lambda^3 Y + s lambda^2 X + t.  The Tate
curve's invariant differential dX/(2Y + X) is du/u (Silverman, Advanced
Topics in the Arithmetic of Elliptic Curves, V.1.1), and 2y + a1 x + a3 is
lambda^3 (2Y + X), so omega_E = lambda^-1 du/u: the constant that turns
Tate-side logarithms into formal-group logarithms is kappa = 1/lambda, in
closed form, as the Darmon-Pollack route (Israel J. Math. 2006) needs.  A
wrong q is caught by lambda^4 c4(q) = c4(E), which holds exactly when
j(q) = j(E).  The tests measure kappa the long way, on Tate points
(tests/oracle_tate.py).

Each series is built exactly, in one pass, and evaluated at capped-precision
p-adics, so precision loss only enters through the final evaluations.  One
rule cuts each: a q-series with integral coefficients cut after q^L is right
to v(q) (L + 1) digits, so k digits need L = ceil(k / v(q)) - 1
(``_last_power``), and no result claims more.  The series:

- E4 and E6 are integer series, and Delta = (E4^3 - E6^2) / 1728 (this is
  q prod (1 - q^n)^24); q solves E4^3 - j Delta = 0, a series over Q.
- The formal group's w(z) = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2
  + a6 w^3 is solved one coefficient at a time, since w_n reads only
  coefficients below n.
- omega = dz / (1 - a1 z - a2 z^2 - 2 a3 w - 2 a4 z w - 3 a6 w^2)
  (Silverman, The Arithmetic of Elliptic Curves, IV.1) has integer
  coefficients, since the denominator starts with 1; the formal log is
  sum omega_(n-1) z^n / n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import valuation
from .curves import EllipticCurveData, curve_add
from .padics import (
    PadicScalar,
    PrecisionError,
    QuadExtContext,
    QuadExtScalar,
    log_series_length,
)


# ---------------------------------------------------------------- Z-series

def _sigma_series(k: int, length: int):
    """[0, sigma_k(1), ..., sigma_k(length)]"""
    out = [0] * (length + 1)
    for d in range(1, length + 1):
        dk = d ** k
        for m in range(d, length + 1, d):
            out[m] += dk
    return out


def eisenstein_e4(length: int):
    return [1] + [240 * s for s in _sigma_series(3, length)[1:]]


def eisenstein_e6(length: int):
    return [1] + [-504 * s for s in _sigma_series(5, length)[1:]]


def _poly_mul(a, b, length):
    out = [0] * (length + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > length:
            continue
        for j, bj in enumerate(b):
            if i + j > length:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _last_power(digits: int, vq: int) -> int:
    """The least L with v(q) (L + 1) >= digits (see the module docstring)."""
    return -(-digits // vq) - 1


def _eval_series(coeffs, x):
    """Horner evaluation of an integer/Fraction coefficient series at x in
    Q_p or Q_p^2, the coefficients taken to x's precision N: x backs c_1 x
    to N + v(c_1) digits and, as every x given here has v(x) >= 1, each
    later integral term to at least N."""
    p, N = x.p, x.precision()
    acc = PadicScalar.zero(p, N)
    for c in reversed(coeffs):
        acc = acc * x
        if c:
            acc = acc + PadicScalar.from_fraction(p, c, N)
    return acc


# ------------------------------------------------------------ Tate parameter

def tate_parameter(E: EllipticCurveData, prec: int) -> PadicScalar:
    """The Tate period q with j(q) = j(E), to prec + v(q) digits: Newton's
    method on f = E4^3 - j Delta, run until f(q) vanishes to target digits.
    f's coefficients have valuation >= -v(q) (the j), so q is carried to
    target + v(q) digits; f cut after q^L has a root right to v(q) (L + 1)
    digits (tail v(q) L, f' -v(q)), and L serves the prec + v(q) returned."""
    p = E.p
    vq = valuation(E.disc, p)
    if vq == 0:
        raise ValueError("good reduction at p; no Tate parameter")
    j = Fraction(E.c4 ** 3, E.disc)
    target = prec + 2 * vq
    length = _last_power(prec + vq, vq)
    e4, e6 = eisenstein_e4(length), eisenstein_e6(length)
    e43 = _poly_mul(_poly_mul(e4, e4, length), e4, length)
    e62 = _poly_mul(e6, e6, length)
    # Delta = (E4^3 - E6^2) / 1728 = q prod (1 - q^n)^24
    coeffs = [a - j * Fraction(a - b, 1728) for a, b in zip(e43, e62)]
    dcoeffs = [n * coeffs[n] for n in range(1, len(coeffs))]
    q = PadicScalar.from_fraction(p, 1 / j, target + vq)
    for _ in range(64):
        fval = _eval_series(coeffs, q)
        if fval.is_zero() or fval.valuation() >= target:
            break
        q = q - fval / _eval_series(dcoeffs, q)
    else:
        raise PrecisionError("Newton's method for q did not converge: "
                             "E4^3 - j Delta has valuation %d < %d after 64 "
                             "steps" % (fval.valuation(), target))
    if q.valuation() != vq:
        raise ArithmeticError("Tate period has valuation %d, not v(disc) = %d"
                              % (q.valuation(), vq))
    return q.with_precision(min(q.N, prec + vq))


# ------------------------------------------------------- formal group series

@lru_cache(maxsize=None)
def formal_log_series(curve_key, length: int):
    """Coefficients [l_1, l_2, ...] of the formal logarithm of the minimal
    model, l_1 = 1, as exact Fractions.  curve_key = (a1, a2, a3, a4, a6).

    w(z) by its recursion, then omega by one integer series inversion (see
    the module docstring); w^2 and w^3 start at z^6 and z^9, so w_n reads
    only w_3, ..., w_(n-1)."""
    a1, a2, a3, a4, a6 = curve_key
    w, w2, w3 = [0] * length, [0] * length, [0] * length
    for n in range(3, length):
        w2[n] = sum(w[i] * w[n - i] for i in range(3, n - 2))
        w3[n] = sum(w[i] * w2[n - i] for i in range(3, n - 5))
        w[n] = ((n == 3) + a1 * w[n - 1] + a2 * w[n - 2] + a3 * w2[n]
                + a4 * w2[n - 1] + a6 * w3[n])
    # 1 - omega's denominator: a1 z + a2 z^2 + 2 a3 w + 2 a4 z w + 3 a6 w^2
    u = [0] * length
    for n in range(1, length):
        u[n] = (a1 * (n == 1) + a2 * (n == 2) + 2 * a3 * w[n]
                + 2 * a4 * w[n - 1] + 3 * a6 * w2[n])
    omega = [1]
    for n in range(1, length):
        omega.append(sum(u[k] * omega[n - k] for k in range(1, n + 1)))
    return tuple(Fraction(omega[n - 1], n) for n in range(1, length + 1))


# ----------------------------------------------------- points over F_p / Q_p

def on_curve(E: EllipticCurveData, P) -> bool:
    x, y = P
    lhs = y * y + E.a1 * x * y + E.a3 * y
    rhs = (x * x + E.a2 * x + E.a4) * x + E.a6
    return (lhs - rhs).is_zero()


def formal_log(E: EllipticCurveData, P, prec: int):
    """Formal-group logarithm on E(F_p): lambda([m]P)/m for the least m >= 1
    pushing P into the formal group.  P = None (the origin) and torsion
    points give 0.  Term k of lambda(z) has valuation at least
    k v(z) - v_p(k), as in log(1 + y), so lambda is cut by log_series_length
    at prec + v_p(m) digits, dividing by m costing v_p(m): the result
    claims at most prec digits, each backed (fewer if P's run out first)."""
    zero = PadicScalar.zero(E.p, prec)
    vdisc = valuation(E.disc, E.p)
    mbound = 4 * (E.p ** 2 + 2 * E.p + 2) * max(1, vdisc)
    cur = P
    for m in range(1, mbound + 1):
        if cur is None:
            return zero
        xc, yc = cur
        if (not xc.is_zero()) and xc.valuation() < 0 and yc.valuation() < 0:
            z = -xc / yc
            if z.valuation() >= 1:
                length = log_series_length(z.valuation(),
                                           prec + valuation(m, E.p), E.p) - 1
                key = (E.a1, E.a2, E.a3, E.a4, E.a6)
                lam = _eval_series((0,) + formal_log_series(key, length), z)
                return lam * Fraction(1, m) + zero  # at most prec digits
        cur = curve_add((E.a1, E.a2, E.a3, E.a4), cur, P)
    raise RuntimeError("no multiple landed in the formal group")


# --------------------------------------------------------- Tate curve series

def iso_tate_to_curve(E: EllipticCurveData, q: PadicScalar, ctx: QuadExtContext,
                      depth: int):
    """The Weierstrass transformation (lambda, r, s, t) carrying Tate-curve
    coordinates to the minimal model of E, lambda (a unit, as c4(E) is) cut
    to the v(q) (depth + 1) digits that E4 and E6 cut after q^depth back.
    A wrong q is caught by lambda^4 c4(q) = c4(E), which holds exactly when
    j(q) = j(E): the residual must vanish to every digit lambda keeps."""
    # c4 and c6 of the Tate curve y^2 + xy = x^3 + a4(q) x + a6(q)
    c4q = _eval_series(eisenstein_e4(depth), q)
    c6q = -_eval_series(eisenstein_e6(depth), q)
    lam2 = (PadicScalar.from_int(E.p, E.c6, q.N) * c4q) / \
           (PadicScalar.from_int(E.p, E.c4, q.N) * c6q)
    lam = ctx.sqrt(lam2.with_precision(min(lam2.N, q.v * (depth + 1))))
    residual = lam ** 4 * c4q - E.c4
    if not residual.is_zero():
        raise ValueError("j(q) != j(E): lambda^4 c4(q) - c4(E) has valuation %d"
                         " < %d" % (residual.valuation(), residual.precision()))
    # (x, y) = (lam^2 x' + r, lam^3 y' + s lam^2 x' + t) maps Tate -> E with
    # lam*1 = a1 + 2s, 0 = a2 - s a1 + 3r - s^2, 0 = a3 + r a1 + 2t
    s = (lam - E.a1) * Fraction(1, 2)
    r = (ctx.embed(PadicScalar.from_int(E.p, -E.a2, q.N)) + s * E.a1 + s * s) \
        * Fraction(1, 3)
    t = (-r * E.a1 - E.a3) * Fraction(1, 2)
    return lam, r, s, t


def log_conversion_constant(E: EllipticCurveData, q: PadicScalar,
                            ctx: QuadExtContext, prec: int) -> QuadExtScalar:
    """kappa = 1/lambda, with formal_log(Phi_Tate(u)) = kappa * log_q(u)
    (see the module docstring), to prec digits, E4 and E6 cut for them.
    iso_tate_to_curve raises ValueError for a q with j(q) != j(E)."""
    lam = iso_tate_to_curve(E, q, ctx, _last_power(prec, q.v))[0]
    kappa = lam.inverse()
    if kappa.precision() < prec:
        raise PrecisionError("kappa = 1/lambda has %d of %d digits"
                             % (kappa.precision(), prec), kappa.precision())
    return kappa + ctx.from_ints(0, 0, prec)  # prec digits


# ----------------------------------------------------------- localization

def localize_short_point(E: EllipticCurveData, pt, ctx: QuadExtContext, prec: int):
    """Embed the GlobalPoint (X, Y sqrt(delta)) of the short model into
    E(F_p), in minimal-model coordinates.  The model change is exact, in Q:
    x = (X - 3 b2)/36, y = -(a1 x + a3)/2 + (Y/216) sqrt(delta); these three
    rationals are embedded at prec, and sqrt(delta) is lifted to
    prec - v(Y/216) digits when v(Y/216) < 0, at most ctx.N if delta is not a
    square mod p (QuadExtContext.sqrt), so y keeps prec only if that is."""

    def emb(r):
        return ctx.embed(PadicScalar.from_fraction(E.p, r, prec))

    xq = Fraction(pt.x - 3 * E.b2, 36)
    x = emb(xq)
    ys = emb(Fraction(pt.y, 216))
    root = ctx.sqrt(PadicScalar.from_int(E.p, pt.delta,
                                         prec - min(ys.valuation(), 0)))
    y = emb(-(E.a1 * xq + E.a3) / 2) + ys * root
    if not on_curve(E, (x, y)):
        raise ValueError("localized point is off the curve")
    return (x, y)
