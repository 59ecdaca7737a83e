"""Elliptic curve data for the pipeline: Frobenius traces by point counting,
Atkin-Lehner signs, complex L-values of quadratic twists, real periods,
quadratic twists and naive point search.

Curves are semistable in our setting (N = Mp squarefree), which keeps the
conductor check elementary: every bad prime must be multiplicative and their
product must be the stated conductor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from scipy.special import exp1

from .arith import (
    factorize,
    is_fundamental_discriminant,
    is_squarefree,
    kronecker,
    prime_divisors,
    primes_up_to,
)


class CurveError(ValueError):
    pass


@dataclass
class EllipticCurveData:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    p: int
    label: str = ""
    _ap_cache: dict = field(default_factory=dict, repr=False)
    _an_list: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        self.b2 = a1 * a1 + 4 * a2
        self.b4 = 2 * a4 + a1 * a3
        self.b6 = a3 * a3 + 4 * a6
        self.b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4
                   + a2 * a3 * a3 - a4 * a4)
        self.c4 = self.b2 * self.b2 - 24 * self.b4
        self.c6 = -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6
        self.disc = (-self.b2 * self.b2 * self.b8 - 8 * self.b4 ** 3
                     - 27 * self.b6 * self.b6 + 9 * self.b2 * self.b4 * self.b6)
        if self.disc == 0:
            raise CurveError("singular Weierstrass equation")
        self.j_num = self.c4 ** 3
        bad = [ell for ell, _ in factorize(self.disc)]
        for ell in bad:
            if self.c4 % ell == 0:
                raise CurveError("not semistable/minimal at %d" % ell)
        rad = 1
        for ell in bad:
            rad *= ell
        if rad != self.conductor:
            raise CurveError("conductor %d does not match rad(disc) = %d"
                             % (self.conductor, rad))
        if self.conductor % self.p != 0 or (self.conductor // self.p) % self.p == 0:
            raise CurveError("p must exactly divide the conductor")
        if self.p == 2:
            raise CurveError("p must be odd")
        self.level_m = self.conductor // self.p
        self._w_fricke = None

    # ------------------------------------------------------------- counting

    def ap(self, ell: int) -> int:
        if ell in self._ap_cache:
            return self._ap_cache[ell]
        a = _trace_of_frobenius(self, ell)
        self._ap_cache[ell] = a
        return a

    @property
    def a_p(self) -> int:
        a = self.ap(self.p)
        if a not in (1, -1):
            raise ArithmeticError("a_%d = %d: the reduction at p is not "
                                  "multiplicative" % (self.p, a))
        return a

    @property
    def w_p(self) -> int:
        return -self.a_p

    @property
    def w_fricke(self) -> int:
        if self._w_fricke is None:
            self._w_fricke = _fricke_sign(self)
        return self._w_fricke

    def an_list(self, length: int):
        """[a_0..a_length] with a_0 = 0, filled multiplicatively."""
        if len(self._an_list) > length:
            return self._an_list[: length + 1]
        a = [0] * (length + 1)
        a[1] = 1
        for ell in primes_up_to(length):
            ap = self.ap(ell)
            good = self.conductor % ell != 0
            # powers
            pw, prev, cur = ell, 1, ap
            while pw <= length:
                a[pw] = cur
                prev, cur = cur, ap * cur - (ell * prev if good else 0)
                pw *= ell
            # cross-multiply with smaller coprime indices
            pw = ell
            while pw <= length:
                for m in range(2, length // pw + 1):
                    if m % ell != 0 and a[m] != 0:
                        a[m * pw] = a[m] * a[pw]
                pw *= ell
        self._an_list = a
        return a

    # --------------------------------------------------------------- models

    def short_model(self):
        """Integral short Weierstrass Y^2 = X^3 + A X + B isomorphic over Q
        via (x, y) -> (36x + 3b2, 108(2y + a1x + a3))."""
        return -27 * self.c4, -54 * self.c6

    def rhs(self, x):
        return (x * x + self.a2 * x + self.a4) * x + self.a6


def _trace_of_frobenius(E: EllipticCurveData, ell: int) -> int:
    good = E.conductor % ell != 0
    if ell == 2:
        cnt = 0
        sing = set()
        for x in range(2):
            for y in range(2):
                if (y * y + E.a1 * x * y + E.a3 * y
                        - (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)) % 2 == 0:
                    fy = (2 * y + E.a1 * x + E.a3) % 2
                    fx = (E.a1 * y - 3 * x * x - 2 * E.a2 * x - E.a4) % 2
                    if good or fy != 0 or fx != 0:
                        cnt += 1
        return 2 + 1 - (cnt + 1) if good else 2 - (cnt + 1)
    sq = bytearray(ell)
    for t in range((ell + 1) // 2 + 1):
        sq[t * t % ell] = 1
    inv4 = pow(4, -1, ell)
    count = 0
    sing_x = -1
    if not good:
        # locate the node (unique singular point)
        for x in range(ell):
            fy_zero_y = None
            # y with F_y = 0: 2y + a1x + a3 = 0
            y0 = (-(E.a1 * x + E.a3) * pow(2, -1, ell)) % ell
            on_curve = (y0 * y0 + E.a1 * x * y0 + E.a3 * y0
                        - (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)) % ell == 0
            fx = (E.a1 * y0 - 3 * x * x - 2 * E.a2 * x - E.a4) % ell
            if on_curve and fx == 0:
                sing_x = x
                sing_y = y0
                break
    for x in range(ell):
        # y^2 + (a1x+a3) y - rhs = 0; discriminant (a1x+a3)^2 + 4 rhs
        lin = E.a1 * x + E.a3
        rhs = (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6) % ell
        d = (lin * lin + 4 * rhs) % ell
        if d == 0:
            n_y = 1
            if not good and x == sing_x:
                n_y = 0
        else:
            n_y = 2 if sq[d] else 0
        count += n_y
    n_points = count + 1  # infinity
    if good:
        return ell + 1 - n_points
    return ell - n_points


def _fricke_sign(E: EllipticCurveData) -> int:
    """Sign of the Fricke involution W_N on f_E, computed from the
    functional equation f(-1/(Nz)) = w_N N z^2 f(z) at z = i*t/sqrt(N)."""
    N = E.conductor
    terms = 60 + int(12 * math.sqrt(N))
    an = E.an_list(terms)

    def f(z):
        q = cmath.exp(2j * cmath.pi * z)
        tot, qn = 0.0 + 0j, 1.0 + 0j
        for n in range(1, terms + 1):
            qn *= q
            tot += an[n] * qn
        return tot

    t = 1.13
    z = 1j * t / math.sqrt(N)
    lhs = f(-1 / (N * z))
    rhs = N * z * z * f(z)
    ratio = lhs / rhs
    w = round(ratio.real)
    if abs(ratio - w) > 1e-6 or w not in (1, -1):
        raise CurveError("Fricke sign did not converge: %r" % ratio)
    return w


# ---------------------------------------------------------------- hypothesis

def check_sh_hypothesis(E: EllipticCurveData, D: int, c: int):
    """Stark-Heegner hypothesis report; returns (ok, list of failures)."""
    fails = []
    if D <= 1 or not is_fundamental_discriminant(D):
        fails.append("D is not a fundamental discriminant > 1")
    if D > 1 and math.gcd(D, E.conductor) != 1:
        fails.append("D shares a factor with N")
    if math.gcd(c, D * E.conductor) != 1:
        fails.append("c not coprime to DN")
    if c % 2 == 0:
        fails.append("c must be odd")
    if not is_squarefree(c):
        fails.append("c must be squarefree")
    if not fails:
        for ell in prime_divisors(E.level_m):
            if kronecker(D, ell) != 1:
                fails.append("prime %d | M is not split in F" % ell)
        if kronecker(D, E.p) != -1:
            fails.append("p = %d is not inert in F" % E.p)
    return (not fails), fails


# ------------------------------------------------------------------ L-values

def sign_of_twist(E: EllipticCurveData, delta: int) -> int:
    """Sign of the functional equation of L(E, chi_delta, s),
    -w_N * (delta | -N), for fundamental delta coprime to N."""
    if math.gcd(delta, E.conductor) != 1:
        raise CurveError("twist not coprime to conductor")
    return -E.w_fricke * kronecker(delta, -E.conductor)


def _twist_series_data(E: EllipticCurveData, delta: int, length_factor=1.0):
    cond = E.conductor * delta * delta
    A = math.sqrt(cond) / (2 * math.pi)
    L = int(A * (math.log(2 * A + 4) + 9 * math.log(10)) * 1.3 * length_factor) + 40
    an = E.an_list(L)
    return A, L, an


def complex_L_value(E: EllipticCurveData, delta: int, length_factor=1.0):
    """L(E, chi_delta, 1) by the exponentially-smoothed series.

    Only meaningful when the functional-equation sign is +1; for sign -1 the
    value is forced to vanish and 0.0 is returned.
    """
    if sign_of_twist(E, delta) == -1:
        return 0.0, 0.0
    A, L, an = _twist_series_data(E, delta, length_factor)
    tot = math.fsum(an[n] * kronecker(delta, n) / n * math.exp(-n / A)
                    for n in range(1, L + 1) if an[n])
    err = 4 * A * math.exp(-L / A)
    return 2 * tot, err


def complex_L_derivative(E: EllipticCurveData, delta: int, length_factor=1.0):
    """L'(E, chi_delta, 1) for twists with functional-equation sign -1."""
    if sign_of_twist(E, delta) == 1:
        raise CurveError("derivative requested at sign +1")
    A, L, an = _twist_series_data(E, delta, length_factor)
    ns = [n for n in range(1, L + 1) if an[n]]
    e1 = exp1([n / A for n in ns])
    tot = math.fsum(an[n] * kronecker(delta, n) / n * g
                    for n, g in zip(ns, e1))
    err = 4 * A * math.exp(-L / A)
    return 2 * tot, err


# ------------------------------------------------------------------- periods

def _agm_real(a: float, b: float) -> float:
    while abs(a - b) > 1e-15 * abs(a):
        a, b = (a + b) / 2, math.sqrt(a * b)
    return a


def real_periods(E: EllipticCurveData):
    """(Omega+, Omega-): the fundamental real period (one loop of the real
    locus) and the imaginary period magnitude, by AGM."""
    import numpy as np

    # roots of 4x^3 + b2 x^2 + 2 b4 x + b6
    coeffs = [4.0, float(E.b2), 2.0 * float(E.b4), float(E.b6)]
    roots = np.roots(coeffs)
    if E.disc > 0:
        e1, e2, e3 = sorted(r.real for r in roots)[::-1]
        om1 = math.pi / _agm_real(math.sqrt(e1 - e3), math.sqrt(e1 - e2))
        om2 = math.pi / _agm_real(math.sqrt(e1 - e3), math.sqrt(e2 - e3))
        return om1, om2
    # one real root: the AGM collapses to a real one after a single step
    e1 = next(r.real for r in roots if abs(r.imag) < 1e-9 * (1 + abs(r)))
    others = [r for r in roots if abs(r.imag) >= 1e-9 * (1 + abs(r))]
    e2 = others[0] if others[0].imag > 0 else others[1]
    a = cmath.sqrt(complex(e1) - e2.conjugate())
    om1 = math.pi / _agm_real(abs(a.real), abs(a))
    om2 = math.pi / _agm_real(abs(a.imag), abs(a))
    return om1, om2


# ----------------------------------------------------------- exact quadratics

@dataclass(frozen=True)
class QuadRat:
    """Exact element a + b*sqrt(delta) of a real or imaginary quadratic field."""

    a: Fraction
    b: Fraction
    delta: int

    @classmethod
    def of(cls, a, b, delta):
        return cls(Fraction(a), Fraction(b), delta)

    def __add__(self, o):
        o = self._co(o)
        return QuadRat(self.a + o.a, self.b + o.b, self.delta)

    def __sub__(self, o):
        o = self._co(o)
        return QuadRat(self.a - o.a, self.b - o.b, self.delta)

    def __mul__(self, o):
        o = self._co(o)
        return QuadRat(self.a * o.a + self.b * o.b * self.delta,
                       self.a * o.b + self.b * o.a, self.delta)

    def _co(self, o):
        if isinstance(o, QuadRat):
            if o.delta != self.delta:
                raise ValueError("QuadRat operands over Q(sqrt %d) and Q(sqrt %d)"
                                 % (self.delta, o.delta))
            return o
        return QuadRat(Fraction(o), Fraction(0), self.delta)

    def conj(self):
        return QuadRat(self.a, -self.b, self.delta)

    def __eq__(self, o):
        o = self._co(o)
        return self.a == o.a and self.b == o.b


@dataclass(frozen=True)
class GlobalPoint:
    """Affine point on the curve's standard short model, over Q(sqrt(delta))."""

    x: QuadRat
    y: QuadRat
    delta: int

    def on_short_model(self, A: int, B: int) -> bool:
        lhs = self.y * self.y
        rhs = self.x * self.x * self.x + self.x * A + B
        return lhs == rhs


def twist_model(E: EllipticCurveData, delta: int):
    """Integral model Y^2 = X^3 + A*delta^2 X + B*delta^3 of the quadratic
    twist E^(delta) of the short model of E."""
    A, B = E.short_model()
    return A * delta * delta, B * delta ** 3


def naive_point_search(A: int, B: int, height: int):
    """Affine rational points on Y^2 = X^3 + AX + B with x = m/e^2,
    |m| <= height and e^2 <= height; exact square testing, deduplicated
    up to the sign of y."""
    out = []
    for e in range(1, math.isqrt(height) + 1):
        e2, e3 = e * e, e ** 3
        for m in range(-height, height + 1):
            if e > 1 and math.gcd(m, e) != 1:
                continue
            t = m ** 3 + A * m * e2 * e2 + B * e3 * e3
            if t < 0:
                continue
            r = math.isqrt(t)
            if r * r == t:
                out.append((Fraction(m, e2), Fraction(r, e3)))
    seen, res = set(), []
    for x, y in out:
        if x not in seen:
            seen.add(x)
            res.append((x, y))
    return res


def twist_point_to_curve(E: EllipticCurveData, delta: int, xy) -> GlobalPoint:
    """Map a rational point on the twist model to E's short model over
    Q(sqrt(delta)): (x, y) -> (x/delta, y/(delta*sqrt(delta)))."""
    x, y = xy
    A, B = E.short_model()
    xs = QuadRat.of(Fraction(x, delta), 0, delta)
    # y / (delta*sqrt(delta)) = y*sqrt(delta)/delta^2
    ys = QuadRat.of(0, Fraction(y, delta * delta), delta)
    pt = GlobalPoint(xs, ys, delta)
    if not pt.on_short_model(A, B):
        raise CurveError("twist point does not map onto the curve")
    return pt


def point_order_divides(A: int, B: int, xy, n: int) -> bool:
    """Torsion test on Y^2 = X^3 + AX + B over Q by exact multiplication."""
    from fractions import Fraction as F

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and y1 == -y2:
            return None
        if P == Q:
            lam = (3 * x1 * x1 + A) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return (x3, lam * (x1 - x3) - y1)

    P = (F(xy[0]), F(xy[1]))
    R, Q0 = None, P
    m = n
    while m:
        if m & 1:
            R = add(R, Q0)
        Q0 = add(Q0, Q0)
        m >>= 1
    return R is None
