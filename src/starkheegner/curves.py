"""Elliptic curve data for the pipeline: Frobenius traces, Atkin-Lehner
signs, complex L-values of quadratic twists, quadratic twists and naive
point search.

The trace a_ell at a good prime ell > 229 comes from Shanks-Mestre
baby-step giant-step on the short model and its quadratic twist; below that
bound, at ell = 3 and at bad ell it is the Legendre sum -sum_x (d(x) | ell).
The search runs only over multiples of t = |E(Q)[2]|, which divides both
#E(F_ell) and #E^d(F_ell), and its first giant step is built from the
stride and one baby step.

Curves are semistable in our setting (N = Mp squarefree), which keeps the
conductor check elementary: every bad prime must be multiplicative and their
product must be the stated conductor.  It also makes the Atkin-Lehner signs
exact: at a multiplicative prime ell the W_ell eigenvalue of f_E is -a_ell
(Atkin-Lehner, "Hecke operators on Gamma0(m)", Math. Ann. 1970), so the
Fricke sign is w_N = prod_{ell | N} (-a_ell), read off the traces.

The L-series of a twist E^(delta) is the exponentially smoothed sum of
Cremona, Algorithms for Modular Elliptic Curves, 2.13.  Its twisting
character chi_delta = (delta | .) is read from one table of its values on the
residues mod |delta|, its period for delta = 1 or a fundamental discriminant,
the only twists it accepts.  The point search sieves each denominator e by
residue patterns built once per (modulus, residue class of the model), and
the torsion test stops at the first non-integral multiple (Lutz-Nagell).

A point of the twist E^(delta) is kept on E as GlobalPoint(x, y, delta), x
and y Fractions: the point (x, y sqrt(delta)) of the short model.  The twist
map and tate's change to the minimal model are both exact, in Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .arith import (
    factorize,
    is_fundamental_discriminant,
    is_prime,
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
    _ap_cache: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _an_list: list = field(default_factory=list, init=False, repr=False,
                           compare=False)

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
        if self.p not in prime_divisors(self.conductor):
            raise CurveError("p = %d is not a prime dividing the conductor %d"
                             % (self.p, self.conductor))
        if self.p == 2:
            raise CurveError("p must be odd")
        self.level_m = self.conductor // self.p

    # ------------------------------------------------------------- counting

    def ap(self, ell: int) -> int:
        """a_ell at a prime ell; ValueError for any other integer."""
        a = self._ap_cache.get(ell)
        if a is None:
            if not is_prime(ell):
                raise ValueError("a_ell needs a prime ell, not %r" % (ell,))
            a = self._ap_cache[ell] = _trace_of_frobenius(self, ell)
        return a

    @property
    def a_p(self) -> int:
        a = self.ap(self.p)
        if a not in (1, -1):
            raise ArithmeticError("a_%d = %d: the reduction at p is not "
                                  "multiplicative" % (self.p, a))
        return a

    @property
    def w_fricke(self) -> int:
        """Sign of the Fricke involution W_N on f_E: the product of the
        W_ell signs -a_ell over the multiplicative primes ell | N."""
        w = 1
        for ell in prime_divisors(self.conductor):
            w *= -self.ap(ell)
        return w

    def an_list(self, length: int):
        """[a_0..a_length] with a_0 = 0, filled multiplicatively, as a new
        list that the caller may change; ValueError for a negative length."""
        if length < 0:
            raise ValueError("a_n list of negative length %d" % length)
        if len(self._an_list) > length:
            return self._an_list[: length + 1]
        a = [0] * (length + 1)
        if length:
            a[1] = 1
        cache = self._ap_cache
        for ell in primes_up_to(length):
            ap = cache.get(ell)
            if ap is None:
                ap = cache[ell] = _trace_of_frobenius(self, ell)
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
        return a[:]

    @cached_property
    def _two_torsion(self) -> int:
        """|E(Q)[2]|, which divides #E(F_ell) and every twist's count."""
        return _two_torsion_order(*self.short_model())

    # --------------------------------------------------------------- models

    def short_model(self):
        """Integral short Weierstrass Y^2 = X^3 + A X + B isomorphic over Q
        via (x, y) -> (36x + 3b2, 108(2y + a1x + a3))."""
        return -27 * self.c4, -54 * self.c6


# Cremona-Sutherland, "On a theorem of Mestre and Schoof" (JTNB 2010): for
# a prime ell > 229, E or its quadratic twist over F_ell has a point whose
# order has exactly one multiple in the Hasse interval.
_MESTRE_BOUND = 229


def _trace_of_frobenius(E: EllipticCurveData, ell: int) -> int:
    if ell == 2:
        good = E.conductor % 2 != 0
        cnt = 0
        for x in range(2):
            for y in range(2):
                if (y * y + E.a1 * x * y + E.a3 * y
                        - (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)) % 2 == 0:
                    fy = (2 * y + E.a1 * x + E.a3) % 2
                    fx = (E.a1 * y - 3 * x * x - 2 * E.a2 * x - E.a4) % 2
                    if good or fy != 0 or fx != 0:
                        cnt += 1
        return 2 + 1 - (cnt + 1) if good else 2 - (cnt + 1)
    if ell > _MESTRE_BOUND and E.conductor % ell:
        A, B = E.short_model()
        return _trace_by_bsgs(A % ell, B % ell, ell, E._two_torsion)
    # a_ell = -sum_x (d(x) | ell), d(x) = (a1x+a3)^2 + 4 r(x) the discriminant
    # of y^2 + (a1x+a3) y - r(x), r(x) = x^3 + a2x^2 + a4x + a6, with
    # (0 | ell) = 0: at good ell that is ell + 1 - #E; at a node the one
    # d = 0 root is the singular point, which #E_ns = ell - a_ell leaves out.
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    sq = bytearray(ell)
    for t in range((ell + 1) // 2 + 1):
        sq[t * t % ell] = 1
    total = 0
    for x in range(ell):
        lin = a1 * x + a3
        d = (lin * lin + 4 * (((x + a2) * x + a4) * x + a6)) % ell
        if d:
            total += 1 if sq[d] else -1
    return -total


def _two_torsion_order(A: int, B: int) -> int:
    """|E(Q)[2]| for Y^2 = X^3 + AX + B, A and B integers: 1 + the number of
    integer roots of the cubic.  A rational root of a monic integer cubic is
    an integer dividing B; for B = 0 the roots are 0 and those of X^2 + A,
    which divide A."""
    divs = [1]
    for q, k in factorize(B or A):
        divs = [d * q ** i for d in divs for i in range(k + 1)]
    roots = {0, *divs, *(-d for d in divs)}
    return 1 + sum(1 for e in roots if (e * e + A) * e + B == 0)


def _trace_by_bsgs(A: int, B: int, ell: int, t: int) -> int:
    """a_ell of the good reduction Y^2 = X^3 + AX + B at a prime ell > 229,
    by Shanks-Mestre baby-step giant-step (Cohen, A Course in Computational
    Algebraic Number Theory, 7.4.3) on points of the curve and its twist.

    t = |E(Q)[2]| divides both group orders: each integer root e of the cubic
    stays a simple root mod ell, and (e d, 0) is a point of order 2 on every
    E_d below.  So the search for n with n P = O runs only over multiples of
    t, as the search for n' with n' (t P) = O over [lo/t, hi/t]; each
    restricted set still holds the group order, so the intersection over
    points, and the trace it leaves, is the one of the full search.
    _annihilators builds the first giant step of each search from its
    stride."""
    hasse = math.isqrt(4 * ell)
    lo, hi = ell + 1 - hasse, ell + 1 + hasse
    cands = None
    for x0 in range(ell):
        d = ((x0 * x0 + A) * x0 + B) % ell
        if not d:
            continue
        # P = (x0 d, d^2) lies on E_d: y^2 = x^3 + A d^2 x + B d^3, which is
        # the curve when d is a square mod ell and its twist otherwise, so
        # #E_d = ell + 1 - twist * a_ell
        twist = 1 if pow(d, (ell - 1) // 2, ell) == 1 else -1
        d2 = d * d % ell
        a = A * d2 % ell
        # t P = O makes every n' a hit, through the order-1 exit of the
        # baby steps
        orders = _annihilators(_ec_mul((x0 * d % ell, d2), t, a, ell), a, ell,
                               -(-lo // t), hi // t)
        found = {twist * (ell + 1 - t * n) for n in orders}
        cands = found if cands is None else cands & found
        if len(cands) == 1:
            return cands.pop()
        if not cands:
            raise ArithmeticError("no trace at %d fits every point" % ell)
    raise ArithmeticError("points of the curve and its twist leave %d "
                          "traces at %d" % (len(cands), ell))


def _ec_add(P, Q, a: int, ell: int):
    """P + Q on y^2 = x^3 + a x + b over F_ell; None is the point at
    infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _ec_mul(P, n: int, a: int, ell: int):
    """n P for n >= 0, by left-to-right double and add: one doubling per bit
    of n after the first, one addition per further set bit."""
    if not n:
        return None
    R = P
    for bit in bin(n)[3:]:
        R = _ec_add(R, R, a, ell)
        if bit == "1":
            R = _ec_add(R, P, a, ell)
    return R


def _annihilators(P, a: int, ell: int, lo: int, hi: int):
    """Every n in [lo, hi] with n P = O, P a point of y^2 = x^3 + a x + b
    over F_ell (None, the point at infinity, gives all of them): baby steps
    i P for 0 < i <= m, giant steps n P for n = lo + m + j (2m + 1), and
    n P = -+i P gives (n +- i) P = O.

    The first giant point comes from the stride S = (2m + 1) P: with
    n = q (2m + 1) + r, |r| <= m, it is q S + r P, r P read from the baby
    steps (negated for r < 0).  _trace_by_bsgs calls it on t P over
    [lo/t, hi/t], t = |E(Q)[2]| dividing both #E(F_ell) and #E^d(F_ell)."""
    m = max(1, math.isqrt((hi - lo) // 2))
    baby = {}
    Q = None
    for i in range(1, m + 1):
        Q = _ec_add(Q, P, a, ell)
        if Q is None:  # P has order i
            return range(lo + -lo % i, hi + 1, i)
        baby[Q] = i
    s = 2 * m + 1
    stride = _ec_add(_ec_add(Q, Q, a, ell), P, a, ell)
    n = lo + m
    q, r = divmod(n + m, s)
    r -= m
    G = _ec_mul(stride, q, a, ell)
    # baby keeps its insertion order, so list(baby)[i - 1] is i P
    if r > 0:
        G = _ec_add(G, list(baby)[r - 1], a, ell)
    elif r < 0:
        x, y = list(baby)[-r - 1]
        G = _ec_add(G, (x, -y % ell), a, ell)
    out = []
    while True:
        if G is None:
            out.append(n)
        else:
            i = baby.get(G)
            if i:
                out.append(n - i)
            i = baby.get((G[0], -G[1] % ell))
            if i:
                out.append(n + i)
        n += s
        if n - m > hi:
            break
        G = _ec_add(G, stride, a, ell)
    return [k for k in out if lo <= k <= hi]


# ---------------------------------------------------------------- hypothesis

def check_sh_hypothesis(E: EllipticCurveData, D: int, c: int):
    """Stark-Heegner hypothesis report; returns (ok, list of failures)."""
    fails = []
    if D <= 1 or not is_fundamental_discriminant(D):
        fails.append("D is not a fundamental discriminant > 1")
    if D > 1 and math.gcd(D, E.conductor) != 1:
        fails.append("D shares a factor with N")
    if c < 1:
        fails.append("c must be a positive integer")
    else:
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

def _require_twist(E: EllipticCurveData, delta: int):
    """Raise CurveError unless delta is 1 or a fundamental discriminant
    coprime to N: only then is chi_delta = (delta | .) a primitive character
    of period |delta| and the twist's conductor N delta^2."""
    if not is_fundamental_discriminant(delta):
        raise CurveError("twist %d is not 1 or a fundamental discriminant"
                         % delta)
    if math.gcd(delta, E.conductor) != 1:
        raise CurveError("twist not coprime to conductor")


def twist_sign(w_n: int, conductor_n: int, delta: int) -> int:
    """-w_N (delta | -N), the sign of L(E, chi_delta, s) at conductor N."""
    return -w_n * kronecker(delta, -conductor_n)


def sign_of_twist(E: EllipticCurveData, delta: int) -> int:
    """twist_sign of E, for fundamental delta coprime to N."""
    _require_twist(E, delta)
    return twist_sign(E.w_fricke, E.conductor, delta)


def _twist_series_data(E: EllipticCurveData, delta: int):
    """(A, L, terms): the scale A = sqrt(N delta^2)/(2 pi), the length L of
    the series, and (n, a_n chi_delta(n)) for each n <= L where that product
    is non-zero.  terms is an iterator, to be read once: the sums consume it
    term by term, so no list of the terms is ever held.

    chi_delta(n) is read from the table of (delta | r) for 0 <= r < |delta|,
    at r = n mod |delta|: |delta| Kronecker symbols in place of one per
    n <= L with a_n != 0.  The period holds because delta is 1 or a
    fundamental discriminant, which is checked (CurveError otherwise)."""
    _require_twist(E, delta)
    cond = E.conductor * delta * delta
    A = math.sqrt(cond) / (2 * math.pi)
    L = int(A * (math.log(2 * A + 4) + 9 * math.log(10)) * 1.3) + 40
    an = E.an_list(L)
    q = abs(delta)
    chi = [kronecker(delta, r) for r in range(q)]
    terms = ((n, a * chi[n % q]) for n, a in enumerate(an)
             if a and chi[n % q])
    return A, L, terms


def complex_L_value(E: EllipticCurveData, delta: int):
    """L(E, chi_delta, 1) by the exponentially-smoothed series.

    Only meaningful when the functional-equation sign is +1; for sign -1 the
    value is forced to vanish and 0.0 is returned.
    """
    if sign_of_twist(E, delta) == -1:
        return 0.0, 0.0
    A, L, terms = _twist_series_data(E, delta)
    tot = math.fsum(c / n * math.exp(-n / A) for n, c in terms)
    err = 4 * A * math.exp(-L / A)
    return 2 * tot, err


def complex_L_derivative(E: EllipticCurveData, delta: int):
    """L'(E, chi_delta, 1) for twists with functional-equation sign -1:
    2 sum_n a_n chi_delta(n)/n E1(n/A) (Cremona, Algorithms for Modular
    Elliptic Curves, 2.13)."""
    if sign_of_twist(E, delta) == 1:
        raise CurveError("derivative requested at sign +1")
    A, L, terms = _twist_series_data(E, delta)
    tot = math.fsum(c / n * _e1(n / A) for n, c in terms)
    err = 4 * A * math.exp(-L / A)
    return 2 * tot, err


_EULER_GAMMA = 0.5772156649015329
# (2k, k^2) as floats for the continued fraction of _e1, whose depth is at
# most 8 + 44 for x > 2; the conversions are exact, so each step rounds as
# it would with the integers
_E1_FRACTION = tuple((float(2 * k), float(k * k)) for k in range(53))


def _e1(x: float) -> float:
    """The exponential integral E1(x) = int_x^inf e^-t/t dt for x > 0.

    For x <= 2 it is the power series -gamma - ln x - sum_{k>=1} (-x)^k/(k k!),
    summed to k = 24, where the terms fall below 1e-18. For x > 2 it is the
    continued fraction e^-x/(x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))),
    evaluated bottom-up from depth 8 + floor(90/x). Both branches are within
    1e-13 relative of E1 for 1e-6 <= x <= 150 (the series loses about two
    digits to cancellation just below x = 2; the fraction is good to 1e-15),
    so the E1 factors move complex_L_derivative by at most 1e-13 times the
    sum of its terms' magnitudes.
    """
    if x <= 2:
        total, term = 0.0, 1.0
        for k in range(1, 25):
            term *= -x / k
            total += term / k
        return -_EULER_GAMMA - math.log(x) - total
    depth = 8 + int(90 / x)
    f = x + 2 * depth + 1
    for two_k, k_sq in _E1_FRACTION[depth:0:-1]:
        f = x + two_k - 1 - k_sq / f
    return math.exp(-x) / f


# ------------------------------------------------------------ twist points

@dataclass(frozen=True)
class GlobalPoint:
    """The point (x, y sqrt(delta)) of the short model, x and y Fractions:
    a point of the twist E^(delta) is in the minus part of E(Q(sqrt(delta)))."""

    x: Fraction
    y: Fraction
    delta: int

    def on_short_model(self, A: int, B: int) -> bool:
        return self.y * self.y * self.delta == self.x ** 3 + A * self.x + B


def twist_model(E: EllipticCurveData, delta: int):
    """Integral model Y^2 = X^3 + A*delta^2 X + B*delta^3 of the quadratic
    twist E^(delta) of the short model of E; CurveError unless delta is 1 or
    a fundamental discriminant coprime to N."""
    _require_twist(E, delta)
    A, B = E.short_model()
    return A * delta * delta, B * delta ** 3


# moduli of the square sieve in naive_point_search
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def naive_point_search(A: int, B: int, height: int):
    """Affine rational points on Y^2 = X^3 + AX + B with x = m/e^2,
    |m| <= height and e^2 <= height; exact square testing, one point per x,
    with y >= 0.

    For each e a residue sieve drops every m for which
    m^3 + A e^4 m + B e^6 is a non-square modulo one of _SIEVE_MODULI; only
    the survivors reach the exact tests, in increasing m.  The pattern of
    modulus q depends on e only through (A e^4 mod q, B e^6 mod q), so each
    is built, and tiled over the width, once per such residue class."""
    width = 2 * height + 1
    squares = {q: {x * x % q for x in range(q)} for q in _SIEVE_MODULI}
    # repunit[q] * pattern repeats a q-bit pattern over the width bits
    repunit = {q: ((1 << (q * -(-width // q))) - 1) // ((1 << q) - 1)
               for q in _SIEVE_MODULI}
    full = (1 << width) - 1
    tiled = {}  # (q, a mod q, b mod q) -> tiled pattern
    out = []
    for e in range(1, math.isqrt(height) + 1):
        e2, e3 = e * e, e ** 3
        a, b = A * e2 * e2, B * e3 * e3
        # bit k of mask stands for m = k - height
        mask = full
        for q in _SIEVE_MODULI:
            key = (q, a % q, b % q)
            tile = tiled.get(key)
            if tile is None:
                sq, aq, bq = squares[q], key[1], key[2]
                pattern = 0
                for j in range(q):
                    x = (j - height) % q
                    if (x * x * x + aq * x + bq) % q in sq:
                        pattern |= 1 << j
                tile = tiled[key] = pattern * repunit[q]
            mask &= tile
        bits = bin(mask)[:1:-1]
        k = bits.find("1")
        while k >= 0:
            m = k - height
            k = bits.find("1", k + 1)
            if e > 1 and math.gcd(m, e) != 1:
                continue
            t = m ** 3 + a * m + b
            if t < 0:
                continue
            r = math.isqrt(t)
            if r * r == t:
                out.append((Fraction(m, e2), Fraction(r, e3)))
    return out


def twist_point_to_curve(E: EllipticCurveData, delta: int, xy) -> GlobalPoint:
    """Map (x, y) on twist_model(E, delta) exactly to the point
    (x/delta, y/(delta sqrt(delta))) = (x/delta, (y/delta^2) sqrt(delta)) of
    E's short model; CurveError for a delta twist_model refuses."""
    _require_twist(E, delta)
    x, y = xy
    A, B = E.short_model()
    pt = GlobalPoint(Fraction(x, delta), Fraction(y, delta * delta), delta)
    if not pt.on_short_model(A, B):
        raise CurveError("twist point does not map onto the curve")
    return pt


def curve_add(coeffs, P, Q):
    """Chord-tangent addition on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    for coeffs = (a1, a2, a3, a4), over any field whose scalars compare by
    == (Fractions; capped Q_p and Q_p^2 scalars, equal to their precision);
    None encodes infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    a1, a2, a3, a4 = coeffs
    if x1 == x2:
        if _plus(y1 + y2, (a1, x1), (a3, 1)) == 0:
            return None
        lam = (_plus(3 * x1 * x1, (2 * a2, x1), (a4, 1), (-a1, y1))
               / _plus(2 * y1, (a1, x1), (a3, 1)))
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = _plus(lam * lam, (a1, lam), (-a2, 1)) - x1 - x2
    return (x3, _plus(lam * (x1 - x3) - y1, (-a1, x3), (-a3, 1)))


def _plus(x, *terms):
    """x + a*y for each (a, y) of terms in order, those with a = 0 left out."""
    for a, y in terms:
        if a:
            x = x + a * y
    return x


def point_order_divides(A: int, B: int, xy, n: int) -> bool:
    """Whether n P = O for the rational point P = xy on Y^2 = X^3 + AX + B,
    A and B integers, by exact double-and-add.

    By the Lutz-Nagell theorem (Silverman, The Arithmetic of Elliptic
    Curves, VIII.7.2) a torsion point of this integral model has integer
    coordinates, and so has each of its multiples.  So the first point of
    the double-and-add with a non-integral coordinate shows that P has
    infinite order, and the answer False is returned there, before the
    heights of the multiples grow.  ValueError for n < 0."""
    if n < 0:
        raise ValueError("the torsion test needs n >= 0, not %d" % n)
    if Fraction(A).denominator != 1 or Fraction(B).denominator != 1:
        raise CurveError("the torsion test needs an integral model")

    def integral(P):
        return P is None or (P[0].denominator == 1 and P[1].denominator == 1)

    law = (0, 0, 0, A)
    R, Q = None, (Fraction(xy[0]), Fraction(xy[1]))
    while n:
        if not integral(Q):
            return False
        if n & 1:
            R = curve_add(law, R, Q)
            if not integral(R):
                return False
        n >>= 1
        if n:
            Q = curve_add(law, Q, Q)
    return R is None
