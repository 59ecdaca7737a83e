"""Capped-precision arithmetic in Q_p and its unramified quadratic extension.

Elements carry an exact valuation and an absolute precision N ("known mod
p^N").  Precision bookkeeping is pessimistic by construction: a sum is known
to the coarser of the two absolute precisions, a product to
min(v1+N2, v2+N1).  The quadratic extension is realized on the basis (1, w)
with w^2 a Teichmueller lift of the smallest quadratic non-residue mod p, so
that Frobenius is the sign flip b -> -b.  That lift is ``teichmuller``, the
package's one Teichmueller lift, applied to the non-residue as a Q_p value.

Both types answer ``valuation()``, ``precision()``, ``p`` and ``shift(k)``
(an exact multiplication by p^k), share the arithmetic written once in
``_Capped``, and embed integers, Fractions and (in the extension) Q_p values
through their own ``_coerce``.  So each function below has one body for Q_p
and Q_p^2:

- ``log_series_length(w, N, p)``, the first K with K w - ilog_p(K) >= N,
  cuts every log series: the terms k >= K of log(1 + y), v(y) = w, vanish
  mod p^N.  ``log_table(p, K, N)`` tables the terms k < K: M = p^(N + g)
  for g = ilog_p(K - 1), and per k p^v_p(k) with the signed inverse of k's
  unit part mod p^N; (y^k mod M) // p^v_p(k) times it is term k mod p^N.
  ``iwasawa_log`` reads both, oms's kernels the table, and tate's
  ``formal_log`` the cut, its terms obeying the same bound.
- ``iwasawa_log`` writes x = p^v u and returns log(1 + y)/(p^2 - 1) for
  y = u^(p^2 - 1) - 1.  Every root of unity of Q_p or Q_p^2 has order
  dividing p^2 - 1, so this is the branch with log(p) = 0 and needs no
  Teichmueller lift.  Each type hands u as integer digits (a, b) to one
  kernel over Z_p[w]/(w^2 - eps), (a, 0) for Q_p, where a pair product is
  one integer product; it sums the table's terms at y mod M.
- The w^2 rule: eps is right to ctx.N digits, so (p^k w)^2 = p^2k eps to
  ctx.N + 2k (``_square_digits``).  So the log of u = a + b w is known to
  u's relative precision capped at ctx.N + 2 v(b), none lost when b = 0,
  and ``QuadExtContext.sqrt``, the one square root, of a Q_p value, to a's
  relative precision capped at ctx.N when the root lies in Q_p w.
- ``exp_p`` sums x^k/k! up to the last k at which the lower bound
  v(x^k/k!) >= k v(x) - (k - 1)/(p - 1) is still below N (Legendre:
  v_p(k!) <= (k - 1)/(p - 1)).  The bound rises with k, but the exact
  valuations need not (v_5(25!) jumps by 2), so stopping at the first
  negligible term can drop a later one that is not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import sqrt_mod_prime, valuation


class PrecisionError(ArithmeticError):
    """Requested digits exceed what the inputs can justify."""

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


class _Capped:
    """The arithmetic Q_p and Q_p^2 share, written once over each type's
    ``_coerce``, ``__add__``, ``__neg__``, ``__mul__`` and ``inverse``."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return self._coerce(1)
        if n < 0:
            raise ValueError("negative power %d: invert first" % n)
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("capped-precision values are unhashable")


class PadicScalar(_Capped):
    """An element of Q_p known modulo p^N.

    Internal form: value = p^v * unit with unit a unit mod p^(N-v).
    ``v == N`` encodes "zero to precision N" (O(p^N)); exact zeros are the
    same thing with whatever N the context supplies.
    """

    __slots__ = ("p", "v", "unit", "N")

    def __init__(self, p: int, v: int, unit: int, N: int):
        if v >= N:
            v, unit = N, 0
        else:
            unit %= p ** (N - v)
            if unit % p == 0:
                raise ValueError("unit part divisible by p")
        self.p = p
        self.v = v
        self.unit = unit
        self.N = N

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, N: int) -> "PadicScalar":
        return cls(p, N, 0, N)

    @classmethod
    def from_int(cls, p: int, n: int, N: int) -> "PadicScalar":
        n_mod = n % p ** N
        if n_mod == 0:
            return cls.zero(p, N)
        v = valuation(n_mod, p)
        return cls(p, v, n_mod // p ** v, N)

    @classmethod
    def from_fraction(cls, p: int, q, N: int) -> "PadicScalar":
        q = Fraction(q)
        if q == 0:
            return cls.zero(p, N)
        vn = valuation(q.numerator, p) if q.numerator else 0
        vd = valuation(q.denominator, p)
        v = vn - vd
        if v >= N:
            return cls.zero(p, N)
        m = p ** (N - v)
        num = q.numerator // p ** vn
        den = q.denominator // p ** vd
        unit = num * pow(den, -1, m) % m
        return cls(p, v, unit, N)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.v >= self.N

    def valuation(self) -> int:
        """Exact valuation; for (in)exact zeros this is the precision floor."""
        return self.v

    def precision(self) -> int:
        return self.N

    def residue(self) -> int:
        """The value as an integer mod p^N (requires v >= 0)."""
        if self.is_zero():
            return 0
        if self.v < 0:
            raise ValueError("negative valuation, not a p-adic integer")
        return (self.unit * self.p ** self.v) % self.p ** self.N

    def with_precision(self, N: int) -> "PadicScalar":
        if N > self.N:
            raise PrecisionError("cannot raise precision from %d to %d"
                                 % (self.N, N), self.N)
        return PadicScalar(self.p, self.v, self.unit, N)  # zero if v >= N

    def shift(self, k: int) -> "PadicScalar":
        """The value times p^k, exactly: valuation and precision move by k."""
        return PadicScalar(self.p, self.v + k, self.unit, self.N + k)

    def _log_digits(self):
        """(a, b, eps, N): the value over p^v is a + b w mod p^N."""
        return self.unit, 0, 0, self.N - self.v

    def _from_log_digits(self, a: int, b: int, N: int) -> "PadicScalar":
        return PadicScalar.from_int(self.p, a, N)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.p != self.p:
                raise ValueError("prime mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicScalar.from_fraction(self.p, other, self.N)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        N = min(self.N, other.N)
        v0 = min(self.v, other.v)  # >= N if both are zero
        if v0 >= N:
            return PadicScalar.zero(self.p, N)
        m = self.p ** (N - v0)
        a = 0 if self.is_zero() else self.unit * self.p ** (self.v - v0)
        b = 0 if other.is_zero() else other.unit * other.p ** (other.v - v0)
        s = (a + b) % m
        if s == 0:
            return PadicScalar.zero(self.p, N)
        w = valuation(s, self.p)
        return PadicScalar(self.p, v0 + w, s // self.p ** w, N)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return PadicScalar(self.p, self.v, -self.unit, self.N)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # relative precision of a product = min of relative precisions
        N = min(self.v + other.N, other.v + self.N)
        v = self.v + other.v  # >= N if either is zero
        if v >= N:
            return PadicScalar.zero(self.p, N)
        return PadicScalar(self.p, v, self.unit * other.unit, N)

    __rmul__ = __mul__

    def inverse(self) -> "PadicScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverting a p-adic zero")
        r = self.N - self.v  # relative precision
        m = self.p ** r
        return PadicScalar(self.p, -self.v, pow(self.unit, -1, m), r - self.v)

    def __repr__(self):
        if self.is_zero():
            return "O(%d^%d)" % (self.p, self.N)
        return "%d*%d^%d + O(%d^%d)" % (self.unit % self.p ** min(self.N - self.v, 6),
                                        self.p, self.v, self.p, self.N)


class QuadExtScalar(_Capped):
    """Element a + b*w of the unramified quadratic extension F_p of Q_p.

    w^2 = eps, the Teichmueller lift of a non-residue, so conj(w) = -w and
    Frobenius is (a, b) -> (a, -b).
    """

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: "QuadExtContext", a: PadicScalar, b: PadicScalar):
        self.ctx = ctx
        self.a = a
        self.b = b

    @property
    def p(self):
        return self.ctx.p

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def valuation(self) -> int:
        # (1, w) is a basis of the residue field, so v = min componentwise
        return min(self.a.v, self.b.v)

    def precision(self) -> int:
        return min(self.a.N, self.b.N)

    def shift(self, k: int) -> "QuadExtScalar":
        """The value times p^k, exactly."""
        return QuadExtScalar(self.ctx, self.a.shift(k), self.b.shift(k))

    def _log_digits(self):
        """(a, b, eps, N): the value over p^v is a + b w mod p^N, N capped by
        the w^2 rule (see the module docstring)."""
        v = self.valuation()
        a, b = (0 if c.is_zero() else c.unit * c.p ** (c.v - v)
                for c in (self.a, self.b))
        return (a, b, self.ctx.eps,
                min(self.precision() - v, self.ctx._square_digits(self.b.v - v)))

    def _from_log_digits(self, a: int, b: int, N: int) -> "QuadExtScalar":
        return self.ctx.from_ints(a, b, N)

    def _coerce(self, other):
        if isinstance(other, QuadExtScalar):
            return other
        if isinstance(other, PadicScalar):
            return self.ctx.embed(other)
        if isinstance(other, (int, Fraction)):
            return self.ctx.embed(PadicScalar.from_fraction(self.p, other, self.precision()))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExtScalar(self.ctx, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(self.ctx, -self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        eps = self.ctx.eps_scalar
        a = self.a * other.a + eps * (self.b * other.b)
        b = self.a * other.b + self.b * other.a
        return QuadExtScalar(self.ctx, a, b)

    __rmul__ = __mul__

    def frobenius(self) -> "QuadExtScalar":
        return QuadExtScalar(self.ctx, self.a, -self.b)

    def norm(self) -> PadicScalar:
        return self.a * self.a - self.ctx.eps_scalar * (self.b * self.b)

    def inverse(self) -> "QuadExtScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in F_p")
        n_inv = self.norm().inverse()
        return QuadExtScalar(self.ctx, self.a * n_inv, -self.b * n_inv)

    def __repr__(self):
        return "(%r) + (%r)*w" % (self.a, self.b)


class QuadExtContext:
    """Fixed prime, working precision, and the basis constant eps = w^2."""

    def __init__(self, p: int, N: int):
        if p == 2:
            raise ValueError("p = 2 not supported")
        self.p = p
        self.N = N
        r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        self.eps = teichmuller(PadicScalar.from_int(p, r, N)).residue()
        self.eps_scalar = PadicScalar.from_int(p, self.eps, N)

    def embed(self, a: PadicScalar) -> QuadExtScalar:
        return QuadExtScalar(self, a, PadicScalar.zero(self.p, a.N))

    def from_ints(self, a: int, b: int, N: int) -> QuadExtScalar:
        return QuadExtScalar(self, PadicScalar.from_int(self.p, a, N),
                             PadicScalar.from_int(self.p, b, N))

    def _square_digits(self, k: int) -> int:
        """Digits of (p^k w)^2 = p^2k eps: eps is right to N, no further."""
        return self.N + 2 * k

    def sqrt(self, a: PadicScalar) -> QuadExtScalar:
        """A square root in F_p of a in Q_p of even valuation 2j: p^j times
        the Hensel root of a's unit part u, in Q_p if u is a residue mod p
        and in Q_p w otherwise, with the digits the w^2 rule backs."""
        v, p = a.valuation(), self.p
        if a.is_zero() or v % 2:
            raise ValueError("%r has no square root in F_p: zero or odd "
                             "valuation" % a)
        N = a.N - v
        if pow(a.unit, (p - 1) // 2, p) == 1:
            root = self.embed(PadicScalar(p, 0, _sqrt_int(a.unit, p, N), N))
        else:  # the unit over eps is a residue
            N = min(N, self._square_digits(0))
            t = _sqrt_int(a.unit * pow(self.eps, -1, p ** N), p, N)
            root = self.from_ints(0, t, N)
        return root.shift(v // 2)


# -- integer-level kernels --------------------------------------------------

def _sqrt_int(n: int, p: int, N: int) -> int:
    """Hensel-lifted square root of a quadratic-residue unit mod p^N."""
    m = p ** N
    n %= m
    x = sqrt_mod_prime(n, p)
    inv2 = pow(2, -1, m)
    k = 1
    while k < N:
        x = (x + n * pow(x, -1, m)) * inv2 % m
        k *= 2
    if (x * x - n) % m:
        raise ArithmeticError("Hensel lift %d is not a square root of %d "
                              "mod %d^%d" % (x, n, p, N))
    return x


def _ilog(k: int, p: int) -> int:
    """The largest e with p^e <= k (0 for k < p)."""
    e = 0
    while k >= p:
        k //= p
        e += 1
    return e


def log_series_length(w: int, N: int, p: int) -> int:
    """The first K with K w - ilog_p(K) >= N: for v(y) = w >= 1, the terms
    k >= K of log(1 + y) = sum (-1)^(k+1) y^k/k vanish mod p^N, as that
    bound rises with k."""
    K = 1
    while K * w - _ilog(K, p) < N:
        K += 1
    return K


@lru_cache(maxsize=None)
def log_table(p: int, K: int, N: int):
    """(M, terms) for the terms k < K of log(1 + y) mod p^N, for v(y) >= 1:
    M = p^(N + g) with g = ilog_p(K - 1), the largest v_p(k) of a term kept,
    and terms[k - 1] = (p^e, (-1)^(k+1) (k/p^e)^-1 mod p^N), e = v_p(k).
    Term k is then (y^k mod M) // p^e times its inverse, right mod p^N."""
    mod = p ** N
    terms = []
    for k in range(1, K):
        pe = p ** valuation(k, p)
        inv = pow(k // pe, -1, mod)
        terms.append((pe, inv if k % 2 else mod - inv))
    return p ** (N + _ilog(K - 1, p)), tuple(terms)


def _pair_pow(a: int, b: int, n: int, eps: int, m: int):
    """(a + b w)^n mod m in Z[w]/(w^2 - eps), as a pair."""
    if not b:
        return pow(a, n, m), 0
    ra, rb = 1, 0
    for bit in bin(n)[2:]:
        ra, rb = (ra * ra + eps * rb * rb) % m, 2 * ra * rb % m
        if bit == "1":
            ra, rb = (ra * a + eps * rb * b) % m, (ra * b + rb * a) % m
    return ra, rb


def _log_kernel(p: int, a: int, b: int, eps: int, N: int):
    """(la, lb) with la + lb w = iwasawa_log(a + b w) mod p^N, for a unit
    a + b w of Z_p[w]/(w^2 - eps) (see the module docstring)."""
    order = p * p - 1
    m, terms = log_table(p, log_series_length(1, N, p), N)
    mod = p ** N
    ya, yb = _pair_pow(a, b, order, eps, m)
    ya = (ya - 1) % m
    if ya % mod == 0 and yb % mod == 0:
        return 0, 0
    w = min(valuation(y, p) for y in (ya, yb) if y)
    if w < 1:
        raise ArithmeticError("%r + %r w is not a unit mod %d" % (a, b, p))
    sa = sb = 0
    pa, pb = 1, 0
    for pe, inv in terms[:log_series_length(w, N, p) - 1]:
        if yb:
            pa, pb = (pa * ya + eps * pb * yb) % m, (pa * yb + pb * ya) % m
        else:
            pa = pa * ya % m
        sa += (pa // pe) * inv
        sb += (pb // pe) * inv
    scale = pow(order, -1, mod)
    return sa * scale % mod, sb * scale % mod


# -- Teichmueller / exp / log ------------------------------------------------

def teichmuller(x):
    """Teichmueller lift: the root of unity congruent to the unit x.

    x^(p^2) fixes every root of unity of Q_p and Q_p^2 and gains two digits
    on the rest, so the N-digit lift is x^((p^2)^(N-1)), one integer power."""
    if x.is_zero() or x.valuation() != 0:
        raise ValueError("not a unit")
    a, b, eps, N = x._log_digits()
    return x._from_log_digits(*_pair_pow(a, b, x.p ** (2 * N - 2), eps, x.p ** N), N)


def iwasawa_log(x):
    """The branch with log(p) = 0, on all of the unit group times p^Z."""
    if x.is_zero():
        raise ValueError("log of zero")
    a, b, eps, N = x._log_digits()
    if N < 1:
        raise PrecisionError("no digit of %r over p^%d is known"
                             % (x, x.valuation()), 0)
    return x._from_log_digits(*_log_kernel(x.p, a, b, eps, N), N)


def exp_p(x):
    """p-adic exponential, domain v(x) >= 1 (p odd)."""
    one = x ** 0
    if x.is_zero():
        return one
    w, N, p = x.valuation(), x.precision(), x.p
    if w < 1:
        raise ValueError("exp_p needs v >= 1")
    # every term after the kmax-th has v >= k w - (k - 1)/(p - 1) >= N
    kmax = 0
    while (kmax + 1) * w - kmax // (p - 1) < N:
        kmax += 1
    total = term = one
    for k in range(1, kmax + 1):
        term = term * x * Fraction(1, k)
        total = total + term
    return total


def reconstruct_scalar(x: PadicScalar, bound: int):
    """The fraction a/b * p^v, |a|, |b| <= bound, b > 0 and gcd(a, b) = 1,
    with a = u*b mod p^(N - v) for the unit part u of x; None when no such
    fraction exists.

    Raises PrecisionError unless 2*bound^2 <= p^(N - v), which makes it
    unique.
    """
    if x.is_zero():
        return Fraction(0)
    modulus = x.p ** (x.N - x.v)
    if 2 * bound * bound > modulus:
        raise PrecisionError("insufficient precision for bound %d" % bound)
    u = x.unit % modulus
    r0, r1 = modulus, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    a, b = r1, t1
    if b == 0 or abs(b) > bound:
        return None
    if b < 0:
        a, b = -a, -b
    if math.gcd(a, b) != 1 or (a - u * b) % modulus != 0:
        return None
    return Fraction(a, b) * Fraction(x.p) ** x.v
