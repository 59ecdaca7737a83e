"""Elementary integer arithmetic shared across modules."""

from __future__ import annotations

import math
from functools import lru_cache


def xgcd(a: int, b: int):
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def lift_to_sl2(c: int, d: int, N: int):
    """A matrix in SL2(Z) with bottom row (c, d + t*N), t >= 0 least; raises
    ArithmeticError when no t <= N makes the row coprime (gcd(c, d, N) != 1)."""
    if math.gcd(c, d) != 1:
        for t in range(1, N + 1):
            if math.gcd(c, d + t * N) == 1:
                d += t * N
                break
    g, u, v = xgcd(c, d)
    if g != 1:
        raise ArithmeticError("no coprime lift of (%d : %d) mod %d: gcd %d"
                              % (c, d, N, g))
    return (v, -u, c, d)


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the integer n; ValueError for n = 0."""
    if n == 0:
        raise ValueError("exact zero has no finite valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@lru_cache(maxsize=None)
def factorize(n: int):
    """Prime factorization by trial division: tuple of (prime, exponent)."""
    n = abs(n)
    if n <= 1:
        return ()
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


def prime_divisors(n: int):
    return [p for p, _ in factorize(n)]


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def primes_up_to(n: int):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [i for i, fl in enumerate(sieve) if fl]


def sqrt_mod_prime(n: int, p: int) -> int:
    """A square root of n modulo the prime p, by Tonelli-Shanks.

    Raises ValueError if n is not a nonzero square mod p.
    """
    n %= p
    if n == 0 or pow(n, (p - 1) // 2, p) != 1:
        raise ValueError("%d is not a quadratic residue mod %d" % (n, p))
    if p % 4 != 1:  # p = 2 or p = 3 mod 4: one power suffices
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), standard conventions at 2, -1 and 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # pull out factors of 2 from n
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a|n) for odd n > 0 by reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1:
        return True
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def prime_discriminant_factors(d: int):
    """Factor a fundamental discriminant into prime discriminants.

    Returns the list of prime discriminants (p* = +/-p, -4, +/-8) whose
    product is d.
    """
    if not is_fundamental_discriminant(d):
        raise ValueError("%d is not a fundamental discriminant" % d)
    if d == 1:
        return []
    parts = []
    rest = d
    for p, _ in factorize(abs(d)):
        if p == 2:
            continue
        ps = p if p % 4 == 1 else -p
        parts.append(ps)
        rest //= ps
    if rest != 1:
        # the 2-part: one of -4, 8, -8
        if rest not in (-4, 8, -8):
            raise ArithmeticError("2-part %d of %d is not -4, 8 or -8" % (rest, d))
        parts.append(rest)
    return sorted(parts, key=abs)


def surd_sign(a: int, b: int, delta: int) -> int:
    """Sign of a + b*sqrt(delta) for delta > 0 non-square, exactly."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2*delta
    lhs, rhs = a * a, b * b * delta
    if lhs == rhs:
        raise ValueError("surd is zero; delta must be non-square")
    big_is_a = lhs > rhs
    return (1 if a > 0 else -1) if big_is_a else (1 if b > 0 else -1)


def mat_mul(g, h):
    return (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
            g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])


def mat_adj(g):
    """Adjugate (d, -b; -c, a) of (a, b; c, d): g * mat_adj(g) = det(g) * I."""
    a, b, c, d = g
    return (d, -b, -c, a)


def mat_inv(g):
    """Inverse of an SL2(Z) matrix: its adjugate, the determinant-1 case."""
    if g[0] * g[3] - g[1] * g[2] != 1:
        raise ValueError("not in SL2(Z)")
    return mat_adj(g)


MAT_ID = (1, 0, 0, 1)
