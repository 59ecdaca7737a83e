import math

import pytest

from starkheegner.arith import (
    is_prime,
    lift_to_sl2,
    primes_up_to,
    sqrt_mod_prime,
    valuation,
)


def test_sqrt_mod_prime_every_residue():
    for p in primes_up_to(199):
        squares = {x * x % p for x in range(1, p)}
        for n in range(1, p):
            if n in squares:
                r = sqrt_mod_prime(n, p)
                assert r * r % p == n, (n, p)
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_prime(n, p)


def test_is_prime_matches_the_sieve():
    assert [n for n in range(10 ** 4 + 1) if is_prime(n)] == primes_up_to(10 ** 4)
    assert not any(is_prime(n) for n in (1, 0, -1, -2, -7, -10 ** 4))


def test_valuation_matches_division():
    for p in (2, 3, 5, 7):
        for n in range(-2000, 2001):
            if n == 0:
                continue
            v = 0
            while n % p ** (v + 1) == 0:
                v += 1
            assert valuation(n, p) == v, (n, p)


def test_valuation_of_zero_raises():
    with pytest.raises(ValueError):
        valuation(0, 5)


def test_lift_to_sl2_every_pair():
    # c = 0 admits only the bottom rows (0, +-1), so the class c = 0 mod N
    # is represented by c = N
    for N in range(1, 41):
        for c in range(1, N + 1):
            for d in range(N):
                if math.gcd(math.gcd(c, d), N) != 1:
                    with pytest.raises(ArithmeticError):
                        lift_to_sl2(c, d, N)
                    continue
                a, b, c2, d2 = lift_to_sl2(c, d, N)
                assert a * d2 - b * c2 == 1, (c, d, N)
                assert c2 == c and (d2 - d) % N == 0, (c, d, N)
