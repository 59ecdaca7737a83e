import pytest

from starkheegner.arith import is_prime, primes_up_to, sqrt_mod_prime, valuation


def test_is_prime_matches_sieve():
    primes = set(primes_up_to(500))
    for n in range(-5, 501):  # n <= 1 included: never prime
        assert is_prime(n) == (n in primes), n


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
