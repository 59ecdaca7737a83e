import pytest

from starkheegner.arith import is_prime, primes_up_to, sqrt_mod_prime


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
