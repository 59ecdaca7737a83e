import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starkheegner.arith import valuation
from starkheegner.padics import (
    PadicScalar,
    PrecisionError,
    QuadExtContext,
    QuadExtScalar,
    exp_p,
    iwasawa_log,
    log_series_length,
    log_table,
    reconstruct_scalar,
    teichmuller,
)

from oracle_tate import LogBranch


P = 5
N = 12


def S(x, prec=N, p=P):
    return PadicScalar.from_fraction(p, Fraction(x), prec)


# ---------------------------------------------------------------- teichmuller

def test_teichmuller_fixed_point():
    assert teichmuller(S(1, 2)).with_precision(2).residue() == 1


def test_teichmuller_minus_one():
    assert teichmuller(S(4, 2)).with_precision(2).residue() == 24


def test_teichmuller_of_two_brute_force():
    # oracle: the only x = 2 mod 5 with x^4 = 1 mod 25 among 2,7,12,17,22
    want = [x for x in range(2, 25, 5) if pow(x, 4, 25) == 1]
    assert want == [7]
    assert teichmuller(S(2, 2)).with_precision(2).residue() == 7


def test_teichmuller_non_unit_rejected():
    with pytest.raises(ValueError):
        teichmuller(S(5))


def test_extension_constant_is_teichmuller_lift_of_least_nonresidue():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        r = min(set(range(1, p)) - squares)
        for prec in (1, 5, 20, 40):
            eps = QuadExtContext(p, prec).eps
            assert 0 <= eps < p ** prec and eps % p == r, (p, prec)
            assert pow(eps, p - 1, p ** prec) == 1, (p, prec)


def test_teichmuller_quadratic_full_order():
    ctx = QuadExtContext(P, 8)
    u = ctx.from_ints(2, 3, 8)
    z = teichmuller(u)
    assert (z ** (P * P - 1)) == ctx.from_ints(1, 0, 8)
    # congruent to u mod p
    assert (z - u).valuation() >= 1


# ----------------------------------------------------------------- log / exp

def test_log_forced_series_example():
    # log(1+5) = 5 - 25/2 + 125/3 - ... = 55 mod 125
    got = iwasawa_log(S(6, 3))
    assert got.with_precision(3).residue() == 55


def test_exp_forced_series_example():
    got = exp_p(S(5, 3))
    assert got.with_precision(3).residue() == 81


def test_exp_domain_error():
    with pytest.raises(ValueError):
        exp_p(S(2))


def test_exp_log_round_trip():
    x = S(Fraction(1 + 2 * P))
    assert exp_p(iwasawa_log(x)) == x


def test_log_of_root_of_unity_is_zero():
    z = teichmuller(S(3))
    assert iwasawa_log(z).is_zero()


def _exact_exp(p, n, N):
    """exp(n) mod p^N for an integer n with p | n, summed in Fractions far
    past the last term that can matter."""
    w = valuation(n, p)
    total = term = Fraction(1)
    for k in range(1, 2 * N + 4):
        term = term * n / k
        total += term
    assert (2 * N + 4) * w - (2 * N + 3) // (p - 1) > N
    m = p ** N
    return total.numerator * pow(total.denominator, -1, m) % m


def test_exp_precision_is_backed_past_nonmonotone_terms():
    # v_5(5^k/k!) is 20 at k = 24 and 19 at k = 25, so a sum stopped at the
    # first negligible term misses the 25th and is wrong in its last digit
    got = exp_p(PadicScalar.from_int(5, 5, 20))
    assert got.precision() == 20
    assert got.with_precision(20).residue() == _exact_exp(5, 5, 20)
    for p in (3, 5, 7):
        for N in (10, 19, 20, 21, 30):
            for n in (p, 2 * p, p * p, (p - 1) * p):
                got = exp_p(PadicScalar.from_int(p, n, N))
                assert got.precision() == N
                assert got.with_precision(N).residue() == _exact_exp(p, n, N), (p, N, n)


def test_log_table_reads_off_every_term_of_the_log():
    # term k < K of log(1 + y), p | y, is (y^k mod M) // p^e times the
    # table's inverse, mod p^N; with one guard digit fewer some term is wrong
    rng = random.Random(35)
    for p in (3, 5, 7, 11):
        short_fails = False
        for prec in range(1, 41):
            K = log_series_length(1, prec, p)
            M, terms = log_table(p, K, prec)
            assert len(terms) == K - 1
            for _ in range(3):
                y = p * rng.randrange(1, p ** prec)
                for k, (pe, inv) in enumerate(terms, 1):
                    exact = Fraction((-1) ** (k + 1) * y ** k, k)
                    got = pow(y, k, M) // pe * inv
                    assert (got - exact).numerator % p ** prec == 0, (p, prec, y, k)
                    if prec > p:
                        short = pow(y, k, M // p) // pe * inv
                        short_fails |= (short - exact).numerator % p ** prec != 0
        assert short_fails, p


# ------------------------------------------------------ log / exp on Q_p^2

def _teichmuller_route_log(x):
    """The log branch with log(p) = 0 computed the long way: divide x/p^v by
    its Teichmueller lift, then sum the series of log(1 + y) term by term."""
    p, v = x.p, x.valuation()
    if v:
        x = x * PadicScalar(p, -v, 1, x.precision() + abs(v) + 2)
    y = x / teichmuller(x) - 1
    if y.is_zero():
        return y
    total = power = y
    for k in range(2, 2 * y.precision() + 2):
        power = power * y
        total = total + power * Fraction((-1) ** (k + 1), k)
    return total


def _quadratic_samples(ctx, prec, count, rng):
    """p^v (a + b w) for v = 0, 1, 2 and count draws of units a, b."""
    p = ctx.p
    out = []
    while len(out) < count:
        a, b = rng.randrange(p ** prec), rng.randrange(p ** prec)
        if a % p and b % p:
            out += [ctx.from_ints(a * p ** v, b * p ** v, prec) for v in (0, 1, 2)]
    return out


def test_iwasawa_log_on_quadratic_units_matches_teichmuller_route():
    rng = random.Random(11)
    for prec in (8, 20):
        ctx = QuadExtContext(P, prec)
        for x in _quadratic_samples(ctx, prec, 8, rng):
            assert not x.b.is_zero()
            got = iwasawa_log(x)
            want = _teichmuller_route_log(x)
            assert got == want
            assert got.precision() == want.precision() == prec - x.valuation()


def _series_route_log(x):
    """iwasawa_log by capped-precision arithmetic, as the package computed it
    before its integer kernel: log(1 + y)/(p^2 - 1) for y = u^(p^2 - 1) - 1,
    x = p^v u, summed term by term with a Fraction coefficient each."""
    order = x.p ** 2 - 1
    y = x.shift(-x.valuation()) ** order - 1
    if y.is_zero():
        return y / order
    w, N, p = y.valuation(), y.precision(), y.p
    nmax = 1
    while nmax * w - int(math.log(nmax, p)) < N:
        nmax += 1
    total = power = y
    for k in range(2, nmax + 1):
        power = power * y
        total = total + power * Fraction((-1) ** (k + 1), k)
    return total / order


def _assert_same_log(x):
    got, want = iwasawa_log(x), _series_route_log(x)
    assert got == want, x
    assert got.valuation() == want.valuation(), x
    assert got.precision() == want.precision(), x
    return got


def test_iwasawa_log_matches_series_route_on_qp():
    # units, their multiples by p^v and Teichmueller roots (log zero, known
    # to the relative precision of the input); N = 33 and 40 at p = 3 keep
    # terms k = 27 of v_3(k) = 3, which need every guard digit
    rng = random.Random(21)
    for p in (3, 5, 7, 11):
        for N in (1, 2, 6, 12, 20, 33, 40):
            for v in range(-3, 4):
                for _ in range(3):
                    u = rng.randrange(p ** N)
                    x = PadicScalar(p, v, u if u % p else u + 1, N + v)
                    assert _assert_same_log(x).precision() == N
                for r in range(1, p, 3):
                    z = teichmuller(PadicScalar.from_int(p, r, N)).shift(v)
                    got = _assert_same_log(z)
                    assert got.is_zero() and got.precision() == N


def test_iwasawa_log_matches_series_route_on_quadratic_inputs():
    # units times p^v, scalar-valued inputs, and inputs less and more
    # precise than ctx.N, where eps = w^2 caps the precision of the log
    rng = random.Random(22)
    for prec in (6, 8, 20, 40):
        ctx = QuadExtContext(P, prec)
        xs = _quadratic_samples(ctx, prec, 4, rng)
        for dn in (-2, 0, 3):
            u = rng.randrange(P ** 6) * P + 2
            xs += [ctx.embed(PadicScalar(P, v, u, prec + dn)) for v in (-1, 0, 2)]
        for dn in (-2, 2, 5):
            a, b = rng.randrange(P ** 8) * P + 1, rng.randrange(P ** 8) * P + 3
            xs += [ctx.from_ints(a * P ** v, b * P ** vb, prec + dn)
                   for v in (0, 1) for vb in (0, 1, 2)]
        for x in xs:
            _assert_same_log(x)
    for p in (3, 7):
        ctx = QuadExtContext(p, 12)
        for x in _quadratic_samples(ctx, 12, 3, rng):
            _assert_same_log(x)


def test_iwasawa_log_precision_caps_at_eps_digits():
    # w^2 = eps is known to ctx.N digits, so a log with a w-part of
    # valuation v_b is known to at most ctx.N + 2 v_b digits; a
    # scalar-valued log keeps the precision of its input
    ctx = QuadExtContext(P, 10)
    assert _assert_same_log(ctx.from_ints(7, 3, 12)).precision() == 10
    assert _assert_same_log(ctx.from_ints(7, 3 * P, 14)).precision() == 12
    assert _assert_same_log(ctx.from_ints(7, 0, 12)).precision() == 12
    assert _assert_same_log(ctx.embed(S(7, 12))).precision() == 12


def test_iwasawa_log_without_known_digits_raises():
    # p^3 (0 + u w) known mod p^3: no digit of the unit is known
    ctx = QuadExtContext(P, 6)
    x = QuadExtScalar(ctx, PadicScalar.zero(P, 3), PadicScalar(P, 3, 2, 9))
    with pytest.raises(PrecisionError) as err:
        iwasawa_log(x)
    assert err.value.achievable == 0


def test_precision_errors_carry_the_digits_known():
    x = S(7, 10)
    with pytest.raises(PrecisionError) as err:
        x.with_precision(11)
    assert err.value.achievable == 10


def test_log_q_additive_on_quadratic_inputs():
    rng = random.Random(12)
    br = _branch(2)
    ctx = QuadExtContext(P, N)
    xs = _quadratic_samples(ctx, N, 4, rng)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        lhs = br.log(x * y)
        rhs = br.log(x) + br.log(y)
        assert lhs == rhs


def test_exp_log_round_trip_on_quadratic_inputs():
    rng = random.Random(13)
    for prec in (8, 20):
        ctx = QuadExtContext(P, prec)
        for _ in range(10):
            a, b, c, d = (P * rng.randrange(1, P ** (prec - 1)) for _ in range(4))
            x = ctx.from_ints(1 + a, b, prec)   # in 1 + pO, not in Q_p
            z = ctx.from_ints(c, d, prec)       # in pO, not in Q_p
            assert not x.b.is_zero() and not z.b.is_zero()
            assert exp_p(iwasawa_log(x)) == x
            assert iwasawa_log(exp_p(z)) == z


def _branch(vq=1):
    q = S(P ** vq * 7)  # q = 7*p^vq, a generic Tate-like period
    return LogBranch(q)


def test_log_q_of_q_is_zero():
    br = _branch()
    assert br.log(br.q).is_zero()


def test_log_q_additive():
    br = _branch(2)
    x = S(Fraction(3, 7))
    y = S(2 * 5)
    lhs = br.log(x * y)
    rhs = br.log(x) + br.log(y)
    assert lhs == rhs


def test_log_q_frobenius_commutes():
    ctx = QuadExtContext(P, N)
    br = _branch()
    x = ctx.from_ints(3, 4, N)
    lhs = br.log(x.frobenius())
    rhs = br.log(x).frobenius()
    assert lhs == rhs


# ---------------------------------------------------------------- frobenius

def test_frobenius_fixes_scalars_and_flips_omega():
    ctx = QuadExtContext(P, N)
    x = ctx.embed(S(17))
    assert x.frobenius() == x
    w = ctx.from_ints(0, 1, N)
    assert w.frobenius() == -w
    y = ctx.from_ints(2, 9, N)
    assert y.frobenius().frobenius() == y


def test_norm_lands_in_base_field():
    ctx = QuadExtContext(P, N)
    y = ctx.from_ints(2, 9, N)
    n = y.norm()
    assert isinstance(n, PadicScalar)
    assert y * y.frobenius() == ctx.embed(n)


def test_sqrt_of_int():
    ctx = QuadExtContext(P, N)
    for n in (6, 13, 2, 11):
        r = ctx.sqrt(PadicScalar.from_int(P, n, N))
        assert r * r == ctx.from_ints(n, 0, N)


def test_sqrt_squares_back_to_every_even_valuation_input():
    # at p = 5 the units include test_sqrt_of_int's 6, 13, 2 and 11
    for p in (3, 5, 7, 11):
        ctx = QuadExtContext(p, N)
        residues = {n * n % p for n in range(1, p)}
        units = [n for n in range(1, 3 * p) if n % p]
        assert {n % p in residues for n in units} == {True, False}
        for n in units:
            for v in (-2, 0, 2, 4):
                a = PadicScalar.from_int(p, n, N).shift(v)
                r = ctx.sqrt(a)
                assert r * r == ctx.embed(a), (p, n, v)
                assert r.valuation() == v // 2
                assert r.precision() == v // 2 + N
                assert r.b.is_zero() == (n % p in residues)


def test_sqrt_claims_only_the_digits_eps_backs():
    # eps = w^2 is right to ctx.N digits, so a root in Q_p w asked for more
    # keeps ctx.N relative digits and one in Q_p keeps them all; every digit
    # claimed survives a context 10 digits wider
    for p in (3, 5, 7):
        residues = {n * n % p for n in range(1, p)}
        for N in (10, 20):
            ctx, wide = QuadExtContext(p, N), QuadExtContext(p, N + 10)
            for n in range(1, 3 * p):
                if n % p == 0:
                    continue
                for v in (0, 2):
                    a = PadicScalar.from_int(p, n, N + 8).shift(v)
                    got = ctx.sqrt(a)
                    far = wide.sqrt(PadicScalar.from_int(p, n, N + 10).shift(v))
                    case = (p, N, n, v)
                    assert got.precision() == v // 2 + (
                        N + 8 if n % p in residues else N), case
                    assert (got - far).is_zero(), case


def test_sqrt_rejects_odd_valuation_and_zero():
    for p in (3, 5, 7, 11):
        ctx = QuadExtContext(p, N)
        for a in (PadicScalar.from_int(p, p, N), PadicScalar.from_int(p, 2, N).shift(-3),
                  PadicScalar.zero(p, N)):
            with pytest.raises(ValueError):
                ctx.sqrt(a)


# ------------------------------------------------------- rational reconstruct

def test_reconstruct_small_fraction():
    m = 5 ** 10
    x = 2 * pow(3, -1, m) % m
    assert reconstruct_scalar(S(x, 10), 100) == Fraction(2, 3)


def test_reconstruct_integer():
    assert reconstruct_scalar(S(7, 10), 100) == Fraction(7)


def test_reconstruct_absent():
    m = 5 ** 10
    # oracle: exhaustive scan certifies x has no representative of height <= 10
    x = 123456
    assert all((a - x * b) % m != 0
               for b in range(1, 11) for a in range(-10, 11))
    assert reconstruct_scalar(S(x, 10), 10) is None


def test_reconstruct_bound_guard():
    with pytest.raises(PrecisionError):
        reconstruct_scalar(S(3, 4), 100)


def test_reconstruct_scalar_with_valuation():
    x = S(Fraction(6, 25))
    assert reconstruct_scalar(x, 50) == Fraction(6, 25)


# ------------------------------------------------------ precision bookkeeping

def test_sum_precision_is_min():
    a = S(1, 10)
    b = S(1, 4)
    assert (a + b).precision() == 4


def test_product_precision_rule():
    a = PadicScalar(P, 2, 3, 10)   # v=2, known mod p^10
    b = PadicScalar(P, 1, 2, 5)    # v=1, known mod p^5
    c = a * b
    assert c.precision() == min(2 + 5, 1 + 10)
    assert c.valuation() == 3


def test_cancellation_detected():
    a = S(7, 6)
    b = S(-7 + 5 ** 6, 6)
    assert (a + b).is_zero()


rationals = st.builds(
    Fraction,
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(1, 10 ** 4).filter(lambda d: d % P != 0),
)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms_to_precision(x, y, z):
    X, Y, Z = S(x), S(y), S(z)
    assert (X + Y) * Z == X * Z + Y * Z
    assert X * Y == Y * X
    assert (X - X).is_zero()
    if y != 0:
        assert (X / Y) * Y == X


@settings(max_examples=150, deadline=None)
@given(rationals.filter(lambda q: q != 0), rationals.filter(lambda q: q != 0))
def test_log_q_homomorphism_property(x, y):
    br = _branch()
    lhs = br.log(S(x) * S(y))
    rhs = br.log(S(x)) + br.log(S(y))
    diff = lhs - rhs
    assert diff.is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5 ** 6 - 1), st.integers(0, 5 ** 6 - 1),
       st.integers(0, 5 ** 6 - 1), st.integers(0, 5 ** 6 - 1))
def test_frobenius_is_ring_map(a, b, c, d):
    ctx = QuadExtContext(P, 6)
    x = ctx.from_ints(a, b, 6)
    y = ctx.from_ints(c, d, 6)
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()
    assert (x * y).frobenius() == x.frobenius() * y.frobenius()


def test_exact_matching_of_embedded_rationals():
    # embedding Q -> Q_p is a ring map on a sample
    for q1 in (Fraction(3, 7), Fraction(-2, 11), Fraction(9)):
        for q2 in (Fraction(1, 3), Fraction(8, 7)):
            assert S(q1) * S(q2) == S(q1 * q2)
            assert S(q1) + S(q2) == S(q1 + q2)
