import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from starkheegner import genus, quadforms
from starkheegner.arith import (
    is_fundamental_discriminant,
    is_squarefree,
    kronecker,
    primes_up_to,
    sqrt_mod_prime,
)
from starkheegner.genus import (
    RingClassCharacter,
    _represent_coprime,
    attach_genus_data,
    enumerate_quadratic_chars,
    order_by_sign,
    pushforward_class,
)
from starkheegner.quadforms import (
    BQF,
    HeegnerSystem,
    NarrowClassGroup,
    narrow_class_number_oracle,
)

from oracle_classes import (
    character_conductor,
    is_primitive,
    kernel_of_pushforward,
    sqrtD_class,
)


def G(D, c=1):
    return NarrowClassGroup(D, c)


# --------------------------------------------------------- Frobenius oracle
#
# A split prime ell of F is represented by a form of discriminant Dc^2 with
# leading coefficient ell; chi at its class is (Delta1 | ell) = (Delta2 | ell).

def frobenius_class(group: NarrowClassGroup, ell: int) -> int:
    """Class of a form of discriminant Dc^2 representing the split prime ell."""
    disc = group.disc
    if kronecker(disc, ell) != 1:
        raise ValueError("%d is not split" % ell)
    b = sqrt_mod_prime(disc, ell)
    if (b - disc) % 2 != 0:
        b += ell
    if (b * b - disc) % (4 * ell) != 0:
        raise ArithmeticError("b = %d has b^2 != %d mod %d" % (b, disc, 4 * ell))
    return group.class_of(BQF(ell, b, (b * b - disc) // (4 * ell)))


def split_primes(group: NarrowClassGroup, avoid: int, count: int, skip: int = 0):
    """Split primes of F prime to `avoid`, by increasing size, odd and below
    2000."""
    out = [ell for ell in primes_up_to(2000)[1:]
           if avoid % ell and kronecker(group.D, ell) == 1][skip:skip + count]
    if len(out) < count:
        raise ValueError("fewer than %d split primes below 2000" % (count + skip))
    return out


# ------------------------------------------------------------- enumeration

def test_char_counts():
    assert len(enumerate_quadratic_chars(G(13))) == 1       # trivial group
    assert len(enumerate_quadratic_chars(G(40))) == 2       # Z/2
    assert len(enumerate_quadratic_chars(G(13, 3))) == 2
    # 2-rank 3: disc 2940 = 60*7^2, h+ = 8, Pic+ = (Z/2)^3
    g = G(60, 7)
    n2 = sum(1 for i in range(g.order) if g.compose(i, i) == g.identity)
    assert len(enumerate_quadratic_chars(g)) == n2  # duality with 2-torsion


def test_chars_are_homomorphisms():
    for D, c in ((40, 1), (13, 3), (5, 7), (60, 7)):
        g = G(D, c)
        for chi in enumerate_quadratic_chars(g):
            assert chi(g.identity) == 1
            for i in range(g.order):
                for j in range(g.order):
                    assert chi(g.compose(i, j)) == chi(i) * chi(j)


@pytest.mark.parametrize("c", (1463, 1309))
def test_characters_need_no_composition_table(monkeypatch, c):
    # the check reads the rows of a few generators, not all h^2 products
    calls = []
    compose = quadforms._compose

    def counted(form1, form2, disc):
        calls.append(None)
        return compose(form1, form2, disc)

    monkeypatch.setattr(quadforms, "_compose", counted)
    H = HeegnerSystem(13, c, 3)
    assert len(enumerate_quadratic_chars(H.group)) == 8
    assert 0 < len(calls) < 8 * H.group.order


def test_check_rejects_one_wrong_value(monkeypatch):
    # a symbol flipped at one class is no character, and the check says so
    g = G(13, 77)
    represented = [_represent_coprime(Q, 2 * g.D * g.c)[0] for Q in g.reps]
    for k in (1, 5, 23):
        monkeypatch.setattr(genus, "kronecker", lambda d, a, ak=represented[k]:
                            -kronecker(d, a) if a == ak else kronecker(d, a))
        with pytest.raises(ArithmeticError, match="no character"):
            enumerate_quadratic_chars(g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([d for d in range(5, 100) if is_fundamental_discriminant(d)]),
       st.integers(0, 49))
def test_generators_generate(D, k):
    # the sweep of test_quadforms.test_group_axioms_on_random_orders
    c = 2 * k + 1
    assume(is_squarefree(c) and math.gcd(c, D) == 1)
    assume(narrow_class_number_oracle(D, c) <= 64)
    g = G(D, c)
    rows = genus._generator_rows(g)
    for s, row in rows.items():
        assert row == [g.compose(s, j) for j in range(g.order)]
    reached, frontier = {g.identity}, [g.identity]
    while frontier:
        x = frontier.pop()
        for s in rows:
            y = g.compose(s, x)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == set(range(g.order))


# ------------------------------------------------------------- kronecker

def test_kronecker_examples():
    assert kronecker(5, 1) == 1
    assert kronecker(13, 5) == -1
    assert kronecker(40, 3) == 1


def test_kronecker_multiplicative_and_periodic():
    for delta in (5, -3, 13, -39, 40, 65):
        for m in range(1, 40):
            for n in range(1, 40):
                assert kronecker(delta, m * n) == kronecker(delta, m) * kronecker(delta, n)
            assert kronecker(delta, m) == kronecker(delta, m + abs(delta) * 4)


# ------------------------------------------------------------ pushforwards

def test_pushforward_is_group_hom():
    gc, gf = G(13, 3), G(13, 1)
    for i in range(gc.order):
        for j in range(gc.order):
            a = pushforward_class(gc, gf, gc.compose(i, j))
            b = gf.compose(pushforward_class(gc, gf, i),
                           pushforward_class(gc, gf, j))
            assert a == b


def test_pushforward_respects_frobenius():
    for D, c in ((13, 3), (5, 7), (40, 3)):
        gc, gf = G(D, c), G(D, 1)
        for ell in split_primes(gc, 2 * D * c, 8):
            assert pushforward_class(gc, gf, frobenius_class(gc, ell)) == \
                frobenius_class(gf, ell)


def test_kernel_size():
    gc, gf = G(13, 3), G(13, 1)
    ker = kernel_of_pushforward(gc, gf)
    assert len(ker) == gc.order // gf.order  # surjectivity


# ------------------------------------------------------------- primitivity

def test_primitivity_c1():
    for chi in enumerate_quadratic_chars(G(40)):
        assert is_primitive(chi)


def test_primitivity_d13_c3():
    chars = enumerate_quadratic_chars(G(13, 3))
    # trivial character factors through c=1 (h(13)=1); the other does not
    ker = kernel_of_pushforward(G(13, 3), G(13, 1))
    for chi in chars:
        if -1 not in chi.values:
            assert not is_primitive(chi) or G(13, 3).order == 1
            assert character_conductor(chi) == 1
        else:
            assert is_primitive(chi) == any(chi(i) == -1 for i in ker)


def test_lifted_character_not_primitive():
    # lift a character of Pic+(O_1) for D=40 to conductor 3 and check
    gc, gf = G(40, 3), G(40, 1)
    lift_values = []
    chi_f = enumerate_quadratic_chars(gf)[1]
    assert -1 in chi_f.values
    for i in range(gc.order):
        lift_values.append(chi_f(pushforward_class(gc, gf, i)))
    import starkheegner.genus as genus_mod
    lifted = genus_mod.RingClassCharacter(gc, tuple(lift_values), chi_f.genus_pair)
    assert not is_primitive(lifted)


# ---------------------------------------------------------------- genus pair

def test_genus_trivial_char_c1():
    chi = enumerate_quadratic_chars(G(13))[0]
    pair = attach_genus_data(chi).genus_pair
    assert sorted(pair) == [1, 13]


def test_genus_d40_nontrivial():
    chars = enumerate_quadratic_chars(G(40))
    chi = next(ch for ch in chars if -1 in ch.values)
    pair = attach_genus_data(chi).genus_pair
    assert sorted(pair) == [5, 8]


def test_genus_d13_c3_primitive():
    chars = enumerate_quadratic_chars(G(13, 3))
    chi = next(ch for ch in chars if -1 in ch.values)
    assert is_primitive(chi)
    pair = attach_genus_data(chi).genus_pair
    assert sorted(pair) == [-39, -3]


def test_genus_resample_consistency():
    for D, c in ((13, 3), (40, 1), (5, 7), (13, 77), (60, 7), (105, 11)):
        for chi in enumerate_quadratic_chars(G(D, c)):
            attach_genus_data(chi)
            d1, d2 = chi.genus_pair
            f = chi.conductor
            avoid = 2 * D * c * max(f, 1)
            fresh = split_primes(chi.group, avoid, 25, skip=25)
            for ell in fresh:
                got = chi(frobenius_class(chi.group, ell))
                assert got == kronecker(d1, ell) == kronecker(d2, ell)


def test_characters_identity_on_prime_sample():
    for D, c in ((13, 3), (40, 1)):
        for chi in enumerate_quadratic_chars(G(D, c)):
            attach_genus_data(chi)
            d1, d2 = chi.genus_pair
            for ell in range(3, 1000):
                if not all(ell % q for q in range(2, ell)):
                    continue
                if c % ell == 0 or D % ell == 0 or abs(d1) % ell == 0:
                    continue
                assert kronecker(D, ell) == kronecker(d1, ell) * kronecker(d2, ell)


def test_chars_need_odd_squarefree_conductor():
    for c in (4, 9):
        g = G(13, c)
        with pytest.raises(ValueError):
            enumerate_quadratic_chars(g)


def test_attach_rejects_missing_or_inconsistent_pair():
    g = G(13, 3)
    chi = next(ch for ch in enumerate_quadratic_chars(g) if -1 in ch.values)
    # conductor 3, so Delta1*Delta2 must be 13*9, not 13
    with pytest.raises(ArithmeticError):
        attach_genus_data(RingClassCharacter(g, chi.values, genus_pair=(1, 13)))
    # (-7)*(-91) = 13*7^2, but f = 7 does not divide c = 3
    with pytest.raises(ArithmeticError):
        attach_genus_data(RingClassCharacter(g, chi.values, genus_pair=(-7, -91)))


# ------------------------------------------------------------------- sign

def test_sign_trivial_char():
    chi = enumerate_quadratic_chars(G(13))[0]
    assert chi(sqrtD_class(chi.group)) == 1
    assert attach_genus_data(chi).sign == 1


def test_sign_matches_genus_positivity():
    # conductor, primitivity and sign read off the genus pair agree with the
    # kernel route and with chi at the class of (sqrt(D))
    for D, c in ((13, 3), (40, 1), (5, 7), (21, 1), (13, 77), (60, 7), (105, 11),
                 (8, 7), (21, 11), (105, 1)):
        g = G(D, c)
        s = sqrtD_class(g)
        for chi in enumerate_quadratic_chars(g):
            d1, d2 = chi.genus_pair
            assert (chi.sign == 1) == (d1 > 0 and d2 > 0)
            assert chi.conductor == character_conductor(chi)
            assert (chi.conductor == g.c) == is_primitive(chi)
            assert chi(s) == chi.sign
            assert attach_genus_data(chi) is chi


# ------------------------------------------------------------ sign ordering

def test_order_by_sign_rejects_a_pair_whose_signs_agree():
    # D = 61 at N = 15 fails the hypothesis (5 splits), and its pair (1, 61)
    # has (1 | -15) = (61 | -15) = 1: both twists have one sign
    assert kronecker(1, -15) == kronecker(61, -15) == 1
    for w_n in (1, -1):
        with pytest.raises(ValueError, match="signs agree"):
            order_by_sign(w_n, 15, (1, 61))


def test_order_by_sign():
    # product of the two Kronecker values at -N is -1, so exactly one order
    N = 15
    pair = (-7, -259)  # genus pair of the primitive character for D=37, c=7
    for w_n in (1, -1):
        d1, d2 = order_by_sign(w_n, N, pair)
        assert -w_n * kronecker(d1, -N) == -1
        assert -w_n * kronecker(d2, -N) == +1
        assert kronecker(d1, -N) * kronecker(d2, -N) == -1
