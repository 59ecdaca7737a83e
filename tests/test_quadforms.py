import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import starkheegner
from starkheegner.arith import (
    MAT_ID,
    is_fundamental_discriminant,
    is_squarefree,
    kronecker,
    mat_mul,
    surd_sign,
)
from starkheegner.quadforms import (
    BQF,
    HeegnerForm,
    HeegnerSystem,
    NarrowClassGroup,
    choose_delta,
    fundamental_unit,
    heegner_representatives,
    narrow_class_number_oracle,
    plus_unit,
    reduced_forms,
    stabilizer_gamma,
    totally_positive_unit,
)

from oracle_classes import (
    class_group_by_cycles,
    compose_forms,
    forms_equivalent,
    fundamental_unit_with_preperiod,
    reduced_forms_by_trial_division,
    sqrtD_class,
)
from oracle_ideals import QuadOrderIdeal

rng = random.Random(12)


def random_gamma0(M, size=4):
    """Random element of Gamma0(M) as a product of generators."""
    g = MAT_ID
    for _ in range(size):
        if rng.random() < 0.5:
            g = mat_mul(g, (1, rng.randint(-3, 3), 0, 1))
        else:
            g = mat_mul(g, (1, 0, M * rng.randint(-2, 2), 1))
    return g


# ----------------------------------------------------------------- reduction

def test_reduced_cycle_for_disc_40():
    forms = reduced_forms(40)
    assert len(forms) == 8
    G = NarrowClassGroup(40, 1)
    assert G.order == 2


@pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 21, 24, 40])
def test_sieved_reduced_forms_match_trial_division(D):
    # even, odd and non-fundamental discriminants D*c^2, c sharing primes
    # with D or not: the same forms in the same order
    for c in (1, 3, 7, 9, 15, 77, 133, 209, 1309, 1463):
        got = [q.tuple() for q in reduced_forms(D * c * c)]
        assert got == reduced_forms_by_trial_division(D * c * c), (D, c)


def test_reduced_forms_factor_nothing(monkeypatch):
    # the sieve factors every (disc - B^2)/4 at once; trial division of
    # each one took one factorize call per B, 2637 at this discriminant
    calls = []
    factorize = starkheegner.arith.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(starkheegner.arith, "factorize", counted)
    assert len(reduced_forms(13 * 1463 ** 2)) > 0
    assert calls == []


def test_action_is_right_action():
    q = BQF(3, 1, -5)
    g, h = (1, 2, 0, 1), (1, 0, 3, 1)
    assert q.apply(g).apply(h) == q.apply(mat_mul(g, h))


def test_forms_equivalent_self():
    q = BQF(2, 3, -4)
    ok, wit = forms_equivalent(q, q)
    assert ok and q.apply(wit) == q


def test_forms_equivalent_translate():
    q = BQF(2, 3, -4)
    for _ in range(20):
        g = random_gamma0(3)
        ok, wit = forms_equivalent(q, q.apply(g), level_m=3)
        assert ok
        assert wit[2] % 3 == 0


def test_inequivalent_classes_disc_40():
    G = NarrowClassGroup(40, 1)
    q1, q2 = G.reps
    ok, _ = forms_equivalent(q1, q2)
    assert not ok


# ----------------------------------------------------------------- units

def test_fundamental_units_known():
    assert fundamental_unit(5) == (1, 1)
    assert fundamental_unit(13) == (3, 1)
    assert fundamental_unit(40) == (6, 1)   # 3 + sqrt(10)


def test_fundamental_unit_rejects_non_discriminants():
    # at 2, (0 + sqrt(2))/2 < 1 is not reduced and the period walk would
    # never return to it; at squares and 0 it would divide by zero
    for disc in (2, 3, 6, 7, 0, 1, 4, 9, -3, -4, -5):
        with pytest.raises(ValueError, match="discriminant"):
            fundamental_unit(disc)


def test_fundamental_unit_matches_the_preperiod_walk():
    # one period from the reduced (b + sqrt(disc))/2 against the walk from
    # (disc mod 2 + sqrt(disc))/2 that finds the pre-period and conjugates
    discs = [d for d in range(5, 5000) if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]
    assert len(discs) == 2429
    for d in discs:
        assert fundamental_unit(d) == fundamental_unit_with_preperiod(d), d


def test_totally_positive_unit_examples():
    # D=5: golden ratio has norm -1, so the square (3+sqrt(5))/2
    assert totally_positive_unit(5, 1) == (3, 1)
    # D=13: ((3+sqrt(13))/2)^2 = (11+3*sqrt(13))/2
    assert totally_positive_unit(13, 1) == (11, 3)
    with pytest.raises(ValueError):
        totally_positive_unit(45, 1)  # 45 = 9*5 is not fundamental


def test_plus_unit_is_totally_positive():
    for disc in (5, 13, 21, 40, 61, 85, 92):
        x, y = plus_unit(disc)
        assert x * x - disc * y * y == 4
        assert surd_sign(x - 2, y, disc) > 0
        assert surd_sign(x, -y, disc) > 0  # conjugate positive too


# ----------------------------------------------------------- class group law

def test_identity_and_inverse():
    G = NarrowClassGroup(40, 1)
    for j in range(G.order):
        assert G.compose(G.identity, j) == j
        assert G.compose(j, G.inverse[j]) == G.identity


def test_group_axioms_exhaustive_small():
    for D, c in ((40, 1), (13, 3), (5, 7), (21, 1)):
        G = NarrowClassGroup(D, c)
        assert G.check_group_axioms()


SMALL_DISCRIMINANTS = [d for d in range(5, 100) if is_fundamental_discriminant(d)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_DISCRIMINANTS), st.integers(0, 49))
def test_group_axioms_on_random_orders(D, k):
    # D a fundamental discriminant below 100, c odd, squarefree, below 100 and
    # prime to D; h+ <= 64 keeps the O(h^3) check near 0.15 s an example
    c = 2 * k + 1
    assume(is_squarefree(c) and math.gcd(c, D) == 1)
    h = narrow_class_number_oracle(D, c)
    assume(h <= 64)
    G = NarrowClassGroup(D, c)
    assert G.order == h
    assert G.check_group_axioms()


def test_composition_matches_ideal_oracle():
    for D, c in ((40, 1), (13, 3), (5, 7), (17, 3), (21, 1)):
        G = NarrowClassGroup(D, c)
        disc = G.disc
        pos_forms = [q for q in reduced_forms(disc) if q.A > 0]
        for _ in range(15):
            q1, q2 = rng.choice(pos_forms), rng.choice(pos_forms)
            i1 = QuadOrderIdeal.from_form(disc, q1.A, -q1.B)
            i2 = QuadOrderIdeal.from_form(disc, q2.A, -q2.B)
            prod = i1.multiply(i2).to_form()
            got = G.class_of(BQF(*prod))
            want = G.compose(G.class_of(q1), G.class_of(q2))
            assert got == want


def test_ideal_dictionary_identifies_forms():
    # the ideal of a positive-leading form maps back to its own class
    for D, c in ((40, 1), (13, 3)):
        G = NarrowClassGroup(D, c)
        for q in reduced_forms(G.disc):
            if q.A <= 0:
                continue
            ideal = QuadOrderIdeal.from_form(G.disc, q.A, q.B)
            assert G.class_of(BQF(*ideal.to_form())) == G.class_of(q)


def test_composition_well_defined_on_classes():
    G = NarrowClassGroup(13, 3)
    q = G.reps[-1]
    for _ in range(10):
        g = random_gamma0(1, size=5)
        q2 = q.apply(g)
        assert G.class_of(compose_forms(q2, G.reps[0])) == G.compose(
            G.class_of(q), 0)


@pytest.mark.parametrize("D, c", ((13, 1), (13, 77), (13, 1463), (28, 1), (988, 1),
                                  (17, 3), (40, 1)))
def test_class_group_on_triples_matches_cycles_of_forms(D, c):
    # the group walks its rho-cycles on (A, B, C) triples; the reference
    # walks them with BQF objects: the same reps, identity, inverse, class
    # of every reduced form, and composition table where h <= 24
    G = NarrowClassGroup(D, c)
    reps, where, class_of = class_group_by_cycles(G.disc)
    assert G.reps == reps
    assert G.identity == class_of(BQF(1, G.disc % 2, (G.disc % 2 - G.disc) // 4))
    assert G.inverse == [class_of(BQF(q.A, -q.B, q.C)) for q in reps]
    assert G._where == {q.tuple(): idx for q, idx in where.items()}
    assert [G.class_of(q) for q in reduced_forms(G.disc)] == \
        [where[q] for q in reduced_forms(G.disc)]
    if G.order <= 24:
        assert G.table == [[class_of(compose_forms(p, q)) for q in reps] for p in reps]


@pytest.mark.parametrize("D, c", ((13, 1), (13, 77), (13, 1463), (988, 1)))
def test_compose_on_triples_is_the_class_of_compose_forms(D, c):
    # compose reduces the composed triple of two representatives; the
    # reference composes their BQFs with compose_forms and takes the class
    # of the form: the same full table
    G = NarrowClassGroup(D, c)
    assert G.table == [[G.class_of(compose_forms(p, q)) for q in G.reps] for p in G.reps]


def test_class_group_builds_forms_only_for_reduced_forms_and_classes(monkeypatch):
    # the cycles, the class lookup and the inverses run on triples: past the
    # reduced forms, only the h reps and a few forms for the identity are
    # built (the walk with BQF objects built about 8,050 more here)
    disc = 13 * 1463 ** 2
    forms = len(reduced_forms(disc))
    built = []
    init = BQF.__init__

    def counted(self, A, B, C):
        built.append((A, B, C))
        init(self, A, B, C)

    monkeypatch.setattr(BQF, "__init__", counted)
    G = NarrowClassGroup(13, 1463)
    assert len(built) <= forms + 2 * G.order


# ----------------------------------------------------- class number oracles

def test_narrow_class_numbers_match_oracle():
    for D in (5, 8, 13, 21, 24, 40, 60, 65, 85):
        for c in (1, 3, 7):
            if math.gcd(c, D) != 1:
                continue
            G = NarrowClassGroup(D, c)
            assert G.order == narrow_class_number_oracle(D, c), (D, c)


def test_conductor_three_class_number_formula():
    # spec example: D=13, c=3 via the formula with the unit-index correction
    G = NarrowClassGroup(13, 3)
    assert G.order == narrow_class_number_oracle(13, 3) == 2


# ----------------------------------------------------------------- delta

def test_choose_delta_examples():
    assert choose_delta(13, 3) == 1
    assert choose_delta(5, 1) == 1
    # 13 is inert at 7, so use a split pair; oracle is the exhaustive scan
    d = choose_delta(53, 7)
    assert (d * d - 53) % 28 == 0
    assert d == min(x for x in range(28) if (x * x - 53) % 28 == 0)
    with pytest.raises(ValueError):
        choose_delta(13, 7)  # (13|7) = -1


def test_choose_delta_failure():
    with pytest.raises(ValueError):
        choose_delta(5, 3)  # (5|3) = -1, 3 not split


# --------------------------------------------------------------- Heegner

def test_heegner_reps_disc13_level3():
    sys13 = HeegnerSystem(13, 1, 3)
    assert len(sys13.forms) == 1
    q = sys13.forms[0].form
    assert q.A % 3 == 0 and (q.B - 1) % 6 == 0


def test_heegner_reps_count_and_inequivalence():
    for D, c, M in ((13, 1, 3), (13, 3, 3), (40, 1, 3), (5, 7, 11)):
        if any(kronecker(D, ell) != 1 for ell in (M,)):
            continue
        sysx = HeegnerSystem(D, c, M)
        G = sysx.group
        assert len(sysx.forms) == G.order
        idxs = sorted(sysx.forms)
        for i in idxs:
            assert G.class_of(sysx.forms[i].form) == i
        for i in idxs:
            for j in idxs:
                if i < j:
                    ok, _ = forms_equivalent(sysx.forms[i].form,
                                             sysx.forms[j].form, level_m=M)
                    assert not ok, (D, c, M, i, j)


def test_heegner_reps_level_one():
    G = NarrowClassGroup(13, 1)
    reps = heegner_representatives(G, 1, choose_delta(13, 1))
    assert [reps[i].form for i in range(G.order)] == G.reps


def test_heegner_reps_three_prime_conductor():
    # c = 1309 = 7 * 11 * 17: h+ = 384, one Heegner form in every class
    sysx = HeegnerSystem(13, 1309, 3)
    G = sysx.group
    assert G.order == 384 == narrow_class_number_oracle(13, 1309)
    assert sorted(sysx.forms) == list(range(G.order))
    for i in range(G.order):
        q = sysx.forms[i]
        assert HeegnerForm(q.form, 3, (1309 * sysx.delta) % 6) == q
        assert G.class_of(q.form) == i


def test_galois_action_free_transitive():
    sysx = HeegnerSystem(13, 3, 3)
    G = sysx.group
    q = sysx.forms[0]

    def translate(sigma, Q):
        # Q^sigma: the Heegner representative of sigma * class(Q)
        return sysx.forms[G.compose(sigma, G.class_of(Q.form))]

    orbit = {G.class_of(translate(s, q).form) for s in range(G.order)}
    assert orbit == set(range(G.order))
    for s in range(G.order):
        for t in range(G.order):
            a = translate(s, translate(t, q))
            b = translate(G.compose(s, t), q)
            assert a == b


# --------------------------------------------------------------- stabilizer

def test_stabilizer_properties():
    for D, c, M in ((13, 1, 3), (13, 3, 3), (5, 7, 11)):
        sysx = HeegnerSystem(D, c, M)
        unit = totally_positive_unit(D, c)
        for q in sysx.forms.values():
            st = stabilizer_gamma(q, unit)
            g = st.gamma
            assert g[0] * g[3] - g[1] * g[2] == 1
            assert g[2] % M == 0
            assert q.form.apply(g) == q.form
            assert g[0] + g[3] == unit[0]  # trace = x-coordinate of unit


def test_stabilizer_rejects_norm_minus_one_unit():
    q = HeegnerSystem(13, 1, 3).forms[0]
    with pytest.raises(ValueError):
        stabilizer_gamma(q, (3, 1))  # (3 + sqrt(13))/2 has norm -1
    # the check is no assert: it holds under python -O as well
    code = ("from starkheegner.quadforms import HeegnerSystem, stabilizer_gamma\n"
            "q = HeegnerSystem(13, 1, 3).forms[0]\n"
            "try:\n"
            "    stabilizer_gamma(q, (3, 1))\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(starkheegner.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=60).returncode == 0


def test_stabilizer_fixes_tau_numerically():
    sysx = HeegnerSystem(13, 1, 3)
    q = sysx.forms[0]
    st = stabilizer_gamma(q, totally_positive_unit(13, 1))
    A, B, _ = q.form.tuple()
    tau = (-B + math.sqrt(13)) / (2 * A)
    a, b, c, d = st.gamma
    assert abs((a * tau + b) / (c * tau + d) - tau) < 1e-12
    assert c * tau + d > 1


# ----------------------------------------------------------------- sqrt(D)

def test_sqrtD_class_examples():
    assert sqrtD_class(NarrowClassGroup(5, 1)) == NarrowClassGroup(5, 1).identity
    # norm -1 unit exists for 40, so the class is trivial
    G40 = NarrowClassGroup(40, 1)
    assert sqrtD_class(G40) == G40.identity
    # no norm -1 unit for 21: nontrivial, of order two
    G21 = NarrowClassGroup(21, 1)
    s = sqrtD_class(G21)
    assert s != G21.identity
    assert G21.compose(s, s) == G21.identity


def test_sqrtD_class_squares_to_identity():
    for D, c in ((13, 3), (5, 7), (85, 1), (40, 3)):
        G = NarrowClassGroup(D, c)
        s = sqrtD_class(G)
        assert G.compose(s, s) == G.identity


# ------------------------------------------------------------- serialization

def test_json_round_trip_fields():
    sysx = HeegnerSystem(13, 3, 3)
    doc = sysx.to_json_dict()
    assert doc["D"] == 13 and doc["c"] == 3 and doc["M"] == 3
    assert len(doc["reps"]) == sysx.group.order
    assert doc["table"] == sysx.group.table
