import math
import random
import tracemalloc
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, settings, strategies as st

from starkheegner.arith import MAT_ID, mat_mul, prime_divisors, primes_up_to
from starkheegner.curves import (
    EllipticCurveData,
    complex_L_value,
    sign_of_twist,
)
from starkheegner.genus import attach_genus_data, enumerate_quadratic_chars
from starkheegner.linalg import kernel_basis, matvec
from starkheegner.modsym import (
    INF,
    ManinSymbolSpace,
    P1List,
    _integer_matrix,
    _primitive,
    apply_moebius,
    build_eigensymbol,
    segments_between,
    segments_to_cusp,
)
from starkheegner.quadforms import HeegnerSystem

from oracle_periods import real_periods
from oracle_symbols import (birch_sum, geodesic_period_sum, op_full, op_full_from_infinity,
                            p1_sorted_orbits, regular_cf_segments)
from test_linalg import dense_kernel_basis, dense_rref

rng = random.Random(7)


def E11():
    return EllipticCurveData(0, -1, 1, -10, -20, conductor=11, p=11, label="11a")


def E15():
    return EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5, label="15x")


def E115():
    return EllipticCurveData(0, 0, 1, 7, -11, conductor=115, p=5, label="115a")


def _genus_formula(N):
    # genus of X_0(N) for squarefree N by the standard formula
    from starkheegner.arith import kronecker, prime_divisors
    mu = N
    for q in prime_divisors(N):
        mu = mu // q * (q + 1)
    nu2 = 1
    nu3 = 1
    for q in prime_divisors(N):
        nu2 *= 1 + kronecker(-4, q)
        nu3 *= 1 + kronecker(-3, q)
    ncusps = 1
    for q in prime_divisors(N):
        ncusps *= 2
    return 1 + mu / 12 - nu2 / 4 - nu3 / 3 - ncusps / 2


# -------------------------------------------------------- Manin segments

def _chain_end(segs):
    """Check that the paths g{0 -> oo} of segs, each g in SL2(Z), chain
    from oo: g_0 0 = oo and g_k oo = g_(k+1) 0.  Returns the last g oo."""
    end = INF
    for g in segs:
        assert all(type(e) is int for e in g), g
        assert g[0] * g[3] - g[1] * g[2] == 1, g
        assert apply_moebius(g, Fraction(0)) == end, (g, end)
        end = apply_moebius(g, INF)
    return end


_cusps = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


@settings(max_examples=200, deadline=None)
@given(_cusps, st.one_of(st.just(INF), _cusps))
@example(Fraction(0), INF)
@example(Fraction(-7), Fraction(5))
@example(Fraction(-355, 113), Fraction(1, 2))
def test_segments_chain_oo_to_the_cusp(x, r):
    segs = segments_to_cusp(x)
    assert segs and _chain_end(segs) == x
    if x.denominator == 1:
        assert segs == [(x.numerator, -1, 1, 0)]
    assert segments_to_cusp(INF) == []
    # {r -> x} = {oo -> x} - {oo -> r}, as (g, +-1) pairs
    pairs = segments_between(r, x)
    assert all(len(g) == 4 and sign in (1, -1) for g, sign in pairs)
    assert [g for g, sign in pairs if sign == 1] == segs
    back = [g for g, sign in pairs if sign == -1]
    assert _chain_end(back) == r and back == segments_to_cusp(r)


def _farey_distances(B, bound):
    """Distance from oo in the Farey graph on oo and the fractions of
    denominator at most B and absolute value at most bound, by
    breadth-first search: p/q and r/s are neighbours when |ps - qr| = 1."""
    frontier = [Fraction(a) for a in range(-bound, bound + 1)]
    dist = dict.fromkeys(frontier, 1)
    dist[INF] = 0
    while frontier:
        nxt = []
        for x in frontier:
            p, q = x.numerator, x.denominator
            for e in (1, -1):
                # p s - q r = e: s = e p^-1 mod q (s > 0), r = (p s - e)/q
                for s in range(e * pow(p, -1, q) % q or q, B + 1, q):
                    y = Fraction((p * s - e) // q, s)
                    if abs(y) <= bound and y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
        frontier = nxt
    return dist


def test_segments_follow_a_farey_geodesic():
    # the chain of a/b has as many segments as the Farey-graph distance
    # from oo to a/b, and no more than the regular continued-fraction
    # chain.  Every geodesic from oo to x lies in the ladder of x, the
    # Farey triangles that the line Re z = x crosses (Beardon, Hockman and
    # Short, 2012), whose vertices have denominator at most that of x and
    # lie within 1 of x; the search over those finds the distance
    for b in range(1, 21):
        dist = _farey_distances(b, 41)
        for a in range(-40, 41):
            x = Fraction(a, b)
            if x.denominator == b:
                segs = segments_to_cusp(x)
                assert len(segs) == dist[x], x
                assert len(segs) <= len(regular_cf_segments(x)), x


# ----------------------------------------------------------------- the space

def test_p1_scan_matches_sorted_orbits():
    # the scan meets each unit orbit first at its least pair, so it must
    # give the representatives and the index of sorting every orbit
    for N in range(2, 201):
        reps, index = p1_sorted_orbits(N)
        p1 = P1List(N)
        assert p1.reps == reps, N
        for (c, d), i in index.items():
            assert p1.index(c, d) == i, (N, c, d)


@pytest.mark.parametrize("N", [15, 115, 200])
def test_p1_index_refuses_pairs_outside_p1(N):
    # a pair with gcd(c, d, N) > 1 has an empty slot, which must never read
    # as an index
    p1 = P1List(N)
    for c in range(N):
        for d in range(N):
            if math.gcd(math.gcd(c, d), N) > 1:
                with pytest.raises(KeyError):
                    p1.index(c, d)
                with pytest.raises(KeyError):
                    p1.index(c - N, d + 2 * N)


def test_p1_build_peaks_under_16_bytes_a_slot():
    # one flat table of N^2 slots: 8 bytes a pointer, and the index ints
    # shared by each orbit; a dict keyed by every pair needs about 130
    N = 575
    tracemalloc.start()
    try:
        P1List(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * N * N, peak


def test_level_one_space_is_one_point_and_no_symbol():
    # P^1(Z/1) is the one pair (0, 0), which every (c, d) reduces to; its
    # two- and three-term relations leave no weight-2 symbol of level 1
    p1 = P1List(1)
    assert len(p1) == 1
    assert {p1.index(c, d) for c in range(-3, 4) for d in range(-3, 4)} == {0}
    assert ManinSymbolSpace(1).dim == 0


def test_space_dimension_11():
    sp = ManinSymbolSpace(11)
    assert sp.cuspidal_dimension() == 2        # genus(X0(11)) = 1
    assert sp.dim == 3                         # 2g + (#cusps - 1)


def test_cuspidal_dimension_matches_genus_formula():
    # 6 | N for the last four: the composite 4 is not a Hecke prime there,
    # and the least good prime is 5 (or 7 at N = 30)
    for N in (11, 15, 21, 35, 6, 30, 42, 66):
        sp = ManinSymbolSpace(N)
        g = _genus_formula(N)
        assert g == int(g)
        assert sp.cuspidal_dimension() == 2 * int(g), N


def test_cuspidal_dimension_needs_a_squarefree_level():
    # at N = 36 the Eisenstein series with the character mod 3 are not in the
    # (ell + 1)-eigenspace, so the rank would not be 2 genus(X0(36)) = 2
    with pytest.raises(ValueError, match="squarefree"):
        ManinSymbolSpace(36).cuspidal_dimension()


def test_operator_matrices_are_built_once():
    sp = ManinSymbolSpace(15)
    assert sp.hecke_matrix(2) is sp.hecke_matrix(2)
    assert sp.atkin_lehner_infinity_matrix() is sp.atkin_lehner_infinity_matrix()


@pytest.mark.parametrize("N, elliptic", [(15, False), (77, False), (115, False),
                                         (143, False), (13, True), (37, True)])
def test_relation_order_solves_each_index_once_from_earlier_values(N, elliptic):
    # relations[k] holds (j, gamma) with lifts[k] w = gamma lifts[j] for w =
    # S, T, T^2.  Every P^1 index is a generator or derived exactly once;
    # a derivation reads its anchor's S-relation or its T-relation, only
    # at indices known before it, and every vector of the space satisfies
    # it.  Without elliptic points there are exactly dim generators; at
    # N = 13 and 37 S or T fixes points of P^1(Z/N), whose relations read
    # their own anchor and never fire, and there are at least dim
    sp = ManinSymbolSpace(N)
    relations, generators, derived = sp.relation_order()
    assert sp.relation_order() is sp.relation_order()
    words = (ManinSymbolSpace.S, ManinSymbolSpace.T,
             mat_mul(ManinSymbolSpace.T, ManinSymbolSpace.T))
    for k, terms in enumerate(relations):
        for w, (j, gamma) in zip(words, terms):
            assert gamma[2] % N == 0 and mat_mul(gamma, sp.lifts[j]) == mat_mul(sp.lifts[k], w)
    fixed = [k for k, terms in enumerate(relations) if k in (terms[0][0], terms[1][0])]
    assert bool(fixed) == elliptic, fixed
    assert sorted(generators + [k for k, _ in derived]) == list(range(len(sp.p1)))
    known = set(generators)
    for k, terms in derived:
        assert terms in (relations[k][:1], relations[k][1:]), k
        assert all(j in known for j, _ in terms), k
        known.add(k)
        for b in sp.basis:
            assert b[k] == -sum(b[j] for j, _ in terms), k
    if elliptic:
        assert len(generators) >= sp.dim
    else:
        assert len(generators) == sp.dim


def test_hecke_commutativity():
    sp = ManinSymbolSpace(15)
    pairs = [(2, 7), (7, 11), (2, 11), (13, 2)]
    mats = {ell: sp.hecke_matrix(ell) for ell in (2, 7, 11, 13)}

    def matmul(a, b):
        n = len(a)
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for l1, l2 in pairs:
        assert matmul(mats[l1], mats[l2]) == matmul(mats[l2], mats[l1])


def _manin_relations_hold(sp, w):
    """w + w|S = 0 and w + w|T + w|T^2 = 0 on every generator."""
    S, T = ManinSymbolSpace.S, ManinSymbolSpace.T
    TT = mat_mul(T, T)
    idx = sp.p1.index_of_matrix
    return all(w[i] + w[idx(mat_mul(g, S))] == 0
               and w[i] + w[idx(mat_mul(g, T))] + w[idx(mat_mul(g, TT))] == 0
               for i, g in enumerate(sp.lifts))


def test_hecke_matrix_reads_only_pivot_rows():
    # the matrix is built from the pivot rows alone; it must agree with the
    # operator applied on every generator, whose image stays in the space
    for N in (11, 15, 35):
        sp = ManinSymbolSpace(N)
        for ell in (2, 3, 5, 7):
            m = sp.hecke_matrix(ell)
            for k, b in enumerate(sp.basis):
                img = op_full(sp, b, sp.hecke_paths(ell))
                assert [row[k] for row in m] == sp.coordinates(img), (N, ell, k)
                assert _manin_relations_hold(sp, img), (N, ell, k)
        w = sp.atkin_lehner_infinity_matrix()
        ident = [[int(i == j) for j in range(sp.dim)] for i in range(sp.dim)]
        assert [[sum(w[i][k] * w[k][j] for k in range(sp.dim))
                 for j in range(sp.dim)] for i in range(sp.dim)] == ident, N


@pytest.mark.parametrize("N", (15, 57, 115))
def test_hecke_segments_reproduce_the_reference_operator(N):
    # the walk, its segments counted per P^1 index for each generator, gives
    # the rows of op_full (the Manin trick written out in the oracle) for
    # T_2, T_3 (U_3 at 15 and 57) and U_p for each p | N; the walk over the
    # pivots alone gives the pivot rows, in the order of the pivots
    sp = ManinSymbolSpace(N)
    local = random.Random(N)
    gens = range(len(sp.p1))
    vecs = [[local.randrange(-10 ** 6, 10 ** 6) for _ in gens] for _ in range(3)]
    for ell in sorted({2, 3, *prime_divisors(N)}):
        paths = sp.hecke_paths(ell)
        rows = [{} for _ in gens]
        for i, m, seg, sign in sp.hecke_segments(paths, gens):
            assert m in paths and sign in (1, -1), (N, ell)
            idx = sp.p1.index_of_matrix(seg)
            rows[i][idx] = rows[i].get(idx, 0) + sign
        for v in vecs:
            got = [sum(c * v[idx] for idx, c in row.items()) for row in rows]
            assert got == op_full(sp, v, paths), (N, ell)
        walked = list(sp.hecke_segments(paths, sp.pivots))
        assert [i for i, _ in groupby(i for i, _, _, _ in walked)] == sp.pivots, \
            (N, ell)
        pivot_rows = {i: {} for i in sp.pivots}
        for i, _, seg, sign in walked:
            idx = sp.p1.index_of_matrix(seg)
            pivot_rows[i][idx] = pivot_rows[i].get(idx, 0) + sign
        assert all(pivot_rows[i] == rows[i] for i in sp.pivots), (N, ell)


@pytest.mark.parametrize("N", (15, 57, 115))
def test_walk_is_the_operator_from_infinity_on_the_space(N):
    # on every basis vector, each of which satisfies the Manin relations,
    # the walk's operator (each image split from its own end) equals the
    # operator split as {oo -> y} - {oo -> x}, in exact Fractions, for T_2,
    # T_3 (U_3 at 15 and 57), U_p for each p | N and W_oo
    sp = ManinSymbolSpace(N)
    gens = range(len(sp.p1))
    ops = [sp.hecke_paths(ell) for ell in sorted({2, 3, *prime_divisors(N)})]
    for paths in ops + [[(-1, 0, 0, 1)]]:
        rows = [{} for _ in gens]
        for i, _, seg, sign in sp.hecke_segments(paths, gens):
            idx = sp.p1.index_of_matrix(seg)
            rows[i][idx] = rows[i].get(idx, 0) + sign
        for k, b in enumerate(sp.basis):
            got = [sum((c * b[idx] for idx, c in row.items()), Fraction(0)) for row in rows]
            assert got == op_full_from_infinity(sp, b, paths), (N, paths[-1], k)


def _relation_rows(sp):
    """The two- and three-term Manin relations on every generator, read off
    the lifts: w + w|S = 0 and w + w|T + w|T^2 = 0."""
    S, T = ManinSymbolSpace.S, ManinSymbolSpace.T
    TT = mat_mul(T, T)
    idx = sp.p1.index_of_matrix
    rows = []
    for i, g in enumerate(sp.lifts):
        for terms in ((i, idx(mat_mul(g, S))),
                      (i, idx(mat_mul(g, T)), idx(mat_mul(g, TT)))):
            row = [0] * len(sp.p1)
            for j in terms:
                row[j] += 1
            rows.append(row)
    return rows


def test_basis_matches_dense_elimination():
    # the rref of a row space is unique, so the sparse elimination must give
    # the dense oracle's basis and pivots exactly
    for N in (11, 15, 35, 57):
        sp = ManinSymbolSpace(N)
        basis, pivots = dense_rref(dense_kernel_basis(_relation_rows(sp), len(sp.p1)))
        assert sp.pivots == pivots, N
        assert sp.basis == basis, N


def test_level_115_space_and_eigensymbols():
    E = E115()
    sp = ManinSymbolSpace(115)
    assert len(sp.p1) == 144
    assert sp.cuspidal_dimension() == 22 == 2 * _genus_formula(115)
    assert sp.dim == 25                        # 2g + (#cusps - 1)
    syms = {sign: build_eigensymbol(E, sign, sp) for sign in (1, -1)}
    for ell in (2, 3):
        m, a = sp.hecke_matrix(ell), E.ap(ell)
        for sign, sym in syms.items():
            v = sp.coordinates(sym.vector)
            assert matvec(m, v) == [a * x for x in v], (ell, sign)


# --------------------------------------------------------------- eigensymbol

def test_eigensymbol_11a():
    E = E11()
    sp = ManinSymbolSpace(11)
    plus = build_eigensymbol(E, 1, sp)
    # T_2 eigenvalue -2, exact, for all ell <= 50 not dividing N
    for ell in (2, 3, 5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        a = E.ap(ell)
        img = op_full(sp, plus.vector, sp.hecke_paths(ell))
        assert img == [a * x for x in plus.vector], ell


class _E15WrongA3(EllipticCurveData):
    """15x reporting -a_3: inconsistent with the U_3 eigenvalue of its symbol."""

    def ap(self, ell):
        a = super().ap(ell)
        return -a if ell == 3 else a


def test_eigensymbol_rejects_wrong_a3():
    E = _E15WrongA3(1, 1, 1, -10, -10, conductor=15, p=5, label="15x")
    with pytest.raises(ValueError, match="U_3 eigenvalue mismatch"):
        build_eigensymbol(E, 1, ManinSymbolSpace(15))


@pytest.mark.parametrize("E, level, sign", [
    (E11(), 33, 1),     # 11a1 on a multiple of its conductor
    (E15(), 30, 1),
    (E15(), 45, -1),
    (E15(), 15, 0),
    (E15(), 15, 2),
], ids=["11a1-level-33", "15x-level-30", "15x-level-45", "sign-0", "sign-2"])
def test_eigensymbol_rejects_bad_input_before_hecke_work(E, level, sign):
    sp = ManinSymbolSpace(level)
    with pytest.raises(ValueError, match="conductor %d|sign must be" % E.conductor):
        build_eigensymbol(E, sign, sp)
    assert not sp._operators, "a Hecke matrix was built"


@pytest.mark.parametrize("E", [
    EllipticCurveData(0, -1, 1, -2, 2, conductor=57, p=19, label="57a1"),
    EllipticCurveData(0, 0, 1, 2, 0, conductor=77, p=11, label="77a1"),
], ids=lambda E: E.label)
def test_eigensymbol_needing_a_second_prime(E):
    # T_2 alone leaves more than the two eigenvectors, so the stacked
    # kernel of a second prime's cut decides the eigensymbol
    sp = ManinSymbolSpace(E.conductor)
    assert len(kernel_basis(_integer_matrix(sp.hecke_matrix(2), E.ap(2)), sp.dim)) > 2
    w = sp.atkin_lehner_infinity_matrix()
    for sign in (1, -1):
        vec = build_eigensymbol(E, sign, sp).vector
        assert all(x.denominator == 1 for x in vec)
        assert math.gcd(*(int(x) for x in vec)) == 1
        v = sp.coordinates(vec)
        for ell in primes_up_to(60):
            if E.conductor % ell:
                assert matvec(sp.hecke_matrix(ell), v) == [E.ap(ell) * x for x in v], ell
        for q in prime_divisors(E.conductor):
            assert matvec(sp.hecke_matrix(q), v) == [E.ap(q) * x for x in v], q
        assert matvec(w, v) == [sign * x for x in v], sign


def test_eigensymbol_integral_content_one():
    plus = build_eigensymbol(E11(), 1, ManinSymbolSpace(11))
    vals = [x for x in plus.vector if x != 0]
    assert all(x.denominator == 1 for x in vals)
    g = 0
    for x in vals:
        g = math.gcd(g, int(x))
    assert g == 1


def test_integer_forms_of_operators_and_vectors():
    # build_eigensymbol cuts with d (m - a I), d the common denominator, and
    # with each vector scaled to content 1 and a positive lead
    m = [[Fraction(1, 2), 1], [0, Fraction(-1, 3)]]
    assert _integer_matrix(m, 2) == [[-9, 6], [0, -14]]
    assert _integer_matrix(m, 0) == [[3, 6], [0, -2]]
    assert _primitive([0, Fraction(-2, 3), 4, Fraction(6, 5)]) == [0, 5, -30, -9]
    assert _primitive([Fraction(2, 3), 0, 4]) == [1, 0, 6]
    with pytest.raises(ValueError):
        _primitive([Fraction(0), 0])


def test_symbol_path_properties():
    sp = ManinSymbolSpace(15)
    sym = build_eigensymbol(E15(), 1, sp)
    cusps = [INF, Fraction(0), Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4)]
    for r in cusps:
        assert sym.value(r, r) == 0
    for _ in range(20):
        r, s, t = (rng.choice(cusps) for _ in range(3))
        assert sym.value(r, s) + sym.value(s, t) == sym.value(r, t)


def test_gamma0_invariance():
    sp = ManinSymbolSpace(15)
    sym = build_eigensymbol(E15(), -1, sp)
    for _ in range(25):
        g = MAT_ID
        for _ in range(4):
            if rng.random() < 0.5:
                g = mat_mul(g, (1, rng.randint(-2, 2), 0, 1))
            else:
                g = mat_mul(g, (1, 0, 15 * rng.randint(-1, 1), 1))
        for r, s in ((INF, Fraction(0)), (Fraction(1, 2), Fraction(3, 5))):
            r2, s2 = apply_moebius(g, r), apply_moebius(g, s)
            assert sym.value(r2, s2) == sym.value(r, s)


def test_omega_infinity_eigenvalue():
    sp = ManinSymbolSpace(11)
    for sign in (1, -1):
        sym = build_eigensymbol(E11(), sign, sp)
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(0)):
            assert sym.value(INF, -x) == sign * sym.value(INF, x)


# --------------------------------------------------------------- birch sums

def test_birch_trivial_is_value_at_zero():
    sym = build_eigensymbol(E11(), 1, ManinSymbolSpace(11))
    assert birch_sum(sym, 1) == sym.value(INF, Fraction(0))


def test_birch_wrong_sign_rejected():
    sym = build_eigensymbol(E11(), 1, ManinSymbolSpace(11))
    with pytest.raises(ValueError):
        birch_sum(sym, -3)


def test_birch_vs_complex_l_value_11a():
    # tau(psi) L(E,psi,1) / Omega+ should be a small-height rational multiple
    # of the Birch sum (the symbol normalization absorbs a rational factor)
    E = E11()
    sym = build_eigensymbol(E, 1, ManinSymbolSpace(11))
    delta = 5
    assert sign_of_twist(E, delta) == 1
    bs = birch_sum(sym, delta)
    assert bs != 0
    lval, _ = complex_L_value(E, delta)
    om_plus, _ = real_periods(E)
    ratio = math.sqrt(5) * lval / (om_plus * float(bs))
    frac = Fraction(ratio).limit_denominator(1000)
    assert abs(ratio - float(frac)) < 1e-6
    assert frac.denominator <= 1000 and abs(frac.numerator) <= 1000


def test_l_over_period_11a_is_one_fifth_like():
    # L(11a,1)/Omega+ = 1/5; the symbol value matches it up to small rational
    E = E11()
    sym = build_eigensymbol(E, 1, ManinSymbolSpace(11))
    lval, _ = complex_L_value(E, 1)
    om_plus, _ = real_periods(E)
    assert abs(lval / om_plus - 0.2) < 1e-8
    ratio = lval / om_plus / float(sym.value(INF, Fraction(0)))
    frac = Fraction(ratio).limit_denominator(100)
    assert abs(ratio - float(frac)) < 1e-9
    # ratio is a power of small primes times +-1
    n = abs(frac.numerator * frac.denominator)
    while n % 2 == 0:
        n //= 2
    while n % 5 == 0:
        n //= 5
    assert n == 1


# ------------------------------------------------------------ geodesic sums
#
# The special-value geodesics live at the full level of the symbol: the
# Heegner data must be split at every prime of N (61 is split at both 3 and
# 5), so the stabilizers lie in Gamma0(15) and the sums are base-independent.

def test_geodesic_base_point_independence():
    E = E15()
    sp = ManinSymbolSpace(15)
    hs = HeegnerSystem(61, 1, 15)
    chi = enumerate_quadratic_chars(hs.group)[0]
    for sign in (1, -1):
        sym = build_eigensymbol(E, sign, sp)
        vals = [geodesic_period_sum(sym, chi, hs, base=b)
                for b in (INF, Fraction(0), Fraction(1, 2))]
        assert vals[0] == vals[1] == vals[2]


def test_geodesic_wrong_sign_vanishes():
    # the component of sign -w_infinity contributes 0 (reality lemma)
    E = E15()
    sp = ManinSymbolSpace(15)
    for D, c in ((61, 1), (61, 7), (109, 1)):
        hs = HeegnerSystem(D, c, 15)
        for chi in enumerate_quadratic_chars(hs.group):
            attach_genus_data(chi)
            wrong = build_eigensymbol(E, -chi.sign, sp)
            assert geodesic_period_sum(wrong, chi, hs) == 0, (D, c, chi.values)


def test_geodesic_right_sign_nonzero_somewhere():
    E = E15()
    sp = ManinSymbolSpace(15)
    seen_nonzero = False
    for D, c in ((61, 1), (109, 1), (61, 7)):
        hs = HeegnerSystem(D, c, 15)
        for chi in enumerate_quadratic_chars(hs.group):
            attach_genus_data(chi)
            right = build_eigensymbol(E, chi.sign, sp)
            if geodesic_period_sum(right, chi, hs) != 0:
                seen_nonzero = True
    assert seen_nonzero
