import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from starkheegner.arith import mat_adj, mat_mul
from starkheegner.curves import EllipticCurveData
from starkheegner.modsym import (
    INF,
    ManinSymbolSpace,
    apply_moebius,
    build_eigensymbol,
    segments_between,
)
from starkheegner import oms
from starkheegner.oms import (
    Distribution,
    OMSymbol,
    TransportCache,
    _unpacked,
    lift_pair,
    lift_to_oms,
    specialize_weight2,
)
from starkheegner.padics import PadicScalar, PrecisionError, iwasawa_log

from oracle_symbols import (eval_segment, op_full, regular_cf_segments,
                            relation_residual_all, split_from_end, up_sweep_all_targets)

P = 5
NMOM = 8


def E15():
    return EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5, label="15x")


def E115():
    return EllipticCurveData(0, 0, 1, 7, -11, conductor=115, p=5, label="115")


def E37():
    return EllipticCurveData(0, 0, 1, -1, 0, conductor=37, p=37, label="37a")


def E26():
    return EllipticCurveData(1, 0, 1, -5, -8, conductor=26, p=13, label="26a1")


def _lift(sign=1, nmom=NMOM):
    E = E15()
    sp = ManinSymbolSpace(15)
    sym = build_eigensymbol(E, sign, sp)
    return lift_to_oms(sym, E.a_p, P, nmom), sym


# ------------------------------------------------------------ distributions

def test_distribution_filtration_storage():
    d = Distribution(P, 4, m=[1, 5 ** 3 + 1, 7, 3], lam=None)
    assert d.m[1] == 1  # reduced mod p^(4-1)


def test_distribution_sum_rejects_another_prime_or_depth():
    # a sum needs one p and one n: a 7-adic vector reduced mod 5^(4 - j),
    # or 8 moments cut to 6, would be a silently wrong distribution
    with pytest.raises(ValueError):
        Distribution(5, 4, [1, 2, 3, 4]) + Distribution(7, 4, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        Distribution(5, 6) + Distribution(5, 8)


def test_distribution_rejects_a_moment_vector_of_the_wrong_length():
    # a fifth moment of a 4-moment distribution has no precision to be
    # reduced to, and a vector one short would leave the top moment unset
    for xs in ([1, 2, 3, 4, 10 ** 9], [1, 2, 3]):
        with pytest.raises(ValueError):
            Distribution(5, 4, m=xs)
        with pytest.raises(ValueError):
            Distribution(5, 4, lam=xs)


def test_transport_identity():
    cache = TransportCache(P, 6)
    d = Distribution(P, 6, m=[3, 1, 4, 1, 5, 9], lam=[2, 7, 1, 8, 2, 8])
    out = cache.transport(d, (1, 0, 0, 1))
    assert out.m == d.m and out.lam == d.lam


def test_transport_total_mass_invariant():
    cache = TransportCache(P, 6)
    rng = random.Random(3)
    d = Distribution(P, 6, m=[rng.randrange(100) for _ in range(6)],
                     lam=[rng.randrange(100) for _ in range(6)])
    for g in ((1, 2, 5, 11), (1, 0, 15, 1), (2, 1, 5, 3), (5, 2, 0, 1)):
        out = cache.transport(d, g)
        assert out.m[0] == d.m[0] % 5 ** 6


@st.composite
def det_one_transports(draw):
    """(a, b; c, d) of determinant 1 with 5 | c, c != 0."""
    c = P * draw(st.integers(1, 10 ** 4)) * draw(st.sampled_from((1, -1)))
    d = draw(st.integers(-10 ** 6, 10 ** 6))
    while math.gcd(c, d) != 1:  # the next d prime to c, not a rejected draw
        d += 1
    a = pow(d, -1, abs(c)) + c * draw(st.integers(-100, 100))
    return (a, (a * d - 1) // c, c, d)


def _floor_log(p, n):
    """The largest e with p^e <= n, in integers."""
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


@settings(max_examples=150, deadline=None)
@given(det_one_transports(), det_one_transports(), st.integers(1, 30),
       st.randoms(use_true_random=False))
@example((1, 2, 5, 11), (2, 1, 5, 3), 7, random.Random(4))
def test_transport_composition(g1, g2, n, rng):
    cache = TransportCache(P, n)
    d = Distribution(P, n, m=[rng.randrange(P ** n) for _ in range(n)],
                     lam=[rng.randrange(P ** n) for _ in range(n)])
    lhs = cache.transport(cache.transport(d, g1), g2)
    rhs = cache.transport(d, mat_mul(g2, g1))
    # t-moments compose exactly within filtration.  The jet loses up to
    # floor(log_p n) digits: the moments past n_mom that a transport drops
    # meet the log coefficient (c/d)^t / t, of valuation t - v_p(t), and
    # v_p(t) - (t - n) <= floor(log_p n) for t >= n
    assert lhs.m == rhs.m
    assert lhs.max_difference_valuation(rhs) >= n - _floor_log(P, n)


# ------------------------------------------------------------------ lifting

def test_lift_specializes_exactly():
    (phi, cert), sym = _lift(sign=1)
    assert cert.converged
    for i in range(len(phi.space.p1)):
        assert phi.values[i].m[0] == int(sym.vector[i]) % 5 ** NMOM
    # specialization along arbitrary paths
    for r, s in ((INF, Fraction(0)), (Fraction(1, 3), Fraction(2, 7))):
        got = specialize_weight2(phi, r, s)
        want = int(sym.value(r, s)) % 5 ** NMOM
        assert got == want


def test_lift_is_up_eigen_and_satisfies_relations():
    (_, cert), _ = _lift(sign=1)
    assert cert.iterations == NMOM + 1
    assert cert.eigen_valuation >= NMOM
    assert cert.relation_valuation >= NMOM


def test_lift_pair_certifies_both_signs():
    E = E15()
    sp = ManinSymbolSpace(15)
    lifts, certs = lift_pair(E, sp, P, 6)
    assert sorted(lifts) == sorted(certs) == [-1, 1]
    for sign in (1, -1):
        cert = certs[sign]
        assert cert.converged
        assert cert.relation_valuation == cert.eigen_valuation == 6
        phi, want_cert = lift_to_oms(build_eigensymbol(E, sign, sp), E.a_p, P, 6)
        assert lifts[sign].sign == sign
        assert cert == want_cert
        # every matrix of the U_p plan on the generators of the relation
        # order, and those of the solving steps and the relation check
        plan = {key for groups in phi._plan_operator(sp.hecke_paths(P),
                                                     sp.relation_order()[1])
                for key, _ in groups}
        assert cert.matrices_cached == len(phi.cache) > len(plan)
        assert [(v.m, v.lam) for v in lifts[sign].values] == \
            [(v.m, v.lam) for v in phi.values]


@pytest.mark.parametrize("E, p, nmom", [
    (E15, 5, 8),
    (E115, 5, 6),
    (lambda: EllipticCurveData(0, -1, 1, -2, 2, conductor=57, p=19, label="57a1"), 19, 4),
    (lambda: EllipticCurveData(1, 1, 0, -11, 0, conductor=33, p=11, label="33a1"), 11, 4),
    (lambda: EllipticCurveData(1, 0, 1, 4, -6, conductor=14, p=7, label="14a1"), 7, 5),
], ids=("15", "115", "57", "33", "14"))
def test_relation_residual_per_orbit_matches_every_relation(E, p, nmom):
    # one relation per orbit of S and of T gives the level of all of them
    # (tests/oracle_symbols.py checks both at every generator): on the
    # certified lift of each sign, and on that lift with every moment moved
    # by a random multiple of a random power of p, p^0 included
    E = E()
    sp = ManinSymbolSpace(E.conductor)
    rng = random.Random(E.conductor)
    seen = set()
    for sign in (1, -1):
        phi, cert = lift_to_oms(build_eigensymbol(E, sign, sp), E.a_p, p, nmom)
        assert phi.relation_residual() == relation_residual_all(phi) == \
            cert.relation_valuation == nmom, sign
        certified = phi.values
        for _ in range(12):
            top = rng.randrange(nmom + 1)
            phi.values = [Distribution(p, nmom, [x + rng.randrange(p ** nmom)
                                                 * p ** rng.randrange(top, nmom + 1)
                                                 for x in v.m]) for v in certified]
            got = phi.relation_residual()
            assert got == relation_residual_all(phi), (sign, top)
            seen.add(got)
    assert len(seen) > 2, seen


def test_relation_residual_sees_one_moment_moved_at_any_generator():
    # p^k added to moment j of one generator breaks the relations of its
    # orbits at exactly level j + k.  No point of P^1(Z/15) is fixed by S
    # or T, so the value meets each relation once: as the base term it
    # moves the relation by p^k e_j, and transported by gamma by p^k times
    # column j of A(gamma), whose entry (j, j) is a unit and whose entries
    # (i, j), i < j, have valuation at least j - i
    (phi, _), _ = _lift(sign=1)
    certified = phi.values
    rng = random.Random(59)
    for i, v in enumerate(certified):
        for _ in range(4):
            j, k = rng.randrange(NMOM), rng.randrange(NMOM)
            phi.values = list(certified)
            phi.values[i] = Distribution(P, NMOM, [x + (P ** k if t == j else 0)
                                                   for t, x in enumerate(v.m)])
            assert phi.relation_residual() == relation_residual_all(phi) == \
                min(NMOM, j + k), (i, j, k)


def test_relation_residual_sees_each_family_of_relations():
    # the masses of each S-orbit moved by p^k (x, -x), which keeps every
    # 2-term relation on the masses and breaks 3-term ones, and those of
    # each T-orbit by p^k (x, 2x, -3x), the other way round: the residual is
    # k either way, as the relations kept on the masses still hold to level
    # k + 1 (a transport moves moment i >= 1 by a multiple of p^k), so
    # neither family goes unchecked
    (phi, _), _ = _lift(sign=1)
    certified = phi.values
    sp = phi.space
    S, T = ManinSymbolSpace.S, ManinSymbolSpace.T
    rng = random.Random(61)
    for words, weights in (((S,), (1, -1)), ((T, mat_mul(T, T)), (1, 2, -3))):
        for k in range(NMOM):
            shift = [0] * len(certified)
            for i, g in enumerate(sp.lifts):
                orbit = [i] + [sp.generator_of(mat_mul(g, w))[0] for w in words]
                if min(orbit) == i:
                    x = rng.randrange(1, P ** NMOM) * P ** k
                    for idx, weight in zip(orbit, weights):
                        shift[idx] += weight * x
            phi.values = [Distribution(P, NMOM, [v.m[0] + dx] + v.m[1:])
                          for v, dx in zip(certified, shift)]
            assert phi.relation_residual() == relation_residual_all(phi) == k, (words, k)


def test_lift_unique_from_random_start():
    # higher moments drawn uniformly mod p^(NMOM - j), then the n_mom + 1
    # sweeps lift_to_oms runs: every start reaches the same lift
    (phi1, _), sym = _lift(sign=1)
    starts = []
    for seed in (99, 123):
        rng = random.Random(seed)
        phi = OMSymbol(sym.space, P, NMOM, phi1.a_p, sym.sign)
        phi.values = [Distribution(P, NMOM, [int(v)] + [rng.randrange(P ** (NMOM - j))
                                                        for j in range(1, NMOM)])
                      for v in sym.vector]
        for _ in range(NMOM + 1):
            phi.apply_up()
        starts.append(phi)
    phi2, phi3 = starts
    for a, b in ((phi1, phi2), (phi2, phi3)):
        for va, vb in zip(a.values, b.values):
            assert va.max_difference_valuation(vb) >= NMOM


def test_hecke_eigen_transported():
    # (Phi | T_ell) = a_ell Phi within filtration for small good ell
    (phi, _), _ = _lift(sign=1, nmom=6)
    E = E15()
    ref = TransportCache(P, 6)
    for ell in (2, 13):
        a = E.ap(ell)
        for i in (0, 3, 7):
            g = phi.lifts[i]
            from starkheegner.modsym import apply_moebius
            r = apply_moebius(g, Fraction(0))
            s = apply_moebius(g, INF)
            total = Distribution(P, 6)
            # sum of transported paths: path (1, j; 0, ell) with value (ell, -j; 0, 1),
            # path (ell, 0; 0, 1) with value (1, 0; 0, ell); the jet is not part
            # of the lift, so only the t-moments are compared
            for j in range(ell):
                rr = INF if r is INF else Fraction(r + j, ell)
                ss = INF if s is INF else Fraction(s + j, ell)
                total = total + ref.transport(phi.eval_path(rr, ss), (ell, -j, 0, 1))
            rr = INF if r is INF else ell * r
            ss = INF if s is INF else ell * s
            total = total + ref.transport(phi.eval_path(rr, ss), (1, 0, 0, ell))
            want = phi.eval_path(r, s).scale(a)
            assert total.t_difference_valuation(want) >= 5, (ell, i)


@pytest.mark.parametrize("sign", [1, -1])
def test_lift_is_hecke_eigen_through_the_sweep_plan(sign):
    # T_ell commutes with U_p, so the unique a_p-eigenlift is a T_ell
    # eigenlift too: T_ell, applied through the plan a U_p sweep uses (one
    # transport per source and matrix, no a_p^-1), gives a_ell Phi to every
    # filtration level of the certified lift
    nmom = 10
    (phi, _), _ = _lift(sign=sign, nmom=nmom)
    E = E15()
    for ell in (2, 7, 11):
        acc = [[0] * nmom for _ in phi.lifts]
        plan = phi._plan_operator(phi.space.hecke_paths(ell), range(len(phi.lifts)))
        for value, groups in zip(phi.values, plan):
            for key, targets in groups:
                v = _matvec(_rows(phi.cache, phi.cache.matrices(key)[0]), value.m)
                for target, sgn in targets:
                    acc[target] = [a + sgn * x for a, x in zip(acc[target], v)]
        for i, (got, want) in enumerate(zip(acc, phi.values)):
            got = Distribution(P, nmom, got)
            assert got.t_difference_valuation(want.scale(E.ap(ell))) == nmom, \
                (sign, ell, i)


@pytest.mark.parametrize("E, nmom", ((E15, 10), (E15, 20), (E115, 6), (E37, 4), (E26, 4)),
                         ids=("15-10", "15-20", "115-6", "37-4", "26-4"))
def test_lift_is_n_mom_plus_one_sweeps_on_every_index(E, nmom):
    # apply_up plans U_p on the generators of the relation order and
    # solves the other values from the relations: on the classical start,
    # whose higher moments break the relations, that is another map than
    # the sweep planned on every P^1 index (tests/oracle_symbols.py), but
    # both contract onto the one lift, and n_mom + 1 sweeps of either give
    # it bit for bit at every value, for both signs; 37a at p = 37 has
    # points of P^1(Z/37) fixed by S and by T
    E = E()
    p = E.p
    sp = ManinSymbolSpace(E.conductor)
    for sign in (1, -1):
        sym = build_eigensymbol(E, sign, sp)
        phi, cert = lift_to_oms(sym, E.a_p, p, nmom)
        assert cert.converged
        ref = OMSymbol(sp, p, nmom, E.a_p, sign)
        ref.values = [Distribution(p, nmom, [int(v)] + [0] * (nmom - 1)) for v in sym.vector]
        for _ in range(nmom + 1):
            ref.values = up_sweep_all_targets(ref)
        assert [v.m for v in phi.values] == [v.m for v in ref.values], sign


def test_filtration_honesty_more_moments():
    (phi_small, _), _ = _lift(sign=1, nmom=6)
    (phi_big, _), _ = _lift(sign=1, nmom=9)
    for i in range(len(phi_small.space.p1)):
        for j in range(6):
            mod = 5 ** (6 - j)
            assert phi_small.values[i].m[j] % mod == \
                phi_big.values[i].m[j] % mod, (i, j)


def test_depth_one_ball_masses_sum_to_total():
    # additivity: sum of depth-1 ball masses = chart mass of the path
    (phi, _), _ = _lift(sign=1, nmom=6)
    r, s = INF, Fraction(1, 3)
    total = phi.eval_path(r, s).mass()
    ball_sum = 0
    for a in range(P):
        ra = Fraction(r + a, P) if r is not INF else INF
        sa = Fraction(s + a, P) if s is not INF else INF
        # transport by (P, a; 0, 1) keeps the mass
        ball_sum += phi.eval_path(ra, sa).mass()
    # Phi|U_p = a_p Phi: the transported sum is a_p * total
    assert (ball_sum - E15().a_p * total) % 5 ** 6 == 0


def test_up_specializes_to_classical_up():
    # the zeroth moments of one a_p^{-1} U_p sweep are the classical U_p of
    # the zeroth moments, for a start that is not a U_p-eigensymbol
    nmom = 4
    mod = P ** nmom
    curves = (E15(), E115())
    rng = random.Random(11)
    for E in curves:
        sp = ManinSymbolSpace(E.conductor)
        v = [sum(b[i] for b in sp.basis) for i in range(len(sp.p1))]
        den = math.lcm(*(x.denominator for x in v))
        v = [int(x * den) for x in v]
        up = op_full(sp, v, sp.hecke_paths(P))
        assert any(up[i] * v[j] != up[j] * v[i]
                   for i in range(len(v)) for j in range(len(v)))
        phi = OMSymbol(sp, P, nmom, E.a_p, 1)
        phi.values = [Distribution(P, nmom, [x] + [rng.randrange(mod)
                                                    for _ in range(nmom - 1)])
                      for x in v]
        phi.apply_up()
        ap_inv = pow(E.a_p, -1, mod)
        assert [d.m[0] for d in phi.values] == \
            [int(x) * ap_inv % mod for x in up], E.conductor


# --------------------------------------------- the transport kernel, against
# matrices built by schoolbook series products (not by the recurrence) and
# the one-transport-per-piece U_p sweep

def _schoolbook_mul(a, b, mod):
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                if b[j]:
                    out[i + j] = (out[i + j] + ai * b[j]) % mod
    return out


def _reference_matrices(p, n, g):
    """(A, B) of TransportCache.matrices, built by O(n^3) schoolbook series
    products: row j of A is phi^j, row j of B is phi^j * log(c t + d)."""
    mod = p ** n
    a, b, c, d = (x % mod for x in g)
    extra = 1
    while p ** extra <= n:
        extra += 1
    work = mod * p ** extra
    dinv = pow(d, -1, work)
    inv_den = [dinv]
    for _ in range(1, n):
        inv_den.append(inv_den[-1] * (-c * dinv) % work)
    phi = [(b * inv_den[k] + (a * inv_den[k - 1] if k else 0)) % work
           for k in range(n)]
    A = [[1] + [0] * (n - 1)]
    for _ in range(1, n):
        A.append(_schoolbook_mul(A[-1], phi, work))
    log_d = iwasawa_log(PadicScalar.from_int(p, d, n))
    logser = [0 if log_d.is_zero() else log_d.with_precision(n).residue()]
    x = c * dinv % work
    for k in range(1, n):
        e = 0
        while k % p ** (e + 1) == 0:
            e += 1
        num = (x ** k % work // p ** e) * pow(k // p ** e, -1, work) % work
        logser.append((-num if k % 2 == 0 else num) % work)
    B = [_schoolbook_mul(row, logser, work) for row in A]
    return ([[v % mod for v in row] for row in A],
            [[v % mod for v in row] for row in B])


def _up_pieces(sp, g, split=split_from_end):
    """(idx, value matrix, sign) for each piece of U_p at the generator g:
    the path (1, a; 0, p) carries the value transport mat_adj of it.  Each
    image path is split by ``split``: from its own end along a Farey
    geodesic, as the package splits it, or (segments_between) as
    {oo -> y} - {oo -> x}."""
    r, s = apply_moebius(g, Fraction(0)), apply_moebius(g, INF)
    for path in sp.hecke_paths(P):
        for seg, sgn in split(apply_moebius(path, r), apply_moebius(path, s)):
            idx, gamma = sp.generator_of(seg)
            yield idx, mat_mul(mat_adj(path), gamma), sgn


def _matvec(M, v):
    return [sum(x * y for x, y in zip(row, v)) for row in M]


def _rows(cache, C):
    """The rows of A from its packed columns C[k] = sum_j A[j][k] 2^(s_j),
    read at each row's shift s_j with its mask, each without its trailing
    zeros."""
    rows = []
    for shift, mask, _ in cache._slots:
        row = [c >> shift & mask for c in C]
        while row and row[-1] == 0:
            row.pop()
        rows.append(row)
    return rows


def test_transport_matrices_match_schoolbook_build():
    # keys with c = 0, with negative entries, with entries >= p^n, and the
    # U_p value matrices of 15x (every one up to n_mom 8, a sample above).
    # n = 5, 6, 25 and 26 are where the log's slack digits and the largest
    # v_p(k) of its coefficients step up.
    # The cache keeps row j of A mod p^(n - j), packed by columns (read
    # back by _rows without its trailing zeros),
    # and L = row 0 of B; a transport by it is m' = A m, lam' = A lam + B m
    sp = ManinSymbolSpace(15)
    up = sorted({m for g in sp.lifts for _, m, _ in _up_pieces(sp, g)})
    rng = random.Random(17)
    for n in (1, 2, 5, 6, 8, 25, 26, 40):
        big = P ** n
        keys = [(1, 0, 0, 1), (5, -3, 0, 1), (2, 7, 0, 3), (-3, 7, -10, -2),
                (-1, -4, 25, -7), (big + 3, 2 * big + 1, 5 * big + 5, 3 * big + 7),
                (-big - 2, big * big, -7 * big - 15, big + 1)]
        keys += up if n <= 8 else up[::8]
        cache = TransportCache(P, n)
        for g in keys:
            A_ref, B_ref = _reference_matrices(P, n, g)
            rows = [[x % P ** (n - j) for x in row] for j, row in enumerate(A_ref)]
            for row in rows:
                while row and row[-1] == 0:
                    row.pop()
            C, L = cache.matrices(g)
            assert _rows(cache, C) == rows, (n, g)
            assert L == B_ref[0], (n, g)
            for _ in range(2):
                d = Distribution(P, n, [rng.randrange(big) for _ in range(n)],
                                 [rng.randrange(big) for _ in range(n)])
                want = Distribution(P, n, _matvec(A_ref, d.m),
                                    [x + y for x, y in zip(_matvec(A_ref, d.lam),
                                                           _matvec(B_ref, d.m))])
                got = cache.transport(d, g)
                assert (got.m, got.lam) == (want.m, want.lam), (n, g)


def _packed(cache, rows):
    """The columns sum_j rows[j][k] 2^(s_j) of full rows, at the cache's shifts."""
    return [sum(row[k] << s for row, (s, _, _) in zip(rows, cache._slots))
            for k in range(cache.n)]


def _det_p_key(rng, big):
    """A monoid matrix with p | det, i.e. p | a as p | c, with entries of
    either sign and entries >= p^n."""
    a, b, c, d = _monoid_matrix(rng)
    return (P * a + big * rng.randint(-2, 2), b + big * rng.randint(-2, 2),
            c * rng.randint(1, 3 * big), d + big * rng.randint(-2, 2))


def test_det_p_kernels_are_zero_past_their_triangle():
    # for p | det g, phi = b/d + (det/d^2) t/(1 + (c/d) t), so entry k >= 1
    # of row j of the schoolbook A has valuation >= k and is 0 mod p^(n - j)
    # from k = n - j on; the cache builds only that triangle, and its C is
    # the packing of the full schoolbook rows.  Det-1 keys have a non-zero
    # entry past the triangle (so the build must not cut them), and their C
    # is the full packing too
    rng = random.Random(59)
    up = {}
    for N in (15, 115):
        sp = ManinSymbolSpace(N)
        up[N] = sorted({m for g in sp.lifts for _, m, _ in _up_pieces(sp, g)})
    for n in (1, 2, 5, 8, 20, 40):
        big = P ** n
        keys = up[15][::1 if n <= 8 else 8] + up[115][::8 if n <= 8 else 64]
        keys += [_det_p_key(rng, big) for _ in range(8)]
        cache = TransportCache(P, n)
        for g in keys + [_monoid_matrix(rng) for _ in range(4)]:
            a, b, c, d = g
            A_ref, _ = _reference_matrices(P, n, g)
            rows = [[x % P ** (n - j) for x in row] for j, row in enumerate(A_ref)]
            assert cache.matrices(g)[0] == _packed(cache, rows), (n, g)
            past = [x for j, row in enumerate(rows) for x in row[n - j:]]
            if (a * d - b * c) % P:
                assert any(past) or n == 1, (n, g)
                continue
            assert not any(past), (n, g)
            assert all(x % P ** k == 0 for row in A_ref for k, x in enumerate(row)), (n, g)


@pytest.mark.parametrize("E, nmom", ((E15, 10), (E115, 8)), ids=("15", "115"))
def test_lift_builds_det_p_kernels_on_their_triangle(E, nmom, monkeypatch):
    # a certified lift computes, through _next_row, n(n - 1)/2 entries for
    # each kernel of a det-p key (rows 1..n-1, row j of n - j entries) and
    # n(n - 1) for each det-1 key (full rows), and no more
    E = E()
    computed = []

    def counted(prev, a, b, c, mod):
        row = next_row(prev, a, b, c, mod)
        computed.append(len(row))
        return row

    next_row = oms._next_row
    monkeypatch.setattr(oms, "_next_row", counted)
    sp = ManinSymbolSpace(E.conductor)
    phi, cert = lift_to_oms(build_eigensymbol(E, 1, sp), E.a_p, P, nmom)
    assert cert.converged and cert.relation_valuation == nmom
    det_p = sum((a * d - b * c) % P == 0 for a, b, c, d in phi.cache._cache)
    assert 0 < det_p < len(phi.cache)
    assert sum(computed) == det_p * nmom * (nmom - 1) // 2 \
        + (len(phi.cache) - det_p) * nmom * (nmom - 1)


def test_transport_matrices_reject_matrices_outside_the_monoid():
    # the monoid needs d a unit and p | c: d = 10, d = 0 and d = -5 are no
    # units, and c = 1, c = 3 and c = -2 are prime to p
    for n in (1, 8):
        for g in ((1, 2, 5, 10), (3, 1, 5, 0), (2, 1, 25, -5), (1, 0, 1, 1),
                  (2, 1, 3, 4), (1, 1, -2, 1)):
            with pytest.raises(ValueError):
                TransportCache(P, n).matrices(g)


def test_kernel_of_minus_g_is_the_kernel_of_g():
    # C reads only the Moebius map of g, and L = log<c t + d> does not see
    # the sign, as log<-1> = 0: a kernel built afresh for -g equals
    # the one for g, for keys with negative entries and entries >= p^n, and
    # the cache serves g and -g from one entry
    rng = random.Random(53)
    for n in (1, 2, 3, 8, 20, 40):
        big = P ** n
        cache = TransportCache(P, n)
        for _ in range(10):
            g = tuple(x + big * rng.randint(-2, 2) for x in _monoid_matrix(rng))
            neg = tuple(-x for x in g)
            assert cache.matrices(neg) is cache.matrices(g), (n, g)
            assert TransportCache(P, n)._build(neg) == TransportCache(P, n)._build(g) \
                == cache.matrices(g), (n, g)


# ------------------------------------------- packed kernels: products,
# signed accumulators and their preconditions

def _monoid_matrix(rng):
    """(a, b; c, d) with p | c and d a unit, entries of either sign, any
    determinant."""
    d = rng.randint(-10 ** 6, 10 ** 6)
    while d % P == 0:
        d += 1
    return (rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6),
            P * rng.randint(-10 ** 4, 10 ** 4), d)


def test_packed_product_is_the_reference_rows_times_m():
    # slot j of sum_k C[k] m[k] is, as an integer, row j of the schoolbook
    # A (mod p^(n - j)) times m, for random, all-zero and extreme moments
    # m_k = p^(n - k) - 1 and p^n - 1, the largest a product may read
    rng = random.Random(41)
    for n in (1, 2, 5, 8, 20, 40):
        cache = TransportCache(P, n)
        vectors = [[0] * n, [P ** (n - k) - 1 for k in range(n)], [P ** n - 1] * n]
        vectors += [[rng.randrange(P ** (n - k)) for k in range(n)] for _ in range(2)]
        for g in [_monoid_matrix(rng) for _ in range(6)] + [(1, 0, 0, 1), (P, -2, 0, 1)]:
            A_ref, _ = _reference_matrices(P, n, g)
            rows = [[x % P ** (n - j) for x in row] for j, row in enumerate(A_ref)]
            C, _ = cache.matrices(g)
            for m in vectors:
                assert _unpacked(sum(x * y for x, y in zip(C, m)), cache) == \
                    _matvec(rows, m), (n, g, m)


def test_signed_accumulation_of_extreme_products_unpacks_exactly():
    # 2^15 - 1 products, each with every slot j at the largest value one
    # product can reach (n entries of p^(n - j) - 1, as no kernel row j holds
    # an entry >= p^(n - j), against n moments of p^n - 1), summed with random
    # signs, all minus and all plus, read back slot by slot; and the same for
    # a real kernel against the extreme moments m_k = p^(n - k) - 1
    rng = random.Random(43)
    count = (1 << 15) - 1
    for n in (1, 8, 40):
        cache = TransportCache(P, n)
        top = P ** n - 1
        extreme = [n * (P ** (n - j) - 1) * top for j in range(n)]
        C, _ = cache.matrices(_monoid_matrix(rng))
        m = [P ** (n - k) - 1 for k in range(n)]
        for x, slots in ((sum(y << s for y, (s, _, _) in zip(extreme, cache._slots)), extreme),
                         (sum(c * y for c, y in zip(C, m)), _matvec(_rows(cache, C), m))):
            assert _unpacked(x, cache) == slots
            for signs in ([rng.choice((1, -1)) for _ in range(count)],
                          [-1] * count, [1] * count):
                acc = 0
                for sgn in signs:
                    acc = acc + x if sgn > 0 else acc - x
                assert _unpacked(acc, cache, True) == [sum(signs) * y for y in slots], n


@pytest.mark.parametrize("bad", ("low", "high"))
def test_moments_outside_the_packed_range_are_rejected(bad):
    # a moment of -1 or p^n, written into a value in place, would borrow
    # from or carry into the next slot of a packed product; the sweep, the
    # path and the segment raise ValueError instead of returning moments
    n = 6
    sp = ManinSymbolSpace(15)
    phi = OMSymbol(sp, P, n, 1, 1)
    rng = random.Random(47)
    phi.values = [Distribution(P, n, [rng.randrange(P ** (n - j)) for j in range(n)])
                  for _ in range(len(sp.p1))]
    for v in phi.values:
        v.m[n - 1] = -1 if bad == "low" else P ** n
    for call in (phi.apply_up, lambda: phi.eval_path(INF, Fraction(2, 7)),
                 lambda: eval_segment(phi, sp.lifts[3])):
        with pytest.raises(ValueError, match="outside"):
            call()


def test_plan_rejects_a_target_with_2_15_pieces():
    # at N = 2 the path (2, 0; 0, 1) gives targets 0 and 1 one piece each
    # and target 2 two: 2^15 paths overflow target 0's accumulator, and
    # 2^15 - 1 paths pass targets 0 and 1 and overflow target 2 (2^16 - 2
    # pieces)
    phi = OMSymbol(ManinSymbolSpace(2), 2, 3, 1, 1)
    with pytest.raises(ArithmeticError, match="target 0 has 32768 pieces"):
        phi._plan_operator([(2, 0, 0, 1)] * (1 << 15), range(3))
    with pytest.raises(ArithmeticError, match="target 2 has 65534 pieces"):
        phi._plan_operator([(2, 0, 0, 1)] * ((1 << 15) - 1), range(3))


def test_symbol_rejects_fewer_than_one_moment():
    # checked before any work: past the check, n_mom = 0 fails with an
    # IndexError inside the sweeps and n_mom = -2 with a TypeError from pow.
    # A TransportCache checks too: past its check, n = 0 reports every
    # matrix as outside the monoid, and n = -1 fails with an AttributeError
    E = E15()
    sym = build_eigensymbol(E, 1, ManinSymbolSpace(15))
    for n_mom in (0, -1, -2):
        with pytest.raises(ValueError, match="at least one moment"):
            lift_to_oms(sym, E.a_p, P, n_mom)
        with pytest.raises(ValueError, match="at least one moment"):
            OMSymbol(sym.space, P, n_mom, E.a_p, 1)
        with pytest.raises(ValueError, match="at least one moment"):
            TransportCache(P, n_mom)


def test_lift_refuses_a_non_integral_value():
    E = E15()
    sym = build_eigensymbol(E, 1, ManinSymbolSpace(15))
    half = dataclasses.replace(sym, vector=[Fraction(v, 2) for v in sym.vector])
    with pytest.raises(ValueError, match="is not integral"):
        lift_to_oms(half, E.a_p, P, NMOM)


def test_lift_refuses_the_wrong_eigenvalue():
    # 15x has a_5 = +1: each sweep of -U_5 negates the zeroth moments, and
    # the NMOM + 1 = 9 sweeps leave them negated
    E = E15()
    for sign in (1, -1):
        sym = build_eigensymbol(E, sign, ManinSymbolSpace(15))
        with pytest.raises(ValueError, match="zeroth moments drifted"):
            lift_to_oms(sym, -E.a_p, P, NMOM)


def test_lift_refuses_a_shortfall_and_names_the_certified_level(monkeypatch):
    # the sweeps contract any start onto the lift, so the shortfall is made
    # by reporting the relation residual as NMOM - 3: the lift is certified
    # to that many digits only
    E = E15()
    sym = build_eigensymbol(E, 1, ManinSymbolSpace(15))
    monkeypatch.setattr(OMSymbol, "relation_residual", lambda self: NMOM - 3)
    with pytest.raises(PrecisionError, match="certified to %d of %d"
                       % (NMOM - 3, NMOM)) as err:
        lift_to_oms(sym, E.a_p, P, NMOM)
    assert err.value.achievable == NMOM - 3


def test_symbol_rejects_p_not_a_prime_divisor_of_N():
    sp = ManinSymbolSpace(15)
    for p in (15, -5):
        with pytest.raises(ValueError, match="must be a prime dividing"):
            OMSymbol(sp, p, 4, 1, 1)
    for p in (3, 5):
        assert OMSymbol(sp, p, 4, 1, 1).p == p
    with pytest.raises(ValueError, match="exactly once"):
        OMSymbol(ManinSymbolSpace(45), 3, 4, 1, 1)


def _per_piece_up(sp, ref, values, k, a_p):
    """(a_p^{-1} * the sum of one transport per piece of U_p at lifts[k],
    t-moments only, and the number of pieces), from ``values``."""
    total = Distribution(ref.p, ref.n)
    pieces = 0
    for idx, value_mat, sgn in _up_pieces(sp, sp.lifts[k]):
        d = ref.transport(values[idx], value_mat)
        total = total + (d if sgn > 0 else d.scale(-1))
        pieces += 1
    return total.scale(pow(a_p, -1, ref.mod)), pieces


def _random_classical(sp, rng):
    """A random integral vector of the space: a combination of its basis
    with coefficients in [-50, 50), denominators cleared."""
    coeffs = [rng.randrange(-50, 50) for _ in sp.basis]
    v = [sum(c * b[i] for c, b in zip(coeffs, sp.basis)) for i in range(len(sp.p1))]
    den = math.lcm(*(x.denominator for x in v))
    return [int(x * den) for x in v]


def test_grouped_up_sweep_matches_per_piece_transports():
    # one apply_up, from a random start that is no eigensymbol, breaks the
    # Manin relations and has a random jet, equals on the t-moments: at
    # each generator of the relation order, a_p^{-1} * the sum of one
    # transport per piece of U_p; at every other index, minus the sum of
    # one transport of each new value its relation reads.  From a start
    # that satisfies the relations (n_mom sweeps of a random classical
    # symbol with random higher moments), every value is the per-piece sum
    rng = random.Random(13)
    for E, nmom in ((E15(), 6), (E115(), 6), (E15(), 20)):
        mod = P ** nmom
        sp = ManinSymbolSpace(E.conductor)
        _, generators, derived = sp.relation_order()
        ref = TransportCache(P, nmom)
        phi = OMSymbol(sp, P, nmom, E.a_p, 1)
        phi.values = [Distribution(P, nmom, [rng.randrange(mod) for _ in range(nmom)],
                                   [rng.randrange(mod) for _ in range(nmom)])
                      for _ in range(len(sp.p1))]
        assert relation_residual_all(phi) == 0
        start = phi.values
        phi.apply_up()
        pieces = 0
        for k in generators:
            want, count = _per_piece_up(sp, ref, start, k, E.a_p)
            pieces += count
            assert phi.values[k].m == want.m, (E.conductor, nmom, k)
        for k, terms in derived:
            want = Distribution(P, nmom)
            for j, gamma in terms:
                want = want + ref.transport(phi.values[j], gamma).scale(-1)
            assert phi.values[k].m == want.m, (E.conductor, nmom, k)
        assert sum(len(groups) for groups in phi._up_plan) < pieces

        phi.values = [Distribution(P, nmom, [x] + [rng.randrange(mod) for _ in range(1, nmom)])
                      for x in _random_classical(sp, rng)]
        for _ in range(nmom):
            phi.apply_up()
        assert relation_residual_all(phi) == nmom
        start = phi.values
        phi.apply_up()
        assert [d.m for d in phi.values] == \
            [_per_piece_up(sp, ref, start, k, E.a_p)[0].m for k in range(len(sp.p1))], \
            (E.conductor, nmom)


@pytest.mark.parametrize("E, products", ((E15, (42, 26)), (E115, (183, 166))),
                         ids=("15", "115"))
def test_up_sweep_does_one_product_per_source_and_matrix(E, products):
    # the plan holds one kernel, and a sweep does one product, per distinct
    # (source, value matrix) pair of the pieces of U_p at the generators of
    # the relation order, and one more per term of each solving step: 68
    # at N = 15 and 349 at N = 115, where one product per (source, matrix)
    # pair over every P^1 index would do 180 and 1,003.  A warm sweep looks
    # no kernel up
    E = E()
    nmom = 10
    sp = ManinSymbolSpace(E.conductor)
    _, generators, derived = sp.relation_order()
    phi = OMSymbol(sp, P, nmom, E.a_p, 1)
    rng = random.Random(7)
    phi.values = [Distribution(P, nmom, [rng.randrange(P ** nmom) for _ in range(nmom)])
                  for _ in range(len(sp.p1))]
    phi.apply_up()
    pairs = len({(idx, phi.cache._key(value_mat)) for k in generators
                 for idx, value_mat, _ in _up_pieces(sp, sp.lifts[k])})
    terms = sum(len(reads) for _, reads in derived)
    lookups = []
    kernels = phi.cache.matrices

    def counted(key):
        lookups.append(key)
        return kernels(key)

    phi.cache.matrices = counted
    phi.apply_up()
    assert not lookups
    assert (pairs, terms) == products
    assert pairs == sum(len(groups) for groups in phi._up_plan)
    assert terms == sum(len(reads) for _, reads in phi._solve[1])


def test_eigen_residual_leaves_the_symbol_as_it_was():
    # n_mom on a certified lift, below n_mom from a random start that is no
    # eigensymbol; either way phi.values is the same list, holding the same
    # moments, afterwards
    nmom = 6
    (phi, cert), _ = _lift(sign=1, nmom=nmom)
    rng = random.Random(19)
    seeded = [Distribution(P, nmom, [v.m[0]] + [rng.randrange(P ** (nmom - j))
                                                for j in range(1, nmom)])
              for v in phi.values]
    for values, certified in ((phi.values, True), (seeded, False)):
        phi.values = values
        before = [(list(v.m), list(v.lam)) for v in values]
        got = phi.eigen_residual()
        assert phi.values is values
        assert [(v.m, v.lam) for v in phi.values] == before
        if certified:
            assert got == cert.eigen_valuation == nmom
        else:
            assert 0 <= got < nmom


# ------------------------------------------- paths by Horner's rule, against
# one transport per segment

def _per_segment_path(phi, cache, r, s, split=segments_between):
    """Phi{r -> s}, one transport per segment of split(r, s), in the kernel
    cache ``cache``: the reference for eval_path's Horner rule.  The
    segments' moments are summed as integers and reduced once, by the
    Distribution built at the end (reduction is a ring map)."""
    m, lam = [0] * phi.n, [0] * phi.n
    for g, sign in split(r, s):
        idx, gamma = phi.space.generator_of(g)
        d = cache.transport(phi.values[idx], gamma)
        for j in range(phi.n):
            m[j] += sign * d.m[j]
            lam[j] += sign * d.lam[j]
    return Distribution(phi.p, phi.n, m, lam)


def _big_cusp(rng):
    return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))


def test_eval_path_by_horner_matches_per_segment_transports():
    # seeded symbols (classical zeroth moments, random higher moments and
    # jets) on random paths between cusps up to 10^12 and on the edge paths
    # r = s, oo -> s and oo -> oo: the t-moments are equal, and the cache
    # holds fewer kernels than one transport per segment builds, which is at
    # most one per segment.  At n = 1 both caches hold all 10 sign classes
    # of determinant-1 keys mod 5, so there the two may be equal
    rng = random.Random(23)
    for E, depths in ((E15(), (1, 2, 8, 20, 40)), (E115(), (10,))):
        sp = ManinSymbolSpace(E.conductor)
        sym = build_eigensymbol(E, 1, sp)
        for n in depths:
            phi = OMSymbol(sp, P, n, E.a_p, 1)
            phi.values = [Distribution(
                P, n, [int(v)] + [rng.randrange(P ** (n - j)) for j in range(1, n)],
                [rng.randrange(P ** (n - j)) for j in range(n)]) for v in sym.vector]
            ref = TransportCache(P, n)
            paths = [(_big_cusp(rng), _big_cusp(rng)) for _ in range(4)]
            x = _big_cusp(rng)
            paths += [(x, x), (INF, x), (INF, INF)]
            segments = 0
            for r, s in paths:
                segments += len(segments_between(r, s))
                got = phi.eval_path(r, s)
                want = _per_segment_path(phi, ref, r, s)
                assert got.m == want.m, (E.conductor, n, r, s)
            fewer = len(phi.cache) <= len(ref) if n == 1 else len(phi.cache) < len(ref)
            assert fewer and len(ref) <= segments, (E.conductor, n)


def test_eval_path_memo_holds_kernels_not_values():
    # eval_path keeps each Horner step's kernel by (generator, step); apply_up
    # replaces the values between two calls on one symbol, and the second
    # call still equals one transport per segment of the new values
    rng = random.Random(29)
    for E in (E15(), E115()):
        sp = ManinSymbolSpace(E.conductor)
        sym = build_eigensymbol(E, 1, sp)
        n = 8
        phi = OMSymbol(sp, P, n, E.a_p, 1)
        phi.values = [Distribution(
            P, n, [int(v)] + [rng.randrange(P ** (n - j)) for j in range(1, n)])
            for v in sym.vector]
        paths = [(_big_cusp(rng), _big_cusp(rng)) for _ in range(3)]
        paths.append((INF, _big_cusp(rng)))
        for _ in range(2):
            ref = TransportCache(P, n)
            for r, s in paths:
                assert phi.eval_path(r, s).m == _per_segment_path(phi, ref, r, s).m, (r, s)
            phi.apply_up()


def test_warm_eval_path_finds_generators_only_at_path_ends(monkeypatch):
    # on a warm symbol every Horner step is found by (generator, step), so
    # generator_of runs once per finite path end, not once per segment
    (phi, _), _ = _lift()
    rng = random.Random(37)
    paths = [(_big_cusp(rng), _big_cusp(rng)) for _ in range(3)]
    paths.append((INF, _big_cusp(rng)))
    cold = [phi.eval_path(r, s).m for r, s in paths]
    calls = []
    generator_of = ManinSymbolSpace.generator_of

    def counted(self, g):
        calls.append(g)
        return generator_of(self, g)

    monkeypatch.setattr(ManinSymbolSpace, "generator_of", counted)
    assert [phi.eval_path(r, s).m for r, s in paths] == cold
    ends = sum(x is not INF for path in paths for x in path)
    assert 0 < len(calls) <= ends < sum(len(segments_between(r, s)) for r, s in paths)


# --------------------------------------- the geodesic split, against chains
# from infinity: a certified lift satisfies the Manin relations, on which
# every unimodular decomposition of a path gives one value

def _regular_between(r, s):
    """{r -> s} as {oo -> s} - {oo -> r} on regular continued-fraction
    chains, as (g, +-1) pairs."""
    return ([(g, 1) for g in regular_cf_segments(s)]
            + [(g, -1) for g in regular_cf_segments(r)])


@pytest.mark.parametrize("E, nmom", ((E15, 10), (E15, 20), (E115, 10)),
                         ids=("15-10", "15-20", "115-10"))
@pytest.mark.parametrize("sign", (1, -1))
def test_certified_lift_reads_the_same_on_chains_from_infinity(E, nmom, sign):
    # a_p^{-1} U_p written out piece by piece on the chains {oo -> y} -
    # {oo -> x}, one transport per piece, fixes the lift to all n_mom
    # digits; and eval_path at random paths with finite and infinite ends
    # equals one transport per segment of regular continued-fraction chains
    E = E()
    sp = ManinSymbolSpace(E.conductor)
    phi, cert = lift_to_oms(build_eigensymbol(E, sign, sp), E.a_p, P, nmom)
    assert cert.converged and cert.relation_valuation == nmom
    ref = TransportCache(P, nmom)
    ap_inv = pow(E.a_p, -1, P ** nmom)
    for g, value in zip(sp.lifts, phi.values):
        total = Distribution(P, nmom)
        for idx, value_mat, sgn in _up_pieces(sp, g, segments_between):
            d = ref.transport(phi.values[idx], value_mat)
            total = total + (d if sgn > 0 else d.scale(-1))
        assert total.scale(ap_inv).t_difference_valuation(value) == nmom, g
    rng = random.Random(E.conductor * nmom * sign)
    x = _big_cusp(rng)
    paths = [(_big_cusp(rng), _big_cusp(rng)) for _ in range(4)] + [(INF, x), (x, INF)]
    for r, s in paths:
        got = phi.eval_path(r, s)
        assert got.m == _per_segment_path(phi, ref, r, s, _regular_between).m, (r, s)


def test_symbol_operations_read_and_return_t_moments_only():
    # apply_up and eval_path from values with random jets give the same
    # t-moments as from the same values with zero jets, and return a zero
    # jet; eval_segment, through the transport relation_residual reads,
    # gives the t-moments of one transport of the value by gamma
    rng = random.Random(31)
    for E in (E15(), E115()):
        sp = ManinSymbolSpace(E.conductor)
        for n in (6, 20):
            zero = [0] * n
            moments, jets = ([[rng.randrange(P ** (n - j)) for j in range(n)]
                              for _ in range(len(sp.p1))] for _ in range(2))
            phi = OMSymbol(sp, P, n, E.a_p, 1)
            phi.values = [Distribution(P, n, m, lam) for m, lam in zip(moments, jets)]
            bare = OMSymbol(sp, P, n, E.a_p, 1)
            bare.values = [Distribution(P, n, m) for m in moments]
            ref = TransportCache(P, n)
            for g in sp.lifts[::5]:
                for h in (g, mat_mul(g, ManinSymbolSpace.S),
                          mat_mul(g, ManinSymbolSpace.T)):
                    idx, gamma = sp.generator_of(h)
                    got = eval_segment(phi, h)
                    assert got.m == ref.transport(phi.values[idx], gamma).m, (n, h)
                    assert got.lam == zero, (n, h)
            x = _big_cusp(rng)
            for r, s in ((_big_cusp(rng), x), (INF, x)):
                got, want = phi.eval_path(r, s), bare.eval_path(r, s)
                assert got.m == want.m, (E.conductor, n, r, s)
                assert got.lam == want.lam == zero, (E.conductor, n, r, s)
            phi.apply_up()
            bare.apply_up()
            assert [d.m for d in phi.values] == [d.m for d in bare.values], E.conductor
            assert all(d.lam == zero for d in phi.values + bare.values), E.conductor
