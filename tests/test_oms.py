import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from starkheegner.arith import MAT_ID, mat_adj, mat_mul
from starkheegner.curves import EllipticCurveData
from starkheegner.modsym import (
    INF,
    ManinSymbolSpace,
    apply_moebius,
    build_eigensymbol,
    segments_between,
)
from starkheegner.oms import (
    Distribution,
    OMSymbol,
    TransportCache,
    _unpacked,
    lift_pair,
    lift_to_oms,
    specialize_weight2,
)
from starkheegner.padics import PadicScalar, iwasawa_log

from oracle_symbols import op_full

P = 5
NMOM = 8


def E15():
    return EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5, label="15x")


def E115():
    return EllipticCurveData(0, 0, 1, 7, -11, conductor=115, p=5, label="115")


def _lift(sign=1, nmom=NMOM, randomize=None):
    E = E15()
    sp = ManinSymbolSpace(15)
    sym = build_eigensymbol(E, sign, sp)
    return lift_to_oms(sym, E.a_p, P, nmom, randomize=randomize), sym


# ------------------------------------------------------------ distributions

def test_distribution_filtration_storage():
    d = Distribution(P, 4, m=[1, 5 ** 3 + 1, 7, 3], lam=None)
    assert d.m[1] == 1  # reduced mod p^(4-1)


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
        # every matrix of the U_p plan, and those of the relation check
        plan = {key for groups in phi._up_plan for key, _ in groups}
        assert cert.matrices_cached == len(phi.cache) > len(plan)
        assert [(v.m, v.lam) for v in lifts[sign].values] == \
            [(v.m, v.lam) for v in phi.values]


def test_lift_unique_from_random_start():
    (phi1, _), _ = _lift(sign=1)
    (phi2, _), _ = _lift(sign=1, randomize=random.Random(99))
    (phi3, _), _ = _lift(sign=1, randomize=random.Random(123))
    for a, b in ((phi1, phi2), (phi2, phi3)):
        for va, vb in zip(a.values, b.values):
            assert va.max_difference_valuation(vb) >= NMOM


def test_hecke_eigen_transported():
    # (Phi | T_ell) = a_ell Phi within filtration for small good ell
    (phi, _), _ = _lift(sign=1, nmom=6)
    E = E15()
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
                d = phi.eval_path_transported(rr, ss, (ell, -j, 0, 1))
                total = total + d
            rr = INF if r is INF else ell * r
            ss = INF if s is INF else ell * s
            d = phi.eval_path_transported(rr, ss, (1, 0, 0, ell))
            total = total + d
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
        plan = phi._plan_operator(phi.space.hecke_paths(ell))
        for value, groups in zip(phi.values, plan):
            for key, targets in groups:
                v = _matvec(_rows(phi.cache, phi.cache.matrices(key)[0]), value.m)
                for target, sgn in targets:
                    acc[target] = [a + sgn * x for a, x in zip(acc[target], v)]
        for i, (got, want) in enumerate(zip(acc, phi.values)):
            got = Distribution(P, nmom, got)
            assert got.t_difference_valuation(want.scale(E.ap(ell))) == nmom, \
                (sign, ell, i)


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
        d = phi.eval_path_transported(ra, sa, (P, a, 0, 1))
        ball_sum += d.mass()
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
    logser = [0 if log_d.is_zero() else log_d.residue(n)]
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


def _up_pieces(sp, g):
    """(idx, value matrix, sign) for each piece of U_p at the generator g:
    the path (1, a; 0, p) carries the value transport mat_adj of it."""
    r, s = apply_moebius(g, Fraction(0)), apply_moebius(g, INF)
    for path in sp.hecke_paths(P):
        for seg, sgn in segments_between(apply_moebius(path, r),
                                         apply_moebius(path, s)):
            idx, gamma = sp.generator_of(seg)
            yield idx, mat_mul(mat_adj(path), gamma), sgn


def _matvec(M, v):
    return [sum(x * y for x, y in zip(row, v)) for row in M]


def _rows(cache, C):
    """The rows of A from its packed columns C[k] = sum_j A[j][k] 2^(w j),
    each without its trailing zeros."""
    mask = (1 << cache.width) - 1
    rows = []
    for j in range(cache.n):
        row = [c >> (cache.width * j) & mask for c in C]
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


def test_transport_matrices_reject_matrices_outside_the_monoid():
    # the monoid needs d a unit and p | c: d = 10, d = 0 and d = -5 are no
    # units, and c = 1, c = 3 and c = -2 are prime to p
    for n in (1, 8):
        for g in ((1, 2, 5, 10), (3, 1, 5, 0), (2, 1, 25, -5), (1, 0, 1, 1),
                  (2, 1, 3, 4), (1, 1, -2, 1)):
            with pytest.raises(ValueError):
                TransportCache(P, n).matrices(g)


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
    # 2^15 - 1 products, each with every slot at the largest value one product
    # can reach (n entries and n moments of p^n - 1), summed with random
    # signs, all minus and all plus, read back slot by slot; and the same for
    # a real kernel against the extreme moments m_k = p^(n - k) - 1
    rng = random.Random(43)
    count = (1 << 15) - 1
    for n in (1, 8, 40):
        cache = TransportCache(P, n)
        top = P ** n - 1
        full = sum(top << (cache.width * j) for j in range(n))
        C, _ = cache.matrices(_monoid_matrix(rng))
        m = [P ** (n - k) - 1 for k in range(n)]
        for x, slots in ((full * n * top, [n * top * top] * n),
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
                 lambda: phi.eval_path_transported(Fraction(1, 3), Fraction(2, 7),
                                                   (P, 1, 0, 1)),
                 lambda: phi.eval_segment(sp.lifts[3])):
        with pytest.raises(ValueError, match="outside"):
            call()


def test_plan_rejects_a_target_with_2_15_pieces():
    # at N = 2 the identity path gives targets 0 and 1 one piece each and
    # target 2 two: 2^15 paths overflow target 0's accumulator, and 2^15 - 1
    # paths pass targets 0 and 1 and overflow target 2 (2^16 - 2 pieces)
    phi = OMSymbol(ManinSymbolSpace(2), 2, 3, 1, 1)
    with pytest.raises(ArithmeticError, match="target 0 has 32768 pieces"):
        phi._plan_operator([MAT_ID] * (1 << 15))
    with pytest.raises(ArithmeticError, match="target 2 has 65534 pieces"):
        phi._plan_operator([MAT_ID] * ((1 << 15) - 1))


def test_symbol_rejects_fewer_than_one_moment():
    # checked before any work: past the check, n_mom = 0 fails with an
    # IndexError inside the sweeps and n_mom = -2 with a TypeError from pow
    E = E15()
    sym = build_eigensymbol(E, 1)
    for n_mom in (0, -2):
        with pytest.raises(ValueError, match="at least one moment"):
            lift_to_oms(sym, E.a_p, P, n_mom)
        with pytest.raises(ValueError, match="at least one moment"):
            OMSymbol(sym.space, P, n_mom, E.a_p, 1)


def test_symbol_rejects_p_not_a_prime_divisor_of_N():
    sp = ManinSymbolSpace(15)
    for p in (15, -5):
        with pytest.raises(ValueError, match="must be a prime dividing"):
            OMSymbol(sp, p, 4, 1, 1)
    for p in (3, 5):
        assert OMSymbol(sp, p, 4, 1, 1).p == p
    with pytest.raises(ValueError, match="exactly once"):
        OMSymbol(ManinSymbolSpace(45), 3, 4, 1, 1)


def test_grouped_up_sweep_matches_per_piece_transports():
    # one apply_up, from a random start that is no eigensymbol and has a
    # random jet, equals a_p^{-1} * the sum of one transport per piece of U_p
    # on the t-moments
    rng = random.Random(13)
    for E, nmom in ((E15(), 6), (E115(), 6), (E15(), 20)):
        mod = P ** nmom
        sp = ManinSymbolSpace(E.conductor)
        phi = OMSymbol(sp, P, nmom, E.a_p, 1)
        phi.values = [Distribution(P, nmom, [rng.randrange(mod) for _ in range(nmom)],
                                   [rng.randrange(mod) for _ in range(nmom)])
                      for _ in range(len(sp.p1))]
        start = phi.values
        ref = TransportCache(P, nmom)
        ap_inv = pow(E.a_p, -1, mod)
        want = []
        pieces = 0
        for g in sp.lifts:
            total = Distribution(P, nmom)
            for idx, value_mat, sgn in _up_pieces(sp, g):
                d = ref.transport(start[idx], value_mat)
                total = total + (d if sgn > 0 else d.scale(-1))
                pieces += 1
            want.append(total.scale(ap_inv))
        phi.apply_up()
        assert sum(len(groups) for groups in phi._up_plan) < pieces
        assert [d.m for d in phi.values] == [d.m for d in want], (E.conductor, nmom)


@pytest.mark.parametrize("E", (E15, E115), ids=("15", "115"))
def test_up_sweep_does_one_product_per_source_and_matrix(E):
    # a warm sweep looks up one kernel, and does one product, per distinct
    # (source generator, value matrix) pair of the pieces of U_p; one
    # product per (target, matrix) group would do 439 at N = 15 and 3,569
    # at N = 115
    E = E()
    nmom = 10
    sp = ManinSymbolSpace(E.conductor)
    phi = OMSymbol(sp, P, nmom, E.a_p, 1)
    rng = random.Random(7)
    phi.values = [Distribution(P, nmom, [rng.randrange(P ** nmom) for _ in range(nmom)])
                  for _ in range(len(sp.p1))]
    phi.apply_up()
    want = len({(idx, phi.cache._key(value_mat))
                for g in sp.lifts for idx, value_mat, _ in _up_pieces(sp, g)})
    lookups = []
    kernels = phi.cache.matrices

    def counted(key):
        lookups.append(key)
        return kernels(key)

    phi.cache.matrices = counted
    phi.apply_up()
    assert len(lookups) == want == sum(len(groups) for groups in phi._up_plan)


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

def _per_segment_path(phi, cache, r, s, outer):
    """transport(Phi{r -> s}, outer), one transport per segment, in the
    kernel cache ``cache``: the former body of eval_path_transported.  The
    segments' moments are summed as integers and reduced once, by the
    Distribution built at the end (reduction is a ring map)."""
    m, lam = [0] * phi.n, [0] * phi.n
    for g, sign in segments_between(r, s):
        idx, gamma = phi.space.generator_of(g)
        d = cache.transport(phi.values[idx], mat_mul(outer, gamma))
        for j in range(phi.n):
            m[j] += sign * d.m[j]
            lam[j] += sign * d.lam[j]
    return Distribution(phi.p, phi.n, m, lam)


def _big_cusp(rng):
    return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))


def test_eval_path_by_horner_matches_per_segment_transports():
    # seeded symbols (classical zeroth moments, random higher moments and
    # jets) on random paths between cusps up to 10^12 and on the edge paths
    # r = s, oo -> s and oo -> oo, under the outer matrices of eval_path,
    # of the U_p balls and of T_ell: the t-moments are equal, and the cache
    # holds fewer kernels than one transport per segment builds, which is at
    # most one per segment
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
            outers = ((1, 0, 0, 1), (P, rng.randrange(P), 0, 1),
                      (1, 0, 0, rng.choice((2, 3, 7, 13))))
            segments = 0
            for r, s in paths:
                segments += len(outers) * len(segments_between(r, s))
                for outer in outers:
                    if outer == (1, 0, 0, 1):
                        got = phi.eval_path(r, s)
                    else:
                        got = phi.eval_path_transported(r, s, outer)
                    want = _per_segment_path(phi, ref, r, s, outer)
                    assert got.m == want.m, (E.conductor, n, r, s, outer)
            assert len(phi.cache) < len(ref) <= segments, (E.conductor, n)


def test_symbol_operations_read_and_return_t_moments_only():
    # apply_up, eval_path and eval_path_transported from values with random
    # jets give the same t-moments as from the same values with zero jets,
    # and return a zero jet; eval_segment, which relation_residual reads,
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
                    got = phi.eval_segment(h)
                    assert got.m == ref.transport(phi.values[idx], gamma).m, (n, h)
                    assert got.lam == zero, (n, h)
            x = _big_cusp(rng)
            for r, s in ((_big_cusp(rng), x), (INF, x)):
                for outer in ((1, 0, 0, 1), (P, rng.randrange(P), 0, 1)):
                    if outer == (1, 0, 0, 1):
                        got, want = phi.eval_path(r, s), bare.eval_path(r, s)
                    else:
                        got = phi.eval_path_transported(r, s, outer)
                        want = bare.eval_path_transported(r, s, outer)
                    assert got.m == want.m, (E.conductor, n, r, s, outer)
                    assert got.lam == want.lam == zero, (E.conductor, n, r, s, outer)
            phi.apply_up()
            bare.apply_up()
            assert [d.m for d in phi.values] == [d.m for d in bare.values], E.conductor
            assert all(d.lam == zero for d in phi.values + bare.values), E.conductor
