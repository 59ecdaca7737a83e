import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from scipy.integrate import quad
from scipy.special import exp1

import starkheegner
from starkheegner import curves
from starkheegner.arith import kronecker, primes_up_to
from starkheegner.curves import (
    CurveError,
    EllipticCurveData,
    GlobalPoint,
    _e1,
    _twist_series_data,
    _two_torsion_order,
    check_sh_hypothesis,
    complex_L_derivative,
    complex_L_value,
    naive_point_search,
    point_order_divides,
    sign_of_twist,
    twist_model,
    twist_point_to_curve,
)
from starkheegner.genus import attach_genus_data, enumerate_quadratic_chars, order_by_sign
from starkheegner.quadforms import NarrowClassGroup

from oracle_periods import fricke_sign_numeric, real_periods, twisted_l_series
from oracle_points import order_divides_by_multiplication


def E37():
    return EllipticCurveData(0, 0, 1, -1, 0, conductor=37, p=37, label="37a")


def E15():
    return EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5, label="15x")


def E21():
    return EllipticCurveData(1, 0, 0, -4, -1, conductor=21, p=7, label="21x")


# ----------------------------------------------------------------- validation

def test_conductor_validation():
    with pytest.raises(CurveError):
        EllipticCurveData(0, 0, 1, -1, 0, conductor=38, p=19)
    with pytest.raises(CurveError):
        EllipticCurveData(0, 0, 0, -1, 0, conductor=37, p=37)  # disc 64, N=2
    with pytest.raises(CurveError):
        EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=3**2)


def test_p_must_be_a_prime_divisor_of_the_conductor():
    # 15 and -5 divide N = 15 exactly once but are not primes; before the
    # check, p = 15 gave a "trace" a_15 = 1 and p = -5 a negative count
    for p in (15, -5):
        with pytest.raises(CurveError, match="not a prime dividing"):
            EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=p)
    for p in (3, 5):
        E = EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=p)
        assert E.level_m == 15 // p and E.a_p in (1, -1)


# -------------------------------------------------------------- point counts

def test_a2_of_37a_by_hand_count():
    # 5 points over F_2 including infinity
    E = E37()
    pts = 1
    for x in range(2):
        for y in range(2):
            if (y * y + y - (x ** 3 - x)) % 2 == 0:
                pts += 1
    assert pts == 5
    assert E.ap(2) == -2


def _projective_trace(E, ell):
    """a_ell by brute force over F_ell: count the points of the projective
    curve where a partial derivative is nonzero; then a_ell = ell + 1 - #E
    at good ell and ell - #E_ns at bad ell."""
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    count = 1  # the point at infinity
    for x in range(ell):
        for y in range(ell):
            f = y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)
            fx = a1 * y - 3 * x * x - 2 * a2 * x - a4
            fy = 2 * y + a1 * x + a3
            if f % ell == 0 and (fx % ell or fy % ell):
                count += 1
    good = E.conductor % ell != 0
    return ell + good - count


def _trace_curves():
    return (EllipticCurveData(0, -1, 1, -10, -20, conductor=11, p=11, label="11a1"),
            EllipticCurveData(1, 0, 1, 4, -6, conductor=14, p=7, label="14a1"),
            E15(),
            EllipticCurveData(0, 0, 1, 7, -11, conductor=115, p=5, label="115"))


def test_trace_matches_projective_count():
    for E in _trace_curves():
        for ell in primes_up_to(59):
            assert E.ap(ell) == _projective_trace(E, ell), (E.label, ell)


def _legendre_trace(E, ell):
    """a_ell = -sum_x (d(x) | ell), d(x) = (a1x+a3)^2 + 4 rhs(x): the
    direct count, at good and bad ell alike."""
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    sq = bytearray(ell)
    for t in range(ell):
        sq[t * t % ell] = 1
    total = 0
    for x in range(ell):
        lin = a1 * x + a3
        d = (lin * lin + 4 * (((x + a2) * x + a4) * x + a6)) % ell
        if d:
            total += 1 if sq[d] else -1
    return -total


def test_trace_above_mestre_bound_matches_legendre_sum():
    # baby-step giant-step takes over from the direct sum above 229
    for E in _trace_curves() + (E37(), E21()):
        bad = [ell for ell in primes_up_to(E.conductor) if E.conductor % ell == 0]
        for ell in bad + [ell for ell in primes_up_to(2999) if ell > 229]:
            assert E.ap(ell) == _legendre_trace(E, ell), (E.label, ell)


def test_hasse_bound():
    E = E37()
    for ell in (3, 5, 7, 11, 13, 101, 211, 997):
        a = E.ap(ell)
        assert a * a <= 4 * ell


def test_multiplicative_ap_is_pm1():
    for E in (E15(), E21()):
        assert E.a_p in (1, -1)
        for ell in [q for q in (3, 5, 7) if E.conductor % q == 0]:
            assert E.ap(ell) in (1, -1)


def test_fricke_sign_is_the_product_of_the_local_signs():
    # w_N = prod_{ell | N} (-a_ell) exactly, against the functional equation
    # in floating point.  The root number is -w_N: 11a1 and 14a1 (rank 0)
    # have w_N = -1, 37a (rank 1) has w_N = +1
    curves = [EllipticCurveData(*a, conductor=N, p=p) for a, N, p in (
        ((0, -1, 1, -10, -20), 11, 11),
        ((1, 0, 1, 4, -6), 14, 7),
        ((1, 1, 1, -10, -10), 15, 5),
        ((1, 0, 0, -4, -1), 21, 7),
        ((0, 1, 1, -1, 0), 35, 5),
        ((0, 0, 1, -1, 0), 37, 37),
        ((0, 0, 1, 7, -11), 115, 5),
    )]
    for E in curves:
        assert E.w_fricke == fricke_sign_numeric(E), E.conductor
    assert [E.w_fricke for E in curves[:2]] == [-1, -1]
    assert curves[5].w_fricke == 1


def test_an_multiplicativity():
    E = E15()
    an = E.an_list(200)
    for m in range(2, 14):
        for n in range(2, 200 // m):
            if math.gcd(m, n) == 1:
                assert an[m * n] == an[m] * an[n]
    # Hecke recursion at a good prime
    for ell in (2, 7, 11):
        assert an[ell * ell] == an[ell] ** 2 - ell


# ------------------------------------------------------------- SH hypothesis

def test_sh_hypothesis_pass():
    ok, fails = check_sh_hypothesis(E15(), 13, 1)
    assert ok, fails


def test_sh_hypothesis_failures():
    ok, fails = check_sh_hypothesis(E15(), 5, 1)
    assert not ok and any("factor with N" in f for f in fails)
    ok, fails = check_sh_hypothesis(E15(), 13, 5)
    assert not ok and any("coprime" in f for f in fails)
    ok, fails = check_sh_hypothesis(E15(), 17, 1)
    assert not ok  # 17 = 2 mod 3 and 2 mod 5: not split at 3
    # c = -7 and -1 pass every other test (odd, squarefree, coprime to DN),
    # but no order has conductor c < 1
    for c in (-7, -1, 0):
        ok, fails = check_sh_hypothesis(E15(), 13, c)
        assert not ok and fails == ["c must be a positive integer"], (c, fails)


def test_sh_hypothesis_names_each_remaining_failure():
    # on 15x: 9 = 3^2 is no fundamental discriminant (and shares 3 with N),
    # 2 is even, 49 = 7^2 is not squarefree, and 61 = 1 mod 3 and mod 5
    # splits 3, as it should, but also p = 5
    cases = {(9, 1): ["D is not a fundamental discriminant > 1",
                      "D shares a factor with N"],
             (13, 2): ["c must be odd"],
             (13, 49): ["c must be squarefree"],
             (61, 1): ["p = 5 is not inert in F"]}
    for (D, c), want in cases.items():
        assert check_sh_hypothesis(E15(), D, c) == (False, want), (D, c)


# ----------------------------------------------------------------- L-values

def test_l_derivative_37a():
    E = E37()
    assert sign_of_twist(E, 1) == -1
    val, _ = complex_L_derivative(E, 1)
    assert abs(val - 0.3059997738) < 1e-6
    # slow oracle: much longer series
    val2 = twisted_l_series(E, 1, 6.0, derivative=True)
    assert abs(val - val2) < 1e-8


def test_e1_matches_scipy():
    # a log grid over [1e-6, 150], and both sides of the switch from the
    # power series to the continued fraction at x = 2
    grid = [10 ** (-6 + k * (6 + math.log10(150)) / 400) for k in range(401)]
    grid += [2 - 1e-9, math.nextafter(2, 0), 2.0, math.nextafter(2, 3), 2 + 1e-9]
    for x in grid:
        assert abs(_e1(x) - exp1(x)) <= 1e-13 * exp1(x), x


@pytest.mark.parametrize("delta", [13, -7, -11, 1001])
def test_l_derivative_matches_scipy_series(delta):
    # every n <= L, zero terms included, with scipy's E1
    E = E15()
    A, L, _ = _twist_series_data(E, delta)
    an = E.an_list(L)
    ref = 2 * math.fsum(an[n] * kronecker(delta, n) / n * exp1(n / A)
                        for n in range(1, L + 1))
    val, _ = complex_L_derivative(E, delta)
    assert abs(val - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("delta", [1, 77, -91, -143])
def test_l_value_matches_per_term_kronecker_series(delta):
    # the sign +1 path: every n <= L, zero terms included, one Kronecker
    # symbol per n in place of the table of chi_delta mod |delta|
    E = E15()
    assert sign_of_twist(E, delta) == 1
    A, L, _ = _twist_series_data(E, delta)
    an = E.an_list(L)
    ref = 2 * math.fsum(an[n] * kronecker(delta, n) / n * math.exp(-n / A)
                        for n in range(1, L + 1))
    val, _ = complex_L_value(E, delta)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_twist_series_reads_chi_from_one_period(monkeypatch):
    # chi_1001 takes |delta| = 1001 Kronecker symbols, not one per a_n != 0
    # (about 14.5k over the series' 22k terms)
    import starkheegner.curves as curves

    calls = []

    def counted(a, n):
        calls.append(n)
        return kronecker(a, n)

    monkeypatch.setattr(curves, "kronecker", counted)
    _, L, terms = _twist_series_data(E15(), 1001)
    assert sum(1 for _ in terms) > 10000 and L > 20000
    assert len(calls) <= 1001


def test_twist_series_is_summed_as_it_streams():
    # with the a_n already built (the series data builds and keeps them),
    # the sum holds the copy of a_0..a_L, 8 bytes each, and no list of its
    # 14.5k non-zero terms
    E = E15()
    assert _twist_series_data(E, 1001)[1] == 22374
    tracemalloc.start()
    try:
        complex_L_derivative(E, 1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


@pytest.mark.parametrize("delta", [7, -1, 52, 117])
def test_twist_must_be_fundamental(delta):
    # coprime to 15 but not 1 or a fundamental discriminant: (delta | n) has
    # no period |delta| (e.g. (-1 | 2) = 1, (-1 | 6) = -1) and N delta^2 is
    # not the twist's conductor
    E = E15()
    for f in (_twist_series_data, complex_L_value, complex_L_derivative,
              sign_of_twist):
        with pytest.raises(CurveError, match="fundamental"):
            f(E, delta)


def test_every_twist_in_use_is_accepted():
    # the twists of the tests and of the twists-d13 workload
    E11 = EllipticCurveData(0, -1, 1, -10, -20, conductor=11, p=11)
    cases = [(E11, 5), (E11, 1), (E37(), 1)]
    cases += [(E15(), d) for d in (1, 13, -7, -11, 1001, -91, -143, 77)]
    for E, delta in cases:
        A, L, terms = _twist_series_data(E, delta)
        assert next(terms, None) is not None and L > A > 0
        if sign_of_twist(E, delta) == 1:
            complex_L_value(E, delta)
        else:
            complex_L_derivative(E, delta)


def test_l_derivative_refuses_sign_plus_one():
    # L(15x, 1) has sign +1, so its derivative at 1 is not the leading term
    E = E15()
    assert sign_of_twist(E, 1) == 1
    with pytest.raises(CurveError, match="sign \\+1"):
        complex_L_derivative(E, 1)


def test_l_value_rank0():
    E = E15()
    if sign_of_twist(E, 1) == 1:
        val, _ = complex_L_value(E, 1)
        assert val > 0.1
        val2 = twisted_l_series(E, 1, 4.0)
        assert abs(val - val2) < 1e-8


def test_l_value_sign_minus_forces_zero():
    E = E37()
    val, _ = complex_L_value(E, 1)
    assert val == 0.0


# ------------------------------------------------------------------ periods

def _period_oracle(E):
    # one loop of the real locus: integral_{e1}^{inf} dx / sqrt(f),
    # f = x^3 + (b2/4) x^2 + (b4/2) x + b6/4
    import numpy as np

    f = lambda x: x ** 3 + E.b2 / 4 * x * x + E.b4 / 2 * x + E.b6 / 4
    roots = np.roots([1.0, E.b2 / 4, E.b4 / 2, E.b6 / 4])
    e1 = max(r.real for r in roots if abs(r.imag) < 1e-9) if E.disc > 0 else \
        next(r.real for r in roots if abs(r.imag) < 1e-9)
    val, _ = quad(lambda x: 1 / math.sqrt(max(f(x), 1e-300)),
                  e1 + 1e-12, math.inf, limit=300)
    return val


def test_periods_37a():
    om_plus, _ = real_periods(E37())
    assert abs(om_plus - 2.9934586) < 1e-6
    assert abs(om_plus - _period_oracle(E37())) < 1e-7


def test_periods_negative_disc():
    E = E15()  # disc 50625 > 0; also test one negative-disc curve
    om_plus, _ = real_periods(E)
    assert abs(om_plus - _period_oracle(E)) < 1e-7
    E2 = EllipticCurveData(0, 1, 1, -1, 0, conductor=35, p=5)
    assert E2.disc < 0
    om_plus2, _ = real_periods(E2)
    assert abs(om_plus2 - _period_oracle(E2)) < 1e-7


def test_period_lattice_shape():
    om_plus, om_minus = real_periods(E37())
    assert om_plus > 0 and om_minus > 0


# ------------------------------------------------------------ twists, points

def test_naive_search_two_torsion():
    pts = naive_point_search(-1, 0, 10)  # y^2 = x^3 - x
    xs = sorted(x for x, y in pts)
    assert xs == [-1, 0, 1]
    assert all(y == 0 for _, y in pts)


def _scan_point_search(A, B, height):
    """naive_point_search by testing every m: the plain reference scan."""
    out = []
    for e in range(1, math.isqrt(height) + 1):
        e2, e3 = e * e, e ** 3
        for m in range(-height, height + 1):
            if e > 1 and math.gcd(m, e) != 1:
                continue
            t = m ** 3 + A * m * e2 * e2 + B * e3 * e3
            if t < 0:
                continue
            r = math.isqrt(t)
            if r * r == t:
                out.append((Fraction(m, e2), Fraction(r, e3)))
    seen, res = set(), []
    for x, y in out:
        if x not in seen:
            seen.add(x)
            res.append((x, y))
    return res


def _genus_twist_models():
    """The nine genus twists E^(D1) of 15x at D = 13, c | 77, as the twists
    are searched for global points."""
    E = E15()
    models = []
    for c in (1, 7, 11, 77):
        for chi in enumerate_quadratic_chars(NarrowClassGroup(13, c)):
            d1, _ = order_by_sign(E.w_fricke, E.conductor,
                                  attach_genus_data(chi).genus_pair)
            models.append(twist_model(E, d1))
    assert len(models) == 9
    return models


def test_sieved_point_search_matches_scan():
    # the nine genus twists, and models with A, B of both signs; at
    # height 600, e runs to 24, so m with gcd(m, e) > 1 occur for e > 1
    models = _genus_twist_models()
    models += [(-1, 0), (-2, 5), (3, -7), (-7, -6), (5, 9), (0, 1), (-43, 166)]
    for A, B in models:
        assert naive_point_search(A, B, 600) == _scan_point_search(A, B, 600), (A, B)


def test_twist_map_round_trip():
    E = E37()
    delta = -8
    A, B = twist_model(E, delta)
    pts = naive_point_search(A, B, 400)
    assert pts, "expected some point on the twist"
    for xy in pts[:3]:
        P = twist_point_to_curve(E, delta, xy)
        As, Bs = E.short_model()
        assert P.on_short_model(As, Bs)
        # Galois conjugate is the negative: x fixed, y flips
        conj = GlobalPoint(P.x, -P.y, delta)
        assert conj.x == P.x and conj.y == -P.y and conj.y != 0
        assert conj.on_short_model(As, Bs)


def test_point_order_divides():
    # (0,0) on y^2 = x^3 - x is 2-torsion
    assert point_order_divides(-1, 0, (Fraction(0), Fraction(0)), 2)
    assert not point_order_divides(-1, 0, (Fraction(0), Fraction(0)), 3)


def test_torsion_filter_matches_exact_multiplication():
    # every point of height <= 600 on the nine genus twists, the 2-torsion
    # of y^2 = x^3 - x, and 2(3, 5) = (129/100, -383/1000) on y^2 = x^3 - 2,
    # which is not integral and so of infinite order
    cases = [((A, B), xy) for A, B in _genus_twist_models()
             for xy in naive_point_search(A, B, 600)]
    cases += [((-1, 0), (x, 0)) for x in (0, 1, -1)]
    cases.append(((0, -2), (Fraction(129, 100), Fraction(383, 1000))))
    mazur = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
    torsion = []
    for (A, B), xy in cases:
        for n in range(1, 13):
            assert point_order_divides(A, B, xy, n) == \
                order_divides_by_multiplication(A, B, xy, n), (A, B, xy, n)
        # Mazur: P is torsion iff k P = O for an order k above, each of
        # which divides 2520; the oracle's 2520 P is only computed for
        # torsion P, as on other points its numerators run to millions
        # of digits
        tors = any(order_divides_by_multiplication(A, B, xy, k) for k in mazur)
        assert point_order_divides(A, B, xy, 2520) == tors, (A, B, xy)
        if tors:
            assert order_divides_by_multiplication(A, B, xy, 2520)
        torsion.append(tors)
    assert not any(point_order_divides(0, -2, cases[-1][1], n)
                   for n in list(range(1, 13)) + [2520])
    assert True in torsion[:-4] and False in torsion[:-4]
    with pytest.raises(CurveError, match="integral model"):
        point_order_divides(Fraction(1, 4), 0, (0, 0), 2)


def test_point_order_divides_rejects_negative_n():
    # (-102, 0) is the 2-torsion point (-1, 0) of 15x on the short model.
    # n < 0 is refused, where the double-and-add would never reach n = 0;
    # the check runs first in a subprocess, whose timeout bounds that loop,
    # and under python -O, which strips a check by assert.
    code = ("from starkheegner.curves import EllipticCurveData, point_order_divides\n"
            "E = EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5)\n"
            "A, B = E.short_model()\n"
            "try:\n"
            "    point_order_divides(A, B, (-102, 0), -2)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(starkheegner.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=20).returncode == 0
    A, B = E15().short_model()
    with pytest.raises(ValueError):
        point_order_divides(A, B, (-102, 0), -2)
    assert point_order_divides(A, B, (-102, 0), 0)
    assert point_order_divides(A, B, (-102, 0), 2)


def test_twist_maps_reject_non_fundamental_delta():
    # 0 gives the singular Y^2 = X^3, and neither 4 nor -1 is 1 or a
    # fundamental discriminant
    E = E15()
    for delta in (0, 4, -1):
        with pytest.raises(CurveError, match="fundamental discriminant"):
            twist_model(E, delta)
        with pytest.raises(CurveError, match="fundamental discriminant"):
            twist_point_to_curve(E, delta, (Fraction(-21), Fraction(0)))
    with pytest.raises(CurveError, match="coprime"):
        twist_model(E, -15)


def test_a_p_rejects_non_multiplicative_value():
    E = E15()
    E._ap_cache[5] = 2
    with pytest.raises(ArithmeticError, match="a_5 = 2"):
        E.a_p


def test_ap_rejects_non_prime():
    # ap(4) returned -2 and cached it, ap(1) returned 0; ap(0), ap(231)
    # (= 3 7 11) and ap(-7) died in a division, the search or a count
    E = E15()
    want = {ell: _projective_trace(E, ell) for ell in (2, 3, 5)}
    for n in (4, 1, 0, 231, -7):
        with pytest.raises(ValueError, match="prime"):
            E.ap(n)
    assert not E._ap_cache
    assert {ell: E.ap(ell) for ell in (2, 3, 5)} == want == {2: -1, 3: -1, 5: 1}


def test_caches_are_not_constructor_arguments():
    # a cache passed in was read as the truth: ap(7) returned 99
    with pytest.raises(TypeError):
        EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5, _ap_cache={7: 99})
    with pytest.raises(TypeError):
        EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5, _an_list=[0, 1])
    assert E15().ap(7) == _projective_trace(E15(), 7) != 99


def test_equal_curves_stay_equal_after_a_trace():
    E, F = E15(), E15()
    assert E == F
    E.ap(7)
    E.an_list(20)
    assert E == F and repr(E) == repr(F)


def test_an_list_returns_a_copy():
    # the list that filled the cache was the cache itself
    E = E15()
    a = E.an_list(10)
    want = a[:]
    a[2] = 99
    assert E.an_list(5) == want[:6]
    b = E.an_list(8)
    b[3] = 99
    assert E.an_list(10) == want


def test_an_list_short_and_negative_lengths():
    E = E15()
    assert E.an_list(0) == [0]
    assert E.an_list(1) == [0, 1]
    with pytest.raises(ValueError, match="negative"):
        E.an_list(-3)
    assert E.an_list(0) == [0]


# ------------------------------------------------ two-torsion in the search

def test_two_torsion_order():
    # t = |E(Q)[2]| = 1 + the integer roots of the short model's cubic
    got = {E.label: E._two_torsion for E in _trace_curves() + (E37(), E21())}
    assert got == {"15x": 4, "21x": 4, "14a1": 2, "11a1": 1, "37a": 1, "115": 1}
    assert _two_torsion_order(-1, 0) == 4   # X^3 - X: roots 0, 1, -1
    assert _two_torsion_order(1, 0) == 2    # X^3 + X: root 0 only
    assert _two_torsion_order(-2, 0) == 2   # X^2 - 2 has no integer root
    assert _two_torsion_order(0, -8) == 2   # root 2 only


def _count_ec_add(monkeypatch, E, length):
    calls = [0]
    add = curves._ec_add

    def counted(*args):
        calls[0] += 1
        return add(*args)

    monkeypatch.setattr(curves, "_ec_add", counted)
    E.an_list(length)
    monkeypatch.setattr(curves, "_ec_add", add)
    return calls[0]


def test_an_list_group_operations(monkeypatch):
    # the a_n table of twists-d13 (22374 terms at D1 = 1001): the search over
    # multiples of t and the first giant step from the stride take 15x from
    # 130591 additions to about 70500, and 14a1 from 131799 to about 86200
    assert _count_ec_add(monkeypatch, E15(), 22374) < 85000
    assert _count_ec_add(monkeypatch, _trace_curves()[1], 22374) < 100000


def test_trace_at_the_largest_primes_of_the_table():
    top = primes_up_to(22374)[-10:]
    for E in _trace_curves()[:3]:  # 11a1, 14a1, 15x
        for ell in top:
            assert E.ap(ell) == _legendre_trace(E, ell), (E.label, ell)


def test_trace_when_t_p_is_the_identity(monkeypatch):
    # at ell = 269 on 15x (t = 4) one point of the search has order 4, so
    # t P = O and every multiple of t in the Hasse interval is a candidate
    seen = []
    search = curves._annihilators

    def spy(P, *args):
        seen.append(P)
        return search(P, *args)

    monkeypatch.setattr(curves, "_annihilators", spy)
    E = E15()
    assert E.ap(269) == _legendre_trace(E, 269)
    assert None in seen
    assert list(search(None, 5, 269, 60, 75)) == list(range(60, 76))


def test_e1_fraction_table_is_bit_identical_to_integer_products():
    def e1_by_products(x):
        depth = 8 + int(90 / x)
        f = x + 2 * depth + 1
        for k in range(depth, 0, -1):
            f = x + 2 * k - 1 - k * k / f
        return math.exp(-x) / f

    xs = [2 + 1e-9, 2.5, math.pi, 7.25, 19.9, 44.99, 45.0, 91.3, 150.0]
    xs += [2 + k / 97 for k in range(1, 2000, 7)]
    for x in xs:
        assert _e1(x) == e1_by_products(x), x
