import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from scipy.integrate import quad

import starkheegner
from starkheegner.curves import (
    CurveError,
    EllipticCurveData,
    GlobalPoint,
    QuadRat,
    check_sh_hypothesis,
    complex_L_derivative,
    complex_L_value,
    naive_point_search,
    point_order_divides,
    real_periods,
    sign_of_twist,
    twist_model,
    twist_point_to_curve,
)


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


def test_hasse_bound():
    E = E37()
    for ell in (3, 5, 7, 11, 13, 101, 211, 997):
        a = E.ap(ell)
        assert a * a <= 4 * ell


def test_multiplicative_ap_is_pm1():
    for E in (E15(), E21()):
        assert E.a_p in (1, -1)
        assert E.w_p == -E.a_p
        for ell in [q for q in (3, 5, 7) if E.conductor % q == 0]:
            assert E.ap(ell) in (1, -1)


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


# ----------------------------------------------------------------- L-values

def test_l_derivative_37a():
    E = E37()
    assert sign_of_twist(E, 1) == -1
    val, err = complex_L_derivative(E, 1)
    assert abs(val - 0.3059997738) < 1e-6
    # slow oracle: much longer series
    val2, _ = complex_L_derivative(E, 1, length_factor=6.0)
    assert abs(val - val2) < 1e-8


def test_l_value_rank0():
    E = E15()
    if sign_of_twist(E, 1) == 1:
        val, err = complex_L_value(E, 1)
        assert val > 0.1
        val2, _ = complex_L_value(E, 1, length_factor=4.0)
        assert abs(val - val2) < 1e-8


def test_l_value_sign_minus_forces_zero():
    E = E37()
    val, err = complex_L_value(E, 1)
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
    om_plus, om_minus = real_periods(E37())
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
        # Galois conjugate is the negative (up to 2-torsion): x fixed, y flips
        conj = GlobalPoint(P.x.conj(), P.y.conj(), delta)
        assert conj.x == P.x and conj.y == P.y * QuadRat.of(-1, 0, delta)


def test_point_order_divides():
    # (0,0) on y^2 = x^3 - x is 2-torsion
    assert point_order_divides(-1, 0, (Fraction(0), Fraction(0)), 2)
    assert not point_order_divides(-1, 0, (Fraction(0), Fraction(0)), 3)


def test_quadrat_mismatched_delta_raises():
    with pytest.raises(ValueError):
        QuadRat.of(1, 1, 13) + QuadRat.of(1, 1, 5)
    # the check is no assert: it holds under python -O as well
    code = ("from starkheegner.curves import QuadRat\n"
            "try:\n"
            "    QuadRat.of(1, 1, 13) + QuadRat.of(1, 1, 5)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(starkheegner.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=60).returncode == 0


def test_a_p_rejects_non_multiplicative_value():
    E = E15()
    E._ap_cache[5] = 2
    with pytest.raises(ArithmeticError, match="a_5 = 2"):
        E.a_p
