from fractions import Fraction

import pytest

from starkheegner.curves import (
    EllipticCurveData,
    GlobalPoint,
    curve_add,
    naive_point_search,
    twist_point_to_curve,
)
from starkheegner.padics import PadicScalar, PrecisionError, QuadExtContext
import starkheegner.tate as tate
from starkheegner.tate import (
    _eval_series,
    _poly_mul,
    _sigma_series,
    eisenstein_e4,
    eisenstein_e6,
    formal_log,
    formal_log_series,
    iso_tate_to_curve,
    localize_short_point,
    log_conversion_constant,
    on_curve,
    tate_parameter,
)

from oracle_tate import (
    LogBranch,
    eta_discriminant,
    formal_log_series_fixed_point,
    kappa_from_points,
    tate_point,
    tate_to_curve_point,
)


def E15():
    return EllipticCurveData(1, 1, 1, -10, -10, conductor=15, p=5, label="15x")


def E21():
    return EllipticCurveData(1, 0, 0, -4, -1, conductor=21, p=7, label="21x")


PREC = 9


# ------------------------------------------------------------- Tate period

def test_tate_parameter_valuation():
    E = E15()
    q = tate_parameter(E, PREC)
    v = 0
    d = E.disc
    while d % 5 == 0:
        d //= 5
        v += 1
    assert q.valuation() == v  # v(q) = -v(j) = v(disc)


def test_tate_parameter_j_contract():
    E = E15()
    q = tate_parameter(E, PREC)
    length = q.N // q.v + 6  # longer series than the solver used
    e4 = list(eisenstein_e4(length))
    e43 = _poly_mul(_poly_mul(e4, e4, length), e4, length)
    delta = list(eta_discriminant(length))
    j = Fraction(E.c4 ** 3, E.disc)
    num = _eval_series(e43, q)
    den = _eval_series(delta, q)
    diff = num - den * PadicScalar.from_fraction(5, j, q.N + 8)
    assert diff.is_zero() or diff.valuation() >= PREC


def test_tate_parameter_raises_when_newton_does_not_converge(monkeypatch):
    # the derivative of E4^3 - j Delta is reported doubled, so each Newton
    # step only halves the error in q, which in Q_p keeps its valuation: q
    # keeps v(q) = 4 but the value never reaches p^(prec + 2 v(q))
    E = E15()
    seen = []

    def eval_series(coeffs, x):
        if not seen:
            seen.append(coeffs)  # the first series evaluated is the function
        value = _eval_series(coeffs, x)
        return value if coeffs is seen[0] else 2 * value

    monkeypatch.setattr(tate, "_eval_series", eval_series)
    with pytest.raises(PrecisionError, match="did not converge"):
        tate_parameter(E, PREC)


def test_discriminant_from_e4_e6_is_the_eta_product():
    # 1728 Delta = E4^3 - E6^2, with Delta = q prod (1 - q^n)^24
    for length in (1, 2, 10, 40, 100):
        e4 = list(eisenstein_e4(length))
        e6 = list(eisenstein_e6(length))
        e43 = _poly_mul(_poly_mul(e4, e4, length), e4, length)
        e62 = _poly_mul(e6, e6, length)
        assert [a - b for a, b in zip(e43, e62)] == \
            [1728 * d for d in eta_discriminant(length)], length


def test_tate_parameter_good_reduction_rejected():
    E = EllipticCurveData(0, 0, 1, -1, 0, conductor=37, p=37)
    q = tate_parameter(E, 6)  # 37 is the multiplicative prime here
    assert q.valuation() == 1
    E2 = EllipticCurveData(1, 0, 0, -4, -1, conductor=21, p=7)
    E2.disc = 25  # simulate good reduction at p
    with pytest.raises(ValueError):
        tate_parameter(E2, 4)


# ------------------------------------------------------------ formal group

def test_formal_log_series_leading_terms():
    # for y^2 = x^3 + ... the log starts z + a1/2 z^2 + ...
    key = (0, 0, 0, -1, 0)  # y^2 = x^3 - x
    coeffs = formal_log_series(key, 8)
    assert coeffs[0] == 1
    assert coeffs[1] == 0
    # with a1 = a3 = 0, [-1] is z -> -z, so the log is odd: its even
    # coefficients vanish
    assert coeffs[1] == 0 and coeffs[3] == 0


SERIES_KEYS = ((1, 1, 1, -10, -10), (0, -1, 1, -10, -20), (0, 0, 1, 7, -11),
               (1, 0, 0, -4, -1), (2, -3, 5, 7, -11), (0, 0, 0, -1, 0))


def test_formal_log_series_matches_silverman():
    # omega = 1 + a1 z + (a1^2 + a2) z^2 + (a1^3 + 2 a1 a2 + 2 a3) z^3
    # + (a1^4 + 3 a1^2 a2 + 6 a1 a3 + a2^2 + 2 a4) z^4 + ... (Silverman, The
    # Arithmetic of Elliptic Curves, IV.1), and l_n = omega_(n-1) / n
    for key in ((1, 1, 1, -10, -10), (2, -3, 5, 7, -11)):
        a1, a2, a3, a4, _ = key
        omega = [1, a1, a1 ** 2 + a2, a1 ** 3 + 2 * a1 * a2 + 2 * a3,
                 a1 ** 4 + 3 * a1 ** 2 * a2 + 6 * a1 * a3 + a2 ** 2 + 2 * a4]
        assert formal_log_series(key, 5) == \
            tuple(Fraction(c, n + 1) for n, c in enumerate(omega)), key


def test_formal_log_series_matches_fixed_point_route():
    # the recursion for w and the integer inversion for omega agree with
    # the fixed point for w and omega = dx / (2y + a1 x + a3) over Q
    for key in SERIES_KEYS:
        for length in (1, 2, 3, 4, 5, 8, 41, 60):
            assert formal_log_series(key, length) == \
                formal_log_series_fixed_point(key, length), (key, length)


def test_formal_log_homomorphism():
    E = E15()
    ctx = QuadExtContext(5, 14)
    # a point in the formal group: x of valuation -2
    # pick z with v(z) = 1 and solve on the formal curve via series x=z/w...
    # easier: take a random point over F_p by solving for y via sqrt
    P = _find_point(E, ctx)
    lp = formal_log(E, P, PREC)
    for n in (2, 3, 5):
        Q = curve_mul(E, n, P)
        lq = formal_log(E, Q, PREC)
        diff = lq - n * lp
        assert diff.is_zero() or diff.valuation() >= PREC - 1, n


def curve_mul(E, n, P):
    """n P on the minimal model, by double and add."""
    law = (E.a1, E.a2, E.a3, E.a4)
    out, base = None, P
    while n:
        if n & 1:
            out = curve_add(law, out, base)
        base = curve_add(law, base, base)
        n >>= 1
    return out


def _find_point(E, ctx):
    # solve y^2 + (a1x+a3) y = rhs(x) over F_p for successive x
    p = ctx.p
    for xi in range(2, 40):
        x = ctx.embed(PadicScalar.from_int(p, xi, ctx.N))
        lin = E.a1 * x + E.a3
        rhs = (x * x + E.a2 * x + E.a4) * x + E.a6
        disc = lin * lin + 4 * rhs
        if disc.is_zero():
            continue
        d0 = disc.a.with_precision(1).residue() if disc.b.is_zero() else None
        if d0 is None or d0 == 0:
            continue
        if pow(d0, (p - 1) // 2, p) == 1:
            root = ctx.sqrt(PadicScalar.from_int(p, disc.a.residue(), ctx.N))
            y = (root - lin) * Fraction(1, 2)
            if on_curve(E, (x, y)):
                return (x, y)
    raise RuntimeError("no point found")


def test_formal_log_kills_torsion():
    # (0,0) is 2-torsion on y^2 = x^3 - x... use a curve in our list:
    # E15 has rational torsion; find a small torsion point over Q
    E = E15()
    ctx = QuadExtContext(5, 12)
    # (x, y) = (-2, 3val?) search small rational torsion by brute force
    from fractions import Fraction as F
    tors = None
    for xi in range(-10, 11):
        rhs = 4 * (xi ** 3 + E.a2 * xi * xi + E.a4 * xi + E.a6) + \
            (E.a1 * xi + E.a3) ** 2
        if rhs >= 0:
            import math
            r = math.isqrt(rhs)
            if r * r == rhs and (r - E.a1 * xi - E.a3) % 2 == 0:
                y = (r - E.a1 * xi - E.a3) // 2
                # torsion iff [2520]P = O (Mazur)
                from starkheegner.curves import point_order_divides
                # transfer to short model to reuse the exact helper
                A, B = E.short_model()
                Xs = F(36 * xi + 3 * E.b2)
                Ys = F(108 * (2 * y + E.a1 * xi + E.a3))
                if point_order_divides(A, B, (Xs, Ys), 2520):
                    tors = (xi, y)
                    break
    assert tors is not None
    x = ctx.embed(PadicScalar.from_int(5, tors[0], ctx.N))
    y = ctx.embed(PadicScalar.from_int(5, tors[1], ctx.N))
    val = formal_log(E, (x, y), 8)
    assert val.is_zero() or val.valuation() >= 8


# --------------------------------------------------------------- Tate curve

def _tate_a4_a6(q, depth):
    """a4(q), a6(q) of the Tate curve y^2 + xy = x^3 + a4 x + a6, as
    sigma_3 and sigma_5 series."""
    s3 = _sigma_series(3, depth)
    s5 = _sigma_series(5, depth)
    s3v = _eval_series([0] + [s3[n] for n in range(1, depth + 1)], q)
    s5v = _eval_series([0] + [s5[n] for n in range(1, depth + 1)], q)
    a4 = -5 * s3v
    a6 = (-5 * s3v - 7 * s5v) * Fraction(1, 12)
    return a4, a6


def test_tate_point_on_tate_curve():
    E = E15()
    q = tate_parameter(E, PREC)
    ctx = QuadExtContext(5, q.N)
    depth = PREC // q.v + 3
    u = ctx.embed(PadicScalar.from_int(5, 1 + 5, q.N))
    X, Y = tate_point(q, u, depth)
    a4, a6 = _tate_a4_a6(q, depth)
    lhs = Y * Y + X * Y
    rhs = X * X * X + X * ctx.embed(a4) + ctx.embed(a6)
    diff = lhs - rhs
    assert diff.is_zero() or diff.valuation() >= PREC - 1


def test_iso_lands_on_curve():
    for E in (E15(), E21()):
        p = E.p
        q = tate_parameter(E, PREC)
        ctx = QuadExtContext(p, q.N)
        depth = PREC // q.v + 3
        transform = iso_tate_to_curve(E, q, ctx, depth)
        for u0 in (1 + p, 1 + 2 * p, 1 + p * p):
            u = ctx.embed(PadicScalar.from_int(p, u0, q.N))
            P = tate_to_curve_point(E, transform, tate_point(q, u, depth))
            assert on_curve(E, P), (E.label, u0)


def test_iso_tate_to_curve_rejects_wrong_q():
    # the same q + p^(v(q) + k) as below, caught by the map itself
    for E in (E15(), E21()):
        q = tate_parameter(E, 22)
        ctx = QuadExtContext(E.p, q.N)
        depth = 20 // q.v + 2
        iso_tate_to_curve(E, q, ctx, depth)
        for k in (1, 5, 15):
            wrong = q + PadicScalar.from_int(E.p, E.p ** (q.v + k), q.N)
            with pytest.raises(ValueError, match="valuation %d < %d"
                               % (q.v + k, q.N)):
                iso_tate_to_curve(E, wrong, ctx, depth)


def test_iso_tate_to_curve_checks_only_the_digits_its_depth_backs():
    # E4 and E6 cut after q^depth back v(q) (depth + 1) digits of
    # lambda^4 c4(q) - c4(E), here fewer than the 21 that q carries: the
    # right q passes, and q + p^depth is caught at valuation depth
    E = EllipticCurveData(0, 1, 1, -1, 0, conductor=35, p=5)
    q = tate_parameter(E, 20)
    ctx = QuadExtContext(5, q.N)
    assert (q.v, q.N) == (1, 21)
    for depth in (2, 4, 7):
        iso_tate_to_curve(E, q, ctx, depth)
        wrong = q + PadicScalar.from_int(5, 5 ** depth, q.N)
        with pytest.raises(ValueError, match="valuation %d < %d"
                           % (depth, depth + 1)):
            iso_tate_to_curve(E, wrong, ctx, depth)
    # kappa to 6 digits reads E4 and E6 to depth 5 from this 21-digit q
    assert log_conversion_constant(E, q, ctx, 6).precision() == 6


def test_log_conversion_constant_matches_formal_log():
    # the spec invariant: formal_log = kappa * log_q on the Tate side
    for E in (E15(), E21()):
        p = E.p
        q = tate_parameter(E, PREC + 2)
        ctx = QuadExtContext(p, q.N)
        kappa = log_conversion_constant(E, q, ctx, PREC)
        assert kappa.valuation() == 0  # unit conversion factor
        branch = LogBranch(q)
        depth = (PREC + 2) // q.v + 3
        transform = iso_tate_to_curve(E, q, ctx, depth)
        u = ctx.embed(PadicScalar.from_fraction(p, Fraction(1 + 3 * p), q.N))
        P = tate_to_curve_point(E, transform, tate_point(q, u, depth))
        lhs = formal_log(E, P, PREC)
        rhs = kappa * branch.log(u)
        diff = lhs - rhs
        assert diff.is_zero() or diff.valuation() >= PREC - 2


def kappa_curves():
    # a_p = +1: 15x, 11a1, 14a1 and 35 at p = 7; a_p = -1: 115, 21x and 35
    # at p = 5
    return (E15(),
            EllipticCurveData(0, -1, 1, -10, -20, conductor=11, p=11),
            EllipticCurveData(0, 0, 1, 7, -11, conductor=115, p=5),
            E21(),
            EllipticCurveData(1, 0, 1, 4, -6, conductor=14, p=7),
            EllipticCurveData(0, 1, 1, -1, 0, conductor=35, p=5),
            EllipticCurveData(0, 1, 1, -1, 0, conductor=35, p=7))


def test_log_conversion_constant_matches_points_oracle():
    # kappa = 1/lambda in closed form is kappa measured on two Tate points,
    # to every digit it claims
    for E in kappa_curves():
        for prec in (6, 20, 38):
            q = tate_parameter(E, prec + 2)
            ctx = QuadExtContext(E.p, q.N)
            kappa = log_conversion_constant(E, q, ctx, prec)
            assert kappa.precision() == prec, (E.conductor, E.p, prec)
            assert (kappa - kappa_from_points(E, q, ctx, prec)).is_zero(), \
                (E.conductor, E.p, prec)


def test_formal_log_claims_only_digits_its_series_backs():
    # Tate points carry about q's digits, past prec: every digit formal_log
    # claims must survive summing its series 30 digits further
    for E in kappa_curves():
        for prec in (6, 20):
            q = tate_parameter(E, prec + 12)
            ctx = QuadExtContext(E.p, q.N)
            depth = q.N // q.v + 2
            transform = iso_tate_to_curve(E, q, ctx, depth)
            for k in (1, 2, 3):
                u = ctx.embed(PadicScalar.from_fraction(E.p, Fraction(1 + E.p) ** k, q.N))
                P = tate_to_curve_point(E, transform, tate_point(q, u, depth))
                got, far = formal_log(E, P, prec), formal_log(E, P, prec + 30)
                case = (E.conductor, E.p, prec, k)
                assert got.precision() == prec, case
                assert far.precision() >= prec, case
                assert (got - far).is_zero(), case


def test_log_conversion_constant_rejects_wrong_q():
    # q + p^(v(q) + k) has j(q) != j(E): lambda^4 c4(q) - c4(E) has
    # valuation v(q) + k < prec
    for E in (E15(), E21()):
        q = tate_parameter(E, 22)
        ctx = QuadExtContext(E.p, q.N)
        for k in (1, 5, 15):
            wrong = q + PadicScalar.from_int(E.p, E.p ** (q.v + k), q.N)
            with pytest.raises(ValueError, match="valuation %d <" % (q.v + k)):
                log_conversion_constant(E, wrong, ctx, 20)


def test_log_conversion_constant_claims_only_lambdas_digits():
    # q to 8 digits backs 1/lambda to 12 digits, not 30
    E = E15()
    q = tate_parameter(E, 8)
    with pytest.raises(PrecisionError, match="12 of 30") as err:
        log_conversion_constant(E, q, QuadExtContext(5, q.N), 30)
    assert err.value.achievable == 12


def test_split_vs_nonsplit_conversion_field():
    # kappa is rational iff the reduction is split (lambda^2 a square)
    for E in (E15(), E21()):
        q = tate_parameter(E, 8)
        ctx = QuadExtContext(E.p, q.N)
        kappa = log_conversion_constant(E, q, ctx, 6)
        if E.a_p == 1:      # split multiplicative
            assert kappa.b.is_zero()
        else:               # nonsplit: conversion involves omega
            assert not kappa.b.is_zero()


def test_localize_short_point_rejects_off_curve_point():
    # (-21, 0) on the short model is the 2-torsion point (-1, 0) of 15x;
    # (-21, 1) is off the curve.  The check is an exception, so it also
    # holds under python -O.
    E = E15()
    A, B = E.short_model()
    ctx = QuadExtContext(5, PREC)
    on = GlobalPoint(Fraction(-21), Fraction(0), 1)
    assert on.on_short_model(A, B)
    x, y = localize_short_point(E, on, ctx, PREC)
    assert (x + 1).is_zero() and y.is_zero()
    off = GlobalPoint(Fraction(-21), Fraction(1), 1)
    assert not off.on_short_model(A, B)
    with pytest.raises(ValueError, match="off the curve"):
        localize_short_point(E, off, ctx, PREC)


def test_localize_short_point_keeps_every_digit_at_p_3():
    # 21x at p = 3: the model change divides by 36 and 108, which are not
    # 3-adic units, so it is done in Q and only the result is embedded
    E = EllipticCurveData(1, 0, 0, -4, -1, conductor=21, p=3)
    A, B = E.short_model()
    pts = naive_point_search(A, B, 2000)
    assert len(pts) == 5
    ctx = QuadExtContext(3, 20)
    for X, Y in pts:
        x, y = localize_short_point(E, GlobalPoint(X, Y, 1), ctx, 20)
        assert x.precision() == 20 and y.precision() == 20, (X, Y)
        assert on_curve(E, (x, y))


def test_localize_short_point_on_a_twist_point_not_5_integral():
    # (-2849/25, 2873024/125) on E^(-11) of 15x, at p = 5: v(x) = -2 and
    # v(Y/216) = -3, so x keeps all 30 digits, and y too, as sqrt(-11) is
    # lifted to 33.  Changing the model in Q_p instead keeps only 28
    # and 21 digits, and 25 of the formal log; the constants below are
    # those values, and the exact change agrees with every digit of them.
    E = E15()
    ctx = QuadExtContext(5, 30)
    gp = twist_point_to_curve(E, -11, (Fraction(-2849, 25), Fraction(2873024, 125)))
    x, y = localize_short_point(E, gp, ctx, 30)
    log = formal_log(E, (x, y), 30)
    assert x.precision() == 30 and y.precision() == 30
    assert log.precision() >= 30
    for new, (v, unit, N) in ((x, (-2, 206960572136773003469, 28)),
                              (y, (-3, 46678783982034812, 21)),
                              (log, (1, 19013513905743873, 25))):
        assert (new - ctx.embed(PadicScalar(5, v, unit, N))).is_zero()


# ------------------------------------------------- digits claimed are backed

def test_tate_parameter_and_kappa_claim_only_backed_digits():
    # each agrees, on every digit it claims, with a run 30 digits longer
    for E in kappa_curves():
        for prec in (1, 6, 20, 38):
            q = tate_parameter(E, prec)
            far = tate_parameter(E, prec + 30)
            assert q.precision() == prec + q.v, (E.conductor, E.p, prec)
            assert (q - far).is_zero(), (E.conductor, E.p, prec)
        for prec in (3, 6, 20, 38):
            q, far = tate_parameter(E, prec + 2), tate_parameter(E, prec + 32)
            kappa = log_conversion_constant(E, q, QuadExtContext(E.p, q.N), prec)
            kappa_far = log_conversion_constant(E, far, QuadExtContext(E.p, far.N),
                                                prec + 30)
            assert kappa.precision() == prec, (E.conductor, E.p, prec)
            assert (kappa - kappa_far).is_zero(), (E.conductor, E.p, prec)


def test_iso_tate_to_curve_claims_only_the_digits_its_depth_backs():
    # q to 44 digits on 15x, v(q) = 4: E4 and E6 cut after q^depth back
    # 4 (depth + 1) digits of lambda, and r, s, t follow lambda; a map from
    # q to 84 digits at depth 30 agrees on every digit claimed
    E = E15()
    q = tate_parameter(E, 40)
    ctx = QuadExtContext(5, q.N)
    far_q = tate_parameter(E, 80)
    far = iso_tate_to_curve(E, far_q, QuadExtContext(5, far_q.N), 30)
    assert (q.v, q.N, far[0].precision()) == (4, 44, 84)
    for depth in (3, 5, 8):
        transform = iso_tate_to_curve(E, q, ctx, depth)
        for got, want in zip(transform, far):
            assert (got - want).is_zero(), depth
            assert got.precision() <= 4 * (depth + 1), depth
        assert transform[0].precision() == 4 * (depth + 1), depth


def test_localize_short_point_claims_only_backed_digits():
    # the points of minimal-model x = -172/25 on E^(-247) and x = -133/52 on
    # E^(13) of 15x.  -247 and 13 are non-squares mod 5, so sqrt(delta) has
    # at most ctx.N digits; v(Y/216) is -3 for the first and 0 for the
    # second, so its y keeps 30 digits only in a context of 33 or more
    E = E15()
    A, B = E.short_model()
    cases = ((GlobalPoint(Fraction(-5817, 25), Fraction(24948, 125), -247),
              Fraction(-172, 25), 3),
             (GlobalPoint(Fraction(-1002, 13), Fraction(24786, 169), 13),
              Fraction(-133, 52), 0))
    for pt, x_min, lost in cases:
        assert pt.on_short_model(A, B) and (pt.x - 3 * E.b2) / 36 == x_min
        ref_x, ref_y = localize_short_point(E, pt, QuadExtContext(5, 80), 70)
        for n in (30, 40):
            x, y = localize_short_point(E, pt, QuadExtContext(5, n), 30)
            assert (x - ref_x).is_zero() and (y - ref_y).is_zero(), (pt.delta, n)
            assert x.precision() == 30, (pt.delta, n)
            assert y.precision() == min(30, n - lost), (pt.delta, n)
