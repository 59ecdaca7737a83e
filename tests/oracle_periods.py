"""Test-only oracles: the real periods of an elliptic curve by the AGM, and
its Fricke sign by the functional equation in floating point.

The roots e1, e2, e3 of 4x^3 + b2 x^2 + 2 b4 x + b6 come from numpy.roots;
Omega+ (one loop of the real locus) and the magnitude Omega- of the
imaginary period are pi over an arithmetic-geometric mean of their
differences.  Used to normalise modular-symbol periods and L-values in the
tests, and itself checked against scipy.integrate.quad in test_curves.

The Fricke sign w_N is read off f(-1/(Nz)) = w_N N z^2 f(z) at one point of
the imaginary axis, from the q-expansion of f_E; it checks the exact sign
that the package takes from the a_ell at the bad primes.

twisted_l_series is the slow reference for complex_L_value and
complex_L_derivative: the same smoothed series, a given factor longer, with
one Kronecker symbol per term and scipy's E1.
"""

from __future__ import annotations

import cmath
import math

from starkheegner.arith import kronecker
from starkheegner.curves import CurveError, EllipticCurveData


def _agm_real(a: float, b: float) -> float:
    while abs(a - b) > 1e-15 * abs(a):
        a, b = (a + b) / 2, math.sqrt(a * b)
    return a


def real_periods(E: EllipticCurveData):
    """(Omega+, Omega-): the fundamental real period (one loop of the real
    locus) and the imaginary period magnitude, by AGM."""
    import numpy as np

    # roots of 4x^3 + b2 x^2 + 2 b4 x + b6
    coeffs = [4.0, float(E.b2), 2.0 * float(E.b4), float(E.b6)]
    roots = np.roots(coeffs)
    if E.disc > 0:
        e1, e2, e3 = sorted(r.real for r in roots)[::-1]
        om1 = math.pi / _agm_real(math.sqrt(e1 - e3), math.sqrt(e1 - e2))
        om2 = math.pi / _agm_real(math.sqrt(e1 - e3), math.sqrt(e2 - e3))
        return om1, om2
    # one real root: the AGM collapses to a real one after a single step
    e1 = next(r.real for r in roots if abs(r.imag) < 1e-9 * (1 + abs(r)))
    others = [r for r in roots if abs(r.imag) >= 1e-9 * (1 + abs(r))]
    e2 = others[0] if others[0].imag > 0 else others[1]
    a = cmath.sqrt(complex(e1) - e2.conjugate())
    om1 = math.pi / _agm_real(abs(a.real), abs(a))
    om2 = math.pi / _agm_real(abs(a.imag), abs(a))
    return om1, om2


def fricke_sign_numeric(E: EllipticCurveData) -> int:
    """Sign of the Fricke involution W_N on f_E, computed from the
    functional equation f(-1/(Nz)) = w_N N z^2 f(z) at z = i*t/sqrt(N)."""
    N = E.conductor
    terms = 60 + int(12 * math.sqrt(N))
    an = E.an_list(terms)

    def f(z):
        q = cmath.exp(2j * cmath.pi * z)
        tot, qn = 0.0 + 0j, 1.0 + 0j
        for n in range(1, terms + 1):
            qn *= q
            tot += an[n] * qn
        return tot

    t = 1.13
    z = 1j * t / math.sqrt(N)
    lhs = f(-1 / (N * z))
    rhs = N * z * z * f(z)
    ratio = lhs / rhs
    w = round(ratio.real)
    if abs(ratio - w) > 1e-6 or w not in (1, -1):
        raise CurveError("Fricke sign did not converge: %r" % ratio)
    return w


def twisted_l_series(E: EllipticCurveData, delta: int, length_factor: float,
                     derivative: bool = False) -> float:
    """L(E, chi_delta, 1), or L'(E, chi_delta, 1) if derivative, by the
    smoothed series of Cremona, Algorithms for Modular Elliptic Curves,
    2.13, summed to length_factor times the package's length."""
    from scipy.special import exp1

    A = math.sqrt(E.conductor * delta * delta) / (2 * math.pi)
    L = int(A * (math.log(2 * A + 4) + 9 * math.log(10)) * 1.3
            * length_factor) + 40
    an = E.an_list(L)
    weight = exp1 if derivative else (lambda x: math.exp(-x))
    return 2 * math.fsum(an[n] * kronecker(delta, n) / n * weight(n / A)
                         for n in range(1, L + 1) if an[n])
