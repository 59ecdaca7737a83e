"""Test-only oracle: the real periods of an elliptic curve by the AGM.

The roots e1, e2, e3 of 4x^3 + b2 x^2 + 2 b4 x + b6 come from numpy.roots;
Omega+ (one loop of the real locus) and the magnitude Omega- of the
imaginary period are pi over an arithmetic-geometric mean of their
differences.  Used to normalise modular-symbol periods and L-values in the
tests, and itself checked against scipy.integrate.quad in test_curves.
"""

from __future__ import annotations

import cmath
import math


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
