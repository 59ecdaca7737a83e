"""Test-only oracle for the torsion test of starkheegner.curves: n P by
exact double-and-add over Q, with no early exit, on Y^2 = X^3 + AX + B.

On a point of infinite order the heights of the multiples grow
quadratically in n, so this is only usable for small n or torsion points.
"""

from __future__ import annotations

from fractions import Fraction


def order_divides_by_multiplication(A, B, xy, n: int) -> bool:
    """Whether n P = O, P = xy, by computing n P exactly."""
    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and y1 == -y2:
            return None
        if P == Q:
            lam = (3 * x1 * x1 + A) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return (x3, lam * (x1 - x3) - y1)

    P = (Fraction(xy[0]), Fraction(xy[1]))
    R, Q0 = None, P
    m = n
    while m:
        if m & 1:
            R = add(R, Q0)
        Q0 = add(Q0, Q0)
        m >>= 1
    return R is None
