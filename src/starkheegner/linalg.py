"""Tiny dense exact linear algebra over Fraction, enough for Manin symbols."""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r]], pivots


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix given by rows."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def matvec(rows, v):
    return [sum(a * b for a, b in zip(r, v) if a) for r in rows]


def lincomb(coeffs, vecs):
    """sum of c * v over the pairs (c, v); vecs must be non-empty."""
    out = [Fraction(0)] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c:
            for k in range(len(out)):
                out[k] += c * v[k]
    return out
