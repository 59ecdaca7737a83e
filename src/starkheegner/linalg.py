"""Exact linear algebra over Q, enough for Manin symbols.

Matrices come in and go out as dense lists of rows; the entries that come
in are ints or Fractions, and those that go out are Fractions.  ``rref``
eliminates sparsely and fraction-free: it holds each row as ``{column: int}``
of its non-zeros, scaled from its input row by the lcm of the denominators,
so a Manin relation matrix (at most three non-zeros a row) costs integer
work in proportion to its fill-in, not to rows times columns.  A pivot row
is kept primitive (content 1, positive at its pivot), and a Fraction is
made only for an entry that ``rref`` or ``kernel_basis`` returns: the RREF
entry is x / a, with a the pivot entry of x's integer row.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns).

    The rows come back dense, with Fraction entries, sorted by pivot; the
    RREF of a row space is unique, so they are the rows of any elimination."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivot_rows = _pivot_rows(rows)
    pivots = sorted(pivot_rows)
    zero = Fraction(0)
    out = []
    for pc in pivots:
        row = pivot_rows[pc]
        a = row[pc]
        dense = [zero] * ncols
        for c, x in row.items():
            dense[c] = Fraction(x) if a == 1 else Fraction(x, a)
        out.append(dense)
    return out, pivots


def _pivot_rows(rows):
    """{pivot column: primitive integer row} of the row space of rows.

    Each row in turn is reduced against the pivot rows found so far; if
    anything is left, it is made primitive with a positive leading entry,
    its leading column becomes a new pivot and that column is cleared from
    the earlier pivot rows.  The pivot rows so stay zero at every pivot
    column but their own."""
    pivot_rows = {}
    for dense in rows:
        row = _integer_row(dense)
        for pc in [c for c in row if c in pivot_rows]:
            _eliminate(row, pc, pivot_rows[pc])
        if not row:
            continue
        pc = min(row)
        _make_primitive(row, pc)
        for opc, other in pivot_rows.items():
            if pc in other:
                _eliminate(other, pc, row)
                _make_primitive(other, opc)
        pivot_rows[pc] = row
    return pivot_rows


def _integer_row(dense):
    """{column: int} of the non-zeros of dense times the lcm of their
    denominators."""
    row = {c: x for c, x in enumerate(dense) if x}
    den = math.lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in row.items()}


def _eliminate(row, pc, pivot_row):
    """row <- a * row - f * pivot_row, which clears column pc; a is the
    pivot entry of pivot_row and f the entry of row at pc, both divided by
    their gcd.  Entries that cancel are dropped."""
    f = row.pop(pc)
    a = pivot_row[pc]
    g = math.gcd(a, f)
    a, f = a // g, f // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, x in pivot_row.items():
        if c != pc:
            y = row.get(c, 0) - f * x
            if y:
                row[c] = y
            else:
                del row[c]


def _make_primitive(row, pc):
    """Divide row by its content, taken with the sign of the entry at pc."""
    g = math.gcd(*row.values())
    if row[pc] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix given by rows: one vector
    for each free column fc, 1 at fc and -r[fc] / r[pc] at the pivot pc of
    each integer pivot row r."""
    pivot_rows = _pivot_rows(rows)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in pivot_rows:
            continue
        v = [zero] * ncols
        v[fc] = one
        for pc, r in pivot_rows.items():
            x = r.get(fc)
            if x:
                a = r[pc]
                v[pc] = Fraction(-x) if a == 1 else Fraction(-x, a)
        basis.append(v)
    return basis


def matvec(rows, v):
    return [sum(a * b for a, b in zip(r, v) if a) for r in rows]


def lincomb(coeffs, vecs):
    """sum of c * v over the pairs (c, v); vecs must be non-empty.  Only
    the non-zero entries of each v are read."""
    out = [Fraction(0)] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] += c * x
    return out
