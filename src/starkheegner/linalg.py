"""Exact linear algebra over Fraction, enough for Manin symbols.

Matrices come in and go out as dense lists of rows.  ``rref`` eliminates
sparsely: it holds each row as ``{column: Fraction}`` of its non-zeros, so a
Manin relation matrix (at most three non-zeros a row) costs work in
proportion to its fill-in, not to rows times columns.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Each row in turn is reduced against the pivot rows found so far; if
    anything is left, its leading column becomes a new pivot, the row is
    scaled to 1 there and that column is cleared from the earlier pivot
    rows.  The pivot rows then stay in reduced form, and the RREF of a row
    space is unique, so the rows come back sorted by pivot."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivot_rows = {}  # pivot column -> {column: Fraction}, 1 at the pivot
    for dense in rows:
        row = {c: Fraction(x) for c, x in enumerate(dense) if x}
        for pc in [c for c in row if c in pivot_rows]:
            _subtract(row, row.pop(pc), pivot_rows[pc], pc)
        if not row:
            continue
        pc = min(row)
        inv = 1 / row[pc]
        row = {c: x * inv for c, x in row.items()}
        for other in pivot_rows.values():
            f = other.pop(pc, 0)
            if f:
                _subtract(other, f, row, pc)
        pivot_rows[pc] = row
    pivots = sorted(pivot_rows)
    out = []
    for pc in pivots:
        dense = [Fraction(0)] * ncols
        for c, x in pivot_rows[pc].items():
            dense[c] = x
        out.append(dense)
    return out, pivots


def _subtract(row, f, pivot_row, pc):
    """row -= f * pivot_row away from column pc (which the caller has
    already cleared), dropping the entries that cancel."""
    for c, x in pivot_row.items():
        if c != pc:
            y = row.get(c, 0) - f * x
            if y:
                row[c] = y
            else:
                del row[c]


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
