"""linalg.rref against the dense elimination it replaced.

``dense_rref`` is the package's former rref, kept unchanged as the oracle:
column by column, it swaps up the first row with a non-zero entry, scales it
and clears that column from every other row.  The RREF of a row space is
unique, so the sparse elimination must return the same rows and pivots.
"""

import random
from fractions import Fraction

import pytest

from starkheegner.linalg import kernel_basis, matvec, rref

rng = random.Random(14)


def dense_rref(rows):
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


def dense_kernel_basis(rows, ncols):
    """The package's kernel_basis over the dense oracle."""
    red, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


# ------------------------------------------------------------ random matrices

def _entry():
    if rng.random() < 0.3:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-5, 5)


def _dense(nrows, ncols):
    return [[_entry() for _ in range(ncols)] for _ in range(nrows)]


def _sparse(nrows, ncols):
    """At most three non-zeros a row, like a Manin relation matrix."""
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for c in rng.sample(range(ncols), min(ncols, rng.randint(1, 3))):
            row[c] += rng.choice((1, 1, -1, 2, _entry()))
        rows.append(row)
    return rows


def _rank_deficient(nrows, ncols):
    k = rng.randint(1, max(1, min(nrows, ncols) - 1))
    left, right = _dense(nrows, k), _dense(k, ncols)
    return [[sum(a * right[t][c] for t, a in enumerate(row)) for c in range(ncols)]
            for row in left]


def _with_duplicates(nrows, ncols):
    rows = _sparse(nrows, ncols)
    for _ in range(nrows // 2 + 1):
        f = rng.choice((1, -1, Fraction(1, 2), 3))
        rows.insert(rng.randrange(len(rows) + 1), [f * x for x in rng.choice(rows)])
    return rows


def _with_zero_rows(nrows, ncols):
    rows = _dense(nrows, ncols)
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    return rows


def _shape():
    return rng.randint(1, 9), rng.randint(1, 9)


KINDS = {
    "dense": lambda: _dense(*_shape()),
    "sparse": lambda: _sparse(*_shape()),
    "rank_deficient": lambda: _rank_deficient(*_shape()),
    "duplicate_rows": lambda: _with_duplicates(*_shape()),
    "zero_rows": lambda: _with_zero_rows(*_shape()),
    "wide": lambda: _sparse(rng.randint(1, 4), rng.randint(8, 30)),
    "tall": lambda: _dense(rng.randint(8, 30), rng.randint(1, 4)),
    "one_by_one": lambda: [[rng.choice((0, 1, -3, Fraction(2, 7)))]],
}


def _check(rows):
    ncols = len(rows[0])
    got, want = rref(rows), dense_rref(rows)
    assert got == want, rows
    assert all(type(x) is Fraction for row in got[0] for x in row), rows
    rank = len(got[1])
    ker = kernel_basis(rows, ncols)
    assert len(ker) == ncols - rank, rows
    for v in ker:
        assert all(x == 0 for x in matvec(rows, v)), (rows, v)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rref_matches_dense_oracle(kind):
    rng.seed(kind)
    for _ in range(25):
        _check(KINDS[kind]())


def test_rref_of_no_rows():
    assert rref([]) == dense_rref([]) == ([], [])
    assert rref([[], []]) == dense_rref([[], []]) == ([], [])
    ker = kernel_basis([], 3)
    assert ker == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_rref_leaves_its_input_alone():
    rows = _sparse(6, 8)
    before = [list(r) for r in rows]
    rref(rows)
    assert rows == before
