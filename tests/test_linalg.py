"""linalg.rref against the dense elimination it replaced.

``dense_rref`` is the package's former rref, kept unchanged as the oracle:
column by column, it swaps up the first row with a non-zero entry, scales it
and clears that column from every other row.  The RREF of a row space is
unique, so the sparse fraction-free elimination must return the same rows
and pivots, and kernel_basis the same vectors as ``dense_kernel_basis``.
"""

import math
import random
from fractions import Fraction

import pytest

import starkheegner.linalg as linalg
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


def _integer_only(nrows, ncols):
    return [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]


def _huge(nrows, ncols):
    """Non-zero entries of at least 2^64 in size, integral and not."""
    def entry():
        x = rng.choice((0, 1, -1)) * rng.randint(2 ** 64, 2 ** 80)
        return Fraction(x, rng.randint(1, 2 ** 70)) if rng.random() < 0.3 else x
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _common_content(nrows, ncols):
    """Rows with a common factor (integral or not) in every entry."""
    return [[rng.choice((6, -4, 35, Fraction(9, 14))) * x for x in row]
            for row in _dense(nrows, ncols)]


def _non_unit_leading(nrows, ncols):
    """Each row leads with a negative or non-unit entry."""
    rows = []
    for row in _dense(nrows, ncols):
        c = rng.randrange(ncols)
        row[:c] = [0] * c
        row[c] = rng.choice((-1, -2, -7, 3, 12, Fraction(-5, 3), Fraction(4, 9)))
        rows.append(row)
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
    "integer_only": lambda: _integer_only(*_shape()),
    "huge": lambda: _huge(*_shape()),
    "common_content": lambda: _common_content(*_shape()),
    "non_unit_leading": lambda: _non_unit_leading(*_shape()),
}


def _check(rows):
    ncols = len(rows[0])
    got, want = rref(rows), dense_rref(rows)
    assert got == want, rows
    assert all(type(x) is Fraction for row in got[0] for x in row), rows
    rank = len(got[1])
    # the integer rows behind them: primitive, positive at their own pivot
    # and zero at every other pivot
    pivot_rows = linalg._pivot_rows(rows)
    assert sorted(pivot_rows) == got[1], rows
    for pc, r in pivot_rows.items():
        assert all(type(x) is int and x for x in r.values()), rows
        assert r[pc] > 0 and math.gcd(*r.values()) == 1, (rows, r)
        assert min(r) == pc and not any(c in pivot_rows for c in r if c != pc), rows
    ker = kernel_basis(rows, ncols)
    assert ker == dense_kernel_basis(rows, ncols), rows
    assert all(type(x) is Fraction for v in ker for x in v), rows
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


def test_fractions_are_made_only_for_the_output(monkeypatch):
    # elimination runs on integer rows: linalg builds a Fraction for an entry
    # it returns, and a few constants, but none per input entry or per step
    made = [0]

    def counting(*args):
        made[0] += 1
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting)
    rng.seed("count")
    for rows in [_dense(30, 4), _dense(4, 30), _huge(12, 6), _sparse(40, 20),
                 _rank_deficient(20, 9)]:
        ncols = len(rows[0])
        made[0] = 0
        red, _ = rref(rows)
        assert made[0] <= sum(map(len, red)) + 2, (made[0], rows)
        made[0] = 0
        ker = kernel_basis(rows, ncols)
        assert made[0] <= sum(map(len, ker)) + 2, (made[0], rows)


def test_rref_leaves_its_input_alone():
    rows = _sparse(6, 8)
    before = [list(r) for r in rows]
    rref(rows)
    assert rows == before
