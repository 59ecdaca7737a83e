"""Quadratic characters of the narrow ring class group and their genus data.

Gauss's genus theory builds every quadratic character of Pic^+(O_c) from
its genus pair, for c odd and squarefree (NarrowClassGroup already takes c
prime to D).  Write S_D for the prime discriminants whose product is D, and
l* = +-l = 1 mod 4 for each prime l | c.  A split D = D1*D2 over S_D
(D1 < D2) and a product f* of some of the l* give the character

    chi([Q]) = (D1*f* | a),  a = Q(x, y) odd and prime to Dc,

which cuts out Q(sqrt(D1*f*), sqrt(D2*f*)); its genus pair is
(Delta1, Delta2) = (D1*f*, D2*f*).  These are all 2^(|S_D| - 1 + omega(c))
characters, and the pair alone fixes the rest of their genus data:

    Delta1*Delta2 = D*f^2,  f = |f*| the conductor (chi factors through
                            Pic^+(O_f) and through no smaller order);
    chi(sigma_F) = (Delta1 | -1) = sign(Delta1),  sigma_F the class of the
                            principal ideal (sqrt(D)), so sign(Delta1) is
                            the sign w_infinity of chi.

So RingClassCharacter stores only the values and the pair, and reads the
conductor and the sign off the pair; attach_genus_data checks the values
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    is_squarefree,
    kronecker,
    lift_to_sl2,
    mat_adj,
    prime_discriminant_factors,
    prime_divisors,
)
from .curves import twist_sign
from .quadforms import BQF, NarrowClassGroup


@dataclass(frozen=True)
class RingClassCharacter:
    """A quadratic character of Pic^+(O_c) with its genus pair.  Raises
    ArithmeticError unless Delta1*Delta2 = D*f^2 for some f | c."""
    group: NarrowClassGroup
    values: tuple          # +-1 per class index
    genus_pair: tuple      # (Delta1, Delta2), unordered

    def __post_init__(self):
        d1, d2 = self.genus_pair
        D, c = self.group.D, self.group.c
        f = math.isqrt(d1 * d2 // D) if d1 * d2 > 0 else 0
        if f == 0 or d1 * d2 != D * f * f or c % f != 0:
            raise ArithmeticError("genus pair %r is not D*f^2 = %d*f^2 for any f | %d"
                                  % (self.genus_pair, D, c))

    @property
    def conductor(self) -> int:
        """The minimal f | c that chi factors through: Delta1*Delta2 = D*f^2."""
        d1, d2 = self.genus_pair
        return math.isqrt(d1 * d2 // self.group.D)

    @property
    def sign(self) -> int:
        """w_infinity = chi(sigma_F) = sign(Delta1)."""
        return 1 if self.genus_pair[0] > 0 else -1

    def __call__(self, idx: int) -> int:
        return self.values[idx]


def _subset_products(factors):
    """The products of all 2^len(factors) subsets of factors."""
    out = [1]
    for x in factors:
        out += [x * y for y in out]
    return out


def _generator_rows(group: NarrowClassGroup):
    """{g: [g*j for every class j]} over a generating set S of the group.

    S is built greedily: walk the classes in index order and add each one
    the subgroup generated so far misses; the new row closes the subgroup.
    """
    rows = {}
    reached = {group.identity}
    for k in range(group.order):
        if k in reached:
            continue
        rows[k] = [group.compose(k, j) for j in range(group.order)]
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for row in rows.values():
                if row[x] not in reached:
                    reached.add(row[x])
                    frontier.append(row[x])
    return rows


def enumerate_quadratic_chars(group: NarrowClassGroup):
    """All homomorphisms Pic^+(O_c) -> {+-1}, as value vectors, each with
    its genus pair (see the module docstring).

    Each vector chi is checked on the rows of a generating set S only:
    chi(e) = 1 and chi(g*j) = chi(g)*chi(j) for g in S and every j give
    chi(w*j) = chi(w)*chi(j) for every word w in S, by induction on its
    length, and the words reach every class, so chi is a homomorphism.
    That costs |S|*h compositions, not h^2.  Raises ArithmeticError if the
    count of vectors is wrong or one fails the check.
    """
    D, c, h = group.D, group.c, group.order
    if c % 2 == 0 or not is_squarefree(c):
        raise ValueError("genus characters need c odd and squarefree, not %d" % c)
    parts = prime_discriminant_factors(D)
    stars = [ell if ell % 4 == 1 else -ell for ell in prime_divisors(c)]
    represented = [a for a, _ in _class_representatives(group)]
    pairs = {}
    for d1 in _subset_products(parts):
        d2 = D // d1
        if d1 > d2:
            continue
        for fstar in _subset_products(stars):
            values = tuple(kronecker(d1 * fstar, a) for a in represented)
            pairs[values] = (d1 * fstar, d2 * fstar)
    want = 2 ** (len(parts) - 1 + len(stars))
    if len(pairs) != want:
        raise ArithmeticError("%d distinct genus characters at D = %d, c = %d, "
                              "not %d" % (len(pairs), D, c, want))
    rows = _generator_rows(group)
    for values in pairs:
        if values[group.identity] != 1:
            raise ArithmeticError("no character: %r at the identity" % (values,))
        for g, row in rows.items():
            for j in range(h):
                if values[row[j]] != values[g] * values[j]:
                    raise ArithmeticError("no character: %r at %d, %d" % (values, g, j))
    return [RingClassCharacter(group, v, genus_pair=pairs[v])
            for v in sorted(pairs, reverse=True)]


# ------------------------------------------------------------- pushforwards

def _represent_coprime(Q: BQF, moduli: int):
    """A value a = Q(x0, y0) odd and coprime to the given moduli, with
    gcd(x0, y0) = 1, plus the completed unimodular change of basis."""
    for height in range(1, 60):
        for x0 in range(-height, height + 1):
            for y0 in range(-height, height + 1):
                if max(abs(x0), abs(y0)) != height or math.gcd(x0, y0) != 1:
                    continue
                a = Q(x0, y0)
                if a % 2 != 0 and math.gcd(a, moduli) == 1:
                    # first column (x0, y0), coprime: any modulus serves
                    return a, Q.apply(mat_adj(lift_to_sl2(-y0, x0, 1)))
    raise RuntimeError("no coprime representation found")  # pragma: no cover


@lru_cache(maxsize=8)
def _class_representatives(group: NarrowClassGroup):
    """_represent_coprime(Q, 2 D c) of each class Q, searched once per group
    for all three readers below (the last 8 groups are kept)."""
    return tuple(_represent_coprime(Q, 2 * group.D * group.c) for Q in group.reps)


def pushforward_class(group_c: NarrowClassGroup, group_f: NarrowClassGroup, idx: int) -> int:
    """Image of a class of O_c under Pic^+(O_c) -> Pic^+(O_f), f | c."""
    c, f = group_c.c, group_f.c
    if c % f != 0 or group_c.D != group_f.D:
        raise ValueError("no map O_%d -> O_%d, D = %d, %d" % (c, f, group_c.D, group_f.D))
    a, Qa = _class_representatives(group_c)[idx]
    # Qa = (a, b, *): rescale the middle coefficient from disc Dc^2 to Df^2
    b = Qa.B
    m = 4 * a
    cinv = pow(c, -1, m)
    b2 = (b * f % m) * cinv % m
    # fix parity/congruence so that b2^2 = Df^2 mod 4a
    if (b2 * b2 - group_f.disc) % m != 0:
        raise ArithmeticError("b = %d has b^2 != %d mod %d" % (b2, group_f.disc, m))
    C2 = (b2 * b2 - group_f.disc) // m
    return group_f.class_of(BQF(a, b2, C2))


# --------------------------------------------------------------- genus data

def attach_genus_data(chi: RingClassCharacter) -> RingClassCharacter:
    """Check chi against its genus pair (Delta1, Delta2) and return it
    unchanged.  Raises ArithmeticError if chi differs from (Delta1 | a) at
    a class, a the value of its representative that
    enumerate_quadratic_chars reads.
    """
    group = chi.group
    d1 = chi.genus_pair[0]
    for i, (a, _) in enumerate(_class_representatives(group)):
        if chi(i) != kronecker(d1, a):
            raise ArithmeticError("character %r is not (%d | .) at class %d"
                                  % (chi.values, d1, i))
    return chi


def order_by_sign(w_n: int, conductor_n: int, pair):
    """Order the genus pair so that twist_sign(w_N, N, Delta1) = -1."""
    d1, d2 = pair
    s1, s2 = (twist_sign(w_n, conductor_n, d) for d in pair)
    if s1 == s2:
        raise ValueError("genus pair signs agree; inconsistent input")
    return (d1, d2) if s1 == -1 else (d2, d1)
