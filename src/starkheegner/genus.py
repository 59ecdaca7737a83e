"""Quadratic characters of the narrow ring class group and their genus data.

Gauss's genus theory builds every quadratic character of Pic^+(O_c) from
its genus pair, for c odd and squarefree (NarrowClassGroup already takes c
prime to D).  Write S_D for the prime discriminants whose product is D, and
l* = +-l = 1 mod 4 for each prime l | c.  A split D = D1*D2 over S_D
(D1 < D2) and a product f* of some of the l* give the character

    chi([Q]) = (D1*f* | a),  a = Q(x, y) odd and prime to Dc,

which cuts out Q(sqrt(D1*f*), sqrt(D2*f*)); its genus pair is
(Delta1, Delta2) = (D1*f*, D2*f*), with Delta1*Delta2 = D*f^2 and f = |f*|
its conductor.  These are all 2^(|S_D| - 1 + omega(c)) characters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import (
    divisors,
    is_squarefree,
    kronecker,
    lift_to_sl2,
    mat_adj,
    prime_discriminant_factors,
    prime_divisors,
)
from .quadforms import BQF, NarrowClassGroup, sqrtD_class


@dataclass
class RingClassCharacter:
    group: NarrowClassGroup
    values: tuple          # +-1 per class index
    primitive: bool = field(default=False)
    conductor: int = field(default=0)   # the minimal f | c it factors through
    sign: int = field(default=0)        # w_infinity = chi(sigma_F)
    genus_pair: tuple | None = field(default=None)  # (Delta1, Delta2), unordered

    def __call__(self, idx: int) -> int:
        return self.values[idx]

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def to_json_dict(self):
        return {
            "D": self.group.D,
            "c": self.group.c,
            "values": list(self.values),
            "primitive": self.primitive,
            "sign": self.sign,
            "delta1": None if self.genus_pair is None else self.genus_pair[0],
            "delta2": None if self.genus_pair is None else self.genus_pair[1],
        }


def _subset_products(factors):
    """The products of all 2^len(factors) subsets of factors."""
    out = [1]
    for x in factors:
        out += [x * y for y in out]
    return out


def enumerate_quadratic_chars(group: NarrowClassGroup):
    """All homomorphisms Pic^+(O_c) -> {+-1}, as value vectors, each with
    its genus pair (see the module docstring)."""
    D, c, h = group.D, group.c, group.order
    if c % 2 == 0 or not is_squarefree(c):
        raise ValueError("genus characters need c odd and squarefree, not %d" % c)
    parts = prime_discriminant_factors(D)
    stars = [ell if ell % 4 == 1 else -ell for ell in prime_divisors(c)]
    represented = [_represent_coprime(Q, 2 * D * c)[0] for Q in group.reps]
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
    # sanity: homomorphism property on the full table
    for values in pairs:
        for i in range(h):
            for j in range(h):
                if values[group.compose(i, j)] != values[i] * values[j]:
                    raise ArithmeticError("no character: %r at %d, %d" % (values, i, j))
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


def pushforward_class(group_c: NarrowClassGroup, group_f: NarrowClassGroup, idx: int) -> int:
    """Image of a class of O_c under Pic^+(O_c) -> Pic^+(O_f), f | c."""
    c, f = group_c.c, group_f.c
    if c % f != 0 or group_c.D != group_f.D:
        raise ValueError("no map O_%d -> O_%d, D = %d, %d" % (c, f, group_c.D, group_f.D))
    Q = group_c.reps[idx]
    a, Qa = _represent_coprime(Q, 2 * c * group_c.D)
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


def kernel_of_pushforward(group_c: NarrowClassGroup, group_f: NarrowClassGroup):
    return sorted(i for i in range(group_c.order)
                  if pushforward_class(group_c, group_f, i) == group_f.identity)


_group_cache: dict = {}


def cached_group(D: int, c: int) -> NarrowClassGroup:
    key = (D, c)
    if key not in _group_cache:
        _group_cache[key] = NarrowClassGroup(D, c)
    return _group_cache[key]


_kernel_cache: dict = {}


def cached_kernel(group: NarrowClassGroup, f: int):
    """kernel_of_pushforward(group, cached_group(D, f)), computed once per
    (D, c, f): NarrowClassGroup numbers its classes by (D, c) alone."""
    key = (group.D, group.c, f)
    if key not in _kernel_cache:
        _kernel_cache[key] = tuple(
            kernel_of_pushforward(group, cached_group(group.D, f)))
    return _kernel_cache[key]


def character_conductor(chi: RingClassCharacter) -> int:
    """Minimal divisor f of c such that chi factors through Pic^+(O_f)."""
    group = chi.group
    c = group.c
    for f in divisors(c):
        if f == c:
            return c
        ker = cached_kernel(group, f)
        if all(chi(i) == 1 for i in ker):
            return f
    return c


def is_primitive(chi: RingClassCharacter) -> bool:
    """True iff chi is nontrivial on every ker(Pic^+(O_c) -> Pic^+(O_f)),
    f a proper divisor of c."""
    return character_conductor(chi) == chi.group.c


def char_sign(chi: RingClassCharacter) -> int:
    """w_infinity = chi(sigma_F); +1 means the cut-out field is totally real."""
    return chi(sqrtD_class(chi.group))


def attach_genus_data(chi: RingClassCharacter) -> RingClassCharacter:
    """Fill conductor, primitivity and sign in place, and check the genus
    pair from enumerate_quadratic_chars against the conductor f:
    Delta1*Delta2 = D*f^2."""
    if chi.genus_pair is None:
        raise ArithmeticError("character %r has no genus pair" % (chi.values,))
    chi.conductor = character_conductor(chi)
    chi.primitive = chi.conductor == chi.group.c
    chi.sign = char_sign(chi)
    d1, d2 = chi.genus_pair
    if d1 * d2 != chi.group.D * chi.conductor ** 2:
        raise ArithmeticError("genus pair %r does not multiply to D*f^2 = %d*%d^2"
                              % (chi.genus_pair, chi.group.D, chi.conductor))
    return chi


def order_by_sign(w_n: int, conductor_n: int, pair):
    """Order the genus pair so sign(E, chi_{Delta1}) = -1, using
    sign(E, psi) = -w_N * (Delta_psi | -N)."""
    d1, d2 = pair
    s1 = -w_n * kronecker(d1, -conductor_n)
    s2 = -w_n * kronecker(d2, -conductor_n)
    if s1 == s2:
        raise ValueError("genus pair signs agree; inconsistent input")
    return (d1, d2) if s1 == -1 else (d2, d1)
