"""Quadratic characters of the narrow ring class group and their genus data.

A quadratic character of Pic^+(O_c) with c odd squarefree cuts out a
biquadratic field Q(sqrt(Delta1), sqrt(Delta2)) with Delta1*Delta2 = D*d^2,
d = +-c.  The decomposition is found by sampling Frobenius classes of split
primes (a split prime ell is represented by a form of discriminant Dc^2 with
leading coefficient ell) against Kronecker symbols.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .arith import (
    divisors,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    kronecker,
    lift_to_sl2,
    mat_adj,
    prime_discriminant_factors,
    sqrt_mod_prime,
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


def enumerate_quadratic_chars(group: NarrowClassGroup):
    """All homomorphisms Pic^+(O_c) -> {+-1}, as value vectors."""
    h = group.order
    # subgroup generated by squares; characters live on the 2-elementary quotient
    squares = {group.compose(i, i) for i in range(h)}
    sub = {group.identity}
    frontier = set(squares)
    while frontier:
        new = set()
        for a in frontier:
            for b in sub | frontier:
                x = group.compose(a, b)
                if x not in sub and x not in frontier and x not in new:
                    new.add(x)
        sub |= frontier
        frontier = new
    # greedy F2-basis of the quotient; expmap[i] = exponents over the basis
    expmap = {s: [] for s in sub}
    nbasis = 0
    while len(expmap) < h:
        g = next(i for i in range(h) if i not in expmap)
        nbasis += 1
        for s in list(expmap):
            expmap[s] = expmap[s] + [0]
        for s, vec in list(expmap.items()):
            x = group.compose(g, s)
            if x not in expmap:
                v = vec.copy()
                v[-1] = 1
                expmap[x] = v
    r = nbasis
    chars = []
    for mask in range(2 ** r):
        values = tuple(
            -1 if sum((mask >> k) & e for k, e in enumerate(expmap[i])) % 2 else 1
            for i in range(h))
        chars.append(values)
    # sanity: homomorphism property on the full table
    for values in chars:
        for i in range(h):
            for j in range(h):
                if values[group.compose(i, j)] != values[i] * values[j]:
                    raise ArithmeticError("no character: %r at %d, %d" % (values, i, j))
    out = [RingClassCharacter(group, v) for v in sorted(chars, reverse=True)]
    return out


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


def character_conductor(chi: RingClassCharacter) -> int:
    """Minimal divisor f of c such that chi factors through Pic^+(O_f)."""
    group = chi.group
    c, D = group.c, group.D
    for f in divisors(c):
        if f == c:
            return c
        ker = kernel_of_pushforward(group, cached_group(D, f))
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


# --------------------------------------------------------------- Frobenius

def frobenius_class(group: NarrowClassGroup, ell: int) -> int:
    """Class of a form of discriminant Dc^2 representing the split prime ell."""
    disc = group.disc
    if kronecker(disc, ell) != 1:
        raise ValueError("%d is not split" % ell)
    b = sqrt_mod_prime(disc, ell)
    if (b - disc) % 2 != 0:
        b += ell
    if (b * b - disc) % (4 * ell) != 0:
        raise ArithmeticError("b = %d has b^2 != %d mod %d" % (b, disc, 4 * ell))
    return group.class_of(BQF(ell, b, (b * b - disc) // (4 * ell)))


def split_primes(group: NarrowClassGroup, avoid: int, count: int, skip: int = 0):
    """Split primes of F prime to `avoid`, by increasing size."""
    out = []
    ell = 1
    while len(out) < count + skip:
        ell += 2
        if avoid % ell == 0 or not is_prime(ell):
            continue
        if kronecker(group.D, ell) == 1:
            out.append(ell)
    return out[skip:]


def genus_decompose(chi: RingClassCharacter, samples: int = 25):
    """The genus pair (Delta1, Delta2) of a quadratic ring class character.

    Works at the character's own conductor f | c (so non-primitive characters
    decompose too): d = f or -f per f mod 4, and the factorization D = D1*D2
    into fundamental discriminants is selected by matching chi on the
    Frobenius classes of `samples` split primes.  Returns (Delta1, Delta2)
    unordered, with Delta_i = D_i * d.
    """
    group = chi.group
    D, c = group.D, group.c
    if c % 2 == 0 or not is_squarefree(c):
        raise ValueError("c must be odd and squarefree for genus theory")
    f = character_conductor(chi)
    d = f if f % 4 == 1 else -f
    if f > 1 and not is_fundamental_discriminant(d):
        raise ValueError("conductor does not give a fundamental discriminant")
    parts = prime_discriminant_factors(D)
    candidates = []
    for mask in range(2 ** len(parts)):
        d1 = 1
        for k, pd in enumerate(parts):
            if (mask >> k) & 1:
                d1 *= pd
        candidates.append(d1)
    candidates = sorted(set(candidates))
    avoid = 2 * D * c * max(abs(d), 1)
    primes = split_primes(group, avoid, samples)
    frob = {ell: frobenius_class(group, ell) for ell in primes}
    matches = []
    for d1 in candidates:
        delta1 = d1 * d
        if all(chi(frob[ell]) == kronecker(delta1, ell) for ell in primes):
            matches.append(d1)
    if not matches:
        raise ValueError("genus decomposition failed")
    # the two members of the winning pair both match on split primes
    if len(matches) != 2 or matches[0] * matches[1] != D:
        raise ValueError("genus decomposition ambiguous; enlarge the sample")
    d1, d2 = matches
    delta1, delta2 = d1 * d, d2 * d
    for ell in primes:
        if kronecker(D, ell) != kronecker(delta1, ell) * kronecker(delta2, ell):
            raise ArithmeticError("genus pair %r fails at %d" % ((delta1, delta2), ell))
    return delta1, delta2


def attach_genus_data(chi: RingClassCharacter) -> RingClassCharacter:
    """Fill conductor, primitivity, sign and genus pair in place."""
    chi.conductor = character_conductor(chi)
    chi.primitive = chi.conductor == chi.group.c
    chi.sign = char_sign(chi)
    chi.genus_pair = genus_decompose(chi)
    return chi


# ------------------------------------------------------------ Dirichlet side

@dataclass(frozen=True)
class QuadDirichletChar:
    """The quadratic character n -> (Delta|n) of a fundamental discriminant."""

    delta: int

    def __post_init__(self):
        if not is_fundamental_discriminant(self.delta):
            raise ValueError("%d is not a fundamental discriminant" % self.delta)

    @property
    def modulus(self) -> int:
        return abs(self.delta)

    def __call__(self, n: int) -> int:
        return kronecker(self.delta, n)

    def parity(self) -> int:
        """chi(-1): +1 for Delta > 0, -1 for Delta < 0."""
        return 1 if self.delta > 0 else -1


def kronecker_eval(delta: int, n: int) -> int:
    if delta % 4 not in (0, 1):
        raise ValueError("not a discriminant")
    return kronecker(delta, n)


def gauss_sum(psi: QuadDirichletChar):
    """Exact Gauss sum of a fundamental quadratic character.

    Returns ("real", Delta) meaning sqrt(Delta) for Delta > 0, and
    ("imag", |Delta|) meaning i*sqrt(|Delta|) for Delta < 0.
    """
    if psi.delta > 0:
        return ("real", psi.delta)
    return ("imag", -psi.delta)


def gauss_sum_numeric(psi: QuadDirichletChar) -> complex:
    m = psi.modulus
    return sum(psi(a) * cmath.exp(2j * cmath.pi * a / m) for a in range(1, m + 1))


def order_by_sign(w_n: int, conductor_n: int, pair):
    """Order the genus pair so sign(E, chi_{Delta1}) = -1, using
    sign(E, psi) = -w_N * (Delta_psi | -N)."""
    d1, d2 = pair
    s1 = -w_n * kronecker(d1, -conductor_n)
    s2 = -w_n * kronecker(d2, -conductor_n)
    if s1 == s2:
        raise ValueError("genus pair signs agree; inconsistent input")
    return (d1, d2) if s1 == -1 else (d2, d1)
