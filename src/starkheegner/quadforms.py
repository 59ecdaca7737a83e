"""Integral binary quadratic forms of positive discriminant and the narrow
class group of a real quadratic order.

Everything here is exact integer arithmetic.  The reduced forms come from
one sieve over B that factors every (disc - B^2)/4 at once, through the
roots of B^2 = disc mod each odd prime up to sqrt(disc/4).  Indefinite
reduction cycles decide SL2(Z)-equivalence (a form's class is the
rho-cycle its reduction lands on; rho steps run on (A, B, C) triples, and
a class group builds BQFs only for its representatives),
Dirichlet composition gives the group law one pair of classes at a time,
on the representatives' triples (the h^2 table is built only on request),
and one period of the continued fraction of omega = (b + sqrt(D))/2 gives
the fundamental unit: with b the largest integer below sqrt(D) of D's
parity, omega is reduced (omega > 1, -1 < conj(omega) < 0), so its
expansion is purely periodic.
Real-embedding comparisons go through surd_sign, never floats.
Heegner forms are built, not searched for: the cosets gamma*Gamma0(M)
match P^1(Z/M) through gamma's first column and the Heegner conditions are
Gamma0(M)-invariant, so trying each point (from (1 : 0), the identity) finds
a form in a class whenever it has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    is_fundamental_discriminant,
    is_square,
    kronecker,
    lift_to_sl2,
    mat_adj,
    mat_inv,
    prime_divisors,
    primes_up_to,
    sqrt_mod_prime,
    surd_sign,
    xgcd,
)


class BQF:
    """Primitive integral form A x^2 + B xy + C y^2 of positive non-square
    discriminant."""

    __slots__ = ("A", "B", "C", "disc")

    def __init__(self, A: int, B: int, C: int):
        d = B * B - 4 * A * C
        if d <= 0 or is_square(d):
            raise ValueError("discriminant must be positive and non-square")
        if math.gcd(math.gcd(A, B), C) != 1:
            raise ValueError("form is not primitive")
        self.A, self.B, self.C = A, B, C
        self.disc = d

    def tuple(self):
        return (self.A, self.B, self.C)

    def __eq__(self, other):
        return isinstance(other, BQF) and self.tuple() == other.tuple()

    def __hash__(self):
        return hash(self.tuple())

    def __repr__(self):
        return "BQF(%d, %d, %d)" % self.tuple()

    def __call__(self, x: int, y: int) -> int:
        return self.A * x * x + self.B * x * y + self.C * y * y

    def apply(self, g) -> "BQF":
        """Right action (Q|g)(x, y) = Q(ax+by, cx+dy) for g = (a, b, c, d)."""
        a, b, c, d = g
        A2 = self(a, c)
        C2 = self(b, d)
        B2 = 2 * (self.A * a * b + self.C * c * d) + self.B * (a * d + b * c)
        return BQF(A2, B2, C2)

    def is_reduced(self) -> bool:
        return _is_reduced(self.A, self.B, math.isqrt(self.disc))

    def reduce(self) -> "BQF":
        """The reduced form on this form's rho-path."""
        if self.is_reduced():
            return self
        return BQF(*_reduce(self.tuple(), math.isqrt(self.disc)))


def _is_reduced(A: int, B: int, f: int) -> bool:
    """Whether (A, B, *) of discriminant disc, f = isqrt(disc), is reduced."""
    return 0 < B <= f and f + 1 - B <= 2 * abs(A) <= f + B


def _rho(form, f: int):
    """The Gauss rho step (C, B', C') of a triple (A, B, C), f = isqrt(disc):
    B' = -B mod 2|C| in (f - 2|C|, f], B + B' = 2Ck, C' = A + k(Ck - B)."""
    A, B, C = form
    Bn = f - (f + B) % (2 * abs(C))
    k = (B + Bn) // (2 * C)
    return C, Bn, A + k * (C * k - B)


def _reduce(form, f: int):
    """The reduced triple on the rho-path of the triple form."""
    while not _is_reduced(form[0], form[1], f):
        form = _rho(form, f)
    return form


def principal_form(disc: int) -> BQF:
    b = disc % 2
    return BQF(1, b, (b * b - disc) // 4)


def _compose(form1, form2, disc: int):
    """Dirichlet composition of primitive triples of discriminant disc."""
    a1, b1, _ = form1
    a2, b2, _ = form2
    s = (b1 + b2) // 2
    g1, u1, v1 = xgcd(a1, a2)
    m, u2, w = xgcd(g1, s)
    u, v = u2 * u1, u2 * v1
    A3 = a1 * a2 // (m * m)
    num = u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + disc) // 2
    B3 = (num // m) % (2 * A3)
    C3 = (B3 * B3 - disc) // (4 * A3)
    return A3, B3, C3


# ------------------------------------------------------------- units / Pell

def fundamental_unit(disc: int):
    """Fundamental unit > 1 of the order of discriminant disc, as (x, y)
    with unit = (x + y*sqrt(disc))/2 and x^2 - disc*y^2 = +-4.

    omega = (b + sqrt(disc))/2, b the largest integer below sqrt(disc) with
    b = disc (mod 2), generates the order and is reduced: omega > 1 and
    -1 < conj(omega) < 0.  Its expansion is therefore purely periodic, and
    over one period, omega = M omega for M the product of the (a, 1; 1, 0);
    the unit is r omega + s, with (r, s) the bottom row of M.  ValueError
    unless disc is a positive non-square discriminant (0 or 1 mod 4)."""
    if disc <= 0 or disc % 4 > 1 or is_square(disc):
        raise ValueError("%d is no positive non-square discriminant" % disc)
    f = math.isqrt(disc)
    b = f - (f - disc) % 2
    P, Q = b, 2
    r, s = 0, 1
    while True:
        a = (P + f) // Q
        P = a * Q - P
        Q = (disc - P * P) // Q
        r, s = a * r + s, r
        if (P, Q) == (b, 2):
            break
    x, y = r * b + 2 * s, r
    if x * x - disc * y * y not in (4, -4) or surd_sign(x - 2, y, disc) <= 0:
        raise ArithmeticError("(%d, %d) is no unit > 1 of disc %d" % (x, y, disc))
    return x, y


def unit_norm(disc: int, xy) -> int:
    x, y = xy
    return (x * x - disc * y * y) // 4


def _unit_square(disc: int, xy):
    x, y = xy
    return ((x * x + disc * y * y) // 2, x * y)


def plus_unit(disc: int):
    """Fundamental solution of t^2 - disc*u^2 = +4 with t, u > 0 (the
    totally positive fundamental unit of the order)."""
    xy = fundamental_unit(disc)
    if unit_norm(disc, xy) == -1:
        xy = _unit_square(disc, xy)
    return xy


def totally_positive_unit(D: int, c: int):
    """Smallest totally positive unit > 1 of O_c, as (x, y) against sqrt(Dc^2)."""
    if not is_fundamental_discriminant(D) or D <= 1:
        raise ValueError("D must be a fundamental discriminant > 1")
    return plus_unit(D * c * c)


def unit_index(D: int, c: int) -> int:
    """[O_F^x : O_c^x] = least k with eps_F^k in O_c (exact power test)."""
    if c == 1:
        return 1
    x, y = fundamental_unit(D)
    xk, yk = x, y
    k = 1
    while yk % c != 0:
        # multiply by (x + y sqrt(D))/2
        xk, yk = (xk * x + yk * y * D) // 2, (xk * y + yk * x) // 2
        k += 1
        if k > 6 * c * c:  # pragma: no cover
            raise RuntimeError("unit index search exceeded bound")
    return k


# --------------------------------------------------------- narrow class group

def reduced_forms(disc: int):
    """All reduced primitive forms of the given positive discriminant, by B
    ascending and then |A| ascending, A > 0 before A < 0.

    A reduced form has 0 < B <= f = isqrt(disc), B = disc mod 2, and |A| a
    divisor of n(B) = (disc - B^2)/4 in [(f + 1 - B)/2, (f + B)/2].  The
    n(B) are factored by one sieve over B: the 2s come off directly, and an
    odd prime l <= sqrt(disc/4) divides n(B) exactly when B is a root of
    B^2 = disc mod l (B = 0 if l | disc, +-sqrt_mod_prime otherwise; none if
    disc is a non-residue), so it is divided out of every n(B) in those two
    classes of B mod l.  What is left of n(B) is 1 or a prime.  A divisor
    product stops growing past (f + B)/2, the largest reduced |A|.
    """
    f = math.isqrt(disc)
    b0 = 2 - disc % 2  # smallest positive B with the right parity
    bs = range(b0, f + 1, 2)
    ns = [(disc - B * B) // 4 for B in bs]
    rest = list(ns)  # n(B) with the primes sieved so far divided out
    factors = [[] for _ in bs]
    for i, n in enumerate(rest):
        e = (n & -n).bit_length() - 1
        if e:
            factors[i].append((2, e))
            rest[i] = n >> e
    for ell in primes_up_to(math.isqrt(disc // 4))[1:]:
        k = kronecker(disc, ell)
        if k < 0:
            continue
        r = sqrt_mod_prime(disc, ell) if k else 0
        half = (ell + 1) // 2  # the inverse of 2 mod ell: B = b0 + 2i
        for root in (r, ell - r) if r else (0,):
            for i in range((root - b0) * half % ell, len(bs), ell):
                n, e = rest[i] // ell, 1
                while n % ell == 0:
                    n //= ell
                    e += 1
                factors[i].append((ell, e))
                rest[i] = n
    out = []
    for B, n, cofactor, fac in zip(bs, ns, rest, factors):
        if cofactor > 1:
            fac.append((cofactor, 1))
        top = (f + B) // 2  # the largest reduced |A|
        divs = [1]
        for q, e in fac:
            for d in divs[:]:
                for _ in range(e):
                    d *= q
                    if d > top:
                        break
                    divs.append(d)
        divs.sort()
        for absA in divs:
            if 2 * absA + B > f:
                absC = n // absA
                if math.gcd(math.gcd(absA, B), absC) == 1:
                    out.append(BQF(absA, B, -absC))
                    out.append(BQF(-absA, B, absC))
    return out


class NarrowClassGroup:
    """SL2(Z)-classes of primitive forms of discriminant D*c^2 with the
    Gauss composition group law (a model of Pic^+(O_c)).

    compose(i, j) composes and reduces the two representatives on demand;
    nothing is stored per pair.  The property table builds all h^2 products.
    """

    def __init__(self, D: int, c: int):
        if not is_fundamental_discriminant(D) or D <= 1:
            raise ValueError("D must be a fundamental discriminant > 1")
        if c < 1 or math.gcd(c, D) != 1:
            raise ValueError("need c >= 1 coprime to D")
        self.D, self.c = D, c
        self.disc = D * c * c
        f = math.isqrt(self.disc)
        cycles, seen = [], set()  # the rho-cycles of the reduced triples
        for q in reduced_forms(self.disc):
            form, cyc = q.tuple(), []
            while form not in seen:
                seen.add(form)
                cyc.append(form)
                form = _rho(form, f)
            if cyc:
                cycles.append(cyc)
        cycles.sort(key=min)
        self._triples = [min(cyc) for cyc in cycles]
        self._f = f
        self.reps = [BQF(*form) for form in self._triples]
        self._where = {form: idx for idx, cyc in enumerate(cycles) for form in cyc}
        self.order = len(self.reps)
        self.identity = self.class_of(principal_form(self.disc))
        self.inverse = [self._where[_reduce((q.A, -q.B, q.C), f)] for q in self.reps]

    def class_of(self, Q: BQF) -> int:
        if Q.disc != self.disc:
            raise ValueError("wrong discriminant")
        return self._where[Q.reduce().tuple()]

    def compose(self, i: int, j: int) -> int:
        """Class of the product, by one composition and one reduction, both
        on the representatives' triples."""
        form = _compose(self._triples[i], self._triples[j], self.disc)
        return self._where[_reduce(form, self._f)]

    @property
    def table(self):
        """The full h x h composition table, built afresh on each access."""
        return [[self.compose(i, j) for j in range(self.order)]
                for i in range(self.order)]

    def check_group_axioms(self) -> bool:
        """Exhaustive closure/associativity/identity/inverse check."""
        h, e, t = self.order, self.identity, self.table
        for i in range(h):
            if t[e][i] != i or t[i][e] != i or t[i][self.inverse[i]] != e:
                return False
            for j in range(h):
                if not 0 <= t[i][j] < h:
                    return False
                if t[i][j] != t[j][i]:
                    return False
                for k in range(h):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        return False
        return True


def narrow_class_number_oracle(D: int, c: int) -> int:
    """Independent class-number-formula evaluation of h_c^+.

    h(D) comes from the analytic class number formula (character sum against
    log sin), the conductor-c correction from the standard index formula, and
    the narrow factor from the norm of the fundamental unit of O_c.
    """
    x, y = fundamental_unit(D)
    log_eps = math.log((x + y * math.sqrt(D)) / 2)
    total = math.fsum(-kronecker(D, a) * math.log(2 * math.sin(math.pi * a / D))
                      for a in range(1, D) if math.gcd(a, D) == 1)
    h_f = round(total / (2 * log_eps))
    ratio = Fraction(c)
    for ell in prime_divisors(c):
        ratio *= Fraction(ell - kronecker(D, ell), ell)
    h_c = Fraction(h_f) * ratio / unit_index(D, c)
    if h_c.denominator != 1:
        raise ArithmeticError("class number formula gave %s at (%d, %d)" % (h_c, D, c))
    h_c = int(h_c)
    eps_c = fundamental_unit(D * c * c)
    return h_c if unit_norm(D * c * c, eps_c) == -1 else 2 * h_c


# ------------------------------------------------------------- Heegner forms

def choose_delta(D: int, M: int) -> int:
    """Smallest delta >= 0 with delta^2 = D mod 4M (Heegner hypothesis)."""
    for ell in prime_divisors(M):
        if kronecker(D, ell) != 1:
            raise ValueError("Heegner hypothesis fails at M: %d not split" % ell)
    if M % 2 == 0 and D % 8 != 1:
        raise ValueError("Heegner hypothesis fails at M: 2 requires D = 1 mod 8")
    for delta in range(2 * M):
        if (delta * delta - D) % (4 * M) == 0:
            return delta
    raise ValueError("Heegner hypothesis fails at M")


@dataclass(frozen=True)
class HeegnerForm:
    form: BQF
    level: int
    delta_c: int  # working residue: B = delta_c mod 2M, delta_c = c*delta

    def __post_init__(self):
        M = self.level
        if self.form.A % M != 0 or (self.form.B - self.delta_c) % (2 * M) != 0:
            raise ValueError("not a Heegner form for this level")


def heegner_representatives(group: NarrowClassGroup, M: int, delta: int):
    """One Heegner form per narrow class (the GKZ bijection), as a dict
    class-index -> HeegnerForm.

    Each reduced representative Q is moved by gamma in SL2(Z) with first
    column (x, y) mod M, over the points of P^1(Z/M) with Q(x, y) = 0 mod M,
    until B = delta_c mod 2M.  gamma*Gamma0(M) depends only on the point and
    both conditions are Gamma0(M)-invariant, so a form is found whenever one
    exists.  (1 : 0) lifts to the identity and comes first, so Q is kept when
    it qualifies (always for M = 1); unit multiples repeat a coset harmlessly.
    """
    delta_c = (group.c * delta) % (2 * M)
    if (delta_c * delta_c - group.disc) % (4 * M) != 0:
        raise ValueError("delta residue incompatible with discriminant")
    points = [(1, 0)] + [(x, y) for y in range(1, M) for x in range(M)
                         if math.gcd(math.gcd(x, y), M) == 1]
    found = {}
    for idx, Q in enumerate(group.reps):
        for x, y in points:
            if Q(x, y) % M == 0:
                Qg = Q.apply(mat_adj(lift_to_sl2(-y, x, M)))
                if (Qg.B - delta_c) % (2 * M) == 0:
                    found[idx] = HeegnerForm(Qg, M, delta_c)
                    break
        else:
            raise ArithmeticError("no Heegner form of level %d, B = %d mod %d, "
                                  "in the class of %r" % (M, delta_c, 2 * M, Q))
    return found


class HeegnerSystem:
    """A narrow class group with level structure: delta, one Heegner form per
    class, and the Galois (=composition) action on them."""

    def __init__(self, D: int, c: int, M: int):
        self.group = NarrowClassGroup(D, c)
        self.delta = choose_delta(D, M)
        self.forms = heegner_representatives(self.group, M, self.delta)

    def to_json_dict(self):
        return {
            "version": 1,
            "D": self.group.D,
            "c": self.group.c,
            "delta": self.delta,
            "M": self.forms[0].level,
            "reps": [list(q.tuple()) for q in self.group.reps],
            "table": self.group.table,
            "heegner": {str(i): list(q.form.tuple()) for i, q in self.forms.items()},
        }


# ------------------------------------------------------------- stabilizers

@dataclass
class StabilizerData:
    gamma: tuple         # SL2(Z) matrix fixing tau_Q, in Gamma0(M)


def stabilizer_gamma(Q: HeegnerForm, unit_xy) -> StabilizerData:
    """gamma_tau = image of eps_c under the optimal embedding attached to Q.

    The matrix is ((x - yB)/2, -yC, yA, (x + yB)/2); it fixes tau_Q, lies in
    Gamma0(M), and has c*tau + d = eps_c > 1 under the fixed real embedding.
    """
    x, y = unit_xy
    A, B, C = Q.form.tuple()
    disc = Q.form.disc
    if x * x - disc * y * y != 4:
        raise ValueError("unit (%d, %d) of disc %d must have norm +1" % (x, y, disc))
    g = ((x - y * B) // 2, -y * C, y * A, (x + y * B) // 2)
    if g[0] * g[3] - g[1] * g[2] != 1:
        raise ArithmeticError("embedding %r of (%d, %d) is not in SL2(Z)" % (g, x, y))
    if Q.form.apply(g) != Q.form:
        raise RuntimeError("embedding does not stabilize the form")
    if g[2] % Q.level != 0:
        raise RuntimeError("stabilizer escaped Gamma0(M)")
    # c*tau + d = (x + y sqrt(disc))/2 > 1, i.e. (x - 2) + y sqrt(disc) > 0
    if surd_sign(x - 2, y, disc) <= 0:
        g = mat_inv(g)
    return StabilizerData(g)
