"""Test-only oracle: the reduced forms by trial division, SL2(Z) witnesses
between forms, and the kernel route to a character's conductor and sign.

The package sieves the reduced forms, reduces forms without tracking
matrices and reads a genus character's conductor and sign off its genus
pair.  This file does each the long way, to check them:

- the reduced forms of a discriminant, with the divisors of each
  (disc - B^2)/4 from its trial-division factorization;

- the class group by walking each rho-cycle with BQF objects, and
  Dirichlet composition of BQF objects;
- a rho step that also returns its matrix, so reduction yields a witness g
  with Q1|g = Q2, and equivalence under Gamma0(M) follows by powers of a
  fundamental automorph;
- the conductor as the least f | c whose pushforward kernel chi kills,
  with one NarrowClassGroup per divisor f;
- the sign as chi at the class of the principal ideal (sqrt(D));
- the fundamental unit by expanding (disc mod 2 + sqrt(disc))/2, which in
  general is not reduced: the walk records every state to find the
  pre-period, then conjugates the period's matrix back to the start.
"""

import math

from starkheegner.arith import MAT_ID, factorize, mat_adj, mat_inv, mat_mul, surd_sign, xgcd
from starkheegner.genus import pushforward_class
from starkheegner.quadforms import (
    BQF,
    NarrowClassGroup,
    fundamental_unit,
    plus_unit,
    reduced_forms,
    unit_norm,
)


# ------------------------------------------------------- reduced forms

def divisors(n: int):
    """The positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(abs(n)):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def reduced_forms_by_trial_division(disc: int):
    """The reduced primitive forms of disc as (A, B, C) tuples, in the order
    of quadforms.reduced_forms: B ascending, then |A| ascending over the
    divisors of (disc - B^2)/4, A > 0 before A < 0."""
    f = math.isqrt(disc)
    out = []
    for B in range(2 - disc % 2, f + 1, 2):
        n = (disc - B * B) // 4
        for absA in divisors(n):
            if 2 * absA + B >= f + 1 and 2 * absA - B <= f:
                for A, C in ((absA, -(n // absA)), (-absA, n // absA)):
                    if math.gcd(math.gcd(A, B), C) == 1:
                        out.append((A, B, C))
    return out


# ------------------------------------------------------- class group

def class_group_by_cycles(disc: int):
    """(reps, where, class_of) of the narrow class group of disc, walked
    with BQF objects: the rho-cycles of reduced_forms(disc) by rho_step
    (the form action of a matrix), reps the least form of each cycle
    sorted ascending, where each reduced form's index into reps, and
    class_of reducing a form by rho_step until it is reduced."""
    seen = set()
    cycles = []
    for q in reduced_forms(disc):
        if q in seen:
            continue
        cyc = [q]
        cur = rho_step(q)[0]
        while cur != q:
            cyc.append(cur)
            cur = rho_step(cur)[0]
        cycles.append(cyc)
        seen.update(cyc)
    cycles.sort(key=lambda cyc: min(r.tuple() for r in cyc))
    reps = [min(cyc, key=BQF.tuple) for cyc in cycles]
    where = {r: idx for idx, cyc in enumerate(cycles) for r in cyc}

    def class_of(Q: BQF) -> int:
        while not Q.is_reduced():
            Q = rho_step(Q)[0]
        return where[Q]

    return reps, where, class_of


def compose_forms(Q1: BQF, Q2: BQF) -> BQF:
    """Dirichlet composition of primitive forms of equal discriminant, as a
    validated BQF (the package composes the triples of class
    representatives)."""
    if Q1.disc != Q2.disc:
        raise ValueError("discriminant mismatch")
    a1, b1, _ = Q1.tuple()
    a2, b2, _ = Q2.tuple()
    disc = Q1.disc
    s = (b1 + b2) // 2
    g1, u1, v1 = xgcd(a1, a2)
    m, u2, w = xgcd(g1, s)
    u, v = u2 * u1, u2 * v1
    A3 = a1 * a2 // (m * m)
    num = u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + disc) // 2
    B3 = (num // m) % (2 * A3)
    C3 = (B3 * B3 - disc) // (4 * A3)
    return BQF(A3, B3, C3)


# ------------------------------------------------------------- witnesses

def rho_step(Q: BQF):
    """One Gauss rho step with its matrix: (Q|g, g), g = (0, -1, 1, s) and
    s chosen so the new middle coefficient lies in (f - 2|C|, f], f the
    integer square root of the discriminant."""
    f = math.isqrt(Q.disc)
    Bn = f - ((f + Q.B) % (2 * abs(Q.C)))
    g = (0, -1, 1, (Q.B + Bn) // (2 * Q.C))
    return Q.apply(g), g


def reduce_with_witness(Q: BQF):
    """(R, g): R = Q|g the reduced form that Q.reduce() returns."""
    form, g = Q, MAT_ID
    while not form.is_reduced():
        form, step = rho_step(form)
        g = mat_mul(g, step)
    if form != Q.reduce():
        raise ArithmeticError("%r reduces to %r, not %r" % (Q, Q.reduce(), form))
    return form, g


def sl2_witness(Q1: BQF, Q2: BQF):
    """A matrix g in SL2(Z) with Q1|g = Q2, or None."""
    if Q1.disc != Q2.disc:
        raise ValueError("discriminant mismatch")
    r1, g1 = reduce_with_witness(Q1)
    r2, g2 = reduce_with_witness(Q2)
    cur, h = r1, MAT_ID
    while True:
        if cur == r2:
            g = mat_mul(mat_mul(g1, h), mat_inv(g2))
            if Q1.apply(g) != Q2:
                raise ArithmeticError("bad witness %r: %r, %r" % (g, Q1, Q2))
            return g
        cur, step = rho_step(cur)
        h = mat_mul(h, step)
        if cur == r1:
            return None


def fundamental_automorph(Q: BQF):
    """Generator (up to sign) of the proper automorphs of Q, from the
    fundamental norm-(+1) Pell solution of t^2 - disc*u^2 = 4."""
    t, u = plus_unit(Q.disc)
    g = ((t - Q.B * u) // 2, -Q.C * u, Q.A * u, (t + Q.B * u) // 2)
    if Q.apply(g) != Q:
        raise ArithmeticError("automorph %r does not fix %r" % (g, Q))
    return g


def forms_equivalent(Q1: BQF, Q2: BQF, level_m: int | None = None):
    """Equivalence test; witness returned.  level_m=None means SL2(Z),
    otherwise Gamma0(level_m)."""
    g0 = sl2_witness(Q1, Q2)
    if g0 is None:
        return False, None
    if level_m is None or level_m == 1:
        return True, g0
    M = level_m
    aut = fundamental_automorph(Q2)
    pow_exact = MAT_ID
    seen = set()
    while True:
        cur = mat_mul(g0, pow_exact)
        if cur[2] % M == 0:
            if Q1.apply(cur) != Q2:
                raise ArithmeticError("bad witness %r: %r, %r" % (cur, Q1, Q2))
            return True, cur
        state = tuple(x % M for x in pow_exact)
        if state in seen:
            return False, None
        seen.add(state)
        pow_exact = mat_mul(pow_exact, aut)


# -------------------------------------------------- conductor and sign

def kernel_of_pushforward(group_c: NarrowClassGroup, group_f: NarrowClassGroup):
    return sorted(i for i in range(group_c.order)
                  if pushforward_class(group_c, group_f, i) == group_f.identity)


def character_conductor(chi) -> int:
    """Least divisor f of c such that chi factors through Pic^+(O_f), i.e.
    is trivial on ker(Pic^+(O_c) -> Pic^+(O_f))."""
    c = chi.group.c
    for f in divisors(c):
        if f == c:
            return c
        ker = kernel_of_pushforward(chi.group, NarrowClassGroup(chi.group.D, f))
        if all(chi(i) == 1 for i in ker):
            return f


def is_primitive(chi) -> bool:
    """True iff chi is nontrivial on every ker(Pic^+(O_c) -> Pic^+(O_f)),
    f a proper divisor of c."""
    return character_conductor(chi) == chi.group.c


def sqrtD_class(group: NarrowClassGroup) -> int:
    """Narrow class of the principal ideal (sqrt(D)) of O_c.

    Trivial exactly when O_c has a unit of norm -1; otherwise it is the
    nontrivial element of ker(Pic^+ -> Pic), located through the oriented
    ideal-to-form dictionary.
    """
    disc = group.disc
    if unit_norm(disc, fundamental_unit(disc)) == -1:
        idx = group.identity
    else:
        b = disc % 2
        q = BQF(-1, -b, (disc - b * b) // 4)
        idx = group.class_of(q)
        if idx == group.identity:
            raise ArithmeticError("(sqrt(D)) is trivial at disc %d" % disc)
    if group.compose(idx, idx) != group.identity:
        raise ArithmeticError("class %d of (sqrt(D)) does not square to 1" % idx)
    return idx


# ------------------------------------------------------- fundamental unit

def fundamental_unit_with_preperiod(disc: int):
    """Fundamental unit > 1 of the order of discriminant disc, as (x, y) with
    unit = (x + y sqrt(disc))/2, from the expansion of (b0 + sqrt(disc))/2,
    b0 = disc mod 2: a pre-period, then the period."""
    b0 = disc % 2
    f = math.isqrt(disc)
    P, Q = b0, 2
    states = {}
    hist = []
    while (P, Q) not in states:
        states[(P, Q)] = len(hist)
        a = (P + f) // Q
        hist.append(a)
        P = a * Q - P
        Q = (disc - P * P) // Q
    j = states[(P, Q)]
    # matrix of the purely periodic tail, conjugated back to the start
    g_pre = MAT_ID
    for a in hist[:j]:
        g_pre = mat_mul(g_pre, (a, 1, 1, 0))
    n_mat = MAT_ID
    for a in hist[j:]:
        n_mat = mat_mul(n_mat, (a, 1, 1, 0))
    # the adjugate is the inverse up to the sign det(g_pre), fixed below
    m = mat_mul(mat_mul(g_pre, n_mat), mat_adj(g_pre))
    c, d = m[2], m[3]
    x, y = c * b0 + 2 * d, c
    if surd_sign(x, y, disc) < 0:
        x, y = -x, -y
    return x, y
