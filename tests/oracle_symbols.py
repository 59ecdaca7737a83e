"""Test-only oracle: rational combinations of modular-symbol values.

The package integrates the overconvergent lift of an eigensymbol; these sums
read the rational symbol itself, to check it against facts it must satisfy:

- P^1(Z/N) built by sorting each unit orbit, the reference for the
  package's one-scan P1List;
- an operator applied to a full P^1-indexed vector, one Manin-trick row
  per generator (the package builds only the pivot rows), with each image
  path split from its own end along a Farey geodesic, as the package
  splits it, or as {oo -> y} - {oo -> x};
- the regular continued-fraction chain {oo -> x}, the split the package
  used before the nearest-integer one;
- the filtration level of the Manin relations of an overconvergent
  symbol, both relations at every generator (the package checks one
  relation per orbit);
- the a_p^-1 U_p sweep planned on every P^1 index (the package plans it
  on the generators of its relation order and solves for the rest): the
  same map on vectors that satisfy the Manin relations;
- the Birch sum sum_a (delta|a) I{oo -> a/|delta|}, the rational behind
  L(E, chi_delta, 1);
- the geodesic period sum over a class group, sum_sigma chi(sigma)
  I{r -> gamma_sigma r}.
"""

import math
from fractions import Fraction
from functools import lru_cache

from starkheegner.arith import kronecker, mat_adj, mat_mul
from starkheegner.modsym import (INF, ManinSymbolSpace, apply_moebius, segments_between,
                                 segments_to_cusp)
from starkheegner.oms import Distribution, TransportCache, _unpacked
from starkheegner.quadforms import stabilizer_gamma, totally_positive_unit


def p1_sorted_orbits(N: int):
    """(reps, index) of P^1(Z/N): each unit orbit of the pairs (c, d) with
    gcd(c, d, N) = 1 is sorted, its least pair is its representative, and
    index maps every pair of the orbit to that representative's position."""
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    index, reps = {}, []
    for c in range(N):
        for d in range(N):
            if math.gcd(math.gcd(c, d), N) != 1 or (c, d) in index:
                continue
            orbit = sorted(((c * u) % N, (d * u) % N) for u in units)
            idx = index.get(orbit[0])
            if idx is None:
                idx = len(reps)
                reps.append(orbit[0])
            for pt in orbit:
                index[pt] = idx
    return reps, index


def regular_cf_segments(x):
    """{oo -> x} as unimodular paths g{0 -> oo}, one per digit of the
    regular continued fraction of x: g_k = (p_k, e p_(k-1); q_k, e q_(k-1))
    with e = (-1)^(k+1), the path from p_(k-1)/q_(k-1) to p_k/q_k."""
    if x is INF:
        return []
    p, q, p1, q1 = 1, 0, 0, 1
    sign = -1
    segs = []
    num, den = x.numerator, x.denominator
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        p, p1 = a * p + p1, p
        q, q1 = a * q + q1, q
        segs.append((p, sign * p1, q, sign * q1))
        sign = -sign
    if (p, q) != (x.numerator, x.denominator):
        raise ArithmeticError("last convergent %d/%d is not %s" % (p, q, x))
    return segs


def split_from_end(x, y):
    """{x -> y} as (g, +1) pairs: h in SL2(Z) with h x = oo, and g = h^-1 k
    for k on the chain segments_to_cusp(h y).  Any h will do: T^j h moves
    h y by j, which adds j to the first digit of its nearest-integer
    continued fraction and so moves each k to T^j k."""
    if x is INF:
        return [(g, 1) for g in segments_to_cusp(y)]
    p, q = x.numerator, x.denominator
    a = -pow(p, -1, q)  # (a, b; q, -p) has det -a p - b q = 1
    h = (a, (-1 - a * p) // q, q, -p)
    return [(mat_mul(mat_adj(h), k), 1) for k in segments_to_cusp(apply_moebius(h, y))]


@lru_cache(maxsize=64)
def _manin_rows(space, paths, split):
    """For each generator lifts[i], the signed count of each P^1 index over
    the segments split(m r, m s) of the images {m r -> m s} of
    lifts[i]{0 -> oo}, m in paths."""
    rows = []
    for g in space.lifts:
        r, s = apply_moebius(g, Fraction(0)), apply_moebius(g, INF)
        row = {}
        for m in paths:
            for seg, sign in split(apply_moebius(m, r), apply_moebius(m, s)):
                idx = space.p1.index_of_matrix(seg)
                row[idx] = row.get(idx, 0) + sign
        rows.append(row)
    return rows


def _op(space, vec, paths, split):
    return [sum((c * vec[idx] for idx, c in row.items()), Fraction(0))
            for row in _manin_rows(space, tuple(paths), split)]


def op_full(space, vec, paths):
    """The operator with path matrices paths applied to the full
    P^1-indexed vector vec: for each generator lifts[i], the image of
    lifts[i]{0 -> oo} under each path matrix, split into unimodular
    segments from its own end (split_from_end) and read on vec."""
    return _op(space, vec, paths, split_from_end)


def op_full_from_infinity(space, vec, paths):
    """op_full with each image {x -> y} split as {oo -> y} - {oo -> x}: the
    same operator on vectors that satisfy the Manin relations."""
    return _op(space, vec, paths, segments_between)


def eval_segment(phi, g):
    """The t-moments of the OMSymbol phi on the unimodular path g{0 -> oo}:
    values[idx] transported by gamma, for (idx, gamma) =
    space.generator_of(g)."""
    return phi._moved(*phi.space.generator_of(g))


def relation_residual_all(phi) -> int:
    """Smallest filtration level at which a Manin relation fails on the
    t-moments of the OMSymbol phi (n_mom if none does): the 2-term and the
    3-term relation at every generator."""
    S, T = ManinSymbolSpace.S, ManinSymbolSpace.T
    TT = mat_mul(T, T)
    worst = phi.n
    zero = Distribution(phi.p, phi.n)
    for gi in phi.lifts:
        base = eval_segment(phi, gi)
        two = base + eval_segment(phi, mat_mul(gi, S))
        three = (base + eval_segment(phi, mat_mul(gi, T))
                 + eval_segment(phi, mat_mul(gi, TT)))
        worst = min(worst, two.t_difference_valuation(zero),
                    three.t_difference_valuation(zero))
    return worst


def up_sweep_all_targets(phi):
    """phi.values after one sweep Phi <- a_p^-1 (Phi | U_p), t-moments only,
    with every P^1 index a target of the plan: one packed product per
    (source, matrix) group, summed into each target, from kernels of a
    cache of its own."""
    cache = TransportCache(phi.p, phi.n)
    plan = phi._plan_operator(phi.space.hecke_paths(phi.p), range(len(phi.lifts)))
    acc = [0] * len(phi.lifts)
    for value, groups in zip(phi.values, plan):
        for key, targets in groups:
            x = sum(c * y for c, y in zip(cache.matrices(key)[0], value.m))
            for target, sgn in targets:
                acc[target] += sgn * x
    ap_inv = pow(phi.a_p, -1, phi.p ** phi.n)
    return [Distribution(phi.p, phi.n, [ap_inv * y for y in _unpacked(x, cache, True)])
            for x in acc]


def birch_sum(symbol, delta: int) -> Fraction:
    """sum_a (delta|a) I{oo -> a/m}, m = |delta|; the twisted-L rational."""
    m = abs(delta)
    if math.gcd(m, symbol.space.N) != 1:
        raise ValueError("twist modulus must be coprime to the level")
    parity = 1 if delta > 0 else -1
    if parity != symbol.sign:
        raise ValueError("sign mismatch: the sum vanishes on this component")
    total = Fraction(0)
    for a in range(1, m + 1):
        chi = kronecker(delta, a)
        if chi:
            total += chi * symbol.value(INF, Fraction(a, m))
    return total


def geodesic_period_sum(symbol, chi, heegner, base=INF) -> Fraction:
    """sum over classes of chi(sigma) * I{r -> gamma_sigma(r)}: the rational
    geodesic period combination (weight 2, so the polynomial factor is 1)."""
    unit = totally_positive_unit(heegner.group.D, heegner.group.c)
    total = Fraction(0)
    for idx in range(heegner.group.order):
        q = heegner.forms[idx]
        st = stabilizer_gamma(q, unit)
        r2 = apply_moebius(st.gamma, base)
        total += chi(idx) * symbol.value(base, r2)
    return total
