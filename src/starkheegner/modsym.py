"""Exact weight-2 modular symbols for Gamma0(N).

A symbol is stored as its vector of values on unimodular paths, indexed by
P^1(Z/N) (Manin's presentation); the two- and three-term relations cut out
the space, and the eigensymbols of a curve are found by exact kernel
intersections.  An operator is a list of path matrices, and one walk,
hecke_segments, splits each image m lifts[i]{0 -> oo} into unimodular
segments (the Manin trick): the T_ell and W_oo matrices here and the U_p
plan of oms all read it.  It splits {x -> y} from x along a shortest chain,
a Farey geodesic (segments_to_cusp).  No operator on the space or lift
depends on the split: a vector satisfying the Manin relations is additive
on paths, so every unimodular chain from x to y gives it one value.

The relation matrix has integer rows with at most three non-zeros each,
and linalg eliminates it sparsely over the integers (Cremona, Algorithms
for Modular Elliptic Curves, ch. 2); Fractions are made only where linalg
returns its rows, and the basis, operator matrices and eigensymbol vectors
hold Fraction entries.  The space keeps its rref basis as well as, for each
P^1 index, the basis vectors that are non-zero there, so an operator matrix
costs one product per non-zero rather than one per basis vector.

The relation order (relation_order) writes each P^1 index's Manin
relations once, as the (j, gamma) of lifts[k] S, lifts[k] T and lifts[k]
T^2, and orders the indices so that values at a few generators fix the
rest: each other index is solved from one relation whose reads come
before it.  At N = 15, 77, 115 and 143, which have no elliptic points,
that is exactly dim generators.  oms solves its U_p sweeps and checks its
relations on that table.

The Birch sums and the geodesic period sums over a class group, rational
combinations of symbol values, are test oracles (tests/oracle_symbols.py):
the pipeline integrates the overconvergent lift, not the rational symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (MAT_ID, is_prime, is_squarefree, lift_to_sl2, mat_inv,
                    mat_mul, prime_divisors, primes_up_to)
from .curves import EllipticCurveData
from .linalg import kernel_basis, lincomb, matvec, rref


INF = None  # the cusp at infinity
EIGEN_PRIME_BOUND = 60  # build_eigensymbol cuts by T_ell for primes ell up to this


def apply_moebius(g, cusp):
    a, b, c, d = g
    if cusp is INF:
        num, den = a, c
    else:
        num, den = a * cusp.numerator + b * cusp.denominator, \
            c * cusp.numerator + d * cusp.denominator
    if den == 0:
        return INF
    return Fraction(num, den)


def segments_to_cusp(x):
    """Decompose {oo -> x} into unimodular paths g{0 -> oo}, a geodesic of
    the Farey graph (Beardon, Hockman and Short, Geodesic continued
    fractions, 2012): one g_k = (p_k, s p_(k-1); q_k, s q_(k-1)) per digit
    a_k = floor(num/den + 1/2) of the nearest-integer continued fraction,
    p_k = a_k p_(k-1) + e_k p_(k-2) with e_k the sign of the remainder
    before, and s = +-1 making det 1; g_k{0 -> oo} runs from
    p_(k-1)/q_(k-1) to p_k/q_k (p_(-1)/q_(-1) = 1/0).
    """
    if x is INF:
        return []
    # convergents p/q and their predecessors p1/q1, from p_(-1)/q_(-1) = 1/0
    p, q, p1, q1 = 1, 0, 0, 1
    e = sign = 1
    segs = []
    num, den = x.numerator, x.denominator
    while den:
        a = (2 * num + den) // (2 * den)
        rem = num - a * den
        p, p1 = a * p + e * p1, p
        q, q1 = a * q + e * q1, q
        sign = -e * sign
        segs.append((p, sign * p1, q, sign * q1))
        e = 1 if rem > 0 else -1
        num, den = den, abs(rem)
    if (p, q) != (x.numerator, x.denominator):
        raise ArithmeticError("last convergent %d/%d is not %s" % (p, q, x))
    return segs


def segments_between(r, s):
    """Signed unimodular decomposition of the path {r -> s}: (g, +-1) pairs,
    +1 on the segments of {oo -> s} and -1 on those of {oo -> r}."""
    return ([(g, 1) for g in segments_to_cusp(s)]
            + [(g, -1) for g in segments_to_cusp(r)])


class P1List:
    """P^1(Z/N): canonical representatives and index lookup.

    The representative of a point is the lexicographically least pair (c, d)
    of its orbit under the units of Z/N.  The scan runs over the pairs in
    lexicographic order, so the first pair it meets of each orbit is that
    representative; it marks every unit multiple with the new index.

    The index is one flat list of N^2 slots, the slot of (c, d) at c*N + d
    for 0 <= c, d < N.  A pair with gcd(c, d, N) > 1 is not in P^1(Z/N): its
    slot stays None, and index() raises KeyError for it."""

    def __init__(self, N: int):
        self.N = N
        units = [u for u in range(N) if math.gcd(u, N) == 1]  # [0] at N = 1
        slots = [None] * (N * N)
        reps = []
        for c in range(N):
            g = math.gcd(c, N)
            for d in range(N):
                if slots[c * N + d] is not None or math.gcd(g, d) != 1:
                    continue
                i = len(reps)
                for u in units:
                    slots[(c * u) % N * N + (d * u) % N] = i
                reps.append((c, d))
        self.reps = reps
        self._slots = slots

    def __len__(self):
        return len(self.reps)

    def index(self, c: int, d: int) -> int:
        N = self.N
        i = self._slots[c % N * N + d % N]
        if i is None:
            raise KeyError((c % N, d % N))
        return i

    def index_of_matrix(self, g) -> int:
        return self.index(g[2], g[3])

    def lift(self, i: int):
        """A matrix in SL2(Z) whose bottom row reduces to representative i."""
        return lift_to_sl2(*self.reps[i], self.N)


class ManinSymbolSpace:
    """The Q-vector space of weight-2 modular symbols of level N, presented
    by values on P^1(Z/N)."""

    S = (0, -1, 1, 0)
    T = (0, -1, 1, -1)

    def __init__(self, N: int):
        self.N = N
        self.p1 = P1List(N)
        n = len(self.p1)
        rows = []
        for i, (c, d) in enumerate(self.p1.reps):
            js = self.p1.index(d, -c)                  # (c,d)*S
            row = [0] * n
            row[i] += 1
            row[js] += 1
            rows.append(row)
            jt = self.p1.index(d, -c - d)              # (c,d)*T
            jt2 = self.p1.index(-c - d, c)             # (c,d)*T^2
            row = [0] * n
            row[i] += 1
            row[jt] += 1
            row[jt2] += 1
            rows.append(row)
        self.basis, self.pivots = rref(kernel_basis(rows, n))
        self.dim = len(self.basis)
        # for each P^1 index, the non-zero entries (k, basis[k][idx]); an
        # integral entry is kept as int, so that _operator_matrix multiplies
        # and adds integers
        self._basis_columns = [[] for _ in range(n)]
        for k, b in enumerate(self.basis):
            for idx, x in enumerate(b):
                if x:
                    self._basis_columns[idx].append(
                        (k, x.numerator if x.denominator == 1 else x))
        self.lifts = [self.p1.lift(i) for i in range(n)]
        self._operators = {}  # tuple of path matrices -> operator matrix
        self._order = None

    # ------------------------------------------------------------ evaluation

    def coordinates(self, full_vector):
        """Coordinates in the rref basis (values at the pivot indices)."""
        return [full_vector[c] for c in self.pivots]

    def generator_of(self, g):
        """(idx, gamma) for the unimodular path g{0 -> oo}: g = gamma *
        lifts[idx] with gamma in Gamma0(N), so that the path is the
        generator lifts[idx]{0 -> oo} moved by gamma."""
        idx = self.p1.index_of_matrix(g)
        gamma = mat_mul(g, mat_inv(self.lifts[idx]))
        if gamma[2] % self.N:
            raise ValueError("segment %r is not unimodular" % (g,))
        return idx, gamma

    def relation_order(self):
        """(relations, generators, derived), built once: the Manin relations
        of each P^1 index and an order in which they fix every value from
        those at the generators.

        relations[k] holds (j, gamma) of lifts[k] S, lifts[k] T and
        lifts[k] T^2 in turn, with lifts[k] w = gamma lifts[j], gamma in
        Gamma0(N).  Index k anchors the relations v_k = -gamma.v_j for
        relations[k][0] and v_k = -gamma.v_j - gamma'.v_j' for
        relations[k][1:]; derived holds (k, those (j, gamma)) in solving
        order, each j a generator or derived before k.  The order comes
        from a worklist seeded with the least unknown index whenever it
        runs dry: each index made known wakes only the relations that read
        it, anchored at its S-, T^2- and T-images, and one whose reads are
        all known derives its anchor.  A relation that reads its own
        anchor (at an elliptic point) never fires, as its anchor is
        unknown; the index is derived by its other relation or seeded."""
        if self._order is None:
            words = (self.S, self.T, mat_mul(self.T, self.T))
            relations = [tuple(self.generator_of(mat_mul(g, w)) for w in words)
                         for g in self.lifts]
            known = [False] * len(relations)
            generators, derived = [], []
            for seed in range(len(known)):
                if known[seed]:
                    continue
                known[seed] = True
                generators.append(seed)
                queue = [seed]
                for x in queue:
                    (js, _), (jt, _), (jt2, _) = relations[x]
                    for k, reads in ((js, slice(0, 1)), (jt2, slice(1, 3)),
                                     (jt, slice(1, 3))):
                        terms = relations[k][reads]
                        if not known[k] and all(known[j] for j, _ in terms):
                            known[k] = True
                            derived.append((k, terms))
                            queue.append(k)
            self._order = relations, generators, derived
        return self._order

    # ------------------------------------------------------------- operators
    #
    # An operator is a list of path matrices m: it sends the path {r -> s}
    # to the sum of the paths {m r -> m s}.

    def hecke_paths(self, ell: int):
        """T_ell (U_ell for ell | N): (1, j; 0, ell) for j < ell, and
        (ell, 0; 0, 1) when ell does not divide N."""
        paths = [(1, j, 0, ell) for j in range(ell)]
        if self.N % ell:
            paths.append((ell, 0, 0, 1))
        return paths

    def hecke_segments(self, paths, gens):
        """Yield (i, m, seg, sign) for each signed unimodular segment seg of
        the path {x -> y} = m lifts[i]{0 -> oo}, for i in gens and m in
        paths, in that order: seg = h^-1 g, sign +1, for g on the geodesic
        {oo -> h y} and h in SL2(Z) with h x = oo (the identity if x = oo).
        No operator on the space depends on the split (module docstring).
        A generator: the segments are made as the caller iterates, inside
        the caller's call (bench/test_tracer.py reads segments_between as
        called under OMSymbol.apply_up)."""
        for i in gens:
            g = self.lifts[i]
            r, s = apply_moebius(g, Fraction(0)), apply_moebius(g, INF)
            for m in paths:
                x, y = apply_moebius(m, r), apply_moebius(m, s)
                h = MAT_ID if x is INF else lift_to_sl2(x.denominator, -x.numerator, 1)
                back = mat_inv(h)
                for seg, sign in segments_between(INF, apply_moebius(h, y)):
                    yield i, m, mat_mul(back, seg), sign

    def _operator_matrix(self, paths):
        """Matrix of the operator on rref coordinates, built once per list
        of path matrices.  coordinates reads only the pivot rows, so only
        those are walked; the segments of a row are counted per P^1 index,
        and each count meets only the basis vectors that are non-zero at
        its index.  The zero entries, most of the matrix, share one
        Fraction(0)."""
        key = tuple(paths)
        out = self._operators.get(key)
        if out is not None:
            return out
        counts = {i: {} for i in self.pivots}
        for i, _, seg, sign in self.hecke_segments(paths, self.pivots):
            row = counts[i]
            idx = self.p1.index_of_matrix(seg)
            row[idx] = row.get(idx, 0) + sign
        zero = Fraction(0)
        out = []
        for row in counts.values():
            mrow = [0] * self.dim
            for idx, c in row.items():
                for k, x in self._basis_columns[idx]:
                    mrow[k] += c * x
            out.append([Fraction(x) if x else zero for x in mrow])
        self._operators[key] = out
        return out

    def hecke_matrix(self, ell: int):
        """Matrix of T_ell (or U_ell for ell | N) on the space, acting on
        rref coordinates.  Built once per ell; callers share the rows and
        must not change them."""
        return self._operator_matrix(self.hecke_paths(ell))

    def atkin_lehner_infinity_matrix(self):
        """Matrix of the involution {r -> s} -> {-r -> -s} on rref
        coordinates.  Built once; callers share the rows and must not
        change them."""
        return self._operator_matrix([(-1, 0, 0, 1)])

    def cuspidal_dimension(self) -> int:
        """Rank of T_ell - (ell + 1) for the least prime ell not dividing N.

        N must be squarefree (the package's levels are semistable): then
        every Eisenstein series of level N has T_ell-eigenvalue ell + 1, so
        the Eisenstein part is exactly the (ell + 1)-eigenspace (Hasse
        bound).  For N with a square factor the Eisenstein series with
        non-trivial characters break this, and ValueError is raised."""
        if not is_squarefree(self.N):
            raise ValueError("cuspidal_dimension needs a squarefree level, "
                             "not N = %d" % self.N)
        ell = 2
        while self.N % ell == 0 or not is_prime(ell):
            ell += 1
        _, piv = rref(_integer_matrix(self.hecke_matrix(ell), ell + 1))
        return len(piv)


@dataclass
class RationalModularSymbol:
    space: ManinSymbolSpace
    vector: list            # full P^1-indexed value vector, content 1
    sign: int               # omega_infinity eigenvalue

    def value(self, r, s) -> Fraction:
        """Value of the symbol on the path {r -> s}."""
        index = self.space.p1.index_of_matrix
        return sum((sign * self.vector[index(g)] for g, sign in segments_between(r, s)),
                   Fraction(0))


def build_eigensymbol(E: EllipticCurveData, sign: int,
                      space: ManinSymbolSpace) -> RationalModularSymbol:
    """The normalized eigensymbol of E with the given sign at infinity.

    The Hecke cuts run over the integers: for each good prime ell in turn,
    the rows of d (T_ell - a_ell) are stacked under those of the primes
    before it, d the lcm of the denominators of T_ell (_integer_matrix), and
    the eigenspace is the kernel of the whole stack, each of its vectors
    scaled to content 1 (_primitive); neither scaling moves a kernel or a
    span.  The cuts stop once the kernel has dimension 2 or less.  Fractions
    come back from linalg and make up the returned vector."""
    if space.N != E.conductor:
        raise ValueError("space of level %d for a curve of conductor %d"
                         % (space.N, E.conductor))
    if sign not in (1, -1):
        raise ValueError("sign must be 1 or -1, not %r" % (sign,))
    rows = []  # d (T_ell - a_ell) of every prime cut so far, stacked
    for ell in primes_up_to(EIGEN_PRIME_BOUND):
        if E.conductor % ell == 0:
            continue
        rows += _integer_matrix(space.hecke_matrix(ell), E.ap(ell))
        sub = [_primitive(v) for v in kernel_basis(rows, space.dim)]
        if len(sub) <= 2:
            break
    else:
        raise RuntimeError("eigenspace did not shrink to dimension 2")
    if len(sub) != 2:
        raise RuntimeError("multiplicity-one failure: dim %d" % len(sub))
    # check U_q eigenvalue for q | N on the 2-dim space (consistency)
    for q in prime_divisors(E.conductor):
        aq = E.ap(q)
        shifted = _integer_matrix(space.hecke_matrix(q), aq)
        for v in sub:
            if any(matvec(shifted, v)):
                raise ValueError("U_%d eigenvalue mismatch: a_%d = %d, but "
                                 "(U_%d - %d) v != 0 for v = %s" % (q, q, aq, q, aq, v))
    # (W + sign) v, up to one positive factor, which leaves the span alone
    plus = _integer_matrix(space.atkin_lehner_infinity_matrix(), -sign)
    eig = [cand for cand in (matvec(plus, v) for v in sub) if any(cand)]
    red, _ = rref(eig)
    if len(red) != 1:
        raise RuntimeError("sign %d eigenspace has dimension %d, not 1"
                           % (sign, len(red)))
    full = lincomb(red[0], space.basis)
    return RationalModularSymbol(space, [Fraction(x) for x in _primitive(full)], sign)


def _integer_matrix(m, a):
    """The rows of d * (m - a * I) as new int lists, where d is the lcm of
    the denominators of m's entries."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) - (d * a if i == k else 0)
             for k, x in enumerate(row)] for i, row in enumerate(m)]


def _primitive(vec):
    """The non-zero vector vec scaled to integers with content 1 and a
    positive first non-zero entry."""
    nums = [x for x in vec if x]
    if not nums:
        raise ValueError("zero vector")
    den = math.lcm(*(x.denominator for x in nums))
    scaled = [x.numerator * (den // x.denominator) for x in vec]
    g = math.gcd(*scaled)
    if nums[0] < 0:
        g = -g
    return [x // g for x in scaled]
