"""Ordinary measure-valued (overconvergent) modular symbols at weight two.

A distribution is a finite moment vector against the chart coordinate
t = x/y on Z_p.  Moment j is carried modulo p^(n_mom - j); the monoid action
preserves this filtration.  a_p^{-1} U_p fixes the zeroth layer of an
eigenlift and contracts everything above it, which is why the naive
lift-and-iterate construction converges to a unique lift.

The symbol carries t-moments only, and returns a zero weight-direction jet
(moments against log<u>), which U_p does not contract.  Distribution.lam,
the L half of each kernel and TransportCache.transport stay only for
bench/: seeded jets, transport_composes, and the tracer's iwasawa_log pin.

All transports are by matrices (a, b; c, d) with d a unit and p | c, acting
through t -> (a t + b)/(c t + d) and u -> u * (c t + d).  A transport's
kernel is a pair (C, L).  Row j of A is phi^j mod p^(n_mom - j), the
precision of moment j, for phi the series of (a t + b)/(c t + d).  If
p | det, phi = b/d + (det/d^2) s for s = t/(1 + (c/d) t), det/d^2 and c/d of
valuation >= 1: entry k >= 1 of each row has valuation >= k, row j is zero
from k = n_mom - j on, and only that triangle is built.  C is A packed by
columns, C[k] = sum_j A[j][k] 2^(s_j), and m' = A m is read from the slots
of one sum sum_k C[k] m[k].  Slot j is w_j = bitlen(n_mom p^(2 n_mom - j))
+ 16 bits wide: row j's entries lie in [0, p^(n_mom - j)) and moments in
[0, p^n_mom), and the 16 spare bits let a U_p sweep add and subtract fewer
than 2^15 products in one integer per target, read back exactly with the
bias 2^(w_j - 1) added to slot j.  A moment outside [0, p^n_mom) would
carry into the next slot: it raises ValueError.  L is the series
log<c t + d>, its terms read off padics' log table, as iwasawa_log reads
them.  Kernels are cached up to sign: g and -g give one Moebius map and one
L, so they share a key and a kernel.

A sweep plans U_p only at the generators of modsym's relation order: one
product per (source, matrix) pair, grouped once from the segments of
modsym's Hecke walk (hecke_segments), so oms computes no cusp itself.
Every other value is then solved, in the order's sequence, from the Manin
relation anchored at it: v_k = -A(gamma) v_j, or -A(gamma) v_j -
A(gamma') v_j', one signed packed sum of at most two products.  On a
vector that satisfies the Manin relations this is the sweep planned on
every P^1 index, since Phi | U_p satisfies them too and so equals, at each
solved index, what its relation gives from the values before it.  On a
vector that breaks them (the classical start, whose higher moments are
zero, or a random one) it is another map: the solved values satisfy their
anchoring relations, the swept ones need not.  Both maps fix the
eigenlift, keep the zeroth moments of an eigensymbol and contract what
lies above them (transports preserve the filtration), so n_mom + 1 sweeps
of either reach the same lift.  The plan and the solving steps hold their
kernels C, so a warm sweep looks no kernel up.

A path {oo -> x} is evaluated by Horner's rule over its segments: each
step transports the running sum by gamma_k^-1 gamma_(k+1), a matrix fixed
by g_k's generator and the integer step g_k^-1 g_(k+1), which the symbol
keys its kernel by.  This is exact, because transport is a monoid action
on the filtered moments: entry (j, k) of A has valuation at least k - j.
For the same reason the Manin relations are checked once per orbit of S
and of T on P^1(Z/N), on the relation order's table: the relations of
one orbit are transports of each other, so they hold to one filtration
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mod, mul, sub

from .modsym import (
    ManinSymbolSpace,
    RationalModularSymbol,
    build_eigensymbol,
    segments_to_cusp,
)
from .padics import PadicScalar, PrecisionError, iwasawa_log, log_table
from .arith import mat_adj, mat_mul, prime_divisors, valuation


class Distribution:
    """Moment vectors (m_j) and (lam_j), m_j known mod p^(n_mom - j).  A
    vector not given is zero.  lam is the weight-direction jet; the
    symbol's sweeps and paths return it as zero."""

    __slots__ = ("p", "n", "m", "lam")

    def __init__(self, p: int, n: int, m=None, lam=None):
        self.p = p
        self.n = n
        self.m = [0] * n if m is None else self._reduced(m)
        self.lam = [0] * n if lam is None else self._reduced(lam)

    def _reduced(self, xs):
        xs = list(xs)
        if len(xs) != self.n:
            raise ValueError("%d moments given for a distribution of %d"
                             % (len(xs), self.n))
        return list(map(mod, xs, _moduli(self.p, self.n)))

    def __add__(self, other):
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("sum of distributions at (p, n) = (%d, %d) and (%d, %d)"
                             % (self.p, self.n, other.p, other.n))
        return Distribution(self.p, self.n,
                            [a + b for a, b in zip(self.m, other.m)],
                            [a + b for a, b in zip(self.lam, other.lam)])

    def scale(self, k: int):
        return Distribution(self.p, self.n,
                            [k * a for a in self.m], [k * a for a in self.lam])

    def moment(self, j: int) -> PadicScalar:
        return PadicScalar.from_int(self.p, self.m[j], self.n - j)

    def mass(self) -> int:
        return self.m[0]

    def max_difference_valuation(self, other) -> int:
        """min over j of v_p((self - other)_j) + j, t-moments and jet."""
        return min(self.t_difference_valuation(other),
                   _filtration_valuation(self.p, self.n, self.lam, other.lam))

    def t_difference_valuation(self, other) -> int:
        """The same minimum over the t-moments alone."""
        return _filtration_valuation(self.p, self.n, self.m, other.m)


@lru_cache(maxsize=None)
def _moduli(p: int, n: int):
    """(p^n, p^(n-1), ..., p): the precision of each of n moments."""
    return tuple(p ** (n - j) for j in range(n))


def _filtration_valuation(p: int, n: int, xs, ys) -> int:
    """min over j of v_p(xs[j] - ys[j] mod p^(n - j)) + j; n if all agree."""
    out = n
    for j, (x, y) in enumerate(zip(xs, ys)):
        d = (x - y) % p ** (n - j)
        if d:
            out = min(out, valuation(d, p) + j)
    return out


# ------------------------------------------------------- transport matrices

class TransportCache:
    """Per-(p, n_mom) cache of the transport kernel (C, L) of each matrix.

    C[k] = sum_j A[j][k] 2^(s_j), slot j of w_j = bitlen(n p^(2n - j)) + 16
    bits at s_j = w_0 + ... + w_(j-1): for moments m[k] in [0, p^n), A m is
    slot j of sum_k C[k] m[k], and a signed sum of fewer than 2^15 such
    products is read back with the bias 2^(w_j - 1) added to slot j.  L is
    log<c t + d> mod p^n, its terms read off padics.log_table(p, n, n).
    """

    def __init__(self, p: int, n: int):
        if n < 1:
            raise ValueError("n = %d: a kernel needs at least one moment" % n)
        self.p = p
        self.n = n
        self.mod = p ** n
        widths = [(n * p ** (2 * n - j)).bit_length() + 16 for j in range(n)]
        self._slots = [(sum(widths[:j]), (1 << w) - 1, 1 << (w - 1))  # (s_j, mask, half)
                       for j, w in enumerate(widths)]
        self._bias = sum(half << s for s, _, half in self._slots)
        self._rounds = []  # per round of _packed_columns, each pair's lower width
        while len(widths) > 1:
            self._rounds.append(widths[::2])
            widths = [sum(widths[i:i + 2]) for i in range(0, len(widths), 2)]
        self.work, self._log_terms = log_table(p, n, n)  # the L half
        self._cache = {}
        self._logs = {}

    def __len__(self):
        return len(self._cache)

    def _key(self, g):
        """g mod p^n, up to sign: g and -g share a key, the one whose d is
        at most (p^n - 1)/2, as exactly one of d and -d mod p^n is for a
        unit d.  They share a kernel: C reads only the Moebius map of g,
        and L = log<c t + d>, which transport's jet reads, does not see the
        sign, as log<-1> = 0."""
        a, b, c, d = g
        mod = self.mod
        if d % mod > mod >> 1:
            a, b, c, d = -a, -b, -c, -d
        return (a % mod, b % mod, c % mod, d % mod)

    def matrices(self, g):
        """(C, L) for the matrix g: m' = A m and lam' = A (lam + L*m), with
        (L*m)_i = sum_t L[t] m[i + t], both to the filtration."""
        key = self._key(g)
        got = self._cache.get(key)
        if got is None:
            got = self._build(key)
            self._cache[key] = got
        return got

    def _build(self, g):
        """(C, L) for a reduced key g.  Row j of A, entries in [0, p^(n - j)),
        is a working vector of the recurrence, cut to its n - j entries below
        the triangle if p | det g; the rows go into their slots at the end."""
        p, n, mod, work = self.p, self.n, self.mod, self.work
        a, b, c, d = g
        if d % p == 0 or c % p != 0:
            raise ValueError("matrix outside the transport monoid")
        dinv = pow(d, -1, work)
        # log<c t + d> = log<d> + log(1 + (c/d) t); v(c) >= 1 makes the
        # coefficient (-1)^(k+1) (c/d)^k / k an integer of valuation >= 1
        logser = [self._log_unit(d % mod)]
        x = (c * dinv) % work
        xk = 1
        for k, (pe, inv) in enumerate(self._log_terms, 1):
            xk = xk * x % work
            if xk % pe:
                raise ArithmeticError("log coefficient %d of %r is not integral" % (k, g))
            logser.append((xk // pe) * inv % mod)
        # (c t + d) f_j = (a t + b) f_{j-1} for f_j = phi^j has integer
        # coefficients once divided by d, so row j mod p^(n - j) needs row
        # j - 1 only to the digits it keeps.
        ad, bd, cd = (v * dinv % mod for v in (a, b, c))
        triangle = (a * d - b * c) % p == 0
        rows = [[1] + [0] * (n - 1)]
        for j in range(1, n):
            prev = rows[-1][:n - j] if triangle else rows[-1]
            rows.append(_next_row(prev, ad, bd, cd, p ** (n - j)))
        return _packed_columns(rows, self._rounds), logser

    def _log_unit(self, d: int) -> int:
        got = self._logs.get(d)
        if got is None:
            got = iwasawa_log(PadicScalar.from_int(self.p, d, self.n)).residue()
            self._logs[d] = got
        return got

    def transport(self, dist: Distribution, g) -> Distribution:
        """dist moved by g, t-moments and jet.  The jet is A lam + B m for B
        with row j = phi^j * L truncated; its entry k is
        sum_{s + t = k} A[j][s] L[t], so B m = A (L*m), reduced first."""
        C, L = self.matrices(g)
        m = _in_range(dist.m, self.mod)
        jet = list(map(mod, [x + sum(map(mul, L, m[s:])) for s, x in enumerate(dist.lam)],
                       _moduli(self.p, self.n)))
        return Distribution(dist.p, dist.n, _unpacked(sum(map(mul, C, m)), self),
                            _unpacked(sum(map(mul, C, jet)), self))


_MAX_PRODUCTS = 1 << 15  # per accumulator, for the 16 spare bits of a slot


def _packed_columns(rows, rounds):
    """[sum_j rows[j][k] 2^(s_j) for each k] of rows no longer than the one
    below: pairs merge, at the lower row's width in ``rounds``, tail kept."""
    for widths in rounds:
        merged = []
        for r0, r1, w in zip(rows[::2], rows[1::2], widths):
            row = [lo | hi << w for lo, hi in zip(r0, r1)]
            row += r0[len(r1):]
            merged.append(row)
        if len(rows) % 2:
            merged.append(rows[-1])
        rows = merged
    return rows[0]


def _unpacked(x, cache, signed=False):
    """Slot j of a packed product x >= 0, for each j < n.  With ``signed``,
    of a signed sum x of fewer than 2^15 products: the bias 2^(w_j - 1)
    added to slot j brings it into [0, 2^w_j), so no borrow crosses slots."""
    if not signed:
        return [x >> s & mask for s, mask, _ in cache._slots]
    x = x + cache._bias
    return [(x >> s & mask) - half for s, mask, half in cache._slots]


def _in_range(m, top):
    if min(m) < 0 or max(m) >= top:
        raise ValueError("a moment outside [0, %d) would carry" % top)
    return m


def _next_row(prev, a, b, c, mod):
    """f with (c t + 1) f = (a t + b) prev as truncated series mod ``mod``:
    the recurrence of (c t + d) with a, b and c already divided by d."""
    row, last, lower = [], 0, 0
    for cur in prev:
        last = (a * lower + b * cur - c * last) % mod
        row.append(last)
        lower = cur
    return row


# ------------------------------------------------------------- the symbol

@dataclass
class LiftCertificate:
    """How lift_to_oms reached its lift: U_p sweeps run, whether the last one
    left the t-moments unchanged, the filtration levels to which the Manin
    relations and the U_p eigen-equation hold, and the kernels cached, one
    per sign class {g, -g} of matrices mod p^n_mom."""

    iterations: int
    converged: bool
    relation_valuation: int
    eigen_valuation: int
    matrices_cached: int


class OMSymbol:
    """Measure-valued eigenlift of a rational eigensymbol at level N = Mp."""

    def __init__(self, space: ManinSymbolSpace, p: int, n_mom: int, a_p: int,
                 sign: int):
        self.space = space
        self.N = space.N
        self.p = p
        if p not in prime_divisors(self.N) or (self.N // p) % p == 0:
            raise ValueError("p = %d must be a prime dividing N = %d exactly "
                             "once" % (p, self.N))
        if a_p % p == 0:
            raise ValueError("a_p = %d is not a %d-adic unit" % (a_p, p))
        if n_mom < 1:
            raise ValueError("n_mom = %d: a symbol needs at least one moment" % n_mom)
        self.n = n_mom
        self.a_p = a_p
        self._ap_inv = pow(a_p, -1, p ** n_mom)
        self.sign = sign
        self.cache = TransportCache(p, n_mom)
        self.lifts = space.lifts
        self.values = [Distribution(p, n_mom) for _ in range(len(space.p1))]
        self._up_plan = None
        self._solve = None  # (generators, solving steps) of apply_up
        self._steps = {}  # eval_path's (i, sigma) -> (kernel of its delta, j)

    # ---------------------------------------------------------- evaluation

    def _moved(self, idx, gamma) -> Distribution:
        """Phi on the path gamma lifts[idx]{0 -> oo}: values[idx] transported
        by gamma, t-moments only."""
        C, _ = self.cache.matrices(gamma)
        m = _in_range(self.values[idx].m, self.cache.mod)
        return Distribution(self.p, self.n, _unpacked(sum(map(mul, C, m)), self.cache))

    def eval_path(self, r, s) -> Distribution:
        """The t-moments of Phi{r -> s}: {oo -> s} minus {oo -> r}, each by
        Horner's rule over its segments g_k, generators (i_k, gamma_k):
        A(gamma_0)(v_0 + A(delta_0)(v_1 + ...)), v_k = values[i_k].m, reduced
        each step.  delta_k = gamma_k^-1 gamma_(k+1) is L_i sigma L_j^-1, L
        the lifts, for i = i_k, sigma = g_k^-1 g_(k+1) and j = i_(k+1), the
        P^1 index of L_i sigma: its kernel and j are kept by (i, sigma), so
        generator_of runs only at each path's first segment and at each new
        (i, sigma).  Raises ValueError for a moment outside [0, p^n)."""
        cache = self.cache
        moduli = _moduli(self.p, self.n)
        values = [_in_range(v.m, cache.mod) for v in self.values]
        total = 0
        for x, op in ((s, add), (r, sub)):
            segs = segments_to_cusp(x)
            if not segs:
                continue
            i, gamma = self.space.generator_of(segs[0])
            walk = []  # (kernel of delta_k, i_k)
            for g, h in zip(segs, segs[1:]):
                sigma = mat_mul(mat_adj(g), h)
                got = self._steps.get((i, sigma))
                if got is None:
                    j, delta = self.space.generator_of(mat_mul(self.lifts[i], sigma))
                    got = self._steps[i, sigma] = (cache.matrices(delta)[0], j)
                walk.append((got[0], i))
                i = got[1]
            acc = values[i]
            for C, i in reversed(walk):
                step = _unpacked(sum(map(mul, C, acc)), cache)
                acc = list(map(mod, map(add, values[i], step), moduli))
            C, _ = cache.matrices(gamma)
            total = op(total, sum(map(mul, C, acc)))
        return Distribution(self.p, self.n, _unpacked(total, cache, True))

    # ---------------------------------------------------------------- U_p

    def _plan_operator(self, paths, targets):
        """Transport plan for the operator given by the path matrices
        ``paths`` (as from space.hecke_paths) on the P^1 indices
        ``targets``, grouped from the segments of space.hecke_segments: for
        each source index, a list of (matrix-key, ((target, sign), ...))
        with one entry per distinct matrix that moves that source, in order
        of first use.

        The path matrix m carries the value transport mat_adj(m) (adjoint
        rule, m * mat_adj(m) = det(m) * I): for U_p, the path r -> (r + a)/p,
        by (1, a; 0, p), carries (p, -a; 0, 1).  Raises ArithmeticError for
        the first target of 2^15 pieces, too many to accumulate."""
        value_mats = {m: mat_adj(m) for m in paths}
        by_source = [{} for _ in self.lifts]
        received = [0] * len(self.lifts)
        pieces = {}  # one (target, sign) tuple each, shared, to keep the plan small
        for target, m, seg, sgn in self.space.hecke_segments(paths, targets):
            idx, gamma = self.space.generator_of(seg)
            key = self.cache._key(mat_mul(value_mats[m], gamma))
            piece = pieces.setdefault((target, sgn), (target, sgn))
            by_source[idx].setdefault(key, []).append(piece)
            received[target] += 1
        for target, count in enumerate(received):
            if count >= _MAX_PRODUCTS:
                raise ArithmeticError("target %d has %d pieces" % (target, count))
        return [[(key, tuple(targets)) for key, targets in groups.items()]
                for groups in by_source]

    def apply_up(self):
        """One sweep Phi <- a_p^{-1} * (Phi | U_p) on the t-moments, with a
        zero jet.  U_p is planned only on the generators of
        space.relation_order(): each matrix of a source's plan acts once on
        that source's value, and the packed product is added or subtracted
        into the accumulator of every generator that uses it.  Every other
        value is then solved, in that order, from the relation anchored at
        it, v_k = -sum A(gamma) v_j over at most two terms, as one signed
        packed sum.  The first sweep builds the plan and the solving steps
        with their kernels C in place of the matrices, so later sweeps look
        none up.  Raises ValueError for a moment outside [0, p^n)."""
        cache = self.cache
        if self._up_plan is None:
            _, generators, derived = self.space.relation_order()
            plan = self._plan_operator(self.space.hecke_paths(self.p), generators)
            self._up_plan = [[(cache.matrices(key)[0], targets) for key, targets in groups]
                             for groups in plan]
            self._solve = generators, [
                (k, tuple((cache.matrices(gamma)[0], j) for j, gamma in terms))
                for k, terms in derived]
        acc = [0] * len(self.lifts)
        for value, groups in zip(self.values, self._up_plan):
            m = _in_range(value.m, cache.mod)
            for C, targets in groups:
                x = sum(map(mul, C, m))
                for target, sgn in targets:
                    acc[target] = acc[target] + x if sgn > 0 else acc[target] - x
        p, n, ap_inv = self.p, self.n, self._ap_inv
        generators, derived = self._solve
        values = acc  # each slot's sum is read once, then replaced by its value
        for k in generators:
            values[k] = Distribution(p, n, [ap_inv * y for y in _unpacked(acc[k], cache, True)])
        for k, terms in derived:
            x = 0
            for C, j in terms:
                x -= sum(map(mul, C, values[j].m))
            values[k] = Distribution(p, n, _unpacked(x, cache, True))
        self.values = values

    # ------------------------------------------------------------- checks

    def relation_residual(self) -> int:
        """Smallest filtration level at which a Manin relation fails on the
        t-moments (n_mom if none does).

        One 2-term relation R_i = Phi(g_i) + Phi(g_i S) is checked per
        S-orbit of P^1(Z/N), and one 3-term relation per T-orbit, each at
        its least index i, with values[i] as Phi(g_i) (a transport by the
        identity) and the other terms read off relations[i] of
        space.relation_order(), the table apply_up solves from.  That is
        exact: for j the S-image of i, g_i S = gamma g_j with gamma in
        Gamma0(N), and R_j = A(gamma)^-1 R_i, since S^2 = -I and -g acts as
        g.  A(gamma) and its inverse both preserve the filtration (entry
        (j, k) has valuation >= k - j), so R_j and R_i have one filtration
        valuation; so do the relations of a T-orbit.  Every P^1 index
        appears in its orbit's relation."""
        relations = self.space.relation_order()[0]
        worst = self.n
        zero = Distribution(self.p, self.n)
        for reads in (slice(0, 1), slice(1, 3)):  # k S; k T and k T^2
            checked = set()
            for i, terms in enumerate(relations):
                if i in checked:
                    continue
                rel = self.values[i]
                for j, gamma in terms[reads]:
                    checked.add(j)
                    rel = rel + self._moved(j, gamma)
                worst = min(worst, rel.t_difference_valuation(zero))
        return worst

    def eigen_residual(self) -> int:
        """Smallest filtration level at which one sweep of a_p^{-1} U_p
        moves the t-moments (n_mom if it moves none); Phi is left as it was."""
        old = self.values
        self.apply_up()
        swept, self.values = self.values, old
        return min(a.t_difference_valuation(b) for a, b in zip(old, swept))


def lift_to_oms(symbol: RationalModularSymbol, a_p: int, p: int, n_mom: int) -> tuple:
    """The measure-valued a_p-eigenlift of a classical eigensymbol.

    The classical values become the zeroth moments and the higher t-moments
    m_1..m_{n-1} start at 0.  Then n_mom + 1 sweeps of a_p^{-1} U_p run.
    The sweeps fix the zeroth moments and contract everything above them,
    so they reach the unique lift from any start (Pollack-Stevens).  The
    returned symbol's jet is zero.

    Returns (OMSymbol, LiftCertificate), on the t-moments: ``relation_valuation``
    is ``relation_residual()``, ``eigen_valuation`` the filtration level at which
    the final sweep changed them, ``converged`` whether that is n_mom, and
    ``matrices_cached`` the number of transport kernels built, one per sign
    class of matrices.

    Raises ValueError for a non-integral classical value or if the zeroth
    moments drift (no U_p-eigensymbol of eigenvalue a_p), and PrecisionError
    if either residual is below n_mom.
    """
    phi = OMSymbol(symbol.space, p, n_mom, a_p, symbol.sign)
    for i, val in enumerate(map(Fraction, symbol.vector)):
        if val.denominator != 1:
            raise ValueError("classical value %s is not integral" % val)
        phi.values[i] = Distribution(p, n_mom, [int(val)] + [0] * (n_mom - 1))
    zeroth = [v.m[0] for v in phi.values]
    sweeps = n_mom + 1
    for _ in range(sweeps):
        prev = phi.values
        phi.apply_up()
    if [v.m[0] for v in phi.values] != zeroth:
        raise ValueError("zeroth moments drifted: the symbol is not a "
                         "U_p-eigensymbol with eigenvalue %d" % a_p)
    eigen = min(a.t_difference_valuation(b) for a, b in zip(prev, phi.values))
    relation = phi.relation_residual()
    cert = LiftCertificate(sweeps, eigen >= n_mom, relation, eigen, len(phi.cache))
    achieved = min(cert.relation_valuation, cert.eigen_valuation)
    if achieved < n_mom:
        raise PrecisionError("lift certified to %d of %d digits: %s"
                             % (achieved, n_mom, cert), achieved)
    return phi, cert


def lift_pair(E, space: ManinSymbolSpace, p: int, n_mom: int):
    """lift_to_oms of both sign-eigensymbols of E.

    Returns ({sign: OMSymbol}, {sign: LiftCertificate}).
    """
    lifts = {s: lift_to_oms(build_eigensymbol(E, s, space), E.a_p, p, n_mom)
             for s in (1, -1)}
    return ({s: phi for s, (phi, _) in lifts.items()},
            {s: cert for s, (_, cert) in lifts.items()})


def specialize_weight2(phi: OMSymbol, r, s) -> int:
    """Zeroth moment of Phi{r -> s}: the classical symbol value mod p^n."""
    return phi.eval_path(r, s).mass()
