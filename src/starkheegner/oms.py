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
precision of moment j, for phi the series of (a t + b)/(c t + d).  C is A
packed by columns, C[k] = sum_j A[j][k] 2^(w j), one w-bit slot per row for
w = bitlen(n_mom p^(2 n_mom)) + 16, and m' = A m is read from the slots of
one sum sum_k C[k] m[k].  Entries and moments lie in [0, p^n_mom), so a
slot of one product is below n_mom p^(2 n_mom); the 16 spare bits let a U_p
sweep add and subtract fewer than 2^15 products in one integer per target,
read back exactly with the bias 2^(w-1) added to each slot.  A moment
outside [0, p^n_mom) would carry into the next slot: it raises ValueError.
A sweep does one product per (source generator, matrix) pair.  L is the
series log<c t + d>.

A path {oo -> x} is evaluated by Horner's rule over its segments: each
step transports the running sum by gamma_k^-1 gamma_(k+1), whose kernel the
cache already holds.  This is exact, because transport is a monoid action
on the filtered moments: entry (j, k) of A has valuation at least k - j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mod, mul, sub

from .modsym import (
    INF,
    ManinSymbolSpace,
    RationalModularSymbol,
    apply_moebius,
    build_eigensymbol,
    segments_between,
    segments_to_cusp,
)
from .padics import PadicScalar, PrecisionError, iwasawa_log
from .arith import MAT_ID, mat_adj, mat_mul, prime_divisors, valuation


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
        return Distribution(self.p, self.n,
                            [a + b for a, b in zip(self.m, other.m)],
                            [a + b for a, b in zip(self.lam, other.lam)])

    def __sub__(self, other):
        return Distribution(self.p, self.n,
                            [a - b for a, b in zip(self.m, other.m)],
                            [a - b for a, b in zip(self.lam, other.lam)])

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

    C[k] = sum_j A[j][k] 2^(w j) for w = ``width`` = bitlen(n p^(2n)) + 16:
    for moments m[k] in [0, p^n), A m is slot j of sum_k C[k] m[k], and a
    signed sum of fewer than 2^15 such products is read back with the bias
    2^(w-1) added to each slot.  L is log<c t + d> mod p^n; for it the cache
    tables p^v_p(k) and the signed inverse of k's unit part, each k < n.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.mod = p ** n
        self.width = w = (n * p ** (2 * n)).bit_length() + 16
        self._shifts = range(0, n * w, w)
        self._mask, self._half = (1 << w) - 1, 1 << (w - 1)
        self._bias = sum(self._half << s for s in self._shifts)
        extra = 1
        while p ** extra <= n:
            extra += 1
        self.work = self.mod * p ** extra  # slack for the divisions by k in the log
        # for k < n: p^e = p^v_p(k) and (-1)^(k+1) (k / p^e)^-1 mod work, so
        # the log coefficient (-1)^(k+1) x^k / k is (x^k / p^e) times it
        self._log_inverses = [None]
        for k in range(1, n):
            pe = p ** valuation(k, p)
            inv = pow(k // pe, -1, self.work)
            self._log_inverses.append((pe, inv if k % 2 else -inv))
        self._cache = {}
        self._logs = {}

    def __len__(self):
        return len(self._cache)

    def _key(self, g):
        a, b, c, d = g
        mod = self.mod
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
        is a working vector of the recurrence; the rows go into w-bit slots
        at the end, read by products with moments in [0, p^n)."""
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
        for k in range(1, n):
            xk = xk * x % work
            pe, inv = self._log_inverses[k]
            if xk % pe:
                raise ArithmeticError("log coefficient %d of %r is not integral" % (k, g))
            logser.append((xk // pe) * inv % mod)
        # (c t + d) f_j = (a t + b) f_{j-1} for f_j = phi^j has integer
        # coefficients once divided by d, so row j mod p^(n - j) needs row
        # j - 1 only to the digits it keeps.
        ad, bd, cd = (v * dinv % mod for v in (a, b, c))
        rows = [[1] + [0] * (n - 1)]
        for j in range(1, n):
            rows.append(_next_row(rows[-1], ad, bd, cd, p ** (n - j)))
        return _packed_columns(rows, self.width), logser

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


def _packed_columns(rows, width):
    """[sum_j rows[j][k] 2^(width j) for each k]: rows merge in pairs."""
    while len(rows) > 1:
        merged = [[lo | hi << width for lo, hi in zip(r0, r1)]
                  for r0, r1 in zip(rows[::2], rows[1::2])]
        if len(rows) % 2:
            merged.append(rows[-1])
        rows, width = merged, 2 * width
    return rows[0]


def _unpacked(x, cache, signed=False):
    """Slot j of a packed product x >= 0, for each j < n.  With ``signed``,
    of a signed sum x of fewer than 2^15 products: the bias 2^(w-1) added to
    each slot brings it into [0, 2^w), so no borrow crosses slots."""
    mask, shifts = cache._mask, cache._shifts
    if not signed:
        return [x >> s & mask for s in shifts]
    x, half = x + cache._bias, cache._half
    return [(x >> s & mask) - half for s in shifts]


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
    relations and the U_p eigen-equation hold, and the kernels cached."""

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

    # ---------------------------------------------------------- evaluation

    def eval_segment(self, g) -> Distribution:
        """Phi on the unimodular path g{0 -> oo}: values[idx] transported by
        gamma, for (idx, gamma) = space.generator_of(g)."""
        idx, gamma = self.space.generator_of(g)
        C, _ = self.cache.matrices(gamma)
        m = _in_range(self.values[idx].m, self.cache.mod)
        return Distribution(self.p, self.n, _unpacked(sum(map(mul, C, m)), self.cache))

    def eval_path(self, r, s) -> Distribution:
        return self.eval_path_transported(r, s, MAT_ID)

    def eval_path_transported(self, r, s, outer) -> Distribution:
        """The t-moments of transport(Phi{r -> s}, outer): {oo -> s} minus
        {oo -> r}, each by Horner's rule over its segments g_k, generators
        (i_k, gamma_k): A(outer gamma_0)(v_0 + A(delta_0)(v_1 + ...)), v_k =
        values[i_k].m, delta_k = gamma_k^-1 gamma_(k+1), reduced each step.
        Raises ValueError for a value read with a moment outside [0, p^n)."""
        cache = self.cache
        moduli = _moduli(self.p, self.n)
        total = 0
        for x, op in ((s, add), (r, sub)):
            acc = None
            for g, _ in reversed(segments_to_cusp(x)):
                idx, gamma = self.space.generator_of(g)
                v = _in_range(self.values[idx].m, cache.mod)
                if acc is not None:
                    C, _ = cache.matrices(mat_mul(mat_adj(gamma), nxt))
                    step = _unpacked(sum(map(mul, C, acc)), cache)
                    v = list(map(mod, map(add, v, step), moduli))
                acc, nxt = v, gamma
            if acc is not None:
                C, _ = cache.matrices(mat_mul(outer, nxt))
                total = op(total, sum(map(mul, C, acc)))
        return Distribution(self.p, self.n, _unpacked(total, cache, True))

    # ---------------------------------------------------------------- U_p

    def _plan_operator(self, paths):
        """Transport plan for the operator given by the path matrices
        ``paths`` (as from space.hecke_paths): for each source generator, a
        list of (matrix-key, ((target, sign), ...)) with one entry per
        distinct matrix that moves that source, in order of first use.

        The path matrix m carries the value transport mat_adj(m) (adjoint
        rule, m * mat_adj(m) = det(m) * I): for U_p, the path r -> (r + a)/p,
        by (1, a; 0, p), carries (p, -a; 0, 1).  Raises ArithmeticError for a
        target of 2^15 pieces, too many to accumulate."""
        by_source = [{} for _ in self.lifts]
        pieces = {}  # one (target, sign) tuple each, shared, to keep the plan small
        for target, g in enumerate(self.lifts):
            r = apply_moebius(g, Fraction(0))
            s = apply_moebius(g, INF)
            received = 0
            for path_mat in paths:
                value_mat = mat_adj(path_mat)
                ra = apply_moebius(path_mat, r)
                sa = apply_moebius(path_mat, s)
                for seg, sgn in segments_between(ra, sa):
                    idx, gamma = self.space.generator_of(seg)
                    key = self.cache._key(mat_mul(value_mat, gamma))
                    piece = pieces.setdefault((target, sgn), (target, sgn))
                    by_source[idx].setdefault(key, []).append(piece)
                    received += 1
            if received >= _MAX_PRODUCTS:
                raise ArithmeticError("target %d has %d pieces" % (target, received))
        return [[(key, tuple(targets)) for key, targets in groups.items()]
                for groups in by_source]

    def apply_up(self):
        """One sweep Phi <- a_p^{-1} * (Phi | U_p) on the t-moments.  Each
        matrix of a source's plan acts once on that source's value, and the
        packed product is added or subtracted into the accumulator of every
        target that uses it: the result of one transport per piece, exactly,
        with a zero jet.  Raises ValueError for a moment outside [0, p^n)."""
        if self._up_plan is None:
            self._up_plan = self._plan_operator(self.space.hecke_paths(self.p))
        cache = self.cache
        acc = [0] * len(self.lifts)
        for value, groups in zip(self.values, self._up_plan):
            m = _in_range(value.m, cache.mod)
            for key, targets in groups:
                C, _ = cache.matrices(key)
                x = sum(map(mul, C, m))
                for target, sgn in targets:
                    acc[target] = acc[target] + x if sgn > 0 else acc[target] - x
        ap_inv = self._ap_inv
        self.values = [Distribution(self.p, self.n,
                                    [ap_inv * y for y in _unpacked(x, cache, True)])
                       for x in acc]

    # ------------------------------------------------------------- checks

    def relation_residual(self) -> int:
        """Smallest filtration level at which a Manin relation fails on the
        t-moments (n_mom if none does)."""
        S, T = ManinSymbolSpace.S, ManinSymbolSpace.T
        TT = mat_mul(T, T)
        worst = self.n
        zero = Distribution(self.p, self.n)
        for gi in self.lifts:
            base = self.eval_segment(gi)
            two = base + self.eval_segment(mat_mul(gi, S))
            three = (base + self.eval_segment(mat_mul(gi, T))
                     + self.eval_segment(mat_mul(gi, TT)))
            worst = min(worst, two.t_difference_valuation(zero),
                        three.t_difference_valuation(zero))
        return worst

    def eigen_residual(self) -> int:
        """Smallest filtration level at which one sweep of a_p^{-1} U_p
        moves the t-moments (n_mom if it moves none); Phi is left as it was."""
        old = self.values
        self.apply_up()
        swept, self.values = self.values, old
        return min(a.t_difference_valuation(b) for a, b in zip(old, swept))


def lift_to_oms(symbol: RationalModularSymbol, a_p: int, p: int, n_mom: int,
                randomize=None) -> tuple:
    """The measure-valued a_p-eigenlift of a classical eigensymbol.

    The classical values become the zeroth moments.  The higher t-moments
    m_1..m_{n-1} start at 0, or, when ``randomize`` (a ``random.Random``) is
    given, at values it draws uniformly mod p^(n_mom - j).  Then n_mom + 1
    sweeps of a_p^{-1} U_p run.  The sweeps fix the zeroth moments and
    contract everything above them, so they reach the unique lift from any
    start (Pollack-Stevens).  The returned symbol's jet is zero.

    Returns (OMSymbol, LiftCertificate), on the t-moments: ``relation_valuation``
    is ``relation_residual()``, ``eigen_valuation`` the filtration level at which
    the final sweep changed them, ``converged`` whether that is n_mom, and
    ``matrices_cached`` the number of transport kernels built.

    Raises ValueError for a non-integral classical value or if the zeroth
    moments drift (no U_p-eigensymbol of eigenvalue a_p), and PrecisionError
    if either residual is below n_mom.
    """
    phi = OMSymbol(symbol.space, p, n_mom, a_p, symbol.sign)
    higher = [0] * (n_mom - 1)
    for i, val in enumerate(map(Fraction, symbol.vector)):
        if val.denominator != 1:
            raise ValueError("classical value %s is not integral" % val)
        if randomize is not None:
            higher = [randomize.randrange(p ** (n_mom - j)) for j in range(1, n_mom)]
        phi.values[i] = Distribution(p, n_mom, [int(val)] + higher)
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


def lift_pair(E, space: ManinSymbolSpace, p: int, n_mom: int,
              randomize=None, symbols=None):
    """lift_to_oms of both sign-eigensymbols of E.

    Returns ({sign: OMSymbol}, {sign: LiftCertificate}).  ``symbols`` maps
    each sign to its eigensymbol; it is built from E when not given.
    """
    if symbols is None:
        symbols = {s: build_eigensymbol(E, s, space) for s in (1, -1)}
    lifts = {s: lift_to_oms(symbols[s], E.a_p, p, n_mom, randomize)
             for s in (1, -1)}
    return ({s: phi for s, (phi, _) in lifts.items()},
            {s: cert for s, (_, cert) in lifts.items()})


def specialize_weight2(phi: OMSymbol, r, s) -> int:
    """Zeroth moment of Phi{r -> s}: the classical symbol value mod p^n."""
    return phi.eval_path(r, s).mass()
