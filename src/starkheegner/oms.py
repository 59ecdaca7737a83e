"""Ordinary measure-valued (overconvergent) modular symbols at weight two.

A distribution is a finite moment vector against the chart coordinate
t = x/y on Z_p.  Moment j is carried modulo p^(n_mom - j); the monoid action
preserves this filtration.  a_p^{-1} U_p fixes the zeroth layer of an
eigenlift and contracts everything above it, which is why the naive
lift-and-iterate construction converges to a unique lift.

The symbol carries t-moments only: U_p sweeps, path integrals and segment
values act on m alone, and every value they return has a zero
weight-direction jet (moments against log<u> in the scaling direction).
The jet is not part of the lift, since U_p does not contract its zeroth
layer, and no result of this package reads it.  Distribution.lam, the L
half of each kernel and TransportCache.transport, the one transport that
still moves a jet, stay only for bench/workloads.py: seeded_symbol seeds a
jet, transport_composes checks it, and bench/test_tracer.py requires
iwasawa_log to be called under TransportCache.matrices.

All transports are by matrices (a, b; c, d) with d a unit and p | c, acting
through t -> (a t + b)/(c t + d) and u -> u * (c t + d).  A transport's
kernel is a pair (A, L): row j of A is phi^j, for phi the series of
(a t + b)/(c t + d), and L is the series log<c t + d>.  A transport of the
t-moments is m' = A m.  Row j of A is kept mod p^(n_mom - j), the precision
of moment j, with its trailing zeros dropped; each row follows from the one
before by the two-term recurrence (c t + d) f_j = (a t + b) f_{j-1}, one
coefficient at a time, with no series product.  A U_p sweep groups the
pieces of each target generator by matrix and does one product per
(target, matrix) group, on the signed sum of its sources.

A path {oo -> x} is evaluated by Horner's rule over its segments, the
consecutive convergents of x: each step transports the running sum by
delta = gamma_k^-1 gamma_(k+1), which has small entries and so a kernel the
cache already holds, in place of a new kernel for each segment's gamma_k.
The result is exact, because transport is a monoid action on the filtered
moments: entry (j, k) of A has valuation at least k - j, so the moments past
n_mom that a product of truncated kernels drops meet row j only below its
precision p^(n_mom - j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

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
from .arith import MAT_ID, mat_adj, mat_mul, valuation


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
        for j in range(self.n):
            xs[j] %= self.p ** (self.n - j)
        return xs

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
        """min over j of (valuation of (self - other) at layer j) + j, over
        the t-moments and the jet."""
        return min(self.t_difference_valuation(other),
                   _filtration_valuation(self.p, self.n, self.lam, other.lam))

    def t_difference_valuation(self, other) -> int:
        """The same minimum over the t-moments alone."""
        return _filtration_valuation(self.p, self.n, self.m, other.m)


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
    """Per-(p, n_mom) cache of the transport kernel (A, L) of each matrix.

    Row j of A is phi^j mod p^(n_mom - j), with its trailing zeros dropped;
    L is the series log<c t + d> mod p^n_mom.  Moment j of a transport is
    only known mod p^(n_mom - j), so row j of A is needed to no more digits
    than that.  The symbol uses A alone (m' = A m); L and ``transport``,
    which also moves a jet, serve only bench/workloads.py's seeded jets and
    transport_composes, and bench/test_tracer.py's pin of iwasawa_log under
    ``matrices``.  The cache also tables, once, what every build of L
    shares: for each k < n_mom, p^v_p(k) and the signed inverse of k's unit
    part mod the working modulus, which has slack digits for the divisions
    by p^v_p(k).
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.mod = p ** n
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
        return tuple(x % self.mod for x in g)

    def matrices(self, g):
        """(A, L) for the matrix g: m' = A m and lam' = A (lam + L*m), with
        (L*m)_i = sum_t L[t] m[i + t], both to the filtration."""
        key = self._key(g)
        got = self._cache.get(key)
        if got is None:
            got = self._build(key)
            self._cache[key] = got
        return got

    def _build(self, g):
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
                raise ArithmeticError("log coefficient %d of %r is not integral"
                                      % (k, g))
            logser.append((xk // pe) * inv % mod)
        # Row j of A is phi^j for phi(t) = (a t + b) / (c t + d): (c t + d)
        # f_j = (a t + b) f_{j-1}, so f_j[k] = a' f_{j-1}[k-1] +
        # b' f_{j-1}[k] - c' f_j[k-1] with (a', b', c') = (a, b, c) / d.
        # The recurrence has integer coefficients, so row j mod p^(n - j)
        # needs row j - 1 only mod p^(n - j): each row is computed to the
        # digits it keeps.
        ad, bd, cd = (v * dinv % mod for v in (a, b, c))
        row = [1] + [0] * (n - 1)
        A = [[1]]
        for j in range(1, n):
            row = _next_row(row, ad, bd, cd, p ** (n - j))
            A.append(_trimmed(row))
        return A, logser

    def _log_unit(self, d: int) -> int:
        got = self._logs.get(d)
        if got is None:
            got = iwasawa_log(PadicScalar.from_int(self.p, d, self.n)).residue()
            self._logs[d] = got
        return got

    def transport(self, dist: Distribution, g) -> Distribution:
        """dist moved by g, t-moments and jet.  The jet is A lam + B m for B
        with row j = phi^j * L truncated; its entry k is
        sum_{s + t = k} A[j][s] L[t], so B m = A (L*m)."""
        A, L = self.matrices(g)
        m = dist.m
        jet = [x + sum(map(mul, L, m[s:])) for s, x in enumerate(dist.lam)]
        return Distribution(dist.p, dist.n, _act(A, m), _act(A, jet))


def _act(A, m):
    """A m over the integers, for the truncated rows of A: the transport of
    a bare moment vector, exact mod p^(n - j) at moment j and otherwise
    unreduced.  The symbol's only product; the jet's is in transport."""
    return [sum(map(mul, row, m)) for row in A]


def _next_row(prev, a, b, c, mod):
    """f with (c t + 1) f = (a t + b) prev as truncated series mod ``mod``:
    the recurrence of (c t + d) with a, b and c already divided by d."""
    row, last, lower = [], 0, 0
    for cur in prev:
        last = (a * lower + b * cur - c * last) % mod
        row.append(last)
        lower = cur
    return row


def _trimmed(row):
    """row without its trailing zeros."""
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return row[:end]


# ------------------------------------------------------------- the symbol

@dataclass
class LiftCertificate:
    """How lift_to_oms reached its lift: U_p sweeps run, whether the last one
    left the t-moments unchanged, the filtration levels to which the Manin
    relations and the U_p eigen-equation hold on the t-moments, and how many
    transport kernels the lift's TransportCache holds after the checks."""

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
        if self.N % p or (self.N // p) % p == 0:
            raise ValueError("p = %d must divide N = %d exactly once" % (p, self.N))
        if a_p % p == 0:
            raise ValueError("a_p = %d is not a %d-adic unit" % (a_p, p))
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
        """Phi on the unimodular path g{0 -> oo}: the t-moments of
        values[idx] transported by gamma, for (idx, gamma) =
        space.generator_of(g)."""
        idx, gamma = self.space.generator_of(g)
        A, _ = self.cache.matrices(gamma)
        return Distribution(self.p, self.n, _act(A, self.values[idx].m))

    def eval_path(self, r, s) -> Distribution:
        return self.eval_path_transported(r, s, MAT_ID)

    def eval_path_transported(self, r, s, outer) -> Distribution:
        """The t-moments of transport(Phi{r -> s}, outer): {oo -> s} minus
        {oo -> r}, each by Horner's rule over its segments.  The segments
        g_k of {oo -> x} are consecutive convergents, with generators
        (i_k, gamma_k), and the path is
        A(outer gamma_0)(v_0 + A(delta_0)(v_1 + A(delta_1)(...))) for
        v_k = values[i_k].m and delta_k = gamma_k^-1 gamma_(k+1) in
        Gamma0(N).  delta_k has small entries, so its kernel comes back from
        the cache.  The accumulator is reduced each step.  This is exact:
        transport is a monoid action on the filtered moments."""
        total = [0] * self.n
        for x, op in ((s, add), (r, sub)):
            acc = None
            for g, _ in reversed(segments_to_cusp(x)):
                idx, gamma = self.space.generator_of(g)
                v = self.values[idx].m
                if acc is not None:
                    A, _ = self.cache.matrices(mat_mul(mat_adj(gamma), nxt))
                    v = Distribution(self.p, self.n, map(add, v, _act(A, acc))).m
                acc, nxt = v, gamma
            if acc is not None:
                A, _ = self.cache.matrices(mat_mul(outer, nxt))
                total = list(map(op, total, _act(A, acc)))
        return Distribution(self.p, self.n, total)

    # ---------------------------------------------------------------- U_p

    def _plan_operator(self, paths):
        """Transport plan for the operator given by the path matrices
        ``paths`` (as from space.hecke_paths): for each generator, a list of
        (matrix-key, ((idx, sign), ...)) with one entry per distinct matrix,
        in order of first use.

        Each path is paired with its value transport by the adjoint rule:
        the path matrix m carries the value transport mat_adj(m), so that
        m * mat_adj(m) = det(m) * I.  For U_p, the path r -> (r + a)/p, by
        (1, a; 0, p), carries the value transport (p, -a; 0, 1)."""
        plan = []
        pieces = {}  # one (idx, sign) tuple each, shared, to keep the plan small
        for g in self.lifts:
            r = apply_moebius(g, Fraction(0))
            s = apply_moebius(g, INF)
            groups = {}
            for path_mat in paths:
                value_mat = mat_adj(path_mat)
                ra = apply_moebius(path_mat, r)
                sa = apply_moebius(path_mat, s)
                for seg, sgn in segments_between(ra, sa):
                    idx, gamma = self.space.generator_of(seg)
                    key = self.cache._key(mat_mul(value_mat, gamma))
                    piece = pieces.setdefault((idx, sgn), (idx, sgn))
                    groups.setdefault(key, []).append(piece)
            plan.append([(key, tuple(sources)) for key, sources in groups.items()])
        return plan

    def apply_up(self):
        """One sweep Phi <- a_p^{-1} * (Phi | U_p) on the t-moments.  Each
        matrix of a target's plan acts once, on the signed sum of the values
        it transports; the sums are exact, so the result is that of one
        transport per piece.  The new values have a zero jet."""
        if self._up_plan is None:
            self._up_plan = self._plan_operator(self.space.hecke_paths(self.p))
        n, values = self.n, self.values
        new_values = []
        for groups in self._up_plan:
            m_out = [0] * n
            for key, sources in groups:
                m = [0] * n
                for idx, sgn in sources:
                    m = list(map(add if sgn > 0 else sub, m, values[idx].m))
                A, _ = self.cache.matrices(key)
                m_out = list(map(add, m_out, _act(A, m)))
            new_values.append(Distribution(self.p, n,
                                           [self._ap_inv * x for x in m_out]))
        self.values = new_values

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
    start (Pollack-Stevens).

    The symbol carries t-moments only.  The weight-direction jet is not
    determined by the lift, since U_p does not contract its zeroth layer;
    the sweeps leave it zero, and the returned symbol's jet is zero.

    Returns (OMSymbol, LiftCertificate).  The certificate measures the
    t-moments.  ``relation_valuation`` is ``relation_residual()``.
    ``eigen_valuation`` is the filtration level at which the final sweep
    changed the t-moments.  ``converged`` says that level is n_mom.
    ``matrices_cached`` is the number of transport kernels built.

    Raises ValueError for a non-integral classical value or if the zeroth
    moments drift (the symbol is not a U_p-eigensymbol with eigenvalue a_p).
    Raises PrecisionError if either residual is below n_mom.
    """
    space = symbol.space
    phi = OMSymbol(space, p, n_mom, a_p, symbol.sign)
    zeroth = []
    for val in symbol.vector:
        val = Fraction(val)
        if val.denominator != 1:
            raise ValueError("classical value %s is not integral" % val)
        zeroth.append(int(val) % p ** n_mom)
    for v, m0 in zip(phi.values, zeroth):
        v.m[0] = m0
        if randomize is not None:
            for j in range(1, n_mom):
                v.m[j] = randomize.randrange(p ** (n_mom - j))
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
