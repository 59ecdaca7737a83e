"""Ordinary measure-valued (overconvergent) modular symbols at weight two.

A distribution is a finite moment vector against the chart coordinate
t = x/y on Z_p, plus a parallel vector of moments against log<u> in the
scaling direction (the weight-direction jet).  Moment j is carried modulo
p^(n_mom - j); the monoid action preserves this filtration.  On the
t-moments, a_p^{-1} U_p fixes the zeroth layer of an eigenlift and contracts
everything above it, which is why the naive lift-and-iterate construction
converges to a unique lift.  The jet's zeroth layer is not contracted (U_p
fixes a subspace of it), so the jet is not part of the lift: lift_to_oms
returns it as zero, and no result of this package depends on it.  The jet
stays only until the benchmark in bench/ stops seeding it.

All transports are by matrices (a, b; c, d) with d a unit and p | c, acting
through t -> (a t + b)/(c t + d) and u -> u * (c t + d).  A transport's
matrices are built from truncated power series, each product of two series
one big-integer multiplication (Kronecker substitution).  A U_p sweep groups
the pieces of each target generator by matrix and does one matrix-vector
product per (target, matrix) group, on the signed sum of its sources.
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
)
from .padics import PadicScalar, PrecisionError, iwasawa_log
from .arith import MAT_ID, mat_adj, mat_mul, valuation


class Distribution:
    """Moment vectors (m_j) and (lam_j), m_j known mod p^(n_mom - j)."""

    __slots__ = ("p", "n", "m", "lam")

    def __init__(self, p: int, n: int, m=None, lam=None):
        self.p = p
        self.n = n
        self.m = [0] * n if m is None else list(m)
        self.lam = [0] * n if lam is None else list(lam)
        self._reduce()

    def _reduce(self):
        p, n = self.p, self.n
        for j in range(n):
            mod = p ** (n - j)
            self.m[j] %= mod
            self.lam[j] %= mod

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
    """Per-(p, n_mom) cache of moment transport matrices."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.mod = p ** n
        self._cache = {}
        self._logs = {}

    def _key(self, g):
        return tuple(x % self.mod for x in g)

    def matrices(self, g):
        """(A, B): m' = A m, lam' = A lam + B m, for the matrix g."""
        key = self._key(g)
        got = self._cache.get(key)
        if got is None:
            got = self._build(key)
            self._cache[key] = got
        return got

    def _build(self, g):
        p, n, mod = self.p, self.n, self.mod
        extra = 1
        while p ** extra <= n:
            extra += 1
        work = mod * p ** extra  # slack for the divisions by k in the log
        a, b, c, d = g
        if d % p == 0 or c % p != 0:
            raise ValueError("matrix outside the transport monoid")
        dinv = pow(d, -1, work)
        # phi(t) = (a t + b) / (c t + d) as a series in t, truncated at t^n
        inv_den = [dinv]
        ratio = (-c * dinv) % work
        for _ in range(1, n):
            inv_den.append(inv_den[-1] * ratio % work)
        phi = [0] * n
        for k in range(n):
            acc = b * inv_den[k]
            if k >= 1:
                acc += a * inv_den[k - 1]
            phi[k] = acc % work
        # rows: phi^j
        A = [[0] * n for _ in range(n)]
        A[0][0] = 1
        row = [1] + [0] * (n - 1)
        for j in range(1, n):
            row = _series_mul(row, phi, work)
            A[j] = row[:]
        # log<c t + d> = log<d> + log(1 + (c/d) t); v(c) >= 1 makes the
        # coefficient (-1)^(k+1) (c/d)^k / k an integer of valuation >= 1
        logd = self._log_unit(d % mod)
        logser = [logd]
        x = (c * dinv) % work
        xk = 1
        for k in range(1, n):
            xk = xk * x % work
            e = valuation(k, p)
            kk = k // p ** e
            if xk % p ** e:
                raise ArithmeticError("log coefficient %d of %r is not integral"
                                      % (k, g))
            num = (xk // p ** e) * pow(kk, -1, work) % work
            logser.append((-num if k % 2 == 0 else num) % work)
        B = [_series_mul(A[j], logser, work) for j in range(n)]
        A = [[x % mod for x in row] for row in A]
        B = [[x % mod for x in row] for row in B]
        return A, B

    def _log_unit(self, d: int) -> int:
        got = self._logs.get(d)
        if got is None:
            val = iwasawa_log(PadicScalar.from_int(self.p, d, self.n))
            got = val.residue(self.n) if not val.is_zero() else 0
            self._logs[d] = got
        return got

    def transport(self, dist: Distribution, g) -> Distribution:
        A, B = self.matrices(g)
        return Distribution(dist.p, dist.n, *_act(A, B, dist.m, dist.lam))


def _act(A, B, m, lam):
    """(A m, A lam + B m) over the integers: the transport of bare moment
    vectors, unreduced."""
    return ([sum(map(mul, row, m)) for row in A],
            [sum(map(mul, a, lam)) + sum(map(mul, b, m)) for a, b in zip(A, B)])


def _series_mul(a, b, mod):
    """The series product a * b truncated to len(a) terms, reduced mod ``mod``.

    One big-integer product (Kronecker substitution): the coefficients of
    each operand, reduced mod ``mod``, fill slots of w bytes.  A coefficient
    of the product is a sum of at most len(a) terms below mod^2, so slots of
    2 * mod.bit_length() + len(a).bit_length() + 1 bits never carry."""
    n = len(a)
    w = (2 * mod.bit_length() + n.bit_length() + 8) // 8
    prod = _pack(a, mod, w) * _pack(b, mod, w)
    raw = prod.to_bytes((n + len(b)) * w, "little")
    return [int.from_bytes(raw[i:i + w], "little") % mod
            for i in range(0, n * w, w)]


def _pack(a, mod, w):
    """The coefficients of a, reduced mod ``mod``, as w-byte slots of one
    integer, lowest degree first."""
    return int.from_bytes(b"".join([(x % mod).to_bytes(w, "little") for x in a]),
                          "little")


# ------------------------------------------------------------- the symbol

@dataclass
class LiftCertificate:
    """How lift_to_oms reached its lift: U_p sweeps run, whether the last one
    left the t-moments unchanged, and the filtration levels to which the
    Manin relations and the U_p eigen-equation hold on the t-moments."""

    iterations: int
    converged: bool
    relation_valuation: int
    eigen_valuation: int


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
        """Phi on the unimodular path g{0 -> oo}: values[idx] transported by
        gamma, for (idx, gamma) = space.generator_of(g)."""
        idx, gamma = self.space.generator_of(g)
        return self.cache.transport(self.values[idx], gamma)

    def eval_path(self, r, s) -> Distribution:
        return self.eval_path_transported(r, s, MAT_ID)

    def eval_path_transported(self, r, s, outer) -> Distribution:
        """transport(Phi{r -> s}, outer), one transport per segment."""
        total = Distribution(self.p, self.n)
        for g, sign in segments_between(r, s):
            idx, gamma = self.space.generator_of(g)
            d = self.cache.transport(self.values[idx], mat_mul(outer, gamma))
            total = total + (d if sign > 0 else d.scale(-1))
        return total

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
        """One sweep Phi <- a_p^{-1} * (Phi | U_p).  Each matrix of a target's
        plan acts once, on the signed sum of the values it transports; the
        sums are exact, so the result is that of one transport per piece."""
        if self._up_plan is None:
            self._up_plan = self._plan_operator(self.space.hecke_paths(self.p))
        n, values = self.n, self.values
        new_values = []
        for groups in self._up_plan:
            m_out = [0] * n
            lam_out = [0] * n
            for key, sources in groups:
                m = [0] * n
                lam = [0] * n
                for idx, sgn in sources:
                    op = add if sgn > 0 else sub
                    m = list(map(op, m, values[idx].m))
                    lam = list(map(op, lam, values[idx].lam))
                A, B = self.cache.matrices(key)
                dm, dlam = _act(A, B, m, lam)
                m_out = list(map(add, m_out, dm))
                lam_out = list(map(add, lam_out, dlam))
            new_values.append(Distribution(self.p, n,
                                           [self._ap_inv * x for x in m_out],
                                           [self._ap_inv * x for x in lam_out]))
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

    The weight-direction jet is not determined by the lift: its zeroth layer
    is not contracted.  The returned symbol's jet is zero.

    Returns (OMSymbol, LiftCertificate).  The certificate measures the
    t-moments.  ``relation_valuation`` is ``relation_residual()``.
    ``eigen_valuation`` is the filtration level at which the final sweep
    changed the t-moments.  ``converged`` says that level is n_mom.

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
    phi.values = [Distribution(p, n_mom, v.m) for v in phi.values]
    cert = LiftCertificate(sweeps, eigen >= n_mom, phi.relation_residual(), eigen)
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
