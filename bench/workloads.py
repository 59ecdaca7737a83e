"""The benchmark's workloads: seeded inputs, one timed pass, exact checks and
known-failure probes.

Every call into the package goes through a module attribute
(``modsym.build_eigensymbol``), so that a traced pass sees it.  The
mathematical inputs of a workload are fixed; the seed draws only the random
higher moments of the starting distributions, the transport pairs and the
spot-check paths.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

import starkheegner.arith as arith
import starkheegner.curves as curves
import starkheegner.genus as genus
import starkheegner.linalg as linalg
import starkheegner.modsym as modsym
import starkheegner.oms as oms
import starkheegner.padics as padics
import starkheegner.quadforms as quadforms
import starkheegner.tate as tate

P = 5
CURVE_15X = (1, 1, 1, -10, -10)     # 15x: a_5 = +1, split
CURVE_115 = (0, 0, 1, 7, -11)       # N = 115 = 5 * 23, a_5 = -1
D = 13                               # real quadratic field, 5 inert, 3 split
M = 3
INF = modsym.INF


class Stages:
    """Wall time of each named stage of a pass, one entry per entry into it.

    With a tracer, each stage is also a span (so the package's spans nest
    under it) and the tracer's call counts are recorded per stage.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = defaultdict(list)
        self.calls = defaultdict(lambda: defaultdict(int))

    @contextmanager
    def __call__(self, name: str):
        tr = self.tracer
        if tr is not None:
            before = list(tr.calls)
            idx = tr.open(tr.name_id("bench." + name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name].append(time.perf_counter() - t0)
            if tr is not None:
                tr.close(idx)
                got = self.calls[name]
                for k, n in enumerate(tr.calls):
                    d = n - (before[k] if k < len(before) else 0)
                    if d:
                        got[tr.names[k]] += d


class Checks:
    """Outcomes of exact checks; each one is an attempted operation."""

    def __init__(self):
        self.results = []

    def run(self, name: str, fn):
        try:
            ok, detail = bool(fn()), ""
        except Exception as exc:  # a crash in a check is a failed check
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        self.results.append((name, ok, detail))


# ------------------------------------------------------------------ helpers

def curve(coeffs, conductor):
    return curves.EllipticCurveData(*coeffs, conductor=conductor, p=P)


def p1_size(n: int) -> int:
    """|P^1(Z/n)| = n * prod(1 + 1/l): how many generators to draw for."""
    out = n
    for ell in arith.prime_divisors(n):
        out = out // ell * (ell + 1)
    return out


def draw_higher(rng, n: int, count: int):
    """Random moments 1..n-1 (t-moments and log-jet) for count generators."""
    return [([rng.randrange(P ** (n - j)) for j in range(1, n)],
             [rng.randrange(P ** (n - j)) for j in range(1, n)])
            for _ in range(count)]


def draw_cusp(rng):
    return Fraction(rng.randint(-60, 60), rng.randint(1, 60))


def draw_paths(rng, count: int):
    out = [(INF, draw_cusp(rng))]
    out += [(draw_cusp(rng), draw_cusp(rng)) for _ in range(count - 1)]
    return out


def draw_transport_pair(rng):
    """Two matrices of determinant 1 with p | c and d a unit."""
    out = []
    while len(out) < 2:
        c = P * rng.randint(1, 40) * rng.choice((1, -1))
        d = rng.randint(1, 200)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, abs(c))
        out.append((a, (a * d - 1) // c, c, d))
    return tuple(out)


def seeded_symbol(space, sym, a_p: int, n: int, higher):
    """Phi with the classical values as zeroth moments and the drawn higher
    moments; the log-jet's zeroth layer starts at 0."""
    phi = oms.OMSymbol(space, P, n, a_p, sym.sign)
    phi.values = [oms.Distribution(P, n, [int(v)] + m, [0] + lam)
                  for v, (m, lam) in zip(sym.vector, higher)]
    return phi


# Sweeps per lift, at every depth.  n_mom + 1 sweeps at n_mom = 40 take about
# 25 s, which would not leave room for the other workloads' runs.
SWEEPS = 11


def lift(st, space, sym, a_p: int, n: int, higher):
    """Seed, SWEEPS sweeps of a_p^-1 U_p, then the two residual certificates."""
    with st("lift.n%d" % n):
        with st("oms.seed.n%d" % n):
            phi = seeded_symbol(space, sym, a_p, n, higher)
        for _ in range(SWEEPS):
            with st("oms.sweep.n%d" % n):
                phi.apply_up()
        with st("oms.relation_residual.n%d" % n):
            rel = phi.relation_residual()
        with st("oms.eigen_residual.n%d" % n):
            eig = phi.eigen_residual()
    return {"phi": phi, "relation_valuation": rel, "eigen_valuation": eig}


def check_lift(chk, sym, got, paths):
    phi = got["phi"]
    n, mod = phi.n, P ** phi.n
    chk.run("lift.n%d.zeroth_moments" % n, lambda: all(
        v.m[0] == int(c) % mod for v, c in zip(phi.values, sym.vector)))
    for r, s in paths:
        chk.run("lift.n%d.specialize %s->%s" % (n, r, s), lambda r=r, s=s:
                oms.specialize_weight2(phi, r, s) == int(sym.value(r, s)) % mod)


def transport_composes(pair, n: int, rng_state) -> bool:
    """transport(transport(mu, g1), g2) = transport(mu, g2 g1): exact on the
    t-moments; the log-jet may lose ceil(log_p n) digits."""
    g1, g2 = pair
    rng = random.Random(rng_state)
    mu = oms.Distribution(P, n, [rng.randrange(P ** n) for _ in range(n)],
                          [rng.randrange(P ** n) for _ in range(n)])
    cache = oms.TransportCache(P, n)
    lhs = cache.transport(cache.transport(mu, g1), g2)
    rhs = cache.transport(mu, arith.mat_mul(g2, g1))
    loss = math.ceil(math.log(n, P))
    return lhs.m == rhs.m and lhs.max_difference_valuation(rhs) >= n - loss


def lift_sizes(got):
    phi = got["phi"]
    return {"transports_per_sweep": sum(len(e) for e in phi._up_plan),
            "matrices_distinct": len(phi.cache._cache),
            "relation_valuation": got["relation_valuation"],
            "eigen_valuation": got["eigen_valuation"]}


def probe_lift_n8(chk):
    """Known failure: the certified curve-free lift of 15x at n_mom = 8."""
    E = curve(CURVE_15X, 15)
    sym = modsym.build_eigensymbol(E, 1, modsym.ManinSymbolSpace(15))

    def ok():
        _, cert = oms.lift_to_oms(sym, E.a_p, P, 8)
        return cert.relation_valuation >= 8 and cert.eigen_valuation >= 8

    chk.run("probe.lift_to_oms(15x, +1, n_mom=8)", ok)


def probe_heegner_1309(chk):
    """Known failure: the Heegner search at c = 1309 = 7 * 11 * 17."""
    def ok():
        H = quadforms.HeegnerSystem(D, 1309, M)
        want = quadforms.narrow_class_number_oracle(D, 1309)
        return H.group.order == want and len(H.forms) == want

    chk.run("probe.HeegnerSystem(13, 1309, 3)", ok)


# ---------------------------------------------------------------- workloads

class Lift15x:
    """OMS lift of 15x at three depths: the U_p sweep dominates."""

    name = "lift-15x"
    depths = (10, 20, 40)

    def inputs(self, rng):
        count = p1_size(15)
        return {"higher": {n: draw_higher(rng, n, count) for n in self.depths},
                "paths": draw_paths(rng, 3),
                "pairs": [draw_transport_pair(rng) for _ in range(4)],
                "pair_state": rng.getrandbits(64)}

    def run(self, inp, st):
        E = curve(CURVE_15X, 15)
        with st("modsym.space"):
            space = modsym.ManinSymbolSpace(15)
        with st("modsym.eigensymbol"):
            sym = modsym.build_eigensymbol(E, 1, space)
        lifts = {n: lift(st, space, sym, E.a_p, n, inp["higher"][n])
                 for n in self.depths}
        return {"space": space, "sym": sym, "lifts": lifts}

    def check(self, inp, out, chk):
        chk.run("modsym.p1_size", lambda: len(out["space"].p1) == p1_size(15))
        for got in out["lifts"].values():
            check_lift(chk, out["sym"], got, inp["paths"])
        for k, pair in enumerate(inp["pairs"]):
            chk.run("oms.transport_composition %d" % k, lambda pair=pair, k=k:
                    transport_composes(pair, 8, inp["pair_state"] + k))

    def sizes(self, out):
        deepest = out["lifts"][max(self.depths)]
        distinct = sum(len(got["phi"].cache._cache) for got in out["lifts"].values())
        return dict(lift_sizes(deepest), p1_size=len(out["space"].p1),
                    dim=out["space"].dim, matrices_distinct=distinct)

    def probes(self, chk):
        probe_lift_n8(chk)


class Level115:
    """Exact modular symbols at N = 115: Fraction linear algebra dominates."""

    name = "level-115"
    n_mom = 10

    def inputs(self, rng):
        return {"higher": draw_higher(rng, self.n_mom, p1_size(115)),
                "paths": draw_paths(rng, 3)}

    def run(self, inp, st):
        E = curve(CURVE_115, 115)
        with st("modsym.space"):
            space = modsym.ManinSymbolSpace(115)
        syms = {}
        for sign in (1, -1):
            with st("modsym.eigensymbol"):
                syms[sign] = modsym.build_eigensymbol(E, sign, space)
        got = lift(st, space, syms[1], E.a_p, self.n_mom, inp["higher"])
        return {"E": E, "space": space, "syms": syms, "lift": got}

    def check(self, inp, out, chk):
        space, E = out["space"], out["E"]
        chk.run("modsym.p1_size", lambda: len(space.p1) == p1_size(115))
        chk.run("modsym.cuspidal_dimension == 22 = 2 genus(X0(115))",
                lambda: space.cuspidal_dimension() == 22)
        for ell in (2, 3):
            m, a = space.hecke_matrix(ell), E.ap(ell)
            for sign, sym in out["syms"].items():
                v = space.coordinates(sym.vector)
                chk.run("modsym.T%d eigen, sign %+d" % (ell, sign), lambda m=m, v=v, a=a:
                        linalg.matvec(m, v) == [a * x for x in v])
        check_lift(chk, out["syms"][1], out["lift"], inp["paths"])

    def sizes(self, out):
        return dict(lift_sizes(out["lift"]), p1_size=len(out["space"].p1),
                    dim=out["space"].dim)

    def probes(self, chk):
        pass


class Classes1463:
    """96 Heegner classes at c = 1463: most path transports build a matrix."""

    name = "classes-1463"
    c = 1463
    n_mom = 20

    def inputs(self, rng):
        return {"higher": draw_higher(rng, self.n_mom, p1_size(15)),
                "paths": draw_paths(rng, 3)}

    def run(self, inp, st):
        E = curve(CURVE_15X, 15)
        with st("curves.sh_hypothesis"):
            sh_ok, _ = curves.check_sh_hypothesis(E, D, self.c)
        with st("modsym.space"):
            space = modsym.ManinSymbolSpace(15)
        with st("modsym.eigensymbol"):
            sym = modsym.build_eigensymbol(E, 1, space)
        with st("quadforms.heegner_system"):
            H = quadforms.HeegnerSystem(D, self.c, M)
        with st("quadforms.stabilizer"):
            unit = quadforms.totally_positive_unit(D, self.c)
            gammas = [quadforms.stabilizer_gamma(H.forms[i], unit).gamma
                      for i in range(H.group.order)]
        with st("oms.seed.n%d" % self.n_mom):
            phi = seeded_symbol(space, sym, E.a_p, self.n_mom, inp["higher"])
        with st("oms.eval_path"):
            ends = [modsym.apply_moebius(g, INF) for g in gammas]
            vals = [phi.eval_path(INF, r) for r in ends]
        with st("genus.characters"):
            chars = [genus.attach_genus_data(x)
                     for x in genus.enumerate_quadratic_chars(H.group)]
        with st("oms.character_sums"):
            sums = [_signed_sum(chi, vals, phi) for chi in chars]
        return {"sh_ok": sh_ok, "sym": sym, "H": H, "phi": phi, "ends": ends,
                "vals": vals, "chars": chars, "sums": sums}

    def check(self, inp, out, chk):
        H, sym, phi = out["H"], out["sym"], out["phi"]
        mod = P ** phi.n
        chk.run("curves.check_sh_hypothesis(15x, 13, 1463)", lambda: out["sh_ok"])
        chk.run("quadforms.h+ == oracle", lambda: H.group.order
                == quadforms.narrow_class_number_oracle(D, self.c))
        chk.run("quadforms.check_group_axioms", H.group.check_group_axioms)
        classical = [int(sym.value(INF, r)) for r in out["ends"]]
        for k, (v, want) in enumerate(zip(out["vals"], classical)):
            chk.run("oms.eval_path mass, class %d" % k,
                    lambda v=v, want=want: v.mass() == want % mod)
        for k, (chi, total) in enumerate(zip(out["chars"], out["sums"])):
            want = sum(chi(i) * x for i, x in enumerate(classical))
            chk.run("oms.character sum mass %d" % k,
                    lambda total=total, want=want: total.mass() == want % mod)
        for r, s in inp["paths"]:
            chk.run("oms.specialize %s->%s" % (r, s), lambda r=r, s=s:
                    oms.specialize_weight2(phi, r, s) == int(sym.value(r, s)) % mod)

    def sizes(self, out):
        phi = out["phi"]
        return {"class_number": out["H"].group.order,
                "characters": len(out["chars"]),
                "segments": sum(len(modsym.segments_between(INF, r))
                                for r in out["ends"]),
                "matrices_distinct": len(phi.cache._cache),
                "p1_size": len(phi.space.p1), "dim": phi.space.dim}

    def probes(self, chk):
        probe_heegner_1309(chk)


def _signed_sum(chi, vals, phi):
    total = oms.Distribution(phi.p, phi.n)
    for idx, v in enumerate(vals):
        total = total + (v if chi(idx) > 0 else v.scale(-1))
    return total


class TwistsD13:
    """Genus characters of D = 13 at c | 77: twisted L-series, global points
    on the twists, Tate parameter and formal logs; no modular symbols."""

    name = "twists-d13"
    conductors = (1, 7, 11, 77)
    search_height = 4000
    tate_prec = 40
    log_prec = 30

    def inputs(self, rng):
        return {}

    def run(self, inp, st):
        E = curve(CURVE_15X, 15)
        with st("tate.parameter"):
            q = tate.tate_parameter(E, self.tate_prec)
        with st("tate.kappa"):
            ctx = padics.QuadExtContext(P, q.N)
            tate.log_conversion_constant(E, q, ctx, self.tate_prec - 2)
        rows = []
        classes = []
        for c in self.conductors:
            with st("quadforms.heegner_system"):
                H = quadforms.HeegnerSystem(D, c, M)
            classes.append(H.group.order)
            with st("genus.characters"):
                chars = [genus.attach_genus_data(x)
                         for x in genus.enumerate_quadratic_chars(H.group)]
            for chi in chars:
                rows.append(self._character(st, E, chi))
        return {"E": E, "rows": rows, "classes": classes}

    def _character(self, st, E, chi):
        with st("genus.order_by_sign"):
            d1, d2 = genus.order_by_sign(E.w_fricke, E.conductor, chi.genus_pair)
        with st("curves.L"):
            dval, derr = curves.complex_L_derivative(E, d1)
            lval, lerr = curves.complex_L_value(E, d2)
        with st("curves.point_search"):
            A, B = curves.twist_model(E, d1)
            pts = curves.naive_point_search(A, B, self.search_height)
            # Mazur: a torsion point has order 1..10 or 12, so it divides one of these
            free = [xy for xy in pts if not any(
                curves.point_order_divides(A, B, xy, k) for k in (7, 8, 9, 10, 12))]
        log = None
        if free:
            with st("tate.formal_log"):
                gp = curves.twist_point_to_curve(E, d1, free[0])
                ctx = padics.QuadExtContext(P, self.log_prec)
                loc = tate.localize_short_point(E, gp, ctx, self.log_prec)
                log = tate.formal_log(E, loc, self.log_prec)
        return {"pair": (d1, d2), "L'": (dval, derr), "L": (lval, lerr),
                "points": pts, "free": len(free), "log": log}

    def check(self, inp, out, chk):
        E = out["E"]
        As, Bs = E.short_model()
        for row in out["rows"]:
            d1, d2 = row["pair"]
            chk.run("curves.sign_of_twist(%d) == -1" % d1,
                    lambda d1=d1: curves.sign_of_twist(E, d1) == -1)
            chk.run("curves.sign_of_twist(%d) == +1" % d2,
                    lambda d2=d2: curves.sign_of_twist(E, d2) == 1)
            chk.run("curves.L'(%d) error < 1e-6" % d1, lambda row=row: row["L'"][1] < 1e-6)
            chk.run("curves.L(%d) error < 1e-6" % d2, lambda row=row: row["L"][1] < 1e-6)
            for xy in row["points"]:
                chk.run("curves.point on short model (%d)" % d1, lambda xy=xy, d1=d1:
                        curves.twist_point_to_curve(E, d1, xy).on_short_model(As, Bs))

    def sizes(self, out):
        return {"an_terms": len(out["E"]._an_list) - 1,
                "class_number": max(out["classes"]),
                "characters": len(out["rows"]),
                "points": sum(len(r["points"]) for r in out["rows"]),
                "non_torsion_points": sum(r["free"] for r in out["rows"])}

    def probes(self, chk):
        pass


WORKLOADS = {w.name: w for w in (Lift15x(), Level115(), Classes1463(), TwistsD13())}
