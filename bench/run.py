"""Benchmark of the starkheegner pipeline stages.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every timed pass runs in a fresh
interpreter (bench/child.py), one at a time, so module-level caches start
cold and passes never overlap.

--trace 0 runs setup-only interpreters and then untraced passes until S
seconds have gone (at least one), and reports the end-to-end metrics:
run_s (median pass time, calibrated to a reference machine speed: see
child.Calibrator), setup_s (median time from interpreter start to package
imported and inputs built) and peak_rss_mb (median peak resident memory of a
pass).  The report also gives the pass's uncalibrated wall time and the
machine's slowdown, and the time of each stage (uncalibrated).

--trace 1 runs one untraced pass and one traced pass, writes the spans to
bench/out/trace-<workload>.bin and reports the per-layer metrics.

Both print a readable report and then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  Every pass is
followed, outside its timing, by exact checks of its outputs; attempted and
failed count those checks.  The workload's known-failure probes run once,
untimed, and are reported in the per-layer metrics fail_frac and
probe_failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
DEADLINE_S = 175.0
LAYERS = ("arith", "linalg", "padics", "quadforms", "genus", "curves",
          "modsym", "oms", "tate")
# layer self times that every workload exercises, so none of them is ever 0
ALWAYS_BUSY = ("arith", "curves", "padics")
COUNTED = {
    "oms.matrices_calls": "oms.TransportCache.matrices",
    "modsym.hecke_matrix_calls": "modsym.ManinSymbolSpace.hecke_matrix",
    "linalg.rref_calls": "linalg.rref",
    "curves.ap_calls": "curves.EllipticCurveData.ap",
    "arith.kronecker_calls": "arith.kronecker",
    "padics.iwasawa_log_calls": "padics.iwasawa_log",
}
SIZED = {
    "oms.segments": "segments",
    "oms.matrices_distinct": "matrices_distinct",
    "oms.relation_valuation": "relation_valuation",
    "oms.eigen_valuation": "eigen_valuation",
    "modsym.p1_size": "p1_size",
    "modsym.dim": "dim",
    "quadforms.class_number": "class_number",
    "curves.an_terms": "an_terms",
}
# stage times in the report: stage name -> reported name
STAGE_SUMS = {
    "modsym.space": "modsym.space_s",
    "modsym.eigensymbol": "modsym.eigensymbol_s",
    "quadforms.heegner_system": "quadforms.heegner_system_s",
    "quadforms.stabilizer": "quadforms.stabilizer_s",
    "genus.characters": "genus.characters_s",
    "oms.eval_path": "oms.eval_path_s",
    "curves.L": "curves.L_s",
    "curves.point_search": "curves.point_search_s",
    "tate.parameter": "tate.parameter_s",
    "tate.kappa": "tate.kappa_s",
    "tate.formal_log": "tate.formal_log_s",
}
TRACED_INCL = {
    "oms.transport_s": "oms.TransportCache.transport",
    "modsym.hecke_matrix_s": "modsym.ManinSymbolSpace.hecke_matrix",
    "linalg.rref_s": "linalg.rref",
    "linalg.kernel_basis_s": "linalg.kernel_basis",
}


class BenchError(RuntimeError):
    pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            result = runner.traced()
        else:
            result = runner.untraced(args.seconds)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            # curves imports scipy; keep its BLAS from starting threads
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })

    def child(self, mode: str, *extra) -> dict:
        """Run bench/child.py once; its JSON line, plus setup_s."""
        left = DEADLINE_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise BenchError("out of time before the %s step" % mode)
        cmd = [sys.executable, str(BENCH / "child.py"), mode, self.workload,
               str(self.seed), *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("%s step exceeded the time limit" % mode) from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError("%s step exited with %d:\n%s" % (mode, proc.returncode, tail))
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("%s step printed nothing" % mode)
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - spawned
        return out

    # ---------------------------------------------------------------- modes

    def untraced(self, seconds: float) -> dict:
        # set-up is sampled before and after the passes, since a shared
        # host's speed drifts over seconds: the median spans both ends of the run
        setups = [self.child("setup")["setup_s"] for _ in range(SETUP_RUNS)]
        probe = self.child("probe")
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(self.child("pass"))
        setups += [self.child("setup")["setup_s"] for _ in range(SETUP_RUNS)]
        setups += [c["setup_s"] for c in passes + [probe]]
        probes = probe["checks"]
        metrics = {
            "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
        detail = stage_metrics(passes)
        for key, unit in (("wall_s", "s"), ("slowdown", "ratio")):
            detail[key] = (statistics.median(p[key] for p in passes), unit)
        report(self.workload, passes, probes, metrics, detail)
        return result_line(passes, metrics)

    def traced(self) -> dict:
        probes = self.child("probe")["checks"]
        plain = self.child("pass")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        traced = self.child("traced", str(out_dir / ("trace-%s.bin" % self.workload)))
        metrics = layer_metrics(plain, traced, probes)
        detail = stage_metrics([plain])
        detail.update(traced_detail(traced))
        report(self.workload, [plain, traced], probes, metrics, detail)
        return result_line([plain, traced], metrics)


# ------------------------------------------------------------------ metrics

def layer_metrics(plain: dict, traced: dict, probes: list) -> dict:
    summary, sizes = traced["summary"], traced["sizes"]
    m = {"trace_overhead": (traced["wall_s"] / plain["wall_s"], "ratio")}
    for layer in ALWAYS_BUSY:
        m[layer + ".self_s"] = (layer_total(summary, layer, "self_s"), "s")
    for layer in LAYERS:
        m[layer + ".calls"] = (layer_total(summary, layer, "calls"), "count")
    sweeps = {k: v for k, v in traced["stage_calls"].items() if k.startswith("oms.sweep.")}
    n_sweeps = sum(len(traced["stages"][k]) for k in sweeps)
    transports = sum(v.get("oms.TransportCache.transport", 0) for v in sweeps.values())
    m["oms.transport_calls"] = (transports / n_sweeps if n_sweeps else 0, "count")
    for metric, name in COUNTED.items():
        m[metric] = (summary.get(name, {}).get("calls", 0), "count")
    for metric, key in SIZED.items():
        m[metric] = (sizes.get(key, 0), "count")
    calls = m["oms.matrices_calls"][0]
    hit = 1 - sizes.get("matrices_distinct", 0) / calls if calls else 0.0
    m["oms.cache_hit_ratio"] = (hit, "ratio")
    checks = plain["checks"] + traced["checks"] + probes
    m["fail_frac"] = (sum(not ok for _, ok, _ in checks) / len(checks), "ratio")
    m["probe_failures"] = (sum(not ok for _, ok, _ in probes), "count")
    m["spans"] = (traced["spans"], "count")
    return m


def layer_total(summary: dict, layer: str, key: str):
    return sum(v[key] for name, v in summary.items() if name.split(".", 1)[0] == layer)


def stage_metrics(passes: list) -> dict:
    """Median over passes of each stage's time in a pass."""
    per = {}
    for p in passes:
        st = p["stages"]
        for stage, name in STAGE_SUMS.items():
            if stage in st:
                per.setdefault(name, []).append(sum(st[stage]))
        for stage, times in st.items():
            if stage.startswith("lift.n"):
                per.setdefault("lift_s." + stage[5:], []).append(sum(times))
            elif stage.startswith("oms.sweep.n"):
                depth = stage[len("oms.sweep."):]
                per.setdefault("oms.first_sweep_s." + depth, []).append(times[0])
                if len(times) > 1:
                    per.setdefault("oms.sweep_s." + depth, []).append(
                        statistics.median(times[1:]))
            elif stage.startswith(("oms.relation_residual.", "oms.eigen_residual.")):
                head, depth = stage.rsplit(".", 1)
                per.setdefault("%s_s.%s" % (head, depth), []).append(sum(times))
    return {k: (statistics.median(v), "s") for k, v in per.items()}


def traced_detail(traced: dict) -> dict:
    summary = traced["summary"]
    out = {}
    for metric, name in TRACED_INCL.items():
        if name in summary:
            out["traced." + metric] = (summary[name]["incl_s"], "s")
    for layer in LAYERS:
        if layer not in ALWAYS_BUSY:
            out["traced.%s.self_s" % layer] = (layer_total(summary, layer, "self_s"), "s")
    return out


def result_line(passes: list, metrics: dict) -> dict:
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not ok for _, ok, _ in checks)
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(workload: str, passes: list, probes: list, metrics: dict, detail: dict):
    print("workload %s: %d pass(es)" % (workload, len(passes)))
    for name, (value, unit) in list(metrics.items()) + sorted(detail.items()):
        print("  %-34s %14.6g %s" % (name, value, unit))
    sizes = passes[0]["sizes"]
    print("  sizes: " + ", ".join("%s=%s" % kv for kv in sorted(sizes.items())))
    for name, ok, why in probes:
        print("  probe %s: %s%s" % (name, "ok" if ok else "FAILED", " (%s)" % why if why else ""))
    bad = [c for p in passes for c in p["checks"] if not c[1]]
    print("  checks: %d run, %d failed" % (sum(len(p["checks"]) for p in passes), len(bad)))
    for name, _, why in bad:
        print("    FAILED %s %s" % (name, why))


if __name__ == "__main__":
    sys.exit(main())
