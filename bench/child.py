"""One fresh interpreter for one step of a benchmark run.

    python3 bench/child.py MODE WORKLOAD SEED [TRACE_FILE]

MODE is ``setup`` (import the package and build the inputs, then stop),
``pass`` (one untraced pass, then its exact checks), ``traced`` (the same
with every public function of the package wrapped; the spans are written to
TRACE_FILE) or ``probe`` (the workload's known-failure probes).  The result
is one JSON line on standard output.  ``ready`` is the CLOCK_MONOTONIC time
at which setup ended, which the parent compares with its spawn time.

A pass runs in its own interpreter so that the package's module-level caches
(the lru_caches in tate and arith.factorize, genus._group_cache,
QuadExtContext._cache) start cold, as they do for a real run.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import sys
import time


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit("unknown workload %r; choose from %s"
                         % (name, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(random.Random("%s:%d" % (name, seed)))
    out = {"ready": time.monotonic()}
    if mode == "setup":
        pass
    elif mode == "probe":
        chk = workloads.Checks()
        wl.probes(chk)
        out["checks"] = chk.results
    elif mode in ("pass", "traced"):
        out.update(one_pass(wl, inputs, argv[3] if mode == "traced" else None))
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write(json.dumps(out) + "\n")


class Calibrator:
    """Samples the machine's speed while a pass runs.

    On a shared virtual machine the CPU speed can change by 10-30% from one
    second to the next (other tenants share the cores), which swamps
    run-to-run comparisons.  Every INTERVAL_S of wall time a timer signal interrupts the
    pass between two bytecodes and times a fixed slice of work like the
    package's: big-integer multiply and reduce over a few megabytes of
    Python ints.  The pass's wall time, less the slices, divided by the mean
    slice time and multiplied by NOMINAL_S, is its time on a machine that
    runs the slice in NOMINAL_S: run_s.  The slices cost about 4% of the
    pass.
    """

    INTERVAL_S = 0.1
    NOMINAL_S = 0.004
    SLICE = 4000
    MOD = 5 ** 40
    WORDS = 1 << 16

    def __init__(self):
        self.samples = []
        self.buf = [self.MOD + k for k in range(self.WORDS)]

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        buf, mod, acc = self.buf, self.MOD, 1
        step = len(self.samples) * 977
        for i in range(self.SLICE):
            j = (i * 40503 + step) % self.WORDS
            acc = (acc * buf[j] + i) % mod
            buf[j] = acc + mod
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """Mean slice time over NOMINAL_S: above 1 on a slower machine."""
        return statistics.mean(self.samples) / self.NOMINAL_S if self.samples else 1.0


def one_pass(wl, inputs, trace_file):
    """Time one pass; the traced pass is not calibrated, so that the timer's
    slices do not land inside the tracer's bookkeeping."""
    import workloads

    tracer = cal = None
    if trace_file is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("starkheegner")
    else:
        cal = Calibrator()
        cal.start()
    st = workloads.Stages(tracer)
    t0 = time.perf_counter()
    state = wl.run(inputs, st)
    wall_s = time.perf_counter() - t0
    res = {}
    if cal is not None:
        cal.stop()
        wall_s -= sum(cal.samples)
        res["slowdown"] = cal.slowdown()
        res["run_s"] = wall_s / res["slowdown"]
    res.update(wall_s=wall_s, stages=st.times,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        res["summary"] = tracer.summary()
        res["stage_calls"] = st.calls
        res["spans"] = len(tracer.start)
        tracer.dump(trace_file)
    chk = workloads.Checks()
    wl.check(inputs, state, chk)
    res["checks"] = chk.results
    res["sizes"] = wl.sizes(state)
    return res


if __name__ == "__main__":
    main(sys.argv[1:])
