"""gtskit benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gtskit is imported from ./src and
nowhere else.  One client in one thread sends the next request when the
previous one returns.  Each op's outputs are checked against an oracle that
does not use gtskit; ops that raise or disagree count as failed.

--trace 0 times the ops for S seconds and prints the end-to-end metrics.
--trace 1 runs a fixed, seeded list of ops twice, untraced and then with
every public gtskit function wrapped, and prints the per-layer metrics; its
counts repeat exactly for a seed.  The span file goes to .perfbench-out/.

gtskit iterates over sets of strings, so its work depends on the string
hash seed.  The script re-executes itself with PYTHONHASHSEED=0 to measure
the same work on every run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = {
    "finite-exhaustive": ("finite", "FiniteExhaustive"),
    "product-laws": ("products", "ProductLaws"),
    "symbolic-requests": ("symbolic", "SymbolicRequests"),
}
SETUP_PROBES = 11
HASH_SEED = "0"
MAX_REPORTED_FAILURES = 5


def _use_checkout_gtskit():
    """Import gtskit from this checkout's src, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "gtskit", "setexpr.py")):
        sys.exit("error: no gtskit sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import gtskit.setexpr
    if not os.path.abspath(gtskit.setexpr.__file__).startswith(SRC + os.sep):
        sys.exit("error: gtskit was imported from outside %s" % SRC)


def _workload(name, seed):
    module, cls = WORKLOADS[name]
    return getattr(__import__(module), cls)(seed)


def _probe(name, seed):
    """Set-up probe: import gtskit, build the fixed presentations, report."""
    _use_checkout_gtskit()
    module, cls = WORKLOADS[name]
    Workload = getattr(__import__(module), cls)
    t0 = time.monotonic()
    w = Workload(seed)
    gen_s = time.monotonic() - t0
    w.setup()
    print(json.dumps({"ready": time.monotonic(), "gen_s": gen_s}))


def _setup_seconds(name, seed):
    """Median time from process start to the first op, over several probes.

    The probe's own input generation is subtracted: it is benchmark work.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["ready"] - t0 - probe["gen_s"])
    return statistics.median(times)


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, w, item, runner):
        """Run one op through runner, check it; returns its seconds or None."""
        self.attempted += 1
        try:
            out, dt = runner(w.run, item)
            errors = w.check(item, out)
        except Exception:
            errors = [traceback.format_exc()]
            dt = None
        if errors:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print("FAILED op %d: %s" % (self.attempted, "; ".join(errors)),
                      file=sys.stderr)
        return dt


def _timed(fn, item):
    t0 = time.perf_counter()
    out = fn(item)
    return out, time.perf_counter() - t0


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(name, seed, seconds):
    setup_s = _setup_seconds(name, seed)
    w = _workload(name, seed)
    w.setup()
    count = Counter()
    latencies = []
    items = w.items()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        dt = count.op(w, next(items), _timed)
        if dt is not None:
            latencies.append(dt)
    if not latencies:
        sys.exit("error: no op completed")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(latencies) / sum(latencies), "1/s"),
        "verdict_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "verdict_p90_ms": (1e3 * _quantile(latencies, 90), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    # printed, not part of the result: every run must report every result
    # metric, and only symbolic-requests runs the 1000 ops that leave ten
    # samples beyond the 99th percentile
    summary = dict(metrics, failed_ratio=(count.failed / count.attempted, "ratio"))
    if len(latencies) >= 1000:
        summary["verdict_p99_ms"] = (1e3 * _quantile(latencies, 99), "ms")
    return count, metrics, summary


def run_traced(name, seed):
    from tracing import Tracer

    w = _workload(name, seed)
    w.setup()
    items = w.items()
    ops = [next(items) for _ in range(w.trace_ops)]
    count = Counter()
    untraced = sum(count.op(w, item, _timed) or 0.0 for item in ops)
    if not untraced:
        sys.exit("error: no op completed")
    tracer = Tracer()
    tracer.install(callers=[sys.modules[type(w).__module__]])
    try:
        for item in ops:
            count.op(w, item, tracer.run_op)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (tracer.op_s / untraced, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json.gz" % (name, seed))
    tracer.dump(path, {"workload": name, "seed": seed, "ops": len(ops),
                       "untraced_s": untraced, "traced_s": tracer.op_s})
    print("spans written to %s" % os.path.relpath(path, ROOT))
    return count, metrics, metrics


def _fix_hash_seed():
    """Replace this process by one with string hashing fixed."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        argv = [sys.executable, os.path.abspath(__file__)] + sys.argv[1:]
        os.execve(sys.executable, argv, env)


def main():
    _fix_hash_seed()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    _use_checkout_gtskit()
    if args.trace:
        count, metrics, summary = run_traced(args.workload, args.seed)
    else:
        count, metrics, summary = run_untraced(args.workload, args.seed, args.seconds)
    print("%s seed %d: %d ops, %d failed" % (args.workload, args.seed,
                                             count.attempted, count.failed))
    for key in sorted(summary):
        value, unit = summary[key]
        print("  %-44s %14.6g %s" % (key, value, unit))
    print(json.dumps({
        "correct": count.failed == 0,
        "attempted": count.attempted,
        "failed": count.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
