"""Closed-loop benchmark of the ybx command and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and the oracles from ``tests/``.  One client sends its next
request only after the previous one returned, in one process and one
thread.  A command request is ``ybx.cli.main(argv)`` with stdout and
stderr captured; a membership request is one library call.

``--trace 0`` runs whole rounds of the workload until ``--seconds`` have
passed and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, untraced and then traced, so that its counts
repeat exactly for a seed, and reports the per-layer metrics and the
tracing overhead.  Outputs are checked after the timed phase.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")

# Set-up runs this many times per run (re-importing the package each
# time); setup_s is the median.
SETUP_REPEATS = 5
# Rounds of the traced run: fixed, so that counts repeat for a seed.
TRACE_ROUNDS = {"numeric_verify": 3, "symbolic_verify": 10, "nullspace_solve": 3}
# One cheap request per workload, run at the end of each set-up.
WARMUP = {
    "numeric_verify": ["verify", "qdouble", "--W", "catalog:P",
                       "--X", "random[dim=4,seed=1]", "--Z", "catalog:P"],
    "symbolic_verify": ["verify", "ybe", "--R", "catalog:Rex3", "--symbolic"],
    "nullspace_solve": ["solve-z", "--X", "catalog:X3[a=1,b=2,c=3,d=5]", "--json"],
}
MODULES = ("cli", "catalog", "errors", "exprparse", "scalar", "solver", "systems", "tensor")

# Times are reported at a reference machine speed.  On a shared 2-vCPU
# KVM guest (Intel Xeon, Python 3.11) the speed of pure-Python code
# drifts by 20-30% over seconds, and the drift moves ybx and a plain
# Fraction loop alike: over 2 s windows a ybx commutator loop spread by
# 0.28 of its median, its ratio to a loop like ``calibration()`` by 0.04.
# So the loop runs before every request (outside its timing), and each
# time is scaled by REFERENCE_S / (median of the nearby calibration
# times).  REFERENCE_S is a median time of the loop on that guest.
REFERENCE_S = 0.0015
CALIBRATION_SPAN = 3


class Library:
    """The ybx modules of one import."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "ybx" or n.startswith("ybx.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("ybx." + name))
        where = os.path.dirname(os.path.abspath(self.cli.__file__))
        if where != os.path.join(SRC, "ybx"):
            raise ImportError("ybx was imported from %s, not from %s" % (where, SRC))


def calibration():
    """Seconds taken by a fixed stdlib-only loop of Fraction arithmetic and
    container updates, the kind of work the scalar tower does."""
    start = time.perf_counter()
    xs = [Fraction(k, k + 1) for k in range(1, 33)]
    acc = Fraction(0)
    seen = {}
    for a in xs:
        for b in xs[:12]:
            acc += a * b
        seen[a] = acc
    return time.perf_counter() - start


@dataclass
class Result:
    req: workloads.Request
    value: object
    out: str
    err: str
    error: str | None
    seconds: float
    calibration: float


def execute(lib, req):
    """Run one request after one calibration loop."""
    cal = calibration()
    out, err = io.StringIO(), io.StringIO()
    value = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = lib.cli.main(list(req.argv)) if req.argv is not None else req.call()
    except Exception as exc:  # a request that raises fails; the run goes on
        error = "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    return Result(req, value, out.getvalue(), err.getvalue(), error, seconds, cal)


def at_reference_speed(results):
    """Latencies in seconds at REFERENCE_S, each scaled by the median
    calibration of the requests within CALIBRATION_SPAN places."""
    cal = [r.calibration for r in results]
    return [r.seconds * REFERENCE_S
            / statistics.median(cal[max(0, i - CALIBRATION_SPAN): i + CALIBRATION_SPAN + 1])
            for i, r in enumerate(results)]


def set_up(workload, seed, workdir):
    """Import the package, build the first round's inputs and warm up.
    Returns the set-up time at reference speed, the modules and the round."""
    local = statistics.median(calibration() for _ in range(2 * CALIBRATION_SPAN + 1))
    start = time.perf_counter()
    lib = Library()
    first = workloads.make_round(workload, seed, 0, workdir, lib)
    execute(lib, workloads.Request("warmup", "none", WARMUP[workload]))
    return (time.perf_counter() - start) * REFERENCE_S / local, lib, first


def closed_loop(lib, workload, seed, workdir, first, seconds):
    """Whole rounds, back to back, until ``seconds`` have passed."""
    results = []
    reqs = first
    rounds = 0
    start = time.perf_counter()
    while True:
        results.extend(execute(lib, req) for req in reqs)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return results, rounds
        reqs = workloads.make_round(workload, seed, rounds, workdir, lib)


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; None below eleven samples."""
    n = len(latencies)
    if n < 11:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    return pct, sorted(latencies)[max(0, math.ceil(pct / 100 * n) - 1)]


def describe_classes(results):
    by_class = {}
    for r, seconds in zip(results, at_reference_speed(results)):
        by_class.setdefault(r.req.cls, []).append(seconds * 1000)
    for cls, lat in sorted(by_class.items()):
        line = "class %-13s n=%-4d p50 %9.3f ms" % (cls, len(lat), statistics.median(lat))
        t = tail(lat)
        if t is not None:
            line += "   p%d %9.3f ms" % t
        print(line)


def check_all(lib, results):
    """Check every output; returns the failed results with their reasons."""
    sys.path.insert(0, TESTS)
    import oracles
    checker = checks.Checker(lib, oracles)
    failures = []
    for r in results:
        try:
            reason = checker.check(r)
        except Exception as exc:  # a check that cannot parse the output fails it
            reason = "check raised %s: %s" % (type(exc).__name__, exc)
        if reason is not None:
            failures.append((r, reason))
    for r, reason in failures:
        kind = "known defect (%s)" % r.req.defect if r.req.defect else "FAILED"
        print("%s: %s\n    %s" % (kind, r.req.label(), reason))
    return failures


def end_to_end(results, setup_times, rss_kib):
    lat = at_reference_speed(results)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "p50_ms": (statistics.median(lat) * 1000, "ms"),
        "p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def traced(lib, workload, seed, workdir, first):
    reqs = list(first)
    for k in range(1, TRACE_ROUNDS[workload]):
        reqs += workloads.make_round(workload, seed, k, workdir, lib)
    untraced = [execute(lib, req) for req in reqs]
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        results = []
        for k, req in enumerate(reqs):
            tracer.request = k
            results.append(execute(lib, req))
    finally:
        tracer.restore()
    values = tracer.metrics()
    values["trace.overhead_ratio"] = (sum(at_reference_speed(results))
                                      / sum(at_reference_speed(untraced)))
    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    path = os.path.join(HERE, "traces", "%s-seed%d.json" % (workload, seed))
    tracer.write(path)
    print("spans: %d written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))
    units = tracing.metric_units()
    return untraced + results, {k: (values[k], units[k]) for k in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(HERE, ".work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        sys.path.insert(0, SRC)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            try:
                seconds, lib, first = set_up(args.workload, args.seed, workdir)
            except ImportError as exc:
                print("error: cannot import ybx from %s: %s" % (SRC, exc), file=sys.stderr)
                return 2
            setup_times.append(seconds)
        if args.trace:
            results, metrics = traced(lib, args.workload, args.seed, workdir, first)
        else:
            results, rounds = closed_loop(lib, args.workload, args.seed, workdir, first,
                                          args.seconds)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(results, setup_times, rss_kib)
            print("workload %s seed %d: %d requests in %d rounds, %.3f s in requests "
                  "(%.3f s at reference speed; median calibration %.3f ms)"
                  % (args.workload, args.seed, len(results), rounds,
                     sum(r.seconds for r in results), sum(at_reference_speed(results)),
                     statistics.median(r.calibration for r in results) * 1000))
            describe_classes(results)
        failures = check_all(lib, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": all(r.req.defect for r, _ in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
