#!/usr/bin/env python3
"""fanolap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli_figures --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with spans around fanolap's public
functions and prints the per-layer metrics.  Lines starting with ``#``
are for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory; nothing is
installed.  Scratch files go to ``.perfbench_work/`` and are removed at
the end.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> unit of every end-to-end metric (see README.md for the mapping
# to each workload)
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "small_op_p50_us": "us",
    "mpts_per_s": "Mpt/s",
}

SETUP_REPEATS = 5
MIN_TRACED_PASSES = 3
STARTUP_SAMPLES = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_library():
    """Import fanolap from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "fanolap" / "__init__.py").is_file():
        sys.exit("perfbench: no fanolap sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import fanolap
    if Path(fanolap.__file__).resolve().parent != (SRC / "fanolap").resolve():
        sys.exit("perfbench: imported fanolap from %s, not from %s" % (fanolap.__file__, SRC))


class Gate:
    """Correctness gate, applied to every operation outside the timed region.

    The first output of an operation gets the full check; every later one
    must reproduce it exactly (same digest), and so must its exact counts
    (points, bytes written, fit iterations).  Anything else is a failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}  # op name -> exact counts of its checked output
        self._digest = {}

    def judge(self, op, result, error):
        self.attempted += 1
        problems = [error] if error else []
        if not problems:
            try:
                digest, counts = op.summary(result)
                if op.name not in self._digest:
                    problems = op.check(result)
                elif digest != self._digest[op.name]:
                    problems = ["output differs from the checked pass"]
                if not problems and self.counts.setdefault(op.name, counts) != counts:
                    problems = ["exact counts %r differ from %r" % (counts, self.counts[op.name])]
                if not problems:
                    self._digest.setdefault(op.name, digest)
            except Exception as err:  # a check that cannot read the output is a failure
                problems = ["%s: %s" % (type(err).__name__, err)]
        if problems:
            self.failed += 1
            self.problems += ["%s: %s" % (op.name, p) for p in problems]


def run_pass(ops, gate, recorder=None):
    """Run each operation once in order; return their wall times."""
    times = []
    for op in ops:
        result = error = None
        t0 = time.perf_counter()
        try:
            with recorder.op(op.name) if recorder else nullcontext():
                result = op.run()
        except Exception as err:  # a raising operation is a failed operation
            error = "%s: %s" % (type(err).__name__, err)
        times.append(time.perf_counter() - t0)
        gate.judge(op, result, error)
    return times


def tail(values, guaranteed):
    """Highest of PERCENTILES with at least ten samples beyond it.

    The percentile is chosen from the sample count every run is guaranteed
    (min passes x operations per pass), so that it is the same in every run
    of a workload; the value is the nearest-rank percentile of ``values``.
    """
    pct = PERCENTILES[0]
    for p in PERCENTILES:
        if guaranteed - math.ceil(p / 100.0 * guaranteed) >= 10:
            pct = p
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], pct, len(ordered) - rank


def measure(wl, seed, seconds, work):
    """Untimed-checked, timed passes of one workload: end-to-end metrics."""
    ops = wl.ops(wl.setup(work / "inputs", seed))
    gate = Gate()
    run_pass(ops, gate)  # warm-up: caches fill, lazy set-up finishes
    # Set-up is timed after the warm-up, in the same steady state as the
    # passes; on a shared machine the first seconds of load often run faster.
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(work / ("setup%d" % i), seed)
        setups.append(time.perf_counter() - t0)
        shutil.rmtree(work / ("setup%d" % i), ignore_errors=True)
    passes, big, big_p50, small, points = [], [], [], [], 0
    while sum(passes) < seconds or len(passes) < wl.min_passes:
        times = run_pass(ops, gate)
        passes.append(sum(times))
        points += sum(op.points for op in ops)
        pass_big = [t for op, t in zip(ops, times) if not op.small]
        big += pass_big
        big_p50.append(statistics.median(pass_big))
        small.append(statistics.mean(t for op, t in zip(ops, times) if op.small))
    guaranteed = wl.min_passes * sum(1 for op in ops if not op.small)
    tail_s, pct, beyond = tail(big, guaranteed)
    who = resource.RUSAGE_CHILDREN if wl.peak_rss_children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "pass_s": statistics.median(passes),
        # Per-pass medians first: the mix has few operation types, and a
        # median over all samples at once sits in the gap between two types.
        "op_p50_s": statistics.median(big_p50),
        "op_tail_s": tail_s,
        # median over passes of each pass's mean small-call time
        "small_op_p50_us": statistics.median(small) * 1e6,
        "mpts_per_s": points / sum(passes) * 1e-6,
    }
    notes = [
        "passes %d, operations %d (%d small) per pass" % (len(passes), len(ops),
                                                          sum(op.small for op in ops)),
        "op_tail_s is p%g of %d samples, %d beyond it" % (pct, len(big), beyond),
        "setup_s is the median of %d set-ups: %s" % (
            SETUP_REPEATS, ", ".join("%.4f" % s for s in setups)),
    ]
    return metrics, gate, notes


def cli_startup():
    """Wall and CPU seconds of a process that only imports fanolap.cli."""
    env = workloads.child_env()
    walls, cpus = [], []
    for _ in range(STARTUP_SAMPLES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fanolap.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpus.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return statistics.median(walls), statistics.median(cpus)


def traced_pass(wl, seed, work, gate):
    """Set up a workload and record one traced pass of it, after a warm-up."""
    ops = wl.ops(wl.setup(work, seed), inprocess=True)
    run_pass(ops, gate)
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        run_pass(ops, gate, recorder)
    return recorder


def measure_traced(wl, seed, seconds, work, workloads):
    """Per-layer metrics: alternate plain and traced in-process passes.

    Metrics the workload's own spans cannot give (a layer it never enters)
    are taken from one traced pass of the workload that exercises that
    layer, so every traced run prints every per-layer metric.
    """
    ops = wl.ops(wl.setup(work / wl.name, seed), inprocess=True)
    gate = Gate()
    run_pass(ops, gate)
    recorder = tracing.Recorder()
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds or len(traced) < MIN_TRACED_PASSES:
        plain.append(sum(run_pass(ops, gate)))
        with tracing.instrument(recorder):
            traced.append(sum(run_pass(ops, gate, recorder)))
    fit_sizes = workloads["fit_roundtrip"].sizes
    metrics = tracing.layer_metrics(recorder.spans, len(traced), gate.counts, fit_sizes)
    source = dict.fromkeys(metrics, wl.name)
    notes = ["traced passes %d; module self-time shares: %s" % (len(traced), ", ".join(
        "%s %.1f%%" % (k, 100 * v) for k, v in tracing.module_self_shares(recorder.spans).items()))]
    for other in ("grid_sweep", "fit_roundtrip", "cli_figures"):
        missing = set(tracing.LAYER_UNITS) - set(metrics)
        if other == wl.name or not missing:
            continue
        rec = traced_pass(workloads[other], seed, work / other, gate)
        filled = tracing.layer_metrics(rec.spans, 1, gate.counts, fit_sizes)
        for name in missing & set(filled):
            metrics[name] = filled[name]
            source[name] = other
    metrics["cli.startup_s"], metrics["cli.startup_cpu_s"] = cli_startup()
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    for other in sorted(set(source.values()) - {wl.name}):
        notes.append("from a traced pass of %s: %s" % (
            other, ", ".join(sorted(k for k, v in source.items() if v == other))))
    return metrics, gate, notes


def fingerprint(seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except Exception:  # older numpy has no dict mode; the version still identifies it
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, stdin=subprocess.DEVNULL)
        commit = out.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "fanolap").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def make_workloads(sizes=None):
    sizes = sizes or {}
    return {name: cls(sizes.get(name)) for name, cls in workloads.WORKLOADS.items()}


def run(name, seed, seconds, trace, sizes=None):
    """Run one workload; return the result object and the note lines."""
    wls = make_workloads(sizes)
    work = ROOT / ".perfbench_work" / ("%s-%d" % (name, os.getpid()))
    work.mkdir(parents=True)
    try:
        if trace:
            metrics, gate, notes = measure_traced(wls[name], seed, seconds, work, wls)
            units = tracing.LAYER_UNITS
        else:
            metrics, gate, notes = measure(wls[name], seed, seconds, work)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    counts = json.dumps(gate.counts, sort_keys=True).encode()
    notes += [
        "error_rate %.6g (%d failed of %d attempted)" % (
            gate.failed / gate.attempted, gate.failed, gate.attempted),
        "exact counts sha256 %s" % hashlib.sha256(counts).hexdigest()[:16],
    ]
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, notes, gate.problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("# fingerprint " + json.dumps(fingerprint(args.seed), sort_keys=True), flush=True)
    result, notes, problems = run(args.workload, args.seed, args.seconds, args.trace)
    for problem in problems[:20]:
        print("FAIL " + problem, file=sys.stderr)
    print("# workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in notes:
        print("# " + line)
    for k, m in result["metrics"].items():
        print("# %-48s %.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


load_library()
import tracing  # noqa: E402  (needs fanolap on sys.path)
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
