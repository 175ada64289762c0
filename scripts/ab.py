#!/usr/bin/env python3
"""A/B runner for perfbench: the same workload and seeds on two revisions.

    python3 scripts/ab.py --base REV --workload grid_sweep --seeds 101-110
    python3 scripts/ab.py --base REV --workload cli_figures --seeds 1 2 3 --trace 1
    python3 scripts/ab.py --base REV --calls [NAME ...]

The base revision and the working tree (tracked and staged files as they
are now, via ``git stash create``; untracked files are left out and named
on stderr) are exported with ``git archive`` into temporary directories
outside the checkout, so neither run sees the other's files or this
checkout's scratch.  Pair i runs ``perfbench/run.py`` with the i-th seed
on both sides for BENCHMARK.json's ``run_seconds``, the base first on even
pairs and the head first on odd ones.  Each run records the share of CPU
time the host stole while it ran (the ``steal`` column of ``/proc/stat``,
read only) and, just before it, the fastest of several short fixed
single-thread numpy loops: the host can run a process at half speed while
it steals almost nothing, and the probe shows that.  A pair is flagged when
its two steal shares differ by more than set below, or its two probe times
by more than the probes' own spreads together.

Per metric it prints the median and quartiles of each side, the median
per-pair ratio head/base, how many pairs the head won, in the direction
BENCHMARK.json gives (ties count for neither side), and whether a gain may
be claimed: the head won at least nine tenths of the pairs and the medians
differ in its favour by more than the base's interquartile range.  It
writes the raw per-pair numbers, the fingerprints, the summary and the
two revisions compared to ``BENCH_<short HEAD rev>.json``, one key per
workload, trace mode, seed list and base, so later runs add their own.
The head is named by HEAD's short rev, with ``+wt`` and the ``git stash
create`` commit when the working tree differs from HEAD.  It exits 1 if a
run fails its gate, or if the two sides print different ``exact counts
sha256`` lines for the same seed.

With ``--calls`` it times library calls instead, in this one process: the
base revision's exported ``src/fanolap`` and the working tree's are loaded
side by side under two package names, one 32 MB array is freed first (so
glibc's trim threshold is the one a large-grid run sees), and each call
must give the same bytes on both sides, else it exits 1.  Then each call
runs in CALL_ROUNDS alternating rounds, the base first on even rounds; a
round times enough repetitions to last a few milliseconds.  Per call it
prints each side's minimum and median, the minimum ratio head/base, the
median per-round ratio and the rounds the head won.  The calls (CALLS) are
the ``grid_sweep`` calls of the pole forms, the representation comparison
and the phase sweep, on the two-resonance model at 64 and 1e6 energies.
"""

import argparse
import dataclasses
import importlib.util
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STEAL_GAP = 0.05  # flag a pair whose two runs' steal shares differ by more
PROBE_LOOPS = 9  # short loops per probe, of PROBE_PASSES sines each
PROBE_PASSES = 8


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def seeds(items):
    """Seeds from arguments like ``7`` or ``101-110``."""
    out = []
    for item in items:
        lo, _, hi = item.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def working_tree():
    """(commit to export, label) of the working tree."""
    untracked = git("ls-files", "--others", "--exclude-standard")
    if untracked:
        print("ab: untracked files are not in the head export:\n  "
              + untracked.replace("\n", "\n  "), file=sys.stderr)
    stash = git("stash", "create")
    if not stash:
        return git("rev-parse", "HEAD"), git("rev-parse", "--short", "HEAD")
    return stash, git("rev-parse", "--short", "HEAD") + "+wt"


def export(rev, into):
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal; guest time is inside user
    return fields[7], sum(fields[:8])


def probe():
    """(seconds, spread) of PROBE_LOOPS fixed single-thread numpy loops of
    PROBE_PASSES sines of 65536 doubles: the fastest loop, which is how fast
    the host runs this process just now with the interrupted loops left out,
    and the median loop's excess over it as a share of it, which is how far
    the same host spreads one probe."""
    x = np.linspace(0.0, 1.0, 1 << 16)
    y = np.empty_like(x)
    loops = []
    for _ in range(PROBE_LOOPS):
        t0 = time.perf_counter()
        for _ in range(PROBE_PASSES):
            np.sin(x, out=y)
        loops.append(time.perf_counter() - t0)
    fastest = min(loops)
    return fastest, statistics.median(loops) / fastest - 1.0


def run_once(tree, workload, seed, seconds, trace):
    probe_s, probe_spread = probe()
    before = cpu_ticks()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    after = cpu_ticks()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    lines = proc.stdout.splitlines()
    run = {"returncode": proc.returncode, "steal_share": steal, "probe_s": probe_s,
           "probe_spread": probe_spread,
           "exact_counts": None, "fingerprint": None, "result": None}
    for line in lines:
        if line.startswith("# exact counts sha256 "):
            run["exact_counts"] = line.split()[-1]
        elif line.startswith("# fingerprint "):
            run["fingerprint"] = json.loads(line[len("# fingerprint "):])
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["stderr"] = proc.stderr[-2000:]
    return run


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_flags(pair):
    """What makes a pair's two runs hard to compare: steal shares further
    apart than STEAL_GAP, or a slower probe whose excess over the faster
    one, as a share of it, exceeds the two probes' spreads added."""
    flags = []
    steal = (pair["base"]["steal_share"], pair["head"]["steal_share"])
    if None not in steal and abs(steal[0] - steal[1]) > STEAL_GAP:
        flags.append("steal differs")
    fast, slow = sorted((pair["base"]["probe_s"], pair["head"]["probe_s"]))
    spread = pair["base"]["probe_spread"] + pair["head"]["probe_spread"]
    if slow > (1.0 + spread) * fast:
        flags.append("probe differs")
    return flags


def summarize(pairs, better):
    """Per metric: each side's quartiles, the median per-pair ratio
    head/base, the pairs the head won (ties count for neither) and
    ``claim``: whether it won at least 9 of every 10 pairs and its median is
    better than the base's by more than the base's interquartile range."""
    summary = {}
    for name in pairs[0]["base"]["result"]["metrics"]:
        b = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        h = [p["head"]["result"]["metrics"][name]["value"] for p in pairs]
        ratios = [y / x if x else float("nan") for x, y in zip(b, h)]
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        qb, qh = quartiles(b), quartiles(h)
        gain = qb[1] - qh[1] if lower else qh[1] - qb[1]
        summary[name] = {"base": qb, "head": qh,
                         "ratio_median": statistics.median(ratios),
                         "head_won": wins, "pairs": len(pairs),
                         "better": "lower" if lower else "higher",
                         "claim": 10 * wins >= 9 * len(pairs) and gain > qb[2] - qb[0]}
    return summary


def write_record(out, record):
    """The record as JSON with one line per run, so the file diffs by run."""
    runs = ",\n".join("  %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                      for k, v in sorted(record["runs"].items()))
    out.write_text('{"runs": {\n%s\n}}\n' % runs, encoding="utf-8")


def fmt(x):
    return "%.4g" % x


# (label, energies, contour energies x phases) of the two grid sizes
CALL_SIZES = (("64", 64, (8, 8)), ("1e6", 1_000_000, (2001, 361)))
CALL_SECONDS = 5e-3  # a round repeats a call for at least this long
CALL_ROUNDS = 100  # 10 rounds read one 64-point call's minimum ratio as 1.076, 40 as 1.004


def call_names(label, cn, cd):
    return ("s_pole.static." + label, "s_pole.dynamic." + label,
            "compare_representations." + label, "contour.%dx%d" % (cn, cd))


CALLS = tuple(name for label, _, (cn, cd) in CALL_SIZES for name in call_names(label, cn, cd))


def load_package(src, name):
    """The package in the directory ``src``, imported as ``name``: its
    imports within the package are relative, so two trees load side by side."""
    spec = importlib.util.spec_from_file_location(
        name, Path(src) / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def call_list(pkg, sizes=CALL_SIZES):
    """Name -> zero-argument call of ``pkg`` on the grid_sweep pair (0, 1),
    (1, 3) at zero phase and energies in [-10, 10], for each of ``sizes``."""
    m = pkg.ScatteringModel((pkg.Resonance(0.0, 1.0), pkg.Resonance(1.0, 3.0)))
    rep = pkg.Representation
    calls = {}
    for label, n, (cn, cd) in sizes:
        g, cg = pkg.EnergyGrid(-10.0, 10.0, n), pkg.EnergyGrid(-10.0, 10.0, cn)
        e = g.points()
        calls.update(zip(call_names(label, cn, cd), (
            lambda e=e: pkg.s_pole(m, e, rep.POLES_STATIC),
            lambda e=e: pkg.s_pole(m, e, rep.POLES_DYNAMIC),
            lambda g=g: pkg.compare_representations(m, g),
            lambda cg=cg, cd=cd: pkg.contour(m, cg, 0.0, math.pi, cd))))
    return calls


def as_bytes(x):
    """The bytes of a call's result: an array's dtype, shape and data, a
    report's sorted JSON, or each field of a result class in turn."""
    if isinstance(x, np.ndarray):
        return repr((x.dtype.str, x.shape)).encode() + x.tobytes()
    if isinstance(x, dict):
        return json.dumps(x, sort_keys=True).encode()
    return b"".join(as_bytes(getattr(x, f.name)) for f in dataclasses.fields(x))


def differing(base, head):
    """Names of the calls whose two sides give different bytes."""
    return [name for name in base if as_bytes(base[name]()) != as_bytes(head[name]())]


def per_call(f, number):
    """Seconds per call of ``number`` calls of f in a row."""
    t0 = time.perf_counter()
    for _ in range(number):
        f()
    return (time.perf_counter() - t0) / number


def alternate(base, head, rounds):
    """(base, head) seconds per call over ``rounds`` rounds, the base first
    on even rounds, each round repeating a call for CALL_SECONDS or more."""
    number = max(1, math.ceil(CALL_SECONDS / per_call(base, 1)))
    times = ([], [])
    for i in range(rounds):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(per_call((base, head)[side], number))
    return times


def call_summary(base, head):
    """Each side's minimum and median, the minimum ratio head/base, the
    median per-round ratio and the rounds the head won (ties count for neither)."""
    return {"base_min": min(base), "base_median": statistics.median(base),
            "head_min": min(head), "head_median": statistics.median(head),
            "min_ratio": min(head) / min(base),
            "ratio_median": statistics.median(h / b for b, h in zip(base, head)),
            "head_won": sum(h < b for b, h in zip(base, head)), "rounds": len(base)}


def main_calls(base_rev, names):
    names = names or list(CALLS)
    unknown = sorted(set(names) - set(CALLS))
    if unknown:
        print("ab: unknown calls %s; known: %s" % (" ".join(unknown), " ".join(CALLS)),
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="fanolap-ab-") as tmp:
        export(git("rev-parse", base_rev), tmp)
        sides = [call_list(load_package(src, name)) for src, name in (
            (Path(tmp) / "src" / "fanolap", "fanolap_base"),
            (ROOT / "src" / "fanolap", "fanolap_head"))]
        freed = np.ones(4 << 20)  # 32 MB: glibc then keeps grid-sized blocks on its heap
        del freed
        base, head = ({n: calls[n] for n in names} for calls in sides)
        bad = differing(base, head)
        if bad:
            print("ab: the two sides give different bytes for %s" % " ".join(bad),
                  file=sys.stderr)
            return 1
        print("# base %s, head the working tree; %d rounds; bytes equal" % (base_rev, CALL_ROUNDS))
        print("| call | base min | base median | head min | head median "
              "| min ratio | per-round ratio | head won |")
        print("|---|---|---|---|---|---|---|---|")
        for name in names:
            s = call_summary(*alternate(base[name], head[name], CALL_ROUNDS))
            print("| %s | %s | %s | %s | %s | %.3f | %.3f | %d/%d |" % (
                name, *(fmt(1e6 * s[k]) + " us" for k in (
                    "base_min", "base_median", "head_min", "head_median")),
                s["min_ratio"], s["ratio_median"], s["head_won"], s["rounds"]), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", nargs="+", help="seeds, e.g. 1 2 3 or 101-110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calls", nargs="*", metavar="NAME",
                        help="time library calls in process instead (default: all of CALLS)")
    args = parser.parse_args(argv)
    if args.calls is not None:
        return main_calls(args.base, args.calls)
    if not (args.workload and args.seeds):
        parser.error("--workload and --seeds are required without --calls")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    base = (git("rev-parse", args.base), git("rev-parse", "--short", args.base))
    head = working_tree()
    pairs, ok = [], True
    with tempfile.TemporaryDirectory(prefix="fanolap-ab-") as tmp:
        trees = {}
        for side, (rev, _) in (("base", base), ("head", head)):
            trees[side] = Path(tmp) / side
            export(rev, trees[side])
        for i, seed in enumerate(seeds(args.seeds)):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, seconds, args.trace)
            for side in order:
                run = pair[side]
                if run["result"] is None or not run["result"]["correct"]:
                    ok = False
                    print("ab: %s run failed at seed %d (exit %d)\n%s" % (
                        side, seed, run["returncode"], run.get("stderr", "")), file=sys.stderr)
            if pair["base"]["exact_counts"] != pair["head"]["exact_counts"]:
                ok = False
                print("ab: exact counts differ at seed %d: base %s, head %s" % (
                    seed, pair["base"]["exact_counts"], pair["head"]["exact_counts"]),
                    file=sys.stderr)
            steal = (pair["base"]["steal_share"], pair["head"]["steal_share"])
            print("# pair %d seed %d, %s first, steal base %s head %s, "
                  "probe base %.2f (+%.0f%%) head %.2f (+%.0f%%) ms%s" % (
                      i, seed, order[0], *("-" if s is None else "%.3f" % s for s in steal),
                      1e3 * pair["base"]["probe_s"], 100 * pair["base"]["probe_spread"],
                      1e3 * pair["head"]["probe_s"], 100 * pair["head"]["probe_spread"],
                      "".join("  <- " + f for f in pair_flags(pair))), flush=True)
            pairs.append(pair)

    done = [p for p in pairs if p["base"]["result"] and p["head"]["result"]]
    summary = summarize(done, better) if done else {}
    label = "%s (seeds %s)" % (args.workload, " ".join(args.seeds))
    print("| workload | metric | base | head | per-pair ratio | head won | gain claimable |")
    print("|---|---|---|---|---|---|---|")
    for k, (name, s) in enumerate(summary.items()):
        b, h = s["base"], s["head"]
        print("| %s | %s | %s [%s, %s] | %s [%s, %s] | %.3f | %d/%d | %s |" % (
            label if k == 0 else args.workload, name, fmt(b[1]), fmt(b[0]), fmt(b[2]),
            fmt(h[1]), fmt(h[0]), fmt(h[2]), s["ratio_median"], s["head_won"], s["pairs"],
            "yes" if s["claim"] else "no"))

    out = ROOT / ("BENCH_%s.json" % git("rev-parse", "--short", "HEAD"))
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": {}}
    record["runs"]["%s.trace%d.seeds %s.base %s" % (
        args.workload, args.trace, " ".join(args.seeds), base[1])] = {
        "base": {"rev": base[0], "short": base[1]}, "head": {"rev": head[0], "short": head[1]},
        "seconds": seconds, "pairs": pairs, "summary": summary, "ok": ok}
    write_record(out, record)
    print("# wrote %s" % out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
