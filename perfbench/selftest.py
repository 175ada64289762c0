#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once, plain and traced; checks that the printed
metrics are exactly those BENCHMARK.json names, with matching units and
well-formed names; proves that the correctness gate counts a corrupted
output as a failure, both on the first (fully checked) pass and on a
later (digest-compared) pass; checks that exact counts repeat for one
seed; and checks that the benchmark refuses to run without the sources.
Exits non-zero on the first failed check.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import run
import workloads

TINY = {
    "cli_figures": {"n_big": 2001, "n_small": 101, "contour_n": 51, "ndelta": 7},
    "grid_sweep": {"n_big": 5000, "contour_big": (51, 9), "small_reps": 2},
    "fit_roundtrip": {"small": 41, "medium": 301, "large": 1001},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def expect(condition, message):
    if not condition:
        sys.exit("selftest FAILED: " + message)
    print("ok   " + message)


def check_metrics(spec, metrics, what):
    expect([m["name"] for m in spec] == list(metrics), "%s: metric names match BENCHMARK.json" % what)
    for m in spec:
        got = metrics[m["name"]]
        expect(NAME.fullmatch(m["name"]) and UNIT.fullmatch(got["unit"]) and got["unit"] == m["unit"],
               "%s: %s is well formed, unit %s" % (what, m["name"], got["unit"]))
        expect(isinstance(got["value"], (int, float)), "%s: %s is a number" % (what, m["name"]))


def corrupt_cli(work):
    def mutate(code):
        target = work / "trace_small.csv"
        lines = target.read_text().split("\n")
        energy, sigma = lines[-2].split(",")
        lines[-2] = "%s,%r" % (energy, float(sigma) + 0.5)
        target.write_text("\n".join(lines))
        return code
    return mutate


def corrupt_array(sigma):
    bad = sigma.copy()
    bad[0] += 1e-6
    return bad


def corrupt_fit(out):
    data, res, text = out
    model = dataclasses.replace(res.model, q=res.model.q + 1.0)
    return data, dataclasses.replace(res, model=model), text


def gate_bites(wl, mutate, work):
    ops = wl.ops(wl.setup(work, 7), inprocess=True)
    first = ops[0] if wl.name != "cli_figures" else next(o for o in ops if o.name == "trace_small")

    def bad_run(op=first):
        return mutate(op.run())
    bad_ops = [dataclasses.replace(o, run=bad_run) if o is first else o for o in ops]
    gate = run.Gate()
    run.run_pass(bad_ops, gate)
    expect(gate.failed >= 1, "%s: corrupted output fails the full check" % wl.name)
    gate = run.Gate()
    run.run_pass(ops, gate)
    expect(gate.failed == 0, "%s: clean pass has no failure" % wl.name)
    run.run_pass(bad_ops, gate)
    expect(gate.failed >= 1, "%s: corrupted output fails the repeat check" % wl.name)


WORK = run.ROOT / ".perfbench_work" / "selftest"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json names the harness's workloads")
    values = list(range(100))
    expect(run.tail(values, 100)[:2] == (89, 90), "tail picks p90 with ten samples beyond")
    digests = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, notes, problems = run.run(name, 1, 0.1, trace, sizes=TINY)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   "%s trace %d runs correct %s" % (name, trace, problems[:3]))
            key = "per_layer" if trace else "end_to_end"
            check_metrics(spec[key], result["metrics"], "%s trace %d" % (name, trace))
            if name == "fit_roundtrip" and not trace:
                digests.append([n for n in notes if n.startswith("exact counts")])
    result, notes, _ = run.run("fit_roundtrip", 1, 0.1, 0, sizes=TINY)
    expect([n for n in notes if n.startswith("exact counts")] == digests[0],
           "exact counts repeat between runs of one seed")

    wls = run.make_workloads(TINY)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        gate_bites(wls["cli_figures"], corrupt_cli(WORK / "cli"), WORK / "cli")
        gate_bites(wls["grid_sweep"], corrupt_array, WORK / "grid")
        gate_bites(wls["fit_roundtrip"], corrupt_fit, WORK / "fit")

        bare = WORK / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid_sweep",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        expect(out.returncode != 0 and "correct" not in out.stdout,
               "without the sources the benchmark exits %d and prints no result" % out.returncode)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
