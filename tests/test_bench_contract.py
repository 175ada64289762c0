"""What perfbench's traced runs need from the package: every function its
tracer wraps still exists, and one traced pass of each workload, at the
self-test's tiny sizes, passes its gate and yields every per-layer metric
that spans can give.  A traced run exits with an error when either fails.

perfbench is a set of scripts, not a package; these tests only import it.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# measure_traced adds these itself, from a CLI start-up probe and pass times
_NOT_FROM_SPANS = {"cli.startup_s", "cli.startup_cpu_s", "trace.overhead_ratio"}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no cache files in perfbench/
    try:
        return SimpleNamespace(**{name: importlib.import_module(name)
                                  for name in ("run", "selftest", "tracing")})
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_resolves(bench):
    missing = [(module, name) for module, name, _ in bench.tracing.TRACED
               if not callable(getattr(importlib.import_module("fanolap." + module), name, None))]
    assert missing == []


def test_one_traced_pass_of_each_workload_gives_every_layer(bench, tmp_path):
    workloads = bench.run.make_workloads(bench.selftest.TINY)
    fit_sizes = workloads["fit_roundtrip"].sizes
    found = set()
    for name, wl in workloads.items():
        gate = bench.run.Gate()
        recorder = bench.run.traced_pass(wl, 1, tmp_path / name, gate)
        assert (gate.failed, gate.problems[:3]) == (0, []), name
        found |= set(bench.tracing.layer_metrics(recorder.spans, 1, gate.counts, fit_sizes))
    assert found == set(bench.tracing.LAYER_UNITS) - _NOT_FROM_SPANS
