"""_util._parallel: when and on how many threads a grid's blocks run, and
what the threads hand back to the caller."""

import sys
import threading
import time

import numpy as np
import pytest

from fanolap import (
    EnergyGrid,
    Representation,
    Resonance,
    ScatteringModel,
    _util,
    contour,
    fano_q_dynamic,
    trace,
)
from fanolap._util import _BLOCK, _parallel, _pointwise


@pytest.fixture
def threaded(monkeypatch):
    """Thread work of any length, on up to 4 threads."""
    monkeypatch.setattr(_util, "_THREADED_SECONDS", 0.0)
    monkeypatch.setattr(_util, "_cpus", lambda: 4)


def test_blocks_after_the_first_run_on_concurrent_threads(threaded):
    # 3 blocks after the first and 4 CPUs: 3 threads, the caller's among
    # them, so a barrier of 3 is passed only if they run at once
    barrier = threading.Barrier(3, timeout=30)
    seen = set()

    def kernel(x):
        if x[0] > 0.0:
            seen.add(threading.get_ident())
            barrier.wait()
        return 2.0 * x
    e = np.arange(3 * _BLOCK + 5, dtype=float)
    assert _pointwise(kernel, e).tobytes() == (2.0 * e).tobytes()
    assert len(seen) == 3 and threading.get_ident() in seen


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_thread_count_is_capped_by_the_items(monkeypatch, cpus):
    monkeypatch.setattr(_util, "_cpus", lambda: cpus)
    barrier = threading.Barrier(min(cpus, 2), timeout=30)
    seen = set()

    def job(item):
        seen.add(threading.get_ident())
        barrier.wait()
    _parallel(job, range(2), _util._THREADED_SECONDS)
    assert len(seen) == min(cpus, 2)


def test_every_item_runs_once_under_contention(threaded, monkeypatch):
    # more threads than cores and a short switch interval: an item handed
    # out twice or lost shows as a count other than 1
    monkeypatch.setattr(_util, "_cpus", lambda: 8)
    counts = np.zeros(5000, dtype=int)

    def job(i):
        counts[i] += 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _parallel(job, range(counts.size), 1.0)
    finally:
        sys.setswitchinterval(interval)
    assert counts.tolist() == [5] * counts.size


def test_a_late_block_error_reaches_the_caller(threaded):
    e = np.linspace(0.0, 1.0, 3 * _BLOCK + 5)
    before = set(threading.enumerate())

    def kernel(x):
        if x[-1] == e[-1]:
            raise ZeroDivisionError("in the last block")
        return x + 1.0
    with pytest.raises(ZeroDivisionError, match="in the last block"):
        _pointwise(kernel, e)
    assert set(threading.enumerate()) == before


def _burn(seconds):
    """Spend ``seconds`` of this thread's CPU time."""
    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        pass


def test_short_work_stays_on_the_callers_thread(monkeypatch):
    monkeypatch.setattr(_util, "_cpus", lambda: 4)
    monkeypatch.setattr(_util, "_THREADED_SECONDS", 0.03)
    caller = threading.get_ident()
    e = np.arange(3 * _BLOCK + 5, dtype=float)
    seen = set()

    def kernel(x):
        seen.add(threading.get_ident())
        _burn(0.002)
        return x
    # the first block's CPU time, scaled to the other three, estimates
    # about 0.006 s for them: below the threshold
    _pointwise(kernel, e)
    _pointwise(kernel, np.zeros(_BLOCK))
    _pointwise(kernel, 0.5)
    _parallel(lambda i: seen.add(threading.get_ident()), range(8), 0.029)
    assert seen == {caller}
    # a first block of 0.02 s estimates 0.06 s for the rest: another
    # thread takes blocks, and the caller's blocks after the first wait
    # until one has
    helped = threading.Event()

    def waiting(x):
        if threading.get_ident() != caller:
            helped.set()
        elif x[0] > 0.0:
            helped.wait(timeout=30)
        else:
            _burn(0.02)
        return x
    _pointwise(waiting, e)
    assert helped.is_set()


def test_a_busy_host_does_not_lengthen_the_estimate(monkeypatch):
    # the estimate is CPU time: a first block that waits a long wall time
    # without using the CPU (as when the host runs another vCPU) keeps the
    # rest on the caller's thread
    monkeypatch.setattr(_util, "_cpus", lambda: 4)
    monkeypatch.setattr(_util, "_THREADED_SECONDS", 0.03)
    seen = set()

    def kernel(x):
        seen.add(threading.get_ident())
        if x[0] == 0.0:
            time.sleep(0.05)
        return x
    _pointwise(kernel, np.arange(3 * _BLOCK + 5, dtype=float))
    assert seen == {threading.get_ident()}


def test_cpus_counts_this_process():
    assert 1 <= _util._cpus() <= (_util.os.cpu_count() or 1)


def test_threads_start_from_one_pointwise_level(monkeypatch):
    # trace and contour hand each block of their energies to
    # s_unitary_product or cross_section, each a _pointwise of its own;
    # blocks no wider than theirs keep those from splitting, so no worker
    # thread calls _parallel again
    monkeypatch.setattr(_util, "_THREADED_SECONDS", 0.0)
    monkeypatch.setattr(_util, "_cpus", lambda: 2)
    calls = []
    inner = _util._parallel

    def counting(job, items, seconds):
        calls.append(threading.current_thread() is threading.main_thread())
        return inner(job, items, seconds)
    monkeypatch.setattr(_util, "_parallel", counting)
    m = ScatteringModel(tuple(Resonance(p, 0.3 + 0.2 * k)
                              for k, p in enumerate(np.linspace(-5.0, 5.0, 12))), 0.4)
    g = EnergyGrid(-8.0, 8.0, 1_000_000)
    trace(m, g, Representation.UNITARY_PRODUCT)
    fano_q_dynamic(m, 0, g.points())
    assert calls == [True, True]
    # five phase rows: blocks as wide as the resonance rows' would hand
    # cross_section more than _BLOCK cells
    contour(m, g, 0.0, 1.0, 5)
    assert calls == [True, True, True]
