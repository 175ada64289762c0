"""Small helpers shared across modules, the one file writer and number checks among them."""

import errno
import json
import math
import operator
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from .errors import ValidationError


# what a number from outside may be; bool is an int but never a number here
_REAL_TYPES = (int, float, np.integer, np.floating)


def _real(value, field, positive=False):
    """float(value) of a Python or numpy int or float (not a bool), which
    must be finite, and > 0 when ``positive``."""
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise ValidationError("%s must be a real number, got %r" % (field, value))
    try:
        x = float(value)
    except OverflowError:  # a Python int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (x > 0.0 or not positive)):
        rule = " and > 0" if positive else ""
        raise ValidationError("%s must be finite%s, got %r" % (field, rule, x))
    return x


# a width below the smallest normal double makes a pole E - position + i*width/2
# whose reciprocal numpy's complex division overflows: S is nan at the resonance
_WIDTH_MIN = sys.float_info.min
# numpy's exp(2j*x) doubles x first, which overflows from 2**1023 on: nan
_PHASE_MAX = 2.0 ** 1023


def _width(value, field):
    """_real(value, field, positive=True), at least the smallest normal double."""
    x = _real(value, field, positive=True)
    if x < _WIDTH_MIN:
        raise ValidationError("%s must be >= %r, the smallest normal double, got %r"
                              % (field, _WIDTH_MIN, x))
    return x


def _phase(value, field):
    """_real(value, field), a background phase below 2**1023 in magnitude."""
    x = _real(value, field)
    if abs(x) >= _PHASE_MAX:
        raise ValidationError("|%s| must be < 2**1023, got %r" % (field, x))
    return x


def _count(value, field, least=2):
    """A count: a Python or numpy integer (not a bool) of at least ``least``."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ValidationError("%s must be an integer, got %r" % (field, value))
    if n < least:
        raise ValidationError("%s must be >= %d, got %r" % (field, least, n))
    return n


# numpy refuses an array of more than this many complex values with a
# ValueError and a traceback, not the MemoryError the CLI reports in one line
_MAX_CELLS = np.iinfo(np.intp).max // 16


def _cells(n, field):
    """n, a count of grid cells, if an array of n complex values may be asked for."""
    if n > _MAX_CELLS:
        raise ValidationError("%s must be <= %d cells, got %d" % (field, _MAX_CELLS, n))
    return n


# energies per block of _pointwise: a block's complex temporaries (256 KB
# each) stay in L2, and on two threads a block is long enough that handing
# the interpreter lock back and forth between numpy calls costs little
# (blocks of 8192 took 21-25% longer on two threads, 5% longer on one)
_BLOCK = 1 << 14
# cells per block of one row per resonance: 2 MB, a core's L2, for a 12-resonance
# q~ phase; at 1e6 energies, half or twice as many cells took 10-15% longer
_CELLS = 1 << 16


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Work that would take less CPU time than this on one thread stays on the
# caller's thread.  Starting and joining a thread took 0.35-0.43 ms median
# and up to 5.6 ms at p90 on a 2-vCPU VM, and every numpy call hands the
# interpreter lock over, a contended handover waiting until the host runs
# the other vCPU: on minutes when the host stole CPU time,
# threaded grid_sweep runs spread several times as wide as serial ones.
# So only long work pays for that risk.  There, the blocks after the
# first of the 1e6-energy grid_sweep calls were estimated at 7-45 ms with
# one or two resonances (most 1.05-1.3 times as fast on two threads, one
# 1.9) and at 80-200 ms with twelve or in compare_representations
# (1.2-1.6 times as fast); 60 ms leaves a third of room on either side.
_THREADED_SECONDS = 0.06


def _parallel(job, items, seconds):
    """job(item) for each of a sized iterable of items that together would
    take ``seconds`` of CPU time on one thread: on the caller's thread
    below _THREADED_SECONDS, else on min(_cpus(), len(items)) threads, the
    caller's among them; the others are started here and joined before
    this returns.  Each thread runs under the caller's numpy error state
    (a new thread does not inherit it), and the first exception a job
    raises is raised here once every thread has stopped.  Jobs must write
    disjoint outputs; then the order they run in changes no bit."""
    n = min(_cpus(), len(items)) if seconds >= _THREADED_SECONDS else 1
    if n <= 1:
        for item in items:
            job(item)
        return
    err = np.geterr()
    todo, end = iter(items), object()
    lock = threading.Lock()
    failed = []

    def work():
        with np.errstate(**err):
            while not failed:
                with lock:
                    item = next(todo, end)
                if item is end:
                    return
                try:
                    job(item)
                except BaseException as exc:
                    failed.append(exc)

    threads = [threading.Thread(target=work) for _ in range(n - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[0]


def _pointwise(kernel, energy, dtype=float, rows=1):
    """kernel(e) of a 1-d float array giving a value, or a row, per energy,
    into one output shaped like the energies, by blocks of _CELLS // rows
    energies (at most _BLOCK) for a kernel holding ``rows`` values each.  A
    one-energy block (a scalar gives a Python scalar) is evaluated as two:
    numpy multiplies one complex element and sums an (N, 1) array along other
    rounding paths.  Blocks after the first go to _parallel with the first's
    CPU time scaled to them; ``dtype=None`` keeps a complex S complex."""
    e = np.asarray(energy, dtype=dtype)
    if e.ndim == 1 and 1 < e.size <= _BLOCK and e.size * rows <= _CELLS:
        return kernel(e)
    width = min(_BLOCK, max(2, _CELLS // rows))

    def run(x):
        return kernel(x) if x.size != 1 else kernel(x.repeat(2))[:1]
    flat = e.reshape(-1)
    t0 = time.thread_time()
    out = run(flat[:width])
    if flat.size > width:
        rest = (time.thread_time() - t0) * (flat.size - width) / width
        first, out = out, np.empty(flat.shape + out.shape[1:], out.dtype)
        out[:width] = first
        del first  # not held while the other blocks run

        def block(i):
            out[i:i + width] = run(flat[i:i + width])
        _parallel(block, range(width, flat.size, width), rest)
    return out[0].item() if e.ndim == 0 else out.reshape(e.shape + out.shape[1:])


def _read_text(path, what):
    """A file's UTF-8 text; bytes that are not UTF-8 raise ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ValidationError("%s %s: %s" % (what, path, err)) from err


def _json_text(obj):
    """The JSON layout of every output: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_all(outputs):
    """Write each (path, text) through a temporary file renamed into place,
    creating parent directories.  All files are staged before the first
    rename, so a failed write lands none; each gets open()'s new-file mode."""
    staged = []
    try:
        for path, text in outputs:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():
                # catch this before any rename so a multi-file command
                # either lands completely or not at all
                raise IsADirectoryError(
                    errno.EISDIR, "output path is a directory", str(path)
                )
            tmp = path.with_name(path.name + "." + os.urandom(8).hex())
            # mode 0o666 lets the kernel apply the umask, as open(path, "w") does
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
