"""Small helpers shared across modules, the one file writer and number checks among them."""

import errno
import json
import math
import operator
import os
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


# energies per block of _pointwise: a block's complex temporaries stay in L2
_BLOCK = 1 << 13


def _pointwise(kernel, energy):
    """kernel(e) for a kernel of a float array giving a value, or a row, per
    energy, applied one block of _BLOCK energies at a time into one output.
    A scalar energy is evaluated as a one-point grid and gives a Python
    scalar, so every energy gets the same bits on any grid or on its own."""
    e = np.asarray(energy, dtype=float)
    if e.ndim == 0:
        return kernel(e.reshape(1))[0].item()
    if e.size <= _BLOCK:
        return kernel(e)
    flat = e.reshape(-1)
    first = kernel(flat[:_BLOCK])
    out = np.empty(flat.shape + first.shape[1:], first.dtype)
    out[:_BLOCK] = first
    for i in range(_BLOCK, flat.size, _BLOCK):
        out[i:i + _BLOCK] = kernel(flat[i:i + _BLOCK])
    return out.reshape(e.shape + first.shape[1:])


def _times(z, f):
    """z * f (z an array or numpy scalar) with z first on every grid size.
    numpy evaluates z * f as f * z where it can reuse a temporary f, and its
    complex multiply is not bitwise commutative; so f is reused here, except
    for one element, where an aliased output takes another rounding path."""
    out = f if isinstance(f, np.ndarray) and f.shape == z.shape and f.size > 1 else None
    return np.multiply(z, f, out)


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
