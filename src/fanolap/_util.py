"""Small helpers shared across modules, the package's one file writer among them."""

import errno
import json
import os
import tempfile
from pathlib import Path

import numpy as np


def scalarize(values, like, kind=float):
    """Return a Python scalar when the caller passed a scalar energy.

    ``like`` is the original argument; array-like input passes through as an
    ndarray so every evaluator works transparently on grids.
    """
    arr = np.asarray(values)
    if np.ndim(like) == 0:
        return kind(arr[()])
    return arr


def _json_text(obj):
    """The JSON layout of every output: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_all(outputs):
    """Write each (path, text) through a temporary file renamed into place,
    creating parent directories.  All files are staged before the first
    rename, so a failed write lands none; each gets open()'s new-file mode."""
    umask = os.umask(0o022)  # the umask can only be read by setting it
    os.umask(umask)
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
            fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=str(path.parent))
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            # mkstemp creates the file with mode 0o600
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
