"""Atomic file replacement for every file the package writes.

Output goes to a temporary file in the target's directory, which is renamed
over the target only once it is completely written.  A failure part-way
leaves any previous file at the path untouched and removes the temporary.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary sibling of ``path`` for writing; on clean exit it replaces ``path``."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
