"""Atomic file replacement for every file the package writes.

Output goes to a temporary file in the target's directory, which is renamed
over the target only once it is completely written.  A failure part-way
leaves any previous file at the path untouched and removes the temporary.

Nothing is fsynced, by decision.  The rename is atomic against a failure of
the process, not against a crash of the operating system or a power loss:
after one, a write made shortly before may be lost, and the path may hold the
previous file or, on some file systems, an empty or truncated one.  Every file
written here can be made again from its inputs (a dataset from its spec, a
model by refitting or replaying its deletions, a report by rerunning), and a
sync per write would put a disk flush on every save, every ``unlearn`` run
included.  A caller that must not acknowledge a deletion before it is
durable syncs the file system itself.
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
