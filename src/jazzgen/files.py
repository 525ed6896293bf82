"""All-or-nothing file writes for stage outputs.

A stage that dies mid-write must not leave a half-file that a later stage
loads. Data goes to a temporary file beside the target, which os.replace then
renames over it in one step, so readers see the old file or the new one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside path for writing ("w" as UTF-8 text, or
    "wb"). A clean exit renames it over path; an error deletes it and leaves
    path as it was."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # O_EXCL never follows or reuses another file; 0o666 lets the umask set the
    # mode, as a plain open() would
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
