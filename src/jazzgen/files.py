"""All-or-nothing file writes for stage outputs.

A stage that dies mid-write must not leave a half-file that a later stage
loads. Data goes to a temporary file beside the target, which os.replace then
renames over it in one step, so readers see the old file or the new one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping


def _open_temp(path: Path, mode: str):
    """(temporary path beside path, its handle opened for writing)."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # O_EXCL never follows or reuses another file; 0o666 lets the umask set the
    # mode, as a plain open() would
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        return temp, open(fd, mode, encoding=None if "b" in mode else "utf-8")
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside path for writing ("w" as UTF-8 text, or
    "wb"). A clean exit renames it over path; an error deletes it and leaves
    path as it was."""
    path = Path(path)
    temp, handle = _open_temp(path, mode)
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_all(files: Mapping[Path, bytes]) -> None:
    """Write each path's bytes, all or none: every file goes to its temporary
    first, and all are renamed into place only once every write has succeeded.
    A failed write deletes this call's temporaries, leaves every path as it
    was, and raises OSError with the path it was writing as filename."""
    temps = []
    try:
        for path, data in files.items():
            temp, handle = _open_temp(Path(path), "wb")
            temps.append(temp)
            with handle:
                handle.write(data)
    except BaseException as err:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror or str(err), str(path)) from err
        raise
    for temp, path in zip(temps, files):
        os.replace(temp, path)
