"""All-or-nothing file writes for stage outputs.

A stage that dies mid-write must not leave a half-file that a later stage
loads, nor a mix of new and old outputs. Every file goes to a temporary file
beside its target first; only once all are written does os.replace rename
each over its target in one step, so readers see an old file or a new one.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping


def write_all(files: Mapping[Path, bytes]) -> None:
    """Write each path's bytes, all or none: every file goes to its temporary
    first, and all are renamed into place only once every write has succeeded.
    A failed write or rename deletes this call's temporaries not yet renamed
    and raises OSError with the path it was writing as filename. A failed
    write leaves every path as it was; files renamed before a failed rename
    stay renamed, and the rest of the paths stay as they were."""
    temps: dict[Path, Path] = {}
    try:
        for path, data in files.items():
            path = Path(path)
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            # O_EXCL never follows or reuses another file; 0o666 lets the
            # umask set the mode, as a plain open() would
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps[path] = temp
            with open(fd, "wb") as handle:
                handle.write(data)
        for path in list(temps):
            os.replace(temps[path], path)
            del temps[path]
    except BaseException as err:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror or str(err), str(path)) from err
        raise
