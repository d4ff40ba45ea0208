"""Atomic file writes for every artifact the pipeline leaves on disk.

``write_atomic`` writes into a temporary file next to the target and renames
it over the target with ``os.replace``, so a reader sees the old file or the
new one, never a partial one. This guards against a failure of the writing
process (an exception, a full disk, a kill); there is no ``fsync``, so it
promises nothing across a power loss.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8).

    On any failure the temporary file is removed and ``path`` keeps its old
    contents, or stays absent.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    # 0o666 through the umask, as open(path, "w") would create the file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
