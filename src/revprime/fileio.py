"""Atomic file writes shared by the CLI reports and the sieve cache."""

from __future__ import annotations

import os
import tempfile

__all__ = ["atomic_write"]


def atomic_write(path: str, data) -> None:
    """Replace path with data so readers see the old file or the new one.

    data is text (written as UTF-8), a bytes-like object, or a list of
    bytes-like chunks.  The temp file comes from mkstemp in the target
    directory, so concurrent writers never share one, and it is removed
    if anything fails before the rename.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = data if isinstance(data, list) else [data]
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
