"""Whole-file writes: a run killed mid-write leaves the previous file, never
a part of the new one."""

from __future__ import annotations

import contextlib
import os
import secrets


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a fresh temp file in ``path``'s directory for writing (mode "w"
    or "wb"). When the block ends cleanly the temp file replaces ``path``
    with one ``os.replace``; when it raises, the temp file is deleted and
    ``path`` is left as it was."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
