"""Crash-safe file writes shared by the two content-addressed stores
(:class:`~repro.harness.engine.ResultCache` and
:class:`~repro.harness.tracestore.TraceStore`).

An entry is written to ``<name>.tmp<pid>`` beside its final path and
renamed into place with ``os.replace``, so readers see either the old
entry or the complete new one, never a torn file. A write that fails
unlinks its temp file; a writer killed before the rename leaves one
behind, which :func:`clear_store` removes along with the entries.
"""

from __future__ import annotations

import os
import pathlib


def write_atomic(path: pathlib.Path, data: bytes) -> bool:
    """Atomically replace *path* with *data* (best-effort, never raises).

    Returns False when the write failed; the temp file is removed."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return True
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False


def clear_store(root: pathlib.Path, pattern: str) -> int:
    """Delete every ``<root>/*/<pattern>`` entry and every orphaned temp
    file; returns the number of entries (not temp files) removed."""
    if not root.is_dir():
        return 0
    removed = 0
    for path in sorted(root.glob(f"*/{pattern}")):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    for path in root.glob("*/*.tmp*"):
        try:
            path.unlink()
        except OSError:
            pass
    return removed
