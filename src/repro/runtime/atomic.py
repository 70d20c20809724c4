"""Crash-safe file writes: temp file + ``os.replace`` + directory fsync.

Several durability features — the solver checkpoint files, the bench
journal, the service job journal, the run event log — are
written by processes that can die at any instant (SIGALRM watchdogs,
per-cell deadlines, injected faults, plain OOM kills). A plain
``open(path, "w")`` that dies mid-write leaves a truncated file, which
is worse than no file at all: the resume machinery would load half a
snapshot.

:func:`atomic_write_text` guarantees all-or-nothing visibility: the
payload is written to a temporary file in the *same directory* (so the
final rename never crosses a filesystem boundary), fsynced, and moved
into place with :func:`os.replace` — atomic on POSIX and Windows. A
reader therefore sees either the complete previous version or the
complete new one, never a torn write.

Power-loss durability needs one more step the original version
missed: ``os.replace`` updates a *directory entry*, and on POSIX that
entry lives in the directory's own data blocks. Fsyncing the file
alone makes the *contents* durable but not the *name* — after a power
cut the rename itself can be rolled back and the journal entry
vanishes even though every byte of it had hit the platter.
:func:`fsync_directory` closes that window and both primitives below
call it; it is also exported for callers that create files through
other paths.

:func:`append_line` is the durable append primitive for true
append-only journals (the service job store): ``O_APPEND`` write +
file fsync + directory fsync. A crash can tear at most the final line,
which journal readers detect and drop.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["append_line", "atomic_write_text", "fsync_directory"]


def fsync_directory(directory) -> None:
    """Fsync *directory* so renames/creations inside it survive power
    loss (POSIX; a silent no-op where directories cannot be opened,
    e.g. Windows, whose ``ReplaceFile`` metadata handling differs)."""
    directory = os.fspath(directory) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX / exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dir fds
        pass
    finally:
        os.close(fd)


def append_line(path, line: str, encoding: str = "utf-8") -> None:
    """Durably append one newline-terminated *line* to *path*.

    ``O_APPEND`` makes the write a single atomic-on-POSIX append, the
    file fsync makes the bytes durable and the directory fsync makes
    the file's *existence* durable on first creation. A crash mid-call
    can tear at most the final line of the file — readers of
    append-only journals must tolerate (and drop) a torn tail.
    """
    path = os.fspath(path)
    if not line.endswith("\n"):
        line += "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode(encoding))
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_directory(os.path.dirname(path) or ".")


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace *path*'s contents with *text*.

    The write happens to a uniquely named sibling temp file which is
    fsynced and then renamed over *path* with ``os.replace``; the
    parent directory is fsynced afterwards so the rename is durable,
    not merely atomic. On any failure the temp file is removed and the
    original file (if any) is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
