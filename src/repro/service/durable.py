"""The one write discipline for every durable or published file.

botmeterd keeps two kinds of file a crash must not corrupt, and this
module owns the only code that writes either:

* **Whole-file documents** — checkpoints, the estimator-kernel sidecar,
  heartbeats, metrics and health snapshots, the Sensornet address file,
  cluster markers and merged outputs.  :func:`replacing` streams the new
  content into a ``<name>.tmp.<pid>`` sibling and :func:`os.replace`\\ s
  it over the old name, so a reader (a Prometheus scraper, a
  reconnecting sensor, a resuming daemon) sees the old bytes or the new
  ones, never a torn mix.  ``fsync=True`` also forces the bytes to disk
  before the rename; only state a resume depends on (checkpoints, the
  kernel sidecar) pays for that.
* **Append-only NDJSON streams** — the landscape output, the dead-letter
  queue.  A checkpoint records how many lines each had; on resume
  :func:`truncate_lines` cuts the file back to that count in one
  :func:`os.truncate`.  The scan reads fixed-size chunks (O(1) memory)
  and the cut is idempotent: a crash before it leaves the file
  untouched, and the next restore computes the same cut.

Nothing else in the package calls :func:`os.fsync` or builds a temp
sibling for :func:`os.replace` (``tests/test_service_durable.py``
enforces this), so the write discipline is decided here, once.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

__all__ = ["replacing", "truncate_lines"]

_CHUNK = 1 << 16


@contextmanager
def replacing(path: str | Path, *, fsync: bool = False) -> Iterator[BinaryIO]:
    """Atomically replace ``path`` with what the block writes.

    Yields a binary handle on a ``<name>.tmp.<pid>`` sibling.  On a
    clean exit the handle is flushed (and fsynced with ``fsync=True``)
    and renamed over ``path``; on an exception the temp file is removed
    and ``path`` keeps its old content.
    """
    tmp = Path(f"{path}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def truncate_lines(path: str | Path, keep: int) -> None:
    """Cut ``path`` back to its first ``keep`` newline-terminated lines.

    Bytes past the ``keep``-th newline (lines a checkpoint never saw,
    including a torn partial line) are dropped.  A missing file, or one
    with fewer than ``keep`` complete lines, is left as it is.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        offset = 0  # where the current chunk starts in the file
        while keep > 0:
            chunk = fh.read(_CHUNK)
            if not chunk:
                return  # fewer than ``keep`` complete lines: nothing to cut
            cut = -1
            while keep > 0 and (cut := chunk.find(b"\n", cut + 1)) >= 0:
                keep -= 1
            offset += cut + 1 if keep == 0 else len(chunk)
    os.truncate(path, offset)
