"""Dead-letter queue: an NDJSON sidecar of quarantined records.

Records the daemon cannot chart are not silently discarded — each one is
appended to the dead-letter file with a machine-readable reason code, so
an operator (or the soak test) can reconcile *exactly* what was lost and
why.  Two reason codes exist today:

* ``corrupt`` — the wire reader could not decode the line (invalid
  JSON, foreign version, missing fields, undecodable bytes);
* ``late`` — a decoded lookup matched a family but arrived after its
  epoch had already been emitted (displaced beyond the reorder horizon,
  or skewed across an epoch boundary).

Entries are one JSON object per line, deterministic key order, carrying
a monotonic ``seq`` so the file can be truncated to a checkpointed
length on crash recovery — the same crash-window discipline the
landscape output uses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Mapping

from . import durable

__all__ = ["DEADLETTER_SCHEMA", "DeadLetterQueue", "read_deadletters"]

DEADLETTER_SCHEMA = "botmeterd-deadletter-v1"

_COMPACT = {"sort_keys": True, "separators": (",", ":")}

#: Quarantined raw lines are clipped to this many characters.
MAX_LINE_SNIPPET = 500


class DeadLetterQueue:
    """Append-only NDJSON quarantine with per-reason counts.

    The writer is schema-parameterised so other durable NDJSON sidecars
    with the same append/flush discipline can reuse it — the cluster
    router's per-partition failover spool (:mod:`repro.service.meshguard`)
    tags its file ``botmeterd-spool-v1`` but is otherwise this exact
    format.  Only the daemon's dead-letter queue is ever cut back with
    :meth:`truncate_to`; nothing truncates a spool.
    """

    def __init__(self, path: str | Path, schema: str = DEADLETTER_SCHEMA) -> None:
        self.path = Path(path)
        self.schema = str(schema)
        self._fh: IO[str] | None = None
        self.entries = 0
        self.counts: dict[str, int] = {}

    def _handle(self) -> IO[str]:
        if self._fh is None:
            self._fh = open(self.path, "a")
        return self._fh

    def quarantine(self, reason: str, **fields: Any) -> None:
        """Append one entry; ``fields`` carry reason-specific detail."""
        entry = {
            "schema": self.schema,
            "seq": self.entries,
            "reason": reason,
            **fields,
        }
        fh = self._handle()
        fh.write(json.dumps(entry, **_COMPACT) + "\n")
        fh.flush()
        self.entries += 1
        self.counts[reason] = self.counts.get(reason, 0) + 1

    def reset(self) -> None:
        """Truncate the sidecar to empty (fresh, un-resumed run)."""
        self.close()
        self.path.write_text("")
        self.entries = 0
        self.counts = {}

    def truncate_to(self, entries: int, counts: Mapping[str, int]) -> None:
        """Drop entries a checkpoint never saw (crash-window recovery)."""
        self.close()
        durable.truncate_lines(self.path, entries)
        self.entries = int(entries)
        self.counts = {reason: int(n) for reason, n in counts.items()}

    def export_state(self) -> dict[str, Any]:
        return {"entries": self.entries, "counts": dict(self.counts)}

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_deadletters(path: str | Path) -> list[dict[str, Any]]:
    """Parse a dead-letter sidecar back into entry dicts."""
    entries = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            entries.append(json.loads(line))
    return entries
