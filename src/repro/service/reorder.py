"""Bounded reorder buffer with explicit backpressure.

A real collector delivers the vantage-point stream *roughly* ordered:
parallel resolver threads, retransmissions and batching displace records
by seconds.  The daemon runs every record through this buffer — a
bounded min-heap keyed on the deterministic trace order
``(timestamp, server, domain)`` — so the downstream engine sees the
same order a sorted batch file would give, as long as displacement stays
within the buffer's capacity.

The buffer is the service's backpressure point.  When it is full, the
configured :class:`Backpressure` policy decides what happens:

* ``BLOCK`` — the oldest buffered record is *released* downstream
  (synchronously, this is the producer blocking until the consumer made
  room; nothing is ever lost);
* ``DROP_OLDEST`` — the oldest buffered record is *discarded* and
  counted, shedding load while keeping the freshest data.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any

from ..dns.message import ForwardedLookup

__all__ = ["Backpressure", "ReorderBuffer"]


class Backpressure(enum.Enum):
    """What a full reorder buffer does with its oldest record."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"

    @classmethod
    def parse(cls, value: "Backpressure | str") -> "Backpressure":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown backpressure policy {value!r}; options: {options}"
            ) from None


class ReorderBuffer:
    """Min-heap that restores bounded-displacement stream order.

    Args:
        capacity: maximum records held; pushing past it triggers the
            backpressure policy.
        policy: :class:`Backpressure` (or its string value).

    Counters (all monotonic): ``reordered`` — records that arrived with
    a timestamp below the highest already seen; ``dropped`` — records
    shed by ``DROP_OLDEST``; ``released`` — records delivered
    downstream.
    """

    def __init__(
        self, capacity: int = 1024, policy: Backpressure | str = Backpressure.BLOCK
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.policy = Backpressure.parse(policy)
        self._heap: list[tuple[float, str, str, int, ForwardedLookup]] = []
        self._seq = 0  # tie-break for duplicate (t, s, d) records
        self._max_seen = float("-inf")
        self.reordered = 0
        self.dropped = 0
        self.released = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def depth(self) -> int:
        """Records currently buffered."""
        return len(self._heap)

    @property
    def saturated(self) -> bool:
        """Whether the buffer is at capacity — the next push triggers
        the backpressure policy.  Upstream tiers (the network ingest
        server) poll this to pause reads instead of pushing into a
        policy decision."""
        return len(self._heap) >= self.capacity

    def _pop(self) -> ForwardedLookup:
        return heapq.heappop(self._heap)[4]

    def push(self, record: ForwardedLookup) -> list[ForwardedLookup]:
        """Buffer one record; return the records this push released."""
        if record.timestamp < self._max_seen:
            self.reordered += 1
        else:
            self._max_seen = record.timestamp
        heapq.heappush(
            self._heap,
            (record.timestamp, record.server, record.domain, self._seq, record),
        )
        self._seq += 1
        released: list[ForwardedLookup] = []
        while len(self._heap) > self.capacity:
            oldest = self._pop()
            if self.policy is Backpressure.BLOCK:
                released.append(oldest)
            else:
                self.dropped += 1
        self.released += len(released)
        return released

    def flush(self) -> list[ForwardedLookup]:
        """Release everything still buffered, in order (stream end)."""
        released = []
        while self._heap:
            released.append(self._pop())
        self.released += len(released)
        return released

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot (contents, cursor, counters)."""
        contents = [item[4] for item in sorted(self._heap)]
        return {
            "capacity": self.capacity,
            "policy": self.policy.value,
            "max_seen": None if self._max_seen == float("-inf") else self._max_seen,
            "contents": [r.to_dict() for r in contents],
            "reordered": self.reordered,
            "dropped": self.dropped,
            "released": self.released,
        }

    def import_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.capacity = int(state["capacity"])
        self.policy = Backpressure.parse(state["policy"])
        max_seen = state["max_seen"]
        self._max_seen = float("-inf") if max_seen is None else float(max_seen)
        self._heap = []
        self._seq = 0
        for data in state["contents"]:
            record = ForwardedLookup.from_dict(data)
            heapq.heappush(
                self._heap,
                (record.timestamp, record.server, record.domain, self._seq, record),
            )
            self._seq += 1
        self.reordered = int(state["reordered"])
        self.dropped = int(state["dropped"])
        self.released = int(state["released"])
