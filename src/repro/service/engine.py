"""Sharded live landscape-charting engine.

One vantage-point stream, many concurrent DGA families: the engine
demultiplexes each released record into per-``(family × local-server)``
:class:`~repro.core.streaming.StreamingBotMeter` shards, advances a
single global watermark, and emits one merged per-family
:class:`~repro.core.botmeter.Landscape` per closed epoch — exactly what
the batch :class:`~repro.core.botmeter.BotMeter` would produce over the
same records, which is the subsystem's correctness anchor.

Records enter through a bounded :class:`~repro.service.reorder.ReorderBuffer`
(the backpressure point), so a boundedly-shuffled collector stream and a
sorted batch file drive the shards identically.  Epoch closure is
watermark-based, like the underlying shards: epoch ``d`` is emitted once
the global watermark passes ``(d+1)·86400 + grace``.

The engine checkpoints: :meth:`export_state` /
:meth:`import_state` round-trip the watermark, the epoch cursor, the
reorder buffer and every shard, so a killed daemon resumes bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..core.botmeter import Landscape, make_estimator
from ..core.estimator import Estimator
from ..core.kernels import shared_cache
from ..core.streaming import StreamingBotMeter
from ..core.taxonomy import recommended_estimator
from ..dga.base import Dga
from ..dga.families import make_family
from ..dns.message import ForwardedLookup
from ..timebase import SECONDS_PER_DAY, Timeline
from .metrics import MetricsRegistry
from .reorder import Backpressure, ReorderBuffer
from .workers import WorkerConfig, WorkerPool

#: Records buffered per worker outbox before an eager pipe flush; keeps
#: workers busy mid-batch while amortising the pickle/send overhead.
_OUTBOX_FLUSH = 512

__all__ = [
    "ENGINE_STATE_SCHEMA",
    "EpochLandscape",
    "ShardedLandscapeEngine",
    "validate_engine_state",
]

ENGINE_STATE_SCHEMA = "botmeterd-engine-v1"


def validate_engine_state(state: Mapping[str, Any]) -> Mapping[str, Any]:
    """Structurally validate an :meth:`ShardedLandscapeEngine.export_state`
    document and return it.

    The cluster reshard re-keys shard lists *between* engines — this is
    the checkpoint-surgery guard that a synthesized state is something
    :meth:`~ShardedLandscapeEngine.import_state` will accept, raising
    :class:`ValueError` with the offending key instead of failing deep
    inside a partition restart.
    """
    if not isinstance(state, Mapping):
        raise ValueError(f"engine state must be a mapping, got {type(state).__name__}")
    schema = state.get("schema")
    if schema != ENGINE_STATE_SCHEMA:
        raise ValueError(f"unknown engine state schema {schema!r}")
    families = state.get("families")
    if not isinstance(families, list) or not all(
        isinstance(f, str) for f in families
    ):
        raise ValueError(f"engine state families must be a list of names: {families!r}")
    watermark = state.get("watermark")
    if watermark is not None and not isinstance(watermark, (int, float)):
        raise ValueError(f"engine state watermark must be null or a number: {watermark!r}")
    for key in ("next_epoch_to_emit", "late_total", "late_mark", "dropped_mark"):
        value = state.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"engine state {key} must be an int, got {value!r}")
    if not isinstance(state.get("finalized"), bool):
        raise ValueError("engine state finalized must be a bool")
    reorder = state.get("reorder")
    if not isinstance(reorder, Mapping) or "contents" not in reorder:
        raise ValueError("engine state reorder must carry the buffer contents")
    dynamic = state.get("dynamic", [])
    if not isinstance(dynamic, list):
        raise ValueError("engine state dynamic must be a list of registration specs")
    for spec in dynamic:
        if not isinstance(spec, Mapping) or not isinstance(spec.get("name"), str):
            raise ValueError(f"malformed dynamic-family spec {spec!r}")
    shards = state.get("shards")
    if not isinstance(shards, list):
        raise ValueError("engine state shards must be a list")
    family_set = set(families)
    for entry in shards:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ValueError(f"malformed shard entry {entry!r}")
        family, server, shard_state = entry
        if family not in family_set:
            raise ValueError(f"shard entry for unknown family {family!r}")
        if not isinstance(server, str):
            raise ValueError(f"shard entry server must be a string: {server!r}")
        if not isinstance(shard_state, Mapping) or "next_epoch_to_close" not in shard_state:
            raise ValueError(
                f"shard state for ({family!r}, {server!r}) lacks next_epoch_to_close"
            )
    return state


@dataclass(frozen=True)
class EpochLandscape:
    """One closed epoch of one family's landscape.

    ``quality`` carries the degradation deltas attributed to this
    emission (``late`` and ``dropped`` records since the previous one);
    the daemon folds in its reader-level ``quarantined`` delta before
    the row hits the wire.  Deltas are charged exactly once — to the
    *first* row of each emission — so summing the annotations over a
    whole series reconstructs the stream totals exactly (the soak
    test's reconciliation).  ``None`` and all-zero mean the same thing —
    a clean epoch — so batch emissions stay byte-identical.
    """

    family: str
    day_index: int
    landscape: Landscape
    quality: dict[str, int] | None = field(default=None, compare=False)


class _FamilyRouter:
    """Decides whether a record belongs to a family (and to which epoch).

    Mirrors :meth:`StreamingBotMeter._match` — a domain matches the
    window of its timestamp's epoch, or the previous day's window
    (midnight-straddling activations) — so routing and shard matching
    never disagree.
    """

    def __init__(
        self,
        dga: Dga,
        timeline: Timeline,
        detection_windows: Mapping[int, frozenset[str]] | None,
    ) -> None:
        self._dga = dga
        self._timeline = timeline
        self._detection_windows = detection_windows
        self._cache: dict[int, frozenset[str]] = {}

    def window_for(self, day: int) -> frozenset[str]:
        if day < 0:
            return frozenset()
        cached = self._cache.get(day)
        if cached is not None:
            return cached
        if self._detection_windows is not None and day in self._detection_windows:
            window = frozenset(self._detection_windows[day])
        else:
            window = frozenset(self._dga.nxdomains(self._timeline.date_for_day(day)))
        if len(self._cache) > 8:
            for stale in [d for d in self._cache if d < day - 2]:
                del self._cache[stale]
        self._cache[day] = window
        return window

    def match_day(self, record: ForwardedLookup) -> int | None:
        day = int(record.timestamp // SECONDS_PER_DAY)
        if record.domain in self.window_for(day):
            return day
        if record.domain in self.window_for(day - 1):
            return day - 1
        return None


class ShardedLandscapeEngine:
    """Multi-family streaming landscape charting with sharded state.

    Args:
        dgas: ``family name -> Dga`` — every family charted concurrently.
        estimator: ``"auto"`` (per-family paper recommendation), a
            library name, or an :class:`Estimator` instance shared by
            all shards.
        detection_windows: optional ``family -> {day -> detected NXDs}``.
        grace: seconds past an epoch's end before it is emitted.
        reorder_capacity / policy: the bounded reorder buffer and its
            backpressure policy (see :mod:`repro.service.reorder`).
        metrics: a :class:`MetricsRegistry` to publish into (one is
            created if omitted; exposed as :attr:`metrics`).
        on_late: optional sink ``(record, matched_day) -> None`` called
            for every matched record that arrived after its epoch was
            emitted (the daemon wires this to the dead-letter queue).
        ingest_workers: shard-worker processes.  ``1`` (default) keeps
            every shard in-process; ``N > 1`` routes each record's
            server to one of N workers (:mod:`repro.service.workers`)
            and merges their epoch closures back in watermark order —
            the emitted series is byte-identical at any worker count.
        kernel_spill: optional path to an estimator-kernel ``.npz``
            sidecar that ingest workers warm from at boot and spill to
            at :meth:`close` (see :mod:`repro.core.kernels`).
        tracer: optional :class:`~repro.service.tracing.StageTracer`.
            When set, the engine records ``route`` and ``estimate``
            spans, absorbs worker-side estimate histograms at every
            sync, tracks per-worker queue depth, and publishes the
            slow-shard top-K gauge.  Purely observational: the emitted
            landscape stream is byte-identical with or without it.
    """

    #: How many of the slowest (family × server) shards the
    #: ``botmeterd_slow_shard_estimate_ns`` gauge surfaces.
    SLOW_SHARD_TOP_K = 5

    def __init__(
        self,
        dgas: Mapping[str, Dga],
        estimator: Estimator | str = "auto",
        detection_windows: Mapping[str, Mapping[int, frozenset[str]]] | None = None,
        negative_ttl: float = 7_200.0,
        timestamp_granularity: float = 0.1,
        timeline: Timeline | None = None,
        grace: float = 900.0,
        reorder_capacity: int = 1024,
        policy: Backpressure | str = Backpressure.BLOCK,
        metrics: MetricsRegistry | None = None,
        on_late: Callable[[ForwardedLookup, int], None] | None = None,
        ingest_workers: int = 1,
        kernel_spill: str | None = None,
        tracer: Any = None,
    ) -> None:
        if not dgas:
            raise ValueError("need at least one DGA family")
        self._dgas = dict(dgas)
        self._families = sorted(self._dgas)
        self._timeline = timeline or Timeline()
        self._negative_ttl = negative_ttl
        self._granularity = timestamp_granularity
        self._grace = grace
        self._detection_windows = {
            family: dict(windows)
            for family, windows in (detection_windows or {}).items()
        }
        self._estimator_spec = estimator
        self._dynamic: dict[str, dict[str, Any]] = {}
        self._estimators: dict[str, Estimator] = {}
        for family, dga in self._dgas.items():
            if isinstance(estimator, str):
                self._estimators[family] = (
                    recommended_estimator(dga)
                    if estimator == "auto"
                    else make_estimator(estimator)
                )
            else:
                self._estimators[family] = estimator
        self._routers = {
            family: _FamilyRouter(
                dga, self._timeline, self._detection_windows.get(family)
            )
            for family, dga in self._dgas.items()
        }
        self._reorder = ReorderBuffer(reorder_capacity, policy)
        self._tracer = tracer
        self._shard_estimate_ns: dict[tuple[str, str], int] = {}
        self._inflight: list[int] = []
        self._shards: dict[tuple[str, str], StreamingBotMeter] = {}
        self._closed: dict[tuple[str, int], dict[str, Landscape]] = {}
        self._watermark = float("-inf")
        self._next_epoch_to_emit = 0
        self._finalized = False
        self._on_late = on_late
        self._late_total = 0
        self._late_mark = 0
        self._dropped_mark = 0

        self._ingest_workers = max(1, int(ingest_workers))
        self._kernel_spill = str(kernel_spill) if kernel_spill is not None else None
        self._pool: WorkerPool | None = None
        self._outboxes: list[list[tuple[int, float, str, str]]] = []
        self._dispatch_seq = 0
        self._worker_failures: list[int] = []
        self._failures_total = 0
        self._shard_cursors: dict[tuple[str, str], int] = {}
        self._pending_import: list[list[Any]] | None = None
        if self._kernel_spill and self._ingest_workers == 1:
            # Serial mode runs the estimators in-process: warm the
            # shared cache here (workers warm their own copies).
            shared_cache().load(self._kernel_spill)
        for family in self._families:
            shared_cache().warm_family(self._dgas[family].params)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._c_ingested = m.counter(
            "botmeterd_records_ingested_total", "Records accepted by the engine."
        )
        self._c_matched = m.counter(
            "botmeterd_records_matched_total", "Records routed to a family shard."
        )
        self._c_late = m.counter(
            "botmeterd_records_late_total",
            "Matched records that arrived after their epoch was emitted.",
        )
        self._c_reordered = m.counter(
            "botmeterd_records_reordered_total",
            "Records that arrived behind the highest timestamp seen.",
        )
        self._c_dropped = m.counter(
            "botmeterd_records_dropped_total",
            "Records shed by the drop-oldest backpressure policy.",
        )
        self._c_epochs = m.counter(
            "botmeterd_epochs_closed_total", "Per-family epochs emitted."
        )
        self._c_fallbacks = m.counter(
            "botmeterd_estimate_fallbacks_total",
            "Epoch closures where the estimator failed and the matched "
            "count was emitted as a floor estimate.",
        )
        self._g_depth = m.gauge(
            "botmeterd_reorder_buffer_depth", "Records held in the reorder buffer."
        )
        self._g_lag = m.gauge(
            "botmeterd_watermark_lag_seconds",
            "Global watermark minus the start of the shard's oldest open epoch.",
        )
        self._g_slow = (
            m.gauge(
                "botmeterd_slow_shard_estimate_ns",
                "Sampled estimate time accumulated by the top-K slowest "
                "(family x server) shards.",
            )
            if tracer is not None
            else None
        )

    # -- introspection -------------------------------------------------------

    @property
    def families(self) -> list[str]:
        return list(self._families)

    @property
    def watermark(self) -> float:
        return self._watermark

    @property
    def next_epoch_to_emit(self) -> int:
        return self._next_epoch_to_emit

    @property
    def parallel(self) -> bool:
        """Whether ingest is spread over worker processes."""
        return self._ingest_workers > 1

    @property
    def ingest_workers(self) -> int:
        return self._ingest_workers

    @property
    def shard_keys(self) -> list[tuple[str, str]]:
        """Existing ``(family, server)`` shards, sorted."""
        if self.parallel:
            return sorted(self._shard_cursors)
        return sorted(self._shards)

    def estimator_name(self, family: str) -> str:
        return self._estimators[family].name

    def dga_for(self, family: str):
        """The generator behind ``family`` (dynamic families included)."""
        return self._dgas[family]

    # -- dynamic taxonomy registry -------------------------------------------

    def register_family(
        self, name: str, dga: Any, spec: Mapping[str, Any] | None = None
    ) -> None:
        """Onboard a family live: new id, kernel warm, no restart.

        The registry exists for the unknown-DGA case — a cluster a D3
        pipeline identifies mid-stream (or a re-keyed campaign announced
        by a ``register`` control line).  The family joins the taxonomy
        immediately: its router matches from the next submitted record,
        its shards are born pre-skipped past already-emitted epochs (so
        the rectangular landscape stays monotone), and the estimator
        follows the engine's construction-time policy.

        ``spec`` (``{"name", "base", "seed"}``) is recorded so
        :meth:`export_state` can carry the registration and
        :meth:`import_state` can rebuild the identical generator on a
        restored engine — dynamic families survive a SIGKILL/resume.

        Determinism: in parallel mode every outbox is flushed *before*
        the registration is broadcast, so the worker pipes order all
        earlier records ahead of the new router exactly as the serial
        path does.
        """
        if self._finalized:
            raise RuntimeError("cannot register a family on a finalized engine")
        if name in self._dgas:
            raise ValueError(f"family {name!r} is already registered")
        self._dgas[name] = dga
        self._families = sorted(self._dgas)
        if isinstance(self._estimator_spec, str):
            self._estimators[name] = (
                recommended_estimator(dga)
                if self._estimator_spec == "auto"
                else make_estimator(self._estimator_spec)
            )
        else:
            self._estimators[name] = self._estimator_spec
        self._routers[name] = _FamilyRouter(
            dga, self._timeline, self._detection_windows.get(name)
        )
        shared_cache().warm_family(dga.params)
        self._dynamic[name] = (
            dict(spec) if spec is not None else {"name": name}
        )
        if self._pool is not None:
            for index in range(self._ingest_workers):
                self._flush_outbox(index)
            for index in range(self._ingest_workers):
                self._pool.send(index, ("register", name, dga, self._estimators[name]))

    # -- sharding ------------------------------------------------------------

    def _shard(self, family: str, server: str) -> StreamingBotMeter:
        key = (family, server)
        shard = self._shards.get(key)
        if shard is None:
            shard = StreamingBotMeter(
                self._dgas[family],
                estimator=self._estimators[family],
                detection_windows=self._detection_windows.get(family),
                negative_ttl=self._negative_ttl,
                timestamp_granularity=self._granularity,
                timeline=self._timeline,
                grace=self._grace,
                on_epoch=lambda day, landscape, _key=key: self._closed.setdefault(
                    (_key[0], day), {}
                ).__setitem__(_key[1], landscape),
            )
            if self._next_epoch_to_emit:
                # A shard born mid-stream must not re-close already
                # emitted epochs.
                shard.skip_to_epoch(self._next_epoch_to_emit)
            self._shards[key] = shard
        return shard

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        config = WorkerConfig(
            dgas=self._dgas,
            estimators=self._estimators,
            detection_windows=self._detection_windows,
            negative_ttl=self._negative_ttl,
            timestamp_granularity=self._granularity,
            timeline=self._timeline,
            grace=self._grace,
            kernel_spill=self._kernel_spill,
            trace_sample=self._tracer.sample if self._tracer is not None else 0,
        )
        self._pool = WorkerPool(config, self._ingest_workers, tracer=self._tracer)
        self._outboxes = [[] for _ in range(self._ingest_workers)]
        self._worker_failures = [0] * self._ingest_workers
        self._inflight = [0] * self._ingest_workers
        if self._pending_import is not None:
            self._distribute_import()

    def _distribute_import(self) -> None:
        """Hand each worker its slice of a restored checkpoint."""
        groups: list[list[list[Any]]] = [[] for _ in range(self._ingest_workers)]
        for entry in self._pending_import or []:
            groups[self._pool.worker_for(entry[1])].append(entry)
        replies = self._pool.request_each(
            [
                ("import", groups[index], self._next_epoch_to_emit)
                for index in range(self._ingest_workers)
            ]
        )
        for index, reply in enumerate(replies):
            self._worker_failures[index] = reply["failures"]
        self._failures_total = sum(self._worker_failures)
        self._pending_import = None

    # -- ingest --------------------------------------------------------------

    @property
    def _next_deadline(self) -> float:
        """Watermark at which the next epoch to emit closes."""
        return (self._next_epoch_to_emit + 1) * SECONDS_PER_DAY + self._grace

    def submit(self, record: ForwardedLookup) -> list[EpochLandscape]:
        """Buffer one record; return any epochs its arrival closed."""
        return self.submit_batch([record])

    def submit_batch(
        self,
        records: list[ForwardedLookup],
        on_emit: Callable[[int, list[EpochLandscape]], None] | None = None,
    ) -> list[EpochLandscape]:
        """Buffer a batch; return every epoch the batch closed, in order.

        ``on_emit(index, epochs)`` fires as each record's emission
        happens, with the index of the triggering record — the daemon
        uses it to attribute reader-level quarantine deltas to the right
        emission even when the trigger sits mid-batch.

        Every ingest path (one record, a decoded chunk, a wire-v2 frame,
        in-process or worker shards) runs this one loop, so the emitted
        series is a function of the record sequence alone:

        * each record is pushed through the reorder buffer and its
          released records are routed (:meth:`_route`);
        * emission is checked after every record against the next
          epoch's precomputed deadline — one float compare unless the
          watermark has passed it;
        * the ingested/matched/late/reordered/dropped counters and the
          depth gauge are folded into the registry once per batch;
        * reorder and route are timed on the tracer's sampling grid,
          reserved once per batch (:meth:`StageTracer.plan`).
        """
        if self._finalized:
            raise RuntimeError("engine already finalized")
        if self.parallel:
            self._ensure_pool()
        out: list[EpochLandscape] = []
        push = self._reorder.push
        route = self._route
        tally: dict[str, int] = {}
        tracer = self._tracer
        next_reorder = next_route = -1
        if tracer is not None:
            clock = tracer.clock
            reorder_sampled = iter(tracer.plan("reorder", len(records)))
            route_sampled = iter(tracer.plan("route", len(records)))
            next_reorder = next(reorder_sampled, -1)
            next_route = next(route_sampled, -1)
        deadline = self._next_deadline
        late_before = self._late_total
        pushed = 0
        try:
            for index, record in enumerate(records):
                if index == next_reorder:
                    t0 = clock()
                    released = push(record)
                    tracer.record("reorder", clock() - t0, records=len(released))
                    next_reorder = next(reorder_sampled, -1)
                else:
                    released = push(record)
                pushed += 1
                if index == next_route:
                    t0 = clock()
                    route(released, tally)
                    tracer.record("route", clock() - t0, records=len(released))
                    next_route = next(route_sampled, -1)
                elif released:
                    route(released, tally)
                if self._watermark >= deadline:
                    epochs = self._emittable()
                    deadline = self._next_deadline
                    if on_emit is not None:
                        on_emit(index, epochs)
                    out.extend(epochs)
        finally:
            self._fold_counters(pushed, tally, late_before)
        return out

    def _route(self, released: list[ForwardedLookup], tally: dict[str, int]) -> None:
        """Advance the watermark over released records and hand each to
        its shards: matched families in-process (tallied per family for
        :meth:`_fold_counters`), or the worker that owns its server."""
        routers = self._routers
        for record in released:
            if record.timestamp > self._watermark:
                self._watermark = record.timestamp
            if self._pool is not None:
                self._dispatch(record)
                continue
            for family in self._families:
                matched_day = routers[family].match_day(record)
                if matched_day is None:
                    continue
                tally[family] = tally.get(family, 0) + 1
                if matched_day < self._next_epoch_to_emit:
                    self._late_total += 1
                    if self._on_late is not None:
                        self._on_late(record, matched_day)
                self._shard(family, record.server).ingest(record)

    def _fold_counters(
        self, ingested: int, tally: dict[str, int], late_before: int
    ) -> None:
        """Publish one batch's ingest counters (workers report their
        matched and late records at each sync instead)."""
        if ingested:
            self._c_ingested.inc(ingested)
        for family in sorted(tally):
            self._c_matched.inc(tally[family], family=family)
        if not self.parallel and self._late_total > late_before:
            self._c_late.inc(self._late_total - late_before)
        self._c_reordered.set_total(self._reorder.reordered)
        self._c_dropped.set_total(self._reorder.dropped)
        self._g_depth.set(self._reorder.depth)

    def _advance_shards(self, target: float) -> None:
        """Advance every in-process shard, timing each as an ``estimate``
        span (serial mode; workers time their own shards)."""
        tracer = self._tracer
        if tracer is None:
            for shard in self._shards.values():
                shard.advance_watermark(target)
            return
        for (family, server), shard in self._shards.items():
            t0 = tracer.start("estimate")
            shard.advance_watermark(target)
            dt = tracer.stop("estimate", t0, family=family, server=server)
            if dt:
                key = (family, server)
                self._shard_estimate_ns[key] = (
                    self._shard_estimate_ns.get(key, 0) + dt
                )

    def _emittable(self) -> list[EpochLandscape]:
        """Emit every epoch the watermark has passed."""
        out: list[EpochLandscape] = []
        if self._pool is not None and self._watermark >= self._next_deadline:
            self._sync_workers(("close", self._watermark))
        while self._watermark >= self._next_deadline:
            self._advance_shards(self._watermark)
            out.extend(self._emit_day(self._next_epoch_to_emit))
            self._next_epoch_to_emit += 1
        return out

    # -- parallel ingest ------------------------------------------------------

    def _dispatch(self, record: ForwardedLookup) -> None:
        index = self._pool.worker_for(record.server)
        outbox = self._outboxes[index]
        outbox.append(
            (self._dispatch_seq, record.timestamp, record.server, record.domain)
        )
        self._dispatch_seq += 1
        if self._tracer is not None:
            self._inflight[index] += 1
        if len(outbox) >= _OUTBOX_FLUSH:
            self._flush_outbox(index)

    def _flush_outbox(self, index: int) -> None:
        outbox = self._outboxes[index]
        if outbox:
            self._pool.send(index, ("batch", outbox, self._next_epoch_to_emit))
            self._outboxes[index] = []
            if self._tracer is not None:
                self._tracer.worker_queue(index, self._inflight[index])

    def _sync_workers(self, message: tuple) -> list[dict[str, Any]]:
        """Flush every outbox, broadcast ``message``, merge the replies.

        Pipe ordering guarantees the workers saw every dispatched record
        before answering, so the merged reply is a consistent cut of the
        whole sharded state.
        """
        for index in range(len(self._outboxes)):
            self._flush_outbox(index)
        replies = self._pool.request(message)
        lates: list[tuple[int, tuple[float, str, str], int]] = []
        for index, reply in enumerate(replies):
            for family in sorted(reply["matched"]):
                self._c_matched.inc(reply["matched"][family], family=family)
            lates.extend(reply["late"])
            for family, server, day, landscape in reply["closures"]:
                self._closed.setdefault((family, day), {})[server] = landscape
            self._worker_failures[index] = reply["failures"]
            for family, server, cursor in reply["cursors"]:
                self._shard_cursors[(family, server)] = cursor
            trace = reply.get("trace")
            if trace is not None and self._tracer is not None:
                self._tracer.absorb_worker(index, trace)
                for family, server, ns in trace["shard_ns"]:
                    key = (family, server)
                    self._shard_estimate_ns[key] = (
                        self._shard_estimate_ns.get(key, 0) + ns
                    )
            if self._tracer is not None:
                # The sync reply acknowledges every dispatched record.
                self._inflight[index] = 0
                self._tracer.worker_queue(index, 0)
        self._failures_total = sum(self._worker_failures)
        # Dispatch order restores the serial engine's late-record stream
        # (and therefore the dead-letter queue) exactly.
        for seq, (timestamp, server, domain), matched_day in sorted(lates):
            self._c_late.inc()
            self._late_total += 1
            if self._on_late is not None:
                self._on_late(ForwardedLookup(timestamp, server, domain), matched_day)
        return replies

    def _emit_day(self, day: int) -> list[EpochLandscape]:
        # Degradation deltas since the previous emission, charged once
        # (to the day's first family row) so series-wide sums stay
        # exact.  Zero on a clean stream, so the annotation stays
        # byte-identical to a batch emission.
        late_delta = self._late_total - self._late_mark
        dropped_delta = self._reorder.dropped - self._dropped_mark
        self._late_mark = self._late_total
        self._dropped_mark = self._reorder.dropped
        self._c_fallbacks.set_total(self._fallback_total())
        results = []
        for index, family in enumerate(self._families):
            quality = (
                {"late": late_delta, "dropped": dropped_delta}
                if index == 0
                else {"late": 0, "dropped": 0}
            )
            merged = Landscape(
                dga_name=self._dgas[family].name,
                estimator_name=self._estimators[family].name,
            )
            closed = self._closed.pop((family, day), {})
            for server in sorted(closed):
                merged.per_server.update(closed[server].per_server)
                merged.matched_counts.update(closed[server].matched_counts)
            self._c_epochs.inc(family=family)
            results.append(EpochLandscape(family, day, merged, quality))
        return results

    def _fallback_total(self) -> int:
        if self.parallel:
            return self._failures_total
        return sum(
            shard.stats["estimate_failures"] for shard in self._shards.values()
        )

    def finalize(self) -> list[EpochLandscape]:
        """Drain the buffer and emit every epoch through the watermark's
        day (stream end).  Quiet ``(family, day)`` cells emit empty
        landscapes, so the series is rectangular: families × days.

        Every flushed record is routed before any epoch closes, then all
        remaining days emit in one ascending sweep — at any worker count.
        """
        if self._finalized:
            return []
        out: list[EpochLandscape] = []
        flushed = self._reorder.flush()
        if self.parallel and (
            flushed
            or self._pending_import is not None
            or self._watermark > float("-inf")
        ):
            self._ensure_pool()
        tally: dict[str, int] = {}
        late_before = self._late_total
        self._route(flushed, tally)
        self._fold_counters(0, tally, late_before)
        if self._watermark > float("-inf"):
            last_day = int(self._watermark // SECONDS_PER_DAY)
            target = (last_day + 1) * SECONDS_PER_DAY + self._grace
            if self._pool is not None:
                self._sync_workers(("finalize", target))
            self._advance_shards(target)
            while self._next_epoch_to_emit <= last_day:
                out.extend(self._emit_day(self._next_epoch_to_emit))
                self._next_epoch_to_emit += 1
        self._finalized = True
        self.refresh_gauges()
        return out

    def close(self) -> None:
        """Shut down ingest workers (each spills its kernel cache) and,
        in serial mode, spill the in-process cache.  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        elif self._kernel_spill and not self.parallel:
            shared_cache().spill(self._kernel_spill)

    # -- observability -------------------------------------------------------

    def refresh_gauges(self) -> None:
        """Publish the point-in-time gauges (buffer depth, shard lag)."""
        self._g_depth.set(self._reorder.depth)
        if self.parallel:
            cursors = sorted(self._shard_cursors.items())
        else:
            cursors = [
                (key, shard.next_epoch_to_close)
                for key, shard in sorted(self._shards.items())
            ]
        for (family, server), next_epoch in cursors:
            if self._watermark == float("-inf"):
                lag = 0.0
            else:
                lag = max(
                    0.0,
                    self._watermark - next_epoch * SECONDS_PER_DAY,
                )
            self._g_lag.set(lag, family=family, server=server)
        if self._g_slow is not None and self._shard_estimate_ns:
            top = sorted(
                self._shard_estimate_ns.items(), key=lambda kv: (-kv[1], kv[0])
            )[: self.SLOW_SHARD_TOP_K]
            for (family, server), ns in top:
                self._g_slow.set(ns, family=family, server=server)

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot of the whole engine.

        Only legal between :meth:`submit` calls (epoch emission is
        synchronous, so there is never half-merged state to capture).
        In parallel mode the workers are synced first, so the exported
        snapshot is the **same schema** — a checkpoint written at one
        worker count restores at any other.
        """
        if self.parallel:
            shards = self._export_shards_parallel()
        else:
            shards = [
                [family, server, shard.export_state()]
                for (family, server), shard in sorted(self._shards.items())
            ]
        if self._closed:
            raise RuntimeError(
                "cannot checkpoint with un-emitted shard closures pending"
            )
        state: dict[str, Any] = {
            "schema": ENGINE_STATE_SCHEMA,
            "families": list(self._families),
            "watermark": None if self._watermark == float("-inf") else self._watermark,
            "next_epoch_to_emit": self._next_epoch_to_emit,
            "finalized": self._finalized,
            "late_total": self._late_total,
            "late_mark": self._late_mark,
            "dropped_mark": self._dropped_mark,
            "reorder": self._reorder.export_state(),
            "shards": shards,
        }
        if self._dynamic:
            # Registration specs for live-onboarded families, in sorted
            # order — import_state rebuilds each generator from its
            # (base, seed) before the family-set equality check.
            state["dynamic"] = [
                dict(self._dynamic[name]) for name in sorted(self._dynamic)
            ]
        return state

    def _export_shards_parallel(self) -> list[list[Any]]:
        if self._pool is None:
            # Nothing dispatched yet: the restored (or empty) snapshot
            # is still the authoritative shard state.
            return [list(entry) for entry in self._pending_import or []]
        replies = self._sync_workers(("export",))
        merged: list[list[Any]] = []
        for reply in replies:
            merged.extend(reply["shards"])
        merged.sort(key=lambda entry: (entry[0], entry[1]))
        return merged

    def import_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`export_state` output onto a same-config engine."""
        schema = state.get("schema")
        if schema != ENGINE_STATE_SCHEMA:
            raise ValueError(f"unknown engine state schema {schema!r}")
        for spec in state.get("dynamic", ()):
            name = str(spec["name"])
            if name not in self._dgas:
                self.register_family(
                    name,
                    make_family(str(spec["base"]), int(spec.get("seed", 0))),
                    spec=spec,
                )
        if sorted(state["families"]) != self._families:
            raise ValueError(
                f"checkpoint families {sorted(state['families'])} do not match "
                f"engine families {self._families}"
            )
        watermark = state["watermark"]
        self._watermark = float("-inf") if watermark is None else float(watermark)
        self._next_epoch_to_emit = int(state["next_epoch_to_emit"])
        self._finalized = bool(state["finalized"])
        self._late_total = int(state.get("late_total", 0))
        self._late_mark = int(state.get("late_mark", 0))
        self._dropped_mark = int(state.get("dropped_mark", 0))
        self._reorder.import_state(state["reorder"])
        self._shards = {}
        self._closed = {}
        if self.parallel:
            self._pending_import = [list(entry) for entry in state["shards"]]
            self._failures_total = sum(
                int(entry[2].get("estimate_failures", 0))
                for entry in self._pending_import
            )
            self._shard_cursors = {
                (entry[0], entry[1]): int(entry[2]["next_epoch_to_close"])
                for entry in self._pending_import
            }
            if self._pool is not None:
                self._distribute_import()
        else:
            for family, server, shard_state in state["shards"]:
                # _shard() pre-skips emitted epochs for newborns; import
                # then overwrites the whole cursor/pending state anyway.
                self._shard(family, server).import_state(shard_state)
        self.refresh_gauges()
