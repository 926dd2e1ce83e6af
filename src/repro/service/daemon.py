"""botmeterd — the long-running landscape-charting daemon.

Ties the subsystem together: a tailing NDJSON reader (file or stdin)
feeds the sharded engine; closed epochs stream out as NDJSON landscape
lines plus one structured log line each; counters and gauges are
exported in Prometheus text and JSON health form; and the whole mutable
state — input byte offset, emitted-line count, engine, metrics —
checkpoints atomically every ``checkpoint_every`` records, so a
``SIGKILL``-ed daemon resumes from its last checkpoint and the combined
output is byte-identical to an uninterrupted run.

Two entry points: :meth:`BotMeterDaemon.run` (the ``serve``/``replay``
loop) and :func:`batch_series` (the offline reference — per-epoch batch
:class:`~repro.core.botmeter.BotMeter` charts in the daemon's emission
order), whose equality with the streamed series is the subsystem's
acceptance test.
"""

from __future__ import annotations

import datetime as _dt
import json
import sys
import time
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..core.botmeter import Landscape, make_estimator
from ..core.estimator import EstimationContext, Estimator, MatchedLookup
from ..core.matcher import DgaDomainMatcher
from ..core.taxonomy import recommended_estimator
from ..dga.base import Dga
from ..dga.families import family_names, make_family
from ..dns.message import ForwardedLookup
from ..sim.trace import sort_observable
from ..timebase import SECONDS_PER_DAY, Timeline
from .checkpoint import CheckpointError, CheckpointStore
from .deadletter import MAX_LINE_SNIPPET, DeadLetterQueue
from .engine import EpochLandscape, ShardedLandscapeEngine
from .faults import FaultInjector, InjectedFault, UpstreamStallError
from .liveview import StreamingDetector
from .metrics import MetricsRegistry
from .reorder import Backpressure
from .supervisor import HealthMonitor
from .tracing import DEFAULT_SAMPLE, StageTracer, TraceSink
from .wire import NdjsonBatchDecoder, NdjsonReader, encode_landscape
from .wire2 import Wire2BatchDecoder, sniff_wire2

__all__ = ["BotMeterDaemon", "batch_series", "families_from_header"]


def families_from_header(header: Mapping[str, Any]) -> dict[str, Dga]:
    """Instantiate the DGA families a trace header declares."""
    entries = header.get("families")
    if not entries:
        raise ValueError("trace header declares no families")
    dgas: dict[str, Dga] = {}
    for entry in entries:
        dgas[entry["name"]] = make_family(entry["name"], int(entry.get("seed", 0)))
    return dgas


def _timeline_from_header(header: Mapping[str, Any] | None) -> Timeline | None:
    if header and "origin" in header:
        return Timeline(_dt.date.fromisoformat(header["origin"]))
    return None


def batch_series(
    records: Iterable[ForwardedLookup],
    dgas: Mapping[str, Dga],
    estimator: Estimator | str = "auto",
    detection_windows: Mapping[str, Mapping[int, frozenset[str]]] | None = None,
    negative_ttl: float = 7_200.0,
    timestamp_granularity: float = 0.1,
    timeline: Timeline | None = None,
) -> list[EpochLandscape]:
    """The offline reference series: one batch chart per (day, family).

    Each lookup is matched against the whole trace's daily windows by
    :class:`~repro.core.matcher.DgaDomainMatcher` and charged to its
    matched epoch — for a midnight-straddling activation that is the
    previous day, whatever its timestamp.  Each (epoch, server) cell is
    then estimated in timestamp order over that epoch's day window.
    Emission order matches the streaming engine — days ascending,
    families sorted within each day — so two serialized series can be
    compared line by line.
    """
    ordered = sort_observable(records)
    if not ordered:
        return []
    timeline = timeline or Timeline()
    days = range(int(ordered[-1].timestamp // SECONDS_PER_DAY) + 1)
    charted: dict[tuple[str, int], Landscape] = {}
    for family, dga in dgas.items():
        windows = (detection_windows or {}).get(family)
        if isinstance(estimator, str):
            family_estimator = (
                recommended_estimator(dga)
                if estimator == "auto"
                else make_estimator(estimator)
            )
        else:
            family_estimator = estimator
        matcher = DgaDomainMatcher(
            {
                day: (
                    windows[day]
                    if windows is not None and day in windows
                    else frozenset(dga.nxdomains(timeline.date_for_day(day)))
                )
                for day in days
            }
        )
        cells: dict[int, dict[str, list[MatchedLookup]]] = {}
        for match in matcher.match(ordered):
            cells.setdefault(match.day_index, {}).setdefault(match.server, []).append(
                match
            )
        for day in days:
            context = EstimationContext(
                dga=dga,
                timeline=timeline,
                window_start=day * SECONDS_PER_DAY,
                window_end=(day + 1) * SECONDS_PER_DAY,
                negative_ttl=negative_ttl,
                timestamp_granularity=timestamp_granularity,
                detected_nxds_by_day=windows,
            )
            landscape = Landscape(
                dga_name=dga.name, estimator_name=family_estimator.name
            )
            for server, matches in sorted(cells.get(day, {}).items()):
                matches.sort(key=lambda m: m.timestamp)
                landscape.per_server[server] = family_estimator.estimate(
                    matches, context
                )
                landscape.matched_counts[server] = len(matches)
            charted[(family, day)] = landscape
    return [
        EpochLandscape(family, day, charted[(family, day)])
        for day in days
        for family in sorted(dgas)
    ]


class BotMeterDaemon:
    """Follow a vantage-point NDJSON stream and chart landscapes live.

    Args:
        input_path: NDJSON trace file, or ``"-"`` for stdin.
        out_path: landscape NDJSON destination (``None`` = stdout).
        checkpoint_path: enables checkpointed recovery (requires a
            seekable input to resume).
        families: ``name -> Dga``; ``None`` reads them from the trace
            header line.
        follow: keep tailing the input at EOF instead of finalizing.
        idle_timeout: in follow mode, finalize after this many seconds
            with no new data (``None`` = follow forever).
        checkpoint_every: records between checkpoints.
        throttle: seconds to sleep per record (crash-drill pacing).
        max_corrupt: corrupt-line budget of the wire reader.
        estimator / grace / negative_ttl / timestamp_granularity /
        reorder_capacity / policy / timeline: forwarded to
            :class:`ShardedLandscapeEngine` (granularity ``None`` defers
            to the trace header, falling back to 0.1 s).
        metrics_path: write the Prometheus text exposition here at every
            checkpoint and at exit.
        health_path: same cadence, JSON health snapshot.
        log_stream: structured (JSON-lines) event log, default stderr.
        fault_injector: optional seeded :class:`FaultInjector` the raw
            input lines are pushed through before the wire reader (fault
            drills and the soak test); its state rides the checkpoint.
        deadletter_path: NDJSON sidecar quarantining every corrupt and
            late record with a reason code.
        health: optional :class:`HealthMonitor` publishing the pipeline
            health state machine through :attr:`metrics`.
        watchdog_deadline: in follow mode, seconds of ingest silence
            before the daemon checkpoints and raises
            :class:`UpstreamStallError` for the supervisor to restart it.
        batch_lines: records held per engine submission (the flush
            size).  It selects no code path: every source feeds the same
            batched enqueue, and emission, checkpoint and quarantine
            attribution are batch-framing-independent — output bytes
            never change.
        ingest_workers: shard-worker processes for the engine (``1`` =
            in-process).  Output bytes never change with worker count.
        trace_out: optional NDJSON span-event sink (``--trace-out``);
            a fresh run truncates it, a checkpoint resume appends.
        trace_sample: time 1 of every N spans per stage (default
            :data:`~repro.service.tracing.DEFAULT_SAMPLE`); ``0``
            disables Stagewatch entirely (no tracer, no histograms).
            Tracing is purely observational — the landscape NDJSON is
            byte-identical with it on or off.
        finalize_at_eof: when ``False``, the end of the stream *drains*
            instead of finalizing: held batches flush and the open
            engine state (reorder buffer included) checkpoints, but no
            epochs are force-closed.  The cluster tier replays a stream
            in segments and only the last one finalizes.
        d3: inline detection mode — ``None`` (historical behaviour: the
            stream *is* the D3 output), ``"lexical"`` (run the committed
            char-bigram classifier on every record; benign verdicts
            never reach the engine, and quality annotations carry the
            measured ``d3_missed``/``d3_fp``/``d3_miss_rate``), or
            ``"oracle"`` (admit everything, but tally detections — the
            zero-miss baseline an accuracy comparison replays against).
        d3_threshold: lexical decision threshold (score margin).
        d3_training: training-fixture override for the lexical model.
        doh_adoption: estimated encrypted-DNS adoption fraction; every
            emitted epoch's quality carries it as ``doh_loss`` and the
            derived ``loss`` compounds it, so interval widening corrects
            for bots invisible at the border vantage.  ``None`` reads
            the trace header's ``doh_adoption`` (0 when absent).
    """

    def __init__(
        self,
        input_path: str | Path,
        out_path: str | Path | None = None,
        checkpoint_path: str | Path | None = None,
        families: Mapping[str, Dga] | None = None,
        estimator: Estimator | str = "auto",
        grace: float = 900.0,
        negative_ttl: float = 7_200.0,
        timestamp_granularity: float | None = None,
        timeline: Timeline | None = None,
        reorder_capacity: int = 1024,
        policy: Backpressure | str = Backpressure.BLOCK,
        checkpoint_every: int = 500,
        follow: bool = False,
        idle_timeout: float | None = None,
        poll_interval: float = 0.1,
        throttle: float = 0.0,
        max_corrupt: int | None = None,
        metrics_path: str | Path | None = None,
        health_path: str | Path | None = None,
        log_stream: IO[str] | None = None,
        fault_injector: FaultInjector | None = None,
        deadletter_path: str | Path | None = None,
        health: HealthMonitor | None = None,
        watchdog_deadline: float | None = None,
        batch_lines: int = 1,
        ingest_workers: int = 1,
        trace_out: str | Path | None = None,
        trace_sample: int = DEFAULT_SAMPLE,
        finalize_at_eof: bool = True,
        d3: str | None = None,
        d3_threshold: float = 0.0,
        d3_training: str | Path | None = None,
        doh_adoption: float | None = None,
    ) -> None:
        self.input_path = str(input_path)
        self.out_path = Path(out_path) if out_path is not None else None
        self.store = (
            CheckpointStore(checkpoint_path) if checkpoint_path is not None else None
        )
        self._families = dict(families) if families is not None else None
        self._estimator = estimator
        self._grace = grace
        self._negative_ttl = negative_ttl
        self._granularity = timestamp_granularity
        self._timeline = timeline
        self._reorder_capacity = reorder_capacity
        self._policy = policy
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.follow = follow
        self.idle_timeout = idle_timeout
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.metrics = MetricsRegistry()
        self._c_skipped = self.metrics.counter(
            "botmeterd_records_skipped_total",
            "Blank or corrupt wire lines absorbed by the reader.",
        )
        self.trace_out = Path(trace_out) if trace_out is not None else None
        self.trace_sample = max(0, int(trace_sample))
        self.tracer = (
            StageTracer(metrics=self.metrics, sample=self.trace_sample)
            if self.trace_sample > 0
            else None
        )
        self._trace_sink: TraceSink | None = None
        self.injector = fault_injector
        self.deadletter = (
            DeadLetterQueue(deadletter_path) if deadletter_path is not None else None
        )
        self.health = health
        if self.health is not None:
            self.health.bind(self.metrics)
        self.watchdog_deadline = watchdog_deadline
        self.reader = NdjsonReader(
            max_corrupt=max_corrupt, on_corrupt=self._quarantine_corrupt
        )
        #: Decode positions (``reader.records`` at the time) of the
        #: corrupt lines of the run being decoded; see :meth:`_ingest`.
        self._corrupt_journal: list[int] = []
        self.engine: ShardedLandscapeEngine | None = None
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.health_path = Path(health_path) if health_path else None
        self._log = log_stream if log_stream is not None else sys.stderr
        self.landscapes_emitted = 0
        self.records_consumed = 0
        self._since_checkpoint = 0
        self._quarantined_mark = 0
        self._out_fh: IO[str] | None = None
        self.resumed = False
        self.batch_lines = max(1, int(batch_lines))
        self.ingest_workers = max(1, int(ingest_workers))
        self.finalize_at_eof = bool(finalize_at_eof)
        self._pending_records: list[ForwardedLookup] = []
        self._pending_marks: list[int] = []
        #: Optional provider of extra checkpoint keys (the network ingest
        #: tier rides its per-sensor cursor map on the daemon checkpoint).
        self.extra_checkpoint_state: Any = None
        # -- Liveview: inline D3, DoH visibility loss, dynamic registry --
        if d3 is not None and d3 not in ("lexical", "oracle"):
            raise ValueError(f"unknown d3 mode {d3!r} (choose 'lexical' or 'oracle')")
        self.d3_mode = d3
        self._d3_threshold = float(d3_threshold)
        self._d3_training = d3_training
        self._d3: StreamingDetector | None = None
        #: Per-record ``(missed, truth, fp)`` snapshots journaled at
        #: enqueue time — emission deltas must not depend on how far the
        #: batched decoder ran ahead of submission (the framing anchor).
        self._pending_d3: list[tuple[int, int, int] | None] = []
        self._d3_missed_mark = 0
        self._d3_fp_mark = 0
        self._doh_adoption = doh_adoption  # None: read from the header
        #: ``register`` control lines journaled at decode position,
        #: applied when consumption reaches them (decode-ahead safe).
        self._pending_controls: list[tuple[int, dict[str, Any]]] = []
        self.reader.on_control = self._on_control_line

    # -- plumbing ------------------------------------------------------------

    def _log_event(self, event: str, **fields: Any) -> None:
        payload = {"event": event, **fields}
        print(json.dumps(payload, sort_keys=True), file=self._log, flush=True)

    def _quarantine_corrupt(self, line: str, reason: str) -> None:
        self._corrupt_journal.append(self.reader.records)
        if self.deadletter is not None:
            self.deadletter.quarantine(
                "corrupt", line=line[:MAX_LINE_SNIPPET], why=reason
            )
        if self.health is not None:
            self.health.record_quarantined()

    def _quarantine_late(self, record: ForwardedLookup, matched_day: int) -> None:
        if self.deadletter is not None:
            self.deadletter.quarantine(
                "late",
                timestamp=record.timestamp,
                server=record.server,
                domain=record.domain,
                epoch=matched_day,
            )
        if self.health is not None:
            self.health.record_quarantined()

    def _resolve_stream_config(self) -> None:
        """Fix families/granularity/timeline (and the DoH adoption rate)
        from explicit arguments or the trace header — shared by the
        engine and the inline D3 detector, whichever is built first."""
        if self._families is None:
            if self.reader.header is None:
                raise ValueError(
                    "no --family given and the trace has no header line"
                )
            self._families = families_from_header(self.reader.header)
        header = self.reader.header or {}
        if self._granularity is None:
            self._granularity = float(header.get("granularity", 0.1))
        if self._timeline is None:
            self._timeline = _timeline_from_header(header) or Timeline()
        if self._doh_adoption is None:
            self._doh_adoption = float(header.get("doh_adoption", 0.0) or 0.0)

    def _ensure_d3(self) -> StreamingDetector | None:
        if self.d3_mode is not None and self._d3 is None:
            self._resolve_stream_config()
            assert self._families is not None and self._timeline is not None
            self._d3 = StreamingDetector(
                self._families,
                self._timeline,
                mode=self.d3_mode,
                threshold=self._d3_threshold,
                training_path=self._d3_training,
                metrics=self.metrics,
            )
        return self._d3

    def _ensure_engine(self) -> ShardedLandscapeEngine:
        if self.engine is None:
            self._resolve_stream_config()
            self.engine = ShardedLandscapeEngine(
                self._families,
                estimator=self._estimator,
                negative_ttl=self._negative_ttl,
                timestamp_granularity=self._granularity,
                timeline=self._timeline,
                grace=self._grace,
                reorder_capacity=self._reorder_capacity,
                policy=self._policy,
                metrics=self.metrics,
                on_late=self._quarantine_late,
                ingest_workers=self.ingest_workers,
                kernel_spill=(
                    str(self.store.register_sidecar("kernels.npz"))
                    if self.store is not None
                    else None
                ),
                tracer=self.tracer,
            )
        return self.engine

    def _emit(
        self,
        epochs: Sequence[EpochLandscape],
        corrupt_snapshot: int | None = None,
        d3_snapshot: tuple[int, int, int] | None = None,
    ) -> None:
        if not epochs:
            return
        # Reader-level quarantines since the last emission, charged once
        # (to the batch's first row, like the engine's late/dropped
        # deltas) so series-wide sums stay exact.  Zero on a clean
        # stream — the byte-identity anchor.  ``corrupt_snapshot``
        # pins the reader's corrupt count as it stood when the emitting
        # record was *decoded*: batched decoding runs ahead of
        # submission, and a corrupt line later in the batch must charge
        # the next emission, exactly as line-at-a-time consumption would.
        snapshot = self.reader.corrupt if corrupt_snapshot is None else corrupt_snapshot
        quarantined_delta = snapshot - self._quarantined_mark
        self._quarantined_mark = snapshot
        # Measured-D3 deltas, pinned the same way: ``d3_snapshot`` is the
        # detector's counters as they stood when the emitting record was
        # enqueued, so emissions attribute misses/FPs independently of
        # batch framing or decode-ahead depth.
        d3_quality: dict[str, Any] | None = None
        if self.d3_mode is not None:
            if d3_snapshot is None:
                detector = self._ensure_d3()
                assert detector is not None
                d3_snapshot = detector.snapshot()
            missed_total, truth_total, fp_total = d3_snapshot
            d3_quality = {
                "d3_missed": missed_total - self._d3_missed_mark,
                "d3_fp": fp_total - self._d3_fp_mark,
                "d3_miss_rate": missed_total / truth_total if truth_total else 0.0,
            }
            self._d3_missed_mark = missed_total
            self._d3_fp_mark = fp_total
        if self._out_fh is None and self.out_path is not None:
            # Usually opened by the first submitted batch; a resumed
            # engine that emits at finalize without having ingested a
            # single record this segment still owes its rows to the file.
            self._out_fh = open(self.out_path, "a")
        tracer = self.tracer
        t0 = tracer.start("emit") if tracer is not None else 0
        for index, epoch in enumerate(epochs):
            quality = dict(epoch.quality or {})
            quality["quarantined"] = quarantined_delta if index == 0 else 0
            if d3_quality is not None:
                quality["d3_missed"] = d3_quality["d3_missed"] if index == 0 else 0
                quality["d3_fp"] = d3_quality["d3_fp"] if index == 0 else 0
                quality["d3_miss_rate"] = d3_quality["d3_miss_rate"]
            if self._doh_adoption:
                quality["doh_loss"] = self._doh_adoption
            line = encode_landscape(
                epoch.family, epoch.day_index, epoch.landscape, quality
            )
            if self._out_fh is not None:
                self._out_fh.write(line + "\n")
                self._out_fh.flush()
            else:
                print(line, flush=True)
            self.landscapes_emitted += 1
            self._log_event(
                "epoch_closed",
                family=epoch.family,
                epoch=epoch.day_index,
                estimator=epoch.landscape.estimator_name,
                total=epoch.landscape.total,
                servers=len(epoch.landscape.per_server),
                emitted=self.landscapes_emitted,
            )
        if t0:
            tracer.stop("emit", t0, records=len(epochs))

    def _dump_observability(self) -> None:
        self._c_skipped.set_total(self.reader.skipped)
        if self.engine is not None:
            self.engine.refresh_gauges()
        if self.metrics_path is not None:
            self.metrics_path.write_text(self.metrics.render_prometheus())
        if self.health_path is not None:
            engine = self.engine
            health = {
                "schema": "botmeterd-health-v1",
                "input": self.input_path,
                "records_consumed": self.records_consumed,
                "landscapes_emitted": self.landscapes_emitted,
                "watermark": (
                    None
                    if engine is None or engine.watermark == float("-inf")
                    else engine.watermark
                ),
                "next_epoch": None if engine is None else engine.next_epoch_to_emit,
                "families": [] if engine is None else engine.families,
                "shards": (
                    []
                    if engine is None
                    else [list(key) for key in engine.shard_keys]
                ),
                "metrics": self.metrics.snapshot(),
            }
            self.health_path.write_text(json.dumps(health, indent=2, sort_keys=True) + "\n")

    def _checkpoint(self, offset: int) -> None:
        if self.store is None:
            return
        # Decoded-but-unsubmitted records would sit behind the saved
        # offset with no engine state to show for them: flush first.
        # Ditto decoded-but-unapplied control lines — every record before
        # the checkpoint offset has been enqueued by now, so any control
        # still pending is due.
        self._flush_batch()
        while self._pending_controls:
            self._apply_control(self._pending_controls.pop(0)[1])
        engine = self._ensure_engine()
        self._c_skipped.set_total(self.reader.skipped)
        state = {
            "input": self.input_path,
            "input_offset": offset,
            "landscapes_emitted": self.landscapes_emitted,
            "records_consumed": self.records_consumed,
            "quarantined_mark": self._quarantined_mark,
            "reader": {
                "records": self.reader.records,
                "blank": self.reader.blank,
                "corrupt": self.reader.corrupt,
                "truncated_tail": self.reader.truncated_tail,
            },
            "engine": engine.export_state(),
            "metrics": self.metrics.export_state(),
        }
        if self.d3_mode is not None:
            detector = self._ensure_d3()
            assert detector is not None
            state["d3"] = {
                "mode": self.d3_mode,
                "counters": detector.export_state(),
                "missed_mark": self._d3_missed_mark,
                "fp_mark": self._d3_fp_mark,
            }
        if self._doh_adoption:
            state["doh_adoption"] = self._doh_adoption
        if self.injector is not None:
            state["injector"] = self.injector.export_state()
        if self.deadletter is not None:
            state["deadletter"] = self.deadletter.export_state()
        if self.extra_checkpoint_state is not None:
            state.update(self.extra_checkpoint_state())
        self.store.save(state)
        self._since_checkpoint = 0
        self._dump_observability()

    def _truncate_output(self, keep_lines: int) -> None:
        """Drop output lines the checkpoint never saw (crash window)."""
        if self.out_path is None or not self.out_path.exists():
            return
        raw = self.out_path.read_bytes().split(b"\n")
        kept = raw[:keep_lines]
        self.out_path.write_bytes(b"\n".join(kept) + (b"\n" if kept else b""))

    def _restore(self, checkpoint: Mapping[str, Any]) -> int:
        if self._doh_adoption is None and "doh_adoption" in checkpoint:
            self._doh_adoption = float(checkpoint["doh_adoption"])
        engine = self._ensure_engine()
        engine.import_state(checkpoint["engine"])
        if self.d3_mode is not None:
            # Counter state rides the checkpoint; the model rebuilds
            # deterministically from the committed fixture.  Families
            # registered live before the crash were just re-registered
            # by the engine import — mirror them into the detector.
            detector = self._ensure_d3()
            assert detector is not None
            for family in engine.families:
                if family not in detector.families:
                    detector.add_family(family, engine.dga_for(family))
            d3_state = checkpoint.get("d3", {})
            detector.import_state(d3_state.get("counters", {}))
            self._d3_missed_mark = int(d3_state.get("missed_mark", 0))
            self._d3_fp_mark = int(d3_state.get("fp_mark", 0))
        self.metrics.import_state(checkpoint["metrics"])
        reader_state = checkpoint["reader"]
        self.reader.records = int(reader_state["records"])
        self.reader.blank = int(reader_state["blank"])
        self.reader.corrupt = int(reader_state["corrupt"])
        self.reader.truncated_tail = int(reader_state.get("truncated_tail", 0))
        self.landscapes_emitted = int(checkpoint["landscapes_emitted"])
        self.records_consumed = int(checkpoint["records_consumed"])
        self._quarantined_mark = int(checkpoint.get("quarantined_mark", 0))
        if self.injector is not None and "injector" in checkpoint:
            self.injector.import_state(checkpoint["injector"])
        if self.deadletter is not None:
            dl_state = checkpoint.get("deadletter", {"entries": 0, "counts": {}})
            self.deadletter.truncate_to(dl_state["entries"], dl_state["counts"])
        self._truncate_output(self.landscapes_emitted)
        self.resumed = True
        self._log_event(
            "resumed",
            input_offset=int(checkpoint["input_offset"]),
            landscapes_emitted=self.landscapes_emitted,
            records_consumed=self.records_consumed,
        )
        return int(checkpoint["input_offset"])

    # -- live detection and the dynamic registry ------------------------------

    def _on_control_line(self, data: Mapping[str, Any]) -> bool:
        """Reader hook: journal a validated ``register`` control line.

        Returns ``False`` (→ the counted-skip corrupt path) for specs
        the registry cannot honour; accepted controls are applied when
        record consumption reaches their decode position, so a decoded-
        ahead chunk cannot register a family before the records that
        preceded it on the wire.
        """
        name = data.get("family")
        base = data.get("base")
        seed = data.get("seed", 0)
        if not isinstance(name, str) or not name:
            return False
        if not isinstance(base, str) or base not in family_names():
            return False
        if not isinstance(seed, int) or isinstance(seed, bool):
            return False
        self._pending_controls.append(
            (self.reader.records, {"name": name, "base": base, "seed": seed})
        )
        return True

    def _apply_due_controls(self, ordinal: int) -> None:
        """Apply every journaled control at or before record ``ordinal``
        (0-indexed decode position of the record about to be consumed)."""
        while self._pending_controls and self._pending_controls[0][0] <= ordinal:
            self._flush_batch()
            self._apply_control(self._pending_controls.pop(0)[1])

    def _apply_control(self, spec: Mapping[str, Any]) -> None:
        engine = self._ensure_engine()
        name = str(spec["name"])
        if name in engine.families:
            self._log_event("family_register_skipped", family=name, reason="duplicate")
            return
        dga = make_family(str(spec["base"]), int(spec["seed"]))
        engine.register_family(name, dga, spec=spec)
        detector = self._ensure_d3()
        if detector is not None:
            detector.add_family(name, dga)
        self._log_event(
            "family_registered",
            family=name,
            base=spec["base"],
            seed=spec["seed"],
            families=len(engine.families),
        )

    # -- the ingest path ------------------------------------------------------

    def _ingest(
        self, decode: Callable[..., list[ForwardedLookup] | None], *args: Any
    ) -> list[ForwardedLookup] | None:
        """Decode one run of input, enqueue its records and return them.

        The one entry every source shares: an NDJSON chunk, a wire-v2
        frame, a network batch and a single followed line.  The run
        decodes under one ``decode`` span, ahead of enqueueing, so
        downstream stage time never pollutes the decode histogram; the
        corrupt journal the run fills lets :meth:`_enqueue` restore the
        corrupt count each record was decoded under.  ``decode`` returns
        ``None`` when it found nothing left to decode; the span is then
        dropped and ``None`` returned.
        """
        reader = self.reader
        mark = reader.corrupt
        self._corrupt_journal.clear()
        tracer = self.tracer
        t0 = tracer.start("decode") if tracer is not None else 0
        records = decode(*args)
        if records is None:
            return None
        if t0:
            tracer.stop("decode", t0, records=len(records))
        if records:
            self._enqueue(records, reader.records - len(records), mark)
        return records

    @staticmethod
    def _decode_frame(events: Iterator[tuple]) -> list[ForwardedLookup] | None:
        """Parse the next wire-v2 frame of a chunk: a RECORDS frame's
        records, ``[]`` for a header or corrupt frame (the decoder has
        already stored the header or fired the quarantine sink), or
        ``None`` once only a partial frame is left."""
        event = next(events, None)
        if event is None:
            return None
        return event[1].materialize() if event[0] == "columns" else []

    def _decode_lines(
        self, pairs: Sequence[tuple[bytes | str, Any]], complete: bool = True
    ) -> list[ForwardedLookup]:
        """Decode ``(line, parsed)`` pairs; ``parsed`` is ``json.loads`` of
        the line, or ``None`` to let the reader parse it."""
        reader = self.reader
        records = []
        for line, data in pairs:
            record = (
                reader.feed(line, complete=complete)
                if data is None
                else reader.feed_parsed(line, data)
            )
            if record is not None:
                records.append(record)
        return records

    def _enqueue(
        self, records: list[ForwardedLookup], ordinal: int, mark: int
    ) -> None:
        """Hold one decoded run for batched submission.

        ``ordinal`` is the run's first decode position and ``mark`` the
        reader's corrupt count when the run began.  Each record keeps
        the corrupt count at its own decode point (replayed from the
        journal), journaled control lines apply when consumption reaches
        their position, and the inline D3 gate snapshots its counters
        per record — so emission attribution never depends on how far
        decoding ran ahead of submission.  A record D3 rejects still
        counts as consumed (it was read and judged), it just never
        reaches the engine.
        """
        events = iter(self._corrupt_journal)
        next_event = next(events, None)
        health = self.health
        detector = self._ensure_d3()
        self.records_consumed += len(records)
        self._since_checkpoint += len(records)
        for position, record in enumerate(records, ordinal):
            while next_event is not None and next_event <= position:
                mark += 1
                next_event = next(events, None)
            if self._pending_controls:
                self._apply_due_controls(position)
            if health is not None:
                health.record_ok()
            d3_mark = None
            if detector is not None:
                if not detector.admit(record):
                    continue
                d3_mark = detector.snapshot()
            self._pending_records.append(record)
            self._pending_marks.append(mark)
            self._pending_d3.append(d3_mark)
            if len(self._pending_records) >= self.batch_lines:
                self._flush_batch()

    def _flush_batch(self) -> None:
        if not self._pending_records:
            return
        records = self._pending_records
        marks = self._pending_marks
        d3_marks = self._pending_d3
        self._pending_records = []
        self._pending_marks = []
        self._pending_d3 = []
        if self._out_fh is None and self.out_path is not None:
            self._out_fh = open(self.out_path, "a")
        engine = self._ensure_engine()
        engine.submit_batch(
            records,
            on_emit=lambda index, epochs: self._emit(
                epochs,
                corrupt_snapshot=marks[index],
                d3_snapshot=d3_marks[index],
            ),
        )

    # -- run-segment scaffolding ---------------------------------------------
    # ``run`` (file/stdin) and the network ingest tier
    # (:class:`repro.service.netingest.NetIngestServer`) share the same
    # begin/finish/cleanup sequence around different ingest loops.

    def _fresh_outputs(self) -> None:
        """A non-resumed run starts with empty output sidecars."""
        if self.out_path is not None:
            self.out_path.write_text("")
        if self.deadletter is not None:
            self.deadletter.reset()

    def _attach_trace_sink(self, resumed: bool) -> None:
        if self.tracer is not None and self.trace_out is not None:
            # One header per run segment: a resumed serve appends to
            # the same trace file instead of discarding history.
            self._trace_sink = TraceSink(
                self.trace_out, sample=self.trace_sample, resume=resumed
            )
            self.tracer.sink = self._trace_sink

    def _finish_stream(self, offset: int) -> None:
        """Stream end: release held batches, close every epoch, persist."""
        self._flush_batch()
        while self._pending_controls:
            # A control with no records after it still registers: the
            # family joins the taxonomy (and the checkpoint) even though
            # it never charted an epoch this segment.
            self._apply_control(self._pending_controls.pop(0)[1])
        if self.finalize_at_eof and self.engine is not None:
            self._emit(self.engine.finalize())
        # Persist the end-of-stream state whenever an engine exists or
        # is constructible (a cluster partition that owned no records
        # still has the header).  In drain mode (``finalize_at_eof``
        # off — cluster segments) this captures the *open* engine state,
        # reorder-buffer contents included, without closing any epoch; a
        # later segment or reshard picks it back up.
        if self.store is not None and (
            self.engine is not None
            or self._families is not None
            or self.reader.header is not None
        ):
            self._checkpoint(offset)
        self._dump_observability()
        self._log_event(
            "finished",
            records=self.records_consumed,
            skipped=self.reader.skipped,
            landscapes=self.landscapes_emitted,
        )

    def _cleanup(self) -> None:
        if self.engine is not None:
            # Stops ingest workers; spills the kernel-cache sidecar.
            self.engine.close()
        if self.tracer is not None:
            self.tracer.write_summary()
        if self._trace_sink is not None:
            self._trace_sink.close()
            self.tracer.sink = None
            self._trace_sink = None
        if self._out_fh is not None:
            self._out_fh.close()
            self._out_fh = None
        if self.deadletter is not None:
            self.deadletter.close()

    # -- the loop ------------------------------------------------------------

    def _idle(self, idle_since: float | None, position: int) -> tuple[float, bool]:
        """One empty poll of a followed input.

        Flushes held records, then — once idle long enough — checkpoints
        at ``position`` and raises :class:`UpstreamStallError` past the
        watchdog deadline for the supervisor to restart.  Otherwise
        sleeps one poll interval.  Returns the idle-since anchor and
        whether the idle timeout expired (the caller ends the stream).
        """
        self._flush_batch()
        now = time.monotonic()
        if idle_since is None:
            idle_since = now
        else:
            idle = now - idle_since
            if self.watchdog_deadline is not None and idle >= self.watchdog_deadline:
                # Durable stop-point first, then hand the stall to the
                # supervisor as a restartable failure.
                if self.engine is not None:
                    self._checkpoint(position)
                self._log_event(
                    "watchdog_stall", idle_seconds=idle, input_offset=position
                )
                if self.health is not None:
                    self.health.on_stall()
                raise UpstreamStallError(
                    None, "ingest stalled past the watchdog deadline"
                )
            if self.idle_timeout is not None and idle >= self.idle_timeout:
                return idle_since, True
        time.sleep(self.poll_interval)
        return idle_since, False

    def _run_chunked(self, fh: IO[bytes], offset: int) -> int:
        """NDJSON replay: chunked reads, one decoded run per chunk.

        Byte-stream semantics are identical to the line loop (the
        decoder property test pins the decode; emission and checkpoint
        attribution are pinned by the service equality tests) — only the
        per-line Python overhead goes away.  Returns the final offset.
        """
        decoder = NdjsonBatchDecoder(self.reader)
        while chunk := fh.read(1 << 18):
            self._ingest(decoder.push, chunk)
            if self._since_checkpoint >= self.checkpoint_every:
                self._checkpoint(offset + decoder.consumed)
        self._ingest(decoder.flush)
        return offset + decoder.consumed

    def _run_wire2(self, fh: IO[bytes], offset: int) -> int:
        """The wire-v2 ingest loop: framed reads, one run per RECORDS frame.

        Handles replay, throttled crash drills and follow mode in one
        loop (v2 frames are not line-framed, so the line loop cannot
        serve them).  Frames drain lazily, so the reader's counters and
        ``decoder.consumed`` advance together frame by frame: every
        checkpoint pairs a frame-boundary offset with counter values
        that stop at exactly that boundary, and the checkpoint-if-due
        check after every frame gives a paced crash drill a durable
        stop-point within one frame of its progress.  Header and corrupt
        frames need no action: the decoder already stored the header on
        the reader and fired the quarantine sink.  Each frame's parse and
        materialization is one ``decode`` span.  Returns the final
        offset.
        """
        decoder = Wire2BatchDecoder(self.reader)
        idle_since: float | None = None
        while True:
            chunk = fh.read(1 << 18)
            if not chunk:
                if not self.follow:
                    # Trailing junk (a torn final frame) quarantines here.
                    decoder.flush(complete=True)
                    break
                idle_since, timed_out = self._idle(
                    idle_since, offset + decoder.consumed
                )
                if timed_out:
                    # A partial trailing frame may still be in flight:
                    # count the probe (truncated_tail, not budgeted
                    # corruption) and leave the bytes unconsumed, like
                    # the line loop's ``complete=False`` consume.
                    decoder.flush(complete=False)
                    break
                continue
            idle_since = None
            events = decoder.iter_events(chunk)
            while (records := self._ingest(self._decode_frame, events)) is not None:
                if self.throttle > 0 and records:
                    time.sleep(self.throttle * len(records))
                if self._since_checkpoint >= self.checkpoint_every:
                    self._checkpoint(offset + decoder.consumed)
        return offset + decoder.consumed

    def _run_lines(self, fh: IO[bytes], offset: int, use_stdin: bool) -> int:
        """The line-at-a-time loop: tailing, fault injection and paced
        crash drills, which need a durable offset after every input
        line.  Returns the final offset."""
        idle_since: float | None = None
        pending = b""  # stdin-follow: a partial tail we cannot seek back to
        while True:
            position = offset
            line = fh.readline()
            if pending:
                line, pending = pending + line, b""
            if not line or (self.follow and not line.endswith(b"\n")):
                # EOF, or a line still being written by the producer.
                if not self.follow:
                    if line:
                        offset = position + len(line)
                        self._consume(line, offset)
                    return offset
                idle_since, timed_out = self._idle(idle_since, position)
                if timed_out:
                    if line:
                        # The tail never got its newline: consume it as
                        # possibly-truncated (not budgeted corrupt).
                        offset = position + len(line)
                        self._consume(line, offset, complete=False)
                    return offset
                if line:
                    if use_stdin:
                        pending = line
                    else:
                        fh.seek(position)
                continue
            idle_since = None
            offset = position + len(line)
            self._consume(line, offset)
            if self.throttle > 0:
                time.sleep(self.throttle)

    def run(self) -> int:
        """Serve the stream; returns a process exit code."""
        use_stdin = self.input_path == "-"
        fh = sys.stdin.buffer if use_stdin else open(self.input_path, "rb")
        try:
            offset = 0
            checkpoint = self.store.load() if self.store is not None else None
            # Wire sniff: a 4-byte magic probe distinguishes a v2 frame
            # stream from NDJSON.  Only seekable inputs sniff — stdin
            # stays NDJSON-only (un-reading a probe would corrupt the
            # line reassembly the follow loop depends on).
            wire_v2 = False
            if not use_stdin:
                wire_v2 = sniff_wire2(fh.read(4))
                fh.seek(0)
            if wire_v2 and self.injector is not None:
                raise ValueError(
                    "fault injection requires an NDJSON input: wire-v2 "
                    "frames are not line-framed"
                )
            if checkpoint is not None:
                if use_stdin:
                    raise CheckpointError("cannot resume a checkpoint from stdin")
                # The header (if any) sits before the resume offset; peek
                # it so family/granularity configuration is restored too.
                if wire_v2:
                    peek = Wire2BatchDecoder(self.reader)
                    for _event in peek.iter_events(fh.read(1 << 16)):
                        break  # the META frame leads the stream
                    self.reader.records = 0
                    self.reader.blank = 0
                    self.reader.corrupt = 0
                else:
                    first = fh.readline()
                    if first:
                        self.reader.feed(first)
                        self.reader.records = 0
                        self.reader.blank = 0
                        self.reader.corrupt = 0
                offset = self._restore(checkpoint)
                fh.seek(offset)
            else:
                self._fresh_outputs()
            self._attach_trace_sink(resumed=checkpoint is not None)
            if wire_v2:
                offset = self._run_wire2(fh, offset)
            elif not self.follow and self.injector is None and self.throttle <= 0:
                # Replay: no tailing, no injector, no pacing — the stream
                # is just bytes to decode as fast as possible.
                offset = self._run_chunked(fh, offset)
            else:
                offset = self._run_lines(fh, offset, use_stdin)
            # Stream end: release held lines, close every epoch, persist.
            if self.injector is not None:
                for delivered in self.injector.flush():
                    self._consume_one(delivered)
            self._finish_stream(offset)
            return 0
        finally:
            if not use_stdin:
                fh.close()
            self._cleanup()

    def _consume(self, line: bytes, offset: int, complete: bool = True) -> None:
        if self.injector is not None and complete:
            text = (
                line.decode("utf-8", errors="replace")
                if isinstance(line, bytes)
                else line
            )
            for delivered in self.injector.feed(text):
                self._consume_one(delivered)
        else:
            self._consume_one(line, complete=complete)
        # Checkpoints only land on raw-input-line boundaries, so the
        # injector's state and the engine's never straddle one line.
        if self._since_checkpoint >= self.checkpoint_every:
            self._checkpoint(offset)

    def _consume_one(self, line: bytes | str, complete: bool = True) -> None:
        self._ingest(self._decode_lines, [(line, None)], complete)

    def _consume_parsed(self, line: bytes | str, data: Any) -> None:
        """Consume a complete line the caller already ``json.loads``-ed."""
        self._consume_parsed_many([(line, data)])

    def _consume_parsed_many(self, pairs: list[tuple[bytes | str, Any]]) -> None:
        """Consume a released run of ``(line, parsed)`` pairs — the
        network ingest tier parses every payload line for its merge key
        anyway, so the reader skips the second parse.  ``None`` entries
        (blank, corrupt or header lines the caller could not parse) take
        the full :meth:`NdjsonReader.feed` path."""
        self._ingest(self._decode_lines, pairs)
