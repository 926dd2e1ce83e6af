"""Tests for deterministic fault injection, the dead-letter queue, and
the supervision layer (health states, backoff, restart drills)."""

import io
import json

import pytest

from repro.service.deadletter import (
    DEADLETTER_SCHEMA,
    DeadLetterQueue,
    read_deadletters,
)
from repro.service.faults import (
    FaultInjector,
    FaultSpec,
    InjectedCrashError,
    InjectedFault,
    UpstreamStallError,
    parse_fault_spec,
)
from repro.service.metrics import MetricsRegistry
from repro.service.supervisor import (
    BackoffPolicy,
    HealthMonitor,
    HealthState,
    Supervisor,
    SupervisorGaveUp,
)
from repro.service.wire import NdjsonReader, encode_header, encode_record
from repro.dns.message import ForwardedLookup


def record_lines(n, start=0.0):
    return [
        encode_record(ForwardedLookup(start + float(i), "s0", f"d{i}.example"))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_parse_full_spec(self):
        spec = parse_fault_spec(
            "seed=11,corrupt=0.01,dup=0.02,drop=0.008:3,reorder=0.004:256,"
            "skew=0.006:2000,stall=0.0005,crash=0.0005"
        )
        assert spec.seed == 11
        assert spec.corrupt == 0.01
        assert spec.duplicate == 0.02
        assert spec.drop == 0.008 and spec.drop_burst == 3.0
        assert spec.reorder == 0.004 and spec.reorder_gap == 256
        assert spec.skew == 0.006 and spec.skew_seconds == 2000.0
        assert spec.stall == 0.0005 and spec.crash == 0.0005

    def test_parse_tolerates_whitespace_and_blanks(self):
        spec = parse_fault_spec(" seed=3 , corrupt=0.5 ,, ")
        assert spec.seed == 3 and spec.corrupt == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            "corrupt",  # not key=value
            "mystery=0.1",  # unknown key
            "corrupt=0.1:9",  # :param on a paramless fault
            "corrupt=2.0",  # rate out of range
            "corrupt=0.6,dup=0.6",  # rates sum past 1
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_spec_validates_parameters(self):
        with pytest.raises(ValueError):
            FaultSpec(drop=0.1, drop_burst=0.5)
        with pytest.raises(ValueError):
            FaultSpec(reorder=0.1, reorder_gap=0)
        with pytest.raises(ValueError):
            FaultSpec(skew=0.1, skew_seconds=-1.0)

    def test_spec_dict_round_trip(self):
        spec = FaultSpec(seed=4, corrupt=0.1, drop=0.05, drop_burst=2.5)
        assert FaultSpec(**spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# The injector schedule
# ---------------------------------------------------------------------------

BUSY_SPEC = (
    "seed=7,corrupt=0.05,truncate=0.03,dup=0.05,drop=0.04:2,"
    "reorder=0.03:5,skew=0.03:900"
)


class TestFaultInjector:
    def test_zero_rates_pass_everything_through(self):
        lines = record_lines(50)
        injector = FaultInjector(FaultSpec(seed=1))
        assert list(injector.wrap(iter(lines))) == lines
        assert injector.ledger.emitted == 50
        assert injector.ledger.records_in == 50

    def test_header_and_blank_lines_are_never_faulted(self):
        header = encode_header({"families": []})
        injector = FaultInjector("seed=1,drop=1.0")
        assert injector.feed(header) == [header]
        assert injector.feed("") == [""]
        assert injector.ledger.records_in == 0

    def test_same_seed_same_stream_is_byte_identical(self):
        lines = record_lines(400)
        first = list(FaultInjector(BUSY_SPEC).wrap(iter(lines)))
        second = list(FaultInjector(BUSY_SPEC).wrap(iter(lines)))
        assert first == second

    def test_different_seed_diverges(self):
        lines = record_lines(400)
        spec_b = BUSY_SPEC.replace("seed=7", "seed=8")
        assert list(FaultInjector(BUSY_SPEC).wrap(iter(lines))) != list(
            FaultInjector(spec_b).wrap(iter(lines))
        )

    def test_ledger_accounts_for_every_line(self):
        lines = record_lines(600)
        injector = FaultInjector(BUSY_SPEC)
        delivered = list(injector.wrap(iter(lines)))
        ledger = injector.ledger
        assert ledger.records_in == 600
        # Every input record is exactly one of: delivered as-is/garbled,
        # dropped, or duplicated (which adds one extra emission).
        assert ledger.emitted + ledger.corrupted + ledger.truncated == len(delivered)
        assert (
            ledger.emitted
            + ledger.corrupted
            + ledger.truncated
            + ledger.dropped
            - ledger.duplicated
            == ledger.records_in
        )

    def test_corrupt_and_truncated_lines_never_parse(self):
        lines = record_lines(800)
        injector = FaultInjector("seed=3,corrupt=0.2,truncate=0.2")
        reader = NdjsonReader()
        parsed = sum(
            1 for line in injector.wrap(iter(lines)) if reader.feed(line) is not None
        )
        assert injector.ledger.corrupted > 0 and injector.ledger.truncated > 0
        assert parsed == injector.ledger.emitted
        assert reader.corrupt == injector.ledger.corrupted + injector.ledger.truncated

    def test_reorder_displaces_within_gap(self):
        lines = record_lines(100)
        injector = FaultInjector("seed=5,reorder=0.2:10")
        delivered = list(injector.wrap(iter(lines)))
        assert injector.ledger.reordered > 0
        assert sorted(delivered) == sorted(lines)  # nothing lost, only moved
        displacements = [
            abs(delivered.index(line) - index) for index, line in enumerate(lines)
        ]
        assert max(displacements) <= 10 + injector.ledger.reordered

    def test_skew_shifts_timestamp_and_keeps_record_valid(self):
        lines = record_lines(200, start=100000.0)
        injector = FaultInjector("seed=9,skew=0.3:500")
        reader = NdjsonReader()
        delivered = [reader.feed(line) for line in injector.wrap(iter(lines))]
        assert injector.ledger.skewed > 0
        assert all(record is not None for record in delivered)
        originals = {json.loads(line)["domain"]: json.loads(line)["timestamp"] for line in lines}
        moved = sum(
            1 for record in delivered if record.timestamp != originals[record.domain]
        )
        assert moved == injector.ledger.skewed
        assert all(
            abs(record.timestamp - originals[record.domain]) <= 500.0
            for record in delivered
        )

    def test_hard_fault_raises_with_sequence_number(self):
        injector = FaultInjector("seed=1,crash=1.0")
        with pytest.raises(InjectedCrashError) as info:
            injector.feed(record_lines(1)[0])
        assert info.value.seq == 0
        assert injector.ledger.crashes == 1

    def test_disarmed_hard_fault_passes_through(self):
        line = record_lines(1)[0]
        injector = FaultInjector("seed=1,stall=1.0", disarmed=[0])
        assert injector.feed(line) == [line]
        assert injector.ledger.disarmed == 1
        assert injector.ledger.stalls == 0
        with pytest.raises(UpstreamStallError):
            injector.feed(line)  # seq 1 is not disarmed

    def test_checkpoint_round_trip_resumes_identical_schedule(self):
        lines = record_lines(500)
        reference = FaultInjector(BUSY_SPEC)
        uninterrupted = list(reference.wrap(iter(lines)))

        first = FaultInjector(BUSY_SPEC)
        out = []
        for line in lines[:200]:
            out.extend(first.feed(line))
        state = json.loads(json.dumps(first.export_state()))
        resumed = FaultInjector(BUSY_SPEC)
        resumed.import_state(state)
        for line in lines[200:]:
            out.extend(resumed.feed(line))
        out.extend(resumed.flush())

        assert out == uninterrupted
        assert resumed.ledger.to_dict() == reference.ledger.to_dict()

    def test_flush_releases_held_lines_in_hold_order(self):
        lines = record_lines(10)
        injector = FaultInjector("seed=2,reorder=1.0:1000")
        for line in lines:
            assert injector.feed(line) == []  # everything held
        assert injector.flush() == lines
        assert injector.flush() == []


# ---------------------------------------------------------------------------
# Dead-letter queue
# ---------------------------------------------------------------------------


class TestDeadLetterQueue:
    def test_quarantine_appends_schema_tagged_entries(self, tmp_path):
        queue = DeadLetterQueue(tmp_path / "dlq.ndjson")
        queue.quarantine("corrupt", line="{bad", why="invalid JSON")
        queue.quarantine("late", domain="x.example", epoch=3)
        queue.close()
        entries = read_deadletters(queue.path)
        assert [entry["seq"] for entry in entries] == [0, 1]
        assert all(entry["schema"] == DEADLETTER_SCHEMA for entry in entries)
        assert entries[0]["reason"] == "corrupt"
        assert entries[1]["epoch"] == 3
        assert queue.counts == {"corrupt": 1, "late": 1}

    def test_reset_truncates_for_fresh_runs(self, tmp_path):
        queue = DeadLetterQueue(tmp_path / "dlq.ndjson")
        queue.quarantine("corrupt", line="x")
        queue.reset()
        queue.quarantine("late", epoch=0)
        queue.close()
        entries = read_deadletters(queue.path)
        assert len(entries) == 1 and entries[0]["seq"] == 0
        assert queue.counts == {"late": 1}

    def test_truncate_to_drops_the_crash_window(self, tmp_path):
        queue = DeadLetterQueue(tmp_path / "dlq.ndjson")
        for index in range(5):
            queue.quarantine("corrupt", line=f"bad{index}")
        # A checkpoint saw only the first two entries; the last three
        # happened in the crash window and will be replayed.
        queue.truncate_to(2, {"corrupt": 2})
        queue.quarantine("corrupt", line="replayed")
        queue.close()
        entries = read_deadletters(queue.path)
        assert len(entries) == 3
        assert entries[-1]["seq"] == 2
        assert queue.counts == {"corrupt": 3}

        # A torn partial line past the cut goes with the crash window,
        # and the cut is idempotent (a crash after it re-runs it).
        complete = queue.path.read_bytes()
        with open(queue.path, "ab") as fh:
            fh.write(b'{"schema":"botmeterd-dead')
        queue.truncate_to(3, {"corrupt": 3})
        assert queue.path.read_bytes() == complete
        queue.truncate_to(3, {"corrupt": 3})
        assert queue.path.read_bytes() == complete
        # Asking for more lines than the file holds leaves it as it is.
        queue.truncate_to(7, {"corrupt": 7})
        assert queue.path.read_bytes() == complete

        queue.truncate_to(0, {})
        assert queue.path.read_bytes() == b""
        assert (queue.entries, queue.counts) == (0, {})


# ---------------------------------------------------------------------------
# Health state machine
# ---------------------------------------------------------------------------


class TestHealthMonitor:
    def test_starts_healthy(self):
        assert HealthMonitor().state is HealthState.HEALTHY

    def test_quarantine_fraction_drives_degraded(self):
        monitor = HealthMonitor(window=10, degraded_threshold=0.2)
        for _ in range(7):
            monitor.record_ok()
        for _ in range(3):
            monitor.record_quarantined()
        assert monitor.state is HealthState.DEGRADED

    def test_hysteresis_requires_half_threshold_to_recover(self):
        monitor = HealthMonitor(window=10, degraded_threshold=0.4)
        for _ in range(5):
            monitor.record_quarantined()
        assert monitor.state is HealthState.DEGRADED
        # Fraction falls below the threshold but not below half of it:
        # still degraded (no flapping).
        for _ in range(7):
            monitor.record_ok()  # window now holds 3 bad + 7 ok = 0.3
        assert 0.2 < monitor.quarantine_fraction <= 0.4
        assert monitor.state is HealthState.DEGRADED
        for _ in range(20):
            monitor.record_ok()
        assert monitor.state is HealthState.HEALTHY

    def test_stall_and_restart_cycle(self):
        monitor = HealthMonitor(window=10, recover_streak=3)
        monitor.on_stall()
        assert monitor.state is HealthState.STALLED
        monitor.record_ok()  # STALLED only leaves via on_restart
        assert monitor.state is HealthState.STALLED
        monitor.on_restart()
        assert monitor.state is HealthState.RECOVERING
        monitor.record_ok()
        monitor.record_ok()
        assert monitor.state is HealthState.RECOVERING
        monitor.record_ok()
        assert monitor.state is HealthState.HEALTHY

    def test_recovering_into_degraded_when_still_lossy(self):
        monitor = HealthMonitor(window=4, degraded_threshold=0.2, recover_streak=2)
        monitor.on_restart()
        monitor.record_quarantined()
        monitor.record_quarantined()
        monitor.record_ok()
        monitor.record_ok()
        assert monitor.state is HealthState.DEGRADED

    def test_publishes_through_metrics_registry(self):
        metrics = MetricsRegistry()
        monitor = HealthMonitor(window=4, degraded_threshold=0.2)
        monitor.bind(metrics)
        assert metrics.gauge("botmeterd_health_state").value() == 0
        for _ in range(4):
            monitor.record_quarantined()
        assert metrics.gauge("botmeterd_health_state").value() == 1
        assert (
            metrics.counter("botmeterd_health_transitions_total").value(
                state="degraded"
            )
            == 1
        )

    def test_transitions_are_recorded(self):
        monitor = HealthMonitor(window=2, degraded_threshold=0.4)
        monitor.record_quarantined()
        monitor.on_stall()
        monitor.on_restart()
        assert monitor.transitions == [
            ("HEALTHY", "DEGRADED"),
            ("DEGRADED", "STALLED"),
            ("STALLED", "RECOVERING"),
        ]


# ---------------------------------------------------------------------------
# Backoff
# ---------------------------------------------------------------------------


class TestBackoffPolicy:
    def test_grows_exponentially_to_the_cap(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=8.0, jitter=0.0)
        assert [policy.delay(n) for n in range(5)] == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_jitter_is_bounded_and_deterministic(self):
        a = BackoffPolicy(base=1.0, cap=64.0, jitter=0.5, seed=9)
        b = BackoffPolicy(base=1.0, cap=64.0, jitter=0.5, seed=9)
        delays_a = [a.delay(n) for n in range(6)]
        delays_b = [b.delay(n) for n in range(6)]
        assert delays_a == delays_b
        for attempt, delay in enumerate(delays_a):
            raw = min(64.0, 2.0**attempt)
            assert raw <= delay <= raw * 1.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=2.0, cap=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=2.0)


# ---------------------------------------------------------------------------
# Supervisor restart drills (fake daemons; the real-daemon drill is the
# soak test in test_service_soak.py)
# ---------------------------------------------------------------------------


class FlakyDaemon:
    """Fails per a script of exceptions, then completes."""

    def __init__(self, script):
        self.script = script
        self.metrics = MetricsRegistry()

    def run(self):
        if self.script:
            raise self.script.pop(0)
        return 0


class TestSupervisor:
    def make(self, script, **kwargs):
        runs = []

        def factory(disarmed):
            runs.append(set(disarmed))
            return FlakyDaemon(script)

        kwargs.setdefault("backoff", BackoffPolicy(jitter=0.0))
        kwargs.setdefault("sleep", lambda _delay: None)
        kwargs.setdefault("log_stream", io.StringIO())
        return Supervisor(factory, **kwargs), runs

    def test_restarts_through_injected_faults_and_disarms(self):
        script = [InjectedCrashError(17), UpstreamStallError(42)]
        supervisor, runs = self.make(script)
        assert supervisor.run() == 0
        assert supervisor.restarts == 2
        assert supervisor.disarmed == {17, 42}
        # Each restarted factory sees every previously survived fault.
        assert runs == [set(), {17}, {17, 42}]

    def test_generic_exceptions_also_restart(self):
        supervisor, _runs = self.make([RuntimeError("flaky disk")])
        assert supervisor.run() == 0
        assert supervisor.restarts == 1
        assert supervisor.disarmed == set()

    def test_gives_up_after_budget(self):
        script = [InjectedCrashError(n) for n in range(10)]
        supervisor, runs = self.make(script, max_restarts=3)
        with pytest.raises(SupervisorGaveUp):
            supervisor.run()
        assert len(runs) == 4  # initial attempt + 3 restarts

    def test_watchdog_stall_without_seq_is_not_disarmed(self):
        script = [UpstreamStallError(None, "ingest stalled")]
        supervisor, _runs = self.make(script)
        assert supervisor.run() == 0
        assert supervisor.disarmed == set()

    def test_health_follows_failures_and_recovery(self):
        supervisor, _runs = self.make([InjectedCrashError(3)])
        supervisor.run()
        assert ("STALLED", "RECOVERING") in supervisor.health.transitions

    def test_logs_supervision_events(self):
        supervisor, _runs = self.make([InjectedCrashError(5)])
        supervisor.run()
        events = [event["event"] for event in supervisor.events]
        assert events == [
            "supervisor_caught",
            "supervisor_restart",
            "supervisor_done",
        ]
