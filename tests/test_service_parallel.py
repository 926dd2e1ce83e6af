"""Tests for parallel sharded ingest (--ingest-workers / --batch-lines).

The contract under test is the tentpole guarantee: the merged output of
N shard-worker processes is **byte-identical** to the serial engine's —
over clean streams, corrupt streams, checkpoint handoffs between worker
counts, and a SIGKILL mid-stream.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.daemon import batch_series
from repro.service.engine import ShardedLandscapeEngine
from repro.service.wire import encode_landscape
from repro.service.workers import WorkerPool, worker_for_server
from repro.sim import SimConfig, simulate
from repro.sim.trace import sort_observable

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def merged_pair():
    """Two one-day families over five servers — enough servers that any
    worker count (2, 4) actually splits the stream across processes."""
    goz = simulate(
        SimConfig(family="new_goz", n_bots=16, n_local_servers=5, n_days=1, seed=21)
    )
    murofet = simulate(
        SimConfig(family="murofet", n_bots=12, n_local_servers=5, n_days=1, seed=22)
    )
    dgas = {"new_goz": goz.dga, "murofet": murofet.dga}
    records = sort_observable(list(goz.observable) + list(murofet.observable))
    return dgas, records, goz.timeline


def stream_batched(engine, records, chunk=64):
    out = []
    for i in range(0, len(records), chunk):
        out.extend(engine.submit_batch(list(records[i : i + chunk])))
    out.extend(engine.finalize())
    return out


def serialize(epochs):
    return [encode_landscape(e.family, e.day_index, e.landscape) for e in epochs]


class TestRouting:
    def test_router_is_deterministic_and_spreads(self):
        servers = [f"local-{i}" for i in range(40)]
        first = [worker_for_server(s, 4) for s in servers]
        assert first == [worker_for_server(s, 4) for s in servers]
        assert all(0 <= w < 4 for w in first)
        assert len(set(first)) > 1  # crc32 actually spreads the keys

    def test_pool_requires_at_least_two_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(config=None, n_workers=1)


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_counts_match_serial(self, merged_pair, workers):
        dgas, records, timeline = merged_pair
        reference = serialize(batch_series(records, dgas, timeline=timeline))

        serial = ShardedLandscapeEngine(dgas, timeline=timeline)
        try:
            assert serialize(stream_batched(serial, records)) == reference
        finally:
            serial.close()

        parallel = ShardedLandscapeEngine(
            dgas, timeline=timeline, ingest_workers=workers
        )
        try:
            assert parallel.parallel and parallel.ingest_workers == workers
            assert serialize(stream_batched(parallel, records)) == reference
        finally:
            parallel.close()

    def test_single_record_submit_matches_too(self, merged_pair):
        """submit() on a parallel engine routes through submit_batch."""
        dgas, records, timeline = merged_pair
        reference = serialize(batch_series(records, dgas, timeline=timeline))
        engine = ShardedLandscapeEngine(dgas, timeline=timeline, ingest_workers=2)
        try:
            out = []
            for record in records:
                out.extend(engine.submit(record))
            out.extend(engine.finalize())
            assert serialize(out) == reference
        finally:
            engine.close()

    def test_batch_framing_does_not_matter(self, merged_pair):
        dgas, records, timeline = merged_pair
        engine_a = ShardedLandscapeEngine(dgas, timeline=timeline, ingest_workers=2)
        engine_b = ShardedLandscapeEngine(dgas, timeline=timeline, ingest_workers=2)
        try:
            a = serialize(stream_batched(engine_a, records, chunk=7))
            b = serialize(stream_batched(engine_b, records, chunk=1024))
            assert a == b
        finally:
            engine_a.close()
            engine_b.close()

    def test_serial_submit_batch_equals_submit_loop(self, merged_pair, multiserver_run):
        dgas, records, timeline = merged_pair
        loop = ShardedLandscapeEngine(dgas, timeline=timeline)
        batched = ShardedLandscapeEngine(dgas, timeline=timeline)
        out = []
        for record in records:
            out.extend(loop.submit(record))
        out.extend(loop.finalize())
        assert serialize(stream_batched(batched, records)) == serialize(out)

        # on_emit must name the record whose push closed each epoch, at
        # any batch size.  Over a sorted stream each push releases the
        # record pushed `capacity` earlier, so the deadline-crossing
        # record sits in the emitting batch itself or was already held
        # in the reorder buffer from an earlier batch; both must occur.
        run = multiserver_run
        dgas = {"new_goz": run.dga}
        records = sort_observable(run.observable)
        capacity = 8

        def annotated(epochs):
            return [
                encode_landscape(e.family, e.day_index, e.landscape, e.quality)
                for e in epochs
            ]

        loop = ShardedLandscapeEngine(
            dgas, timeline=run.timeline, reorder_capacity=capacity
        )
        reference = []
        for index, record in enumerate(records):
            epochs = loop.submit(record)
            if epochs:
                reference.append((index, annotated(epochs)))
        assert reference, "the stream must close an epoch before finalize"
        in_batch = set()
        for size in (1, 5, 64, 4096):
            engine = ShardedLandscapeEngine(
                dgas, timeline=run.timeline, reorder_capacity=capacity
            )
            emitted = []
            for start in range(0, len(records), size):
                engine.submit_batch(
                    records[start : start + size],
                    on_emit=lambda index, epochs, start=start: emitted.append(
                        (start + index, annotated(epochs))
                    ),
                )
            assert emitted == reference, f"batch size {size}"
            in_batch.update(index % size >= capacity for index, _ in reference)
        assert in_batch == {True, False}


class TestCheckpointHandoff:
    """A checkpoint written at one worker count must resume at any other."""

    def _run_split(self, merged_pair, first_workers, second_workers):
        dgas, records, timeline = merged_pair
        half = len(records) // 2

        first = ShardedLandscapeEngine(
            dgas, timeline=timeline, ingest_workers=first_workers
        )
        try:
            out = first.submit_batch(list(records[:half]))
            state = json.loads(json.dumps(first.export_state()))
        finally:
            first.close()

        second = ShardedLandscapeEngine(
            dgas, timeline=timeline, ingest_workers=second_workers
        )
        try:
            second.import_state(state)
            out += second.submit_batch(list(records[half:]))
            out += second.finalize()
        finally:
            second.close()
        return serialize(out)

    @pytest.mark.parametrize(
        "first,second", [(1, 4), (4, 1), (2, 4)], ids=["1to4", "4to1", "2to4"]
    )
    def test_handoff_is_byte_identical(self, merged_pair, first, second):
        dgas, records, timeline = merged_pair
        reference = serialize(batch_series(records, dgas, timeline=timeline))
        assert self._run_split(merged_pair, first, second) == reference

    def test_parallel_export_before_any_pool(self, merged_pair):
        """Exporting an idle parallel engine (no pool yet) is legal and
        round-trips an imported state untouched."""
        dgas, records, timeline = merged_pair
        donor = ShardedLandscapeEngine(dgas, timeline=timeline)
        try:
            donor.submit_batch(list(records[: len(records) // 2]))
            state = donor.export_state()
        finally:
            donor.close()
        idle = ShardedLandscapeEngine(dgas, timeline=timeline, ingest_workers=4)
        try:
            idle.import_state(state)
            assert idle.export_state()["shards"] == state["shards"]
        finally:
            idle.close()


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A two-day exported trace — emissions happen mid-stream, so batch
    framing and quarantine attribution are actually exercised."""
    path = tmp_path_factory.mktemp("par") / "trace.ndjson"
    assert (
        main(
            [
                "export-trace",
                "--source", "sim",
                "--family", "murofet",
                "--bots", "12",
                "--servers", "4",
                "--days", "2",
                "--seed", "5",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def corrupt_trace(trace, tmp_path_factory):
    """The same trace with garbage lines injected at three offsets."""
    lines = trace.read_text().splitlines()
    for position, junk in (
        (len(lines) // 4, "{not json"),
        (len(lines) // 2, '{"v": 99, "timestamp": 1.0}'),
        (3 * len(lines) // 4, "\x00\xff garbage"),
    ):
        lines.insert(position, junk)
    path = tmp_path_factory.mktemp("par-corrupt") / "trace.ndjson"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReplayByteIdentity:
    def _replay(self, trace, tmp_path, name, *extra):
        out = tmp_path / name
        assert main(["replay", str(trace), "--out", str(out), *extra]) == 0
        return out.read_bytes()

    def test_workers_and_batching_match_serial(self, trace, tmp_path):
        reference = self._replay(trace, tmp_path, "serial.ndjson", "--batch-lines", "1")
        for name, extra in (
            ("chunked.ndjson", ["--batch-lines", "64"]),
            ("w2.ndjson", ["--ingest-workers", "2", "--batch-lines", "64"]),
            ("w4.ndjson", ["--ingest-workers", "4", "--batch-lines", "64"]),
        ):
            assert self._replay(trace, tmp_path, name, *extra) == reference

    def test_quarantine_attribution_survives_batching(self, corrupt_trace, tmp_path):
        """Corrupt lines mid-stream must charge their quarantine deltas
        to the same emissions whether decoded line-at-a-time or in
        chunks fanned out to workers."""
        tolerate = ["--max-corrupt", "16"]
        reference = self._replay(
            corrupt_trace, tmp_path, "serial.ndjson", "--batch-lines", "1", *tolerate
        )
        batched = self._replay(
            corrupt_trace,
            tmp_path,
            "batched.ndjson",
            "--batch-lines", "64",
            "--ingest-workers", "2",
            *tolerate,
        )
        assert batched == reference


class TestCrashRecoveryParallel:
    def test_sigkill_under_four_workers_resumes_byte_identical(self, trace, tmp_path):
        """Kill a 4-worker daemon mid-stream; the resumed run's combined
        output must equal an uninterrupted serial run's, byte for byte."""
        reference = tmp_path / "reference.ndjson"
        assert main(["replay", str(trace), "--out", str(reference)]) == 0

        out = tmp_path / "served.ndjson"
        checkpoint = tmp_path / "ck.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--input", str(trace),
            "--no-follow",
            "--out", str(out),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "50",
            "--ingest-workers", "4",
            "--batch-lines", "8",
        ]
        proc = subprocess.Popen(
            argv + ["--throttle", "0.002"],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not checkpoint.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, "daemon finished before the kill"
                time.sleep(0.05)
            assert checkpoint.exists(), "no checkpoint appeared within 60 s"
            time.sleep(0.2)
            proc.kill()  # SIGKILL: no handlers, no worker cleanup
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        state = json.loads(checkpoint.read_text())
        assert 0 < state["records_consumed"]

        resumed = subprocess.run(argv, env=env, stderr=subprocess.DEVNULL)
        assert resumed.returncode == 0
        assert out.read_bytes() == reference.read_bytes()
        assert checkpoint.with_name("ck.json.kernels.npz").exists()
