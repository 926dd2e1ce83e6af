"""Tests for the sharded multi-family engine.

The anchor assertion of the subsystem: the streamed, sharded,
reorder-buffered series serialises byte-identically to the offline
batch reference (`batch_series`) over the same records.
"""

import random

import pytest

from repro.core.timing import TimingEstimator
from repro.dga.families import make_family
from repro.dns.message import ForwardedLookup
from repro.service.daemon import batch_series
from repro.service.engine import ShardedLandscapeEngine
from repro.service.wire import encode_landscape
from repro.sim import SimConfig, simulate
from repro.sim.trace import sort_observable
from repro.timebase import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def merged_pair():
    """Two one-day families sharing a vantage point (same timeline)."""
    goz = simulate(
        SimConfig(family="new_goz", n_bots=16, n_local_servers=2, n_days=1, seed=11)
    )
    murofet = simulate(
        SimConfig(family="murofet", n_bots=12, n_local_servers=2, n_days=1, seed=12)
    )
    dgas = {"new_goz": goz.dga, "murofet": murofet.dga}
    records = sort_observable(list(goz.observable) + list(murofet.observable))
    return dgas, records, goz.timeline


def bounded_shuffle(records, window=16, seed=0):
    """Shuffle inside fixed-size chunks: displacement < window."""
    rng = random.Random(seed)
    out = []
    for i in range(0, len(records), window):
        chunk = list(records[i : i + window])
        rng.shuffle(chunk)
        out.extend(chunk)
    return out


def stream(engine, records):
    out = []
    for record in records:
        out.extend(engine.submit(record))
    out.extend(engine.finalize())
    return out


def serialize(epochs):
    return [
        encode_landscape(e.family, e.day_index, e.landscape) for e in epochs
    ]


class TestBatchEquivalence:
    def test_single_family_multiserver(self, multiserver_run):
        # Seed 3 starts activations shortly before midnight whose
        # lookups run past it: both series charge those to the epoch
        # the domains were matched in, not the epoch of their timestamp.
        post_midnight = simulate(
            SimConfig(family="new_goz", n_bots=24, n_local_servers=2, n_days=2, seed=3)
        )
        for run in (multiserver_run, post_midnight):
            dgas = {"new_goz": run.dga}
            engine = ShardedLandscapeEngine(dgas, timeline=run.timeline)
            streamed = stream(engine, run.observable)
            reference = batch_series(run.observable, dgas, timeline=run.timeline)
            assert serialize(streamed) == serialize(reference)

    def test_bounded_shuffle_is_absorbed(self, multiserver_run):
        """A boundedly-shuffled stream gives the same bytes as sorted."""
        run = multiserver_run
        dgas = {"new_goz": run.dga}
        shuffled = bounded_shuffle(run.observable, window=32, seed=7)
        engine = ShardedLandscapeEngine(
            dgas, timeline=run.timeline, reorder_capacity=64
        )
        streamed = stream(engine, shuffled)
        reference = batch_series(run.observable, dgas, timeline=run.timeline)
        assert serialize(streamed) == serialize(reference)

    def test_two_families_one_stream(self, merged_pair):
        dgas, records, timeline = merged_pair
        engine = ShardedLandscapeEngine(dgas, timeline=timeline)
        streamed = stream(engine, records)
        reference = batch_series(records, dgas, timeline=timeline)
        assert serialize(streamed) == serialize(reference)
        # One merged landscape per (day, family), families sorted.
        assert [(e.day_index, e.family) for e in streamed] == [
            (0, "murofet"),
            (0, "new_goz"),
        ]


class TestEngineMechanics:
    def setup_method(self):
        self.windows = {
            "murofet": {
                0: frozenset({"d0a.example", "d0b.example"}),
                1: frozenset({"d1a.example"}),
                2: frozenset(),
                3: frozenset(),
            }
        }

    def make_engine(self, **kwargs):
        kwargs.setdefault("estimator", TimingEstimator())
        kwargs.setdefault("detection_windows", self.windows)
        kwargs.setdefault("grace", 900.0)
        return ShardedLandscapeEngine({"murofet": make_family("murofet", 0)}, **kwargs)

    def test_shards_appear_per_family_server(self):
        engine = self.make_engine()
        engine.submit(ForwardedLookup(10.0, "s1", "d0a.example"))
        engine.submit(ForwardedLookup(20.0, "s0", "d0b.example"))
        engine.submit(ForwardedLookup(30.0, "s1", "benign.example"))
        engine.finalize()
        assert engine.shard_keys == [("murofet", "s0"), ("murofet", "s1")]

    def test_epoch_closes_on_watermark(self):
        # capacity 1 so each push releases the previous record at once.
        engine = self.make_engine(reorder_capacity=1)
        assert engine.submit(ForwardedLookup(10.0, "s", "d0a.example")) == []
        assert (
            engine.submit(ForwardedLookup(SECONDS_PER_DAY + 901.0, "s", "d1a.example"))
            == []
        )
        # Releasing the past-grace record advances the watermark and
        # closes epoch 0.
        closed = engine.submit(
            ForwardedLookup(SECONDS_PER_DAY + 1000.0, "s", "d1a.example")
        )
        assert [(e.family, e.day_index) for e in closed] == [("murofet", 0)]
        assert closed[0].landscape.matched_counts == {"s": 1}
        assert engine.next_epoch_to_emit == 1

    def test_quiet_days_emit_empty_landscapes(self):
        """The finalized series is rectangular: families × days 0..last."""
        engine = self.make_engine()
        engine.submit(ForwardedLookup(10.0, "s", "d0a.example"))
        engine.submit(ForwardedLookup(3 * SECONDS_PER_DAY + 5.0, "s", "quiet.example"))
        epochs = engine.finalize()
        assert [e.day_index for e in epochs] == [0, 1, 2, 3]
        assert epochs[0].landscape.total > 0
        assert all(e.landscape.total == 0.0 for e in epochs[1:])

    def test_straddling_record_routes_to_previous_day(self):
        engine = self.make_engine()
        # d0a is only in day 0's window; just past midnight it still
        # belongs to epoch 0 (midnight-straddling activation).
        engine.submit(ForwardedLookup(SECONDS_PER_DAY + 5.0, "s", "d0a.example"))
        epochs = engine.finalize()
        day0 = [e for e in epochs if e.day_index == 0][0]
        assert day0.landscape.matched_counts == {"s": 1}

    def test_late_record_is_counted_not_charted(self):
        engine = self.make_engine(reorder_capacity=1)
        engine.submit(ForwardedLookup(10.0, "s", "d0a.example"))
        engine.submit(ForwardedLookup(SECONDS_PER_DAY + 901.0, "s", "d1a.example"))
        engine.submit(ForwardedLookup(SECONDS_PER_DAY + 1000.0, "s", "x.example"))
        assert engine.next_epoch_to_emit == 1  # epoch 0 already emitted
        engine.submit(ForwardedLookup(20.0, "s", "d0b.example"))  # too late
        engine.submit(ForwardedLookup(SECONDS_PER_DAY + 1100.0, "s", "x.example"))
        assert engine.metrics.counter("botmeterd_records_late_total").value() == 1
        epochs = engine.finalize()
        day0 = [e for e in epochs if e.day_index == 0]
        # Epoch 0 was emitted mid-stream, not re-emitted at finalize.
        assert day0 == []

    def test_drop_oldest_keeps_engine_running(self):
        engine = self.make_engine(reorder_capacity=1, policy="drop-oldest")
        engine.submit(ForwardedLookup(10.0, "s", "d0a.example"))
        engine.submit(ForwardedLookup(20.0, "s", "d0b.example"))  # drops 10.0
        epochs = engine.finalize()
        day0 = [e for e in epochs if e.day_index == 0][0]
        assert day0.landscape.matched_counts == {"s": 1}
        assert engine.metrics.counter("botmeterd_records_dropped_total").value() == 1

    def test_submit_after_finalize_raises(self):
        engine = self.make_engine()
        engine.submit(ForwardedLookup(10.0, "s", "d0a.example"))
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.submit(ForwardedLookup(20.0, "s", "d0b.example"))

    def test_finalize_is_idempotent(self):
        engine = self.make_engine()
        engine.submit(ForwardedLookup(10.0, "s", "d0a.example"))
        assert len(engine.finalize()) == 1
        assert engine.finalize() == []

    def test_empty_stream_finalizes_to_nothing(self):
        engine = self.make_engine()
        assert engine.finalize() == []

    def test_rejects_empty_family_map(self):
        with pytest.raises(ValueError):
            ShardedLandscapeEngine({})

    def test_auto_estimator_resolves_per_family(self, multiserver_run):
        engine = ShardedLandscapeEngine(
            {"new_goz": multiserver_run.dga}, timeline=multiserver_run.timeline
        )
        assert engine.estimator_name("new_goz") == "bernoulli"
