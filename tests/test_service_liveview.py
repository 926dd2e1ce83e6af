"""Liveview tier: inline lexical D3, dynamic registry, re-key campaigns.

Three anchors from the Liveview tentpole are pinned here:

* **Framing independence with a real D3 inline** — a hypothesis
  property replays the committed re-key campaign trace under random
  batch framings and tracing states; every run must produce the exact
  committed landscape bytes.  Worker-count identity (1 vs 4) rides the
  same fixture.
* **Oracle-vs-lexical accounting** — the detector's measured miss
  counters must *exactly* reconcile the two replays: every record the
  oracle run matched was either matched or counted missed by the
  lexical run, and the landscape totals diverge by no more than the
  measured miss rate allows.
* **Dynamic-registry crash recovery** — SIGKILL the daemon after the
  ``register`` control line has been consumed and checkpointed; the
  resumed run must restore the registered family (no restart, no
  taxonomy flag) and finish byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.lexical import LexicalDetector
from repro.dga.families import make_family
from repro.dns.message import ForwardedLookup
from repro.service.daemon import BotMeterDaemon
from repro.service.engine import ShardedLandscapeEngine
from repro.service.liveview import (
    RekeyConfig,
    StreamingDetector,
    build_lexical_detector,
    generate_rekey_trace,
    load_training_fixture,
    rekey_family_name,
    write_rekey_trace,
)
from repro.timebase import Timeline

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).parent / "golden" / "liveview_rekey"
TRACE = GOLDEN / "trace.ndjson"
EXPECTED = GOLDEN / "expected.landscape.ndjson"

DAY = dt.date(2014, 5, 1)


def _replay_bytes(tmp_path: Path, tag: str, **kwargs) -> bytes:
    out = tmp_path / f"{tag}.ndjson"
    daemon = BotMeterDaemon(
        TRACE, out_path=out, follow=False, **kwargs
    )
    assert daemon.run() == 0
    return out.read_bytes()


def _rows(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines()]


# ---------------------------------------------------------------------
# Tentpole anchor: byte identity under any framing, with a real D3
# ---------------------------------------------------------------------


class TestLexicalReplayByteIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        batch_lines=st.sampled_from([1, 3, 17, 256]),
        trace_sample=st.sampled_from([0, 2, 16]),
    )
    def test_any_framing_any_tracing_matches_committed_bytes(
        self, tmp_path_factory, batch_lines, trace_sample
    ):
        """The admitted subsequence is a pure function of the records,
        so batch framing and span tracing (off, dense with a span sink,
        or at the default sampling) must not shift one byte of the
        lexical-D3 landscape."""
        tmp_path = tmp_path_factory.mktemp("framing")
        kwargs = {"batch_lines": batch_lines, "d3": "lexical", "trace_sample": trace_sample}
        if trace_sample == 2:
            kwargs["trace_out"] = tmp_path / "spans.ndjson"
        got = _replay_bytes(tmp_path, f"b{batch_lines}.t{trace_sample}", **kwargs)
        assert got == EXPECTED.read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_count_matches_committed_bytes(self, workers, tmp_path):
        got = _replay_bytes(
            tmp_path, f"w{workers}", batch_lines=256, ingest_workers=workers,
            d3="lexical",
        )
        assert got == EXPECTED.read_bytes()


# ---------------------------------------------------------------------
# Oracle-vs-lexical accounting
# ---------------------------------------------------------------------


class TestOracleVsLexical:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pair")
        oracle = _rows(_replay_bytes(tmp, "oracle", batch_lines=256, d3="oracle"))
        lexical = _rows(EXPECTED.read_bytes())
        return oracle, lexical

    def test_oracle_admits_everything(self, pair):
        oracle, _ = pair
        assert all(r["quality"]["d3_missed"] == 0 for r in oracle)
        assert all(r["quality"]["d3_fp"] == 0 for r in oracle)
        assert all(r["quality"]["d3_miss_rate"] == 0 for r in oracle)

    def test_missed_counters_reconcile_the_replays_exactly(self, pair):
        """Every family-window record is conserved: oracle-matched ==
        lexical-matched + lexical-missed, as integers, not estimates."""
        oracle, lexical = pair
        ora_matched = sum(r["quality"]["matched"] for r in oracle)
        lex_matched = sum(r["quality"]["matched"] for r in lexical)
        lex_missed = sum(r["quality"]["d3_missed"] for r in lexical)
        assert lex_missed > 0, "fixture no longer exercises real misses"
        assert ora_matched == lex_matched + lex_missed

    def test_landscape_divergence_bounded_by_measured_miss_rate(self, pair):
        """What the lexical filter costs the chart is bounded by what
        it *says* it costs: the relative L1 gap between the two
        landscapes stays under the measured miss rate (plus slack for
        estimator granularity)."""
        oracle, lexical = pair
        miss_rate = max(r["quality"]["d3_miss_rate"] for r in lexical)
        assert 0 < miss_rate < 0.5
        ora_total = sum(r["total"] for r in oracle)
        gap = sum(
            abs(o["total"] - l["total"]) for o, l in zip(oracle, lexical)
        )
        assert gap <= (miss_rate + 0.05) * ora_total


# ---------------------------------------------------------------------
# StreamingDetector unit behaviour
# ---------------------------------------------------------------------


class TestStreamingDetector:
    def build(self, mode="lexical"):
        dga = make_family("qakbot", 7)
        return dga, StreamingDetector({"qakbot": dga}, Timeline(DAY), mode=mode)

    def record(self, domain: str) -> ForwardedLookup:
        return ForwardedLookup(100.0, "ldns-000", domain)

    def test_rejects_unknown_mode(self):
        dga = make_family("qakbot", 7)
        with pytest.raises(ValueError):
            StreamingDetector({"qakbot": dga}, Timeline(DAY), mode="psychic")

    def test_oracle_admits_and_counts(self):
        dga, detector = self.build("oracle")
        nxd = sorted(dga.nxdomains(DAY))[0]
        assert detector.admit(self.record(nxd))
        assert detector.detected["qakbot"] == 1
        assert detector.fp_total == 0
        assert detector.measured_miss_rate() == 0.0

    def test_lexical_miss_is_counted_and_dropped(self):
        dga, detector = self.build()
        # Find a family-window domain the classifier gets wrong; the
        # committed fixture guarantees qakbot's miss rate is non-zero.
        missed = next(
            (
                d
                for d in sorted(dga.nxdomains(DAY))
                if not detector._detector.is_dga(d)
            ),
            None,
        )
        assert missed is not None, "classifier became perfect on qakbot"
        assert not detector.admit(self.record(missed))
        assert detector.missed["qakbot"] == 1
        assert detector.measured_miss_rate() == 1.0

    def test_false_positive_is_admitted_and_counted(self):
        _, detector = self.build()
        # A DGA-looking domain outside every configured family window:
        # a new_goz label, while the taxonomy only routes qakbot.
        foreign = sorted(make_family("new_goz", 7).nxdomains(DAY))[0]
        assert detector.admit(self.record(foreign))
        assert detector.fp_total == 1
        assert detector.truth_total == 0

    def test_benign_nonmatching_record_drops_silently(self):
        _, detector = self.build()
        assert not detector.admit(self.record("weather.com"))
        assert detector.fp_total == 0
        assert detector.missed_total == 0

    def test_add_family_is_idempotent_and_live(self):
        dga, detector = self.build("oracle")
        rekeyed = make_family("qakbot", 5)
        detector.add_family("qakbot-rk5", rekeyed)
        detector.add_family("qakbot-rk5", rekeyed)
        assert detector.families == ["qakbot", "qakbot-rk5"]
        nxd = sorted(rekeyed.nxdomains(DAY))[0]
        assert detector.admit(self.record(nxd))
        assert detector.detected["qakbot-rk5"] >= 1

    def test_counter_state_round_trips(self):
        dga, detector = self.build("oracle")
        for domain in sorted(dga.nxdomains(DAY))[:5]:
            detector.admit(self.record(domain))
        state = detector.export_state()
        _, fresh = self.build("oracle")
        fresh.import_state(state)
        assert fresh.export_state() == state
        assert fresh.snapshot() == detector.snapshot()

    def test_training_fixture_is_well_formed(self):
        benign, dga = load_training_fixture()
        assert len(benign) > 100 and len(dga) > 300
        assert not (set(benign) & set(dga))
        detector = build_lexical_detector()
        assert isinstance(detector, LexicalDetector)
        assert detector.is_dga(sorted(make_family("new_goz", 7).nxdomains(DAY))[0])
        assert not detector.is_dga("google.com")


# ---------------------------------------------------------------------
# Dynamic registry on the engine
# ---------------------------------------------------------------------


class TestEngineDynamicRegistry:
    def engine(self) -> ShardedLandscapeEngine:
        return ShardedLandscapeEngine(
            {"qakbot": make_family("qakbot", 7)}, timeline=Timeline(DAY)
        )

    def test_register_rejects_duplicates(self):
        engine = self.engine()
        with pytest.raises(ValueError):
            engine.register_family("qakbot", make_family("qakbot", 5))

    def test_dynamic_family_rides_exported_state(self):
        engine = self.engine()
        engine.register_family(
            "qakbot-rk5",
            make_family("qakbot", 5),
            spec={"name": "qakbot-rk5", "base": "qakbot", "seed": 5},
        )
        state = engine.export_state()
        assert state["dynamic"] == [
            {"name": "qakbot-rk5", "base": "qakbot", "seed": 5}
        ]
        fresh = self.engine()
        fresh.import_state(state)
        assert "qakbot-rk5" in fresh.families

    def test_static_engine_state_has_no_dynamic_key(self):
        assert "dynamic" not in self.engine().export_state()


# ---------------------------------------------------------------------
# Re-key campaign traces
# ---------------------------------------------------------------------


class TestRekeyTrace:
    CONFIG = RekeyConfig(
        family="qakbot", base_seed=7, rekey_seed=5, n_bots=4, n_days=2, seed=3
    )

    def test_generation_is_deterministic(self):
        first = generate_rekey_trace(self.CONFIG)
        second = generate_rekey_trace(self.CONFIG)
        assert first == second

    def test_register_line_splices_the_phases(self, tmp_path):
        path = tmp_path / "campaign.ndjson"
        header = write_rekey_trace(path, self.CONFIG)
        lines = path.read_text().splitlines()
        registers = [
            i
            for i, line in enumerate(lines)
            if json.loads(line).get("type") == "register"
        ]
        assert len(registers) == 1
        splice = registers[0]
        control = json.loads(lines[splice])
        assert control["family"] == rekey_family_name(self.CONFIG) == "qakbot-rk5"
        assert control["base"] == "qakbot" and control["seed"] == 5
        assert header["rekey"]["handoff_day"] == 1
        # Every phase-2 record sits in day 1; every phase-1 record in day 0.
        day = lambda line: int(json.loads(line)["timestamp"] // 86_400)
        assert all(day(line) == 0 for line in lines[1:splice])
        assert all(day(line) == 1 for line in lines[splice + 1 :])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RekeyConfig(n_days=1)
        with pytest.raises(ValueError):
            RekeyConfig(takedown_hour=24.0)


# ---------------------------------------------------------------------
# Crash recovery across a live registration
# ---------------------------------------------------------------------


class TestDynamicRegistryCrashRecovery:
    def test_sigkill_after_registration_then_resume(self, tmp_path):
        """Kill -9 the daemon after the ``register`` control line has
        been consumed and checkpointed; the resume must rebuild the
        registered family from checkpoint state alone and finish
        byte-identical to the uninterrupted golden bytes."""
        out = tmp_path / "served.ndjson"
        checkpoint = tmp_path / "ck.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--input", str(TRACE),
            "--no-follow",
            "--out", str(out),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "100",
            "--d3", "lexical",
        ]
        proc = subprocess.Popen(
            argv + ["--throttle", "0.01"], env=env, stderr=subprocess.DEVNULL
        )
        dynamic_seen = None
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                assert proc.poll() is None, "daemon finished before the kill"
                if checkpoint.exists():
                    try:
                        state = json.loads(checkpoint.read_text())
                    except ValueError:
                        state = {}
                    if state.get("engine", {}).get("dynamic"):
                        dynamic_seen = state
                        break
                time.sleep(0.03)
            assert dynamic_seen is not None, (
                "no checkpoint carrying the dynamic family within 120 s"
            )
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        # The checkpoint alone must name the registered family and hold
        # the detector's counters.
        assert dynamic_seen["engine"]["dynamic"] == [
            {"name": "qakbot-rk5", "base": "qakbot", "seed": 5}
        ]
        assert dynamic_seen["d3"]["mode"] == "lexical"
        assert dynamic_seen["d3"]["counters"]["detected"]["qakbot"] > 0

        resumed = subprocess.run(argv, env=env, stderr=subprocess.DEVNULL)
        assert resumed.returncode == 0
        assert out.read_bytes() == EXPECTED.read_bytes()
