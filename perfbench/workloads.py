"""Workload inputs, reference landscapes and accuracy scoring.

Everything here runs in the benchmark process, outside every timed
region: the program under test only ever sees the trace files written
by :func:`prepare`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.botmeter import Landscape
from repro.core.estimator import EstimationContext, PopulationEstimate
from repro.core.matcher import DgaDomainMatcher, group_by_server
from repro.core.taxonomy import recommended_estimator
from repro.eval.metrics import absolute_relative_error
from repro.service.liveview import build_lexical_detector
from repro.service.wire import (
    WIRE_VERSION,
    encode_header,
    encode_landscape,
    encode_record,
)
from repro.service.wire2 import Wire2Writer
from repro.sim.network import SimConfig, simulate
from repro.sim.trace import sort_observable
from repro.timebase import SECONDS_PER_DAY


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    wire: str  # "ndjson" or "v2"
    mode: str  # "serve", "replay" or "cluster"
    #: The trace holds the first ``records`` lookups of the simulated
    #: stream (all of them if it is shorter), so every seed gives a
    #: trace of the same size.
    records: int
    d3: bool = False
    bots: int = 64
    servers: int = 8
    days: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-mp-ndjson",
            "Full live per-record path (NDJSON decode, inline lexical D3, "
            "reorder, route, metric bookkeeping, checkpoints) under the cheap MP "
            "estimator.",
            family="murofet",
            wire="ndjson",
            mode="serve",
            records=36_000,
            d3=True,
        ),
        Workload(
            "replay-mb-wire2",
            "MB estimation and 10k-domain DGA pools dominate and decode is cheap:"
            " estimator and pool changes show here, ingest changes should not.",
            family="new_goz",
            wire="v2",
            mode="replay",
            records=60_000,
        ),
        Workload(
            "cluster2-mt-wire2",
            "Split, fork and exact merge over 2 partitions, each regenerating "
            "50k-domain pools: shows whether partitioning pays.",
            family="conficker_c",
            wire="v2",
            mode="cluster",
            records=66_000,
        ),
    )
}


@dataclass
class Prepared:
    trace: Path
    records: int
    reference: list[str]
    truth: dict[tuple[int, str], int]
    d3_missed: int
    d3_fp: int


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Simulate the workload's trace for ``seed``, write it in the
    workload's wire format, and build the reference landscape and the
    ground truth the served rows are checked against."""
    config = SimConfig(
        family=workload.family,
        n_bots=workload.bots,
        n_local_servers=workload.servers,
        n_days=workload.days,
        seed=seed,
    )
    result = simulate(config)
    records = result.observable[: workload.records]
    header = {
        "schema": "botmeter-trace-v1",
        "source": "sim",
        "families": [{"name": workload.family, "seed": config.family_seed}],
        "granularity": config.timestamp_granularity,
        "negative_ttl": config.negative_ttl,
        "origin": config.origin.isoformat(),
    }
    if workload.wire == "v2":
        trace = workdir / "trace.v2"
        with open(trace, "wb") as fh:
            writer = Wire2Writer(fh)
            writer.write_header({"v": WIRE_VERSION, "type": "header", **header})
            for record in records:
                writer.add(record)
            writer.close()
    else:
        trace = workdir / "trace.ndjson"
        with open(trace, "w") as fh:
            fh.write(encode_header(header) + "\n")
            for record in records:
                fh.write(encode_record(record) + "\n")
    # Accuracy is scored on the days the trace holds whole.
    whole_days = (
        workload.days
        if len(records) == len(result.observable)
        else int(records[-1].timestamp // SECONDS_PER_DAY)
    )
    truth = {
        (day, server): result.ground_truth.population(day, server)
        for day in range(whole_days)
        for server in result.ground_truth.servers()
    }
    rows, missed, fp = reference_rows(workload, config, result, records)
    return Prepared(trace, len(records), rows, truth, missed, fp)


def reference_rows(workload, config, result, records) -> tuple[list[str], int, int]:
    """The landscape rows a clean drain of ``records`` must serve, and
    the D3 misses and false positives over the whole trace.

    Built from the core matcher and estimator, not from the service: a
    lookup belongs to the epoch of the day window it matches (its own
    day first, else the previous day's, for activations that straddle
    midnight), and each (epoch, server) cell is estimated over its
    time-sorted matches with the family's recommended estimator.  With
    inline D3 only the lookups the lexical classifier calls DGA reach
    the matcher.
    """
    dga, timeline = result.dga, result.timeline
    ordered = sort_observable(records)
    last_day = int(ordered[-1].timestamp // SECONDS_PER_DAY)
    windows = {
        day: frozenset(dga.nxdomains(timeline.date_for_day(day)))
        for day in range(last_day + 1)
    }
    matcher = DgaDomainMatcher(windows)
    missed = fp = 0
    if workload.d3:
        classifier = build_lexical_detector()
        verdicts: dict[str, bool] = {}
        admitted, rejected = [], []
        for record in ordered:
            verdict = verdicts.get(record.domain)
            if verdict is None:
                verdict = verdicts[record.domain] = classifier.is_dga(record.domain)
            (admitted if verdict else rejected).append(record)
        missed = len(matcher.match(rejected))
        fp = len(admitted) - len(matcher.match(admitted))
        ordered = admitted
    by_day: dict[int, list] = {}
    for match in matcher.match(ordered):
        by_day.setdefault(match.day_index, []).append(match)
    estimator = recommended_estimator(dga)
    rows = []
    for day in range(last_day + 1):
        context = EstimationContext(
            dga=dga,
            timeline=timeline,
            window_start=day * SECONDS_PER_DAY,
            window_end=(day + 1) * SECONDS_PER_DAY,
            negative_ttl=config.negative_ttl,
            timestamp_granularity=config.timestamp_granularity,
        )
        landscape = Landscape(dga_name=dga.name, estimator_name=estimator.name)
        for server, matches in sorted(group_by_server(by_day.get(day, [])).items()):
            matches = sorted(matches, key=lambda m: m.timestamp)
            try:
                estimate = estimator.estimate(matches, context)
            except Exception:
                # The service's documented floor for a degenerate epoch.
                estimate = PopulationEstimate(float(len(matches)), estimator=estimator.name)
            landscape.per_server[server] = estimate
            landscape.matched_counts[server] = len(matches)
        rows.append(encode_landscape(workload.family, day, landscape))
    return rows, missed, fp


def check_rows(workload: Workload, prepared: Prepared, served: bytes) -> str | None:
    """``None`` when the served landscape is correct, else why not.

    Without D3 the served bytes must equal the reference rows exactly.
    With D3 every row must equal its reference apart from the measured
    D3 annotation, whose per-row deltas must sum to the misses and
    false positives the classifier makes on the whole trace.
    """
    lines = served.decode("utf-8").splitlines()
    if not workload.d3:
        if lines != prepared.reference:
            return f"landscape differs from the reference ({len(lines)} rows served)"
        return None
    rows = [json.loads(line) for line in lines]
    if len(rows) != len(prepared.reference):
        return f"{len(rows)} rows served, {len(prepared.reference)} expected"
    missed = fp = 0
    for row, ref in zip(rows, map(json.loads, prepared.reference)):
        quality = row["quality"]
        missed += quality["d3_missed"]
        fp += quality["d3_fp"]
        plain = {key: value for key, value in row.items() if key != "quality"}
        if plain != {key: value for key, value in ref.items() if key != "quality"}:
            return f"epoch {row['epoch']} estimates differ from the reference"
        for key in ("matched", "late", "dropped", "quarantined"):
            if quality[key] != ref["quality"][key]:
                return f"epoch {row['epoch']} quality.{key} differs from the reference"
    if (missed, fp) != (prepared.d3_missed, prepared.d3_fp):
        return (
            f"D3 annotation sums to {missed} missed / {fp} fp, "
            f"reference {prepared.d3_missed} / {prepared.d3_fp}"
        )
    return None


def are(prepared: Prepared, served: bytes) -> float:
    """Mean Eqn-4 ARE of the served per-server estimates over every
    (epoch, server) cell with active bots; a server the landscape omits
    counts as an estimate of 0."""
    estimates = {}
    for line in served.decode("utf-8").splitlines():
        row = json.loads(line)
        for server, cell in row["servers"].items():
            estimates[(row["epoch"], server)] = cell["estimate"]
    errors = [
        absolute_relative_error(estimates.get(cell, 0.0), actual)
        for cell, actual in sorted(prepared.truth.items())
        if actual > 0
    ]
    return sum(errors) / len(errors)
