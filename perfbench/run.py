"""botmeterd benchmark: closed-loop drains of seeded traces.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-mp-ndjson --seed 1 --seconds 35 --trace 0

Each run simulates the workload's trace from ``--seed`` (untimed), then
drains it through cold ``repro.cli`` processes, one after another, for
``--seconds`` seconds; the first drain is an untimed warm-up.  Every
drain is checked against a reference landscape; any difference makes
the run incorrect.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates plain and traced drains and reports the
per-layer metrics.  The last stdout line is the JSON result; the line
before it holds the host and every drain's raw numbers.  See
``perfbench/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
MIN_REPS = 3
REP_TIMEOUT_S = 120
PARTITIONS = 2

END_TO_END = {
    "records_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def cli_args(workload, trace: Path, rep: Path) -> tuple[list[str], Path, Path]:
    """``(argv, landscape, metrics)`` for one drain of ``workload``."""
    if workload.mode == "cluster":
        cluster = rep / "cluster"
        argv = [
            "cluster-replay", str(trace), "--workdir", str(cluster),
            "--partitions", str(PARTITIONS), "--no-verify",
        ]
        return argv, cluster / "landscape.ndjson", cluster / "metrics.prom"
    out, metrics = rep / "landscape.ndjson", rep / "metrics.prom"
    if workload.mode == "serve":
        argv = ["serve", "--input", str(trace), "--no-follow"]
    else:
        argv = ["replay", str(trace)]
    argv += [
        "--out", str(out), "--metrics-out", str(metrics),
        "--health-out", str(rep / "health.json"),
    ]
    if workload.mode == "serve":
        argv += ["--checkpoint", str(rep / "checkpoint.json")]
    if workload.d3:
        argv += ["--d3", "lexical"]
    return argv, out, metrics


def prometheus_totals(text: str) -> dict[str, float]:
    """Sum of every series of each metric in a Prometheus exposition."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def drain(workload, prepared, workdir: Path, index: int, traced: bool) -> dict:
    """One cold drain; returns its raw numbers (``error`` set if wrong)."""
    rep = workdir / f"rep{index}"
    rep.mkdir()
    stats = rep / "stats.json"
    argv, landscape, metrics = cli_args(workload, prepared.trace, rep)
    command = [sys.executable, str(LAUNCH), str(stats), "trace" if traced else "plain", *argv]
    with open(rep / "stderr.log", "wb") as log:
        t_spawn = time.perf_counter_ns()
        # Its own process group, so forked partitions die with the drain.
        proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        t_exit = time.perf_counter_ns()
    result = {"traced": traced, "spawn_ns": t_spawn, "exit_ns": t_exit}
    if code != 0 or not stats.exists():
        tail = (rep / "stderr.log").read_bytes()[-2000:].decode("utf-8", "replace")
        result["error"] = f"drain exited with {code}: {tail}"
        return result
    parent = json.loads(stats.read_text())
    result["parent"] = parent
    result["partitions"] = [
        json.loads(path.read_text()) for path in sorted(rep.glob("part-*.json"))
    ]
    served = landscape.read_bytes()
    result["error"] = workloads.check_rows(workload, prepared, served)
    result["are"] = workloads.are(prepared, served)
    result["metrics"] = prometheus_totals(metrics.read_text())
    shutil.rmtree(rep)
    return result


def failed_records(rep: dict) -> int:
    m = rep["metrics"]
    return int(
        m.get("botmeterd_records_skipped_total", 0)
        + m.get("botmeterd_records_dropped_total", 0)
        + m.get("botmeterd_records_late_total", 0)
        + m.get("botmeterd_estimate_fallbacks_total", 0)
    )


def wall_s(rep: dict) -> float:
    return (rep["exit_ns"] - rep["spawn_ns"]) / 1e9


def processing_ns(rep: dict) -> int:
    """Daemon or cluster ready → last landscape row."""
    return rep["parent"]["marks"]["last_row"] - rep["parent"]["marks"]["ready"]


def epoch_emit_ms(reps: list[dict]) -> float:
    """Median duration of the engine calls that emitted an epoch, pooled
    over drains and partitions."""
    return median(
        ns
        for rep in reps
        for process in [rep["parent"], *rep["partitions"]]
        for ns in process["emit_ns"]
    ) / 1e6


def end_to_end(reps: list[dict], records: int) -> dict[str, float]:
    """Medians over the run's timed drains."""
    return {
        "records_per_s": median(records * 1e9 / processing_ns(rep) for rep in reps),
        "wall_s": median(map(wall_s, reps)),
        "setup_s": median(
            (rep["parent"]["marks"]["ready"] - rep["spawn_ns"]) / 1e9 for rep in reps
        ),
        "peak_rss_mb": median(
            sum(p["rss_kb"] for p in [rep["parent"], *rep["partitions"]]) / 1024
            for rep in reps
        ),
    }


def per_layer(rep: dict, records: int) -> dict[str, float]:
    """The per-layer metrics of one traced drain."""
    processes = [rep["parent"], *rep["partitions"]]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for process in processes:
        for into, key in ((self_ns, "self_ns"), (calls, "calls"), (counts, "counts")):
            for name, value in process[key].items():
                into[name] = into.get(name, 0) + value
    m = rep["metrics"]

    def ns(layer):
        return self_ns.get(layer, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    parent = rep["parent"]
    walls = [(p["marks"]["end"] - p["marks"]["start"]) / 1e9 for p in rep["partitions"]]
    unattributed = (
        wall_s(rep) * 1e9 - parent["import_ns"] - sum(parent["self_ns"].values())
    )
    for p in rep["partitions"]:
        unattributed += p["marks"]["end"] - p["marks"]["start"] - sum(p["self_ns"].values())
    saves = calls.get("checkpoint", 0)
    return {
        "cli.import_ms": parent["import_ns"] / 1e6,
        "daemon.loop_ns_per_record": ns("daemon.loop") / records,
        "wire.decode_ns_per_record": ns("wire.decode") / records,
        "wire2.decode_ns_per_record": ns("wire2.decode") / records,
        "liveview.admit_ns_per_record": (ns("liveview.admit") + ns("liveview.classify")) / records,
        "liveview.classify_calls": calls.get("liveview.classify", 0),
        "liveview.admitted_ratio": ratio(
            counts.get("liveview.admitted", 0), calls.get("liveview.admit", 0)
        ),
        "reorder.ns_per_record": ns("reorder") / records,
        "reorder.reordered_ratio": m.get("botmeterd_records_reordered_total", 0) / records,
        "engine.route_self_ns_per_record": ns("engine") / records,
        "engine.matched_ratio": ratio(
            m.get("botmeterd_records_matched_total", 0),
            m.get("botmeterd_records_ingested_total", 0),
        ),
        "metrics.calls_per_record": calls.get("metrics", 0) / records,
        "metrics.ns_per_record": ns("metrics") / records,
        "dga.pool_ms": ns("dga.pool") / 1e6,
        "dga.window_calls": calls.get("dga.window", 0),
        "dga.window_ms": ns("dga.window") / 1e6,
        "estimate.mp_ms": ns("estimate.mp") / 1e6,
        "estimate.mb_ms": ns("estimate.mb") / 1e6,
        "estimate.mt_ms": ns("estimate.mt") / 1e6,
        "estimate.calls": sum(calls.get(f"estimate.{k}", 0) for k in ("mp", "mb", "mt")),
        "estimate.fallbacks": m.get("botmeterd_estimate_fallbacks_total", 0),
        "estimate.are": rep["are"],
        "emit.ms": ns("emit") / 1e6,
        "checkpoint.saves": saves,
        "checkpoint.ms_per_save": ratio(ns("checkpoint") / 1e6, saves),
        "checkpoint.bytes_per_save": ratio(counts.get("checkpoint.bytes", 0), saves),
        "cluster.split_ms": (
            (min(p["marks"]["start"] for p in rep["partitions"]) - parent["marks"]["ready"]) / 1e6
            if rep["partitions"]
            else 0.0
        ),
        "cluster.merge_ms": ns("cluster.merge") / 1e6,
        "cluster.partition_wall_s_max": max(walls, default=0.0),
        "cluster.partition_skew": max(walls) / statistics.fmean(walls) if walls else 0.0,
        "unattributed_ms": unattributed / 1e6,
    }


PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "daemon.loop_ns_per_record": "ns",
    "wire.decode_ns_per_record": "ns",
    "wire2.decode_ns_per_record": "ns",
    "liveview.admit_ns_per_record": "ns",
    "liveview.classify_calls": "count",
    "liveview.admitted_ratio": "ratio",
    "reorder.ns_per_record": "ns",
    "reorder.reordered_ratio": "ratio",
    "engine.route_self_ns_per_record": "ns",
    "engine.matched_ratio": "ratio",
    "metrics.calls_per_record": "count",
    "metrics.ns_per_record": "ns",
    "dga.pool_ms": "ms",
    "dga.window_calls": "count",
    "dga.window_ms": "ms",
    "estimate.mp_ms": "ms",
    "estimate.mb_ms": "ms",
    "estimate.mt_ms": "ms",
    "estimate.calls": "count",
    "estimate.fallbacks": "count",
    "estimate.are": "ratio",
    "emit.ms": "ms",
    "checkpoint.saves": "count",
    "checkpoint.ms_per_save": "ms",
    "checkpoint.bytes_per_save": "bytes",
    "cluster.split_ms": "ms",
    "cluster.merge_ms": "ms",
    "cluster.partition_wall_s_max": "s",
    "cluster.partition_skew": "ratio",
    "unattributed_ms": "ms",
    "engine.epoch_emit_ms": "ms",
    "trace.overhead_ms": "ms",
}


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reference that
    is recorded next to every result, never divided into it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - t0


def host() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_s(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C: the running drain is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    info = host()
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        prepared = workloads.prepare(workload, args.seed, workdir)
        # The trace just written goes to disk now, not during a drain.
        os.sync()
        start = time.perf_counter()
        # The first drain warms the page and bytecode caches; it is
        # checked like every drain but not timed.
        warmup = drain(workload, prepared, workdir, 0, False)
        reps: list[dict] = []
        durations: list[float] = []
        while not warmup["error"]:
            traced = bool(args.trace) and len(reps) % 2 == 1
            t0 = time.perf_counter()
            rep = drain(workload, prepared, workdir, len(reps) + 1, traced)
            durations.append(time.perf_counter() - t0)
            reps.append(rep)
            if rep["error"]:
                break
            elapsed = time.perf_counter() - start
            enough = len(reps) >= (2 * MIN_REPS if args.trace else MIN_REPS)
            if enough and elapsed + median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there
    checked = [warmup, *reps]
    errors = [rep["error"] for rep in checked if rep["error"]]
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    if errors:
        metrics = {}
    elif args.trace:
        layers = [per_layer(rep, prepared.records) for rep in traced]
        metrics = {name: median(row[name] for row in layers) for name in layers[0]}
        metrics["engine.epoch_emit_ms"] = epoch_emit_ms(plain)
        metrics["trace.overhead_ms"] = 1e3 * (
            median(map(wall_s, traced)) - median(map(wall_s, plain))
        )
    else:
        metrics = end_to_end(plain, prepared.records)
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "records": prepared.records,
        "host": info,
        "errors": errors,
        "reps": [
            {
                "traced": rep["traced"],
                "wall_s": wall_s(rep),
                "processing_s": processing_ns(rep) / 1e9 if "parent" in rep else None,
                "are": rep.get("are"),
                "failed": failed_records(rep) if "metrics" in rep else None,
            }
            for rep in checked
        ],
    }
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.4f} {units[name]}")
    for error in errors:
        print(f"INCORRECT: {error}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": prepared.records * len(checked),
        "failed": sum(failed_records(rep) for rep in checked if "metrics" in rep),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no botmeterd source under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    raise SystemExit(main())
