"""Outside-in probes: wrappers the launcher puts around public calls.

Two levels:

* plain — a handful of timestamps per run (daemon or cluster ready, last
  landscape row, each engine call that emitted an epoch) plus peak RSS.
  The wrapped calls happen a few hundred times per run, so these runs
  give the end-to-end metrics.
* trace — additionally times every layer boundary listed in
  :meth:`Probe._install_layers`.  Spans nest: a layer's *self* time is
  its call time minus the time of wrapped calls made inside it, so self
  times of all layers plus the unattributed rest add up to the
  process's wall time.

Forked cluster partitions inherit the wrappers; each ships its own
numbers back as ``part-<pid>.json`` next to the launcher's stats file.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

#: CLOCK_MONOTONIC on Linux, so timestamps compare across processes.
clock = time.perf_counter_ns


def peak_rss_kb() -> int:
    """This process's peak RSS.  ``VmHWM`` starts afresh at ``exec``;
    ``ru_maxrss`` would carry over the benchmark process's own peak from
    before it started the drain."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Probe:
    def __init__(self, stats_path: Path, trace: bool) -> None:
        self.stats_path = stats_path
        self.trace = trace
        self.pid = os.getpid()
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[list[int]] = []
        self.marks: dict[str, int] = {}
        self.emit_ns: list[int] = []
        self.engine_depth = 0

    def reset(self) -> None:
        """Forget what a forked partition inherited from its parent (in
        place: the installed wrappers hold these containers)."""
        for container in (
            self.self_ns, self.calls, self.counts, self.marks, self.emit_ns
        ):
            container.clear()

    # -- span plumbing ---------------------------------------------------

    def span(self, layer: str, fn):
        # Locals only: this wrapper runs up to a few times per record.
        stack, self_ns, calls = self.stack, self.self_ns, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[layer] += dt - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def span_iter(self, layer: str, fn):
        """For generator functions: time each ``next`` separately, so the
        consumer's work between items stays out of the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(layer, fn(*args, **kwargs))

        return wrapper

    def _timed(self, layer, iterator):
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        while True:
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[layer] += dt - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dt
            yield item

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from repro.service import cluster, daemon, engine

        probe = self
        run = daemon.BotMeterDaemon.run

        @functools.wraps(run)
        def daemon_run(self_):
            probe.marks.setdefault("ready", clock())
            return run(self_)

        daemon.BotMeterDaemon.run = (
            self.span("daemon.loop", daemon_run) if self.trace else daemon_run
        )

        encode = daemon.encode_landscape

        def encode_landscape(*args, **kwargs):
            line = encode(*args, **kwargs)
            probe.marks["last_row"] = clock()
            return line

        daemon.encode_landscape = (
            self.span("emit", encode_landscape) if self.trace else encode_landscape
        )

        for name in ("submit_batch", "submit_columns", "finalize"):
            original = getattr(engine.ShardedLandscapeEngine, name, None)
            if original is not None:
                setattr(
                    engine.ShardedLandscapeEngine,
                    name,
                    self._engine_call(original),
                )

        replay = cluster.cluster_replay

        def cluster_replay(*args, **kwargs):
            probe.marks["ready"] = clock()
            return replay(*args, **kwargs)

        cluster.cluster_replay = (
            self.span("cluster.parent", cluster_replay) if self.trace else cluster_replay
        )
        merge = cluster.merge_landscape_rows

        def merge_landscape_rows(*args, **kwargs):
            rows = merge(*args, **kwargs)
            probe.marks["last_row"] = clock()
            return rows

        cluster.merge_landscape_rows = (
            self.span("cluster.merge", merge_landscape_rows)
            if self.trace
            else merge_landscape_rows
        )
        partition = cluster.run_partition

        def run_partition(config):
            if os.getpid() != probe.pid:
                probe.reset()
            probe.marks["start"] = clock()
            try:
                return partition(config)
            finally:
                probe.marks["end"] = clock()
                if os.getpid() != probe.pid:
                    probe.dump(
                        probe.stats_path.with_name(f"part-{os.getpid()}.json")
                    )

        cluster.run_partition = run_partition
        if self.trace:
            cluster.merge_registry_states = self.span(
                "cluster.merge", cluster.merge_registry_states
            )
            self._install_layers()

    def _engine_call(self, fn):
        """Time each outermost engine call; keep the durations of those
        that emitted an epoch (every submit path and finalize return the
        epochs they closed)."""
        probe = self
        inner = self.span("engine", fn) if self.trace else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.engine_depth:
                return inner(*args, **kwargs)
            probe.engine_depth += 1
            t0 = clock()
            try:
                out = inner(*args, **kwargs)
            finally:
                probe.engine_depth -= 1
            dt = clock() - t0
            if out:
                probe.emit_ns.append(dt)
            return out

        return wrapper

    def _install_layers(self) -> None:
        from repro.core.bernoulli import BernoulliEstimator
        from repro.core.poisson import PoissonEstimator
        from repro.core.timing import TimingEstimator
        from repro.detect.lexical import LexicalDetector
        from repro.dga.base import Dga, PoolModel
        from repro.service.checkpoint import CheckpointStore
        from repro.service.liveview import StreamingDetector
        from repro.service.metrics import Counter, Gauge, Histogram
        from repro.service.reorder import ReorderBuffer
        from repro.service.wire import NdjsonBatchDecoder
        from repro.service.wire2 import LookupColumns, Wire2BatchDecoder

        hooks = [
            ("wire.decode", NdjsonBatchDecoder, ("push", "flush"), False),
            ("wire.decode", NdjsonBatchDecoder, ("iter_push",), True),
            ("wire2.decode", Wire2BatchDecoder, ("push_events", "flush"), False),
            ("wire2.decode", Wire2BatchDecoder, ("iter_events",), True),
            ("wire2.decode", LookupColumns, ("materialize",), False),
            ("liveview.classify", LexicalDetector, ("is_dga",), False),
            ("reorder", ReorderBuffer, ("push", "_push", "flush"), False),
            ("metrics", Counter, ("inc", "set_total"), False),
            ("metrics", Gauge, ("set", "add"), False),
            ("metrics", Histogram, ("observe",), False),
            ("dga.window", Dga, ("nxdomains", "registered"), False),
            ("dga.pool", Dga, ("pool",), False),
            ("estimate.mp", PoissonEstimator, ("estimate",), False),
            ("estimate.mb", BernoulliEstimator, ("estimate",), False),
            ("estimate.mt", TimingEstimator, ("estimate",), False),
        ]
        pools = [PoolModel]
        while pools:
            cls = pools.pop()
            pools.extend(cls.__subclasses__())
            if cls is not PoolModel:
                hooks.append(("dga.pool", cls, ("pool_for", "useful_pool_for"), False))
        for layer, owner, names, is_iter in hooks:
            for name in names:
                original = owner.__dict__.get(name)
                if original is None:
                    continue
                wrap = self.span_iter if is_iter else self.span
                setattr(owner, name, wrap(layer, original))

        probe = self
        admit = self.span("liveview.admit", StreamingDetector.admit)

        def counted_admit(self_, record):
            verdict = admit(self_, record)
            probe.counts["liveview.admitted"] += bool(verdict)
            return verdict

        StreamingDetector.admit = counted_admit
        save = self.span("checkpoint", CheckpointStore.save)

        def counted_save(self_, state):
            save(self_, state)
            probe.counts["checkpoint.bytes"] += self_.path.stat().st_size

        CheckpointStore.save = counted_save

    # -- output ----------------------------------------------------------

    def dump(self, path: Path, **extra) -> None:
        stats = {
            "marks": self.marks,
            "emit_ns": self.emit_ns,
            "rss_kb": peak_rss_kb(),
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            **extra,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(stats))
        os.replace(tmp, path)
