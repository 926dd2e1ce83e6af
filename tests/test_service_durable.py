"""Tests for the durable-file discipline (:mod:`repro.service.durable`).

Three contracts:

* :func:`~repro.service.durable.replacing` publishes all or nothing;
* no other module fsyncs or builds a temp sibling for ``os.replace``,
  so the write discipline is decided in one place;
* a daemon killed at *any* durable operation — including one inside
  the checkpoint restore of a resumed run — resumes to the same
  landscape and dead-letter bytes as an uninterrupted replay.
"""

import ast
import itertools
import os
import random
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import durable

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TRACE = Path(__file__).resolve().parent / "golden" / "murofet_small.ndjson"
FAULTS = "seed=5,corrupt=0.02"  # soft faults only: a non-empty DLQ


class TestReplacing:
    def test_publishes_on_success(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        with durable.replacing(target, fsync=True) as fh:
            fh.write(b"new")
            assert target.read_bytes() == b"old"  # not visible mid-write
        assert target.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_failure_keeps_old_content_and_drops_temp(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with durable.replacing(target) as fh:
                fh.write(b"half")
                raise RuntimeError("writer failed")
        assert target.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_truncate_lines_cuts_like_a_line_slice_across_chunks(tmp_path):
    # Line lengths up to ~70 KB, so cuts land on both sides of the
    # scanner's 64 KiB chunk boundaries.
    lines = [b"x" * (i * 9973 % 70_001) + b"\n" for i in range(40)]
    path = tmp_path / "stream.ndjson"
    for keep in (0, 1, 7, 39, 40, 41):
        path.write_bytes(b"".join(lines) + b"torn")
        durable.truncate_lines(path, keep)
        if keep <= len(lines):
            assert path.read_bytes() == b"".join(lines[:keep])
        else:  # fewer complete lines than asked for: untouched
            assert path.read_bytes() == b"".join(lines) + b"torn"
    durable.truncate_lines(tmp_path / "missing.ndjson", 3)
    assert not (tmp_path / "missing.ndjson").exists()


def _call_name(node):
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return func.id if isinstance(func, ast.Name) else None


def test_only_durable_fsyncs_or_replaces_through_a_temp_sibling():
    """Write discipline is one module's decision: every other module
    goes through ``durable``.  The one rename allowed elsewhere is the
    checkpoint store's generation rotation (current -> ``.1``)."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "service" / "durable.py":
            continue
        where = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if ".tmp." in node.value:
                    offenders.append(f"{where}:{node.lineno} builds a .tmp. name")
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("os.fsync", "os.fdatasync", "fsync"):
                    offenders.append(f"{where}:{node.lineno} calls {name}")
                elif name in ("os.replace", "os.rename"):
                    rotation = str(where) == "service/checkpoint.py" and [
                        ast.unparse(arg) for arg in node.args
                    ] == ["self.path", "self.previous_path"]
                    if not rotation:
                        offenders.append(f"{where}:{node.lineno} calls {name}")
    assert offenders == []


# ---------------------------------------------------------------------------
# Crash-point sweep
# ---------------------------------------------------------------------------


def _arm(kill_at, mode):
    """Count durable operations in this process; at the ``kill_at``-th,
    die with ``os._exit(137)`` (no handlers, no buffered writes — a
    SIGKILL as far as the files are concerned).  ``mode`` is ``before``
    the operation touches the disk, ``inside`` a replace (temp file
    written, not yet renamed) or ``after`` it completed."""
    calls = itertools.count(1)
    real_replacing, real_truncate = durable.replacing, durable.truncate_lines

    def crash(n, when):
        if n == kill_at and mode == when:
            os._exit(137)

    @contextmanager
    def replacing(path, **kwargs):
        n = next(calls)
        crash(n, "before")
        with real_replacing(path, **kwargs) as fh:
            yield fh
            crash(n, "inside")
        crash(n, "after")

    def truncate_lines(path, keep):
        n = next(calls)
        crash(n, "before")
        crash(n, "inside")
        real_truncate(path, keep)
        crash(n, "after")

    durable.replacing = replacing
    durable.truncate_lines = truncate_lines
    return calls


def _run(argv, kill_at=None, mode="before"):
    """``main(argv)`` in a forked child, optionally killed at a durable
    operation; returns ``(exit code, durable operations performed)``."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            os.close(read_end)
            signal.alarm(120)  # a hung child dies instead of hanging the suite
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            calls = _arm(kill_at, mode)
            code = main(argv)
            os.write(write_end, str(next(calls) - 1).encode())
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        performed = fh.read()
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), int(performed or -1)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("durable-ref")
    out, dlq = root / "ref.ndjson", root / "ref.dlq.ndjson"
    assert main([
        "replay", str(TRACE), "--out", str(out),
        "--faults", FAULTS, "--deadletter", str(dlq),
    ]) == 0
    assert dlq.read_bytes(), "the fault seed must quarantine something"
    return out.read_bytes(), dlq.read_bytes()


def _serve_argv(workdir):
    return [
        "serve", "--input", str(TRACE), "--no-follow",
        "--out", str(workdir / "out.ndjson"),
        "--checkpoint", str(workdir / "ck.json"),
        "--checkpoint-every", "50",
        "--faults", FAULTS,
        "--deadletter", str(workdir / "dlq.ndjson"),
        "--metrics-out", str(workdir / "metrics.prom"),
        "--health-out", str(workdir / "health.json"),
    ]


def test_crash_at_any_durable_operation_resumes_byte_identical(
    reference, tmp_path
):
    """Kill a serve at its N-th durable operation, kill the resume at
    its M-th (M <= 3 lands inside ``_restore``: the dead-letter cut,
    the output cut, or the first replace after them), then resume
    cleanly: the landscape and the dead-letter file must equal an
    uninterrupted replay's, byte for byte."""
    (tmp_path / "clean").mkdir()
    code, total = _run(_serve_argv(tmp_path / "clean"))
    assert code == 0 and total > 60  # ~3 replaces per checkpoint
    rng = random.Random(13)
    modes = ("before", "inside", "after")
    # All ~93 operations would take about a minute; a seeded sample
    # that always includes the first and the last keeps this near 15 s.
    points = sorted({1, total, *rng.sample(range(2, total), 24)})
    for n in points:
        workdir = tmp_path / f"kill-{n}"
        workdir.mkdir()
        argv = _serve_argv(workdir)
        mode = rng.choice(modes)
        code, _ = _run(argv, kill_at=n, mode=mode)
        assert code == 137, f"serve ran past durable op {n}"
        restore_kill = rng.randint(1, 3)
        code, _ = _run(argv, kill_at=restore_kill, mode=rng.choice(modes))
        assert code == 137
        code, _ = _run(argv)
        assert code == 0, f"clean resume failed after kills at {n}/{restore_kill}"
        got = (workdir / "out.ndjson").read_bytes(), (workdir / "dlq.ndjson").read_bytes()
        assert got == reference, (
            f"kill at op {n} ({mode}), then at resume op {restore_kill}: "
            "resumed bytes differ from the uninterrupted replay"
        )
