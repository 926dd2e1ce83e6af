"""Durable daemon state: atomic JSON checkpoints with one spare generation.

A checkpoint is one JSON document — schema-tagged, carrying the input
byte offset, the emitted-landscape count, the engine snapshot and the
metric values.  Subsystems that own extra durable state ride the same
document through ``BotMeterDaemon.extra_checkpoint_state``: the network
ingest tier adds ``sensors`` (the per-sensor released-line cursor map —
the resume points it acks to connected sensors) and ``net_header`` (the
trace header that arrived over the wire, so engine configuration
survives a restart whose sensors resume past their header lines).  Writes
go through :func:`repro.service.durable.replacing` with ``fsync=True``,
so a crash mid-write leaves the previous checkpoint intact and a resumed
daemon never sees a torn file.

Atomicity protects against *our* crashes; it cannot protect against a
filesystem that lies (power loss after ``os.replace`` but before the
directory entry hits the platter leaves a torn or empty file).  The
store therefore keeps the **last two generations**: every save first
rotates the current checkpoint to a ``.1`` sibling, and :meth:`~
CheckpointStore.load` falls back to that previous generation when the
newest one is torn or empty.  A checkpoint with a *foreign schema* is
never silently skipped — that is a configuration error, not corruption,
and it still raises.

Sidecar files registered via :meth:`CheckpointStore.register_sidecar`
(the estimator-kernel ``.npz`` cache) rotate in lockstep: every save
snapshots the current sidecar next to the rotated ``.1`` checkpoint, and
a load that falls back to the previous generation promotes that
snapshot — a generation rollback never resumes an old checkpoint
against a newer, mismatched sidecar.

Rotation is **mmap-safe** by the same replace-never-mutate discipline
that makes it atomic: engine processes serve warm kernel tables straight
off a read-only mmap of the sidecar (:mod:`repro.core.kernels`), and
every rotation step here is a hardlink, a copy-to-temp, or an
``os.replace`` — the mapped *inode* is never written through, so a
rotation (or rollback promotion) under a live daemon leaves existing
mappings pointing at consistent old-generation bytes until their last
view drops.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from . import durable

__all__ = ["CHECKPOINT_SCHEMA", "CheckpointError", "CheckpointStore"]

CHECKPOINT_SCHEMA = "botmeterd-checkpoint-v1"


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be trusted."""


class CheckpointStore:
    """Load/save a checkpoint with write-rename atomicity and rotation."""

    def __init__(
        self,
        path: str | Path,
        sidecars: Iterable[str] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self._sidecars: list[str] = list(sidecars)
        self._clock = clock
        self._last_good: float | None = None

    @property
    def previous_path(self) -> Path:
        """The rotated previous-generation sibling (``<name>.1``)."""
        return self.path.with_name(self.path.name + ".1")

    def sidecar_path(self, suffix: str) -> Path:
        """A sibling file that travels with the checkpoint (e.g. the
        estimator-kernel cache ``<name>.kernels.npz``)."""
        return self.path.with_name(self.path.name + "." + suffix)

    def previous_sidecar_path(self, suffix: str) -> Path:
        """The previous-generation snapshot of a sidecar
        (``<name>.1.<suffix>``, rotated in lockstep with ``<name>.1``)."""
        return self.previous_path.with_name(self.previous_path.name + "." + suffix)

    def register_sidecar(self, suffix: str) -> Path:
        """Declare a sidecar that must rotate with the checkpoint.

        Registered sidecars are snapshotted to their previous-generation
        name on every :meth:`save` rotation and promoted back whenever
        :meth:`load` falls back to the previous generation — so a
        generation rollback never pairs an old checkpoint with a newer
        (stale) sidecar.  Returns the current-generation sidecar path.
        """
        if suffix not in self._sidecars:
            self._sidecars.append(suffix)
        return self.sidecar_path(suffix)

    def _rotate_sidecars(self) -> None:
        """Snapshot each registered sidecar alongside the rotated
        checkpoint (hardlink when possible — the writers replace, never
        mutate in place — falling back to a copy)."""
        for suffix in self._sidecars:
            current = self.sidecar_path(suffix)
            previous = self.previous_sidecar_path(suffix)
            if previous.exists():
                previous.unlink()
            if current.exists():
                try:
                    os.link(current, previous)
                except OSError:
                    shutil.copyfile(current, previous)

    def _promote_sidecars(self) -> None:
        """Make the sidecars match the previous generation we just
        fell back to: bring its snapshots forward, drop stale current
        sidecars that have no previous-generation counterpart."""
        for suffix in self._sidecars:
            current = self.sidecar_path(suffix)
            previous = self.previous_sidecar_path(suffix)
            if previous.exists():
                with open(previous, "rb") as src:
                    with durable.replacing(current, fsync=True) as fh:
                        shutil.copyfileobj(src, fh)
            elif current.exists():
                current.unlink()

    def exists(self) -> bool:
        return self.path.exists() or self.previous_path.exists()

    def save(self, state: dict[str, Any]) -> None:
        """Atomically replace the checkpoint with ``state``.

        The outgoing checkpoint is rotated to :attr:`previous_path`
        first, so the two newest generations are always on disk.
        """
        document = {"schema": CHECKPOINT_SCHEMA, **state}
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        if self.path.exists():
            os.replace(self.path, self.previous_path)
            self._rotate_sidecars()
        with durable.replacing(self.path, fsync=True) as fh:
            fh.write(payload)
        self._last_good = self._clock()

    def last_good_generation(self) -> float | None:
        """Age in seconds of the newest trustworthy generation this store
        has written or successfully loaded, on the injected monotonic
        clock; ``None`` before any good generation was seen.

        The partition heartbeat writer and the cluster lag detector both
        read this, so "how stale is this partition's durable state" has
        exactly one definition — a checkpoint that failed to save, or a
        load that had to reject every generation, never refreshes it.
        """
        if self._last_good is None:
            return None
        return self._clock() - self._last_good

    def _read(self, path: Path) -> dict[str, Any]:
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            error = CheckpointError(f"unreadable checkpoint {path}: {exc}")
            error.torn = True
            raise error from exc
        if not isinstance(document, dict) or document.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {path} has schema "
                f"{document.get('schema') if isinstance(document, dict) else None!r}; "
                f"expected {CHECKPOINT_SCHEMA!r}"
            )
        return document

    def load(self) -> dict[str, Any] | None:
        """The newest trustworthy checkpoint, or ``None`` if none exists.

        A torn or empty newest generation falls back to the previous
        one; a *foreign schema* raises either way (misconfiguration is
        not recoverable by rotation).

        Raises:
            CheckpointError: on a foreign schema, or when every
                generation on disk is unreadable.
        """
        if not self.path.exists():
            if self.previous_path.exists():
                document = self._read(self.previous_path)
                self._promote_sidecars()
                self._last_good = self._clock()
                return document
            return None
        try:
            document = self._read(self.path)
        except CheckpointError as exc:
            if not getattr(exc, "torn", False):
                raise  # foreign schema: never silently skipped
            if not self.previous_path.exists():
                raise
            document = self._read(self.previous_path)
            document["recovered_from_previous_generation"] = True
            self._promote_sidecars()
        self._last_good = self._clock()
        return document
