"""Per-process metric snapshots: crash-safe JSON export for fleet merging.

A campaign fleet is many processes — the service's pool threads, local
``Campaign.dispatch`` workers, external ``python -m repro.dispatch work``
processes on other machines, probe-backend drains — each with its own
process-local :data:`repro.obs.metrics.METRICS` registry.  This module is
the write side of the fleet view: every process periodically *flushes* its
full registry state (:meth:`MetricsRegistry.dump`) as one JSON snapshot
under the dispatch directory it is working::

    <dispatch-dir>/obs/metrics/<pid>-<nonce>.json

Three properties make the snapshots safe to merge (see
:mod:`repro.obs.aggregate`):

* **atomic** — each flush writes a temp file (suffix ``.tmp``, invisible to
  the aggregator's ``*.json`` glob) and ``os.replace``-s it over the
  snapshot, so a reader never observes a torn snapshot and a worker killed
  mid-flush leaves at worst a stale complete one plus an orphan temp file.
  Flushes of one exporter are serialised from sequence draw to replace, so
  the snapshot on disk always carries the highest ``seq`` drawn.
* **stable identity** — a process always writes the *same* filename (its
  pid plus a per-process random nonce) and stamps every snapshot with a
  monotonically increasing ``seq``, so the aggregator can deduplicate one
  process flushing into several directories (a worker draining probe dirs)
  by keeping its highest sequence only.
* **fork-aware** — the identity is keyed on ``os.getpid()`` and lazily
  regenerated, so ``multiprocessing`` children that inherited this module's
  state get their own identity (and a reset sequence) on first flush
  instead of colliding with — and being deduplicated against — the parent.

Flushing is best-effort by construction: like tracing, metrics are a side
channel, so an unwritable directory degrades observability but never a
campaign (``flush_metrics`` returns ``None`` instead of raising).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import uuid
from pathlib import Path

from repro.obs.metrics import METRICS, MetricsRegistry

SNAPSHOT_KIND = "metrics-snapshot"
SNAPSHOT_SCHEMA_VERSION = 1

#: Where snapshots live, relative to the dispatch directory being worked.
METRICS_DIRNAME = os.path.join("obs", "metrics")


class MetricsExporter:
    """One process identity writing sequence-stamped snapshots.

    The module-level :func:`flush_metrics` uses a shared per-process
    exporter; tests (and anything simulating a fleet inside one process)
    build their own with explicit ``process``/``nonce`` identities.
    """

    def __init__(self, process: str | None = None, nonce: str | None = None) -> None:
        self.nonce = nonce if nonce is not None else uuid.uuid4().hex[:8]
        host = socket.gethostname()
        self.process = (
            process
            if process is not None
            else f"{host}-{os.getpid()}-{self.nonce}"
        )
        self._seq = 0
        self._lock = threading.Lock()

    def filename(self) -> str:
        return f"{os.getpid()}-{self.nonce}.json"

    def flush(
        self, directory: str | Path, *, registry: MetricsRegistry | None = None
    ) -> Path | None:
        """Atomically (re)write this process's snapshot under ``directory``.

        ``directory`` is a dispatch directory; the snapshot lands under its
        ``obs/metrics/`` subtree.  Returns the snapshot path, or ``None``
        when the filesystem refused (flushing never breaks a run loop).
        """
        target_dir = Path(directory) / METRICS_DIRNAME
        path = target_dir / self.filename()
        tmp = path.with_name(f".{path.stem}-{uuid.uuid4().hex[:6]}.tmp")
        # Pool threads share one exporter.  Holding the lock from drawing
        # the sequence number through the replace makes flushes land in
        # sequence order, so an older snapshot can never replace a newer one.
        with self._lock:
            self._seq += 1
            payload = {
                "kind": SNAPSHOT_KIND,
                "schema": SNAPSHOT_SCHEMA_VERSION,
                "process": self.process,
                "seq": self._seq,
                "metrics": (registry if registry is not None else METRICS).dump(),
            }
            try:
                target_dir.mkdir(parents=True, exist_ok=True)
                tmp.write_text(
                    json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
                )
                os.replace(tmp, path)
            except OSError:
                try:
                    tmp.unlink()
                except OSError:
                    pass
                return None
        return path


_exporter: MetricsExporter | None = None
_exporter_pid: int | None = None
_exporter_lock = threading.Lock()


def process_exporter() -> MetricsExporter:
    """This process's shared exporter (regenerated after a fork)."""
    global _exporter, _exporter_pid
    pid = os.getpid()
    with _exporter_lock:
        if _exporter is None or _exporter_pid != pid:
            _exporter = MetricsExporter()
            _exporter_pid = pid
        return _exporter


def flush_metrics(
    directory: str | Path, *, registry: MetricsRegistry | None = None
) -> Path | None:
    """Flush this process's registry snapshot under a dispatch directory."""
    return process_exporter().flush(directory, registry=registry)
