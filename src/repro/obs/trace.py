"""Flight-recorder tracing: per-phase mission timing as framed JSONL.

A :class:`FlightRecorder` rides along one mission run and accumulates, per
pipeline phase (sense → detect → map → plan → control, plus the simulator
physics and the fault-harness interception), a span count and total
wall-clock seconds, together with deterministic sensor-accounting counters
(frames rendered, depth captures, products lost to faults) and the
deterministic *nominal* module costs the execution-platform model charges.
One summary line per run is appended to a trace file next to the campaign
results.

The mission runner times every phase through one idiom,
``with recorder.span(phase): ...``.  An untraced run gets
:data:`NULL_RECORDER`, whose spans are a shared no-op, so the traced and
untraced loops are the same code.

Tracing is strictly a side channel:

* it reads ``time.perf_counter`` only — never an RNG, never mission state it
  could perturb — so campaign records are byte-identical with tracing on or
  off (the contract the ``obs-smoke`` CI job enforces with ``cmp``);
* trace files reuse the repo's framed-JSONL rules (:mod:`repro.jsonl`): one
  header line (``kind: "flight-trace"``), then one summary object per run;
* appends are single ``os.write`` calls on ``O_APPEND`` descriptors and the
  header is created once, atomically (:func:`repro.jsonl.write_once`), so any number of
  campaign workers — processes or machines sharing the directory — can
  append to the same trace dir without coordination, and a reader never sees
  a headerless or interleaved file.

Wall-clock span totals are inherently machine-dependent; everything else in
a summary (span counts, counters, nominal seconds) is a pure function
of the campaign definition, which is what lets ``repro.obs report`` commit a
byte-stable baseline (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
import os
import re
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Mapping

from repro.jsonl import iter_frame_records, write_once

#: Trace-file framing (the same gate discipline as campaign results).
TRACE_KIND = "flight-trace"
TRACE_SCHEMA_VERSION = 1

#: The instrumented mission phases, in pipeline order.  ``physics`` is the
#: simulated vehicle/EKF step (the ROADMAP's residual hot spot), ``sense`` is
#: sensor capture (camera + depth), ``detect``/``map``/``plan`` are the
#: landing-system modules, ``control`` is command application + platform
#: scheduling, and ``harness`` is fault-injection interception.
PHASES = ("physics", "sense", "detect", "map", "plan", "control", "harness")


class _Span:
    """Times its ``with`` body as one span of ``phase``."""

    __slots__ = ("_recorder", "_phase", "_started")

    def __init__(self, recorder: "FlightRecorder", phase: str) -> None:
        self._recorder = recorder
        self._phase = phase
        self._started = 0.0

    def __enter__(self) -> None:
        self._started = perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        elapsed = perf_counter() - self._started
        recorder, phase = self._recorder, self._phase
        recorder.span_counts[phase] = recorder.span_counts.get(phase, 0) + 1
        recorder.span_seconds[phase] = recorder.span_seconds.get(phase, 0.0) + elapsed


class FlightRecorder:
    """Accumulates one mission run's per-phase spans and counters.

    Not thread-safe and not meant to be shared: every run gets its own
    recorder (they are cheap — a few dicts).
    """

    __slots__ = ("span_counts", "span_seconds", "counters", "nominal_seconds")

    def __init__(self) -> None:
        self.span_counts: dict[str, int] = {}
        self.span_seconds: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.nominal_seconds: dict[str, float] = {
            "detect": 0.0, "map": 0.0, "plan": 0.0,
        }

    def span(self, phase: str) -> _Span:
        """Context manager timing its body as one ``phase`` span."""
        return _Span(self, phase)

    # -- deterministic quantities --------------------------------------- #
    def count(self, name: str, amount: int = 1) -> None:
        """Bump a deterministic event counter (rendered or lost frames)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def charge_nominal(self, detection: float, mapping: float, planning: float) -> None:
        """Accumulate the platform model's nominal per-tick module costs."""
        self.nominal_seconds["detect"] += detection
        self.nominal_seconds["map"] += mapping
        self.nominal_seconds["plan"] += planning

    # -- emission -------------------------------------------------------- #
    def summary(
        self, *, system: str, scenario_id: str, repetition: int
    ) -> dict[str, Any]:
        """One run's trace summary (the JSONL payload object)."""
        return {
            "scenario_id": scenario_id,
            "system": system,
            "repetition": repetition,
            "spans": {
                phase: {
                    "count": self.span_counts.get(phase, 0),
                    "wall_s": self.span_seconds.get(phase, 0.0),
                }
                for phase in sorted(self.span_counts)
            },
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "nominal_s": {
                phase: self.nominal_seconds[phase]
                for phase in sorted(self.nominal_seconds)
            },
        }


_NULL_SPAN = nullcontext()


class NullRecorder:
    """The recorder of an untraced run: every call is a no-op."""

    __slots__ = ()

    def span(self, phase: str) -> nullcontext[None]:
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def charge_nominal(self, detection: float, mapping: float, planning: float) -> None:
        pass


NULL_RECORDER = NullRecorder()


# ---------------------------------------------------------------------- #
# trace files
# ---------------------------------------------------------------------- #
def trace_filename(system_name: str) -> str:
    """Trace file for one system's runs (mirrors the campaign-result naming)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", system_name) + ".trace.jsonl"


def _trace_header(system_name: str) -> dict[str, Any]:
    return {
        "kind": TRACE_KIND,
        "schema": TRACE_SCHEMA_VERSION,
        "system": system_name,
        "phases": list(PHASES),
    }


def _ensure_header(path: Path, system_name: str) -> None:
    """Create the trace file with its header line, atomically.

    :func:`repro.jsonl.write_once` links the complete header into place:
    concurrent appenders either see it already on disk or race to create it
    (the loser's header is identical), so no appender can ever observe (or
    append to) a headerless file.
    """
    if not path.exists():
        write_once(path, json.dumps(_trace_header(system_name), sort_keys=True) + "\n")


def append_trace_summary(
    directory: str | Path,
    recorder: FlightRecorder,
    *,
    system: str,
    scenario_id: str,
    repetition: int,
    correlation: Mapping[str, str] | None = None,
) -> Path:
    """Append one run's summary to ``<directory>/<system>.trace.jsonl``.

    The payload is one line, written with a single ``write`` on an
    ``O_APPEND`` descriptor, so concurrent appends from parallel campaign
    workers interleave at line granularity only (the same guarantee as
    campaign-result appends).  ``correlation`` (job/shard/probe ids, see
    :meth:`repro.bench.campaign.Campaign.correlate`) is stamped into the
    summary as a ``corr`` object when given; summaries without one render
    byte-identically to pre-correlation trace files.
    """
    directory = Path(directory)
    path = directory / trace_filename(system)
    _ensure_header(path, system)
    payload = recorder.summary(
        system=system, scenario_id=scenario_id, repetition=repetition
    )
    if correlation:
        payload["corr"] = {str(key): str(value) for key, value in correlation.items()}
    line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)
    return path


def iter_trace_summaries(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every run summary in one trace file (torn tails tolerated)."""
    yield from iter_frame_records(
        path,
        TRACE_KIND,
        TRACE_SCHEMA_VERSION,
        json.loads,
        description="trace summary",
    )
