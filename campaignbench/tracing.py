"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each layer from the benchmark's own
code — class attributes for methods, module attributes for functions, each
patched where the calling code looks the name up — so nothing under ``src/``
changes.  Every wrapped call is a span.  A span stack gives each span's self
time (its duration minus the time its child spans cover).  Spans are folded
into per-name totals in memory and written once, at the end of the run.

Dispatch workers are forked after :func:`install`, so they inherit the
wrappers; each worker resets its copy of the tracer and writes its own
snapshot, which the parent merges (:meth:`Tracer.merge`).
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Any, Callable

#: Span names whose per-call durations are kept for percentiles.
KEEP_DURATIONS = frozenset(
    {
        "sensors.camera.capture",
        "perception.detect",
        "mapping.integrate_cloud",
        "planning.plan",
    }
)


class Tracer:
    """Per-process span and work-counter totals."""

    def __init__(self) -> None:
        #: One ``[child seconds]`` cell per open span, innermost last.
        self.stack: list[list[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self.durations: dict[str, array] = {}
        #: Exact work counts read from public arguments and return values.
        self.counts: dict[str, int] = {}

    def reset(self) -> None:
        """Zero the totals; spans still open keep their stack cells."""
        self.spans.clear()
        self.durations.clear()
        self.counts.clear()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn: Callable[..., Any], after=None) -> Callable[..., Any]:
        """``fn`` wrapped as a span named ``name``.

        ``after(tracer, args, result)`` reads work counts from the call.
        """
        keep = name in KEEP_DURATIONS
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals = tracer.spans.get(name)
                if totals is None:
                    totals = tracer.spans[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - cell[0]
                if keep:
                    tracer.durations.setdefault(name, array("d")).append(elapsed)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------ #
    # snapshots (worker -> parent)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        return {
            "spans": {name: list(totals) for name, totals in self.spans.items()},
            "durations": {name: list(values) for name, values in self.durations.items()},
            "counts": dict(self.counts),
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        for name, (calls, total, self_s) in snapshot["spans"].items():
            totals = self.spans.setdefault(name, [0, 0.0, 0.0])
            totals[0] += calls
            totals[1] += total
            totals[2] += self_s
        for name, values in snapshot["durations"].items():
            self.durations.setdefault(name, array("d")).extend(values)
        for name, amount in snapshot["counts"].items():
            self.count(name, amount)


TRACER = Tracer()


# ---------------------------------------------------------------------- #
# work counters
# ---------------------------------------------------------------------- #
def _detections(tracer: Tracer, args, result) -> None:
    tracer.count("perception.detect.detections", len(result.detections))


def _depth_points(tracer: Tracer, args, result) -> None:
    tracer.count("sensors.depth.capture.points", len(result.points))


def _integrated_points(tracer: Tracer, args, result) -> None:
    tracer.count("mapping.integrate_cloud.points", len(args[1].points))


def _plan_work(tracer: Tracer, args, result) -> None:
    from repro.planning.types import PlannerStatus

    tracer.count("planning.plan.iterations", result.iterations)
    tracer.count("planning.plan.nodes_expanded", result.nodes_expanded)
    tracer.count("planning.plan.successes", int(result.status is PlannerStatus.SUCCESS))


def _final_octree(tracer: Tracer, args, result) -> None:
    """After each mission: the octree's size through its public counters."""
    octree = args[0].system.octree
    tracer.count("core.mission.runs", 1)
    if octree is not None:
        tracer.count("mapping.octree.nodes_final", octree.node_count())
        tracer.count("mapping.octree.occupied_final", octree.occupied_voxel_count())


#: (module, owner attribute or None for a module function, attribute, span
#: name, work-counter hook).  Module functions are patched in the module the
#: caller looks them up from.
TARGETS: tuple[tuple[str, str | None, str, str, Any], ...] = (
    ("repro.sensors.camera", "DownwardCamera", "capture", "sensors.camera.capture", None),
    ("repro.perception.classical", "ClassicalMarkerDetector", "detect", "perception.detect", _detections),
    ("repro.perception.learned", "LearnedMarkerDetector", "detect", "perception.detect", _detections),
    ("repro.vehicle.autopilot", "Autopilot", "step", "vehicle.step", None),
    ("repro.world.world", "World", "colliding_obstacle", "world.colliding_obstacle", None),
    ("repro.sensors.depth", "DepthCamera", "capture", "sensors.depth.capture", _depth_points),
    ("repro.mapping.octomap", "OcTree", "integrate_cloud", "mapping.integrate_cloud", _integrated_points),
    ("repro.mapping.voxel_grid", "VoxelGrid", "integrate_cloud", "mapping.integrate_cloud", _integrated_points),
    ("repro.planning.straight_line", "StraightLinePlanner", "plan", "planning.plan", _plan_work),
    ("repro.planning.ego_planner", "EgoLocalPlanner", "plan", "planning.plan", _plan_work),
    ("repro.planning.rrt_star", "RrtStarPlanner", "plan", "planning.plan", _plan_work),
    ("repro.mapping.inflation", "InflatedMap", "is_colliding", "mapping.inflated.is_colliding", None),
    ("repro.mapping.inflation", "InflatedMap", "segment_colliding", "mapping.inflated.segment_colliding", None),
    ("repro.core.landing_system", "LandingSystem", "decide", "core.decide", None),
    ("repro.core.mission", "MissionRunner", "run", "core.mission", _final_octree),
    ("repro.bench.campaign", "Campaign", "run", "campaign.run", None),
    ("repro.faults.harness", "FaultHarness", "filter_estimate", "faults.harness", None),
    ("repro.faults.harness", "FaultHarness", "filter_frame", "faults.harness", None),
    ("repro.faults.harness", "FaultHarness", "filter_cloud", "faults.harness", None),
    ("repro.faults.harness", "FaultHarness", "corrupt_mapping", "faults.harness", None),
    ("repro.faults.harness", "FaultHarness", "filter_command", "faults.harness", None),
    ("repro.faults.harness", "FaultHarness", "adjust_timings", "faults.harness", None),
    ("repro.faults.harness", "FaultHarness", "finalize", "faults.harness", None),
    ("repro.faults.harness", "FaultyDetector", "detect", "faults.harness", None),
    ("repro.faults.harness", "FaultyPlanner", "plan", "faults.harness", None),
    ("repro.dispatch.queue", "ShardQueue", "claim", "dispatch.claim", None),
    ("repro.obs.export", "MetricsExporter", "flush", "obs.flush", None),
    # Campaign.run persists through the name it imported at module load.
    ("repro.bench.campaign", None, "append_record_jsonl", "dispatch.persist", None),
    # The benchmark calls these two through their defining modules.
    ("repro.dispatch.planner", None, "plan_dispatch", "dispatch.plan", None),
    ("repro.dispatch.merge", None, "merge_dispatch", "dispatch.merge", None),
)

_installed: list[tuple[Any, str, Any]] = []


def install(tracer: Tracer = TRACER) -> None:
    """Wrap every target; :func:`uninstall` restores the originals."""
    if _installed:
        raise RuntimeError("tracer wrappers are already installed")
    for module_name, owner_name, attribute, span_name, after in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attribute]
        setattr(owner, attribute, tracer.span(span_name, original, after))
        _installed.append((owner, attribute, original))


def uninstall() -> None:
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)
