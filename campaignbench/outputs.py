"""Per-mission digests of the results a record does not carry.

A mission's record shows how it ended, but not every result computed on the
way: an MLS-V3 mission stopped after its first RRT* leg ends before the
vehicle flies the plan, so a wrong map or a wrong path would leave its record
unchanged.  The check therefore also digests, per mission, every
``PlanningResult`` the system's planner returned (status, waypoints, cost,
iterations, nodes expanded; not the wall-clock ``planning_time``) and the
map's public counts at mission end (``occupied_voxel_count()`` of the octree
and the local grid, and the octree's ``node_count()``).

The hooks wrap the planners' ``plan`` and ``MissionRunner.run`` at class
level from the benchmark's code, once per process and for every pass,
traced or not.  Dispatch workers are forked after :func:`install`, inherit
the hooks and report their own log.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from typing import Any, Callable

#: Planner classes whose ``plan`` results are logged.
PLANNERS = (
    ("repro.planning.straight_line", "StraightLinePlanner"),
    ("repro.planning.ego_planner", "EgoLocalPlanner"),
    ("repro.planning.rrt_star", "RrtStarPlanner"),
)


class OutputLog:
    """scenario_id -> digest of that mission's plans and final map counts."""

    def __init__(self) -> None:
        self.missions: dict[str, str] = {}
        #: Entries of the mission now running, or None between missions.
        self.current: list[list] | None = None

    def reset(self) -> None:
        self.missions.clear()


LOG = OutputLog()


def digest(value: Any) -> str:
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def _logged_plan(fn: Callable[..., Any]) -> Callable[..., Any]:
    def plan(*args, **kwargs):
        result = fn(*args, **kwargs)
        if LOG.current is not None:
            LOG.current.append(
                [
                    "plan",
                    result.status.value,
                    [[point.x, point.y, point.z] for point in result.waypoints],
                    result.cost,
                    result.iterations,
                    result.nodes_expanded,
                ]
            )
        return result

    plan.__wrapped__ = fn
    return plan


def _logged_mission(fn: Callable[..., Any]) -> Callable[..., Any]:
    def run(runner, *args, **kwargs):
        entries: list[list] = []
        LOG.current = entries
        try:
            record = fn(runner, *args, **kwargs)
        finally:
            LOG.current = None
        system = runner.system
        if system.octree is not None:
            entries.append(["octree", system.octree.occupied_voxel_count(), system.octree.node_count()])
        if system.local_grid is not None:
            entries.append(["local_grid", system.local_grid.occupied_voxel_count()])
        LOG.missions[record.scenario_id] = digest(entries)
        return record

    run.__wrapped__ = fn
    return run


def install() -> None:
    """Wrap the planners and the mission runner, once per process."""
    for module_name, class_name in PLANNERS:
        owner = getattr(importlib.import_module(module_name), class_name)
        owner.plan = _logged_plan(owner.__dict__["plan"])
    runner = importlib.import_module("repro.core.mission").MissionRunner
    runner.run = _logged_mission(runner.__dict__["run"])
