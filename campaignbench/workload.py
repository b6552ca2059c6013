"""One benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per workload run with ``TMPDIR`` pointed
at a private empty directory, so nothing — in particular the detector
network's disk cache — carries over between runs.  The script times its own
set-up, flies whole campaign passes of the seed's suite until the measuring
time is spent, checks every mission against the expected digests (its record
and, see ``outputs.py``, its plans and final map counts), and writes one JSON
result file for ``run.py`` to report.

    python3 campaignbench/workload.py --workload v3-cluttered-serial --seed 1 \
        --seconds 50 --trace 0 --spawned-at <time.monotonic()> --out result.json

``--setup-only`` stops once the first mission could start; ``--record``
flies one serial traced pass and writes its digests and work counts instead
of measuring.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    preset: str
    #: Missions per pass (one pass flies the whole suite once).
    missions: int
    #: Simulated-seconds cap per mission (``MissionConfig.max_mission_time``).
    max_mission_time: float | None = None
    faults: str | None = None
    #: Dispatch shards; 0 runs the campaign in-process.
    shards: int = 0


#: Why these three, and why BENCHMARK.json lists only v3 and v2: see
#: NOTES.md.  MLS-V3 missions stop at 8.8 simulated seconds — take-off
#: (about 7.3 s) plus the first RRT* leg — because later replans (about
#: 1.4 s of wall each, zero to four per mission) made a run's figure depend
#: on how many replans its noise draws happened to trigger.  MLS-V2 flies 48
#: missions, one per shard, for the same reason: its noise and fault draws
#: decide whether a mission lasts 10 or 160 simulated seconds.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("v3-cluttered-serial", "mls-v3", "cluttered", missions=12, max_mission_time=8.8),
        Workload("v1-nominal-serial", "mls-v1", "nominal", missions=24),
        Workload("v2-stress-faults-dispatch", "mls-v2", "stress", missions=48, faults="smoke", shards=48),
    )
}

#: Work counts that must repeat exactly between the traced passes of a run.
EXACT_COUNTS = (
    "sensors.camera.capture.calls",
    "perception.detect.calls",
    "perception.detect.detections",
    "vehicle.step.calls",
    "world.colliding_obstacle.calls",
    "sensors.depth.capture.calls",
    "sensors.depth.capture.points",
    "mapping.integrate_cloud.calls",
    "mapping.integrate_cloud.points",
    "mapping.octree.nodes_final",
    "mapping.octree.occupied_final",
    "planning.plan.calls",
    "planning.plan.iterations",
    "planning.plan.nodes_expanded",
    "planning.plan.successes",
    "mapping.inflated.is_colliding.calls",
    "mapping.inflated.segment_colliding.calls",
    "core.decide.calls",
    "core.mission.runs",
    "faults.harness.calls",
)

#: The counts that are results of the program, also checked against the
#: counts stored for a seed.  Call counts are left out: an optimisation may
#: return the same results with fewer calls.
STORED_COUNTS = (
    "perception.detect.detections",
    "sensors.depth.capture.points",
    "mapping.integrate_cloud.points",
    "mapping.octree.nodes_final",
    "mapping.octree.occupied_final",
    "planning.plan.iterations",
    "planning.plan.nodes_expanded",
    "planning.plan.successes",
    "core.mission.runs",
)


def seeded_suite(repro, workload: Workload, seed: int):
    """The preset's own courses, each flown with noise drawn from ``seed``.

    Courses (map, start, target, weather) are the preset's first
    ``missions`` scenarios at its default suite seed.  ``seed`` redraws each
    scenario's own seed, which drives its sensor noise, decoy placement and
    planner sampling.  Redrawing whole courses per seed was tried first: a
    course can end in a collision after 3 s or fly a full landing, or take
    one RRT* plan or five, so at the mission counts one run affords the
    seed alone moved runs_per_s by 10-30%.
    """
    import numpy as np

    suite = repro.suite_preset(workload.preset, count=workload.missions, repetitions=1)
    suite.scenarios = [
        replace(scenario, seed=int(np.random.SeedSequence((seed, index)).generate_state(1)[0]))
        for index, scenario in enumerate(suite.scenarios)
    ]
    return suite


def mission_digests(records, outputs: dict[str, str]) -> list[str]:
    """One digest per record: its body (persistence-only fields left out)
    together with the digest of the mission's plans and final map counts."""
    from campaignbench.outputs import digest

    digests = []
    for record in records:
        body = record.to_dict()
        body.pop("scenario_fingerprint", None)
        digests.append(digest({"record": body, "outputs": outputs.get(record.scenario_id)}))
    return digests


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    return repro


@dataclass
class Pass:
    wall_s: float
    mission_walls: list[float]
    digests: list[str]
    rss_mb: float
    traced: bool = False
    #: Traced passes: the tracer snapshot and the dispatch drain figures.
    trace: dict | None = None
    drain_s: float = 0.0
    worker_busy_s: tuple[float, ...] = ()


class Bench:
    """The workload's set-up state and its campaign passes."""

    def __init__(self, workload: Workload, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.tmp = tmp
        self.repro = import_repro()
        from campaignbench import outputs, tracing

        outputs.install()
        self.outputs = outputs.LOG
        self.tracing = tracing
        repro = self.repro
        self.system = repro.preset(workload.system)
        self.suite = seeded_suite(repro, workload, seed)
        self.mission = repro.MissionConfig()
        if workload.max_mission_time is not None:
            self.mission = repro.MissionConfig(max_mission_time=workload.max_mission_time)
        self.faults = tuple(repro.resolve_faults(workload.faults)) if workload.faults else ()
        self.workers = min(2, os.cpu_count() or 1)
        self._passes = 0
        # The detector network is part of set-up: campaigns load it before
        # their first mission, and dispatch workers inherit it when forked.
        from repro.bench.campaign import _shared_network, _system_needs_network

        if _system_needs_network(self.system):
            _shared_network()
        if workload.shards:
            setup_plan = tmp / "setup-plan"
            self._plan(setup_plan)
            shutil.rmtree(setup_plan)

    # ------------------------------------------------------------------ #
    def _plan(self, directory: Path) -> None:
        import repro.dispatch.planner as planner

        planner.plan_dispatch(
            directory,
            self.suite,
            [self.system],
            shards=self.workload.shards,
            repetitions=1,
            mission=self.mission,
            platform="desktop",
            faults=self.faults,
        )

    def serial_records(self, progress=None) -> list:
        campaign = self.repro.Campaign(self.system).suite(self.suite).mission(self.mission)
        if self.faults:
            campaign.faults(*self.faults)
        if progress is not None:
            campaign.progress(progress)
        return campaign.run()[self.system.name].records

    def run_pass(self, traced: bool) -> Pass:
        tracer = self.tracing.TRACER
        tracer.reset()
        self.outputs.reset()
        if traced:
            self.tracing.install(tracer)
        try:
            if self.workload.shards:
                result = self._dispatch_pass(traced)
            else:
                result = self._serial_pass()
        finally:
            if traced:
                self.tracing.uninstall()
        result.traced = traced
        if traced:
            result.trace = tracer.snapshot()
        tracer.reset()
        return result

    def _serial_pass(self) -> Pass:
        walls: list[float] = []
        last = [0.0]

        def progress(line: str) -> None:
            now = perf_counter()
            walls.append(now - last[0])
            last[0] = now

        last[0] = start = perf_counter()
        records = self.serial_records(progress)
        wall = perf_counter() - start
        return Pass(
            wall_s=wall,
            mission_walls=walls,
            digests=mission_digests(records, self.outputs.missions),
            rss_mb=peak_rss_mb(),
        )

    def _dispatch_pass(self, traced: bool) -> Pass:
        import multiprocessing

        import repro.dispatch.merge as merge

        self._passes += 1
        directory = self.tmp / f"dispatch-{self._passes}"
        reports = [self.tmp / f"worker-{self._passes}-{index}.json" for index in range(self.workers)]
        start = perf_counter()
        self._plan(directory)
        drain_start = perf_counter()
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(target=_drain, args=(str(directory), index, str(report)), name=f"bench-worker-{index}")
            for index, report in enumerate(reports)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        drain = perf_counter() - drain_start
        failed = [p.name for p in processes if p.exitcode != 0]
        if failed:
            raise RuntimeError(f"dispatch worker(s) failed: {failed}")
        merge.merge_dispatch(directory)
        wall = perf_counter() - start
        records = self.repro.load_merged(directory)[self.system.name].records
        shutil.rmtree(directory)
        worker_reports = [json.loads(report.read_text()) for report in reports]
        for report in reports:
            report.unlink()
        if traced:
            for report in worker_reports:
                self.tracing.TRACER.merge(report["trace"])
        for report in worker_reports:
            self.outputs.missions.update(report["outputs"])
        return Pass(
            wall_s=wall,
            mission_walls=[wall_s for report in worker_reports for wall_s in report["mission_walls"]],
            digests=mission_digests(records, self.outputs.missions),
            rss_mb=max(report["rss_mb"] for report in worker_reports),
            drain_s=drain,
            worker_busy_s=tuple(report["busy_s"] for report in worker_reports),
        )


def _drain(directory: str, index: int, report_path: str) -> None:
    """Forked dispatch worker: drain shards, then write this process's report."""
    from campaignbench import outputs, tracing
    from repro.dispatch.worker import default_worker_id, run_worker

    tracer = tracing.TRACER
    tracer.reset()
    outputs.LOG.reset()
    walls: list[float] = []
    last = [perf_counter()]

    def progress(line: str) -> None:
        now = perf_counter()
        if not line.startswith("["):  # a mission line, not a claim / completion notice
            walls.append(now - last[0])
        last[0] = now

    run_worker(directory, worker_id=f"{default_worker_id()}-w{index}", progress=progress)
    busy = tracer.spans.get("campaign.run", [0, 0.0, 0.0])[1]
    report = {
        "mission_walls": walls,
        "rss_mb": peak_rss_mb(),
        "busy_s": busy,
        "trace": tracer.snapshot(),
        "outputs": outputs.LOG.missions,
    }
    Path(report_path).write_text(json.dumps(report))


# ---------------------------------------------------------------------- #
# measuring
# ---------------------------------------------------------------------- #
def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[Pass], str | None]:
    """Whole passes until ``seconds`` would be exceeded (at least one).

    Traced runs alternate untraced and traced passes in pairs whose order
    flips each pair (traced first, then untraced first, ...), so the
    overhead figure is a median of paired ratios.  A pass that raises ends
    the measuring; the error is returned with the passes completed before
    it (for a traced run, the complete pairs).
    """
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        order = (True, False) if len(passes) % 4 == 0 else (False, True)
        try:
            for traced in order if trace else (False,):
                passes.append(bench.run_pass(traced))
        except Exception as error:  # a mission raised or a worker died
            del passes[len(passes) - len(passes) % (2 if trace else 1):]
            return passes, f"{type(error).__name__}: {error}"
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) * (2 if trace else 1) > seconds:
            return passes, None


def check(passes: list[Pass], expected: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): every mission of every pass is checked.

    A mission fails when its digest (record, plans and final map counts)
    differs from the expected one — the stored digest for this seed, or
    else the first pass's — or when it is missing.
    """
    reference = expected["missions"] if expected else passes[0].digests
    attempted = failed = 0
    problems: list[str] = []
    for number, flown in enumerate(passes, start=1):
        attempted += len(reference)
        bad = sum(1 for index, digest in enumerate(reference) if flown.digests[index : index + 1] != [digest])
        bad += max(0, len(flown.digests) - len(reference))
        if bad:
            problems.append(f"pass {number}: {bad} of {len(reference)} mission digests differ from the expected ones")
        failed += bad
    return attempted, failed, problems


def exact_counts(snapshot: dict, names: tuple[str, ...] = EXACT_COUNTS) -> dict[str, int]:
    counts = dict(snapshot["counts"])
    for name, (calls, _total, _self) in snapshot["spans"].items():
        counts[f"{name}.calls"] = calls
    return {name: int(counts.get(name, 0)) for name in names}


def layer_metrics(passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, per traced pass, plus work-count drift problems."""
    from campaignbench.tracing import Tracer

    traced = [flown for flown in passes if flown.traced]
    problems: list[str] = []
    reference = exact_counts(traced[0].trace)
    for number, flown in enumerate(traced[1:], start=2):
        drift = {k: (reference[k], v) for k, v in exact_counts(flown.trace).items() if v != reference[k]}
        if drift:
            problems.append(f"traced pass {number}: work counts drifted {drift}")
    merged = Tracer()
    for flown in traced:
        merged.merge(flown.trace)
    n = len(traced)

    def span(name: str) -> tuple[float, float, float]:
        calls, total, self_s = merged.spans.get(name, (0, 0.0, 0.0))
        return calls / n, total / n, self_s / n

    def pct(name: str, q: float) -> float:
        values = sorted(merged.durations.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))] * 1000.0

    def per_s(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    metrics: dict[str, float] = {}
    for name, stats in (
        ("sensors.camera.capture", ("calls", "self_s", "ms_p50", "ms_p99")),
        ("perception.detect", ("calls", "self_s", "ms_p50", "ms_p99")),
        ("vehicle.step", ("calls", "self_s")),
        ("world.colliding_obstacle", ("self_s",)),
        ("sensors.depth.capture", ("calls", "self_s")),
        ("mapping.integrate_cloud", ("calls", "self_s", "ms_p50", "ms_p99")),
        ("planning.plan", ("calls", "self_s", "ms_p50")),
        ("mapping.inflated.is_colliding", ("calls", "self_s")),
        ("mapping.inflated.segment_colliding", ("calls", "self_s")),
        ("core.decide", ("calls", "self_s")),
        ("faults.harness", ("calls", "self_s")),
        ("dispatch.plan", ("self_s",)),
        ("dispatch.claim", ("calls", "self_s")),
        ("dispatch.persist", ("calls", "self_s")),
        ("dispatch.merge", ("self_s",)),
        ("obs.flush", ("calls", "self_s")),
    ):
        calls, total, self_s = span(name)
        values = {"calls": calls, "self_s": self_s, "ms_p50": pct(name, 0.5), "ms_p99": pct(name, 0.99)}
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]

    def count(name: str) -> float:
        return merged.counts.get(name, 0) / n

    camera_calls, camera_total, _ = span("sensors.camera.capture")
    detect_calls, detect_total, _ = span("perception.detect")
    integrate_calls, integrate_total, _ = span("mapping.integrate_cloud")
    plan_calls, plan_total, _ = span("planning.plan")
    metrics["sensors.camera.capture.frames_per_s"] = per_s(camera_calls, camera_total)
    metrics["perception.detect.frames_per_s"] = per_s(detect_calls, detect_total)
    metrics["perception.detect.detections"] = count("perception.detect.detections")
    metrics["sensors.depth.capture.points"] = count("sensors.depth.capture.points")
    metrics["mapping.integrate_cloud.points"] = count("mapping.integrate_cloud.points")
    metrics["mapping.integrate_cloud.points_per_s"] = per_s(count("mapping.integrate_cloud.points"), integrate_total)
    metrics["mapping.octree.nodes_final"] = count("mapping.octree.nodes_final")
    metrics["mapping.octree.occupied_final"] = count("mapping.octree.occupied_final")
    metrics["planning.plan.plans_per_s"] = per_s(plan_calls, plan_total)
    metrics["planning.plan.iterations"] = count("planning.plan.iterations")
    metrics["planning.plan.nodes_expanded"] = count("planning.plan.nodes_expanded")
    metrics["planning.plan.success_ratio"] = count("planning.plan.successes") / plan_calls if plan_calls else 0.0
    # The slowest shard sets the drain time; the rest of the workers wait.
    metrics["dispatch.imbalance_s"] = statistics.fmean(
        flown.drain_s - statistics.fmean(flown.worker_busy_s) if flown.worker_busy_s else 0.0 for flown in traced
    )
    metrics["trace.wall_s"] = statistics.fmean(flown.wall_s for flown in traced)
    # Passes come in (traced, untraced) pairs, in alternating order.
    ratios = [
        (a.wall_s if a.traced else b.wall_s) / (b.wall_s if a.traced else a.wall_s) - 1.0
        for a, b in zip(passes[::2], passes[1::2])
    ]
    metrics["trace.overhead_fraction"] = statistics.median(ratios)
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawned-at", type=float, required=True, help="time.monotonic() when the parent started this process"
    )
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    workload = WORKLOADS[args.workload]
    tmp = Path(os.environ["TMPDIR"])
    bench = Bench(workload, args.seed, tmp)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record:
        return record(bench, args.out)

    passes, error = measure(bench, args.seconds, bool(args.trace))
    expected = json.loads((BENCH_DIR / "expected.json").read_text()).get(workload.name, {}).get(str(args.seed))
    attempted, failed, problems = check(passes, expected) if passes else (0, 0, [])
    if error is not None:
        # Every mission of the pass that raised counts as failed.
        attempted += len(bench.suite)
        failed += len(bench.suite)
        problems.append(f"pass {len(passes) + 1} raised {error}")
    if expected:
        checked = "the stored digests"
    elif len(passes) > 1:
        checked = "the run's first pass (no digests stored for this seed)"
    else:
        checked = "nothing: no digests stored for this seed and one pass flown"
    result: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "missions_per_pass": len(bench.suite),
        "checked_against": checked,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "problems": problems,
    }
    if not passes:
        args.out.write_text(json.dumps(result))
        return 0
    if args.trace:
        metrics, drift = layer_metrics(passes)
        if expected:
            first = exact_counts(next(flown for flown in passes if flown.traced).trace, STORED_COUNTS)
            stored = {name: count for name, count in first.items() if count != expected["counts"].get(name)}
            if stored:
                drift.append(f"work counts differ from the stored ones: {stored}")
        problems += drift
        result["layers"] = metrics
    else:
        walls = [wall for flown in passes for wall in flown.mission_walls]
        result.update(
            runs_per_s=sum(len(flown.digests) for flown in passes) / sum(flown.wall_s for flown in passes),
            mission_wall_s_p50=statistics.median(walls),
            mission_wall_samples=len(walls),
            peak_rss_mb=max(flown.rss_mb for flown in passes),
            measured_s=sum(flown.wall_s for flown in passes),
        )
    args.out.write_text(json.dumps(result))
    return 0


def record(bench: Bench, out: Path) -> int:
    """One serial traced pass: the expected digests and result counts."""
    tracing = bench.tracing
    tracing.TRACER.reset()
    tracing.install()
    try:
        records = bench.serial_records()
    finally:
        tracing.uninstall()
    digests = mission_digests(records, bench.outputs.missions)
    counts = exact_counts(tracing.TRACER.snapshot(), STORED_COUNTS)
    out.write_text(json.dumps({"missions": digests, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
