"""Campaign throughput: serial vs parallel vs dispatched execution.

Times the same fixed-seed smoke campaign through the three execution paths
— in-process serial, 2-process ``.parallel()``, and a 2-worker sharded
dispatch (``repro.dispatch``) — and records runs/sec for each into
``BENCH_results.json`` alongside the microbench metrics, so the overhead of
the work-queue machinery (and any future scheduling regressions) shows up
in the perf trajectory.

The three paths must also agree on the outcomes: identical per-system
record dicts are asserted, not just identical counts.
"""

import itertools
import time

from repro.bench.campaign import Campaign
from repro.core.config import mls_v1
from repro.geometry import Pose, Quaternion, Vec3
from repro.obs.trace import FlightRecorder, append_trace_summary, iter_trace_summaries
from repro.sensors.camera import DownwardCamera
from repro.world.scenario_gen import generate_suite

#: Fixed-seed campaign shared by the three execution paths.
SUITE_PRESET = "smoke"
SUITE_COUNT = 2
SUITE_SEED = 7


def _campaign():
    return (
        Campaign(mls_v1())
        .suite(generate_suite(SUITE_PRESET, count=SUITE_COUNT, seed=SUITE_SEED))
        .repetitions(1)
    )


def _timed(run):
    start = time.perf_counter()
    results = run()
    elapsed = time.perf_counter() - start
    return results, elapsed


def _record_dicts(result):
    """Record dicts minus ``scenario_fingerprint``, which only persisted
    (``.out()`` / dispatched) campaigns stamp."""
    dicts = [record.to_dict() for record in result.records]
    for data in dicts:
        data.pop("scenario_fingerprint", None)
    return dicts


def test_campaign_throughput_serial_parallel_dispatched(bench_results, tmp_path):
    serial, serial_s = _timed(lambda: _campaign().run())
    parallel, parallel_s = _timed(lambda: _campaign().parallel(2).run())
    dispatched, dispatched_s = _timed(
        lambda: _campaign().dispatch(tmp_path / "dispatch", shards=2, workers=2)
    )

    runs = sum(len(result) for result in serial.values())
    assert runs == SUITE_COUNT
    for label, results in (("parallel", parallel), ("dispatched", dispatched)):
        for name, reference in serial.items():
            assert _record_dicts(results[name]) == _record_dicts(reference), (
                f"{label} outcomes diverge from serial for {name}"
            )

    for name, elapsed in (
        ("campaign_serial", serial_s),
        ("campaign_parallel_2workers", parallel_s),
        ("campaign_dispatched_2workers", dispatched_s),
    ):
        bench_results(
            name,
            runs=float(runs),
            seconds=elapsed,
            runs_per_s=runs / elapsed,
        )


def _replay_tracing(summaries, directory):
    """Redo every recorder operation the traced runs made, without missions.

    Per run: build a recorder, open and close each of its spans, charge the
    nominal costs once per decision tick (one ``control`` span each), bump
    its counters and append its summary to a trace file.
    """
    for summary in summaries:
        recorder = FlightRecorder()
        for phase, span in summary["spans"].items():
            for _ in range(span["count"]):
                with recorder.span(phase):
                    pass
        for _ in range(summary["spans"]["control"]["count"]):
            recorder.charge_nominal(0.0, 0.0, 0.0)
        for name, value in summary["counters"].items():
            recorder.count(name, value)
        append_trace_summary(
            directory,
            recorder,
            system=summary["system"],
            scenario_id=summary["scenario_id"],
            repetition=summary["repetition"],
        )


def test_traced_campaign_overhead_under_5_percent(
    bench_results, seconds_per_call, tmp_path
):
    """Flight-recorder tracing must stay within 5% of an untraced campaign.

    The overhead is the recorder's own work — every span, nominal charge,
    counter and summary append the traced campaign made, replayed without
    the missions (:func:`_replay_tracing`) — over the untraced campaign's
    wall time.  Replaying the real recorder calls counts the real cost,
    whereas a traced-vs-untraced wall ratio of the same campaign swings by
    more than the bound from host noise alone.  Identical record dicts are
    asserted and the traced throughput is recorded for the perfgate
    trajectory.
    """
    baseline_results, baseline_s = _timed(lambda: _campaign().run())
    traced_results, traced_s = _timed(
        lambda: _campaign().trace(tmp_path / "trace").run()
    )

    for name, reference in baseline_results.items():
        assert _record_dicts(traced_results[name]) == _record_dicts(reference), (
            f"tracing changed campaign outcomes for {name}"
        )
    trace_file = tmp_path / "trace" / "MLS-V1.trace.jsonl"
    summaries = list(iter_trace_summaries(trace_file))
    assert len(summaries) == SUITE_COUNT

    replays = itertools.count()
    tracing_s = seconds_per_call(
        lambda: _replay_tracing(summaries, tmp_path / f"replay-{next(replays)}"),
        calls=1,
    )
    runs = sum(len(result) for result in traced_results.values())
    overhead = tracing_s / baseline_s
    bench_results(
        "campaign_traced",
        runs=float(runs),
        seconds=traced_s,
        runs_per_s=runs / traced_s,
        tracing_s=tracing_s,
        overhead_fraction=overhead,
    )
    assert overhead < 0.05, (
        f"flight-recorder tracing costs {100.0 * overhead:.1f}% over an untraced "
        f"campaign ({tracing_s:.4f}s of recorder work vs {baseline_s:.2f}s); "
        f"tracing must stay under 5%"
    )


def test_batched_projection_rate(bench_results):
    """Pixel -> ground projection rate of the vectorized camera front end.

    Renders full frames from a sweep of tilted poses and reports ground-plane
    projections per second (pixels per frame times frames), the classic
    figure of merit for camera-to-ground mapping loops.  Tracked so a
    regression in the batched projection/render path shows up even when the
    campaign meter is dominated by non-camera work.
    """
    from repro.world.scenario import Scenario  # local: heavy world imports
    from repro.world.map_generator import MapStyle

    scenario = generate_suite(SUITE_PRESET, count=1, seed=SUITE_SEED).scenarios[0]
    assert isinstance(scenario, Scenario) and isinstance(scenario.map_style, MapStyle)
    world = scenario.build_world()
    camera = DownwardCamera(seed=3)
    intr = camera.intrinsics
    frames = 60
    poses = [
        Pose(
            position=Vec3(2.0 * i - frames, 1.5 * i % 30.0, 12.0 + (i % 5)),
            orientation=Quaternion.from_euler(0.02 * (i % 7), 0.015 * (i % 5), 0.1 * i),
        )
        for i in range(frames)
    ]
    start = time.perf_counter()
    for pose in poses:
        camera.capture(world, pose, timestamp=0.04 * len(poses))
    elapsed = time.perf_counter() - start

    projections = frames * intr.width * intr.height
    bench_results(
        "projection_batch",
        frames=float(frames),
        seconds=elapsed,
        projections_per_s=projections / elapsed,
    )
