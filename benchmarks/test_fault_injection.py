"""Fault-injection benches: harness overhead and fault-campaign throughput.

Two questions, both recorded into ``BENCH_results.json``:

* **Injection overhead** — a nominal campaign with a *no-op* fault harness
  attached (every spec armed with probability 0, so the hooks run on every
  tick but never perturb anything) must cost < 5% over the same campaign
  with no harness at all.  The hooks sit on the per-tick hot path of every
  future fault campaign, so this is the number that must not regress.
* **Fault-campaign throughput** — runs/sec of a real fault campaign (the
  ``smoke`` fault preset), for the perf trajectory.

The overhead is costed call by call (see ``seconds_per_call`` in
``conftest.py``): timing two ~1 s campaigns against each other swings by
more than the 5% bound on a shared host.
"""

import time
from types import SimpleNamespace

from repro.bench.campaign import Campaign
from repro.core.config import mls_v1
from repro.core.mission import MissionConfig
from repro.faults.harness import FaultHarness
from repro.faults.spec import FAULT_MODES, FaultSpec
from repro.world.scenario_gen import generate_suite

SUITE_PRESET = "smoke"
SUITE_COUNT = 2
SUITE_SEED = 7
#: Bounded missions keep a round at a few seconds without changing the
#: per-tick hook cost being measured.
MISSION = MissionConfig(max_mission_time=60.0)

#: One disarmed spec per target: every harness hook path stays exercised
#: (filter_frame, filter_cloud, filter_estimate, wrappers, corrupt_mapping,
#: filter_command, adjust_timings) while probability=0 keeps all of them
#: no-ops — the harness tax with none of the fault effects.
NOOP_FAULTS = tuple(
    FaultSpec(target=target, mode=modes[0], probability=0.0)
    for target, modes in sorted(FAULT_MODES.items())
)

#: Every harness method a mission calls once the harness is attached: the
#: mission-loop hooks, the detector and planner wrappers' entry points and
#: the record stamp.
HOOKS = (
    "filter_estimate",
    "filter_frame",
    "filter_cloud",
    "corrupt_mapping",
    "filter_command",
    "adjust_timings",
    "_perturb_detections",
    "_forced_planning_failure",
    "finalize",
)


def _campaign():
    return (
        Campaign(mls_v1())
        .suite(generate_suite(SUITE_PRESET, count=SUITE_COUNT, seed=SUITE_SEED))
        .repetitions(1)
        .mission(MISSION)
    )


def _timed(run):
    start = time.perf_counter()
    results = run()
    return results, time.perf_counter() - start


def _count_hook_calls(monkeypatch):
    """Count each hook's calls and keep the last receiver and arguments."""
    seen = {}

    def counting(name, method):
        def hook(self, *args):
            entry = seen.setdefault(name, [0, None, None])
            entry[0] += 1
            entry[1], entry[2] = self, args
            return method(self, *args)

        return hook

    for name in HOOKS:
        monkeypatch.setattr(FaultHarness, name, counting(name, getattr(FaultHarness, name)))
    return seen


def test_noop_harness_overhead_under_5_percent(
    bench_results, seconds_per_call, monkeypatch
):
    """A disarmed harness must cost < 5% of the same campaign without one.

    The overhead is the harness's own work over the bare campaign's wall
    time: each hook's call count in the no-op campaign times its per-call
    cost (timed on the last arguments it saw; disarmed hooks do the same
    work on any input), plus per run the scenario fingerprint, the harness
    construction and the component wrapping.
    """
    baseline_results, baseline_s = _timed(lambda: _campaign().run())
    seen = _count_hook_calls(monkeypatch)
    noop_results, noop_s = _timed(lambda: _campaign().faults(*NOOP_FAULTS).run())
    monkeypatch.undo()

    # A disarmed harness must not change any outcome, only (bounded) cost.
    for name, reference in baseline_results.items():
        harnessed = noop_results[name]
        assert [r.outcome for r in harnessed.records] == [
            r.outcome for r in reference.records
        ]
        assert all(
            not fault["armed"] for r in harnessed.records for fault in r.injected_faults
        )
    runs = sum(len(result) for result in noop_results.values())
    assert runs == SUITE_COUNT
    assert seen["finalize"][0] == runs
    assert set(seen) == set(HOOKS)  # every hook path ran

    hooks_s = sum(
        count * seconds_per_call(lambda: getattr(FaultHarness, name)(harness, *args))
        for name, (count, harness, args) in seen.items()
    )
    scenario = generate_suite(SUITE_PRESET, count=1, seed=SUITE_SEED).scenarios[0]
    setup_s = runs * seconds_per_call(
        lambda: FaultHarness(
            NOOP_FAULTS, scenario_fingerprint=scenario.fingerprint()
        ).attach(SimpleNamespace(detector=None, planner=None)),
        calls=200,
    )
    overhead = (hooks_s + setup_s) / baseline_s
    bench_results(
        "fault_harness_noop_overhead",
        baseline_s=baseline_s,
        noop_harness_s=noop_s,
        harness_s=hooks_s + setup_s,
        overhead_fraction=overhead,
    )
    assert overhead < 0.05, (
        f"no-op fault harness costs {100.0 * overhead:.1f}% over a bare campaign "
        f"({hooks_s + setup_s:.4f}s of harness work vs {baseline_s:.2f}s); the "
        f"injection hooks must stay under 5%"
    )


def test_fault_campaign_throughput(bench_results):
    results, elapsed = _timed(lambda: _campaign().faults("smoke").run())
    runs = sum(len(result) for result in results.values())
    assert runs == SUITE_COUNT
    bench_results(
        "fault_campaign_smoke",
        runs=float(runs),
        seconds=elapsed,
        runs_per_s=runs / elapsed,
    )
