"""Shared fixtures for the benchmark harness.

The campaigns are executed once per pytest session (module-scoped fixtures
would re-run them per file) and then rendered by the individual benches.
Campaign size is controlled by REPRO_BENCH_SCENARIOS / REPRO_BENCH_REPETITIONS;
the defaults keep the whole benchmark suite at roughly ten minutes of wall
clock, while 100 / 3 reproduces the paper-scale campaign.

This conftest also owns ``BENCH_results.json`` (path overridable via
``$REPRO_BENCH_RESULTS``): pytest-benchmark timings are harvested
automatically for every bench in this directory, other modules record custom
stats through the ``bench_results`` fixture, and the file is merged on write
— one ``suites`` section per benchmark module — so running the microbenches
and the campaign-throughput bench in separate sessions never clobbers the
other's numbers.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.campaign import CampaignConfig, run_campaign, run_field_campaign, run_hil_campaign  # noqa: E402
from repro.jsonl import atomic_write  # noqa: E402


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


# --------------------------------------------------------------------- #
# BENCH_results.json: machine-readable results, merged across sessions
# --------------------------------------------------------------------- #
#: Collected stats for this session: {suite: {bench name: {stat: value}}}.
_BENCH_RESULTS: dict[str, dict[str, dict[str, float]]] = {}

BENCH_RESULTS_SCHEMA = 2


def _results_path() -> Path:
    default = Path(_BENCH_DIR).parent / "BENCH_results.json"
    return Path(os.environ.get("REPRO_BENCH_RESULTS", default))


def _suite_name(module_name: str) -> str:
    return module_name.rpartition(".")[2].removeprefix("test_")


@pytest.fixture
def bench_results(request):
    """Recorder for custom (non-pytest-benchmark) stats.

    ``bench_results(name, runs_per_s=..., seconds=...)`` files the stats
    under this module's suite section of ``BENCH_results.json``.
    """
    suite = _suite_name(request.module.__name__)

    def record(name: str, **stats: float) -> None:
        _BENCH_RESULTS.setdefault(suite, {})[name] = dict(stats)

    return record


@pytest.fixture
def seconds_per_call():
    """``seconds_per_call(fn, calls, rounds)``: the cost of one ``fn()``.

    Times ``rounds`` batches of ``calls`` back-to-back calls and returns the
    median batch over ``calls``.  The overhead gates cost instrumentation
    this way — per-call cost times the number of calls a campaign made —
    because timing two ~1 s campaigns against each other swings by 10-20%
    on a shared host, far more than the 5% bound they enforce.
    """

    def measure(fn, calls=2000, rounds=5):
        batches = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            batches.append(time.perf_counter() - start)
        return statistics.median(batches) / calls

    return measure


@pytest.fixture(autouse=True)
def _collect_benchmark_stats(request):
    """Harvest pytest-benchmark stats from every bench that used the fixture."""
    yield
    fixture = request.node.funcargs.get("benchmark")
    stats = getattr(getattr(fixture, "stats", None), "stats", None)
    mean = getattr(stats, "mean", None)
    if not mean:  # benchmark fixture unused, disabled, or zero-time
        return
    suite = _suite_name(request.module.__name__)
    _BENCH_RESULTS.setdefault(suite, {})[request.node.name] = {
        "mean_s": mean,
        "stddev_s": getattr(stats, "stddev", 0.0),
        "min_s": getattr(stats, "min", mean),
        "rounds": getattr(stats, "rounds", len(getattr(stats, "data", []))),
        "throughput_ops_per_s": 1.0 / mean,
    }


def _load_existing_suites(path: Path) -> dict[str, dict[str, dict[str, float]]]:
    """Previously written suite sections (tolerating the schema-1 layout)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as error:
        import warnings

        warnings.warn(
            f"existing {path} is unreadable ({error}); its previous bench "
            f"history will be replaced by this session's results",
            RuntimeWarning,
            stacklevel=2,
        )
        return {}
    suites: dict[str, dict[str, dict[str, float]]] = {}
    if data.get("schema") == 1 and data.get("suite"):
        entries = data.get("benchmarks", [])
        suites[str(data["suite"])] = {
            str(entry["name"]): {k: v for k, v in entry.items() if k != "name"}
            for entry in entries
            if isinstance(entry, dict) and "name" in entry
        }
    elif isinstance(data.get("suites"), dict):
        for suite, entries in data["suites"].items():
            suites[str(suite)] = {
                str(entry["name"]): {k: v for k, v in entry.items() if k != "name"}
                for entry in entries
                if isinstance(entry, dict) and "name" in entry
            }
    return suites


def _prune_stale_suites(
    suites: dict[str, dict[str, dict[str, float]]],
) -> dict[str, dict[str, dict[str, float]]]:
    """Drop tracked results whose benchmark no longer exists.

    Merge-on-write preserves history across partial sessions, which also
    means a deleted or renamed bench would otherwise haunt the file forever.
    A suite is dropped when its ``test_<suite>.py`` module is gone; within a
    live module, ``test_``-prefixed entries (pytest-benchmark node names) are
    dropped when the function no longer appears in the module source.
    Custom-named meters (e.g. ``campaign_serial``) are chosen at runtime, so
    they live and die with their module only.
    """
    pruned: dict[str, dict[str, dict[str, float]]] = {}
    for suite, benches in suites.items():
        module_path = Path(_BENCH_DIR) / f"test_{suite}.py"
        if not module_path.is_file():
            continue
        try:
            source = module_path.read_text(encoding="utf-8")
        except OSError:
            pruned[suite] = dict(benches)
            continue
        kept = {
            name: stats
            for name, stats in benches.items()
            if not name.startswith("test_")
            or f"def {name.partition('[')[0]}(" in source
        }
        if kept:
            pruned[suite] = kept
    return pruned


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's collected stats into BENCH_results.json."""
    if not _BENCH_RESULTS:
        return
    path = _results_path()
    suites = _prune_stale_suites(_load_existing_suites(path))
    # Merge per bench, not per suite: running a subset of a module (-k)
    # must refresh only the benches that actually ran, never discard the
    # rest of that module's tracked results.
    for suite, benches in _BENCH_RESULTS.items():
        suites.setdefault(suite, {}).update(benches)
    payload = {
        "schema": BENCH_RESULTS_SCHEMA,
        "suites": {
            suite: [
                {"name": name, **{k: v for k, v in sorted(stats.items())}}
                for name, stats in sorted(suites[suite].items())
            ]
            for suite in sorted(suites)
        },
    }
    # A session killed mid-write must not truncate the accumulated history.
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def pytest_collection_modifyitems(items):
    """Every benchmark runs a campaign: mark them all slow for -m filtering.

    This hook receives the *whole* session's items (conftest hooks are not
    directory-scoped), so restrict the marker to items collected from this
    directory — otherwise ``-m "not slow"`` deselects the entire test suite.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR + os.sep):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def sil_campaign_results():
    """RQ1: the SIL campaign over MLS-V1/V2/V3."""
    return run_campaign(campaign_config=CampaignConfig())


@pytest.fixture(scope="session")
def hil_campaign_result():
    """RQ2: the HIL campaign (MLS-V3 on the Jetson Nano model)."""
    return run_hil_campaign(campaign_config=CampaignConfig())


@pytest.fixture(scope="session")
def field_campaign_result():
    """RQ3: the real-world (field) campaign."""
    config = CampaignConfig()
    config.scenario_count = max(4, config.scenario_count // 2)
    return run_field_campaign(campaign_config=config)
