"""The repository benchmark: landing campaigns timed end to end and per layer.

    python3 campaignbench/run.py --workload v3-cluttered-serial --seed 1 --seconds 50 --trace 0

Every run starts the workload in fresh interpreters (``workload.py``), each
with a private, empty ``TMPDIR`` under ``.bench_tmp/`` in the checkout and
with the BLAS thread pools held to one thread, so that no process runs more
threads than the workload's own (one, or one per dispatch worker).  With
``--trace 0`` the end-to-end metrics are reported; set-up is timed in three
or more fresh interpreters and the median is reported.  With ``--trace 1`` a
traced run reports the per-layer metrics.  The last line of standard output is one
JSON object; the exit code is non-zero when any record fails its check.

    python3 campaignbench/run.py --record --workload v3-cluttered-serial --seed 1

stores the digests and work counts of the current code for one seed in
``campaignbench/expected.json``.  See ``campaignbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_SCRIPT = BENCH_DIR / "workload.py"
EXPECTED = BENCH_DIR / "expected.json"
TMP_ROOT = ROOT / ".bench_tmp"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.  Quick
#: set-ups (MLS-V1 trains no network) repeat up to the cap within the budget.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0
#: numpy's BLAS would otherwise start one thread per core in every process:
#: on a few shared cores that measures the scheduler (and, with dispatch
#: workers, oversubscribes the cores).
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Hard limit on one run, children included.
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(ROOT))
from campaignbench.workload import WORKLOADS  # noqa: E402


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class ChildFailed(RuntimeError):
    pass


def run_child(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run ``workload.py`` in a fresh interpreter with a private TMPDIR."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    out = tmp / "result.json"
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=str(ROOT / "src"), **SINGLE_THREADED)
    command = [
        sys.executable, str(WORKLOAD_SCRIPT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), *extra,
    ]
    try:
        # A new session, so a timeout can stop the child and its workers.
        process = subprocess.Popen(
            [*command, "--spawned-at", repr(time.monotonic())],
            env=env, cwd=ROOT, start_new_session=True, stdout=sys.stderr,
        )
        try:
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise ChildFailed(f"workload process exceeded the {RUN_LIMIT_S:.0f} s run limit")
        if code != 0 or not out.exists():
            raise ChildFailed(f"workload process exited with code {code}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def record(args: argparse.Namespace) -> int:
    result = run_child(args, time.monotonic() + 900.0, "--record")
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected.setdefault(args.workload, {})[str(args.seed)] = result
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(result['missions'])} mission digests for {args.workload} seed {args.seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store expected digests for this seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.record:
        return record(args)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups: list[float] = []
        started = time.monotonic()
        while not args.trace and (
            len(setups) < SETUP_MIN - 1
            or (len(setups) < SETUP_MAX - 1 and time.monotonic() - started < SETUP_BUDGET_S)
        ):
            setups.append(run_child(args, deadline, "--setup-only")["setup_s"])
        result = run_child(args, deadline)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    setups.append(result["setup_s"])

    print(
        f"{result['workload']} seed {result['seed']}: {result['passes']} pass(es) x "
        f"{result['missions_per_pass']} missions, checked against {result['checked_against']}"
    )
    if not result["passes"]:
        metrics, units = {}, {}
    elif args.trace:
        metrics = result["layers"]
        units = declared_units("per_layer")
    else:
        metrics = {
            "runs_per_s": result["runs_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        print(f"error: measured metrics {mismatch} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    report = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    notes = {
        "setup_s": f"(median of {len(setups)} fresh interpreters)",
        "runs_per_s": f"(over {result.get('measured_s', 0.0):.1f} s of campaign calls)",
    }
    for name, entry in report.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']:<6} {notes.get(name, '')}")
    # Printed, not bounded: see NOTES.md.
    if "mission_wall_s_p50" in result:
        print(
            f"  {'mission_wall_s_p50':<44} {result['mission_wall_s_p50']:>14.6g} s      "
            f"(median of n={result['mission_wall_samples']} missions)"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_fraction':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} missions)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
