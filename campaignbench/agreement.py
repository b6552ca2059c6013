"""Two-set agreement check: is the benchmark steady enough to judge a change?

    python3 campaignbench/agreement.py --workload v3-cluttered-serial --seeds 1-10 --sets 2

Runs the benchmark (``--trace 0``) once per seed, for each set in turn.  For
every end-to-end metric it prints, per set, the median over the seeds and
the spread (distance between the first and third quartile, as a share of
the median), then how far each later set's median moved from the first's.
A spread above the metric's bound in ``BENCHMARK.json``, or a median that
got worse by more than the bound, fails the check.  ``--out`` keeps every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: benchmark exited with code {completed.returncode}\n{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sets = []
    for number in range(1, args.sets + 1):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(args.workload, seed, args.seconds))
            values = {name: entry["value"] for name, entry in runs[-1]["metrics"].items()}
            print(f"set {number} seed {seed}: {json.dumps(values)}", flush=True)
        sets.append(runs)
    if args.out:
        args.out.write_text(json.dumps(sets, indent=1) + "\n")

    ok = all(run["correct"] for runs in sets for run in runs)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for number, runs in enumerate(sets, start=1):
            values = [run["metrics"][name]["value"] for run in runs]
            medians.append(statistics.median(values))
            share = spread(values)
            steady = share <= bound
            ok &= steady
            print(f"{name:<20} set {number}: median {medians[-1]:.6g} {metric['unit']}, spread {share:.3f} "
                  f"(bound {bound}){'' if steady else '  TOO WIDE'}")
        for number, median in enumerate(medians[1:], start=2):
            worse = (median - medians[0]) / medians[0] * (1 if metric["better"] == "lower" else -1)
            agrees = worse <= bound
            ok &= agrees
            print(f"{name:<20} set {number} vs set 1: {worse:+.3f} worse (bound {bound})"
                  f"{'' if agrees else '  DISAGREES'}")
    print("agreement: PASS" if ok else "agreement: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
