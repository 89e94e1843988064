"""Run each workload N times per set, in two sets, and judge the figures.

    python3 perfbench/steady.py [--workload paper_exact ...] [--runs 10]

Each run is ``perfbench/run.py`` in a fresh process with seeds 1..N and
``run_seconds`` from BENCHMARK.json.  Every workload of BENCHMARK.json
runs unless ``--workload`` names some; the first set of every workload
runs before the second set of any, so that the sets lie apart in time.

For every end-to-end metric and set it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) /
median, beside the metric's bound; a spread above a third of its bound
is flagged.  It then prints how far the second set's median is from the
first set's, in the metric's worse direction, as a share of the first
median.  The calibration loop's times before and after each run are
printed too: when they move together with a metric, the host changed
speed, not the program.

Exits 1 when a run exits with an error, reports a wrong answer or any
failed operation, when a spread (``setup_s`` included) exceeds its
bound, or when the second set's median is worse than the first set's by
more than the bound.  ``--runs 5`` on one workload is a quick look while
tuning; the proof is the default, ten runs of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: sets of runs per workload: two, as a comparison of two commits makes
SETS = 2


def run_set(spec: dict, workload: str, runs: int) -> list[dict] | None:
    """Run seeds 1..runs once each; None when a run exits with an error."""
    results = []
    for seed in range(1, runs + 1):
        command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return None
        result = json.loads(lines[-1])
        calibration = [line.split("=")[1] for line in lines if line.startswith("# calibration")]
        results.append(result)
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
            f" failed={result['failed']} calibration_ms={'/'.join(calibration)} "
            + " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()),
            flush=True,
        )
    return results


def judge_set(spec: dict, results: list[dict]) -> tuple[int, dict]:
    """Print one set's medians and spreads; (status, median per metric)."""
    status = 0
    if not all(result["correct"] for result in results):
        print("WRONG ANSWERS in some run")
        status = 1
    if any(result["failed"] for result in results):
        print("FAILED OPERATIONS in some run")
        status = 1
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    medians = {}
    for metric in spec["end_to_end"]:
        values = [result["metrics"][metric["name"]]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        medians[metric["name"]] = median
        spread = (q3 - q1) / median if median else float("inf")
        flag = ""
        if spread > metric["bound"] / 3:
            flag = "above a third of the bound"
        if spread > metric["bound"]:
            flag = "ABOVE THE BOUND"
            status = 1
        print(
            f"{metric['name']:16s} {median:12.4f} {q1:12.4f} {q3:12.4f}"
            f" {spread:8.4f} {metric['bound']:6.2f} {flag}"
        )
    return status, medians


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    # set-major order: a workload's sets lie a whole set of every
    # workload apart in time
    status, sets = 0, {name: [] for name in args.workload}
    for number in range(1, SETS + 1):
        for workload in args.workload:
            print(f"== {workload}: set {number} of {SETS}", flush=True)
            results = run_set(spec, workload, args.runs)
            if results is None:
                return 1
            set_status, medians = judge_set(spec, results)
            status = max(status, set_status)
            sets[workload].append(medians)

    for workload, medians_by_set in sets.items():
        for number, medians in enumerate(medians_by_set[1:], start=2):
            print(f"== {workload}: set {number} against set 1,"
                  " worsening of the median as a share of set 1")
            for metric in spec["end_to_end"]:
                first, later = medians_by_set[0][metric["name"]], medians[metric["name"]]
                change = (later - first) / first if first else float("inf")
                worse = change if metric["better"] == "lower" else -change
                flag = ""
                if worse > metric["bound"]:
                    flag = "WORSE THAN THE BOUND"
                    status = 1
                print(f"{metric['name']:16s} {first:12.4f} {later:12.4f} {worse:+8.4f}"
                      f" {metric['bound']:6.2f} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
