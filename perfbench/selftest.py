"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. The answer checks accept a correct answer and refuse corrupted ones
   (a wrong count, a mask outside the tuple or over the budget, a
   sub-optimal or non-exact answer on paper_exact, a recovered window
   that differs from the mirror), and the enumerated optimum equals a
   brute force over every mask.
2. Every workload runs at toy scale, untraced and traced, with correct
   answers, no failed operation and exactly the metrics BENCHMARK.json
   names.
3. Without the program's source next to it, the benchmark exits non-zero
   and prints no result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def expect_refused(label: str, check) -> None:
    from measure import CheckFailure

    try:
        check()
    except CheckFailure:
        print(f"  refused: {label}")
        return
    raise AssertionError(f"the checks accepted {label}")


def check_the_checks() -> None:
    import numpy as np

    from answers import check_answer, check_window, optimum, recount
    from workloads import PaperExact

    rows = [0b0011, 0b0101, 0b0110, 0b0001, 0b0010, 0b1000]
    good = {"keep_mask": 0b0011, "satisfied": 3}
    assert check_answer(good, 0b0111, 2, rows) == 3
    expect_refused("a satisfied count off by one",
                   lambda: check_answer({**good, "satisfied": 4}, 0b0111, 2, rows))
    expect_refused("a mask outside the tuple",
                   lambda: check_answer({"keep_mask": 0b1001, "satisfied": 2}, 0b0111, 2, rows))
    expect_refused("a mask over the budget",
                   lambda: check_answer({"keep_mask": 0b0111, "satisfied": 5}, 0b0111, 2, rows))
    expect_refused("an answer without a mask",
                   lambda: check_answer({"keep_mask": None, "satisfied": 3}, 0b0111, 2, rows))
    expect_refused("a recovered window that lost a row",
                   lambda: check_window(rows[1:], rows, "t"))

    rng = random.Random(7)
    for _ in range(200):
        width = rng.randint(2, 9)
        log = [rng.randrange(1, 1 << width) for _ in range(rng.randint(1, 30))]
        new_tuple = rng.randrange(1 << width)
        budget = rng.randint(0, width)
        as_array = np.array(log, dtype=np.uint64)
        attributes = [bit for bit in range(width) if new_tuple >> bit & 1]
        brute = 0
        for size in range(min(budget, len(attributes)) + 1):
            for chosen in itertools.combinations(attributes, size):
                mask = sum(1 << bit for bit in chosen)
                assert recount(as_array, mask) == recount(log, mask)
                brute = max(brute, recount(log, mask))
        assert optimum(log, new_tuple, budget) == brute, (log, new_tuple, budget)
    print("  the enumerated optimum equals brute force on 200 random instances")

    workdir = ROOT / ".perfbench_work" / "selftest"
    paper = PaperExact(1, True, workdir)
    paper.setup()
    new_tuple, budget = paper.candidates[0], 5
    best = optimum(paper.mirror, new_tuple, budget)
    assert best > 0
    exact = {"status": "exact", "algorithm": "ILP"}
    expect_refused("a sub-optimal exact answer", lambda: paper.check_exact(
        {**exact, "keep_mask": 0, "satisfied": recount(paper.mirror, 0)},
        "ILP", new_tuple, budget,
    ))
    expect_refused("an optimum served by the fallback tier", lambda: paper.check_exact(
        {"status": "fallback", "algorithm": "ConsumeAttrCumul",
         "keep_mask": 0, "satisfied": recount(paper.mirror, 0)},
        "ILP", new_tuple, budget,
    ))


def run_tiny() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            command = [*spec["command"], "--workload", workload["name"], "--seed", "3",
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr[-3000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
            assert list(result["metrics"]) == names[trace], list(result["metrics"])
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            print(f"  {workload['name']} trace={trace}: {result['attempted']} operations, correct")


def run_without_program() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "http_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print(f"  without src/: exit {done.returncode}, no result printed")


def main() -> int:
    print("answer checks:")
    check_the_checks()
    print("tiny runs:")
    run_tiny()
    print("bare directory:")
    run_without_program()
    shutil.rmtree(ROOT / ".perfbench_work" / "selftest", ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
