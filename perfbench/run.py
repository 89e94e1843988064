"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload http_small --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout (the program is imported from
``src/``).  The human-readable report goes to standard output; its last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run measures the workload untraced
first, then again with every layer wrapped, and reports the difference
as the tracing overhead.  Scratch files (durable stores, span JSONL)
live under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("http_small", "durable_small", "window_1m", "paper_exact")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="scales the fixed round count of each phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy-sized inputs, for the self-test")
    return parser.parse_args(argv)


def measure_phase(workload, rounds: int, probe, tracer=None):
    """Run ``rounds`` whole rounds and return the measured Phase."""
    from measure import Phase

    phase = Phase(probe, tracer)
    phase.start()
    phase.probe()
    for number in range(rounds):
        phase.measure_round(workload, number)
    phase.stop()
    return phase


def report(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit:12s} {note}")


def report_end_to_end(title: str, metrics: dict) -> None:
    report(title, {
        name: (value, unit, f"raw {raw:.4f}; {note}")
        for name, (value, unit, raw, note) in metrics.items()
    })


def run(args) -> dict:
    import numpy

    from measure import EchoProbe, LoopProbe, calibration_ms, scaled_setup_s, tail_quantile
    from spans import LAYER_UNITS, Tracer, install, layer_metrics, self_time_summary
    from workloads import WORKLOADS

    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
        f" trace={args.trace} tiny={args.tiny}"
    )
    print(
        f"# cpus={os.cpu_count()} usable={len(os.sched_getaffinity(0))}"
        f" python={platform.python_version()} numpy={numpy.__version__}"
    )
    print(f"# calibration_before_ms={calibration_ms():.3f}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = probe = None
    wrong: list[str] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        probe = EchoProbe() if workload.http else LoopProbe()
        repeats = 1 if args.trace else workload.setup_repeats
        setups = [scaled_setup_s(workload.setup, probe) for _ in range(repeats)]
        print(f"# kernel={workload.kernel()} probe={type(probe).__name__}"
              f" probe_ref_ms={probe.ref_ms}")
        print("# setup_s (raw) of each set-up: " + " ".join(
            f"{scaled:.4f} ({raw:.4f})" for scaled, raw in setups
        ))
        # a fixed number of rounds, never a time box: every run does the
        # same work whatever the host's speed at the moment
        rounds = max(1, round(args.seconds * workload.rounds_per_second))
        phase = measure_phase(workload, rounds, probe)
        phases = [phase]
        end_to_end = phase.metrics(
            statistics.median(scaled for scaled, _ in setups),
            statistics.median(raw for _, raw in setups),
        )
        report_end_to_end(
            f"end-to-end, untraced ({rounds} rounds in {phase.elapsed_s:.2f} s)", end_to_end
        )
        # the wall-clock figures and the factors that scaled them, so that
        # two runs' scalings can be compared
        print("# unscaled " + json.dumps({
            "host_scale": phase.host_scale(),
            "tail_host_scale": phase.host_scale(tail_quantile(len(phase.solve_ms))),
            "goodput_blocks": dict(zip(("raw", "scaled"), phase.block_goodputs())),
            "setup_scales": [scaled / raw for scaled, raw in setups],
            "raw": {name: raw for name, (_, _, raw, _) in end_to_end.items()},
        }))
        if args.trace:
            tracer = Tracer()
            install(tracer)
            try:
                traced_setup = scaled_setup_s(workload.setup, probe)
                traced = measure_phase(workload, rounds, probe, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            traced_metrics = traced.metrics(*traced_setup)
            print("== tracing overhead: traced minus untraced")
            for name, (value, unit, _, _) in traced_metrics.items():
                base = end_to_end[name][0]
                share = f"{(value - base) / base * 100:+.1f}%" if base else ""
                print(f"  {name:40s} {value - base:+14.4f} {unit:12s} {share}")
            layers, notes = layer_metrics(tracer.spans, workload.http)
            report(
                f"per-layer ({rounds} rounds, {len(tracer.spans)} spans)",
                {name: (layers[name], unit, notes.get(name, ""))
                 for name, unit in LAYER_UNITS.items()},
            )
            print("== self time by span (ms)")
            for name, calls, total, own in self_time_summary(tracer.spans):
                print(f"  {name:32s} calls={calls:<8d} total={total:12.2f} self={own:12.2f}")
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            path = traces / f"{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write_jsonl(path)
            print(f"# spans: {path.relative_to(ROOT)}")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in LAYER_UNITS.items()}
            # no request may be shed, and no solve may need a retry
            if layers["serve.admission.sheds"] != 0:
                wrong.append(f"{layers['serve.admission.sheds']:g} requests shed")
            if layers["runtime.harness.attempts_per_run"] != 1.0:
                wrong.append(
                    "harness attempts per run"
                    f" {layers['runtime.harness.attempts_per_run']:g}, not 1"
                )
        else:
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit, _, _) in end_to_end.items()}
    finally:
        if workload is not None:
            workload.teardown()
        if probe is not None:
            probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
    wrong += list(workload.wrong) + [w for phase in phases for w in phase.wrong]
    errors = [e for phase in phases for e in phase.errors]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(f"# attempted={attempted} failed={failed} wrong={len(wrong)}")
    for line in (wrong + errors)[:10]:
        print(f"#   {line}")
    print(f"# calibration_after_ms={calibration_ms():.3f}")
    # every operation of every workload must succeed: a failed one is an
    # error of the program, not a known fault
    return {
        "correct": not wrong and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
