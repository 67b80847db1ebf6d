"""Repository benchmark: host time of the reproduce pipeline, end to end
and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-fast --seed 1000 --seconds 10 --trace 0

One client (this process) runs one workload's passes back to back, a
closed loop on one core: the executor uses ``jobs=1`` and no process
pool.  Passes repeat until ``--seconds`` have elapsed (at least one).
Every pass checks its outputs; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``pass_cost`` is the median pass's host time in runs of the
calibration loop (:mod:`perfbench.calibration`), which runs every
0.2 s of a pass and between passes; each slice of a pass is divided by
the mean of the runs on either side of it.  The loop is the benchmark's
own code, so a change to the program moves ``pass_cost`` as it moves
host time, while a host that runs slower for a while moves both alike.
The traced run reports the raw pass seconds and calibration time as
``bench.pass_s`` and ``bench.calibration_ms``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` additionally runs one traced pass (layer spans plus
``cProfile``) and reports the per-layer metrics instead; traced timings
are for shares and counts, never for end-to-end numbers.

The workload seed becomes every sweep experiment's placement
``seed_base`` and the showcases' ``seed``.  Working files go under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Fresh-interpreter set-ups per run; setup_s reports their median.
SETUP_REPEATS = 5

#: Times a fresh interpreter's imports (plus the code-version digest the
#: cache and journal key on, when asked) and the sweep's construction.
IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro.reproduce
from repro.runtime.parallel import SweepExecutor
if sys.argv[2] == "1":
    from repro.core.cache import repro_code_version
    repro_code_version()
repro.reproduce.sweep_experiments("quick")
print(time.perf_counter() - start)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(keys_results: bool) -> float:
    """Median host seconds of a fresh interpreter's set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, "1" if keys_results else "0"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Measurement:
    """Pass durations, costs and operation counts of one run."""

    def __init__(self):
        #: Host seconds of each pass, its calibration runs left out.
        self.durations: list[float] = []
        #: Host time of each pass in calibration runs.
        self.costs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        if problems:
            # Every operation of a pass whose output check fails failed.
            self.failed += ops
            self.problems += problems


def run_passes(workload, seconds: float, measurement: Measurement,
               calibration) -> None:
    """Closed loop: one pass after another until ``seconds`` elapse."""
    start = perf_counter()
    ops = 1
    while True:
        gc.collect()
        try:
            outcome, pass_s, cost = calibration.cost(workload.run_pass)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            measurement.count(ops, ["a pass raised (traceback on stderr)"])
            return
        measurement.durations.append(pass_s)
        measurement.costs.append(cost)
        workload.tidy()
        ops = outcome.ops
        measurement.count(outcome.ops, outcome.problems)
        if perf_counter() - start >= seconds:
            return


def traced_pass(workload, measurement: Measurement, calibration, spans_path: str):
    """One pass with layer spans and cProfile on; per-layer metrics."""
    from perfbench.layers import Patches, SpanRecorder, install_spans, layer_metrics

    recorder = SpanRecorder()
    patches = Patches()
    install_spans(recorder, patches)
    # Leaving builtins unprofiled charges their time to the Python caller
    # and trims the profiler's overhead on a reference-engine sweep from
    # 3.6x to 3.2x.
    profiler = cProfile.Profile(builtins=False)
    gc.collect()
    began = perf_counter()
    profiler.enable()
    try:
        outcome = recorder.wrap("pass")(workload.run_pass)()
    finally:
        profiler.disable()
        patches.undo()
    traced_s = perf_counter() - began
    workload.tidy()
    measurement.count(outcome.ops, outcome.problems)
    recorder.dump(spans_path)
    bench = {
        "bench.pass_s": statistics.median(measurement.durations),
        "bench.calibration_ms": statistics.median(calibration.samples) * 1000,
        "bench.trace_overhead": traced_s / statistics.median(measurement.durations),
        "bench.passes": len(measurement.durations),
        "bench.failed_ratio": measurement.failed / measurement.attempted,
    }
    return layer_metrics(recorder, profiler, outcome, bench)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        preset: str | None = None, work_root: str = WORK_ROOT) -> tuple[dict, str]:
    """Run one workload; returns (result object, summary lines)."""
    from perfbench.calibration import Calibration
    from perfbench.workloads import PRESET, Ledger, make_workload

    preset = preset or PRESET
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, f"{workload_name}-{os.getpid()}")
    measurement = Measurement()
    try:
        with make_workload(workload_name, seed, workdir, preset) as workload:
            setup_s = setup_seconds(workload.keys_results) + workload.setup()
            calibration = Calibration()
            run_passes(workload, seconds, measurement, calibration)
            if not measurement.durations:
                raise RuntimeError(f"no pass of {workload_name} completed")
            ledger_problems = Ledger(os.path.join(work_root, "ledger.json")).check(
                f"{preset}/{seed}", workload.expected
            )
            if ledger_problems:
                # The run's outputs disagree with an earlier run of the
                # same seed: none of its operations can be trusted.
                measurement.failed = measurement.attempted
                measurement.problems += ledger_problems
            if trace:
                values = traced_pass(
                    workload, measurement, calibration,
                    os.path.join(work_root, f"spans-{workload_name}.jsonl"),
                )
            else:
                values = {
                    "pass_cost": statistics.median(measurement.costs),
                    "setup_s": setup_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    section = declared["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not measurement.problems,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in section
        },
    }
    summary = (
        f"{workload_name} seed {seed}: {len(measurement.durations)} pass(es), "
        f"median {statistics.median(measurement.durations):.4f} s, "
        f"{statistics.median(measurement.costs):.1f} calibration runs; "
        f"{measurement.failed}/{measurement.attempted} operation(s) failed"
    )
    for problem in dict.fromkeys(measurement.problems):
        summary += f"\n  problem: {problem}"
    return result, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
