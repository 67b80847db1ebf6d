"""The benchmark's own tests, at reduced size.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import repro.reproduce as reproduce_module
from repro.cell import topology
from repro.core.results import BandwidthSample, BandwidthStats

from perfbench import run as bench
from perfbench.layers import LAYERS, MODEL_COUNTERS, Span, self_times
from perfbench import calibration as calibration_module
from perfbench.calibration import Calibration
from perfbench.workloads import WORKLOADS, ColdSweep, Observed

#: A reduced sweep: the quick sizes, one repetition, an eighth of the volume.
SMALL = "perfbench-small"
SMALL_PRESET = ((1024, 16384), 1, 2 ** 17)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
    DECLARED = json.load(handle)


@pytest.fixture(autouse=True)
def small_preset(monkeypatch):
    monkeypatch.setitem(reproduce_module.PRESETS, SMALL, SMALL_PRESET)


def test_declared_names_and_units_are_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in DECLARED[section]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
            names.append(metric["name"])
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in DECLARED["workloads"]) == WORKLOADS


def test_layer_map_covers_every_per_layer_metric_once():
    mapped = [name for layer in LAYERS.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in DECLARED["per_layer"])
    assert len(mapped) == len(set(mapped))


def _run(workload, trace, tmp_path, seed=1000):
    result, _summary = bench.run(
        workload, seed, seconds=0, trace=trace, preset=SMALL, work_root=str(tmp_path)
    )
    return result


def _assert_printed_with_units(result, section):
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert type(metric["value"]) in (int, float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_is_correct_and_reports_every_end_to_end_metric(workload, tmp_path):
    result = _run(workload, False, tmp_path)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    _assert_printed_with_units(result, "end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    result = _run(workload, True, tmp_path)
    assert result["correct"], result
    _assert_printed_with_units(result, "per_layer")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["bench.failed_ratio"] == 0
    assert values["bench.trace_overhead"] > 1
    spans = [json.loads(line) for line in open(tmp_path / f"spans-{workload}.jsonl")]
    assert {span["pass_id"] for span in spans} == {0}
    if workload == "sweep-fast":
        shares = {name: value for name, value in values.items() if name.endswith(".self_share")}
        assert max(shares, key=shares.get) == "eib.self_share"
        assert values["fastforward.events_elided"] > 0
    if workload == "sweep-warm":
        assert values["parallel.simulated"] == 0
        assert values["parallel.served_ratio"] == 1
        assert values["sim.events_popped"] == 0
    if workload == "observed":
        # The showcases run on the reference engine, which never warps.
        assert values["fastforward.events_elided"] == 0
        assert values["fastforward.windows_warped"] == 0
        assert values["trace.records"] > 0
        assert values["sanitizer.findings_clean"] == 0
        assert values["sanitizer.findings_racy"] > 0


def test_a_second_run_of_a_seed_is_checked_against_the_first(tmp_path):
    assert _run("sweep-fast", False, tmp_path)["correct"]
    ledger_path = tmp_path / "ledger.json"
    ledger = json.loads(ledger_path.read_text())
    ledger[f"{SMALL}/1000"]["samples"] = "0" * 64
    ledger_path.write_text(json.dumps(ledger))
    result = _run("sweep-fast", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


class _SpecCollector:
    """Stands in for the sweep executor: records specs, simulates nothing."""

    def __init__(self):
        self.specs = []

    def stats(self, specs):
        self.specs.extend(specs)
        return BandwidthStats.from_samples([BandwidthSample(gbps=1.0, nbytes=1, cycles=1)])


def _sweep_specs(seed, tmp_path):
    collector = _SpecCollector()
    with ColdSweep("fast", seed, str(tmp_path)):
        for experiment in reproduce_module.sweep_experiments(SMALL).values():
            experiment.executor = collector
            experiment.run()
    return collector.specs


def test_pass_cost_divides_each_slice_by_the_calibrations_around_it(monkeypatch):
    calibration = Calibration()
    monkeypatch.setattr(calibration_module, "SLICE_S", 0.01)
    runs = iter([2.0, 1.0] + [4.0] * 1000)
    monkeypatch.setattr(calibration, "loop", lambda: next(runs))
    calibration.samples = [0.5]

    def call():
        began = perf_counter()
        while perf_counter() - began < 0.1:
            pass
        return "done"

    result, seconds, cost = calibration.cost(call)
    assert result == "done"
    assert seconds == pytest.approx(0.1, rel=0.5)
    bounds = calibration.samples
    assert len(bounds) >= 3  # the timer cut the call into slices
    # Every slice cost at most its seconds over the smallest bounding mean
    # and at least its seconds over the largest.
    assert seconds / 4.0 <= cost <= seconds / ((0.5 + 2.0) / 2)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_seed_changes_the_placement_seeds_and_nothing_else(tmp_path, monkeypatch):
    base, other = _sweep_specs(1000, tmp_path), _sweep_specs(2000, tmp_path)
    assert len(base) == len(other) > 0
    for a, b in zip(base, other):
        assert b.seed - a.seed == 1000
        assert b.canonical() | {"seed": 0} == a.canonical() | {"seed": 0}

    placements = []
    original = topology.SpeMapping.random
    monkeypatch.setattr(
        topology.SpeMapping, "random",
        classmethod(lambda cls, seed, n: placements.append(seed) or original(seed, n)),
    )
    for seed in (1000, 2000):
        with Observed(seed, str(tmp_path / str(seed)), SMALL) as workload:
            assert not workload.run_pass().problems
    assert placements == [1000, 1000, 2000, 2000]


@pytest.fixture(scope="module")
def sweep_outcomes(tmp_path_factory):
    """Outcomes of two fast passes and one reference pass."""
    tmp_path = tmp_path_factory.mktemp("model")
    outcomes = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(reproduce_module.PRESETS, SMALL, SMALL_PRESET)
        for key, engine in (("fast", "fast"), ("fast-again", "fast"),
                            ("reference", "reference")):
            with ColdSweep(engine, 1000, str(tmp_path / key), SMALL) as workload:
                outcome = workload.run_pass()
            assert not outcome.problems
            outcomes[key] = outcome
    return outcomes


@pytest.fixture(scope="module")
def model_rows(sweep_outcomes):
    return {key: outcome.counters.model_rows for key, outcome in sweep_outcomes.items()}


def test_model_counters_repeat_exactly(model_rows):
    assert model_rows["fast"] and model_rows["fast"] == model_rows["fast-again"]


def test_samples_and_claims_match_across_engines(sweep_outcomes):
    fast, reference = sweep_outcomes["fast"], sweep_outcomes["reference"]
    for name in ("samples", "claims"):
        assert fast.fingerprint[name] == reference.fingerprint[name]


#: Counters on which the fast engine disagrees with the reference engine
#: at this size although every sample is identical: it counts fewer EIB
#: conflicts and wait cycles on some PUT and copy streams.
ENGINE_DEPENDENT = ("eib.conflicts", "eib.wait_cycles")


@pytest.mark.parametrize("counter", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="fast engine under-counts EIB conflicts and wait cycles",
    )) if name in ENGINE_DEPENDENT else name
    for name in MODEL_COUNTERS
])
def test_model_counters_match_across_engines(model_rows, counter):
    column = MODEL_COUNTERS.index(counter)
    fast = [row[column] for row in model_rows["fast"]]
    reference = [row[column] for row in model_rows["reference"]]
    assert fast == reference


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(0, 0, None, "pass", 0.0, 10.0),
        Span(0, 1, 0, "a", 1.0, 3.0),
        Span(0, 2, 0, "b", 2.0, 4.0),
        Span(0, 3, 0, "c", 9.0, 12.0),
        Span(0, 4, 1, "d", 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(bench.ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_command_line_prints_the_result_last():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "observed", "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    _assert_printed_with_units(result, "end_to_end")
