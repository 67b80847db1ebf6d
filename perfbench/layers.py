"""Benchmark-side instrumentation: spans, module profiles, chip counters.

Everything here observes the program from the outside.  Spans are
recorded by wrapping public functions at the layer boundaries for the
duration of one traced pass (:class:`Patches` restores every original
afterwards); host self time and call counts per source module come from
``cProfile``; model counters are read off each :class:`CellChip` when
its public ``run`` returns.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import statistics
from dataclasses import asdict, dataclass
from time import perf_counter

import repro
import repro.cell.chip as chip_module
import repro.core.cache as cache_module
import repro.core.validation as validation_module
import repro.reproduce as reproduce_module
import repro.runtime.journal as journal_module
import repro.runtime.parallel as parallel_module
import repro.sim as sim_package
from repro.analysis.streaming import StreamingComparison

#: Layer -> its per-layer metrics and the end-to-end metric and
#: workloads they should move.  Every per-layer metric of BENCHMARK.json
#: is listed exactly once, so any number leads back to its layer.
LAYERS: dict[str, dict] = {
    "runtime.parallel": {
        "metrics": ["parallel.self_s", "parallel.self_share", "parallel.calls",
                    "parallel.requested", "parallel.simulated",
                    "parallel.cache_hits", "parallel.journal_hits",
                    "parallel.served_ratio"],
        "moves": "pass_cost on sweep-warm",
    },
    "core.cache": {
        "metrics": ["cache.key_s", "cache.get_s", "cache.get_calls", "cache.hit_ratio"],
        "moves": "pass_cost on sweep-warm",
    },
    "runtime.journal": {
        "metrics": ["journal.record_s", "journal.record_calls"],
        "moves": "pass_cost on sweep-warm (the write path)",
    },
    "core.experiment": {
        "metrics": ["experiment.run_spec_s", "experiment.self_s",
                    "experiment.run_spec_calls", "experiment.run_spec_ms_p50",
                    "experiment.run_spec_ms_p90"],
        "moves": "pass_cost on sweep-fast",
    },
    "sim.core+sim.engine_fast+sim.resources": {
        "metrics": ["sim.run_s", "sim.self_s", "sim.self_share", "sim.calls",
                    "sim.events_popped", "sim.pops_per_s"],
        "moves": "pass_cost on sweep-fast",
    },
    "sim.fastforward": {
        "metrics": ["fastforward.self_s", "fastforward.self_share", "fastforward.calls",
                    "fastforward.windows_warped",
                    "fastforward.events_elided", "fastforward.elided_share"],
        "moves": "pass_cost on sweep-fast; reads zero on observed (reference engine)",
    },
    "cell.eib": {
        "metrics": ["eib.self_s", "eib.self_share", "eib.calls", "eib.grants",
                    "eib.conflicts", "eib.wait_cycles", "eib.calls_per_grant"],
        "moves": "pass_cost on sweep-fast and observed; no change on sweep-warm",
    },
    "cell.mfc": {
        "metrics": ["mfc.self_s", "mfc.self_share", "mfc.calls",
                    "mfc.commands_completed", "mfc.bytes_transferred"],
        "moves": "pass_cost on sweep-fast",
    },
    "cell.memory": {
        "metrics": ["memory.self_s", "memory.self_share", "memory.calls",
                    "memory.commands_served", "memory.bytes_served"],
        "moves": "pass_cost on sweep-fast (GET and PUT bank traffic)",
    },
    "core.kernels": {
        "metrics": ["kernels.self_s", "kernels.self_share", "kernels.calls"],
        "moves": "pass_cost on sweep-fast",
    },
    "core.validation": {
        "metrics": ["validation.s", "validation.claims_failed"],
        "moves": "pass_cost on sweep-warm",
    },
    "core.report": {
        "metrics": ["report.s"],
        "moves": "pass_cost on sweep-warm",
    },
    "analysis.streaming": {
        "metrics": ["streaming.s"],
        "moves": "pass_cost on sweep-fast (memoised on sweep-warm)",
    },
    "sim.trace": {
        "metrics": ["trace.records", "trace.run_s", "trace.export_s", "trace.bytes"],
        "moves": "pass_cost on observed",
    },
    "sim.sanitizer": {
        "metrics": ["sanitizer.run_s", "sanitizer.findings_clean",
                    "sanitizer.findings_racy"],
        "moves": "pass_cost on observed",
    },
    "bench": {
        "metrics": ["bench.pass_s", "bench.calibration_ms", "bench.trace_overhead",
                    "bench.passes", "bench.failed_ratio", "bench.self_s"],
        "moves": "nothing: how the benchmark itself measured",
    },
}

#: Module groups whose cProfile self time, share and calls are reported.
PROFILED = {
    "parallel": ("runtime.parallel",),
    "sim": ("sim.core", "sim.engine_fast", "sim.resources"),
    "fastforward": ("sim.fastforward",),
    "eib": ("cell.eib",),
    "mfc": ("cell.mfc",),
    "memory": ("cell.memory",),
    "kernels": ("core.kernels",),
}

#: Model counters read off every chip; they are simulated statistics,
#: so a host-only change must leave them bit-identical.
MODEL_COUNTERS = (
    "eib.grants", "eib.conflicts", "eib.wait_cycles",
    "mfc.commands_completed", "mfc.bytes_transferred",
    "memory.commands_served", "memory.bytes_served",
)


class Patches:
    """Attribute replacements undone in reverse order by :meth:`undo`.

    Works on modules, classes and instances alike: an attribute the
    owner did not define itself is deleted again rather than restored.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, bool, object]] = []

    def set(self, owner, name: str, value) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def wrap(self, owner, name: str, wrapper) -> None:
        """Replace ``owner.name`` by ``wrapper(original)``."""
        self.set(owner, name, wrapper(getattr(owner, name)))

    def undo(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _model_row(chip) -> tuple[int, ...]:
    mfcs = [spe.mfc for spe in chip.spes]
    banks = chip.memory.banks
    return (
        chip.eib.grants, chip.eib.conflicts, chip.eib.wait_cycles,
        sum(mfc.commands_completed for mfc in mfcs),
        sum(mfc.bytes_transferred for mfc in mfcs),
        sum(bank.commands_served for bank in banks),
        sum(bank.bytes_served for bank in banks),
    )


class ChipCounters:
    """Reads the model and engine counters off every chip whose public
    :meth:`CellChip.run` returns while installed."""

    def __init__(self):
        self.model_rows: list[tuple[int, ...]] = []
        self.events_popped = 0
        self.events_elided = 0
        self.windows_warped = 0
        self.trace_records = 0
        #: Hazard count of each sanitized chip, in run order.
        self.sanitizer_findings: list[int] = []

    def install(self, patches: Patches) -> None:
        def wrapper(run):
            @functools.wraps(run)
            def counted(chip, *args, **kwargs):
                try:
                    return run(chip, *args, **kwargs)
                finally:
                    self.record(chip)
            return counted

        patches.wrap(chip_module.CellChip, "run", wrapper)

    def record(self, chip) -> None:
        self.model_rows.append(_model_row(chip))
        env = chip.env
        self.events_popped += env.events_popped
        fastforward = getattr(env, "fastforward", None)
        if fastforward is not None:
            self.events_elided += fastforward.events_elided
            self.windows_warped += fastforward.windows_warped
        if chip.trace.enabled:
            self.trace_records += len(chip.trace.records)
        if chip.sanitizer.enabled:
            self.sanitizer_findings.append(len(chip.sanitizer.findings))

    def model_totals(self) -> dict[str, int]:
        sums = [sum(column) for column in zip(*self.model_rows)] or [0] * len(MODEL_COUNTERS)
        return dict(zip(MODEL_COUNTERS, sums))


@dataclass(frozen=True)
class Span:
    pass_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.end - span.start - covered
    return result


class SpanRecorder:
    """In-memory span log; :meth:`wrap` times calls into one layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str):
        def wrapper(function):
            @functools.wraps(function)
            def traced(*args, **kwargs):
                span_id = self._next_id
                self._next_id += 1
                parent = self._stack[-1] if self._stack else None
                self._stack.append(span_id)
                start = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans.append(Span(self.pass_id, span_id, parent, name, start, end))
            return traced
        return wrapper

    def by_name(self) -> dict[str, list[tuple[float, float]]]:
        """Span name -> [(duration, self time)] in completion order."""
        own = self_times(self.spans)
        grouped: dict[str, list[tuple[float, float]]] = {}
        for span in self.spans:
            grouped.setdefault(span.name, []).append(
                (span.end - span.start, own[span.span_id])
            )
        return grouped

    def dump(self, path: str) -> None:
        own = self_times(self.spans)
        with open(path, "w") as handle:
            for span in self.spans:
                record = asdict(span)
                record["self"] = own[span.span_id]
                handle.write(json.dumps(record) + "\n")


def install_spans(recorder: SpanRecorder, patches: Patches) -> None:
    """Span every layer boundary the workloads cross."""
    wrap = recorder.wrap
    # Repetitions: the executor binds run_spec_report when it is built.
    patches.wrap(parallel_module, "run_spec_report", wrap("experiment.run_spec"))
    patches.wrap(chip_module.CellChip, "run", wrap("sim.run"))
    patches.wrap(cache_module.ResultCache, "key", wrap("cache.key"))
    patches.wrap(cache_module.ResultCache, "get", wrap("cache.get"))
    patches.wrap(journal_module.SweepJournal, "record", wrap("journal.record"))
    for name in dir(validation_module):
        if name.startswith("check_") or name == "summarize":
            patches.wrap(validation_module, name, wrap("validation"))
    for name in ("render_result", "to_csv", "format_series_chart"):
        patches.wrap(reproduce_module, name, wrap("report"))
    patches.wrap(StreamingComparison, "run", wrap("streaming"))
    patches.wrap(reproduce_module, "run_traced", wrap("trace.showcase"))
    patches.wrap(reproduce_module, "run_sanitized", wrap("sanitizer.showcase"))
    # run_traced imports the exporter from the package at call time.
    patches.wrap(sim_package, "write_chrome_trace", wrap("trace.export"))


def module_of(filename: str, package_root: str) -> str:
    """``.../src/repro/cell/eib.py`` -> ``cell.eib``; other code -> ``""``."""
    path = os.path.abspath(filename)
    if not path.startswith(package_root + os.sep) or not path.endswith(".py"):
        return ""
    return os.path.relpath(path, package_root)[:-3].replace(os.sep, ".")


def module_profile(profiler: cProfile.Profile, package_root: str):
    """(total self seconds, {module: (self seconds, calls)})."""
    total = 0.0
    modules: dict[str, list] = {}
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) in (
        pstats.Stats(profiler).stats.items()  # type: ignore[attr-defined]
    ):
        total += self_s
        entry = modules.setdefault(module_of(filename, package_root), [0.0, 0])
        entry[0] += self_s
        entry[1] += calls
    return total, {name: tuple(entry) for name, entry in modules.items()}


def _percentiles(values: list[float]) -> tuple[float, float]:
    """(median, 90th percentile); zeros without samples."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, profiler: cProfile.Profile, outcome,
                  bench: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name.

    ``*.self_s`` metrics are self times: a module's own time in the
    profile, or a span's duration minus its child spans.  Every other
    span metric in seconds is the whole duration of the calls it names.
    ``bench`` carries the benchmark's own numbers.
    """
    spans = recorder.by_name()

    def durations(name: str) -> list[float]:
        return [duration for duration, _own in spans.get(name, ())]

    def own(name: str) -> float:
        return sum(own_s for _duration, own_s in spans.get(name, ()))

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    profiled_s, modules = module_profile(profiler, package_root)
    values: dict[str, float] = dict(bench)
    for group, names in PROFILED.items():
        group_s = sum(modules.get(name, (0.0, 0))[0] for name in names)
        values[f"{group}.self_s"] = group_s
        values[f"{group}.self_share"] = _ratio(group_s, profiled_s)
        values[f"{group}.calls"] = sum(modules.get(name, (0.0, 0))[1] for name in names)

    executor = outcome.executor
    requested = executor.get("requested", 0)
    values["parallel.requested"] = requested
    values["parallel.simulated"] = executor.get("simulated", 0)
    values["parallel.cache_hits"] = executor.get("cache_hits", 0)
    values["parallel.journal_hits"] = executor.get("journal_hits", 0)
    values["parallel.served_ratio"] = _ratio(executor.get("served", 0), requested)

    get_calls = len(durations("cache.get"))
    values["cache.key_s"] = sum(durations("cache.key"))
    values["cache.get_s"] = sum(durations("cache.get"))
    values["cache.get_calls"] = get_calls
    values["cache.hit_ratio"] = _ratio(executor.get("cache_hits", 0), get_calls)
    values["journal.record_s"] = sum(durations("journal.record"))
    values["journal.record_calls"] = len(durations("journal.record"))

    run_spec_ms = [duration * 1e3 for duration in durations("experiment.run_spec")]
    values["experiment.run_spec_s"] = sum(run_spec_ms) / 1e3
    values["experiment.self_s"] = own("experiment.run_spec")
    values["experiment.run_spec_calls"] = len(run_spec_ms)
    values["experiment.run_spec_ms_p50"], values["experiment.run_spec_ms_p90"] = (
        _percentiles(run_spec_ms)
    )

    counters = outcome.counters
    model = counters.model_totals()
    values["sim.run_s"] = sum(durations("sim.run"))
    values["sim.events_popped"] = counters.events_popped
    values["sim.pops_per_s"] = _ratio(counters.events_popped, values["sim.run_s"])
    values["fastforward.windows_warped"] = counters.windows_warped
    values["fastforward.events_elided"] = counters.events_elided
    values["fastforward.elided_share"] = _ratio(
        counters.events_elided, counters.events_popped + counters.events_elided
    )
    values.update(model)
    values["eib.calls_per_grant"] = _ratio(values["eib.calls"], model["eib.grants"])

    values["validation.s"] = sum(durations("validation"))
    values["validation.claims_failed"] = outcome.claims_failed
    values["report.s"] = sum(durations("report"))
    values["streaming.s"] = sum(durations("streaming"))
    values["trace.records"] = counters.trace_records
    values["trace.run_s"] = sum(durations("trace.showcase"))
    values["trace.export_s"] = sum(durations("trace.export"))
    values["trace.bytes"] = outcome.trace_bytes
    findings = counters.sanitizer_findings
    values["sanitizer.run_s"] = sum(durations("sanitizer.showcase"))
    values["sanitizer.findings_clean"] = findings[0] if findings else 0
    values["sanitizer.findings_racy"] = findings[-1] if len(findings) > 1 else 0
    values["bench.self_s"] = own("pass")
    return values
