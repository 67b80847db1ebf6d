"""Reproduce the whole paper in one command.

Runs every experiment, validates every claim, derives the guidelines,
and writes text reports plus CSVs (one per figure) to an output
directory::

    python -m repro.reproduce                 # default sweep, ./repro-out/
    python -m repro.reproduce --quick         # smoke sweep (~30 s)
    python -m repro.reproduce --paper-scale   # the paper's full protocol
    python -m repro.reproduce --outdir /tmp/cell
    python -m repro.reproduce --quick --trace out.json   # + chip trace
    python -m repro.reproduce --jobs 8        # fan repetitions over 8 processes
    python -m repro.reproduce --no-cache      # ignore .repro-cache/

Repetitions are independent simulations; ``--jobs N`` (default: one per
CPU core) fans them across a process pool with a deterministic ordered
merge, so reports are byte-identical for every N (``--jobs 1`` is the
serial path).  Completed repetitions are memoised in ``.repro-cache/``
keyed by machine config, workloads, seed and code version; a re-run
after an unrelated edit (or none) skips straight to the reports.
``--no-cache`` bypasses the cache, ``--cache-dir`` relocates it,
``--cache-max-mb`` caps it with least-recently-used eviction.

Sweeps survive failure instead of restarting from zero.  Worker
crashes are detected and re-dispatched (bounded by ``--retries``);
``--timeout`` adds a per-repetition wall-clock bound that catches hung
workers; ``--partial`` returns every completed cell plus a structured
failure report instead of aborting a nearly-done sweep.  ``--resume``
journals every completed repetition to ``<outdir>/sweep-journal.jsonl``
(``--journal PATH`` relocates it) and, on a re-run after a crash or
SIGKILL, replays the journal and re-executes only the remainder —
byte-identical to an uninterrupted run::

    python -m repro.reproduce --quick --resume          # crash-safe sweep
    # ... SIGKILL / OOM / power loss ...
    python -m repro.reproduce --quick --resume          # picks up where it died

``--trace PATH`` additionally runs a traced showcase workload (memory
streams plus SPE couples) and writes a Chrome trace-event JSON loadable
in Perfetto / ``chrome://tracing``; summarise it afterwards with
``python -m repro.trace_report PATH``.

``--faults SPEC`` additionally runs the fault-tolerance showcase: the
offload runtime executes a wavefront task graph under deterministic
injected faults (``--fault-seed`` picks the fault stream) and must
complete the whole graph under both scheduling policies, quarantining
crashed SPEs and re-dispatching their work::

    python -m repro.reproduce --quick --faults spe_crash:1 --fault-seed 7
    python -m repro.reproduce --quick --faults dma_drop:0.02,ecc_retry:0.05

``--sanitize`` additionally runs the DMA hazard sanitizer showcase
(:mod:`repro.sim.sanitizer`): the shipped double-buffered kernels must
run hazard-free, and a deliberately unsynchronised DMA pair must be
flagged.  The sanitizer is a pure observer — with or without it, runs
are byte-identical.

``--surrogate[=fit|predict|auto]`` puts the analytic bandwidth
surrogate (:mod:`repro.analysis.surrogate`) in front of the simulator:
in-domain repetitions are answered by per-path fitted bandwidth laws in
O(1), out-of-domain ones fall back to the DES (``auto``, the default
mode, feeds fallbacks back into the training set and refits).  The
model persists at ``--surrogate-path`` (default
``<cache-dir>/surrogate.json``) keyed by code version; stale models
are refitted.  Cached/journalled truth always wins over a prediction,
and predictions are never persisted::

    python -m repro.reproduce --quick --surrogate          # auto: fit or load, serve, refit
    python -m repro.reproduce --quick --surrogate=fit      # force a fresh training sweep
    python -m repro.reproduce --quick --surrogate=predict  # serve from the stored model only

Exit status is non-zero if any paper claim fails to reproduce.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis import GuidelineAdvisor, StreamingComparison
from repro.core import (
    CouplesExperiment,
    CycleExperiment,
    PairDistanceExperiment,
    PairSyncExperiment,
    PpeBandwidthExperiment,
    ResultCache,
    SpeLocalStoreExperiment,
    SpeMemoryExperiment,
)
from repro.core import validation
from repro.core.cache import DEFAULT_CACHE_DIR
from repro.core.experiment import ExperimentResult
from repro.core.report import format_series_chart, render_result, to_csv
from repro.core.spe_pairs import SYNC_AFTER_ALL
from repro.runtime.journal import SweepJournal
from repro.runtime.parallel import SweepExecutor, default_jobs
from repro.runtime.resilience import HostRetryPolicy, SweepFailureReport

#: Sweep presets: (element sizes, repetitions, bytes per SPE).
PRESETS = {
    "quick": ((1024, 16384), 2, 2 ** 20),
    "default": ((128, 512, 1024, 4096, 16384), 6, 2 ** 20),
    "paper": ((128, 256, 512, 1024, 2048, 4096, 8192, 16384), 10, 2 ** 21),
}


def sweep_experiments(preset: str) -> dict:
    """The five seed-swept DMA experiments of the reproduce sweep, in
    sweep order, freshly constructed for a preset.

    Single source of the sweep's geometry: :func:`run_all` runs these,
    and the bandwidth surrogate's training population is collected from
    these same objects
    (:func:`repro.analysis.surrogate_store.training_specs`), so the
    fitted domain can never drift from the sweep it answers.
    """
    sizes, repetitions, volume = PRESETS[preset]
    return {
        # Memory bandwidth barely depends on placement; fewer
        # repetitions suffice (see SpeMemoryExperiment).
        "memory": SpeMemoryExperiment(
            element_sizes=sizes,
            repetitions=min(3, repetitions),
            bytes_per_spe=volume,
        ),
        "distance": PairDistanceExperiment(
            element_sizes=(16384,), repetitions=repetitions,
            bytes_per_spe=volume,
        ),
        "sync": PairSyncExperiment(
            sync_policies=(1, 2, 4, 16, SYNC_AFTER_ALL),
            element_sizes=tuple(sorted(set(sizes) | {512, 1024, 4096, 16384})),
            repetitions=2,
            bytes_per_spe=volume,
        ),
        "couples": CouplesExperiment(
            element_sizes=sizes, repetitions=repetitions, bytes_per_spe=volume
        ),
        "cycle": CycleExperiment(
            element_sizes=sizes, repetitions=repetitions, bytes_per_spe=volume
        ),
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        )
    return value


def resolve_jobs(requested: int | None) -> int:
    """The effective worker count: default to every core, reject
    nonsense, clamp an over-ask to the machine (extra workers would
    only thrash a sweep of CPU-bound simulations)."""
    available = default_jobs()
    if requested is None:
        return available
    if requested < 1:
        raise ValueError(f"--jobs must be a positive integer, got {requested}")
    if requested > available:
        print(
            f"warning: --jobs {requested} exceeds the {available} available "
            f"CPU core(s); clamping to {available}"
        )
        return available
    return requested


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce", description=__doc__
    )
    parser.add_argument("--outdir", default="repro-out")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of a traced showcase run",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="run the fault-tolerance showcase with this fault spec "
        "(e.g. spe_crash:1 or dma_drop:0.02,ecc_retry:0.05)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the DMA hazard sanitizer showcase: the shipped "
        "kernels must be hazard-free and a deliberately unsynchronised "
        "pair must be flagged",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the deterministic fault stream (default 0)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes for the sweeps (default: one per CPU "
        "core; 1 = serial; asks beyond the CPU count are clamped)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-repetition wall-clock timeout for pooled sweeps; a "
        "hung worker is replaced and its repetition retried (default: "
        "no timeout)",
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=2,
        metavar="N",
        help="re-dispatches of a repetition after a worker crash, hang "
        "or error before it counts as failed (default 2)",
    )
    parser.add_argument(
        "--partial",
        action="store_true",
        help="on exhausted retries, keep every completed cell and "
        "print a structured failure report instead of aborting the "
        "sweep (claims that lost their data are skipped)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="journal every completed repetition (crash-safe append) "
        "and replay the journal on re-run, so an interrupted sweep "
        "re-executes only the remainder",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="sweep-journal location (default with --resume: "
        "<outdir>/sweep-journal.jsonl); implies --resume",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=_positive_int,
        default=None,
        metavar="MB",
        help="cap the result cache at this size, evicting "
        "least-recently-used entries (default: unbounded)",
    )
    parser.add_argument(
        "--engine",
        choices=("reference", "fast"),
        default="reference",
        help="simulation engine for the sweeps: the per-event reference "
        "engine or the coalescing fast engine (identical results; runs "
        "with trace/fault/sanitizer observers always use reference)",
    )
    parser.add_argument(
        "--surrogate",
        nargs="?",
        const="auto",
        choices=("fit", "predict", "auto"),
        default=None,
        metavar="MODE",
        help="answer in-domain repetitions from the analytic bandwidth "
        "surrogate instead of simulating them: 'fit' refits from the "
        "training sweep unconditionally, 'predict' serves the stored "
        "model (fitting only when it is missing or stale), 'auto' "
        "(the default with a bare --surrogate) additionally feeds "
        "simulated fallbacks back into the model and persists the "
        "grown fit",
    )
    parser.add_argument(
        "--surrogate-path",
        default=None,
        metavar="PATH",
        help="fitted-model location (default: surrogate.json inside "
        "the cache directory)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the persistent result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="PATH",
        help=f"result-cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="cumulative",
        choices=("cumulative", "tottime"),
        default=None,
        metavar="SORT",
        help="run under cProfile and print the top 25 functions to "
        "stderr, sorted by cumulative time (the default with a bare "
        "--profile) or by tottime",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="additionally dump the raw cProfile stats to this file "
        "(loadable with pstats; implies --profile)",
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true")
    scale.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args(argv)
    if args.profile_out is not None and args.profile is None:
        args.profile = "cumulative"
    return args


def _write(outdir: str, name: str, text: str) -> None:
    path = os.path.join(outdir, name)
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _save_result(outdir: str, result: ExperimentResult) -> None:
    _write(outdir, f"{result.name}.txt", render_result(result))
    for table_name, table in result.tables.items():
        _write(outdir, f"{result.name}.{table_name}.csv", to_csv(table))


def run_all(
    preset: str, outdir: str, executor: SweepExecutor | None = None
) -> list[validation.ClaimCheck]:
    """Run every experiment and write the reports.

    ``executor`` routes each experiment's repetitions through a
    :class:`~repro.runtime.parallel.SweepExecutor` (process fan-out
    and/or the persistent result cache); ``None`` keeps the historical
    inline-serial path.
    """
    experiments = sweep_experiments(preset)
    os.makedirs(outdir, exist_ok=True)
    checks: list[validation.ClaimCheck] = []

    def execute(experiment) -> ExperimentResult:
        if executor is None:
            return experiment.run()
        return executor.run(experiment)

    def guarded(validate):
        """Run one validation/analysis step; in partial-results mode a
        dropped cell (KeyError) skips the step instead of crashing the
        95% of the sweep that did complete."""
        try:
            return validate()
        except KeyError as error:
            if executor is not None and executor.failures:
                print(f"  validation skipped (partial results): {error}")
                return []
            raise

    print("[1/8] PPE bandwidth (Figures 3, 4, 6)")
    ppe: dict[str, ExperimentResult] = {}
    for level in ("l1", "l2", "mem"):
        ppe[level] = execute(PpeBandwidthExperiment(level))
        _save_result(outdir, ppe[level])
    checks += guarded(lambda: validation.check_ppe(ppe))

    print("[2/8] SPU <-> local store (section 4.2.2)")
    localstore = execute(SpeLocalStoreExperiment())
    _save_result(outdir, localstore)
    checks += guarded(lambda: validation.check_localstore(localstore))

    print("[3/8] SPE <-> memory (Figure 8)")
    memory = execute(experiments["memory"])
    _save_result(outdir, memory)
    checks += guarded(lambda: validation.check_spe_memory(memory))
    _write(
        outdir,
        "fig08-chart.txt",
        format_series_chart(
            memory.table("get"),
            axis="element_bytes",
            series_fixed=[
                (f"{n} SPE(s)", {"n_spes": n}) for n in (1, 2, 4, 8)
            ],
            peak=23.8,
            title="Figure 8 (GET): SPE-to-memory bandwidth",
        ),
    )

    print("[4/8] pair distance (Figure 9 setup)")
    distance = execute(experiments["distance"])
    _save_result(outdir, distance)
    checks += guarded(lambda: validation.check_pair_distance(distance))

    print("[5/8] sync delay (Figure 10)")
    sync = execute(experiments["sync"])
    _save_result(outdir, sync)
    checks += guarded(lambda: validation.check_pair_sync(sync))

    print("[6/8] couples (Figures 12/13)")
    couples = execute(experiments["couples"])
    _save_result(outdir, couples)
    checks += guarded(lambda: validation.check_couples(couples))

    print("[7/8] cycle (Figures 15/16)")
    cycle = execute(experiments["cycle"])
    _save_result(outdir, cycle)
    checks += guarded(lambda: validation.check_cycle(cycle, couples))

    print("[8/8] streaming guideline + section-5 rules")
    streams = StreamingComparison(chunks_per_stream_unit=32).run()
    stream_text = "\n".join(
        f"{result.label}: {result.gbps:.2f} GB/s"
        for result in streams.values()
    ) + (
        f"\nadvantage: "
        f"{streams['double'].gbps / streams['single'].gbps:.2f}x\n"
    )
    _write(outdir, "guideline-streams.txt", stream_text)

    advisor = GuidelineAdvisor()
    for level, result in ppe.items():
        advisor.add_ppe(level, result)
    guarded(lambda: advisor.add_memory(memory))
    guarded(lambda: advisor.add_pair_sync(sync))
    guarded(lambda: advisor.add_couples(couples))
    guarded(lambda: advisor.add_cycle(cycle))
    guidelines = "\n".join(str(rule) for rule in advisor.guidelines()) + "\n"
    _write(outdir, "guidelines.txt", guidelines)

    _write(outdir, "validation.txt", validation.summarize(checks) + "\n")
    return checks


def _run_showcase(seed: int, element_bytes: int, volume: int, **observer):
    """Run the observed-run showcase chip and return it: GET streams
    from memory on logical SPEs 0-3 (bank and MFC records) and copy
    couples 4->5 and 6->7 (ring-conflict records), so every record type
    fires.  ``observer`` is passed to the chip (trace= or sanitizer=)."""
    from repro.cell.chip import CellChip
    from repro.cell.topology import SpeMapping
    from repro.core.kernels import DmaWorkload, load_stream_kernel

    n_elements = max(32, min(256, volume // element_bytes))
    chip = CellChip(mapping=SpeMapping.random(seed, 8), **observer)
    stream = DmaWorkload(
        direction="get", element_bytes=element_bytes, n_elements=n_elements
    )
    for logical in range(4):
        load_stream_kernel(chip, logical, stream, {})
    for a, b in ((4, 5), (6, 7)):
        couple = DmaWorkload(
            direction="copy",
            element_bytes=element_bytes,
            n_elements=n_elements,
            partner_logical=b,
        )
        load_stream_kernel(chip, a, couple, {}, chip.spe(b))
    chip.run()
    return chip


def run_traced(preset: str, path: str, seed: int = 1000) -> bool:
    """Run the traced showcase workload and write a Chrome trace to
    ``path``.  Returns True when the trace stream reproduces the live
    EIB counters exactly (it must, for a completed run)."""
    from repro.sim import TraceRecorder, TraceSummary, write_chrome_trace

    sizes, _repetitions, volume = PRESETS[preset]
    recorder = TraceRecorder()
    chip = _run_showcase(seed, max(sizes), volume, trace=recorder)
    counters = TraceSummary(recorder.records).counters()
    live = {
        "grants": chip.eib.grants,
        "conflicts": chip.eib.conflicts,
        "wait_cycles": chip.eib.wait_cycles,
        "bytes_moved": chip.eib.bytes_moved,
    }
    write_chrome_trace(
        path,
        recorder.records,
        cpu_hz=chip.config.clock.cpu_hz,
        metadata={"counters": live, "seed": seed, "preset": preset},
    )
    print(
        f"wrote {path} ({len(recorder.records)} records; "
        f"read it with python -m repro.trace_report {path})"
    )
    if counters != live:
        print(f"trace/live counter mismatch: {counters} vs {live}")
        return False
    return True


def racy_pair_program(spu, out):
    # Two GETs into the same LS bytes, same tag group, no wait between
    # them: the canonical unsynchronised DMA pair.  Module-level (not
    # nested in run_sanitized) so the static/runtime cross-validation
    # test can lint exactly the program the runtime sanitizer flags.
    yield from spu.mfc_get(size=4096, tag=0)
    yield from spu.mfc_get(size=4096, tag=0)
    yield from spu.wait_tags([0])
    out["done"] = True


def run_sanitized(preset: str, seed: int = 1000) -> bool:
    """Run the DMA hazard sanitizer showcase (``--sanitize``).

    Two runs, both with the sanitizer attached (the sanitizer is a pure
    observer, so the simulations are byte-identical to unsanitized ones):

    * the showcase workload (memory streams plus SPE couples) with the
      shipped double-buffered kernels — must report **zero** hazards;
    * a deliberately unsynchronised GET/GET pair reusing one LS buffer
      with no intervening tag wait — the sanitizer must flag it.

    Returns True when both behave as claimed.
    """
    from repro.cell.chip import CellChip
    from repro.libspe import SpeContext
    from repro.sim import DmaSanitizer

    sizes, _repetitions, volume = PRESETS[preset]
    # The largest paper elements (16 KiB against main memory) genuinely
    # reuse LS buffers — 16 in-flight commands fill the whole 256 KiB
    # local store — so the clean showcase runs the largest size whose
    # rotation provably fits (see docs/MODEL.md, "Correctness tooling").
    element_bytes = max(s for s in sizes if s <= 4096)
    sanitizer = DmaSanitizer()
    _run_showcase(seed, element_bytes, volume, sanitizer=sanitizer)
    print(f"sanitized showcase: {sanitizer.report()}")
    ok = True
    if sanitizer.findings:
        print("  FAIL: the shipped kernels must run hazard-free")
        ok = False

    racy_sanitizer = DmaSanitizer()
    racy_chip = CellChip(sanitizer=racy_sanitizer)
    SpeContext(racy_chip, 0).load(racy_pair_program, {})
    racy_chip.run()
    print(f"racy pair: {racy_sanitizer.report()}")
    if not racy_sanitizer.findings:
        print("  FAIL: the unsynchronised pair must be flagged")
        ok = False
    return ok


def run_faulted(spec: str, seed: int) -> bool:
    """Run the fault-tolerance showcase: the offload runtime must finish
    a wavefront graph under injected faults with both policies, and a
    re-run with the same seed must reproduce the exact same stats."""
    from repro.runtime import OffloadRuntime, wavefront
    from repro.sim import FaultEngine, FaultSpecError

    try:
        parsed = FaultEngine(spec, seed=seed)
    except FaultSpecError as error:
        print(f"bad --faults spec: {error}")
        return False
    print(f"fault-tolerance showcase: {parsed.describe()}")
    graph = wavefront(4, 4)
    ok = True
    for policy in ("forward", "memory"):
        stats = OffloadRuntime(
            graph, n_spes=8, policy=policy,
            faults=FaultEngine(spec, seed=seed),
        ).run()
        again = OffloadRuntime(
            graph, n_spes=8, policy=policy,
            faults=FaultEngine(spec, seed=seed),
        ).run()
        print(f"  {stats}")
        if (stats.makespan_cycles, stats.faults_injected,
                stats.tasks_retried, stats.spes_lost) != (
                again.makespan_cycles, again.faults_injected,
                again.tasks_retried, again.spes_lost):
            print(f"  NON-DETERMINISTIC under seed {seed}: {stats} vs {again}")
            ok = False
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.profile is None:
        return _main(args)
    # Profiled run: wrap the whole pipeline, report to stderr so the
    # validation summary on stdout stays machine-readable.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return _main(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats(args.profile).print_stats(25)
        if args.profile_out is not None:
            profiler.dump_stats(args.profile_out)
            print(
                f"profile stats written to {args.profile_out}",
                file=sys.stderr,
            )


def _main(args: argparse.Namespace) -> int:
    preset = "quick" if args.quick else "paper" if args.paper_scale else "default"
    jobs = resolve_jobs(args.jobs)
    cache = None if args.no_cache else ResultCache(
        args.cache_dir,
        max_bytes=None if args.cache_max_mb is None else args.cache_max_mb * 2 ** 20,
    )
    journal = None
    if args.resume or args.journal:
        journal_path = args.journal or os.path.join(
            args.outdir, "sweep-journal.jsonl"
        )
        os.makedirs(args.outdir, exist_ok=True)
        journal = SweepJournal(journal_path)
        print(f"sweep journal: {journal.describe()}")
    executor = SweepExecutor(
        jobs=jobs,
        cache=cache,
        engine=args.engine,
        policy=HostRetryPolicy(timeout_s=args.timeout, retries=args.retries),
        partial_results=args.partial,
        journal=journal,
    )
    try:
        if args.surrogate:
            from repro.analysis.surrogate_store import (
                SurrogateStore,
                fit_surrogate,
            )

            surrogate_path = args.surrogate_path or os.path.join(
                args.cache_dir, "surrogate.json"
            )
            surrogate_store = SurrogateStore(surrogate_path)
            model = (
                None if args.surrogate == "fit" else surrogate_store.load()
            )
            if model is None:
                reason = (
                    "refit requested" if args.surrogate == "fit"
                    else f"no servable model at {surrogate_path}"
                )
                print(
                    f"surrogate: fitting from the {preset!r} training "
                    f"sweep ({reason})"
                )
                model = fit_surrogate(executor, preset)
                surrogate_store.save(model)
                print(model.report.summary())
            else:
                print(
                    f"surrogate: loaded {model.describe()} "
                    f"from {surrogate_path}"
                )
            executor.surrogate = model
        checks = run_all(preset, args.outdir, executor=executor)
        if (
            executor.surrogate is not None
            and args.surrogate == "auto"
            and executor.surrogate.pending
        ):
            grown = executor.surrogate.pending
            executor.surrogate.refit()
            surrogate_store.save(executor.surrogate)
            print(
                f"surrogate: refitted with {grown} fallback "
                f"observation(s); now {executor.surrogate.describe()}"
            )
    finally:
        executor.close()
        if journal is not None:
            journal.close()
    print(f"sweep execution: {executor.describe()}")
    if executor.failures:
        report = SweepFailureReport(
            failures=executor.failures,
            total=executor.simulated + executor.journal_hits
            + len(executor.failures)
            + (executor.cache.hits if executor.cache is not None else 0),
            completed=executor.simulated + executor.journal_hits
            + (executor.cache.hits if executor.cache is not None else 0),
        )
        print(report.summary())
    trace_ok = True
    if args.trace:
        trace_ok = run_traced(preset, args.trace)
    faults_ok = True
    if args.faults:
        faults_ok = run_faulted(args.faults, args.fault_seed)
    sanitize_ok = True
    if args.sanitize:
        sanitize_ok = run_sanitized(preset)
    print()
    print(validation.summarize(checks))
    passed = (
        all(check.passed for check in checks)
        and not executor.failures
        and trace_ok and faults_ok and sanitize_ok
    )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
