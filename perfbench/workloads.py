"""The benchmark's three workloads, each a pass that run.py repeats.

* ``sweep-fast``: ``run_all`` on the quick preset with no cache, journal
  or surrogate, on the fast engine;
* ``sweep-warm``: the same pipeline served from a result cache filled
  during set-up, appending to a fresh journal (flushed, not fsynced)
  every pass, with the step-8 streaming simulation memoised in set-up;
* ``observed``: ``run_traced`` then ``run_sanitized``.

Every pass checks its own outputs (:attr:`PassOutcome.problems`); a
:class:`Ledger` in the checkout's work directory cross-checks runs of
the same seed.  :class:`ColdSweep` also runs on the reference engine,
which the benchmark's tests use to compare the two engines' samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import repro.reproduce as reproduce_module
from repro.analysis.streaming import StreamingComparison
from repro.core.cache import ResultCache
from repro.runtime.journal import SweepJournal
from repro.runtime.parallel import SweepExecutor

from perfbench.layers import ChipCounters, Patches

#: The sweep preset every workload runs.
PRESET = "quick"

#: Paper claims the validation step checks.
EXPECTED_CLAIMS = 32

WORKLOADS = ("sweep-fast", "sweep-warm", "observed")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class RecordingExecutor(SweepExecutor):
    """A :class:`SweepExecutor` that keeps every sample it hands out, in
    order, so a pass can be fingerprinted."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.recorded: list = []

    def samples(self, specs):
        out = super().samples(specs)
        self.recorded.extend(out)
        return out

    def tally(self) -> dict[str, int]:
        cache_hits = self.cache.hits if self.cache is not None else 0
        return {
            "requested": len(self.recorded),
            "simulated": self.simulated,
            "cache_hits": cache_hits,
            "journal_hits": self.journal_hits,
            "served": cache_hits + self.journal_hits + self.surrogate_hits,
        }


@dataclass
class PassOutcome:
    """What one pass produced and what its checks found wrong."""

    ops: int
    counters: ChipCounters
    problems: list[str] = field(default_factory=list)
    #: Named digests of the pass's outputs; equal across passes.
    fingerprint: dict[str, str] = field(default_factory=dict)
    claims_failed: int = 0
    executor: dict[str, int] = field(default_factory=dict)
    trace_bytes: int = 0


class Ledger:
    """Fingerprints per seed, shared by every run in one checkout.

    The first run of a seed records each fingerprint; later runs (any
    workload, any engine) must match it.  Writes are atomic, so an
    interrupted run leaves the previous ledger intact.
    """

    def __init__(self, path: str):
        self.path = path

    def _load(self) -> dict:
        try:
            with open(self.path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    def check(self, key: str, fingerprint: dict[str, str]) -> list[str]:
        ledger = self._load()
        known = ledger.setdefault(key, {})
        problems = [
            f"{name} differs from an earlier run of {key}"
            for name, value in fingerprint.items()
            if known.setdefault(name, value) != value
        ]
        handle = tempfile.NamedTemporaryFile(
            "w", dir=os.path.dirname(self.path), suffix=".tmp", delete=False
        )
        with handle:
            json.dump(ledger, handle, sort_keys=True, indent=1)
        os.replace(handle.name, self.path)
        return problems


class Workload:
    """One workload: set-up, then passes that check their own outputs."""

    name = ""
    #: Ledger name of the pass's model-counter digest.
    model_key = ""
    #: Whether set-up includes the code-version digest that keys the
    #: result cache and the journal.
    keys_results = False

    def __init__(self, seed: int, workdir: str, preset: str = PRESET):
        self.seed = seed
        self.preset = preset
        self.workdir = workdir
        #: Each pass writes into a directory of its own, removed after
        #: the pass: rewriting the same files would time the filesystem's
        #: writeback of the previous pass's output.
        self.pass_dir: str | None = None
        self._passes = 0
        self.patches = Patches()
        #: The first pass's fingerprint, which every later pass must match.
        self.expected: dict[str, str] | None = None

    def __enter__(self) -> Workload:
        os.makedirs(self.workdir, exist_ok=True)
        self.patches.wrap(reproduce_module, "sweep_experiments", self._seeded)
        return self

    def __exit__(self, *exc_info) -> None:
        self.patches.undo()

    def _seeded(self, sweep_experiments):
        """The workload seed becomes every experiment's placement seed base."""
        def seeded(preset):
            experiments = sweep_experiments(preset)
            for experiment in experiments.values():
                experiment.seed_base = self.seed
            return experiments
        return seeded

    def setup(self) -> float:
        """In-process set-up beyond imports; returns its host seconds."""
        return 0.0

    def run_pass(self) -> PassOutcome:
        self._passes += 1
        self.pass_dir = os.path.join(self.workdir, f"pass-{self._passes}")
        os.makedirs(self.pass_dir)
        counters = ChipCounters()
        patches = Patches()
        counters.install(patches)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                outcome = self._pass(counters)
        finally:
            patches.undo()
        if counters.model_rows:
            outcome.fingerprint[self.model_key] = digest(counters.model_rows)
        if self.expected is None:
            self.expected = dict(outcome.fingerprint)
        outcome.problems += [
            f"{name} differs from the first pass of this run"
            for name, value in outcome.fingerprint.items()
            if self.expected.get(name) != value
        ]
        return outcome

    def tidy(self) -> None:
        """Untimed clean-up after a pass."""
        shutil.rmtree(self.pass_dir, ignore_errors=True)

    def _pass(self, counters: ChipCounters) -> PassOutcome:
        raise NotImplementedError


def _sweep_outcome(executor: RecordingExecutor, checks, counters) -> PassOutcome:
    outcome = PassOutcome(ops=len(executor.recorded), counters=counters)
    outcome.executor = executor.tally()
    outcome.claims_failed = sum(not check.passed for check in checks) + max(
        0, EXPECTED_CLAIMS - len(checks)
    )
    outcome.fingerprint["samples"] = digest(
        [[s.gbps, s.nbytes, s.cycles, s.seed] for s in executor.recorded]
    )
    outcome.fingerprint["claims"] = digest(
        [[check.claim_id, check.passed, check.observed] for check in checks]
    )
    if executor.failures:
        outcome.problems.append(f"{len(executor.failures)} repetition(s) failed")
    return outcome


class ColdSweep(Workload):
    """The quick sweep on one engine with no cache, journal or surrogate."""

    def __init__(self, engine: str, seed: int, workdir: str, preset: str = PRESET):
        super().__init__(seed, workdir, preset)
        self.name = f"sweep-{engine}"
        self.engine = engine
        self.model_key = f"model.{engine}"

    def _pass(self, counters):
        executor = RecordingExecutor(jobs=1, engine=self.engine)
        try:
            checks = reproduce_module.run_all(self.preset, self.pass_dir, executor=executor)
        finally:
            executor.close()
        return _sweep_outcome(executor, checks, counters)


class WarmSweep(Workload):
    """Steps 1-7 served from a cache filled in set-up, journalled afresh
    each pass; the streaming simulation is memoised in set-up."""

    name = "sweep-warm"
    keys_results = True
    # Only the fill runs the model, and fewer chips than a sweep-fast
    # pass: repeated specs within the sweep are replayed from the journal.
    model_key = "model.warm-fill"

    def __init__(self, seed: int, workdir: str, preset: str = PRESET):
        super().__init__(seed, workdir, preset)
        self.cache_dir = os.path.join(workdir, "cache")
        self._streams: dict[str, object] = {}

    def __enter__(self) -> WarmSweep:
        super().__enter__()
        self.patches.wrap(StreamingComparison, "run", self._memoised)
        return self

    def _memoised(self, run):
        def memoised(comparison):
            key = repr(sorted(vars(comparison).items()))
            if key not in self._streams:
                self._streams[key] = run(comparison)
            return self._streams[key]
        return memoised

    def setup(self) -> float:
        """Fill the cache from empty (timed as set-up, like the cold
        run a user pays once per code version)."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        start = perf_counter()
        fill = self.run_pass()
        elapsed = perf_counter() - start
        self.tidy()
        if fill.problems:
            raise RuntimeError(f"cache fill failed: {fill.problems}")
        return elapsed

    def _pass(self, counters):
        # No fsync: its latency on a shared disk drifted 2x between
        # minutes, which would drown the executor's own host time.  The
        # journal still encodes, appends and flushes every repetition.
        journal = SweepJournal(os.path.join(self.pass_dir, "journal.jsonl"), fsync=False)
        executor = RecordingExecutor(
            jobs=1, engine="fast", cache=ResultCache(self.cache_dir), journal=journal
        )
        try:
            checks = reproduce_module.run_all(self.preset, self.pass_dir, executor=executor)
        finally:
            executor.close()
            journal.close()
        outcome = _sweep_outcome(executor, checks, counters)
        # Past the fill (the first pass), every repetition must be
        # served from the cache without running the chip model.
        if self.expected is not None and (executor.simulated or counters.model_rows):
            outcome.problems.append(
                f"a warm pass simulated {executor.simulated} repetition(s) "
                f"and ran {len(counters.model_rows)} chip(s)"
            )
        return outcome

class Observed(Workload):
    """The traced showcase then the sanitizer showcase, at the workload seed."""

    name = "observed"
    model_key = "model.observed"

    def _pass(self, counters):
        outcome = PassOutcome(ops=2, counters=counters)
        trace_path = os.path.join(self.pass_dir, "showcase-trace.json")
        if not reproduce_module.run_traced(self.preset, trace_path, seed=self.seed):
            outcome.problems.append("run_traced: trace and live EIB counters differ")
        outcome.trace_bytes = os.path.getsize(trace_path)
        if not reproduce_module.run_sanitized(self.preset, seed=self.seed):
            outcome.problems.append("run_sanitized: a verdict is wrong")
        findings = counters.sanitizer_findings
        if len(findings) != 2 or findings[0] != 0 or findings[1] == 0:
            outcome.problems.append(
                f"sanitizer findings {findings}: expected a clean run then a racy one"
            )
        outcome.fingerprint["showcases"] = digest(
            [counters.trace_records, findings, outcome.trace_bytes]
        )
        return outcome


def make_workload(name: str, seed: int, workdir: str, preset: str = PRESET) -> Workload:
    if name == "sweep-fast":
        return ColdSweep("fast", seed, workdir, preset)
    if name == "sweep-warm":
        return WarmSweep(seed, workdir, preset)
    if name == "observed":
        return Observed(seed, workdir, preset)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
