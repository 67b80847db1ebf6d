"""Gates for the coalescing fast engine (:mod:`repro.sim.engine_fast`).

The contract under test: for any spec, ``run_spec(spec, engine="fast")``
returns the *same bytes* as the reference engine — same gbps, nbytes,
cycles, seed — because the fast engine replays the reference heap
schedule minus provably-inert slots.  The reference engine is the
oracle; every mismatch here is a fast-engine bug by definition.
"""

import runpy
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cell.chip import CellChip
from repro.cell.config import CellConfig
from repro.cell.dma import coalesce_bursts, uniform_bursts
from repro.core.experiment import RunSpec, run_spec
from repro.cell.topology import SpeMapping
from repro.core.kernels import (
    DmaWorkload,
    FastStreamKernel,
    dma_stream_kernel,
    load_stream_kernel,
)
from repro.libspe import SpeContext
from repro.runtime.parallel import SweepExecutor
from repro.sim.core import SimulationError
from repro.sim.engine_fast import ENGINES, FastEnvironment, resolve_engine
from repro.sim.faults import FaultEngine
from repro.sim.sanitizer import DmaSanitizer
from repro.sim.trace import TraceRecorder


def spec_for(
    direction,
    mode="elem",
    n_spes=2,
    element_bytes=16384,
    n_elements=24,
    sync_every=None,
    unrolled=True,
    partner_logical=None,
    seed=1000,
):
    workload = DmaWorkload(
        direction=direction,
        element_bytes=element_bytes,
        n_elements=n_elements,
        mode=mode,
        sync_every=sync_every,
        partner_logical=partner_logical,
    )
    return RunSpec(
        config=CellConfig.paper_blade(),
        seed=seed,
        assignments=tuple((logical, workload) for logical in range(n_spes)),
        unrolled=unrolled,
    )


class TestResolveEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            resolve_engine("turbo")

    def test_reference_passes_through(self):
        assert resolve_engine("reference") == "reference"

    def test_fast_without_observers_stays_fast(self):
        assert resolve_engine("fast") == "fast"

    def test_enabled_observer_downgrades_to_reference(self):
        # A freshly constructed recorder/engine/sanitizer is enabled
        # (the shared NULL_* singletons are the disabled ones).
        assert resolve_engine("fast", trace=TraceRecorder()) == "reference"
        faults = FaultEngine({"ecc_retry": 0.5}, seed=1)
        assert resolve_engine("fast", faults=faults) == "reference"
        assert resolve_engine("fast", sanitizer=DmaSanitizer()) == "reference"

    def test_downgrade_warns_once_on_stderr(self, capsys):
        # The downgrade must be announced — once per process, on stderr
        # — so nobody mistakes an observed run for a fast-engine
        # benchmark.  Later downgrades stay silent (a sweep resolves
        # the engine thousands of times).
        import repro.sim.engine_fast as engine_fast

        engine_fast._downgrade_warned = False
        assert resolve_engine("fast", trace=TraceRecorder()) == "reference"
        assert resolve_engine("fast", trace=TraceRecorder()) == "reference"
        assert (
            resolve_engine("fast", sanitizer=DmaSanitizer()) == "reference"
        )
        err = capsys.readouterr().err
        assert err.count("downgraded to 'reference'") == 1
        assert "trace" in err

    def test_no_warning_without_downgrade(self, capsys):
        import repro.sim.engine_fast as engine_fast

        engine_fast._downgrade_warned = False
        assert resolve_engine("fast") == "fast"
        assert resolve_engine("reference", trace=TraceRecorder()) == "reference"
        assert capsys.readouterr().err == ""

    def test_chip_applies_the_downgrade(self):
        # CellChip(engine="fast") with an enabled observer silently runs
        # the reference engine — same results, per-event resolution.
        faults = FaultEngine({"ecc_retry": 0.5}, seed=1)
        chip = CellChip(engine="fast", faults=faults)
        assert chip.engine == "reference"
        assert not isinstance(chip.env, FastEnvironment)

    def test_fast_environment_refuses_enabled_observers(self):
        faults = FaultEngine({"ecc_retry": 0.5}, seed=1)
        with pytest.raises(SimulationError, match="unobserved"):
            FastEnvironment(faults=faults)


class TestUniformBursts:
    @pytest.mark.parametrize("element_size", [16, 128, 1000, 2048, 4096, 16384])
    @pytest.mark.parametrize("n_elements", [1, 2, 7, 24, 100])
    def test_matches_generic_fold(self, element_size, n_elements):
        quantum = 2048
        assert uniform_bursts(element_size, n_elements, quantum) == (
            coalesce_bursts([element_size] * n_elements, quantum)
        )


class TestByteIdentity:
    """run_spec(spec, engine="fast") == run_spec(spec), across shapes."""

    CASES = [
        spec_for("get"),
        spec_for("put"),
        spec_for("copy"),
        spec_for("get", mode="list"),
        spec_for("put", mode="list"),
        spec_for("copy", mode="list"),
        # single SPE: long quiet stretches, maximal inline coalescing
        spec_for("copy", n_spes=1, n_elements=48, seed=7),
        # full blade under contention
        spec_for("copy", n_spes=8, n_elements=16, seed=2),
        # periodic tag synchronisation
        spec_for("get", n_spes=4, n_elements=32, sync_every=8, seed=3),
        # rolled issue loop
        spec_for("put", n_spes=2, unrolled=False, seed=5),
        # small transfers: the <128 B inefficiency penalty path
        spec_for("get", n_spes=3, element_bytes=64, n_elements=24, seed=6),
        # LS-to-LS: partner SPE instead of main memory
        spec_for("copy", n_spes=1, element_bytes=8192, partner_logical=1,
                 seed=16),
        spec_for("get", n_spes=1, mode="list", element_bytes=8192,
                 partner_logical=1, seed=14),
        # A known divergence: the fast mover's whole-leg merge moves a
        # lone PUT stream's end time when it syncs every 2 commands (see
        # the whole-leg merge FOUND note in CHANGES.md).
        pytest.param(
            spec_for("put", n_spes=1, n_elements=16, sync_every=2, seed=0),
            marks=pytest.mark.xfail(
                strict=True, reason="whole-leg merge moves the end time",
            ),
        ),
    ]

    @pytest.mark.parametrize(
        "spec",
        CASES,
        ids=lambda spec: "{}-{}-{}spe-{}B{}{}{}".format(
            spec.assignments[0][1].direction,
            spec.assignments[0][1].mode,
            len(spec.assignments),
            spec.assignments[0][1].element_bytes,
            "-sync" if spec.assignments[0][1].sync_every else "",
            "-rolled" if not spec.unrolled else "",
            "-ls" if spec.assignments[0][1].partner_logical is not None else "",
        ),
    )
    def test_fast_equals_reference(self, spec):
        assert run_spec(spec, engine="fast") == run_spec(spec)


def stream_state(engine, workload, n_spes, seed, unrolled):
    """Run ``workload`` on logical SPEs 0..n_spes-1 and read back every
    result and model counter the two engines must agree on."""
    chip = CellChip(mapping=SpeMapping.random(seed, 8), engine=engine)
    partner = (
        None if workload.partner_logical is None
        else chip.spe(workload.partner_logical)
    )
    outs = [{} for _ in range(n_spes)]
    for logical, out in enumerate(outs):
        load_stream_kernel(chip, logical, workload, out, partner, unrolled)
    chip.run()
    eib = chip.eib
    # eib.conflicts and eib.wait_cycles are left out: the fast mover's
    # whole-leg merge can hide a chunk boundary the reference engine
    # contends at (see the whole-leg merge FOUND note in CHANGES.md).
    return {
        "outs": outs,
        "end": chip.env.now,
        "eib": (eib.grants, eib.bytes_moved),
        "utilization": eib.utilization(),
        "mfcs": [
            (spe.mfc.commands_completed, spe.mfc.bytes_transferred,
             spe.mfc.queue_free_slots)
            for spe in chip.spes
        ],
        "banks": [
            (bank.commands_served, bank.bytes_served, bank.busy_time())
            for bank in chip.memory.banks
        ],
    }


@settings(max_examples=60, deadline=None)
@given(
    direction=st.sampled_from(("get", "put", "copy")),
    mode=st.sampled_from(("elem", "list")),
    sync_every=st.sampled_from((None, 1, 2, 3)),
    unrolled=st.booleans(),
    element_bytes=st.sampled_from((32, 64, 128, 1024, 4096, 16384)),
    n_elements=st.integers(min_value=1, max_value=24),
    partner=st.booleans(),
    n_spes=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
# List mode with a sync cadence: no TestByteIdentity shape pins it.
@example(direction="copy", mode="list", sync_every=2, unrolled=True,
         element_bytes=4096, n_elements=9, partner=False, n_spes=2, seed=3)
@example(direction="get", mode="list", sync_every=1, unrolled=False,
         element_bytes=64, n_elements=5, partner=True, n_spes=1, seed=0)
def test_stream_program_matches_across_engines(
    direction, mode, sync_every, unrolled, element_bytes, n_elements,
    partner, n_spes, seed,
):
    # Logical SPE 3 is never one of the 1-3 streaming SPEs.
    workload = DmaWorkload(
        direction=direction,
        element_bytes=element_bytes,
        n_elements=n_elements,
        mode=mode,
        sync_every=sync_every,
        partner_logical=3 if partner else None,
    )
    fast = stream_state("fast", workload, n_spes, seed, unrolled)
    reference = stream_state("reference", workload, n_spes, seed, unrolled)
    if (n_spes == 1 and direction == "put" and mode == "elem"
            and sync_every is not None and not partner
            and element_bytes >= 8192):
        # The whole-leg merge can also move a lone synced PUT stream's
        # end time and ring busy time; the xfail case of
        # TestByteIdentity pins it.
        for key in ("outs", "end", "utilization"):
            del fast[key], reference[key]
    assert fast == reference


class TestExecutorEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            SweepExecutor(jobs=1, engine="turbo")

    def test_engines_are_the_public_tuple(self):
        assert ENGINES == ("reference", "fast")

    def test_fast_executor_samples_match_reference(self):
        specs = [spec_for("copy", seed=seed) for seed in (1000, 1001)]
        with SweepExecutor(jobs=1) as reference:
            expected = reference.samples(list(specs))
        with SweepExecutor(jobs=1, engine="fast") as fast:
            got = fast.samples(list(specs))
        assert got == expected


#: The quickstart's SPU program (GET+PUT against a partner's local
#: store, synchronised once at the end), loaded from the example itself.
QUICKSTART_PROGRAM = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "examples" / "quickstart.py")
)["spu_main"]


class TestMixedTraffic:
    """A generator SPU program and a fast-engine kernel share one EIB."""

    STREAM = DmaWorkload(direction="copy", element_bytes=16384, n_elements=24,
                         partner_logical=1)

    def run(self, engine, seed):
        chip = CellChip(mapping=SpeMapping.random(seed, 8), engine=engine)
        program, stream = {}, {}
        SpeContext(chip, 0).load(QUICKSTART_PROGRAM, chip.spe(1), program,
                                 n_elements=32)
        if engine == "fast":
            FastStreamKernel(chip.env, chip.spe(2), self.STREAM, stream,
                             partner=chip.spe(1))
        else:
            SpeContext(chip, 2).load(dma_stream_kernel, self.STREAM, stream,
                                     chip.spe(1))
        chip.run()
        return program["cycles"], stream["cycles"], chip.eib.conflicts

    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_matches_the_reference_engine(self, seed):
        fast = self.run("fast", seed)
        assert fast == self.run("reference", seed)
        # The two programs really contend for the bus.
        assert fast[2] > 0

    MEMORY_COPY = DmaWorkload(direction="copy", element_bytes=16384, n_elements=16)
    MEMORY_GET = DmaWorkload(direction="get", element_bytes=16384, n_elements=24)

    def run_against_memory(self, engine, seed):
        """A libspe copy program against main memory next to a GET
        stream: generator and actor commands share the banks."""
        chip = CellChip(mapping=SpeMapping.random(seed, 8), engine=engine)
        program, stream = {}, {}
        SpeContext(chip, 0).load(dma_stream_kernel, self.MEMORY_COPY, program)
        if engine == "fast":
            FastStreamKernel(chip.env, chip.spe(2), self.MEMORY_GET, stream)
        else:
            SpeContext(chip, 2).load(dma_stream_kernel, self.MEMORY_GET, stream)
        chip.run()
        return (
            program["cycles"], program["end"],
            stream["cycles"], stream["end"],
            chip.eib.conflicts,
            [bank.busy_time() for bank in chip.memory.banks],
        )

    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_memory_traffic_matches_the_reference_engine(self, seed):
        fast = self.run_against_memory("fast", seed)
        assert fast == self.run_against_memory("reference", seed)
        # Both programs reach both banks.
        assert all(fast[5])

    @staticmethod
    def free_slots_while_issuing(engine):
        """queue_free_slots after each of 20 libspe GETs, issued back to
        back into distinct LS buffers."""
        chip = CellChip(engine=engine)
        seen = []

        def program(spu, out):
            for i in range(20):
                yield from spu.mfc_get(size=8192, tag=0, local_offset=i * 8192,
                                       remote_offset=i * 8192)
                seen.append(spu.spe.mfc.queue_free_slots)
            yield from spu.wait_tags([0])

        SpeContext(chip, 0).load(program, {})
        chip.run()
        return seen

    def test_queue_free_slots_counts_libspe_commands(self):
        reference = self.free_slots_while_issuing("reference")
        assert reference == list(range(15, 0, -1)) + [0] * 5
        assert self.free_slots_while_issuing("fast") == reference
