"""Unit tests for the EIB model: timing, ports, rings, arbitration.

Each test runs on both engines: the fast engine drives the same
arbitration state, and generator transfers run on a fast chip too.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cell import CellChip, ConfigError
from repro.cell.eib import HOP_LATENCY_CYCLES
from repro.cell.topology import CLOCKWISE, COUNTERCLOCKWISE, SpeMapping
from repro.core.kernels import DmaWorkload, load_stream_kernel
from repro.sim.engine_fast import ENGINES


def on_each_engine(config, **eib):
    """A fresh identity-mapped chip per engine, with the EIB settings
    in ``eib`` overridden."""
    config = config.replace(eib=dataclasses.replace(config.eib, **eib))
    for engine in ENGINES:
        yield CellChip(
            config=config, mapping=SpeMapping.identity(config.n_spes), engine=engine
        )


def run_transfer(chip, src, dst, nbytes):
    done = {}

    def mover(env):
        start = env.now
        yield from chip.eib.transfer(src, dst, nbytes)
        done["cycles"] = env.now - start

    chip.env.process(mover(chip.env))
    chip.run()
    return done["cycles"]


def run_concurrent(chip, transfers, nbytes=2048):
    """Start every (src, dst) transfer at time 0; their finish times."""
    done = {}

    def mover(env, src, dst):
        yield from chip.eib.transfer(src, dst, nbytes)
        done[(src, dst)] = env.now

    for src, dst in transfers:
        chip.env.process(mover(chip.env, src, dst))
    chip.run()
    return [done[pair] for pair in transfers]


def expected_single_grant_cycles(config, src, dst, chunk, hops):
    rate = min(
        config.node_rate_bytes_per_cpu_cycle(src),
        config.node_rate_bytes_per_cpu_cycle(dst),
    )
    return (
        config.eib.arbitration_cycles
        + hops * HOP_LATENCY_CYCLES
        + math.ceil(chunk / rate)
    )


def test_single_quantum_transfer_timing(config):
    # SPE0 (index 10) to MIC (index 11): one hop clockwise.
    for chip in on_each_engine(config):
        cycles = run_transfer(chip, "SPE0", "MIC", 2048)
        assert cycles == expected_single_grant_cycles(config, "SPE0", "MIC", 2048, 1)


def test_transfer_splits_into_grant_quanta(config):
    quantum = config.eib.grant_quantum_bytes
    ones = [run_transfer(chip, "SPE0", "MIC", quantum) for chip in on_each_engine(config)]
    fours = [
        run_transfer(chip, "SPE0", "MIC", 4 * quantum) for chip in on_each_engine(config)
    ]
    assert fours == [4 * one for one in ones]


def test_ioif_transfers_run_at_seven_gbps(config):
    nbytes = 7_000_000
    for chip in on_each_engine(config):
        cycles = run_transfer(chip, "MIC", "IOIF0", nbytes)
        gbps = chip.config.clock.gbps(nbytes, cycles)
        assert gbps == pytest.approx(7.0, rel=0.05)


def test_distance_adds_latency(config):
    near = [run_transfer(chip, "SPE0", "MIC", 2048) for chip in on_each_engine(config)]
    far = [run_transfer(chip, "SPE1", "IOIF0", 2048) for chip in on_each_engine(config)]
    assert all(f > n for n, f in zip(near, far))


def test_out_port_is_exclusive(config):
    """Two transfers from the same source serialize on its on-ramp."""
    single = expected_single_grant_cycles(config, "SPE0", "SPE1", 2048, 1)
    for chip in on_each_engine(config):
        finish_times = sorted(
            run_concurrent(chip, [("SPE0", "SPE1"), ("SPE0", "SPE2")])
        )
        # The second transfer cannot start before the first releases the port.
        assert finish_times[1] >= finish_times[0] + single - HOP_LATENCY_CYCLES * 6


def test_disjoint_transfers_run_concurrently(config):
    """Transfers with disjoint ports and spans overlap fully."""
    for chip in on_each_engine(config):
        a, b = run_concurrent(chip, [("SPE0", "MIC"), ("SPE2", "SPE4")])
        assert a == expected_single_grant_cycles(config, "SPE0", "MIC", 2048, 1)
        hops_b = chip.topology.hops(
            "SPE2", "SPE4", chip.topology.directions_by_distance("SPE2", "SPE4")[0]
        )
        assert b == expected_single_grant_cycles(config, "SPE2", "SPE4", 2048, hops_b)


def test_conflicts_are_counted(config):
    for chip in on_each_engine(config):
        run_concurrent(chip, [("SPE0", "SPE1"), ("SPE0", "SPE2")], nbytes=4096)
        assert chip.eib.conflicts > 0
        assert 0 < chip.eib.conflict_fraction < 1
        assert chip.eib.wait_cycles > 0


def test_bytes_moved_accounting(config):
    for chip in on_each_engine(config):
        run_transfer(chip, "SPE0", "SPE1", 6144)
        assert chip.eib.bytes_moved == 6144


def test_invalid_transfers_rejected(config):
    for chip in on_each_engine(config):
        with pytest.raises(ConfigError):
            list(chip.eib.transfer("SPE0", "SPE0", 128))
        with pytest.raises(ConfigError):
            gen = chip.eib.transfer("SPE0", "SPE1", 0)
            next(gen)


class TestRing:
    """A ring's transfer cap, span overlap and release, through EIB
    transfers.  One-hop clockwise transfers between distinct SPEs:
    SPE1->SPE3 holds span 1, SPE5->SPE7 span 3, SPE6->SPE4 span 7
    (disjoint); SPE1->SPE5 holds spans 1-2 and SPE3->SPE7 spans 2-3
    (overlapping on span 2)."""

    def test_ring_respects_max_transfers(self, config):
        single = expected_single_grant_cycles(config, "SPE1", "SPE3", 2048, 1)
        for chip in on_each_engine(
            config, rings_per_direction=1, max_transfers_per_ring=2
        ):
            finish = run_concurrent(
                chip, [("SPE1", "SPE3"), ("SPE5", "SPE7"), ("SPE6", "SPE4")]
            )
            # Disjoint spans and ports, but the ring carries two
            # transfers: the third waits for the first release.
            assert finish == [single, single, 2 * single]
            assert chip.eib.conflicts == 1

    def test_ring_rejects_overlap(self, config):
        single = expected_single_grant_cycles(config, "SPE1", "SPE5", 2048, 2)
        overlapping = [("SPE1", "SPE5"), ("SPE3", "SPE7")]
        # Two rings per direction: the second transfer takes the other one.
        for chip in on_each_engine(config):
            assert run_concurrent(chip, overlapping) == [single, single]
            assert chip.eib.conflicts == 0
            utilization = chip.eib.utilization()
            assert utilization["cw0"] == utilization["cw1"] == 1.0
            assert utilization["ccw0"] == utilization["ccw1"] == 0.0
        # One ring per direction: it waits.
        for chip in on_each_engine(config, rings_per_direction=1):
            assert run_concurrent(chip, overlapping) == [single, 2 * single]
            assert chip.eib.conflicts == 1

    def test_ring_remove_restores_capacity(self, config):
        single = expected_single_grant_cycles(config, "SPE1", "SPE3", 2048, 1)
        for chip in on_each_engine(
            config, rings_per_direction=1, max_transfers_per_ring=1
        ):
            # The waiter is granted at the release, with no retry penalty
            # (no other flow is waiting).
            finish = run_concurrent(chip, [("SPE1", "SPE3"), ("SPE5", "SPE7")])
            assert finish == [single, 2 * single]
            assert chip.eib.conflicts == 1
            # Idle again: a new transfer is granted at once.
            assert run_transfer(chip, "SPE6", "SPE4", 2048) == single
            assert chip.eib.conflicts == 1


def test_memory_side_transfers_skip_retry_penalty(config):
    """Grants touching MIC keep zero penalty even under contention."""
    for chip in on_each_engine(config):
        # Eight SPEs all pulling from MIC: heavy port contention, but the
        # backlog penalty must not apply (the banks model memory overheads).
        finish = run_concurrent(chip, [("MIC", f"SPE{i}") for i in range(8)], 16384)
        gbps = chip.config.clock.gbps(8 * 16384, max(finish))
        # Pure port serialisation of 16.8 GB/s minus per-grant overheads.
        assert gbps > 13.0


def run_stream(engine, workload, n_spes=2, seed=1000):
    """The same DMA stream on each of ``n_spes`` logical SPEs, placed as
    run_spec places them; returns the chip after the run."""
    chip = CellChip(mapping=SpeMapping.random(seed, 8), engine=engine)
    for logical in range(n_spes):
        load_stream_kernel(chip, logical, workload, {})
    chip.run()
    return chip


def test_ring_utilization_reported(config):
    utilizations = []
    for chip in on_each_engine(config):
        run_transfer(chip, "SPE0", "MIC", 16384)
        utilizations.append(chip.eib.utilization())
    assert len(utilizations[0]) == 4
    assert max(utilizations[0].values()) > 0.5
    # Kernel streams: the fast run fast-forwards whole periods, and ring
    # busy time must advance with them.
    workload = DmaWorkload(direction="copy", element_bytes=16384, n_elements=128)
    reference = run_stream("reference", workload)
    fast = run_stream("fast", workload)
    assert fast.env.fastforward.windows_warped > 0
    utilizations += [reference.eib.utilization(), fast.eib.utilization()]
    assert utilizations[2] == pytest.approx({
        "cw0": 0.6572895929872693, "cw1": 0.0,
        "ccw0": 0.6546497816886093, "ccw1": 0.0007059571407062917,
    })
    assert utilizations[0] == utilizations[1]
    assert utilizations[2] == utilizations[3]


# -- the bitmask arbiter against a set-based model -----------------------------


def set_arbiter(topology, eib):
    """Ring, port and FIFO-wait rules over span sets; grant/release return
    ``(ring index, spans)`` grants, release those of woken waiters in order."""
    rings = [(d, []) for d in (CLOCKWISE, COUNTERCLOCKWISE)
             for _ in range(eib.rings_per_direction)]
    out_busy, in_busy, waiting = set(), set(), []

    def grant(src, dst):
        if src in out_busy or dst in in_busy:
            return None
        for direction in topology.directions_by_distance(src, dst):
            spans = frozenset(topology.path(src, dst, direction))
            for ri, (ring_direction, active) in enumerate(rings):
                if (ring_direction == direction and len(spans) <= eib.max_hops
                        and len(active) < eib.max_transfers_per_ring
                        and all(spans.isdisjoint(other) for other in active)):
                    active.append(spans)
                    out_busy.add(src)
                    in_busy.add(dst)
                    return ri, spans
        return None

    def release(src, dst, ri, spans):
        rings[ri][1].remove(spans)
        out_busy.discard(src)
        in_busy.discard(dst)
        woken = [(w, g) for w in list(waiting) if (g := grant(w[1], w[2]))]
        for w, _g in woken:
            waiting.remove(w)
        return woken

    return grant, release, waiting


class _Waiter:
    """A queued request that records its grant instead of resuming."""

    def __init__(self, ident, leg, woken):
        self.ident = ident
        self.leg = leg
        self.woken = woken

    def succeed(self, value):
        self.woken.append((self, value))


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        # Three acquires per release, so rings fill and requests queue.
        st.tuples(st.integers(0, 3), st.integers(0, 11), st.integers(-6, 6)),
        max_size=100,
    )
)
# Four disjoint one-hop transfers: the fourth overflows ring cw0's cap.
@example(ops=[(1, 0, 1), (1, 2, 1), (1, 4, 1), (1, 6, 1), (0, 1, 0), (1, 8, 1)])
def test_bitmask_arbiter_matches_a_set_model(ops):
    """Random acquire/release sequences over random (src, dst) pairs,
    given as a source and a signed hop count: the same requests are
    granted, on the same rings, in the same order."""
    chip = CellChip()
    eib = chip.eib
    nodes = chip.topology.order
    model_grant, model_release, model_waiting = set_arbiter(
        chip.topology, chip.config.eib
    )
    held, model_held, woken = [], [], []
    log, model_log = [], []
    for ident, (kind, a, hops) in enumerate(ops):
        if kind and hops:
            src, dst = nodes[a], nodes[(a + hops) % len(nodes)]
            leg = eib.leg(src, dst, 2048)
            choice = eib._grant(leg)
            if choice is None:
                eib._waiters.append((_Waiter(ident, leg, woken), src, dst, leg))
            else:
                held.append((ident, leg, choice[0], choice[2]))
                log.append((ident, choice[0]))
            granted = model_grant(src, dst)
            if granted is None:
                model_waiting.append((ident, src, dst))
            else:
                model_held.append((ident, src, dst, *granted))
                model_log.append((ident, granted[0]))
        elif not kind and held:
            pick = a % len(held)
            _ident, leg, ri, notmask = held.pop(pick)
            woken.clear()
            eib._release(leg, ri, notmask)
            for waiter, (ri, notmask, _latency, _penalty) in woken:
                held.append((waiter.ident, waiter.leg, ri, notmask))
                log.append((waiter.ident, ri))
            _ident, src, dst, ri, spans = model_held.pop(pick)
            for (wident, wsrc, wdst), (gri, gspans) in model_release(src, dst, ri, spans):
                model_held.append((wident, wsrc, wdst, gri, gspans))
                model_log.append((wident, gri))
        assert log == model_log
