"""The Element Interconnect Bus: four data rings plus per-element ports.

Modelled behaviour, each piece tied to a paper observation:

* Two rings per direction, at most three concurrent transfers per ring
  with non-overlapping spans, at most six hops — transfers that cannot
  coexist wait on the data arbiter.  This is the "physical location may
  introduce EIB conflicts" mechanism behind Figures 12/13/15/16.
* Every element has one on-ramp and one off-ramp moving 16 B per bus
  cycle.  Two flows sharing a port halve; this is what pins the cycle-of-
  two-SPEs experiment at 33.6 GB/s instead of 67.2.
* The IOIF ramps carry only 7 GB/s (the second chip's memory bank).
* A transfer holds its path for a *grant quantum* of data, then
  re-arbitrates; each grant pays a fixed arbitration cost, so a single
  flow sustains a few percent under the 16.8 GB/s ring rate ("almost
  achieves the peak bandwidth").
* Each hop adds a small pipeline latency, giving the small (<2 GB/s)
  distance dependence of Figure 10's experiment.

Both engines drive one arbitration state through the same four
functions — :meth:`Eib._grant`, :meth:`Eib._release`, :meth:`Eib._drain`
and :meth:`Eib._contending` — so every arbitration decision is written
once.  :meth:`Eib.transfer` is the reference driver (a generator, with
the trace and fault branches); the fast engine's movers in
:mod:`repro.cell.mfc` are the other.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Generator
from typing import Any

from repro.cell.config import CellConfig
from repro.cell.errors import ConfigError
from repro.cell.topology import CLOCKWISE, COUNTERCLOCKWISE, RingTopology
from repro.sim import Environment, Event
from repro.sim.trace import EibGrant, EibRelease, EibTransfer, EibWait

#: Extra CPU cycles of pipeline latency per hop travelled.
HOP_LATENCY_CYCLES = 2

#: Endpoints whose transfers pay no re-arbitration penalty: the MIC and
#: IOIF controllers keep streaming across grant boundaries (deep
#: controller queues).
MEMORY_SIDE = frozenset(("MIC", "IOIF0", "IOIF1"))


class Eib:
    """The bus: arbitration, routing, port accounting and statistics.

    The arbitration state is bitmasks: span ``i`` and the node at ring
    index ``i`` own bit ``i``, so span disjointness is one AND per
    candidate ring and a busy-port probe one AND per side.  A transfer is described by its
    *leg* (:meth:`leg`), a tuple memoised per (src, dst, nbytes)::

        (choices, srcbit, ~srcbit, dstbit, ~dstbit, holds, memory_side)

    ``choices`` lists ``(ring index, span mask, ~span mask, hop
    latency)`` per candidate path, nearest direction first; ``holds``
    is the per-chunk hold (arbitration + data cycles) of the
    grant-quantum chunk schedule.
    """

    def __init__(
        self,
        env: Environment,
        topology: RingTopology,
        config: CellConfig,
    ):
        self.env = env
        self.topology = topology
        self.config = config
        names: list[str] = []
        directions: list[int] = []
        for direction, label in ((CLOCKWISE, "cw"), (COUNTERCLOCKWISE, "ccw")):
            for i in range(config.eib.rings_per_direction):
                names.append(f"{label}{i}")
                directions.append(direction)
        self.ring_names = tuple(names)
        self._ring_directions = tuple(directions)
        # Per ring: spans held, transfers active, and busy time (cycles
        # of closed busy stretches plus the open stretch's start).
        self._occ = [0] * len(names)
        self._nact = [0] * len(names)
        self._busy_cycles = [0] * len(names)
        self._busy_since = [0] * len(names)
        self._started = env.now
        self._max_transfers = config.eib.max_transfers_per_ring
        self._retry = config.eib.conflict_retry_cycles
        # Busy out-ramps and in-ramps, one bit per node.
        self._out_ports = 0
        self._in_ports = 0
        # Queued requests in FIFO order, each (waiter, src, dst, leg); the
        # waiter is a reference Event or a fast-engine actor.
        self._waiters: deque[tuple] = deque()
        self._legs: dict[tuple[str, str, int], tuple] = {}
        self._contend_memo: dict[tuple, int] = {}
        # Statistics the analysis layer reads.
        self.grants = 0
        self.conflicts = 0
        self.wait_cycles = 0
        self.bytes_moved = 0
        self._trace = env.trace
        self._tracing = env.trace.enabled
        self._faults = env.faults
        self._faulting = env.faults.enabled
        self.fault_cycles = 0

    # -- public API --------------------------------------------------------------

    def transfer(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Event, Any, None]:
        """Move ``nbytes`` from ``src`` to ``dst``; a process sub-generator
        (use ``yield from``).  Returns once the last byte has landed."""
        if src == dst:
            raise ConfigError(f"EIB transfer from {src!r} to itself")
        if nbytes <= 0:
            raise ConfigError(f"EIB transfer of {nbytes} bytes")
        leg = self.leg(src, dst, nbytes)
        quantum = self.config.eib.grant_quantum_bytes
        remaining = nbytes
        for hold in leg[5]:
            self.grants += 1
            choice = self._grant(leg)
            if choice is not None:
                ri, _mask, notmask, latency = choice
                penalty = 0
                if self._tracing:
                    self._trace_grant(src, dst, ri, immediate=True)
            else:
                self.conflicts += 1
                waiting = self.env.event()
                self._waiters.append((waiting, src, dst, leg))
                started = self.env.now
                ri, notmask, latency, penalty = yield waiting
                waited = self.env.now - started
                self.wait_cycles += waited
                if self._tracing:
                    self._trace.emit(
                        EibWait(ts=self.env.now, src=src, dst=dst, cycles=waited)
                    )
            committed_at = self.env.now
            duration = penalty + latency + hold
            if self._faulting:
                # Ring-segment degradation / grant starvation: the
                # committed path carries dead cycles before data moves.
                degraded = self._faults.eib_penalty_cycles(src, dst)
                if degraded:
                    duration += degraded
                    self.fault_cycles += degraded
            yield self.env.timeout(duration)
            chunk = min(remaining, quantum)
            remaining -= chunk
            if self._tracing:
                self._trace.emit(
                    EibRelease(
                        ts=self.env.now,
                        src=src,
                        dst=dst,
                        ring=self.ring_names[ri],
                        nbytes=chunk,
                        start=committed_at,
                    )
                )
            self._release(leg, ri, notmask)
        self.bytes_moved += nbytes
        if self._tracing:
            self._trace.emit(
                EibTransfer(ts=self.env.now, src=src, dst=dst, nbytes=nbytes)
            )

    def leg(self, src: str, dst: str, nbytes: int) -> tuple:
        """The leg record of a transfer (see the class docstring),
        memoised: candidates, masks and chunk holds are pure topology and
        configuration; only occupancy changes over time."""
        key = (src, dst, nbytes)
        leg = self._legs.get(key)
        if leg is not None:
            return leg
        eib = self.config.eib
        choices = []
        for direction in self.topology.directions_by_distance(src, dst):
            spans = self.topology.path(src, dst, direction)
            if len(spans) > eib.max_hops:
                continue
            mask = sum(1 << span for span in spans)
            latency = len(spans) * HOP_LATENCY_CYCLES
            for ri, ring_direction in enumerate(self._ring_directions):
                if ring_direction == direction:
                    choices.append((ri, mask, ~mask, latency))
        rate = min(
            self.config.node_rate_bytes_per_cpu_cycle(src),
            self.config.node_rate_bytes_per_cpu_cycle(dst),
        )
        holds = []
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, eib.grant_quantum_bytes)
            holds.append(eib.arbitration_cycles + math.ceil(chunk / rate))
            remaining -= chunk
        srcbit = 1 << self.topology.index(src)
        dstbit = 1 << self.topology.index(dst)
        leg = (
            tuple(choices),
            srcbit,
            ~srcbit,
            dstbit,
            ~dstbit,
            tuple(holds),
            src in MEMORY_SIDE or dst in MEMORY_SIDE,
        )
        self._legs[key] = leg
        return leg

    def utilization(self) -> dict[str, float]:
        """Busy fraction of each ring over the run so far."""
        now = self.env.now
        elapsed = now - self._started
        result = {}
        for ri, name in enumerate(self.ring_names):
            busy = self._busy_cycles[ri]
            if self._nact[ri]:
                busy += now - self._busy_since[ri]
            result[name] = busy / elapsed if elapsed > 0 else 0.0
        return result

    @property
    def conflict_fraction(self) -> float:
        """Fraction of grants that had to wait for a path."""
        if self.grants == 0:
            return 0.0
        return self.conflicts / self.grants

    # -- arbitration --------------------------------------------------------------

    def _grant(self, leg: tuple) -> tuple | None:
        """Commit the first free candidate path of ``leg`` — both ports
        idle, a ring with a free slot and no span overlap — and return
        its choice tuple, or None when nothing fits."""
        srcbit = leg[1]
        dstbit = leg[3]
        if self._out_ports & srcbit or self._in_ports & dstbit:
            return None
        occ = self._occ
        nact = self._nact
        for choice in leg[0]:
            ri = choice[0]
            active = nact[ri]
            if active < self._max_transfers and not occ[ri] & choice[1]:
                occ[ri] |= choice[1]
                if not active:
                    self._busy_since[ri] = self.env.now
                nact[ri] = active + 1
                self._out_ports |= srcbit
                self._in_ports |= dstbit
                return choice
        return None

    def _release(self, leg: tuple, ri: int, notmask: int) -> None:
        """Free a granted path, then grant queued requests that now fit."""
        self._occ[ri] &= notmask
        active = self._nact[ri] - 1
        self._nact[ri] = active
        if not active:
            self._busy_cycles[ri] += self.env.now - self._busy_since[ri]
        self._out_ports &= leg[2]
        self._in_ports &= leg[4]
        if self._waiters:
            self._drain()

    def _drain(self) -> None:
        """Grant every queued request that now fits, in FIFO order.

        Grants are committed here, before the waiters resume, so two
        releases in the same cycle cannot double-book a path.  Each
        granted waiter gets ``(ring index, ~span mask, hop latency,
        penalty)`` through ``succeed``."""
        waiters = self._waiters
        grant = self._grant
        granted: list[tuple] | None = None
        # _grant's port probe, hoisted: most queued requests wait on a
        # busy ramp, and the probe is cheaper than the call.
        out_ports = self._out_ports
        in_ports = self._in_ports
        for waiter in waiters:
            leg = waiter[3]
            if out_ports & leg[1] or in_ports & leg[3]:
                continue
            choice = grant(leg)
            if choice is not None:
                out_ports = self._out_ports
                in_ports = self._in_ports
                if granted is None:
                    granted = []
                granted.append((waiter, choice))
        if granted is None:
            return
        for waiter, _choice in granted:
            waiters.remove(waiter)
        for (waiter, src, dst, leg), choice in granted:
            ri = choice[0]
            if leg[6]:
                penalty = 0
            else:
                penalty = self._retry * self._contending(
                    src, dst, self._ring_directions[ri]
                )
            if self._tracing:
                self._trace_grant(src, dst, ri, immediate=False)
            waiter.succeed((ri, choice[2], choice[3], penalty))

    def _contending(self, gsrc: str, gdst: str, direction: int) -> int:
        """Distinct other flows still waiting that a grant of (gsrc,
        gdst) in ``direction`` is holding up: same source ramp, same
        destination ramp, or a span overlap in that direction.  A flow's
        own pipelined commands do not count — the BIU presents one bus
        request per flow.  The per-flow-pair verdict is pure topology,
        so it is memoised."""
        flows = {
            (src, dst)
            for _waiter, src, dst, _leg in self._waiters
            if (src, dst) != (gsrc, gdst)
        }
        count = 0
        memo = self._contend_memo
        for src, dst in flows:
            key = (gsrc, gdst, direction, src, dst)
            verdict = memo.get(key)
            if verdict is None:
                topology = self.topology
                verdict = int(
                    src == gsrc
                    or dst == gdst
                    or (
                        direction in topology.directions_by_distance(src, dst)
                        and not set(topology.path(gsrc, gdst, direction)).isdisjoint(
                            topology.path(src, dst, direction)
                        )
                    )
                )
                memo[key] = verdict
            count += verdict
        return count

    def _trace_grant(self, src: str, dst: str, ri: int, immediate: bool) -> None:
        self._trace.emit(
            EibGrant(
                ts=self.env.now,
                src=src,
                dst=dst,
                ring=self.ring_names[ri],
                spans=tuple(
                    self.topology.path(src, dst, self._ring_directions[ri])
                ),
                immediate=immediate,
            )
        )
