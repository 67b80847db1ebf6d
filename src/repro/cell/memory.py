"""The blade's memory system: MIC-attached XDR bank + IOIF-attached bank.

The paper's machine is one CBE of a dual-Cell blade booted with
``maxcpus=2``: only chip 0 runs code, but both 256 MB banks are mapped,
so DMA traffic reaches the local bank through the MIC (16.8 GB/s peak)
and the second chip's bank through the IOIF (7 GB/s).  The experiments
show three effects this module models explicitly:

* *Single-stream turnaround*: one SPE streaming against a bank sustains
  only ~60% of its peak ("memory having to do other operations, like
  refreshing, snooping, etc.").  After serving a command the bank stays
  unavailable to the *same* requester for a fraction of the command's
  transfer time; a second requester's commands slot into those gaps.
* *Requester spread*: beyond ~4 concurrent requesters the switch cost
  between requesters grows (command-queue and row-buffer thrash), which
  is the 8-SPE drop of Figure 8.
* *Duplex overlap*: alternating reads and writes overlap a fraction of
  the service time, letting GET+PUT (copy) reach ~23 GB/s where pure GET
  or PUT stop at ~21.

Bank assignment follows NUMA page placement: a fixed fraction of each
buffer's 64 KB pages sits on the local bank, the rest behind the IOIF.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from itertools import islice
from typing import Any

from repro.cell.config import CellConfig
from repro.cell.errors import ConfigError
from repro.sim import Environment, Event, ProgressGuard
from repro.sim.core import Completion
from repro.sim.trace import BankActivate, BankTurnaround

#: Direction labels for bank accounting.
READ = "read"
WRITE = "write"


@dataclass
class MemoryRequest:
    """One bank command: who, how much, which direction."""

    requester: str
    nbytes: int
    direction: str
    # An Event (submit) or a fast-engine waiter (submit_fast).
    done: Completion | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.direction not in (READ, WRITE):
            raise ConfigError(f"direction must be read/write, got {self.direction}")
        if self.nbytes <= 0:
            raise ConfigError(f"request of {self.nbytes} bytes")


class MemoryBank:
    """A serial-service bank with turnaround, spread and duplex effects.

    One state and two transitions serve both engines: :meth:`_start`
    picks the next command and plans its service, :meth:`_complete`
    books it.  The reference engine drives them from the :meth:`_serve`
    generator (which adds the fault and trace branches); the coalescing
    engine puts the bank itself on the heap (:meth:`_fast_start` /
    :meth:`_fast_complete`), occupying the same slots.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        node: str,
        peak_bytes_per_cpu_cycle: float,
        config: CellConfig,
    ):
        if peak_bytes_per_cpu_cycle <= 0:
            raise ConfigError(f"bank {name} has non-positive peak")
        self.env = env
        self.name = name
        self.node = node
        self.peak = peak_bytes_per_cpu_cycle
        self.config = config
        self._pending: deque[Any] = deque()
        self._sched_window = config.memory.scheduler_window
        # The requester-recency window, with the distinct count kept
        # incrementally (same semantics as a maxlen deque plus
        # len(set(...)), without the per-service set build).
        self._recent: deque[str] = deque()
        self._recent_window = config.memory.requester_window
        self._recent_counts: dict[str, int] = {}
        self._recent_distinct = 0
        self._prev_requester: str | None = None
        self._prev_direction: str | None = None
        # The command in service (None between services) and the plan
        # key of the latest service, which the trace decomposes.
        self._current: Any = None
        self._plan_key: tuple[int, bool, int, int] | None = None
        # Service cycles keyed by the full decision input (nbytes,
        # duplex, turnaround kind, spread) — small key spaces in a
        # streaming run.
        self._plan: dict[tuple[int, bool, int, int], int] = {}
        self.bytes_served = 0
        self.commands_served = 0
        self.fault_cycles = 0
        # Busy time: cycles of finished services plus the start of the
        # one in service.
        self.busy_cycles = 0
        self._busy_since = 0
        self._faults = env.faults
        self._faulting = env.faults.enabled
        # What the idle reference server waits on; the coalescing engine
        # has none (the bank takes the wakeup slot itself).
        self._wakeup: Event | None = None
        if env.coalescing:
            # The coalescing engine drives the bank as a flat actor:
            # _run_callbacks holds the current continuation directly
            # (same dispatch convention as FastActor).
            self._idle = True
            self._run_callbacks = self._fast_start
        else:
            # The server legitimately waits forever between requests, so
            # it is a daemon process (exempt from the deadlock check),
            # and its unbounded loop is watched by a no-progress guard.
            self._idle = False
            env.process(self._serve(), daemon=True)

    def submit(self, request: MemoryRequest) -> Event:
        """Queue a command; the returned event fires when the bank is done."""
        if request.done is not None:
            raise ConfigError("memory request submitted twice")
        env = self.env
        request.done = env.event()
        self._pending.append(request)
        if self._idle:
            self._idle = False
            if self._wakeup is None:
                # Coalescing engine: the bank takes the wakeup slot.
                env._sequence = sequence = env._sequence + 1
                heappush(env._queue, (env.now, sequence, self))
            else:
                self._wakeup.succeed()
        return request.done

    def busy_time(self) -> int:
        """Cycles the bank has spent serving commands so far."""
        busy = self.busy_cycles
        if self._current is not None:
            busy += self.env.now - self._busy_since
        return busy

    # -- the two transitions ---------------------------------------------------

    def _start(self) -> int:
        """Pick the next command, advance the recency window and return
        the command's service cycles.

        Command reordering: within the scheduler window, prefer a
        different requester (hides the same-requester turnaround) and,
        second, the opposite direction (duplex overlap) — what a real
        memory controller's command queue does.  Scores: 2 for the same
        requester plus 1 for the same direction; the first least score
        wins, so a score-0 candidate ends the scan.
        """
        pending = self._pending
        prev_requester = self._prev_requester
        prev_direction = self._prev_direction
        best_index = 0
        # islice, not pending[index]: indexing a deque is O(index).
        if len(pending) > 1:
            front = pending[0]
            if front.requester == prev_requester:
                best_score = 4
                index = 0
                for candidate in islice(pending, self._sched_window):
                    if candidate.requester == prev_requester:
                        score = 3 if candidate.direction == prev_direction else 2
                    elif candidate.direction == prev_direction:
                        score = 1
                    else:
                        best_index = index
                        break
                    if score < best_score:
                        best_index = index
                        best_score = score
                    index += 1
            elif front.direction == prev_direction:
                # The front scores 1: only a score-0 candidate beats it.
                index = 1
                for candidate in islice(pending, 1, self._sched_window):
                    if (
                        candidate.direction != prev_direction
                        and candidate.requester != prev_requester
                    ):
                        best_index = index
                        break
                    index += 1
        if best_index:
            request = pending[best_index]
            del pending[best_index]
        else:
            request = pending.popleft()
        requester = request.requester
        recent = self._recent
        counts = self._recent_counts
        if len(recent) == self._recent_window:
            evicted = recent.popleft()
            left = counts[evicted] - 1
            if left:
                counts[evicted] = left
            else:
                del counts[evicted]
                self._recent_distinct -= 1
        recent.append(requester)
        if requester in counts:
            counts[requester] += 1
        else:
            counts[requester] = 1
            self._recent_distinct += 1
        # Turnaround kind: 1 same requester, 2 a switch (priced by the
        # requester spread), 0 the bank's first command.
        duplex = prev_direction is not None and request.direction != prev_direction
        if requester == prev_requester:
            key = (request.nbytes, duplex, 1, 0)
        elif prev_requester is not None:
            key = (request.nbytes, duplex, 2, self._recent_distinct)
        else:
            key = (request.nbytes, duplex, 0, 0)
        cycles = self._plan.get(key)
        if cycles is None:
            transfer, overhead = self._service_parts(key)
            cycles = self._plan[key] = transfer + overhead
        self._current = request
        self._plan_key = key
        self._busy_since = self.env.now
        return cycles

    def _complete(self) -> Any:
        """Book the command in service and return it."""
        request = self._current
        self._current = None
        self._prev_requester = request.requester
        self._prev_direction = request.direction
        self.bytes_served += request.nbytes
        self.commands_served += 1
        self.busy_cycles += self.env.now - self._busy_since
        return request

    def _service_parts(self, key: tuple[int, bool, int, int]) -> tuple[int, int]:
        """(transfer cycles, turnaround cycles) of a plan key."""
        nbytes, duplex, kind, spread = key
        memcfg = self.config.memory
        transfer = math.ceil(nbytes / self.peak)
        if duplex:
            # Read/write alternation overlaps part of the service.
            transfer = math.ceil(transfer * (1.0 - memcfg.duplex_overlap_fraction))
        if kind == 1:
            fraction = memcfg.same_requester_turnaround_fraction
        elif kind == 2:
            fraction = memcfg.requester_switch_fraction * (
                1.0
                + memcfg.requester_spread_factor
                * max(0, spread - memcfg.requester_spread_threshold)
            )
        else:
            return transfer, 0
        return transfer, round(fraction * transfer)

    # -- reference driver ------------------------------------------------------

    def _serve(self):
        env = self.env
        trace = env.trace
        tracing = trace.enabled
        guard = ProgressGuard(env, f"bank {self.name}")
        while True:
            guard.tick((env.now, self.commands_served))
            if not self._pending:
                self._idle = True
                self._wakeup = env.event()
                yield self._wakeup
            cycles = self._start()
            if self._faulting:
                # ECC scrub-and-retry: the command's data was corrupt
                # on first read and the bank re-serves it after a spike.
                retry = self._faults.bank_retry_cycles(self.name)
                if retry:
                    cycles += retry
                    self.fault_cycles += retry
            if tracing:
                request = self._current
                kind = self._plan_key[2]
                transfer = self._service_parts(self._plan_key)[0]
                overhead = cycles - transfer
                trace.emit(
                    BankActivate(
                        ts=env.now,
                        bank=self.name,
                        requester=request.requester,
                        direction=request.direction,
                        nbytes=request.nbytes,
                        service_cycles=transfer,
                        overhead_cycles=overhead,
                    )
                )
                if overhead and kind:
                    trace.emit(
                        BankTurnaround(
                            ts=env.now,
                            bank=self.name,
                            requester=request.requester,
                            cycles=overhead,
                            reason="same-requester" if kind == 1 else "switch",
                        )
                    )
            yield env.timeout(cycles)
            self._complete().done.succeed()

    # -- coalescing-engine driver ----------------------------------------------
    #
    # The bank on the heap: one slot to wake an idle bank (where the
    # reference engine pops the wakeup event), one slot per service
    # interval (where it pops the service timeout).  Only the slot
    # handling is this driver's own.

    def submit_fast(self, request: Any) -> None:
        """Queue a command whose ``done`` is a fast-engine waiter.

        ``request`` is anything MemoryRequest-shaped — requester,
        nbytes, direction, done.  The fast movers submit themselves
        (they carry those attributes, with ``done`` the mover), which
        skips a per-command request allocation."""
        self._pending.append(request)
        if self._idle:
            self._idle = False
            env = self.env
            queue = env._queue
            if queue and queue[0][0] == env.now:
                env._sequence = sequence = env._sequence + 1
                heappush(queue, (env.now, sequence, self))
            else:
                # The wakeup relay run inline: nothing else shares the
                # tick, so no other submitter can slip a request in
                # front of this pick (the proven-exact zero-delay
                # coalescing of repro.sim.engine_fast).
                self._fast_start()

    def _fast_start(self) -> None:
        cycles = self._start()
        self._run_callbacks = self._fast_complete
        env = self.env
        env._sequence = sequence = env._sequence + 1
        heappush(env._queue, (env.now + cycles, sequence, self))

    def _fast_complete(self) -> None:
        request = self._complete()
        done = request.done
        env = self.env
        queue = env._queue
        # The completion relay may run inline only for a self-submitting
        # actor with nothing else at this tick: push the next service
        # interval first — its sequence number precedes every push the
        # woken requester makes, exactly as in the reference server —
        # then run the requester's continuation directly.  Events (and
        # other waiters) are woken in the reference order: succeed, then
        # the next service.
        inline = done is request and not (queue and queue[0][0] == env.now)
        if not inline:
            done.succeed()
        if self._pending:
            # _fast_start without the frame: _run_callbacks already is
            # _fast_complete.
            cycles = self._start()
            env._sequence = sequence = env._sequence + 1
            heappush(queue, (env.now + cycles, sequence, self))
        else:
            self._idle = True
            self._run_callbacks = self._fast_start
        if inline:
            done._run_callbacks()

    @property
    def peak_gbps(self) -> float:
        return self.peak * self.config.clock.cpu_hz / 1e9


class MemorySystem:
    """Both banks plus the NUMA placement that routes commands to them."""

    def __init__(self, env: Environment, config: CellConfig):
        self.env = env
        self.config = config
        self.local_bank = MemoryBank(
            env,
            name="XDR-local",
            node="MIC",
            peak_bytes_per_cpu_cycle=config.memory.local_bank_peak_bytes_per_cpu_cycle,
            config=config,
        )
        self.remote_bank = MemoryBank(
            env,
            name="XDR-remote",
            node="IOIF0",
            peak_bytes_per_cpu_cycle=config.memory.remote_bank_peak_bytes_per_cpu_cycle,
            config=config,
        )
        # Weighted round-robin (Bresenham) state per requester, standing
        # in for which 64 KB page of its buffer a command touches.
        self._placement_accumulator: dict[str, float] = {}
        self._placement_fraction = config.memory.local_placement_fraction
        # Placement decisions taken per requester — the fast-forward
        # engine replays exactly this many accumulator updates per
        # warped period (repro.sim.fastforward).
        self._placement_calls: dict[str, int] = {}

    @property
    def banks(self) -> tuple["MemoryBank", "MemoryBank"]:
        return (self.local_bank, self.remote_bank)

    def assign_bank(self, requester: str) -> MemoryBank:
        """Bank holding the page the requester's next command touches."""
        fraction = self._placement_fraction
        self._placement_calls[requester] = (
            self._placement_calls.get(requester, 0) + 1
        )
        # Start so the first page lands locally (Linux first-touch).
        acc = self._placement_accumulator.get(requester, 1.0 - fraction) + fraction
        if acc >= 1.0 - 1e-12:
            acc -= 1.0
            bank = self.local_bank
        else:
            bank = self.remote_bank
        self._placement_accumulator[requester] = acc
        return bank

    def read(self, requester: str, nbytes: int, bank: MemoryBank) -> Event:
        return bank.submit(MemoryRequest(requester, nbytes, READ))

    def write(self, requester: str, nbytes: int, bank: MemoryBank) -> Event:
        return bank.submit(MemoryRequest(requester, nbytes, WRITE))

    @property
    def bytes_served(self) -> int:
        return sum(bank.bytes_served for bank in self.banks)

    def describe(self) -> dict[str, float]:
        return {
            "local_peak_gbps": self.local_bank.peak_gbps,
            "remote_peak_gbps": self.remote_bank.peak_gbps,
            "local_fraction": self.config.memory.local_placement_fraction,
        }
