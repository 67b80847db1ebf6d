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
from repro.sim import BusyMonitor, Environment, Event, ProgressGuard
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
    # Reference engine: an Event; fast engine: the waiting actor.
    done: Completion | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.direction not in (READ, WRITE):
            raise ConfigError(f"direction must be read/write, got {self.direction}")
        if self.nbytes <= 0:
            raise ConfigError(f"request of {self.nbytes} bytes")


class MemoryBank:
    """A serial-service bank with turnaround, spread and duplex effects."""

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
        self._wakeup: Event | None = None
        # The requester-recency window, with the distinct count kept
        # incrementally (same semantics as a maxlen deque plus
        # len(set(...)), without the per-service set build).
        self._recent: deque[str] = deque()
        self._recent_window = config.memory.requester_window
        self._recent_counts: dict[str, int] = {}
        self._recent_distinct = 0
        self._prev_requester: str | None = None
        self._prev_direction: str | None = None
        self.bytes_served = 0
        self.commands_served = 0
        self.fault_cycles = 0
        self.monitor = BusyMonitor(env, name)
        self._faults = env.faults
        self._faulting = env.faults.enabled
        # Service-plan memos: the ceil/round arithmetic of _plan_service
        # depends only on (nbytes, duplex), the transfer length, and the
        # requester spread — all small key spaces in a streaming run.
        self._transfer_memo: dict[tuple[int, bool], int] = {}
        self._turnaround_memo: dict[int, int] = {}
        self._switch_memo: dict[tuple[int, int], int] = {}
        # Coalescing-engine table: total service cycles keyed by the
        # full decision input (nbytes, duplex, turnaround kind, spread)
        # — one lookup where _plan_service takes up to three.
        self._fast_plan: dict[tuple[int, bool, int, int], int] = {}
        self._sched_window = config.memory.scheduler_window
        if env.coalescing:
            # The coalescing engine drives the bank as a flat actor
            # (submit_fast / _fast_start / _fast_complete) instead of a
            # server generator: same pick, same plan, same heap slots.
            # _run_callbacks holds the current continuation directly
            # (same dispatch convention as FastActor).
            self._fast_current: Any = None
            self._idle = True
            self._run_callbacks = self._fast_start
        else:
            # The server legitimately waits forever between requests, so
            # it is a daemon process (exempt from the deadlock check),
            # and its unbounded loop is watched by a no-progress guard.
            env.process(self._serve(), daemon=True)

    def submit(self, request: MemoryRequest) -> Event:
        """Queue a command; the returned event fires when the bank is done."""
        if self.env.coalescing:
            raise ConfigError(
                f"bank {self.name} has no server process under the "
                "coalescing engine; use submit_fast"
            )
        if request.done is not None:
            raise ConfigError("memory request submitted twice")
        request.done = self.env.event()
        self._pending.append(request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request.done

    # -- coalescing-engine service path ---------------------------------------
    #
    # The fast engine puts the bank itself on the heap: one slot to wake
    # an idle bank (where the reference engine pops the wakeup relay and
    # picks), one slot per service interval (where it pops the service
    # timeout).  Picking, planning and completion bookkeeping are the
    # *same methods* the generator uses, so the two paths cannot drift.

    def submit_fast(self, request: Any) -> None:
        """Queue a command whose ``done`` is a fast-engine waiter.

        ``request`` is anything MemoryRequest-shaped — requester,
        nbytes, direction, done.  The fast movers submit themselves
        (they carry those attributes), which skips a per-command
        request allocation."""
        if self._idle:
            self._idle = False
            # The idle bank's wakeup relay; run it inline when nothing
            # else shares the tick (then no other submitter can slip a
            # request in front of this pick — the proven-exact
            # zero-delay coalescing of repro.sim.engine_fast).
            env = self.env
            queue = env._queue
            if queue and queue[0][0] == env.now:
                self._pending.append(request)
                # _run_callbacks is _fast_start whenever the bank idles.
                env._sequence = sequence = env._sequence + 1
                heappush(queue, (env.now, sequence, self))
            else:
                # Idle bank, empty queue: this request is the only
                # candidate — exactly what _pick would pop.
                total = self._plan_fast(request)
                self._fast_current = request
                self._run_callbacks = self._fast_complete
                env._sequence = sequence = env._sequence + 1
                heappush(queue, (env.now + total, sequence, self))
        else:
            self._pending.append(request)

    def _fast_start(self) -> None:
        # _pick and _plan_fast inlined: this method runs once per bank
        # service and the call overhead of the helpers is measurable at
        # the storm scale.  The logic is line-for-line the same.
        pending = self._pending
        prev_requester = self._prev_requester
        prev_direction = self._prev_direction
        request = pending[0]
        if (
            len(pending) == 1
            or (
                request.requester != prev_requester
                and request.direction != prev_direction
            )
        ):
            # Sole candidate, or the front already scores 0 — the scan
            # below would pick it and break on its first iteration.
            pending.popleft()
        else:
            # _pick's scan with its score (2 for the same requester, 1
            # for the same direction) branched out: the first score-0
            # candidate ends it.
            best_index = 0
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
            request = pending[best_index]
            del pending[best_index]
        # _recent_push, inlined.
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
        # _plan_fast decision + memo lookup, inlined.
        duplex = bool(prev_direction) and request.direction != prev_direction
        if requester == prev_requester:
            kind = 1
            spread = 0
        elif prev_requester is not None:
            kind = 2
            spread = self._recent_distinct
        else:
            kind = 0
            spread = 0
        key = (request.nbytes, duplex, kind, spread)
        total = self._fast_plan.get(key)
        if total is None:
            total = self._plan_fast_miss(key)
        self._fast_current = request
        self._run_callbacks = self._fast_complete
        # Occupancy monitors are a reference-engine observability
        # feature; the fast engine skips them (documented in MODEL.md).
        env = self.env
        env._sequence = sequence = env._sequence + 1
        heappush(env._queue, (env.now + total, sequence, self))

    def _fast_complete(self) -> None:
        request = self._fast_current
        self._fast_current = None
        # _finish_service, inlined (the same four assignments).
        self._prev_requester = request.requester
        self._prev_direction = request.direction
        self.bytes_served += request.nbytes
        self.commands_served += 1
        env = self.env
        queue = env._queue
        if queue and queue[0][0] == env.now:
            request.done.succeed()
            if self._pending:
                self._fast_start()
            else:
                self._idle = True
                self._run_callbacks = self._fast_start
        else:
            # Completion relay run inline: push the next service
            # interval first — its sequence number precedes every push
            # the woken requester makes, exactly as in the reference
            # server — then run the requester's continuation directly.
            if self._pending:
                self._fast_start()
            else:
                self._idle = True
                self._run_callbacks = self._fast_start
            done: Any = request.done
            done._run_callbacks()

    def _pick(self) -> Any:
        """Command reordering: within the scheduler window, prefer a
        different requester (hides the same-requester turnaround) and,
        second, the opposite direction (duplex overlap) — what a real
        memory controller's command queue does."""
        pending = self._pending
        if len(pending) == 1:
            return pending.popleft()
        window = min(len(pending), self._sched_window)
        prev_requester = self._prev_requester
        prev_direction = self._prev_direction
        best_index = 0
        best_score = 4
        # islice, not pending[index]: indexing a deque is O(index).
        for index, request in enumerate(islice(pending, window)):
            score = 0
            if request.requester == prev_requester:
                score += 2
            if request.direction == prev_direction:
                score += 1
            if score < best_score:
                best_index, best_score = index, score
                if score == 0:
                    break
        chosen = pending[best_index]
        del pending[best_index]
        return chosen

    def _recent_push(self, requester: str) -> None:
        """Advance the recency window, keeping the distinct-requester
        count incrementally — identical to appending to a maxlen deque
        and taking ``len(set(...))`` afterwards."""
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

    def _transfer_cycles(self, nbytes: int, duplex: bool) -> int:
        tkey = (nbytes, duplex)
        cached = self._transfer_memo.get(tkey)
        if cached is None:
            memcfg = self.config.memory
            cached = math.ceil(nbytes / self.peak)
            if duplex:
                # Read/write alternation overlaps part of the service.
                cached = math.ceil(cached * (1.0 - memcfg.duplex_overlap_fraction))
            self._transfer_memo[tkey] = cached
        return cached

    def _turnaround_cycles(self, transfer: int) -> int:
        cached = self._turnaround_memo.get(transfer)
        if cached is None:
            cached = round(
                self.config.memory.same_requester_turnaround_fraction * transfer
            )
            self._turnaround_memo[transfer] = cached
        return cached

    def _switch_cycles(self, transfer: int, spread: int) -> int:
        skey = (transfer, spread)
        cached = self._switch_memo.get(skey)
        if cached is None:
            memcfg = self.config.memory
            fraction = memcfg.requester_switch_fraction * (
                1.0
                + memcfg.requester_spread_factor
                * max(0, spread - memcfg.requester_spread_threshold)
            )
            cached = round(fraction * transfer)
            self._switch_memo[skey] = cached
        return cached

    def _plan_service(self, request: Any) -> tuple[int, int, str | None]:
        """(service cycles, overhead cycles, turnaround reason) for the
        next command, advancing the recency window and fault state.
        Shared by the server generator and (via :meth:`_plan_fast`'s
        identical arithmetic helpers) the fast path."""
        self._recent_push(request.requester)
        duplex = bool(self._prev_direction) and request.direction != self._prev_direction
        transfer = self._transfer_cycles(request.nbytes, duplex)
        overhead = 0
        turnaround_reason = None
        if request.requester == self._prev_requester:
            overhead = self._turnaround_cycles(transfer)
            turnaround_reason = "same-requester"
        elif self._prev_requester is not None:
            overhead = self._switch_cycles(transfer, self._recent_distinct)
            turnaround_reason = "switch"
        if self._faulting:
            # ECC scrub-and-retry: the command's data was corrupt
            # on first read and the bank re-serves it after a spike.
            retry = self._faults.bank_retry_cycles(self.name)
            if retry:
                overhead += retry
                self.fault_cycles += retry
        return transfer, overhead, turnaround_reason

    def _plan_fast(self, request: Any) -> int:
        """Total service cycles for the fast engine: the decisions and
        arithmetic of :meth:`_plan_service` collapsed into one memoised
        lookup keyed by the full decision input.  The fast engine never
        runs with faults enabled (resolve_engine), so the fault branch
        is dropped."""
        self._recent_push(request.requester)
        prev_requester = self._prev_requester
        prev_direction = self._prev_direction
        duplex = bool(prev_direction) and request.direction != prev_direction
        if request.requester == prev_requester:
            kind = 1
            spread = 0
        elif prev_requester is not None:
            kind = 2
            spread = self._recent_distinct
        else:
            kind = 0
            spread = 0
        key = (request.nbytes, duplex, kind, spread)
        total = self._fast_plan.get(key)
        if total is None:
            total = self._plan_fast_miss(key)
        return total

    def _plan_fast_miss(self, key: tuple[int, bool, int, int]) -> int:
        """Cold path of the fast-plan memo: compose the total from the
        same arithmetic helpers the reference planner uses."""
        nbytes, duplex, kind, spread = key
        transfer = self._transfer_cycles(nbytes, duplex)
        if kind == 1:
            total = transfer + self._turnaround_cycles(transfer)
        elif kind == 2:
            total = transfer + self._switch_cycles(transfer, spread)
        else:
            total = transfer
        self._fast_plan[key] = total
        return total

    def _finish_service(self, request: Any) -> None:
        """Post-service bookkeeping, shared by both engines."""
        self._prev_requester = request.requester
        self._prev_direction = request.direction
        self.bytes_served += request.nbytes
        self.commands_served += 1

    def _serve(self):
        trace = self.env.trace
        tracing = trace.enabled
        guard = ProgressGuard(self.env, f"bank {self.name}")
        while True:
            guard.tick((self.env.now, self.commands_served))
            if not self._pending:
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
            request = self._pick()
            transfer, overhead, turnaround_reason = self._plan_service(request)
            if tracing:
                trace.emit(
                    BankActivate(
                        ts=self.env.now,
                        bank=self.name,
                        requester=request.requester,
                        direction=request.direction,
                        nbytes=request.nbytes,
                        service_cycles=transfer,
                        overhead_cycles=overhead,
                    )
                )
                if overhead and turnaround_reason:
                    trace.emit(
                        BankTurnaround(
                            ts=self.env.now,
                            bank=self.name,
                            requester=request.requester,
                            cycles=overhead,
                            reason=turnaround_reason,
                        )
                    )
            self.monitor.acquire()
            yield self.env.timeout(transfer + overhead)
            self.monitor.release()
            self._finish_service(request)
            request.done.succeed()

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
