"""Steady-state fast-forward for the coalescing engine.

A bandwidth-limited DMA train settles into a periodic regime: after the
warm-up transient, the chip cycles through the same configuration of
in-flight commands, bank queues and ring grants over and over, shifted
in time (Treibig & Hager's piecewise-occupancy picture of streaming
loops).  Simulating such a regime event by event re-derives the same
schedule N times.  This module detects the regime *structurally* and
advances the simulation by whole periods in one step.

Exactness argument
------------------

The simulation state splits into three parts:

1. **Structural state** — everything the model's decisions read: the
   heap (as *relative* times, pop order, and the full behavioural state
   of every scheduled actor), bank queues and recency windows, EIB ring
   occupancy and waiter lists (with waiter ages), MFC slot and tag
   accounting, kernel continuations.  The DES transition function is a
   pure function of this state: two runs in identical structural states
   evolve identically, step for step, forever (the engine has no other
   inputs — no randomness, no wall clock).
2. **Monotone counters** — statistics (bytes served, grants, issued
   element counts) that the model never branches on.  Between two
   occurrences of the same structural state they advance by a fixed
   delta per period.
3. **Placement accumulators** — the one piece of *float* state
   (:meth:`repro.cell.memory.MemorySystem.assign_bank`'s Bresenham
   page-placement accumulator).  Its decision sequence is periodic, but
   the float values themselves drift by ~1 ulp per cycle (0.7 is not a
   binary fraction) and never recur exactly, so it cannot be part of
   the fingerprint.  Instead the warp *replays the accumulator's own
   update rule* — the identical float operations the engine would have
   executed — one period at a time, and verifies that each period's
   local/remote decision pattern equals the observed one.  The floats
   are therefore bit-exact by construction, and any pattern deviation
   (reachable only after ~1e12 periods of drift) cancels the warp at
   that period boundary.

When the structural fingerprint at one anchor equals the fingerprint
at an earlier anchor, one full period ``P = now - prev_now`` has passed
and the counter deltas ``D`` of that period are known.  Advancing by
``N`` periods is then exact: :meth:`repro.sim.core.Environment.warp`
shifts ``now`` and every heap entry uniformly (pairwise comparisons and
the pop order are invariant), counters advance by ``N * D``, absolute
time stamps carried by model state (the MFC memory-path pacer, EIB
wait-start and ring busy-start stamps, bank busy-start stamps) shift
with the clock, and the accumulators are rolled forward with
verification as above.

Conservative bail-out
---------------------

``N`` is capped so no kernel crosses a control-flow boundary inside the
warped window: an ``elem``-mode kernel must stay strictly below its
element count (``N <= (n - 1 - issued) // d``), a ``list``-mode kernel
must keep ``remaining > batch`` so its chunk size stays constant
(``N <= (n - issued - chunk - 1) // d``; the chunk is the batch until
the short last list).  A kernel that is unfinished but made no progress
over the period refuses the warp entirely.  Any
structure the fingerprint does not fully describe — an unknown heap
item type, a non-integer actor value, parked (fault-dropped) commands,
fence/barrier waiters, outstanding tags outside the streaming pair —
disables fast-forward for the run, as does exhausting the capture
budget without finding a recurrence (the regime is aperiodic or the
transient too long; the run completes normally, just without warps).

Capture cost
------------

A full fingerprint describes every actor in flight, so each anchor
first takes a *coarse key* — heap times relative to ``now``, the EIB
arbitration state and the bank queue lengths, a projection of the
fingerprint.  Equal fingerprints have equal coarse keys, so an anchor
whose coarse key is new cannot be a recurrence and skips the full
capture.  The price is one period: the first full capture of a
periodic regime happens at its first coarse recurrence, and the warp
at the next one.  An aperiodic run (the 8-SPE DMA storm) never repeats
a coarse key and pays no full capture at all.
"""

from __future__ import annotations

from typing import Any

#: Anchor firings ignored before the first capture: the warm-up
#: transient never recurs, so fingerprinting it is pure cost.
WARMUP_ANCHORS = 8

#: Fewest consecutive *misses* (coarse or full) allowed before
#: fast-forward gives up, regardless of state size.  A hit resets the
#: counter.
CAPTURE_MIN = 12

#: Total capture-work allowance: the per-run miss budget is
#: ``max(CAPTURE_MIN, CAPTURE_TOTAL // n_kernels)``.  A capture walks
#: the whole structural state, so its cost scales with the kernel
#: count; dividing a fixed work allowance keeps the tax an aperiodic
#: run ever pays roughly constant — the 8-SPE DMA storm gives up after
#: 12 misses, while a single-kernel stream (whose regime settles only
#: after the bank round-robin cycle, ~60 anchors in) affords 96.
CAPTURE_TOTAL = 96


class FastForwardDisabled(Exception):
    """Internal signal: the state contains something the fingerprint
    cannot prove periodic; fall back to plain simulation."""


class FastForward:
    """Periodic-regime detector and warp engine for one environment.

    Created lazily by :class:`repro.sim.engine_fast.FastEnvironment`
    on the first anchor; :meth:`attempt` runs between heap pops, never
    inside a callback, so it always sees a consistent state.
    """

    def __init__(self, env: Any):
        self.env = env
        self.enabled = True
        # Stats surfaced through EngineReport / the benchmarks.
        self.windows_warped = 0
        self.cycles_warped = 0
        self.events_elided = 0
        self.captures = 0
        self._skip = WARMUP_ANCHORS
        self._dry = 0
        self._budget = CAPTURE_MIN
        # fingerprint -> (now, counters, events_popped, acc snapshot)
        self._entries: dict[Any, tuple[int, tuple, int, tuple]] = {}
        self._coarse_seen: set[tuple] = set()
        self._wired = False
        self.kernels: list[Any] = []
        self.mfcs: list[Any] = []
        self.banks: list[Any] = []
        self.eib: Any = None
        self.memory: Any = None
        self._requesters: list[str] = []
        # The actor types the fingerprint knows how to describe.  Name
        # dispatch (not isinstance) keeps this module free of imports
        # from repro.cell / repro.core and therefore cycle-free.
        self._describers = {
            "FastStreamKernel": self._describe_kernel,
            "FastDmaCommand": self._describe_command,
            "FastDmaList": self._describe_list,
            "_FastListBurst": self._describe_burst,
            "MemoryBank": self._describe_bank,
        }

    # -- wiring ----------------------------------------------------------------

    def _wire(self) -> None:
        """Discover the chip from the registered kernels (the
        environment does not hold the chip; the kernels do)."""
        kernels = self.env._fast_kernels
        if not kernels:
            raise FastForwardDisabled("no registered kernels")
        self.kernels = list(kernels)
        mfcs: dict[str, Any] = {}
        for kernel in kernels:
            mfcs[kernel.mfc.node] = kernel.mfc
        self.mfcs = [mfcs[node] for node in sorted(mfcs)]
        first = self.mfcs[0]
        self.eib = first._fast_eib
        self.memory = first._fast_memory
        self.banks = list(self.memory.banks)
        self._requesters = sorted(mfcs)
        self._budget = max(CAPTURE_MIN, CAPTURE_TOTAL // len(self.kernels))
        self._wired = True

    # -- the attempt entry point ----------------------------------------------

    def _disable(self) -> None:
        self.enabled = False
        self.env._ff_on = False

    def _miss(self) -> None:
        """Count an anchor without a recurrence.  Past the budget there
        is none within the detectable horizon — the regime is aperiodic
        (or its period exceeds the budget) — so stop paying the capture
        tax."""
        self._dry += 1
        if self._dry >= self._budget:
            self._disable()

    def attempt(self) -> None:
        """Capture a fingerprint at an anchor; warp when it recurs."""
        if not self.enabled:
            return
        if self._skip:
            self._skip -= 1
            return
        self.captures += 1
        try:
            if not self._wired:
                self._wire()
            # A full capture only where the coarse key has been seen
            # before: equal fingerprints have equal coarse keys, so the
            # first sighting of a coarse key cannot be a recurrence.
            coarse = self._coarse()
            if coarse not in self._coarse_seen:
                self._coarse_seen.add(coarse)
                self._miss()
                return
            fingerprint = self._fingerprint()
            env = self.env
            counters = self._counters()
            accs = self._acc_snapshot()
            # One lookup that also stores a miss: hashing the fingerprint
            # is a sizeable share of a full capture.
            fresh = (env.now, counters, env.events_popped, accs)
            entry = self._entries.setdefault(fingerprint, fresh)
            if entry is fresh:
                self._miss()
                return
            self._dry = 0
            prev_now, prev_counters, prev_popped, prev_accs = entry
            period = env.now - prev_now
            if period <= 0:
                return
            deltas = tuple(c - p for c, p in zip(counters, prev_counters))
            n = self._margin(deltas)
            if n < 1:
                # Steady state confirmed but no runway left: slide the
                # window so a later (shorter) regime can still match.
                self._entries[fingerprint] = (
                    env.now, counters, env.events_popped, accs
                )
                return
            n, rolled = self._roll_accumulators(n, prev_accs, accs, deltas)
            if n < 1:
                self._entries[fingerprint] = (
                    env.now, counters, env.events_popped, accs
                )
                return
            self._apply(n, period, counters, deltas,
                        env.events_popped - prev_popped, rolled)
            # The post-warp state matches this fingerprint again (that
            # is the definition of the warp); refresh the entry so one
            # more naturally-simulated period can extend the warp if
            # margins allow another round.
            self._entries[fingerprint] = (
                env.now,
                self._counters(),
                env.events_popped,
                self._acc_snapshot(),
            )
        except FastForwardDisabled:
            self._disable()

    # -- fingerprint -----------------------------------------------------------

    def _describe(self, obj: Any) -> tuple:
        """Behavioural descriptor of one actor/model object: every field
        its future transitions read, with absolute times made relative.
        Raises FastForwardDisabled on anything unknown."""
        describe = self._describers.get(type(obj).__name__)
        if describe is None:
            raise FastForwardDisabled(f"unknown heap item {type(obj).__name__}")
        return describe(obj)

    @staticmethod
    def _checked_value(obj: Any) -> Any:
        value = obj._value
        if value is not None and not isinstance(value, (int, tuple)):
            raise FastForwardDisabled(f"non-integral actor value {value!r}")
        return value

    def _describe_kernel(self, obj: Any) -> tuple:
        # _since_sync is behavioural only under a sync cadence (kernels
        # branch on it solely when _sync_every is set); on a sync-free
        # kernel it grows monotonically and would block every
        # recurrence, so there it is a plain counter (advanced linearly
        # by the warp, never fingerprinted).  _list stands for the issue
        # cost and sync cadence that _warmed switches with it.
        return (
            "K",
            obj.spe.node,
            obj._run_callbacks.__name__,
            obj.finished,
            obj._pend_tag,
            None if obj._sync_every is None else obj._since_sync,
            obj._list,
            obj._chunk,
            obj._warm_i,
            obj._after_issue.__name__,
            obj._after_sync.__name__,
            self._checked_value(obj),
        )

    def _describe_command(self, obj: Any) -> tuple:
        # Enum members are keyed by name: their hash is a Python-level
        # call, and the fingerprint is hashed on every full capture.
        cont_name = obj._run_callbacks.__name__
        bank = getattr(obj, "_mv_bank", None)
        return (
            "C",
            obj.mfc.node,
            cont_name,
            obj.tag,
            obj._mv_direction._name_,
            obj._mv_target._name_,
            obj._mv_remote,
            obj.nbytes,
            getattr(obj, "direction", None),
            None if bank is None else bank.name,
            self._eib_fields(obj, cont_name),
            self._checked_value(obj),
        )

    def _describe_burst(self, obj: Any) -> tuple:
        cont_name = obj._run_callbacks.__name__
        direction = getattr(obj, "_mv_direction", None)
        target = getattr(obj, "_mv_target", None)
        bank = getattr(obj, "_mv_bank", None)
        return (
            "B",
            obj.mfc.node,
            cont_name,
            obj.nbytes,
            None if direction is None else direction._name_,
            None if target is None else target._name_,
            getattr(obj, "_mv_remote", None),
            getattr(obj, "direction", None),
            None if bank is None else bank.name,
            self._eib_fields(obj, cont_name),
            self._describe_list(obj.dma_list),
            self._checked_value(obj),
        )

    def _describe_list(self, obj: Any) -> tuple:
        return (
            "L",
            obj.mfc.node,
            obj._run_callbacks.__name__,
            obj.tag,
            obj.direction._name_,
            obj.target._name_,
            obj.remote_node,
            obj._burst_i,
            getattr(obj, "_cur_nbytes", None),
            obj._outstanding_bursts,
            obj._window.count,
            len(obj._window.queue),
            obj._all_issued,
            self._checked_value(obj),
        )

    @staticmethod
    def _describe_bank(obj: Any) -> tuple:
        # The request being served and the queue are captured in the
        # bank section; the heap entry only carries which continuation
        # fires.
        return ("BK", obj.name, obj._run_callbacks.__name__)

    def _eib_fields(self, obj: Any, cont_name: str) -> tuple:
        """The EIB-leg sub-state of a mover: src/dst/size pin the leg
        memo, the chunk index and chosen ring pin the position in it,
        and a waiter's age is made relative (its wait_cycles accrual
        reads ``now - started`` at grant time)."""
        src = getattr(obj, "_eib_src", None)
        if src is None:
            return ()
        age = None
        if cont_name == "_eib_granted":
            age = self.env.now - obj._eib_wait_started
        return (
            src,
            obj._eib_dst,
            obj._eib_after.__name__,
            getattr(obj, "_eib_i", None),
            getattr(obj, "_eib_ri", None),
            age,
        )

    def _coarse(self) -> tuple:
        """A cheap projection of :meth:`_fingerprint`: heap times
        relative to now, the EIB arbitration state and the bank queue
        lengths."""
        now = self.env.now
        eib = self.eib
        return (
            tuple(sorted([time - now for time, _seq, _item in self.env._queue])),
            tuple(eib._occ),
            tuple(eib._nact),
            eib._out_ports,
            eib._in_ports,
            len(eib._waiters),
            tuple([len(bank._pending) for bank in self.banks]),
        )

    def _fingerprint(self) -> tuple:
        env = self.env
        now = env.now
        describe = self._describe
        heap = tuple(
            (time - now, describe(item))
            # Sequence numbers are unique, so the sort never compares items.
            for time, _seq, item in sorted(env._queue)
        )
        eib = self.eib
        eib_state = (
            tuple(eib._occ),
            tuple(eib._nact),
            eib._out_ports,
            eib._in_ports,
            tuple(
                (self._describe(actor), src, dst)
                for actor, src, dst, _leg in eib._waiters
            ),
        )
        banks = tuple(
            (
                bank.name,
                bank._idle,
                bank._prev_requester,
                bank._prev_direction,
                tuple(bank._recent),
                None if bank._current is None else describe(bank._current),
                tuple(map(describe, bank._pending)),
            )
            for bank in self.banks
        )
        mfc_states = []
        for mfc in self.mfcs:
            if mfc._order_waiters or mfc._parked:
                raise FastForwardDisabled("ordering/parked commands present")
            outstanding = mfc._outstanding
            for tag, count in outstanding.items():
                if count and tag not in (0, 1):
                    raise FastForwardDisabled(f"unexpected tag group {tag}")
            slots = mfc._fast_slots
            mfc_states.append(
                (
                    mfc.node,
                    slots.count,
                    tuple(map(describe, slots.queue)),
                    outstanding[0],
                    outstanding[1],
                    max(mfc._memory_path_free_at - now, 0),
                    tuple(
                        (self._describe(w), tags)
                        for w, tags in mfc._tag_waiters
                    ),
                )
            )
        kernels = tuple(map(describe, self.kernels))
        return (heap, eib_state, banks, tuple(mfc_states), kernels)

    # -- counters --------------------------------------------------------------

    def _counters(self) -> tuple:
        # A kernel still in its warm-up phase has issued nothing yet; it
        # reads as 0 progress, which _margin turns into a refusal.
        vals: list[int] = [k._issued for k in self.kernels]
        # _since_sync advances linearly between recurrences: +d per
        # period on a sync-free kernel, +0 on a synced one (there it is
        # also in the fingerprint, so recurrence pins its value).
        vals += (k._since_sync for k in self.kernels)
        for mfc in self.mfcs:
            vals += (
                mfc._total_enqueued,
                mfc._total_completed,
                mfc._tag_enqueued[0],
                mfc._tag_enqueued[1],
                mfc._tag_completed[0],
                mfc._tag_completed[1],
                mfc.commands_completed,
                mfc.bytes_transferred,
            )
        eib = self.eib
        vals += (eib.grants, eib.conflicts, eib.wait_cycles, eib.bytes_moved)
        # Ring busy time including the open stretch: it advances by a
        # fixed delta per period whatever the stretch's age, so the age
        # stays out of the fingerprint (a ring busy across every anchor
        # would otherwise never recur).
        now = self.env.now
        vals += (
            busy + (now - since if active else 0)
            for busy, since, active in zip(
                eib._busy_cycles, eib._busy_since, eib._nact
            )
        )
        # Bank busy time, the same way (busy_time() includes the open
        # service).
        for bank in self.banks:
            vals += (bank.bytes_served, bank.commands_served, bank.busy_time())
        calls = self.memory._placement_calls
        vals += (calls.get(r, 0) for r in self._requesters)
        return tuple(vals)

    def _apply_counters(self, vals: tuple) -> None:
        it = iter(vals)
        for k in self.kernels:
            k._issued = next(it)
        for k in self.kernels:
            k._since_sync = next(it)
        for mfc in self.mfcs:
            mfc._total_enqueued = next(it)
            mfc._total_completed = next(it)
            mfc._tag_enqueued[0] = next(it)
            mfc._tag_enqueued[1] = next(it)
            mfc._tag_completed[0] = next(it)
            mfc._tag_completed[1] = next(it)
            mfc.commands_completed = next(it)
            mfc.bytes_transferred = next(it)
        eib = self.eib
        eib.grants = next(it)
        eib.conflicts = next(it)
        eib.wait_cycles = next(it)
        eib.bytes_moved = next(it)
        # Back from busy time to closed stretches: the open stretch's
        # start was shifted with the clock, so its age is unchanged.
        now = self.env.now
        eib._busy_cycles = [
            next(it) - (now - since if active else 0)
            for since, active in zip(eib._busy_since, eib._nact)
        ]
        for bank in self.banks:
            bank.bytes_served = next(it)
            bank.commands_served = next(it)
            bank.busy_cycles = next(it) - (
                now - bank._busy_since if bank._current is not None else 0
            )
        calls = self.memory._placement_calls
        for r in self._requesters:
            calls[r] = next(it)

    def _placement_base(self) -> int:
        """Index of the first placement call count in :meth:`_counters`."""
        return (
            2 * len(self.kernels)
            + 8 * len(self.mfcs)
            + 4
            + len(self.eib._busy_cycles)
            + 3 * len(self.banks)
        )

    # -- margins ---------------------------------------------------------------

    def _margin(self, deltas: tuple) -> int:
        """Most periods that can be warped without any kernel crossing
        a control-flow boundary (see module docstring), or 0."""
        margin: int | None = None
        for index, kernel in enumerate(self.kernels):
            d = deltas[index]
            if kernel.finished:
                if d:
                    return 0
                continue
            if d <= 0:
                # Unfinished but not progressing per period: its wakeup
                # is aperiodic relative to this anchor — refuse.
                return 0
            issued = kernel._issued
            n = kernel._n
            if kernel._list:
                # The chunk is the batch until the short last list,
                # which leaves no room in either case.
                room = (n - issued - kernel._chunk - 1) // d
            else:
                room = (n - 1 - issued) // d
            if room <= 0:
                return 0
            margin = room if margin is None else min(margin, room)
        return 0 if margin is None else margin

    # -- placement accumulators -----------------------------------------------

    def _acc_snapshot(self) -> tuple:
        accs = self.memory._placement_accumulator
        fraction = self.memory._placement_fraction
        start = 1.0 - fraction
        return tuple(accs.get(r, start) for r in self._requesters)

    @staticmethod
    def _roll(acc: float, steps: int, fraction: float) -> tuple[float, int]:
        """Replay ``steps`` iterations of assign_bank's accumulator
        update — the identical float operations, so the end value is
        bit-exact — returning (end value, decision bit pattern)."""
        pattern = 0
        for _ in range(steps):
            acc = acc + fraction
            if acc >= 1.0 - 1e-12:
                acc -= 1.0
                pattern = (pattern << 1) | 1
            else:
                pattern <<= 1
        return acc, pattern

    def _roll_accumulators(
        self, n: int, prev_accs: tuple, accs: tuple, deltas: tuple
    ) -> tuple[int, list[float]]:
        """Verify and advance the placement accumulators across up to
        ``n`` periods.  Returns (periods provably identical, the rolled
        accumulator values at that horizon)."""
        fraction = self.memory._placement_fraction
        steps = deltas[self._placement_base():]
        # The observed period's decision pattern per requester, replayed
        # from the previous snapshot; landing exactly on the current
        # value cross-checks the per-requester call counting.
        patterns: list[int] = []
        for prev, cur, k in zip(prev_accs, accs, steps):
            if k < 0:
                raise FastForwardDisabled("placement call count went backward")
            end, pattern = self._roll(prev, k, fraction)
            if end != cur:
                raise FastForwardDisabled("accumulator replay mismatch")
            patterns.append(pattern)
        rolled = list(accs)
        roll = self._roll
        for j in range(n):
            nxt = []
            for i, k in enumerate(steps):
                end, pattern = roll(rolled[i], k, fraction)
                if pattern != patterns[i]:
                    # Ulp drift finally moved a decision across the
                    # epsilon: the regime ends here.  Warp only the
                    # fully-verified periods.
                    return j, rolled
                nxt.append(end)
            rolled = nxt
        return n, rolled

    # -- the warp --------------------------------------------------------------

    def _apply(
        self,
        n: int,
        period: int,
        counters: tuple,
        deltas: tuple,
        pops_per_period: int,
        rolled: list[float],
    ) -> None:
        env = self.env
        shift = n * period
        before = env.now
        env.warp(shift)
        # Absolute-time stamps carried by model state move with the
        # clock.  A pacer already in the past stays stale (only
        # ``free_at > now`` is ever read).
        for mfc in self.mfcs:
            if mfc._memory_path_free_at > before:
                mfc._memory_path_free_at += shift
        eib = self.eib
        for ri, active in enumerate(eib._nact):
            if active:
                eib._busy_since[ri] += shift
        for bank in self.banks:
            if bank._current is not None:
                bank._busy_since += shift
        for actor, _src, _dst, _leg in eib._waiters:
            actor._eib_wait_started += shift
        for _time, _seq, item in env._queue:
            cont = getattr(item, "_run_callbacks", None)
            if getattr(cont, "__name__", None) == "_eib_granted":
                item._eib_wait_started += shift
        self._apply_counters(
            tuple(c + n * d for c, d in zip(counters, deltas))
        )
        accs = self.memory._placement_accumulator
        for r, value, k in zip(
            self._requesters, rolled, deltas[self._placement_base():]
        ):
            if k:
                accs[r] = value
        self.windows_warped += 1
        self.cycles_warped += shift
        self.events_elided += n * pops_per_period

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "windows_warped": self.windows_warped,
            "cycles_warped": self.cycles_warped,
            "events_elided": self.events_elided,
            "captures": self.captures,
        }
