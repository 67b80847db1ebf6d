"""Unit tests for the memory system: banks, turnaround, placement.

Each bank test runs on both engines: the reference engine's server
generator and the fast engine's bank actor drive one bank state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import CellConfig, ConfigError
from repro.cell.memory import READ, WRITE, MemoryBank, MemoryRequest, MemorySystem
from repro.core.kernels import DmaWorkload
from repro.sim import Environment, FastActor, FastEnvironment
from tests.test_cell_eib import run_stream


def on_each_engine():
    """A fresh environment per engine."""
    yield Environment()
    yield FastEnvironment()


def make_bank(env, config=None, peak=8.0):
    config = config or CellConfig.paper_blade()
    return MemoryBank(env, "test-bank", "MIC", peak, config)


class Waiter(FastActor):
    """A fast-engine waiter that records when its request completes."""

    __slots__ = ("finished_at",)

    def __init__(self, env):
        super().__init__(env)
        self.finished_at = None
        self._park(self._finished)

    def _finished(self):
        self.finished_at = self.env.now


def drive(env, bank, requests, events=False):
    """Submit every request at time 0, run, and return each request's
    completion time.  A fast environment takes actor waiters through
    ``submit_fast`` unless ``events`` asks for generator waiters on the
    returned events, as on the reference engine."""
    if env.coalescing and not events:
        for request in requests:
            request.done = Waiter(env)
            bank.submit_fast(request)
        env.run()
        return [request.done.finished_at for request in requests]
    completions = [None] * len(requests)

    def waiter(env, index, done):
        yield done
        completions[index] = env.now

    for index, request in enumerate(requests):
        env.process(waiter(env, index, bank.submit(request)))
    env.run()
    return completions


def test_single_stream_pays_turnaround():
    config = CellConfig.paper_blade()
    n, size = 16, 16384
    transfer = size / 8.0
    fraction = config.memory.same_requester_turnaround_fraction
    # All but the first command pay the same-requester turnaround.
    expected = n * transfer + (n - 1) * round(fraction * transfer)
    for env in on_each_engine():
        bank = make_bank(env, config)
        drive(env, bank, [MemoryRequest("SPE0", size, READ) for _ in range(n)])
        assert env.now == pytest.approx(expected, rel=0.02)


def test_two_interleaved_streams_hide_turnaround():
    config = CellConfig.paper_blade()
    n, size = 16, 16384
    transfer = size / 8.0
    switch = config.memory.requester_switch_fraction
    expected = n * transfer * (1 + switch)
    for env in on_each_engine():
        bank = make_bank(env, config)
        requests = [
            MemoryRequest(f"SPE{i % 2}", size, READ) for i in range(n)
        ]
        drive(env, bank, requests)
        # Far faster than the single-stream case; only the small switch cost.
        assert env.now < n * transfer * 1.2
        assert env.now == pytest.approx(expected, rel=0.1)


def test_scheduler_reorders_to_alternate_requesters():
    """Back-to-back same-requester commands get reordered when another
    requester is waiting, hiding the turnaround."""
    for env, single_stream_env in zip(on_each_engine(), on_each_engine()):
        requests = (
            [MemoryRequest("SPE0", 16384, READ) for _ in range(8)]
            + [MemoryRequest("SPE1", 16384, READ) for _ in range(8)]
        )
        drive(env, make_bank(env), requests)
        drive(
            single_stream_env,
            make_bank(single_stream_env),
            [MemoryRequest("SPE0", 16384, READ) for _ in range(16)],
        )
        assert env.now < single_stream_env.now * 0.8


def test_duplex_overlap_speeds_mixed_traffic():
    for env_mixed, env_pure in zip(on_each_engine(), on_each_engine()):
        mixed = [
            MemoryRequest("SPE0" if i % 2 else "SPE1", 16384, READ if i % 2 else WRITE)
            for i in range(16)
        ]
        drive(env_mixed, make_bank(env_mixed), mixed)
        pure = [
            MemoryRequest("SPE0" if i % 2 else "SPE1", 16384, READ) for i in range(16)
        ]
        drive(env_pure, make_bank(env_pure), pure)
        assert env_mixed.now < env_pure.now


def test_requester_spread_penalty_kicks_in():
    """Eight interleaved requesters are served less efficiently than two."""
    def run(env, n_requesters):
        requests = [
            MemoryRequest(f"SPE{i % n_requesters}", 16384, READ) for i in range(32)
        ]
        drive(env, make_bank(env), requests)
        return env.now

    for env_8, env_2 in zip(on_each_engine(), on_each_engine()):
        assert run(env_8, 8) > run(env_2, 2)


REQUESTERS = ("SPE0", "SPE1", "SPE2")


@settings(max_examples=300, deadline=None)
@given(
    queue=st.lists(
        st.tuples(st.sampled_from(REQUESTERS), st.sampled_from((READ, WRITE))),
        min_size=1,
        max_size=12,
    ),
    previous=st.one_of(
        st.just((None, None)),
        st.tuples(st.sampled_from(REQUESTERS), st.sampled_from((READ, WRITE))),
    ),
)
def test_pick_is_the_first_least_score_in_the_window(queue, previous):
    """The scheduler-window pick against its definition: the first
    candidate in the window with the least score, 2 for the previous
    requester plus 1 for the previous direction."""
    bank = make_bank(Environment())
    requests = [MemoryRequest(requester, 128, direction) for requester, direction in queue]
    bank._pending.extend(requests)
    bank._prev_requester, bank._prev_direction = previous
    window = requests[: bank._sched_window]
    scores = [
        2 * (request.requester == previous[0]) + (request.direction == previous[1])
        for request in window
    ]
    expected = window[scores.index(min(scores))]
    bank._start()
    assert bank._current is expected
    assert [id(r) for r in bank._pending] == [id(r) for r in requests if r is not expected]


def test_request_validation():
    with pytest.raises(ConfigError):
        MemoryRequest("SPE0", 128, "readwrite")
    with pytest.raises(ConfigError):
        MemoryRequest("SPE0", 0, READ)


def test_bank_statistics():
    for env in on_each_engine():
        bank = make_bank(env)
        drive(env, bank, [MemoryRequest("SPE0", 4096, READ) for _ in range(3)])
        assert bank.commands_served == 3
        assert bank.bytes_served == 3 * 4096
        assert bank.busy_time() > 0
        # Served back to back from time 0: busy for the whole run.
        assert bank.busy_time() == env.now


def mixed_requests():
    """Six requesters (past the spread threshold), both directions, two
    sizes, then a single-requester tail: the scheduler reorders, and
    switch and same-requester turnarounds both fire."""
    return [
        MemoryRequest(f"SPE{i % 6}", 4096 << (i % 2), READ if i % 4 < 2 else WRITE)
        for i in range(24)
    ] + [MemoryRequest("SPE0", 4096, READ) for _ in range(4)]


def test_engines_serve_identically():
    """Completion times and statistics agree across the engines and
    across the fast engine's two waiter kinds (actors through
    ``submit_fast``, events through ``submit``)."""
    runs = []
    for env, events in (
        (Environment(), False),
        (FastEnvironment(), False),
        (FastEnvironment(), True),
    ):
        bank = make_bank(env)
        completions = drive(env, bank, mixed_requests(), events=events)
        runs.append(
            (completions, env.now, bank.commands_served, bank.bytes_served,
             bank.busy_time())
        )
    assert runs[0][2] == 28
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize(
    "direction, busy",
    [
        ("get", [401576, 417482]),
        ("put", [401576, 417482]),
        ("copy", [821916, 870500]),
    ],
)
def test_busy_time_advances_with_fast_forward(direction, busy):
    """Bank busy time is the same occupancy on both engines, including
    across the fast engine's warped periods."""
    workload = DmaWorkload(direction=direction, element_bytes=16384, n_elements=128)
    reference = run_stream("reference", workload)
    fast = run_stream("fast", workload)
    assert fast.env.fastforward.windows_warped > 0
    assert [bank.busy_time() for bank in reference.memory.banks] == busy
    assert [bank.busy_time() for bank in fast.memory.banks] == busy


def test_bank_peak_gbps():
    env = Environment()
    config = CellConfig.paper_blade()
    bank = MemoryBank(
        env, "local", "MIC",
        config.memory.local_bank_peak_bytes_per_cpu_cycle, config,
    )
    assert bank.peak_gbps == pytest.approx(16.8)


class TestMemorySystem:
    def test_banks_are_local_and_remote(self):
        system = MemorySystem(Environment(), CellConfig.paper_blade())
        assert system.local_bank.node == "MIC"
        assert system.remote_bank.node == "IOIF0"
        assert system.local_bank.peak_gbps == pytest.approx(16.8)
        assert system.remote_bank.peak_gbps == pytest.approx(7.0)

    def test_placement_follows_local_fraction(self):
        config = CellConfig.paper_blade()
        system = MemorySystem(Environment(), config)
        picks = [system.assign_bank("SPE0") for _ in range(1000)]
        local = sum(1 for bank in picks if bank is system.local_bank)
        assert local / 1000 == pytest.approx(
            config.memory.local_placement_fraction, abs=0.01
        )

    def test_placement_is_per_requester(self):
        system = MemorySystem(Environment(), CellConfig.paper_blade())
        first_of_each = {
            requester: system.assign_bank(requester)
            for requester in ("SPE0", "SPE1", "SPE2")
        }
        # Every requester's first command lands on the preferred bank.
        assert all(bank is system.local_bank for bank in first_of_each.values())

    def test_bytes_served_aggregates(self):
        for env in on_each_engine():
            system = MemorySystem(env, CellConfig.paper_blade())

            def submitter(env):
                yield system.read("SPE0", 2048, system.local_bank)
                yield system.write("SPE0", 1024, system.remote_bank)

            env.process(submitter(env))
            env.run()
            assert system.bytes_served == 3072

    def test_describe(self):
        system = MemorySystem(Environment(), CellConfig.paper_blade())
        info = system.describe()
        assert info["local_peak_gbps"] == pytest.approx(16.8)
        assert info["remote_peak_gbps"] == pytest.approx(7.0)
