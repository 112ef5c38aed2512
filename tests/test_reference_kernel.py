"""The production event kernel against a deliberately naive one.

:class:`ReferenceEngine` keeps every pending event in one heap of
``(time, seq, callback, args, handle)`` entries and has none of the
production kernel's fast paths: no zero-delay deque, no separate clock
queue, no lazy-cancel compaction, no inline dispatch (``quiet_now`` is
always False, so every CPU dispatch is a queued event) and no idle-poll
fast-forward (``next_payload_time`` is ``now + 1``, so a periodic poller
skips no tick).  Whatever the fast paths do, each world below must end
with the same result digest, the same final virtual time and the same
``busy_time`` on every CPU under both kernels.  Only the event count
may differ.

The reference is injected by monkeypatching the ``Engine`` name the
world builders resolve, so no configuration flag exists for it.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Callable

import pytest

from repro import workloads
from repro.bench.pingpong import mpi_pingpong
from repro.check.checker import NULL_CHECKER
from repro.cluster.session import MPIWorld
from repro.errors import SimulationError
from repro.sim.engine import Engine, EngineConfig
from repro.sim.metrics import NULL_INSTRUMENTS
from repro.sim.trace import NULL_TRACER


class _Handle:
    """What ``schedule`` returns: a cancel flag."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceEngine:
    """One heap, no fast paths; the production engine's public surface."""

    def __init__(self, seed: int = 0, *,
                 config: EngineConfig | None = None) -> None:
        if config is not None:
            seed = config.seed
        self.config = config
        self._now = 0
        self._seq = 0
        self._heap: list[tuple] = []
        self.events_executed = 0
        self.tracer = NULL_TRACER
        self.instruments = NULL_INSTRUMENTS
        self.checker = NULL_CHECKER
        self.fuzz = None
        self.seed = int(seed)
        self._rngs: dict = {}
        if config is not None:
            self.apply_config(config)

    # Configuration and RNG streams are not kernel fast paths: share them.
    apply_config = Engine.apply_config
    rng = Engine.rng

    @property
    def now(self) -> int:
        return self._now

    def _push(self, time: int, callback: Callable[..., Any], args: tuple,
              handle: _Handle | None = None) -> None:
        if time < self._now:
            raise SimulationError(f"cannot schedule at t={time} < {self._now}")
        heapq.heappush(self._heap, (time, self._seq, callback, args, handle))
        self._seq += 1

    def schedule(self, delay, callback, *args):
        handle = _Handle()
        self._push(self._now + int(delay), callback, args, handle)
        return handle

    def schedule_at(self, time, callback, *args):
        handle = _Handle()
        self._push(int(time), callback, args, handle)
        return handle

    def call_soon(self, callback, *args):
        self._push(self._now, callback, args)

    def schedule_discard(self, delay, callback, *args):
        self._push(self._now + int(delay), callback, args)

    def schedule_clock(self, delay, cpu, callback, *args):
        self._push(self._now + int(delay), callback, args)

    def pin_payload(self, time):
        pass

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][4] is not None and heap[0][4].cancelled:
            heapq.heappop(heap)

    def next_event_time(self):
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def next_payload_time(self, cpu):
        return self._now + 1

    def quiet_now(self):
        return False

    def step_batch(self, limit, stop_flag=None):
        executed = 0
        while executed < limit:
            if stop_flag is not None and stop_flag[0]:
                break
            self._drop_cancelled()
            if not self._heap:
                break
            time, _, callback, args, _ = heapq.heappop(self._heap)
            self._now = time
            self.events_executed += 1
            executed += 1
            callback(*args)
        return executed

    def step(self):
        return self.step_batch(1) == 1

    def run(self, until=None, max_events=None):
        executed = 0
        while True:
            head = self.next_event_time()
            if head is None or (until is not None and head > until):
                if until is not None:
                    self._now = max(self._now, until)
                return self._now
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.step_batch(1)
            executed += 1

    def pending(self):
        return sum(1 for entry in self._heap
                   if entry[4] is None or not entry[4].cancelled)


@contextmanager
def reference_kernel():
    """Inside this block every new world runs on the reference engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.cluster.session.Engine", ReferenceEngine)
        patch.setattr("repro.madeleine.session.Engine", ReferenceEngine)
        yield


def observe(build):
    """Digest, final virtual time and per-CPU busy time of one world."""
    config, program, digest = build()
    world = MPIWorld(config, engine_config=EngineConfig())
    results = world.run(program)
    return (digest(results), world.engine.now,
            [process.runtime.cpu.busy_time
             for process in world.session.processes])


def registered(name, seed, params=None):
    def build():
        workload = workloads.get(name)
        config, program = workload.build(seed, **workload.resolve(params))
        return config, program, workload.result_digest
    return build


def compare(build):
    production = observe(build)
    with reference_kernel():
        reference = observe(build)
    assert production == reference


MICRO = [name for name in workloads.names("fuzz")
         if "macro" not in workloads.get(name).tags]


def test_micro_list_covers_the_fault_workloads():
    assert {"lossy", "rank_death"} <= set(MICRO)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", MICRO)
def test_micro_workload_matches_reference(name, seed):
    compare(registered(name, seed))


@pytest.mark.parametrize("name", ["ml_training", "cfd_halo"])
def test_macro_workload_matches_reference(name):
    compare(registered(name, 0, {"ranks": 16, "processes_per_node": 4}))


def test_table2_pingpong_point_matches_reference():
    production = mpi_pingpong(1024, networks=("tcp",))
    with reference_kernel():
        reference = mpi_pingpong(1024, networks=("tcp",))
    assert production.one_way_ns == reference.one_way_ns
    assert production.mean_one_way_ns == reference.mean_one_way_ns


def test_reference_kernel_is_really_installed():
    with reference_kernel():
        world = MPIWorld(workloads.get("pingpong").build(0)[0],
                         engine_config=EngineConfig())
    assert isinstance(world.engine, ReferenceEngine)
    world = MPIWorld(workloads.get("pingpong").build(0)[0],
                     engine_config=EngineConfig())
    assert isinstance(world.engine, Engine)
