"""The idle-poll fast-forward against its ticking oracle.

``PollingThread._idle_skip`` folds the idle ticks of a periodic (TCP)
poller into one long clock sleep.  Forcing it to skip nothing gives the
reference: a poller that wakes, pays its ``select`` and checks its
mailbox on every tick.  The fast-forward must be invisible — same
virtual time, same per-task and per-CPU CPU accounting, same poll
counters, same results.  Only ``events_executed`` may shrink.

Each world below diverges from the oracle when one of the three purity
rules of ``PollingThread._periodic_body`` is left out:

- rule A (a poll charge is a clock charge only with an empty mailbox
  and nothing ready) — the lossy 16-rank ``cfd_halo`` worlds;
- rule B (a task made ready during a clock charge pins its end) — the
  ``lossy`` and ``rma_storm`` storms;
- rule C (a post during a clock phase pins its end) — the three-node
  TCP world whose third rank only computes.
"""

import dataclasses

import pytest

from repro import workloads
from repro.cluster.config import two_node_cluster
from repro.cluster.node import ClusterConfig, NodeSpec
from repro.cluster.session import MPIWorld
from repro.faults import lossy_plan
from repro.marcel.polling import PollingThread
from repro.sim import charge
from repro.sim.cpu import Task
from repro.sim.engine import EngineConfig


def observe(monkeypatch, build, **engine_kw):
    """Run the world ``build()`` returns; what the oracle compares, plus
    the event count."""
    config, program, digest = build()
    # Default task names come from a process-wide counter; restart it so
    # both runs of a world name their tasks alike.
    monkeypatch.setattr(Task, "_counter", 0)
    world = MPIWorld(config, engine_config=EngineConfig(
        instrumentation=True, **engine_kw))
    results = world.run(program)
    engine = world.engine
    cpus = [process.runtime.cpu for process in world.session.processes]
    metrics = engine.instruments.metrics
    return {
        "now": engine.now,
        "task_cpu_time": sorted((task.name, task.cpu_time)
                                for cpu in cpus for task in cpu.tasks()),
        "busy_time": [cpu.busy_time for cpu in cpus],
        "poll.wakeups": metrics.total("poll.wakeups"),
        "poll.idle_ns": metrics.total("poll.idle_ns"),
        "digest": digest(results),
    }, engine.events_executed


@pytest.fixture
def oracle(monkeypatch):
    """``oracle(build, **engine_kw)`` runs one world with the fast-forward
    and once ticking; returns both ``(observation, events)`` pairs."""
    def compare(build, **engine_kw):
        fast = observe(monkeypatch, build, **engine_kw)
        with monkeypatch.context() as patch:
            patch.setattr(PollingThread, "_idle_skip", lambda self, pause: 0)
            ticking = observe(monkeypatch, build, **engine_kw)
        return fast, ticking
    return compare


def registered(name, seed, params=None, loss=None):
    def build():
        workload = workloads.get(name)
        config, program = workload.build(seed, **workload.resolve(params))
        if loss is not None:
            config = dataclasses.replace(
                config, fault_plan=lossy_plan(loss, seed=seed + 1))
        return config, program, workload.result_digest
    return build


def tcp_pingpong(nodes, reps, size, offset=0, compute=0):
    """Ranks 0 and 1 ping-pong over TCP after rank 0 computes ``offset``
    ns; any further rank only computes ``compute`` ns."""
    def build():
        if nodes == 2:
            config = two_node_cluster(networks=("tcp",))
        else:
            config = ClusterConfig(nodes=[NodeSpec(f"n{i}", networks=("tcp",))
                                          for i in range(nodes)])

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield charge(offset)
                for _ in range(reps):
                    yield from comm.send(b"ping", dest=1, tag=1, size=size)
                    yield from comm.recv(source=1, tag=1, size=size)
            elif comm.rank == 1:
                for _ in range(reps):
                    yield from comm.recv(source=0, tag=1, size=size)
                    yield from comm.send(b"pong", dest=0, tag=1, size=size)
            else:
                yield charge(compute)
            return comm.rank
        return config, program, repr
    return build


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lossy_cfd_halo_matches_ticking(oracle, seed):
    (fast, _), (ticking, _) = oracle(
        registered("cfd_halo", seed, {"ranks": 16, "processes_per_node": 4},
                   loss=0.01),
        checker=True)
    assert fast == ticking


@pytest.mark.parametrize("name", ["lossy", "rma_storm"])
def test_lossy_storms_match_ticking(oracle, name):
    (fast, _), (ticking, _) = oracle(registered(name, 1), checker=True)
    assert fast == ticking


@pytest.mark.parametrize("offset", [2500, 3000, 3500, 4000])
def test_tcp_bystander_matches_ticking(oracle, offset):
    (fast, _), (ticking, _) = oracle(
        tcp_pingpong(3, reps=6, size=64, offset=offset, compute=1_000_000))
    assert fast == ticking


def test_idle_tcp_pollers_skip_nine_tenths_of_events(oracle):
    # While 64 KiB messages cross TCP, both pollers sit idle.  Neither
    # may pin the other awake: the run needs at most a tenth of the
    # ticking run's events.
    (fast, fast_events), (ticking, ticking_events) = oracle(
        tcp_pingpong(2, reps=3, size=65536))
    assert fast == ticking
    assert fast_events * 10 <= ticking_events
