"""Determinism: a simulation is a pure function of its configuration.

The paper's measurements are reproducible runs on fixed hardware; the
simulator must be bit-for-bit repeatable so calibration and benchmarks
are stable.  These tests run the same workloads twice and require
identical traces, times and results.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.pingpong import mpi_pingpong
from repro.bench.raw_madeleine import raw_madeleine_pingpong
from repro.cluster import ClusterConfig, MPIWorld, NodeSpec, two_node_cluster
from repro.faults import lossy_plan
from repro.sim import CPU, Engine, charge, sleep, yield_cpu
from repro.sim.engine import install_instrumentation


def test_engine_replay_is_identical():
    def run():
        engine = Engine()
        order = []
        for delay in (30, 10, 10, 50, 0, 20):
            engine.schedule(delay, lambda d=delay: order.append((engine.now, d)))
        engine.run()
        return order

    assert run() == run()


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 3)),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_cpu_schedule_replay_property(spec):
    """Any mix of charges/sleeps/yields across tasks replays identically."""
    def run():
        engine = Engine()
        cpu = CPU(engine, switch_cost=17)
        trace = []

        def worker(label, steps):
            for duration, kind in steps:
                if kind == 0:
                    yield charge(duration)
                elif kind == 1:
                    yield sleep(duration)
                else:
                    yield yield_cpu()
                trace.append((label, engine.now))

        half = len(spec) // 2
        cpu.spawn(worker("a", spec[:half]))
        cpu.spawn(worker("b", spec[half:]))
        engine.run()
        return trace, engine.now, engine.events_executed

    assert run() == run()


def test_mpi_world_replay_is_identical():
    def run():
        world = MPIWorld(two_node_cluster(networks=("sisci", "tcp")))
        outputs = []

        def program(mpi):
            comm = mpi.comm_world
            value = yield from comm.allreduce(comm.rank + 1)
            data, status = yield from comm.sendrecv(
                comm.rank, dest=1 - comm.rank, sendtag=1,
                source=1 - comm.rank, recvtag=1)
            outputs.append((mpi.rank, value, data, mpi.process.engine.now))
            return value

        world.run(program)
        return outputs, world.engine.now, world.engine.events_executed

    assert run() == run()


def test_engine_rng_streams_are_seeded_and_namespaced():
    a, b = Engine(seed=5), Engine(seed=5)
    assert [a.rng("x").random() for _ in range(10)] == \
           [b.rng("x").random() for _ in range(10)]
    # Same engine, different namespaces: independent streams.
    c = Engine(seed=5)
    assert c.rng("x").random() != c.rng("y").random()
    # Different seeds diverge.
    assert Engine(seed=5).rng("x").random() != Engine(seed=6).rng("x").random()
    # The namespace returns the *same* generator on every call.
    d = Engine()
    assert d.rng("x") is d.rng("x")


def test_faulty_run_replays_identically():
    """Fault injection must not break the purity contract: same plan +
    same seed => identical traces, metrics and virtual time."""
    def run():
        nodes = [NodeSpec(f"n{i}", networks=("tcp", "sisci"))
                 for i in range(2)]
        world = MPIWorld(ClusterConfig(nodes=nodes,
                                       fault_plan=lossy_plan(0.08, seed=11)))
        ins = install_instrumentation(world.engine)

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                for i in range(12):
                    yield from comm.send(i, dest=1, tag=0, size=12_000)
                return None
            out = []
            for _ in range(12):
                data, _ = yield from comm.recv(source=0, tag=0)
                out.append(data)
            return out

        results = world.run(program)
        records = [(r.time, r.category, tuple(sorted(r.fields.items())))
                   for r in ins.tracer.records]
        metrics = {name: ins.metrics.total(name)
                   for name in ("faults.dropped", "transport.retransmits",
                                "transport.acks", "transport.duplicates")}
        return results, records, metrics, world.engine.now

    first, second = run(), run()
    assert first[0] == second[0]       # MPI-level results
    assert first[2] == second[2]       # fault/transport metrics
    assert first[3] == second[3]       # virtual completion time
    assert first[1] == second[1]       # full trace, bit for bit
    assert first[2]["faults.dropped"] > 0  # the plan actually fired


def test_pingpong_measurements_are_stable():
    a = mpi_pingpong(1024, networks=("sisci",), reps=3)
    b = mpi_pingpong(1024, networks=("sisci",), reps=3)
    assert a.one_way_ns == b.one_way_ns
    assert a.mean_one_way_ns == b.mean_one_way_ns


def test_raw_madeleine_measurements_are_stable():
    a = raw_madeleine_pingpong("bip", 4096)
    b = raw_madeleine_pingpong("bip", 4096)
    assert a.one_way_ns == b.one_way_ns


# ---------------------------------------------------------------------------
# Golden digests.
#
# The values below were captured *before* the simulator hot-path overhaul
# (idle-poll fast-forward, inline dispatch, event pooling) and pin the
# observable behaviour bit-for-bit: any scheduling optimization must leave
# virtual time, traces, per-task cpu_time and every metric untouched.
# ``Engine.events_executed`` is deliberately NOT pinned — it is a
# diagnostic, and the fast-forward legitimately shrinks it.
#
# If one of these fails, the change is NOT a refactor: it altered the
# simulated machine.  Do not re-capture the constants to make it pass
# unless the model itself intentionally changed (and say so in DESIGN.md).
# ---------------------------------------------------------------------------

GOLDEN_PINGPONG = {
    # (networks, size) -> (one_way_ns, mean_one_way_ns) with reps=3
    ("tcp", 0): (132281, 132281.0),
    ("tcp", 1024): (256816, 256816.0),
    ("tcp", 65536): (6567760, 6570760.0),
    ("sisci", 0): (12884, 12884.0),
    ("sisci", 1024): (39297, 39297.0),
    ("sisci", 65536): (902972, 902972.0),
    ("bip", 0): (15508, 15508.0),
    ("bip", 1024): (47174, 47174.0),
    ("bip", 65536): (646472, 646472.0),
}

GOLDEN_MULTIPROTOCOL = {
    # SCI traffic with an idle periodic TCP poller on the same CPUs —
    # the exact workload the idle-poll fast-forward targets (reps=5).
    4: (21013, 23338.1),
    16384: (272783, 274097.7),
}


def test_golden_pingpong_latencies():
    for (net, size), (one_way, mean) in GOLDEN_PINGPONG.items():
        result = mpi_pingpong(size, networks=(net,), reps=3)
        assert result.one_way_ns == one_way, (net, size)
        assert result.mean_one_way_ns == mean, (net, size)


def test_golden_multiprotocol_interference_latencies():
    for size, (one_way, mean) in GOLDEN_MULTIPROTOCOL.items():
        result = mpi_pingpong(size, networks=("sisci", "tcp"),
                              active_network="sisci", reps=5)
        assert result.one_way_ns == one_way, size
        assert result.mean_one_way_ns == mean, size


def test_golden_ch_p4_and_raw_madeleine():
    result = mpi_pingpong(1024, device="ch_p4", reps=3)
    assert (result.one_way_ns, result.mean_one_way_ns) == (267576, 267576.0)
    assert raw_madeleine_pingpong("tcp", 4096).one_way_ns == 509502
    assert raw_madeleine_pingpong("bip", 4096).one_way_ns == 55786


def test_golden_ch_p4_rendezvous():
    # 128 KB is above ch_p4's 64 KB eager threshold: the request / ack /
    # data rendezvous (and its per-byte stall) carries the message.
    result = mpi_pingpong(131072, device="ch_p4", reps=2)
    assert (result.one_way_ns, result.mean_one_way_ns) == \
        (13685588, 13685588.0)


def test_golden_world_trace_cpu_time_and_poll_counters():
    """Full-fidelity pin: trace stream, per-task cpu_time, poll metrics.

    The poll counters prove the fast-forward's arithmetic bookkeeping is
    exact: skipped ticks must contribute to ``poll.wakeups`` /
    ``poll.idle_ns`` and to the poller's ``cpu_time`` precisely as if
    each tick had executed.
    """
    import hashlib

    world = MPIWorld(two_node_cluster(networks=("sisci", "tcp")))
    ins = install_instrumentation(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        value = yield from comm.allreduce(comm.rank + 1)
        data, _status = yield from comm.sendrecv(
            comm.rank, dest=1 - comm.rank, sendtag=1,
            source=1 - comm.rank, recvtag=1)
        return (value, data)

    results = world.run(program)
    assert results == [(3, 1), (3, 0)]
    assert world.engine.now == 111790

    digest = hashlib.sha256()
    for rec in ins.tracer.records:
        digest.update(repr((rec.time, rec.category,
                            tuple(sorted(rec.fields.items())))).encode())
    assert digest.hexdigest() == (
        "5463763048fc11475378b89c85d89f28191798a3f278a6f33b6c806ee0c73119")

    cpu_times = {}
    for env in world.envs:
        for task in env.process.runtime.cpu.tasks():
            cpu_times[task.name] = task.cpu_time
    assert cpu_times == {
        "node0.p0.isend#4": 8436,
        "node0.p0.poll.sisci@0#1": 18428,
        "node0.p0.poll.tcp@0#2": 24000,
        "node0.p0.rank0.main#3": 8436,
        "node1.p0.isend#4": 8436,
        "node1.p0.poll.sisci@1#1": 18428,
        "node1.p0.poll.tcp@1#2": 30000,
        "node1.p0.rank1.main#3": 8436,
    }
    assert ins.metrics.total("poll.wakeups") == 13
    assert ins.metrics.total("poll.idle_ns") == 129000


def test_golden_faulty_run_with_timer_cancellations():
    """Pin a lossy run: retransmit timers exercise event cancellation."""
    import hashlib

    nodes = [NodeSpec(f"n{i}", networks=("tcp", "sisci")) for i in range(2)]
    world = MPIWorld(ClusterConfig(nodes=nodes,
                                   fault_plan=lossy_plan(0.08, seed=11)))
    ins = install_instrumentation(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            for i in range(12):
                yield from comm.send(i, dest=1, tag=0, size=12_000)
            return None
        received = []
        for _ in range(12):
            data, _ = yield from comm.recv(source=0, tag=0)
            received.append(data)
        return received

    results = world.run(program)
    assert results == [None, list(range(12))]
    assert world.engine.now == 2639226

    digest = hashlib.sha256()
    for rec in ins.tracer.records:
        digest.update(repr((rec.time, rec.category,
                            tuple(sorted(rec.fields.items())))).encode())
    assert digest.hexdigest() == (
        "6bc5ab934b659bb75693704226b6f16954bbb761ce92f137b84fed3bec7975fd")
    assert {n: ins.metrics.total(n) for n in
            ("faults.dropped", "transport.retransmits",
             "transport.acks", "transport.duplicates")} == {
        "faults.dropped": 3,
        "transport.retransmits": 3,
        "transport.acks": 36,
        "transport.duplicates": 2,
    }
