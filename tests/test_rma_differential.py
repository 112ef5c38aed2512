"""Differential tests: rendezvous-over-RDMA vs the packetized path.

The ``rdma`` toggle on :class:`ClusterConfig` selects the machinery
underneath an unchanged program — large IB messages either take the
zero-copy RDMA write path (request/ack/one RDMA write) or the classic
ch_mad packet state machine.  The contract tested here: the toggle may
change *timing and packets*, never *bytes or statuses*.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, MPIWorld, NodeSpec
from repro.faults import lossy_plan
from repro.workloads import run
from repro.sim.engine import EngineConfig

#: Sizes straddling the 16 KiB IB switch point: eager, boundary, and
#: deep rendezvous territory.
SIZES = (0, 64, 4096, 16_383, 16_384, 16_385, 60_000, 200_000)


def _ib_pair(rdma: bool, fault_plan=None) -> ClusterConfig:
    return ClusterConfig(
        nodes=[NodeSpec("n0", networks=("ib",)),
               NodeSpec("n1", networks=("ib",))],
        rdma=rdma, fault_plan=fault_plan)


def _pingpong(mpi):
    comm = mpi.comm_world
    me, peer = comm.rank, 1 - comm.rank
    out = []
    for size in SIZES:
        payload = bytes([(size + me) % 256]) * size
        if me == 0:
            yield from comm.send(payload, dest=peer, tag=7, size=size)
            data, status = yield from comm.recv(source=peer, tag=7, size=size)
        else:
            data, status = yield from comm.recv(source=peer, tag=7, size=size)
            yield from comm.send(payload, dest=peer, tag=7, size=size)
        out.append((size, data, status.source, status.tag, status.count))
    return tuple(out)


def test_rdma_vs_packetized_byte_identical():
    """Same program, both machineries: identical payloads and statuses."""
    runs = {}
    for rdma in (True, False):
        world = MPIWorld(_ib_pair(rdma),
                         engine_config=EngineConfig(checker=True))
        runs[rdma] = world.run(_pingpong)
        assert world.engine.checker.violations == []
    assert runs[True] == runs[False]
    # Sanity: payloads actually round-tripped.
    for size, data, source, _tag, count in runs[True][0]:
        assert (len(data) if data else 0) == size == count
        assert source == 1


def test_rdma_packets_replace_rndv_above_threshold():
    """RDMA on: large messages use the REQ/ACK/DATA RDMA packets and no
    MAD_RNDV_PKT body packets; RDMA off: the classic handshake."""
    seen = {}
    for rdma in (True, False):
        world = MPIWorld(_ib_pair(rdma),
                         engine_config=EngineConfig(checker=True))
        world.run(_pingpong)
        seen[rdma] = world.engine.checker.packets_seen
    rdma_big = sum(1 for s in SIZES if s > 16_384) * 2  # both directions
    # 16_384 itself is eager (threshold is "size <= threshold -> eager").
    assert seen[True]["MAD_RDMA_REQ_PKT"] == rdma_big
    assert seen[True]["MAD_RDMA_ACK_PKT"] == rdma_big
    assert seen[True]["MAD_RDMA_DATA_PKT"] == rdma_big
    assert "MAD_RNDV_PKT" not in seen[True]
    assert "MAD_REQUEST_PKT" not in seen[True]
    assert seen[False]["MAD_REQUEST_PKT"] == rdma_big
    assert seen[False]["MAD_RNDV_PKT"] >= rdma_big
    assert "MAD_RDMA_REQ_PKT" not in seen[False]
    # The eager sizes are identical either way.
    assert seen[True]["MAD_SHORT_PKT"] == seen[False]["MAD_SHORT_PKT"]


def test_rdma_rendezvous_survives_lossy_ib():
    """Drops on the IB fabric hit RDMA writes, acks and control packets;
    the RC retransmission model must make the loss invisible."""
    world = MPIWorld(
        _ib_pair(True, fault_plan=lossy_plan(0.08, fabrics=("ib",), seed=3)),
        engine_config=EngineConfig(checker=True))
    results = world.run(_pingpong)
    assert world.engine.checker.violations == []
    for rank_result in results:
        for size, data, _source, _tag, count in rank_result:
            assert (len(data) if data else 0) == size == count


@pytest.mark.parametrize("op", ["put", "get"])
def test_window_traffic_rdma_vs_packetized(op):
    """One-sided put/get round trips are byte-identical under both
    machineries (the get additionally swaps agent-reply for rdma_read)."""

    def program(mpi):
        comm = mpi.comm_world
        me, peer = comm.rank, 1 - comm.rank
        win = yield from comm.win_create(70_000)
        win.buffer[:] = (me + 1)
        yield from win.fence()
        if op == "put":
            yield from win.put(peer, 100, bytes([0xC0 + me]) * 60_000)
            yield from win.fence()
            got = bytes(win.buffer[100:60_100])
        else:
            result = yield from win.get(peer, 0, 60_000)
            yield from win.fence()
            got = result.data
        yield from win.free()
        return got

    runs = {}
    for rdma in (True, False):
        world = MPIWorld(_ib_pair(rdma),
                         engine_config=EngineConfig(checker=True))
        runs[rdma] = world.run(program)
        assert world.engine.checker.violations == []
    assert runs[True] == runs[False]
    expected = {
        "put": [bytes([0xC1]) * 60_000, bytes([0xC0]) * 60_000],
        "get": [bytes([2]) * 60_000, bytes([1]) * 60_000],
    }[op]
    assert runs[True] == expected


def test_rma_storm_same_seed_bit_deterministic():
    """Two same-seed rma_storm runs produce identical trace digests and
    identical results (the PR's bit-determinism acceptance criterion)."""
    first, second = (run("rma_storm", seed=2, fuzz_seed=11, check=True,
                         instrumentation=True) for _ in range(2))
    assert first.ok and second.ok
    assert first.trace_digest == second.trace_digest
    assert first.results == second.results
