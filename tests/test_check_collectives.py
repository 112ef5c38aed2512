"""Differential collective tests under the online checker.

Every algorithm variant in the collective registry runs on each of the
three paper networks (SCI, TCP, BIP/Myrinet) and is compared against the flat
default and a pure-Python reference computed outside the simulator.
The checker is enabled for every run: an algorithm that silently
violates non-overtaking, the rendezvous handshake or the finalize leak
rules fails here even when its numeric answer happens to be right.

The registry differential section runs on a multirail SMP cluster
(2 ranks/node, 2 rails/node) so the node-aware and multi-lane families
exercise their real decompositions rather than degenerate fallbacks.
"""

import numpy as np
import pytest

from repro.cluster import MPIWorld, multirail_smp_cluster
from repro.mpi import coll
from repro.mpi.reduce_ops import MAX, MINLOC, SUM
from repro.sim.engine import install_checker
from tests.helpers import linear_cluster

allgather_bruck = coll.get("allgather", "bruck").fn
bcast_binomial = coll.get("bcast", "binomial").fn
allreduce_recursive_doubling = coll.get("allreduce", "recursive_doubling").fn

#: The flat alternatives to the default tree/reduce+bcast.
FLAT_BCASTS = ["binomial", "linear"]
FLAT_ALLREDUCES = ["recursive_doubling", "reduce_bcast"]

NETWORKS = ["sisci", "tcp", "bip"]


def run_checked(program, nranks, network):
    """Run ``program`` with the checker on; fail on any violation."""
    world = MPIWorld(linear_cluster(nranks, networks=(network,)))
    checker = install_checker(world.engine)
    results = world.run(program)
    assert checker.violations == []
    return results


def run_checked_smp(program, network, nodes=4, processes_per_node=2):
    """Checked run on the multirail SMP cluster (8 ranks, 2 rails)."""
    world = MPIWorld(multirail_smp_cluster(
        nodes=nodes, processes_per_node=processes_per_node,
        rails=2, network=network))
    checker = install_checker(world.engine)
    results = world.run(program)
    assert checker.violations == []
    return results


def canon(value):
    """ndarray/list-insensitive comparison form."""
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    return value


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("name", FLAT_BCASTS)
def test_bcast_algorithms_match_reference(name, network):
    algorithm = coll.get("bcast", name).fn
    payload = ("blob", [1, 2, 3])

    def program(mpi):
        comm = mpi.comm_world
        obj = payload if comm.rank == 2 else None
        value = yield from algorithm(comm, obj, root=2)
        return value

    assert run_checked(program, 4, network) == [payload] * 4


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("nranks", [3, 4])
@pytest.mark.parametrize("name", FLAT_ALLREDUCES)
def test_allreduce_algorithms_match_reference(name, nranks, network):
    # 3 ranks exercises recursive doubling's non-power-of-two fold.
    algorithm = coll.get("allreduce", name).fn
    contributions = [(rank + 1) * 10 for rank in range(nranks)]

    def program(mpi):
        comm = mpi.comm_world
        total = yield from algorithm(comm, contributions[comm.rank], SUM)
        peak = yield from algorithm(comm, contributions[comm.rank], MAX)
        return (total, peak)

    expected = (sum(contributions), max(contributions))
    assert run_checked(program, nranks, network) == [expected] * nranks


@pytest.mark.parametrize("network", NETWORKS)
def test_noncommutative_allreduce_falls_back_cleanly(network):
    # MINLOC on (value, rank) pairs — the classic rank-carrying reduce.
    algorithm = allreduce_recursive_doubling
    values = [5, 1, 7, 1]

    def program(mpi):
        comm = mpi.comm_world
        pair = yield from algorithm(comm, (values[comm.rank], comm.rank),
                                    MINLOC)
        return pair

    assert run_checked(program, 4, network) == [(1, 1)] * 4


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("nranks", [3, 4])
def test_bruck_allgather_matches_ring_and_reference(nranks, network):
    def program(mpi):
        comm = mpi.comm_world
        bruck = yield from allgather_bruck(comm, comm.rank * 100)
        ring = yield from comm.allgather(comm.rank * 100)
        return (list(bruck), list(ring))

    expected = [rank * 100 for rank in range(nranks)]
    for bruck, ring in run_checked(program, nranks, network):
        assert bruck == expected
        assert ring == expected


# ---------------------------------------------------------------------------
# registry differential: every registered algorithm vs the flat default
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("name", coll.names("bcast"))
def test_registered_bcast_matches_default(name, network):
    def program(mpi):
        comm = mpi.comm_world
        data = np.arange(16.0) * 3 if comm.rank == 1 else None
        got = yield from comm.bcast(data, root=1, algorithm=name)
        ref = yield from comm.bcast(data, root=1)
        return (canon(got), canon(ref))

    expected = canon(np.arange(16.0) * 3)
    for got, ref in run_checked_smp(program, network):
        assert got == ref == expected


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("name", coll.names("allreduce"))
def test_registered_allreduce_matches_default(name, network):
    def program(mpi):
        comm = mpi.comm_world
        data = np.full(8, float(comm.rank + 1))
        got = yield from comm.allreduce(data, SUM, algorithm=name)
        ref = yield from comm.allreduce(data, SUM)
        peak = yield from comm.allreduce(comm.rank * 10, MAX,
                                         algorithm=name)
        return (canon(got), canon(ref), peak)

    results = run_checked_smp(program, network)
    total = sum(range(1, 9))
    for got, ref, peak in results:
        assert got == ref == (float(total),) * 8
        assert peak == 70


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("name", coll.names("allgather"))
def test_registered_allgather_matches_default(name, network):
    def program(mpi):
        comm = mpi.comm_world
        data = np.full(6, float(comm.rank))
        got = yield from comm.allgather(data, algorithm=name)
        ref = yield from comm.allgather(data)
        return (canon(got), canon(ref))

    expected = tuple((float(r),) * 6 for r in range(8))
    for got, ref in run_checked_smp(program, network):
        assert got == ref == expected


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("name", coll.names("barrier"))
def test_registered_barrier_is_clean(name, network):
    # A barrier has no value to compare; sandwich it between allreduces
    # so stolen matches or leaked collective state would corrupt data
    # (and the checker sees the full exchange).
    def program(mpi):
        comm = mpi.comm_world
        before = yield from comm.allreduce(1, SUM)
        yield from comm.barrier(algorithm=name)
        after = yield from comm.allreduce(comm.rank, SUM)
        return (before, after)

    assert run_checked_smp(program, network) == [(8, 28)] * 8


@pytest.mark.parametrize("network", NETWORKS)
def test_collective_stack_composes_under_checker(network):
    # Chain the registry variants with the default collectives in one
    # program: cross-algorithm interference (stolen matches, leaked
    # rendezvous state) would trip the checker here.
    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        root_value = yield from bcast_binomial(
            comm, "go" if me == 0 else None, root=0)
        total = yield from allreduce_recursive_doubling(
            comm, me + 1, SUM)
        everyone = yield from allgather_bruck(comm, me)
        slices = yield from comm.alltoall(
            [f"{me}->{dest}" for dest in range(comm.size)])
        prefix = yield from comm.scan(me + 1)
        yield from comm.barrier()
        return (root_value, total, tuple(everyone), tuple(slices), prefix)

    results = run_checked(program, 4, network)
    for rank, (root_value, total, everyone, slices, prefix) in \
            enumerate(results):
        assert root_value == "go"
        assert total == 10
        assert everyone == (0, 1, 2, 3)
        assert slices == tuple(f"{src}->{rank}" for src in range(4))
        assert prefix == sum(range(1, rank + 2))
