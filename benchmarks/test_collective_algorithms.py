"""Collective-algorithm comparison on the simulated networks.

Beyond the paper: the MPICH algorithm zoo measured on the paper's
hardware models.  The interesting interaction with ch_mad is that
algorithm rankings *depend on the network* — high-latency TCP punishes
message count (favouring trees/doubling), while SCI's low latency
narrows the gap.
"""

from conftest import run_once

from repro.bench.report import format_table
from repro.cluster import MPIWorld
from repro.mpi import coll
from repro.mpi.reduce_ops import SUM
from repro.sim.coroutines import now
from tests.helpers import linear_cluster

NRANKS = 16


def _time_collective(network, body_factory, nranks=NRANKS):
    """Max over ranks of the time spent inside the collective."""
    world = MPIWorld(linear_cluster(nranks, networks=(network,)))

    def program(mpi):
        comm = mpi.comm_world
        yield from comm.barrier()
        t0 = yield now()
        yield from body_factory(comm)
        yield from comm.barrier()
        t1 = yield now()
        return t1 - t0

    return max(world.run(program)) / 1000  # us


def test_bcast_algorithms(benchmark):
    def run():
        rows = []
        for network in ("sisci", "tcp"):
            timings = {}
            for name in ("linear", "binomial"):
                algorithm = coll.get("bcast", name).fn

                def body(comm, algorithm=algorithm):
                    obj = b"\x00" if comm.rank == 0 else None
                    yield from algorithm(comm, obj, 0)
                timings[name] = _time_collective(network, body)
            rows.append((network, timings["linear"], timings["binomial"],
                         timings["linear"] / timings["binomial"]))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(
        ["network", "linear (us)", "binomial (us)", "speedup"],
        rows, title=f"bcast algorithms, {NRANKS} ranks, 1 B payload"))
    by_net = {r[0]: r for r in rows}
    # At 16 ranks the tree's log(p) critical path beats the root's
    # serialized (p-1) sends on both networks — but by network-dependent
    # margins (SCI ~1.3x, TCP ~1.2x here), which is exactly why MPICH
    # selects algorithms from per-device parameters.
    assert by_net["tcp"][3] > 1.1, "binomial must win on TCP at 16 ranks"
    assert by_net["sisci"][3] > 1.1, "binomial must win on SCI at 16 ranks"


def test_allreduce_algorithms(benchmark):
    def run():
        rows = []
        for network in ("sisci", "tcp"):
            timings = {}
            for name in ("reduce_bcast", "recursive_doubling"):
                algorithm = coll.get("allreduce", name).fn

                def body(comm, algorithm=algorithm):
                    yield from algorithm(comm, comm.rank, SUM)
                timings[name] = _time_collective(network, body)
            rows.append((network, timings["reduce_bcast"],
                         timings["recursive_doubling"],
                         timings["reduce_bcast"]
                         / timings["recursive_doubling"]))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(
        ["network", "reduce+bcast (us)", "recursive dbl (us)", "speedup"],
        rows, title=f"allreduce algorithms, {NRANKS} ranks"))
    for network, _, _, speedup in rows:
        # Recursive doubling halves the critical path (log p vs 2 log p).
        assert speedup > 1.2, f"recursive doubling must win on {network}"
