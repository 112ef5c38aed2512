"""Tests for intercommunicators (create, p2p, merge)."""

import pytest

from repro.errors import MPICommError, MPIRankError
from repro.mpi.constants import UNDEFINED
from repro.mpi.intercomm import Intercommunicator, create_intercomm
from repro.mpi.reduce_ops import SUM
from tests.helpers import run_ranks


def split_and_join(mpi, nsplit):
    """Split world into two halves and build the intercommunicator."""
    comm = mpi.comm_world
    color = 0 if comm.rank < nsplit else 1
    local = yield from comm.split(color)
    local_leader = 0
    remote_leader = 0 if color == 1 else nsplit
    inter = yield from create_intercomm(local, local_leader, comm,
                                        remote_leader)
    return local, inter, color


class TestCreate:
    def test_groups_and_sizes(self):
        def program(mpi):
            local, inter, color = yield from split_and_join(mpi, 2)
            return (color, inter.rank, inter.size, inter.remote_size,
                    inter.is_inter)

        results = run_ranks(program, nranks=5)
        assert results[0] == (0, 0, 2, 3, True)
        assert results[1] == (0, 1, 2, 3, True)
        assert results[2] == (1, 0, 3, 2, True)
        assert results[4] == (1, 2, 3, 2, True)

    def test_context_agreed_across_sides(self):
        def program(mpi):
            # Skew one side's context counter before the handshake.
            comm = mpi.comm_world
            if comm.rank < 2:
                sub = yield from comm.split(0 if comm.rank < 2 else 1)
            else:
                sub = yield from comm.split(1)
            if comm.rank >= 2:
                extra = yield from sub.dup()   # burns a context on side B
            inter = yield from create_intercomm(sub, 0, comm,
                                                2 if comm.rank < 2 else 0)
            return inter.context_id

        results = run_ranks(program, nranks=4)
        assert len(set(results)) == 1, "all sides must share one context"

    def test_overlapping_groups_rejected(self):
        from repro.mpi.group import Group

        def program(mpi):
            comm = mpi.comm_world
            with pytest.raises(MPICommError, match="overlap"):
                Intercommunicator(mpi, comm.group, Group([0]), 99, comm)
            yield from comm.barrier()

        run_ranks(program)


class TestIntercommP2P:
    def test_ranks_address_remote_group(self):
        def program(mpi):
            local, inter, color = yield from split_and_join(mpi, 2)
            # Local rank 0 of side A talks to local rank 0 of side B.
            if inter.rank == 0:
                yield from inter.send(f"from-side-{color}", dest=0, tag=1)
                data, status = yield from inter.recv(source=0, tag=1)
                return (data, status.source)
            return None

        results = run_ranks(program, nranks=4)
        assert results[0] == ("from-side-1", 0)
        assert results[2] == ("from-side-0", 0)

    def test_rank_range_checked_against_remote(self):
        def program(mpi):
            local, inter, color = yield from split_and_join(mpi, 3)
            # Side A (3 ranks) faces side B (1 rank): dest 2 is invalid
            # for side A's sends even though side A itself has rank 2.
            if color == 0 and inter.rank == 0:
                with pytest.raises(MPIRankError):
                    yield from inter.send("x", dest=2)
            yield from mpi.comm_world.barrier()
            return None

        run_ranks(program, nranks=4)

    def test_collectives_rejected(self):
        def program(mpi):
            local, inter, _ = yield from split_and_join(mpi, 2)
            with pytest.raises(MPICommError, match="merge"):
                yield from inter.barrier()
            yield from mpi.comm_world.barrier()
            return None

        run_ranks(program, nranks=4)

    def test_split_type_rejected(self):
        # split_type derives node-local groups from the local group's
        # world ranks; an intercommunicator's point-to-point ranks name
        # the remote group, so it refuses like its other collectives.
        def program(mpi):
            local, inter, _ = yield from split_and_join(mpi, 2)
            with pytest.raises(MPICommError, match="merge"):
                yield from inter.split_type()
            yield from mpi.comm_world.barrier()
            return None

        run_ranks(program, nranks=4)


class TestMerge:
    def test_merge_produces_working_intracomm(self):
        def program(mpi):
            local, inter, color = yield from split_and_join(mpi, 2)
            merged = yield from inter.merge(high=(color == 1))
            total = yield from merged.allreduce(1, op=SUM)
            return (merged.rank, merged.size, total)

        results = run_ranks(program, nranks=4)
        assert [r[0] for r in results] == [0, 1, 2, 3]
        assert all(r[1] == 4 and r[2] == 4 for r in results)

    def test_merge_high_side_comes_second(self):
        def program(mpi):
            local, inter, color = yield from split_and_join(mpi, 2)
            merged = yield from inter.merge(high=(color == 0))
            return merged.rank

        results = run_ranks(program, nranks=4)
        # Side A (world 0,1) asked to be high: its ranks come second.
        assert results == [2, 3, 0, 1]

    def test_merge_tie_resolved_by_leading_world_rank(self):
        def program(mpi):
            local, inter, color = yield from split_and_join(mpi, 2)
            merged = yield from inter.merge(high=False)  # both claim low
            return merged.rank

        results = run_ranks(program, nranks=4)
        # Group containing world rank 0 wins "low".
        assert results == [0, 1, 2, 3]


class TestSubcommStatusTranslation:
    def test_status_source_is_comm_relative(self):
        """A side effect worth pinning: on split comms, Status.source must
        be the communicator rank, not the world rank."""
        def program(mpi):
            comm = mpi.comm_world
            sub = yield from comm.split(comm.rank % 2)
            # Odd world ranks 1,3 -> sub ranks 0,1.
            if comm.rank == 3:
                yield from sub.send("hello", dest=0, tag=1)
                return None
            if comm.rank == 1:
                data, status = yield from sub.recv(source=1, tag=1)
                return (data, status.source, status.source_world)
            return None

        results = run_ranks(program, nranks=4)
        assert results[1] == ("hello", 1, 3)
