"""Tests for synchronous sends, v-collectives and Cartesian topologies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MPIError
from repro.mpi.cartesian import CartComm, dims_create
from repro.mpi.constants import PROC_NULL
from repro.cluster import smp_node_cluster
from tests.helpers import run_ranks, run_world


class TestSsend:
    def test_ssend_completes_after_recv_posted(self):
        """A synchronous send must not complete before the receive starts."""
        def program(mpi):
            from repro.sim.coroutines import now, sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                t0 = yield now()
                yield from comm.ssend(b"sync", dest=1, tag=1, size=16)
                t1 = yield now()
                return t1 - t0
            yield sleep(us(700))   # delay posting the receive
            data, _ = yield from comm.recv(source=0, tag=1)
            return data

        results = run_ranks(program)
        # The sender blocked across the receiver's 700 us delay.
        assert results[0] > 600_000
        assert results[1] == b"sync"

    def test_plain_eager_send_does_not_wait(self):
        def program(mpi):
            from repro.sim.coroutines import now, sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                t0 = yield now()
                yield from comm.send(b"fire-and-forget", dest=1, tag=1)
                t1 = yield now()
                return t1 - t0
            yield sleep(us(700))
            yield from comm.recv(source=0, tag=1)
            return None

        results = run_ranks(program)
        assert results[0] < 100_000  # local completion, no waiting

    def test_issend_wait(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.issend(b"x", dest=1, tag=2, size=8)
                yield from comm.barrier()   # receive gets posted after this
                yield from req.wait()
                return True
            req = comm.irecv(source=0, tag=2)
            yield from comm.barrier()
            data, _ = yield from req.wait()
            return data

        assert run_ranks(program) == [True, b"x"]

    def test_ssend_to_self_with_posted_recv(self):
        def program(mpi):
            comm = mpi.comm_world
            req = comm.irecv(source=comm.rank, tag=3)
            yield from comm.ssend("self-sync", dest=comm.rank, tag=3)
            data, _ = yield from req.wait()
            return data

        assert run_ranks(program) == ["self-sync", "self-sync"]


class TestVCollectives:
    def test_gatherv_uneven_blocks(self):
        def program(mpi):
            comm = mpi.comm_world
            count = comm.rank + 1
            send = np.full(count, float(comm.rank))
            if comm.rank == 0:
                counts = [r + 1 for r in range(comm.size)]
                displs = np.concatenate(([0], np.cumsum(counts)[:-1]))
                recv = np.zeros(sum(counts))
                yield from comm.Gatherv(send, (recv, counts, displs), root=0)
                return recv.tolist()
            yield from comm.Gatherv(send, None, root=0)
            return None

        results = run_ranks(program, nranks=3)
        assert results[0] == [0.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_scatterv_roundtrip(self):
        def program(mpi):
            comm = mpi.comm_world
            counts = [r + 1 for r in range(comm.size)]
            displs = list(np.concatenate(([0], np.cumsum(counts)[:-1])))
            recv = np.zeros(comm.rank + 1)
            if comm.rank == 0:
                send = np.arange(sum(counts), dtype=np.float64)
                yield from comm.Scatterv((send, counts, displs), recv, root=0)
            else:
                yield from comm.Scatterv(None, recv, root=0)
            return recv.tolist()

        results = run_ranks(program, nranks=3)
        assert results == [[0.0], [1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_gatherv_count_mismatch_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            send = np.zeros(2)
            if comm.rank == 0:
                recv = np.zeros(2 * comm.size)
                with pytest.raises(MPIError, match="Gatherv"):
                    yield from comm.Gatherv(send, (recv, [1, 1], [0, 1]),
                                            root=0)
            else:
                yield from comm.Gatherv(send, None, root=0)
            return None

        run_ranks(program)


class TestDimsCreate:
    def test_balanced_2d(self):
        assert dims_create(12, 2) == [4, 3]
        assert dims_create(16, 2) == [4, 4]

    def test_respects_fixed_dims(self):
        assert dims_create(12, 2, [0, 6]) == [2, 6]

    def test_1d(self):
        assert dims_create(7, 1) == [7]

    def test_3d(self):
        dims = dims_create(24, 3)
        assert sorted(dims) == sorted(dims, )
        assert np.prod(dims) == 24

    def test_incompatible_fixed_raises(self):
        with pytest.raises(MPIError):
            dims_create(10, 2, [3, 0])

    @given(st.integers(1, 256), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_product_always_matches(self, nnodes, ndims):
        dims = dims_create(nnodes, ndims)
        assert int(np.prod(dims)) == nnodes
        assert all(d >= 1 for d in dims)
        # Balanced: dims are non-increasing.
        assert dims == sorted(dims, reverse=True)


class TestCartComm:
    def test_coords_roundtrip(self):
        def program(mpi):
            comm = mpi.comm_world
            cart = yield from comm.create_cart((2, 2))
            assert cart.rank_of(cart.coords) == cart.rank
            return cart.coords

        results = run_ranks(program, nranks=4)
        assert results == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_nonperiodic_shift_hits_proc_null(self):
        def program(mpi):
            comm = mpi.comm_world
            cart = yield from comm.create_cart((4,), periods=(False,))
            return cart.shift(0)

        results = run_ranks(program, nranks=4)
        assert results[0] == (PROC_NULL, 1)
        assert results[3] == (2, PROC_NULL)

    def test_periodic_shift_wraps(self):
        def program(mpi):
            comm = mpi.comm_world
            cart = yield from comm.create_cart((4,), periods=(True,))
            return cart.shift(0)

        results = run_ranks(program, nranks=4)
        assert results[0] == (3, 1)
        assert results[3] == (2, 0)

    def test_neighbors_are_unit_shifts_per_dimension(self):
        def program(mpi):
            comm = mpi.comm_world
            cart = yield from comm.create_cart((2, 2), periods=(True, False))
            return cart.neighbors()

        results = run_ranks(program, nranks=4)
        # rank 1 sits at (0, 1): dimension 0 wraps, dimension 1 does not.
        assert results[1] == {0: (3, 3), 1: (0, PROC_NULL)}

    def test_ring_exchange_over_cart(self):
        """A periodic ring rotation using shift + sendrecv."""
        def program(mpi):
            comm = mpi.comm_world
            cart = yield from comm.create_cart((comm.size,), periods=(True,))
            source, dest = cart.shift(0, 1)
            data, _ = yield from cart.sendrecv(cart.rank, dest=dest,
                                               sendtag=1, source=source,
                                               recvtag=1)
            return data

        results = run_ranks(program, nranks=4)
        assert results == [3, 0, 1, 2]

    def test_grid_size_mismatch_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            with pytest.raises(MPIError, match="grid"):
                yield from comm.create_cart((3, 3))
            return None

        run_ranks(program, nranks=4)

    def test_2d_halo_pattern_on_smp_cluster(self):
        """2x2 grid over 2 SMP nodes: shifts cross smp_plug and ch_mad."""
        def program(mpi):
            comm = mpi.comm_world
            cart = yield from comm.create_cart((2, 2), periods=(True, True))
            total = float(cart.rank)
            for direction in range(2):
                source, dest = cart.shift(direction)
                value, _ = yield from cart.sendrecv(
                    float(cart.rank), dest=dest, sendtag=direction,
                    source=source, recvtag=direction)
                total += value
            return total

        results = run_world(program, smp_node_cluster(nodes=2,
                                                      processes_per_node=2))
        # Each rank sums itself + its up and left periodic neighbours.
        assert len(results) == 4
        assert sum(results) == 3 * sum(range(4))
