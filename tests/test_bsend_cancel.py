"""Tests for buffered sends and receive cancellation."""

import numpy as np
import pytest

from repro.errors import MPIError
from tests.helpers import run_ranks


class TestBsend:
    def test_bsend_roundtrip(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                mpi.attach_buffer(64 * 1024)
                yield from comm.bsend(b"buffered", dest=1, tag=1)
                yield from comm.barrier()
                assert mpi.detach_buffer() == 64 * 1024
                return None
            data, _ = yield from comm.recv(source=0, tag=1)
            yield from comm.barrier()
            return data

        assert run_ranks(program)[1] == b"buffered"

    def test_bsend_returns_before_recv_posted(self):
        def program(mpi):
            from repro.sim.coroutines import now, sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                mpi.attach_buffer(4096)
                t0 = yield now()
                yield from comm.bsend(b"x" * 64, dest=1, tag=1, size=64)
                t1 = yield now()
                yield from comm.barrier()
                return t1 - t0
            yield sleep(us(900))
            yield from comm.recv(source=0, tag=1)
            yield from comm.barrier()
            return None

        # Local completion: far below the receiver's 900 us delay.
        assert run_ranks(program)[0] < 200_000

    def test_buffer_exhaustion_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                mpi.attach_buffer(100)
                with pytest.raises(MPIError, match="MPI_ERR_BUFFER"):
                    yield from comm.bsend(b"", dest=1, tag=1, size=200)
            yield from comm.barrier()
            return None

        run_ranks(program)

    def test_buffer_space_reclaimed_after_delivery(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                mpi.attach_buffer(100)
                for i in range(5):  # 5 x 80 bytes through a 100-byte buffer
                    yield from comm.bsend(i, dest=1, tag=1, size=80)
                    # Wait for the receiver to drain before the next one.
                    yield from comm.recv(source=1, tag=2)
                return None
            got = []
            for _ in range(5):
                data, _ = yield from comm.recv(source=0, tag=1)
                got.append(data)
                yield from comm.send(None, dest=0, tag=2, size=0)
            return got

        assert run_ranks(program)[1] == [0, 1, 2, 3, 4]

    def test_double_attach_rejected(self):
        def program(mpi):
            mpi.attach_buffer(10)
            with pytest.raises(MPIError, match="already attached"):
                mpi.attach_buffer(10)
            yield from mpi.comm_world.barrier()
            return None

        run_ranks(program)


class TestCancel:
    def test_cancel_pending_recv(self):
        def program(mpi):
            comm = mpi.comm_world
            req = comm.irecv(source=1 - comm.rank, tag=9)
            assert req.cancel() is True
            data, status = yield from req.wait()
            yield from comm.barrier()
            return (data, status.cancelled)

        results = run_ranks(program)
        assert results == [(None, True), (None, True)]

    def test_cancel_pending_buffer_irecv(self):
        # The uppercase Irecv wraps the receive; cancel reaches it, and
        # test() reports completion without a payload (like mpi4py).
        def program(mpi):
            comm = mpi.comm_world
            buf = np.full(4, -1.0)
            req = comm.Irecv(buf, source=1 - comm.rank, tag=9)
            assert req.cancel() is True
            status = yield from req.wait()
            assert req.test() == (True, None)
            yield from comm.barrier()
            return status.cancelled, float(buf.sum())

        assert run_ranks(program) == [(True, -4.0), (True, -4.0)]

    def test_cancel_after_match_fails(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=1)
                yield sleep(us(800))  # the message lands and matches
                cancelled = req.cancel()
                data, status = yield from req.wait()
                return (cancelled, data, status.cancelled)
            yield from comm.send("made it", dest=0, tag=1)
            return None

        assert run_ranks(program)[0] == (False, "made it", False)

    def test_cancelled_recv_does_not_steal_later_message(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                doomed = comm.irecv(source=1, tag=1)
                assert doomed.cancel()
                yield from doomed.wait()
                live = comm.irecv(source=1, tag=1)
                yield from comm.barrier()
                data, _ = yield from live.wait()
                return data
            yield from comm.barrier()
            yield from comm.send("for-the-living", dest=0, tag=1)
            return None

        assert run_ranks(program)[0] == "for-the-living"
