"""Tests for the extended MPI surface: persistent requests, pack/unpack,
attribute caching, reduce_scatter/alltoallv, datatype dup/resized."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MPIDatatypeError, MPIError, MPIRequestError
from repro.mpi.datatypes import DOUBLE, INT, contiguous, create_resized, dup, vector
from repro.mpi.packbuf import pack, pack_size, unpack
from repro.mpi.reduce_ops import MAX, SUM
from repro.sim.coroutines import sleep
from repro.units import us
from tests.helpers import run_ranks


class TestPersistentRequests:
    def test_halo_loop(self):
        """The stencil idiom: init once, start/wait per iteration."""
        STEPS = 5

        def program(mpi):
            comm = mpi.comm_world
            other = 1 - comm.rank
            buf = np.zeros(4, dtype=np.float64)
            send_req = comm.send_init(buf, dest=other, tag=1)
            recv_req = comm.recv_init(source=other, tag=1)
            got = []
            for step in range(STEPS):
                buf[:] = comm.rank * 100 + step
                send_req.start()
                recv_req.start()
                data, _ = yield from recv_req.wait()
                yield from send_req.wait()
                got.append(float(data[0]))
            send_req.free()
            recv_req.free()
            assert send_req.starts == STEPS
            return got

        results = run_ranks(program)
        assert results[0] == [100.0 + s for s in range(5)]
        assert results[1] == [0.0 + s for s in range(5)]

    def test_test_polls_until_done_then_deactivates(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 1:
                yield from comm.send("late", dest=0, tag=3)
                return None
            req = comm.recv_init(source=1, tag=3)
            assert not req.active
            with pytest.raises(MPIRequestError, match="inactive"):
                req.test()
            req.start()
            assert req.active
            polls = 0
            done, result = req.test()
            while not done:
                polls += 1
                yield sleep(us(5))
                done, result = req.test()
            assert not req.active  # a completed test() deactivates
            return result[0], polls > 0

        assert run_ranks(program)[0] == ("late", True)

    def test_start_while_active_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.recv_init(source=1, tag=1)
                req.start()
                with pytest.raises(MPIRequestError, match="already-active"):
                    req.start()
                data, _ = yield from req.wait()
                return data
            yield from comm.send("x", dest=0, tag=1)
            return None

        assert run_ranks(program)[0] == "x"

    def test_wait_inactive_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            req = comm.recv_init(source=0)
            with pytest.raises(MPIRequestError, match="inactive"):
                yield from req.wait()
            yield from comm.barrier()
            return None

        run_ranks(program)

    def test_free_active_raises_then_inactive_ok(self):
        def program(mpi):
            comm = mpi.comm_world
            other = 1 - comm.rank
            send_req = comm.send_init(comm.rank, dest=other, tag=2)
            send_req.start()
            with pytest.raises(MPIRequestError, match="active"):
                send_req.free()
            data, _ = yield from comm.recv(source=other, tag=2)
            yield from send_req.wait()
            send_req.free()
            with pytest.raises(MPIRequestError, match="freed"):
                send_req.start()
            return data

        assert run_ranks(program) == [1, 0]

    def test_startall(self):
        from repro.mpi.persistent import start_all

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.send_init(i, dest=1, tag=i) for i in range(3)]
                start_all(reqs)
                for req in reqs:
                    yield from req.wait()
                return None
            out = []
            for i in range(3):
                data, _ = yield from comm.recv(source=0, tag=i)
                out.append(data)
            return out

        assert run_ranks(program)[1] == [0, 1, 2]


class TestPackUnpack:
    def test_roundtrip_two_types(self):
        """The MPI-1 mixed-buffer idiom: int count + double payload."""
        header = np.array([3], dtype=np.int32)
        payload = np.array([1.5, 2.5, 3.5], dtype=np.float64)
        buf = np.zeros(pack_size(1, INT) + pack_size(3, DOUBLE),
                       dtype=np.uint8)
        pos = pack(header, 1, INT, buf, 0)
        pos = pack(payload, 3, DOUBLE, buf, pos)
        assert pos == buf.size

        out_header = np.zeros(1, dtype=np.int32)
        pos = unpack(buf, 0, out_header, 1, INT)
        out_payload = np.zeros(int(out_header[0]), dtype=np.float64)
        unpack(buf, pos, out_payload, 3, DOUBLE)
        assert np.array_equal(out_payload, payload)

    def test_strided_pack(self):
        column = vector(3, 1, 4, DOUBLE).commit()
        matrix = np.arange(12, dtype=np.float64)
        buf = np.zeros(column.size, dtype=np.uint8)
        pack(matrix, 1, column, buf, 0)
        out = np.zeros(12, dtype=np.float64)
        unpack(buf, 0, out, 1, column)
        assert out[0] == 0 and out[4] == 4 and out[8] == 8
        assert out[1] == 0

    def test_overflow_rejected(self):
        buf = np.zeros(4, dtype=np.uint8)
        with pytest.raises(MPIDatatypeError, match="overflows"):
            pack(np.zeros(2, dtype=np.int32), 2, INT, buf, 0)

    def test_underrun_rejected(self):
        buf = np.zeros(4, dtype=np.uint8)
        with pytest.raises(MPIDatatypeError, match="overruns"):
            unpack(buf, 2, np.zeros(1, dtype=np.int32), 1, INT)

    def test_requires_uint8(self):
        with pytest.raises(MPIDatatypeError, match="uint8"):
            pack(np.zeros(1, dtype=np.int32), 1, INT,
                 np.zeros(4, dtype=np.int32), 0)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        data = np.array(values, dtype=np.float64)
        t = contiguous(len(values), DOUBLE).commit()
        buf = np.zeros(pack_size(1, t), dtype=np.uint8)
        pack(data, 1, t, buf, 0)
        out = np.zeros_like(data)
        unpack(buf, 0, out, 1, t)
        assert np.array_equal(out, data)


class TestAttributes:
    def test_set_get_delete(self):
        def program(mpi):
            comm = mpi.comm_world
            comm.set_attr("app.phase", 3)
            assert comm.get_attr("app.phase") == 3
            assert comm.get_attr("missing", default="d") == "d"
            comm.delete_attr("app.phase")
            comm.delete_attr("app.phase")  # idempotent
            assert comm.get_attr("app.phase") is None
            yield from comm.barrier()
            return True

        assert run_ranks(program) == [True, True]

    def test_attributes_do_not_propagate_to_dup(self):
        def program(mpi):
            comm = mpi.comm_world
            comm.set_attr("k", 1)
            dup_comm = yield from comm.dup()
            return dup_comm.get_attr("k")

        assert run_ranks(program) == [None, None]


class TestExtraCollectives:
    def test_reduce_scatter(self):
        def program(mpi):
            comm = mpi.comm_world
            # Rank r contributes [r*10 + slot for each slot].
            contributions = [comm.rank * 10 + slot for slot in range(comm.size)]
            result = yield from comm.reduce_scatter(contributions, op=SUM)
            return result

        results = run_ranks(program, nranks=3)
        # Slot s receives sum over r of (r*10 + s) = 30 + 3s.
        assert results == [30, 33, 36]

    def test_reduce_scatter_max(self):
        def program(mpi):
            comm = mpi.comm_world
            contributions = [(comm.rank + 1) * (slot + 1)
                             for slot in range(comm.size)]
            result = yield from comm.reduce_scatter(contributions, op=MAX)
            return result

        results = run_ranks(program, nranks=3)
        assert results == [3, 6, 9]

    def test_reduce_scatter_wrong_length(self):
        def program(mpi):
            comm = mpi.comm_world
            with pytest.raises(MPIError):
                yield from comm.reduce_scatter([1], op=SUM)
            yield from comm.barrier()
            return None

        run_ranks(program)

    def test_alltoallv_variable_payloads(self):
        def program(mpi):
            comm = mpi.comm_world
            outgoing = [b"x" * (dest + 1) * (comm.rank + 1)
                        for dest in range(comm.size)]
            result = yield from comm.alltoallv(outgoing)
            return [len(item) for item in result]

        results = run_ranks(program, nranks=3)
        for me, lengths in enumerate(results):
            assert lengths == [(me + 1) * (src + 1) for src in range(3)]


class TestDatatypeDupResized:
    def test_dup_is_independent(self):
        base = contiguous(4, INT).commit()
        copy = dup(base)
        assert not copy.committed
        copy.commit()
        buf = np.arange(4, dtype=np.int32)
        assert np.array_equal(copy.pack(buf), base.pack(buf))

    def test_resized_extent_changes_stride(self):
        # One int per instance, strided out to 12 bytes.
        t = create_resized(INT, lb=0, extent=12).commit()
        buf = np.arange(9, dtype=np.int32)
        packed = t.pack(buf, count=3)
        assert np.array_equal(packed, [0, 3, 6])

    def test_resized_interleave_idiom(self):
        """Scatter columns of a row-major matrix via resized vector."""
        rows, cols = 3, 4
        column = vector(rows, 1, cols, DOUBLE)
        col_type = create_resized(column, lb=0, extent=DOUBLE.extent).commit()
        matrix = np.arange(rows * cols, dtype=np.float64)
        packed = col_type.pack(matrix, count=cols)
        expected = matrix.reshape(rows, cols).T.ravel()
        assert np.array_equal(packed, expected)

    def test_negative_lb_shift(self):
        t = create_resized(INT, lb=-4, extent=8).commit()
        buf = np.arange(6, dtype=np.int32)
        # Elements now sit one int *after* each instance start.
        assert np.array_equal(t.pack(buf, count=2), [1, 3])

    def test_bad_lb_rejected(self):
        with pytest.raises(MPIDatatypeError, match="lower bound"):
            create_resized(INT, lb=4, extent=8)

    def test_bad_extent_rejected(self):
        with pytest.raises(MPIDatatypeError):
            create_resized(INT, lb=0, extent=0)
