"""Integration tests: point-to-point MPI over the full simulated stack."""

import numpy as np
import pytest

from repro.errors import DeadlockError, MPIRankError, MPITagError, MPITruncationError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.cluster import ClusterConfig, NodeSpec
from tests.helpers import linear_cluster, run_ranks, run_world

pytestmark = pytest.mark.filterwarnings("ignore")


class TestBlockingSendRecv:
    def test_basic_roundtrip(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send({"x": 1}, dest=1, tag=5)
                return "sent"
            data, status = yield from comm.recv(source=0, tag=5)
            return (data, status.source, status.tag)

        results = run_ranks(program)
        assert results == ["sent", ({"x": 1}, 0, 5)]

    def test_eager_and_rendezvous_payloads(self):
        # 100 B -> eager; 1 MB -> rendezvous (SCI threshold is 8 KB).
        for size in (100, 1_000_000):
            def program(mpi, size=size):
                comm = mpi.comm_world
                payload = np.arange(size // 8, dtype=np.float64)
                if comm.rank == 0:
                    yield from comm.send(payload, dest=1, size=size)
                    return None
                data, status = yield from comm.recv(source=0)
                assert status.count == size
                return float(np.sum(data))

            results = run_ranks(program)
            assert results[1] == float(np.sum(np.arange(size // 8)))

    def test_unexpected_message_buffered(self):
        """Sender races ahead; receive posted later still matches."""
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(b"early", dest=1, tag=1)
                return None
            # Delay the receive far beyond the message arrival.
            from repro.sim.coroutines import sleep
            from repro.units import us
            yield sleep(us(500))
            data, _ = yield from comm.recv(source=0, tag=1)
            return data

        assert run_ranks(program)[1] == b"early"

    def test_late_recv_rendezvous(self):
        """A rendezvous request that arrives before the receive is posted."""
        def program(mpi):
            comm = mpi.comm_world
            big = 100_000
            if comm.rank == 0:
                yield from comm.send(b"", dest=1, tag=2, size=big)
                return "sent"
            from repro.sim.coroutines import sleep
            from repro.units import us
            yield sleep(us(800))
            data, status = yield from comm.recv(source=0, tag=2)
            return status.count

        assert run_ranks(program) == ["sent", 100_000]

    def test_message_ordering_same_tag(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                for i in range(8):
                    yield from comm.send(i, dest=1, tag=3)
                return None
            got = []
            for _ in range(8):
                data, _ = yield from comm.recv(source=0, tag=3)
                got.append(data)
            return got

        assert run_ranks(program)[1] == list(range(8))

    def test_tag_selectivity(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send("a", dest=1, tag=10)
                yield from comm.send("b", dest=1, tag=20)
                return None
            second, _ = yield from comm.recv(source=0, tag=20)
            first, _ = yield from comm.recv(source=0, tag=10)
            return (first, second)

        assert run_ranks(program)[1] == ("a", "b")

    def test_any_source_any_tag(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send("wild", dest=1, tag=42)
                return None
            data, status = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            return (data, status.source, status.tag)

        assert run_ranks(program)[1] == ("wild", 0, 42)

    def test_any_source_across_senders(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 2:
                got = set()
                for _ in range(2):
                    data, status = yield from comm.recv(source=ANY_SOURCE, tag=1)
                    got.add((data, status.source))
                return sorted(got)
            yield from comm.send(f"from{comm.rank}", dest=2, tag=1)
            return None

        results = run_ranks(program, nranks=3)
        assert results[2] == [("from0", 0), ("from1", 1)]


class TestNonBlocking:
    def test_isend_irecv(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.isend(b"async", dest=1, tag=9)
                yield from req.wait()
                return req.completed
            req = comm.irecv(source=0, tag=9)
            data, status = yield from req.wait()
            return data

        assert run_ranks(program) == [True, b"async"]

    def test_isend_overlaps_compute(self):
        """isend runs in a temporary thread while the main thread computes."""
        def program(mpi):
            from repro.sim.coroutines import charge, now
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.isend(b"x" * 100, dest=1, size=1_000_000)
                yield charge(us(100))  # overlap with the rendezvous
                yield from req.wait()
                return None
            start = yield now()
            data, _ = yield from comm.recv(source=0)
            return None

        run_ranks(program)  # completes without deadlock

    def test_test_polls_completion(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                yield sleep(us(300))
                yield from comm.send(1, dest=1)
                return None
            req = comm.irecv(source=0)
            done_first, _ = req.test()
            while True:
                done, result = req.test()
                if done:
                    break
                yield sleep(us(50))
            return (done_first, result[0])

        assert run_ranks(program)[1] == (False, 1)

    def test_waitall(self):
        def program(mpi):
            from repro.mpi.request import Request
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.isend(i, dest=1, tag=i) for i in range(4)]
                yield from Request.waitall(reqs)
                return None
            reqs = [comm.irecv(source=0, tag=i) for i in range(4)]
            results = yield from Request.waitall(reqs)
            return [r[0] for r in results]

        assert run_ranks(program)[1] == [0, 1, 2, 3]


class TestSendRecvCombined:
    def test_exchange_without_deadlock(self):
        def program(mpi):
            comm = mpi.comm_world
            other = 1 - comm.rank
            data, _ = yield from comm.sendrecv(f"hi-{comm.rank}", dest=other,
                                               sendtag=1, source=other,
                                               recvtag=1)
            return data

        assert run_ranks(program) == ["hi-1", "hi-0"]

    def test_large_exchange_rendezvous_both_ways(self):
        def program(mpi):
            comm = mpi.comm_world
            other = 1 - comm.rank
            data, status = yield from comm.sendrecv(
                b"", dest=other, sendtag=1, source=other, recvtag=1,
                size=500_000,
            )
            return status.count

        assert run_ranks(program) == [500_000, 500_000]


class TestProbe:
    def test_probe_then_recv(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(b"abcdef", dest=1, tag=4)
                return None
            status = yield from comm.probe(source=0, tag=4)
            data, _ = yield from comm.recv(source=0, tag=4)
            return (status.count, data)

        assert run_ranks(program)[1] == (6, b"abcdef")

    def test_iprobe_miss_and_hit(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                yield sleep(us(200))
                yield from comm.send(1, dest=1)
                return None
            flag_before, _ = comm.iprobe(source=0)
            while True:
                flag, status = comm.iprobe(source=0)
                if flag:
                    break
                yield sleep(us(50))
            yield from comm.recv(source=0)
            return (flag_before, flag)

        assert run_ranks(program)[1] == (False, True)


class TestEdgeCases:
    def test_proc_null(self):
        def program(mpi):
            comm = mpi.comm_world
            yield from comm.send("ignored", dest=PROC_NULL)
            data, status = yield from comm.recv(source=PROC_NULL)
            return (data, status.source, status.count)

        results = run_ranks(program)
        assert results[0] == (None, PROC_NULL, 0)

    def test_zero_byte_message(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(None, dest=1, tag=1, size=0)
                return None
            data, status = yield from comm.recv(source=0, tag=1)
            return (data, status.count)

        assert run_ranks(program)[1] == (None, 0)

    def test_truncation_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(b"x" * 100, dest=1, tag=1, size=100)
                return None
            try:
                yield from comm.recv(source=0, tag=1, size=10)
            except MPITruncationError:
                return "truncated"
            return "no error"

        assert run_ranks(program)[1] == "truncated"

    def test_invalid_rank_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                with pytest.raises(MPIRankError):
                    yield from comm.send(1, dest=99)
            return None
            yield  # pragma: no cover

        run_ranks(program)

    def test_invalid_tag_raises(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                with pytest.raises(MPITagError):
                    yield from comm.send(1, dest=1, tag=-5)
            yield from comm.barrier()
            return None

        run_ranks(program)

    def test_deadlock_detection(self):
        def program(mpi):
            comm = mpi.comm_world
            # Both ranks receive; nobody sends.
            yield from comm.recv(source=1 - comm.rank)

        with pytest.raises(DeadlockError):
            run_ranks(program)

    def test_send_value_semantics(self):
        """Mutating the buffer after send must not affect the receiver."""
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                buf = np.ones(4, dtype=np.int32)
                req = comm.isend(buf, dest=1, tag=1)
                buf[:] = 999  # mutate immediately after isend
                yield from req.wait()
                return None
            data, _ = yield from comm.recv(source=0, tag=1)
            return list(map(int, data))

        assert run_ranks(program)[1] == [1, 1, 1, 1]


class _CountedCopies(np.ndarray):
    """An array that counts how often it (or a copy of it) is copied."""

    copies = 0

    def copy(self, *args, **kwargs):
        type(self).copies += 1
        return super().copy(*args, **kwargs)


class TestOnePayloadCopyPerSend:
    """Value semantics cost exactly one detach per send, whatever the
    device: ch_mad (two nodes), smp_plug (one node, two processes) or
    ch_self (a rank sending to itself)."""

    @staticmethod
    def _world(device):
        if device == "smp_plug":
            return ClusterConfig(nodes=[NodeSpec("n0", networks=("sisci",),
                                                 processes=2)])
        return linear_cluster(2)

    @pytest.mark.parametrize("device", ["ch_mad", "smp_plug", "ch_self"])
    @pytest.mark.parametrize("size", [64, 1 << 20])  # eager, rendezvous
    def test_each_send_detaches_once(self, monkeypatch, device, size):
        monkeypatch.setattr(_CountedCopies, "copies", 0)
        dest = {"ch_self": 0}.get(device, 1)

        def program(mpi):
            comm = mpi.comm_world
            received = []
            if comm.rank == 0:
                buf = np.ones(4).view(_CountedCopies)
                request = comm.isend(buf, dest=dest, tag=1, size=size)
                buf[:] = 7  # the isend already detached its payload
                yield from comm.send(buf, dest=dest, tag=2, size=size)
                if dest == 0:
                    for tag in (1, 2):
                        data, _ = yield from comm.recv(source=0, tag=tag)
                        received.append(float(data[0]))
                yield from request.wait()
            elif dest == 1:
                for tag in (1, 2):
                    data, _ = yield from comm.recv(source=0, tag=tag)
                    received.append(float(data[0]))
            return received

        results = run_world(program, self._world(device))
        assert results[dest] == [1.0, 7.0]
        assert _CountedCopies.copies == 2


class TestBufferAPI:
    def test_send_recv_numpy_contiguous(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                data = np.arange(100, dtype=np.float64)
                yield from comm.Send(data, dest=1, tag=3)
                return None
            buf = np.empty(100, dtype=np.float64)
            status = yield from comm.Recv(buf, source=0, tag=3)
            return (float(buf.sum()), status.count)

        total, count = run_ranks(program)[1]
        assert total == float(np.arange(100).sum())
        assert count == 800

    def test_send_recv_strided_datatype(self):
        from repro.mpi.datatypes import DOUBLE, vector

        def program(mpi):
            comm = mpi.comm_world
            column = vector(count=4, blocklength=1, stride=5,
                            base=DOUBLE).commit()
            if comm.rank == 0:
                matrix = np.arange(20, dtype=np.float64)
                yield from comm.Send((matrix, 1, column), dest=1)
                return None
            out = np.zeros(20, dtype=np.float64)
            yield from comm.Recv((out, 1, column), source=0)
            return [out[0], out[5], out[10], out[15], out[1]]

        assert run_ranks(program)[1] == [0.0, 5.0, 10.0, 15.0, 0.0]

    def test_isend_irecv_numpy(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                data = np.arange(64, dtype=np.float64)
                request = comm.Isend(data, dest=1, tag=5)
                data[:] = -1  # buffer reusable immediately (packed at call)
                yield from request.wait()
                return None
            buf = np.empty(64, dtype=np.float64)
            request = comm.Irecv(buf, source=0, tag=5)
            status = yield from request.wait()
            assert request.completed
            return (float(buf.sum()), status.count, status.source)

        total, count, source = run_ranks(program)[1]
        assert total == float(np.arange(64).sum())
        assert count == 64 * 8
        assert source == 0

    def test_isend_strided_datatype(self):
        from repro.mpi.datatypes import DOUBLE, vector

        def program(mpi):
            comm = mpi.comm_world
            column = vector(count=4, blocklength=1, stride=5,
                            base=DOUBLE).commit()
            if comm.rank == 0:
                matrix = np.arange(20, dtype=np.float64)
                request = comm.Isend((matrix, 1, column), dest=1)
                yield from request.wait()
                return None
            out = np.zeros(20, dtype=np.float64)
            request = comm.Irecv((out, 1, column), source=0)
            yield from request.wait()
            return [out[0], out[5], out[10], out[15]]

        assert run_ranks(program)[1] == [0.0, 5.0, 10.0, 15.0]

    def test_sendrecv_buffer_exchange(self):
        def program(mpi):
            comm = mpi.comm_world
            mine = np.full(16, comm.rank, dtype=np.int64)
            theirs = np.empty(16, dtype=np.int64)
            status = yield from comm.Sendrecv(
                mine, dest=1 - comm.rank, sendtag=2,
                recvbuf=theirs, source=1 - comm.rank, recvtag=2)
            assert status.source == 1 - comm.rank
            return int(theirs.sum())

        assert run_ranks(program) == [16, 0]
