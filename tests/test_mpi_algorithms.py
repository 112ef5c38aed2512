"""Equivalence tests for the alternative collective algorithms.

The implementations live in the registry (:mod:`repro.mpi.coll`).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import coll
from repro.mpi.reduce_ops import MAX, SUM, user_op
from tests.helpers import run_ranks

bcast_linear = coll.get("bcast", "linear").fn
bcast_binomial = coll.get("bcast", "binomial").fn
allreduce_recursive_doubling = coll.get("allreduce", "recursive_doubling").fn
allgather_bruck = coll.get("allgather", "bruck").fn

SIZES = [1, 2, 3, 4, 5, 7, 8]


@pytest.mark.parametrize("nranks", SIZES)
class TestBcastLinear:
    def test_matches_default(self, nranks):
        def program(mpi):
            comm = mpi.comm_world
            obj = "payload" if comm.rank == min(1, comm.size - 1) else None
            result = yield from bcast_linear(comm, obj,
                                             root=min(1, comm.size - 1))
            return result

        assert run_ranks(program, nranks=nranks) == ["payload"] * nranks


@pytest.mark.parametrize("nranks", SIZES)
class TestRecursiveDoubling:
    def test_sum_matches_reference(self, nranks):
        def program(mpi):
            comm = mpi.comm_world
            result = yield from allreduce_recursive_doubling(
                comm, comm.rank + 1, SUM)
            return result

        expected = sum(range(1, nranks + 1))
        assert run_ranks(program, nranks=nranks) == [expected] * nranks

    def test_max(self, nranks):
        def program(mpi):
            comm = mpi.comm_world
            result = yield from allreduce_recursive_doubling(
                comm, (comm.rank * 13) % 7, MAX)
            return result

        expected = max((r * 13) % 7 for r in range(nranks))
        assert run_ranks(program, nranks=nranks) == [expected] * nranks

    def test_noncommutative_falls_back(self, nranks):
        concat = user_op(lambda a, b: a + b, commutative=False)

        def program(mpi):
            comm = mpi.comm_world
            result = yield from allreduce_recursive_doubling(
                comm, [comm.rank], concat)
            return result

        expected = list(range(nranks))
        assert run_ranks(program, nranks=nranks) == [expected] * nranks


@pytest.mark.parametrize("nranks", SIZES)
class TestBruckAllgather:
    def test_matches_ring(self, nranks):
        def program(mpi):
            comm = mpi.comm_world
            result = yield from allgather_bruck(comm, comm.rank * 11)
            return result

        expected = [r * 11 for r in range(nranks)]
        assert run_ranks(program, nranks=nranks) == [expected] * nranks


class TestAlgorithmCosts:
    def test_binomial_beats_linear_for_large_worlds(self):
        """On SCI with 8 ranks, the binomial tree must finish sooner."""
        def timed(algorithm):
            def program(mpi):
                from repro.sim.coroutines import now
                comm = mpi.comm_world
                obj = b"\x00" * 1 if comm.rank == 0 else None
                yield from comm.barrier()
                t0 = yield now()
                yield from algorithm(comm, obj, 0)
                yield from comm.barrier()
                t1 = yield now()
                return t1 - t0

            return max(run_ranks(program, nranks=8))

        linear_time = timed(bcast_linear)
        binomial_time = timed(bcast_binomial)
        assert binomial_time < linear_time

    @given(st.integers(2, 8), st.integers(0, 7))
    @settings(max_examples=10, deadline=None)
    def test_recursive_doubling_equivalence_property(self, nranks, seed):
        root_values = [(r * 7 + seed) % 11 for r in range(nranks)]

        def program(mpi):
            comm = mpi.comm_world
            mine = root_values[comm.rank]
            fast = yield from allreduce_recursive_doubling(comm, mine, SUM)
            slow = yield from comm.allreduce(mine, op=SUM)
            return fast == slow == sum(root_values)

        assert all(run_ranks(program, nranks=nranks))
