"""Flat (topology-blind) collective algorithms.

Registers the per-operation defaults from :mod:`repro.mpi.collectives`
and hosts the classic MPICH algorithm zoo, each variant fetched with
``coll.get(op, name).fn``:

- broadcast: linear (root sends size-1 messages) vs binomial tree;
- allreduce: reduce+bcast vs recursive doubling;
- allgather: ring vs Bruck's algorithm (log rounds, large messages).

All variants are drop-in equivalent to the defaults — the equivalence is
property-tested — and differ only in message schedule, hence in cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.mpi import collectives as _coll
from repro.mpi.collectives import _crecv, _csend, _csendrecv
from repro.mpi.reduce_ops import Op

from repro.mpi.coll.registry import register

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator


def bcast_linear(comm: "Communicator", obj: Any, root: int = 0) -> Generator:
    """Root sends to every rank in turn: O(size) root-serialized sends.

    Optimal for tiny worlds or when only the root has the NIC warm;
    loses badly to the binomial tree as size grows.
    """
    tag = comm._coll_tag()
    if comm.rank == root:
        for dest in range(comm.size):
            if dest != root:
                yield from _csend(comm, obj, dest, tag)
        return obj
    received = yield from _crecv(comm, root, tag)
    return received


def bcast_binomial(comm: "Communicator", obj: Any, root: int = 0) -> Generator:
    """The default binomial-tree broadcast (re-exported for symmetry)."""
    result = yield from _coll.bcast(comm, obj, root)
    return result


def allreduce_recursive_doubling(comm: "Communicator", obj: Any,
                                 op: Op) -> Generator:
    """Recursive doubling: log2(p) exchange rounds, all ranks finish with
    the result simultaneously.

    Non-power-of-two worlds first fold the surplus ranks onto partners
    (the MPICH pre/post phase).  Requires a commutative operator; falls
    back to the default reduce+bcast otherwise.
    """
    if not op.commutative:
        result = yield from _coll.allreduce(comm, obj, op)
        return result
    tag = comm._coll_tag()
    size, rank = comm.size, comm.rank
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    value = obj
    new_rank = -1
    # Pre-phase: ranks [0, 2*rem) pair up; odd members fold into even.
    if rank < 2 * rem:
        if rank % 2:  # odd: send and retire
            yield from _csend(comm, value, rank - 1, tag)
        else:
            incoming = yield from _crecv(comm, rank + 1, tag)
            value = op(value, incoming)
            new_rank = rank // 2
    else:
        new_rank = rank - rem
    # Core: recursive doubling among pof2 virtual ranks.
    if new_rank >= 0:
        mask = 1
        while mask < pof2:
            partner_virtual = new_rank ^ mask
            partner = (partner_virtual * 2 if partner_virtual < rem
                       else partner_virtual + rem)
            incoming = yield from _csendrecv(comm, value, partner, partner,
                                             tag)
            value = op(value, incoming)
            mask *= 2
    # Post-phase: even members hand results back to the retired odds.
    if rank < 2 * rem:
        if rank % 2:
            value = yield from _crecv(comm, rank - 1, tag)
        else:
            yield from _csend(comm, value, rank + 1, tag)
    return value


def allgather_bruck(comm: "Communicator", obj: Any) -> Generator:
    """Bruck's allgather: ceil(log2(p)) rounds of doubling block
    exchanges — fewer, larger messages than the ring for small payloads.
    """
    tag = comm._coll_tag()
    size, rank = comm.size, comm.rank
    blocks: list[Any] = [obj]
    distance = 1
    while distance < size:
        dest = (rank - distance) % size
        source = (rank + distance) % size
        want = min(distance, size - distance)
        incoming = yield from _csendrecv(comm, blocks[:want], dest, source,
                                         tag)
        blocks.extend(incoming)
        distance *= 2
    blocks = blocks[:size]
    # blocks[i] currently holds rank (rank + i) % size's contribution.
    out: list[Any] = [None] * size
    for i, item in enumerate(blocks):
        out[(rank + i) % size] = item
    return out


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------
#
# "default" is the exact callable from repro.mpi.collectives, so runs
# that never select an algorithm keep their pre-registry virtual-time
# goldens bit for bit.

register("barrier", "default", _coll.barrier, "dissemination (log2 rounds)")
register("bcast", "default", _coll.bcast, "binomial tree")
register("reduce", "default", _coll.reduce,
         "binomial tree (rank-order preserving)")
register("allreduce", "default", _coll.allreduce, "reduce-to-root + bcast")
register("gather", "default", _coll.gather, "linear, root-centric")
register("scatter", "default", _coll.scatter, "linear, root-centric")
register("allgather", "default", _coll.allgather, "ring (size-1 steps)")
register("alltoall", "default", _coll.alltoall, "pairwise sendrecv rotation")

register("bcast", "linear", bcast_linear, "root sends size-1 messages")
register("bcast", "binomial", bcast_binomial, "binomial tree (alias)")
register("allreduce", "reduce_bcast", _coll.allreduce,
         "reduce-to-root + bcast (alias of default)")
register("allreduce", "recursive_doubling", allreduce_recursive_doubling,
         "log2(p) exchange rounds; commutative ops only")
register("allgather", "ring", _coll.allgather, "ring (alias of default)")
register("allgather", "bruck", allgather_bruck,
         "ceil(log2(p)) doubling block exchanges")
