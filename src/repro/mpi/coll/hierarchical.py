"""Node-aware hierarchical collectives (chainermn-style two-level trees).

The cluster model knows which ranks share an SMP node (the smp_plug vs
ch_mad boundary); these algorithms exploit it by splitting every
collective into an intra-node phase over the cheap shared-memory device
and an inter-node phase among one *leader* per node over ch_mad:

- allreduce: intra-node reduce -> inter-node allreduce among leaders ->
  intra-node bcast (the classic hierarchical decomposition);
- bcast: root hands to its node leader -> leader bcast -> node bcast;
- barrier: node gather (arrival) -> leader barrier -> node bcast (release);
- allgather: node gather -> leader allgather -> node bcast.

The node/leader subcommunicators are derived once per communicator via
:meth:`~repro.mpi.communicator.Communicator.split_type` and cached; the
first hierarchical call on a communicator therefore pays the (collective)
setup cost and later calls reuse it.  All internal phases run the *flat
default* algorithms directly — resolving through the registry again
would recurse when a hierarchical algorithm is selected globally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Generator, Mapping

from repro.mpi import collectives as _coll
from repro.mpi.collectives import _crecv, _csend
from repro.mpi.reduce_ops import Op

from repro.mpi.coll.flat import allreduce_recursive_doubling
from repro.mpi.coll.registry import register

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator


@dataclass
class HierComms:
    """Cached two-level decomposition of one communicator."""

    #: All ranks of this communicator on my node (I am a member).
    node_comm: "Communicator"
    #: One leader per node (node_comm rank 0); None on non-leaders.
    leader_comm: "Communicator | None"
    #: node index of every communicator rank (locally derived).
    node_of: tuple[int, ...]
    #: node index -> lowest communicator rank on that node (the leader).
    leader_of_node: Mapping[int, int]
    #: node index -> that leader's rank inside leader_comm.
    leader_index_of_node: Mapping[int, int]
    #: True when comm ranks fill nodes contiguously, which makes the
    #: node-then-leader reduction order equal the rank order (and the
    #: decomposition safe for non-commutative operators).
    contiguous: bool


def hier_comms(comm: "Communicator") -> Generator:
    """Build (or fetch) the node/leader decomposition of ``comm``.

    Collective: the first call must happen at the same point on every
    rank, which any hierarchical collective guarantees by construction.
    """
    cached = getattr(comm, "_hier_cache", None)
    if cached is not None:
        return cached
    layout = _node_layout(comm.group.world_ranks, comm.env.node_of_rank)
    node_comm = yield from comm.split_type()
    is_leader = node_comm.rank == 0
    # Leader membership is locally derivable (lowest comm rank per node,
    # ordered by comm rank — the same order the old
    # ``comm.split(0/UNDEFINED, key=comm.rank)`` produced), so the
    # O(ranks^2)-message allgather inside MPI_Comm_split is dead weight
    # at 1000+ ranks.  Agree with a barrier and build the communicator
    # locally — the ``split_type()`` mechanism.
    from repro.mpi.communicator import Communicator
    from repro.mpi.group import Group
    yield from _coll.barrier(comm)
    context = comm.env.allocate_context()
    if is_leader:
        leader_comm = Communicator(comm.env, Group(layout.leader_world_ranks),
                                   context)
    else:
        leader_comm = None
    cache = HierComms(node_comm, leader_comm, layout.node_of,
                      layout.leader_of_node, layout.leader_index_of_node,
                      layout.contiguous)
    comm._hier_cache = cache
    return cache


@dataclass(frozen=True)
class _NodeLayout:
    """The rank-independent half of :class:`HierComms`."""

    node_of: tuple[int, ...]
    leader_of_node: Mapping[int, int]
    leader_index_of_node: Mapping[int, int]
    leader_world_ranks: tuple[int, ...]
    contiguous: bool


@functools.lru_cache(maxsize=16)
def _node_layout(world_ranks: tuple[int, ...],
                 node_of_rank: tuple[int, ...]) -> _NodeLayout:
    """Node placement of a communicator's members, and its leaders.

    Every rank of the communicator derives the same layout, so it is
    built once per world and the same read-only objects are handed to
    every rank, instead of one O(ranks) copy per rank.
    """
    node_of = tuple(node_of_rank[w] for w in world_ranks)
    leader_of_node: dict[int, int] = {}
    for rank, node in enumerate(node_of):
        leader_of_node.setdefault(node, rank)
    leader_ranks = sorted(leader_of_node.values())
    index_of_rank = {rank: index for index, rank in enumerate(leader_ranks)}
    return _NodeLayout(
        node_of=node_of,
        leader_of_node=MappingProxyType(leader_of_node),
        leader_index_of_node=MappingProxyType(
            {node: index_of_rank[rank]
             for node, rank in leader_of_node.items()}),
        leader_world_ranks=tuple(world_ranks[r] for r in leader_ranks),
        contiguous=all(node_of[i] <= node_of[i + 1]
                       for i in range(len(node_of) - 1)))


def bcast_hier(comm: "Communicator", obj: Any, root: int = 0) -> Generator:
    """root -> its node leader -> all leaders -> intra-node fan-out."""
    _coll._check_root(comm, root)
    hier = yield from hier_comms(comm)
    tag = comm._coll_tag()  # every rank, in lockstep (even if unused)
    root_node = hier.node_of[root]
    root_leader = hier.leader_of_node[root_node]
    if root != root_leader:
        if comm.rank == root:
            yield from _csend(comm, obj, root_leader, tag)
        elif comm.rank == root_leader:
            obj = yield from _crecv(comm, root, tag)
    if hier.leader_comm is not None:
        obj = yield from _coll.bcast(hier.leader_comm, obj,
                                     hier.leader_index_of_node[root_node])
    obj = yield from _coll.bcast(hier.node_comm, obj, 0)
    return obj


def reduce_hier(comm: "Communicator", obj: Any, op: Op,
                root: int = 0) -> Generator:
    """Intra-node reduce -> leader reduce -> hand to ``root``."""
    _coll._check_root(comm, root)
    hier = yield from hier_comms(comm)
    if not op.commutative and not hier.contiguous:
        # Scattered placement breaks rank-order folding; stay flat.
        result = yield from _coll.reduce(comm, obj, op, root)
        return result
    tag = comm._coll_tag()
    root_node = hier.node_of[root]
    root_leader = hier.leader_of_node[root_node]
    value = yield from _coll.reduce(hier.node_comm, obj, op, 0)
    if hier.leader_comm is not None:
        value = yield from _coll.reduce(
            hier.leader_comm, value, op,
            hier.leader_index_of_node[root_node])
    if root != root_leader:
        if comm.rank == root_leader:
            yield from _csend(comm, value, root, tag)
            value = None
        elif comm.rank == root:
            value = yield from _crecv(comm, root_leader, tag)
    return value if comm.rank == root else None


def allreduce_hier(comm: "Communicator", obj: Any, op: Op) -> Generator:
    """Intra-node reduce -> inter-node allreduce -> intra-node bcast.

    The inter-node phase among leaders uses recursive doubling: log2(n)
    wire latencies instead of reduce+bcast's 2*log2(n), which is where
    the hierarchy beats the flat default (the intra-node phases ride the
    cheap smp_plug device).  Non-commutative operators fall back inside
    recursive doubling (contiguous placement keeps leader order = rank
    order, so the folds stay rank-ordered either way).
    """
    hier = yield from hier_comms(comm)
    if not op.commutative and not hier.contiguous:
        result = yield from _coll.allreduce(comm, obj, op)
        return result
    value = yield from _coll.reduce(hier.node_comm, obj, op, 0)
    if hier.leader_comm is not None:
        value = yield from allreduce_recursive_doubling(
            hier.leader_comm, value, op)
    value = yield from _coll.bcast(hier.node_comm, value, 0)
    return value


def barrier_hier(comm: "Communicator") -> Generator:
    """Arrival gather per node, leader barrier, intra-node release."""
    hier = yield from hier_comms(comm)
    yield from _coll.gather(hier.node_comm, None, 0)
    if hier.leader_comm is not None:
        yield from _coll.barrier(hier.leader_comm)
    yield from _coll.bcast(hier.node_comm, None, 0)


def allgather_hier(comm: "Communicator", obj: Any) -> Generator:
    """Node gather -> leader allgather -> intra-node bcast."""
    hier = yield from hier_comms(comm)
    mine = (comm.rank, obj)
    local = yield from _coll.gather(hier.node_comm, mine, 0)
    out = None
    if hier.leader_comm is not None:
        groups = yield from _coll.allgather(hier.leader_comm, local)
        out = [None] * comm.size
        for group in groups:
            for rank, value in group:
                out[rank] = value
    out = yield from _coll.bcast(hier.node_comm, out, 0)
    return out


register("bcast", "hier", bcast_hier,
         "root -> node leader -> leader bcast -> node bcast")
register("reduce", "hier", reduce_hier,
         "node reduce -> leader reduce -> root")
register("allreduce", "hier", allreduce_hier,
         "node reduce -> leader allreduce -> node bcast")
register("barrier", "hier", barrier_hier,
         "node gather -> leader barrier -> node release")
register("allgather", "hier", allgather_hier,
         "node gather -> leader allgather -> node bcast")
