"""Device base class and the per-process progress engine.

The :class:`ProgressEngine` is the receive-side heart of the ADI: every
device — ch_self, smp_plug, ch_p4, ch_mad — delivers arrivals into the
same posted/unexpected queues, which is what makes ``MPI_ANY_SOURCE``
receives work across devices (§2.3: the ADI data structures are
"multi-device-ready"; our single progress engine realizes that).

Deadlock rule (§4.2.3): a *polling thread* must never block in a send.
``deliver_rndv_request`` therefore spawns a temporary Marcel thread to
emit the acknowledgement when the matching receive was already posted;
when the receive arrives later, the application's own (main) thread sends
the acknowledgement inline.
"""

from __future__ import annotations

import copy as _copy
from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro.errors import MPIError
from repro.mpi.adi.packets import Envelope
from repro.mpi.adi.queues import (
    PostedQueue,
    UnexpectedEntry,
    UnexpectedKind,
    UnexpectedQueue,
)
from repro.mpi.adi.rhandle import RecvHandle, RndvSync
from repro.mpi.request import RecvRequest
from repro.mpi.status import Status
from repro.sim.coroutines import charge
from repro.sim.ring import Ring
from repro.sim.sync import Condition

if TYPE_CHECKING:  # pragma: no cover
    from repro.madeleine.session import MadProcess

#: MPI_ERR_TRUNCATE as a status error code.
ERR_TRUNCATE = 15

#: Free-list capacity for blocking-receive request shells (per process).
_RECV_POOL_MAX = 32


def clone_payload(obj: Any) -> Any:
    """Detach a payload from the sender's buffer (MPI value semantics).

    Immutable objects pass through; numpy arrays and general mutables are
    copied so a receiver can never alias the sender's memory.  Called
    exactly once per send, by :mod:`repro.mpi.point2point`; the devices
    and the simulated wire then carry the detached object by reference.
    """
    if obj is None or isinstance(obj, (bytes, str, int, float, bool, complex,
                                       frozenset, tuple)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return _copy.deepcopy(obj)


class ProgressEngine:
    """Shared receive-side state of one MPI process."""

    def __init__(self, process: "MadProcess", byte_order: str = "little",
                 heterogeneity_conversion: bool = True):
        self.process = process
        self.memory = process.memory
        self.runtime = process.runtime
        #: This node's native representation and whether the ADI converts
        #: foreign-order numeric payloads (Fig. 1 "heterogeneity").
        self.byte_order = byte_order
        self.heterogeneity_conversion = heterogeneity_conversion
        #: Conversions performed (diagnostic).
        self.conversions = 0
        #: Diagnostics.
        self.eager_delivered = 0
        self.rndv_completed = 0
        #: Fault-tolerance state of the owning env (None = FT off).
        #: When set, arrivals from dead ranks or on revoked/failed
        #: contexts are discarded before they can reach user code.
        self.ft = None
        #: Set when this rank died: its free-lists are cleared and
        #: never hand out (or take back) shells again.
        self._pools_retired = False
        self.runtime.cpu.on_retire_pools(self._retire_pools)
        # NOTE: posted / unexpected / send_gates / sync_registry /
        # arrivals / _recv_pool are *lazy* — see __getattr__ below.  A
        # quiescent member of a 1024-rank world never materializes them.

    def __getattr__(self, name: str) -> Any:
        """Materialize per-rank receive-side state on first touch.

        Building these eagerly for every rank made 1000+-rank world
        construction O(ranks) in objects nobody touches; most members of
        a large world only ever talk to a few neighbours.  ``__getattr__``
        only fires while the attribute is missing, so after the first
        touch every access is a plain instance-dict lookup.
        """
        if name == "posted":
            value = PostedQueue()
        elif name == "unexpected":
            value = UnexpectedQueue()
        elif name == "send_gates":
            #: Per-(context, destination) send-ordering gates (MPI
            #: non-overtaking; see repro.mpi.point2point.SendGate).
            value = {}
        elif name == "sync_registry":
            #: sync_id -> RndvSync, the MPID_RNDV_T "address book".
            value = {}
        elif name == "arrivals":
            #: Broadcast on every arrival; blocking probes wait here.
            value = Condition(name="adi-arrivals")
        elif name == "_recv_pool":
            value = Ring(_RECV_POOL_MAX)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, value)
        return value

    # -- blocking-receive shell pool -----------------------------------------

    def acquire_recv(self, comm: Any, context_id: int, source_pattern: int,
                     tag_pattern: int, capacity: int | None) -> RecvRequest:
        """A RecvRequest+RecvHandle shell for a *blocking* receive.

        Blocking ``comm.recv`` is the eager hot path: the request never
        escapes to user code, so its shell (request, handle, flag) can be
        recycled through a free-list instead of allocated per message.
        The Status is always fresh — it *does* escape, inside the
        ``(data, status)`` result.
        """
        if not self._pools_retired:
            pool = self._recv_pool
            if pool:
                request = pool.pop()
                handle = request.handle
                handle.context_id = context_id
                handle.source_pattern = source_pattern
                handle.tag_pattern = tag_pattern
                handle.capacity = capacity
                handle.status = Status()
                handle.data = None
                flag = handle.flag
                flag.is_set = False
                flag.value = None
                request.comm = comm
                request.pending_copy_bytes = 0
                request.posted_queue = None
                return request
        request = RecvRequest(
            RecvHandle(context_id, source_pattern, tag_pattern, capacity),
            comm)
        request._pooled = True
        return request

    def release_recv(self, request: RecvRequest) -> None:
        """Return a cleanly-completed blocking-receive shell to the pool.

        Only the eager happy path recycles: rendezvous transactions
        (``handle.sync`` set), errored or cancelled receives keep their
        shells — those paths are cold and their handles may still be
        referenced (sync registry, FT bookkeeping).
        """
        handle = request.handle
        status = handle.status
        if (self._pools_retired or handle.sync is not None
                or not handle.flag.is_set
                or status.error or status.cancelled):
            return
        request.comm = None
        handle.data = None
        self._recv_pool.push(request)

    def _retire_pools(self) -> None:
        self._pools_retired = True
        pool = self.__dict__.get("_recv_pool")
        if pool is not None:
            pool.clear()

    # -- registry ------------------------------------------------------------

    def register_sync(self, handle: RecvHandle) -> RndvSync:
        sync = handle.make_sync()
        self.sync_registry[sync.sync_id] = sync
        return sync

    # -- arrival paths (run by polling threads or ch_self) ----------------------

    def deliver_eager(self, envelope: Envelope, data: Any,
                      charge_copy: bool = True,
                      copy_on_match: bool | None = None,
                      copy_on_buffer: bool | None = None) -> Generator:
        """An eager data packet arrived: match or buffer.

        Copy charging is device-specific: ch_mad pays the paper's eager
        "intermediary copy on the receiving side" in both branches
        (default); ch_self charges its single memcpy itself
        (``charge_copy=False``); ch_p4 reads straight into a posted user
        buffer but must buffer unexpected arrivals
        (``copy_on_match=False, copy_on_buffer=True``).
        """
        if copy_on_match is None:
            copy_on_match = charge_copy
        if copy_on_buffer is None:
            copy_on_buffer = charge_copy
        if self.ft is not None and self.ft.should_discard(envelope):
            self.ft.note_discard(envelope)
            return
        data = yield from self._heterogeneity(envelope, data)
        handle = self.posted.match(envelope)
        if handle is not None:
            checker = self.runtime.engine.checker
            if checker.enabled:
                checker.on_match(envelope, self.process.rank)
            if copy_on_match:
                yield charge(self.memory.copy_cost(envelope.size))
            self._check_truncation(handle, envelope)
            handle.complete(envelope, data)
            self.eager_delivered += 1
        else:
            if copy_on_buffer:
                # Copy into the unexpected buffer; a second copy happens
                # when the receive finally matches.
                yield charge(self.memory.copy_cost(envelope.size))
            self.unexpected.add(UnexpectedEntry(envelope, UnexpectedKind.EAGER,
                                                data=data))
        self.arrivals.notify_all()

    def deliver_rndv_request(self, envelope: Envelope, token: Any,
                             device: "Device") -> Generator:
        """A rendezvous request arrived (MAD_REQUEST_PKT path)."""
        if self.ft is not None and self.ft.should_discard(envelope):
            self.ft.note_discard(envelope, send_id=getattr(token, "send_id", 0))
            return
        handle = self.posted.match(envelope)
        if handle is not None:
            checker = self.runtime.engine.checker
            if checker.enabled:
                checker.on_match(envelope, self.process.rank)
            self._check_truncation(handle, envelope)
            handle.rndv_source = envelope.source
            sync = self.register_sync(handle)
            # Polling threads must not send: spawn the ack thread (§4.2.3).
            self.runtime.spawn_temporary(
                device.send_rndv_ack(token, sync.sync_id), name="rndv-ack"
            )
        else:
            self.unexpected.add(UnexpectedEntry(envelope,
                                                UnexpectedKind.RNDV_REQUEST,
                                                rndv_token=token))
        self.arrivals.notify_all()
        return
        yield  # pragma: no cover - generator marker

    def deliver_rndv_data(self, sync_id: int, envelope: Envelope,
                          data: Any) -> Generator:
        """The zero-copy data packet arrived: finish the transaction."""
        if self.ft is not None and self.ft.should_discard(envelope):
            self.sync_registry.pop(sync_id, None)
            self.ft.note_discard(envelope, sync_id=sync_id)
            return
        sync = self.sync_registry.pop(sync_id, None)
        if sync is None:
            if self.ft is not None:
                # The FT layer drained this sync entry when it failed the
                # receive; the straggler data packet is expected.
                self.ft.note_discard(envelope, sync_id=sync_id)
                return
            raise MPIError(f"rendezvous data for unknown sync_id {sync_id}")
        # Zero-copy: the data lands in the user buffer; no memcpy charge
        # (heterogeneity conversion, when needed, is charged).
        data = yield from self._heterogeneity(envelope, data)
        sync.rhandle.complete(envelope, data)
        self.rndv_completed += 1
        self.arrivals.notify_all()
        return
        yield  # pragma: no cover - generator marker

    def _heterogeneity(self, envelope: Envelope, data: Any) -> Generator:
        """Convert a foreign-byte-order payload to the local order.

        Conversion only applies to numeric buffers (numpy arrays) — the
        ADI's datatype engine knows their element layout.  With
        conversion disabled (ablation), foreign arrays arrive raw: the
        receiver sees byte-swapped garbage, exactly what a heterogeneous
        cluster without Fig. 1's "heterogeneity" box would produce.
        """
        if envelope.byte_order == self.byte_order:
            return data
        if not isinstance(data, np.ndarray) or data.dtype.itemsize <= 1:
            return data
        if not self.heterogeneity_conversion:
            return data.byteswap()  # raw foreign bytes, misinterpreted
        # Swap in place conceptually: one pass over the payload.
        yield charge(self.memory.copy_cost(envelope.size))
        self.conversions += 1
        return data

    @staticmethod
    def _check_truncation(handle: RecvHandle, envelope: Envelope) -> None:
        if handle.capacity is not None and envelope.size > handle.capacity:
            handle.status.error = ERR_TRUNCATE


class Device:
    """Abstract device (an MPID_Device).

    Concrete devices implement the three send-side entry points as
    generators run in the *sending process*:

    - :meth:`send_eager` — transmit envelope+data; returns at local
      completion (data is out of the user's hands);
    - :meth:`send_rndv` — run the full rendezvous from the sender side:
      emit the request, block until the acknowledgement delivers the
      remote sync id, transmit the data packet;
    - :meth:`send_rndv_ack` — receiver side: emit OK_TO_SEND for a
      pending request ``token`` carrying our ``sync_id``.

    ``eager_threshold`` is the single integer the ADI reserves for the
    transfer-mode switch point (§4.2.2).
    """

    name = "device"
    eager_threshold: int = 0

    def threshold(self, dest_world: int) -> int:
        """Eager/rendezvous switch point towards ``dest_world``.

        The generic ADI stores a single integer per device
        (:attr:`eager_threshold`); devices whose networks differ per
        destination (ch_mad's per-network ablation) override this.
        """
        return self.eager_threshold

    def shutdown(self) -> None:
        """Stop polling threads etc. (MPI_Finalize)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device {self.name} threshold={self.eager_threshold}>"
