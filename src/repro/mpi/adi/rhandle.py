"""Receive/send handles and the rendezvous sync structure (§4.2.2).

The paper: "On receiving side, transaction is handled by an ADI rhandle
structure.  This structure has a field whose type is MPID_RNDV_T.  In our
case, it corresponds to a synchronization structure containing a
semaphore and the address of the rhandle it belongs to."

:class:`RndvSync` is exactly that pair; its ``sync_id`` plays the role of
the structure's *address*, communicated to the sender inside the
acknowledgement packet and sent back inside the data packet header so the
polling thread can find the rhandle without any queue search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.mpi.adi.packets import Envelope
from repro.mpi.status import Status
from repro.sim.sync import Flag, Semaphore

_sync_ids = itertools.count(1)


@dataclass
class RndvSync:
    """MPID_RNDV_T: a semaphore plus a back-pointer to its rhandle."""

    rhandle: "RecvHandle"
    semaphore: Semaphore = field(default_factory=lambda: Semaphore(0, name="rndv"))
    sync_id: int = field(default_factory=lambda: next(_sync_ids))


class RecvHandle:
    """One pending receive transaction.

    Completion is signalled through :attr:`flag`; rendezvous transactions
    additionally own a :class:`RndvSync` whose semaphore the main thread
    blocks on while the polling thread waits for the data packet.
    """

    def __init__(self, context_id: int, source_pattern: int, tag_pattern: int,
                 capacity: int | None = None):
        self.context_id = context_id
        self.source_pattern = source_pattern
        self.tag_pattern = tag_pattern
        #: Receive buffer capacity in bytes (None = unbounded object recv).
        self.capacity = capacity
        self.flag = Flag(name="rhandle")
        self.status = Status()
        self.data: Any = None
        self.sync: RndvSync | None = None
        #: World rank of the matched rendezvous sender (set when the
        #: OK_TO_SEND goes out) — lets the FT layer fail a receive whose
        #: data packet will never arrive because that sender died.
        self.rndv_source: int | None = None

    def make_sync(self) -> RndvSync:
        """Attach a rendezvous sync structure (idempotent per transaction)."""
        if self.sync is None:
            self.sync = RndvSync(self)
        return self.sync

    def accepts(self, envelope: Envelope) -> bool:
        """Envelope matching against this handle's pattern."""
        return (envelope.context_id == self.context_id
                and envelope.matches(self.source_pattern, self.tag_pattern))

    def complete(self, envelope: Envelope, data: Any) -> None:
        """Fill in data/status and wake the waiter."""
        self.data = data
        self.status.source = envelope.source
        self.status.source_world = envelope.source
        self.status.tag = envelope.tag
        self.status.count = envelope.size
        self.flag.set(self)
        if self.sync is not None:
            self.sync.semaphore.release()

    @property
    def completed(self) -> bool:
        return self.flag.is_set

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RecvHandle ctx={self.context_id} src={self.source_pattern} "
                f"tag={self.tag_pattern} done={self.completed}>")


class SendHandle:
    """One in-flight send transaction (rendezvous bookkeeping).

    The sender blocks on :attr:`ack_flag` until the receiver's
    OK_TO_SEND arrives carrying the remote ``sync_id``; :attr:`flag`
    signals full local completion.  Devices call
    :meth:`notify_request_sent` right after the rendezvous *request* is
    out: at that point the message's matching slot at the receiver is
    secured, and the sender's ordering gate may admit the next send
    (MPI non-overtaking).
    """

    _ids = itertools.count(1)

    def __init__(self, envelope: Envelope, data: Any):
        self.send_id = next(SendHandle._ids)
        self.envelope = envelope
        self.data = data
        self.ack_flag = Flag(name="shandle-ack")
        self.flag = Flag(name="shandle-done")
        self.on_request_sent = None
        #: World rank this rendezvous targets (set by the device) — how
        #: the FT layer finds in-flight sends towards a dead peer.
        self.dest_world: int | None = None
        #: Structured failure installed by the FT layer before it
        #: releases :attr:`ack_flag` with ``None`` (peer death / revoke).
        self.error: Exception | None = None

    def notify_request_sent(self) -> None:
        callback, self.on_request_sent = self.on_request_sent, None
        if callback is not None:
            callback()
