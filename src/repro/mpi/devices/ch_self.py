"""ch_self — the loop-back device (paper §2.3, §4.1).

Self-messages never leave the process: one memcpy moves the payload from
the send buffer to the receive buffer (or to the unexpected buffer, plus
a second copy on the eventual match).  Everything is "eager" — the
threshold is unbounded, there is nothing to rendezvous with.  The
payload object arrives already detached from the user's buffer
(:func:`repro.mpi.point2point.send_impl`), so it is delivered as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.adi.packets import Envelope
from repro.mpi.adi.rhandle import SendHandle
from repro.sim.coroutines import charge, wait
from repro.units import us

#: Fixed software cost of the loop-back path (queue ops, request setup).
SELF_OVERHEAD = us(0.4)


class ChSelfDevice(Device):
    """Intra-process device."""

    name = "ch_self"

    def __init__(self, progress: ProgressEngine):
        self.progress = progress
        self.eager_threshold = 2**62  # everything is eager (by size)
        self._pending_sends: dict[int, SendHandle] = {}

    def send_eager(self, dest_world: int, envelope: Envelope,
                   data: Any) -> Generator:
        yield charge(SELF_OVERHEAD)
        # The single self-copy; deliver_eager is told not to charge again.
        yield charge(self.progress.memory.copy_cost(envelope.size))
        yield from self.progress.deliver_eager(envelope, data,
                                               charge_copy=False)

    # Rendezvous is never selected by size (the threshold is unbounded),
    # but MPI_Ssend forces it: a synchronous self-send must block until
    # the matching receive is posted.
    def send_rndv(self, dest_world: int, shandle: SendHandle) -> Generator:
        yield charge(SELF_OVERHEAD)
        token = ChSelfRndvToken(self, self_rank=dest_world,
                                send_id=shandle.send_id)
        self._pending_sends[shandle.send_id] = shandle
        yield from self.progress.deliver_rndv_request(shandle.envelope,
                                                      token, self)
        shandle.notify_request_sent()
        sync_id = yield wait(shandle.ack_flag)
        yield charge(self.progress.memory.copy_cost(shandle.envelope.size))
        yield from self.progress.deliver_rndv_data(
            sync_id, shandle.envelope, shandle.data
        )
        shandle.flag.set()

    def send_rndv_ack(self, token: "ChSelfRndvToken", sync_id: int) -> Generator:
        shandle = self._pending_sends.pop(token.send_id)
        shandle.ack_flag.set(sync_id)
        return
        yield  # pragma: no cover - generator marker


@dataclass(frozen=True)
class ChSelfRndvToken:
    """Identity of a pending self rendezvous."""

    device: ChSelfDevice
    self_rank: int
    send_id: int
