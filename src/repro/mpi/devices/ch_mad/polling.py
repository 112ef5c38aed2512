"""ch_mad polling-thread machinery (paper §4.2.3).

One Marcel thread polls each Madeleine channel.  The handler below runs
*inside* the polling thread; it unpacks the EXPRESS header, dispatches on
the packet type, and — critically — never performs a send itself: when a
rendezvous request matches an already-posted receive, the progress engine
spawns a temporary thread for the acknowledgement, and when a forwarded
packet must be relayed onwards, a temporary thread performs the relay
("a polling thread must not proceed by itself to any send operation
because deadlock situations might appear").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import MPIError
from repro.madeleine.channel import ChannelPort
from repro.madeleine.reliable import DeadChannelNotice
from repro.madeleine.constants import RECEIVE_CHEAPER, RECEIVE_EXPRESS, SEND_CHEAPER
from repro.marcel.polling import PollingThread
from repro.mpi.devices.ch_mad.forwarding import ForwardWrapper, relay
from repro.mpi.devices.ch_mad.packets import ChMadHeader, MadPktType
from repro.networks.fabric import Delivery
from repro.sim.coroutines import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.devices.ch_mad.device import ChMadDevice


def dispatch_local(device: "ChMadDevice", header: ChMadHeader,
                   body: Any) -> Generator:
    """Process one ch_mad packet addressed to this process.

    Shared by the direct receive path and the final hop of a forwarded
    packet.  Runs in the polling thread; must not send (it spawns
    temporary threads where a send is required).
    """
    checker = device.progress.runtime.engine.checker
    if checker.enabled:
        # Final-destination counterpart of the origin's on_chmad_send
        # hook — forwarded packets land here exactly once.
        checker.on_chmad_recv(device.world_rank, header)
    kind = header.pkt_type
    if kind is MadPktType.MAD_SHORT_PKT:
        yield from device.progress.deliver_eager(header.envelope, body)
    elif kind is MadPktType.MAD_REQUEST_PKT:
        from repro.mpi.devices.ch_mad.device import ChMadRndvToken
        token = ChMadRndvToken(device, header.envelope.source, header.send_id)
        yield from device.progress.deliver_rndv_request(header.envelope,
                                                        token, device)
    elif kind is MadPktType.MAD_RDMA_REQ_PKT:
        # Same matching flow as MAD_REQUEST_PKT; the token records that
        # the body will arrive by RDMA write, so the ack path registers
        # the receive buffer and answers MAD_RDMA_ACK_PKT.
        from repro.mpi.devices.ch_mad.device import ChMadRndvToken
        token = ChMadRndvToken(device, header.envelope.source, header.send_id,
                               rdma=True, envelope=header.envelope)
        yield from device.progress.deliver_rndv_request(header.envelope,
                                                        token, device)
    elif kind is MadPktType.MAD_SENDOK_PKT or \
            kind is MadPktType.MAD_RDMA_ACK_PKT:
        device._complete_ack(header.send_id, header.sync_id)
    elif kind is MadPktType.MAD_RNDV_PKT:
        yield from device.progress.deliver_rndv_data(header.sync_id,
                                                     header.envelope, body)
    elif kind is MadPktType.MAD_HB_PKT:
        # Liveness was already credited where every delivery is: the
        # process demux (piggybacked detection).  Nothing else to do.
        device.heartbeats_received += 1
    else:  # pragma: no cover - defensive
        raise MPIError(f"unknown ch_mad packet type {kind!r}")


class ChannelPoller:
    """The persistent polling thread of one Madeleine channel."""

    def __init__(self, device: "ChMadDevice", port: ChannelPort):
        self.device = device
        self.port = port
        from repro.networks import base_protocol
        self.tuning = device.tuning[base_protocol(port.channel.protocol)]
        self.thread = PollingThread(
            device.progress.runtime, port.poll_source(), self.handle
        )

    def stop(self) -> None:
        self.thread.stop()

    # -- the handler (runs in the polling thread) -----------------------------

    def handle(self, delivery: Delivery) -> Generator:
        device = self.device
        if isinstance(delivery, DeadChannelNotice):
            # The channel died; keep polling — in-flight traffic of this
            # channel is tunnelled to this very port by the transport.
            return
        checker = device.progress.runtime.engine.checker
        if checker.enabled:
            checker.on_chmad_wire(device.world_rank,
                                  self.port.channel.protocol,
                                  delivery.payload)
        incoming = yield from self.port.open_delivery(delivery)
        header = yield from incoming.unpack(
            incoming.next_block_size(), SEND_CHEAPER, RECEIVE_EXPRESS
        )
        yield charge(self.tuning.recv_handling)
        ins = device.progress.runtime.engine.instruments
        if ins.enabled and isinstance(header, ChMadHeader):
            ins.count("chmad.packets", 1, pkt=header.pkt_type.name,
                      protocol=self.port.channel.protocol,
                      rank=device.world_rank, dir="recv")
        if isinstance(header, ForwardWrapper):
            body = None
            if header.body_size > 0:
                body = yield from incoming.unpack(
                    header.body_size, SEND_CHEAPER, RECEIVE_CHEAPER
                )
            yield from incoming.end_unpacking()
            wrapper = ForwardWrapper(header.final_dest, header.origin,
                                     header.header, body, header.body_size,
                                     header.hops)
            if wrapper.final_dest == device.world_rank:
                yield from dispatch_local(device, wrapper.header, wrapper.body)
            else:
                # Relay from a temporary thread (never send while polling).
                device.packets_relayed += 1
                device.progress.runtime.spawn_temporary(
                    relay(device, wrapper), name="fwd-relay"
                )
            return
        body = None
        if incoming.remaining_blocks:
            # next_block_size() also absorbs the padded-short ablation,
            # where the body block is larger than the actual payload.
            body = yield from incoming.unpack(
                incoming.next_block_size(), SEND_CHEAPER, RECEIVE_CHEAPER
            )
        yield from incoming.end_unpacking()
        yield from dispatch_local(device, header, body)


class RdmaCompletionPoller:
    """Polls one IB endpoint's RDMA completion queue (CQ).

    An inbound rendezvous body written by a remote HCA completes here:
    the op carries its own synthetic MAD_RDMA_DATA_PKT header (the
    piggybacked completion record), so the handler can feed the ordinary
    ``deliver_rndv_data`` path — same matching, same checker shadowing —
    without the body ever having crossed the channel packet machinery.
    Like every poller, it never sends.
    """

    def __init__(self, device: "ChMadDevice", port: ChannelPort):
        self.device = device
        self.port = port
        from repro.networks import base_protocol
        from repro.marcel.polling import PollSource
        endpoint = port.endpoint
        self.tuning = device.tuning[base_protocol(port.channel.protocol)]
        source = PollSource(
            name=f"{port.channel.name}.cq@{port.rank}",
            mode=endpoint.params.poll_mode,
            mailbox=endpoint.rdma_mailbox,
            poll_cost=endpoint.params.poll_cost,
            period=endpoint.params.poll_period,
            idle_period=endpoint.params.poll_idle_period,
        )
        self.thread = PollingThread(device.progress.runtime, source,
                                    self.handle)

    def stop(self) -> None:
        self.thread.stop()

    def handle(self, op: Any) -> Generator:
        device = self.device
        checker = device.progress.runtime.engine.checker
        if checker.enabled:
            checker.on_chmad_recv(device.world_rank, op.header)
        ins = device.progress.runtime.engine.instruments
        if ins.enabled:
            ins.count("chmad.packets", 1, pkt=op.header.pkt_type.name,
                      protocol=self.port.channel.protocol,
                      rank=device.world_rank, dir="recv")
        yield charge(self.tuning.recv_handling)
        yield from device.progress.deliver_rndv_data(op.sync_id,
                                                     op.header.envelope,
                                                     op.data)
