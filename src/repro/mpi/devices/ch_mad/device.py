"""The ch_mad device proper (paper §4).

Responsibilities:

- map each destination process onto a Madeleine channel (the fastest
  network both ends have a board for — channel selection is the
  multi-protocol heart of the device);
- eager mode: one Madeleine message of header (EXPRESS) + body
  (CHEAPER) — the §4.2.2 split of the ADI short packet that avoids
  shipping a padded MPID_PKT_MAX_DATA_SIZE buffer;
- rendezvous mode: MAD_REQUEST_PKT → MAD_SENDOK_PKT (carrying the
  receiver's MPID_RNDV_T sync address) → MAD_RNDV_PKT zero-copy data;
- one polling thread per channel (§4.2.3);
- the single elected eager/rendezvous threshold (§4.2.2), with an
  opt-in per-network mode used by the ablation benchmarks;
- EXTENSION (paper §6 future work): gateway forwarding for destinations
  with no shared network, via :mod:`repro.mpi.devices.ch_mad.forwarding`.
"""

from __future__ import annotations

from typing import Any, Generator

from dataclasses import dataclass

from repro.errors import (
    ChannelDeadError,
    ConfigurationError,
    FailoverExhaustedError,
    MPIError,
    MPIProcFailedError,
    RouteError,
)
from repro.networks import base_protocol
from repro.madeleine.channel import ChannelPort
from repro.madeleine.constants import RECEIVE_CHEAPER, RECEIVE_EXPRESS, SEND_CHEAPER
from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.adi.packets import Envelope
from repro.mpi.adi.rhandle import SendHandle
from repro.mpi.devices.ch_mad.forwarding import ForwardWrapper
from repro.mpi.devices.ch_mad.packets import (
    CH_MAD_HEADER_BYTES,
    FWD_ROUTING_BYTES,
    ChMadHeader,
    MadPktType,
)
from repro.mpi.devices.ch_mad.polling import ChannelPoller, RdmaCompletionPoller
from repro.mpi.devices.ch_mad.switchpoints import (
    CH_MAD_TUNING,
    CHANNEL_PREFERENCE,
    SWITCH_POINTS,
    ChMadTuning,
    elect_threshold,
)
from repro.sim.coroutines import charge, sleep, wait


@dataclass(frozen=True)
class ChMadRndvToken:
    """Identity of a pending rendezvous request (who to acknowledge).

    ``rdma`` marks a rendezvous whose body will arrive as one RDMA write
    instead of a MAD_RNDV_PKT: the ack path must pre-register the receive
    buffer (``envelope`` carries its size) and answer with
    MAD_RDMA_ACK_PKT so the sender knows the write may go.
    """

    device: "ChMadDevice"
    requester_world: int
    send_id: int
    rdma: bool = False
    envelope: Envelope | None = None


class ChMadDevice(Device):
    """All inter-node communication, over Madeleine channels."""

    name = "ch_mad"

    def __init__(self, progress: ProgressEngine, world_rank: int,
                 ports: dict[str, ChannelPort],
                 tuning: dict[str, ChMadTuning] | None = None,
                 per_network_thresholds: bool = False,
                 switch_points: dict[str, int] | None = None,
                 preference: tuple[str, ...] | None = None,
                 forward_routes: dict[int, int] | None = None,
                 padded_short_packets: bool = False,
                 rdma_rendezvous: bool = True):
        if not ports:
            raise ConfigurationError("ch_mad needs at least one channel port")
        self.progress = progress
        self.world_rank = world_rank
        self.ports = dict(ports)
        self.tuning = dict(tuning or CH_MAD_TUNING)
        self.switch_points = dict(switch_points or SWITCH_POINTS)
        #: The ADI's single threshold field: the elected value (§4.2.2).
        self.eager_threshold = elect_threshold(ports.keys(),
                                               self.switch_points)
        #: Ablation switch: pretend the ADI could store one threshold per
        #: network (what the paper wishes for) — see the ablation bench.
        self.per_network_thresholds = per_network_thresholds
        #: Ablation switch: ship eager bodies inside a fixed
        #: MPID_PKT_MAX_DATA_SIZE buffer instead of the §4.2.2 split —
        #: reproduces the padding waste the paper's design avoids.
        self.padded_short_packets = padded_short_packets
        #: Channel-selection order (fastest-first by default); overridable
        #: to steer traffic onto a specific network (Figure 9 experiment).
        self.preference = tuple(preference or CHANNEL_PREFERENCE)
        #: Next-hop table for destinations with no shared network
        #: (forwarding extension; empty = paper's §6 limitation applies).
        self.forward_routes = dict(forward_routes or {})
        #: Rendezvous-over-RDMA on IB channels (off = packetized ablation:
        #: large messages take the MAD_RNDV_PKT path even on IB).
        self.rdma_rendezvous = rdma_rendezvous
        self._pending_sends: dict[int, SendHandle] = {}
        self._pollers: list = []
        self.packets_relayed = 0
        self.heartbeats_received = 0
        #: Session failure detector; set by :meth:`start_heartbeats` when
        #: the run is fault-tolerant.  When present, stale rendezvous
        #: acks (whose pending send the FT layer already failed) are
        #: tolerated instead of fatal.
        self.detector = None
        #: context id -> lane index, installed by the multi-lane
        #: collectives (:mod:`repro.mpi.coll.multilane`).  Traffic on an
        #: assigned context is steered to rail ``lane % live rails``
        #: instead of the preference-order winner.
        self.context_lanes: dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn one polling thread per channel (§4.2.3).

        IB channels get a second poller over the endpoint's RDMA
        completion queue: inbound rendezvous bodies written by remote
        HCAs complete there, never through the channel packet machinery.
        """
        for protocol in sorted(self.ports):
            port = self.ports[protocol]
            self._pollers.append(ChannelPoller(self, port))
            if base_protocol(protocol) == "ib" and \
                    hasattr(port.endpoint, "rdma_mailbox"):
                self._pollers.append(RdmaCompletionPoller(self, port))
            port.channel.add_death_listener(self._on_channel_death)

    def _on_channel_death(self, channel) -> None:
        """A channel died: future traffic re-routes, threshold re-elects.

        New sends naturally avoid the dead channel (``direct_port`` skips
        it); already-queued wire traffic is tunnelled by the reliable
        transport.  The ADI's single threshold field must be re-elected
        from the survivors — losing SCI, for example, drops the elected
        8 KB back to the survivors' own switch point (§4.2.2).
        """
        live = [name for name, port in self.ports.items()
                if not port.channel.dead]
        if not live:
            return  # nothing to elect from; sends will fail over loudly
        old = self.eager_threshold
        self.eager_threshold = elect_threshold(live, self.switch_points)
        engine = self.progress.runtime.engine
        engine.tracer.emit(
            "chmad.reelect_threshold", rank=self.world_rank,
            dead=channel.name, old=old, new=self.eager_threshold,
        )

    def start_heartbeats(self, detector) -> None:
        """Spawn the low-rate liveness heartbeat daemon (FT runs only).

        Piggybacked liveness covers busy periods for free; the heartbeat
        covers *idle* ones, where a dead peer's silence would otherwise
        be indistinguishable from a quiet one.  Beats go out on **every**
        live channel towards each peer, not just the preferred one — one
        fabric dying must not starve the liveness evidence that keeps
        the detector from misdiagnosing the peer itself as dead.
        """
        self.detector = detector

        def body() -> Generator:
            process = self.progress.process
            while True:
                yield sleep(detector.heartbeat_interval)
                if process.dead:
                    return
                yield from self._send_heartbeats()

        self.progress.runtime.spawn(body(), name="ft-heartbeat", daemon=True)

    def _send_heartbeats(self) -> Generator:
        engine = self.progress.runtime.engine
        header = ChMadHeader(MadPktType.MAD_HB_PKT)
        for name in sorted(self.ports):
            port = self.ports[name]
            if port.channel.dead:
                continue
            tuning = self.tuning[base_protocol(port.channel.protocol)]
            for peer in sorted(port.channel.ports):
                if peer == self.world_rank or peer in self.detector.dead_ranks:
                    continue
                try:
                    yield charge(tuning.send_handling)
                    message = port.begin_packing(peer)
                    yield from message.pack(header, CH_MAD_HEADER_BYTES,
                                            SEND_CHEAPER, RECEIVE_EXPRESS)
                    yield from message.end_packing()
                except FailoverExhaustedError:
                    self.detector.on_unreachable(peer)
                except (ChannelDeadError, RouteError):
                    continue  # the channel died mid-beat; next round adapts
                else:
                    ins = engine.instruments
                    if ins.enabled:
                        ins.count("ft.heartbeats", 1, rank=self.world_rank,
                                  protocol=port.channel.protocol)

    def shutdown(self) -> None:
        for poller in self._pollers:
            poller.stop()
        self._pollers.clear()
        for port in self.ports.values():
            if port.transport is not None:
                # One transport per process: cancel trailing ack timers so
                # they cannot fire into the torn-down session.
                port.transport.cancel_pending()
                break

    # -- channel selection ---------------------------------------------------------

    def direct_port(self, dest_world: int,
                    lane: int | None = None) -> ChannelPort | None:
        """Fastest channel shared with the destination, if any.

        Rails of one protocol (``"bip"``, ``"bip#1"``) share a preference
        slot; the lowest-named rail that reaches the destination wins.
        With a ``lane``, selection rotates through *all* live rails that
        reach the destination (preference order, then name order), so
        lanes land on distinct rails wherever enough exist — and fold
        onto the survivors, modulo, when rails die.
        """
        candidates: list[ChannelPort] = []
        for protocol in self.preference:
            for name in sorted(self.ports):
                if base_protocol(name) != protocol:
                    continue
                port = self.ports[name]
                if port.channel.dead:
                    continue
                if dest_world in port.channel.ports:
                    if lane is None:
                        return port
                    candidates.append(port)
        if not candidates:
            return None
        return candidates[lane % len(candidates)]

    # -- multi-lane support (repro.mpi.coll.multilane) -------------------------

    def lane_count(self, dest_world: int | None = None) -> int:
        """Number of live rails (optionally: that reach ``dest_world``)."""
        count = 0
        for port in self.ports.values():
            if port.channel.dead:
                continue
            if dest_world is not None and \
                    dest_world not in port.channel.ports:
                continue
            count += 1
        return max(count, 1)

    def assign_lane(self, context_ids, lane: int) -> None:
        """Steer every context in ``context_ids`` onto rail ``lane``."""
        for context_id in context_ids:
            self.context_lanes[int(context_id)] = int(lane)

    def _lane_of(self, header: ChMadHeader) -> int | None:
        """Lane of one outgoing packet, from its envelope's context.

        Control packets without an envelope (SENDOK, heartbeats) take the
        default rail — they are tiny and order-insensitive.
        """
        if not self.context_lanes:
            return None
        envelope = header.envelope
        if envelope is None:
            return None
        return self.context_lanes.get(envelope.context_id)

    def select_port(self, dest_world: int) -> ChannelPort:
        port = self.direct_port(dest_world)
        if port is None:
            if any(dest_world in p.channel.ports
                   for p in self.ports.values() if p.channel.dead):
                raise FailoverExhaustedError(
                    f"rank {self.world_rank}: every channel towards rank "
                    f"{dest_world} is dead",
                    remote_rank=dest_world,
                )
            raise ConfigurationError(
                f"rank {self.world_rank} shares no network with rank "
                f"{dest_world} (enable forwarding, or see "
                "repro.mpi.devices.ch_mad.forwarding)"
            )
        return port

    def threshold(self, dest_world: int) -> int:
        """Effective eager/rendezvous switch point towards ``dest_world``."""
        if not self.per_network_thresholds:
            return self.eager_threshold
        port = self.direct_port(dest_world)
        if port is None:
            return self.eager_threshold
        return self.switch_points[base_protocol(port.channel.protocol)]

    def _padded_body_size(self, size: int) -> int:
        """Eager body size on the wire under the padded-short ablation.

        The padded MPID_PKT_SHORT_T buffer must fit the largest switch
        point among the supported networks (§4.2.2's problem statement).
        """
        if not self.padded_short_packets:
            return size
        return max(self.switch_points[base_protocol(p)] for p in self.ports)

    # -- packet transmission core ----------------------------------------------------

    def _transmit_packet(self, dest_world: int, header: ChMadHeader,
                         body: Any, body_size: int,
                         wire_body_size: int | None = None) -> Generator:
        """Send one ch_mad packet, forwarding through a gateway if needed."""
        engine = self.progress.runtime.engine
        checker = engine.checker
        if checker.enabled:
            # Hooked before the forwarding branch: the checker sees each
            # logical packet exactly once, at its origin (relays re-enter
            # through send_wrapped, never through here).
            checker.on_chmad_send(self.world_rank, dest_world, header)
        port = self.direct_port(dest_world, lane=self._lane_of(header))
        if port is None:
            if dest_world not in self.forward_routes:
                self.select_port(dest_world)  # raises the descriptive error
            wrapper = ForwardWrapper(final_dest=dest_world,
                                     origin=self.world_rank,
                                     header=header, body=body,
                                     body_size=body_size)
            yield from self.send_wrapped(dest_world, wrapper)
            return
        tuning = self.tuning[base_protocol(port.channel.protocol)]
        engine.tracer.emit(
            "chmad.send", src=self.world_rank, dst=dest_world,
            pkt=header.pkt_type.name, protocol=port.channel.protocol,
            body=body_size,
        )
        ins = engine.instruments
        if ins.enabled:
            ins.count("chmad.packets", 1, pkt=header.pkt_type.name,
                      protocol=port.channel.protocol, rank=self.world_rank,
                      dir="send")
        yield charge(tuning.send_handling)
        message = port.begin_packing(dest_world)
        yield from message.pack(header, CH_MAD_HEADER_BYTES,
                                SEND_CHEAPER, RECEIVE_EXPRESS)
        if body_size > 0 or (wire_body_size or 0) > 0:
            yield from message.pack(body, wire_body_size
                                    if wire_body_size is not None
                                    else body_size,
                                    SEND_CHEAPER, RECEIVE_CHEAPER)
        yield from message.end_packing()

    def send_wrapped(self, final_dest: int, wrapper: ForwardWrapper) -> Generator:
        """Transmit a forwarded packet to the next hop towards its dest."""
        if self.direct_port(final_dest) is not None:
            hop = final_dest  # last hop: deliver the wrapper directly
        else:
            hop = self.forward_routes.get(final_dest)
        if hop is None:
            raise RouteError(
                f"rank {self.world_rank}: no route to rank {final_dest} "
                "(forwarding disabled or topology disconnected)"
            )
        port = self.direct_port(hop)
        if port is None:
            raise RouteError(
                f"rank {self.world_rank}: next hop {hop} for rank "
                f"{final_dest} is not directly reachable"
            )
        tuning = self.tuning[base_protocol(port.channel.protocol)]
        yield charge(tuning.send_handling)
        message = port.begin_packing(hop)
        yield from message.pack(wrapper,
                                CH_MAD_HEADER_BYTES + FWD_ROUTING_BYTES,
                                SEND_CHEAPER, RECEIVE_EXPRESS)
        if wrapper.body_size > 0:
            yield from message.pack(wrapper.body, wrapper.body_size,
                                    SEND_CHEAPER, RECEIVE_CHEAPER)
        yield from message.end_packing()

    # -- send paths ------------------------------------------------------------------

    def send_eager(self, dest_world: int, envelope: Envelope,
                   data: Any) -> Generator:
        """Eager mode: MAD_SHORT_PKT header + optional CHEAPER body."""
        header = ChMadHeader(MadPktType.MAD_SHORT_PKT, envelope=envelope)
        # The §4.2.2 split: the user buffer goes as the message body
        # (zero-copy on the sending side), never as padding inside a
        # MPID_PKT_MAX_DATA_SIZE-sized short packet — unless the padded
        # ablation is on, which shows exactly that waste.
        wire_size = self._padded_body_size(envelope.size) if envelope.size else 0
        yield from self._transmit_packet(dest_world, header, data,
                                         envelope.size,
                                         wire_body_size=wire_size)

    def send_rndv(self, dest_world: int, shandle: SendHandle) -> Generator:
        """Rendezvous, sender side: request, await ack, send data (§4.2.2)."""
        if self.rdma_rendezvous:
            port = self.direct_port(dest_world,
                                    lane=self._lane_of(
                                        ChMadHeader(MadPktType.MAD_REQUEST_PKT,
                                                    envelope=shandle.envelope)))
            if port is not None and \
                    base_protocol(port.channel.protocol) == "ib" and \
                    hasattr(port.endpoint, "rdma_write"):
                yield from self._send_rndv_rdma(dest_world, shandle, port)
                return
        shandle.dest_world = dest_world
        self._pending_sends[shandle.send_id] = shandle
        yield from self._transmit_packet(
            dest_world,
            ChMadHeader(MadPktType.MAD_REQUEST_PKT, envelope=shandle.envelope,
                        send_id=shandle.send_id),
            None, 0,
        )
        shandle.notify_request_sent()  # match slot secured: release ordering
        # Step 2: the receiver replies with the sync structure's address.
        # Wait-for-graph metadata: this wait depends on the receiver rank.
        shandle.ack_flag.rank_dep = dest_world
        shandle.ack_flag.dep_describe = (
            f"rendezvous SENDOK from rank {dest_world} "
            f"(send_id={shandle.send_id})")
        sync_id = yield wait(shandle.ack_flag)
        if sync_id is None:
            # The FT layer failed this send (peer death / revoke) and
            # released the ack flag with no sync address.  Surface the
            # structured error instead of transmitting into the void.
            self._pending_sends.pop(shandle.send_id, None)
            raise shandle.error or MPIProcFailedError(
                f"rendezvous to rank {dest_world} aborted: peer failed",
                failed_rank=dest_world,
            )
        # Step 3: data destination is known — zero-copy transfer.
        protocol = self._protocol_towards(dest_world)
        tuning = self.tuning[base_protocol(protocol)]
        if tuning.rndv_body_ns_per_byte:
            # Driver-side per-byte feeding cost (BIP credit machinery).
            yield charge(round(shandle.envelope.size
                               * tuning.rndv_body_ns_per_byte))
        yield from self._transmit_packet(
            dest_world,
            ChMadHeader(MadPktType.MAD_RNDV_PKT, envelope=shandle.envelope,
                        sync_id=sync_id),
            shandle.data, shandle.envelope.size,
        )
        shandle.flag.set()

    def _send_rndv_rdma(self, dest_world: int, shandle: SendHandle,
                        port: ChannelPort) -> Generator:
        """Rendezvous over RDMA (Liu et al.): zero-copy body, no packets.

        Control flow mirrors :meth:`send_rndv` — request, await ack —
        but the request pre-registers the send buffer (amortized by the
        registration cache), the ack certifies the receive buffer is
        registered, and the body goes as **one RDMA write** straight
        into it: no MAD_RNDV_PKT, no pack/unpack, no per-byte CPU on
        either side.  Completion is piggybacked: the write itself is the
        receiver's notification (via its HCA completion queue).
        """
        engine = self.progress.runtime.engine
        envelope = shandle.envelope
        shandle.dest_world = dest_world
        self._pending_sends[shandle.send_id] = shandle
        endpoint = port.endpoint
        yield from endpoint.register(
            ("rndv-send", envelope.context_id, dest_world, envelope.tag,
             envelope.size),
            envelope.size,
        )
        yield from self._transmit_packet(
            dest_world,
            ChMadHeader(MadPktType.MAD_RDMA_REQ_PKT, envelope=envelope,
                        send_id=shandle.send_id),
            None, 0,
        )
        shandle.notify_request_sent()
        shandle.ack_flag.rank_dep = dest_world
        shandle.ack_flag.dep_describe = (
            f"RDMA rendezvous ack from rank {dest_world} "
            f"(send_id={shandle.send_id})")
        sync_id = yield wait(shandle.ack_flag)
        if sync_id is None:
            self._pending_sends.pop(shandle.send_id, None)
            raise shandle.error or MPIProcFailedError(
                f"rendezvous to rank {dest_world} aborted: peer failed",
                failed_rank=dest_world,
            )
        header = ChMadHeader(MadPktType.MAD_RDMA_DATA_PKT, envelope=envelope,
                             sync_id=sync_id)
        checker = engine.checker
        if checker.enabled:
            checker.on_chmad_send(self.world_rank, dest_world, header)
        engine.tracer.emit(
            "chmad.send", src=self.world_rank, dst=dest_world,
            pkt=header.pkt_type.name, protocol=port.channel.protocol,
            body=envelope.size,
        )
        ins = engine.instruments
        if ins.enabled:
            ins.count("chmad.packets", 1, pkt=header.pkt_type.name,
                      protocol=port.channel.protocol, rank=self.world_rank,
                      dir="send")
        remote = port.channel.port(dest_world).endpoint
        yield from endpoint.rdma_write(remote, header, envelope, sync_id,
                                       shandle.data, envelope.size)
        shandle.flag.set()

    def send_rndv_ack(self, token: ChMadRndvToken, sync_id: int) -> Generator:
        """Rendezvous, receiver side: MAD_SENDOK_PKT with our sync id.

        For an RDMA rendezvous the receive buffer must be registered
        *before* the ack goes out — the ack is the sender's licence to
        write — and the ack travels as MAD_RDMA_ACK_PKT.
        """
        if token.rdma:
            port = self.direct_port(token.requester_world)
            if port is not None and hasattr(port.endpoint, "register") and \
                    token.envelope is not None:
                yield from port.endpoint.register(
                    ("rndv-recv", token.envelope.context_id,
                     token.requester_world, token.envelope.tag,
                     token.envelope.size),
                    token.envelope.size,
                )
            yield from self._transmit_packet(
                token.requester_world,
                ChMadHeader(MadPktType.MAD_RDMA_ACK_PKT,
                            send_id=token.send_id, sync_id=sync_id),
                None, 0,
            )
            return
        yield from self._transmit_packet(
            token.requester_world,
            ChMadHeader(MadPktType.MAD_SENDOK_PKT, send_id=token.send_id,
                        sync_id=sync_id),
            None, 0,
        )

    def _protocol_towards(self, dest_world: int) -> str:
        port = self.direct_port(dest_world)
        if port is not None:
            return port.channel.protocol
        hop = self.forward_routes.get(dest_world)
        if hop is not None:
            hop_port = self.direct_port(hop)
            if hop_port is not None:
                return hop_port.channel.protocol
        raise RouteError(f"no path towards rank {dest_world}")

    # -- polling-thread callbacks -------------------------------------------------------

    def _complete_ack(self, send_id: int, sync_id: int) -> None:
        shandle = self._pending_sends.pop(send_id, None)
        if shandle is None:
            if self.detector is not None:
                # FT already failed this send (its peer was declared
                # dead, or the comm revoked) — the straggler SENDOK from
                # a rank that was merely slow is expected, not fatal.
                ins = self.progress.runtime.engine.instruments
                if ins.enabled:
                    ins.count("ft.stale_acks", 1, rank=self.world_rank)
                return
            raise MPIError(f"MAD_SENDOK_PKT for unknown send id {send_id}")
        shandle.ack_flag.set(sync_id)
