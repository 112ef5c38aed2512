"""Ping-pong result types and the MPI-level ping-pong driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.units import bandwidth_mb_s, to_us, us

#: Extra idle time inserted before repetition k of a ping-pong.  Real
#: mpptest reps start at effectively random phases relative to periodic
#: pollers (TCP select); min-of-reps then reports the best alignment.
#: The simulator is deterministic, so the harness staggers reps
#: explicitly to sample phases.
PHASE_STEP = us(5)


@dataclass(frozen=True)
class PingPongResult:
    """Outcome of one ping-pong measurement at one message size."""

    label: str
    size: int
    reps: int
    one_way_ns: int          # min(round-trip)/2, mpptest convention
    mean_one_way_ns: float

    @property
    def latency_us(self) -> float:
        """One-way transfer time in microseconds."""
        return to_us(self.one_way_ns)

    @property
    def bandwidth_mb_s(self) -> float:
        """Payload bandwidth in MB/s (1 MB = 10^6 B, paper convention)."""
        return bandwidth_mb_s(self.size, self.one_way_ns)

    @property
    def mean_latency_us(self) -> float:
        """Mean one-way time — used where interference matters (Fig. 9)."""
        return self.mean_one_way_ns / 1000.0

    @property
    def mean_bandwidth_mb_s(self) -> float:
        if self.mean_one_way_ns <= 0:
            return 0.0
        return (self.size / 1e6) / (self.mean_one_way_ns / 1e9)

    def __str__(self) -> str:
        return (f"{self.label}: {self.size} B -> {self.latency_us:.2f} us, "
                f"{self.bandwidth_mb_s:.2f} MB/s")


def summarize_roundtrips(label: str, size: int,
                         roundtrips: Sequence[int]) -> PingPongResult:
    """Fold measured round-trip times into a :class:`PingPongResult`."""
    if not roundtrips:
        raise ValueError("no measured round-trips")
    best = min(roundtrips)
    mean = sum(roundtrips) / len(roundtrips)
    return PingPongResult(
        label=label, size=size, reps=len(roundtrips),
        one_way_ns=best // 2, mean_one_way_ns=mean / 2,
    )


def custom_pingpong(config, size: int, ranks: tuple[int, int] = (0, 1),
                    reps: int = 5, warmup: int = 2, tag: int = 99,
                    label: str = "custom") -> PingPongResult:
    """Ping-pong between two ranks of an arbitrary cluster config.

    :func:`mpi_pingpong` runs it on the two-node default; the ablation
    and forwarding benchmarks pass cluster shapes beyond it (gateways,
    overridden protocol parameters, ablation flags).
    """
    from repro.cluster.session import MPIWorld
    from repro.sim.coroutines import now, sleep

    world = MPIWorld(config)
    rounds = warmup + reps
    payload = b"\x00" * min(size, 1)
    pinger, ponger = ranks
    roundtrips: list[int] = []

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == pinger:
            for rep in range(rounds):
                yield sleep(rep * PHASE_STEP)
                start = yield now()
                yield from comm.send(payload, dest=ponger, tag=tag, size=size)
                yield from comm.recv(source=ponger, tag=tag, size=size)
                end = yield now()
                roundtrips.append(end - start)
        elif comm.rank == ponger:
            for _ in range(rounds):
                yield from comm.recv(source=pinger, tag=tag, size=size)
                yield from comm.send(payload, dest=pinger, tag=tag, size=size)
        return None

    world.run(program)
    return summarize_roundtrips(label=label, size=size,
                                roundtrips=roundtrips[warmup:])


def mpi_pingpong(size: int, networks: Sequence[str] = ("sisci",),
                 device: str = "ch_mad", reps: int = 5, warmup: int = 2,
                 active_network: str | None = None,
                 tag: int = 99) -> PingPongResult:
    """Ping-pong through the full MPI stack between two single-process nodes.

    ``networks`` lists the protocols whose boards (and therefore ch_mad
    polling threads) are present; ``active_network`` picks which one
    carries the traffic (default: the first).  Passing several networks
    with one active reproduces the paper's Figure 9 experiment.

    ``device`` selects the inter-node device: ``"ch_mad"`` (the paper's
    contribution) or ``"ch_p4"`` (the MPICH TCP baseline, which ignores
    ``networks`` and always runs over TCP).
    """
    from repro.cluster.config import two_node_cluster

    if device == "ch_p4":
        networks = ("tcp",)  # ch_p4 is TCP-only by construction
    config = two_node_cluster(networks=networks, device=device,
                              active_network=active_network)
    return custom_pingpong(config, size, reps=reps, warmup=warmup, tag=tag,
                           label=f"{device}/{active_network or networks[0]}")
