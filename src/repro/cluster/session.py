"""MPIWorld: assemble a cluster and run MPI programs on it.

Construction order (mirrors an MPI launch over the paper's stack):

1. one :class:`~repro.networks.fabric.NetworkFabric` per distinct network;
2. one :class:`~repro.madeleine.session.MadProcess` per rank, with boards
   for its node's networks;
3. one Madeleine channel per protocol, joining every process with that
   board (ch_mad's one-channel-per-protocol mapping, §4.1);
4. per rank: an :class:`~repro.mpi.environment.MPIEnv`, its ch_self /
   smp_plug / inter-node devices, and MPI_COMM_WORLD;
5. polling threads start (the MPI_Init phase of §4.2.3).

``run(program)`` spawns one main thread per rank executing
``program(env)`` and drives the event loop until every main returns,
then performs the MPI_Finalize teardown (stop pollers, kill daemons).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Generator

from repro.errors import DeadlockError
from repro.madeleine.session import MadeleineSession, MadProcess
from repro.mpi.devices.ch_mad.device import ChMadDevice
from repro.mpi.devices.ch_p4 import ChP4Device
from repro.mpi.devices.ch_self import ChSelfDevice
from repro.mpi.devices.smp_plug import SmpPlugDevice
from repro.mpi.environment import MPIEnv
from repro.mpi.group import Group
from repro.cluster.node import ClusterConfig
from repro.networks.memory import MemoryModel
from repro.sim.engine import Engine, EngineConfig

#: A program is a callable taking the rank's MPIEnv and returning a
#: generator coroutine.
Program = Callable[[MPIEnv], Generator]


class MPIWorld:
    """One MPI job on one simulated cluster."""

    def __init__(self, config: ClusterConfig,
                 engine_config: EngineConfig | None = None):
        self.config = config
        #: One declarative object configures everything optional about
        #: the engine (seed, instrumentation, checker, fuzzing, trace
        #: sink) — see :class:`~repro.sim.engine.EngineConfig`.
        self.engine_config = engine_config
        engine = Engine(config=engine_config) if engine_config else None
        self.session = MadeleineSession(engine=engine,
                                        fault_plan=config.fault_plan,
                                        reliable=config.reliable,
                                        ft=config.ft)
        self.engine: Engine = self.session.engine
        self.envs: list[MPIEnv] = []
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        # One shared tuple for the whole world: MPIEnv keeps whatever
        # tuple it is handed (tuple(t) is t), so converting here makes
        # the locality map O(ranks) total instead of one private
        # O(ranks) copy per env — 8 MiB of pure duplication at 1024
        # ranks before this.
        node_of_rank = tuple(config.node_of_rank())
        memory = MemoryModel(config.memory) if config.memory else None

        # Fabrics for every network present anywhere (+ TCP for ch_p4).
        protocols: set[str] = set()
        for node in config.nodes:
            protocols.update(node.networks)
        if config.device == "ch_p4":
            protocols.add("tcp")
        for protocol in sorted(protocols):
            params = config.protocol_params.get(protocol)
            self.session.add_fabric(protocol, params=params)

        # Processes (ranks fill nodes in order).
        processes: list[MadProcess] = []
        for node_index, node in enumerate(config.nodes):
            for local in range(node.processes):
                nets = node.networks if config.device == "ch_mad" else ()
                process = self.session.add_process(
                    networks=nets,
                    name=f"{node.name}.p{local}",
                    memory=memory,
                    switch_cost=config.switch_cost,
                )
                processes.append(process)

        # Madeleine channels: one per protocol with >= 2 members (ch_mad).
        channels = {}
        if config.device == "ch_mad":
            for protocol in sorted(protocols):
                members = [p.rank for p in processes
                           if protocol in p.protocols()]
                if len(members) >= 2:
                    channels[protocol] = self.session.new_channel(
                        protocol, protocol, ranks=members
                    )

        # The death controller learns the locality map so a surviving
        # node-mate of a victim is told by the (simulated) OS, not by
        # network silence the shared-memory device never produces.
        if self.session.death_controller is not None:
            self.session.death_controller.node_of_rank = {
                rank: node for rank, node in enumerate(node_of_rank)
            }

        # MPI environments and devices.  The world group is built once
        # and shared by every rank's MPI_COMM_WORLD: Group is immutable,
        # and per-env groups were the single largest construction cost
        # (32 MiB of identical tuples at 1024 ranks).
        world_group = Group(range(len(node_of_rank)))
        for process in processes:
            node = config.nodes[node_of_rank[process.rank]]
            env = MPIEnv(
                process, process.rank, node_of_rank,
                byte_order=node.byte_order,
                heterogeneity_conversion=config.heterogeneity_conversion,
            )
            if self.session.detector is not None:
                from repro.mpi.ft import FTState
                # Installed before make_comm_world so every communicator
                # registers with the FT layer from birth.
                env.ft = FTState(env, self.session.detector)
            self.envs.append(env)

        ranks_by_node: dict[int, list[int]] = defaultdict(list)
        for rank, node_index in enumerate(node_of_rank):
            ranks_by_node[node_index].append(rank)

        smp_devices: dict[int, SmpPlugDevice] = {}
        for env in self.envs:
            self_device = ChSelfDevice(env.progress)
            smp_device = None
            if len(ranks_by_node[env.node]) > 1:
                smp_device = SmpPlugDevice(env.progress, env.rank)
                smp_devices[env.rank] = smp_device
            inter_device = self._make_inter_device(env, channels)
            env.install_devices(self_device, smp_device, inter_device)
            env.make_comm_world(world_group)

        # Wire up smp peers and start everything.
        for rank, device in smp_devices.items():
            node = node_of_rank[rank]
            peers = {r: smp_devices[r] for r in ranks_by_node[node]}
            device.connect(peers)
            device.start()
        # One shared all-to-all peer map for every ch_p4 device (it was
        # rebuilt and copied per rank: O(ranks²) dict entries).
        p4_peers = {e.rank: e.inter_device for e in self.envs
                    if isinstance(e.inter_device, ChP4Device)}
        for env in self.envs:
            inter = env.inter_device
            if isinstance(inter, ChP4Device):
                inter.connect(p4_peers, shared=True)
            if inter is not None:
                inter.start()
        if self.session.detector is not None:
            for env in self.envs:
                if isinstance(env.inter_device, ChMadDevice):
                    env.inter_device.start_heartbeats(self.session.detector)
                if env.ft is not None:
                    env.ft.start()

    def _make_inter_device(self, env: MPIEnv, channels: dict):
        config = self.config
        if config.world_size == 1 or len(set(config.node_of_rank())) == 1:
            # Single node: no inter-node device needed.
            return None
        if config.device == "ch_p4":
            return ChP4Device(env.progress, env.rank,
                              self.session.fabrics["tcp"])
        ports = {}
        for protocol, channel in channels.items():
            if env.rank in channel.ports:
                ports[protocol] = channel.port(env.rank)
        if not ports:
            return None
        forward_routes = None
        if config.forwarding:
            from repro.cluster.topology import compute_gateway_routes
            forward_routes = compute_gateway_routes(config).get(env.rank, {})
        return ChMadDevice(
            env.progress, env.rank, ports,
            per_network_thresholds=config.per_network_thresholds,
            preference=config.channel_preference,
            forward_routes=forward_routes,
            padded_short_packets=config.padded_short_packets,
            rdma_rendezvous=config.rdma,
        )

    # -- execution ----------------------------------------------------------------

    def run(self, program: Program, max_events: int | None = None) -> list[Any]:
        """Run ``program(env)`` on every rank; returns per-rank results.

        Raises :class:`DeadlockError` if the event queue drains while some
        rank's main thread is still blocked (a hung MPI job).
        """
        mains = []
        # Completion is counted by a per-task done callback instead of
        # scanning every main's state once per engine event (the scan was
        # ~12 % of profiled run() time on the figure benchmarks).  The
        # callback flips ``stopped`` when the last main returns; the
        # engine's batch sweep re-checks that flag between events, so the
        # run stops at exactly the event boundary the old one-step-at-a-
        # time loop stopped at (nothing executes after the last main
        # finishes and before shutdown's finalize audit).
        remaining = len(self.envs)
        stopped = [False]

        def _main_done(_task) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                stopped[0] = True

        for env in self.envs:
            task = env.process.runtime.spawn(program(env),
                                             name=f"rank{env.rank}.main")
            task.add_done_callback(_main_done)
            mains.append(task)
        executed = 0
        step_batch = self.engine.step_batch
        while not stopped[0]:
            limit = 4096
            if max_events is not None:
                budget = max_events - executed
                if budget <= 0:
                    raise self._deadlock(
                        f"exceeded max_events={max_events} with ranks still "
                        "running", mains)
                limit = min(limit, budget)
            n = step_batch(limit, stopped)
            executed += n
            if n == 0 and not stopped[0]:
                stuck = sum(1 for t in mains if not t.finished)
                raise self._deadlock(
                    f"MPI job hung: event queue drained with {stuck} "
                    "rank(s) still blocked", mains)
        self.shutdown()
        return [task.result for task in mains]

    def _deadlock(self, message: str, mains) -> DeadlockError:
        """Build a DeadlockError with the wait-for-graph diagnosis.

        The rank-level graph comes from the blocked-reason metadata every
        blocking primitive leaves on its waitable (see
        :mod:`repro.check.waitgraph`); when the waits form a cycle, the
        error names it rank by rank.
        """
        from repro.check.waitgraph import diagnose

        stuck = [t for t in mains if not t.finished]
        diag = diagnose(self.envs)
        return DeadlockError(
            message, blocked=[t.name for t in stuck],
            waiting={t.name: t.waiting_description() for t in stuck},
            cycle=diag.cycle_ranks, diagnosis=diag.text,
        )

    def shutdown(self) -> None:
        """MPI_Finalize: stop device polling threads, drain the engine."""
        for env in self.envs:
            if env.ft is not None:
                # Withdraw the FT control listeners' pending receives
                # before the leak audit: they are infrastructure, not
                # application requests.
                env.ft.stop()
        checker = self.engine.checker
        if checker.enabled:
            # Leak audit before teardown frees everything: leftover
            # requests, unexpected messages, sync structures, gate
            # tickets, unacknowledged rendezvous sends.
            for env in self.envs:
                checker.on_finalize(env)
            checker.on_world_finalize()
        for env in self.envs:
            env.shutdown()
        self.engine.run()
        cfg = self.engine_config
        if cfg is not None and cfg.trace_sink \
                and self.engine.instruments.enabled:
            self.engine.instruments.export_chrome_trace(cfg.trace_sink)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MPIWorld size={self.config.world_size} "
                f"device={self.config.device}>")
