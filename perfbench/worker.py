"""One repetition of one benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition so that every
repetition pays the import, gets its own peak-RSS figure and can be
killed on a time limit without taking the benchmark down.  The last
line of standard output is one JSON object describing the repetition.

Modes:

``plain``        tracing off (the end-to-end measurement);
``instr``        ``EngineConfig(instrumentation=True)``;
``checker``      the online checker toggled against ``plain`` (on for
                 every workload except ``cfd_halo_lossy``, whose plain
                 run already has it on, where it is switched off);
``traced``       cProfile + instrumentation + the MPI-call wrappers;
``oracle``       the reference run the digests are compared against,
                 plus Tables 1 and 2 for ``paper_error_pct``.

The program is only ever driven through its public entry points.  The
wrappers installed here time and count from outside: around world
construction and world runs, around ``Engine.step_batch`` (where every
mode but ``traced`` takes a speed sample between event batches) and,
traced, around three ``Communicator`` methods.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import statistics
import sys
import time
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("paper_report", "ml_training", "cfd_halo_lossy")
MODES = ("plain", "instr", "checker", "traced", "oracle")

#: Full-size parameters, and the reduced ones ``--quick`` uses for the
#: benchmark's own smoke test.
MACRO_PARAMS = {
    "ml_training": {"ranks": 256, "processes_per_node": 8},
    "cfd_halo": {"ranks": 256, "processes_per_node": 8,
                 "topology": "cart", "network": "ib"},
}
QUICK_PARAMS = {
    "ml_training": {"ranks": 16, "processes_per_node": 4},
    "cfd_halo": {"ranks": 16, "processes_per_node": 4,
                 "topology": "cart", "network": "ib"},
}

#: Instrumentation counters reported by the traced run (summed over
#: label sets and over every world of the repetition).
COUNTERS = ("poll.wakeups", "poll.idle_ns", "chmad.packets", "adi.mode",
            "mad.messages", "mad.bytes", "mad.blocks",
            "transport.retransmits", "transport.acks",
            "transport.duplicates", "rdma.writes", "rdma.reg_misses",
            "rdma.retransmits", "faults.dropped")

#: Steps of one speed sample (``calibrate``), about half a millisecond.
TICK_STEPS = 500
#: Speed samples taken right after the import, for the set-up phase.
SETUP_TICKS = 9

#: The MPI calls whose virtual latency the traced run records.
WRAPPED_CALLS = ("allreduce", "bcast", "recv")


class Probe:
    """Accumulates what the wrappers see over every world of one
    repetition: construction seconds, virtual time, events, CPU busy
    time, counters and checker violations.  Worlds are harvested when
    their run returns, so the probe keeps no simulation alive."""

    def __init__(self, engine_config=None):
        #: Injected into worlds the workload builds without one (the
        #: paper_report ping-pongs), so every mode reaches them too.
        self.engine_config = engine_config
        self.construct_s = 0.0
        self.worlds = 0
        self.sim_ns = 0
        self.events = 0
        self.busy_ns = 0
        self.cpu_ns = 0
        self.violations = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.modes: dict[str, int] = {}
        self.reg_hits = 0
        self.reg_lookups = 0
        self.calls: dict[str, list[float]] = {c: [] for c in WRAPPED_CALLS}
        #: Speed samples taken between event batches (see ``install``),
        #: and the host seconds they took, which the run phase excludes.
        self.sample_speed = False
        self.ticks: list[float] = []
        self.tick_s = 0.0
        #: Chrome trace events; filled only when ``record_spans``.
        self.spans: list[dict] = []
        self.record_spans = False
        self.rep = 0
        self.t0 = time.perf_counter()
        self._raw_started: dict[int, float] = {}
        self._in_world_init = 0

    def span(self, name: str, start: float, end: float) -> None:
        """A wall-clock phase (process 0 of the Chrome trace)."""
        if self.record_spans:
            self.spans.append({
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"rep": self.rep}})

    def harvest(self, session) -> None:
        engine = session.engine
        self.worlds += 1
        self.sim_ns += engine.now
        self.events += engine.events_executed
        for process in session.processes:
            self.busy_ns += process.runtime.cpu.busy_time
            self.cpu_ns += engine.now
            for protocol in process.protocols():
                cache = getattr(process.endpoint(protocol), "reg_cache", None)
                if cache is not None:
                    self.reg_hits += cache.hits
                    self.reg_lookups += cache.hits + cache.misses
        if engine.checker.enabled:
            self.violations += len(engine.checker.violations)
        if engine.instruments.enabled:
            from repro.sim.metrics import Counter
            registry = engine.instruments.metrics
            for name in COUNTERS:
                self.counters[name] += registry.total(name)
            for counter in registry.collect(Counter):
                if counter.name == "adi.mode":
                    mode = dict(counter.labels)["mode"]
                    self.modes[mode] = self.modes.get(mode, 0) + counter.value


def install(probe: Probe, wrap_calls: bool) -> None:
    """Wrap world construction and runs (and, traced, three MPI calls)."""
    from repro.cluster.session import MPIWorld
    from repro.madeleine.session import MadeleineSession
    from repro.mpi.communicator import Communicator
    from repro.sim.engine import Engine

    session_init = MadeleineSession.__init__
    session_run = MadeleineSession.run
    world_init = MPIWorld.__init__
    world_run = MPIWorld.run
    step_batch = Engine.step_batch

    def timed_session_init(self, engine=None, *args, **kwargs):
        start = time.perf_counter()
        if engine is None and probe.engine_config is not None:
            engine = Engine(config=probe.engine_config)
        session_init(self, engine, *args, **kwargs)
        if not probe._in_world_init:
            # A bare Madeleine session (raw ping-pong): its set-up lasts
            # until its run starts.
            probe._raw_started[id(self)] = start

    def timed_session_run(self, *args, **kwargs):
        start = probe._raw_started.pop(id(self), None)
        run_start = time.perf_counter()
        if start is not None:
            probe.construct_s += run_start - start
            probe.span("construct", start, run_start)
        result = session_run(self, *args, **kwargs)
        probe.span("run", run_start, time.perf_counter())
        probe.harvest(self)
        return result

    def timed_world_init(self, *args, **kwargs):
        start = time.perf_counter()
        probe._in_world_init += 1
        try:
            world_init(self, *args, **kwargs)
        finally:
            probe._in_world_init -= 1
        end = time.perf_counter()
        probe.construct_s += end - start
        probe.span("construct", start, end)

    def harvested_world_run(self, *args, **kwargs):
        start = time.perf_counter()
        results = world_run(self, *args, **kwargs)
        probe.span("run", start, time.perf_counter())
        probe.harvest(self.session)
        return results

    if probe.sample_speed:
        def sampled_step_batch(self, *args, **kwargs):
            start = time.perf_counter()
            probe.ticks.append(calibrate())
            probe.tick_s += time.perf_counter() - start
            return step_batch(self, *args, **kwargs)

        Engine.step_batch = sampled_step_batch
    MadeleineSession.__init__ = timed_session_init
    MadeleineSession.run = timed_session_run
    MPIWorld.__init__ = timed_world_init
    MPIWorld.run = harvested_world_run
    if not wrap_calls:
        return

    def wrap(name):
        original = getattr(Communicator, name)
        samples = probe.calls[name]

        def timed(engine, rank, gen):
            start = engine.now
            result = yield from gen
            samples.append((engine.now - start) / 1000.0)
            probe.spans.append({
                "name": name, "ph": "X", "pid": 1, "tid": rank,
                "ts": start / 1000.0, "dur": (engine.now - start) / 1000.0,
                "args": {"rep": probe.rep}})
            return result

        def wrapper(self, *args, **kwargs):
            gen = original(self, *args, **kwargs)
            # Only calls the application makes: the point-to-point and
            # sub-communicator calls inside a collective are not MPI
            # calls of the program.
            if "/repro/mpi/" in sys._getframe(1).f_code.co_filename:
                return gen
            process = self.env.process
            return timed(process.engine, process.rank, gen)

        setattr(Communicator, name, wrapper)

    for call in WRAPPED_CALLS:
        wrap(call)


def calibrate(rounds: int = 1, steps: int = TICK_STEPS) -> float:
    """Median host seconds of a fixed pure-Python event loop (a heap of
    timestamps driving generators, the simulator's own shape of work).

    A shared machine's speed drifts by tens of percent within seconds
    and over minutes.  Sampled between the simulator's event batches,
    and once right after the import, this tells the benchmark how fast
    the machine was while each phase ran (see ``run.speed``)."""
    def process(k):
        delay = k
        while True:
            delay = yield (delay * 7 + k) % 97 + 1

    times = []
    for _ in range(rounds):
        procs = [process(k) for k in range(64)]
        heap = [(0, k) for k in range(64)]
        for proc in procs:
            next(proc)
        start = time.perf_counter()
        for _ in range(steps):
            when, k = heapq.heappop(heap)
            heapq.heappush(heap, (when + procs[k].send(when), k))
        times.append(time.perf_counter() - start)
    return sorted(times)[rounds // 2]


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_summary(samples: list[float]) -> dict[str, float]:
    """p50 and the highest percentile with at least ten samples beyond
    it (``ptail_pct`` 0 when there are too few samples for any)."""
    ordered = sorted(samples)
    summary = {"n": len(ordered), "p50": 0.0, "ptail": 0.0,
               "ptail_pct": 0.0}
    if ordered:
        summary["p50"] = percentile(ordered, 50.0)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            summary["ptail"] = percentile(ordered, pct)
            summary["ptail_pct"] = pct
            break
    return summary


def write_chrome_trace(path: str, spans: list[dict]) -> None:
    """Spans as a Chrome trace: wall-clock phases in process 0, MPI
    calls on the virtual clock in process 1 (one thread per rank)."""
    names = [{"name": "process_name", "ph": "M", "pid": pid,
              "args": {"name": label}}
             for pid, label in ((0, "benchmark phases (wall clock)"),
                                (1, "MPI calls (virtual clock)"))]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(
        {"traceEvents": names + spans, "displayTimeUnit": "ms"}))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def paper_checks(runner):
    from repro.bench import figures
    return figures.table1_checks(runner) + figures.table2_checks(runner)


def paper_error_pct(checks) -> float:
    return 100.0 * sum(abs(c.ratio - 1.0) for c in checks) / len(checks)


def run_paper_report(quick: bool) -> tuple[float, dict]:
    """What ``python -m repro report`` runs, serially and uncached."""
    from repro.bench import figures
    from repro.runner import Runner

    start = time.perf_counter()
    runner = Runner(workers=1, cache=None)
    plans = [build(None) for build in figures.FIGURES.values()]
    if quick:
        plans = plans[:1]
    build_s = time.perf_counter() - start
    checks = paper_checks(runner)
    rendered = []
    for plan in plans:
        figure = figures.build_figure(plan, runner)
        figure.render()
        rendered.append([(s.label, s.sizes, s.latency_us, s.bandwidth_mb_s)
                         for s in figure.series.values()])
    record = [(c.quantity, c.measured) for c in checks] + rendered
    return build_s, {
        "digest": sha256(repr(record).encode()).hexdigest(),
        "paper_error_pct": paper_error_pct(checks),
        "deviating": [c.quantity for c in checks if not c.ok],
    }


#: ``ml_training`` models are drawn from a heavy-tailed size
#: distribution: across seeds the model size, and with it every
#: end-to-end metric, varies by a factor of three.  The benchmark seed
#: therefore picks among models the size of the seed-0 model (same
#: bucket count, total bytes within ``MODEL_BAND``), so that seeds vary
#: the model's shape and contents at a stated input size.
MODEL_BAND = 0.05
#: Stride between the candidate workload seeds tried for one seed.
CANDIDATE_STRIDE = 1_000_003


def ml_workload_seed(seed: int, layers: int, bucket_kib: int) -> int:
    """The first of ``seed``, ``seed + stride``, ... whose model matches
    the seed-0 model's size (seed 0 maps to itself)."""
    from repro.workloads.ml_training import gradient_buckets, model_layers

    def shape(candidate: int) -> tuple[int, int]:
        sizes = model_layers(candidate, layers)
        return sum(sizes), len(gradient_buckets(sizes, bucket_kib * 1024))

    ref_bytes, ref_buckets = shape(0)
    candidate = seed
    while True:
        total, buckets = shape(candidate)
        if buckets == ref_buckets \
                and abs(total - ref_bytes) <= MODEL_BAND * ref_bytes:
            return candidate
        candidate += CANDIDATE_STRIDE


def macro_inputs(workload: str, seed: int, quick: bool,
                 variant: str | None) -> tuple:
    """The registered workload, its seed and its parameters: the
    benchmark's input generation, done before any timing starts."""
    from repro import workloads

    name = "cfd_halo" if workload == "cfd_halo_lossy" else "ml_training"
    registered = workloads.get(name)
    params = registered.resolve((QUICK_PARAMS if quick else MACRO_PARAMS)[name])
    workload_seed = seed
    if name == "ml_training":
        workload_seed = ml_workload_seed(seed, params["layers"],
                                         params["bucket_kib"])
        if variant == "flat":
            params["algorithm"] = "default"
    return registered, workload_seed, params


def run_macro(workload: str, seed: int, inputs: tuple, mode: str,
              variant: str | None) -> tuple[float, dict]:
    """One ``ml_training`` or ``cfd_halo_lossy`` world, built and run."""
    import dataclasses
    from repro.cluster.session import MPIWorld
    from repro.faults import lossy_plan
    from repro.sim.engine import EngineConfig

    registered, workload_seed, params = inputs
    start = time.perf_counter()
    config, program = registered.build(workload_seed, **params)
    checker = mode == "checker"
    if workload == "cfd_halo_lossy":
        checker = not checker
        if variant != "fault_free":
            config = dataclasses.replace(
                config, fault_plan=lossy_plan(0.01, seed=seed + 1))
    build_s = time.perf_counter() - start
    world = MPIWorld(config, engine_config=EngineConfig(
        instrumentation=mode in ("instr", "traced"), checker=checker,
        checker_raise=False))
    results = world.run(program)
    return build_s, {"digest": registered.result_digest(results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--rep", type=int, default=0,
                        help="repetition id shared by this run's spans")
    parser.add_argument("--quick", action="store_true",
                        help="small worlds (the benchmark's smoke test)")
    parser.add_argument("--spans", default=None,
                        help="write the spans here as a Chrome trace")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.workloads  # noqa: F401  (registers the workloads)
    import repro.bench.figures  # noqa: F401
    import repro.cluster.session  # noqa: F401
    import repro.faults  # noqa: F401
    from repro.sim.engine import EngineConfig
    import_s = time.perf_counter() - t0
    setup_tick = calibrate(rounds=SETUP_TICKS)

    injected = None
    if args.mode != "oracle" and args.workload == "paper_report":
        injected = EngineConfig(
            instrumentation=args.mode in ("instr", "traced"),
            checker=args.mode == "checker", checker_raise=False)
    probe = Probe(injected)
    probe.t0, probe.rep = t0, args.rep
    probe.record_spans = args.spans is not None
    probe.sample_speed = args.mode != "traced"
    install(probe, wrap_calls=args.mode == "traced")

    variant = None
    if args.mode == "oracle":
        variant = "flat" if args.workload == "ml_training" else "fault_free"
    inputs = None
    if args.workload != "paper_report":
        inputs = macro_inputs(args.workload, args.seed, args.quick, variant)

    profiler = None
    if args.mode == "traced":
        import cProfile
        profiler = cProfile.Profile()
    t1 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    out: dict = {}
    if args.mode == "oracle":
        if inputs is not None:
            _, outcome = run_macro(args.workload, args.seed, inputs,
                                   "plain", variant)
            out["digest"] = outcome["digest"]
        from repro.runner import Runner
        checks = paper_checks(Runner(workers=1, cache=None))
        out["paper_error_pct"] = paper_error_pct(checks)
        out["deviating"] = [c.quantity for c in checks if not c.ok]
        build_s = 0.0
    elif args.workload == "paper_report":
        build_s, out = run_paper_report(args.quick)
    else:
        build_s, out = run_macro(args.workload, args.seed, inputs,
                                 args.mode, None)
    if profiler is not None:
        profiler.disable()
    t2 = time.perf_counter()

    setup_s = import_s + build_s + probe.construct_s
    out.update({
        "setup_tick_s": setup_tick,
        "run_tick_s": statistics.median(probe.ticks or [setup_tick]),
        "import_s": import_s,
        "build_s": build_s,
        "construct_s": probe.construct_s,
        "setup_s": setup_s,
        "wall_s": (t2 - t1) - build_s - probe.construct_s - probe.tick_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_time_ms": probe.sim_ns / 1e6,
        "events": probe.events,
        "worlds": probe.worlds,
        "cpu_busy_frac": probe.busy_ns / max(probe.cpu_ns, 1),
        "violations": probe.violations,
    })
    if args.mode in ("instr", "traced"):
        out["counters"] = dict(probe.counters)
        out["modes"] = dict(probe.modes)
        out["reg_hit_ratio"] = probe.reg_hits / max(probe.reg_lookups, 1)
    if profiler is not None:
        from layers import profile_layers  # perfbench/layers.py
        out["profile"] = profile_layers(profiler)
        out["calls"] = {name: tail_summary(samples)
                        for name, samples in probe.calls.items()}
        if args.spans:
            probe.span("import", t0, t0 + import_s)
            probe.span("build", t1, t1 + build_s)
            write_chrome_trace(args.spans, probe.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
