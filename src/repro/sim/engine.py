"""The discrete-event engine: a clock and an event queue.

Determinism contract: events scheduled for the same timestamp fire in the
order they were scheduled (FIFO), enforced by a monotonically increasing
sequence number used as a priority tie-breaker.  Nothing in the simulator
uses wall-clock time or unseeded randomness, so a run is a pure function
of its inputs.

Hot-path layout (the per-event cost dominates every benchmark's
wall-clock, see DESIGN.md "Simulator performance"):

- a queue entry is a plain tuple ``(time, seq, callback, args)``:
  ``heapq`` compares C-level tuples (``seq`` is unique, so a comparison
  never reaches the callback), and a fire-and-forget event — charge
  completions, sleeper wakes, dispatches, the bulk of all events — is
  nothing but that tuple.  A cancellable event (:meth:`schedule`) is the
  entry ``(time, seq, None, event)`` around an :class:`Event` handle.
  The entry format is private to this module;
- zero-delay events — overwhelmingly CPU dispatch requests — bypass the
  heap entirely and live in a FIFO deque.  Because an entry's timestamp
  equals the clock when it was appended and the clock cannot pass a
  queued event, the deque is always sorted by ``(time, seq)``;
  ``step_batch`` merely compares the queue heads, preserving the exact
  global ordering a single heap would produce;
- cancellation is lazy (O(1)) with an O(1) live-event counter behind
  :meth:`pending`; when cancelled events outnumber live ones the queues
  are compacted so a cancel-heavy workload (retransmit timers) cannot
  bloat the heap.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.check.checker import NULL_CHECKER, Checker
from repro.errors import SimulationError
from repro.sim.metrics import NULL_INSTRUMENTS, Instrumentation
from repro.sim.trace import NULL_TRACER


def seed_namespace(*parts: Any) -> str:
    """Canonical ``/``-joined RNG namespace string.

    Every seeded stream in the repository derives its namespace through
    this one helper — :meth:`Engine.rng`, the schedule fuzzer's
    ``fuzz/{seed}/…`` streams, the randomized workloads — so namespace
    derivation cannot silently drift between subsystems (it used to be
    re-implemented with f-strings at each site).
    """
    return "/".join(str(part) for part in parts)


@dataclass(frozen=True)
class EngineConfig:
    """Everything optional about an engine, in one declarative object.

    One serializable configuration accepted by :class:`Engine` and
    :class:`~repro.cluster.session.MPIWorld`::

        world = MPIWorld(cluster, engine_config=EngineConfig(
            instrumentation=True, checker=True, fuzz_seed=17))

    ``trace_sink`` names a file path; when set, instrumentation is
    implied and :meth:`MPIWorld.shutdown` exports the Chrome trace there.
    """

    #: Root seed for every engine RNG namespace (:meth:`Engine.rng`).
    seed: int = 0
    #: Install the metrics/tracing facade (:mod:`repro.sim.metrics`).
    instrumentation: bool = False
    #: Install the online MPI semantics checker (:mod:`repro.check`).
    checker: bool = False
    #: Raise on the first checker violation (else accumulate).
    checker_raise: bool = True
    #: Install the schedule fuzzer with this seed (None = baseline).
    fuzz_seed: int | None = None
    #: Chrome-trace export path, written at MPI_Finalize (implies
    #: ``instrumentation``).
    trace_sink: str | None = None
    #: Engine-wide collective algorithm selection: one registry name
    #: (``"hier"``) or ``"op=name"`` pairs
    #: (``"allreduce=multilane,bcast=binomial"``); see
    #: :mod:`repro.mpi.coll`.  Validated against the registry by
    #: :meth:`Engine.apply_config`.  None defers to the
    #: ``REPRO_COLL_ALG`` environment variable, then the defaults.
    coll_algorithm: str | None = None

    @property
    def wants_instrumentation(self) -> bool:
        return self.instrumentation or self.trace_sink is not None


def install_instrumentation(engine: "Engine") -> Instrumentation:
    """Install and return a live metrics/tracing facade on ``engine``.

    The facade's tracer also becomes ``engine.tracer``, so one call
    turns on both the typed instruments and the record stream.
    """
    instruments = Instrumentation(engine)
    engine.instruments = instruments
    engine.tracer = instruments.tracer
    return instruments


def install_checker(engine: "Engine",
                    raise_on_violation: bool = True) -> Checker:
    """Install and return the live online semantics checker on ``engine``.

    Every protocol hook in the stack (ADI sends/matches, ch_mad packet
    handlers, Madeleine transmissions, the reliable transport,
    MPI_Finalize) starts shadow-checking its invariants; violations
    raise :class:`~repro.errors.CheckViolation` (or, with
    ``raise_on_violation=False``, accumulate in ``checker.violations``).
    """
    checker = Checker(engine, raise_on_violation=raise_on_violation)
    engine.checker = checker
    return checker


class Event:
    """A cancellable scheduled callback.  Returned by :meth:`Engine.schedule`.

    A cancelled event stays queued but is skipped when popped (lazy
    deletion, O(1) cancel).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine",
                 "_done")

    def __init__(self, time: int, seq: int, callback: Callable[..., Any],
                 args: tuple, engine: "Engine"):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine
        self._done = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        self._engine._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state} {self.callback!r}>"


#: Compaction is considered once at least this many cancelled events are
#: queued (tiny queues are not worth rebuilding).
_COMPACT_MIN = 64


class Engine:
    """Priority-queue event loop over integer-nanosecond virtual time."""

    def __init__(self, seed: int = 0, *,
                 config: EngineConfig | None = None) -> None:
        if config is not None:
            seed = config.seed
        #: The declarative configuration this engine was built from
        #: (None when constructed through the bare ``Engine(seed)`` path).
        self.config = config
        self._now: int = 0
        self._seq: int = 0
        #: Timed entries, a (time, seq) min-heap.
        self._queue: list[tuple] = []
        #: Zero-delay entries in FIFO (== (time, seq)) order.
        self._immediate: deque[tuple] = deque()
        #: Poller self-clock entries ``(time, seq, callback, args, cpu)``
        #: — same ordering contract, filed apart so
        #: :meth:`next_payload_time` can see past them (one entry per
        #: sleeping periodic poller, so this heap stays tiny).
        self._clock_queue: list[tuple] = []
        #: Per-CPU mirror of the clock queue's wake times (cpu -> time
        #: min-heap).  :meth:`next_payload_time` used to linear-scan the
        #: clock queue per idle-skip — fine at 2 pollers, O(ranks²) in a
        #: 1024-rank quiescent world.  The mirror makes the per-CPU peek
        #: O(1): this is what lets idle ranks fast-forward at ~zero cost
        #: regardless of world size.
        self._clock_by_cpu: dict[Any, list[int]] = {}
        #: Min-heap of pinned clock-event times (:meth:`pin_payload`);
        #: :meth:`next_payload_time` pops the stale ones.
        self._pinned: list[int] = []
        #: Cancelled events still sitting in either queue.
        self._cancelled: int = 0
        #: The running sweep's ``stop_flag`` (see :meth:`quiet_now`).
        self._stop_flag: Any = None
        self._running = False
        #: Number of events executed so far (diagnostic).
        self.events_executed: int = 0
        #: Structured tracing hook (off by default; see repro.sim.trace).
        self.tracer = NULL_TRACER
        #: Metrics + tracing facade (off by default; see repro.sim.metrics).
        self.instruments = NULL_INSTRUMENTS
        #: Online MPI semantics checker (off by default; see repro.check).
        self.checker = NULL_CHECKER
        #: Schedule-fuzz perturbations (None = deterministic baseline
        #: schedule; see repro.check.fuzz.install_fuzz).
        self.fuzz = None
        #: Root seed for every random decision made inside this simulation.
        self.seed = int(seed)
        self._rngs: dict[str, random.Random] = {}
        if config is not None:
            self.apply_config(config)

    def apply_config(self, config: EngineConfig) -> "Engine":
        """Install whatever ``config`` asks for; returns ``self``."""
        self.config = config
        if config.wants_instrumentation:
            install_instrumentation(self)
        if config.checker:
            install_checker(self, raise_on_violation=config.checker_raise)
        if config.fuzz_seed is not None:
            from repro.check.fuzz import install_fuzz
            install_fuzz(self, config.fuzz_seed)
        if config.coll_algorithm is not None:
            # Validate against the registry now, so a typo fails the run
            # before any rank starts (lazy import: the registry lives in
            # the MPI layer, which imports this module).
            from repro.mpi.coll import parse_selection
            self.coll_selection = parse_selection(config.coll_algorithm)
        return self

    def rng(self, namespace: str = "") -> random.Random:
        """The engine-owned RNG for ``namespace``, seeded from the root seed.

        All stochastic decisions (fault injection, randomized workloads)
        must draw from an engine RNG so a run is a pure function of
        ``(configuration, seed)``.  Namespacing keeps independent consumers
        from perturbing each other's streams.
        """
        gen = self._rngs.get(namespace)
        if gen is None:
            gen = self._rngs[namespace] = random.Random(
                seed_namespace(self.seed, namespace))
        return gen

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time in integer nanoseconds."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self._file(self._now + int(delay), callback, args)

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        return self._file(int(time), callback, args)

    def _file(self, time: int, callback: Callable[..., Any],
              args: tuple) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, self)
        if time == self._now:
            self._immediate.append((time, seq, None, event))
        else:
            heapq.heappush(self._queue, (time, seq, None, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> None:
        """Queue ``callback(*args)`` at the current time (no handle).

        Internal fast path: the entry is a bare tuple, so there is
        nothing to cancel — use :meth:`schedule` when a cancellable
        handle is needed.  Ordering is identical to ``schedule(0, ...)``.
        """
        seq = self._seq
        self._seq = seq + 1
        self._immediate.append((self._now, seq, callback, args))

    def schedule_discard(self, delay: int, callback: Callable[..., Any],
                         *args: Any) -> None:
        """Schedule a fire-and-forget event ``delay`` ns from now.

        Like :meth:`call_soon` but timed: no handle is returned, so the
        callback site must never need to cancel it.  The CPU scheduler's
        charge completions and sleeper wakes — the bulk of all timed
        events — go through here.
        """
        if delay <= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay} ns in the past")
            self.call_soon(callback, *args)
            return
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue,
                       (self._now + int(delay), seq, callback, args))

    def schedule_clock(self, delay: int, cpu: Any,
                       callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a poller self-clock event ``delay`` ns from now.

        Fire-and-forget like :meth:`schedule_discard`, but filed in the
        clock queue: the event (the wake after a clock sleep, or the end
        of a clock charge) belongs to an idle periodic poller on ``cpu``
        and touches nothing but that poller, unless :meth:`pin_payload`
        says otherwise.  Execution order is still exact (time, seq) —
        :meth:`step_batch` merges all three queues — but
        :meth:`next_payload_time` can exclude these, which is what lets
        two idle pollers fast-forward past each other instead of pinning
        each other awake.
        """
        time = self._now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._clock_queue, (time, seq, callback, args, cpu))
        percpu = self._clock_by_cpu.get(cpu)
        if percpu is None:
            percpu = self._clock_by_cpu[cpu] = []
        heapq.heappush(percpu, time)

    def pin_payload(self, time: int) -> None:
        """Make the clock event due at ``time`` count as a payload event.

        For a clock event that was given work (a post into its poller's
        mailbox, a task readied on its CPU during a clock charge): every
        CPU's :meth:`next_payload_time` must stop seeing past it.
        """
        heapq.heappush(self._pinned, time)

    # -- cancellation accounting ------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled += 1
        live = (len(self._queue) + len(self._immediate)
                + len(self._clock_queue) - self._cancelled)
        if self._cancelled >= _COMPACT_MIN and self._cancelled > live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from both queues (heap order preserved).

        Both queues are compacted *in place*: :meth:`step_batch` holds
        local aliases to them across callbacks, and a cancel storm inside
        a callback must not strand those aliases on a dead snapshot.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not _cancelled(entry)]
        heapq.heapify(queue)
        immediate = self._immediate
        if any(_cancelled(entry) for entry in immediate):
            keep = [entry for entry in immediate if not _cancelled(entry)]
            immediate.clear()
            immediate.extend(keep)
        self._cancelled = 0

    def _skim_cancelled(self) -> None:
        """Drop cancelled heads, so a peek stays O(1) amortized."""
        immediate = self._immediate
        while immediate and _cancelled(immediate[0]):
            self._cancelled -= 1
            immediate.popleft()
        queue = self._queue
        while queue and _cancelled(queue[0]):
            self._cancelled -= 1
            heapq.heappop(queue)

    # -- execution --------------------------------------------------------

    def next_event_time(self) -> int | None:
        """Timestamp of the next non-cancelled event, or None if drained."""
        self._skim_cancelled()
        best: int | None = None
        for heads in (self._immediate, self._queue, self._clock_queue):
            if heads and (best is None or heads[0][0] < best):
                best = heads[0][0]
        return best

    def next_payload_time(self, cpu: Any) -> int | None:
        """When the next event that could affect ``cpu`` fires.

        Like :meth:`next_event_time` but sees past *other* CPUs' poller
        self-clock events (see :meth:`schedule_clock`): such an event
        runs an idle poller that only touches its own CPU and its own
        (empty) mailbox, so it cannot post a payload, wake a task, or
        change the ready count on ``cpu`` before some non-clock event
        fires first.  Same-CPU clock events *are* included (another
        poller waking on this CPU flips its busy/idle decision), and so
        are pinned ones (:meth:`pin_payload`).  This is the bound the
        idle-poll fast-forward skips to.
        """
        self._skim_cancelled()
        queue = self._queue
        immediate = self._immediate
        best: int | None = None
        if immediate:
            best = immediate[0][0]
        if queue and (best is None or queue[0][0] < best):
            best = queue[0][0]
        # O(1) per-CPU peek via the clock-queue mirror (an idle 1024-rank
        # world calls this once per poller fast-forward; a linear scan of
        # the clock queue here was O(ranks) per call, O(ranks²) per tick).
        percpu = self._clock_by_cpu.get(cpu)
        if percpu and (best is None or percpu[0] < best):
            best = percpu[0]
        pinned = self._pinned
        if pinned:
            now = self._now
            while pinned and pinned[0] < now:
                heapq.heappop(pinned)
            if pinned and (best is None or pinned[0] < best):
                best = pinned[0]
        return best

    def quiet_now(self) -> bool:
        """True iff no pending event is due at the current time and the
        running sweep will go on to execute the next event.

        This is the legality test for inline dispatch: when the engine
        is quiet *now*, running a ready task immediately is
        indistinguishable from scheduling a zero-delay dispatch event,
        because that event would be the unique next thing to execute.
        Once the sweep's ``stop_flag`` is up, no next event executes
        before the caller tears the world down, so nothing is quiet.
        """
        stop = self._stop_flag
        if stop is not None and stop[0]:
            return False
        t = self.next_event_time()
        return t is None or t > self._now

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        return self.step_batch(1) == 1

    def step_batch(self, limit: int, stop_flag: Any = None) -> int:
        """Execute up to ``limit`` events in one dispatch sweep.

        Events fire in exact global (time, seq) order whatever the batch
        size (:meth:`step` is ``step_batch(1)``), but the per-event
        overhead (method call, queue-head rebinding) is paid once per
        batch, and runs of same-timestamp zero-delay events (the
        wire-delivery cascades of a large world) drain through a tight
        inner loop that skips the 3-way merge while the timed heaps
        provably hold nothing due now.

        ``stop_flag``, when given, is an indexable whose ``[0]`` entry is
        re-checked *between* events; the sweep stops before the next
        event once it goes true — exactly where a ``step()`` caller's
        loop condition would, so :meth:`MPIWorld.run
        <repro.cluster.session.MPIWorld.run>` sees the same event
        sequence batched as unbatched.

        Returns the number of events executed (less than ``limit`` only
        when the queues drained or ``stop_flag`` went true).
        """
        queue = self._queue
        immediate = self._immediate
        clock = self._clock_queue
        heappop = heapq.heappop
        executed = 0
        self._stop_flag = stop_flag
        check_stop = stop_flag is not None
        try:
            while executed < limit:
                if check_stop and stop_flag[0]:
                    break
                # Three-way (time, seq) merge of the queue heads: entries
                # compare as tuples, and seq is unique, so the comparison
                # never looks past the first two fields.
                src = 0
                if immediate:
                    entry = immediate[0]
                    src = 1
                if queue:
                    head = queue[0]
                    if src == 0 or head < entry:
                        entry = head
                        src = 2
                if clock:
                    head = clock[0]
                    if src == 0 or head < entry:
                        entry = head
                        src = 3
                if src == 1:
                    immediate.popleft()
                elif src == 2:
                    heappop(queue)
                elif src == 3:
                    heappop(clock)
                    # Keep the per-CPU mirror in sync: a CPU's clock
                    # entries pop in its own (time, seq) order, so the
                    # global head's time is that CPU's minimum.
                    heappop(self._clock_by_cpu[entry[4]])
                else:
                    break
                callback = entry[2]
                if callback is None:
                    event = entry[3]
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    # Marked done on pop: a cancel() arriving while (or
                    # after) the callback runs must not touch the
                    # queued-cancelled counter.
                    event._done = True
                    callback = event.callback
                    args = event.args
                else:
                    args = entry[3]
                now = entry[0]
                self._now = now
                executed += 1
                callback(*args)
                # Same-timestamp sweep: while neither timed heap holds an
                # entry due *now*, every deque head is the global (time,
                # seq) minimum (new zero-delay entries always append with
                # larger seq at the current time; heap pushes from
                # callbacks land strictly later than `now` or in the
                # deque).  The heap-head checks re-run per event because a
                # callback may schedule_clock(0) or leave a same-time heap
                # entry behind.
                while immediate and executed < limit:
                    if (queue and queue[0][0] == now) or \
                            (clock and clock[0][0] == now):
                        break
                    if check_stop and stop_flag[0]:
                        return executed
                    entry = immediate.popleft()
                    callback = entry[2]
                    if callback is None:
                        event = entry[3]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        event._done = True
                        callback = event.callback
                        args = event.args
                    else:
                        args = entry[3]
                    executed += 1
                    callback(*args)
        finally:
            self.events_executed += executed
        return executed

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains (or a bound is hit).

        ``until``: stop before executing any event past this virtual time
        (the clock is advanced to ``until`` when stopping for this reason).
        ``max_events``: safety valve against runaway simulations.
        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        executed = 0
        try:
            if until is None and max_events is None:
                # Unbounded drain: sweep in large batches (identical event
                # order, amortized dispatch overhead).
                while self.step_batch(4096):
                    pass
            else:
                while True:
                    head = self.next_event_time()
                    if head is None or (until is not None and head > until):
                        if until is not None:
                            self._now = max(self._now, until)
                        break
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "possible livelock (a polling loop that never sleeps?)"
                        )
                    self.step_batch(1)
                    executed += 1
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of non-cancelled events still queued.  O(1)."""
        return (len(self._queue) + len(self._immediate)
                + len(self._clock_queue) - self._cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self._now} pending={self.pending()}>"


def _cancelled(entry: tuple) -> bool:
    """True for the entry of a cancelled :class:`Event`."""
    return entry[2] is None and entry[3].cancelled
