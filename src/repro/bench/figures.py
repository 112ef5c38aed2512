"""One builder per paper table/figure (the experiment index of DESIGN.md).

Each figure is declared as a :class:`FigurePlan` — an ordered list of
series, each an ordered list of :class:`~repro.runner.spec.JobSpec`
measurement jobs — and *assembled* from the jobs' payloads by
:func:`build_figure`.  Declaring the jobs separately from running them
is what lets the same figure execute serially (bit-identical to the
pre-runner builders), fan out across a worker pool, or replay from the
content-addressed result cache: the numbers depend only on the specs.

The classic entry points (``figure6_tcp()`` .. ``figure9_multiprotocol()``,
``table1_raw_madeleine()``, ``table2_summary()``) are kept with their
original signatures and results; they now route through a serial
in-process :class:`~repro.runner.runner.Runner`.  Pass ``runner=`` to
any of them to parallelize or cache.  The ``benchmarks/`` suite asserts
the paper's shape statements against these, and ``python -m repro
report`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.baselines import MPICH_PM, MPI_GM, SCAMPI, SCI_MPICH
from repro.bench.pingpong import PingPongResult
from repro.bench.report import FigureData, PaperCheck
from repro.bench.sweeps import (
    BANDWIDTH_SWEEP_SIZES,
    LATENCY_SWEEP_SIZES,
    TABLE_BANDWIDTH_SIZE,
)
from repro.runner import JobSpec, Runner
from repro.workloads.executors import pingpong_result

#: Paper Table 1 values (raw Madeleine).
TABLE1_PAPER = {
    "tcp": {"latency_us": 121.0, "bandwidth_mb_s": 11.2},
    "bip": {"latency_us": 9.2, "bandwidth_mb_s": 122.0},
    "sisci": {"latency_us": 4.4, "bandwidth_mb_s": 82.6},
}

#: Paper Table 2 values (ch_mad).
TABLE2_PAPER = {
    "tcp": {"lat0_us": 130.0, "lat4_us": 148.7, "bandwidth_mb_s": 11.2},
    "bip": {"lat0_us": 16.9, "lat4_us": 18.9, "bandwidth_mb_s": 115.0},
    "sisci": {"lat0_us": 13.0, "lat4_us": 20.0, "bandwidth_mb_s": 82.5},
}


def _bw_reps(size: int) -> int:
    """Fewer repetitions for huge messages (deterministic sim anyway)."""
    return 2 if size >= 1024 * 1024 else 3


# ---------------------------------------------------------------------------
# job builders — one JobSpec per measured point
# ---------------------------------------------------------------------------

def mpi_job(size: int, **params) -> JobSpec:
    """Full-stack ping-pong job (:func:`repro.bench.pingpong.mpi_pingpong`).

    Only explicitly-passed keywords enter the spec (and therefore the
    cache digest), mirroring how the pre-runner builders called the
    measurement functions with their defaults implied.
    """
    if "networks" in params:
        params["networks"] = list(params["networks"])
    what = params.get("device") or "/".join(params.get("networks", ["sisci"]))
    return JobSpec(kind="mpi_pingpong", params={"size": size, **params},
                   label=f"mpi:{what}:{size}B")


def raw_job(protocol: str, size: int, **params) -> JobSpec:
    """Raw Madeleine ping-pong job (Table 1 / ``raw_Madeleine`` curves)."""
    return JobSpec(kind="raw_pingpong",
                   params={"protocol": protocol, "size": size, **params},
                   label=f"raw:{protocol}:{size}B")


def baseline_job(model, size: int) -> JobSpec:
    """One analytic-comparator point (ScaMPI/SCI-MPICH/MPI-GM/MPICH-PM)."""
    return JobSpec(kind="baseline_point",
                   params={"model": model.name, "size": size},
                   label=f"baseline:{model.name}:{size}B")


# ---------------------------------------------------------------------------
# figure plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesPlan:
    """One curve: a label, one job per size, an optional figure note."""

    label: str
    specs: tuple[JobSpec, ...]
    note: str | None = None
    #: Figure 9 plots mean (not min) one-way times.
    mean: bool = False


@dataclass(frozen=True)
class FigurePlan:
    """A figure as pure data: every measurement is a JobSpec."""

    name: str
    figure_id: str
    title: str
    sizes: tuple[int, ...]
    series: tuple[SeriesPlan, ...]
    notes: tuple[str, ...] = ()

    def jobs(self) -> list[JobSpec]:
        return [spec for series in self.series for spec in series.specs]


def _measured(label: str, sizes: Sequence[int], make, *,
              mean: bool = False) -> SeriesPlan:
    return SeriesPlan(label, tuple(make(n) for n in sizes), mean=mean)


def _baseline(model, sizes: Sequence[int]) -> SeriesPlan:
    return SeriesPlan(
        model.name, tuple(baseline_job(model, n) for n in sizes),
        note=f"{model.name} is an analytic model calibrated to {model.source}")


def _default_sizes(extra: set[int] = frozenset()) -> tuple[int, ...]:
    return tuple(sorted(set(LATENCY_SWEEP_SIZES)
                        | set(BANDWIDTH_SWEEP_SIZES) | set(extra)))


def figure6_plan(sizes: Sequence[int] | None = None) -> FigurePlan:
    """Figure 6: ch_mad vs ch_p4 vs raw Madeleine on TCP/Fast-Ethernet."""
    sizes = tuple(sizes or _default_sizes())
    return FigurePlan(
        name="figure6_tcp", figure_id="Figure 6",
        title="TCP/Fast-Ethernet: ch_mad vs ch_p4", sizes=sizes,
        series=(
            _measured("ch_mad", sizes,
                      lambda n: mpi_job(n, networks=("tcp",),
                                        reps=7 if n <= 4096 else _bw_reps(n))),
            _measured("ch_p4", sizes,
                      lambda n: mpi_job(n, device="ch_p4",
                                        reps=7 if n <= 4096 else _bw_reps(n))),
            _measured("raw_Madeleine", sizes,
                      lambda n: raw_job("tcp", n, reps=_bw_reps(n))),
        ))


def figure7_plan(sizes: Sequence[int] | None = None) -> FigurePlan:
    """Figure 7: ch_mad vs ScaMPI vs SCI-MPICH vs raw Madeleine on SCI.

    The default grid adds 2 KB and 8 KB points so the 8 KB switch-point
    knee of §4.2.2 is visible.
    """
    sizes = tuple(sizes or _default_sizes({2048, 8192, 12288}))
    return FigurePlan(
        name="figure7_sci", figure_id="Figure 7",
        title="SISCI/SCI: ch_mad vs native SCI MPIs", sizes=sizes,
        series=(
            _measured("ch_mad", sizes,
                      lambda n: mpi_job(n, networks=("sisci",),
                                        reps=_bw_reps(n) + 1)),
            _baseline(SCAMPI, sizes),
            _baseline(SCI_MPICH, sizes),
            _measured("raw_Madeleine", sizes,
                      lambda n: raw_job("sisci", n, reps=_bw_reps(n))),
        ))


def figure8_plan(sizes: Sequence[int] | None = None) -> FigurePlan:
    """Figure 8: ch_mad vs raw Madeleine vs MPI-GM vs MPICH-PM on Myrinet."""
    sizes = tuple(sizes or _default_sizes())
    return FigurePlan(
        name="figure8_myrinet", figure_id="Figure 8",
        title="BIP/Myrinet: ch_mad vs GM/PM MPIs", sizes=sizes,
        series=(
            _measured("ch_mad", sizes,
                      lambda n: mpi_job(n, networks=("bip",),
                                        reps=_bw_reps(n) + 1)),
            _measured("raw_Madeleine", sizes,
                      lambda n: raw_job("bip", n, reps=_bw_reps(n))),
            _baseline(MPI_GM, sizes),
            _baseline(MPICH_PM, sizes),
        ))


def figure9_plan(sizes: Sequence[int] | None = None,
                 reps: int = 9) -> FigurePlan:
    """Figure 9: SCI alone vs SCI with an active TCP polling thread.

    All traffic rides SCI; the TCP channel exists (and is polled) in the
    second configuration only.  Interference is a *distributional*
    effect, so this figure reports mean (not min) one-way times — the
    note records that convention.
    """
    sizes = tuple(sizes or _default_sizes())
    return FigurePlan(
        name="figure9_multiprotocol", figure_id="Figure 9",
        title="SCI alone vs SCI + TCP polling thread", sizes=sizes,
        series=(
            _measured("SCI_thread_only", sizes,
                      lambda n: mpi_job(n, networks=("sisci",), reps=reps),
                      mean=True),
            _measured("SCI_thread_+_TCP_thread", sizes,
                      lambda n: mpi_job(n, networks=("sisci", "tcp"),
                                        active_network="sisci", reps=reps),
                      mean=True),
        ),
        notes=("mean (not min) one-way times: polling interference is a "
               "distributional effect that min-of-reps would hide",))


#: name -> plan builder, for ``python -m repro sweep`` / ``run``.
FIGURES = {
    "figure6_tcp": figure6_plan,
    "figure7_sci": figure7_plan,
    "figure8_myrinet": figure8_plan,
    "figure9_multiprotocol": figure9_plan,
}


# ---------------------------------------------------------------------------
# assembly: jobs -> FigureData
# ---------------------------------------------------------------------------

def _point(spec: JobSpec, payload) -> tuple[float, float, float, float]:
    """(lat, bw, mean_lat, mean_bw) for one executed job payload."""
    if spec.kind == "baseline_point":
        lat, bw = payload["latency_us"], payload["bandwidth_mb_s"]
        return lat, bw, lat, bw
    result: PingPongResult = pingpong_result(payload)
    return (result.latency_us, result.bandwidth_mb_s,
            result.mean_latency_us, result.mean_bandwidth_mb_s)


def build_figure(plan: FigurePlan, runner: Runner | None = None) -> FigureData:
    """Execute a plan's jobs and assemble the figure from their payloads."""
    runner = runner or Runner()
    return assemble_figure(plan, runner.run(plan.jobs()))


def assemble_figure(plan: FigurePlan, job_results) -> FigureData:
    """Assemble a figure from already-executed job results (in plan
    order) — lets callers run the jobs once and reuse the results for
    digest checks and rendering."""
    results = iter(job_results)
    figure = FigureData(plan.figure_id, plan.title)
    for series_plan in plan.series:
        series = figure.new_series(series_plan.label)
        for size, spec in zip(plan.sizes, series_plan.specs):
            result = next(results)
            if not result.ok:
                raise RuntimeError(
                    f"figure job {spec.display} failed: {result.error}")
            lat, bw, mean_lat, mean_bw = _point(spec, result.payload)
            if series_plan.mean:
                series.add(size, mean_lat, mean_bw)
            else:
                series.add(size, lat, bw)
        if series_plan.note:
            figure.notes.append(series_plan.note)
    figure.notes.extend(plan.notes)
    return figure


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_raw_madeleine(runner: Runner | None = None
                         ) -> dict[str, dict[str, float]]:
    """Reproduce Table 1: raw Madeleine latency and 8 MB bandwidth."""
    runner = runner or Runner()
    protocols = ("tcp", "bip", "sisci")
    specs = []
    for protocol in protocols:
        specs.append(raw_job(protocol, 4))
        specs.append(raw_job(protocol, TABLE_BANDWIDTH_SIZE,
                             reps=2, warmup=1))
    results = iter(runner.run(specs))
    out: dict[str, dict[str, float]] = {}
    for protocol in protocols:
        lat = pingpong_result(next(results).payload)
        bw = pingpong_result(next(results).payload)
        out[protocol] = {
            "latency_us": lat.latency_us,
            "bandwidth_mb_s": bw.bandwidth_mb_s,
        }
    return out


def table1_checks(runner: Runner | None = None) -> list[PaperCheck]:
    measured = table1_raw_madeleine(runner)
    checks = []
    for protocol, paper in TABLE1_PAPER.items():
        for key, value in paper.items():
            checks.append(PaperCheck(
                quantity=f"{protocol}.{key}", paper=value,
                measured=measured[protocol][key],
            ))
    return checks


def table2_summary(runner: Runner | None = None
                   ) -> dict[str, dict[str, float]]:
    """Reproduce Table 2: ch_mad 0/4-byte latency and 8 MB bandwidth."""
    runner = runner or Runner()
    protocols = ("tcp", "bip", "sisci")
    specs = []
    for protocol in protocols:
        specs.append(mpi_job(0, networks=(protocol,), reps=7))
        specs.append(mpi_job(4, networks=(protocol,), reps=7))
        specs.append(mpi_job(TABLE_BANDWIDTH_SIZE, networks=(protocol,),
                             reps=2, warmup=1))
    results = iter(runner.run(specs))
    out: dict[str, dict[str, float]] = {}
    for protocol in protocols:
        lat0 = pingpong_result(next(results).payload)
        lat4 = pingpong_result(next(results).payload)
        bw = pingpong_result(next(results).payload)
        out[protocol] = {
            "lat0_us": lat0.latency_us,
            "lat4_us": lat4.latency_us,
            "bandwidth_mb_s": bw.bandwidth_mb_s,
        }
    return out


def table2_checks(runner: Runner | None = None) -> list[PaperCheck]:
    measured = table2_summary(runner)
    checks = []
    for protocol, paper in TABLE2_PAPER.items():
        for key, value in paper.items():
            checks.append(PaperCheck(
                quantity=f"{protocol}.{key}", paper=value,
                measured=measured[protocol][key],
            ))
    return checks


# ---------------------------------------------------------------------------
# classic entry points (original signatures, now runner-backed)
# ---------------------------------------------------------------------------

def figure6_tcp(sizes: Sequence[int] | None = None, *,
                runner: Runner | None = None) -> FigureData:
    """Figure 6: ch_mad vs ch_p4 vs raw Madeleine on TCP/Fast-Ethernet."""
    return build_figure(figure6_plan(sizes), runner)


def figure7_sci(sizes: Sequence[int] | None = None, *,
                runner: Runner | None = None) -> FigureData:
    """Figure 7: ch_mad vs ScaMPI vs SCI-MPICH vs raw Madeleine on SCI."""
    return build_figure(figure7_plan(sizes), runner)


def figure8_myrinet(sizes: Sequence[int] | None = None, *,
                    runner: Runner | None = None) -> FigureData:
    """Figure 8: ch_mad vs raw Madeleine vs MPI-GM vs MPICH-PM on Myrinet."""
    return build_figure(figure8_plan(sizes), runner)


def figure9_multiprotocol(sizes: Sequence[int] | None = None,
                          reps: int = 9, *,
                          runner: Runner | None = None) -> FigureData:
    """Figure 9: SCI alone vs SCI with an active TCP polling thread."""
    return build_figure(figure9_plan(sizes, reps), runner)
