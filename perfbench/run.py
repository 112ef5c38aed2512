"""The repository's benchmark: one command, both clocks, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ml_training --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are for people.  See ``perfbench/README.md`` for the workloads, the
metrics and how they interact.

Every repetition runs in a child process (``worker.py``) with a time
limit.  A repetition fails if it raises, runs over its limit, yields a
digest other than the oracle's, reports a checker violation, or (for
``paper_report``) puts a Table 1/2 anchor outside its tolerance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RECORD = HERE / "virtual_record.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("paper_report", "ml_training", "cfd_halo_lossy")
#: The seed the exact virtual record is kept for.
RECORD_SEED = 0
#: Wall-clock limit of one child process, and of the whole invocation.
CHILD_LIMIT_S = {"plain": 60.0, "instr": 60.0, "checker": 60.0,
                 "oracle": 60.0, "traced": 120.0}
INVOCATION_LIMIT_S = 170.0
MIN_REPS = 3
#: Median seconds of one ``worker.calibrate()`` speed sample on the
#: reference machine (a shared 2-vCPU x86-64 VM, CPython 3.11).  Host
#: times are reported at that machine's speed: each phase's seconds are
#: multiplied by ``(TICK_REF_S / tick) ** SPEED_EXPONENT``, where
#: ``tick`` is the median speed sample taken during (run) or right
#: after (set-up) that phase.  On that VM the machine's speed drifted by
#: tens of percent within seconds and over minutes.  The in-cache sample
#: loop swings further than the simulator does: over 78 repetitions the
#: simulator's run time moved as the 0.49th power of the samples taken
#: between its event batches (correlation 0.88), and scaling by the
#: 0.5th power cut the spread of the median of three runs from 13% to
#: about 4%.
TICK_REF_S = 0.00036
SPEED_EXPONENT = 0.5

class Invocation:
    """The child processes of one invocation: their common deadline, the
    oracle they are judged against, and the attempted and failed
    repetitions."""

    def __init__(self, workload: str, seed: int, quick: bool):
        self.workload, self.seed, self.quick = workload, seed, quick
        self.deadline = time.monotonic() + INVOCATION_LIMIT_S
        self.reps = 0
        self.oracle: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def attempt(self, mode: str, **kwargs) -> dict | None:
        """One repetition.  Returns its result if it completed, even when
        it failed the oracle (its timings still count); None if not."""
        self.attempted += 1
        result = self.run(mode, **kwargs)
        reason = failure(result, self.oracle)
        if reason:
            self.fail(f"{mode}: {reason}")
        result["failed"] = bool(reason)
        return None if "error" in result else result

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, mode: str, spans: Path | None = None) -> dict:
        """One repetition; ``{"error": ...}`` if it did not complete."""
        self.reps += 1
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode,
               "--rep", str(self.reps)]
        if self.quick:
            cmd.append("--quick")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        limit = min(CHILD_LIMIT_S[mode], self.remaining())
        if limit <= 0:
            return {"error": f"{mode}: no time left in the invocation"}
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode}: over its {limit:.0f} s limit"}
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["(no output)"]
            return {"error": f"{mode}: exit {done.returncode}: {tail[0]}"}
        try:
            return json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"{mode}: no result line"}


def oracle_for(inv: Invocation) -> dict:
    """The reference every repetition is judged against, computed once.

    ``ml_training``: the digest of the same seed with flat collectives.
    ``cfd_halo_lossy``: the digest of the same seed with no fault plan.
    ``paper_report``: no reference run; each repetition's own Table 1/2
    anchors must be within their ``PaperCheck`` tolerance.
    """
    if inv.workload == "paper_report":
        return {}
    oracle = inv.run("oracle")
    if "error" in oracle:
        # Nothing to judge the repetitions against: no result at all.
        raise SystemExit(f"perfbench: oracle failed: {oracle['error']}")
    return oracle


def failure(result: dict, oracle: dict) -> str | None:
    """Why a repetition failed, or None."""
    if "error" in result:
        return result["error"]
    if "digest" in oracle and result["digest"] != oracle["digest"]:
        return f"digest {result['digest'][:12]} != oracle " \
               f"{oracle['digest'][:12]}"
    if result["violations"]:
        return f"{result['violations']} checker violation(s)"
    if result.get("deviating"):
        return f"paper anchors outside tolerance: {result['deviating']}"
    return None


def speed(tick: float) -> float:
    """The factor that scales a phase to the reference machine's speed,
    from the median speed sample taken with it."""
    return (TICK_REF_S / tick) ** SPEED_EXPONENT


#: Host-time results, and the speed sample each is scaled by.
HOST_TIMES = {"wall_s": "run_tick_s", "setup_s": "setup_tick_s",
              "construct_s": "setup_tick_s"}


def median_of(results: list[dict], key: str) -> float:
    """Median over repetitions, host times at the reference speed."""
    tick = HOST_TIMES.get(key)
    return statistics.median(
        r[key] * (speed(r[tick]) if tick else 1.0) for r in results)


def raw_median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def ratio(numerator: list[dict], denominator: list[dict]) -> float:
    return median_of(numerator, "wall_s") / median_of(denominator, "wall_s")


def measure(inv: Invocation, seconds: float) -> tuple[dict, dict]:
    """Tracing off: plain repetitions until ``seconds`` have passed, and
    at least ``MIN_REPS`` of them, so every median has three samples."""
    start = time.monotonic()
    results = []
    while time.monotonic() - start < seconds \
            or inv.attempted < MIN_REPS:
        if inv.remaining() < CHILD_LIMIT_S["plain"]:
            break
        result = inv.attempt("plain")
        if result is not None:
            results.append(result)
    if not results:
        raise SystemExit(f"no repetition completed: {inv.failures}")
    paper = results[0] if inv.workload == "paper_report" \
        else inv.oracle
    print(f"raw host seconds (median): run {raw_median(results, 'wall_s'):.4f}"
          f", set-up {raw_median(results, 'setup_s'):.4f}; speed factor "
          f"{statistics.median(speed(r['run_tick_s']) for r in results):.3f}")
    return {
        "wall_s": (median_of(results, "wall_s"), "s"),
        "setup_s": (median_of(results, "setup_s"), "s"),
        "peak_rss_mb": (median_of(results, "peak_rss_mb"), "MiB"),
        "sim_time": (median_of(results, "sim_time_ms"), "virtual_ms"),
        "paper_error_pct": (paper["paper_error_pct"], "%"),
        "success_rate": (1.0 - len(inv.failures) / inv.attempted,
                         "fraction"),
    }, results[0]


def measure_traced(inv: Invocation, seconds: float) -> tuple[dict, dict]:
    """The traced run plus the untraced, instrumented and checker runs
    it is compared against, cycled until ``seconds`` have passed."""
    start = time.monotonic()
    by_mode: dict[str, list[dict]] = {"plain": [], "instr": [],
                                      "checker": []}
    while True:
        for mode, results in by_mode.items():
            result = inv.attempt(mode)
            if result is not None:
                results.append(result)
        if time.monotonic() - start >= seconds \
                or inv.remaining() < CHILD_LIMIT_S["traced"]:
            break
    spans = OUT_DIR / f"trace-{inv.workload}.json"
    traced = inv.attempt("traced", spans=spans)
    if traced is None or not all(by_mode.values()):
        raise SystemExit(f"traced comparison incomplete: {inv.failures}")
    plain = by_mode["plain"]
    # Non-perturbation: tracing may not change what is simulated.
    perturbed = [f"{key} {traced[key]} != untraced {plain[0][key]}"
                 for key in ("digest", "sim_time_ms", "events")
                 if traced[key] != plain[0][key]]
    if perturbed and not traced["failed"]:
        inv.fail(f"traced: {'; '.join(perturbed)}")
    checker_on, checker_off = by_mode["checker"], plain
    if inv.workload == "cfd_halo_lossy":
        checker_on, checker_off = plain, by_mode["checker"]
    print(f"Chrome trace of the benchmark's spans: {spans}")
    return per_layer(traced, plain, by_mode["instr"], checker_on,
                     checker_off), traced


def per_layer(traced, plain, instr, checker_on, checker_off) -> dict:
    """Per-layer metrics: shares and calls from the profiled run,
    counters from the instrumented one, wall clock from untraced runs."""
    metrics = {}
    for layer, row in traced["profile"].items():
        metrics[f"{layer}.self_frac"] = (row["self_frac"], "fraction")
        if layer != "other":
            metrics[f"{layer}.calls"] = (row["calls"], "count")
    events = median_of(plain, "events")
    metrics["sim.events"] = (events, "count")
    metrics["sim.ns_per_event"] = (
        median_of(plain, "wall_s") * 1e9 / max(events, 1), "ns")
    metrics["sim.cpu_busy_frac"] = (plain[0]["cpu_busy_frac"], "fraction")
    counters = traced["counters"]
    for name, value in counters.items():
        unit = "virtual_ns" if name.endswith("_ns") else \
            "bytes" if name.endswith(".bytes") else "count"
        metrics[name] = (value, unit)
    for mode in ("eager", "rendezvous"):
        metrics[f"adi.mode.{mode}"] = (traced["modes"].get(mode, 0),
                                       "count")
    metrics["transport.spurious_ratio"] = (
        counters["transport.duplicates"]
        / max(counters["transport.retransmits"], 1), "ratio")
    metrics["rdma.reg_hit_ratio"] = (traced["reg_hit_ratio"], "fraction")
    for call, summary in traced["calls"].items():
        base = f"mpi.{call}_vt"
        metrics[f"{base}.p50"] = (summary["p50"], "virtual_us")
        metrics[f"{base}.ptail"] = (summary["ptail"], "virtual_us")
        metrics[f"{base}.ptail_pct"] = (summary["ptail_pct"], "%")
        metrics[f"{base}.n"] = (summary["n"], "count")
    metrics["cluster.build_s"] = (median_of(plain, "construct_s"), "s")
    metrics["overhead.instrumentation"] = (ratio(instr, plain), "ratio")
    metrics["overhead.checker"] = (ratio(checker_on, checker_off), "ratio")
    metrics["trace.overhead"] = (ratio([traced], plain), "ratio")
    return metrics


def compare_record(workload: str, result: dict, counters: dict | None,
                   write: bool) -> list[str]:
    """Check (or rewrite) the exact virtual record; mismatches by name."""
    observed = {"sim_time_ms": result["sim_time_ms"],
                "sim.events": result["events"],
                "digest": result["digest"],
                "paper_error_pct": result.get("paper_error_pct")}
    if counters is not None:
        observed.update(counters)
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    if write:
        record[workload] = observed
        RECORD.write_text(json.dumps(record, indent=1, sort_keys=True)
                          + "\n")
        return []
    expected = record.get(workload, {})
    return [f"{workload}.{name}: recorded {expected[name]!r}, "
            f"measured {value!r}"
            for name, value in observed.items()
            if name in expected and expected[name] != value]


def layer_table(metrics: dict) -> str:
    lines = [f"{'metric':38} {'value':>16}  unit"]
    for name, (value, unit) in metrics.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"{name:38} {text:>16}  {unit}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=RECORD_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small worlds: the benchmark's smoke test")
    parser.add_argument("--write-record", action="store_true",
                        help="with --trace 1 and the record seed: rewrite "
                             "this workload's exact virtual record")
    args = parser.parse_args(argv)
    if args.write_record and not args.trace:
        parser.error("--write-record needs --trace 1 (it records counters)")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    inv = Invocation(args.workload, args.seed, args.quick)
    inv.oracle = oracle_for(inv)
    if args.trace:
        metrics, checked = measure_traced(inv, args.seconds)
        print(f"per-layer table: {args.workload}, seed {args.seed}")
        print(layer_table(metrics))
        counters = checked["counters"]
    else:
        metrics, checked = measure(inv, args.seconds)
        counters = None
    for reason in inv.failures:
        print(f"FAILED: {reason}")
    if args.seed == RECORD_SEED and not args.quick:
        checked = dict(checked, paper_error_pct=inv.oracle.get(
            "paper_error_pct", checked.get("paper_error_pct")))
        for line in compare_record(args.workload, checked, counters,
                                   args.write_record):
            print(f"virtual record mismatch: {line}")
    failed = len(inv.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": inv.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
