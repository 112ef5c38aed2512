"""Macro-workload sweep: application-shaped traffic at 8-512 ranks.

Runs the two macro-workloads of the unified registry
(:mod:`repro.workloads`) through the batch runner's ``workload`` job
kind (parallel across workers, content-addressed cache):

- ``ml_training`` — per-step model bcast + bucketed gradient
  allreduces, swept flat (``default``) vs hierarchical (``hier``)
  collectives.  The acceptance criterion mirrors ``collperf.py``'s,
  now on application traffic: **hier must beat flat at every rank
  count >= 64**.
- ``cfd_halo`` — jagged halo exchanges on the cart and graph
  topologies over the InfiniBand fabric (eager/rendezvous/RDMA mix).

All numbers are *virtual* nanoseconds from the deterministic
simulator, so the committed ``BENCH_macro.json`` baseline comparison
is exact: any drift means the workloads' traffic itself changed, not
the machine the benchmark ran on.

Usage::

    python benchmarks/perf/macroperf.py --output BENCH_macro.json
    python benchmarks/perf/macroperf.py --quick --baseline BENCH_macro.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runner import JobSpec, Runner  # noqa: E402

RANKS = (8, 64, 256, 512)
QUICK_RANKS = (8, 64)
ML_ALGORITHMS = ("default", "hier")
CFD_TOPOLOGIES = ("cart", "graph")


def _ppn(ranks: int) -> int:
    """Processes per node: 2 at tiny scale, 8 on the big SMP worlds."""
    return 2 if ranks < 64 else (4 if ranks < 256 else 8)


def sweep_specs(ranks: tuple[int, ...]) -> list[JobSpec]:
    specs = []
    for n in ranks:
        for algorithm in ML_ALGORITHMS:
            specs.append(JobSpec(
                kind="workload", seed=0,
                params={"workload": "ml_training", "metrics": True,
                        "ranks": n, "processes_per_node": _ppn(n),
                        "algorithm": algorithm},
                label=f"ml_training/{algorithm}@{n}"))
        for topology in CFD_TOPOLOGIES:
            specs.append(JobSpec(
                kind="workload", seed=0,
                params={"workload": "cfd_halo", "metrics": True,
                        "ranks": n, "processes_per_node": _ppn(n),
                        "topology": topology},
                label=f"cfd_halo/{topology}@{n}"))
    return specs


def _variant(payload: dict) -> str:
    params = payload["params"]
    return params.get("algorithm") or params.get("topology")


def run_sweep(ranks: tuple[int, ...], workers: int,
              cache: str | None) -> list[dict]:
    runner = Runner(workers=workers, cache=cache, out=print)
    results = runner.run(sweep_specs(ranks))
    failed = [r for r in results if not r.ok or r.payload.get("error")]
    if failed:
        for r in failed:
            print(f"FAIL: {r.spec.display}: "
                  f"{r.error or r.payload['error']}")
        raise SystemExit(1)
    points = []
    for r in results:
        payload = r.payload
        points.append({
            "workload": payload["workload"],
            "variant": _variant(payload),
            "ranks": payload["params"]["ranks"],
            "time_ns": payload["time_ns"],
            "result_digest": payload["result_digest"],
            "metrics": payload["metrics"],
        })
    return points


def check_hier_wins(points: list[dict]) -> list[str]:
    """Acceptance: hier beats flat on ml_training at every ranks >= 64."""
    by_key = {(p["ranks"], p["variant"]): p["time_ns"] for p in points
              if p["workload"] == "ml_training"}
    problems = []
    for n in sorted({p["ranks"] for p in points}):
        if n < 64:
            continue
        default = by_key.get((n, "default"))
        hier = by_key.get((n, "hier"))
        if default is None or hier is None:
            continue
        if hier >= default:
            problems.append(
                f"ml_training with hier collectives ({hier:.0f} ns) does "
                f"not beat flat ({default:.0f} ns) at {n} ranks")
    return problems


def check_baseline(points: list[dict], baseline: dict) -> list[str]:
    """Virtual times and digests are deterministic — compare exactly."""
    base = {(p["workload"], p["variant"], p["ranks"]): p
            for p in baseline.get("points", [])}
    problems = []
    for p in points:
        key = (p["workload"], p["variant"], p["ranks"])
        want = base.get(key)
        if want is None:
            continue
        if want["time_ns"] != p["time_ns"]:
            problems.append(
                f"{p['workload']}/{p['variant']}@{p['ranks']}: "
                f"{p['time_ns']} ns differs from baseline "
                f"{want['time_ns']} ns (virtual time is deterministic; "
                f"the workload's traffic changed)")
        elif want["result_digest"] != p["result_digest"]:
            problems.append(
                f"{p['workload']}/{p['variant']}@{p['ranks']}: result "
                f"digest changed while virtual time did not")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", "-o", default=None,
                        help="write the record as JSON to this path")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_macro.json to compare "
                             "against (exact virtual-time match)")
    parser.add_argument("--quick", action="store_true",
                        help="8/64 ranks only (CI smoke)")
    parser.add_argument("--workers", type=int, default=4,
                        help="runner worker processes (default 4)")
    parser.add_argument("--cache", default=None,
                        help="content-addressed result cache directory")
    args = parser.parse_args(argv)

    ranks = QUICK_RANKS if args.quick else RANKS
    points = run_sweep(ranks, workers=args.workers, cache=args.cache)

    record = {
        "schema": "macroperf/1",
        "python": platform.python_version(),
        "quick": args.quick,
        "points": points,
    }

    problems = check_hier_wins(points)
    if args.baseline:
        problems += check_baseline(
            points, json.loads(Path(args.baseline).read_text()))

    for workload, variants in (("ml_training", ML_ALGORITHMS),
                               ("cfd_halo", CFD_TOPOLOGIES)):
        for n in sorted({p["ranks"] for p in points}):
            row = {p["variant"]: p["time_ns"] for p in points
                   if p["workload"] == workload and p["ranks"] == n}
            if not row:
                continue
            first = row.get(variants[0])
            summary = "  ".join(
                f"{variant}={row[variant] / 1e6:.3f}ms"
                + (f" ({first / row[variant]:.2f}x)"
                   if first and variant != variants[0] else "")
                for variant in variants if variant in row)
            print(f"{workload} @ {n:4d} ranks: {summary}")

    text = json.dumps(record, indent=1, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("macroperf: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
