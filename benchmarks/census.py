"""Call census: which ``src/`` functions does no entry point ever call?

Runs every entry point of the repository in this one process under
cProfile, then lists each function or method defined under
``src/repro`` that never executed, with its line count.  A function on
the list is dead code or missing a test; either way it needs a look.

The stages, in order (``python benchmarks/census.py STAGE ...`` runs a
subset; the default is all of them):

``tier1``       ``pytest tests`` (the tier-1 suite)
``benchmarks``  ``pytest benchmarks --benchmark-disable``
``report``      ``python -m repro report``
``fuzz``        every registered fuzz workload, two seeds each
``perf``        ``collperf``/``rmaperf``/``macroperf --quick``,
                ``simperf`` and ``scaleperf --quick`` against their
                committed baselines
``perfbench``   ``perfbench/worker.py --quick`` on all three workloads

Three details keep the census honest:

- the profiler is enabled before the first ``repro`` import, so
  module-level code and import-time registrations count;
- :class:`~repro.runner.Runner` is forced inline (``workers=1``):
  calls made in pool worker processes would otherwise go uncounted.
  The runner's own pool path then never runs; it is tested directly by
  the worker-crash tests, which this census deselects because a job
  that kills its worker would kill the census run inline;
- pytest-benchmark's fixture fails under an outer profiler, so the
  ``benchmarks/`` suite runs with ``--benchmark-disable``.

Test failures under the profiler (wall-time bounds) do not matter
here: only which functions ran does.  The full run takes several
minutes, so it is a tool, not a CI job::

    python benchmarks/census.py
    python benchmarks/census.py tier1 fuzz
"""

from __future__ import annotations

import sys
from pathlib import Path

# Run as a script, this directory comes first on sys.path, where
# benchmarks/profile.py shadows the stdlib ``profile`` module that
# cProfile imports (see that file).  Drop it.
_HERE = Path(__file__).resolve().parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.modules.pop("profile", None)

import ast  # noqa: E402
import cProfile  # noqa: E402
import contextlib  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402

ROOT = _HERE.parent
SRC = ROOT / "src"

PERF_SCRIPTS = (
    ("collperf.py", ["--quick", "--workers", "1",
                     "--baseline", "BENCH_collectives.json"]),
    ("rmaperf.py", ["--quick", "--workers", "1",
                    "--baseline", "BENCH_rma.json"]),
    ("macroperf.py", ["--quick", "--workers", "1",
                      "--baseline", "BENCH_macro.json"]),
    ("simperf.py", ["--baseline", "BENCH_simperf.json"]),
    ("scaleperf.py", ["--quick", "--baseline", "BENCH_scale.json"]),
)


def _script(path: Path, argv: list[str]) -> None:
    """Run ``path`` as ``__main__`` with ``argv``; its exit status is
    irrelevant to the census."""
    saved = sys.argv
    sys.argv = [str(path)] + argv
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = saved


def _pytest(args: list[str]) -> None:
    import pytest
    pytest.main(args + ["-q", "-p", "no:cacheprovider"])


def stage_tier1() -> None:
    _pytest(["tests", "-k", "not worker_crash"])


def stage_benchmarks() -> None:
    _pytest(["benchmarks", "--benchmark-disable"])


def stage_report() -> None:
    from repro.cli import main
    main(["report"])


def stage_fuzz() -> None:
    from repro import workloads
    from repro.cli import main
    argv = ["fuzz", "--seeds", "2"]
    for name in workloads.names("fuzz"):
        argv += ["--workload", name]
    main(argv)


def stage_perf() -> None:
    for script, argv in PERF_SCRIPTS:
        _script(ROOT / "benchmarks" / "perf" / script, argv)


def stage_perfbench() -> None:
    # Last on purpose: the worker wraps MPIWorld and friends for good.
    for workload in ("paper_report", "ml_training", "cfd_halo_lossy"):
        _script(ROOT / "perfbench" / "worker.py",
                ["--quick", "--workload", workload, "--seed", "0"])


STAGES = {
    "tier1": stage_tier1,
    "benchmarks": stage_benchmarks,
    "report": stage_report,
    "fuzz": stage_fuzz,
    "perf": stage_perf,
    "perfbench": stage_perfbench,
}


def _declaration_only(node: ast.FunctionDef) -> bool:
    """A body of nothing but a docstring and/or ``...``."""
    return all(isinstance(stmt, ast.Expr)
               and isinstance(stmt.value, ast.Constant)
               for stmt in node.body)


def defined_functions() -> dict[tuple[str, int], tuple]:
    """``(file, first line) -> (qualified name, line count, key of the
    enclosing function or None)`` for every function under
    ``src/repro``.  The first line is the one a code object reports:
    the first decorator's, if any."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _declaration_only(child):
                        continue  # a Protocol signature never runs
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    key = (os.path.realpath(path), first)
                    found[key] = (prefix + child.name,
                                  child.end_lineno - child.lineno + 1,
                                  parent)
                    visit(child, f"{prefix}{child.name}.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return found


def called_functions(profiler: cProfile.Profile) -> set[tuple[str, int]]:
    profiler.create_stats()
    return {(os.path.realpath(filename), line)
            for filename, line, _name in profiler.stats}


def main(argv: list[str] | None = None) -> int:
    stages = list(argv if argv is not None else sys.argv[1:]) or list(STAGES)
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        print(f"unknown stage(s) {unknown}; pick from {list(STAGES)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(ROOT)]

    # Parsed first, so that editing a file during the run cannot shift
    # its line numbers away from the code the profiler saw.
    defined = defined_functions()
    profiler = cProfile.Profile()
    profiler.enable()
    from repro.runner.runner import Runner
    init = Runner.__init__

    def inline_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.workers = 1

    Runner.__init__ = inline_init
    for stage in stages:
        print(f"### census stage: {stage}", file=sys.stderr)
        with contextlib.redirect_stdout(sys.stderr):
            STAGES[stage]()
    profiler.disable()

    called = called_functions(profiler)
    # A closure inside a never-called function is dead with it; list
    # the outermost one only, so the line total counts each line once.
    never = sorted((path, line, name, length)
                   for (path, line), (name, length, parent)
                   in defined.items()
                   if (path, line) not in called
                   and (parent is None or parent in called))
    for path, line, name, length in never:
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}:{line}  {name}  ({length} lines)")
    print(f"{len(never)} never-called functions, "
          f"{sum(n[3] for n in never)} lines (stages: {', '.join(stages)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
