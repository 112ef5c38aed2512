"""Job executors: the pure functions the batch runner fans out.

An executor takes a :class:`~repro.runner.spec.JobSpec`'s ``params``
(plus its ``seed``) and returns a **JSON-safe payload** — it runs in a
worker *process*, so everything it touches must be importable at module
level and everything it returns must pickle and serialize.  Executors
must be pure functions of the spec: the content-addressed cache assumes
that re-running a spec reproduces its payload bit for bit, which the
deterministic simulator guarantees.

This module is the executor registry.  Built-in kinds:

``workload``
    One :func:`repro.workloads.run` of any registered workload —
    ``params`` carry the workload name, the ``check``/``metrics``
    toggles, an optional ``fuzz_seed``, and the workload's own
    parameter overrides; the spec ``seed`` is the workload seed.  This
    is what ``python -m repro run --workload``, the fuzz sweep and the
    macro-benchmark sweeps schedule.  A run that raised reports the
    error in the payload instead of failing the job.
``mpi_pingpong``
    Full-stack ping-pong (:func:`repro.bench.pingpong.mpi_pingpong`);
    payload mirrors :class:`~repro.bench.pingpong.PingPongResult`.
``raw_pingpong``
    Madeleine-only ping-pong (Table 1 / raw curves).
``baseline_point``
    One analytic-comparator evaluation (no simulation; cached anyway so
    figure assembly is uniform).
``coll_bench``
    One ``(operation, algorithm)`` collective timing on a multirail SMP
    cluster (:func:`repro.bench.collectives.collective_bench`) — the
    unit of the flat/hier/multilane comparison sweep.
``rma_bench``
    One one-sided operation timing on an InfiniBand pair
    (:func:`repro.bench.rma.rma_bench`).

Tests register ad-hoc kinds with :func:`register`; unknown kinds raise
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.spec import JobSpec

#: kind -> executor(params, seed) -> JSON-safe payload.
EXECUTORS: dict[str, Callable[..., Any]] = {}


def register(kind: str) -> Callable[[Callable], Callable]:
    """Class-of-service decorator: ``@register("my_kind")``."""
    def deco(fn: Callable) -> Callable:
        EXECUTORS[kind] = fn
        return fn
    return deco


def execute(spec: "JobSpec") -> Any:
    """Run ``spec`` in this process and return its payload."""
    executor = EXECUTORS.get(spec.kind)
    if executor is None:
        raise ConfigurationError(
            f"unknown job kind {spec.kind!r}; known: {sorted(EXECUTORS)}")
    return executor(dict(spec.params), spec.seed)


# ---------------------------------------------------------------------------
# the unified-registry executor
# ---------------------------------------------------------------------------

@register("workload")
def _run_workload_kind(params: dict[str, Any], seed: int) -> dict[str, Any]:
    # Package import, not registry import: pulling ``repro.workloads``
    # runs the registration side effects, so a worker process that only
    # imported the executor registry still sees every built-in workload.
    from repro.workloads import run

    name = params.pop("workload")
    outcome = run(name, seed=seed, check=bool(params.pop("check", False)),
                  instrumentation=bool(params.pop("metrics", False)),
                  fuzz_seed=params.pop("fuzz_seed", None), params=params)
    error = outcome.error
    payload = {
        "workload": outcome.workload,
        "seed": outcome.seed,
        "params": outcome.params,
        "result_digest": outcome.digest,
        "time_ns": outcome.time_ns,
        "metrics": outcome.metrics,
        "violations": [str(v) for v in outcome.violations],
        "error": f"{type(error).__name__}: {error}" if error else None,
        "decisions": outcome.decisions,
        "trace_digest": outcome.trace_digest,
    }
    if error is not None:
        # The failing run's full trace rides along so the fuzz sweep can
        # write a repro artifact without re-running the seed.
        payload["trace"] = [
            f"{rec.time} {rec.category} {sorted(rec.fields.items())}"
            for rec in outcome.trace_records
        ]
    return payload


# ---------------------------------------------------------------------------
# bench + baseline executors
# ---------------------------------------------------------------------------

def _pingpong_payload(result) -> dict[str, Any]:
    """A PingPongResult as its constructor kwargs (lossless round-trip)."""
    return {
        "label": result.label,
        "size": result.size,
        "reps": result.reps,
        "one_way_ns": result.one_way_ns,
        "mean_one_way_ns": result.mean_one_way_ns,
    }


def pingpong_result(payload: Mapping[str, Any]):
    """Rehydrate a :class:`PingPongResult` from an executor payload."""
    from repro.bench.pingpong import PingPongResult
    return PingPongResult(**payload)


@register("mpi_pingpong")
def _run_mpi_pingpong(params: dict[str, Any], seed: int) -> dict[str, Any]:
    from repro.bench.pingpong import mpi_pingpong

    del seed  # the pingpong worlds run on the engine's default seed
    params["networks"] = tuple(params.get("networks", ("sisci",)))
    return _pingpong_payload(mpi_pingpong(**params))


@register("raw_pingpong")
def _run_raw_pingpong(params: dict[str, Any], seed: int) -> dict[str, Any]:
    from repro.bench.raw_madeleine import raw_madeleine_pingpong

    del seed
    return _pingpong_payload(raw_madeleine_pingpong(**params))


@register("baseline_point")
def _run_baseline_point(params: dict[str, Any], seed: int) -> dict[str, Any]:
    from repro.baselines import ALL_BASELINES

    del seed
    model = ALL_BASELINES[params["model"]]
    size = int(params["size"])
    return {
        "model": model.name,
        "source": model.source,
        "size": size,
        "latency_us": model.latency_us(size),
        "bandwidth_mb_s": model.bandwidth_mb_s(size),
    }


@register("coll_bench")
def _run_coll_bench(params: dict[str, Any], seed: int) -> dict[str, Any]:
    from repro.bench.collectives import collective_bench

    del seed  # virtual-time benchmark; the engine default seed applies
    return collective_bench(**params)


@register("rma_bench")
def _run_rma_bench(params: dict[str, Any], seed: int) -> dict[str, Any]:
    from repro.bench.rma import rma_bench

    del seed  # virtual-time benchmark; the engine default seed applies
    return rma_bench(**params)
