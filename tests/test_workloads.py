"""The unified workload registry: one registration, every front end.

Covers the PR's API contract:

- round-trip: ``run`` (direct), the ``workload`` job kind (sweep/cache
  path) and ``repro.check.fuzz`` (fuzz path) all resolve the *same*
  registered workload and agree on its results;
- a run that raises reports the error in its result and payload;
- parameter schema: defaults resolve, overrides apply, typos raise;
- macro-workloads: same-seed bit-determinism for ``ml_training`` and
  ``cfd_halo``, and the differential claim that the hierarchical
  allreduce matches the flat one element for element on the integer
  gradients.
"""

import numpy as np
import pytest

import repro.workloads as workloads
from repro.errors import ConfigurationError, DeadlockError
from repro.mpi import coll
from repro.mpi.reduce_ops import SUM
from repro.runner import JobSpec, Runner
from repro.workloads import Param, Workload
from repro.workloads.ml_training import (
    _grad,
    gradient_buckets,
    model_layers,
)
from tests.helpers import run_ranks


def _run(name, **kwargs):
    """``workloads.run`` for a run that must succeed."""
    outcome = workloads.run(name, **kwargs)
    assert outcome.ok, outcome.error
    return outcome


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------

def test_params_resolve_defaults_overrides_and_typos():
    wl = workloads.get("ml_training")
    resolved = wl.resolve()
    assert resolved["ranks"] == 8 and resolved["algorithm"] == "hier"
    assert wl.resolve({"ranks": 64})["ranks"] == 64
    with pytest.raises(ConfigurationError, match="no parameter 'rnaks'"):
        wl.resolve({"rnaks": 64})


def test_legacy_positional_workload_shape_still_works():
    # The pre-unification fuzz workloads were (name, description, build)
    # triples; the unified dataclass keeps that positional prefix.
    wl = Workload("tmp", "desc", lambda seed: (None, None))
    assert wl.params == {} and "fuzz" in wl.tags
    assert wl.resolve() == {}


def test_register_rejects_duplicates():
    with pytest.raises(ConfigurationError, match="already registered"):
        workloads.register(Workload("pingpong", "dup", lambda seed: None))


def test_unknown_workload_error_lists_the_registry():
    with pytest.raises(ConfigurationError, match="ml_training"):
        workloads.get("no_such_workload")


def test_tags_partition_the_registry():
    assert set(workloads.names("macro")) == {"ml_training", "cfd_halo"}
    assert set(workloads.names("fuzz")) == set(workloads.names())


# ---------------------------------------------------------------------------
# round-trip: run / sweep / fuzz resolve the same workload
# ---------------------------------------------------------------------------

def _planted_build(seed, *, scale=3):
    from tests.helpers import linear_cluster

    def program(mpi):
        comm = mpi.comm_world
        total = yield from comm.allreduce((comm.rank + seed) * scale, SUM)
        return total

    return linear_cluster(2), program


def test_round_trip_run_sweep_fuzz_resolve_one_registration():
    workloads.WORKLOADS["planted"] = Workload(
        "planted", "round-trip probe", _planted_build,
        params={"scale": Param(3, "multiplier")})
    try:
        # 1. the direct path
        direct = _run("planted", seed=1)
        assert direct.results == [9, 9]  # (0+1)*3 + (1+1)*3 on both ranks

        # 2. the runner path (the `workload` job kind), with a cache
        spec = JobSpec(kind="workload", seed=1,
                       params={"workload": "planted", "scale": 3})
        result = Runner(workers=1).run([spec])[0]
        assert result.ok
        assert result.payload["result_digest"] == direct.digest
        assert result.payload["params"] == {"scale": 3}

        # 3. the fuzz path
        from repro.check.fuzz import run_sweep
        lines = []
        assert run_sweep(["planted"], [2], workload_seed=1,
                         out=lines.append) == []
        assert lines[0].startswith("ok   planted seed=2 ")
        fuzzed = workloads.run("planted", seed=1, fuzz_seed=2)
        assert fuzzed.ok
        assert fuzzed.results == direct.results
    finally:
        del workloads.WORKLOADS["planted"]


def test_workload_job_kind_caches_content_addressed(tmp_path):
    spec = JobSpec(kind="workload", seed=0,
                   params={"workload": "cfd_halo", "iters": 2})
    first = Runner(workers=1, cache=str(tmp_path)).run([spec])[0]
    second = Runner(workers=1, cache=str(tmp_path)).run([spec])[0]
    assert first.ok and second.ok
    assert not first.cached and second.cached
    assert first.payload == second.payload


def test_workload_kind_rejects_bad_parameters():
    spec = JobSpec(kind="workload",
                   params={"workload": "ml_training", "rnaks": 4})
    result = Runner(workers=1).run([spec])[0]
    assert not result.ok
    assert "no parameter" in str(result.error)


# ---------------------------------------------------------------------------
# macro-workloads: determinism and the differential claim
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ml_training", "cfd_halo"])
def test_macro_same_seed_bit_determinism(name):
    first = _run(name, seed=4)
    again = _run(name, seed=4)
    assert first.digest == again.digest
    assert first.results == again.results
    assert first.time_ns == again.time_ns
    other = _run(name, seed=5)
    assert other.digest != first.digest  # the seed genuinely reshapes it


@pytest.mark.parametrize("name", ["ml_training", "cfd_halo"])
def test_macro_workloads_are_checker_clean(name):
    outcome = _run(name, seed=0, check=True)
    assert outcome.violations == ()


def test_ml_training_hier_matches_flat_results():
    hier = _run("ml_training", seed=2)
    flat = _run("ml_training", seed=2,
                params={"algorithm": "default"})
    blocking = _run("ml_training", seed=2,
                    params={"overlap": False})
    assert hier.results == flat.results == blocking.results


def test_ml_training_hier_matches_flat_element_for_element():
    # Stronger than checksum equality: reduce the workload's own gradient
    # arrays under both algorithms and compare every element.
    sizes = model_layers(2, 12)
    buckets = gradient_buckets(sizes, 32 * 1024)
    bucket_bytes = sum(sizes[layer] for layer in buckets[0])
    hier_fn = coll.get("allreduce", "hier").fn
    flat_fn = coll.get("allreduce", "default").fn

    def program(mpi):
        comm = mpi.comm_world
        grad = _grad(bucket_bytes // 8, comm.rank, step=0, bucket=0)
        via_hier = yield from hier_fn(comm, grad, SUM)
        via_flat = yield from flat_fn(comm, grad, SUM)
        return np.array_equal(np.asarray(via_hier), np.asarray(via_flat))

    assert all(run_ranks(program, nranks=4))


def test_cfd_halo_graph_topology_is_deterministic_too():
    first = _run("cfd_halo", seed=1, params={"topology": "graph"})
    again = _run("cfd_halo", seed=1, params={"topology": "graph"})
    assert first.digest == again.digest


def test_macro_workloads_fuzz_clean():
    from repro.check.fuzz import run_sweep

    failures = run_sweep(["ml_training", "cfd_halo"], range(2),
                         out=lambda _line: None)
    assert failures == []


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

def _deadlock_build(seed):
    from tests.helpers import linear_cluster

    def program(mpi):
        yield from mpi.comm_world.recv(source=1 - mpi.comm_world.rank)

    return linear_cluster(2), program


def test_failed_run_reports_its_error(capsys):
    from repro.cli import main as cli_main

    workloads.WORKLOADS["stuck"] = Workload("stuck", "recv-recv deadlock",
                                            _deadlock_build)
    try:
        outcome = workloads.run("stuck")
        spec = JobSpec(kind="workload", params={"workload": "stuck"})
        result = Runner(workers=1).run([spec])[0]
        status = cli_main(["run", "--workload", "stuck"])
    finally:
        del workloads.WORKLOADS["stuck"]
    assert not outcome.ok and outcome.results is None
    assert isinstance(outcome.error, DeadlockError)
    assert result.ok  # the job ran; the workload failed
    assert result.payload["error"].startswith("DeadlockError: ")
    assert "trace" in result.payload
    assert status == 1
    assert "workload stuck failed: DeadlockError" in capsys.readouterr().err


def test_metrics_of_interest_reported_when_instrumented():
    outcome = _run("cfd_halo", seed=0, instrumentation=True)
    assert set(outcome.metrics) == {"chmad.packets", "mad.bytes",
                                    "rdma.writes"}
    assert outcome.metrics["chmad.packets"] > 0
    bare = _run("cfd_halo", seed=0)
    assert bare.metrics == {}
    assert bare.digest == outcome.digest  # instrumentation is invisible
