"""EngineConfig wiring and the imperative install_* helpers."""

from __future__ import annotations

import json

from repro.cluster import ClusterConfig, EngineConfig, MPIWorld, NodeSpec
from repro.sim import Engine, NULL_INSTRUMENTS
from repro.sim.engine import (
    install_checker,
    install_instrumentation,
    seed_namespace,
)


def _two_nodes() -> ClusterConfig:
    return ClusterConfig(
        nodes=[NodeSpec(f"n{i}", networks=("sisci",)) for i in range(2)])


def _pingpong(mpi):
    comm = mpi.comm_world
    if comm.rank == 0:
        yield from comm.send(b"", dest=1, tag=1, size=64)
        yield from comm.recv(source=1, tag=2, size=64)
    else:
        yield from comm.recv(source=0, tag=1, size=64)
        yield from comm.send(b"", dest=0, tag=2, size=64)
    return comm.rank


# ---------------------------------------------------------------------------
# the config object
# ---------------------------------------------------------------------------

def test_default_engine_has_everything_off():
    engine = Engine()
    assert engine.instruments is NULL_INSTRUMENTS
    assert not engine.checker.enabled
    assert engine.fuzz is None
    assert engine.config is None


def test_config_installs_requested_features():
    engine = Engine(config=EngineConfig(
        seed=5, instrumentation=True, checker=True, fuzz_seed=3))
    assert engine.seed == 5
    assert engine.instruments.enabled
    assert engine.checker.enabled
    assert engine.fuzz is not None and engine.fuzz.seed == 3
    assert engine.tracer is engine.instruments.tracer


def test_trace_sink_implies_instrumentation():
    config = EngineConfig(trace_sink="/tmp/unused.json")
    assert config.wants_instrumentation
    assert Engine(config=config).instruments.enabled


def test_world_accepts_engine_config_and_exports_trace(tmp_path):
    sink = tmp_path / "trace.json"
    world = MPIWorld(_two_nodes(),
                     engine_config=EngineConfig(checker=True,
                                                trace_sink=str(sink)))
    assert world.engine.checker.enabled
    results = world.run(_pingpong)
    assert results == [0, 1]
    exported = json.loads(sink.read_text())
    assert exported["traceEvents"]


def test_world_without_config_matches_configured_world():
    # EngineConfig() must be behaviorally inert: same program, same
    # virtual-time outcome with and without it.
    plain = MPIWorld(_two_nodes())
    plain.run(_pingpong)
    configured = MPIWorld(_two_nodes(), engine_config=EngineConfig())
    configured.run(_pingpong)
    assert plain.engine.now == configured.engine.now


def test_seed_namespace_derivation():
    assert seed_namespace("fuzz", 7, "phase", "p0") == "fuzz/7/phase/p0"
    # Engine.rng streams are keyed by the same derivation, so equal
    # namespaces mean equal streams and distinct namespaces diverge.
    a, b = Engine(seed=1), Engine(seed=1)
    assert a.rng("x").random() == b.rng("x").random()
    assert a.rng("x/1").random() != b.rng("x/2").random()


# ---------------------------------------------------------------------------
# the imperative install helpers
# ---------------------------------------------------------------------------

def test_install_helpers_do_not_warn(recwarn):
    engine = Engine()
    install_instrumentation(engine)
    install_checker(engine, raise_on_violation=False)
    deprecations = [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
    assert not deprecations


def test_install_helper_equivalent_to_config():
    # The imperative and declarative spellings must drive identical
    # simulations.
    via_install = MPIWorld(_two_nodes())
    install_instrumentation(via_install.engine)
    via_install.run(_pingpong)

    via_config = MPIWorld(_two_nodes(),
                          engine_config=EngineConfig(instrumentation=True))
    via_config.run(_pingpong)

    assert via_install.engine.now == via_config.engine.now
    assert len(via_install.engine.tracer.records) == \
        len(via_config.engine.tracer.records)
