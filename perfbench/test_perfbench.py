"""The benchmark's own tests (quick mode: small worlds, short runs).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = run.WORKLOADS


def bench(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def worker_digest(workload: str, seed: int) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "plain", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])["digest"]


@pytest.fixture(scope="module")
def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


@pytest.fixture(scope="module")
def untraced() -> dict:
    return {workload: bench(workload, trace=0) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_smoke(untraced, workload):
    result = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_match_declaration(untraced, declared, workload):
    metrics = untraced[workload]["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} \
        == declared["end_to_end"]
    assert all(m["value"] != 0 for m in metrics.values())


def test_traced_metrics_match_declaration(declared):
    result = bench("ml_training", trace=1)
    assert result["correct"], result
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared["per_layer"]
    assert (HERE / "out" / "trace-ml_training.json").is_file()


def test_planted_wrong_oracle_raises_error_rate():
    inv = run.Invocation("ml_training", 0, quick=True)
    inv.oracle = {"digest": "0" * 64, "paper_error_pct": 1.0}
    metrics, _ = run.measure(inv, seconds=0)
    assert inv.attempted == run.MIN_REPS
    assert len(inv.failures) == inv.attempted
    assert all("!= oracle" in reason for reason in inv.failures)
    assert metrics["success_rate"][0] == 0.0
    assert metrics["wall_s"][0] > 0


@pytest.mark.parametrize("workload,changes", [
    ("ml_training", True), ("cfd_halo_lossy", True),
    ("paper_report", False)])
def test_seed_changes_inputs_only_where_seeded(workload, changes):
    assert (worker_digest(workload, 0) != worker_digest(workload, 1)) \
        == changes
