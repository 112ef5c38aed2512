"""The consolidated ``python -m repro`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_run_lists_kinds(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for kind in ("mpi_pingpong", "raw_pingpong", "baseline_point",
                 "workload"):
        assert kind in out


def test_run_requires_kind(capsys):
    assert main(["run"]) == 2


def test_run_executes_one_job_and_prints_payload(capsys):
    assert main(["run", "baseline_point", "-p", "model=ScaMPI",
                 "-p", "size=1024"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["job"]["kind"] == "baseline_point"
    assert doc["payload"]["model"] == "ScaMPI"
    assert doc["payload"]["latency_us"] > 0
    assert len(doc["result_digest"]) == 64


def test_run_uses_cache_on_rerun(tmp_path, capsys):
    argv = ["run", "baseline_point", "-p", "model=ScaMPI", "-p", "size=16",
            "--cache", str(tmp_path)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert not first["cached"]
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cached"]
    assert second["result_digest"] == first["result_digest"]
    assert second["payload"] == first["payload"]


def test_bare_cache_flag_uses_env_dir_and_zero_workers_means_all_cpus(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["run", "baseline_point", "-p", "model=ScaMPI", "-p", "size=8",
            "--cache", "--workers", "0"]
    assert main(argv) == 0
    assert not json.loads(capsys.readouterr().out)["cached"]
    assert len(list(tmp_path.glob("??/*.json"))) == 1
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["cached"]


def test_sweep_lists_figures(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    assert "figure6_tcp" in out and "figure9_multiprotocol" in out


def test_sweep_rejects_unknown_figure(capsys):
    assert main(["sweep", "figure99"]) == 2


def test_fuzz_rejects_unknown_workload(capsys):
    assert main(["fuzz", "--workload", "nope"]) == 2


def test_report_rejects_unknown_target(capsys):
    assert main(["report", "nope"]) == 2


def test_fuzz_single_seed_output_format(capsys):
    assert main(["fuzz", "--workload", "mixed", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok   mixed seed=2" in out
    assert "all 1 runs clean" in out


@pytest.mark.slow
def test_sweep_goldens_round_trip(tmp_path, capsys):
    goldens = tmp_path / "g.json"
    assert main(["sweep", "figure6_tcp", "--sizes", "4", "--quiet",
                 "--write-goldens", str(goldens)]) == 0
    capsys.readouterr()
    recorded = json.loads(goldens.read_text())
    assert recorded["figure"] == "figure6_tcp"
    assert recorded["sizes"] == [4]
    assert len(recorded["jobs"]) == 3  # ch_mad, ch_p4, raw_Madeleine

    # A re-run (serial or parallel) must match the recorded digests.
    assert main(["sweep", "figure6_tcp", "--sizes", "4", "--quiet",
                 "--goldens", str(goldens)]) == 0
    assert "digests match" in capsys.readouterr().out

    # Tampered goldens must fail the check.
    tampered = dict(recorded)
    tampered["jobs"] = {k: "0" * 64 for k in recorded["jobs"]}
    goldens.write_text(json.dumps(tampered))
    assert main(["sweep", "figure6_tcp", "--sizes", "4", "--quiet",
                 "--goldens", str(goldens)]) == 1


@pytest.mark.slow
def test_sweep_matches_committed_goldens_in_parallel(capsys):
    # The same digests CI checks with 2 workers: parallel execution must
    # reproduce the committed serial results bit for bit.
    assert main(["sweep", "figure6_tcp", "--sizes", "4,1024", "--quiet",
                 "--workers", "2",
                 "--goldens", "tests/goldens/figure6_tcp_small.json"]) == 0
    assert "digests match" in capsys.readouterr().out


@pytest.mark.slow
def test_sweep_renders_figure(capsys):
    assert main(["sweep", "figure6_tcp", "--sizes", "4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "ch_mad" in out and "ch_p4" in out


def test_legacy_fuzz_module_cli_was_removed():
    import repro.check.fuzz as fuzz_mod

    # The deprecated `python -m repro.check.fuzz` shim is gone; the
    # consolidated `python -m repro fuzz` subcommand is the one CLI.
    assert not hasattr(fuzz_mod, "main")
