"""Command-line front end: exit codes, artifact layout, determinism,
config round-trips, and the validate suite."""

import json
import math
from pathlib import Path

import pytest

from mangledworlds import monte_carlo
from mangledworlds.cli import run


def _read(path: Path) -> bytes:
    return path.read_bytes()


def _no_temp_droppings(root: Path) -> bool:
    return not list(root.rglob("*.tmp-*"))


class TestExitCodes:
    def test_headline_passes(self, tmp_path, capsys):
        assert run(["headline", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "0.317310508" in text
        assert "-43429.45" in text

    def test_mc_requires_seed(self, tmp_path):
        assert run(["mc", "--out", str(tmp_path), "--n-events", "10",
                    "--n-paths", "1000"]) == 2

    def test_unknown_flag(self, tmp_path):
        assert run(["headline", "--frobnicate", "1"]) == 2

    def test_unknown_subcommand(self):
        assert run(["transmogrify"]) == 2

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"no_such_knob": 1}')
        assert run(["headline", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_constraint_violation_names_field(self, tmp_path, capsys):
        code = run(["pde", "--out", str(tmp_path), "--w", "-0.5"])
        assert code == 2
        assert "w" in capsys.readouterr().err

    def test_snapshot_past_horizon_is_rejected(self, tmp_path, capsys):
        code = run(["pde", "--out", str(tmp_path), "--T", "2", "--y-max", "10",
                    "--n-cells", "512", "--dt", "0.005", "--snapshots", "1,3"])
        assert code == 2
        assert "snapshot time 3.0" in capsys.readouterr().err

    def test_born_mc_engine_requires_seed(self, tmp_path):
        assert run(["born", "--out", str(tmp_path), "--engines",
                    "analytic,mc"]) == 2


class TestArtifacts:
    def test_headline_layout(self, tmp_path):
        assert run(["headline", "--out", str(tmp_path), "--name", "h1"]) == 0
        d = tmp_path / "h1"
        assert (d / "config.json").exists()
        assert (d / "summary.txt").exists()
        assert json.loads((d / "headline.json").read_text())["passed"] is True
        assert _no_temp_droppings(tmp_path)

    def test_scan_layout(self, tmp_path):
        assert run(["scan", "--out", str(tmp_path), "--p-list", "0.6,0.7"]) == 0
        lines = (tmp_path / "scan" / "scan.csv").read_text().splitlines()
        assert lines[0].startswith("p,r,v,w")
        assert len(lines) == 3

    def test_pde_snapshots(self, tmp_path):
        assert run(["pde", "--out", str(tmp_path), "--T", "1",
                    "--y-max", "10", "--n-cells", "512", "--dt", "0.005",
                    "--snapshots", "0.5,1"]) == 0
        d = tmp_path / "pde"
        snap = (d / "snapshots.csv").read_text().splitlines()
        assert snap[0] == "y,density,t"
        assert len(snap) == 1 + 2 * 513
        surv = (d / "survivors.csv").read_text().splitlines()
        assert surv[0] == "t,log10_count,growth_log"
        assert _no_temp_droppings(tmp_path)

    def test_analytic_layout(self, tmp_path):
        assert run(["analytic", "--out", str(tmp_path)]) == 0
        d = tmp_path / "analytic"
        for name in ("mu0.csv", "mu1.csv", "w.csv", "born.csv"):
            assert (d / name).exists(), name
        born = (d / "born.csv").read_text().splitlines()
        assert born[0] == "F,G,log10_lambda,gamma"

    def test_born_table(self, tmp_path):
        assert run(["born", "--out", str(tmp_path), "--engines", "analytic",
                    "--t1", "50", "--t2", "100", "--p", "0.6"]) == 0
        d = tmp_path / "born"
        rows = (d / "deviation.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 outcomes
        meta = json.loads((d / "deviation.json").read_text())["metadata"]
        assert meta["engines"] == ["analytic"]


class TestDeterminismAndRoundTrip:
    def test_mc_byte_identical_reruns(self, tmp_path):
        # three 2^16-path chunks, so the worker count decides the schedule
        args = ["mc", "--out", str(tmp_path), "--seed", "31337",
                "--n-events", "50", "--n-paths", str(3 * monte_carlo.CHUNK),
                "--p", "0.6", "--eps", "0.3"]
        assert run(args + ["--name", "a", "--workers", "1"]) == 0
        assert run(args + ["--name", "b", "--workers", "2"]) == 0
        for name in ("histogram.csv", "estimates.json"):
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)
        est = json.loads((tmp_path / "a" / "estimates.json").read_text())
        rows = (tmp_path / "a" / "histogram.csv").read_text().splitlines()[1:]
        total = math.fsum(float(row.split(",")[2]) for row in rows)
        assert (est["log10_estimate"] * math.log(10.0)
                == pytest.approx(math.log(total) + est["histogram_log_offset"],
                                 abs=1e-9))

    def test_born_mc_byte_identical_across_workers(self, tmp_path):
        args = ["born", "--out", str(tmp_path), "--engines", "analytic,mc",
                "--seed", "77", "--n-paths", str(3 * monte_carlo.CHUNK),
                "--p", "0.55", "--eps", "0.2", "--t1", "20", "--t2", "60"]
        assert run(args + ["--name", "a", "--workers", "1"]) == 0
        assert run(args + ["--name", "b", "--workers", "2"]) == 0
        for name in ("deviation.json", "deviation.csv"):
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)

    def test_mc_walks_once(self, tmp_path, monkeypatch):
        calls = []
        simulate = monte_carlo._simulate

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(monte_carlo, "_simulate", counting)
        assert run(["mc", "--out", str(tmp_path), "--seed", "5",
                    "--n-events", "20", "--n-paths", "4096"]) == 0
        assert len(calls) == 1

    def test_config_round_trip(self, tmp_path):
        assert run(["analytic", "--out", str(tmp_path), "--name", "first",
                    "--v", "1.25", "--w", "0.75", "--times", "1,3"]) == 0
        cfg = tmp_path / "first" / "config.json"
        assert json.loads(cfg.read_text())["v"] == 1.25
        assert run(["analytic", "--out", str(tmp_path), "--name", "second",
                    "--config", str(cfg)]) == 0
        for name in ("mu0.csv", "mu1.csv", "w.csv", "born.csv"):
            assert _read(tmp_path / "first" / name) == _read(tmp_path / "second" / name)

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MANGLEDWORLDS_OUT", str(tmp_path / "env-root"))
        assert run(["headline"]) == 0
        assert (tmp_path / "env-root" / "headline" / "summary.txt").exists()


class TestValidate:
    def test_determinism_check_changes_worker_count(self, tmp_path, monkeypatch):
        used = []
        simulate = monte_carlo.simulate_survivors

        def recording(*args, **kwargs):
            used.append(kwargs["workers"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(monte_carlo, "simulate_survivors", recording)
        assert run(["validate", "--out", str(tmp_path), "--workers", "2"]) == 0
        assert sorted(used) == [1, 2]

    def test_full_cross_oracle_suite_passes(self, tmp_path, capsys):
        assert run(["validate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        summary = (tmp_path / "validate" / "summary.txt").read_text()
        assert "all checks passed" in summary
