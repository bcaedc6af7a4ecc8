"""Command-line front end: exit codes, artifact layout, determinism,
config round-trips, and the validate suite."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mangledworlds
from mangledworlds import cli, monte_carlo
from mangledworlds.cli import DEFAULTS, run


def _read(path: Path) -> bytes:
    return path.read_bytes()


def _no_temp_droppings(root: Path) -> bool:
    return not list(root.rglob("*.tmp-*"))


class TestExitCodes:
    @pytest.fixture(autouse=True)
    def exit_2_leaves_the_root_as_it_was(self, monkeypatch):
        """Every run here that exits 2 leaves its output root as it found
        it: no run directory, no partial artifacts."""
        def checked(argv):
            root = Path(argv[argv.index("--out") + 1] if "--out" in argv else "runs")
            before = sorted(root.rglob("*"))
            code = cli.run(argv)
            if code == 2:
                assert sorted(root.rglob("*")) == before, argv
            return code

        monkeypatch.setitem(globals(), "run", checked)

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

    @pytest.mark.parametrize("sub", ["analytic", "pde", "headline", "scan"])
    def test_workers_only_where_the_walker_runs(self, tmp_path, capsys, sub):
        assert run([sub, "--workers", "3", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run(["transmogrify"]) == 2

    @pytest.mark.parametrize("name", ["..", ".", "a/b", "/abs"])
    def test_name_is_one_path_component(self, tmp_path, capsys, name):
        # '..' would rename the root's parent, '/abs' write outside the
        # root and '.' into the root itself
        root = tmp_path / "runs"
        root.mkdir()
        if name == "/abs":
            name = str(tmp_path / "elsewhere")
        assert run(["scan", "--out", str(root), "--name", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--name must be one path component" in err
        assert list(tmp_path.iterdir()) == [root]

    def test_an_output_root_that_is_a_file_is_one_error_line(self, tmp_path,
                                                             capsys):
        root = tmp_path / "afile"
        root.write_text("mine")
        assert run(["scan", "--out", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Not a directory" in err
        assert root.read_text() == "mine" and list(tmp_path.iterdir()) == [root]

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
                    "--n-cells", "512", "--snapshots", "1,3"])
        assert code == 2
        assert "snapshot time 3.0" in capsys.readouterr().err

    def test_undersized_pde_domain_is_loud(self, tmp_path, capsys):
        # the far-edge mode would carry a count ~9e19x too large
        code = run(["pde", "--out", str(tmp_path), "--T", "450", "--y-max", "40",
                    "--n-cells", "4096"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "y_max = 40" in err

    @pytest.mark.parametrize("argv,config,message", [
        (["pde", "--T", "inf"], None, "T must be positive and finite"),
        (["born", "--engines", "analytic,pde", "--t1", "inf"], None,
         "T must be positive and finite"),
        (["pde", "--T", "0"], None, "T must be positive and finite"),
        (["born", "--engines", "analytic,pde", "--t1", "0"], None,
         "t1 must be positive and finite"),
        # the grid solver is exact in time and has no step: the flag is gone,
        # and a config written while it had one must drop its "dt" key
        (["pde", "--dt", "1e-3"], None, "unrecognized arguments: --dt"),
        (["pde"], {"subcommand": "pde", "v": 1.0, "w": 0.5, "eps": 0.1, "T": 8.0,
                   "y_max": 40.0, "n_cells": 4096, "dt": 0.001, "snapshots": "2,4,8"},
         "config key 'dt' is not valid"),
    ], ids=["pde-T-inf", "born-t1-inf", "pde-T-0", "born-t1-0", "pde-dt-flag",
            "pde-dt-config"])
    def test_bad_horizon_or_time_step_is_an_error_line(self, tmp_path, capsys,
                                                       argv, config, message):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
            argv = argv + ["--config", str(path)]
        assert run(argv + ["--out", str(tmp_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("argv,message", [
        (["analytic", "--eps", "inf"], "boundary offset eps must be positive"),
        (["analytic", "--v", "inf"], "drift v must be positive"),
        (["scan", "--r-list", "inf"], "event rate r must be positive"),
        (["born", "--r", "inf"], "event rate r must be positive"),
        # finite, but the closed forms overflow to nan (inf - inf)
        (["analytic", "--v", "1e308"], "log_mu0 overflows to nan at v=1e+308"),
        (["analytic", "--eps", "1e308"], "eps=1e+308"),
    ], ids=["analytic-eps", "analytic-v", "scan-r", "born-r", "analytic-v-1e308",
            "analytic-eps-1e308"])
    def test_non_finite_model_parameter_is_an_error_line(self, tmp_path, capsys,
                                                         argv, message):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_born_mc_engine_requires_seed(self, tmp_path, capsys):
        assert run(["born", "--out", str(tmp_path), "--engines",
                    "analytic,mc"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_born_rejects_unknown_tilt(self, tmp_path, capsys):
        assert run(["born", "--out", str(tmp_path), "--tilt", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tilt" in err

    @pytest.mark.parametrize("times", ["inf", "1,inf", "nan"])
    def test_analytic_rejects_non_finite_times(self, tmp_path, capsys, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic
            assert run(["analytic", "--out", str(tmp_path), "--times", times]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t must be positive and finite, got ")
        assert times.split(",")[-1] in err

    def test_analytic_rejects_nan_points(self, tmp_path, capsys):
        assert run(["analytic", "--out", str(tmp_path), "--y-points", "0,nan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "y >= 0" in err

    def test_analytic_subnormal_time_is_an_error_line(self, tmp_path, capsys):
        # w t = 5e-324: wt / 2 rounds to 0, which divided by zero in bracket
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the densities'
            assert run(["analytic", "--out", str(tmp_path), "--times",
                        "1e-323"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bracket requires wt" in err

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_mc_bins_out_of_range(self, tmp_path, capsys, bins):
        assert run(["mc", "--out", str(tmp_path), "--seed", "1", "--n-events",
                    "10", "--n-paths", "1000", "--bins", bins]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bins" in err

    @pytest.mark.parametrize("argv,config,key", [
        (["born", "--outcomes", "a:0.5:x,b:0.5:1"], None, "outcomes"),
        (["born", "--outcomes", "a:0.5:1.5"], None, "outcomes"),
        (["scan", "--p-list", "0.5,abc"], None, "p_list"),
        (["analytic", "--times", "1,zz"], None, "times"),
        (["pde"], {"n_cells": "abc"}, "n_cells"),
        (["born"], {"outcomes": [{"F": 0.5, "G": 2}]}, "label"),
        # integral keys are not truncated, and a JSON boolean is no number
        (["mc"], {"seed": 7.9, "n_paths": 70000}, "seed"),
        (["mc"], {"seed": 7, "n_paths": 70000.5}, "n_paths"),
        (["mc"], {"seed": True}, "seed"),
        (["mc", "--seed", "7"], {"n_events": 10.5}, "n_events"),
        (["mc", "--seed", "7"], {"bins": True}, "bins"),
        (["pde"], {"n_cells": 512.5}, "n_cells"),
        (["born"], {"n_cells": True}, "n_cells"),
        (["born"], {"outcomes": [{"label": "b", "F": 0.25, "G": 2.9}]}, "G"),
        (["born"], {"outcomes": [{"label": "b", "F": 0.25, "G": True}]}, "G"),
        # nor is it a float: not for a float key, a list entry or outcome F
        (["analytic"], {"v": True}, "v"),
        (["born"], {"eps": True}, "eps"),
        (["analytic"], {"times": [1, True]}, "times"),
        (["scan"], {"p_list": [0.55, False]}, "p_list"),
        (["born"], {"outcomes": [{"label": "a", "F": True, "G": 1}]}, "F"),
        # refused before the grid is sized from the outcomes
        (["born"], {"outcomes": [], "engines": "analytic,pde"},
         "at least one outcome"),
        (["born", "--n-cells", "4096"], {"outcomes": [], "engines": "analytic,pde"},
         "at least one outcome"),
    ])
    def test_malformed_number_is_a_usage_error(self, tmp_path, capsys, argv,
                                               config, key):
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


class TestCommandLine:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default root, should a run start

    def test_equals_form_prefixes_and_the_last_repeat(self, tmp_path):
        assert run(["analytic", f"--out={tmp_path}", "--v=1.25", "--ti", "1,3",
                    "--w", "0.25", "--w=-0.5", "--w", "0.75"]) == 0
        cfg = json.loads((tmp_path / "analytic" / "config.json").read_text())
        assert (cfg["v"], cfg["times"], cfg["w"]) == (1.25, "1,3", 0.75)

    def test_an_exact_flag_is_not_a_prefix(self, tmp_path):
        # --out is itself, though it begins --outcomes
        assert run(["born", "--out", str(tmp_path), "--outc", "a:0.5:1,b:0.5:1"]) == 0
        cfg = json.loads((tmp_path / "born" / "config.json").read_text())
        assert cfg["outcomes"] == "a:0.5:1,b:0.5:1"

    @pytest.mark.parametrize("argv,message", [
        ([], "expected a subcommand, one of analytic, pde, mc,"),
        (["transmogrify"], "got 'transmogrify'"),
        (["born", "--n", "3"],
         "ambiguous option: --n could match --name, --n-paths, --n-cells"),
        (["mc", "--seed"], "argument --seed: expected one argument"),
        (["mc", "--seed", "1", "--n-paths", "7.5"],
         "argument --n-paths: invalid int value: '7.5'"),
        (["analytic", "--v=fast"], "argument --v: invalid float value: 'fast'"),
        (["headline", "extra"], "unrecognized arguments: extra"),
        (["scan", "--", "--p-list", "0.6"], "unrecognized arguments: --"),
    ], ids=["none", "unknown", "ambiguous-prefix", "missing-value", "int-type",
            "float-type", "stray-positional", "double-dash"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, tmp_path, capsys, flag):
        assert run([flag]) == 0
        assert capsys.readouterr().out.startswith(cli.__doc__)
        for sub in DEFAULTS:
            assert run([sub, "--name", "x", flag]) == 0  # help after a flag too
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith(f"usage: mangledworlds {sub} ")
            want = {"--config", "--out", "--name",
                    *("--" + key.replace("_", "-") for key in DEFAULTS[sub])}
            if sub in ("mc", "born", "validate"):
                want.add("--workers")
            assert {line.split()[0] for line in lines[1:]} == want
        assert not list(tmp_path.iterdir())


#: SHA-256 of every file the GOLDEN_RUNS write.  A refactor must leave every
#: artifact byte-identical; re-record only for a deliberate change of output
#: (or another numpy/LAPACK build or another C library's erfc, whose
#: last-bit rounding may differ).
GOLDEN_RUNS = [
    ["analytic"], ["headline"], ["scan"],
    ["pde", "--n-cells", "512", "--y-max", "10", "--T", "2", "--snapshots", "1,2"],
    ["mc", "--seed", "7", "--n-paths", "70000", "--workers", "2"],
    ["mc", "--seed", "7", "--n-paths", "70000", "--tilt", "measure", "--name",
     "mc-measure", "--workers", "2"],
    ["born", "--engines", "analytic,pde,mc", "--seed", "3", "--n-paths", "70000",
     "--workers", "2"],
]
GOLDEN_SHA256 = {
    "analytic/born.csv": "dcaf4ce1d0273d0debac4864645cdcbc99379de24476ec5e15a293b27e4c6dfc",
    "analytic/config.json": "507ba9ec524357041729c9388acc48d5ed9ba96f0dadfbdecb295949892742bc",
    "analytic/mu0.csv": "572891137cab936d5583efea0f210e25f7949c547c0a3ad191aba961da87bed7",
    "analytic/mu1.csv": "676a0113a823d5ba71943e9369251211e79288bd8299e6b96f719db4a88588e8",
    "analytic/summary.txt": "10c88fbb0e7a4bae047885a0870f770b3ee8d97fa6d1bc9cbf8cb238cee274f5",
    "analytic/w.csv": "f777cf1cd348682c71d8fd95c47795ad56a88e4272b4de21add5662694024cbc",
    "born/config.json": "38a102f5a020df6b856ec6aae01a0feda045ccff85d024d4bb0d49163c508b93",
    "born/deviation.csv": "a69f6eec0158b9d1b5f639c26ce3d3571415afcce8129f0df6deddf81bc22eb1",
    "born/deviation.json": "964285a156d30c1a1ad0dada5229f4e58fca0f1195da6858bd4cadebb16da30f",
    "born/summary.txt": "2adf40f357af512182914a13aa4c2361356da1e6d03ef57cf8576e5234fa08fa",
    "headline/config.json": "5226f1fe83765f49bfaa0e91824808ba32f33e7ab919ae99e8195f0df7461806",
    "headline/headline.json": "bf3c8eaa2dd92f51f2900f8fb2b7f159b9ff159195cd347855dfce16e37a322e",
    "headline/summary.txt": "739de55c05010f5ed98e33c25efcb9b7523268b1ca30b3b88bc4a80f058bad57",
    "mc-measure/config.json": "3b712fe70a9a30d113980b55934839dbb314b855faba8364afd09d51b37c92dc",
    "mc-measure/estimates.json": "c95f5c3ee78206464eede7ea147c8457fca853482a2680955932bfb447a687d2",
    "mc-measure/histogram.csv": "8b260cef15bf5cab774f2f3b8d177ea2ee2b3ba5a24abfa963d80cfed02501f9",
    "mc-measure/summary.txt": "b6bd3a6b33d88aa49b03d9224549bbd670cb972de5310a918a4785b74f440922",
    "mc/config.json": "6b57f115b6b96fb4b35f83fcb037e36f135ed937717165d65379ec1236d8adcf",
    "mc/estimates.json": "338d7f7d4940bd6b12cded0bc406c530396e0265b7e8d787b58b42c9cb7600c6",
    "mc/histogram.csv": "84917134fedd37b2d6f74cdcd6acf6c56a114b24475345e2d15e37f20f4eeec2",
    "mc/summary.txt": "6476f68b88453b168b9f75441a61cbe32ae5ef054e2904283a6b990fbcf6f7d3",
    "pde/config.json": "2f3a10ac7f1007a6e19bcae26dce0aeee0693430233a5be7a809659ba4c60bfd",
    "pde/snapshots.csv": "bb44e7263d95d0e5090b425d1c569de5c921a8526d773bec20360634f51f2a2b",
    "pde/summary.txt": "0690e6907f2e7d5268e3585526fa3f96e9e1f84613b339eee39611ebe302ebf6",
    "pde/survivors.csv": "8468949511961044cc27b404936e651985c1bbe262f173081efbe7afe2593bd7",
    "scan/config.json": "046b5d3c2145aefc62ccfd364031222e761beff2f380e5cc7e998a07464fbea2",
    "scan/scan.csv": "73c211d070d6bada6daa1caafa0bb4d0069d8099894ee900b662781e2a7c8acd",
    "scan/summary.txt": "e143df59a1b6138d04709f0ec3457ae72db473f8f3b314f0da45ac477f2db57b",
}


class TestArtifacts:
    def test_golden_artifacts_are_byte_identical(self, tmp_path):
        for argv in GOLDEN_RUNS:
            assert run(argv + ["--out", str(tmp_path)]) == 0, argv
        got = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.rglob("*") if path.is_file()}
        assert got == GOLDEN_SHA256

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
                    "--y-max", "10", "--n-cells", "512",
                    "--snapshots", "0.5,1"]) == 0
        d = tmp_path / "pde"
        snap = (d / "snapshots.csv").read_text().splitlines()
        assert snap[0] == "y,density,t"
        assert len(snap) == 1 + 2 * 513
        surv = (d / "survivors.csv").read_text().splitlines()
        assert surv[0] == "t,log10_count,growth_log"
        assert _no_temp_droppings(tmp_path)

    def test_pde_survivors_one_row_per_time(self, tmp_path):
        # T is also a snapshot time: it gets one row, the final count's
        assert run(["pde", "--out", str(tmp_path), "--T", "2", "--y-max", "10",
                    "--n-cells", "512", "--snapshots", "1,2"]) == 0
        d = tmp_path / "pde"
        rows = [r.split(",") for r in
                (d / "survivors.csv").read_text().splitlines()[1:]]
        assert [float(t) for t, _, _ in rows] == [1.0, 2.0]
        summary = (d / "summary.txt").read_text()
        assert f"survivor log10 count = {float(rows[-1][1]):.12g}" in summary
        assert "far-edge density    = " in summary
        assert "modes kept          = " in summary
        assert "truncation estimate = " in summary

    @pytest.mark.parametrize("T", ["1e-8", "2e-9"])
    def test_pde_at_a_tiny_horizon_keeps_every_mode(self, tmp_path, T):
        # the count falls linearly from the start there: a rate that moved
        # between runs and snapshots would be roundoff in rebuilding the
        # start from all 512 modes, ~1e-8 of a count that moves ~1e-7
        rates = []
        for name, horizon in (("coarse", 1e-7), ("tiny", float(T))):
            assert run(["pde", "--out", str(tmp_path), "--name", name,
                        "--T", repr(horizon), "--y-max", "10", "--n-cells", "512",
                        "--snapshots", f"{horizon / 4!r},{horizon / 2!r}"]) == 0
            d = tmp_path / name
            assert "modes kept          = 512 of 512" in (d / "summary.txt").read_text()
            lines = (d / "survivors.csv").read_text().splitlines()[1:]
            rows = [[float(x) for x in line.split(",")] for line in lines]
            assert [t for t, _, _ in rows] == pytest.approx(
                [horizon / 4, horizon / 2, horizon], rel=1e-12)
            rates += [log10_count * math.log(10.0) / t for t, log10_count, _ in rows]
        assert max(rates) < 0.0
        assert rates == pytest.approx([rates[0]] * len(rates), rel=1e-4)

    def test_a_failed_rerun_keeps_the_earlier_run(self, tmp_path):
        d = tmp_path / "t14"
        assert run(["analytic", "--out", str(tmp_path), "--name", "t14"]) == 0
        before = {path.name: path.read_bytes() for path in d.iterdir()}
        # mu0.csv is written before log_mu1_approx overflows
        assert run(["analytic", "--out", str(tmp_path), "--name", "t14",
                    "--eps", "1e308"]) == 2
        assert {path.name: path.read_bytes() for path in d.iterdir()} == before
        assert list(tmp_path.iterdir()) == [d]
        # another subcommand under the same name replaces the run whole
        assert run(["scan", "--out", str(tmp_path), "--name", "t14"]) == 0
        assert sorted(path.name for path in d.iterdir()) == [
            "config.json", "scan.csv", "summary.txt"]
        assert list(tmp_path.iterdir()) == [d]

    def test_a_directory_that_holds_no_run_is_kept(self, tmp_path, capsys):
        d = tmp_path / "notes"
        d.mkdir()
        (d / "keep.txt").write_text("mine")
        assert run(["scan", "--out", str(tmp_path), "--name", "notes"]) == 2
        assert "no config.json" in capsys.readouterr().err
        assert [path.name for path in d.iterdir()] == ["keep.txt"]
        assert list(tmp_path.iterdir()) == [d]

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

    @pytest.mark.parametrize("p,n_cells", [("0.55", 2048), ("0.65", 4096), ("0.7", 4096),
                                           ("0.8", 8192)])
    def test_born_pde_default_grid_resolves_eps(self, tmp_path, p, n_cells):
        # unset, n_cells grows with y_max until eps = 0.2 >= 4h
        assert run(["born", "--out", str(tmp_path), "--engines", "analytic,pde",
                    "--p", p]) == 0
        report = json.loads((tmp_path / "born" / "deviation.json").read_text())
        assert report["metadata"]["grid"]["n_cells"] == n_cells
        assert [row["status"] for row in report["rows"]] == ["ok"] * 4

    def test_born_pde_fine_grid_at_a_long_horizon(self, tmp_path):
        # y_max 296 at 16384 cells: a noise floor that dips where a kept
        # sine crosses zero leaves stage one's roundoff there, and the shift
        # carries it into the far-edge mode; the rows are within 2e-4 of the
        # exact continuum composition
        assert run(["born", "--out", str(tmp_path), "--engines", "analytic,pde",
                    "--p", "0.8", "--n-cells", "16384"]) == 0
        rows = json.loads((tmp_path / "born" / "deviation.json").read_text())["rows"]
        pde = [row for row in rows if row["engine"] == "pde"]
        assert [row["status"] for row in pde] == ["ok", "ok"]
        for row, want in zip(pde, (1.022830, 0.977170)):
            assert row["share_over_born"] == pytest.approx(want, abs=2e-4)

    def test_born_explicit_n_cells_wins(self, tmp_path):
        assert run(["born", "--out", str(tmp_path), "--engines", "pde",
                    "--p", "0.65", "--n-cells", "2048"]) == 0
        report = json.loads((tmp_path / "born" / "deviation.json").read_text())
        assert report["metadata"]["grid"]["n_cells"] == 2048
        assert all("within 4h" in row["status"] for row in report["rows"])


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

    def test_mc_config_round_trip_keeps_an_integer_seed(self, tmp_path):
        assert run(["mc", "--out", str(tmp_path), "--name", "first", "--seed", "7",
                    "--n-events", "40", "--n-paths", "4096"]) == 0
        cfg = tmp_path / "first" / "config.json"
        seed = json.loads(cfg.read_text())["seed"]
        assert seed == 7 and type(seed) is int
        assert run(["mc", "--out", str(tmp_path), "--name", "second",
                    "--config", str(cfg)]) == 0
        for name in ("histogram.csv", "estimates.json"):
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

    def test_determinism_check_on_one_cpu(self, tmp_path, monkeypatch):
        # the default count, 1 here, is resolved before the other is chosen
        used = []
        simulate = monte_carlo.simulate_survivors

        def recording(*args, **kwargs):
            used.append(kwargs["workers"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(monte_carlo, "simulate_survivors", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run(["validate", "--out", str(tmp_path)]) == 0
        assert used == [1, 2]

    def test_a_failing_suite_keeps_its_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_validate_checks",
                            lambda workers: [("broken", False, "on purpose")])
        assert run(["validate", "--out", str(tmp_path)]) == 1
        summary = (tmp_path / "validate" / "summary.txt").read_text()
        assert "[FAIL] broken: on purpose" in summary
        assert list(tmp_path.iterdir()) == [tmp_path / "validate"]

    def test_full_cross_oracle_suite_passes(self, tmp_path, capsys):
        assert run(["validate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        summary = (tmp_path / "validate" / "summary.txt").read_text()
        assert "all checks passed" in summary


class TestImports:
    def test_no_scipy_at_runtime(self, tmp_path):
        # a fresh interpreter, since the test suite itself loads scipy
        script = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import mangledworlds.cli as cli
assert not scipy_modules(), ("import", scipy_modules())
for argv in (["validate"], ["born", "--engines", "analytic,pde"],
             ["pde", "--n-cells", "512", "--y-max", "10", "--T", "2",
              "--snapshots", "1,2"]):
    assert cli.run(argv + ["--out", sys.argv[1]]) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""
        env = {**os.environ, "PYTHONPATH": str(Path(mangledworlds.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_no_numpy_polynomial_at_import(self):
        # it costs the cold import several ms for one quadrature rule
        script = """
import sys
import mangledworlds.cli
assert "numpy.polynomial" not in sys.modules
"""
        env = {**os.environ, "PYTHONPATH": str(Path(mangledworlds.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_no_process_pool_machinery(self, tmp_path):
        # the walker forks its own children; the pool modules cost a cold
        # import ~10 ms that every subcommand would pay
        script = """
import sys
def pool_modules():
    return sorted(m for m in ("multiprocessing", "concurrent.futures")
                  if m in sys.modules)
import mangledworlds.cli as cli
assert not pool_modules(), ("import", pool_modules())
for argv in (["validate"], ["mc", "--seed", "3", "--n-paths", "200000",
                            "--n-events", "100", "--workers", "2"]):
    assert cli.run(argv + ["--out", sys.argv[1]]) == 0, argv
    assert not pool_modules(), (argv, pool_modules())
"""
        env = {**os.environ, "PYTHONPATH": str(Path(mangledworlds.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_no_argparse_gettext_or_locale(self, tmp_path):
        # the command line is parsed from DEFAULTS: argparse's gettext
        # imported locale inside every timed run
        script = """
import sys
def parser_modules():
    return sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules)
import mangledworlds.cli as cli
assert not parser_modules(), ("import", parser_modules())
for argv, code in ((["analytic"], 0),
                   (["pde", "--n-cells", "512", "--y-max", "10", "--T", "2",
                     "--snapshots", "1,2"], 0),
                   (["mc", "--seed", "3", "--n-paths", "70000", "--n-events", "50"], 0),
                   (["born", "--engines", "analytic,pde"], 0), (["headline"], 0),
                   (["scan"], 0), (["validate"], 0), (["mc", "--n-paths", "7.5"], 2),
                   (["born", "-h"], 0)):
    assert cli.run(argv + ["--out", sys.argv[1]]) == code, argv
    assert not parser_modules(), (argv, parser_modules())
"""
        env = {**os.environ, "PYTHONPATH": str(Path(mangledworlds.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
