"""Deviation tables, the headline check, and the survival-condition scan."""

import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from mangledworlds import analytic, monte_carlo, pde_solver
from mangledworlds.born_experiment import (BornOutcomeSpec, GAMMA_HEADLINE,
                                           deviation_table, headline_check,
                                           scan_to_csv,
                                           survival_condition_scan,
                                           validate_outcomes)
from mangledworlds.errors import DomainError
from mangledworlds.model_params import DecoherenceParams, to_diffusion
from mangledworlds.pde_solver import Grid


class TestOutcomeSpecs:
    def test_validation(self):
        with pytest.raises(DomainError):
            BornOutcomeSpec(label="bad", F=0.0, G=1)
        with pytest.raises(DomainError):
            BornOutcomeSpec(label="bad", F=1.5, G=1)
        with pytest.raises(DomainError):
            BornOutcomeSpec(label="bad", F=0.5, G=0)
        with pytest.raises(DomainError, match="F must"):
            BornOutcomeSpec(label="bad", F=math.nan, G=1)
        with pytest.raises(DomainError, match="G must"):
            BornOutcomeSpec(label="bad", F=0.5, G=math.nan)

    def test_probabilities_must_total_one(self):
        good = [BornOutcomeSpec("a", 0.5, 1), BornOutcomeSpec("b", 0.25, 2)]
        validate_outcomes(good)
        with pytest.raises(DomainError):
            validate_outcomes([BornOutcomeSpec("a", 0.5, 1)])
        with pytest.raises(DomainError):
            validate_outcomes([])
        with pytest.raises(DomainError, match="sum to nan"):
            validate_outcomes([SimpleNamespace(born_probability=math.nan)])


class TestDeviationTable:
    def test_single_outcome_every_engine(self):
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("sole", 1.0, 1)]
        report = deviation_table(outcomes, dp, eps=0.2, t1=50.0, t2=100.0,
                                 engines=("analytic", "pde", "mc"),
                                 n_paths=50_000, seed=5)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.status == "ok"
            assert row.share == pytest.approx(1.0, abs=1e-12)
            assert row.gamma_analytic == 1.0
        # the grid the pde engine sized for itself is recorded
        sized = pde_solver.suggested_grid(to_diffusion(dp, 0.2), 150.0)
        assert report.metadata["grid"] == asdict(sized)

    def test_pde_shares_stage_one(self, monkeypatch):
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("a", 0.5, 1), BornOutcomeSpec("b", 0.25, 1),
                    BornOutcomeSpec("c", 0.125, 2)]
        grid = Grid(y_max=20.0, n_cells=512)
        basis = pde_solver._Basis
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return basis(*args, **kwargs)

        monkeypatch.setattr(pde_solver, "_Basis", counting)
        report = deviation_table(outcomes, dp, eps=0.2, t1=50.0, t2=100.0,
                                 engines=("pde",), grid=grid)
        assert len(calls) == 1  # one eigenbasis serves every outcome
        monkeypatch.undo()
        diff = to_diffusion(dp, 0.2)
        for row, o in zip(report.rows, outcomes):
            alone = pde_solver.born_two_stage_counts(diff, grid, 50.0,
                                                     [(o.F, o.G)], 100.0)[0]
            assert row.log10_lambda == alone / math.log(10.0)

    # the born CLI's outcomes at p = 0.7 (w t = 543), and share/born from
    # bench/oracle.py::two_stage_ratios, the exact continuum composition
    P07_OUTCOMES = [BornOutcomeSpec("left", 0.5, 1), BornOutcomeSpec("right", 0.25, 2)]
    P07_EXACT = [1.0339963730466253, 0.9660036269533747]

    def test_pde_on_its_own_grid_matches_the_oracle_at_long_horizons(self):
        dp = DecoherenceParams(p=0.7, r=1.0)
        grid = pde_solver.suggested_grid(to_diffusion(dp, 0.2), 3600.0,
                                         max_abs_log_F=math.log(4.0), n_cells=4096)
        report = deviation_table(self.P07_OUTCOMES, dp, eps=0.2, t1=400.0,
                                 t2=3200.0, engines=("pde",), grid=grid)
        got = [row.share_over_born for row in report.rows]
        assert got == pytest.approx(self.P07_EXACT, abs=5e-4)

    def test_pde_on_its_own_grid_matches_the_oracle_at_p_0_8(self):
        # w t = 1107: stage two decays ~e^-492, so a shifted restart must not
        # be read from a stage one that its modes do not resolve yet
        dp = DecoherenceParams(p=0.8, r=1.0)
        report = deviation_table(self.P07_OUTCOMES, dp, eps=0.2, t1=400.0,
                                 t2=3200.0, engines=("pde",))
        assert report.metadata["grid"] == {"y_max": 296.0, "n_cells": 8192}
        got = [row.share_over_born for row in report.rows]
        assert got == pytest.approx([1.0228298984500217, 0.9771701015499783], abs=5e-4)

    def test_undersized_grid_gives_error_rows(self):
        # the y_max the grid was sized to before the far-edge term: the
        # far-edge mode would carry share/born 1.164 for the left outcome
        dp = DecoherenceParams(p=0.7, r=1.0)
        grid = Grid(y_max=143.0, n_cells=4096)
        report = deviation_table(self.P07_OUTCOMES, dp, eps=0.2, t1=400.0,
                                 t2=3200.0, engines=("analytic", "pde"), grid=grid)
        assert [row.status for row in report.rows[:2]] == ["ok", "ok"]
        for row in report.rows[2:]:
            assert row.status.startswith("error:") and "y_max = 143" in row.status
            assert row.share is None

    def test_mc_shares_stage_one(self, monkeypatch):
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("a", 0.5, 1), BornOutcomeSpec("b", 0.25, 1),
                    BornOutcomeSpec("c", 0.125, 2)]
        simulate = monte_carlo._simulate
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(monte_carlo, "_simulate", counting)
        report = deviation_table(outcomes, dp, eps=0.2, t1=40.0, t2=120.0,
                                 engines=("mc",), n_paths=20_000, seed=9)
        assert len(calls) == 1
        monkeypatch.undo()
        tilt = monte_carlo.default_tilt(dp, 160)
        s1 = monte_carlo.WalkSpec(dp=dp, eps=0.2, n_events=40, tilt=tilt)
        for row, o in zip(report.rows, outcomes):
            alone = monte_carlo.born_two_stage_mc_counts(s1, [(o.F, o.G)], 120,
                                                         20_000, 9)[0]
            assert row.log10_lambda == alone.estimate() / math.log(10.0)

    def test_analytic_shares_near_born_at_huge_wt1(self):
        # w t1 = 1e10 makes each gamma ~1 - 1e-5; shares deviate from the
        # Born probabilities by under 1e-4 relative
        dp = DecoherenceParams(p=0.6, r=1.0)
        w = to_diffusion(dp, 0.1).w
        t1 = 1e10 / w
        outcomes = [BornOutcomeSpec("heavy", 0.9, 1),
                    BornOutcomeSpec("light", 0.1, 1)]
        report = deviation_table(outcomes, dp, eps=0.1, t1=t1, t2=t1)
        for row, born in zip(report.rows, (0.9, 0.1)):
            assert abs(row.share / born - 1.0) < 1e-4

    def test_analytic_share_closed_form_identity(self):
        # share_k = F_k G_k gamma_k / sum_j F_j G_j gamma_j by construction
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("half", 0.5, 1),
                    BornOutcomeSpec("quarters", 0.25, 2)]
        t1, t2 = 50.0, 100.0
        report = deviation_table(outcomes, dp, eps=0.1, t1=t1, t2=t2)
        w = to_diffusion(dp, 0.1).w
        weights = [o.born_probability * analytic.gamma_correction(o.F, t1, w)
                   for o in outcomes]
        total = sum(weights)
        for row, want in zip(report.rows, weights):
            assert row.share == pytest.approx(want / total, rel=1e-12)

    def test_gamma_untouched_by_children_and_t2(self):
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("a", 0.25, 2), BornOutcomeSpec("b", 0.5, 1)]
        r1 = deviation_table(outcomes, dp, eps=0.1, t1=50.0, t2=100.0)
        r2 = deviation_table(outcomes, dp, eps=0.1, t1=50.0, t2=200.0)
        for a, b in zip(r1.rows, r2.rows):
            assert a.gamma_analytic == b.gamma_analytic

    def test_engine_failure_marks_rows(self):
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("deep", math.exp(-9.0), 1),
                    BornOutcomeSpec("rest", (1.0 - math.exp(-9.0)) / 2.0, 2)]
        tiny = Grid(y_max=10.0, n_cells=512)  # too small for |ln F| = 9
        report = deviation_table(outcomes, dp, eps=0.1, t1=10.0, t2=10.0,
                                 engines=("analytic", "pde"), grid=tiny)
        analytic_rows = [r for r in report.rows if r.engine == "analytic"]
        pde_rows = [r for r in report.rows if r.engine == "pde"]
        assert all(r.status == "ok" for r in analytic_rows)
        assert all(r.status.startswith("error") for r in pde_rows)
        assert all(r.share is None for r in pde_rows)

    def test_mc_needs_seed_and_integer_events(self):
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("sole", 1.0, 1)]
        with pytest.raises(DomainError):
            deviation_table(outcomes, dp, eps=0.1, t1=10.0, t2=10.0,
                            engines=("mc",))
        with pytest.raises(DomainError, match="tilt"):
            deviation_table(outcomes, dp, eps=0.1, t1=10.0, t2=10.0,
                            engines=("mc",), seed=1, tilt="bogus")
        report = deviation_table(outcomes, dp, eps=0.1, t1=10.5, t2=10.0,
                                 engines=("mc",), seed=1)
        assert report.rows[0].status.startswith("error")

    def test_csv_and_json_emission(self, tmp_path):
        dp = DecoherenceParams(p=0.6, r=1.0)
        outcomes = [BornOutcomeSpec("a", 0.5, 1), BornOutcomeSpec("b", 0.25, 2)]
        report = deviation_table(outcomes, dp, eps=0.1, t1=50.0, t2=100.0)
        csv_path = tmp_path / "dev.csv"
        json_path = tmp_path / "dev.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("engine,label,F,G,born_probability")
        assert len(lines) == 1 + len(report.rows)
        payload = json.loads(json_path.read_text())
        assert payload["metadata"]["wt1"] == pytest.approx(
            to_diffusion(dp, 0.1).w * 50.0)
        assert len(payload["rows"]) == len(report.rows)


class TestHeadline:
    def test_flagship_numbers(self):
        rep = headline_check()
        assert rep.passed
        assert rep.gamma == pytest.approx(GAMMA_HEADLINE, abs=1e-9)
        # log10(e^{-1e5}) = -1e5 / ln 10
        assert rep.log10_F == pytest.approx(-43429.448190325175, abs=1e-6)
        assert rep.log10_F < -43000.0

    def test_perturbations(self):
        rep = headline_check()
        # doubling the suppression moves the erfc argument to sqrt(2)
        assert rep.gamma_double_suppression == pytest.approx(
            0.045500263896358414, rel=1e-9)
        # a tenth of the suppression barely moves gamma off unity
        assert rep.gamma_tenth_suppression == pytest.approx(
            0.92034432544594204, rel=1e-9)

    def test_lines_mention_key_digits(self):
        text = "\n".join(headline_check().lines())
        assert "0.317310508" in text
        assert "-43429.45" in text


class TestSurvivalScan:
    def test_p06_row(self):
        rows = survival_condition_scan([0.6], [1.0])
        s = rows[0]
        assert s.v_minus_w == pytest.approx(0.67301166700925644, rel=1e-12)
        assert s.all_growth - s.v_minus_w == pytest.approx(0.5 * s.w, rel=1e-12)
        assert 0.5 * s.w == pytest.approx(0.019728, abs=1e-6)
        assert s.survival_regime and not s.degenerate

    def test_symmetric_split_degenerate(self):
        s = survival_condition_scan([0.5], [1.0])[0]
        assert s.degenerate
        assert s.w == 0.0
        assert s.v_minus_w == pytest.approx(math.log(2.0), rel=1e-12)

    def test_identity_column(self):
        rows = survival_condition_scan([0.51, 0.6, 0.75, 0.9, 0.99],
                                       [0.5, 1.0, 3.0])
        assert max(r.identity_residual for r in rows) <= 1e-12

    def test_csv(self, tmp_path):
        rows = survival_condition_scan([0.6, 0.7], [1.0])
        path = tmp_path / "scan.csv"
        scan_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["p", "r", "v", "w"]
        assert len(lines) == 3
