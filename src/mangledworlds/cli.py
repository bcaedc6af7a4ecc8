"""Batch command-line front end.

Subcommands
-----------
analytic   closed-form densities, counts and Born corrections to CSV
pde        finite-difference solve: snapshots and survivor series
mc         random-walk ensemble: histogram and estimates
born       deviation table across the selected engines
headline   the flagship gamma check at w*t1 = 1e10
scan       survival-condition scan over (p, r)
validate   fast cross-oracle suite; exit 1 on any failure

Configuration resolves as: built-in defaults < --config JSON file < explicit
flags.  Every run writes its fully resolved configuration to config.json in
the run directory, so re-running from that file reproduces the outputs.
The output root is --out, else $MANGLEDWORLDS_OUT, else ./runs; artifacts
land in <root>/<name>/ and are written atomically (temp file + rename).

Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analytic, born_experiment, monte_carlo, pde_solver
from ._io import atomic_write_text, format_float, rows_to_csv
from .errors import DomainError
from .model_params import DecoherenceParams, DiffusionParams, to_diffusion
from .special_functions import ERFCX_CROSSOVER, BRACKET_CROSSOVER_WT, \
    _bracket_asymptotic, _bracket_direct, _erfcx_cf, _erfcx_small

ENV_OUT = "MANGLEDWORLDS_OUT"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _floats(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(x) for x in text]
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _outcomes(spec) -> list[born_experiment.BornOutcomeSpec]:
    """Outcomes from 'label:F:G,label:F:G' or a JSON list of mappings."""
    out = []
    if isinstance(spec, str):
        for tok in spec.split(","):
            parts = tok.strip().split(":")
            if len(parts) != 3:
                raise UsageError(f"outcome {tok!r} is not label:F:G")
            out.append(born_experiment.BornOutcomeSpec(
                label=parts[0], F=float(parts[1]), G=int(parts[2])))
    else:
        for item in spec:
            out.append(born_experiment.BornOutcomeSpec(
                label=str(item["label"]), F=float(item["F"]), G=int(item["G"])))
    return out


DEFAULTS = {
    "analytic": {
        "v": 1.0, "w": 0.5, "eps": 0.1,
        "times": "1,2,4,8",
        "x_points": "-12,-8,-4,-2,-1,0",
        "y_points": "0,0.25,0.5,1,2,4",
        "t1": 50.0, "t2": 400.0,
        "F_list": "1,0.5,0.25,0.1,0.01", "G": 1,
    },
    "pde": {
        "v": 1.0, "w": 0.5, "eps": 0.1, "T": 8.0,
        "y_max": 40.0, "n_cells": 4096, "dt": 1e-3, "snapshots": "2,4,8",
    },
    "mc": {
        "p": 0.55, "r": 1.0, "eps": 0.2, "n_events": 400,
        "n_paths": 1 << 20, "seed": None, "tilt": "auto", "bins": 60,
    },
    "born": {
        "p": 0.55, "r": 1.0, "eps": 0.2, "t1": 400.0, "t2": 3200.0,
        "outcomes": "left:0.5:1,right:0.25:2",
        "engines": "analytic", "n_paths": 1 << 20, "seed": None,
        "n_cells": 2048, "tilt": "auto",
    },
    "headline": {},
    "scan": {"p_list": "0.51,0.55,0.6,0.7,0.8,0.9", "r_list": "1"},
    "validate": {},
}


def _resolve_config(sub: str, args: argparse.Namespace) -> dict:
    resolved = dict(DEFAULTS[sub])
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key in ("subcommand", "name", "out", "workers"):
                continue
            if key not in resolved:
                raise UsageError(f"config key {key!r} is not valid for "
                                 f"subcommand {sub!r}")
            resolved[key] = value
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _run_dir(args: argparse.Namespace, sub: str) -> Path:
    root = args.out or os.environ.get(ENV_OUT) or "runs"
    name = args.name or sub
    return Path(root) / name


def _write_config(run_dir: Path, sub: str, cfg: dict, args) -> None:
    payload = {"subcommand": sub, **cfg}
    if args.workers is not None:
        payload["workers"] = args.workers
    atomic_write_text(run_dir / "config.json",
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_summary(run_dir: Path, lines: list[str]) -> None:
    atomic_write_text(run_dir / "summary.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analytic(cfg: dict, run_dir: Path, args) -> int:
    dp = DiffusionParams(v=float(cfg["v"]), w=float(cfg["w"]), eps=float(cfg["eps"]))
    times = _floats(cfg["times"])
    xs = _floats(cfg["x_points"])
    ys = _floats(cfg["y_points"])
    fs = _floats(cfg["F_list"])
    g = int(cfg["G"])
    t1, t2 = float(cfg["t1"]), float(cfg["t2"])

    rows_to_csv(run_dir / "mu0.csv", ["x", "t", "log_density"],
                [[format_float(x), format_float(t),
                  format_float(analytic.log_mu0(x, t, dp))]
                 for t in times for x in xs])
    mu1_rows = []
    for t in times:
        for y in ys:
            mu1_rows.append([format_float(y), format_float(t),
                             format_float(analytic.log_mu1_exact(y, t, dp)),
                             format_float(analytic.log_mu1_approx(y, t, dp))])
    rows_to_csv(run_dir / "mu1.csv",
                ["y", "t", "log_density_exact", "log_density_approx"], mu1_rows)
    rows_to_csv(run_dir / "w.csv", ["t", "log10_W", "boundary_x"],
                [[format_float(t),
                  format_float(analytic.unmangled_count_W(t, dp).log10()),
                  format_float(analytic.boundary(t, dp))] for t in times])
    born_rows = []
    for f in fs:
        lam = analytic.lambda_count(f, g, t1, t2, dp)
        born_rows.append([format_float(f), g, format_float(lam.log10()),
                          format_float(analytic.gamma_correction(f, t1, dp.w))])
    rows_to_csv(run_dir / "born.csv", ["F", "G", "log10_lambda", "gamma"], born_rows)

    _write_summary(run_dir, [
        f"continuum params: v={dp.v} w={dp.w} eps={dp.eps}",
        f"survival regime (v > w): {dp.survival_regime}",
        f"wrote mu0.csv ({len(times) * len(xs)} rows), mu1.csv, w.csv, born.csv",
    ])
    return 0


def _cmd_pde(cfg: dict, run_dir: Path, args) -> int:
    dp = DiffusionParams(v=float(cfg["v"]), w=float(cfg["w"]), eps=float(cfg["eps"]))
    grid = pde_solver.Grid(y_max=float(cfg["y_max"]), n_cells=int(cfg["n_cells"]),
                           dt=float(cfg["dt"]))
    T = float(cfg["T"])
    snap_times = _floats(cfg["snapshots"])

    snap_rows: list[list[str]] = []
    series: list[list[str]] = []

    def on_snapshot(t, y, values, growth_log):
        for yi, vi in zip(y, values):
            snap_rows.append([format_float(yi), format_float(vi), format_float(t)])
        mass = float(np.trapezoid(values, y))
        log10 = (math.log(mass) + growth_log) / math.log(10.0) if mass > 0 else float("-inf")
        series.append([format_float(t), format_float(log10), format_float(growth_log)])

    field = pde_solver.solve(dp, grid, T, snapshot_times=snap_times,
                             on_snapshot=on_snapshot)
    count = pde_solver.survivor_count(field, grid, dp)
    series.append([format_float(field.t), format_float(count.log10()),
                   format_float(field.growth_log(dp))])

    rows_to_csv(run_dir / "snapshots.csv", ["y", "density", "t"], snap_rows)
    rows_to_csv(run_dir / "survivors.csv", ["t", "log10_count", "growth_log"], series)
    closed = analytic.unmangled_count_W(T, dp)
    rel = math.expm1(count.log_magnitude - closed.log_magnitude)
    _write_summary(run_dir, [
        f"grid: y_max={grid.y_max} n_cells={grid.n_cells} dt={grid.dt}",
        f"T={T}  survivor log10 count = {count.log10():.12g}",
        f"closed-form W log10       = {closed.log10():.12g}  (rel diff {rel:.3e})",
        f"absorbed (nu frame) = {field.absorbed:.12g}",
        f"far-edge inflow     = {field.far_inflow:.3e}",
        "snapshot densities are comoving-frame; scale by exp(growth_log)",
    ])
    return 0


def _cmd_mc(cfg: dict, run_dir: Path, args) -> int:
    if cfg["seed"] is None:
        raise UsageError("mc requires --seed (no silent nondeterminism)")
    dp = DecoherenceParams(p=float(cfg["p"]), r=float(cfg["r"]))
    n_events = int(cfg["n_events"])
    tilt = str(cfg["tilt"])
    if tilt == "auto":
        tilt = monte_carlo.default_tilt(dp, n_events)
    spec = monte_carlo.WalkSpec(dp=dp, eps=float(cfg["eps"]),
                                n_events=n_events, tilt=tilt)
    seed = int(cfg["seed"])
    n_paths = int(cfg["n_paths"])

    # one walk gives both the histogram and the estimate
    hist = monte_carlo.empirical_distribution(spec, n_paths, seed,
                                              bins=int(cfg["bins"]),
                                              workers=args.workers)
    rows_to_csv(run_dir / "histogram.csv", ["y_lo", "y_hi", "weight"],
                [[format_float(lo), format_float(hi), format_float(wt)]
                 for lo, hi, wt in zip(hist.edges[:-1], hist.edges[1:], hist.weights)])
    est = hist.estimate()
    se = hist.std_error()
    payload = {
        "spec": {"p": dp.p, "r": dp.r, "eps": spec.eps, "n_events": n_events,
                 "tilt": tilt},
        "seed": seed, "n_paths": n_paths,
        "survivor_count": hist.survivor_count,
        "log10_estimate": None if est.is_zero else est.log10(),
        "log10_std_error": None if se.is_zero else se.log10(),
        "histogram_log_offset": hist.log_offset,
    }
    atomic_write_text(run_dir / "estimates.json",
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_summary(run_dir, [
        f"spec: p={dp.p} r={dp.r} eps={spec.eps} N={n_events} tilt={tilt}",
        f"paths={n_paths} seed={seed} survivors={hist.survivor_count}",
        f"log10 estimate = {'-inf' if est.is_zero else f'{est.log10():.9g}'}",
        f"log10 std err  = {'-inf' if se.is_zero else f'{se.log10():.9g}'}",
    ])
    return 0


def _cmd_born(cfg: dict, run_dir: Path, args) -> int:
    engines = tuple(tok.strip() for tok in str(cfg["engines"]).split(",") if tok.strip())
    if "mc" in engines and cfg["seed"] is None:
        raise UsageError("the mc engine requires --seed")
    dp = DecoherenceParams(p=float(cfg["p"]), r=float(cfg["r"]))
    outcomes = _outcomes(cfg["outcomes"])
    t1, t2 = float(cfg["t1"]), float(cfg["t2"])
    eps = float(cfg["eps"])
    grid = None
    if "pde" in engines:
        diff = to_diffusion(dp, eps)
        max_l = max(-math.log(o.F) for o in outcomes)
        grid = pde_solver.suggested_grid(diff, t1 + t2, max_abs_log_F=max_l,
                                         n_cells=int(cfg["n_cells"]))
    tilt = None if cfg["tilt"] in (None, "auto") else str(cfg["tilt"])
    report = born_experiment.deviation_table(
        outcomes, dp, eps, t1, t2, engines, grid=grid,
        n_paths=int(cfg["n_paths"]),
        seed=None if cfg["seed"] is None else int(cfg["seed"]),
        workers=args.workers, tilt=tilt)
    report.to_csv(run_dir / "deviation.csv")
    report.to_json(run_dir / "deviation.json")
    lines = [f"experiment: {len(outcomes)} outcomes, engines {', '.join(engines)}",
             f"w*t1 = {report.metadata['wt1']:.6g}"]
    for r in report.rows:
        share = "n/a" if r.share is None else f"{r.share:.6f}"
        ratio = "n/a" if r.share_over_born is None else f"{r.share_over_born:.6f}"
        lines.append(f"  [{r.engine}] {r.label}: born={r.born_probability:.6f} "
                     f"share={share} share/born={ratio} "
                     f"gamma={r.gamma_analytic:.6f} ({r.status})")
    _write_summary(run_dir, lines)
    return 0


def _cmd_headline(cfg: dict, run_dir: Path, args) -> int:
    report = born_experiment.headline_check()
    atomic_write_text(run_dir / "headline.json", json.dumps({
        "wt1": report.wt1, "log_F": report.log_F, "gamma": report.gamma,
        "log10_F": report.log10_F, "passed": report.passed,
    }, indent=2, sort_keys=True) + "\n")
    _write_summary(run_dir, report.lines())
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_scan(cfg: dict, run_dir: Path, args) -> int:
    rows = born_experiment.survival_condition_scan(
        _floats(cfg["p_list"]), _floats(cfg["r_list"]))
    born_experiment.scan_to_csv(rows, run_dir / "scan.csv")
    lines = ["p      r      v        w        v-w      regime"]
    for s in rows:
        lines.append(f"{s.p:<6g} {s.r:<6g} {s.v:<8.5f} {s.w:<8.5f} "
                     f"{s.v_minus_w:<8.5f} "
                     f"{'degenerate' if s.degenerate else ('growing' if s.survival_regime else 'shrinking')}")
    _write_summary(run_dir, lines)
    for line in lines:
        print(line)
    return 0


def _validate_checks(workers) -> list[tuple[str, bool, str]]:
    """The fast cross-oracle suite behind `validate`."""
    checks: list[tuple[str, bool, str]] = []
    desk = DiffusionParams(v=1.0, w=0.5, eps=0.1)

    rep = born_experiment.headline_check()
    checks.append(("headline gamma", rep.passed,
                   f"gamma={rep.gamma:.9f} log10F={rep.log10_F:.2f}"))

    worst = max(s.identity_residual for s in born_experiment.survival_condition_scan(
        [0.51, 0.55, 0.6, 0.75, 0.9, 0.99], [0.5, 1.0, 2.0]))
    checks.append(("identity v-w = -r*xhat1", worst <= 1e-12, f"worst rel {worst:.2e}"))

    a = ERFCX_CROSSOVER
    seam = abs(_erfcx_small(a) - _erfcx_cf(a)) / _erfcx_cf(a)
    checks.append(("erfcx seam", seam <= 1e-12, f"rel gap {seam:.2e} at a={a}"))
    wt = BRACKET_CROSSOVER_WT
    bseam = abs(_bracket_direct(wt) - _bracket_asymptotic(wt)) / _bracket_asymptotic(wt)
    checks.append(("bracket seam", bseam <= 1e-10, f"rel gap {bseam:.2e} at wt={wt}"))

    from scipy.integrate import quad
    t = 2.0
    total, _ = quad(lambda x: math.exp(x + analytic.log_mu0(x, t, desk)),
                    -1.0 - desk.v * t - 12.0 * math.sqrt(desk.w * t),
                    -desk.v * t + 14.0 * math.sqrt(desk.w * t), limit=200)
    checks.append(("measure conservation", abs(total - 1.0) <= 1e-8,
                   f"integral e^x mu0 = {total:.12f}"))

    ok = True
    detail = []
    for tt in (2.0, 8.0):
        q = analytic.quad_unmangled_count(tt, desk)
        c = analytic.unmangled_count_W(tt, desk)
        rel = abs(math.expm1(q.log_magnitude - c.log_magnitude))
        ok = ok and rel <= 1e-6
        detail.append(f"wt={desk.w * tt:g}: {rel:.2e}")
    checks.append(("quadrature vs W", ok, "; ".join(detail)))

    res = abs(analytic.pde_residual_mu0(-1.0, 1.0, desk))
    res_bad = abs(analytic.pde_residual_mu0(-1.0, 1.0, desk, wrong_mean=True))
    checks.append(("mu0 solves its equation", res <= 1e-5 and res_bad >= 0.1,
                   f"residual {res:.2e}, flipped-mean control {res_bad:.2f}"))

    lam_q = analytic.quad_lambda_count(0.25, 4, 50.0, 800.0,
                                       DiffusionParams(1.0, 0.5, 0.05))
    lam_c = analytic.lambda_count(0.25, 4, 50.0, 800.0,
                                  DiffusionParams(1.0, 0.5, 0.05))
    rel = abs(math.expm1(lam_q.log_magnitude - lam_c.log_magnitude))
    checks.append(("lambda closed vs quadrature", rel <= 0.02, f"rel {rel:.2e}"))

    grid = pde_solver.Grid(y_max=20.0, n_cells=2048, dt=1e-3)
    field = pde_solver.solve(desk, grid, 4.0)
    got = pde_solver.survivor_count(field, grid, desk)
    want = analytic.unmangled_count_W(4.0, desk)
    rel = abs(math.expm1(got.log_magnitude - want.log_magnitude))
    checks.append(("grid solver vs W", rel <= 0.01, f"rel {rel:.2e}"))

    spec = monte_carlo.WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=12)
    exact = monte_carlo.enumerate_survivors(spec)
    ens = monte_carlo.simulate_survivors(spec, 200_000, seed=20260810,
                                         workers=workers)
    se = ens.std_error().to_float()
    gap = abs(ens.estimate().to_float() - exact.count)
    checks.append(("walker vs enumeration", gap <= 4.0 * se,
                   f"exact {exact.count}, estimate {ens.estimate().to_float():.2f}, "
                   f"gap/se {gap / se:.2f}"))

    other = 2 if workers == 1 else 1  # another worker count, another schedule
    again = monte_carlo.simulate_survivors(spec, 200_000, seed=20260810, workers=other)
    checks.append(("walker determinism", again == ens,
                   f"workers {workers or 'auto'} and {other} bit-identical"))
    return checks


def _cmd_validate(cfg: dict, run_dir: Path, args) -> int:
    checks = _validate_checks(args.workers)
    lines = []
    ok_all = True
    for name, ok, detail in checks:
        ok_all = ok_all and ok
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        lines.append(line)
        print(line)
    lines.append(f"validate: {'all checks passed' if ok_all else 'FAILURES present'}")
    print(lines[-1])
    _write_summary(run_dir, lines)
    return 0 if ok_all else 1


_COMMANDS = {
    "analytic": _cmd_analytic,
    "pde": _cmd_pde,
    "mc": _cmd_mc,
    "born": _cmd_born,
    "headline": _cmd_headline,
    "scan": _cmd_scan,
    "validate": _cmd_validate,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mangledworlds",
        description="Drift-diffusion-absorption world-counting laboratory")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, defaults in DEFAULTS.items():
        sp = subs.add_parser(sub, help=f"{sub} run")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help=f"output root (default $" + ENV_OUT + " or ./runs)")
        sp.add_argument("--name", help=f"run name (default {sub!r})")
        sp.add_argument("--workers", type=int, help="parallelism cap")
        for key, value in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(value, int):
                sp.add_argument(flag, dest=key, type=int)
            elif isinstance(value, float):
                sp.add_argument(flag, dest=key, type=float)
            else:
                sp.add_argument(flag, dest=key, type=str)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    sub = args.subcommand
    try:
        cfg = _resolve_config(sub, args)
        run_dir = _run_dir(args, sub)
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_config(run_dir, sub, cfg, args)
        return _COMMANDS[sub](cfg, run_dir, args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
