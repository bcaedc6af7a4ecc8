"""Benchmark of the mangledworlds command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run it from anywhere; it works on the checkout it lives in.  Each CLI run
happens in a fresh interpreter (``bench/child.py``) with ``--workers`` set
to the number of usable cores, and writes its artifacts under
``.bench_out/`` in the checkout.  The seed sets the walker ``--seed`` and
draws the Born outcomes' measure fractions; the same seed gives the same
inputs.  A run repeats its workload until ``--seconds`` are used up (at
least once), checks every run's artifacts against exact oracles and
reports medians.

``--trace 0`` reports the end-to-end metrics (set-up time, wall time, peak
memory).  ``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of ``bench/tracer.py`` plus the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (output checks) and ``metrics``; the lines before
it, starting with ``#``, give sample counts, workload-specific figures and
the environment.  Each run's full record is appended to
``.bench_out/results.jsonl`` (or ``--save``); ``--compare`` reads two such
files.  See ``bench/README.md`` for why each workload and metric is here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import oracle
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"
DEADLINE_S = 170.0  # every run ends well inside three minutes

WORKLOADS = ("born_pde", "born_mc", "mc_hist", "validate")
#: the CLI's born and mc defaults, passed explicitly so the oracles and the
#: runs cannot drift apart
BORN = {"p": 0.55, "r": 1.0, "eps": 0.2, "t1": 400.0, "t2": 3200.0}
MC = {"p": 0.55, "r": 1.0, "eps": 0.2, "n_events": 400, "n_paths": 1 << 20,
      "bins": 60}
BORN_PDE_CELLS = 4096
BORN_PDE_STEPS = 8000       # suggested_grid's dt = (t1 + t2) / 8000
BORN_MC_PATHS = 1 << 17
VALIDATE_CELL_STEPS = 2048 * 4000        # the grid check in `validate`
VALIDATE_PATH_EVENTS = 2 * 200_000 * 12  # walker check and its rerun
#: ln F ranges of the three outcomes, half an octave each; the third
#: outcome's draw only sets G, and its F is then the remaining probability
#: split into G equal children.  Narrow strata keep the walker's cost, which
#: falls as F shrinks (fewer lineages survive the split), similar across
#: seeds.
F_STRATA = ((2.0 ** -4, 2.0 ** -3.5), (2.0 ** -2.5, 2.0 ** -2), (2.0 ** -1.5, 2.0 ** -1))
K_OUTCOMES = len(F_STRATA)

#: born_pde: largest |share/born over the exact composition - 1| accepted.
#: The 4096-cell grid is within ~2e-5 today.
PDE_RATIO_TOL = 2e-4
#: born_mc: allowance on |mc ratio / continuum ratio - 1|.  The discrete
#: model's exact two-stage ratios (a lattice count over both stages) differ
#: from the continuum composition by at most ~1.2% over these F strata, so
#: the check is dominated by sampling error: at 2^17 paths the relative SE
#: of an outcome count is ~5% at F = 1, ~6% at F = 0.4 and ~11% at F = 1/16
#: (at 2^18 paths, seed 1 gave +2.7%, -4.8%, -8.8% at F = 1/2, 1/4, 1/16).
#: The allowance is 5 SE of the smallest-F outcome.
MC_RATIO_ALLOWANCE = 0.55
#: mc_hist: the estimate must lie within this many standard errors of the
#: exact lattice count, which itself sits +23.5% above the continuum count
MC_SIGMAS = 5.0
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_LAYERS = ("cli", "pde_solver", "monte_carlo", "analytic",
                 "special_functions", "born_experiment")
SETUP_CODE = ("import time; t = time.perf_counter(); import mangledworlds.cli; "
              "print(time.perf_counter() - t)")


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

def draw_outcomes(seed: int) -> list[tuple[str, float, int]]:
    """Three outcomes (label, F, G) with sum F G = 1, drawn from the seed."""
    rng = random.Random(seed)
    f1, f2, f3 = (math.exp(rng.uniform(math.log(lo), math.log(hi)))
                  for lo, hi in F_STRATA)
    rest = 1.0 - f1 - f2
    g3 = max(1, round(rest / f3))
    return [("o1", f1, 1), ("o2", f2, 1), ("o3", rest / g3, g3)]


@dataclass
class Case:
    workload: str
    seed: int
    workers: int
    args: list[str]
    cell_steps: float = 0.0   # grid cell-steps of K plain forward solves
    path_events: float = 0.0  # walker path-events the outputs need
    expect: dict = field(default_factory=dict)


def _flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += ["--" + key.replace("_", "-"), repr(value)]
    return out


def make_case(workload: str, seed: int, workers: int) -> Case:
    """The CLI arguments and the oracle values for one workload and seed."""
    from mangledworlds.model_params import (DecoherenceParams,
                                            binary_event_stats, to_diffusion)

    common = ["--workers", str(workers)]
    if workload in ("born_pde", "born_mc"):
        outcomes = draw_outcomes(seed)
        spec = ",".join(f"{label}:{f!r}:{g}" for label, f, g in outcomes)
        diff = to_diffusion(DecoherenceParams(p=BORN["p"], r=BORN["r"]), BORN["eps"])
        ratios = oracle.two_stage_ratios([(f, g) for _, f, g in outcomes],
                                         diff.w, diff.eps, BORN["t1"], BORN["t2"])
        expect = {"ratios": ratios}
        if workload == "born_pde":
            args = ["born", "--engines", "analytic,pde",
                    "--n-cells", str(BORN_PDE_CELLS), "--outcomes", spec]
            return Case(workload, seed, workers, args + _flags(BORN) + common,
                        cell_steps=K_OUTCOMES * BORN_PDE_CELLS * BORN_PDE_STEPS,
                        expect=expect)
        args = ["born", "--engines", "analytic,mc", "--n-paths", str(BORN_MC_PATHS),
                "--seed", str(seed), "--outcomes", spec]
        events = BORN["r"] * (BORN["t1"] + BORN["t2"])
        return Case(workload, seed, workers, args + _flags(BORN) + common,
                    path_events=K_OUTCOMES * BORN_MC_PATHS * events, expect=expect)
    if workload == "mc_hist":
        diff = to_diffusion(DecoherenceParams(p=MC["p"], r=MC["r"]), MC["eps"])
        expect = {
            "log_lattice": oracle.lattice_log_count(
                MC["p"], MC["eps"], MC["n_events"], binary_event_stats(MC["p"])[0]),
            "log_continuum": oracle.continuum_log_count(
                diff.v, diff.w, diff.eps, MC["n_events"] / MC["r"]),
        }
        return Case(workload, seed, workers,
                    ["mc", "--seed", str(seed)] + _flags(MC) + common,
                    path_events=MC["n_paths"] * MC["n_events"], expect=expect)
    return Case(workload, seed, workers, ["validate"] + common,
                cell_steps=VALIDATE_CELL_STEPS, path_events=VALIDATE_PATH_EVENTS)


# ---------------------------------------------------------------------------
# output checks: each returns [(name, passed, detail)] and extra figures
# ---------------------------------------------------------------------------

def _engine_rows(run_dir: Path, engine: str) -> list[dict]:
    rows = json.loads((run_dir / "deviation.json").read_text())["rows"]
    return [r for r in rows if r["engine"] == engine]


def check_born_pde(case: Case, run_dir: Path, stdout: str):
    checks, errs = [], []
    for row, want in zip(_engine_rows(run_dir, "pde"), case.expect["ratios"]):
        err = abs(row["share_over_born"] / want - 1.0)
        errs.append(err)
        checks.append((f"pde ratio {row['label']} vs exact composition",
                       err <= PDE_RATIO_TOL,
                       f"{row['share_over_born']:.7f} vs {want:.7f}, rel err {err:.2e}"))
    return checks, {"gamma_rel_err": max(errs)}


def check_born_mc(case: Case, run_dir: Path, stdout: str):
    rows = _engine_rows(run_dir, "mc")
    shares = [r["share"] for r in rows]
    ok = (len(shares) == K_OUTCOMES
          and all(s is not None and math.isfinite(s) and s > 0.0 for s in shares)
          and abs(math.fsum(shares) - 1.0) <= 1e-12)
    checks = [("mc shares finite, positive, sum to 1", ok, f"shares {shares}")]
    for row, want in zip(rows, case.expect["ratios"]):
        gap = row["share_over_born"] / want - 1.0
        checks.append((f"mc ratio {row['label']} within {MC_RATIO_ALLOWANCE:.0%} of "
                       f"continuum", abs(gap) <= MC_RATIO_ALLOWANCE,
                       f"F={row['F']:.4f} G={row['G']} {row['share_over_born']:.5f} vs "
                       f"{want:.5f}, gap {gap:+.2%}"))
    return checks, {}


def check_mc_hist(case: Case, run_dir: Path, stdout: str):
    est = json.loads((run_dir / "estimates.json").read_text())
    ln10 = math.log(10.0)
    log_est = est["log10_estimate"] * ln10
    rel_se = 10.0 ** (est["log10_std_error"] - est["log10_estimate"])
    weights = [float(line.split(",")[2]) for line in
               (run_dir / "histogram.csv").read_text().splitlines()[1:]]
    log_hist = math.log(math.fsum(weights)) + est["histogram_log_offset"]
    gap_lattice = math.expm1(log_est - case.expect["log_lattice"])
    gap_continuum = math.expm1(log_est - case.expect["log_continuum"])
    lattice_gap = math.expm1(case.expect["log_lattice"] - case.expect["log_continuum"])
    checks = [
        ("survivor_count > 0", est["survivor_count"] > 0,
         f"{est['survivor_count']} of {est['n_paths']}"),
        ("histogram total x e^log_offset = estimate", abs(log_hist - log_est) <= 1e-9,
         f"ln gap {log_hist - log_est:.2e}"),
        (f"estimate within {MC_SIGMAS:g} SE of the exact lattice count",
         abs(gap_lattice) <= MC_SIGMAS * rel_se,
         f"{gap_lattice:+.2%} (rel SE {rel_se:.2%}); continuum count "
         f"{gap_continuum:+.2%}, of which the lattice gap is {lattice_gap:+.2%}"),
    ]
    return checks, {"rel_se": rel_se}


def check_validate(case: Case, run_dir: Path, stdout: str):
    lines = [line for line in stdout.splitlines() if line.startswith("[")]
    bad = [line for line in lines if not line.startswith("[PASS]")]
    return [("validate: every line PASS", bool(lines) and not bad,
             f"{len(lines) - len(bad)}/{len(lines)} PASS" + "".join(
                 "; " + line for line in bad))], {}


CHECKERS = {"born_pde": (check_born_pde, K_OUTCOMES),
            "born_mc": (check_born_mc, K_OUTCOMES + 1),
            "mc_hist": (check_mc_hist, 3),
            "validate": (check_validate, 1)}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    record: dict | None
    checks: list
    extra: dict
    elapsed: float


class Runner:
    def __init__(self, case: Case, started: float):
        self.case = case
        self.started = started
        self.run_dir = OUT / "runs" / case.workload
        self.record_path = OUT / f"record-{case.workload}.json"

    def _timeout(self) -> float:
        return max(5.0, DEADLINE_S - (time.perf_counter() - self.started))

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=self._timeout())

    def invoke(self, trace: bool) -> Sample:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.record_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            proc = self.python(str(CHILD), str(self.record_path), str(int(trace)), "--",
                               *self.case.args, "--out", str(self.run_dir.parent),
                               "--name", self.case.workload)
            stdout, err = proc.stdout, proc.stderr.strip()[-400:]
        except subprocess.TimeoutExpired:
            stdout, err = "", "timed out"
        elapsed = time.perf_counter() - t0
        record = (json.loads(self.record_path.read_text())
                  if self.record_path.exists() else None)
        if record is not None and not Path(record["package"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: the child imported {record['package']}, "
                             f"not the package under {SRC}")
        rc = None if record is None else record["rc"]
        checks = [("exit code 0", rc == 0, f"rc={rc} {err}".strip())]
        checker, n_checks = CHECKERS[self.case.workload]
        try:
            more, extra = checker(self.case, self.run_dir, stdout)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            more, extra = [], {}
            checks.append(("artifacts readable", False, f"{type(exc).__name__}: {exc}"))
        # a run that crashed counts every check it would have made as failed
        checks += more + [("missing check", False, "")] * (n_checks - len(more))
        return Sample(record, checks, extra, elapsed)

    def loop(self, seconds: float, traced_pairs: bool) -> list[Sample]:
        """Repeat the workload while the next repeat still fits in
        ``seconds``; with traced_pairs each repeat is an untraced run
        followed by a traced one."""
        samples: list[Sample] = []
        t0 = time.perf_counter()
        while True:
            batch = [self.invoke(False)] + ([self.invoke(True)] if traced_pairs else [])
            samples += batch
            took = sum(s.elapsed for s in batch)
            if time.perf_counter() - t0 + took > seconds:
                return samples

    def setup_times(self) -> list[float]:
        """Cold `import mangledworlds.cli`, each in a fresh interpreter."""
        times = []
        for _ in range(SETUP_REPEATS):
            proc = self.python("-c", SETUP_CODE)
            if proc.returncode != 0:
                raise SystemExit(f"error: importing the package failed:\n{proc.stderr}")
            times.append(float(proc.stdout.strip()))
        return times

    def import_times(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {layer: [] for layer in IMPORT_LAYERS}
        for _ in range(IMPORT_REPEATS):
            own = parse_importtime(self.python("-X", "importtime", "-c",
                                               "import mangledworlds.cli").stderr)
            for layer in IMPORT_LAYERS:
                out[layer].append(own.get(f"mangledworlds.{layer}", 0.0))
        return out


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds each package module costs to import in the real import order:
    its cumulative time minus that of the package modules imported beneath
    it, so third-party imports count against the module that pulls them in
    first."""
    def in_package(name):
        return name == "mangledworlds" or name.startswith("mangledworlds.")

    pending: dict[int, list[tuple[str, int, int]]] = {}
    own = {}
    for line in text.splitlines():
        parts = line.partition("import time:")[2].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, raw = int(parts[1]), parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        below = sum(c if in_package(n) else b for n, c, b in pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append((name, cumulative, below))
        if in_package(name):
            own[name] = (cumulative - below) * 1e-6
    return own


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """The highest of p99 / p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f}"
    return "no tail percentile (fewer than 10 samples beyond p90)"


def environment(case: Case) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size, shared = (
                (index / f).read_text().strip()
                for f in ("level", "type", "size", "shared_cpu_list"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
            f"{size} shared by cpus {shared}"
    return {
        "commit": commit, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "caches": caches,
        "workers": case.workers, "seed": case.seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    case = make_case(workload, seed, len(os.sched_getaffinity(0)))
    runner = Runner(case, started)
    runner.python("-c", "import mangledworlds.cli")  # writes the bytecode caches
    if not trace:
        setup = runner.setup_times()
        samples = runner.loop(seconds, traced_pairs=False)
    else:
        imports = runner.import_times()
        samples = runner.loop(seconds, traced_pairs=True)
    checks = [c for s in samples for c in s.checks]
    failed = sum(not ok for _, ok, _ in checks)
    records = [s.record for s in samples if s.record is not None]
    walls = [r["wall_s"] for r in records if "trace" not in r]
    extra = {"failed_frac": (failed / len(checks), "1")}
    for key in sorted({k for s in samples for k in s.extra}):
        extra[key] = (median([s.extra[key] for s in samples if key in s.extra]), "1")
    if "rel_se" in extra:
        extra["time_to_1pct_s"] = (median(walls) * (extra["rel_se"][0] / 0.01) ** 2, "s")
    counts = {"wall_s": len(walls)}
    if not trace:
        metrics = {"setup_s": (median(setup), "s"), "wall_s": (median(walls), "s"),
                   "peak_rss_mb": (median([r["peak_rss_mb"] for r in records]), "MiB")}
        counts["setup_s"] = len(setup)
    else:
        traced = [r for r in records if "trace" in r]
        counts["traced"] = len(traced)
        metrics = layer_metrics(case, traced, imports)
        traced_wall = median([r["wall_s"] for r in traced])
        metrics["trace.overhead_frac"] = (traced_wall / median(walls) - 1.0
                                          if walls and traced else 0.0, "1")
        self_sum = median([sum(v["self_s"] for v in r["trace"]["layers"].values())
                           for r in traced])
        extra["layer_self_sum_over_wall"] = (self_sum / median(walls) if walls else 0.0, "1")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and bool(records), "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "samples": {"counts": counts, "wall_s": walls,
                    "wall_tail": tail(walls)},
        "failed_checks": [c for c in checks if not c[1]][:20],
        "checks": sorted({f"{name}: {detail}" for name, _, detail in samples[-1].checks}),
        "env": environment(case),
    }


def layer_metrics(case: Case, traced: list[dict], imports: dict) -> dict:
    def med(get):
        return median([get(r["trace"]) for r in traced])

    metrics = {}
    for layer in LAYERS.values():
        metrics[f"{layer}.self_s"] = (med(lambda t: t["layers"][layer]["self_s"]), "s")
        metrics[f"{layer}.calls"] = (med(lambda t: t["layers"][layer]["calls"]), "count")
    pde_self = metrics["pde_solver.self_s"][0]
    mc_self = metrics["monte_carlo.self_s"][0]
    walker = {key: med(lambda t: t["walker"][key]) for key in
              ("wall_s", "cpu_s", "paths", "survivors", "ess", "ess_paths")}
    metrics["pde_solver.solves"] = (med(lambda t: t["pde_solves"]), "count")
    metrics["pde_solver.ns_per_cell_step"] = (
        pde_self * 1e9 / case.cell_steps if case.cell_steps else 0.0, "ns")
    metrics["monte_carlo.ns_per_path_event"] = (
        mc_self * 1e9 / case.path_events if case.path_events else 0.0, "ns")
    metrics["monte_carlo.cpu_per_wall"] = (
        walker["cpu_s"] / walker["wall_s"] if walker["wall_s"] else 0.0, "1")
    metrics["monte_carlo.survivor_frac"] = (
        walker["survivors"] / walker["paths"] if walker["paths"] else 0.0, "1")
    metrics["monte_carlo.ess_frac"] = (
        walker["ess"] / walker["ess_paths"] if walker["ess_paths"] else 0.0, "1")
    for layer, vals in imports.items():
        metrics[f"{layer}.import_s"] = (median(vals), "s")
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_result(res: dict) -> None:
    print(f"# workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['attempted'] - res['failed']}/{res['attempted']} checks passed")
    for section in ("metrics", "extra"):
        for name, m in res[section].items():
            print(f"#   {name:<34} {m['value']:<14.6g} {m['unit']}")
    print(f"#   samples {res['samples']['counts']}; wall_s {res['samples']['wall_tail']}")
    for line in res["checks"]:
        print(f"#   check {line}")
    for name, _, detail in res["failed_checks"]:
        print(f"#   FAILED {name}: {detail}")
    print(f"#   env {json.dumps(res['env'], sort_keys=True)}")


def save(res: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(res, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=OUT / "results.jsonl",
                        help="append each run's full record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (SRC / "mangledworlds" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'mangledworlds'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        save(res, args.save)
        print_result(res)
        results.append(res)
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}." if prefix else "") + k: v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
