"""Compare two sets of benchmark results: the parent commit and a change.

    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

Each file holds one JSON record per run, as ``bench/run.py`` appends them;
only untraced runs are compared.  For every workload and end-to-end metric
it prints each side's median and quartiles over its runs, the share of
pairs the change wins, and a verdict:

* ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json.  Where the spread is wider
  than the bound this needs the change to lose 9 of 10 pairs as well.
* ``unresolved``: the spread of either side (quartile distance over the
  median) exceeds the bound, unless every change run beats every parent run.
* ``better``: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's quartile distance.
* ``within bound`` otherwise.

Runs are paired by seed where the sides share seeds, else in file order.
The workload-specific figures that carry no bound (``failed_frac``,
``gamma_rel_err``, ``time_to_1pct_s``) get the pair rule only.  Exit code
1 flags a regression or a failed output check on the change's side.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

UNBOUNDED = ("failed_frac", "gamma_rel_err", "time_to_1pct_s")


def load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def values(runs: list[dict], name: str) -> list[tuple[int, float, str]]:
    out = []
    for r in runs:
        metric = r["metrics"].get(name) or r["extra"].get(name)
        if metric is not None:
            out.append((r["seed"], metric["value"], metric["unit"]))
    return out


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def _rel(delta: float, base: float) -> float:
    if base == 0.0:
        return 0.0 if delta == 0.0 else float("inf")
    return delta / abs(base)


def verdict(parent, change, lower_is_better: bool, bound: float | None):
    """(wins, pairs, verdict) for two lists of (seed, value)."""
    sign = 1.0 if lower_is_better else -1.0
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed] or \
        list(zip([v for _, v in parent], [v for _, v in change]))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    p_vals, c_vals = [v for _, v in parent], [v for _, v in change]
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    worse = _rel(sign * (cm - pm), pm)
    spread = max(_rel(p3 - p1, pm), _rel(c3 - c1, cm))
    all_better = all(sign * (c - p) < 0 for c in c_vals for p in p_vals)
    if bound is not None and worse > bound and (spread <= bound
                                                or losses >= 0.9 * len(pairs)):
        return wins, len(pairs), "REGRESSION"
    if bound is not None and spread > bound and not all_better:
        return wins, len(pairs), "unresolved"
    if wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return wins, len(pairs), "better"
    return wins, len(pairs), "within bound" if bound is not None else "-"


def main(parent_path: Path, change_path: Path, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    metrics = [(m["name"], m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]]
    metrics += [(name, True, None) for name in UNBOUNDED]
    parent, change = load(parent_path), load(change_path)
    status = 0
    print(f"{'workload':<10} {'metric':<15} {'unit':<6} {'parent median [q1, q3] n':<34} "
          f"{'change median [q1, q3] n':<34} {'wins':<6} verdict")
    for workload in sorted(set(parent) & set(change)):
        if any(not r["correct"] for r in change[workload]):
            print(f"{workload:<10} output checks FAILED in the change's runs")
            status = 1
        for name, lower, bound in metrics:
            p, c = values(parent[workload], name), values(change[workload], name)
            if not p or not c:
                continue
            wins, n, word = verdict([x[:2] for x in p], [x[:2] for x in c], lower, bound)
            status |= word == "REGRESSION"
            cols = []
            for side in (p, c):
                q1, med, q3 = quartiles([v for _, v, _ in side])
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(side)}")
            print(f"{workload:<10} {name:<15} {p[0][2]:<6} {cols[0]:<34} "
                  f"{cols[1]:<34} {f'{wins}/{n}':<6} {word}"
                  + (f" (bound {bound:g})" if bound is not None else ""))
    return status
