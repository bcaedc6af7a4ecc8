"""Branching-worlds random walk with absorption and tilted sampling.

One simulated path follows a single lineage through N binary split events:
log-size x starts at 0 and gains ln p or ln(1-p) per event, and the lineage
dies the first time x falls to the boundary x_b(n) = n*xhat1 - eps.  Summed
over sampled paths with the right weights this estimates the number of
surviving lineages in the full 2^N world tree:

* ``tilt="none"``: children sampled uniformly (prob 1/2 each); a surviving
  path contributes 2^N.
* ``tilt="measure"``: children sampled with their measure fractions
  (p, 1-p); a surviving path contributes e^{-x_N}, the exact product of
  1/q over the chosen branches.  This walk drifts exactly along the
  boundary, so survivors stay common even when N sigma1^2 is large and the
  uniform walk's survival probability is exponentially tiny.

Both estimators are unbiased for the same count; their agreement is a
standing cross-check.  Estimates and standard errors are carried in log
space (weights like 2^3600 never materialize).

Determinism: draws come from a counter-based generator, two rounds of the
splitmix64 finalizer keyed by (seed, path index, event index), so a path's
randomness is a pure function of its index.  A branch is taken by comparing
the raw 64-bit hash with an integer threshold, which decides exactly as the
float uniform (z >> 11) * 2^-53 < p would.  Paths are processed in fixed
chunks of 2^16 and the per-chunk partials are reduced in index order, which
makes results bit-identical for any worker count.  Absorbed paths are
compacted away each event, so the cost per event is proportional to the
number of still-alive paths.

Parallelism: with more than one worker and more than one chunk, the chunks
run in worker processes forked for that call (Linux ``fork``; the events are
many small numpy calls, which threads would serialize on the interpreter
lock).  ``workers=None`` means one process per CPU this process may use.

Two-stage runs with several (F, G) splits walk stage one once per chunk and
continue each split from its survivors.  The splits share every draw
(common random numbers) and the seed is not offset per split, so each
split's result equals its one-split run at the same seed, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model_params import DecoherenceParams, binary_event_stats, split_params
from .special_functions import logaddexp, logsubexp

_LN2 = math.log(2.0)
CHUNK = 1 << 16
_MAX_PATHS = 1 << 31
_MAX_EVENTS = 1 << 31

TILTS = ("none", "measure")

# ---------------------------------------------------------------------------
# counter-based draws: value = f(seed, path, event), vectorized over paths
# ---------------------------------------------------------------------------

_U = np.uint64
_GAMMA = _U(0x9E3779B97F4A7C15)
_M1 = _U(0xBF58476D1CE4E5B9)
_M2 = _U(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2^64
    z = z + _GAMMA
    z = (z ^ (z >> _U(30))) * _M1
    z = (z ^ (z >> _U(27))) * _M2
    return z ^ (z >> _U(31))


def _key_from_seed(seed: int) -> np.uint64:
    z = _mix64(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
    return _mix64(z)[0]


def _draws(key: np.uint64, path_hi: np.ndarray, event: int) -> np.ndarray:
    """Raw 64-bit hash for every path at one event; path_hi is
    path_index << 32.  Its uniform is u = (z >> 11) * 2^-53."""
    z = _mix64((path_hi | _U(event)) ^ key)
    return _mix64(z + key)


def _branch_threshold(prob: float) -> np.uint64:
    """T such that z < T exactly when (z >> 11) * 2^-53 < prob: with
    m = z >> 11, m * 2^-53 < prob iff m < ceil(prob * 2^53).  prob < 1,
    so T <= (2^53 - 1) << 11 fits in 64 bits."""
    return _U(math.ceil(prob * 2.0 ** 53)) << _U(11)


# ---------------------------------------------------------------------------
# specs and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkSpec:
    """A walk configuration: discrete model, boundary offset, event count
    and sampling tilt.  ``eps`` may be ``inf`` to disable absorption."""

    dp: DecoherenceParams
    eps: float
    n_events: int
    tilt: str = "none"

    def __post_init__(self):
        if not self.eps > 0.0:
            raise DomainError(f"eps must be positive, got {self.eps!r}")
        if not 1 <= self.n_events <= _MAX_EVENTS:
            raise DomainError(f"n_events must be in [1, 2^31], got {self.n_events!r}")
        if self.tilt not in TILTS:
            raise DomainError(f"tilt must be one of {TILTS}")

    def boundary_step(self) -> float:
        """Boundary displacement per event: xhat1, the mean log-size step
        (negative)."""
        return binary_event_stats(self.dp.p)[0]


def default_tilt(dp: DecoherenceParams, n_events: int) -> str:
    """Measure tilt once the diffusive budget N*sigma1^2 exceeds 4, where
    uniform-walk survival starts to decay exponentially."""
    sigma1 = binary_event_stats(dp.p)[1]
    return "measure" if n_events * sigma1 * sigma1 > 4.0 else "none"


@dataclass(frozen=True)
class PathEnsemble:
    """Accumulated estimator state of one simulation run."""

    n_paths: int
    survivor_count: int
    log_weight_sum: float
    log_weight_sq_sum: float
    seed: int

    def estimate(self) -> float:
        """ln of the unbiased estimate of the surviving world count."""
        if self.survivor_count == 0:
            return -math.inf
        return self.log_weight_sum - math.log(self.n_paths)

    def std_error(self) -> float:
        """ln of the standard error of the count, from the sample variance."""
        if self.survivor_count == 0 or self.n_paths < 2:
            return -math.inf
        n = self.n_paths
        t_sq = self.log_weight_sq_sum
        t_mean = 2.0 * self.log_weight_sum - math.log(n)
        if t_sq <= t_mean + 1e-12:  # all weights equal and all survive
            return -math.inf
        log_var = logsubexp(t_sq, t_mean) - math.log(n - 1)
        return 0.5 * (log_var - math.log(n))


@dataclass(frozen=True)
class ExactCount:
    """Result of brute-force tree enumeration."""

    count: int
    measure: float
    n_events: int


@dataclass(frozen=True)
class SurvivorHistogram(PathEnsemble):
    """A run's estimator state plus the weighted histogram of its surviving
    boundary-relative log-sizes.

    ``weights`` are relative; the estimator count in bin b is
    ``weights[b] * exp(log_offset)``; when the bins cover every survivor
    the weights sum to ``exp(estimate() - log_offset)``.  The
    arrays are excluded from equality.
    """

    edges: np.ndarray = field(compare=False, repr=False)
    weights: np.ndarray = field(compare=False, repr=False)
    log_offset: float


# ---------------------------------------------------------------------------
# the vectorized walker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RunConfig:
    log_p: float
    log_q: float
    threshold: np.uint64  # draws below it take the larger branch
    b_step: float
    eps: float
    n_total: int
    n_split: int          # event after which each split is applied
    splits: tuple[tuple[float, float], ...]  # (log_F, log_G) per split
    tilt: str
    key: np.uint64
    hist_edges: np.ndarray | None = None


@dataclass
class _ChunkStats:
    n_paths: int = 0
    n_survivors: int = 0
    log_sum_w: float = -math.inf
    log_sum_w2: float = -math.inf
    hist: np.ndarray | None = None


def _walk(cfg: _RunConfig, x: np.ndarray, path_hi: np.ndarray,
          first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance the alive paths through events first..last (x in place),
    dropping each path the first time it falls to the boundary."""
    for k in range(first, last + 1):
        if x.size == 0:
            break
        big = _draws(cfg.key, path_hi, k) < cfg.threshold
        x += np.where(big, cfg.log_p, cfg.log_q)
        if math.isfinite(cfg.eps):
            keep = x > k * cfg.b_step - cfg.eps
            x = x[keep]  # one at a time: each old array is freed at once
            path_hi = path_hi[keep]
    return x, path_hi


def _run_chunk(cfg: _RunConfig, start: int, size: int) -> list[_ChunkStats]:
    """One chunk's statistics per split.  Stage one is walked once; every
    split continues from a copy of its survivors on the same draws."""
    x1, hi1 = _walk(cfg, np.zeros(size),
                    np.arange(start, start + size, dtype=np.uint64) << _U(32),
                    1, cfg.n_split)
    b_split = cfg.n_split * cfg.b_step - cfg.eps
    out = []
    for i, (log_F, log_G) in enumerate(cfg.splits):
        # nothing reads stage one after the last split, so it takes x1 over
        x = x1 if i == len(cfg.splits) - 1 else x1.copy()
        x += log_F
        path_hi = hi1
        if math.isfinite(cfg.eps) and log_F != 0.0:
            keep = x > b_split
            x = x[keep]
            path_hi = path_hi[keep]
        x, _ = _walk(cfg, x, path_hi, cfg.n_split + 1, cfg.n_total)
        out.append(_survivor_stats(cfg, x, size, log_F, log_G))
    return out


def _survivor_stats(cfg: _RunConfig, x: np.ndarray, size: int,
                    log_F: float, log_G: float) -> _ChunkStats:
    stats = _ChunkStats(n_paths=size, n_survivors=int(x.size))
    if cfg.hist_edges is not None:
        stats.hist = np.zeros(len(cfg.hist_edges) - 1)
    if x.size == 0:
        return stats

    b_final = cfg.n_total * cfg.b_step - cfg.eps if math.isfinite(cfg.eps) else 0.0
    if cfg.tilt == "none":
        log_w = cfg.n_total * _LN2 + log_G
        stats.log_sum_w = math.log(x.size) + log_w
        stats.log_sum_w2 = math.log(x.size) + 2.0 * log_w
        if cfg.hist_edges is not None:
            y = x - b_final
            stats.hist, _ = np.histogram(y, bins=cfg.hist_edges)
            stats.hist = stats.hist.astype(float)
    else:
        log_w = log_G + log_F - x
        m = float(log_w.max())
        stats.log_sum_w = m + math.log(float(np.exp(log_w - m).sum()))
        stats.log_sum_w2 = 2.0 * m + math.log(float(np.exp(2.0 * (log_w - m)).sum()))
        if cfg.hist_edges is not None:
            y = x - b_final
            # e^{-y} is the bounded part of the weight; the shared factor
            # e^{log_G + log_F - b_final} rides in the histogram log_offset
            stats.hist, _ = np.histogram(y, bins=cfg.hist_edges,
                                         weights=np.exp(-y))
    return stats


def _combine(chunks: list[_ChunkStats]) -> _ChunkStats:
    out = _ChunkStats()
    if chunks and chunks[0].hist is not None:
        out.hist = np.zeros_like(chunks[0].hist)
    for c in chunks:  # fixed order: bit-stable for any worker count
        out.n_paths += c.n_paths
        out.n_survivors += c.n_survivors
        out.log_sum_w = logaddexp(out.log_sum_w, c.log_sum_w)
        out.log_sum_w2 = logaddexp(out.log_sum_w2, c.log_sum_w2)
        if c.hist is not None:
            out.hist += c.hist
    return out


def _simulate(cfg: _RunConfig, n_paths: int,
              workers: int | None) -> list[_ChunkStats]:
    """Totals per split, reduced over the chunks in index order.

    Chunks run in up to ``workers`` forked processes (default: the CPUs
    this process may run on), never more than there are chunks.  The pool
    lives for one call, so workers fork the caller's current module state.
    """
    if not 1 <= n_paths <= _MAX_PATHS:
        raise DomainError(f"n_paths must be in [1, 2^31], got {n_paths!r}")
    if workers is not None and workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers!r}")
    starts = range(0, n_paths, CHUNK)
    sizes = [min(CHUNK, n_paths - lo) for lo in starts]
    if workers is None:
        workers = len(os.sched_getaffinity(0))
    workers = min(workers, len(sizes))
    if workers == 1:
        chunks = list(map(_run_chunk, itertools.repeat(cfg), starts, sizes))
    else:
        # fork, not spawn: a spawned worker re-imports the package, which
        # costs more than a short walk
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork")) as pool:
            chunks = list(pool.map(_run_chunk, itertools.repeat(cfg),
                                   starts, sizes))
    return [_combine(per_split) for per_split in zip(*chunks)]


def _config_for(spec: WalkSpec, *, n2: int = 0,
                splits: tuple[tuple[float, float], ...] = ((0.0, 0.0),),
                seed: int = 0,
                hist_edges: np.ndarray | None = None) -> _RunConfig:
    """Config for a walk split after spec.n_events and continued for n2
    more events; a plain run is the identity split (0, 0) with n2 = 0."""
    p = spec.dp.p
    big, small = max(p, 1.0 - p), min(p, 1.0 - p)
    n_total = spec.n_events + n2
    if n_total > 0xFFFFFFFF:
        raise DomainError("event index must fit in 32 bits of the draw counter")
    return _RunConfig(
        log_p=math.log(big), log_q=math.log(small),
        threshold=_branch_threshold(0.5 if spec.tilt == "none" else big),
        b_step=spec.boundary_step(), eps=spec.eps,
        n_total=n_total, n_split=spec.n_events, splits=splits, tilt=spec.tilt,
        key=_key_from_seed(seed), hist_edges=hist_edges)


def _result(cls, s: _ChunkStats, seed: int, **extra):
    return cls(n_paths=s.n_paths, survivor_count=s.n_survivors,
               log_weight_sum=s.log_sum_w, log_weight_sq_sum=s.log_sum_w2,
               seed=seed, **extra)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def simulate_survivors(spec: WalkSpec, n_paths: int, seed: int,
                       workers: int | None = None) -> PathEnsemble:
    """Estimate the surviving world count after spec.n_events events.

    Identical (spec, n_paths, seed) give bit-identical results regardless
    of ``workers``.
    """
    cfg = _config_for(spec, seed=seed)
    return _result(PathEnsemble, _simulate(cfg, n_paths, workers)[0], seed)


def enumerate_survivors(spec: WalkSpec) -> ExactCount:
    """Walk the full 2^N tree with absorption applied at every event; exact
    survivor count and surviving measure.  Refuses N > 24."""
    if spec.n_events > 24:
        raise DomainError(f"enumeration is limited to N <= 24 (2^N leaves), "
                          f"got N = {spec.n_events}")
    p = spec.dp.p
    log_p = math.log(max(p, 1.0 - p))
    log_q = math.log(min(p, 1.0 - p))
    b_step = spec.boundary_step()
    x = np.zeros(1)
    for n in range(1, spec.n_events + 1):
        x = np.concatenate([x + log_p, x + log_q])
        if math.isfinite(spec.eps):
            x = x[x > n * b_step - spec.eps]
        if x.size == 0:
            break
    return ExactCount(count=int(x.size), measure=float(np.exp(x).sum()),
                      n_events=spec.n_events)


def empirical_distribution(spec: WalkSpec, n_paths: int, seed: int,
                           bins: int | np.ndarray = 60,
                           workers: int | None = None) -> SurvivorHistogram:
    """Weighted histogram of surviving boundary-relative log-sizes
    y = x - x_b(N); the shape comparand for the closed-form density.

    The same walk also carries the estimator state, so the result's
    ``estimate()`` equals that of :func:`simulate_survivors` for the same
    (spec, n_paths, seed), bit for bit.
    """
    if isinstance(bins, (int, np.integer)):
        if bins < 1:
            raise DomainError(f"bins must be >= 1, got {bins!r}")
        sigma1 = binary_event_stats(spec.dp.p)[1]
        wt = spec.n_events * sigma1 * sigma1
        y_max = (spec.eps if math.isfinite(spec.eps) else 0.0) \
            + 5.0 + 4.0 * math.sqrt(max(wt, 1.0))
        edges = np.linspace(0.0, y_max, int(bins) + 1)
    else:
        edges = np.asarray(bins, dtype=float)
    cfg = _config_for(spec, seed=seed, hist_edges=edges)
    s = _simulate(cfg, n_paths, workers)[0]
    if spec.tilt == "none":
        log_offset = spec.n_events * _LN2 - math.log(n_paths)
    else:
        b_final = (spec.n_events * cfg.b_step - spec.eps
                   if math.isfinite(spec.eps) else 0.0)
        log_offset = -b_final - math.log(n_paths)
    return _result(SurvivorHistogram, s, seed, edges=edges, weights=s.hist,
                   log_offset=log_offset)


def born_two_stage_mc_counts(spec: WalkSpec,
                             splits: Sequence[tuple[float, float]], n2: int,
                             n_paths: int, seed: int,
                             workers: int | None = None) -> list[PathEnsemble]:
    """Two-stage protocol, per (F, G) in ``splits``: after event
    spec.n_events every lineage drops by |ln F| and the estimator gains a
    factor G (with an immediate absorption check), then it continues
    through n2 more events.  Returns the estimates of the final outcome
    counts lambda.

    Stage one does not depend on the split, so each chunk walks it once and
    continues every split from its survivors on the same draws; each result
    equals the one-split call at the same seed, bit for bit.
    """
    log_splits = []
    for F, G in splits:
        log_F, G = split_params(F, G)
        log_splits.append((log_F, math.log(G)))
    if n2 < 1:
        raise DomainError(f"n2 must be >= 1, got {n2!r}")
    cfg = _config_for(spec, n2=n2, splits=tuple(log_splits), seed=seed)
    return [_result(PathEnsemble, s, seed)
            for s in _simulate(cfg, n_paths, workers)]
