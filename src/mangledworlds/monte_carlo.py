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

Lattice state: after n events a lineage's log-size depends only on k, its
number of larger-branch steps, x = k ln p_big + (n - k) ln p_small.  A path
therefore carries the integer k, and survives event n while k >= kmin(n),
the smallest k whose log-size passes the boundary test in floating point.
That test is the expression of the lattice dynamic program in
``bench/oracle.py``, so the walk and the program judge ties alike.  x and
the weights are formed only for the final survivors.

Exact count: the lattice collapses the 2^N tree to n + 1 integer leaf
counts, so :func:`enumerate_survivors`, the walker's ground truth, counts
exactly in O(N^2) with the walker's own kmin(n) and judges ties alike.

Determinism: draws come from a counter-based generator, two rounds of the
splitmix64 finalizer keyed by (seed, path index, counter), so a path's
randomness is a pure function of its index.  One hash, the path's word,
carries several events.  Under tilt "measure" event n reads 16-bit lane
(n - 1) % 4 of word (n - 1) // 4 and takes the larger branch when the lane
is below A, the top 16 bits of M = ceil(p 2^53); on a tie, lane == A, the
path hashes its tie counter 2^31 + n - 1 and compares the top 37 bits with
M's low 37.  That decides exactly as m < M, or the float uniform
m * 2^-53 < p, on the 53-bit uniform m those bits form.  Under tilt "none"
event n takes the larger branch when bit (n - 1) % 64 of word
(n - 1) // 64 is set.  A chunk of 2^16 paths returns its survivors per
final k as integers, whose sums are exact; the result, :class:`PathEnsemble`,
holds them, and every estimate, standard error and histogram read off it is
bit-identical for any worker count and any chunk size.

Cost: a draw depends only on its (path, event), so a chunk walks its
alive paths several events per numpy pass.  Under tilt "measure" it goes
a block of about 2^18 path-events and at most 2^13 events at a time (one
hash word while 2^16 paths are alive, more as they die), of whole 4-event
words: one numpy pass hashes them in place in the process's scratch rows,
a strided compare turns their lanes into branch rows, and only the ties
(one lane in 2^16) are hashed again.  A log-step scan turns the branches
into prefix counts of larger-branch steps, and the whole block's
absorption is tested at once against kmin(n), tabulated once per walk for
its first 2^16 events and per block past them.  Absorbed paths are
compacted away once per block.  Under tilt "none" each alive path is
hashed once per 64-event window, aligned to multiples of 64, and walks
its word a byte, 8 events, at a time.  A path's fate over a byte depends
only on k and the byte's value, so 256-entry tables per byte of the
window, one per outcome and one of larger-branch counts, formed once from
kmin and kept for later chunks, replace the events (the bit-block lookup
of the Method of Four Russians): a gather per outcome tests the byte, one
more adds its larger branches to k, and absorbed paths are compacted away
once per byte.  Every rank is tested on every byte and block.  A path
that dies mid-block or mid-byte is walked to its end; the fixed cost of a
numpy call is thus paid per block or byte, not per event.

Memory: each walker process keeps one workspace (:class:`_Work`), one
per thread, and walks all its chunks, of this walk and of later ones,
inside it.  A share of a walk builds a new one when the kept one is too
narrow or was inherited across a fork, so a forked child builds its own
and copies no page of its parent's.  Every gather, test and
compaction writes into its rows, so no chunk, byte or block allocates an
array of its paths' size.

Parallelism: with W = min(workers, chunks) > 1, the caller forks W - 1
children for that call (Linux ``fork``; the events are many small numpy
calls, which threads would serialize on the interpreter lock).  Process j
walks chunks j, j + W, ..., the caller walking share 0 itself, and each
child sends its integer sums back through a pipe.  ``workers=None`` means
one process per CPU this process may use.

Two-stage runs with several (F, G) splits walk stage one once per chunk,
then stage two once for all splits together.  Each split shifts log-size by
ln F and so has its own thresholds kmin_F(n); floating-point addition is
monotone, so a smaller F's survivors are a subset of a larger F's.  Each
path carries the number of splits, largest F first, under which it still
survives, and is dropped when that reaches 0; a split's survivors are the
paths whose number exceeds its rank.  The splits share every draw (common
random numbers) and the seed is not offset per split, so each split's
result equals its one-split run at the same seed, bit for bit, by
construction.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model_params import DecoherenceParams, binary_event_stats, split_params
from .special_functions import logsubexp

_LN2 = math.log(2.0)
CHUNK = 1 << 16
_MAX_PATHS = 1 << 31
_MAX_EVENTS = 1 << 31

TILTS = ("none", "measure")
_LITTLE = sys.byteorder == "little"

# ---------------------------------------------------------------------------
# counter-based draws: value = f(seed, path, event), vectorized over paths
# ---------------------------------------------------------------------------

_U = np.uint64
_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_M1 = _U(0xBF58476D1CE4E5B9)
_M2 = _U(0x94D049BB133111EB)
#: tilt "measure": event n's tie counter is _TIE + n - 1, above every word
#: counter (n - 1) // 4 while n <= _MAX_EVENTS
_TIE = _U(1 << 31)


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """The splitmix64 finalizer of z after its + GAMMA, in place; tmp is
    scratch of z's shape.  uint64 arithmetic wraps mod 2^64."""
    np.right_shift(z, _U(30), out=tmp)
    z ^= tmp
    z *= _M1
    np.right_shift(z, _U(27), out=tmp)
    z ^= tmp
    z *= _M2
    np.right_shift(z, _U(31), out=tmp)
    z ^= tmp


def _key_from_seed(seed: int) -> np.uint64:
    z = np.array([seed & _MASK], dtype=np.uint64)
    tmp = np.empty_like(z)
    for _ in range(2):
        z += _U(_GAMMA)
        _mix(z, tmp)
    return z[0]


def _path_hi(key: np.uint64, paths: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """(path ^ key_hi) << 32, the high word of (path << 32 | counter) ^ key;
    written into ``out`` when given, which may be ``paths`` itself."""
    out = np.bitwise_xor(paths, key >> _U(32), out=out)
    return np.left_shift(out, _U(32), out=out)


def _hash(key: np.uint64, path_hi: np.ndarray, counter: np.ndarray,
          z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The hash of (path << 32 | counter) ^ key, broadcast over path_hi
    (:func:`_path_hi`) and uint64 counters, in place in z; tmp is scratch
    of z's shape.  Round one's counter ^ key_lo + GAMMA adds to the
    disjoint high word in one add."""
    np.add(path_hi, (counter ^ _U(int(key) & 0xFFFFFFFF)) + _U(_GAMMA), out=z)
    _mix(z, tmp)
    z += _U((int(key) + _GAMMA) & _MASK)  # + key, then round two's + GAMMA
    _mix(z, tmp)
    return z


def _draws(key: np.uint64, path_hi: np.ndarray, counter: int | np.ndarray,
           scratch: np.ndarray | None = None) -> np.ndarray:
    """64-bit hash for every path at one counter, or at each of a 1-D
    array of counters (one row per counter).  A hash word carries the
    branches of 4 events under tilt "measure" (counter (n - 1) // 4 for
    event n) and of 64 under tilt "none" (counter (n - 1) // 64).

    The hash is computed in place in ``scratch``, two uint64 rows with room
    for the whole result (allocated when None); the result is a view of its
    first row, overwritten by the next call."""
    counter = np.asarray(counter, dtype=np.uint64)
    size = counter.size * path_hi.size
    if scratch is None:
        scratch = np.empty((2, size), dtype=np.uint64)
    z, tmp = (row[:size].reshape(counter.shape + path_hi.shape) for row in scratch)
    return _hash(key, path_hi, counter.reshape(counter.shape + (1,)), z, tmp)


def _tie_draws(key: np.uint64, path_hi: np.ndarray,
               events: np.ndarray) -> np.ndarray:
    """The hash of each path at its own event's tie counter _TIE + n - 1;
    path_hi and events are 1-D and of one size."""
    counter = _TIE + (events.astype(np.uint64) - _U(1))
    return _hash(key, path_hi, counter, np.empty_like(path_hi),
                 np.empty_like(path_hi))


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


def default_tilt(dp: DecoherenceParams, n_events: int) -> str:
    """Measure tilt once the diffusive budget N*sigma1^2 exceeds 4, where
    uniform-walk survival starts to decay exponentially."""
    sigma1 = binary_event_stats(dp.p)[1]
    return "measure" if n_events * sigma1 * sigma1 > 4.0 else "none"


@dataclass(frozen=True)
class PathEnsemble:
    """One walk's survivors per final k, and what their weights need.

    ``counts[j]`` of the ``n_paths`` paths survive with k = base + j
    larger-branch steps, from base = kmin(N), the threshold at the last
    event N = ``n_events``, up to the largest surviving k.  A survivor has
    log-size x = k log_big + (N - k) log_small and weighs 2^N G under tilt
    "none", G e^{-x} (1/q per branch, times G) under tilt "measure".
    ``b_final`` is the boundary after the last event in the frame of x (0
    without one).  Equal records give bit-identical estimates and
    histograms, all read off the counts."""

    n_paths: int
    seed: int
    base: int
    counts: tuple[int, ...]
    tilt: str
    n_events: int
    log_big: float
    log_small: float
    b_final: float
    log_G: float = 0.0

    # the estimator's sums, read off the counts
    survivor_count = property(lambda self: sum(self.counts))
    log_weight_sum = property(lambda self: self._log_moment(1.0))
    log_weight_sq_sum = property(lambda self: self._log_moment(2.0))

    def _survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero counts, and the log-sizes x of their k."""
        counts = np.array(self.counts, dtype=np.int64)
        k = self.base + np.flatnonzero(counts)
        return counts[counts > 0], k * self.log_big + (self.n_events - k) * self.log_small

    def _log_moment(self, e: float) -> float:
        """ln of the survivors' summed weights to the power e."""
        counts, x = self._survivors()
        if not counts.size:
            return -math.inf
        log_w = (np.full(counts.size, self.n_events * _LN2 + self.log_G)
                 if self.tilt == "none" else self.log_G - x)
        m = float(log_w.max())
        return e * m + math.log(math.fsum(counts * np.exp(e * (log_w - m))))

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

    def histogram(self, edges: np.ndarray) -> tuple[np.ndarray, float]:
        """Weighted histogram of the survivors' boundary-relative log-sizes
        y = x - b_final over the bin ``edges``, as (weights, log_offset):
        bin b holds weights[b] e^log_offset of the estimated count, so bins
        that cover every survivor sum to e^(estimate() - log_offset)."""
        counts, x = self._survivors()
        y = x - self.b_final
        # under the measure tilt e^{-y} is the bounded part of the weight; the
        # shared factor e^{-b_final} rides in log_offset
        weights = counts * (1.0 if self.tilt == "none" else np.exp(-y))
        hist, _ = np.histogram(y, bins=edges, weights=weights)
        log_offset = ((self.n_events * _LN2 if self.tilt == "none"
                       else -self.b_final) + self.log_G - math.log(self.n_paths))
        return hist, log_offset


@dataclass(frozen=True)
class ExactCount:
    """Exact survivor count and surviving measure of the full tree;
    ``by_k[k]`` counts the surviving leaves with k larger-branch steps."""

    count: int
    measure: float
    n_events: int
    by_k: tuple[int, ...] = field(default=(), compare=False, repr=False)


# ---------------------------------------------------------------------------
# the vectorized walker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RunConfig:
    log_big: float
    log_small: float
    # tilt "measure": (A, R) with M = ceil(p_big 2^53) = A 2^37 + R.  A
    # 53-bit uniform m = lane 2^37 + r is below M, as m 2^-53 is below
    # p_big, exactly when lane < A, or lane == A and r < R.  None for "none"
    lane_cut: tuple[int, int] | None
    b_step: float
    eps: float
    n_total: int
    n_split: int          # event after which each split is applied
    splits: tuple[tuple[float, float], ...]  # (log_F, log_G) per split
    tilt: str
    key: np.uint64


_BUDGET = 1 << 16  # uint64 per scratch row: hash words in one numpy pass
#: events per block at most: the int16 differences c_j - slack_j of a
#: block's failure test reach 2b + 1, which must stay below 2^15
_MAX_BLOCK = 1 << 13
#: events of kmin tabulated per outcome before a walk; blocks past them
#: compute their own window
_TABLE = 1 << 16


def _kmin(cfg: _RunConfig, n: np.ndarray, log_F: float) -> np.ndarray:
    """Per event n, the smallest k with
    k*log_big + (n-k)*log_small + log_F > n*b_step - eps, or n + 1 where no
    k <= n passes.  That float expression is the absorption test of the
    lattice dynamic program (bench/oracle.py), so the walk and the program
    judge every tie alike.  eps = inf gives 0: nothing is absorbed."""
    bound = n * cfg.b_step - cfg.eps

    def passes(k):
        return k * cfg.log_big + (n - k) * cfg.log_small + log_F > bound

    delta = cfg.log_big - cfg.log_small
    if delta > 0.0:
        guess = np.floor((bound - n * cfg.log_small - log_F) / delta) + 1.0
    else:  # p = 1/2: every lineage has the same log-size
        guess = np.where(passes(0), 0.0, n + 1.0)
    k = np.clip(guess, 0, n + 1).astype(np.int64)
    # the guess is the real-arithmetic root; step to the float test's own
    while (down := (k > 0) & passes(k - 1)).any():
        k -= down
    while (up := (k <= n) & ~passes(k)).any():
        k += up
    return k


#: _PREFIX[j, v]: the set bits among bits 0..j of the byte v
_PREFIX = np.unpackbits(np.arange(256, dtype=np.uint8)[None], axis=0,
                        bitorder="little").cumsum(axis=0, dtype=np.int64)


def _byte_tables(kmins: np.ndarray, first: int):
    """Tilt "none" tables for events first..first + m - 1 of one 64-event
    window, m = kmins.shape[1]; ``kmins[r]`` holds rank r's threshold at
    each of those events.

    Byte b of a path's word carries the branches of the window's events
    8b + 1..8b + 8, bit j of it event 8b + j + 1; only the events in range
    count.  For a byte of value v, c_j(v) is its set bits through bit j,
    ``gain[b, v]`` its set bits in all, and ``need[r, b, v]`` the largest
    kmin_r(j) - c_j(v) over the byte's events: a path with k larger
    branches before the byte fails rank r within it iff k < need[r, b, v]."""
    ranks, m = kmins.shape
    s = (first - 1) % 64
    top = np.full((ranks, 64), -(1 << 62))  # outside the range: never binding
    top[:, s:s + m] = kmins
    in_range = np.zeros(64, dtype=bool)
    in_range[s:s + m] = True
    mask = np.packbits(in_range.reshape(8, 8), axis=1, bitorder="little")
    # top[j, r, b]: the reduction over j then runs over whole rows, several
    # times faster than over a short last axis
    top = np.ascontiguousarray(top.reshape(ranks, 8, 8).transpose(2, 0, 1))
    need = (top[..., None] - _PREFIX[:, None, None]).max(axis=0)
    if s % 8:  # bits below s in the first byte are not its events
        need[:, s // 8] += _PREFIX[s % 8 - 1]
    gain = _PREFIX[-1][np.arange(256) & mask]
    return need, gain


class _Thresholds:
    """kmin at events start..last, one row per ln F in ``log_Fs``.

    Events start..start + _TABLE are tabulated when it is built, before any
    fork, and every chunk slices that one table; a block that reaches past
    it, in a walk longer than _TABLE events, computes its own window.  So
    memory stays bounded however long the walk, and a walk whose paths die
    early tabulates no more than the first window.  _kmin is elementwise,
    so every window reads the same values.  Tilt "none"'s byte tables are
    kept for reuse, by later chunks, inside that first window only."""

    def __init__(self, cfg: _RunConfig, log_Fs: Sequence[float], start: int,
                 last: int):
        self.cfg, self.log_Fs, self.start = cfg, tuple(log_Fs), start
        self.table = self._compute(start, min(last, start + _TABLE))
        self._bytes = {}

    def _compute(self, lo: int, hi: int) -> np.ndarray:
        n = np.arange(lo, hi + 1)
        return np.stack([_kmin(self.cfg, n, log_F) for log_F in self.log_Fs])

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        """kmin at events lo..hi, one column per event."""
        if hi - self.start < self.table.shape[1]:
            return self.table[:, lo - self.start:hi - self.start + 1]
        return self._compute(lo, hi)

    def byte_tables(self, lo: int, hi: int):
        """:func:`_byte_tables` for events lo..hi of one 64-event window."""
        if (tables := self._bytes.get((lo, hi))) is None:
            tables = _byte_tables(self(lo, hi), lo)
            if hi - self.start < self.table.shape[1]:
                self._bytes[lo, hi] = tables
        return tables


def _ranks(cfg: _RunConfig) -> list[int]:
    """The splits' indices, largest F first: the rank order of stage two."""
    return sorted(range(len(cfg.splits)), key=lambda i: -cfg.splits[i][0])


class _Pair:
    """Two rows of one per-path array.  The live array sits in row ``side``
    (or outside the pair, as a caller's array may), so compacting it into
    the other row, which then becomes ``side``, never overlaps it."""

    def __init__(self, rows: np.ndarray):
        self.rows, self.side = rows, 0

    def row(self, n: int) -> np.ndarray:
        """The live row's first n entries, for a fresh array."""
        return self.rows[self.side, :n]

    def spare(self, n: int) -> np.ndarray:
        """The other row's first n entries: free until the next compaction."""
        return self.rows[1 - self.side, :n]

    def compact(self, a: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """a[keep], written into the spare row.  ``keep`` is in range by
        construction, so take's "clip" mode, which writes straight into its
        output ("raise" buffers it), changes nothing."""
        out = a.take(keep, out=self.spare(keep.size), mode="clip")
        self.side = 1 - self.side
        return out


class _Work:
    """One walker process's workspace: every array that a walk of chunks
    of up to ``width`` paths writes per chunk, byte or block.

    - ``words``: the hash scratch, two uint64 rows of max(_BUDGET, width)
      (:func:`_draws`); under tilt "none" the window's word is compacted
      between them.
    - ``k``: k, and the int64 gather or sum that a test compares it with.
    - ``hi``, ``alive``: path_hi and the number of outcomes survived.
    - ``v``: a byte's values as gather indices (tilt "none").
    - ``low``: a block's int16 minimum (tilt "measure").
    - ``mask``: a test's outcome.
    - ``paths``: 0, 1, ..., width - 1, a chunk's path indices less its
      first.

    A page of ``np.empty`` costs nothing until first written, so a process
    faults in each page its walks touch once, and never again per walk,
    chunk, byte or block (:func:`_workspace`)."""

    def __init__(self, width: int):
        self.pid = os.getpid()
        self.words = _Pair(np.empty((2, max(_BUDGET, width)), dtype=np.uint64))
        self.k = _Pair(np.empty((2, width), dtype=np.int64))
        self.hi = _Pair(np.empty((2, width), dtype=np.uint64))
        self.alive = _Pair(np.empty((2, width), dtype=np.int64))
        self.v = np.empty(width, dtype=np.intp)
        self.low = np.empty(width, dtype=np.int16)
        self.mask = np.empty(width, dtype=np.bool_)
        self.paths = np.arange(width, dtype=np.uint64)


_kept = threading.local()


def _workspace(width: int) -> _Work:
    """The calling thread's :class:`_Work`, at least ``width`` paths wide,
    kept from walk to walk.  It is built afresh when too narrow and in a
    forked child (a new pid), so that the child writes no page of its
    parent's, which would copy it."""
    work = getattr(_kept, "work", None)
    if work is None or work.pid != os.getpid() or work.paths.size < width:
        work = _kept.work = _Work(width)
    return work


def _walk(cfg: _RunConfig, kmins: _Thresholds, k: np.ndarray,
          path_hi: np.ndarray, alive: np.ndarray | None, first: int,
          last: int, work: _Work):
    """Advance the paths through events first..last.

    ``kmins`` holds one row per outcome, sorted largest F first, from event
    first on.  A path survives event n under the outcome of rank r
    while k >= kmin_r(n).  The thresholds grow with rank, so a path
    survives under a prefix of the outcomes, whose length ``alive``
    carries (None for a single outcome, which then need not compact it);
    it is dropped once it fails rank 0.

    Under tilt "measure" the events go in blocks (:func:`_advance`) of
    max(1, _BUDGET // alive paths) hash words of 4 events each, aligned to
    multiples of 4, and at most _MAX_BLOCK events, so a block holds fewer
    events only where the walk starts or ends mid-word.  Under tilt "none"
    each alive path hashes its word once per 64-event window, aligned to
    multiples of 64, and absorbs it a byte, 8 events, at a time: one
    gather per rank from the window's byte tables (:func:`_byte_tables`)
    tests the byte, one more adds its larger branches to k, and the paths
    are compacted once per byte.

    Every per-byte and per-block array lives in ``work``, the process's
    :class:`_Work`: gathers, tests and compactions write into its rows, so
    the walk allocates nothing of the paths' size.
    """
    lo = first
    while lo <= last and k.size:
        if cfg.tilt == "measure":
            words = min(_MAX_BLOCK // 4, max(1, _BUDGET // k.size))
            end = min(last, ((lo - 1) // 4 + words) * 4)
            k, path_hi, alive = _advance(cfg, lo, end, kmins(lo, end), k,
                                         path_hi, alive, work)
            lo = end + 1
            continue
        hi = min(last, (lo - 1) // 64 * 64 + 64)
        need, gain = kmins.byte_tables(lo, hi)
        word = _draws(cfg.key, path_hi, (lo - 1) // 64, work.words.rows)
        work.words.side = 0  # the hash leaves the word in row 0
        for b in range((lo - 1) % 64 // 8, (hi - 1) % 64 // 8 + 1):
            n = k.size
            v, tmp, mask = work.v[:n], work.k.spare(n), work.mask[:n]
            # byte b of the word; an intp index gathers several times faster
            v[...] = word.view(np.uint8)[b if _LITTLE else 7 - b::8]
            for r in range(1, len(need)):  # below rank r: alive under < r
                np.less(k, need[r, b].take(v, out=tmp, mode="clip"), out=mask)
                np.minimum(alive, r, out=alive, where=mask)
            # gather by index: a boolean mask mispredicts a branch per drop
            keep = np.flatnonzero(np.greater_equal(
                k, need[0, b].take(v, out=tmp, mode="clip"), out=mask))
            # every path gains its byte's branches, then the dead are
            # dropped, so v is never compacted
            k += gain[b].take(v, out=tmp, mode="clip")
            if keep.size < n:
                k = work.k.compact(k, keep)
                path_hi = work.hi.compact(path_hi, keep)
                word = work.words.compact(word, keep)
                if alive is not None:
                    alive = work.alive.compact(alive, keep)
        lo = hi + 1
    return k, path_hi, alive


def _lane_branches(cfg: _RunConfig, words: np.ndarray, first: int, b: int,
                   path_hi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The tilt-"measure" branches of events first..first + b - 1 as int16
    rows (event, path), 1 for the larger branch, written into ``out``, a
    uint64 row of at least words.size; ``words`` is overwritten.

    ``words`` are the paths' hash rows at counters (first - 1) // 4 on.
    Event n reads 16-bit lane (n - 1) % 4, bits 16j..16j + 15, of its
    word and takes the larger branch when lane < A, (A, R) = cfg.lane_cut.
    On a tie, lane == A, it takes it when its tie hash (:func:`_tie_draws`)
    >> 27 is below R: m < M on the 53-bit uniform m = lane 2^37 + r.  Only
    the ties are hashed again.
    """
    lanes = words.view(np.uint16).reshape(words.shape + (4,))
    if sys.byteorder == "big":
        lanes = lanes[..., ::-1]
    # one strided copy turns the lanes into event rows, no shifts needed
    rows = out.view(np.uint16)[:lanes.size].reshape(words.shape[0], 4, -1)
    rows[...] = lanes.transpose(0, 2, 1)
    skip = (first - 1) % 4  # lanes of the first word before the block
    rows = rows.reshape(-1, words.shape[1])[skip:skip + b]
    cut, rest = cfg.lane_cut
    tie = words.reshape(-1).view(np.bool_)[:rows.size].reshape(rows.shape)
    np.equal(rows, cut, out=tie)
    event, path = np.divmod(np.flatnonzero(tie), rows.shape[1])
    c = rows.view(np.int16)
    np.less(rows, cut, out=c)
    if event.size:
        z = _tie_draws(cfg.key, path_hi[path], first + event)
        c[event, path] = (z >> _U(27)) < rest
    return c


def _advance(cfg: _RunConfig, first: int, last: int, kmins: np.ndarray,
             k: np.ndarray, path_hi: np.ndarray, alive: np.ndarray | None,
             work: _Work):
    """Advance the paths through one tilt-"measure" block of events
    first..last, b of them, whose branches :func:`_lane_branches` reads.

    ``kmins[r]`` holds rank r's threshold at each of the block's
    b <= _MAX_BLOCK events.  A path fails rank r if k + c_j < kmin_r(j) at
    some block event j, c_j being its larger branches in the block up to
    j; a log-step scan forms the c_j as int16 rows.  The words, branch
    rows, scan, tests and compaction all write into ``work``; a block
    allocates nothing of the paths' size.
    """
    b = last - first + 1
    # the words fill row 0 (row 1 is the hash's scratch), the branches
    # then row 1, and row 0 is free once the ties are resolved
    scratch = work.words.rows
    words = _draws(cfg.key, path_hi,
                   np.arange((first - 1) // 4, (last - 1) // 4 + 1), scratch)
    c = _lane_branches(cfg, words, first, b, path_hi, scratch[1])
    spare = scratch[0].view(np.int16)[:b * k.size].reshape(b, -1)
    step = 1
    while step < b:  # log-step scan: c[j] becomes the sum of rows 0..j
        np.add(c[step:], c[:-step], out=spare[step:])
        spare[:step] = c[:step]
        c, spare = spare, c
        step *= 2
    n = k.size
    tmp, low, mask = work.k.spare(n), work.low[:n], work.mask[:n]

    def reach(r: int):
        """(s, top): a path fails rank r iff s < top."""
        top = kmins[r].max()
        # k fails iff k + min_j (c_j - (kmin_j - top)) < top.  c_j <= b, so
        # a row with kmin_j < top - b never sets the minimum, and clipping
        # its slack at -(b + 1) keeps c_j - slack_j <= 2b + 1 < 2^15.
        slack = np.maximum(kmins[r] - top, -(b + 1)).astype(np.int16)
        np.subtract(c, slack[:, None], out=spare).min(axis=0, out=low)
        return np.add(k, low, out=tmp), top

    for r in range(1, len(kmins)):  # below rank r: alive under < r
        np.minimum(alive, r, out=alive, where=np.less(*reach(r), out=mask))
    # gather by index: a boolean mask mispredicts a branch per drop
    keep = np.flatnonzero(np.greater_equal(*reach(0), out=mask))
    k += c[-1]
    if keep.size < n:
        k, path_hi = work.k.compact(k, keep), work.hi.compact(path_hi, keep)
        if alive is not None:
            alive = work.alive.compact(alive, keep)
    return k, path_hi, alive


def _run_chunk(cfg: _RunConfig, kmins: tuple[_Thresholds, _Thresholds],
               base: int, start: int, size: int, work: _Work) -> np.ndarray:
    """One chunk's survivors per split (row) and final k - base (column),
    as a (splits, N + 1 - base) integer array, base = kmin_0(N) (see
    :func:`_simulate`); ``kmins`` holds the thresholds of stage one and of
    stage two (one row per split, by rank).
    Stage one is walked once, then stage two once for every split
    together: each path carries the number of splits it survives, and each
    split reads its own survivors off it.  ``work`` is the workspace of
    the process walking the chunk, at least ``size`` paths wide, which
    the process keeps (:func:`_workspace`): the initial k and path_hi, the
    split's test and the compaction before stage two are written into it,
    as every array of the walk is, so a chunk allocates only its counts."""
    one, two = kmins
    k = work.k.row(size)
    k.fill(0)
    path_hi = np.add(work.paths[:size], start, out=work.hi.row(size))
    k, path_hi, _ = _walk(cfg, one, k, _path_hi(cfg.key, path_hi, path_hi),
                          None, 1, cfg.n_split, work)
    order = _ranks(cfg)
    # the split's own absorption test, against each rank's threshold
    split = two(cfg.n_split, cfg.n_split)[:, 0]
    mask = work.mask[:k.size]
    keep = np.flatnonzero(np.greater_equal(k, split[0], out=mask))
    if keep.size < k.size:
        k, path_hi = work.k.compact(k, keep), work.hi.compact(path_hi, keep)
    alive = None
    if len(order) > 1:  # every kept path survives rank 0
        alive = work.alive.row(k.size)
        alive.fill(1)
        for threshold in split[1:]:
            alive += np.greater_equal(k, threshold, out=mask[:k.size])
    k, path_hi, alive = _walk(cfg, two, k, path_hi, alive, cfg.n_split + 1,
                              cfg.n_total, work)
    counts = np.zeros((len(order), cfg.n_total + 1 - base), dtype=np.int64)
    for rank, i in enumerate(order):
        survivors = k if alive is None else k[alive > rank]
        np.add.at(counts[i], survivors - base, 1)
    return counts


def _thresholds(cfg: _RunConfig) -> tuple[tuple[_Thresholds, _Thresholds],
                                          int]:
    """The thresholds of stage one and of stage two (one row per split, by
    rank), and base = kmin_0(N), rank 0's threshold at the last event."""
    kmins = (_Thresholds(cfg, (0.0,), 0, cfg.n_split),
             _Thresholds(cfg, [cfg.splits[i][0] for i in _ranks(cfg)],
                         cfg.n_split, cfg.n_total))
    return kmins, int(kmins[1](cfg.n_total, cfg.n_total)[0, 0])


def _simulate(cfg: _RunConfig, n_paths: int,
              workers: int | None) -> tuple[int, np.ndarray]:
    """Survivors per split and final k, summed over the chunks, as (base,
    counts): ``counts[i, j]`` paths survive split i with final k = base + j.
    No survivor lies below base = kmin_0(N), rank 0's threshold at the
    last event, so the rows do not grow with N where the walk absorbs.

    W = min(workers, chunks) processes (workers default: the CPUs this
    process may run on) share the chunks: the caller tabulates kmin for
    both stages, forks W - 1 children, which inherit the tables, and walks
    share 0 itself.  Each process walks its share in the :class:`_Work` it
    keeps (:func:`_workspace`), a child in its own, built after the fork;
    its chunks then allocate nothing of their size.  A child's sum comes
    back through a pipe, read to EOF before the child is reaped, since a
    full pipe blocks it; its exception is raised again here.  On any
    exception the children are killed and reaped.
    """
    if not 1 <= n_paths <= _MAX_PATHS:
        raise DomainError(f"n_paths must be in [1, 2^31], got {n_paths!r}")
    if workers is not None and workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers!r}")
    starts = range(0, n_paths, CHUNK)
    if workers is None:
        workers = len(os.sched_getaffinity(0))
    workers = min(workers, len(starts))
    kmins, base = _thresholds(cfg)

    def share(j: int) -> np.ndarray:
        work = _workspace(min(CHUNK, n_paths))  # in the process that walks it
        total = None  # summed in place: a row may be long
        for lo in starts[j::workers]:
            counts = _run_chunk(cfg, kmins, base, lo, min(CHUNK, n_paths - lo),
                                work)
            total = counts if total is None else np.add(total, counts,
                                                        out=total)
        return total

    if workers == 1:
        return base, share(0)
    sys.stdout.flush()  # else the children inherit unwritten output
    sys.stderr.flush()
    children = {}  # pid -> read end of its pipe
    try:
        for j in range(1, workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                _child(share, j, w)
            os.close(w)
            children[pid] = r
        total = share(0)
        for pid, r in list(children.items()):
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(r)
            del children[pid]
            if status and data:
                exc, cause = pickle.loads(data)
                raise exc from cause
            if status or len(data) != total.nbytes:
                raise RuntimeError(f"walker process {pid} exited with status "
                                   f"{status} after {len(data)} of "
                                   f"{total.nbytes} bytes")
            total += np.frombuffer(data, dtype=np.int64).reshape(total.shape)
        return base, total
    finally:
        for pid, r in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)


def _child(share, j: int, w: int):
    """In a forked child: write share j's sum, or else its exception and
    traceback, pickled, to fd w, and leave by os._exit, which runs none of
    the parent's exit handlers."""
    status = 1
    try:
        try:
            data, status = share(j).tobytes(), 0
        except BaseException as exc:
            import traceback
            cause = RuntimeError(f"in walker process {os.getpid()}:\n"
                                 + traceback.format_exc())
            try:
                data = pickle.dumps((exc, cause))
                pickle.loads(data)  # as the parent will
            except Exception:
                data = pickle.dumps((cause, None))
        with open(w, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(status)


def _config_for(spec: WalkSpec, *, n2: int = 0,
                splits: tuple[tuple[float, float], ...] = ((0.0, 0.0),),
                seed: int = 0) -> _RunConfig:
    """Config for a walk split after spec.n_events and continued for n2
    more events; a plain run is the identity split (0, 0) with n2 = 0."""
    p = spec.dp.p
    big, small = max(p, 1.0 - p), min(p, 1.0 - p)
    n_total = spec.n_events + n2
    b_step = binary_event_stats(p)[0]  # xhat1, the mean log-size step
    if n_total > _MAX_EVENTS:
        raise DomainError(f"a walk takes at most 2^31 events, got {n_total}: "
                          "tie counters 2^31 + n - 1 must fit 32 bits")
    return _RunConfig(
        log_big=math.log(big), log_small=math.log(small),
        lane_cut=(divmod(math.ceil(big * 2.0 ** 53), 1 << 37)
                  if spec.tilt == "measure" else None),
        b_step=b_step, eps=spec.eps, n_total=n_total, n_split=spec.n_events,
        splits=splits, tilt=spec.tilt, key=_key_from_seed(seed))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _records(cfg: _RunConfig, n_paths: int, seed: int,
             workers: int | None) -> list[PathEnsemble]:
    """Walk cfg: one record per split, counted from its own kmin_F(N), its
    boundary shifted by ln F into the frame of the unshifted log-size."""
    base, counts = _simulate(cfg, n_paths, workers)
    b_final = cfg.n_total * cfg.b_step - cfg.eps if math.isfinite(cfg.eps) else 0.0
    kmin_N = [int(_kmin(cfg, np.array([cfg.n_total]), log_F)[0])
              for log_F, _ in cfg.splits]
    return [PathEnsemble(n_paths=n_paths, seed=seed, base=k0,
                         counts=tuple(np.trim_zeros(row[k0 - base:], "b").tolist()),
                         tilt=cfg.tilt, n_events=cfg.n_total, log_big=cfg.log_big,
                         log_small=cfg.log_small, b_final=b_final - log_F,
                         log_G=log_G)
            for row, k0, (log_F, log_G) in zip(counts, kmin_N, cfg.splits)]


def simulate_survivors(spec: WalkSpec, n_paths: int, seed: int,
                       workers: int | None = None) -> PathEnsemble:
    """The walk of ``n_paths`` paths through spec.n_events events: its
    survivors per final k, which estimate the surviving world count.

    Identical (spec, n_paths, seed) give equal records, and so
    bit-identical estimates and histograms, regardless of ``workers``.
    """
    [ensemble] = _records(_config_for(spec, seed=seed), n_paths, seed, workers)
    return ensemble


def enumerate_survivors(spec: WalkSpec) -> ExactCount:
    """Exact survivor count and surviving measure of the full 2^N tree, on
    the k-lattice: event n shifts the leaf count of each k up one k and
    zeroes those below kmin(n).  The counts are Python integers."""
    cfg = _config_for(spec)
    n_events = spec.n_events
    kmin = _kmin(cfg, np.arange(n_events + 1), 0.0)
    counts = np.zeros(n_events + 1, dtype=object)
    counts[0] = 1
    for n in range(1, n_events + 1):
        counts[1:n + 1] = counts[1:n + 1] + counts[:n]
        counts[:kmin[n]] = 0
    k = np.arange(n_events + 1)
    x = k * cfg.log_big + (n_events - k) * cfg.log_small
    measure = math.fsum(math.exp(math.log(c) + x_k)
                        for c, x_k in zip(counts, x.tolist()) if c)
    return ExactCount(count=int(counts.sum()), measure=measure,
                      n_events=n_events, by_k=tuple(map(int, counts)))


def born_two_stage_mc_counts(spec: WalkSpec,
                             splits: Sequence[tuple[float, float]], n2: int,
                             n_paths: int, seed: int,
                             workers: int | None = None) -> list[PathEnsemble]:
    """Two-stage protocol, per (F, G) in ``splits``: after event
    spec.n_events every lineage drops by |ln F| and the estimator gains a
    factor G (with an immediate absorption check), then it continues
    through n2 more events.  Returns one record per split, whose
    estimates are the final outcome counts lambda.

    Each chunk walks stage one once and stage two once for all splits, on
    the same draws; each record equals the one-split call's at the same
    seed.
    """
    log_splits = []
    for F, G in splits:
        log_F, G = split_params(F, G)
        log_splits.append((log_F, math.log(G)))
    if n2 < 1:
        raise DomainError(f"n2 must be >= 1, got {n2!r}")
    cfg = _config_for(spec, n2=n2, splits=tuple(log_splits), seed=seed)
    return _records(cfg, n_paths, seed, workers)
