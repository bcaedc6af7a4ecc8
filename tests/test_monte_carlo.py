"""Walker against the exact count, estimator cross-agreement,
determinism, and the surviving-shape comparison.

The designated ground truth is :func:`enumerate_survivors`, the exact
count of the full 2^N tree with absorption at every event, taken on the
k-lattice with the walker's own thresholds.  It is checked here against a
brute-force walk over all 2^N leaves (N <= 20) and against a float,
renormalized lattice count (N = 400, 3600).  The N = 12 fixture below was
computed once by a 2^N enumeration and frozen as a regression anchor.
"""

import decimal
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from mangledworlds import analytic, monte_carlo
from mangledworlds.errors import DomainError
from mangledworlds.model_params import (DecoherenceParams, binary_event_stats,
                                        to_diffusion)
from mangledworlds.monte_carlo import (TILTS, ExactCount, WalkSpec,
                                       born_two_stage_mc_counts,
                                       default_tilt, enumerate_survivors,
                                       simulate_survivors)

#: 60 bins over y in [0, 15], which hold every survivor of the p = 0.6,
#: eps = 0.3, N = 40 walks below (y <= 6.8)
EDGES = np.linspace(0.0, 15.0, 61)


def tie_eps(p: float, n_tie: int, k_tie: int) -> float:
    """eps that puts the boundary at event n_tie on the lattice site of
    k_tie larger-branch steps."""
    log_big, log_small = math.log(max(p, 1.0 - p)), math.log(min(p, 1.0 - p))
    return (n_tie * binary_event_stats(p)[0]
            - (k_tie * log_big + (n_tie - k_tie) * log_small))


def z_score(a, b) -> float:
    """Separation of two ensemble estimates in mutual standard errors."""
    ea, eb = a.estimate(), b.estimate()
    rel_a = math.exp(a.std_error() - ea)
    rel_b = math.exp(b.std_error() - eb)
    return (ea - eb) / math.hypot(rel_a, rel_b)


class TestWalkSpec:
    def test_validation(self):
        dp = DecoherenceParams(p=0.6)
        with pytest.raises(DomainError):
            WalkSpec(dp=dp, eps=0.0, n_events=10)
        with pytest.raises(DomainError):
            WalkSpec(dp=dp, eps=0.1, n_events=0)
        with pytest.raises(DomainError):
            WalkSpec(dp=dp, eps=0.1, n_events=10, tilt="nope")

    def test_default_tilt_rule(self):
        dp = DecoherenceParams(p=0.55)  # sigma1^2 ~ 0.00997
        assert default_tilt(dp, 200) == "none"    # N sigma1^2 ~ 2
        assert default_tilt(dp, 1000) == "measure"  # ~ 10


class TestAgainstEnumeration:
    def test_single_event_no_absorption(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=10.0, n_events=1)
        ens = simulate_survivors(spec, 5000, seed=1)
        assert math.exp(ens.estimate()) == pytest.approx(2.0, rel=1e-12)
        assert ens.std_error() == -math.inf

    def test_two_events_brute_force(self):
        # all four leaves checked by hand against the boundary at n = 1, 2
        p, eps = 0.6, 0.05
        xhat1 = binary_event_stats(p)[0]
        lp, lq = math.log(p), math.log(1.0 - p)
        exact = 0
        for s1 in (lp, lq):
            if s1 <= 1 * xhat1 - eps:
                continue
            for s2 in (lp, lq):
                if s1 + s2 > 2 * xhat1 - eps:
                    exact += 1
        spec = WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=2)
        assert enumerate_survivors(spec).count == exact
        ens = simulate_survivors(spec, 200_000, seed=2)
        se = math.exp(ens.std_error())
        assert abs(math.exp(ens.estimate()) - exact) <= 3.0 * max(se, 1e-12)

    def test_no_boundary_gives_full_tree(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=math.inf, n_events=10)
        assert enumerate_survivors(spec).count == 2 ** 10
        ens = simulate_survivors(spec, 10_000, seed=3)
        assert math.exp(ens.estimate()) == pytest.approx(2.0 ** 10, rel=1e-12)
        assert ens.std_error() == -math.inf
        tilted = simulate_survivors(
            WalkSpec(dp=DecoherenceParams(p=0.6), eps=math.inf, n_events=10,
                     tilt="measure"), 40_000, seed=4)
        se = math.exp(tilted.std_error())
        assert abs(math.exp(tilted.estimate()) - 2.0 ** 10) <= 3.0 * se

    def test_tight_boundary_absorbs_something(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=1e-9, n_events=6)
        assert enumerate_survivors(spec).count < 2 ** 6

    def test_frozen_regression_fixture(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=12)
        got = enumerate_survivors(spec)
        assert got == ExactCount(count=889, measure=pytest.approx(
            0.4287544565760002, rel=1e-12), n_events=12)

    def test_count_at_a_lattice_tie(self):
        # the boundary at event 6 sits on the site k = 1: the float test
        # k ln p + (n - k) ln q > n xhat1 - eps absorbs the lineages on it,
        # as the walker's threshold does; a sum of x event by event keeps
        # two of them (59)
        spec = WalkSpec(dp=DecoherenceParams(p=0.51), eps=tie_eps(0.51, 6, 1),
                        n_events=6)
        assert spec.eps == 0.0824109893042202
        assert enumerate_survivors(spec).count == 57

    @pytest.mark.parametrize("n", [400, 3600])
    def test_count_at_production_size(self, n):
        # a float k-lattice count, renormalized each event, with the float
        # test in closed form; the exact count is a Python integer
        p, eps = 0.55, 0.2
        log_big, log_small = math.log(p), math.log(1.0 - p)
        b_step = binary_event_stats(p)[0]
        k = np.arange(n + 1)
        counts = np.zeros(n + 1)
        counts[0] = 1.0
        log_scale = 0.0
        for event in range(1, n + 1):
            counts[1:] += counts[:-1].copy()
            counts[k * log_big + (event - k) * log_small
                   <= event * b_step - eps] = 0.0
            total = counts.sum()
            counts /= total
            log_scale += math.log(total)
        # e^x underflows at N = 3600: sum count e^x in the log
        alive = counts > 0.0
        terms = np.log(counts[alive]) + k[alive] * log_big + (n - k[alive]) * log_small
        top = float(terms.max())
        log_measure = log_scale + top + math.log(float(np.exp(terms - top).sum()))
        got = enumerate_survivors(
            WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=n))
        assert abs(math.log(got.count) - log_scale) <= 1e-10
        assert abs(math.log(got.measure) - log_measure) <= 1e-10

    @pytest.mark.parametrize("p,eps,n,tilt", [
        (0.55, 0.2, 8, "none"),
        (0.55, 0.2, 16, "measure"),
        (0.6, 0.3, 12, "none"),
        (0.6, 0.3, 12, "measure"),
        (0.7, 1.0, 14, "none"),
        (0.7, 0.1, 10, "measure"),
    ])
    def test_estimates_within_four_sigma(self, p, eps, n, tilt):
        spec = WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=n, tilt=tilt)
        exact = enumerate_survivors(spec).count
        ens = simulate_survivors(spec, 150_000, seed=777)
        se = math.exp(ens.std_error())
        assert abs(math.exp(ens.estimate()) - exact) <= 4.0 * max(se, 1e-9)


class TestTiltedEstimator:
    def test_two_tilts_agree_at_n200(self):
        dp = DecoherenceParams(p=0.55)
        none = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="none"),
            1 << 20, seed=41, workers=2)
        measure = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="measure"),
            1 << 20, seed=42, workers=2)
        assert abs(z_score(none, measure)) <= 3.0
        # the tilt helps here, though modestly: survival is only ~1e-2 rare
        ratio = math.exp(none.std_error() - measure.std_error())
        assert ratio > 1.5

    def test_variance_reduction_grows_with_depth(self):
        # at N = 1000 the uniform walk's survival is ~5e-4 and the tilted
        # estimator wins by an order of magnitude
        dp = DecoherenceParams(p=0.55)
        none = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=1000, tilt="none"),
            1 << 21, seed=21, workers=2)
        measure = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=1000, tilt="measure"),
            1 << 21, seed=22, workers=2)
        assert abs(z_score(none, measure)) <= 4.0
        ratio = math.exp(none.std_error() - measure.std_error())
        assert ratio >= 8.0


class TestDeterminism:
    def test_bit_identical_across_workers(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40)
        runs = [simulate_survivors(spec, 100_000, seed=9, workers=k)
                for k in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_seed_changes_the_answer(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40)
        a = simulate_survivors(spec, 50_000, seed=1)
        b = simulate_survivors(spec, 50_000, seed=2)
        assert a.log_weight_sum != b.log_weight_sum

    def test_histogram_deterministic(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40)
        a = simulate_survivors(spec, 50_000, seed=5, workers=1)
        b = simulate_survivors(spec, 50_000, seed=5, workers=2)
        assert np.array_equal(a.histogram(EDGES)[0], b.histogram(EDGES)[0])
        assert a == b

    def test_histogram_deterministic_across_processes(self):
        # three chunks and a remainder, so workers = 2 returns the
        # counts of a share from a forked child
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40)
        n = 3 * monte_carlo.CHUNK + 17
        a = simulate_survivors(spec, n, seed=5, workers=1)
        b = simulate_survivors(spec, n, seed=5, workers=2)
        assert np.array_equal(a.histogram(EDGES)[0], b.histogram(EDGES)[0])
        assert a == b

    @pytest.mark.parametrize("tilt", TILTS)
    def test_histogram_does_not_depend_on_the_chunk_size(self, tilt, monkeypatch):
        spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=400,
                        tilt=tilt)
        big = simulate_survivors(spec, 1 << 18, seed=11, workers=1)
        monkeypatch.setattr(monte_carlo, "CHUNK", 1 << 12)
        small = simulate_survivors(spec, 1 << 18, seed=11, workers=1)
        assert np.array_equal(small.histogram(EDGES)[0], big.histogram(EDGES)[0])
        assert small == big

    @pytest.mark.parametrize("tilt", TILTS)
    def test_sums_are_the_logs_of_the_survivor_counts(self, tilt):
        # reference: the survivors per final k, weighed in 50-digit decimals
        spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=400,
                        tilt=tilt)
        ens = simulate_survivors(spec, 1 << 16, seed=11, workers=1)
        base, counts = ens.base, np.array(ens.counts)
        n = spec.n_events
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            big, small = decimal.Decimal(0.55).ln(), decimal.Decimal(0.45).ln()
            weights = {k: decimal.Decimal(2) ** n if tilt == "none"
                       else (-(k * big + (n - k) * small)).exp()
                       for k in (base + np.flatnonzero(counts)).tolist()}
            want = [float(sum(int(counts[k - base]) * w ** e
                              for k, w in weights.items()).ln()) for e in (1, 2)]
        assert ens.survivor_count == counts.sum() > 0
        assert ens.log_weight_sum == pytest.approx(want[0], rel=1e-15)
        assert ens.log_weight_sq_sum == pytest.approx(want[1], rel=1e-15)

    @pytest.mark.parametrize("tilt", TILTS)
    def test_two_stage_does_not_depend_on_the_chunk_size(self, tilt,
                                                         monkeypatch):
        s1 = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=100,
                      tilt=tilt)
        splits = [(1, 1), (0.5, 1), (0.25, 2)]
        big = born_two_stage_mc_counts(s1, splits, 300, 1 << 18, seed=11,
                                       workers=1)
        monkeypatch.setattr(monte_carlo, "CHUNK", 1 << 12)
        assert born_two_stage_mc_counts(s1, splits, 300, 1 << 18, seed=11,
                                        workers=1) == big

    @pytest.mark.parametrize("tilt", TILTS)
    def test_histogram_walk_carries_the_estimate(self, tilt):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40,
                        tilt=tilt)
        ens = simulate_survivors(spec, 50_000, seed=5)
        weights, log_offset = ens.histogram(EDGES)
        total = math.log(float(weights.sum())) + log_offset
        assert total == pytest.approx(ens.estimate(), abs=1e-9)


class _NoFork(Exception):
    pass


class _ChildFailure(Exception):
    pass


class _Unpicklable(Exception):
    def __init__(self, message, detail):
        super().__init__(message)  # pickled args miss detail


class TestWorkerProcesses:
    SPEC = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=20)
    N = 3 * monte_carlo.CHUNK

    @pytest.fixture
    def forks(self, monkeypatch):
        """Record every fork of the walk's caller, and let it go ahead."""
        calls = []
        fork = os.fork

        def recording_fork():
            calls.append(1)
            return fork()

        monkeypatch.setattr(monte_carlo.os, "fork", recording_fork)
        return calls

    @staticmethod
    def fail_in_children(monkeypatch, exc):
        """Make ``_run_chunk`` raise exc in every process but the caller."""
        caller, run_chunk = os.getpid(), monte_carlo._run_chunk

        def failing(*args):
            if os.getpid() != caller:
                raise exc
            return run_chunk(*args)

        monkeypatch.setattr(monte_carlo, "_run_chunk", failing)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_worker_or_one_chunk_forks_nothing(self, forks):
        simulate_survivors(self.SPEC, self.N, seed=1, workers=1)
        simulate_survivors(self.SPEC, monte_carlo.CHUNK, seed=1, workers=2)
        simulate_survivors(self.SPEC, monte_carlo.CHUNK, seed=1)
        assert forks == []

    def test_the_caller_walks_a_share(self, forks, monkeypatch):
        want = simulate_survivors(self.SPEC, self.N, seed=1, workers=1)
        assert simulate_survivors(self.SPEC, self.N, seed=1, workers=2) == want
        assert len(forks) == 1
        # never more processes than chunks
        assert simulate_survivors(self.SPEC, self.N, seed=1, workers=8) == want
        assert len(forks) == 3
        monkeypatch.setattr(monte_carlo.os, "sched_getaffinity",
                            lambda pid: set(range(8)))
        # default: one per usable CPU, capped
        assert simulate_survivors(self.SPEC, self.N, seed=1) == want
        assert len(forks) == 5
        self.assert_no_child_left()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_bad_worker_count_raises_before_any_fork(self, monkeypatch, workers):
        def no_fork():
            raise _NoFork

        monkeypatch.setattr(monte_carlo.os, "fork", no_fork)
        with pytest.raises(DomainError):
            simulate_survivors(self.SPEC, self.N, seed=1, workers=workers)

    def test_a_child_failure_is_raised_in_the_caller(self, monkeypatch):
        self.fail_in_children(monkeypatch, _ChildFailure("chunk"))
        with pytest.raises(_ChildFailure, match="chunk"):
            simulate_survivors(self.SPEC, self.N, seed=1, workers=3)
        self.fail_in_children(monkeypatch, _Unpicklable("odd", 1))
        with pytest.raises(RuntimeError, match="_Unpicklable: odd"):
            simulate_survivors(self.SPEC, self.N, seed=1, workers=2)
        self.assert_no_child_left()

    def test_a_failure_in_the_callers_share_kills_the_children(
            self, monkeypatch):
        # the children would walk for a minute if they were left to finish
        caller, run_chunk = os.getpid(), monte_carlo._run_chunk

        def slow_children(*args):
            if os.getpid() == caller:
                raise _ChildFailure("caller")
            time.sleep(60)
            return run_chunk(*args)

        monkeypatch.setattr(monte_carlo, "_run_chunk", slow_children)
        t0 = time.monotonic()
        with pytest.raises(_ChildFailure, match="caller"):
            simulate_survivors(self.SPEC, self.N, seed=1, workers=3)
        assert time.monotonic() - t0 < 30
        self.assert_no_child_left()

    def test_buffered_output_is_written_once(self):
        # stdout on a pipe is block-buffered; a child that flushed the
        # inherited buffer would write the marker a second time
        script = """
import sys
from mangledworlds.model_params import DecoherenceParams
from mangledworlds.monte_carlo import CHUNK, WalkSpec, simulate_survivors
print("marker")
spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=20)
simulate_survivors(spec, 3 * CHUNK, seed=1, workers=2)
"""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(monte_carlo.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("marker") == 1, proc.stdout


def test_hash_stream_is_pinned():
    """Raw draws recorded from the allocating hash; the in-place one, with
    or without a reused scratch buffer, must give the same stream."""
    key = monte_carlo._key_from_seed(7)
    paths = monte_carlo._path_hi(
        key, np.array([0, 1, 65535, 65536, 2 ** 31 - 1], dtype=np.uint64))
    want = {
        1: [0x1114a7dd47bf7c09, 0xc505ac7317ae3c9e, 0xa6186ba0605948e5,
            0xa53e38f91cb0b903, 0xd4a0fc0a0abad1bd],
        400: [0x0da6f7c139e88739, 0xe043bee22e83f475, 0x13c5a9d9c0af2836,
              0xf5bdacb6b732aa60, 0x07c1222fcf1ab3d8],
        3600: [0xb3b929397a9e7927, 0xf2283bae650e7aa2, 0x608a28aab3cec0ca,
               0x7be55e35c91e793c, 0x1a0ef3a7b68ecf29],
    }
    scratch = np.empty((2, 8), dtype=np.uint64)
    for event, values in want.items():
        assert monte_carlo._draws(key, paths, event).tolist() == values
        assert monte_carlo._draws(key, paths, event,
                                  scratch=scratch).tolist() == values


def test_uniform_branch_stream_is_pinned():
    """The first 128 tilt-none branch bits at seed 7, recorded from the
    walker: event n takes the larger branch when bit (n - 1) % 64 of the
    path's hash word (n - 1) // 64 is set.  Without absorption, a walk
    through events 1..n counts exactly the set bits among the first n."""
    words = {
        0: [0x6fef6b28ddcfe3f1, 0x1114a7dd47bf7c09],
        1: [0x4b4881dc07a2b4c2, 0xc505ac7317ae3c9e],
        65535: [0xb3beb0717b25076f, 0xa6186ba0605948e5],
        2 ** 31 - 1: [0x52b0b266c30c1a56, 0xd4a0fc0a0abad1bd],
    }
    bits = np.array([[w >> s & 1 for w in pair for s in range(64)]
                     for pair in words.values()])
    spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=math.inf, n_events=128,
                    tilt="none")
    cfg = monte_carlo._config_for(spec, seed=7)
    path_hi = monte_carlo._path_hi(cfg.key, np.array(list(words),
                                                     dtype=np.uint64))
    for w in (0, 1):
        assert monte_carlo._draws(cfg.key, path_hi, w).tolist() == [
            pair[w] for pair in words.values()]
    work = monte_carlo._Work(4)
    kmins = monte_carlo._Thresholds(cfg)
    for n in range(1, 129):
        k, _, _ = monte_carlo._walk(cfg, kmins, np.zeros(4, dtype=np.int64),
                                    path_hi, None, 1, n, work)
        assert k.tolist() == bits[:, :n].sum(axis=1).tolist(), n


def test_every_bit_of_the_uniform_word_is_fair():
    """Over 2^16 paths, each of the 64 bit positions of a hash word is set
    within 5 sigma of half the paths."""
    n = 1 << 16
    key = monte_carlo._key_from_seed(7)
    path_hi = monte_carlo._path_hi(key, np.arange(n, dtype=np.uint64))
    for w in (0, 1, 2 ** 26 - 1):
        word = monte_carlo._draws(key, path_hi, w)
        ones = [int(((word >> np.uint64(s)) & np.uint64(1)).sum())
                for s in range(64)]
        assert max(abs(c - n / 2) for c in ones) < 5.0 * math.sqrt(n / 4), w


def test_hash_of_an_event_block_stacks_the_single_events():
    key = monte_carlo._key_from_seed(7)
    paths = monte_carlo._path_hi(
        key, np.array([0, 1, 65535, 65536, 2 ** 31 - 1], dtype=np.uint64))
    events = np.array([1, 2, 400, 3600, 2 ** 32 - 1])
    want = np.stack([monte_carlo._draws(key, paths, int(e)) for e in events])
    scratch = np.empty((2, 64), dtype=np.uint64)
    assert np.array_equal(monte_carlo._draws(key, paths, events), want)
    assert np.array_equal(
        monte_carlo._draws(key, paths, events, scratch=scratch), want)


def _unmix(z: int) -> int:
    """Inverse of the splitmix64 finalizer less its + GAMMA, on an int."""
    def unshift(z, s):
        y = z
        for _ in range(64 // s + 1):
            y = z ^ (y >> s)
        return y

    mod = 1 << 64
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, mod) % mod
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, mod) % mod
    return unshift(z, 30)


def _invert(key, z: int) -> int:
    """(path << 32) | counter whose hash under key is z."""
    gamma, mod = 0x9E3779B97F4A7C15, 1 << 64
    return (_unmix((_unmix(z) - int(key) - gamma) % mod) - gamma) % mod ^ int(key)


@pytest.mark.parametrize("p", [0.5, 0.55, 0.6, 0.9, 0.3, 1 / 3])
def test_lane_decision_is_the_53_bit_compare(p):
    """The walker reads event n's 16-bit lane a, and on a tie (a == A) the
    top 37 bits r of its tie hash; it must take the larger branch exactly
    when m = (a << 37) | r is below M = ceil(p_big 2^53), that is when the
    float uniform m 2^-53 is below p_big.  Each tie hash is placed by
    inverting the hash at a tie counter 2^31 + n - 1; the word's other
    lanes are ties too, outside the one-event block, and must be skipped."""
    big = max(p, 1.0 - p)
    cfg = monte_carlo._config_for(WalkSpec(
        dp=DecoherenceParams(p=p), eps=0.2, n_events=10, tilt="measure"), seed=7)
    M = math.ceil(big * 2.0 ** 53)
    A, R = cfg.lane_cut
    assert (A << 37) + R == M
    rng = np.random.default_rng(int(p * 1000))
    for a in (0, A - 1, A, A + 1, (1 << 16) - 1):
        for r in (0, R - 1, R, (1 << 37) - 1):
            if r < 0:
                continue
            while (x := _invert(cfg.key, r << 27 | int(
                    rng.integers(1 << 27)))) & 0xFFFFFFFF < 1 << 31:
                pass  # the counter must be a tie counter
            n = (x & 0xFFFFFFFF) - (1 << 31) + 1
            lane = (n - 1) % 4
            word = sum((a if j == lane else A) << 16 * j for j in range(4))
            path_hi = monte_carlo._path_hi(
                cfg.key, np.array([x >> 32], dtype=np.uint64))
            tie = monte_carlo._tie_draws(cfg.key, path_hi, np.array([n]))
            assert int(tie[0]) >> 27 == r
            c = monte_carlo._lane_branches(
                cfg, np.array([[word]], dtype=np.uint64), n, 1, path_hi,
                np.empty(1, dtype=np.uint64))
            m = a << 37 | r
            assert (m * 2.0 ** -53 < big) == (m < M)
            assert c.tolist() == [[int(m < M)]], (a, r)


def test_event_cap_keeps_tie_counters_apart():
    """Tie counters 2^31 + n - 1 stay above every word counter (n - 1) // 4
    and within 32 bits while n <= 2^31: a longer walk raises before it
    walks, naming the cap."""
    spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=1 << 30,
                    tilt="measure")
    assert monte_carlo._config_for(spec, n2=1 << 30).n_total == 1 << 31
    with pytest.raises(DomainError, match=r"2\^31"):
        monte_carlo._config_for(spec, n2=(1 << 30) + 1)


class TestBlockWalk:
    """``_walk`` hashes and tests a block of events per numpy pass.  It must
    keep exactly the paths, k and outcome counts of a plain walk that draws,
    tests and compacts one event at a time."""

    @staticmethod
    def larger_branch(cfg, path_hi, event):
        """1 where a path takes the larger branch at the event, and the
        number of ties; ``event`` is an int, or a 1-D array of events that
        gives one row each.  Under tilt "none": bit (event - 1) % 64 of its
        hash word (event - 1) // 64.  Under "measure": 16-bit lane
        a = bits 16j..16j + 15, j = (event - 1) % 4, of its hash word
        (event - 1) // 4 is below A; or a == A, a tie, and its hash at the
        tie counter 2^31 + event - 1, >> 27, is below R."""
        n = np.asarray(event, dtype=np.int64) - 1
        shift = n[..., None].astype(np.uint64)  # broadcasts over the paths
        if cfg.tilt == "none":
            word = monte_carlo._draws(cfg.key, path_hi, n // 64)
            return ((word >> shift % np.uint64(64))
                    & np.uint64(1)).astype(np.int64), 0
        word = monte_carlo._draws(cfg.key, path_hi, n // 4)
        lane = ((word >> np.uint64(16) * (shift % np.uint64(4)))
                & np.uint64(0xFFFF))
        tie = monte_carlo._draws(cfg.key, path_hi, (1 << 31) + n)
        A, R = cfg.lane_cut
        larger = (lane < A) | ((lane == A) & ((tie >> np.uint64(27)) < R))
        return larger.astype(np.int64), int((lane == A).sum())

    @classmethod
    def reference_walk(cls, cfg, log_Fs, k, path_hi, alive, first, last):
        """The walk one event at a time; returns k, path_hi, alive and the
        number of ties met."""
        ties = 0
        for event in range(first, last + 1):
            larger, n_ties = cls.larger_branch(cfg, path_hi, event)
            k, ties = k + larger, ties + n_ties
            for r, log_F in enumerate(log_Fs):
                below = k < monte_carlo._kmin(cfg, np.array([event]), log_F)
                if r == 0:
                    keep = ~below
                else:
                    alive = np.where(below, np.minimum(alive, r), alive)
            k, path_hi = k[keep], path_hi[keep]
            if alive is not None:
                alive = alive[keep]
        return k, path_hi, alive, ties

    @staticmethod
    def config(spec, log_Fs, first):
        """The config of a walk through events first..first +
        spec.n_events - 1 under one outcome per ln F in ``log_Fs``, each
        applied from event first on: the split follows event first."""
        head = WalkSpec(dp=spec.dp, eps=spec.eps, n_events=first,
                        tilt=spec.tilt)
        return monte_carlo._config_for(
            head, n2=spec.n_events - 1,
            splits=tuple((log_F, 0.0) for log_F in log_Fs), seed=5)

    @classmethod
    def assert_walks_agree(cls, spec, log_Fs, k, first):
        cfg = cls.config(spec, log_Fs, first)
        path_hi = monte_carlo._path_hi(
            cfg.key, np.arange(k.size, dtype=np.uint64))
        alive = None
        if len(log_Fs) > 1:  # the outcomes whose threshold k meets
            before = np.array([first - 1])
            alive = sum(k >= monte_carlo._kmin(cfg, before, log_F)
                        for log_F in log_Fs).astype(np.int64)
        last = first + spec.n_events - 1
        got = monte_carlo._walk(cfg, monte_carlo._Thresholds(cfg), k.copy(),
                                path_hi,
                                None if alive is None else alive.copy(),
                                first, last, monte_carlo._Work(k.size))
        want = cls.reference_walk(cfg, log_Fs, k, path_hi, alive, first, last)
        for g, w in zip(got, want[:3]):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.tolist() == w.tolist()
        return want

    @pytest.mark.parametrize("p,eps,n_events,log_Fs,n_paths,tilt", [
        # one word (4 events) per block while 2^16 paths are alive, growing
        # as they die; 63 ties among the alive paths
        (0.55, 0.2, 300, (0.0,), 1 << 16, "measure"),
        # the whole walk in one block; three outcomes, one F twice
        (0.6, 1.5, 600, (-0.2, -0.5, -0.5), 200, "measure"),
        # blocks of 260 events and more as paths die, the last cut short
        (0.7, 1.0, 700, (0.0, -0.4), 1000, "measure"),
        # no absorption: kmin never rises, and no block fails a path
        (0.6, math.inf, 300, (0.0, -2.0), 300, "measure"),
        (0.6, 0.3, 1, (0.0,), 500, "none"),
        (0.6, math.inf, 300, (0.0, -2.0), 300, "none"),
        # p = 1/2, all lineages one log-size: with ln F just above -eps the
        # second outcome's float test fails from event 369 on
        (0.5, 0.3, 600, (0.0, -0.3 + 1.6e-14), 300, "none"),
        # 4 events per block while 2^16 paths are alive, growing as they die
        (0.55, 0.2, 300, (0.0,), 1 << 16, "none"),
        # 64-event blocks, one per hash word
        (0.55, 1.0, 700, (0.0, -0.4), 1000, "none"),
    ])
    def test_walk_equals_the_per_event_walk(self, p, eps, n_events, log_Fs,
                                            n_paths, tilt):
        spec = WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=n_events,
                        tilt=tilt)
        k, _, alive, ties = self.assert_walks_agree(
            spec, log_Fs, np.zeros(n_paths, dtype=np.int64), 1)
        if len(log_Fs) > 1 and math.isfinite(eps):
            assert (alive < len(log_Fs)).any()  # some outcome absorbed a path
        if tilt == "measure" and n_paths == 1 << 16:
            assert ties > 0  # the tie hash is read

    @pytest.mark.parametrize("tilt", TILTS)
    @pytest.mark.parametrize("n_split,n_events,n_paths", [
        (100, 300, 1000),     # none: 36 events into a word; crosses five words
        (63, 2, 1 << 16),     # a word's last event, then the next's first
        (64, 1, 500),         # a word's first event
        (130, 10, 1 << 16),   # many paths, so short blocks; mid-word
        (101, 300, 1000),     # measure: a word's second event
        (101, 2, 1 << 16),    # measure: starts and ends mid-word
    ])
    def test_stage_two_from_mid_word(self, tilt, n_split, n_events, n_paths):
        """A walk that starts at n_split + 1, partway into a hash word (64
        events under tilt "none", 4 under "measure"), hashes that word
        again and must read the same branches as the walk from event 1
        did."""
        dp = DecoherenceParams(p=0.55)
        cfg = monte_carlo._config_for(
            WalkSpec(dp=dp, eps=1.0, n_events=n_split, tilt=tilt), seed=5)
        path_hi = monte_carlo._path_hi(
            cfg.key, np.arange(n_paths, dtype=np.uint64))
        k, path_hi, _, _ = self.reference_walk(
            cfg, (0.0,), np.zeros(n_paths, dtype=np.int64), path_hi, None,
            1, n_split)
        assert 0 < k.size
        spec = WalkSpec(dp=dp, eps=1.0, n_events=n_events, tilt=tilt)
        # paths indexed 0.. again: only the start event differs
        self.assert_walks_agree(spec, (0.0, -0.3), k, n_split + 1)

    LONG = 70_000  # events: one block of 4 paths would hold 65 536

    @pytest.mark.parametrize("tilt", TILTS)
    @pytest.mark.parametrize("n_paths", [1, 4])
    def test_long_walk_of_few_paths(self, n_paths, tilt):
        """Under tilt "measure", with 4 paths or fewer alive, _BUDGET //
        alive words would make blocks of 2^16 events and more, whose int16
        prefix counts (~0.55 b at p 0.55) wrap; blocks stop at _MAX_BLOCK
        events.  Under tilt "none" the walk goes a byte at a time through
        1094 windows, past the _TABLE events whose byte tables are kept.
        Without absorption the walk's final k is each path's count of
        larger branches, event by event, over all 70 000 events."""
        spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=math.inf,
                        n_events=self.LONG, tilt=tilt)
        cfg = monte_carlo._config_for(spec, seed=5)
        path_hi = monte_carlo._path_hi(
            cfg.key, np.arange(n_paths, dtype=np.uint64))
        k, _, _ = monte_carlo._walk(
            cfg, monte_carlo._Thresholds(cfg),
            np.zeros(n_paths, dtype=np.int64), path_hi, None, 1, self.LONG,
            monte_carlo._Work(n_paths))
        larger, ties = self.larger_branch(cfg, path_hi,
                                          np.arange(1, self.LONG + 1))
        assert k.tolist() == larger.sum(axis=0).tolist()
        assert (k > 1 << 15).all()
        if tilt == "measure":
            assert ties > 0

    @pytest.mark.parametrize("tilt,eps", [
        ("measure", 30.0),
        # the uniform walk falls 0.01 a step below the boundary at p 0.55,
        # so eps 700 keeps its paths near the boundary to the end
        ("none", 700.0),
    ])
    def test_long_walk_of_few_paths_absorbs_as_the_per_event_law(self, tilt,
                                                                 eps):
        """Finite eps and two outcomes over 70 000 events with 4 paths.  The
        per-event law, read off cumulative sums: a path survives outcome r
        while its count of larger branches through each event n stays at
        or above kmin_r(n).  The walk must keep those paths, with their k
        and the number of outcomes each survives."""
        log_Fs = (0.0, -20.0)
        spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=eps,
                        n_events=self.LONG, tilt=tilt)
        cfg = self.config(spec, log_Fs, 1)
        path_hi = monte_carlo._path_hi(cfg.key, np.arange(4, dtype=np.uint64))
        events = np.arange(self.LONG + 1)
        larger, _ = self.larger_branch(cfg, path_hi, events[1:])
        counts = np.concatenate([np.zeros((1, 4), dtype=np.int64),
                                 larger.cumsum(axis=0)])
        kmins = np.stack([monte_carlo._kmin(cfg, events, log_F)
                          for log_F in log_Fs])
        outcomes = (counts >= kmins[:, :, None]).all(axis=1).sum(axis=0)
        keep = outcomes > 0
        k, got_hi, alive = monte_carlo._walk(
            cfg, monte_carlo._Thresholds(cfg),
            np.zeros(4, dtype=np.int64), path_hi, np.full(4, 2), 1,
            self.LONG, monte_carlo._Work(4))
        assert k.tolist() == counts[-1, keep].tolist()
        assert got_hi.tolist() == path_hi[keep].tolist()
        assert alive.tolist() == outcomes[keep].tolist()
        assert keep.any() and (k > 1 << 15).all()
        assert (outcomes[keep] < len(log_Fs)).any()  # one outcome absorbed

    @pytest.mark.parametrize("first", [40_001, 40_030])
    def test_thresholds_far_apart_within_a_block(self, monkeypatch, first):
        """Within one byte, thresholds more than 2^15 apart, which the
        byte tables hold in int64.  The walk starts on a hash word's first
        event, and 29 events into one."""
        def spiky_kmin(cfg, n, log_F):  # log_F: a number or per event
            return (np.where(n % 37 == 0, n - 5_000, (n - 40_000) // 10)
                    + np.rint(-1000 * np.asarray(log_F)).astype(np.int64))

        monkeypatch.setattr(monte_carlo, "_kmin", spiky_kmin)
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=600)
        k = np.random.default_rng(0).integers(34_000, 36_000, size=200)
        k, _, alive, _ = self.assert_walks_agree(spec, (0.0, -0.5), k, first)
        assert 0 < k.size < 200 and (alive == 1).any()


def test_hash_stays_within_the_budget(monkeypatch):
    """The scratch rows hold max(_BUDGET, chunk size) uint64: a block's
    hash words never run past one row, and small walks use whole blocks,
    4 * _BUDGET path-events."""
    sizes = []
    draws = monte_carlo._draws

    def recording_draws(key, path_hi, counter, scratch=None):
        z = draws(key, path_hi, counter, scratch)
        sizes.append(z.size)
        return z

    monkeypatch.setattr(monte_carlo, "_draws", recording_draws)
    spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=400,
                    tilt="measure")
    born_two_stage_mc_counts(spec, [(0.2, 1.0), (0.5, 1.6)], 800,
                             monte_carlo.CHUNK + 100, seed=3, workers=1)
    assert max(sizes) <= max(monte_carlo._BUDGET, monte_carlo.CHUNK)
    sizes.clear()
    long = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=4000,
                    tilt="measure")
    simulate_survivors(long, 100, seed=3, workers=1)
    assert monte_carlo._BUDGET - 100 < max(sizes) <= monte_carlo._BUDGET


def test_absorbed_long_walk_tabulates_one_window(monkeypatch):
    """Walks of 2^22 events whose paths all die early tabulate kmin once,
    for _TABLE + 1 events, as a short walk would, and not for every event
    (32 MiB per outcome, and several times that in _kmin's float
    temporaries); beyond that table only event N is computed, each split's
    base.  The uniform walk's byte tables, too, cover at most those _TABLE
    events."""
    sizes, spans = [], []
    kmin, byte_tables = monte_carlo._kmin, monte_carlo._byte_tables

    def recording_kmin(cfg, n, log_F):
        sizes.append(n.size)
        return kmin(cfg, n, log_F)

    def recording_byte_tables(kmins, first):
        spans.append(kmins.shape[1])
        return byte_tables(kmins, first)

    monkeypatch.setattr(monte_carlo, "_kmin", recording_kmin)
    monkeypatch.setattr(monte_carlo, "_byte_tables", recording_byte_tables)
    dp = DecoherenceParams(p=0.9)
    # the uniform walk falls 0.88 a step below the boundary at p 0.9
    spec = WalkSpec(dp=dp, eps=1.0, n_events=1 << 22, tilt="none")
    assert simulate_survivors(spec, 256, seed=3, workers=1).survivor_count == 0
    assert 0 < sum(spans) <= monte_carlo._TABLE
    assert sorted(sizes) == [1, monte_carlo._TABLE + 1]
    sizes.clear()
    # ln F = -40 absorbs every path at the split, after event 100
    spec = WalkSpec(dp=dp, eps=1.0, n_events=100, tilt="measure")
    [lam] = born_two_stage_mc_counts(spec, [(math.exp(-40.0), 1)],
                                     (1 << 22) - 100, 256, seed=3, workers=1)
    assert lam.survivor_count == 0
    assert sorted(sizes) == [1, monte_carlo._TABLE + 1]


@pytest.mark.parametrize("tilt", TILTS)
def test_stage_one_tests_one_rank(monkeypatch, tilt):
    """A walk with 3 splits tests no rank >= 1 on a block or 64-event
    window that ends before the split event N1, where every row of its
    thresholds is stage one's; from N1 on, where the rows differ, it tests
    both ranks >= 1 on every block and window.  Under tilt "measure" no
    block before N1 carries, or compacts, the number of splits survived."""
    n1, tested = 130, []  # (last event, ranks tested) per block or window
    carried = []  # per block before N1: whether it carried that number
    if tilt == "measure":
        advance = monte_carlo._advance

        def recording_advance(cfg, first, last, kmins, ranks, k, path_hi,
                              alive, work):
            tested.append((last, ranks))
            if last < n1:
                carried.append(alive is not None)
            return advance(cfg, first, last, kmins, ranks, k, path_hi, alive,
                           work)

        monkeypatch.setattr(monte_carlo, "_advance", recording_advance)
    else:
        byte_tables = monte_carlo._Thresholds.byte_tables

        def recording_byte_tables(self, lo, hi):
            tables = byte_tables(self, lo, hi)
            tested.append((hi, tables[2]))
            return tables

        monkeypatch.setattr(monte_carlo._Thresholds, "byte_tables",
                            recording_byte_tables)
    spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=1.0, n_events=n1,
                    tilt=tilt)
    lams = born_two_stage_mc_counts(spec, [(0.25, 2), (0.5, 1), (0.125, 4)],
                                    200, 4096, seed=3, workers=1)
    assert all(lam.survivor_count for lam in lams)
    before = [ranks for last, ranks in tested if last < n1]
    after = [ranks for last, ranks in tested if last >= n1]
    assert before and after
    assert all(ranks == [] for ranks in before) and not any(carried)
    assert all(ranks == [1, 2] for ranks in after)


def test_absorbed_long_walk_keeps_its_counts_small():
    """The 2^22-event uniform walk above keeps survivor counts only for
    final k >= kmin(N), about N / 10 at p 0.9, not for every k <= N: its
    tracemalloc peak stays within 8 MiB (bound set before the first run;
    65.5 MiB with a row of N + 1 counts and its bincount)."""
    spec = WalkSpec(dp=DecoherenceParams(p=0.9), eps=1.0, n_events=1 << 22,
                    tilt="none")
    tracemalloc.start()
    try:
        ens = simulate_survivors(spec, 256, seed=3, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.survivor_count == 0
    assert peak <= 8 << 20, peak / 2 ** 20


#: the calls of TestWorkspace, in the order one process makes them: the
#: walks grow from 256 paths to a chunk and its 100-path remainder chunk,
#: which rebuilds the kept workspace, then fall back to 256 paths, walked
#: in the wider one, across both tilts, one and two stages and one and two
#: processes
_WORKSPACE_SETUP = """
import math
from mangledworlds.model_params import DecoherenceParams
from mangledworlds.monte_carlo import (CHUNK, WalkSpec,
    born_two_stage_mc_counts, simulate_survivors)
dp = DecoherenceParams(p=0.55)
NONE = WalkSpec(dp=dp, eps=0.2, n_events=400, tilt="none")
MEASURE = WalkSpec(dp=dp, eps=0.2, n_events=400, tilt="measure")
SPLITS = [(0.2, 1), (0.5, 1)]

def show(result):
    return repr(result)
"""
_WORKSPACE_CALLS = (
    "simulate_survivors(NONE, 256, seed=11, workers=1)",
    "born_two_stage_mc_counts(MEASURE, SPLITS, 800, CHUNK + 100, seed=11,"
    " workers=1)",
    "born_two_stage_mc_counts(NONE, SPLITS, 100, CHUNK + 100, seed=11,"
    " workers=2)",
    "simulate_survivors(MEASURE, 256, seed=11, workers=1)",
    "simulate_survivors(NONE, CHUNK + 100, seed=11, workers=1)",
    "born_two_stage_mc_counts(MEASURE, SPLITS, 800, CHUNK + 100, seed=11,"
    " workers=2)",
    "simulate_survivors(NONE, 256, seed=11, workers=1)",
)


class TestWorkspace:
    """Each walker process walks its chunks inside one workspace
    (``_Work``), kept from walk to walk, whose rows every chunk, byte and
    block overwrites."""

    @pytest.mark.parametrize("tilt", TILTS)
    def test_second_walk_faults_in_no_workspace(self, tilt):
        """A second walk of the same width in one process walks in the
        workspace the first one faulted in: it takes fewer than 200 minor
        page faults (bound set before the first run; ~920 with a workspace
        built per walk)."""
        spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=400,
                        tilt=tilt)
        simulate_survivors(spec, monte_carlo.CHUNK, seed=3, workers=1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulate_survivors(spec, monte_carlo.CHUNK, seed=3, workers=1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 200, faults

    @pytest.mark.parametrize("tilt", TILTS)
    def test_walk_allocates_nothing_of_the_paths_size(self, tilt):
        """Four 2^16-path chunks walked in a built workspace, after one
        chunk has filled the tables kept for later chunks, trace a peak of
        at most 1 MiB (bound set before the first run; 3.96 MiB under tilt
        "none" and 3.15 MiB under "measure" with fresh arrays per chunk,
        byte and block).  Tilt "none" walks mc's defaults, tilt "measure"
        two stages of 400 and 800 events with splits F = 0.2 and 0.5."""
        spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=400,
                        tilt=tilt)
        if tilt == "none":
            cfg = monte_carlo._config_for(spec, seed=3)
        else:
            cfg = monte_carlo._config_for(
                spec, n2=800, splits=((math.log(0.5), 0.0),
                                      (math.log(0.2), 0.0)), seed=3)
        kmins = monte_carlo._Thresholds(cfg)
        base = int(kmins(cfg.n_total, cfg.n_total)[0, 0])  # rank 0's at N
        chunk = monte_carlo.CHUNK
        work = monte_carlo._Work(chunk)
        monte_carlo._run_chunk(cfg, kmins, base, 0, chunk, work)
        tracemalloc.start()
        try:
            for j in range(1, 5):
                counts = monte_carlo._run_chunk(cfg, kmins, base, j * chunk,
                                                chunk, work)
                assert counts.sum() > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak / 2 ** 20

    def test_reuse_gives_the_fresh_interpreters_results(self, monkeypatch):
        """Every call of _WORKSPACE_CALLS, made in turn in this process,
        equals the same call made first in a fresh interpreter, bit for
        bit.  The two-split measure walks compact ``alive`` in blocks that
        also drop a path from one split only."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(monte_carlo.__file__).parents[1]))
        script = _WORKSPACE_SETUP + "import sys\nprint(show(eval(sys.argv[1])))"
        procs = [subprocess.Popen([sys.executable, "-c", script, call], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for call in dict.fromkeys(_WORKSPACE_CALLS)]
        fresh = {}
        for call, proc in zip(dict.fromkeys(_WORKSPACE_CALLS), procs):
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, call
            fresh[call] = out.strip()

        mixed = []  # blocks that compact alive while it holds a 1
        advance = monte_carlo._advance

        def recording_advance(cfg, first, last, kmins, ranks, k, path_hi,
                              alive, work):
            out = advance(cfg, first, last, kmins, ranks, k, path_hi, alive,
                          work)
            if alive is not None and out[2].size < alive.size:
                mixed.append(bool((out[2] == 1).any()))
            return out

        monkeypatch.setattr(monte_carlo, "_advance", recording_advance)
        namespace = {}
        exec(_WORKSPACE_SETUP, namespace)
        for call in _WORKSPACE_CALLS:
            assert namespace["show"](eval(call, namespace)) == fresh[call], call
        assert any(mixed)


@pytest.mark.parametrize("n,tilt", [(400, "measure"), (1000, "measure"),
                                    (400, "none")])
def test_survivors_per_k_follow_the_exact_law(n, tilt):
    """G-test of the walk's whole law at production N.  A path ends alive
    with k larger-branch steps with probability L_k a^k (1-a)^(N-k), L_k
    the surviving leaves per k (``enumerate_survivors``) and a the walk's
    larger-branch probability: M / 2^53 under tilt "measure", 1/2 exactly
    under "none"; the absorbed paths are one more cell.  Cells expecting
    fewer than 5 paths are pooled, and z = (G - dof) / sqrt(2 dof) must
    stay within 4 (bound set before the first run)."""
    spec = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=n,
                    tilt=tilt)
    n_paths = 1 << 20
    cfg = monte_carlo._config_for(spec, seed=8128)
    if tilt == "measure":
        A, R = cfg.lane_cut
        a = ((A << 37) + R) / 2.0 ** 53
    else:
        a = 0.5
    k = np.arange(n + 1)
    log_leaves = np.array([math.log(c) if c else -math.inf
                           for c in enumerate_survivors(spec).by_k])
    expected = n_paths * np.exp(log_leaves + k * math.log(a)
                                + (n - k) * math.log1p(-a))
    ens = simulate_survivors(spec, n_paths, seed=8128, workers=2)
    base, observed = ens.base, np.array(ens.counts)
    assert base + observed.size <= n + 1 and observed[-1] > 0
    assert not expected[:base].any()
    observed = np.concatenate([np.zeros(base, dtype=np.int64), observed,
                               np.zeros(n + 1 - base - observed.size,
                                        dtype=np.int64),
                               [n_paths - observed.sum()]])
    expected = np.append(expected, n_paths - expected.sum())
    kept = expected >= 5.0
    observed = np.append(observed[kept], observed[~kept].sum())
    expected = np.append(expected[kept], expected[~kept].sum())
    g = 2.0 * sum(o * math.log(o / e)
                  for o, e in zip(observed.tolist(), expected.tolist()) if o)
    dof = observed.size - 1
    z = (g - dof) / math.sqrt(2.0 * dof)
    assert abs(z) <= 4.0, (z, dof)


class TestLatticeThreshold:
    """The walker keeps a path at event n while its larger-branch count k is
    at least kmin(n).  That must be exactly the lattice dynamic program's
    float test k ln p + (n - k) ln q + ln F > n xhat1 - eps."""

    @staticmethod
    def assert_threshold_is_the_programs_test(p, eps, n_events, log_Fs):
        cfg = monte_carlo._config_for(
            WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=n_events))
        log_big, log_small = math.log(max(p, 1.0 - p)), math.log(min(p, 1.0 - p))
        b_step = binary_event_stats(p)[0]
        k = np.arange(n_events + 1)
        kmins = {log_F: monte_carlo._kmin(cfg, np.arange(n_events + 1), log_F)
                 for log_F in log_Fs}
        if eps == math.inf:
            assert not any(kmin.any() for kmin in kmins.values())
        for lo in range(0, n_events + 1, 400):
            n = np.arange(lo, min(lo + 400, n_events + 1))[:, None]
            log_size = k * log_big + (n - k) * log_small
            bound = n * b_step - eps
            exists = k <= n
            for log_F, kmin in kmins.items():
                program = log_size + log_F > bound
                walker = k >= kmin[n]
                assert np.array_equal(walker & exists, program & exists), (lo, log_F)

    @pytest.mark.parametrize("eps", [0.2, 1.5, math.inf])
    @pytest.mark.parametrize("p", [0.51, 0.55, 0.7, 0.9])
    def test_threshold_is_the_programs_test_at_production_size(self, p, eps):
        self.assert_threshold_is_the_programs_test(p, eps, 3600, (0.0, -0.7, -3.0))

    @pytest.mark.parametrize("p,n_tie,k_tie", [(0.55, 7, 3), (0.6, 7, 4),
                                               (0.55, 1000, 442)])
    def test_threshold_at_a_lattice_tie(self, p, n_tie, k_tie):
        # eps puts the boundary on a lattice site, where the real-arithmetic
        # root is off by one from the float test
        self.assert_threshold_is_the_programs_test(
            p, tie_eps(p, n_tie, k_tie), n_tie, (0.0,))

    @staticmethod
    def brute_force_count(p, eps, n):
        """Survivors among all 2^n leaves, each judged at every event by the
        float test in closed form; leaf bit j - 1 is its branch at event j."""
        log_big, log_small = math.log(max(p, 1.0 - p)), math.log(min(p, 1.0 - p))
        b_step = binary_event_stats(p)[0]
        leaves = np.arange(1 << n)
        k = np.zeros(leaves.size, dtype=np.int64)
        alive = np.ones(leaves.size, dtype=bool)
        for event in range(1, n + 1):
            k += (leaves >> (event - 1)) & 1
            alive &= k * log_big + (event - k) * log_small > event * b_step - eps
        return int(alive.sum())

    @pytest.mark.parametrize("p,eps,n", [
        (0.6, 0.3, 12), (0.55, 0.2, 20), (0.7, 0.5, 18), (0.7, 1.0, 14),
        (0.9, 0.5, 20), (0.6, 1e-9, 6), (0.5, 0.3, 16), (0.6, math.inf, 10),
        # the boundary on a lattice site at an early event, where a sum of x
        # event by event misjudges the lineages on it
        (0.51, tie_eps(0.51, 6, 1), 6), (0.51, tie_eps(0.51, 6, 1), 16),
        (0.55, tie_eps(0.55, 5, 1), 14), (0.6, tie_eps(0.6, 3, 0), 14),
        (0.7, tie_eps(0.7, 4, 0), 14), (0.9, tie_eps(0.9, 2, 0), 14),
    ])
    def test_walkers_thresholds_count_the_brute_force_tree(self, p, eps, n):
        spec = WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=n)
        kmin = monte_carlo._kmin(monte_carlo._config_for(spec),
                                 np.arange(n + 1), 0.0)
        counts = np.zeros(n + 1, dtype=np.int64)  # leaves per k
        counts[0] = 1
        for event in range(1, n + 1):
            counts[1:] += counts[:-1].copy()  # k grows on a larger branch
            counts[:kmin[event]] = 0
        want = self.brute_force_count(p, eps, n)
        assert int(counts.sum()) == want
        assert enumerate_survivors(spec).count == want


def _lattice_edges(p: float, eps: float, n_events: int, sites_per_bin: int,
                   n_bins: int) -> np.ndarray:
    """Bin edges aligned to the walk's log-size lattice.

    At fixed N the survivors' y-values live on a lattice of spacing
    ln(p/(1-p)); bins sized as integer multiples of that spacing (with the
    lattice mid-bin) avoid aliasing in shape comparisons.
    """
    delta = math.log(p / (1.0 - p))
    xhat1 = binary_event_stats(p)[0]
    y0 = (n_events * math.log(1.0 - p) - n_events * xhat1 + eps) % delta
    start = (y0 - 0.5 * delta) % delta
    return start + sites_per_bin * delta * np.arange(n_bins + 1)


class TestHistogram:
    def test_no_mass_on_mangled_side(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=30)
        edges = np.linspace(-2.0, 8.0, 51)
        weights, _ = simulate_survivors(spec, 100_000, seed=6).histogram(edges)
        below = weights[edges[:-1] < -1e-12]
        assert float(below.sum()) == 0.0

    def test_empty_flag(self):
        # boundary tight enough that nothing survives 40 events
        spec = WalkSpec(dp=DecoherenceParams(p=0.9), eps=1e-6, n_events=40)
        ens = simulate_survivors(spec, 2_000, seed=7)
        assert ens.survivor_count == 0
        assert float(ens.histogram(EDGES)[0].sum()) == 0.0
        assert ens.estimate() == -math.inf

    @pytest.mark.parametrize("tilt", TILTS)
    def test_split_record_reads_its_own_frame(self, tilt):
        # a split's survivors sit above its boundary shifted by ln F, the
        # nearest within one lattice step ln(p / (1 - p)) = 0.405, and its
        # weights carry G, so its histogram sums to its estimate
        s1 = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=20,
                      tilt=tilt)
        [ens] = born_two_stage_mc_counts(s1, [(0.5, 2)], 20, 50_000, seed=5)
        edges = np.linspace(-5.0, 15.0, 81)
        weights, log_offset = ens.histogram(edges)
        assert ens.survivor_count > 0
        assert float(weights[edges[:-1] < -1e-12].sum()) == 0.0
        assert float(weights[(edges[:-1] >= 0.0) & (edges[1:] <= 0.5)].sum()) > 0.0
        assert (math.log(float(weights.sum())) + log_offset
                == pytest.approx(ens.estimate(), abs=1e-9))

    def test_shape_matches_closed_form_density(self):
        # p = 0.55, N = 400, eps = 0.2; importance sampling supplies the
        # >= 1e5 surviving-equivalent samples
        p, eps, n = 0.55, 0.2, 400
        dp = DecoherenceParams(p=p)
        spec = WalkSpec(dp=dp, eps=eps, n_events=n, tilt="measure")
        edges = _lattice_edges(p, eps, n, sites_per_bin=4, n_bins=17)
        ens = simulate_survivors(spec, 4_000_000, seed=3, workers=2)
        assert ens.survivor_count >= 100_000
        weights, _ = ens.histogram(edges)
        diff = to_diffusion(dp, eps)
        t1 = n / dp.r
        widths = np.diff(edges)
        dens_mc = weights / (float(weights.sum()) * widths)
        dens_an = np.empty_like(dens_mc)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            val, _ = quad(lambda yy: math.exp(analytic.log_mu1_approx(yy, t1, diff))
                          if yy > 0 else 0.0, lo, hi)
            dens_an[i] = val / (hi - lo)
        dens_an /= float((dens_an * widths).sum())
        l1 = float((np.abs(dens_mc - dens_an) * widths).sum())
        assert l1 <= 0.05

        num, _ = quad(lambda yy: yy * math.exp(analytic.log_mu1_approx(yy, t1, diff))
                      if yy > 0 else 0.0, 0.0, 30.0, limit=200)
        den, _ = quad(lambda yy: math.exp(analytic.log_mu1_approx(yy, t1, diff))
                      if yy > 0 else 0.0, 0.0, 30.0, limit=200)
        mids = 0.5 * (edges[:-1] + edges[1:])
        moment = float((mids * weights).sum() / weights.sum())
        assert moment == pytest.approx(num / den, rel=0.05)


class TestBornTwoStage:
    @pytest.mark.parametrize("tilt", TILTS)
    def test_unit_split_is_bit_identical_to_plain_run(self, tilt):
        # the split falls 36 events into a tilt-none hash word
        dp = DecoherenceParams(p=0.55)
        s1 = WalkSpec(dp=dp, eps=0.2, n_events=100, tilt=tilt)
        plain = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=400, tilt=tilt),
            200_000, seed=11)
        staged = born_two_stage_mc_counts(s1, [(1.0, 1)], 300, 200_000,
                                          seed=11)[0]
        assert staged == plain

    def test_children_scale_exactly(self):
        dp = DecoherenceParams(p=0.55)
        s1 = WalkSpec(dp=dp, eps=0.2, n_events=50, tilt="measure")
        one = born_two_stage_mc_counts(s1, [(0.5, 1)], 150, 100_000, seed=12)[0]
        four = born_two_stage_mc_counts(s1, [(0.5, 4)], 150, 100_000, seed=12)[0]
        assert (four.estimate() - one.estimate()
                == pytest.approx(math.log(4.0), abs=1e-12))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_list_matches_one_split_runs(self, workers):
        # three chunks, so workers = 2 really splits the schedule
        dp = DecoherenceParams(p=0.55)
        s1 = WalkSpec(dp=dp, eps=0.2, n_events=40, tilt="measure")
        splits = [(1, 1), (0.5, 1), (0.25, 2)]
        n = 3 * monte_carlo.CHUNK
        many = born_two_stage_mc_counts(s1, splits, 120, n, seed=21,
                                        workers=workers)
        assert many == [born_two_stage_mc_counts(s1, [split], 120, n, seed=21,
                                                 workers=1)[0]
                        for split in splits]
        # unsorted fractions, a repeated fraction, and a fraction so small
        # that no path survives the split
        for splits in ([(0.25, 2), (1, 1), (0.5, 1)],
                       [(0.5, 1), (0.25, 2), (0.5, 3)],
                       [(0.5, 1), (1e-300, 1), (1, 1)]):
            many = born_two_stage_mc_counts(s1, splits, 120, n, seed=21,
                                            workers=workers)
            ones = [born_two_stage_mc_counts(s1, [split], 120, n, seed=21,
                                             workers=1)[0] for split in splits]
            assert many == ones, splits
        assert ones[1].survivor_count == 0

    @pytest.mark.parametrize("bad", [(0.0, 1), (1.5, 1), (0.5, 0)])
    def test_bad_split_raises_before_walking(self, bad, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before validating the splits")

        monkeypatch.setattr(monte_carlo, "_simulate", no_walk)
        s = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=10)
        with pytest.raises(DomainError):
            born_two_stage_mc_counts(s, [(0.5, 1), bad, (0.25, 2)], 10,
                                     1000, seed=1)

    @pytest.mark.parametrize("n1,n2", [(10, 0), (10, -3), (1 << 31, 1 << 31)])
    def test_bad_stage_two_length_raises_before_walking(self, n1, n2, monkeypatch):
        # n2 >= 1, and N1 + n2 <= 2^31, the event cap that keeps the tie
        # counters 2^31 + n - 1 within the draw counter's 32 bits
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before validating n2")

        monkeypatch.setattr(monte_carlo, "_simulate", no_walk)
        s = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=n1)
        with pytest.raises(DomainError):
            born_two_stage_mc_counts(s, [(0.5, 1)], n2, 1000, seed=1)

    @staticmethod
    def two_stage_survival(cfg, log_F: float, q: float) -> float:
        """Probability that a walk taking the larger branch with probability
        q survives both stages of cfg under the split ln F: the two-stage
        lattice program in floats on the walker's own _kmin.  Through the
        split event it applies kmin_0, then the split's own test and kmin_F
        to the end.  At q = 1/2 it is the surviving leaves over 2^N."""
        n1, n = cfg.n_split, cfg.n_total
        events = np.arange(n + 1)
        k0, kF = (monte_carlo._kmin(cfg, events, lf) for lf in (0.0, log_F))
        prob = np.zeros(n + 1)  # per k larger-branch steps
        prob[0] = 1.0
        for event in range(1, n + 1):
            prob[1:] = q * prob[:-1] + (1.0 - q) * prob[1:]
            prob[0] *= 1.0 - q
            prob[:k0[event] if event <= n1 else kF[event]] = 0.0
            if event == n1:
                prob[:kF[n1]] = 0.0
        return float(prob.sum())

    def test_gamma_monotone_in_fraction(self):
        # gamma estimates for F = e^-1, e^-3, e^-6 against the exact lattice
        # gammas, which decrease (0.557632, 0.042839, 2.3e-5)
        dp = DecoherenceParams(p=0.55)
        s1 = WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="measure")
        n = 1 << 19
        cfg = monte_carlo._config_for(s1, n2=800)
        A, R = cfg.lane_cut
        a = ((A << 37) + R) / 2.0 ** 53  # the walk's larger-branch probability
        whole = self.two_stage_survival(cfg, 0.0, 0.5)
        den = born_two_stage_mc_counts(s1, [(1.0, 1)], 800, n, seed=100,
                                       workers=2)[0]
        den_rel = math.exp(den.std_error() - den.estimate())
        exact = []
        for k, lf in enumerate((-1.0, -3.0, -6.0)):
            exact.append(self.two_stage_survival(cfg, lf, 0.5) / whole
                         / math.exp(lf))
            num = born_two_stage_mc_counts(s1, [(math.exp(lf), 1)], 800, n,
                                           seed=200 + k, workers=2)[0]
            if num.survivor_count == 0:
                # no survivors is within 3 sigma of a Poisson mean mu <= 9
                mu = n * self.two_stage_survival(cfg, lf, a)
                assert mu - 3.0 * math.sqrt(mu) <= 0.0, (lf, mu)
                continue
            gamma = math.exp(num.estimate() - den.estimate() - lf)
            rel = math.hypot(math.exp(num.std_error() - num.estimate()),
                             den_rel)
            assert abs(gamma - exact[k]) <= 3.0 * rel * gamma, (lf, gamma,
                                                                exact[k])
        assert exact == pytest.approx([0.5576321, 0.0428386, 2.32414e-5],
                                      rel=1e-5)
        assert exact[0] > exact[1] > exact[2] > 0.0
