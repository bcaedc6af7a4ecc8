"""Grid solver: conservation, drift and spreading rates, agreement with the
closed forms, convergence order, and the two-stage protocol.

The independent reference for absolute survivor counts is the exact
first-passage expression for drifted Brownian motion with an absorbing
barrier (image construction), evaluated with the package's own erfc:

    nu-mass(t) = Phi((eps - wt)/sqrt(wt)) - e^{2 eps} Phi(-(eps + wt)/sqrt(wt))

which is free of the small-eps approximation behind the closed-form count.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, expm

from mangledworlds import analytic, pde_solver
from mangledworlds.errors import DomainError, NumericalError
from mangledworlds.model_params import DecoherenceParams, DiffusionParams, \
    to_diffusion
from mangledworlds.pde_solver import Field, Grid, born_two_stage_counts, \
    init_delta, solve, survivor_count
from mangledworlds.special_functions import erfc


def _phi(z: float) -> float:
    return 0.5 * erfc(-z / math.sqrt(2.0))


def exact_nu_mass(eps: float, s: float) -> float:
    """Surviving probability mass in the comoving frame after w*t = s."""
    rt = math.sqrt(s)
    return _phi((eps - s) / rt) - math.exp(2.0 * eps) * _phi(-(eps + s) / rt)


def raw_stencil(grid: Grid, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub, diag, super) of the operator w d/dy + (w/2) d^2/dy^2 in central
    differences over the unknown nodes 1..n.  Node 0 is the absorbing zero;
    at node n the zero-gradient ghost node folds super onto sub."""
    n, h = grid.n_cells, grid.h
    diff, adv = 0.5 * w / (h * h), 0.5 * w / h
    sub = np.full(n, diff - adv)
    diag = np.full(n, -2.0 * diff)
    sup = np.full(n, diff + adv)
    sub[-1], sup[-1] = 2.0 * diff, 0.0
    return sub, diag, sup


def exact_log_count(dp: DiffusionParams, t: float) -> float:
    return math.log(exact_nu_mass(dp.eps, dp.w * t)) + (dp.v - 0.5 * dp.w) * t


class TestGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(y_max=0.0, n_cells=64)
        with pytest.raises(DomainError):
            Grid(y_max=10.0, n_cells=8)

    @pytest.mark.parametrize("y_max", [math.inf, math.nan])
    def test_non_finite_extent_raises(self, y_max):
        with pytest.raises(DomainError, match="positive and finite"):
            Grid(y_max=y_max, n_cells=64)

    def test_spacing(self):
        g = Grid(y_max=10.0, n_cells=100)
        assert g.h == pytest.approx(0.1)
        assert len(g.nodes()) == 101

    @pytest.mark.parametrize("p,n_cells", [(0.55, 2048), (0.6, 2048), (0.65, 4096),
                                           (0.7, 4096), (0.8, 8192)])
    def test_suggested_grid_resolves_eps(self, p, n_cells):
        # born's defaults: eps 0.2, t1 + t2 = 3600, |ln F| up to ln 4
        diff = to_diffusion(DecoherenceParams(p=p, r=1.0), 0.2)
        g = pde_solver.suggested_grid(diff, 3600.0, max_abs_log_F=math.log(4.0))
        assert g.n_cells == n_cells
        assert 4.0 * g.h <= 0.2
        given = pde_solver.suggested_grid(diff, 3600.0, n_cells=512)
        assert given.n_cells == 512

    def test_suggested_grid_caps_derived_cells(self):
        # eps 1e-4 would need 2^20 cells; init_delta then refuses the grid
        diff = DiffusionParams(v=1.0, w=0.5, eps=1e-4)
        g = pde_solver.suggested_grid(diff, 8.0)
        assert g.n_cells == 1 << 14
        with pytest.raises(DomainError, match="within 4h"):
            init_delta(g, diff.eps)


class TestInitDelta:
    def test_unit_mass(self):
        g = Grid(y_max=20.0, n_cells=512)
        f = init_delta(g, 0.5)
        assert f.mass(g) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_node_zero(self):
        g = Grid(y_max=20.0, n_cells=512)
        assert init_delta(g, 0.5).values[0] == 0.0

    def test_center_of_mass(self):
        g = Grid(y_max=20.0, n_cells=512)
        f = init_delta(g, 0.5)
        y = g.nodes()
        com = np.trapezoid(y * f.values, y)
        assert abs(com - 0.5) <= g.h

    def test_too_close_to_edge(self):
        g = Grid(y_max=20.0, n_cells=128)  # h = 0.15625
        with pytest.raises(DomainError):
            init_delta(g, 0.5)  # 4h = 0.625
        with pytest.raises(DomainError):
            init_delta(g, 19.9)


def _moments(y: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Center of mass and variance of a density on the nodes y."""
    m = np.trapezoid(values, y)
    com = float(np.trapezoid(y * values, y) / m)
    return com, float(np.trapezoid((y - com) ** 2 * values, y) / m)


def _snapshot_moments(dp: DiffusionParams, g: Grid, T: float, every: float):
    """(times, centers of mass, variances) of a solve, every ``every``."""
    snaps = solve(dp, g, T, snapshot_times=np.arange(0.0, T + 0.5 * every, every))[:-1]
    coms, variances = zip(*(_moments(g.nodes(), f.values) for f in snaps))
    return [f.t for f in snaps], coms, variances


class TestStepDynamics:
    def test_mass_conserved_away_from_boundary(self):
        # far pulse: nothing reaches either edge by t = 1
        g = Grid(y_max=20.0, n_cells=512)
        f = solve(DiffusionParams(v=1.0, w=0.5, eps=10.0), g, 1.0)[-1]
        assert abs(f.mass(g) - 1.0) <= 1e-8
        assert abs(f.absorbed) <= 1e-8

    def test_drift_rate(self):
        w = 0.5
        g = Grid(y_max=20.0, n_cells=2000)
        times, coms, _ = _snapshot_moments(
            DiffusionParams(v=1.0, w=w, eps=14.0), g, 2.0, 0.2)
        assert len(times) == 11
        slope = np.polyfit(times, coms, 1)[0]
        assert slope == pytest.approx(-w, rel=0.02)

    def test_variance_rate(self):
        w = 0.5
        g = Grid(y_max=24.0, n_cells=2400)
        times, _, variances = _snapshot_moments(
            DiffusionParams(v=1.0, w=w, eps=16.0), g, 2.0, 0.2)
        assert len(times) == 11
        slope = np.polyfit(times, variances, 1)[0]
        assert slope == pytest.approx(w, rel=0.02)

    def test_wrong_drift_direction_fails_rate_test(self):
        # negative control: advection with the flipped sign must drive the
        # pulse AWAY from the boundary, which the drift-rate test rejects
        w = 0.5
        h = 0.01
        dt = 1e-4
        values = np.exp(-((np.linspace(0, 20, 2001) - 10.0) ** 2) / (2 * 0.02 ** 2))
        y = np.linspace(0, 20, 2001)
        values /= np.trapezoid(values, y)
        coms, times = [], []
        for k in range(4001):
            if k % 400 == 0:
                times.append(k * dt)
                coms.append(float(np.trapezoid(y * values, y)
                                  / np.trapezoid(values, y)))
            adv = np.zeros_like(values)
            adv[1:-1] = -w * (values[1:-1] - values[:-2]) / h  # flipped sign
            diff = np.zeros_like(values)
            diff[1:-1] = 0.5 * w * (values[2:] - 2 * values[1:-1] + values[:-2]) / h ** 2
            values = values + dt * (adv + diff)
            values[0] = 0.0
        slope = np.polyfit(times, coms, 1)[0]
        assert abs(slope - (-w)) > 0.5 * w  # the correct-direction bound fails
        assert slope == pytest.approx(+w, rel=0.05)

    def test_numerical_failure_detected(self, monkeypatch):
        g = Grid(y_max=20.0, n_cells=512)
        f = init_delta(g, 10.0)
        f.values[100] = float("nan")
        monkeypatch.setattr(pde_solver, "init_delta", lambda grid, eps: f)
        with pytest.raises(NumericalError, match="non-finite"):
            solve(DiffusionParams(v=1.0, w=0.5, eps=10.0), g, 1e-3)


class TestModalSolve:
    """A solve, evaluated in the truncated eigenbasis, ends where the exact
    solution u(t) = e^(t L) u(0) of the semi-discrete system ends, with
    e^(t L) formed here by ``scipy.linalg.expm`` of the dense stencil."""

    @staticmethod
    def _propagator(grid, w, t):
        sub, diag, sup = raw_stencil(grid, w)
        dense = np.diag(diag) + np.diag(sup[:-1], 1) + np.diag(sub[1:], -1)
        return lambda u: np.concatenate([[0.0], expm(t * dense) @ u[1:]])

    # the desk's w on a short and a long horizon, born_pde's w = 0.01, and a
    # horizon so short that every mode is kept to rebuild the start
    @pytest.mark.parametrize("w,T", [(0.5, 0.3), (0.5, 8.0), (0.01, 135.0), (0.5, 1e-8)])
    def test_matches_the_matrix_exponential(self, w, T):
        g = Grid(y_max=10.0, n_cells=256)
        snap, end = solve(DiffusionParams(v=1.0, w=w, eps=0.2), g, T,
                          snapshot_times=[T / 3.0])
        third = self._propagator(g, w, T / 3.0)
        u_snap = third(init_delta(g, 0.2).values)
        u_end = third(third(u_snap))
        for f, values in ((snap, u_snap), (end, u_end)):
            assert np.abs(f.values - values).max() <= 1e-10 * values.max()
            assert f.absorbed == init_delta(g, 0.2).mass(g) - f.mass(g)

    def test_shifted_restart_matches_the_matrix_exponential(self):
        # stage two restarts from stage one's profile moved down by |ln F| = 1
        g, dp = Grid(y_max=10.0, n_cells=256), DiffusionParams(v=1.0, w=0.5, eps=0.2)
        t1, t2 = 2.0, 6.0
        y = g.nodes()
        u1 = self._propagator(g, dp.w, t1)(init_delta(g, dp.eps).values)
        shifted = np.interp(y + 1.0, y, u1, right=0.0)
        shifted[0] = 0.0
        u2 = self._propagator(g, dp.w, t2)(shifted)
        want = survivor_count(Field(values=u2, t=t1 + t2), g, dp)
        got = born_two_stage_counts(dp, g, t1, [(math.exp(-1.0), 1)], t2)[0]
        assert got == pytest.approx(want, abs=1e-10)

    def test_cell_peclet_number_at_least_one_is_loud(self):
        # h = 2.5: sub = (w/2)(1/h^2 - 1/h) < 0, so no diagonal D symmetrizes L
        g = Grid(y_max=40.0, n_cells=16)
        with pytest.raises(DomainError, match="n_cells=16.*h = 2.5"):
            solve(DiffusionParams(v=1.0, w=0.5, eps=12.0), g, 1.0)

    def test_scale_beyond_float_range_is_loud(self):
        # D ~ e^y spans ~e^808 at y_max = 800, past the float exponent range
        g = Grid(y_max=800.0, n_cells=4096)
        with pytest.raises(DomainError, match="y_max=800.0.*exponent range"):
            solve(DiffusionParams(v=1.0, w=0.5, eps=12.0), g, 1.0)

    @staticmethod
    def _check_against_a_dense_solver(y_max, n_cells, w, k):
        # the closed-form bands and eigenpairs against the stencil, symmetrized
        # here, and scipy's tridiagonal eigensolver; eigenvalues and residuals
        # in units of the spectral radius 4 diff
        grid = Grid(y_max=y_max, n_cells=n_cells)
        sub, diag, sup = raw_stencil(grid, w)
        off = np.sqrt(sub[1:] * sup[:-1])
        basis = pde_solver._Basis(grid, w, k)
        step = basis.d[1:] / basis.d[:-1]           # D L D^-1 is symmetric
        np.testing.assert_allclose(step * sub[1:], off, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sup[:-1] / step, off, rtol=1e-12, atol=0.0)
        lam, q = basis.lam, basis.q
        radius = 2.0 * abs(diag[0])
        want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(n_cells - k, n_cells - 1))
        assert np.abs(lam - want).max() <= 1e-12 * radius
        assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
        s_q = diag[:, None] * q
        s_q[:-1] += off[:, None] * q[1:]
        s_q[1:] += off[:, None] * q[:-1]
        assert np.abs(s_q - q * lam).max() <= 1e-12 * radius
        assert lam.max() <= 0.0

    def test_eigenpairs_match_a_dense_solver(self):
        # born_pde's grid, validate's, the far-edge grid, and a complete basis
        for y_max, n_cells, w, k in [(40.0, 4096, 0.01, 64), (20.0, 2048, 0.5, 64),
                                     (4.0, 512, 0.5, 64), (4.0, 512, 0.5, 512)]:
            self._check_against_a_dense_solver(y_max, n_cells, w, k)

    @settings(max_examples=40, deadline=None)
    @given(n_cells=st.integers(16, 4096), h=st.floats(1e-3, 0.99))
    def test_eigenpairs_match_a_dense_solver_over_grids(self, n_cells, h):
        # y_max = n h runs from 0.016 to ~700, across y_max = 1, where the
        # slowest mode turns from oscillatory to evanescent; D spans
        # ~e^(n atanh h), which must stay within the float range
        assume(n_cells * math.atanh(h) < 700.0)
        self._check_against_a_dense_solver(n_cells * h, n_cells, 0.5, min(n_cells, 64))


class TestLoudDomain:
    """On a domain too short for the horizon the never-decaying far-edge mode
    carries the count; a solve raises instead of returning it."""

    # the desk to 6c's horizon, where the count at y_max 40 is off by ~9e19x,
    # and a 4-wide grid whose far edge the density reaches (1.7e-2 of the peak)
    @pytest.mark.parametrize(
        "y_max,n_cells,eps,T", [(40.0, 4096, 0.1, 450.0), (4.0, 512, 0.2, 4.0)],
        ids=["desk-40.0-4096-450", "4.0-512-0.5-0.002-far-edge"])
    def test_undersized_domain_raises(self, y_max, n_cells, eps, T):
        g = Grid(y_max=y_max, n_cells=n_cells)
        with pytest.raises(DomainError, match=f"far edge y_max = {y_max:g} "):
            solve(DiffusionParams(v=1.0, w=0.5, eps=eps), g, T)

    def test_short_domain_at_a_snapshot_raises(self, desk):
        # the same grid to T = 50 is sound at its end, not at t = 450
        g = Grid(y_max=40.0, n_cells=4096)
        solve(desk, g, 50.0)
        with pytest.raises(DomainError, match="t = 450"):
            solve(desk, g, 500.0, snapshot_times=[450.0])


class TestSolve:
    def test_survivor_count_matches_closed_form(self, desk):
        g = Grid(y_max=20.0, n_cells=2048)
        f = solve(desk, g, 4.0)[-1]
        got = survivor_count(f, g, desk)
        want = analytic.log_unmangled_count(4.0, desk)
        assert abs(math.expm1(got - want)) <= 0.01

    def test_probability_bookkeeping(self, desk):
        g = Grid(y_max=20.0, n_cells=1024)
        f = solve(desk, g, 4.0)[-1]
        assert f.absorbed + f.mass(g) == pytest.approx(1.0, abs=1e-6)

    def test_tail_leak_bounded(self, desk):
        g = Grid(y_max=20.0, n_cells=1024)
        f = solve(desk, g, 4.0)[-1]
        assert f.values[-1] * g.h <= 1e-8

    def test_density_shape_matches_approx_form(self, desk):
        g = Grid(y_max=20.0, n_cells=2048)
        f = solve(desk, g, 4.0)[-1]
        y = g.nodes()
        dens = f.values / f.mass(g)
        logs = analytic.log_mu1_approx(y[1:], 4.0, desk)
        ref = np.concatenate([[0.0], np.exp(logs - logs.max())])
        ref /= np.trapezoid(ref, y)
        l1 = np.trapezoid(np.abs(dens - ref), y)
        assert l1 <= 0.02

    def test_absorption_monotone(self, desk):
        # the mass lost by 500 times in one solve, from its snapshots
        g = Grid(y_max=10.0, n_cells=512)
        snaps = solve(desk, g, 1.0, snapshot_times=2e-3 * np.arange(1, 501))[:-1]
        absorbed = [0.0] + [f.absorbed for f in snaps]
        assert len(absorbed) == 501
        assert all(b >= a - 1e-15 for a, b in zip(absorbed, absorbed[1:]))
        assert absorbed[-1] > 0.1

    def test_second_order_grid_convergence(self, desk):
        # survivor-count error against the exact first-passage reference
        # shrinks ~4x per halving of h
        dp = DiffusionParams(v=1.0, w=0.5, eps=0.4)
        want = exact_log_count(dp, 4.0)
        errs = []
        for n in (512, 1024, 2048):
            g = Grid(y_max=20.0, n_cells=n)
            got = survivor_count(solve(dp, g, 4.0)[-1], g, dp)
            errs.append(abs(math.expm1(got - want)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.4)

    @pytest.mark.parametrize("big_l", [2.0, 5.0, 10.0])
    def test_two_stage_second_order_grid_convergence(self, desk, big_l):
        # at criterion 6c's point and y_max, F = e^-L: the gamma differences
        # between successive halvings of h shrink ~4x, so h^2 is the one
        # error term that Richardson extrapolation would remove
        t1, t2 = 50.0, 400.0
        y_max = float(math.ceil(desk.eps + big_l
                                + 6.0 * math.sqrt(desk.w * (t1 + t2)) + 1.0))
        gammas = []
        for n in (4096, 8192, 16384):
            num, den = born_two_stage_counts(
                desk, Grid(y_max=y_max, n_cells=n), t1,
                [(math.exp(-big_l), 1), (1.0, 1)], t2)
            gammas.append(math.exp(num - den + big_l))
        ratio = (gammas[1] - gammas[0]) / (gammas[2] - gammas[1])
        assert 3.5 <= ratio <= 5.0

    def test_time_unit_rescaling_invariance(self, desk):
        # (v, w, t) -> (2v, 2w, t/2) is the identical semi-discrete system;
        # survivor counts agree to roundoff
        fast = DiffusionParams(v=2.0 * desk.v, w=2.0 * desk.w, eps=desk.eps)
        g = Grid(y_max=20.0, n_cells=1024)
        a = survivor_count(solve(desk, g, 4.0)[-1], g, desk)
        b = survivor_count(solve(fast, g, 2.0)[-1], g, fast)
        assert a == pytest.approx(b, abs=1e-9)

    def test_snapshots_fire(self, desk):
        g = Grid(y_max=10.0, n_cells=512)
        fields = solve(desk, g, 2.0, snapshot_times=[1.0, 0.5, 2.0])
        assert [f.t for f in fields] == [0.5, 1.0, 2.0, 2.0]
        assert fields[0].growth_log(desk) == pytest.approx((desk.v - 0.5 * desk.w) * 0.5,
                                                           rel=1e-6)
        assert np.array_equal(fields[2].values, fields[3].values)
        assert len({(f.modes, f.truncation) for f in fields}) == 1

    def test_snapshot_at_zero_is_the_start(self, desk):
        g = Grid(y_max=10.0, n_cells=512)
        snap, _ = solve(desk, g, 1.0, snapshot_times=[0.0])
        assert np.array_equal(snap.values, init_delta(g, desk.eps).values)
        assert (snap.t, snap.absorbed) == (0.0, 0.0)

    @pytest.mark.parametrize("t", [-0.5, 2.5])
    def test_snapshot_outside_horizon_raises(self, desk, t):
        g = Grid(y_max=10.0, n_cells=512)
        with pytest.raises(DomainError, match=f"snapshot time {t}"):
            solve(desk, g, 2.0, snapshot_times=[1.0, t])

    def test_snapshot_at_horizon_within_roundoff_fires(self, desk):
        g = Grid(y_max=10.0, n_cells=512)
        fields = solve(desk, g, 2.0, snapshot_times=[2.0 * (1.0 + 1e-12)])
        assert [f.t for f in fields] == [2.0, 2.0]

    def test_snapshot_is_the_end_of_a_run_to_its_time(self, desk):
        # the same expression from the start, in the basis of the horizon
        g = Grid(y_max=10.0, n_cells=512)
        fields = solve(desk, g, 2.005, snapshot_times=[0.505, 0.51, 2.001])
        assert [f.t for f in fields] == [0.505, 0.51, 2.001, 2.005]
        for f in fields:
            alone = solve(desk, g, f.t)[-1]
            assert f.modes == alone.modes
            assert np.array_equal(f.values, alone.values)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, desk, T):
        g = Grid(y_max=10.0, n_cells=512)
        with pytest.raises(DomainError, match="T must be positive and finite"):
            solve(desk, g, T)
        with pytest.raises(DomainError, match="T must be positive and finite"):
            pde_solver.suggested_grid(desk, T)

    def test_solve_memory_does_not_grow_with_the_horizon(self, desk):
        # the memory of a solve is its basis's, whatever the horizon
        g = Grid(y_max=10.0, n_cells=512)
        tracemalloc.start()
        try:
            solve(desk, g, 8.0, snapshot_times=[2.0, 4.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_basis_memory_is_one_n_by_k_array(self):
        # born_pde's basis: the vectors are made in their one array, with no
        # n x k temporary
        n_cells, k = 4096, 64
        tracemalloc.start()
        try:
            pde_solver._Basis(Grid(y_max=40.0, n_cells=n_cells), 0.00997, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n_cells * k * 8

    def test_empty_field_has_log_count_minus_inf(self, desk):
        g = Grid(y_max=20.0, n_cells=256)
        f = Field(values=np.zeros(257))
        assert survivor_count(f, g, desk) == -math.inf


#: ln of the two-stage count at t1 = 50, t2 = 400 for the desk parameters on
#: criterion 6c's three grids (4096 cells, keyed by y_max), for F = 1, e^-2,
#: e^-5, e^-10 with G = 1: the exact solution of the semi-discrete system,
#: made offline with ``scipy.sparse.linalg.expm_multiply`` of the sparse
#: stencil (``raw_stencil``) applied to ``init_delta`` for t1, the same linear
#: shift as the solver's, then again for t2, and the trapezoid mass
EXACT_6C = {
    94.0: (214.46913616115322, 212.14283452120017, 208.4112816669477, 201.5068700866387),
    97.0: (214.47448612216039, 212.14821020704244, 208.416570985493, 201.5120891621136),
    102.0: (214.48425087254432, 212.15792767531894, 208.42625602680997, 201.5216558860204),
}


class TestBornTwoStage:
    @pytest.mark.parametrize("y_max", sorted(EXACT_6C))
    def test_counts_match_the_exact_evolution_at_criterion_6c(self, desk, y_max):
        # the counts are ~e^-123 of the start there, so roundoff that leaks
        # into the never-decaying far-edge mode would show
        grid = Grid(y_max=y_max, n_cells=4096)
        splits = [(math.exp(-big_l), 1) for big_l in (0.0, 2.0, 5.0, 10.0)]
        got = born_two_stage_counts(desk, grid, 50.0, splits, 400.0)
        for count, want in zip(got, EXACT_6C[y_max]):
            assert count == pytest.approx(want, abs=1e-8)

    def test_batched_splits_match_one_split_calls(self, desk):
        # one stage-one readout, one projection of the shifted profiles and
        # one stage-two readout serve every split; each count is that of
        # its own call
        grid = Grid(y_max=94.0, n_cells=4096)
        splits = [(math.exp(-2.0), 1), (1.0, 1), (math.exp(-5.0), 3), (math.exp(-10.0), 1)]
        batched = born_two_stage_counts(desk, grid, 50.0, splits, 400.0)
        for split, count in zip(splits, batched):
            alone = born_two_stage_counts(desk, grid, 50.0, [split], 400.0)[0]
            assert abs(math.expm1(count - alone)) <= 1e-12

    def test_unit_split_reduces_to_plain_solve(self, desk):
        g = Grid(y_max=10.0, n_cells=512)
        lam = born_two_stage_counts(desk, g, 2.0, [(1.0, 1)], 2.0)[0]
        ref = survivor_count(solve(desk, g, 4.0)[-1], g, desk)
        assert lam == ref  # bit-identical path

    def test_children_scale_exactly(self, desk):
        g = Grid(y_max=10.0, n_cells=512)
        one = born_two_stage_counts(desk, g, 2.0, [(0.5, 1)], 2.0)[0]
        four = born_two_stage_counts(desk, g, 2.0, [(0.5, 4)], 2.0)[0]
        assert four - one == pytest.approx(math.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("t1,t2", [(math.inf, 2.0), (2.0, math.inf), (0.0, 2.0),
                                       (2.0, math.nan)])
    def test_stage_times_must_be_positive_and_finite(self, desk, t1, t2):
        g = Grid(y_max=10.0, n_cells=512)
        with pytest.raises(DomainError, match="t[12] must be positive and finite"):
            born_two_stage_counts(desk, g, t1, [(0.5, 1)], t2)

    def test_shift_needs_room(self, desk):
        g = Grid(y_max=10.0, n_cells=512)
        with pytest.raises(DomainError):
            born_two_stage_counts(desk, g, 2.0, [(math.exp(-6.0), 1)], 2.0)

    def test_gamma_against_exact_composition_oracle(self, desk):
        # the true two-stage count: quadrature of the exact stage-two
        # survival kernel over the exact stage-one density
        t1, t2 = 10.0, 80.0
        s1, s2 = desk.w * t1, desk.w * t2
        big_l = 2.0

        def nu1(u):
            if u <= 0.0:
                return 0.0
            pref = math.exp(desk.eps - u - 0.5 * s1) / math.sqrt(2 * math.pi * s1)
            return pref * (math.exp(-(u - desk.eps) ** 2 / (2 * s1))
                           - math.exp(-(u + desk.eps) ** 2 / (2 * s1)))

        def lam(shift):
            val, _ = quad(lambda y: exact_nu_mass(y, s2) * nu1(y + shift),
                          0.0, 14.0 * math.sqrt(s2), limit=300)
            return val

        gamma_true = math.exp(big_l) * lam(big_l) / lam(0.0)

        g = Grid(y_max=43.0, n_cells=2048)
        num = born_two_stage_counts(desk, g, t1, [(math.exp(-big_l), 1)], t2)[0]
        den = born_two_stage_counts(desk, g, t1, [(1.0, 1)], t2)[0]
        gamma_pde = math.exp(num - den + big_l)
        assert gamma_pde == pytest.approx(gamma_true, rel=1e-3)
