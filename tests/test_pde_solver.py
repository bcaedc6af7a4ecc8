"""Grid solver: conservation, drift and spreading rates, agreement with the
closed forms, convergence order, and the two-stage protocol.

The independent reference for absolute survivor counts is the exact
first-passage expression for drifted Brownian motion with an absorbing
barrier (image construction), evaluated with the package's own erfc:

    nu-mass(t) = Phi((eps - wt)/sqrt(wt)) - e^{2 eps} Phi(-(eps + wt)/sqrt(wt))

which is free of the small-eps approximation behind the closed-form count.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

from mangledworlds import analytic, pde_solver
from mangledworlds.errors import DomainError, NumericalError
from mangledworlds.model_params import DiffusionParams
from mangledworlds.pde_solver import Field, Grid, born_two_stage, init_delta, \
    solve, step, survivor_count
from mangledworlds.special_functions import erfc

from conftest import rel_log_gap


def _phi(z: float) -> float:
    return 0.5 * erfc(-z / math.sqrt(2.0))


def exact_nu_mass(eps: float, s: float) -> float:
    """Surviving probability mass in the comoving frame after w*t = s."""
    rt = math.sqrt(s)
    return _phi((eps - s) / rt) - math.exp(2.0 * eps) * _phi(-(eps + s) / rt)


def exact_log_count(dp: DiffusionParams, t: float) -> float:
    return math.log(exact_nu_mass(dp.eps, dp.w * t)) + (dp.v - 0.5 * dp.w) * t


class TestGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(y_max=0.0, n_cells=64, dt=1e-3)
        with pytest.raises(DomainError):
            Grid(y_max=10.0, n_cells=8, dt=1e-3)
        with pytest.raises(DomainError):
            Grid(y_max=10.0, n_cells=64, dt=0.0)
        with pytest.raises(DomainError):
            Grid(y_max=10.0, n_cells=64, dt=1e-3, scheme="magic")

    def test_spacing(self):
        g = Grid(y_max=10.0, n_cells=100, dt=1e-3)
        assert g.h == pytest.approx(0.1)
        assert len(g.nodes()) == 101

    def test_stability_bound(self):
        g = Grid(y_max=10.0, n_cells=1000, dt=1e-4, scheme="explicit_upwind")
        w = 0.5
        assert g.max_stable_dt(w) == pytest.approx(0.9 * g.h * g.h / w)

    def test_explicit_instability_rejected(self):
        g = Grid(y_max=10.0, n_cells=1000, dt=1e-3, scheme="explicit_upwind")
        f = init_delta(g, 5.0)
        with pytest.raises(DomainError):
            step(f, g, 0.5)


class TestInitDelta:
    def test_unit_mass(self):
        g = Grid(y_max=20.0, n_cells=512, dt=1e-3)
        f = init_delta(g, 0.5)
        assert f.mass(g) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_node_zero(self):
        g = Grid(y_max=20.0, n_cells=512, dt=1e-3)
        assert init_delta(g, 0.5).values[0] == 0.0

    def test_center_of_mass(self):
        g = Grid(y_max=20.0, n_cells=512, dt=1e-3)
        f = init_delta(g, 0.5)
        y = g.nodes()
        com = np.trapezoid(y * f.values, y)
        assert abs(com - 0.5) <= g.h

    def test_too_close_to_edge(self):
        g = Grid(y_max=20.0, n_cells=128, dt=1e-3)  # h = 0.15625
        with pytest.raises(DomainError):
            init_delta(g, 0.5)  # 4h = 0.625
        with pytest.raises(DomainError):
            init_delta(g, 19.9)


class TestStepDynamics:
    def test_mass_conserved_away_from_boundary(self):
        # far pulse: nothing reaches either edge in 1000 steps
        for scheme, dt in (("crank_nicolson", 1e-3), ("explicit_upwind", 1e-4)):
            g = Grid(y_max=20.0, n_cells=512, dt=dt, scheme=scheme)
            f = init_delta(g, 10.0)
            m0 = f.mass(g)
            for _ in range(1000):
                f = step(f, g, 0.5)
            assert abs(f.mass(g) - m0) <= 1e-8
            assert abs(f.absorbed) <= 1e-8

    @pytest.mark.parametrize("scheme,dt,n", [("crank_nicolson", 1e-3, 2000),
                                             ("explicit_upwind", 1.5e-4, 1500)])
    def test_drift_rate(self, scheme, dt, n):
        w = 0.5
        g = Grid(y_max=20.0, n_cells=n, dt=dt, scheme=scheme)
        f = init_delta(g, 14.0)
        y = g.nodes()
        times, coms = [], []
        for k in range(int(2.0 / dt) + 1):
            if k % 200 == 0:
                times.append(f.t)
                coms.append(float(np.trapezoid(y * f.values, y) / f.mass(g)))
            f = step(f, g, w)
        slope = np.polyfit(times, coms, 1)[0]
        assert slope == pytest.approx(-w, rel=0.02)

    def test_variance_rate(self):
        w = 0.5
        g = Grid(y_max=24.0, n_cells=2400, dt=1e-3)
        f = init_delta(g, 16.0)
        y = g.nodes()
        times, variances = [], []
        for k in range(2001):
            if k % 200 == 0:
                m = f.mass(g)
                com = float(np.trapezoid(y * f.values, y) / m)
                var = float(np.trapezoid((y - com) ** 2 * f.values, y) / m)
                times.append(f.t)
                variances.append(var)
            f = step(f, g, w)
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

    def test_numerical_failure_detected(self):
        g = Grid(y_max=20.0, n_cells=512, dt=1e-3)
        f = init_delta(g, 10.0)
        f.values[100] = float("nan")
        with pytest.raises(NumericalError):
            step(f, g, 0.5)


class TestFactoredStepper:
    """The once-factored step matrix reproduces a fresh banded solve of the
    same system on every step, bit for bit."""

    @staticmethod
    def _banded_reference(grid, w, dt):
        sub, diag, sup = pde_solver._operator_bands(grid, w)
        ab = np.zeros((3, grid.n_cells))
        ab[0, 1:] = -0.5 * dt * sup[:-1]
        ab[1, :] = 1.0 - 0.5 * dt * diag
        ab[2, :-1] = -0.5 * dt * sub[1:]

        def advance(u):
            lu = diag * u
            lu[:-1] += sup[:-1] * u[1:]
            lu[1:] += sub[1:] * u[:-1]
            return solve_banded((1, 1), ab, u + 0.5 * dt * lu, check_finite=False)

        def advance_smoothing(u):
            for _ in range(2):
                u = solve_banded((1, 1), ab, u, check_finite=False)
            return u

        return advance, advance_smoothing

    # the desk grid, and the born_pde benchmark grid (w = 0.01, dt = 0.45)
    @pytest.mark.parametrize("y_max,n_cells,w,dt", [(20.0, 2048, 0.5, 1e-3),
                                                     (40.0, 4096, 0.01, 0.45)])
    def test_matches_banded_solve(self, y_max, n_cells, w, dt):
        g = Grid(y_max=y_max, n_cells=n_cells, dt=dt)
        stepper = pde_solver._Stepper(g, w, dt)
        advance, advance_smoothing = self._banded_reference(g, w, dt)
        u = init_delta(g, 0.2).values[1:]
        got, want = stepper.advance_smoothing(u), advance_smoothing(u)
        assert np.array_equal(got, want)
        for _ in range(300):
            got, want = stepper.advance(got), advance(want)
            assert np.array_equal(got, want)

    def test_singular_step_matrix_is_loud(self, monkeypatch):
        # with L = 4 I and dt = 0.5, I - (dt/2) L is the zero matrix
        g = Grid(y_max=10.0, n_cells=64, dt=0.5)
        n = g.n_cells
        monkeypatch.setattr(pde_solver, "_operator_bands",
                            lambda grid, w: (np.zeros(n), np.full(n, 4.0), np.zeros(n)))
        with pytest.raises(NumericalError):
            pde_solver._Stepper(g, 0.5, g.dt)


class TestSolve:
    def test_survivor_count_matches_closed_form(self, desk):
        g = Grid(y_max=20.0, n_cells=2048, dt=1e-3)
        f = solve(desk, g, 4.0)
        got = survivor_count(f, g, desk)
        want = analytic.unmangled_count_W(4.0, desk)
        assert rel_log_gap(got, want) <= 0.01

    def test_probability_bookkeeping(self, desk):
        g = Grid(y_max=20.0, n_cells=1024, dt=2e-3)
        f = solve(desk, g, 4.0)
        assert f.absorbed + f.mass(g) == pytest.approx(1.0, abs=1e-6)

    def test_tail_leak_bounded(self, desk):
        g = Grid(y_max=20.0, n_cells=1024, dt=2e-3)
        f = solve(desk, g, 4.0)
        assert f.far_inflow <= 1e-8
        assert f.values[-1] * g.h <= 1e-8

    def test_density_shape_matches_approx_form(self, desk):
        g = Grid(y_max=20.0, n_cells=2048, dt=1e-3)
        f = solve(desk, g, 4.0)
        y = g.nodes()
        dens = f.values / f.mass(g)
        logs = analytic.log_mu1_approx(y[1:], 4.0, desk)
        ref = np.concatenate([[0.0], np.exp(logs - logs.max())])
        ref /= np.trapezoid(ref, y)
        l1 = np.trapezoid(np.abs(dens - ref), y)
        assert l1 <= 0.02

    def test_absorption_monotone(self, desk):
        g = Grid(y_max=10.0, n_cells=512, dt=2e-3)
        f = init_delta(g, desk.eps)
        absorbed = [f.absorbed]
        for _ in range(500):
            f = step(f, g, desk.w)
            absorbed.append(f.absorbed)
        assert all(b >= a - 1e-15 for a, b in zip(absorbed, absorbed[1:]))

    def test_second_order_grid_convergence(self):
        # survivor-count error against the exact first-passage reference
        # shrinks ~4x per halving of (h, dt)
        dp = DiffusionParams(v=1.0, w=0.5, eps=0.4)
        want = exact_log_count(dp, 4.0)
        errs = []
        for n, dt in ((512, 4e-3), (1024, 2e-3), (2048, 1e-3)):
            g = Grid(y_max=20.0, n_cells=n, dt=dt)
            got = survivor_count(solve(dp, g, 4.0), g, dp).log_magnitude
            errs.append(abs(math.expm1(got - want)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.4)

    def test_time_unit_rescaling_invariance(self, desk):
        # (v, w, t) -> (2v, 2w, t/2) with dt -> dt/2 is the identical
        # discrete system; survivor counts agree to roundoff
        fast = DiffusionParams(v=2.0 * desk.v, w=2.0 * desk.w, eps=desk.eps)
        g1 = Grid(y_max=20.0, n_cells=1024, dt=2e-3)
        g2 = Grid(y_max=20.0, n_cells=1024, dt=1e-3)
        a = survivor_count(solve(desk, g1, 4.0), g1, desk)
        b = survivor_count(solve(fast, g2, 2.0), g2, fast)
        assert a.log_magnitude == pytest.approx(b.log_magnitude, abs=1e-9)

    def test_snapshots_fire(self, desk):
        g = Grid(y_max=10.0, n_cells=512, dt=1e-2)
        seen = []
        solve(desk, g, 2.0, snapshot_times=[0.5, 1.0, 2.0],
              on_snapshot=lambda t, y, vals, gl: seen.append((t, vals.sum(), gl)))
        assert [round(t, 6) for t, _, _ in seen] == [0.5, 1.0, 2.0]
        assert seen[0][2] == pytest.approx((desk.v - 0.5 * desk.w) * 0.5, rel=1e-6)

    def test_empty_field_count_is_zero(self, desk):
        g = Grid(y_max=20.0, n_cells=256, dt=1e-2)
        f = Field(values=np.zeros(257))
        assert survivor_count(f, g, desk).is_zero


class TestBornTwoStage:
    def test_unit_split_reduces_to_plain_solve(self, desk):
        g = Grid(y_max=10.0, n_cells=512, dt=2e-3)
        lam = born_two_stage(desk, g, 2.0, 1.0, 1, 2.0)
        ref = survivor_count(solve(desk, g, 4.0), g, desk)
        assert lam.log_magnitude == ref.log_magnitude  # bit-identical path

    def test_children_scale_exactly(self, desk):
        g = Grid(y_max=10.0, n_cells=512, dt=2e-3)
        one = born_two_stage(desk, g, 2.0, 0.5, 1, 2.0)
        four = born_two_stage(desk, g, 2.0, 0.5, 4, 2.0)
        assert four.log_magnitude - one.log_magnitude == pytest.approx(
            math.log(4.0), abs=1e-12)

    def test_shift_needs_room(self, desk):
        g = Grid(y_max=10.0, n_cells=512, dt=2e-3)
        with pytest.raises(DomainError):
            born_two_stage(desk, g, 2.0, math.exp(-6.0), 1, 2.0)

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

        g = Grid(y_max=43.0, n_cells=2048, dt=2e-3)
        num = born_two_stage(desk, g, t1, math.exp(-big_l), 1, t2)
        den = born_two_stage(desk, g, t1, 1.0, 1, t2)
        gamma_pde = math.exp(num.log_magnitude - den.log_magnitude + big_l)
        assert gamma_pde == pytest.approx(gamma_true, rel=0.02)
