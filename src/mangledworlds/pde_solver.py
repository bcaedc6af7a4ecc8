"""Finite-difference oracle for the absorbed drift-diffusion problem.

The moving absorbing boundary is removed analytically: in the comoving
coordinate y = x - x_b(t) the growth-stripped density obeys

    nu_t = w nu_y + (w/2) nu_yy,   nu(0, t) = 0,   nu(y, 0) = delta(y - eps)

with the boundary frozen at y = 0 (worlds fall toward it at relative rate w)
and the exact growth factor e^{(v - w/2) t} re-applied at readout.

Time stepping is Crank-Nicolson: trapezoidal in time, central second-order
differences in space.  At the grids used here the cell Peclet number is
2h << 1, where central differencing is non-oscillatory.  The delta is
mollified to a Gaussian of width 2h, which would poison a bare
Crank-Nicolson start with ringing, so a run opens with two implicit-Euler
half-steps (Rannacher smoothing).  The operator is time-invariant, so
I - (dt/2) L is factored once per run; a step is one back-substitution.

Mass bookkeeping is exact by construction: each run credits its net mass
loss (the per-step losses telescope) to ``absorbed``, so absorbed + surviving
stays at the initial unit mass up to the far-edge term tracked in
``far_inflow`` (the zero-gradient outer boundary admits a spurious advective
inflow ~ w nu(y_max) dt per step, which honest domain sizing keeps below
1e-8 overall).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DomainError, NumericalError
from .model_params import DiffusionParams, split_params
from .special_functions import LogValue

_NEG_TOL = 1e-12          # negative overshoot beyond -tol*max aborts
_RANNACHER_HALF_STEPS = 2


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, y_max] with n_cells intervals and time step dt."""

    y_max: float
    n_cells: int
    dt: float

    def __post_init__(self):
        if not self.y_max > 0.0:
            raise DomainError(f"y_max must be positive, got {self.y_max!r}")
        if self.n_cells < 16:
            raise DomainError(f"n_cells must be >= 16, got {self.n_cells!r}")
        if not self.dt > 0.0:
            raise DomainError(f"dt must be positive, got {self.dt!r}")

    @property
    def h(self) -> float:
        return self.y_max / self.n_cells

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.y_max, self.n_cells + 1)


@dataclass
class Field:
    """Comoving-frame state: node densities at time t plus bookkeeping.

    ``absorbed`` accumulates the nu-frame mass lost through y = 0 (exact
    mass balance per run), and ``far_inflow`` the estimated spurious gain
    at the zero-gradient outer edge.  The growth exponent (v - w/2) t is
    re-applied at readout by :func:`survivor_count`.
    """

    values: np.ndarray
    t: float = 0.0
    absorbed: float = 0.0
    far_inflow: float = 0.0

    def mass(self, grid: Grid) -> float:
        """Trapezoid integral of the density over the grid."""
        v = self.values
        return grid.h * (v[1:-1].sum() + 0.5 * (v[0] + v[-1]))

    def growth_log(self, dp: DiffusionParams) -> float:
        """Accumulated log growth (v - w/2) t."""
        return (dp.v - 0.5 * dp.w) * self.t


def init_delta(grid: Grid, eps: float) -> Field:
    """Unit-mass mollified delta at y = eps: a Gaussian of std 2h, boundary
    node zeroed, then normalized to exactly unit trapezoid integral."""
    h = grid.h
    if not 4.0 * h <= eps <= grid.y_max - 4.0 * h:
        raise DomainError(
            f"eps = {eps!r} is within 4h = {4.0 * h!r} of a domain edge; "
            "refine the grid or enlarge y_max")
    y = grid.nodes()
    s0 = 2.0 * h
    values = np.exp(-((y - eps) ** 2) / (2.0 * s0 * s0))
    values[0] = 0.0
    f = Field(values=values)
    values /= f.mass(grid)
    return f


# ---------------------------------------------------------------------------
# spatial operator and time stepping
# ---------------------------------------------------------------------------

def _operator_bands(grid: Grid, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub, diag, super) of the spatial operator over unknown nodes 1..n.

    Node 0 is the absorbing Dirichlet value (always 0, eliminated); at node n
    the zero-gradient ghost folds the super coefficient back onto sub, which
    also cancels the advective term there.
    """
    n = grid.n_cells
    h = grid.h
    diff = 0.5 * w / (h * h)
    adv = 0.5 * w / h
    sub = np.full(n, diff - adv)
    diag = np.full(n, -2.0 * diff)
    sup = np.full(n, diff + adv)
    sub[-1] = 2.0 * diff
    sup[-1] = 0.0
    return sub, diag, sup


def _check_health(values: np.ndarray, t: float) -> None:
    mn = float(values.min())
    if math.isnan(mn) or not np.isfinite(values.max()):
        raise NumericalError(f"solver produced non-finite density at t = {t:.6g}")
    floor = -_NEG_TOL * max(float(values.max()), 1e-300)
    if mn < floor:
        i = int(values.argmin())
        raise NumericalError(
            f"negative density overshoot at t = {t:.6g}: values[{i}] = {mn:.3e} "
            f"below tolerance {floor:.3e}")


def _cn_step(grid: Grid, w: float, dt: float) -> Callable[[Field, bool], None]:
    """One Crank-Nicolson step of dt, with I - (dt/2) L factored here once.

    The returned ``advance(field, smooth)`` moves ``field`` in place (two
    implicit-Euler half-steps through the same factors when ``smooth``),
    checks and clips the density, and accumulates ``far_inflow``; the
    caller credits ``absorbed``.
    """
    sub, diag, sup = _operator_bands(grid, w)
    *lu, info = dgttrf(-0.5 * dt * sub[1:], 1.0 - 0.5 * dt * diag,
                       -0.5 * dt * sup[:-1])
    if info != 0:
        raise NumericalError(f"step matrix is singular (dgttrf info = {info})")

    def solve_lhs(rhs: np.ndarray) -> np.ndarray:
        x, info = dgttrs(*lu, rhs)
        if info != 0:
            raise NumericalError(f"tridiagonal solve failed (dgttrs info = {info})")
        return x

    def advance(field: Field, smooth: bool) -> None:
        u = field.values[1:]  # node 0 is the absorbing zero
        if smooth:
            for _ in range(_RANNACHER_HALF_STEPS):
                u = solve_lhs(u)
        else:
            op_u = diag * u  # L @ u
            op_u[:-1] += sup[:-1] * u[1:]
            op_u[1:] += sub[1:] * u[:-1]
            u = solve_lhs(u + 0.5 * dt * op_u)
        field.values[1:] = u
        field.values[0] = 0.0
        _check_health(field.values, field.t + dt)
        # roundoff-scale negatives (inside the health tolerance) are shaved
        np.clip(field.values, 0.0, None, out=field.values)
        field.t += dt
        field.far_inflow += dt * w * float(field.values[-1])

    return advance


def _reached(t: float, target: float) -> bool:
    """Whether the step clock t has reached a snapshot time, up to roundoff."""
    return t >= target - 1e-9 * max(1.0, target)


def _run(field: Field, dp: DiffusionParams, grid: Grid, duration: float,
         snapshot_times: Sequence[float] = (), on_snapshot=None,
         smooth_first: bool = True) -> None:
    targets = sorted(float(s) for s in snapshot_times)
    advance = _cn_step(grid, dp.w, grid.dt)
    mass_start = field.mass(grid)
    t_end = field.t + duration
    n_full = int(math.floor(duration / grid.dt + 1e-9))
    remainder = duration - n_full * grid.dt

    def fire_snapshots():
        while targets and _reached(field.t, targets[0]):
            targets.pop(0)
            if on_snapshot is not None:
                on_snapshot(field.t, grid.nodes(), field.values.copy(),
                            field.growth_log(dp))

    fire_snapshots()
    for k in range(n_full):
        advance(field, smooth_first and k == 0)
        fire_snapshots()
    if remainder > 1e-9 * max(1.0, grid.dt):
        _cn_step(grid, dp.w, remainder)(field, False)
        fire_snapshots()
    field.t = t_end  # kill step-count roundoff drift
    field.absorbed += mass_start - field.mass(grid)


def solve(dp: DiffusionParams, grid: Grid, T: float, *,
          snapshot_times: Sequence[float] = (),
          on_snapshot: Callable[[float, np.ndarray, np.ndarray, float], None] | None = None,
          ) -> Field:
    """Solve from the mollified delta at eps to time T.

    ``on_snapshot(t, y, values, growth_log)`` fires at the first step time
    reaching each requested snapshot time; a time outside [0, T] raises.
    The survivor count of the result is ``survivor_count(field, grid, dp)``.
    """
    dp.require_diffusive()
    if not T > 0.0:
        raise DomainError(f"T must be positive, got {T!r}")
    for s in map(float, snapshot_times):
        if not (s >= 0.0 and _reached(T, s)):
            raise DomainError(f"snapshot time {s!r} lies outside [0, T = {T!r}]")
    field = init_delta(grid, dp.eps)
    _run(field, dp, grid, T, snapshot_times, on_snapshot, smooth_first=True)
    return field


def survivor_count(field: Field, grid: Grid, dp: DiffusionParams) -> LogValue:
    """Unmangled world count e^{(v - w/2) t} * integral of nu, log-safe."""
    m = field.mass(grid)
    if m <= 0.0:
        return LogValue.zero()
    return LogValue(math.log(m) + field.growth_log(dp))


def shift_toward_boundary(field: Field, grid: Grid, log_F: float) -> None:
    """Translate the density by ln F <= 0 (toward the boundary), in place.

    Linear interpolation on the grid; mass pushed below y = 0 (or off the
    far edge) is credited to ``absorbed``.
    """
    if log_F > 0.0:
        raise DomainError(f"ln F must be <= 0, got {log_F!r}")
    shift = -log_F
    if shift >= 0.5 * grid.y_max:
        raise DomainError(
            f"|ln F| = {shift!r} is more than half of y_max = {grid.y_max!r}; "
            "enlarge the grid")
    if shift == 0.0:
        return
    y = grid.nodes()
    mass_before = field.mass(grid)
    field.values = np.interp(y + shift, y, field.values, right=0.0)
    field.values[0] = 0.0
    field.absorbed += mass_before - field.mass(grid)


def born_two_stage(dp: DiffusionParams, grid: Grid, t1: float, F: float,
                   G: float, t2: float) -> LogValue:
    """Two-stage protocol: evolve to t1, move every world down by |ln F| and
    multiply the count by G, evolve on to t1 + t2; returns the survivor
    count (the grid estimate of lambda)."""
    return born_two_stage_counts(dp, grid, t1, [(F, G)], t2)[0]


def born_two_stage_counts(dp: DiffusionParams, grid: Grid, t1: float,
                          splits: Sequence[tuple[float, float]],
                          t2: float) -> list[LogValue]:
    """:func:`born_two_stage` for each (F, G) in ``splits``; stage one does
    not depend on the split, so it is solved once and copied per split."""
    dp.require_diffusive()
    log_splits = [split_params(F, G) for F, G in splits]
    if not (t1 > 0.0 and t2 > 0.0):
        raise DomainError("t1 and t2 must be positive")

    stage_one = solve(dp, grid, t1)
    counts = []
    for log_F, G in log_splits:
        field = replace(stage_one, values=stage_one.values.copy())
        shift_toward_boundary(field, grid, log_F)
        if G != 1:  # scales the surviving density, not the absorbed mass
            field.values *= G
        # restart smoothing only when the shift actually kinked the profile,
        # so F = 1, G = 1 stays bit-identical to one continuous solve
        _run(field, dp, grid, t2, smooth_first=(log_F != 0.0))
        counts.append(survivor_count(field, grid, dp))
    return counts


def suggested_grid(dp: DiffusionParams, T: float, *, max_abs_log_F: float = 0.0,
                   n_cells: int = 2048) -> Grid:
    """Crank-Nicolson grid for a run to time T in 8000 steps, with
    y_max = eps + |ln F| + 6 sqrt(w T) (rounded up), which keeps the
    far-edge density, and with it the tail leak, below ~1e-8 of the mass."""
    dp.require_diffusive()
    y_max = float(math.ceil(dp.eps + max_abs_log_F + 6.0 * math.sqrt(dp.w * T) + 1.0))
    return Grid(y_max=y_max, n_cells=n_cells, dt=T / 8000.0)
