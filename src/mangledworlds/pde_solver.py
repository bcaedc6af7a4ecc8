"""Finite-difference oracle for the absorbed drift-diffusion problem.

The moving absorbing boundary is removed analytically: in the comoving
coordinate y = x - x_b(t) the growth-stripped density obeys

    nu_t = w nu_y + (w/2) nu_yy,   nu(0, t) = 0,   nu(y, 0) = delta(y - eps)

with the boundary frozen at y = 0 (worlds fall toward it at relative rate w)
and the exact growth factor e^{(v - w/2) t} re-applied at readout.

The discretization is central second-order differences in space, and the
resulting linear system is evolved exactly in time.  At the grids used here
the cell Peclet number is 2h << 1, where central differencing is
non-oscillatory.  The delta is mollified to a Gaussian of width 2h.

The evolution is evaluated, not stepped.  The spatial operator L is
tridiagonal and time-invariant, and sub[i+1] sup[i] > 0 while the cell Peclet
number is below 1, so S = D L D^-1 with d[i+1]/d[i] = sqrt(sup[i]/sub[i+1])
is symmetric: S = Q diag(lam) Q^T.  A field is carried as coefficients
c = Q^T D u and the time t it has run for; its values are D^-1 Q (c e^(lam t)),
the exact solution of u' = L u, read at exactly the time asked for.  So the
solver's only approximations are the O(h^2) space grid and the truncation
below.  A snapshot is the end of a run to its time: the same expression, from
the start, in the same eigenbasis as the horizon T.

Only the k slowest modes are kept: faster ones have decayed below roundoff
by the time anything is read out.  The field's own coefficients decide k
(an a-priori decay bound asks for several times more): k starts at 64 and
doubles until, at every readout, the fastest eighth of the kept modes
carries at most 1e-13 of the largest coefficient.

The eigenpairs are closed forms (Yueh, Appl. Math. E-Notes 2005).  S is
tridiag(b, -2 diff, b), diff = w/(2h^2), b = sqrt(diff^2 - adv^2), adv = w/(2h),
but for its last coupling c = sqrt(2 diff (diff + adv)).  So v_i = sin(i theta)
(i < n), v_n = (b/c) sin(n theta), and lam = -2 diff + 2 b cos(theta), formed
as -2 adv^2/(diff + b) - 4 b sin^2(theta/2) so that it does not cancel; theta
solves c^2 sin((n-1) theta) = 2 b^2 cos(theta) sin(n theta), that is n theta =
m pi + psi with psi = atan(tan(theta)/h), by Newton steps kept inside psi's
bracket (0, pi): 3 to 5 evaluations at the grids used here.  The sines come by
angle addition over blocks of 64 rows, sin((64 J + l) theta) = sin(64 J theta)
cos(l theta) + cos(64 J theta) sin(l theta), so the vectors are made in their
one n x k array, normalized in closed form from the 2 x 2 Gram matrices of the
factors.  For y_max > 1 the slowest mode is evanescent, theta = i kappa, lam ~
-e^(-2 y_max): the far edge's mode, which never decays while the counts fall
to e^-120 of the start, so error that leaks into it dominates them.  Each
entry (sinh(i kappa) as e^((i-n) kappa) ratios) is an elementary function
evaluated to its own relative precision, so the vectors stay accurate where
they are tiny.  A readout of D u has a roundoff floor at the far edge, where
the true values are astronomically small, and a shift would carry it into
that mode; so a readout zeroes the entries within 4096 eps sum_j e_ij |c_j|,
e_ij the largest |q_i'j| over the 64-row block of i.  The row sum sum_j |q_ij
c_j| would dip where the kept sines cross zero: at y_max 296 on 16384 cells
the noise reaches 5.4e3 eps times it there, and after a shift would take over
the far edge.  Against the envelope the noise is at most 19.5 eps there, and
at most 5.6 eps beyond 0.75 y_max at criterion 6c's stage-one readout, whose
counts the envelope moves by 1.4e-13 relative.

Mass bookkeeping is exact by construction: ``absorbed`` is the mass lost
over a run, so absorbed + surviving stays at the initial unit mass.  On a
domain too short for the horizon the never-decaying far-edge mode outlives
the true density and carries the count, so a checked readout raises
DomainError once the far-edge density passes 1e-6 of the peak.  In probes
at w T = 4 to 225 the count's relative error against a doubled domain was
0.1 to 30 times that density, wherever the error lay between roundoff and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .model_params import DiffusionParams, _check_time, split_params

_NEG_TOL = 1e-12          # negative overshoot beyond -tol*max aborts
_MODES_START = 64         # first mode count tried; doubled as needed
_TAIL_SHARE = 8           # the fastest 1/8 of the kept modes measure the tail
_TAIL_TOL = 1e-13         # accepted tail, relative to the largest coefficient
_EPS = float(np.finfo(float).eps)
_NOISE = 4096 * _EPS
# D spans e^y_max; past this both D and D^-1 are no longer normal floats
_LOG_SCALE_MAX = -math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, y_max] with n_cells intervals."""

    y_max: float
    n_cells: int

    def __post_init__(self):
        if not 0.0 < self.y_max < math.inf:
            raise DomainError(f"y_max must be positive and finite, got {self.y_max!r}")
        if self.n_cells < 16:
            raise DomainError(f"n_cells must be >= 16, got {self.n_cells!r}")

    @property
    def h(self) -> float:
        return self.y_max / self.n_cells

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.y_max, self.n_cells + 1)


@dataclass
class Field:
    """Comoving-frame state: node densities at time t plus bookkeeping.

    A snapshot field is the end of a run to exactly its time t.
    ``absorbed`` is the nu-frame mass lost through y = 0 (exact mass
    balance).  ``modes`` is the number of eigenmodes kept and ``truncation``
    the largest tail (see the module docstring) at any readout of the
    solve, 0 when the basis was complete; both are shared by a solve's
    fields.  A solve that returns has kept the far-edge density within 1e-6
    of the peak at every checked readout.  The growth exponent (v - w/2) t is re-applied at
    readout by :func:`survivor_count`.
    """

    values: np.ndarray
    t: float = 0.0
    absorbed: float = 0.0
    modes: int = 0
    truncation: float = 0.0

    def mass(self, grid: Grid) -> float:
        """Trapezoid integral of the density over the grid."""
        v = self.values
        return grid.h * (v[1:-1].sum() + 0.5 * (v[0] + v[-1]))

    def growth_log(self, dp: DiffusionParams) -> float:
        """Accumulated log growth (v - w/2) t."""
        return (dp.v - 0.5 * dp.w) * self.t


def init_delta(grid: Grid, eps: float) -> Field:
    """Unit-mass mollified delta at y = eps: a Gaussian of std 2h, boundary
    node zeroed, then normalized to exactly unit trapezoid integral.  Its
    variance 4h^2 is a head start of 4h^2/w in time, an error of the grid's
    own order h^2."""
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
# spatial operator and its eigenbasis
# ---------------------------------------------------------------------------

def _newton(f, x, lo, hi):
    """Roots of f, rising through 0 between lo and hi (lo never evaluated),
    by Newton steps from x in (lo, hi]; a step that would leave the bracket
    halves it instead.  ``f(x)`` returns the value and the slope."""
    tol = 4.0 * _EPS * float(np.max(hi))
    for _ in range(64):
        value, slope = f(x)
        lo, hi = np.where(value < 0.0, x, lo), np.where(value > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):   # nan bisects
            step = x - value / slope
        step = np.where((lo < step) & (step <= hi), step, 0.5 * (lo + hi))
        done = bool(np.all(np.abs(step - x) <= tol))
        x = step
        if done:
            break
    return x


def _modes(grid: Grid, k: int, diff: float, adv: float, b: float,
           c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k largest eigenvalues (ascending) of S = tridiag((b..b, c),
    -2 diff, (b..b, c)), their orthonormal eigenvectors (n x k) and the
    vectors' envelopes (k x (n/64 + 1)): the largest |q_ij| over each block
    i = 64 J .. 64 J + 63; in closed form, see the docstring."""
    n, h = grid.n_cells, grid.h
    blocks = n // 64 + 1
    # vec[j, J, l] is component i = 64 J + l of vector j; i = 0 and i > n pad
    lam, vec, env = np.empty(k), np.zeros((k, blocks, 64)), np.empty((k, blocks))
    evanescent = int(n * h > 1.0)
    # theta_m = pi - theta_(n-1-m), v_i -> (-1)^(i+1) v_i: solve (m pi + psi)/n <= pi/2
    m = np.arange(min(k, n - evanescent) - 1, evanescent - 1, -1)
    near = np.minimum(m, n - 1 - m) * np.pi

    def secular(p):                      # p - atan(tan(theta) / h)
        s, co = np.sin((near + p) / n), np.cos((near + p) / n)
        return p - np.arctan2(s, h * co), 1.0 - h / (n * (h * h * co * co + s * s))

    guess = (near + 0.5 * np.pi) / n
    psi = _newton(secular, np.arctan2(np.sin(guess), h * np.cos(guess)), 0.0, np.pi)
    theta = (near + psi) / n
    far = near != m * np.pi
    osc = slice(k - evanescent - m.size, k - evanescent)
    lam[osc] = -2.0 * adv * adv / (diff + b) - 4.0 * b * np.where(
        far, np.cos(0.5 * theta), np.sin(0.5 * theta)) ** 2
    # sin(i theta) by angle addition, i = 64 J + l: the pair (sin, cos)(64 J
    # theta) times the pair (cos, sin)(l theta), 2 (n/64 + 65) sines a mode
    outer, inner = np.empty((m.size, blocks, 2)), np.empty((m.size, 2, 64))
    for sin, cos, steps in ((outer[..., 0], outer[..., 1], 64.0 * np.arange(blocks)),
                            (inner[:, 1], inner[:, 0], np.arange(64.0))):
        np.multiply.outer(theta, steps, out=cos)
        np.sin(cos, out=sin)
        np.cos(cos, out=cos)
    # squared norms: each block's pair through the Gram matrix of (cos, sin)
    # over its rows in 1..n, less (1 - b^2/c^2) v_n^2
    last = n - 64 * (blocks - 1)
    norm2 = -(1.0 - (b / c) ** 2) * (outer[:, -1] * inner[..., last]).sum(1) ** 2
    for pairs, rows in ((outer[:, :-1], 64), (outer[:, -1:], last + 1)):
        head = inner[..., :rows]
        norm2 += ((pairs.transpose(0, 2, 1) @ pairs)
                  * (head @ head.transpose(0, 2, 1))).sum(axis=(1, 2))
    # a far mode's sign (-1)^(i+1) = (-1)^(l+1) and 1/norm go into the 64-row
    # pairs, so that the vectors are made in place, with no n x k temporary
    inner *= (np.where(far[:, None], (-1.0) ** np.arange(1.0, 65.0), 1.0)
              / np.sqrt(norm2)[:, None])[:, None]
    np.matmul(outer, inner, out=vec[osc])
    env[osc] = np.einsum("mJr,mr->mJ", np.abs(outer), np.abs(inner).max(axis=2))
    flat = vec.reshape(k, -1)
    flat[osc, n] *= b / c
    if evanescent:
        # tanh(kappa) = h tanh(n kappa), lam = 2 b (cosh kappa - cosh kinf) <= 0,
        # kinf - kappa = atanh(2 h e/(1 + e - h^2 (1 - e))) with e = e^(-2 n kappa)
        def secular(x):
            t, tn = np.tanh(x), np.tanh(n * x)
            return t - h * tn, 1.0 - t * t - h * n * (1.0 - tn * tn)

        kinf = math.atanh(h)
        kappa = float(_newton(secular, kinf, 0.0, kinf))
        e = math.exp(-2.0 * n * kappa)
        lam[-1] = -4.0 * b * math.sinh(0.5 * (kappa + kinf)) * math.sinh(
            0.5 * math.atanh(2.0 * h * e / (1.0 + e - h * h * (1.0 - e))))
        i = np.arange(1.0, n + 1.0)
        v = -np.exp((i - n) * kappa) * np.expm1(-2.0 * i * kappa)  # ~ sinh(i kappa)
        v[-1] *= b / c
        flat[-1, 1:n + 1] = v / math.sqrt(v @ v)
        env[-1] = np.abs(vec[-1]).max(axis=1)
        if k == n:
            lam[0] = -4.0 * diff - lam[-1]       # its mirror, theta = pi + i kappa
            flat[0, 1:n + 1] = (-1.0) ** (i + 1.0) * flat[-1, 1:n + 1]
            env[0] = env[-1]
    return lam, flat[:, 1:n + 1].T, env


class _Basis:
    """The k slowest eigenpairs of S = D L D^-1 (n x k), their envelopes,
    and D."""

    def __init__(self, grid: Grid, w: float, k: int):
        # L's stencil over nodes 1..n is (diff - adv, -2 diff, diff + adv),
        # node 0 being the absorbing zero; at node n the zero-gradient ghost
        # folds super onto sub (2 diff).  S's bands and D follow from it.
        n, h = grid.n_cells, grid.h
        diff, adv = 0.5 * w / (h * h), 0.5 * w / h
        if not diff > adv:
            raise DomainError(
                f"{grid} has cell Peclet number h = {h:.6g}; the grid operator "
                "is symmetrizable only for h < 1: refine the grid")
        b, c = math.sqrt((diff - adv) * (diff + adv)), math.sqrt(2.0 * diff * (diff + adv))
        log_d = np.concatenate(([0.0], np.cumsum(0.5 * np.log(np.append(
            np.full(n - 2, (diff + adv) / (diff - adv)), (diff + adv) / (2.0 * diff))))))
        span = float(log_d.max() - log_d.min())
        if not span < _LOG_SCALE_MAX:
            raise DomainError(
                f"{grid}: the symmetrizing scale D ~ e^y spans e^{span:.1f}, beyond "
                f"the float exponent range (e^{_LOG_SCALE_MAX:.1f}); reduce y_max")
        self.lam, self.q, self.env = _modes(grid, k, diff, adv, b, c)
        self.k = k
        self.complete = k == grid.n_cells
        self.y_max = grid.y_max
        self.d = np.exp(log_d)
        self.inv_d = np.exp(-log_d)

    def project(self, fields: np.ndarray, t: float) -> np.ndarray:
        """Coefficients Q^T D u, a row for each row of node values in
        ``fields`` (node 0 is the absorbing zero), all of time t."""
        for values in fields:
            _check_health(values, t)
        return (self.d * fields[:, 1:]) @ self.q

    def readout(self, coefs: np.ndarray, times: Sequence[float]) -> tuple[np.ndarray, float]:
        """Node values D^-1 Q c, a row for each row c of ``coefs`` (a field of
        its time in ``times``), and the largest tail of the rows.  A field's
        values are checked once the basis resolves them, then clipped; a
        far-edge density above 1e-6 of the peak raises DomainError (see the
        docstring).  Each field is its own product with Q: BLAS rounds a
        column of a matrix product differently with the width of the batch,
        and a field must not depend on what it is read with."""
        n = self.q.shape[0]
        values = np.zeros((len(coefs), n + 1))
        worst = 0.0
        for row, coef, t in zip(values, coefs, times):
            mag = np.abs(coef)
            top = float(mag.max())
            if not math.isfinite(top):
                raise NumericalError(f"solver produced non-finite density at t = {t:.6g}")
            tail = 0.0
            if not self.complete and top > 0.0:
                tail = float(mag[:max(1, self.k // _TAIL_SHARE)].max()) / top
            worst = max(worst, tail)
            scaled = self.q @ coef                  # D u
            # D u within its rounding bound is noise, not density: zeroed, it is
            # no overshoot, and it cannot seed the never-decaying far-edge mode
            # after a shift (the bound takes each mode at its largest over the
            # row's block, so it does not dip where the mode crosses zero)
            bound = np.repeat(mag @ self.env, 64)[1:n + 1]
            scaled[np.abs(scaled) <= _NOISE * bound] = 0.0
            np.multiply(self.inv_d, scaled, out=row[1:])
            if tail <= _TAIL_TOL:
                _check_health(row, t)
                if row[-1] > 1e-6 * row.max():
                    raise DomainError(
                        f"the density at the far edge y_max = {self.y_max:g} is "
                        f"{row[-1] / row.max():.3e} of its peak at t = {t:.6g}: "
                        "the domain is too short for the horizon; enlarge y_max")
        # roundoff-scale negatives (inside the health tolerance) are shaved
        np.clip(values, 0.0, None, out=values)
        return values, worst


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


def _fitted(grid: Grid, w: float, evaluate):
    """``evaluate(basis) -> (result, tail)`` in the fewest modes, from
    _MODES_START doubling, whose tail is at most _TAIL_TOL; returns
    (result, modes, tail).  Only one basis is alive at a time."""
    k = min(grid.n_cells, _MODES_START)
    while True:
        result, tail = evaluate(_Basis(grid, w, k))
        if tail <= _TAIL_TOL or k == grid.n_cells:
            return result, k, tail
        k = min(grid.n_cells, 2 * k)


# ---------------------------------------------------------------------------
# the exact evolution, per mode
# ---------------------------------------------------------------------------

def solve(dp: DiffusionParams, grid: Grid, T: float, *,
          snapshot_times: Sequence[float] = ()) -> list[Field]:
    """Solve from the mollified delta at eps to each snapshot time and to T.

    Returns one field per snapshot time, ascending, then the field at T.  A
    snapshot is the end of a run to its time, read at exactly that time;
    t = 0 gives the start values, and a time outside [0, T] (beyond
    roundoff, which reads as T) raises.  The survivor count of a field is
    ``survivor_count(field, grid, dp)``.
    """
    dp.require_diffusive()
    _check_time(T, "T")
    times = sorted(float(s) for s in snapshot_times)
    for s in times:
        if not 0.0 <= s <= T + 1e-9 * max(1.0, T):
            raise DomainError(f"snapshot time {s!r} lies outside [0, T = {T!r}]")
    times = [min(s, T) for s in times] + [T]
    start = init_delta(grid, dp.eps)

    def evaluate(basis):
        coef = basis.project(start.values[None], 0.0)[0]
        later = [t for t in times if t > 0.0]
        values, tail = basis.readout(coef * np.exp(np.multiply.outer(later, basis.lam)),
                                     later)
        reads = iter(values)
        return [next(reads) if t > 0.0 else start.values.copy() for t in times], tail

    reads, modes, tail = _fitted(grid, dp.w, evaluate)
    fields = [Field(values=values, t=t, modes=modes, truncation=tail)
              for t, values in zip(times, reads)]
    for field in fields:
        field.absorbed = start.mass(grid) - field.mass(grid)
    return fields


def survivor_count(field: Field, grid: Grid, dp: DiffusionParams) -> float:
    """ln of the unmangled world count e^{(v - w/2) t} * integral of nu;
    -inf for an empty field."""
    m = field.mass(grid)
    if m <= 0.0:
        return -math.inf
    return math.log(m) + field.growth_log(dp)


def born_two_stage_counts(dp: DiffusionParams, grid: Grid, t1: float,
                          splits: Sequence[tuple[float, float]],
                          t2: float) -> list[float]:
    """Two-stage protocol, per (F, G) in ``splits``: evolve to t1, move every
    world down by |ln F| and multiply the count by G, evolve on to t1 + t2;
    returns the log survivor counts (the grid estimates of ln lambda).

    Stage one does not depend on the split, so it is solved once, and one
    eigenbasis serves stage one and every split: one readout at t1, one
    projection of the shifted profiles and one readout at t1 + t2.
    """
    dp.require_diffusive()
    log_splits = [split_params(F, G) for F, G in splits]
    _check_time(t1, "t1")
    _check_time(t2, "t2")
    for log_F, _ in log_splits:
        if -log_F >= 0.5 * grid.y_max:
            raise DomainError(
                f"|ln F| = {-log_F!r} is more than half of y_max = {grid.y_max!r}; "
                "enlarge the grid")
    start = init_delta(grid, dp.eps)
    shifts = any(log_F != 0.0 for log_F, _ in log_splits)

    def evaluate(basis):
        coef = basis.project(start.values[None], 0.0)[0]
        tail = 0.0
        restarts = iter(())
        if shifts:
            values_t1, tail = basis.readout((coef * np.exp(basis.lam * t1))[None], [t1])
            if tail > _TAIL_TOL:
                # a restart from the unresolved profile would seed the
                # far-edge mode with its error: first add modes
                return None, tail
            # stage two restarts from the shifted profiles; mass moved below
            # y = 0 is absorbed
            y = grid.nodes()
            shifted = np.array([np.interp(y - log_F, y, values_t1[0], right=0.0)
                                for log_F, _ in log_splits if log_F != 0.0])
            shifted[:, 0] = 0.0
            restarts = iter(basis.project(shifted, t1))
        # for F = 1 stage one's coefficients and time carry on, so F = 1,
        # G = 1 is the same expression as one solve to t1 + t2
        rows = [G * coef * np.exp(basis.lam * (t1 + t2)) if log_F == 0.0
                else G * next(restarts) * np.exp(basis.lam * t2)
                for log_F, G in log_splits]
        values, tail_two = basis.readout(np.array(rows), [t1 + t2] * len(rows))
        counts = [survivor_count(Field(values=v, t=t1 + t2), grid, dp) for v in values]
        return counts, max(tail, tail_two)

    return _fitted(grid, dp.w, evaluate)[0]


def suggested_grid(dp: DiffusionParams, T: float, *, max_abs_log_F: float = 0.0,
                   n_cells: int | None = None) -> Grid:
    """Grid for a run to time T, with
    y_max = eps + |ln F| + max(6 sqrt(w T), w T/4 + 16) + 1 (rounded up):
    room for the density's spread and for the count's decay against the
    far-edge mode, which keeps the far-edge density below ~1e-10 of the
    peak up to w T = 1000.  Unless given, n_cells is the smallest power of
    two from 2048 to 2^14 whose h = y_max / n_cells keeps :func:`init_delta`'s
    eps >= 4h (past 2^14 that check fails loudly instead)."""
    dp.require_diffusive()
    _check_time(T, "T")
    wT = dp.w * T
    y_max = float(math.ceil(dp.eps + max_abs_log_F
                            + max(6.0 * math.sqrt(wT), 0.25 * wT + 16.0) + 1.0))
    if n_cells is None:
        n_cells = 2048
        while 4.0 * (y_max / n_cells) > dp.eps and n_cells < 1 << 14:
            n_cells *= 2
    return Grid(y_max=y_max, n_cells=n_cells)
