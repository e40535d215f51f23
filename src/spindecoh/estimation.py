"""Statistical layer: decay fits, time averages, ensembles, scaling laws.

Each trajectory's early decay is fitted with

    xi_fit(t) = (0.5 - c) * exp(-t / tau) + c,

tau being the decoherence time of that run. Ensembles of U independent
systems per parameter cell give (mean, std) of tau and of the long-time
average <Xi>, and sweeps over N and rho are reduced to the scaling law

    tau_d = (1/eta) * (P / N**Q + R) * rho**(-S)

and the mean-level law <Xi>(N) = A * exp(-B * N).
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .dynamics import Trajectory, _grid_size, _time_grid, sample_trajectory
from .model import SystemConfig, build_system, derive_seed

MAX_FIT_ITERATIONS = 200
FIT_PARAM_TOL = 1e-8

# Auto fit window is [0, min(AUTO_WINDOW_FACTOR * tau0, AUTO_WINDOW_CAP)];
# the fluctuation model only holds for small t.
AUTO_WINDOW_FACTOR = 20.0
AUTO_WINDOW_CAP = 50.0

# Fraction of trailing samples used for the asymptotic-level initial guess.
TAIL_FRACTION = 0.25

MAX_NONCONVERGED_FRACTION = 0.2


class WindowError(ValueError):
    """Requested time window is not covered by the trajectory."""


class InsufficientGridError(ValueError):
    """Parameter sweep lacks the grids needed for a scaling fit."""


@dataclass(frozen=True)
class DecayFit:
    """Result of fitting xi_fit(t) = (0.5 - c) exp(-t/tau) + c to one run
    over the window [fit_lo, fit_hi], clipped to the trajectory span."""

    tau: float
    c: float
    ssr: float
    n_iterations: int
    converged: bool
    fit_lo: float
    fit_hi: float


@dataclass(frozen=True)
class RunRecord:
    """Per-run outcome inside an ensemble: the member's decay fit, with its
    diagnostics, and its long-time average of Xi."""

    index: int
    seed: int
    fit: DecayFit
    xi_avg: float


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble summary for one parameter cell (population std over runs)."""

    config: SystemConfig
    u: int
    tau_mean: float
    tau_std: float
    xi_mean: float
    xi_std: float
    runs: tuple[RunRecord, ...]


@dataclass(frozen=True)
class ScalingFit:
    """Fitted scaling constants across a parameter sweep."""

    p: float
    q: float
    r: float
    s: float
    p_stderr: float
    q_stderr: float
    r_stderr: float
    s_stderr: float
    a: float | None = None
    b: float | None = None
    f: float | None = None
    g: float | None = None


def decay_model(t: np.ndarray, tau: float, c: float) -> np.ndarray:
    """Exponential relaxation toward level c from the initial value 0.5."""
    return (0.5 - c) * np.exp(-np.asarray(t, dtype=float) / tau) + c


def decay_law(n: float, rho: float, eta: float,
              p: float, q: float, r: float, s: float) -> float:
    """Decoherence time predicted by the fitted scaling law."""
    return (1.0 / eta) * (p / n**q + r) * rho ** (-s)


def _check_windows(times: np.ndarray, average=None, fit=None) -> np.ndarray | None:
    """The window rule on the sample grid `times`: an averaging window
    (t1, t2) needs times[0] <= t1 < t2 <= times[-1] within 1e-9 of a step
    (so no entry is NaN or infinite); a fit window (lo, hi) needs finite
    lo < hi and >= 3 samples once hi is clipped to times[-1]. Raises
    WindowError; returns the fit window's sample mask (None without one)."""
    if average is not None:
        t1, t2 = average
        tol = 1e-9 * (times[1] - times[0])
        if not t1 < t2:
            raise WindowError(f"t1 < t2 required, got t1={t1}, t2={t2}")
        if t1 < times[0] - tol:
            raise WindowError(f"t1 >= t0 required, got t1={t1}, first sample at {times[0]}")
        if t2 > times[-1] + tol:
            raise WindowError(f"t2 <= tmax required, got t2={t2}, last sample at {times[-1]}")
    if fit is not None:
        if not (np.all(np.isfinite(fit)) and fit[0] < fit[1]):
            raise WindowError(f"fit_window lo < hi required, both finite, got {fit}")
        mask = (times >= fit[0]) & (times <= fit[1])
        if np.count_nonzero(mask) < 3:
            raise WindowError(f"fit window {fit} holds {np.count_nonzero(mask)} samples (< 3)")
        return mask


def time_average(trajectory: Trajectory, t1: float, t2: float) -> float:
    """Trapezoidal time average of Xi over [t1, t2].

    Window endpoints off the sample grid are linearly interpolated, so the
    average is exact for piecewise-linear data.
    """
    times, values = trajectory.times, trajectory.xi
    _check_windows(times, average=(t1, t2))
    t1 = max(t1, float(times[0]))
    t2 = min(t2, float(times[-1]))
    inside = (times > t1) & (times < t2)
    nodes = np.concatenate(([t1], times[inside], [t2]))
    vals = np.concatenate(
        ([np.interp(t1, times, values)], values[inside], [np.interp(t2, times, values)])
    )
    return float(np.trapezoid(vals, nodes) / (t2 - t1))


def _initial_guess(trajectory: Trajectory) -> tuple[float, float]:
    xi_vals = trajectory.xi
    n_tail = max(1, int(TAIL_FRACTION * xi_vals.size))
    c0 = float(np.clip(xi_vals[-n_tail:].mean(), 0.0, 0.499))
    level = c0 + (0.5 - c0) / np.e
    below = np.nonzero(xi_vals <= level)[0]
    tau0 = float(trajectory.times[below[0]]) if below.size else 1.0
    if tau0 <= 0.0:
        tau0 = 1.0
    return tau0, c0


def fit_decay(
    trajectory: Trajectory, fit_window: tuple[float, float] | None = None
) -> DecayFit:
    """Fit the decay model to a trajectory by damped Gauss-Newton.

    With fit_window=None the window is [0, min(20 * tau0, 50)] where tau0
    is the 1/e-crossing initial guess. Bounds: tau > 0, 0 <= c < 0.5.
    """
    tau0, c0 = _initial_guess(trajectory)
    if fit_window is None:
        fit_window = (0.0, min(AUTO_WINDOW_FACTOR * tau0, AUTO_WINDOW_CAP))
    mask = _check_windows(trajectory.times, fit=fit_window)
    t = trajectory.times[mask]
    y = trajectory.xi[mask]

    tau, c = tau0, c0
    resid = y - decay_model(t, tau, c)
    ssr = float(resid @ resid)
    lam = None
    nu = 2.0
    converged = False
    iterations = 0
    for iterations in range(1, MAX_FIT_ITERATIONS + 1):
        e = np.exp(-t / tau)
        jac = np.column_stack([(0.5 - c) * (t / tau**2) * e, 1.0 - e])
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        # Marquardt scaling keeps the iteration covariant under exact
        # rescalings of the time axis (eta doubling <-> grid halving).
        scale = np.diag(np.diag(jtj))
        if lam is None:
            lam = 1e-3
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(jtj + lam * scale, jtr)
            except np.linalg.LinAlgError:
                # Singular for every lam: the tau column of the Jacobian is
                # zero once exp(-t / tau) underflows at its floor.
                break
            tau_new = max(tau + step[0], 1e-12)
            c_new = float(np.clip(c + step[1], 0.0, 0.5 - 1e-12))
            resid_new = y - decay_model(t, tau_new, c_new)
            ssr_new = float(resid_new @ resid_new)
            predicted = float(step @ (lam * (scale @ step) + jtr))
            gain = (ssr - ssr_new) / predicted if predicted > 0 else -1.0
            if ssr_new <= ssr:
                # Nielsen's damping update: shrink lam on good gain ratios.
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
                accepted = True
                break
            lam *= nu
            nu *= 2.0
        if not accepted:
            break
        rel_change = max(
            abs(tau_new - tau) / max(abs(tau), 1e-300),
            abs(c_new - c) / max(abs(c), 1e-3),
        )
        tau, c, resid, ssr = tau_new, c_new, resid_new, ssr_new
        if rel_change < FIT_PARAM_TOL:
            converged = True
            break
    # A stalled step at an exact optimum still counts as converged.
    if not converged and ssr < 1e-18:
        converged = True
    return DecayFit(tau=tau, c=c, ssr=ssr, n_iterations=iterations, converged=converged,
                    fit_lo=float(fit_window[0]),
                    fit_hi=min(float(fit_window[1]), float(trajectory.times[-1])))


def _single_run(
    cell: SystemConfig,
    index: int,
    master_seed: int,
    dt: float,
    n_samples: int,
    t1: float,
    t2: float,
    fit_window: tuple[float, float] | None,
) -> RunRecord:
    seed = derive_seed(master_seed, index)
    system = build_system(dataclasses.replace(cell, rng_seed=seed))
    traj = sample_trajectory(system, dt=dt, n_samples=n_samples)
    return RunRecord(index=index, seed=seed, fit=fit_decay(traj, fit_window=fit_window),
                     xi_avg=time_average(traj, t1, t2))


def run_ensemble(
    cell: SystemConfig,
    u: int,
    master_seed: int,
    dt: float = 0.05,
    t_max: float = 100.0,
    t1: float = 50.0,
    t2: float = 100.0,
    fit_window: tuple[float, float] | None = None,
    threads: int = 1,
) -> EnsembleStats:
    """Simulate U independent systems for one parameter cell and aggregate.

    Member seeds derive from (master_seed, run index), so the result is
    deterministic and independent of the thread count. The windows are
    checked on the members' time grid before any member runs.
    """
    if u < 1:
        raise ValueError(f"ensemble size must be >= 1, got {u}")
    n_samples = _grid_size(t_max, dt)
    # Every auto fit window [0, min(20 tau0, 50)] lies inside (0, AUTO_WINDOW_CAP):
    # if that holds too few samples, every member's fit would fail.
    largest_fit = (0.0, AUTO_WINDOW_CAP) if fit_window is None else fit_window
    _check_windows(_time_grid(dt, n_samples, cell.n_particles), average=(t1, t2), fit=largest_fit)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        runs = list(pool.map(
            lambda i: _single_run(cell, i, master_seed, dt, n_samples, t1, t2, fit_window),
            range(u),
        ))
    bad = [rec for rec in runs if not rec.fit.converged]
    if len(bad) > MAX_NONCONVERGED_FRACTION * u:
        members = ", ".join(
            f"run {r.index} (seed {r.seed}, tau {r.fit.tau:.6g} on [{r.fit.fit_lo}, "
            f"{r.fit.fit_hi}], {r.fit.n_iterations} iterations)" for r in bad)
        raise RuntimeError(f"{len(bad)}/{u} ensemble fits failed to converge: {members}")
    taus = np.array([rec.fit.tau for rec in runs])
    avgs = np.array([rec.xi_avg for rec in runs])
    return EnsembleStats(
        config=cell,
        u=u,
        tau_mean=float(taus.mean()),
        tau_std=float(taus.std()) if u >= 2 else float("nan"),
        xi_mean=float(avgs.mean()),
        xi_std=float(avgs.std()) if u >= 2 else float("nan"),
        runs=tuple(runs),
    )


def fit_mean_level(n_values, levels) -> tuple[float, float]:
    """Fit level(N) = A exp(-B N) by linear regression of ln(level) on N."""
    n_values = np.asarray(n_values, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if n_values.size < 3:
        raise ValueError(f"need at least 3 points, got {n_values.size}")
    if np.any(levels <= 0.0):
        raise ValueError("levels must be positive for a log-linear fit")
    slope, intercept = np.polyfit(n_values, np.log(levels), 1)
    return float(np.exp(intercept)), float(-slope)


def _grids(configs: list[SystemConfig], n: int, rho: float) -> tuple[list[int], list[int]]:
    """The indices of the N-grid (cells at density rho) and of the density
    grid (cells with n particles), in the order given; InsufficientGridError
    unless they hold >= 3 distinct N and >= 3 distinct densities."""
    n_grid = [i for i, c in enumerate(configs) if c.density == rho]
    rho_grid = [i for i, c in enumerate(configs) if c.n_particles == n]
    n_found = sorted({configs[i].n_particles for i in n_grid})
    rho_found = sorted({configs[i].density for i in rho_grid})
    if min(len(n_found), len(rho_found)) < 3:
        raise InsufficientGridError(
            f"the scaling fit needs >= 3 distinct N at rho = {rho} and >= 3 distinct "
            f"densities at n = {n}, got N {n_found} and rho {rho_found}")
    return n_grid, rho_grid


def scaling_cells(base: SystemConfig, n_list, rho_list) -> list[SystemConfig]:
    """One cell per n_list entry at base.density, then one per rho_list
    entry at base.n_particles unless it repeats the base cell as an N-cell;
    InsufficientGridError, before anything runs, unless the grids hold."""
    cells = [dataclasses.replace(base, n_particles=n) for n in n_list]
    cells += [dataclasses.replace(base, density=rho) for rho in rho_list
              if rho != base.density or base.n_particles not in n_list]
    _grids(cells, base.n_particles, base.density)
    return cells


def fit_decoherence_law(sweep: list[EnsembleStats], n: int, rho: float) -> ScalingFit:
    """Two-stage fit of tau_d = (1/eta)(P/N**Q + R) rho**(-S) over a sweep.

    Stage 1 extracts S from log-log regression of tau vs rho over the
    cells with n particles; stage 2 fits (P, Q, R) to the density-corrected
    taus over the cells at density rho (the N grid). The mean-level
    constants (A, B) and fluctuation constants (F, G) are fitted from the
    same N grid when the data allow it.
    """
    n_idx, rho_idx = _grids([s.config for s in sweep], n, rho)
    n_grid, rho_grid = [sweep[i] for i in n_idx], [sweep[i] for i in rho_idx]

    log_rho = np.log([s.config.density for s in rho_grid])
    log_tau = np.log([s.tau_mean for s in rho_grid])
    slope, intercept = np.polyfit(log_rho, log_tau, 1)
    resid = log_tau - (slope * log_rho + intercept)
    s_exp = float(-slope)
    s_stderr = float(np.sqrt(
        resid @ resid / (log_rho.size - 2) / ((log_rho - log_rho.mean()) ** 2).sum()))

    n_vals = np.array([float(s.config.n_particles) for s in n_grid])
    eta = n_grid[0].config.eta
    corrected = np.array(
        [s.tau_mean * eta * s.config.density**s_exp for s in n_grid]
    )

    def residuals(theta):
        p, q, r = theta
        return p / n_vals**q + r - corrected

    r0 = float(corrected.min())
    p0 = max(float(corrected.max() - r0), 1e-3) * float(n_vals.min()) ** 0.5
    sol = optimize.least_squares(
        residuals, x0=[p0, 0.5, max(r0, 1e-6)],
        bounds=([0.0, 0.0, 0.0], [np.inf, np.inf, np.inf]),
    )
    if not sol.success:
        raise RuntimeError(f"stage-2 scaling fit failed: {sol.message}")
    p, q, r = (float(v) for v in sol.x)
    # A stderr is undefined (NaN) without a residual degree of freedom (3 N
    # points for 3 parameters) or where an ill-conditioned inverse leaves
    # its diagonal entry negative.
    dof = n_vals.size - 3
    resid_var = float(sol.fun @ sol.fun) / dof if dof > 0 else float("nan")
    try:
        cov = resid_var * np.linalg.inv(sol.jac.T @ sol.jac)
        var = np.diag(cov)
        p_err, q_err, r_err = (
            float(np.sqrt(v)) if np.isfinite(v) and v > 0.0 else float("nan")
            for v in var
        )
    except np.linalg.LinAlgError:
        p_err = q_err = r_err = float("nan")

    a = b = f = g = None
    xi_means = np.array([s.xi_mean for s in n_grid])
    if np.all(xi_means > 0.0):
        a, b = fit_mean_level(n_vals, xi_means)
    xi_stds = np.array([s.xi_std for s in n_grid])
    if np.all(np.isfinite(xi_stds)) and np.all(xi_stds > 0.0):
        f, g = fit_mean_level(n_vals, xi_stds)

    return ScalingFit(
        p=p, q=q, r=r, s=s_exp,
        p_stderr=p_err, q_stderr=q_err, r_stderr=r_err, s_stderr=s_stderr,
        a=a, b=b, f=f, g=g,
    )
