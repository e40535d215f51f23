import dataclasses
import functools
import warnings

import numpy as np
import pytest
from scipy import optimize, stats

from spindecoh import _trf, estimation
from spindecoh.dynamics import Trajectory, sample_trajectory
from spindecoh.estimation import (
    DecayFit,
    EnsembleStats,
    InsufficientGridError,
    WindowError,
    decay_law,
    decay_model,
    fit_decay,
    fit_decoherence_law,
    fit_mean_level,
    run_ensemble,
    scaling_cells,
    time_average,
)
from spindecoh.model import SystemConfig, build_system, derive_seed

from test_dynamics import traced_peak


def synthetic_trajectory(tau, c, dt=0.05, n=2001, noise=0.0, seed=0):
    t = dt * np.arange(n)
    y = decay_model(t, tau, c)
    if noise:
        rng = np.random.default_rng(seed)
        y = np.clip(y + (rng.random(n) - 0.5) * 2 * noise, 0.0, None)
    return Trajectory(times=t, xi=y)


class TestTimeAverage:
    def test_constant(self):
        tr = Trajectory(times=np.linspace(0, 100, 201), xi=np.full(201, 0.5))
        assert time_average(tr, 50, 100) == pytest.approx(0.5)

    def test_linear_ramp(self):
        tr = Trajectory(times=np.linspace(0, 1, 11), xi=np.linspace(0, 1, 11))
        assert time_average(tr, 0, 1) == pytest.approx(0.5)

    def test_off_grid_window(self):
        tr = Trajectory(times=np.linspace(0, 1, 11), xi=np.linspace(0, 2, 11))
        assert time_average(tr, 0.25, 0.75) == pytest.approx(1.0)

    def test_window_errors(self):
        tr = Trajectory(times=np.linspace(0, 10, 11), xi=np.zeros(11))
        with pytest.raises(WindowError):
            time_average(tr, 5, 15)
        with pytest.raises(WindowError):
            time_average(tr, 8, 3)
        # Grids of fewer than 2 samples hold no window.
        for n in (0, 1):
            with pytest.raises(WindowError, match=">= 2 samples"):
                time_average(Trajectory(np.zeros(n), np.full(n, 0.5)), 0, 1)


class TestFitDecay:
    @pytest.mark.parametrize("tau", [0.5, 2.5, 10.0])
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.4])
    def test_exact_recovery(self, tau, c):
        fit = fit_decay(synthetic_trajectory(tau, c))
        assert fit.converged
        assert fit.tau == pytest.approx(tau, rel=1e-6)
        assert fit.c == pytest.approx(c, abs=1e-6)
        assert fit.ssr < 1e-10

    def test_self_residual_tiny(self):
        fit = fit_decay(synthetic_trajectory(2.5, 0.1))
        assert fit.ssr < 1e-10

    def test_open_system_limit(self):
        # c -> 0 reduces the model to 0.5 * exp(-t / tau).
        t = 0.01 * np.arange(5000)
        tr = Trajectory(times=t, xi=0.5 * np.exp(-t / 3.0))
        fit = fit_decay(tr)
        assert fit.tau == pytest.approx(3.0, rel=1e-5)
        assert fit.c == pytest.approx(0.0, abs=1e-5)

    def test_explicit_window(self):
        fit = fit_decay(synthetic_trajectory(1.0, 0.2), fit_window=(0.0, 10.0))
        assert fit.tau == pytest.approx(1.0, rel=1e-6)

    def test_window_used_is_reported(self):
        traj = synthetic_trajectory(1.0, 0.2)
        fit = fit_decay(traj, fit_window=(0.0, 10.0))
        assert (fit.fit_lo, fit.fit_hi) == (0.0, 10.0)
        assert fit.n_iterations >= 1
        # A window past the end is clipped to the trajectory span.
        fit = fit_decay(traj, fit_window=(5.0, 500.0))
        assert (fit.fit_lo, fit.fit_hi) == (5.0, 100.0)
        # The auto window ends at min(20 tau0, 50); tau0 is near 1 here.
        fit = fit_decay(traj)
        assert fit.fit_lo == 0.0 and 15.0 < fit.fit_hi < 25.0

    def test_degenerate_window(self):
        with pytest.raises(WindowError):
            fit_decay(synthetic_trajectory(1.0, 0.1), fit_window=(40.0, 40.05))
        # Grids of fewer than 2 samples fail before any mean over no samples.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 1):
                with pytest.raises(WindowError, match=">= 2 samples"):
                    fit_decay(Trajectory(np.zeros(n), np.full(n, 0.5)))

    def test_stalled_fit_stops_without_warnings(self):
        # At dt = 7 this N = 3 fit drives tau to its 1e-12 floor: exp(-t / tau)
        # underflows, and the damped system is singular for every lam.
        system = build_system(SystemConfig(n_particles=3, rng_seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_decay(sample_trajectory(system, dt=7.0, t_max=98.0))
        assert fit.tau == 1e-12 and not fit.converged

    def test_overflowing_damping_stops_without_warnings(self):
        # On these 6 window samples the tau column has underflowed and every
        # step after the second is rejected (from the 21st solve on, the step
        # is not finite) until lam * scale overflows.
        system = build_system(SystemConfig(n_particles=5, dimension=3, density=5.0,
                                           rng_seed=32))
        traj = sample_trajectory(system, dt=1.0, t_max=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_decay(traj, fit_window=(0.0, 5.0))
        assert type(fit.tau) is float and np.isfinite([fit.tau, fit.c, fit.ssr]).all()
        assert not fit.converged and fit.n_iterations == 2

    def test_bounds_respected(self):
        fit = fit_decay(synthetic_trajectory(0.5, 0.45))
        assert fit.tau > 0.0
        assert 0.0 <= fit.c < 0.5

    @pytest.mark.xfail(strict=True, reason=(
        "with c clipped to its bound 0, the damped step keeps tau's coupled share "
        "and the relative-step test passes about 0.3% short of the optimum"))
    def test_converges_to_bound_optimum(self):
        # Member 0 of the N = 50 cell of the scaling sweep at program seed 1001.
        seed = derive_seed(derive_seed(1001, 1_000_002), 0)
        system = build_system(SystemConfig(n_particles=50, dimension=3, density=1.0,
                                           rng_seed=seed))
        traj = sample_trajectory(system, dt=0.05, t_max=100.0)
        fit = fit_decay(traj)
        assert fit.converged and fit.c == 0.0
        inside = (traj.times >= fit.fit_lo) & (traj.times <= fit.fit_hi)
        t, y = traj.times[inside], traj.xi[inside]
        best = optimize.minimize_scalar(
            lambda tau: float(((y - decay_model(t, tau, 0.0)) ** 2).sum()),
            bounds=(0.5 * fit.tau, 2.0 * fit.tau), method="bounded",
            options={"xatol": 1e-12})
        assert abs(fit.tau - best.x) <= 1e-6


class TestRunEnsemble:
    CELL = SystemConfig(n_particles=6, dimension=3, density=1.0)

    def test_single_run(self):
        stats = run_ensemble(self.CELL, 1, master_seed=5)
        assert stats.u == 1
        assert stats.tau_mean == stats.runs[0].fit.tau
        assert np.isnan(stats.tau_std)
        assert np.isnan(stats.xi_std)

    def test_records_fit_diagnostics(self):
        stats = run_ensemble(self.CELL, 3, master_seed=4, t_max=20.0, t1=10.0, t2=20.0,
                             fit_window=(0.0, 50.0))
        for rec in stats.runs:
            assert rec.fit.n_iterations >= 1
            assert (rec.fit.fit_lo, rec.fit.fit_hi) == (0.0, 20.0)

    def test_deterministic(self):
        s1 = run_ensemble(self.CELL, 5, master_seed=9)
        s2 = run_ensemble(self.CELL, 5, master_seed=9)
        assert s1 == s2

    def test_thread_count_irrelevant(self):
        s1 = run_ensemble(self.CELL, 6, master_seed=9, threads=1)
        s2 = run_ensemble(self.CELL, 6, master_seed=9, threads=4)
        assert s1 == s2

    def test_population_std_positive(self):
        stats = run_ensemble(self.CELL, 8, master_seed=2)
        assert stats.tau_std > 0.0
        assert stats.xi_std > 0.0

    def test_nonconvergence_names_members(self, monkeypatch):
        # One worker runs the members in index order, so the call count is
        # the member index.
        calls = []

        def fake_fit(traj, fit_window=None):
            calls.append(None)
            failed = len(calls) - 1 in (1, 3)
            return DecayFit(tau=1e-12 if failed else 1.0, c=0.1, ssr=0.0,
                            n_iterations=3 if failed else 200, converged=not failed,
                            fit_lo=0.0, fit_hi=10.0)

        monkeypatch.setattr(estimation, "fit_decay", fake_fit)
        with pytest.raises(RuntimeError) as exc:
            run_ensemble(self.CELL, 5, master_seed=9, t_max=10.0, t1=5.0, t2=10.0)
        msg = str(exc.value)
        assert msg.startswith("2/5 ensemble fits failed to converge")
        # Each failing member's fit shows why: here tau at its floor.
        for i in (1, 3):
            assert (f"run {i} (seed {derive_seed(9, i)}, tau 1e-12 on [0.0, 10.0], "
                    "3 iterations)") in msg
        for i in (0, 2, 4):
            assert f"run {i} " not in msg

    @pytest.mark.parametrize("window, message", [
        (dict(dt=0.3), "t2 <= tmax required"),  # last sample at 99.9
        (dict(t1=-10.0), "t1 >= t0 required"),
        (dict(t1=90.0, t2=80.0), "t1 < t2 required"),
        (dict(t1=float("nan")), "t1 < t2 required"),
        (dict(t2=float("inf")), "t2 <= tmax required"),
        (dict(fit_window=(20.0, 10.0)), "fit_window lo < hi required"),
        (dict(fit_window=(0.0, float("inf"))), "fit_window lo < hi required"),
        (dict(fit_window=(40.0, 40.05)), r"fit window \(40.0, 40.05\) holds 1 samples"),
        (dict(fit_window=(200.0, 300.0)), "holds 0 samples"),
        (dict(dt=30.0, t2=90.0), r"fit window \(0.0, 50.0\) holds 2 samples"),  # auto window
    ])
    def test_window_checked_before_members_run(self, monkeypatch, window, message):
        calls = []
        monkeypatch.setattr(estimation, "_xi", lambda *a, **k: calls.append(a))
        with pytest.raises(WindowError, match=message):
            run_ensemble(self.CELL, 4, master_seed=0, **window)
        assert calls == []

    def test_rejects_bad_u(self):
        with pytest.raises(ValueError):
            run_ensemble(self.CELL, 0, master_seed=1)

    def test_rejects_bad_threads_before_members_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(estimation, "_single_run", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            run_ensemble(self.CELL, 2, master_seed=1, threads=0)
        assert calls == []

    def test_auto_window_takes_three_samples(self):
        # No 1/e crossing gives tau0 = 1, and [0, 20 tau0] holds the samples
        # at 0 and 12 only: the window widens to the third sample at 24.
        stats = run_ensemble(SystemConfig(3, eta=1e-5), 2, 1, dt=12, t_max=96, t1=48, t2=96)
        for rec in stats.runs:
            assert (rec.fit.fit_lo, rec.fit.fit_hi) == (0.0, 24.0)
            assert rec.fit.converged

    def test_eta_rescaling_halves_tau(self):
        # Doubling eta doubles every coupling; resampling the same systems on
        # a halved time grid gives exactly halved fitted taus.
        base = dataclasses.replace(self.CELL, eta=1.0)
        doubled = dataclasses.replace(self.CELL, eta=2.0)
        s1 = run_ensemble(base, 4, master_seed=3, dt=0.05, t_max=100.0)
        s2 = run_ensemble(doubled, 4, master_seed=3, dt=0.025, t_max=50.0,
                          t1=25.0, t2=50.0)
        for r1, r2 in zip(s1.runs, s2.runs):
            assert r2.fit.tau == pytest.approx(r1.fit.tau / 2.0, rel=1e-12)


def whole_trajectory_records(cell, u, master_seed, dt=0.05, t_max=100.0, t1=50.0, t2=100.0,
                             fit_window=None):
    """Each member's record from its whole sampled trajectory."""
    records = []
    for i in range(u):
        seed = derive_seed(master_seed, i)
        traj = sample_trajectory(build_system(dataclasses.replace(cell, rng_seed=seed)),
                                 dt=dt, t_max=t_max)
        records.append(estimation.RunRecord(i, seed, fit_decay(traj, fit_window=fit_window),
                                            time_average(traj, t1, t2)))
    return tuple(records)


class TestMemberPasses:
    @pytest.mark.parametrize("cell, window, passes", [
        (SystemConfig(10), {}, 1),
        (SystemConfig(50), {}, 1),
        (SystemConfig(200), {}, 1),
        # The fit window reaches into skipped start chunks.
        (SystemConfig(50), dict(fit_window=(0.0, 40.0)), 2),
        # The 1/e crossing that gives tau0 (t = 17) falls in a skipped chunk.
        (SystemConfig(50, eta=0.01), dict(fit_window=(0.0, 5.0)), 2),
        # No 1/e crossing at all before the first skipped chunk.
        (SystemConfig(50, eta=1e-3), {}, 2),
        (SystemConfig(50), dict(t1=50.025), 1),  # off the grid: interpolated
        (SystemConfig(50), dict(dt=4.0), 1),  # 26 samples: one block
        (SystemConfig(50, amplitude_mode="random-complex"), {}, 1),
    ], ids=["n10", "n50", "n200", "fit-window-0-40", "crossing-skipped", "no-early-crossing",
            "t1-off-grid", "dt-4", "random-complex"])
    def test_records_match_whole_trajectory(self, monkeypatch, cell, window, passes):
        # Members evaluate only the start chunks their fit and average read,
        # in a second pass only when the first misses a sample the fit reads.
        calls = []

        def counted(*args):
            calls.append(None)
            return member_xi(*args)

        member_xi = estimation._xi
        monkeypatch.setattr(estimation, "_xi", counted)
        stats = run_ensemble(cell, 2, master_seed=7, **window)
        assert len(calls) == 2 * passes
        assert stats.runs == whole_trajectory_records(cell, 2, 7, **window)

    def test_second_pass_evaluates_only_what_the_fit_reads(self, monkeypatch):
        # The kernel evaluates runs of 270 samples (6 start chunks of 45).
        # Pass 1 holds t in [0, 13.45] and [40.5, 100]; the fit window (0, 20)
        # reaches into the next run only, so pass 2 evaluates 270 samples,
        # not all 540 that pass 1 skipped.
        evaluated = []

        def counted(*args):
            xi = member_xi(*args)
            evaluated.append(np.count_nonzero(~np.isnan(xi)))
            return xi

        member_xi = estimation._xi
        monkeypatch.setattr(estimation, "_xi", counted)
        window = dict(fit_window=(0.0, 20.0))
        stats = run_ensemble(SystemConfig(50), 2, master_seed=7, **window)
        assert evaluated[1] == 270
        assert stats.runs == whole_trajectory_records(SystemConfig(50), 2, 7, **window)

    def test_member_peak_memory(self):
        # A member holds the log sums of the start chunks it evaluates and one
        # (B, N) block of magnitudes, never a (T, N) array (8 N T bytes).
        n, samples = 200, 2001
        times = 0.05 * np.arange(samples)
        need = estimation._pass_one(times, 50.0, 100.0)
        peak = traced_peak(lambda: estimation._single_run(
            SystemConfig(n), 0, 7, times, need, 50.0, 100.0, None))
        assert peak <= 1.3 * 8 * n * samples


class TestMeanLevelFit:
    def test_exact_recovery(self):
        n = np.array([4, 6, 8, 10, 12])
        levels = 1.27 * np.exp(-0.43 * n)
        a, b = fit_mean_level(n, levels)
        assert a == pytest.approx(1.27, rel=1e-8)
        assert b == pytest.approx(0.43, rel=1e-8)

    def test_fluctuation_analog(self):
        n = np.array([4, 8, 12, 16])
        a, b = fit_mean_level(n, 0.03 * np.exp(-0.3 * n))
        assert a == pytest.approx(0.03, rel=1e-8)
        assert b == pytest.approx(0.3, rel=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_mean_level([4, 6], [0.1, 0.05])
        with pytest.raises(ValueError):
            fit_mean_level([4, 6, 8], [0.1, 0.0, 0.05])


def _fake_stats(n, rho, tau, xi_mean=0.01, xi_std=0.001, eta=1.0):
    cfg = SystemConfig(n_particles=n, dimension=3, density=rho, eta=eta)
    return EnsembleStats(
        config=cfg, u=30, tau_mean=tau, tau_std=0.01 * tau,
        xi_mean=xi_mean, xi_std=xi_std, runs=(),
    )


class TestScalingLaw:
    P, Q, R, S = 0.45, 0.55, 0.128, 0.67

    def synthetic_sweep(self):
        sweep = []
        for n in (10, 20, 50, 100, 200):
            tau = decay_law(n, 1.0, 1.0, self.P, self.Q, self.R, self.S)
            sweep.append(_fake_stats(
                n, 1.0, tau,
                xi_mean=1.27 * np.exp(-0.02 * n),
                xi_std=0.03 * np.exp(-0.015 * n),
            ))
        for rho in (0.5, 2.0, 5.0, 10.0):
            tau = decay_law(50, rho, 1.0, self.P, self.Q, self.R, self.S)
            sweep.append(_fake_stats(50, rho, tau))
        return sweep

    def test_recovers_exact_law(self):
        fit = fit_decoherence_law(self.synthetic_sweep(), 50, 1.0)
        assert fit.s == pytest.approx(self.S, rel=1e-8)
        assert fit.q == pytest.approx(self.Q, rel=1e-5)
        assert fit.p == pytest.approx(self.P, rel=1e-5)
        assert fit.r == pytest.approx(self.R, rel=1e-5)
        assert fit.a == pytest.approx(1.27, rel=1e-6)
        assert fit.b == pytest.approx(0.02, rel=1e-6)
        assert fit.f == pytest.approx(0.03, rel=1e-6)
        assert fit.g == pytest.approx(0.015, rel=1e-6)

    def test_stderr_needs_residual_dof(self):
        # Three N points fix (P, Q, R) exactly: no degree of freedom is left
        # for the residual variance, so the stderrs are NaN. Five keep them.
        five = fit_decoherence_law(self.synthetic_sweep(), 50, 1.0)
        assert np.all(np.isfinite([five.p_stderr, five.q_stderr, five.r_stderr]))
        three = [s for s in self.synthetic_sweep() if s.config.n_particles in (10, 50, 200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decoherence_law(three, 50, 1.0)
        assert np.isnan(fit.p_stderr) and np.isnan(fit.q_stderr) and np.isnan(fit.r_stderr)
        assert np.isfinite(fit.s_stderr)

    def test_undefined_stderr_is_nan(self, monkeypatch):
        # A covariance diagonal entry that is not positive and finite has no
        # square root: its stderr is NaN, and no warning is raised.
        monkeypatch.setattr(np.linalg, "inv", lambda m: np.diag([-1.0, np.inf, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decoherence_law(self.synthetic_sweep(), 50, 1.0)
        assert np.isnan(fit.p_stderr) and np.isnan(fit.q_stderr)
        assert np.isnan(fit.r_stderr) or fit.r_stderr > 0.0

    @pytest.mark.parametrize("densities", [
        (0.5, 2.0, 5.0, 10.0), (0.1, 0.3, 3.0), (0.2, 0.7, 4.0, 30.0, 90.0)])
    def test_density_exponent_matches_linregress(self, densities):
        rng = np.random.default_rng(len(densities))
        sweep = [s for s in self.synthetic_sweep() if s.config.density == 1.0]
        for rho in densities:
            tau = decay_law(50, rho, 1.0, self.P, self.Q, self.R, self.S)
            sweep.append(_fake_stats(50, rho, tau * np.exp(0.1 * rng.standard_normal())))
        rho_cells = [s for s in sweep if s.config.n_particles == 50]
        reg = stats.linregress(np.log([s.config.density for s in rho_cells]),
                               np.log([s.tau_mean for s in rho_cells]))
        fit = fit_decoherence_law(sweep, 50, 1.0)
        assert fit.s == pytest.approx(-reg.slope, rel=1e-12)
        assert fit.s_stderr == pytest.approx(reg.stderr, rel=1e-10)

    def test_insufficient_grid(self):
        sweep = [_fake_stats(n, 1.0, 0.1) for n in (10, 20, 50)]
        with pytest.raises(InsufficientGridError, match=r"n = 50, got N \[10, 20, 50\] "
                           r"and rho \[1.0\]$"):
            fit_decoherence_law(sweep, 50, 1.0)

    def test_grids_at_n_and_rho_not_most_common(self):
        # Six cells at rho = 2 outnumber the five at rho = 1; the grids are
        # still the cells at rho = 1 and the cells with N = 50.
        sweep = self.synthetic_sweep()
        tau = decay_law(50, 2.0, 1.0, self.P, self.Q, self.R, self.S)
        sweep += [_fake_stats(50, 2.0, tau) for _ in range(5)]
        fit = fit_decoherence_law(sweep, 50, 1.0)
        assert fit.s == pytest.approx(self.S, rel=1e-8)
        assert fit.q == pytest.approx(self.Q, rel=1e-5)
        assert fit.p == pytest.approx(self.P, rel=1e-5)
        assert fit.r == pytest.approx(self.R, rel=1e-5)
        assert fit.a == pytest.approx(1.27, rel=1e-6)
        assert fit.b == pytest.approx(0.02, rel=1e-6)

    def bound_sweep(self):
        # R = -0.05 lies outside the bound R >= 0, so the fit stops on it.
        sweep = [_fake_stats(n, 1.0, decay_law(n, 1.0, 1.0, 0.45, 0.3, -0.05, self.S))
                 for n in (10, 20, 50, 100, 200)]
        return sweep + [_fake_stats(50, rho, decay_law(50, rho, 1.0, 0.45, 0.3, -0.05, self.S))
                        for rho in (0.5, 2.0, 5.0)]

    @pytest.mark.parametrize("grid", ["five", "three", "bound"])
    def test_stage2_matches_scipy(self, monkeypatch, grid):
        # The numpy retrace stops where scipy's bounded TRF stops; only the
        # LAPACK builds behind their SVDs differ. A parameter on its bound
        # is compared absolutely.
        sweep = {"five": self.synthetic_sweep(),
                 "three": [s for s in self.synthetic_sweep()
                           if s.config.n_particles in (10, 50, 200)],
                 "bound": self.bound_sweep()}[grid]
        fit = fit_decoherence_law(sweep, 50, 1.0)

        def scipy_stage2(fun, x0):
            sol = optimize.least_squares(fun, x0, bounds=(0.0, np.inf))
            return sol.x, sol.fun, sol.jac, sol.status

        monkeypatch.setattr(_trf, "least_squares_nonneg", scipy_stage2)
        want = fit_decoherence_law(sweep, 50, 1.0)
        for name in ("p", "q", "r", "p_stderr", "q_stderr", "r_stderr"):
            assert getattr(fit, name) == pytest.approx(getattr(want, name), rel=1e-6,
                                                       abs=1e-12, nan_ok=True), name
        if grid == "three":
            assert np.isnan([fit.p_stderr, fit.q_stderr, fit.r_stderr]).all()
        if grid == "bound":
            assert 0.0 < fit.r < 1e-12 and want.r < 1e-12

    def test_stage2_budget_spent_raises(self, monkeypatch):
        # Status 0: the evaluations ran out before a tolerance was met.
        monkeypatch.setattr(_trf, "least_squares_nonneg",
                            functools.partial(_trf.least_squares_nonneg, max_nfev=3))
        with pytest.raises(RuntimeError, match="^stage-2 scaling fit failed: The maximum "
                           "number of function evaluations is exceeded.$"):
            fit_decoherence_law(self.synthetic_sweep(), 50, 1.0)

    def test_worked_example(self):
        # Electromagnetic-strength cell: N=100 in 0.01 m^3 at eta=2.2e6.
        tau = decay_law(100, 1e4, 2.2e6, self.P, self.Q, self.R, self.S)
        assert 1e-10 < tau < 4e-10
        assert 0.5 < tau / 2e-10 < 2.0


class TestScalingCells:
    BASE = SystemConfig(n_particles=50, dimension=3, density=1.0)

    def cells(self, *pairs):
        return [dataclasses.replace(self.BASE, n_particles=n, density=rho) for n, rho in pairs]

    def test_n_in_n_list(self):
        # The base cell (50, 1.0) is an N-cell, so rho_list's 1 adds none.
        plan = scaling_cells(self.BASE, (10, 20, 50, 100, 200), (0.5, 1.0, 2.0, 5.0, 10.0))
        assert plan == self.cells((10, 1.0), (20, 1.0), (50, 1.0), (100, 1.0), (200, 1.0),
                                  (50, 0.5), (50, 2.0), (50, 5.0), (50, 10.0))

    def test_n_outside_n_list(self):
        plan = scaling_cells(self.BASE, (10, 20, 30), (0.5, 1.0, 2.0))
        assert plan == self.cells((10, 1.0), (20, 1.0), (30, 1.0),
                                  (50, 0.5), (50, 1.0), (50, 2.0))

    def test_base_cell_completes_both_grids(self):
        plan = scaling_cells(self.BASE, (10, 20), (0.5, 1.0, 2.0))
        assert plan == self.cells((10, 1.0), (20, 1.0), (50, 0.5), (50, 1.0), (50, 2.0))

    def test_repeated_entries_are_kept(self):
        plan = scaling_cells(self.BASE, (10, 20, 30), (2.0, 2.0, 0.5, 5.0))
        assert plan == self.cells((10, 1.0), (20, 1.0), (30, 1.0),
                                  (50, 2.0), (50, 2.0), (50, 0.5), (50, 5.0))

    @pytest.mark.parametrize("n, n_list, rho_list", [
        (10, (10, 10, 20), (0.5, 1.0, 2.0)),  # N {10, 20} at rho = 1
        (50, (10, 20, 30), (2.0, 2.0, 5.0)),  # densities {2, 5} at n = 50
        (50, (), ()),
    ])
    def test_short_grid_raises(self, n, n_list, rho_list):
        base = dataclasses.replace(self.BASE, n_particles=n)
        with pytest.raises(InsufficientGridError, match=f"at n = {n}, got N "):
            scaling_cells(base, n_list, rho_list)


class TestExactMeanLevel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 8])
    def test_equal_superposition_mean_level(self, n, seed):
        # With p = q = 1/2 each factor is |cos(2 g_lk t)|, whose time mean is
        # 2/pi; for rationally independent couplings the product averages to
        # the product of the means, so <Xi> = (1/2) (2/pi)^(N-1) exactly.
        stats = run_ensemble(SystemConfig(n_particles=n), 30, master_seed=seed)
        exact = 0.5 * (2.0 / np.pi) ** (n - 1)
        assert abs(stats.xi_mean - exact) <= 4.0 * stats.xi_std / np.sqrt(stats.u)


class TestMonotonicity:
    def test_tau_decreases_with_n_and_rho(self):
        # Monotone within one ensemble standard deviation.
        by_n = [
            run_ensemble(SystemConfig(n_particles=n), 16, master_seed=21)
            for n in (8, 16, 32)
        ]
        for lo, hi in zip(by_n[1:], by_n):
            assert lo.tau_mean < hi.tau_mean + hi.tau_std
        by_rho = [
            run_ensemble(SystemConfig(n_particles=16, density=rho), 16,
                         master_seed=22)
            for rho in (0.5, 2.0, 8.0)
        ]
        for lo, hi in zip(by_rho[1:], by_rho):
            assert lo.tau_mean < hi.tau_mean + hi.tau_std
