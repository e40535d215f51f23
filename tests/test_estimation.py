import dataclasses
import warnings

import numpy as np
import pytest

from spindecoh.dynamics import Trajectory, sample_trajectory
from spindecoh.estimation import (
    EnsembleStats,
    InsufficientGridError,
    WindowError,
    decay_law,
    decay_model,
    fit_decay,
    fit_decoherence_law,
    fit_mean_level,
    run_ensemble,
    saturation_size,
    time_average,
)
from spindecoh.model import SystemConfig, build_system


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

    def test_degenerate_window(self):
        with pytest.raises(WindowError):
            fit_decay(synthetic_trajectory(1.0, 0.1), fit_window=(40.0, 40.05))

    def test_bounds_respected(self):
        fit = fit_decay(synthetic_trajectory(0.5, 0.45))
        assert fit.tau > 0.0
        assert 0.0 <= fit.c < 0.5


class TestRunEnsemble:
    CELL = SystemConfig(n_particles=6, dimension=3, density=1.0)

    def test_single_run(self):
        stats = run_ensemble(self.CELL, 1, master_seed=5)
        assert stats.u == 1
        assert stats.tau_mean == stats.runs[0].tau
        assert np.isnan(stats.tau_std)
        assert np.isnan(stats.xi_std)

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

    def test_rejects_bad_u(self):
        with pytest.raises(ValueError):
            run_ensemble(self.CELL, 0, master_seed=1)

    def test_eta_rescaling_halves_tau(self):
        # Doubling eta doubles every coupling; resampling the same systems on
        # a halved time grid gives exactly halved fitted taus.
        base = dataclasses.replace(self.CELL, eta=1.0)
        doubled = dataclasses.replace(self.CELL, eta=2.0)
        s1 = run_ensemble(base, 4, master_seed=3, dt=0.05, t_max=100.0)
        s2 = run_ensemble(doubled, 4, master_seed=3, dt=0.025, t_max=50.0,
                          t1=25.0, t2=50.0)
        for r1, r2 in zip(s1.runs, s2.runs):
            assert r2.tau == pytest.approx(r1.tau / 2.0, rel=1e-12)


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
        fit = fit_decoherence_law(self.synthetic_sweep())
        assert fit.s == pytest.approx(self.S, rel=1e-8)
        assert fit.q == pytest.approx(self.Q, rel=1e-5)
        assert fit.p == pytest.approx(self.P, rel=1e-5)
        assert fit.r == pytest.approx(self.R, rel=1e-5)
        assert fit.a == pytest.approx(1.27, rel=1e-6)
        assert fit.b == pytest.approx(0.02, rel=1e-6)
        assert fit.f == pytest.approx(0.03, rel=1e-6)
        assert fit.g == pytest.approx(0.015, rel=1e-6)

    def test_undefined_stderr_is_nan(self, monkeypatch):
        # A covariance diagonal entry that is not positive and finite has no
        # square root: its stderr is NaN, and no warning is raised.
        monkeypatch.setattr(np.linalg, "inv", lambda m: np.diag([-1.0, np.inf, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decoherence_law(self.synthetic_sweep())
        assert np.isnan(fit.p_stderr) and np.isnan(fit.q_stderr)
        assert np.isnan(fit.r_stderr) or fit.r_stderr > 0.0

    def test_insufficient_grid(self):
        sweep = [_fake_stats(n, 1.0, 0.1) for n in (10, 20, 50)]
        with pytest.raises(InsufficientGridError):
            fit_decoherence_law(sweep)

    def test_worked_example(self):
        # Electromagnetic-strength cell: N=100 in 0.01 m^3 at eta=2.2e6.
        tau = decay_law(100, 1e4, 2.2e6, self.P, self.Q, self.R, self.S)
        assert 1e-10 < tau < 4e-10
        assert 0.5 < tau / 2e-10 < 2.0


class TestSaturationSize:
    P, Q, R = 0.45, 0.55, 0.128

    def test_half_saturation(self):
        n = saturation_size(0.5, self.P, self.Q, self.R)
        exact = (self.P / self.R) ** (1 / self.Q)
        assert n == int(np.ceil(exact))

    def test_99_percent(self):
        n = saturation_size(0.99, self.P, self.Q, self.R)
        assert 2e4 < n < 8e4

    def test_monotone_in_accuracy(self):
        sizes = [saturation_size(f, self.P, self.Q, self.R)
                 for f in (0.5, 0.9, 0.99, 0.999)]
        assert sizes == sorted(sizes)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            saturation_size(1.0, self.P, self.Q, self.R)


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
