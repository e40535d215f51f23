import warnings

import numpy as np
import pytest

from spindecoh.dynamics import (
    coherence,
    coherence_magnitudes,
    eigenvalue_pair,
    entropy_total,
    particle_entropies,
    sample_trajectory,
    xi,
    xi_subset,
    y_complement,
)
from spindecoh.model import SystemConfig, build_system
from spindecoh import oracle

from test_model import make_custom_system


def random_system(n, seed, dim=3, amplitude_mode="equal-superposition"):
    return build_system(SystemConfig(
        n_particles=n, dimension=dim, density=1.0,
        amplitude_mode=amplitude_mode, rng_seed=seed,
    ))


class TestCoherence:
    def test_initial_value(self):
        s = random_system(5, seed=1, amplitude_mode="random-complex")
        for l in range(5):
            expected = s.amp_a[l] * np.conj(s.amp_b[l])
            assert coherence(s, l, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_two_particle_cosine(self):
        s = random_system(2, seed=3)
        g = s.couplings[0, 1]
        for t in (0.3, 1.7, 4.0):
            assert abs(coherence(s, 0, t)) == pytest.approx(
                0.5 * abs(np.cos(2 * g * t)), abs=1e-14
            )
        assert abs(coherence(s, 0, np.pi / (4 * g))) < 1e-13

    def test_matches_oracle_n6(self):
        s = random_system(6, seed=11)
        t = 3.7
        state = oracle.evolve(s, t)
        for l in range(6):
            rho = oracle.reduce_particle(state, l)
            assert abs(coherence(s, l, t)) == pytest.approx(
                abs(rho[0, 1]), abs=1e-10
            )

    def test_index_range(self):
        s = random_system(3, seed=1)
        with pytest.raises(IndexError):
            coherence(s, 3, 0.0)

    def test_fast_path_matches_general(self):
        # |z_l| from the vectorized cos fast path equals the complex product.
        s = random_system(8, seed=21)
        times = np.array([0.0, 0.4, 2.9, 17.3])
        mags = coherence_magnitudes(s, times)
        for i, t in enumerate(times):
            for l in range(8):
                assert mags[i, l] == pytest.approx(
                    abs(coherence(s, l, t)), abs=1e-12
                )


class TestXi:
    def test_initial_ceiling(self):
        s = random_system(9, seed=2)
        assert xi(s, 0.0) == pytest.approx(0.5, abs=1e-13)

    def test_single_particle_constant(self):
        s = random_system(1, seed=4, amplitude_mode="random-complex")
        level = abs(s.amp_a[0] * np.conj(s.amp_b[0]))
        for t in (0.0, 1.0, 50.0):
            assert xi(s, t) == pytest.approx(level, abs=1e-14)

    def test_decays_from_ceiling(self):
        cfg = SystemConfig(n_particles=9, coupling_mode="uniform-random", rng_seed=6)
        s = build_system(cfg)
        late = [xi(s, t) for t in np.linspace(20, 60, 9)]
        assert max(late) < 0.25

    def test_subset_full_equals_xi(self):
        s = random_system(6, seed=7)
        t = 2.2
        assert xi_subset(s, range(6), t) == pytest.approx(xi(s, t), abs=1e-14)

    def test_subset_single(self):
        s = random_system(2, seed=8)
        g = s.couplings[0, 1]
        t = 1.3
        assert xi_subset(s, [0], t) == pytest.approx(
            0.5 * abs(np.cos(2 * g * t)), abs=1e-14
        )

    def test_subset_bounds(self):
        s = random_system(5, seed=9)
        for sub in ([0, 1], [2, 3, 4]):
            v = xi_subset(s, sub, 3.1)
            assert 0.0 <= v <= 0.5 + 1e-14

    def test_empty_subset_rejected(self):
        s = random_system(4, seed=9)
        with pytest.raises(ValueError):
            xi_subset(s, [], 1.0)

    def test_complement(self):
        s = random_system(6, seed=10)
        assert y_complement(s, 0.0) == pytest.approx(0.0, abs=1e-13)
        t = 4.4
        assert y_complement(s, t) == pytest.approx(0.5 - xi(s, t), abs=1e-13)
        assert y_complement(s, t) >= 0.0


class TestEigenvalues:
    def test_pure_state(self):
        lp, lm = eigenvalue_pair(1 / np.sqrt(2), 1 / np.sqrt(2), 0.5)
        assert (lp, lm) == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_fully_mixed(self):
        # The square root is ill-conditioned at the degenerate point, so the
        # achievable accuracy is ~sqrt(eps).
        lp, lm = eigenvalue_pair(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
        assert (lp, lm) == pytest.approx((0.5, 0.5), abs=1e-7)

    def test_matches_direct_diagonalization(self):
        s = random_system(6, seed=12, amplitude_mode="random-complex")
        t = 2.9
        for l in range(6):
            a, b = s.amp_a[l], s.amp_b[l]
            z = coherence(s, l, t)
            rho = np.array([[abs(a) ** 2, z], [np.conj(z), abs(b) ** 2]])
            direct = np.linalg.eigvalsh(rho)
            lp, lm = eigenvalue_pair(a, b, z)
            assert lp == pytest.approx(direct[1], abs=1e-12)
            assert lm == pytest.approx(direct[0], abs=1e-12)

    def test_rejects_invalid_radicand(self):
        with pytest.raises(ValueError):
            eigenvalue_pair(1 / np.sqrt(2), 1 / np.sqrt(2), 0.6)


class TestEntropy:
    def test_zero_at_start(self):
        s = random_system(8, seed=13, amplitude_mode="random-complex")
        assert entropy_total(s, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_saturated_value(self):
        s = random_system(5, seed=14)
        sat = particle_entropies(s, np.zeros(5)).sum()
        assert sat == pytest.approx(5 * np.log(2), abs=1e-13)

    def test_mirror_extremes(self):
        s = random_system(3, seed=15)
        assert particle_entropies(s, np.full(3, 0.5)).max() < 1e-12
        assert particle_entropies(s, np.zeros(3)) == pytest.approx(
            np.full(3, np.log(2)), abs=1e-13
        )


class TestTrajectory:
    def test_grid_span(self):
        s = random_system(4, seed=16)
        traj = sample_trajectory(s, dt=0.05, n_samples=2001)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(100.0)
        assert traj.dt == pytest.approx(0.05)

    def test_first_sample(self):
        s = random_system(4, seed=17)
        traj = sample_trajectory(s, dt=0.1, n_samples=5)
        assert traj.xi[0] == pytest.approx(xi(s, 0.0), abs=1e-14)

    def test_coherence_channel(self):
        s = random_system(5, seed=18, amplitude_mode="random-complex")
        traj = sample_trajectory(s, dt=0.7, n_samples=6, include_coherences=True)
        for i, t in enumerate(traj.times):
            for l in range(5):
                assert traj.coherences[i, l] == pytest.approx(
                    abs(coherence(s, l, t)), abs=1e-12
                )

    def test_entropy_channel(self):
        s = random_system(5, seed=18)
        traj = sample_trajectory(s, dt=0.7, n_samples=6, include_entropy=True)
        for i, t in enumerate(traj.times):
            assert traj.entropy[i] == pytest.approx(entropy_total(s, t), abs=1e-12)

    def test_allocation_guard(self):
        s = random_system(10, seed=19)
        with pytest.raises(ValueError):
            sample_trajectory(s, dt=0.05, n_samples=100, max_elements=500)

    def test_input_validation(self):
        s = random_system(3, seed=19)
        with pytest.raises(ValueError):
            sample_trajectory(s, dt=0.0, n_samples=10)
        with pytest.raises(ValueError):
            sample_trajectory(s, dt=0.1, n_samples=1)


class TestInvariants:
    def test_coherence_bound(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            s = random_system(6, seed=seed, amplitude_mode="random-complex")
            ceilings = np.abs(s.amp_a * np.conj(s.amp_b))
            times = rng.random(5) * 100
            mags = coherence_magnitudes(s, times)
            assert np.all(mags <= ceilings[None, :] + 1e-12)

    def test_xi_never_exceeds_initial(self):
        s = random_system(7, seed=30)
        x0 = xi(s, 0.0)
        for t in np.linspace(0, 80, 17):
            assert xi(s, t) <= x0 + 1e-12

    def test_factor_modulus_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            w = rng.random()
            g, t = rng.random() * 3, rng.random() * 50
            factor = w * np.exp(-2j * g * t) + (1 - w) * np.exp(2j * g * t)
            assert abs(factor) <= 1.0 + 1e-14

    def test_equal_superposition_closed_form(self):
        # Xi(t) = (1/2N) sum_i prod_{j != i} |cos(2 g_ij t)| must agree with
        # the general complex-product evaluation.
        s = random_system(6, seed=33)
        g = s.couplings
        for t in (0.3, 2.1, 9.7):
            total = 0.0
            for i in range(6):
                prod = 1.0
                for j in range(6):
                    if j != i:
                        prod *= abs(np.cos(2 * g[i, j] * t))
                total += prod
            closed = total / (2 * 6)
            general = np.mean([abs(coherence(s, l, t)) for l in range(6)])
            assert closed == pytest.approx(general, abs=1e-12)

    def test_rational_couplings_periodicity(self):
        # All couplings multiples of g0 = 0.25 make Xi exactly periodic with
        # period pi / g0.
        g0 = 0.25
        g = np.array([
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 3.0],
            [2.0, 3.0, 0.0],
        ]) * g0
        s = make_custom_system(g)
        period = np.pi / g0
        assert xi(s, period) == pytest.approx(xi(s, 0.0), abs=1e-12)
        assert xi(s, 3 * period + 1.3) == pytest.approx(xi(s, 1.3), abs=1e-12)

    def test_oracle_equivalence_small_n(self):
        rng = np.random.default_rng(40)
        for n in range(2, 11):
            mode = "random-complex" if n % 2 else "equal-superposition"
            s = random_system(n, seed=100 + n, amplitude_mode=mode)
            t = float(rng.random() * 50)
            state = oracle.evolve(s, t)
            z_abs = coherence_magnitudes(s, np.array([t]))[0]
            entropies = particle_entropies(s, z_abs)
            for l in range(n):
                rho = oracle.reduce_particle(state, l)
                assert abs(rho[0, 1]) == pytest.approx(z_abs[l], abs=1e-10)
                assert oracle.vn_entropy(rho) == pytest.approx(
                    entropies[l], abs=1e-10
                )


EPS = np.finfo(float).eps
GRID = 0.05 * np.arange(2001)


def scalar_magnitudes(system, times):
    """|z_l(t)| from the per-particle complex product, one time at a time."""
    return np.array([[abs(coherence(system, l, t)) for l in range(system.n_particles)]
                     for t in times])


class TestKernel:
    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_grid_matches_scalar_path(self, n, mode):
        s = random_system(n, seed=n + 1, amplitude_mode=mode)
        mags = coherence_magnitudes(s, GRID)
        every = slice(None, None, 40)
        np.testing.assert_allclose(mags[every], scalar_magnitudes(s, GRID[every]),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_strong_coupling_within_time_conditioning(self, n, dim):
        # Couplings up to ~100 put 2 g t near 2e4 rad, where one ulp of t
        # moves |z_l| by more than 1e-13. Any two evaluations may then differ
        # by |a_l b_l| * 2 t sum_k |g_lk| times a few eps, and no more.
        for seed in range(4):
            s = random_system(n, seed=seed, dim=dim, amplitude_mode="random-complex")
            ceiling = np.abs(s.amp_a * np.conj(s.amp_b))
            cond = ceiling[None, :] * 2 * GRID[:, None] * np.abs(s.couplings).sum(axis=1)
            diff = np.abs(coherence_magnitudes(s, GRID) - scalar_magnitudes(s, GRID))
            assert np.all(diff <= 1e-14 + 4 * EPS * cond)

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    def test_grid_matches_single_times(self, mode):
        s = random_system(50, seed=5, amplitude_mode=mode)
        mags = coherence_magnitudes(s, GRID)
        for i in range(0, GRID.size, 97):
            np.testing.assert_allclose(mags[i], coherence_magnitudes(s, [GRID[i]])[0],
                                       rtol=0, atol=1e-13)

    def test_bounds_and_time_reversal(self):
        s = random_system(50, seed=6, amplitude_mode="random-complex")
        ceiling = np.abs(s.amp_a * np.conj(s.amp_b))
        mags = coherence_magnitudes(s, GRID)
        assert np.all(mags >= 0.0)
        assert np.all(mags <= ceiling * (1 + 1e-12))
        np.testing.assert_allclose(coherence_magnitudes(s, -GRID), mags, rtol=0, atol=1e-15)

    def test_near_zero_factor(self):
        s = random_system(2, seed=3)
        t = np.pi / (4 * s.couplings[0, 1])
        ceiling = np.abs(s.amp_a * np.conj(s.amp_b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mags = coherence_magnitudes(s, [t])[0]
        assert np.all(mags <= 1e-15 * ceiling)

    def test_large_n_no_nan_or_warning(self):
        s = random_system(2000, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mags = coherence_magnitudes(s, [50.0, 75.0, 100.0])
        assert mags.shape == (3, 2000)
        assert np.all(np.isfinite(mags))
        assert np.all((mags >= 0.0) & (mags <= 0.5 + 1e-12))
