import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindecoh.dynamics import (
    RadicandError,
    coherence_magnitudes,
    particle_entropies,
    sample_trajectory,
)
from spindecoh.model import SpinSystem, SystemConfig, build_system
from spindecoh import dynamics, oracle

from test_model import make_custom_system


def random_system(n, seed, dim=3, amplitude_mode="equal-superposition"):
    return build_system(SystemConfig(
        n_particles=n, dimension=dim, density=1.0,
        amplitude_mode=amplitude_mode, rng_seed=seed,
    ))


def coherence(system, particle, t):
    """Off-diagonal element z_l(t) by the complex product over the other
    particles: the kernel's independent scalar reference."""
    a, b = system.amp_a, system.amp_b
    phase = np.exp(-2j * system.couplings[particle] * t)
    factors = np.abs(a) ** 2 * phase + np.abs(b) ** 2 * np.conj(phase)
    factors[particle] = 1.0
    return complex(a[particle] * np.conj(b[particle]) * np.prod(factors))


def xi(system, t):
    """Whole-system decoherence function Xi(t) = (1/N) sum_l |z_l(t)| at one time."""
    return float(coherence_magnitudes(system, [t])[0].mean())


def entropy_total(system, t):
    """Total subsystem entropy S_tot(t) = sum_l S(rho_l) in nats at one time."""
    return float(particle_entropies(system, coherence_magnitudes(system, [t])[0]).sum())


class TestCoherence:
    def test_initial_value(self):
        s = random_system(5, seed=1, amplitude_mode="random-complex")
        expected = np.abs(s.amp_a * np.conj(s.amp_b))
        np.testing.assert_allclose(coherence_magnitudes(s, [0.0])[0], expected,
                                   rtol=0, atol=1e-14)

    def test_two_particle_cosine(self):
        s = random_system(2, seed=3)
        g = s.couplings[0, 1]
        times = np.array([0.3, 1.7, 4.0])
        np.testing.assert_allclose(coherence_magnitudes(s, times)[:, 0],
                                   0.5 * np.abs(np.cos(2 * g * times)), rtol=0, atol=1e-14)
        assert coherence_magnitudes(s, [np.pi / (4 * g)])[0, 0] < 1e-13

    def test_matches_oracle_n6(self):
        s = random_system(6, seed=11)
        t = 3.7
        state = oracle.evolve(s, t)
        mags = coherence_magnitudes(s, [t])[0]
        for l in range(6):
            rho = oracle.reduce_particle(state, l)
            assert mags[l] == pytest.approx(abs(rho[0, 1]), abs=1e-10)

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


class TestEigenvalues:
    """particle_entropies from the closed-form eigenvalues of
    [[|a|^2, z], [z*, |b|^2]]."""

    def test_pure_state(self):
        # |z_l| at its ceiling |a_l b_l| leaves each particle pure.
        s = random_system(4, seed=1, amplitude_mode="random-complex")
        ceiling = np.abs(s.amp_a * np.conj(s.amp_b))
        np.testing.assert_allclose(particle_entropies(s, ceiling), 0.0, rtol=0, atol=1e-12)

    def test_fully_mixed(self):
        # z = 0 leaves the diagonal: ln 2 for p = 1/2, else -p ln p - q ln q.
        p = np.array([0.5, 0.2, 0.9])
        s = make_custom_system(np.zeros((3, 3)), amp_a=np.sqrt(p), amp_b=np.sqrt(1 - p))
        expected = [np.log(2), -0.2 * np.log(0.2) - 0.8 * np.log(0.8),
                    -0.9 * np.log(0.9) - 0.1 * np.log(0.1)]
        np.testing.assert_allclose(particle_entropies(s, np.zeros(3)), expected,
                                   rtol=0, atol=1e-14)

    def test_matches_direct_diagonalization(self):
        s = random_system(6, seed=12, amplitude_mode="random-complex")
        t = 2.9
        entropies = particle_entropies(s, coherence_magnitudes(s, [t])[0])
        for l in range(6):
            a, b = s.amp_a[l], s.amp_b[l]
            z = coherence(s, l, t)
            rho = np.array([[abs(a) ** 2, z], [np.conj(z), abs(b) ** 2]])
            lam = np.linalg.eigvalsh(rho)
            assert entropies[l] == pytest.approx(-(lam * np.log(lam)).sum(), abs=1e-12)

    def test_rejects_invalid_radicand(self):
        s = random_system(3, seed=1)
        with pytest.raises(RadicandError):
            particle_entropies(s, np.full(3, 0.6))


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
        assert traj.times[1] - traj.times[0] == pytest.approx(0.05)

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

    def test_allocation_guard(self, monkeypatch):
        s = random_system(10, seed=19)
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_ELEMENTS", 500)
        with pytest.raises(ValueError, match="element cap 500"):
            sample_trajectory(s, dt=0.05, n_samples=100)

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


def row_blocked_magnitudes(system, times):
    """The row-blocked kernel that preceded the pair tiles, kept as their
    reference: every ordered pair (l, k) takes its own cos, sin and log."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = system.n_particles
    starts, offsets = dynamics._split_grid(times)
    k = offsets.size
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    p, q = p / (p + q), q / (p + q)
    scale = 2.0 * np.sqrt(p * q)
    floor = (p - q) ** 2
    rows = max(1, min(n, dynamics._BLOCK_ELEMENTS // (k * n)))
    per_chunk = max(1, dynamics._BLOCK_ELEMENTS // (k * rows * n))
    log_sq = np.empty((starts.size, k, n))
    with np.errstate(divide="ignore"):
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            g2 = 2.0 * system.couplings[r0:r1]
            off = np.arange(r0, r1)[:, None] != np.arange(n)
            s = np.where(off, scale, 0.0)
            f = np.where(off, floor, 1.0)
            ang = offsets[:, None, None] * g2
            cos_b = np.cos(ang) * s
            sin_b = np.sin(ang) * s
            for b0 in range(0, starts.size, per_chunk):
                ang = starts[b0:b0 + per_chunk, None, None, None] * g2
                x = np.cos(ang) * cos_b
                x -= np.sin(ang) * sin_b
                x *= x
                x += f
                log_sq[b0:b0 + per_chunk, :, r0:r1] = np.log(x, out=x).sum(axis=-1)
    log_z = 0.5 * log_sq.reshape(-1, n)[:times.size]
    return np.abs(system.amp_a * np.conj(system.amp_b)) * np.exp(log_z)


def one_differs(n, seed):
    """Equal superposition except particle 0, so no two orientations of a
    pair through particle 0 share a log factor."""
    base = random_system(n, seed)
    amp_a, amp_b = base.amp_a.copy(), base.amp_b.copy()
    amp_a[0], amp_b[0] = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)
    return make_custom_system(base.couplings, amp_a, amp_b)


def tile_size(times):
    """The kernel's tile side for this time grid."""
    k = dynamics._split_grid(np.asarray(times, dtype=float))[1].size
    return int(np.sqrt(dynamics._BLOCK_ELEMENTS / k))


SCATTERED = np.random.default_rng(8).random(7) * 100


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

    @pytest.mark.parametrize("times", [4.0 * np.arange(26), GRID, SCATTERED],
                             ids=["26-samples", "2001-samples", "scattered"])
    @pytest.mark.parametrize("system", ["equal-superposition", "random-complex", "one-differs"])
    def test_tiles_match_row_blocked(self, system, times):
        # No pairs (N = 1), one tile, a full last tile and a ragged one.
        b = tile_size(times)
        for n in sorted({1, 2, 3, b - 1, b, b + 1, 50, 200}):
            if system == "one-differs":
                s = one_differs(n, seed=n)
            else:
                s = random_system(n, seed=n, amplitude_mode=system)
            diff = np.abs(coherence_magnitudes(s, times) - row_blocked_magnitudes(s, times))
            assert diff.max() <= 1e-13, (n, diff.max())

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


class TestExactLaws:
    """Exact facts about |z_l(t)| that hold at any N, where the oracle
    cannot reach."""

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    def test_density_covariance(self, mode):
        # g(rho) = rho^(eps/D) g(1) for the same draws, so z_rho(t) = z_1(rho^(eps/D) t):
        # the decoherence time scales exactly as rho^(-eps/D) (S = eps/D).
        times = 0.05 * np.arange(401)
        base = build_system(SystemConfig(n_particles=200, amplitude_mode=mode, rng_seed=4))
        for rho in (0.5, 4.0):
            system = build_system(SystemConfig(n_particles=200, density=rho,
                                               amplitude_mode=mode, rng_seed=4))
            scaled = coherence_magnitudes(base, rho ** (1.0 / 3.0) * times)
            assert np.abs(coherence_magnitudes(system, times) - scaled).max() <= 1e-13

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    def test_jensen_typical_level(self, mode, seed):
        # Jensen's formula: the mean over phi of ln|p + q e^{i phi}| is
        # ln max(p, q), so the long-time mean of ln|z_l| is
        # ln|a_l b_l| + sum_{k != l} ln max(p_k, q_k). The grid starts at 0
        # so the kernel's uniform-grid split applies; [50, 100] is sliced.
        system = random_system(200, seed, amplitude_mode=mode)
        times = 0.05 * np.arange(2001)
        got = np.log(coherence_magnitudes(system, times)[times >= 50.0]).mean(axis=0)
        p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
        log_max = np.log(np.maximum(p, q))
        want = np.log(np.abs(system.amp_a * system.amp_b)) + log_max.sum() - log_max
        assert abs(got.mean() - want.mean()) <= 2e-3 * abs(want.mean())
        assert np.all(np.abs(got - want) <= 0.02 * np.abs(want))


def permuted(system, perm):
    return SpinSystem(positions=system.positions[perm], amp_a=system.amp_a[perm],
                      amp_b=system.amp_b[perm], couplings=system.couplings[np.ix_(perm, perm)])


@st.composite
def systems_and_times(draw):
    """A system of up to 300 particles, so several tiles and a ragged last
    one, on a uniform grid (the tiled, angle-added path) or at scattered
    times (K = 1)."""
    n = draw(st.integers(1, 300))
    mode = draw(st.sampled_from(["equal-superposition", "random-complex"]))
    system = random_system(n, seed=draw(st.integers(0, 2**32 - 1)), amplitude_mode=mode)
    if draw(st.booleans()):
        times = draw(st.floats(0.01, 5.0)) * np.arange(draw(st.integers(2, 30)))
    else:
        times = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5)))
    return system, times


class TestKernelProperties:
    """Exact symmetries of |z_l(t)| across tile boundaries."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(systems_and_times(), st.randoms(use_true_random=False))
    def test_permutation(self, case, rnd):
        # A column sum added to the wrong rows would break this. Permuting
        # reorders the sum of N log factors, which moves log|z_l| by a few
        # ulps of |log|z_l||: so 1e-13 relative on |z_l|, times 1 + |log|z_l||.
        system, times = case
        perm = np.array(rnd.sample(range(system.n_particles), system.n_particles))
        mags = coherence_magnitudes(system, times)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(
                np.log(coherence_magnitudes(permuted(system, perm), times)),
                np.log(mags[:, perm]), rtol=1e-13, atol=1e-13)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(systems_and_times())
    def test_time_reversal(self, case):
        system, times = case
        np.testing.assert_allclose(coherence_magnitudes(system, -times),
                                   coherence_magnitudes(system, times), rtol=1e-13, atol=0)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(systems_and_times())
    def test_bounds(self, case):
        system, times = case
        ceiling = np.abs(system.amp_a * np.conj(system.amp_b))
        mags = coherence_magnitudes(system, times)
        assert np.all(mags >= 0.0)
        assert np.all(mags <= ceiling * (1 + 1e-12))
