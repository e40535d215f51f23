import functools
import sys
import tracemalloc
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
from spindecoh.model import SpinSystem, SystemConfig, build_couplings, build_system
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

    def test_rejects_nan_radicand(self):
        s = random_system(3, seed=1)
        with pytest.raises(RadicandError):
            particle_entropies(s, np.array([np.nan, 0.1, 0.1]))


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
        traj = sample_trajectory(s, dt=0.05, t_max=100.0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(100.0)
        assert traj.times[1] - traj.times[0] == pytest.approx(0.05)

    def test_first_sample(self):
        s = random_system(4, seed=17)
        traj = sample_trajectory(s, dt=0.1, t_max=0.4)
        assert traj.xi[0] == pytest.approx(xi(s, 0.0), abs=1e-14)

    def test_coherence_channel(self):
        s = random_system(5, seed=18, amplitude_mode="random-complex")
        traj = sample_trajectory(s, dt=0.7, t_max=3.5)
        assert traj.coherences.shape == (6, 5)
        for i, t in enumerate(traj.times):
            for l in range(5):
                assert traj.coherences[i, l] == pytest.approx(
                    abs(coherence(s, l, t)), abs=1e-12
                )

    def test_entropy_channel(self):
        s = random_system(5, seed=18)
        traj = sample_trajectory(s, dt=0.7, t_max=3.5)
        entropy = particle_entropies(s, traj.coherences).sum(axis=1)
        for i, t in enumerate(traj.times):
            assert entropy[i] == pytest.approx(entropy_total(s, t), abs=1e-12)

    def test_allocation_guard(self, monkeypatch):
        s = random_system(10, seed=19)
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_ELEMENTS", 500)
        with pytest.raises(ValueError, match="element cap 500"):
            sample_trajectory(s, dt=0.05, t_max=4.95)

    def test_input_validation(self):
        s = random_system(3, seed=19)
        with pytest.raises(ValueError):
            sample_trajectory(s, dt=0.0, t_max=1.0)
        with pytest.raises(ValueError, match=">= 2 samples"):
            sample_trajectory(s, dt=0.1, t_max=0.01)
        # t_max / dt overflows to inf: a one-line ValueError, not an
        # OverflowError from sizing the grid.
        for dt, t_max in ((1e-320, 100.0), (1e-10, 1e300)):
            with pytest.raises(ValueError, match=r"^tmax / dt must be finite[^\n]*$"):
                sample_trajectory(s, dt=dt, t_max=t_max)


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
    step, k = dynamics._split_grid(times)
    starts, offsets = times[::k], (step or 0.0) * np.arange(k)
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


def unbalanced(n, seed):
    """Every particle with p = 0.3 and the same q: equal but not balanced
    superpositions."""
    base = random_system(n, seed)
    return make_custom_system(base.couplings, np.full(n, np.sqrt(0.3)),
                              np.full(n, np.sqrt(0.7) * np.exp(0.4j)))


def kernel_system(system, n, seed):
    if system == "one-differs":
        return one_differs(n, seed)
    if system == "unbalanced":
        return unbalanced(n, seed)
    return random_system(n, seed=seed, amplitude_mode=system)


def traced_peak(call):
    """Peak traced allocation of call(), after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def log_decay(system, times, need=None):
    """ln(|z_l| / |a_l b_l|) as (T, N) from the kernel's log sums, with NaN
    rows at the samples it skips under the mask `need`."""
    sums, runs = dynamics._log_sums(system, times, need)
    out = np.full((len(times), system.n_particles), np.nan)
    col = 0
    for first, count in runs:
        out[first:first + count] = 0.5 * sums[:, col:col + count].T
        col += count
    return out


def kernel_geometry(times, n):
    """The kernel's columns per chunk, block starts per chunk and rows per
    strip for this time grid and N, and the grid's block starts (every
    time, on a grid of K = 1)."""
    k = dynamics._split_grid(np.asarray(times, dtype=float))[1]
    n_starts = -(-len(times) // k)
    return (*dynamics._kernel_geometry(n, n_starts, k), n_starts)


SCATTERED = np.random.default_rng(8).random(7) * 100
# The longest uniform grid in blocks of one time (K = 1), and the shortest
# whose tables take the rank-2 product.
ONE_BLOCK = 2.5 * np.arange(dynamics._ONE_BLOCK)
PAST_ONE_BLOCK = 2.5 * np.arange(dynamics._ONE_BLOCK + 1)


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

    @pytest.mark.parametrize("times", [4.0 * np.arange(26), GRID, SCATTERED, ONE_BLOCK,
                                       PAST_ONE_BLOCK, 10.0 + 0.5 * np.arange(30),
                                       -0.5 * np.arange(30)],
                             ids=["26-samples", "2001-samples", "scattered", "one-block",
                                  "past-one-block", "short-from-10", "short-backwards"])
    @pytest.mark.parametrize("system", ["equal-superposition", "random-complex", "one-differs",
                                        "unbalanced"])
    def test_tiles_match_row_blocked(self, system, times):
        # No pairs (N = 1), one chunk, a full last chunk and a ragged one.
        w = kernel_geometry(times, sys.maxsize)[0]
        for n in sorted({1, 2, 3, w - 1, w, w + 1, 50, 200}):
            s = kernel_system(system, n, seed=n)
            diff = np.abs(coherence_magnitudes(s, times) - row_blocked_magnitudes(s, times))
            assert diff.max() <= 1e-13, (n, diff.max())

    @pytest.mark.parametrize("times", [4.0 * np.arange(26), GRID, SCATTERED, PAST_ONE_BLOCK],
                             ids=["26-samples", "2001-samples", "scattered", "past-one-block"])
    @pytest.mark.parametrize("system", ["equal-superposition", "random-complex", "one-differs"])
    @pytest.mark.parametrize("elements", [1024, 2048])
    def test_strips_match_row_blocked(self, monkeypatch, elements, system, times):
        # Small blocks cut N = 50 into several strips, each taking several
        # column chunks with a ragged last one, and a long uniform grid's
        # block starts into several chunks. Scattered times and short grids
        # take K = 1 and, at these sizes, one run of every time.
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", elements)
        n = 50
        w, m, h, n_starts = kernel_geometry(times, n)
        assert h < n and w < n and n % w
        one_block = dynamics._split_grid(times)[1] == 1
        assert one_block == (times.size <= dynamics._ONE_BLOCK or times is SCATTERED)
        assert m == n_starts == times.size if one_block else m < n_starts
        s = kernel_system(system, n, seed=3)
        diff = np.abs(coherence_magnitudes(s, times) - row_blocked_magnitudes(s, times))
        assert diff.max() <= 1e-13

    def test_loop_selection(self):
        # Uniform grids of up to _ONE_BLOCK samples and scattered times take
        # one block of every time (K = 1); longer uniform grids take blocks.
        assert dynamics._split_grid(ONE_BLOCK) == (2.5, 1)
        assert dynamics._split_grid(PAST_ONE_BLOCK)[1] > 1
        assert dynamics._split_grid(SCATTERED) == (None, 1)

    @pytest.mark.parametrize("n", [1, 5])
    def test_no_times(self, n):
        s = random_system(n, seed=2, amplitude_mode="random-complex")
        assert coherence_magnitudes(s, []).shape == (0, n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, bad):
        s = random_system(5, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                coherence_magnitudes(s, [0.0, bad])

    # Each bound is an earlier kernel's peak: for its (T, N) log decay in
    # the magnitudes' cases, where phasor tables wider than a chunk of
    # columns exceed the last two, and for its exp over a (T, N) copy in the
    # trajectory's. The blockwise finish works in place in the result.
    @pytest.mark.parametrize("call, n, mode, times, bound", [
        (coherence_magnitudes, 200, "equal-superposition", GRID, 7.8e6),
        (coherence_magnitudes, 1000, "random-complex", 4.0 * np.arange(26), 3.97e6),
        (coherence_magnitudes, 300, "random-complex",
         np.random.default_rng(1).random(500) * 100, 6.69e6),
        (lambda s, times: sample_trajectory(s), 200, "equal-superposition", GRID, 6.53e6),
    ], ids=["200-2001-samples", "1000-26-samples", "300-500-scattered", "trajectory-200"])
    def test_peak_memory(self, call, n, mode, times, bound):
        s = random_system(n, seed=1, amplitude_mode=mode)
        assert traced_peak(lambda: call(s, times)) <= bound

    def test_peak_memory_large_n(self):
        # A potential-mode system holds no N x N array (128 MB at N = 4000).
        # Building one and its 26-sample magnitudes holds the output and the
        # log sums (0.83 MB each), random-complex's per-column factor terms
        # (1.66 MB), the kernel's per-chunk tables (about 2 MB) and one
        # block of couplings.
        cfg = SystemConfig(n_particles=4000, amplitude_mode="random-complex", rng_seed=1)
        tracemalloc.start()
        try:
            coherence_magnitudes(build_system(cfg), 4.0 * np.arange(26))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("times", [4.0 * np.arange(26), GRID, SCATTERED],
                             ids=["26-samples", "2001-samples", "scattered"])
    def test_blocks_from_positions_match_matrix(self, times, mode):
        # The kernel takes a potential-mode system's blocks from its
        # positions and a hand-built system's from its matrix: the same
        # couplings give the same bits.
        s = build_system(SystemConfig(n_particles=120, dimension=2, eta=0.7, epsilon=1.5,
                                      amplitude_mode=mode, rng_seed=6))
        hand = SpinSystem(positions=s.positions, amp_a=s.amp_a, amp_b=s.amp_b,
                          matrix=build_couplings(s.positions, 0.7, 1.5))
        assert np.array_equal(coherence_magnitudes(s, times), coherence_magnitudes(hand, times))

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("times", [10.0 + GRID, -GRID, 30.0 - 0.05 * np.arange(1001)],
                             ids=["from-10", "backwards", "from-30-backwards"])
    def test_shifted_grid_matches_scalar_path(self, times, mode):
        # Phasors are rotated from the grid's first time and step: grids
        # that start away from 0 or step backwards take the t_0 phasor.
        assert dynamics._split_grid(times)[0] is not None  # taken as uniform
        s = random_system(50, seed=9, amplitude_mode=mode)
        every = slice(None, None, 40)
        np.testing.assert_allclose(coherence_magnitudes(s, times)[every],
                                   scalar_magnitudes(s, times[every]), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    def test_long_grid(self, mode):
        # 20001 samples: K = 142 offsets and 141 block starts, each phasor
        # some hundred rotations from its direct cos/sin.
        times = 0.05 * np.arange(20001)
        assert dynamics._split_grid(times)[1] == 142
        s = random_system(2, seed=4, amplitude_mode=mode)
        ceiling = np.abs(s.amp_a * np.conj(s.amp_b))
        mags = coherence_magnitudes(s, times)
        assert np.all(mags >= 0.0)
        assert np.all(mags <= ceiling * (1 + 1e-12))
        cond = ceiling[None, :] * 2 * times[:, None] * np.abs(s.couplings).sum(axis=1)
        every = slice(None, None, 7)
        diff = np.abs(mags[every] - scalar_magnitudes(s, times[every]))
        assert np.all(diff <= 1e-14 + 4 * EPS * cond[every])

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("t0", [0.0, 10.0])
    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_mask_skips_whole_start_chunks(self, n, t0, mode):
        # An ensemble member's first pass: t = 0, the tail and the averaging
        # window [50, 100]. A chunk of m block starts that holds no needed
        # sample is skipped and reads NaN; every other sample keeps its bits.
        times = t0 + GRID
        s = random_system(n, seed=n, amplitude_mode=mode)
        full = log_decay(s, times)
        need = np.zeros(times.size, dtype=bool)
        need[0] = True
        need[1000:] = True
        got = log_decay(s, times, need)
        _, m, _, _ = kernel_geometry(times, n)
        chunk = np.arange(times.size) // (dynamics._split_grid(times)[1] * m)
        skipped = ~np.isin(chunk, chunk[need])
        assert skipped.any() == (n >= 50)  # N = 10 takes every start in one chunk
        assert np.isnan(got[skipped]).all() and not np.isnan(got[~skipped]).any()
        assert np.array_equal(got[~skipped], full[~skipped])
        assert np.array_equal(log_decay(s, times, np.ones(times.size, bool)), full)

    @pytest.mark.parametrize("times", [GRID, 4.0 * np.arange(26)],
                             ids=["2001-samples", "26-samples"])
    def test_xi_from_blocks(self, monkeypatch, times):
        # Blocks of 81 samples split the runs of 135 evaluated samples (m = 3
        # starts of K = 45); each time's mean over particles keeps its bits.
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 4096)
        s = random_system(50, seed=5, amplitude_mode="random-complex")
        want = coherence_magnitudes(s, times).mean(axis=1)
        assert np.array_equal(dynamics._xi(s, times), want)
        need = np.zeros(times.size, dtype=bool)
        need[0] = need[-1] = True
        xi = dynamics._xi(s, times, need)
        evaluated = ~np.isnan(xi)
        assert evaluated[need].all() and evaluated.all() == (times.size <= dynamics._ONE_BLOCK)
        assert np.array_equal(xi[evaluated], want[evaluated])

    @pytest.mark.parametrize("times", [4.0 * np.arange(26), ONE_BLOCK],
                             ids=["26-samples", "one-block"])
    def test_one_block_ignores_mask(self, times):
        s = random_system(50, seed=2, amplitude_mode="random-complex")
        need = np.zeros(times.size, dtype=bool)
        need[0] = True
        assert np.array_equal(log_decay(s, times, need), log_decay(s, times))

    @pytest.mark.parametrize("system", ["equal-superposition", "random-complex"])
    def test_scattered_runs(self, monkeypatch, system):
        # A small budget cuts 300 scattered times into runs of m = 256 and
        # 44 samples; the mask skips the second run whole, as on a long grid.
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 256)
        times = np.random.default_rng(4).random(300) * 100
        n = 50
        _, m, _, n_starts = kernel_geometry(times, n)
        assert dynamics._split_grid(times) == (None, 1) and m == 256 < n_starts
        s = kernel_system(system, n, seed=7)
        mags = coherence_magnitudes(s, times)
        assert np.abs(mags - row_blocked_magnitudes(s, times)).max() <= 1e-13
        need = np.zeros(times.size, dtype=bool)
        need[:10] = True
        xi = dynamics._xi(s, times, need)
        assert np.array_equal(np.isnan(xi), np.arange(times.size) >= m)
        assert np.array_equal(xi[:m], dynamics._xi(s, times)[:m])

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


def long_double_log_decay(system, rows, times):
    """(ln(|z_l| / |a_l b_l|), sum_k |theta tan theta|) for the particles
    `rows` at `times`, each (len(rows), T), from 1/2 sum_{k != l}
    ln(scale_k cos^2 theta + floor_k), theta = 2 g_lk t, all in long double
    from the system's amplitudes and couplings and the times as given."""
    ld = np.longdouble
    p, q = (x.real.astype(ld) ** 2 + x.imag.astype(ld) ** 2 for x in (system.amp_a, system.amp_b))
    p, q = p / (p + q), q / (p + q)
    rows = np.asarray(rows)
    n = system.n_particles
    cols = np.nonzero(np.arange(n) != rows[:, None])[1].reshape(len(rows), n - 1)
    theta = 2 * system.couplings[rows[:, None], cols].astype(ld)[..., None] * np.asarray(times, ld)
    factor = (4 * p * q)[cols][..., None] * np.cos(theta) ** 2 + ((p - q) ** 2)[cols][..., None]
    return 0.5 * np.log(factor).sum(axis=1), np.abs(theta * np.tan(theta)).sum(axis=1)


@functools.cache
def reference_system(n, mode):
    return random_system(n, seed=1, amplitude_mode=mode)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double has no more precision than double here")
class TestLongDoubleReference:
    """Error contract of the kernel at large N, against ln|z_l| evaluated
    directly in long double (64-bit mantissa) for 10 particles:

        |Delta ln(|z_l| / |a_l b_l|)| <= eps sum_{k != l} (c |theta tan theta| + 1/2),

    theta = 2 g_lk t, eps = 2^-52, with c = 1. The first term is the error
    of rounding each phase about once (d ln|cos theta| = -tan theta
    d theta; the random-complex factor's derivative is smaller), the second
    half an ulp per factor for its cos, square and log. Over seeds 1-12 on
    these grids the largest c needed was 0.61 (equal superposition, shifted
    grid), and 0.85 on a shifted 26-sample grid at N = 1000."""

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("n, times, samples", [
        (200, GRID, np.arange(0, GRID.size, 80)),
        (1000, 4.0 * np.arange(26), np.arange(26)),
        (200, 7.3 + GRID, np.arange(0, GRID.size, 80)),
        (1000, SCATTERED, np.arange(SCATTERED.size)),
    ], ids=["200-2001-samples", "1000-26-samples", "200-shifted-2001-samples",
            "1000-scattered"])
    def test_log_sums_within_contract(self, n, times, samples, mode):
        s = reference_system(n, mode)
        rows = np.linspace(0, n - 1, 10).astype(int)
        got = log_decay(s, times)[np.ix_(samples, rows)].T
        ref, tan_sum = long_double_log_decay(s, rows, times[samples])
        bound = np.finfo(float).eps * (tan_sum + 0.5 * (n - 1))  # c = 1
        assert np.all(np.abs(got - ref) <= bound)


class TestExactLaws:
    """Exact facts about |z_l(t)| that hold at any N, where the oracle
    cannot reach."""

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    def test_density_covariance(self, mode):
        # g(rho) = rho^(eps/D) g(1) and g(eta) = eta g(1) for the same draws, so
        # z_rho(t) = z_1(rho^(eps/D) t) and z_eta(t) = z_1(eta t): the decoherence
        # time scales exactly as rho^(-eps/D) (S = eps/D) and as 1/eta.
        times = 0.05 * np.arange(401)
        base = build_system(SystemConfig(n_particles=200, amplitude_mode=mode, rng_seed=4))
        for field, value, speedup in (("density", 0.5, 0.5 ** (1.0 / 3.0)),
                                      ("density", 4.0, 4.0 ** (1.0 / 3.0)),
                                      ("eta", 2.5, 2.5)):
            system = build_system(SystemConfig(n_particles=200, amplitude_mode=mode,
                                               rng_seed=4, **{field: value}))
            scaled = coherence_magnitudes(base, speedup * times)
            assert np.abs(coherence_magnitudes(system, times) - scaled).max() <= 1e-13, field

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("n", [200, 1000])
    def test_short_time_gaussian(self, n, mode):
        # ln|z_l(t)| = ln|a_l b_l| - 8 t^2 sum_k p_k q_k g_lk^2 + O((g t)^4)
        # (Cucchietti, Paz & Zurek, PRA 72, 052113). With y = 2 g_lk t, each
        # factor's -1/2 ln(1 - 4pq sin^2 y) is 2pq y^2 (1 + (2pq - 1/3) y^2) to
        # leading order, and pq <= 1/4: at x = 2 g_max t the decay exponent's
        # relative error is at most x^2 / 3.
        system = random_system(n, seed=1, amplitude_mode=mode)
        g = system.couplings
        p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
        x = np.array([0.01, 0.03, 0.1])
        t = x / (2.0 * g.max())
        got = np.log(np.abs(system.amp_a * system.amp_b)) - np.log(coherence_magnitudes(system, t))
        want = 8.0 * t[:, None] ** 2 * (g ** 2 @ (p * q))
        assert np.all(np.abs(got - want) <= x[:, None] ** 2 / 3.0 * want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    def test_jensen_typical_level(self, mode, seed):
        # Long-time mean of ln|z_l| (see assert_jensen_level). The grid starts
        # at 0 so the kernel's uniform-grid split applies; [50, 100] is sliced.
        system = random_system(200, seed, amplitude_mode=mode)
        times = 0.05 * np.arange(2001)
        got = np.log(coherence_magnitudes(system, times)[times >= 50.0]).mean(axis=0)
        assert_jensen_level(system, got)

    @pytest.mark.parametrize("n, mode", [(1000, "equal-superposition"),
                                         (1000, "random-complex"),
                                         (2000, "equal-superposition")])
    def test_jensen_typical_level_large_n(self, n, mode):
        # The same law past the range of |z_l|: at N = 2000 every |z_l(t)|
        # for t >= 50 underflows to 0, so the kernel's log sums are tested.
        system = random_system(n, 1, amplitude_mode=mode)
        times = 0.5 * np.arange(201)
        decay = log_decay(system, times)[times >= 50.0].mean(axis=0)
        assert_jensen_level(system, np.log(np.abs(system.amp_a * system.amp_b)) + decay)


def assert_jensen_level(system, got):
    """Jensen's formula: the mean over phi of ln|p + q e^{i phi}| is
    ln max(p, q), so the long-time mean of ln|z_l| is
    ln|a_l b_l| + sum_{k != l} ln max(p_k, q_k); got holds the means."""
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    log_max = np.log(np.maximum(p, q))
    want = np.log(np.abs(system.amp_a * system.amp_b)) + log_max.sum() - log_max
    assert abs(got.mean() - want.mean()) <= 2e-3 * abs(want.mean())
    assert np.all(np.abs(got - want) <= 0.02 * np.abs(want))


def permuted(system, perm):
    return SpinSystem(positions=system.positions[perm], amp_a=system.amp_a[perm],
                      amp_b=system.amp_b[perm], matrix=system.couplings[np.ix_(perm, perm)])


@st.composite
def systems_and_times(draw):
    """A system of up to 300 particles, so several strips and a ragged last
    chunk, on a uniform grid (short ones in blocks of one time, longer ones
    through the rank-2 product) or at scattered times (K = 1)."""
    n = draw(st.integers(1, 300))
    mode = draw(st.sampled_from(["equal-superposition", "random-complex"]))
    system = random_system(n, seed=draw(st.integers(0, 2**32 - 1)), amplitude_mode=mode)
    if draw(st.booleans()):
        times = draw(st.floats(0.01, 5.0)) * np.arange(draw(st.integers(2, 60)))
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
