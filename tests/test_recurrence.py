import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindecoh import model, recurrence
from spindecoh.model import SystemConfig, build_system, derive_seed
from spindecoh.recurrence import recurrence_stats, recurrence_time

from test_model import make_custom_system


def symmetric(rows):
    g = np.array(rows, dtype=float)
    return np.triu(g, 1) + np.triu(g, 1).T


class TestParticleFrequency:
    """recurrence_time(...).frequencies: twice each row's smallest coupling gap."""

    def test_direct_formula(self):
        # particle 0 couples with {1, 1/3, 1/2}: smallest gap is 1/2 - 1/3.
        g = symmetric([
            [0, 1.0, 1 / 3, 1 / 2],
            [0, 0, 0.9, 0.8],
            [0, 0, 0, 0.7],
            [0, 0, 0, 0],
        ])
        freqs = recurrence_time(make_custom_system(g)).frequencies
        assert freqs[0] == pytest.approx(1 / 3, rel=1e-12)

    def test_degenerate_couplings(self):
        # particle 0 couples twice with 0.4: a zero frequency, flagged degenerate.
        g = symmetric([
            [0, 0.4, 0.4, 0.9],
            [0, 0, 0.1, 0.2],
            [0, 0, 0, 0.3],
            [0, 0, 0, 0],
        ])
        est = recurrence_time(make_custom_system(g))
        assert est.frequencies[0] == 0.0
        assert est.degenerate
        assert est.period == float("inf")

    def test_positive_for_random_potential(self):
        s = build_system(SystemConfig(n_particles=12, rng_seed=3))
        assert np.all(recurrence_time(s).frequencies > 0.0)

    def test_matches_row_formula_and_recurrence_frequencies(self):
        s = build_system(SystemConfig(n_particles=30, dimension=2, rng_seed=11))
        freqs = recurrence_time(s).frequencies
        for l in range(30):
            row = np.delete(s.couplings[l], l)
            assert freqs[l] == 2.0 * np.diff(np.sort(row)).min()

    @pytest.mark.parametrize("n", [33, 1000])
    def test_row_blocks_match_one_sort(self, monkeypatch, n):
        # recurrence_time sorts _BLOCK_ELEMENTS // N rows at a time. N = 1000
        # takes 15 blocks of 65 rows and one of 25 at the shared budget, and
        # N = 33 takes 3 blocks of 9 rows and one of 6 at a budget of 300.
        # Each row's sort, differences and minimum are the same as in one
        # sort of the whole matrix.
        if n == 33:
            monkeypatch.setattr(recurrence, "_BLOCK_ELEMENTS", 300)
        s = build_system(SystemConfig(n_particles=n, rng_seed=n))
        # Blocked first, so its result buffer cannot reuse the reference's
        # freed temporaries.
        freqs = recurrence_time(s).frequencies
        whole = 2.0 * np.diff(np.sort(s.couplings, axis=1)[:, 1:], axis=1).min(axis=1)
        assert np.array_equal(freqs, whole)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(3, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_gaps_among_other_couplings_of_either_sign(self, n, height, seed):
        # Symmetric couplings of either sign with a nonzero diagonal, sorted
        # `height` rows at a time: each frequency is twice its row's
        # smallest gap among the other N - 1 couplings.
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        g = a + a.T
        with mock.patch.object(recurrence, "_BLOCK_ELEMENTS", min(height, n) * n):
            freqs = recurrence_time(make_custom_system(g)).frequencies
        for l in range(n):
            assert freqs[l] == 2.0 * np.diff(np.sort(np.delete(g[l], l))).min()

    def test_needs_three_particles(self):
        s = build_system(SystemConfig(n_particles=2, rng_seed=1))
        with pytest.raises(ValueError):
            recurrence_time(s)


class TestRecurrenceTime:
    def test_hand_built_three_particle(self):
        # couplings (g01, g02, g12) = (1.0, 0.9, 0.75) give frequencies
        # (0.2, 0.5, 0.3); the smallest frequency gap is 0.1.
        g = symmetric([[0, 1.0, 0.9], [0, 0, 0.75], [0, 0, 0]])
        est = recurrence_time(make_custom_system(g))
        assert not est.degenerate
        assert np.allclose(sorted(est.frequencies), [0.2, 0.3, 0.5])
        assert est.period == pytest.approx(2 * np.pi / 0.1, rel=1e-10)

    def test_minimizing_pair_recorded(self):
        # The period is 2 pi over the smallest gap between any two frequencies.
        s = build_system(SystemConfig(n_particles=20, dimension=1, rng_seed=5))
        est = recurrence_time(s)
        f = est.frequencies
        gaps = np.abs(f[:, None] - f[None, :])[~np.eye(f.size, dtype=bool)]
        assert est.period == 2 * np.pi / gaps.min()

    def test_degenerate_flagged_not_raised(self):
        # rows 0 and 2 both end up with frequency 0.4 -> zero frequency gap
        g = symmetric([
            [0, 1.0, 0.8, 0.3],
            [0, 0, 0.6, 0.2],
            [0, 0, 0, 0.4],
            [0, 0, 0, 0],
        ])
        est = recurrence_time(make_custom_system(g))
        assert est.degenerate
        assert est.period == float("inf")

    def test_scale_covariance(self):
        s = build_system(SystemConfig(n_particles=10, rng_seed=8))
        scaled = make_custom_system(2.0 * s.couplings,
                                    amp_a=s.amp_a, amp_b=s.amp_b)
        t1 = recurrence_time(s).period
        t2 = recurrence_time(scaled).period
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_gap_bound(self):
        for seed in range(5):
            s = build_system(SystemConfig(n_particles=8, rng_seed=seed))
            est = recurrence_time(s)
            g = s.couplings
            off = g[~np.eye(8, dtype=bool)]
            bound = 2 * np.pi / (2 * off.max() - 2 * off.min())
            assert est.period >= bound * (1 - 1e-12)


class TestRecurrenceStats:
    CELL = SystemConfig(n_particles=10, dimension=1, density=1.0)

    def test_deterministic(self):
        s1 = recurrence_stats(self.CELL, 20, master_seed=4)
        s2 = recurrence_stats(self.CELL, 20, master_seed=4)
        assert s1 == s2

    @pytest.mark.parametrize("size", range(1, 12))
    def test_median_is_numpys(self, size):
        # Odd and even counts, ties included, give np.median's bits.
        periods = np.random.default_rng(size).lognormal(10.0, 5.0, size)
        for values in (periods, np.round(periods, -3), np.full(size, 7.5)):
            assert recurrence._median(values) == np.median(values)

    def test_summary_fields(self):
        st = recurrence_stats(self.CELL, 30, master_seed=5)
        assert st.degenerate_fraction == 0.0
        assert st.mean > st.median  # heavy right tail
        assert np.isfinite(st.log10_mean)

    def test_density_rescales_periods(self):
        # epsilon=1: scaling rho by 8 in D=3 scales every coupling by 2 and
        # halves every period, configuration by configuration.
        cell = SystemConfig(n_particles=8, dimension=3, density=1.0)
        dense = SystemConfig(n_particles=8, dimension=3, density=8.0)
        s1 = recurrence_stats(cell, 10, master_seed=6)
        s2 = recurrence_stats(dense, 10, master_seed=6)
        assert s2.mean == pytest.approx(s1.mean / 2.0, rel=1e-9)
        assert s2.median == pytest.approx(s1.median / 2.0, rel=1e-9)

    def test_log10_mean_grows_with_n(self):
        means = [
            recurrence_stats(
                SystemConfig(n_particles=n, dimension=1, density=1.0),
                40, master_seed=7,
            ).log10_mean
            for n in (6, 12, 24)
        ]
        assert means[0] < means[1] < means[2]

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            recurrence_stats(self.CELL, 1, master_seed=1)

    @pytest.mark.parametrize("n, d, epsilon", [
        (33, 1, 1.0), (33, 3, 2.5),
        *((1000, d, epsilon) for d in (1, 2, 3) for epsilon in (1.0, 2.5))])
    def test_matches_built_systems(self, monkeypatch, n, d, epsilon):
        # Potential-mode draws take their coupling rows from the positions;
        # the aggregates equal those of full systems over the same seeds, bit
        # for bit. N = 33 takes coupling and sort blocks of 9 rows (and one
        # of 6) at a budget of 300.
        if n == 33:
            monkeypatch.setattr(model, "_BLOCK_ELEMENTS", 300)
            monkeypatch.setattr(recurrence, "_BLOCK_ELEMENTS", 300)
        cell = SystemConfig(n_particles=n, dimension=d, epsilon=epsilon, eta=0.7)
        periods = np.array([
            recurrence_time(build_system(
                dataclasses.replace(cell, rng_seed=derive_seed(9, i)))).period
            for i in range(3)])
        st = recurrence_stats(cell, 3, master_seed=9)
        assert st.degenerate_fraction == 0.0
        assert (st.mean, st.std, st.median, st.log10_mean) == (
            float(periods.mean()), float(periods.std()), float(np.median(periods)),
            float(np.log10(periods).mean()))

    @pytest.mark.parametrize("d", [1, 3])
    def test_draws_hold_no_square_array(self, d):
        # A potential-mode draw holds its positions and one block of coupling
        # rows with its difference and gap temporaries (512 kB each at the
        # shared budget), where a 4000 x 4000 array alone would take 128 MB.
        # The bound leaves room for numpy's own sort and diff buffers.
        tracemalloc.start()
        try:
            recurrence_stats(SystemConfig(n_particles=4000, dimension=d), 3, master_seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * model._BLOCK_ELEMENTS  # 4 MB
