import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from spindecoh import dynamics, model, oracle
from spindecoh.model import (
    PlacementError,
    SingularCouplingError,
    SpinSystem,
    SystemConfig,
    box_side,
    build_couplings,
    build_system,
    derive_seed,
    make_rng,
    place_particles,
)
from spindecoh.recurrence import recurrence_stats, recurrence_time


def _sequential_placement(config, rng):
    """Reference placement: one candidate at a time, each retried until it
    is far enough from every particle placed before it."""
    n, d = config.n_particles, config.dimension
    side = box_side(n, config.density, d)
    min_sep = model.MIN_SEPARATION_FACTOR * side
    positions = np.empty((n, d))
    for i in range(n):
        while True:
            candidate = rng.random(d) * side
            if i == 0 or np.linalg.norm(positions[:i] - candidate, axis=1).min() >= min_sep:
                break
        positions[i] = candidate
    return positions


def _broadcast_couplings(positions, eta, epsilon):
    """Reference couplings from the full N x N x D difference tensor."""
    r = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    off = ~np.eye(len(positions), dtype=bool)
    g = np.zeros_like(r)
    g[off] = eta / r[off] ** epsilon
    return g


def make_custom_system(couplings, amp_a=None, amp_b=None):
    """Hand-built system with explicit couplings (positions are dummies)."""
    couplings = np.asarray(couplings, dtype=float)
    n = couplings.shape[0]
    if amp_a is None:
        amp_a = np.full(n, 1 / np.sqrt(2), dtype=complex)
    if amp_b is None:
        amp_b = np.full(n, 1 / np.sqrt(2), dtype=complex)
    return SpinSystem(
        positions=np.zeros((n, 1)),
        amp_a=np.asarray(amp_a, dtype=complex),
        amp_b=np.asarray(amp_b, dtype=complex),
        matrix=couplings,
    )


class TestBoxSide:
    def test_cube_of_thousand(self):
        assert box_side(1000, 1.0, 3) == pytest.approx(10.0)

    def test_unit_line(self):
        assert box_side(8, 8.0, 1) == pytest.approx(1.0)

    def test_dense_cube(self):
        # (100 / 1e4)**(1/3), the dense worked-example cell
        assert box_side(100, 1e4, 3) == pytest.approx(0.01 ** (1 / 3), rel=1e-12)
        assert box_side(100, 1e4, 3) == pytest.approx(0.2154, abs=5e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            box_side(0, 1.0, 3)
        with pytest.raises(ValueError):
            box_side(10, 0.0, 3)
        with pytest.raises(ValueError):
            box_side(10, 1.0, 4)


class TestPlacement:
    def test_single_particle_inside_box(self):
        cfg = SystemConfig(n_particles=1, dimension=2, density=4.0, rng_seed=9)
        pos = place_particles(cfg, make_rng(cfg.rng_seed))
        side = box_side(1, 4.0, 2)
        assert pos.shape == (1, 2)
        assert np.all(pos >= 0) and np.all(pos < side)

    def test_all_pairs_separated(self):
        cfg = SystemConfig(n_particles=100, dimension=3, density=1.0, rng_seed=4)
        pos = place_particles(cfg, make_rng(cfg.rng_seed))
        diff = pos[:, None, :] - pos[None, :, :]
        r = np.linalg.norm(diff, axis=2)
        off = r[~np.eye(100, dtype=bool)]
        assert off.size == 9900
        assert off.min() > 0.0

    def test_deterministic(self):
        cfg = SystemConfig(n_particles=20, dimension=3, density=2.0, rng_seed=77)
        p1 = place_particles(cfg, make_rng(cfg.rng_seed))
        p2 = place_particles(cfg, make_rng(cfg.rng_seed))
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("d, separation, seed", [
        pytest.param(d, separation, seed, id=str(seed) if d == 1 else f"d{d}-{seed}")
        for d, separation in ((1, 1e-3), (2, 4e-2), (3, 8e-2)) for seed in range(4)])
    def test_resamples_match_sequential_draws(self, monkeypatch, d, separation, seed):
        # Each separation (a fraction of the side) leaves 30-100 close pairs
        # among 200 first draws, so several candidates are resampled. In
        # D = 2 and 3 some rounds hold chains of close candidates, where a
        # candidate is kept only because an earlier one was rejected.
        monkeypatch.setattr(model, "MIN_SEPARATION_FACTOR", separation)
        cfg = SystemConfig(n_particles=200, dimension=d, rng_seed=seed)
        rng, ref_rng = make_rng(seed), make_rng(seed)
        pos = place_particles(cfg, rng)
        assert np.array_equal(pos, _sequential_placement(cfg, ref_rng))
        assert rng.random() == ref_rng.random()
        side = box_side(200, 1.0, d)
        first_draws = make_rng(seed).random((200, d)) * side
        assert np.count_nonzero(pdist(first_draws) < separation * side) >= 5

    @pytest.mark.parametrize("d", [2, 3])
    def test_sweep_finds_brute_force_close_pairs(self, d):
        # Every first coordinate lies within 2 min_sep of the others, so the
        # sweep lists most pairs and the exact distance must reject most of
        # them. A tie, and pairs exactly at (dyadic, so exact) and one ulp
        # under min_sep along the first axis, sit on the boundary of both
        # tests.
        min_sep = 2.0 ** -10
        rng = np.random.default_rng(d)
        points = rng.random((300, d)) * 30 * min_sep
        points[:, 0] = 0.5 + rng.random(300) * 2 * min_sep
        points[1, 0] = points[0, 0]
        points[3] = points[2]
        points[2, 0], points[3, 0] = 0.5 + min_sep / 2, 0.5 + 3 * min_sep / 2
        points[5] = points[4]
        points[4, 0], points[5, 0] = 0.5, np.nextafter(0.5 + min_sep, 0.0)
        i, j = model._close_pairs(points, min_sep)
        iu, ju = np.triu_indices(300, k=1)
        close = pdist(points) < min_sep
        assert sorted(zip(i.tolist(), j.tolist())) == list(zip(iu[close].tolist(),
                                                                ju[close].tolist()))
        assert 0 < close.sum() < 0.2 * close.size
        assert (4, 5) in zip(i.tolist(), j.tolist())
        assert (2, 3) not in zip(i.tolist(), j.tolist())

    def test_stall_raises(self, monkeypatch):
        # A separation of twice the side exceeds the box diagonal in D <= 3,
        # so no second particle can ever be placed.
        monkeypatch.setattr(model, "MIN_SEPARATION_FACTOR", 2.0)
        monkeypatch.setattr(model, "MAX_PLACEMENT_ATTEMPTS", 5)
        cfg = SystemConfig(n_particles=4, dimension=3, rng_seed=6)
        with pytest.raises(PlacementError):
            place_particles(cfg, make_rng(cfg.rng_seed))


class TestCouplings:
    def test_inverse_distance(self):
        pos = np.array([[0.0], [2.0]])
        g = build_couplings(pos, eta=1.0, epsilon=1.0)
        assert g[0, 1] == pytest.approx(0.5)
        assert g[0, 0] == 0.0 and g[1, 1] == 0.0

    def test_inverse_square(self):
        pos = np.array([[0.0], [2.0]])
        g = build_couplings(pos, eta=1.0, epsilon=2.0)
        assert g[0, 1] == pytest.approx(0.25)

    def test_collinear_triple(self):
        pos = np.array([[0.0], [1.0], [3.0]])
        g = build_couplings(pos, eta=1.0, epsilon=1.0)
        assert g[0, 1] == pytest.approx(1.0)
        assert g[0, 2] == pytest.approx(1.0 / 3.0)
        assert g[1, 2] == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_broadcast_formula(self, monkeypatch, d):
        # build_couplings takes _BLOCK_ELEMENTS // N coupling rows at a time.
        # At the shared budget N = 1000 takes 15 blocks of 65 rows and one
        # of 25; a budget of 3000 elements splits N = 60 into 50 + 10 rows
        # and N = 200 into 13 blocks of 15 rows and one of 5.
        for n, elements in ((60, 3000), (200, 3000), (1000, model._BLOCK_ELEMENTS)):
            monkeypatch.setattr(model, "_BLOCK_ELEMENTS", elements)
            pos = place_particles(SystemConfig(n_particles=n, dimension=d, rng_seed=d),
                                  make_rng(d))
            off = ~np.eye(n, dtype=bool)
            r = squareform(pdist(pos))[off]
            for epsilon in (1.0, 2.5):
                g = build_couplings(pos, 1.7, epsilon)
                assert np.array_equal(g, _broadcast_couplings(pos, 1.7, epsilon))
                assert np.array_equal(g[off], 1.7 / r ** epsilon)

    def test_unit_epsilon_is_eta_over_r(self):
        # epsilon = 1 skips the power pass, which changes no bit.
        pos = place_particles(SystemConfig(n_particles=300, dimension=3, rng_seed=4),
                              make_rng(4))
        r = squareform(pdist(pos))
        off = ~np.eye(len(r), dtype=bool)
        for epsilon, expected in ((1.0, 1.7 / r[off]), (1, 1.7 / r[off]),
                                  (2.0, 1.7 / r[off] ** 2.0)):
            assert np.array_equal(build_couplings(pos, 1.7, epsilon)[off], expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("epsilon", [1.0, 1.5, 2.0])
    def test_blocks_match_matrix(self, d, epsilon):
        # A potential-mode system's blocks carry the bits of the same blocks
        # of build_couplings: on the diagonal, off it, crossing it as a
        # strip's first chunk does, and ragged at the last rows and columns.
        n = 70
        s = build_system(SystemConfig(n_particles=n, dimension=d, eta=0.7, epsilon=epsilon,
                                      rng_seed=d))
        g = build_couplings(s.positions, 0.7, epsilon)
        block = model._coupling_blocks(s, 32 * 32)
        spans = [(0, 32), (32, 64), (64, 70), (5, 11), (5, 37)]
        for r0, r1 in spans:
            for c0, c1 in spans:
                got = block(r0, r1, c0, c1)
                assert got.flags.c_contiguous and got.flags.writeable
                assert np.array_equal(got, g[r0:r1, c0:c1])

    def test_matrix_blocks_are_copies(self):
        s = build_system(SystemConfig(n_particles=40, coupling_mode="uniform-random",
                                      rng_seed=3))
        block = model._coupling_blocks(s, 40 * 40)(3, 40, 10, 17)
        assert np.array_equal(block, s.matrix[3:40, 10:17])
        block[:] = -1.0  # a writable copy: the system keeps its couplings
        assert s.matrix.min() == 0.0

    def test_coincident_particles_rejected(self):
        pos = np.array([[1.0], [1.0]])
        with pytest.raises(ValueError, match="particles 0 and 1"):
            build_couplings(pos, eta=1.0, epsilon=1.0)

    @pytest.mark.parametrize("epsilon", [1.0, 2.0])
    def test_coincident_particles_rejected_by_every_consumer(self, epsilon):
        # Particles 1 and 2 of a hand-built potential-mode system coincide:
        # every consumer of its couplings raises the element code's error,
        # naming the pair, and no numpy warning.
        amp = np.full(4, 1 / np.sqrt(2), dtype=complex)
        s = SpinSystem(positions=np.array([[0.0, 0.0], [1.0, 0.5], [1.0, 0.5], [2.0, 3.0]]),
                       amp_a=amp, amp_b=amp.copy(), epsilon=epsilon)
        times = np.array([0.0, 0.5, 1.5])
        consumers = [lambda: dynamics.coherence_magnitudes(s, times),
                     lambda: dynamics._xi(s, times), lambda: recurrence_time(s),
                     lambda: build_couplings(s.positions, s.eta, epsilon),
                     lambda: s.couplings, lambda: oracle.compare(s, times)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for consume in consumers:
                with pytest.raises(SingularCouplingError, match="particles 1 and 2,"):
                    consume()

    def test_exact_symmetry(self):
        cfg = SystemConfig(n_particles=40, dimension=3, density=1.0, rng_seed=13)
        g = build_system(cfg).couplings
        assert np.max(np.abs(g - g.T)) == 0.0

    def test_eta_scaling_exact(self):
        cfg = SystemConfig(n_particles=15, dimension=2, density=1.0, rng_seed=5)
        g1 = build_system(cfg).couplings
        g2 = build_system(dataclasses.replace(cfg, eta=2.0)).couplings
        assert np.array_equal(g2, 2.0 * g1)


class TestBuildSystem:
    @pytest.mark.parametrize("separation", [None, 1e-3])
    def test_couplings_from_placement_distances(self, monkeypatch, separation):
        # build_system takes the couplings from the placed positions; with
        # 1e-3 several candidates are resampled first.
        if separation is not None:
            monkeypatch.setattr(model, "MIN_SEPARATION_FACTOR", separation)
        for d in (1, 2, 3):
            cfg = SystemConfig(n_particles=200, dimension=d, epsilon=1.5, eta=0.7, rng_seed=d)
            s = build_system(cfg)
            assert np.array_equal(s.positions, place_particles(cfg, make_rng(cfg.rng_seed)))
            assert np.array_equal(s.couplings, build_couplings(s.positions, 0.7, 1.5))
            assert np.array_equal(s.couplings, _broadcast_couplings(s.positions, 0.7, 1.5))

    @pytest.mark.parametrize("mode", ["potential", "uniform-random"])
    def test_runs_public_build_steps(self, monkeypatch, mode):
        # build_system reaches placement through its module name, so
        # anything that rebinds it (a tracer, a test double) sees each call.
        # Neither mode builds a coupling matrix from the positions.
        calls = []
        for name in ("place_particles", "build_couplings"):
            def spy(*args, _name=name, _real=getattr(model, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(model, name, spy)
        build_system(SystemConfig(n_particles=20, coupling_mode=mode, rng_seed=4))
        assert calls == ["place_particles"]

    @pytest.mark.parametrize("d", [1, 3])
    def test_no_square_array_per_system(self, d):
        # A potential-mode system holds no N x N array, and a recurrence
        # draw sorts one block of its rows at a time, so neither comes
        # near a third of one.
        n = 1000
        cfg = SystemConfig(n_particles=n, dimension=d, rng_seed=d)
        assert build_system(cfg).matrix is None
        for build in (lambda: build_system(cfg), lambda: recurrence_stats(cfg, 3, 11)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * n * n / 3

    def test_equal_superposition_products(self):
        cfg = SystemConfig(n_particles=7, rng_seed=3)
        s = build_system(cfg)
        prods = np.abs(s.amp_a * np.conj(s.amp_b))
        assert np.allclose(prods, 0.5, atol=1e-15)

    def test_amplitude_normalization(self):
        for mode in ("equal-superposition", "random-complex"):
            cfg = SystemConfig(n_particles=200, amplitude_mode=mode, rng_seed=8)
            s = build_system(cfg)
            norms = np.abs(s.amp_a) ** 2 + np.abs(s.amp_b) ** 2
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_uniform_random_couplings(self):
        cfg = SystemConfig(n_particles=4, coupling_mode="uniform-random", rng_seed=2)
        g = build_system(cfg).couplings
        iu = np.triu_indices(4, k=1)
        assert iu[0].size == 6
        assert np.all((g[iu] >= 0.0) & (g[iu] < 1.0))
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 0.0)

    def test_uniform_random_matches_upper_triangle_fill(self):
        cfg = SystemConfig(n_particles=30, dimension=2, coupling_mode="uniform-random",
                           rng_seed=17)
        rng = make_rng(cfg.rng_seed)
        place_particles(cfg, rng)
        ref = np.zeros((30, 30))
        iu = np.triu_indices(30, k=1)
        ref[iu] = rng.random(iu[0].size)
        ref += ref.T
        assert np.array_equal(build_system(cfg).couplings, ref)

    def test_bit_identical_rebuild(self):
        cfg = SystemConfig(
            n_particles=12, dimension=2, density=3.0,
            amplitude_mode="random-complex", rng_seed=321,
        )
        s1 = build_system(cfg)
        s2 = build_system(cfg)
        assert np.array_equal(s1.positions, s2.positions)
        assert np.array_equal(s1.amp_a, s2.amp_a)
        assert np.array_equal(s1.amp_b, s2.amp_b)
        assert np.array_equal(s1.couplings, s2.couplings)

    def test_system_is_immutable(self):
        s = build_system(SystemConfig(n_particles=3, rng_seed=1))
        with pytest.raises(ValueError):
            s.couplings[0, 1] = 5.0
        with pytest.raises(ValueError):
            s.positions[0, 0] = 5.0

    @pytest.mark.parametrize("dim, rtol", [(1, 1e-9), (2, 1e-12), (3, 1e-12)])
    @pytest.mark.parametrize("epsilon", [1.0, 2.5])
    def test_density_covariance(self, dim, rtol, epsilon):
        # The same draws at density rho put every separation at rho^(-1/D)
        # times its rho = 1 value, so g(rho) = rho^(eps/D) g(1). In D = 1 the
        # closest of 1000 particles are ~1e-6 of the side apart, and the
        # positions' absolute rounding leaves ~1e-10 relative in their r.
        off = ~np.eye(1000, dtype=bool)
        base = build_system(SystemConfig(n_particles=1000, dimension=dim,
                                         epsilon=epsilon, rng_seed=5)).couplings[off]
        for rho in (0.5, 3.0):
            cfg = SystemConfig(n_particles=1000, dimension=dim, density=rho,
                               epsilon=epsilon, rng_seed=5)
            ratio = build_system(cfg).couplings[off] / base / rho ** (epsilon / dim)
            assert np.abs(ratio - 1.0).max() <= rtol


class TestGivenInput:
    """SpinSystem checks the shapes and the matrix it is given, once, at
    construction, with a one-line ValueError."""

    @staticmethod
    def parts(n=4):
        g = np.arange(n * n, dtype=float).reshape(n, n)
        amp = np.full(n, 1 / np.sqrt(2), dtype=complex)
        return dict(positions=np.zeros((n, 1)), amp_a=amp, amp_b=amp.copy(), matrix=g + g.T)

    @pytest.mark.parametrize("bad, message", [
        pytest.param(bad, message, id=bad) for bad, message in [
            ("nan pair", r"matrix must be finite, symmetric and \(4, 4\), got shape \(4, 4\)"),
            ("inf diagonal", "matrix must be finite, symmetric"),
            ("asymmetric", "matrix must be finite, symmetric"),
            ("matrix N + 1", r"matrix must be .* \(4, 4\), got shape \(5, 5\)"),
            ("positions N + 1", r"positions and amp_b must have N = 4 rows, got 5 and \(4,\)"),
            ("amp_b N + 1", r"positions and amp_b must have N = 4 rows, got 4 and \(5,\)"),
        ]])
    def test_rejects(self, bad, message):
        parts = self.parts()
        g = parts["matrix"]
        if bad == "nan pair":
            g[0, 1] = g[1, 0] = np.nan
        elif bad == "inf diagonal":
            g[2, 2] = np.inf
        elif bad == "asymmetric":
            g[0, 3] += 0.5
        elif bad == "matrix N + 1":
            parts["matrix"] = self.parts(5)["matrix"]
        elif bad == "positions N + 1":
            parts["positions"] = np.zeros((5, 1))
        else:
            parts["amp_b"] = np.full(5, 1 / np.sqrt(2), dtype=complex)
        with pytest.raises(ValueError, match=message) as info:
            SpinSystem(**parts)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("particle, scale_a, scale_b", [(1, 0.0, 0.0), (0, 2.0, 1.0)],
                             ids=["a1-b1-zero", "a0-doubled"])
    def test_rejects_unnormalised_amplitudes(self, particle, scale_a, scale_b):
        # Unchecked, a = b = 0 would make every other |z| NaN (0 / 0 in the
        # kernel's renormalisation), and a doubled a_0 would give |z_0(0)| =
        # 1, a RadicandError in the entropies and an unnormalised oracle state.
        amp = np.full(4, 1 / np.sqrt(2), dtype=complex)
        a, b = amp.copy(), amp.copy()
        a[particle] *= scale_a
        b[particle] *= scale_b
        positions = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^particle {particle}: \|a\|\^2 \+ \|b\|\^2 "
                                                 r"must be 1 within 1e-12, got ") as info:
                SpinSystem(positions=positions, amp_a=a, amp_b=b)
        assert "\n" not in str(info.value)


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_particles": 0},
        {"n_particles": 5, "dimension": 4},
        {"n_particles": 5, "density": -1.0},
        {"n_particles": 5, "eta": 0.0},
        {"n_particles": 5, "epsilon": -0.5},
        {"n_particles": 5, "eta": np.inf},
        {"n_particles": 5, "density": np.inf},
        {"n_particles": 5, "epsilon": np.nan},
        {"n_particles": 5, "amplitude_mode": "bogus"},
        {"n_particles": 5, "coupling_mode": "bogus"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_particles": 2.5}, "n_particles must be an integer, got 2.5"),
        ({"n_particles": 50.0}, "n_particles must be an integer, got 50.0"),
        ({"n_particles": 5, "dimension": 3.0}, "dimension must be an integer, got 3.0"),
    ])
    def test_rejects_non_integer_counts(self, kwargs, message):
        # A float fails at construction, not later inside numpy.
        with pytest.raises(ValueError, match=f"^{message}$"):
            SystemConfig(**kwargs)
