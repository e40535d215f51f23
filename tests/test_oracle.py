import numpy as np
import pytest

from spindecoh import oracle
from spindecoh.dynamics import coherence_magnitudes, particle_entropies
from spindecoh.model import SystemConfig, build_system
from spindecoh.oracle import (
    ParticleCapError,
    compare,
    evolve,
    reduce_particle,
    vn_entropy,
)

from test_dynamics import entropy_total
from test_model import make_custom_system


def random_system(n, seed, amplitude_mode="equal-superposition", coupling_mode="potential"):
    return build_system(SystemConfig(
        n_particles=n, dimension=3, density=1.0,
        amplitude_mode=amplitude_mode, coupling_mode=coupling_mode, rng_seed=seed,
    ))


def einsum_energies(system):
    """Basis energies 0.5 s^T G s by the three-operand einsum."""
    signs = oracle._spin_signs(system.n_particles)
    return 0.5 * np.einsum("si,ij,sj->s", signs, system.couplings, signs)


def per_time_loop(system, times):
    """Reference comparison: one state, one partial trace and one
    eigendecomposition per particle and time, all rebuilt from scratch."""
    n = system.n_particles
    signs = oracle._spin_signs(n)
    psi0 = np.where(signs > 0, system.amp_a, system.amp_b).prod(axis=1)
    z_abs = coherence_magnitudes(system, times)
    rows = []
    for k, t in enumerate(times):
        state = psi0 * np.exp(-1j * einsum_energies(system) * t)
        s_analytic = particle_entropies(system, z_abs[k])
        dz = ds = 0.0
        for l in range(n):
            psi = state.reshape(2**l, 2, 2 ** (n - 1 - l))
            rho = np.einsum("aib,ajb->ij", psi, psi.conj())
            lam = np.linalg.eigvalsh(rho)
            lam = lam[lam > 0.0]
            dz = max(dz, abs(abs(rho[0, 1]) - z_abs[k, l]))
            ds = max(ds, abs(float(-(lam * np.log(lam)).sum()) - s_analytic[l]))
        rows.append((dz, ds, abs(np.linalg.norm(state) - 1.0)))
    return tuple(np.array(col) for col in zip(*rows))


class TestEvolve:
    def test_initial_product_state(self):
        s = random_system(4, seed=1, amplitude_mode="random-complex")
        psi = evolve(s, 0.0)
        # basis 0b0000 is all |+>: product of a_k
        assert psi[0] == pytest.approx(np.prod(s.amp_a), abs=1e-14)
        assert psi[-1] == pytest.approx(np.prod(s.amp_b), abs=1e-14)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_two_particle_phases(self):
        g = 0.8
        s = make_custom_system([[0.0, g], [g, 0.0]])
        t = 1.9
        psi = evolve(s, t)
        expected_phases = np.exp(-1j * np.array([g, -g, -g, g]) * t)
        assert np.allclose(psi, 0.5 * expected_phases, atol=1e-13)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            s = random_system(7, seed=seed, amplitude_mode="random-complex")
            t = float(rng.random() * 100)
            assert abs(np.linalg.norm(evolve(s, t)) - 1.0) < 1e-12

    def test_cap(self):
        s = random_system(15, seed=3)
        with pytest.raises(ParticleCapError):
            evolve(s, 1.0)

    @pytest.mark.parametrize("amplitude_mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("coupling_mode", ["potential", "uniform-random"])
    def test_matches_einsum_energies(self, amplitude_mode, coupling_mode):
        for n in (2, 5, 10):
            s = random_system(n, seed=20 + n, amplitude_mode=amplitude_mode,
                              coupling_mode=coupling_mode)
            psi0 = evolve(s, 0.0)
            energies = einsum_energies(s)
            for t in (0.3, 7.0, 99.0):
                expected = psi0 * np.exp(-1j * energies * t)
                assert np.abs(evolve(s, t) - expected).max() <= 1e-12 * (1 + t)


class TestReduce:
    def test_unentangled_projector(self):
        s = random_system(5, seed=4, amplitude_mode="random-complex")
        psi = evolve(s, 0.0)
        for l in range(5):
            rho = reduce_particle(psi, l)
            a, b = s.amp_a[l], s.amp_b[l]
            expected = np.array([
                [abs(a) ** 2, a * np.conj(b)],
                [np.conj(a) * b, abs(b) ** 2],
            ])
            assert np.allclose(rho, expected, atol=1e-13)

    def test_diagonals_time_independent(self):
        s = random_system(6, seed=5, amplitude_mode="random-complex")
        for t in (0.0, 2.3, 41.0):
            psi = evolve(s, t)
            for l in range(6):
                rho = reduce_particle(psi, l)
                assert rho[0, 0].real == pytest.approx(abs(s.amp_a[l]) ** 2, abs=1e-12)
                assert rho[1, 1].real == pytest.approx(abs(s.amp_b[l]) ** 2, abs=1e-12)

    def test_density_matrix_properties(self):
        s = random_system(6, seed=6)
        psi = evolve(s, 7.7)
        for l in range(6):
            rho = reduce_particle(psi, l)
            assert np.allclose(rho, rho.conj().T, atol=1e-13)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_relabeling_invariance(self):
        # Reversing the particle order relabels reduced matrices consistently.
        n = 5
        s = random_system(n, seed=7, amplitude_mode="random-complex")
        perm = np.arange(n)[::-1]
        s_rev = make_custom_system(
            s.couplings[np.ix_(perm, perm)],
            amp_a=s.amp_a[perm], amp_b=s.amp_b[perm],
        )
        t = 3.3
        psi, psi_rev = evolve(s, t), evolve(s_rev, t)
        for l in range(n):
            rho = reduce_particle(psi, l)
            rho_rev = reduce_particle(psi_rev, n - 1 - l)
            assert np.allclose(rho, rho_rev, atol=1e-12)

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            reduce_particle(np.ones(3, dtype=complex), 0)
        with pytest.raises(ValueError):
            reduce_particle(np.ones(4, dtype=complex), 0)  # unnormalized


class TestVnEntropy:
    def test_pure_projector(self):
        assert vn_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(0.0)

    def test_maximally_mixed(self):
        assert vn_entropy(0.5 * np.eye(2)) == pytest.approx(np.log(2), abs=1e-14)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            vn_entropy(np.array([[1.1, 0.0], [0.0, -0.1]]))

    def test_matches_closed_form(self):
        s = random_system(6, seed=8, amplitude_mode="random-complex")
        t = 5.1
        psi = evolve(s, t)
        total = sum(vn_entropy(reduce_particle(psi, l)) for l in range(6))
        assert total == pytest.approx(entropy_total(s, t), abs=1e-10)


class TestMutualInformation:
    """The global state stays pure, so its correlation information
    sum_l S(rho_l) - S(rho) is the total subsystem entropy S_tot."""

    def test_zero_at_start(self):
        s = random_system(4, seed=9)
        assert entropy_total(s, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_two_qubit_maximum(self):
        g = 1.0
        s = make_custom_system([[0.0, g], [g, 0.0]])
        assert entropy_total(s, np.pi / 4) == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_matches_entropy_total(self):
        for n in (3, 6, 9):
            s = random_system(n, seed=n, amplitude_mode="random-complex")
            t = 0.37 * n
            state = evolve(s, t)
            total = sum(vn_entropy(reduce_particle(state, l)) for l in range(n))
            assert total == pytest.approx(entropy_total(s, t), abs=1e-10)

    def test_purity_check(self):
        s = random_system(3, seed=10)
        # Shrinking a keeps every eigenvalue radicand in [0, 1], so the
        # state-norm check is what fails.
        bad = make_custom_system(s.couplings, amp_a=s.amp_a * 0.999, amp_b=s.amp_b)
        with pytest.raises(ValueError, match="not normalized"):
            compare(bad, [1.0])

    def test_norm_checked_before_closed_form(self):
        # Growing a pushes |a|^2 |b|^2 past what the closed-form radicand
        # allows; the norm check must fail first. RadicandError is itself a
        # ValueError, so the message tells the two apart.
        s = random_system(3, seed=10)
        bad = make_custom_system(s.couplings, amp_a=s.amp_a * 1.001, amp_b=s.amp_b)
        with pytest.raises(ValueError, match="state not normalized"):
            compare(bad, [1.0])


class TestCompare:
    @pytest.mark.parametrize("amplitude_mode", ["equal-superposition", "random-complex"])
    @pytest.mark.parametrize("coupling_mode", ["potential", "uniform-random"])
    def test_matches_per_time_loop(self, amplitude_mode, coupling_mode):
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            s = random_system(n, seed=30 + n, amplitude_mode=amplitude_mode,
                              coupling_mode=coupling_mode)
            times = rng.random(6) * 100.0
            got = compare(s, times)
            want = per_time_loop(s, times)
            for g, w in zip(got, want):
                assert g.shape == (6,)
                assert np.abs(g - w).max() <= 1e-13
            assert max(got[0].max(), got[1].max()) < 1e-10
            assert got[2].max() < 1e-12

    def test_cap(self):
        s = random_system(15, seed=3)
        with pytest.raises(ParticleCapError):
            compare(s, [1.0])

    def test_detects_wrong_kernel(self, monkeypatch):
        s = random_system(6, seed=12, amplitude_mode="random-complex")
        times = np.array([0.05, 0.2, 1.0])
        max_dz, _, _ = compare(s, times)
        assert max_dz.max() < 1e-10
        monkeypatch.setattr(
            oracle, "coherence_magnitudes",
            lambda system, t: coherence_magnitudes(system, t) * (1 + 1e-8))
        max_dz, _, _ = compare(s, times)
        assert max_dz.max() > 1e-10
