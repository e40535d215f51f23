"""Brute-force ground truth for small systems.

Evolves the full 2^N state vector (the Hamiltonian is diagonal in the
sigma_z product basis, so evolution is a phase per basis state), traces
down to single-particle density matrices and computes entropies by
eigendecomposition. Used to validate the closed-form dynamics.

The basis energies and the initial amplitudes do not depend on time, so
`compare` builds them once per system and only applies the phase at each
check time.
"""

from __future__ import annotations

import numpy as np

from .dynamics import coherence_magnitudes, particle_entropies
from .model import SpinSystem

PARTICLE_CAP = 14

_STATE_NORM_TOL = 1e-10
_EIG_TOL = 1e-10


class ParticleCapError(ValueError):
    """System too large for brute-force state-vector evolution."""


def _spin_signs(n: int) -> np.ndarray:
    """(2^n, n) matrix of +/-1: sign of particle k in each basis state.

    Particle 0 owns the most significant bit; bit 0 maps to +1 (state |+>).
    """
    idx = np.arange(2**n)[:, None]
    bits = (idx >> (n - 1 - np.arange(n))) & 1
    return 1.0 - 2.0 * bits


def _check_cap(n: int) -> None:
    if n > PARTICLE_CAP:
        raise ParticleCapError(f"N={n} exceeds the brute-force cap {PARTICLE_CAP}")


def _basis(system: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Energies and initial amplitudes of the 2^N basis states."""
    n = system.n_particles
    _check_cap(n)
    signs = _spin_signs(n)
    # g_ii = 0, so the per-configuration energy is 0.5 * s^T G s.
    energies = 0.5 * ((signs @ system.couplings) * signs).sum(axis=1)
    psi0 = np.where(signs > 0, system.amp_a, system.amp_b).prod(axis=1)
    return energies, psi0


def _phase(energies: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    return psi0 * np.exp(-1j * energies * t)


def _norm_deviation(state: np.ndarray) -> float:
    deviation = abs(float(np.linalg.norm(state)) - 1.0)
    if deviation > _STATE_NORM_TOL:
        raise ValueError(f"state not normalized: |psi| - 1 = {deviation}")
    return deviation


def _reduce(state: np.ndarray, particle: int) -> np.ndarray:
    # Rows: the particle's own bit; columns: every other particle's bits.
    psi = state.reshape(2**particle, 2, -1).swapaxes(0, 1).reshape(2, -1)
    return psi @ psi.conj().T


def _entropies(rhos: np.ndarray) -> np.ndarray:
    """Von Neumann entropies (nats) of a stack of density matrices."""
    lam = np.linalg.eigvalsh(rhos)
    if lam.min() < -_EIG_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lam.min()}")
    # Zero and round-off negative eigenvalues contribute nothing: ln 1 = 0.
    lam = np.where(lam > 0.0, lam, 1.0)
    return -(lam * np.log(lam)).sum(axis=-1)


def evolve(system: SpinSystem, t: float) -> np.ndarray:
    """Full state vector at time t, shape (2^N,) complex."""
    return _phase(*_basis(system), t)


def reduce_particle(state: np.ndarray, particle: int) -> np.ndarray:
    """2x2 reduced density matrix of one particle by tracing out the rest."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    if not 0 <= particle < n:
        raise IndexError(f"particle index {particle} out of range [0, {n})")
    _norm_deviation(state)
    return _reduce(state, particle)


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr(rho ln rho) in nats, by eigendecomposition."""
    return float(_entropies(rho))


def compare(system: SpinSystem, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle against the closed-form dynamics at each time.

    Returns per-time arrays (max_dz, max_ds, norm_dev): the largest
    |Delta |z_l|| and |Delta S_l| over the particles, and the deviation of
    the state norm from 1. A state whose norm is off by more than 1e-10
    raises ValueError, as `reduce_particle` does.
    """
    energies, psi0 = _basis(system)
    _norm_deviation(psi0)
    times = np.asarray(times, dtype=float)
    z_abs = coherence_magnitudes(system, times)
    s_analytic = particle_entropies(system, z_abs)
    n = system.n_particles
    max_dz, max_ds, norm_dev = (np.empty(times.size) for _ in range(3))
    for k, t in enumerate(times):
        state = _phase(energies, psi0, t)
        norm_dev[k] = _norm_deviation(state)
        rhos = np.stack([_reduce(state, l) for l in range(n)])
        max_dz[k] = np.abs(np.abs(rhos[:, 0, 1]) - z_abs[k]).max()
        max_ds[k] = np.abs(_entropies(rhos) - s_analytic[k]).max()
    return max_dz, max_ds, norm_dev
