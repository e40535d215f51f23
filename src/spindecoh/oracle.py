"""Brute-force ground truth for small systems.

Evolves the full 2^N state vector (the Hamiltonian is diagonal in the
sigma_z product basis, so evolution is a phase per basis state), traces
down to single-particle density matrices and computes entropies by
eigendecomposition. Used to validate the closed-form dynamics.

Flipping every spin leaves the energy 0.5 s^T G s unchanged, so basis
state x and its complement 2^N - 1 - x share a phase: one complex exp
serves each pair. A partial-trace entry is a dot product of the two
halves of the state split at the particle's bit, taken on views of the
state. The basis energies, the initial amplitudes and the populations do
not depend on time, so `compare` takes them once per system and computes
only the phase and each particle's coherence at each check time.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import coherence_magnitudes, particle_entropies
from .model import SpinSystem

PARTICLE_CAP = 14

_STATE_NORM_TOL = 1e-10
_EIG_TOL = 1e-10

# Halves with rows this long are summed along their contiguous rows;
# shorter rows cost more per dot-product call than a strided column sum.
_MIN_ROW = 16


class ParticleCapError(ValueError):
    """System too large for brute-force state-vector evolution."""


@functools.lru_cache(maxsize=1)
def _spin_signs(n: int) -> np.ndarray:
    """(2^n, n) matrix of +/-1: sign of particle k in each basis state.

    Particle 0 owns the most significant bit; bit 0 maps to +1 (state |+>).
    The table is cached for the last n and read-only, so a loop of `evolve`
    calls over one system builds it once.
    """
    idx = np.arange(2**n)[:, None]
    bits = (idx >> (n - 1 - np.arange(n))) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


def _check_cap(n: int) -> None:
    if n > PARTICLE_CAP:
        raise ParticleCapError(f"N={n} exceeds the brute-force cap {PARTICLE_CAP}")


def _basis(system: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Phase rates -i E of the 2^(N-1) basis states with particle 0 in |+>,
    and the initial amplitudes of all 2^N basis states."""
    n = system.n_particles
    _check_cap(n)
    signs = _spin_signs(n)
    half = signs[:2 ** (n - 1)]
    # The energy is 0.5 s^T G s; a diagonal adds the same 0.5 tr G to every
    # state, a global phase that no reduced density matrix sees.
    rates = -1j * (0.5 * ((half @ system.couplings) * half).sum(axis=1))
    psi0 = np.where(signs > 0, system.amp_a, system.amp_b).prod(axis=1)
    return rates, psi0


def _phase(rates: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """psi0 e^{-i E t}: state x < 2^(N-1) takes exp(rates[x] t), and its
    complement 2^N - 1 - x, of the same energy, the same value."""
    half = np.exp(rates * t)
    return psi0 * np.concatenate((half, half[::-1]))


def _norm_deviation(state: np.ndarray) -> float:
    deviation = abs(float(np.linalg.norm(state)) - 1.0)
    if deviation > _STATE_NORM_TOL:
        raise ValueError(f"state not normalized: |psi| - 1 = {deviation}")
    return deviation


def _entry(state: np.ndarray, particle: int, i: int, j: int) -> complex:
    """rho_ij of one particle: sum over every other particle's bits of
    psi(..i..) psi*(..j..), a dot product of the halves of the state with
    the particle's bit i and j, taken on views (no copy, no conj)."""
    halves = state.reshape(2**particle, 2, -1)
    axis = 1 if halves.shape[2] >= _MIN_ROW else 0
    return np.vecdot(halves[:, j], halves[:, i], axis=axis).sum()


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
    z = _entry(state, particle, 0, 1)
    return np.array([[_entry(state, particle, 0, 0).real, z],
                     [z.conjugate(), _entry(state, particle, 1, 1).real]])


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr(rho ln rho) in nats, by eigendecomposition."""
    return float(_entropies(rho))


def compare(system: SpinSystem, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle against the closed-form dynamics at each time (a scalar is
    one time).

    Returns per-time arrays (max_dz, max_ds, norm_dev): the largest
    |Delta |z_l|| and |Delta S_l| over the particles, and the deviation of
    the state norm from 1. A state whose norm is off by more than 1e-10
    raises ValueError, as `reduce_particle` does.
    """
    rates, psi0 = _basis(system)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    z_abs = coherence_magnitudes(system, times)
    s_analytic = particle_entropies(system, z_abs)
    n = system.n_particles
    rhos = np.empty((n, 2, 2), dtype=complex)
    # A phase leaves |psi|^2, and so every population, as it is at t = 0.
    rhos[:, 0, 0] = [_entry(psi0, l, 0, 0).real for l in range(n)]
    rhos[:, 1, 1] = [_entry(psi0, l, 1, 1).real for l in range(n)]
    max_dz, max_ds, norm_dev = (np.empty(times.size) for _ in range(3))
    for k, t in enumerate(times):
        state = _phase(rates, psi0, t)
        norm_dev[k] = _norm_deviation(state)
        rhos[:, 0, 1] = [_entry(state, l, 0, 1) for l in range(n)]
        rhos[:, 1, 0] = rhos[:, 0, 1].conj()
        max_dz[k] = np.abs(np.abs(rhos[:, 0, 1]) - z_abs[k]).max()
        max_ds[k] = np.abs(_entropies(rhos) - s_analytic[k]).max()
    return max_dz, max_ds, norm_dev
