"""Closed-form reduced-density-matrix dynamics.

Under the pairwise sigma_z x sigma_z Hamiltonian each single-particle
reduced density matrix keeps its diagonal and its off-diagonal element
evolves as

    z_l(t) = a_l b_l* prod_{k != l} (p_k e^{-2i g_lk t} + q_k e^{+2i g_lk t}),

with p_k = |a_k|^2 and q_k = |b_k|^2. Everything here (system coherence
Xi(t), entropies, trajectory sampling) is built on that product.

`coherence_magnitudes` evaluates |factor|^2 = (p - q)^2 + 4 p q cos^2(2 g t)
and sums log factors, so no partial product underflows. On a uniform grid
of T times, cos(A + B_j) = cos A cos B_j - sin A sin B_j takes one trig pair
per block start A and one per offset B_j of blocks of K ~ sqrt(T) samples:
about 4 sqrt(T) trig calls per pair instead of T, with no drift. Other
times use the same loop with K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from .model import SpinSystem

# Radicand of the eigenvalue square root may leave [0, 1] by round-off; this
# much is silently clamped, anything worse is a hard error.
EIGENVALUE_CLAMP = 1e-12

# Upper bound on n_samples * N for trajectory sampling.
MAX_TRAJECTORY_ELEMENTS = 50_000_000

# Elements in one kernel temporary (time blocks x offsets x rows x N);
# 64K float64 values keep a block's working set inside L2.
_BLOCK_ELEMENTS = 65_536


class RadicandError(ValueError):
    """Eigenvalue radicand outside [0, 1] beyond round-off (a numerical failure)."""


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time series of the decoherence function.

    times: (n,) grid starting at 0 with uniform step (gt units).
    xi: (n,) values of Xi(t).
    coherences: optional (n, N) per-particle |z_l(t)|.
    entropy: optional (n,) total subsystem entropy S_tot(t) in nats.
    """

    times: np.ndarray
    xi: np.ndarray
    coherences: np.ndarray | None = None
    entropy: np.ndarray | None = None


def _split_grid(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, offsets) with times[b*K + j] = starts[b] + offsets[j] up to
    rounding: K = ceil(sqrt(T)) on a uniform grid (padded at the end), else 1."""
    if times.size > 1:
        step = times[1] - times[0]
        deviation = np.abs(times - (times[0] + step * np.arange(times.size)))
        if np.all(deviation <= 4.0 * np.finfo(float).eps * np.abs(times).max()):
            k = int(np.ceil(np.sqrt(times.size)))
            return times[::k], step * np.arange(k)
    return times, np.zeros(1)


def coherence_magnitudes(system: SpinSystem, times: np.ndarray) -> np.ndarray:
    """|z_l(t)| for all particles at each time; shape (len(times), N).
    Particles run in row blocks so each temporary holds ~_BLOCK_ELEMENTS."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = system.n_particles
    starts, offsets = _split_grid(times)
    k = offsets.size
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    p, q = p / (p + q), q / (p + q)
    scale = 2.0 * np.sqrt(p * q)  # |factor|^2 = (scale cos)^2 + floor
    floor = (p - q) ** 2
    rows = max(1, min(n, _BLOCK_ELEMENTS // (k * n)))
    per_chunk = max(1, _BLOCK_ELEMENTS // (k * rows * n))
    log_sq = np.empty((starts.size, k, n))
    with np.errstate(divide="ignore"):  # an exact zero factor gives log 0 = -inf
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            g2 = 2.0 * system.couplings[r0:r1]
            off = np.arange(r0, r1)[:, None] != np.arange(n)  # the k = l factor is 1
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


def xi(system: SpinSystem, t: float) -> float:
    """Whole-system decoherence function Xi(t) = (1/N) sum_l |z_l(t)|."""
    return float(coherence_magnitudes(system, [t])[0].mean())


def particle_entropies(system: SpinSystem, z_abs: np.ndarray) -> np.ndarray:
    """Per-particle entropies (nats) from precomputed |z_l| values;
    broadcasts over leading axes of z_abs.

    The eigenvalues of [[|a|^2, z], [z*, |b|^2]] are 0.5 +- root with
    root = 0.5 sqrt(1 - 4 (|a|^2 |b|^2 - |z|^2)).
    """
    pq = np.abs(system.amp_a) ** 2 * np.abs(system.amp_b) ** 2
    radicand = 1.0 - 4.0 * (pq - np.asarray(z_abs, dtype=float) ** 2)
    if np.any((radicand < -EIGENVALUE_CLAMP) | (radicand > 1.0 + EIGENVALUE_CLAMP)):
        raise RadicandError("eigenvalue radicand outside [0, 1] beyond round-off")
    root = 0.5 * np.sqrt(np.clip(radicand, 0.0, 1.0))
    return entr(0.5 + root) + entr(0.5 - root)


def entropy_total(system: SpinSystem, t: float) -> float:
    """Total subsystem entropy S_tot(t) = sum_l S(rho_l) in nats."""
    return float(particle_entropies(system, coherence_magnitudes(system, [t])[0]).sum())


def _time_grid(dt: float, n_samples: int, n_particles: int) -> np.ndarray:
    """Grid t_i = i * dt, i < n_samples, checked before it is built."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if n_samples * n_particles > MAX_TRAJECTORY_ELEMENTS:
        raise ValueError(f"trajectory of {n_samples} samples x {n_particles} particles "
                         f"exceeds the element cap {MAX_TRAJECTORY_ELEMENTS}")
    return dt * np.arange(n_samples)


def sample_trajectory(
    system: SpinSystem,
    dt: float = 0.05,
    n_samples: int = 2001,
    include_coherences: bool = False,
    include_entropy: bool = False,
) -> Trajectory:
    """Sample Xi(t) on the uniform grid t_i = i * dt, i = 0..n_samples-1."""
    times = _time_grid(dt, n_samples, system.n_particles)
    z_abs = coherence_magnitudes(system, times)
    entropy = particle_entropies(system, z_abs).sum(axis=1) if include_entropy else None
    return Trajectory(times, z_abs.mean(axis=1), z_abs if include_coherences else None, entropy)
