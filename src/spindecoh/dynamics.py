"""Closed-form reduced-density-matrix dynamics.

Under the pairwise sigma_z x sigma_z Hamiltonian each single-particle
reduced density matrix keeps its diagonal and its off-diagonal element
evolves as

    z_l(t) = a_l b_l* prod_{k != l} (p_k e^{-2i g_lk t} + q_k e^{+2i g_lk t}),

with p_k = |a_k|^2 and q_k = |b_k|^2. Everything here (system coherence
Xi(t), entropies, trajectory sampling) is built on that product.

`coherence_magnitudes` evaluates |factor|^2 = (p - q)^2 + 4 p q cos^2(2 g t)
and sums log factors, so no partial product underflows. Since g_lk = g_kl,
cos^2(2 g_lk t) is the same in both orientations of a pair: the loop runs
over square tiles I <= J of the coupling matrix, evaluates cos^2 once per
unordered pair and sample, and adds each tile's row sums of log factors to
rows I and its column sums to rows J. The log factor takes the terms of
the other particle, so it is the same in both orientations only when every
particle has the same (p, q) (equal superposition); then one log serves
the pair, otherwise each orientation takes its own. On a uniform grid of T
times, cos(A + B_j) = cos A cos B_j - sin A sin B_j takes one trig pair per
block start A and one per offset B_j of blocks of K ~ sqrt(T) samples:
about 4 sqrt(T) trig calls per unordered pair instead of one per sample
and orientation (2 T), with no drift. Other times use the same loop with K = 1.
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
    Square tiles I <= J of the coupling matrix visit each unordered pair
    once; each temporary holds ~_BLOCK_ELEMENTS."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = system.n_particles
    starts, offsets = _split_grid(times)
    k = offsets.size
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    p, q = p / (p + q), q / (p + q)
    scale = 4.0 * p * q  # |factor|^2 = scale cos^2 + floor
    floor = (p - q) ** 2
    shared = bool(np.all(p == p[0]))  # then one log serves both orientations
    b = max(1, min(n, int(np.sqrt(_BLOCK_ELEMENTS / k))))
    per_chunk = max(1, _BLOCK_ELEMENTS // (k * b * b))
    ones = np.ones(b)  # tile row and column sums as matrix-vector products
    log_sq = np.zeros((starts.size, k, n))
    with np.errstate(divide="ignore"):  # an exact zero factor gives log 0 = -inf
        for i0 in range(0, n, b):
            for j0 in range(i0, n, b):
                rows, cols = slice(i0, min(i0 + b, n)), slice(j0, min(j0 + b, n))
                g2 = 2.0 * system.couplings[rows, cols]
                bi, bj = g2.shape
                if shared:
                    s, f = scale[0], floor[0]
                else:  # particle k's terms as whole tiles: rows I take k in J, rows J k in I
                    s, f, s_t, f_t = (np.broadcast_to(v, g2.shape).copy() for v in (
                        scale[cols], floor[cols], scale[rows, None], floor[rows, None]))
                ang = offsets[:, None, None] * g2
                cos_b, sin_b = np.cos(ang), np.sin(ang)
                buf_c, buf_y = np.empty((2, per_chunk, k, bi, bj))
                for b0 in range(0, starts.size, per_chunk):
                    blocks = slice(b0, b0 + per_chunk)
                    m = starts[blocks].size
                    ang = starts[blocks, None, None, None] * g2
                    c = np.multiply(np.cos(ang), cos_b, out=buf_c[:m])
                    c -= np.multiply(np.sin(ang), sin_b, out=buf_y[:m])
                    c *= c  # cos^2(2 g (A + B_j)), shared by both orientations
                    y = np.multiply(c, s, out=buf_y[:m])
                    y += f
                    np.log(y, out=y)
                    if i0 == j0:  # the k = l factor is 1
                        y.reshape(m, k, -1)[..., ::bi + 1] = 0.0
                    log_sq[blocks, :, rows] += y @ ones[:bj]
                    if i0 != j0:
                        if not shared:
                            y = c
                            y *= s_t
                            y += f_t
                            np.log(y, out=y)
                        log_sq[blocks, :, cols] += ones[:bi] @ y
    log_z = 0.5 * log_sq.reshape(-1, n)[:times.size]
    return np.abs(system.amp_a * np.conj(system.amp_b)) * np.exp(log_z)


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


def _grid_size(t_max: float, dt: float) -> int:
    """Samples in the grid t_i = i * dt that ends nearest t_max."""
    return int(round(t_max / dt)) + 1


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
