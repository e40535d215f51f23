"""Closed-form reduced-density-matrix dynamics.

Under the pairwise sigma_z x sigma_z Hamiltonian each single-particle
reduced density matrix keeps its diagonal and its off-diagonal element
evolves as

    z_l(t) = a_l b_l* prod_{k != l} (p_k e^{-2i g_lk t} + q_k e^{+2i g_lk t}),

with p_k = |a_k|^2 and q_k = |b_k|^2. Everything here (system coherence
Xi(t), entropies, trajectory sampling) is built on that product.

`coherence_magnitudes` evaluates |factor|^2 = (p - q)^2 + 4 p q cos^2(2 g t)
and sums log factors (`_log_decay`, ln(|z_l| / |a_l b_l|)), so no partial
product underflows; only the final exp can. Since g_lk = g_kl,
cos^2(2 g_lk t) is the same in both orientations of a pair: the loop runs
over square tiles I <= J of the coupling matrix, evaluates cos^2 once per
unordered pair and sample, and adds each tile's row sums of log factors to
rows I and its column sums to rows J. The log factor takes the terms of
the other particle, so it is the same in both orientations only when every
particle has the same (p, q) (equal superposition); then one log serves
the pair, and with p = q = 1/2 the squared factor is cos^2 itself.
Otherwise each orientation takes its own log.

On a uniform grid t = t_0 + (b K + j) step of T times, blocks of
K = ceil(sqrt(T)) samples (the last one stopping at the last sample)
split each angle as A_b + B_j, and
cos(A + B) = cos A cos B - sin A sin B. The phasors come by rotation, not
by cos/sin: per tile, e^{i 2g step} and e^{i 2g K step} take one direct
cos and sin each, e^{i 2g t_0} two more when t_0 != 0, and the powers
e^{i 2g j step} and e^{i 2g b K step} are complex products (4 multiplies,
2 adds). So each unordered pair costs 4 cos/sin calls per tile (6 when
t_0 != 0), whatever T, where numpy's cos and sin take 20-30 ns per
element against under 1 ns for a multiply and 1-2 ns for a log. Rotation
adds rounding of about K + S ulps to a phase, S being the number of block
starts; a direct cos already carries |2 g t| eps from its argument. Other
times (K = 1) use the same loop with a direct cos per start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from .model import SpinSystem, _positive_finite

# Radicand of the eigenvalue square root may leave [0, 1] by round-off; this
# much is silently clamped, anything worse is a hard error.
EIGENVALUE_CLAMP = 1e-12

# Upper bound on samples * N for trajectory sampling.
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
    coherences: (n, N) per-particle |z_l(t)|; None for a trajectory built
        from Xi alone.
    """

    times: np.ndarray
    xi: np.ndarray
    coherences: np.ndarray | None = None


def _split_grid(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, offsets) with times[b*K + j] = starts[b] + offsets[j] up to
    rounding: K = ceil(sqrt(T)) on a uniform grid (padded at the end), else 1.
    The step is taken over the whole span, so a grid far from 0 whose
    first difference carries the rounding of its first times is uniform too."""
    if times.size > 1:
        step = (times[-1] - times[0]) / (times.size - 1)
        deviation = np.abs(times - (times[0] + step * np.arange(times.size)))
        if np.all(deviation <= 4.0 * np.finfo(float).eps * np.abs(times).max()):
            k = int(np.ceil(np.sqrt(times.size)))
            return times[::k], step * np.arange(k)
    return times, np.zeros(1)


def _turn(c, s, w_c, w_s, out_c, out_s, tmp):
    """(c + i s)(w_c + i w_s) written to (out_c, out_s), which must not
    overlap c or s; tmp holds one product."""
    np.multiply(c, w_c, out=out_c)
    out_c -= np.multiply(s, w_s, out=tmp)
    np.multiply(s, w_c, out=out_s)
    out_s += np.multiply(c, w_s, out=tmp)
    return out_c, out_s


def _phasor_powers(angle: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of j * angle for j < count, each (count, *angle.shape),
    from one direct cos/sin: rows [j, 2j) are rows [0, j) turned by j * angle."""
    c, s = np.empty((2, count) + angle.shape)
    c[0], s[0] = 1.0, 0.0
    if count > 1:
        c[1], s[1] = np.cos(angle), np.sin(angle)
    w_c, w_s = np.empty((2,) + angle.shape)
    tmp = np.empty((count // 2,) + angle.shape)
    j = 2
    while j < count:
        m = min(j, count - j)
        _turn(c[j - 1], s[j - 1], c[1], s[1], w_c, w_s, tmp[0])  # e^{i j angle}
        _turn(c[:m], s[:m], w_c, w_s, c[j:j + m], s[j:j + m], tmp[:m])
        j += m
    return c, s


def _log_decay(system: SpinSystem, times: np.ndarray) -> np.ndarray:
    """ln(|z_l(t)| / |a_l b_l|) = sum_{k != l} ln|factor_lk|, shape
    (len(times), N); -inf where a factor is exactly 0. Square tiles I <= J
    of the coupling matrix visit each unordered pair once; each temporary
    holds ~_BLOCK_ELEMENTS."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = system.n_particles
    starts, offsets = _split_grid(times)
    k = offsets.size
    uniform = k > 1
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    p, q = p / (p + q), q / (p + q)
    scale = 4.0 * p * q  # |factor|^2 = scale cos^2 + floor
    floor = (p - q) ** 2
    shared = bool(np.all(p == p[0]))  # then one log serves both orientations
    unit = shared and scale[0] == 1.0 and floor[0] == 0.0  # then |factor|^2 = cos^2
    b = max(1, min(n, int(np.sqrt(_BLOCK_ELEMENTS / k))))
    per_chunk = max(1, _BLOCK_ELEMENTS // (k * b * b))
    ones = np.ones(b)  # tile row and column sums as matrix-vector products
    log_sq = np.zeros((starts.size, k, n))
    # (first start, end start, samples per start); the last block stops at
    # the grid's last sample.
    full, rest = divmod(times.size, k)
    chunks = [(b0, min(b0 + per_chunk, full), k) for b0 in range(0, full, per_chunk)]
    if rest:
        chunks.append((full, full + 1, rest))
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
                if uniform:  # e^{i 2g A_b}, A_b = t_0 + b K step, and e^{i 2g B_j}, B_j = j step
                    cos_b, sin_b = _phasor_powers(offsets[1] * g2, k)
                    cos_a, sin_a = _phasor_powers(k * offsets[1] * g2, starts.size)
                    if starts[0] != 0.0:
                        ang = starts[0] * g2
                        cos_a, sin_a = _turn(cos_a, sin_a, np.cos(ang), np.sin(ang),
                                             *np.empty((3,) + cos_a.shape))
                buf_c, buf_y = np.empty((2, per_chunk, k, bi, bj))
                for b0, b1, r in chunks:
                    blocks, m = slice(b0, b1), b1 - b0
                    c = buf_c[:m, :r]
                    if uniform:  # cos(A + B_j) = cos A cos B_j - sin A sin B_j
                        np.multiply(cos_a[blocks, None], cos_b[:r], out=c)
                        c -= np.multiply(sin_a[blocks, None], sin_b[:r], out=buf_y[:m, :r])
                    else:
                        np.cos(starts[blocks, None, None, None] * g2, out=c)
                    c *= c  # cos^2(2 g (A + B_j)), shared by both orientations
                    if unit:
                        y = np.log(c, out=c)
                    else:
                        y = np.multiply(c, s, out=buf_y[:m, :r])
                        y += f
                        np.log(y, out=y)
                    if i0 == j0:  # the k = l factor is 1
                        y.reshape(m, r, -1)[..., ::bi + 1] = 0.0
                    log_sq[blocks, :r, rows] += y @ ones[:bj]
                    if i0 != j0:
                        if not shared:
                            y = c
                            y *= s_t
                            y += f_t
                            np.log(y, out=y)
                        log_sq[blocks, :r, cols] += ones[:bi] @ y
    return 0.5 * log_sq.reshape(-1, n)[:times.size]


def coherence_magnitudes(system: SpinSystem, times: np.ndarray) -> np.ndarray:
    """|z_l(t)| for all particles at each time; shape (len(times), N)."""
    return np.abs(system.amp_a * np.conj(system.amp_b)) * np.exp(_log_decay(system, times))


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


def _time_grid(dt: float, t_max: float, n_particles: int) -> np.ndarray:
    """Grid t_i = i * dt that ends nearest t_max, checked before it is built."""
    _positive_finite("dt", dt)
    _positive_finite("tmax", t_max)
    if not np.isfinite(t_max / dt):
        raise ValueError(f"tmax / dt must be finite, got {t_max} / {dt}")
    n_samples = int(round(t_max / dt)) + 1
    if n_samples < 2:
        raise ValueError(f"the grid needs >= 2 samples, got {n_samples} "
                         f"from tmax {t_max} and dt {dt}")
    if n_samples * n_particles > MAX_TRAJECTORY_ELEMENTS:
        raise ValueError(f"trajectory of {n_samples} samples x {n_particles} particles "
                         f"exceeds the element cap {MAX_TRAJECTORY_ELEMENTS}")
    return dt * np.arange(n_samples)


def sample_trajectory(system: SpinSystem, dt: float = 0.05, t_max: float = 100.0) -> Trajectory:
    """Sample every |z_l(t)| and Xi(t) on the grid t_i = i * dt that ends
    nearest t_max."""
    times = _time_grid(dt, t_max, system.n_particles)
    z_abs = coherence_magnitudes(system, times)
    return Trajectory(times, z_abs.mean(axis=1), z_abs)
