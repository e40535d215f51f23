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
cos^2(2 g_lk t) is the same in both orientations of a pair: the loop visits
each unordered pair once and evaluates cos^2 once per pair and sample. The
log factor takes the terms of the other particle; when every particle has
p = q = 1/2 (equal superposition) the squared factor is cos^2 itself and
one log serves the pair. Otherwise each orientation takes its own log.

On a uniform grid t = t_0 + (b K + j) step of T times, blocks of
K = ceil(sqrt(T)) samples split each angle as A_b + B_j (the last block is
computed in full and its samples past the grid dropped). Per pair, the
(b, j) block of cos(A_b + B_j) = cos A cos B - sin A sin B is a rank-2
outer product, [cos A_b, sin A_b] . [cos B_j; -sin B_j]. The loop runs
over strips of h rows; a strip takes its pairs (l, k >= l) in chunks of w
columns, and each chunk's S block starts in chunks of m. Per chunk of
starts, the product is one batched `np.matmul` of per-pair (m x 2)(2 x K)
operands. The start operand is read in place from the chunk's count-first
table of e^{i A}; the offsets' operand is copied pair-major from the table
of e^{-i B} once per chunk, because BLAS takes that side only with
contiguous rows. Then come the square, the log (or scale c^2 + floor and
the log, per orientation), and the row and column sums as `ones @ y`,
added to the strip's rows and the chunk's columns. A strip's first chunk
starts at its own first row: its h x h corner is evaluated in both
orientations and reaches its rows through the row sums, and the columns
past the corner take the other orientation, so only the corners are
evaluated twice. Sums go to an (N, T) accumulator, whose rows take
contiguous adds; the final 0.5 scale writes it transposed to (T, N).

Measured on a 2-core Xeon (numpy 2.4, OpenBLAS, one thread), per pair
entry at N = 200 and 2001 samples: product 0.6 ns, square 0.3, log 1.2,
row and column sums 0.3 and 0.6. At N = 1000 and 26 samples a per-pair
matmul holds only 30 entries and its call costs about 30 ns, so the
product costs 1.5 ns per entry there.

The phasors come by rotation, not by cos/sin: per chunk, e^{-i 2g step}
and e^{i 2g K step} take one complex exp each (cos and sin at once),
e^{i 2g t_0} one more when t_0 != 0, and the powers e^{-i 2g j step} and
e^{i 2g b K step} are complex products. So each unordered pair costs 2
exps (3 when t_0 != 0), whatever T, where an exp takes 30-40 ns per
element against under 1 ns for a multiply and 1-2 ns for a log. Rotation
adds rounding of about K + S ulps to a phase; a direct cos already carries
|2 g t| eps from its argument. Other times (K = 1) take a direct cos per
start and pair, written into the real part of the start table, and an
offset operand of [1; 0].

BLAS evaluates each per-pair product with fused multiply-adds, and the
chunks sum in their own order, so outputs differ from a broadcast product
in the last bits; they repeat bit for bit across processes, heap offsets
and BLAS thread counts.
"""

from __future__ import annotations

import math
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


def _phasor_powers(angle: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{i j angle} for j < len(out), written to out (complex, shape
    (count, *angle.shape)) from one complex exp: rows [j, 2j) are rows
    [0, j) turned by e^{i j angle}."""
    out[0] = 1.0
    if len(out) > 1:
        np.exp(np.multiply(angle, 1j), out=out[1])
    j = 2
    while j < len(out):
        m = min(j, len(out) - j)
        np.multiply(out[:m], out[j - 1] * out[1], out=out[j:j + m])
        j += m
    return out


def _kernel_geometry(n: int, n_starts: int, k: int) -> tuple[int, int, int]:
    """Columns per chunk w, block starts per chunk m and rows per strip h.
    A chunk's phasor tables hold max(K, S) x h x w elements, within the
    budget since h <= w. Block starts take what the budget allows at
    sqrt(w) rows, then rows take what it leaves: thin strips keep the
    corners small, long ones keep each per-pair matmul large."""
    w = max(1, min(n, int(np.sqrt(_BLOCK_ELEMENTS / max(k, n_starts)))))
    m = max(1, min(n_starts, _BLOCK_ELEMENTS // (k * w * math.isqrt(w))))
    h = max(1, min(w, _BLOCK_ELEMENTS // (k * w * m)))
    return w, m, h


def _pair_log_sums(system: SpinSystem, starts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """sum_{k != l} ln|factor_lk|^2 at t = starts[b] + offsets[j], shape
    (N, len(starts) * len(offsets)) with column b K + j; -inf where a factor
    is exactly 0. Strips of h rows take their pairs (l, k >= l) in chunks of
    w columns and m block starts, so each unordered pair is visited once;
    each chunk's product cos(A + B) is one batched matmul of per-pair
    (m x 2)(2 x K) operands, and each temporary holds ~_BLOCK_ELEMENTS."""
    n, k, n_starts = system.n_particles, offsets.size, starts.size
    step = offsets[1] if k > 1 else 0.0
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    p, q = p / (p + q), q / (p + q)
    scale = 4.0 * p * q  # |factor|^2 = scale cos^2 + floor
    floor = (p - q) ** 2
    unit = bool(np.all(scale == 1.0) and np.all(floor == 0.0))  # then |factor|^2 = cos^2
    w, m, h = _kernel_geometry(n, n_starts, k)
    ones = np.ones(w)  # row and column sums as matrix-vector products
    sums = np.zeros((n, n_starts * k))
    # Per chunk, the matmul reads the block starts' [cos A, sin A] rows in
    # place from the count-first table e^{i A} and the offsets'
    # [cos B; -sin B] from a pair-major copy of e^{-i B}.
    phase_b = np.empty(k * h * w, dtype=complex)
    phase_a = np.zeros(n_starts * h * w, dtype=complex)
    op_b = np.empty(h * w * 2 * k)
    prod = np.empty(h * w * m * k)
    if not unit:  # the row orientation takes the column particle's terms
        y_row = np.empty_like(prod)
        scale_cols = np.repeat(scale[:, None], m * k, axis=1)
        floor_cols = np.repeat(floor[:, None], m * k, axis=1)
    with np.errstate(divide="ignore"):  # an exact zero factor gives log 0 = -inf
        for i in range(0, n, h):
            ie = min(i + h, n)
            hh = ie - i
            # The first chunk starts at the strip's first row: its hh x hh
            # corner is evaluated in both orientations and reaches its rows
            # through the row sums; the columns past it take the other
            # orientation through the column sums.
            for c0 in range(i, n, w):
                c1 = min(c0 + w, n)
                ww, cut = c1 - c0, max(c0, ie) - c0
                g2 = 2.0 * system.couplings[i:ie, c0:c1]
                # e^{-i 2g B_j}, B_j = j step; [1; 0] on scattered times (K = 1)
                e_b = _phasor_powers(-step * g2, phase_b[:k * hh * ww].reshape(k, hh, ww))
                e_a = phase_a[:n_starts * hh * ww].reshape(n_starts, hh, ww)
                if k > 1:  # e^{i 2g A_b}, A_b = t_0 + b K step
                    _phasor_powers(k * step * g2, e_a)
                    if starts[0] != 0.0:
                        e_a *= np.exp(1j * starts[0] * g2)
                else:  # cos A only: the [1; 0] offset operand leaves sin A unused
                    np.cos(np.multiply.outer(starts, g2), out=e_a.real)
                op = op_b[:hh * ww * 2 * k].reshape(hh, ww, 2, k)
                np.copyto(op, e_b.view(float).reshape(k, hh, ww, 2).transpose(1, 2, 3, 0))
                cs_a = e_a.view(float).reshape(n_starts, hh, ww, 2).transpose(1, 2, 0, 3)
                for b0 in range(0, n_starts, m):
                    mb = min(m, n_starts - b0)
                    x = mb * k
                    c = np.matmul(cs_a[:, :, b0:b0 + mb], op,
                                  out=prod[:hh * ww * x].reshape(hh, ww, mb, k))
                    c *= c  # cos^2(2 g (A + B_j)), shared by both orientations
                    if unit:
                        y = np.log(c, out=c)
                    else:
                        y = np.multiply(c.reshape(hh, ww, x), scale_cols[c0:c1, :x],
                                        out=y_row[:c.size].reshape(hh, ww, x))
                        y += floor_cols[c0:c1, :x]
                        np.log(y, out=y)
                    y = y.reshape(hh, ww, x)
                    if c0 == i:  # the k = l factor is 1
                        y.reshape(hh * ww, x)[::ww + 1] = 0.0
                    sums[i:ie, b0 * k:b0 * k + x] += ones[:ww] @ y
                    if cut < ww:
                        y = y[:, cut:]
                        if not unit:  # the column orientation takes the row particle's terms
                            y = c.reshape(hh, ww, x)[:, cut:]
                            y *= scale[i:ie, None, None]
                            y += floor[i:ie, None, None]
                            np.log(y, out=y)
                        sums[c0 + cut:c1, b0 * k:b0 * k + x] += (
                            ones[:hh] @ y.reshape(hh, -1)).reshape(ww - cut, x)
    return sums


def _log_decay(system: SpinSystem, times: np.ndarray) -> np.ndarray:
    """ln(|z_l(t)| / |a_l b_l|) = sum_{k != l} ln|factor_lk|, shape
    (len(times), N); -inf where a factor is exactly 0."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    # The kernel's buffers are freed when _pair_log_sums returns, before the
    # result is allocated: the peak holds the sums and the result only.
    sums = _pair_log_sums(system, *_split_grid(times))
    return np.multiply(sums[:, :times.size].T, 0.5, order="C")


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
    if not np.all((radicand >= -EIGENVALUE_CLAMP) & (radicand <= 1.0 + EIGENVALUE_CLAMP)):
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
