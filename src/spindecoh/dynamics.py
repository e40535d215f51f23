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
over square tiles I <= J of the coupling matrix and evaluates cos^2 once
per unordered pair and sample. The log factor takes the terms of the other
particle, so it is the same in both orientations only when every particle
has the same (p, q) (equal superposition); then one log serves the pair,
and with p = q = 1/2 the squared factor is cos^2 itself. Otherwise each
orientation takes its own log.

On a uniform grid t = t_0 + (b K + j) step of T times, blocks of
K = ceil(sqrt(T)) samples split each angle as A_b + B_j (the last block is
computed in full and its samples past the grid dropped). Per pair, the
(b, j) block of cos(A_b + B_j) = cos A cos B - sin A sin B is a rank-2
outer product, [cos A_b, sin A_b] . [cos B_j; -sin B_j]. A tile is
evaluated pair-major in strips of h tile rows x m block starts, and each
strip's product is one batched `np.matmul` of per-pair (m x 2)(2 x K)
operands. The block-start operand is read in place from the tile's
count-first table of e^{i A}; the offsets' operand is copied pair-major
from the table of e^{-i B} once per strip, because BLAS takes that side
only with contiguous rows. Then come the square, the log (or
scale c^2 + floor and the log, per orientation), and the strip's row and
column sums as `ones @ y`, added to rows I and rows J. A strip of a
diagonal tile takes columns only from its own first row on: its h x h
corner is evaluated in both orientations and reaches its rows through the
row sums, and the columns past the corner take the other orientation, so
of a diagonal tile only those corners are evaluated twice. Sums go to an
(N, T) accumulator, whose rows take contiguous adds; the final 0.5 scale
writes it transposed to (T, N).

Measured on a 2-core Xeon (numpy 2.4, OpenBLAS, one thread), per pair
entry at N = 200 and 2001 samples: product 0.6 ns (three broadcast passes
took 2.2), square 0.3, log 1.2, row and column sums 0.3 and 0.6. At
N = 1000 and 26 samples a per-pair matmul holds only 30 entries and its
call costs about 30 ns, so the product costs 1.5 ns per entry there.

The phasors come by rotation, not by cos/sin: per tile, e^{-i 2g step} and
e^{i 2g K step} take one complex exp each (cos and sin at once), e^{i 2g t_0}
one more when t_0 != 0, and the powers e^{-i 2g j step} and e^{i 2g b K step}
are complex products. So each unordered pair costs 2 exps per tile (3
when t_0 != 0), whatever T, where an exp takes 30-40 ns per element
against under 1 ns for a multiply and 1-2 ns for a log. Rotation adds
rounding of about K + S ulps to a phase, S being the number of block
starts; a direct cos already carries |2 g t| eps from its argument. Other
times (K = 1) use the same loop with a direct cos per start and an
offset operand of [1; 0].

BLAS evaluates each per-pair product with fused multiply-adds, and the
strips sum in their own order, so outputs differ from a broadcast product
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


def _pair_log_sums(system: SpinSystem, starts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """sum_{k != l} ln|factor_lk|^2 at t = starts[b] + offsets[j], shape
    (N, len(starts) * len(offsets)) with column b K + j; -inf where a factor
    is exactly 0. Square tiles I <= J of the coupling matrix visit each
    unordered pair once, in strips of tile rows x block starts; each strip's
    product cos(A + B) is one batched matmul of per-pair (m x 2)(2 x K)
    operands, and each temporary holds ~_BLOCK_ELEMENTS."""
    n, k, n_starts = system.n_particles, offsets.size, starts.size
    uniform = k > 1
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    p, q = p / (p + q), q / (p + q)
    scale = 4.0 * p * q  # |factor|^2 = scale cos^2 + floor
    floor = (p - q) ** 2
    shared = bool(np.all(p == p[0]))  # then one log serves both orientations
    unit = shared and scale[0] == 1.0 and floor[0] == 0.0  # then |factor|^2 = cos^2
    b = max(1, min(n, int(np.sqrt(_BLOCK_ELEMENTS / k))))  # tile side
    # Block starts per strip as the budget allows at sqrt(b) tile rows, then
    # as many rows as it leaves: thin strips keep a diagonal tile's corners
    # small, long ones keep each per-pair matmul large.
    m = max(1, min(n_starts, _BLOCK_ELEMENTS // (k * b * math.isqrt(b))))
    h = max(1, min(b, _BLOCK_ELEMENTS // (k * b * m)))  # tile rows per strip
    ones = np.ones(b)  # strip row and column sums as matrix-vector products
    sums = np.zeros((n, n_starts * k))
    # Buffers shared by every tile and strip. Per pair, the matmul reads the
    # block starts' [cos A, sin A] rows in place from the count-first table
    # e^{i A} and the offsets' [cos B; -sin B] from a pair-major copy of e^{-i B}.
    phase_b = np.empty(k * b * b, dtype=complex)
    phase_a = np.zeros(n_starts * b * b if uniform else m * h * b, dtype=complex)
    op_b = np.empty(h * b * 2 * k)
    prod = np.empty(h * b * m * k)
    if not shared:  # the row orientation takes the column particle's terms
        y_row = np.empty_like(prod)
        scale_cols, floor_cols = np.empty((2, b, m * k))
    with np.errstate(divide="ignore"):  # an exact zero factor gives log 0 = -inf
        for i0 in range(0, n, b):
            for j0 in range(i0, n, b):
                i1, j1 = min(i0 + b, n), min(j0 + b, n)
                g2 = 2.0 * system.couplings[i0:i1, j0:j1]
                bi, bj = g2.shape
                if uniform:  # e^{-i 2g B_j}, B_j = j step, and e^{i 2g A_b}, A_b = t_0 + b K step
                    e_b = _phasor_powers(-offsets[1] * g2, phase_b[:k * bi * bj].reshape(k, bi, bj))
                    e_a = _phasor_powers(k * offsets[1] * g2,
                                         phase_a[:n_starts * bi * bj].reshape(n_starts, bi, bj))
                    if starts[0] != 0.0:
                        e_a *= np.exp(1j * starts[0] * g2)
                else:
                    e_b = np.ones((1, bi, bj), dtype=complex)
                cs_b = e_b.view(float).reshape(k, bi, bj, 2)  # [cos B, -sin B] per offset and pair
                if not shared:
                    scale_cols[:bj] = scale[j0:j1, None]
                    floor_cols[:bj] = floor[j0:j1, None]
                for i in range(i0, i1, h):
                    # A diagonal tile's strip takes columns from its own first
                    # row on: its h x h corner is evaluated in both
                    # orientations and reaches its rows through row sums; the
                    # columns past the corner take the other orientation.
                    ie = min(i + h, i1)
                    hh, c0 = ie - i, max(j0, i)
                    w, cut = j1 - c0, max(j0, ie) - c0
                    rows, cols = slice(i - i0, ie - i0), slice(c0 - j0, bj)
                    op = op_b[:hh * w * 2 * k].reshape(hh, w, 2, k)
                    np.copyto(op, cs_b[:, rows, cols].transpose(1, 2, 3, 0))
                    for b0 in range(0, n_starts, m):
                        mb = min(m, n_starts - b0)
                        x = mb * k
                        if uniform:
                            a = e_a[b0:b0 + mb, rows, cols]
                        else:  # the [1; 0] offset operand leaves sin A unused
                            a = phase_a[:mb * hh * w].reshape(mb, hh, w)
                            np.cos(np.multiply.outer(starts[b0:b0 + mb], g2[rows, cols]), out=a.real)
                        a = a.view(float).reshape(mb, hh, w, 2).transpose(1, 2, 0, 3)
                        c = np.matmul(a, op, out=prod[:hh * w * x].reshape(hh, w, mb, k))
                        c *= c  # cos^2(2 g (A + B_j)), shared by both orientations
                        if unit:
                            y = np.log(c, out=c)
                        elif shared:
                            y = np.multiply(c, scale[0], out=c)
                            y += floor[0]
                            np.log(y, out=y)
                        else:
                            y = np.multiply(c.reshape(hh, w, x), scale_cols[cols, :x],
                                            out=y_row[:c.size].reshape(hh, w, x))
                            y += floor_cols[cols, :x]
                            np.log(y, out=y)
                        y = y.reshape(hh, w, x)
                        if c0 == i:  # the k = l factor is 1
                            y.reshape(hh * w, x)[::w + 1] = 0.0
                        sums[i:ie, b0 * k:b0 * k + x] += ones[:w] @ y
                        if cut < w:
                            y = y[:, cut:]
                            if not shared:  # the column orientation takes the row particle's terms
                                y = c.reshape(hh, w, x)[:, cut:]
                                y *= scale[i:ie, None, None]
                                y += floor[i:ie, None, None]
                                np.log(y, out=y)
                            sums[c0 + cut:j1, b0 * k:b0 * k + x] += (
                                ones[:hh] @ y.reshape(hh, -1)).reshape(w - cut, x)
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
