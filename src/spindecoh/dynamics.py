"""Closed-form reduced-density-matrix dynamics.

Under the pairwise sigma_z x sigma_z Hamiltonian each single-particle
reduced density matrix keeps its diagonal and its off-diagonal element
evolves as

    z_l(t) = a_l b_l* prod_{k != l} (p_k e^{-2i g_lk t} + q_k e^{+2i g_lk t}),

with p_k = |a_k|^2 and q_k = |b_k|^2. Everything here (system coherence
Xi(t), entropies, trajectory sampling) is built on that product.

`coherence_magnitudes` evaluates |factor|^2 = (p - q)^2 + 4 p q cos^2(2 g t)
and sums log factors (`_log_sums`, 2 ln(|z_l| / |a_l b_l|)), so no partial
product underflows; only the final exp can. Since g_lk = g_kl,
cos^2(2 g_lk t) is the same in both orientations of a pair: the loop visits
each unordered pair once and evaluates cos^2 once per pair and sample. The
log factor takes the terms of the other particle; when every particle has
p = q = 1/2 (equal superposition) the squared factor is cos^2 itself and
one log serves the pair. Otherwise each orientation takes its own log.

One strip loop evaluates the sums (`_log_sums`). It runs over strips of
h rows; a strip takes its pairs (l, k >= l) in chunks of w columns. A
strip's first chunk starts at its own first row: its h x h corner is
evaluated in both orientations and reaches its rows through the row sums,
and the columns past the corner take the other orientation through the
column sums, so only the corners are evaluated twice. Row and column sums
are matrix-vector products with ones. The chunks take their couplings,
doubled in place to 2g, as views of blocks of at most w x w from
`model._coupling_blocks` (`_chunk_couplings`); in potential mode these
come from the positions, so no (N, N) array is read or made.

The samples go in blocks of K consecutive times: K = ceil(sqrt(T)) on a
uniform grid of more than _ONE_BLOCK samples, else K = 1 (`_split_grid`).
One rule makes the runs on every grid: each is a chunk of m block starts,
m K samples (the last block is computed in full and its samples past the
grid dropped). Per chunk of pairs, one table builder (`_tables`) yields
each run's pair-major (h, w, m K) table of cos^2(2 g t). Then come the log
(or scale c^2 + floor and the log, per orientation) and the sums, into an
(N, C) accumulator whose rows take contiguous adds; its columns hold the
runs in chunk order, and `_log_sums` returns the runs (first sample,
count) with it.

The builder splits each time as t = A_b + B_j, a block start A_b =
times[b K] and an offset B_j = j step, and makes one count-first table of
the starts per chunk. With K = 1 the table is cos^2 A, the square of the
starts' table. With K > 1, per pair the (b, j) block of cos(A_b + B_j) =
cos A cos B - sin A sin B is a rank-2 outer product,
[cos A_b, sin A_b] . [cos B_j; -sin B_j], and per run the product is one
batched `np.matmul` of per-pair (m x 2)(2 x K) operands, which pays only
when both S and K are large (hence _ONE_BLOCK).

One step finishes the sums (`_finish`): over blocks of at most
_BLOCK_ELEMENTS / N consecutive samples of a run, the x0.5, the exp and
the x|a_l b_l| go in place on a (B, N) block. `coherence_magnitudes`
takes the blocks as rows of its (T, N) result; an ensemble member (`_xi`)
takes each block's mean over particles, so it holds its log sums and one
block, never a (T, N) array. Each time still gets one contiguous mean over
N, so Xi keeps its bits.

A mask of needed samples lets the loop skip work: a run none of whose
samples is needed is skipped whole and takes no columns; its samples are
in no run, and Xi reads NaN there (it never does at an evaluated sample).
Only whole runs go, because the batched products and sums round
differently at other chunk sizes; so every sample that is evaluated keeps
its bits.

On a uniform grid the phasors come by rotation, not by cos/sin: an exp
costs tens of multiplies. The starts' table e^{i 2g b K step} takes one
complex exp per chunk (cos and sin at once) and its powers for the
S = ceil(T / K) starts as complex products, times e^{i 2g t_0} from one
more exp when t_0 != 0; with K > 1 the offsets' e^{-i 2g j step} take one
more exp and K products. That is 1 exp per unordered pair with K = 1 and
2 with K > 1 (one more when t_0 != 0), whatever T, and about K + S ulps
of rounding in a phase. On scattered times the starts' table is a direct
cos, which already carries |2 g t| eps from its argument.

BLAS evaluates each per-pair product with fused multiply-adds, and the
sums add chunk by chunk in their own order, so outputs depend on the loop
and its chunk sizes in the last bits, and more where a factor is near 0;
they repeat bit for bit across processes, heap offsets and BLAS thread
counts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .model import _BLOCK_ELEMENTS, SpinSystem, _coupling_blocks, _positive_finite

# Radicand of the eigenvalue square root may leave [0, 1] by round-off; this
# much is silently clamped, anything worse is a hard error.
EIGENVALUE_CLAMP = 1e-12

# Upper bound on samples * N for trajectory sampling.
MAX_TRAJECTORY_ELEMENTS = 50_000_000

# Uniform grids of at most this many samples take blocks of one time (K = 1),
# whose cos^2 tables square the block starts' table: below it the rank-2
# product's per-pair matmuls cost more than they save (a measured crossover;
# README's "Kernel cost" gives the timings).
_ONE_BLOCK = 40


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


def _split_grid(times: np.ndarray) -> tuple[float | None, int]:
    """(step, K): the step of a uniform grid, None for other times, and the
    samples per block, K = ceil(sqrt(T)) on a uniform grid of more than
    _ONE_BLOCK samples, else 1 (each time a block start). The step is taken
    over the whole span, so a grid far from 0 whose first difference carries
    the rounding of its first times is uniform too."""
    if times.size > 1:
        step = (times[-1] - times[0]) / (times.size - 1)
        deviation = np.abs(times - (times[0] + step * np.arange(times.size)))
        if np.all(deviation <= 4.0 * np.finfo(float).eps * np.abs(times).max()):
            return step, int(np.ceil(np.sqrt(times.size))) if times.size > _ONE_BLOCK else 1
    return None, 1


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
    """Columns per chunk w, block starts per chunk m and rows per strip h
    for S block starts of K samples ((S, K) = (T, 1) on a K = 1 grid).
    A chunk's phasor tables hold max(K, S) x h x w elements, within the
    budget since h <= w, and a run's cos^2 table h x w x m K.
    Block starts take what the budget allows at sqrt(w) rows, then rows
    take what it leaves: thin strips keep the corners small, long ones keep
    each per-pair matmul large."""
    w = max(1, min(n, int(np.sqrt(_BLOCK_ELEMENTS / max(k, n_starts)))))
    m = max(1, min(n_starts, _BLOCK_ELEMENTS // (k * w * math.isqrt(w))))
    h = max(1, min(w, _BLOCK_ELEMENTS // (k * w * m)))
    return w, m, h


def _factor_terms(system: SpinSystem) -> tuple[np.ndarray, np.ndarray, bool]:
    """(scale, floor, unit) with |factor_lk|^2 = scale_k cos^2 + floor_k;
    unit when every particle has p = q = 1/2, so that |factor|^2 = cos^2.
    p + q is renormalised to 1, else equal superposition's |1/sqrt(2)|^2 =
    0.4999999999999999 gives 4 p q = 0.9999999999999996 and loses unit."""
    p, q = np.abs(system.amp_a) ** 2, np.abs(system.amp_b) ** 2
    p, q = p / (p + q), q / (p + q)
    scale = 4.0 * p * q
    floor = (p - q) ** 2
    return scale, floor, bool(np.all(scale == 1.0) and np.all(floor == 0.0))


def _strip_chunks(n: int, w: int, h: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(i, ie, c0, c1, cut) for strips of h rows [i, ie) and their chunks of
    w columns [c0, c1). A strip's first chunk starts at its own first row:
    its corner (columns before c0 + cut) is evaluated in both orientations
    and reaches its rows through the row sums; the columns past it take the
    other orientation through the column sums. So each unordered pair is
    visited once, and only the corners twice."""
    for i in range(0, n, h):
        ie = min(i + h, n)
        for c0 in range(i, n, w):
            yield i, ie, c0, min(c0 + w, n), max(c0, ie) - c0


def _chunk_couplings(system: SpinSystem, w: int,
                     h: int) -> Iterator[tuple[int, int, int, int, int, np.ndarray]]:
    """_strip_chunks' chunks, each with its block of 2g: a view of a block
    of at most w x w couplings from `model._coupling_blocks`, doubled in
    place. A block takes every column from its first chunk's on and as
    many whole strips as fit, else its strip and w^2 / h columns, so thin
    strips share a block and each block costs few numpy calls; w x w keeps
    it small beside the cos^2 tables."""
    n = system.n_particles
    couplings = _coupling_blocks(system, w * w)
    r1 = b0 = b1 = 0
    for i, ie, c0, c1, cut in _strip_chunks(n, w, h):
        if not (ie <= r1 and b0 <= c0 and c1 <= b1):
            strips = w * w // (h * (n - c0))
            r0, b0 = i, c0
            if strips:
                r1, b1 = min(n, i + strips * h), n
            else:
                r1, b1 = ie, min(n, c0 + w * w // (ie - i))
            g2 = couplings(r0, r1, b0, b1)
            g2 *= 2.0
        yield i, ie, c0, c1, cut, g2[i - r0:ie - r0, c0 - b0:c1 - b0]


def _tables(times: np.ndarray, step: float | None, k: int, runs: list, table: np.ndarray,
            h: int, w: int) -> Callable[[np.ndarray], Iterator[np.ndarray]]:
    """Table builder for blocks t = A_b + B_j of K samples, A_b = times[b K]
    and B_j = j step: given a chunk's 2g, it yields each run's cos^2 table.
    The starts' table is count-first: e^{i A} by rotation on a uniform grid,
    cos A on scattered times (K = 1). K = 1 tables are its square; K > 1
    tables are one batched matmul of per-pair (m x 2)(2 x K) operands,
    [cos A_b, sin A_b] . [cos B_j; -sin B_j], with the start operand read in
    place and the offsets' operand copied pair-major from e^{-i B}, since
    BLAS takes that side only with contiguous rows."""
    starts = times[::k]
    phase_a = np.empty(starts.size * h * w, dtype=float if step is None else complex)
    if k > 1:
        phase_b = np.empty(k * h * w, dtype=complex)
        op_b = np.empty(h * w * 2 * k)

    def tables(g2: np.ndarray) -> Iterator[np.ndarray]:
        hh, ww = g2.shape
        a = phase_a[:starts.size * hh * ww].reshape(-1, hh, ww)
        if step is None:
            cos_a = np.cos(np.multiply(starts[:, None, None], g2, out=a), out=a)
        else:  # e^{i A_b} = e^{i 2g t_0} e^{i 2g b K step}
            _phasor_powers(k * step * g2, a)
            if starts[0] != 0.0:
                a *= np.exp(1j * starts[0] * g2)
            cos_a = a.real
        if k > 1:
            e_b = _phasor_powers(-step * g2, phase_b[:k * hh * ww].reshape(k, hh, ww))
            op = op_b[:hh * ww * 2 * k].reshape(hh, ww, 2, k)
            np.copyto(op, e_b.view(float).reshape(k, hh, ww, 2).transpose(1, 2, 3, 0))
            cs_a = a.view(float).reshape(-1, hh, ww, 2).transpose(1, 2, 0, 3)
        for first, x in runs:
            c = table[:hh * ww * x].reshape(hh, ww, x)
            if k == 1:
                np.square(cos_a[first:first + x].transpose(1, 2, 0), out=c)
            else:
                b0, mb = first // k, x // k
                c = np.matmul(cs_a[:, :, b0:b0 + mb], op, out=c.reshape(hh, ww, mb, k))
                c *= c
            yield c.reshape(hh, ww, x)
    return tables


def _log_sums(system: SpinSystem, times: np.ndarray,
              need: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """(sums, runs): sum_{k != l} ln|factor_lk|^2 = 2 ln(|z_l| / |a_l b_l|)
    as an (N, C) array whose columns hold the runs (first sample, count) of
    `times` in turn; -inf where a factor is exactly 0. Each run is a chunk
    of m block starts; with a per-sample mask `need`, a chunk that holds no
    needed sample is skipped and its samples are in no run. Each temporary
    holds ~_BLOCK_ELEMENTS."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    n = system.n_particles
    step, k = _split_grid(times)
    n_starts = -(-times.size // k)
    w, m, h = _kernel_geometry(n, n_starts, k)
    # A block start runs if any of its K samples is needed.
    run = np.zeros(n_starts * k, dtype=bool)
    run[:times.size] = True if need is None else need
    run = run.reshape(n_starts, k).any(axis=1)
    runs = [(b0 * k, min(m, n_starts - b0) * k) for b0 in range(0, n_starts, m)
            if run[b0:b0 + m].any()]
    sums = np.zeros((n, sum(count for _, count in runs)))
    table = np.empty(h * w * m * k)
    tables = _tables(times, step, k, runs, table, h, w)
    scale, floor, unit = _factor_terms(system)
    ones = np.ones(w)  # row and column sums as matrix-vector products
    if not unit:  # the row orientation takes the column particle's terms
        y_row = np.empty_like(table)
        scale_cols = np.repeat(scale[:, None], m * k, axis=1)
        floor_cols = np.repeat(floor[:, None], m * k, axis=1)
    with np.errstate(divide="ignore"):  # an exact zero factor gives log 0 = -inf
        for i, ie, c0, c1, cut, g2 in _chunk_couplings(system, w, h):
            hh, ww = ie - i, c1 - c0
            col = 0
            for (_, x), c in zip(runs, tables(g2)):
                # c: cos^2(2 g t), (hh, ww, x), shared by both orientations
                if unit:
                    y = np.log(c, out=c)
                else:
                    y = np.multiply(c, scale_cols[c0:c1, :x],
                                    out=y_row[:c.size].reshape(hh, ww, x))
                    y += floor_cols[c0:c1, :x]
                    np.log(y, out=y)
                if c0 == i:  # the k = l factor is 1
                    y.reshape(hh * ww, x)[::ww + 1] = 0.0
                sums[i:ie, col:col + x] += ones[:ww] @ y
                if cut < ww:
                    y = y[:, cut:]
                    if not unit:  # the column orientation takes the row particle's terms
                        y = c[:, cut:]
                        y *= scale[i:ie, None, None]
                        y += floor[i:ie, None, None]
                        np.log(y, out=y)
                    sums[c0 + cut:c1, col:col + x] += (
                        ones[:hh] @ y.reshape(hh, -1)).reshape(ww - cut, x)
                col += x
    # The last block is computed in full: its samples past the grid are dropped.
    return sums, [(first, min(count, times.size - first)) for first, count in runs]


def _finish(system: SpinSystem, sums: np.ndarray, runs: list, out: np.ndarray) -> np.ndarray:
    """|z_l| = |a_l b_l| e^{sums / 2} from _log_sums' (sums, runs), over
    blocks of at most _BLOCK_ELEMENTS / N consecutive samples: x0.5, exp and
    x|a_l b_l| in place on each (B, N) block. A (T, N) out takes the blocks
    as its rows; a (T,) out takes each block's mean over particles, Xi, so
    no (T, N) array is made. Samples in no run keep their entries of out."""
    n = sums.shape[0]
    b = max(1, _BLOCK_ELEMENTS // n)
    ab = np.abs(system.amp_a * np.conj(system.amp_b))
    if out.ndim == 1:
        block = np.empty(min(b, sums.shape[1]) * n)
    col = 0
    for first, count in runs:
        for j in range(0, count, b):
            bb = min(b, count - j)
            rows = slice(first + j, first + j + bb)
            z = out[rows] if out.ndim == 2 else block[:bb * n].reshape(bb, n)
            np.multiply(sums[:, col + j:col + j + bb].T, 0.5, out=z)
            np.exp(z, out=z)
            z *= ab
            if out.ndim == 1:
                z.mean(axis=1, out=out[rows])
        col += count
    return out


def _xi(system: SpinSystem, times: np.ndarray, need: np.ndarray | None = None) -> np.ndarray:
    """Xi(t) = mean_l |z_l(t)| without a (T, N) array; NaN at the samples
    _log_sums skips under the mask `need`."""
    sums, runs = _log_sums(system, times, need)
    return _finish(system, sums, runs, np.full(np.size(times), np.nan))


def coherence_magnitudes(system: SpinSystem, times: np.ndarray) -> np.ndarray:
    """|z_l(t)| for all particles at each time; shape (len(times), N)."""
    sums, runs = _log_sums(system, times)
    return _finish(system, sums, runs, np.empty((np.size(times), system.n_particles)))


def particle_entropies(system: SpinSystem, z_abs: np.ndarray) -> np.ndarray:
    """Per-particle entropies (nats), -sum lam ln lam, from precomputed
    |z_l| values; broadcasts over leading axes of z_abs.

    The eigenvalues lam of [[|a|^2, z], [z*, |b|^2]] are 0.5 +- root with
    root = 0.5 sqrt(1 - 4 (|a|^2 |b|^2 - |z|^2)).
    """
    pq = np.abs(system.amp_a) ** 2 * np.abs(system.amp_b) ** 2
    radicand = 1.0 - 4.0 * (pq - np.asarray(z_abs, dtype=float) ** 2)
    if not np.all((radicand >= -EIGENVALUE_CLAMP) & (radicand <= 1.0 + EIGENVALUE_CLAMP)):
        raise RadicandError("eigenvalue radicand outside [0, 1] beyond round-off")
    root = 0.5 * np.sqrt(np.clip(radicand, 0.0, 1.0))
    lam = 0.5 + np.stack((root, -root))
    lam[lam == 0.0] = 1.0  # 0 ln 0 counts 0, as 1 ln 1
    # 0.0 - (...) keeps a pure state's entropy at +0.0, not -0.0
    return 0.0 - (lam * np.log(lam)).sum(axis=0)


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
