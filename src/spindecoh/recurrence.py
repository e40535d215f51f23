"""Poincare recurrence estimates for the quasi-periodic coherence signal.

The per-particle frequency is twice the smallest gap between that
particle's couplings; the recurrence time of the whole signal is
2*pi over the smallest gap between those frequencies. Because the
resulting distribution is extremely heavy-tailed, ensemble summaries
carry the median and the log10 mean alongside mean and std.

`recurrence_time` sorts a system's coupling rows a block at a time
(`_coupling_blocks`) and takes their gaps, so a potential-mode draw holds
its positions and one row block, never an N x N array.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import (
    _BLOCK_ELEMENTS,
    SpinSystem,
    SystemConfig,
    _coupling_blocks,
    build_system,
    derive_seed,
)

DEGENERATE_SENTINEL = float("inf")


@dataclass(frozen=True)
class RecurrenceEstimate:
    """Recurrence-time estimate for one system (gt units)."""

    period: float
    frequencies: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class RecurrenceStats:
    """Ensemble summary of recurrence times over random configurations."""

    config: SystemConfig
    samples: int
    mean: float
    std: float
    median: float
    log10_mean: float
    degenerate_fraction: float


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError(f"need N >= 3 for coupling gaps, got N={n}")


def _check_recurrence_plan(cells: list[SystemConfig], samples: int) -> None:
    """Check recurrence statistics of `samples` draws over `cells` before
    any system is built: u >= 2 and N >= 3 in every cell."""
    if samples < 2:
        raise ValueError(f"u must be >= 2, got {samples}")
    for cell in cells:
        _check_n(cell.n_particles)


def _median(values: np.ndarray) -> float:
    """np.median of NaN-free values, without its NaN check (which imports
    numpy.ma): the middle sorted value, or the mean of the middle two."""
    s = np.sort(values)
    h = s.size // 2
    return s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2


def recurrence_time(system: SpinSystem) -> RecurrenceEstimate:
    """Estimate the recurrence period 2*pi / min_{i != i'} |w_i - w_i'|.

    Degenerate systems (any zero frequency gap, possible with tied
    uniform-random couplings) get an infinite sentinel instead of an error.
    """
    n = system.n_particles
    _check_n(n)
    # Blocks of _BLOCK_ELEMENTS / N rows keep the sorted rows and their
    # differences small.
    height = max(1, _BLOCK_ELEMENTS // n)
    block = _coupling_blocks(system, min(n, height) * n)
    freqs = np.empty(n)
    for r0 in range(0, n, height):
        r1 = min(r0 + height, n)
        rows = block(r0, r1, 0, n)
        # Each row's own entry sorts last, so the gaps are those of its
        # other N - 1 couplings, of either sign.
        np.fill_diagonal(rows[:, r0:], np.inf)
        rows.sort(axis=1)
        np.diff(rows[:, :-1], axis=1).min(axis=1, out=freqs[r0:r1])
    freqs *= 2.0
    min_gap = float(np.diff(np.sort(freqs)).min())
    degenerate = bool(min_gap == 0.0 or np.any(freqs == 0.0))
    period = DEGENERATE_SENTINEL if degenerate else 2.0 * np.pi / min_gap
    return RecurrenceEstimate(period=period, frequencies=freqs, degenerate=degenerate)


def recurrence_stats(cell: SystemConfig, samples: int, master_seed: int) -> RecurrenceStats:
    """Recurrence-time statistics over independent random configurations.

    Degenerate draws are excluded from the numeric summaries and reported
    as a separate fraction.
    """
    _check_recurrence_plan([cell], samples)
    periods = []
    for i in range(samples):
        draw = dataclasses.replace(cell, rng_seed=derive_seed(master_seed, i))
        est = recurrence_time(build_system(draw))
        if not est.degenerate:
            periods.append(est.period)
    arr = np.array(periods)
    if arr.size == 0:
        mean = std = median = log10_mean = float("nan")
    else:
        mean = float(arr.mean())
        std = float(arr.std())
        median = float(_median(arr))
        log10_mean = float(np.log10(arr).mean())
    return RecurrenceStats(config=cell, samples=samples, mean=mean, std=std, median=median,
                           log10_mean=log10_mean,
                           degenerate_fraction=(samples - arr.size) / samples)
