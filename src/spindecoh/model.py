"""Spin-system construction.

Builds the static ingredients of a run: N spin-1/2 particles placed
uniformly at random in a D-dimensional box, symmetric pair couplings
from an eta / r**epsilon potential (or drawn uniformly at random), and
per-particle superposition amplitudes (a_k, b_k).

Placement computes no pairwise matrix: a sweep over the sorted first
coordinate finds the few pairs that can lie under the minimum separation,
and only those get an exact distance. A potential-mode system holds no
coupling matrix either: it keeps its positions, eta and epsilon, and its
callers take the couplings a block at a time (`_coupling_blocks`), each
block made from the positions by one element code (`_coupling_block`)
into a buffer of the caller's. Uniform-random and hand-built systems hold
their (N, N) matrix.

Couplings are checked where they are made: computed blocks by the element
code (SingularCouplingError), given shapes and matrices by `SpinSystem` at
construction (ValueError). Every consumer ignores the diagonal.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
# numpy imports its random module on first use; importing it here keeps
# that set-up out of the first draw.
import numpy.random

AMPLITUDE_MODES = ("equal-superposition", "random-complex")
COUPLING_MODES = ("potential", "uniform-random")

# Particles closer than this fraction of the box side are resampled so that
# 1/r couplings stay finite.
MIN_SEPARATION_FACTOR = 1e-9
# Distances are taken from squared separations: below this side the minimum
# separation squares below the smallest normal float, and placement reads
# every pair as 0 apart.
MIN_BOX_SIDE = np.sqrt(np.finfo(float).tiny) / MIN_SEPARATION_FACTOR
MAX_PLACEMENT_ATTEMPTS = 1000
# Elements in one working-set block of every blocked loop: coupling rows
# in build_couplings, sorted coupling rows in recurrence, and the coherence
# kernel's temporaries (time blocks x offsets x rows x N). 64K float64
# values keep a block's working set inside L2.
_BLOCK_ELEMENTS = 65_536
# Bound on ||a_k|^2 + |b_k|^2 - 1|: 14 particles stay in the oracle's 1e-10 norm check.
_NORM_TOL = 1e-12


class PlacementError(RuntimeError):
    """Placement kept no new candidate in MAX_PLACEMENT_ATTEMPTS rounds."""


class SingularCouplingError(ValueError):
    """A pair of particles is so close that its coupling is not finite."""


def splitmix64(x: int) -> int:
    """One SplitMix64 output step; used to mix seeds deterministically."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Per-member seed for ensemble run `index`: splitmix64(master ^ mixed index).

    The mixing keeps nearby master seeds / indices statistically independent
    and is documented here so results can be reproduced elsewhere.
    """
    return splitmix64((master_seed & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(index))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


def _positive_finite(name: str, value: float) -> None:
    if not 0 < value < np.inf:
        rule = "positive" if np.isfinite(value) else "finite"
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """Parameters defining one random spin system."""

    n_particles: int
    dimension: int = 3
    density: float = 1.0
    eta: float = 1.0
    epsilon: float = 1.0
    amplitude_mode: str = "equal-superposition"
    coupling_mode: str = "potential"
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_particles", "dimension"):
            try:  # ints and numpy integers; a float fails however integral
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        for name in ("density", "eta", "epsilon"):
            _positive_finite(name, getattr(self, name))
        try:  # box_side checks n_particles and dimension
            side = box_side(self.n_particles, self.density, self.dimension)
        except OverflowError:  # N too large for a float
            side = np.inf
        if not MIN_BOX_SIDE <= side < np.inf:
            rule = "finite" if side == np.inf else f">= {MIN_BOX_SIDE:.3g}"
            raise ValueError(f"box side (N / rho)^(1/D) must be {rule}, got N = "
                             f"{self.n_particles}, rho = {self.density}, D = {self.dimension}")
        if self.amplitude_mode not in AMPLITUDE_MODES:
            raise ValueError(f"unknown amplitude_mode {self.amplitude_mode!r}")
        if self.coupling_mode not in COUPLING_MODES:
            raise ValueError(f"unknown coupling_mode {self.coupling_mode!r}")
        if self.coupling_mode == "potential":
            # No pair is placed closer than this, so no coupling exceeds the bound.
            closest = MIN_SEPARATION_FACTOR * side
            with np.errstate(divide="ignore", over="ignore"):
                bound = np.divide(self.eta, np.power(closest, self.epsilon))
            if not np.isfinite(bound):
                raise ValueError(
                    f"coupling eta / r^epsilon is not finite at the minimum separation "
                    f"r = {closest:.3g}, epsilon = {self.epsilon} (a conservative check: "
                    f"particles may all land farther apart)")


@dataclass(frozen=True)
class SpinSystem:
    """An assembled system: positions, amplitudes and couplings.

    With no `matrix` the couplings are g_ij = eta / r_ij**epsilon of the
    positions (potential mode), and the system holds no (N, N) array:
    callers take blocks of them (`_coupling_blocks`). Uniform-random and
    hand-built systems hold theirs as `matrix`, whose diagonal every
    consumer ignores; a hand-built system's positions may be dummies.
    `couplings` is the full (N, N) matrix either way, built on each access
    in potential mode.

    Construction checks N position rows, a finite, exactly symmetric (N, N)
    matrix and amplitudes of shape (N,) with |a_k|^2 + |b_k|^2 = 1 within
    _NORM_TOL = 1e-12, else ValueError. Immutable after
    construction (arrays are marked read-only), so instances are safe to
    share across threads.
    """

    positions: np.ndarray      # (N, D)
    amp_a: np.ndarray          # (N,) complex
    amp_b: np.ndarray          # (N,) complex
    matrix: np.ndarray | None = None  # (N, N) finite, symmetric
    eta: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        n, g = self.n_particles, self.matrix
        if len(self.positions) != n or self.amp_b.shape != (n,):
            raise ValueError(f"positions and amp_b must have N = {n} rows, got "
                             f"{len(self.positions)} and {self.amp_b.shape}")
        if g is not None and not (g.shape == (n, n) and np.all(np.isfinite(g))
                                  and np.array_equal(g, g.T)):
            raise ValueError(f"matrix must be finite, symmetric and ({n}, {n}), "
                             f"got shape {g.shape}")
        if self.amp_a.ndim != 1:
            raise ValueError(f"amp_a must have shape ({n},), got {self.amp_a.shape}")
        with np.errstate(over="ignore"):  # inf fails the test below, as NaN does
            bad = ~(np.abs(np.abs(self.amp_a) ** 2 + np.abs(self.amp_b) ** 2 - 1) <= _NORM_TOL)
        if bad.any():
            k = bad.argmax()
            raise ValueError(f"particle {k}: |a|^2 + |b|^2 must be 1 within {_NORM_TOL}, "
                             f"got a = {self.amp_a[k]}, b = {self.amp_b[k]}")
        for arr in (self.positions, self.amp_a, self.amp_b, self.matrix):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_particles(self) -> int:
        return self.amp_a.shape[0]

    @property
    def couplings(self) -> np.ndarray:
        """The (N, N) coupling matrix, read-only; in potential mode a new
        one from the positions on each access (8 N^2 bytes)."""
        if self.matrix is not None:
            return self.matrix
        g = build_couplings(self.positions, self.eta, self.epsilon)
        g.setflags(write=False)
        return g


def box_side(n_particles: int, density: float, dimension: int) -> float:
    """Side length l = (N / rho)**(1/D) of the box holding N particles at
    density rho."""
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    if not density > 0:
        raise ValueError(f"density must be positive, got {density}")
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    return (n_particles / density) ** (1.0 / dimension)


def _close_pairs(points: np.ndarray, min_sep: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, of `points` that lie under min_sep apart.

    A pair is under min_sep apart only if its first coordinates are, so a
    sweep over the sorted first coordinate lists the pairs whose first
    coordinates lie within min_sep (1 + 4 eps), a margin that covers the
    rounding of the distance below, and only those pairs get the exact
    test. A distance is a difference per dimension, squared and summed in
    dimension order, then sqrt (as `scipy.spatial.distance.pdist`)."""
    m = len(points)
    order = np.argsort(points[:, 0])
    xs = points[order, 0]
    reach = np.searchsorted(xs, xs + min_sep * (1 + 4 * np.finfo(float).eps), side="right")
    counts = reach - np.arange(1, m + 1)
    first = np.repeat(np.arange(m), counts)
    # The partner of the k-th listed pair of point a is sorted point a + 1 + k.
    later = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[first], order[later]
    i, j = np.minimum(a, b), np.maximum(a, b)
    diff = points[i] - points[j]
    r = np.square(diff[:, 0])
    for k in range(1, points.shape[1]):
        r += np.square(diff[:, k])
    close = np.sqrt(r) < min_sep
    return i[close], j[close]


def place_particles(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw N positions uniformly in the box, resampling any particle that
    lands closer than MIN_SEPARATION_FACTOR * l to an earlier one. Rounds
    draw one candidate per missing particle and keep them in draw order, so
    positions and generator state match drawing one at a time."""
    n, d = config.n_particles, config.dimension
    side = box_side(n, config.density, d)
    min_sep = MIN_SEPARATION_FACTOR * side
    positions = np.empty((0, d))
    stalled = 0
    while len(positions) < n:
        points = np.vstack([positions, rng.random((n - len(positions), d)) * side])
        i, j = _close_pairs(points, min_sep)
        keep = np.ones(n, dtype=bool)
        # Kept positions are mutually separated, so every j is a candidate;
        # candidates settle in draw order.
        for later in np.flatnonzero(np.bincount(j, minlength=n)):
            keep[later] = not keep[i[j == later]].any()
        stalled = stalled + 1 if keep.sum() == len(positions) else 0
        if stalled == MAX_PLACEMENT_ATTEMPTS:
            raise PlacementError(f"no particle placed in {MAX_PLACEMENT_ATTEMPTS} rounds")
        positions = points[keep]
    return positions


def _coupling_block(coords: np.ndarray, eta: float, epsilon: float,
                    r0: int, r1: int, c0: int, c1: int, buf: np.ndarray) -> np.ndarray:
    """The couplings g[r0:r1, c0:c1] = eta / r**epsilon of the (D, N)
    coordinates, zero where a row meets its own column, as a contiguous
    (r1 - r0, c1 - c0) array in the first row of `buf`, a (2, >= (r1 -
    r0)(c1 - c0)) buffer that the call overwrites.

    r is a difference per dimension, squared and summed in dimension
    order, then sqrt, and (x_i - x_j)^2 = (x_j - x_i)^2, so every block
    carries the bits of the same block of one exactly symmetric matrix.
    r_ii = inf makes g_ii = eta / inf = 0. A block with a coupling that is
    not finite (two particles that coincide) raises SingularCouplingError,
    naming its first such pair in row order, and no floating-point
    warning."""
    g = buf[0, :(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
    diff = buf[1, :g.size].reshape(g.shape)
    for k, x in enumerate(coords):
        np.subtract(x[r0:r1, None], x[None, c0:c1], out=diff)
        if k == 0:
            np.square(diff, out=g)
        else:
            g += np.square(diff, out=diff)
    lo, hi = max(r0, c0), min(r1, c1)
    if lo < hi:
        np.fill_diagonal(g[lo - r0:, lo - c0:], np.inf)
    np.sqrt(g, out=g)
    # A far pair's power may overflow to a zero coupling; a fault fails the check.
    with np.errstate(all="ignore"):
        if epsilon != 1:  # x**1 == x, so the pass would change no bit
            g **= epsilon
        np.divide(eta, g, out=g)
    if not np.isfinite(g.max()):
        i, j = divmod(int(np.argmin(np.isfinite(g))), g.shape[1])
        raise SingularCouplingError(f"coupling eta / r^epsilon is not finite for particles "
                                    f"{r0 + i} and {c0 + j}, epsilon = {epsilon}")
    return g


def _coupling_blocks(system: SpinSystem, size: int) -> Callable[[int, int, int, int], np.ndarray]:
    """block(r0, r1, c0, c1): the system's couplings g[r0:r1, c0:c1], at
    most `size` elements, as a contiguous writable array in one buffer that
    belongs to this call, so a block is overwritten by the next. Blocks
    come from the positions (`_coupling_block`) in potential mode and are
    copied from the matrix otherwise."""
    if system.matrix is not None:
        buf = np.empty(size)

        def block(r0, r1, c0, c1):
            g = buf[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            np.copyto(g, system.matrix[r0:r1, c0:c1])
            return g
    else:
        coords = np.ascontiguousarray(system.positions.T)
        buf = np.empty((2, size))

        def block(r0, r1, c0, c1):
            return _coupling_block(coords, system.eta, system.epsilon, r0, r1, c0, c1, buf)
    return block


def build_couplings(positions: np.ndarray, eta: float, epsilon: float) -> np.ndarray:
    """Coupling matrix g_ij = eta / r_ij**epsilon (symmetric, zero diagonal)
    of the (N, D) positions, _BLOCK_ELEMENTS // N rows (at least one) at a
    time; SingularCouplingError at the first coupling, in row order, that
    is not finite."""
    n = len(positions)
    height = max(1, _BLOCK_ELEMENTS // n)
    coords = np.ascontiguousarray(positions.T)
    buf = np.empty((2, min(n, height) * n))
    g = np.empty((n, n))
    for r0 in range(0, n, height):
        r1 = min(r0 + height, n)
        g[r0:r1] = _coupling_block(coords, eta, epsilon, r0, r1, 0, n, buf)
    return g


def _draw_amplitudes(config: SystemConfig, rng: np.random.Generator):
    n = config.n_particles
    if config.amplitude_mode == "equal-superposition":
        a = np.full(n, 1.0 / np.sqrt(2.0), dtype=complex)
        b = a.copy()
    else:
        # |a|^2 uniform on [0,1], independent uniform phases.
        w = rng.random(n)
        phase_a = rng.random(n) * 2.0 * np.pi
        phase_b = rng.random(n) * 2.0 * np.pi
        a = np.sqrt(w) * np.exp(1j * phase_a)
        b = np.sqrt(1.0 - w) * np.exp(1j * phase_b)
    return a, b


def build_system(config: SystemConfig) -> SpinSystem:
    """Assemble a SpinSystem from a config; deterministic given the seed.
    A potential-mode system keeps its positions, eta and epsilon and no
    coupling matrix; SystemConfig's bound at the minimum separation keeps
    every coupling finite."""
    rng = make_rng(config.rng_seed)
    positions = place_particles(config, rng)
    matrix = None
    if config.coupling_mode == "uniform-random":
        # The draw fills the upper triangle in row order and is mirrored
        # below it.
        n = config.n_particles
        upper = np.arange(n)[:, None] < np.arange(n)
        matrix = np.zeros((n, n))
        matrix[upper] = matrix.T[upper] = rng.random(n * (n - 1) // 2)
    a, b = _draw_amplitudes(config, rng)
    return SpinSystem(positions=positions, amp_a=a, amp_b=b, matrix=matrix,
                      eta=config.eta, epsilon=config.epsilon)
