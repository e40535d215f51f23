"""Spin-system construction.

Builds the static ingredients of a run: N spin-1/2 particles placed
uniformly at random in a D-dimensional box, a symmetric coupling matrix
derived from an eta / r**epsilon potential (or drawn uniformly at random),
and per-particle superposition amplitudes (a_k, b_k).

Pairwise data lives in one square (N, N) float array per system:
`place_particles` builds the distances in blocks of rows and tests
separations on them, and both coupling modes overwrite that array with the
couplings, so a system holds 8 N^2 bytes of pairwise data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# Elements in one working-set block of every blocked loop: distance rows
# in placement, sorted coupling rows in recurrence_time, and the coherence
# kernel's temporaries (time blocks x offsets x rows x N). 64K float64
# values keep a block's working set inside L2.
_BLOCK_ELEMENTS = 65_536


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
    """An assembled system: positions, amplitudes and coupling matrix.

    Immutable after construction (arrays are marked read-only), so instances
    are safe to share across threads.
    """

    positions: np.ndarray      # (N, D)
    amp_a: np.ndarray          # (N,) complex
    amp_b: np.ndarray          # (N,) complex
    couplings: np.ndarray      # (N, N) symmetric, zero diagonal

    def __post_init__(self):
        for arr in (self.positions, self.amp_a, self.amp_b, self.couplings):
            arr.setflags(write=False)

    @property
    def n_particles(self) -> int:
        return self.amp_a.shape[0]


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


def _distances(points: np.ndarray, min_sep: float,
               r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill r with the (m, m) distance matrix of `points` and return the
    close pairs (i, j), i < j, that lie under min_sep apart.

    Each block of _BLOCK_ELEMENTS // m rows (at least one) takes its
    upper-triangle columns from a contiguous difference per dimension,
    squared and summed in dimension order (so every r_ij matches
    `scipy.spatial.distance.pdist`), and copies their transpose into the
    lower triangle."""
    m = len(points)
    height = max(1, _BLOCK_ELEMENTS // m)
    coords = np.ascontiguousarray(points.T)
    buf = np.empty(min(m, height) * m)
    close_i, close_j = [], []
    for r0 in range(0, m, height):
        r1 = min(r0 + height, m)
        block = r[r0:r1, r0:]
        diff = buf[:block.size].reshape(block.shape)
        for k, x in enumerate(coords):
            np.subtract(x[r0:r1, None], x[None, r0:], out=diff)
            if k == 0:
                np.square(diff, out=block)
            else:
                block += np.square(diff, out=diff)
        np.sqrt(block, out=block)
        r[r1:, r0:r1] = block[:, r1 - r0:].T
        rows, cols = np.divmod(np.flatnonzero(block < min_sep), block.shape[1])
        upper = cols > rows
        close_i.append(rows[upper] + r0)
        close_j.append(cols[upper] + r0)
    return np.concatenate(close_i), np.concatenate(close_j)


def place_particles(config: SystemConfig,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw N positions uniformly in the box, resampling any particle that
    lands closer than MIN_SEPARATION_FACTOR * l to an earlier one. Rounds
    draw one candidate per missing particle and keep them in draw order, so
    positions and generator state match drawing one at a time.

    Returns (positions, r): r is the square (N, N) distance matrix of the
    positions, taken in the last round, which kept every point."""
    n, d = config.n_particles, config.dimension
    side = box_side(n, config.density, d)
    min_sep = MIN_SEPARATION_FACTOR * side
    positions = np.empty((0, d))
    r = np.empty((n, n))
    stalled = 0
    while len(positions) < n:
        points = np.vstack([positions, rng.random((n - len(positions), d)) * side])
        i, j = _distances(points, min_sep, r)
        keep = np.ones(n, dtype=bool)
        # Kept positions are mutually separated, so every j is a candidate.
        for later in np.unique(j):
            keep[later] = not keep[i[j == later]].any()
        stalled = stalled + 1 if keep.sum() == len(positions) else 0
        if stalled == MAX_PLACEMENT_ATTEMPTS:
            raise PlacementError(f"no particle placed in {MAX_PLACEMENT_ATTEMPTS} rounds")
        positions = points[keep]
    return positions, r


def build_couplings(r: np.ndarray, eta: float, epsilon: float) -> np.ndarray:
    """Coupling matrix g_ij = eta / r_ij**epsilon (symmetric, zero diagonal)
    from the square distance matrix r, e.g. `place_particles`' second
    result. r is overwritten with the couplings and returned;
    SingularCouplingError unless every coupling is finite."""
    with np.errstate(divide="ignore", over="ignore"):
        if epsilon != 1:  # x**1 == x, so the pass would change no bit
            r **= epsilon
        np.divide(eta, r, out=r)
    np.fill_diagonal(r, 0.0)
    if not np.all(np.isfinite(r)):
        i, j = divmod(int(np.argmin(np.isfinite(r))), len(r))
        raise SingularCouplingError(f"coupling eta / r^epsilon is not finite for "
                                    f"particles {i} and {j}, epsilon = {epsilon}")
    return r


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
    """Assemble a SpinSystem from a config; deterministic given the seed."""
    rng = make_rng(config.rng_seed)
    positions, r = place_particles(config, rng)
    if config.coupling_mode == "potential":
        couplings = build_couplings(r, config.eta, config.epsilon)
    else:
        # The draw fills the upper triangle in row order and is mirrored
        # below it; r's diagonal is already 0.
        n = config.n_particles
        upper = np.arange(n)[:, None] < np.arange(n)
        r[upper] = r.T[upper] = rng.random(n * (n - 1) // 2)
        couplings = r
    a, b = _draw_amplitudes(config, rng)
    return SpinSystem(positions=positions, amp_a=a, amp_b=b, couplings=couplings)
