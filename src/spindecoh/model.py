"""Spin-system construction.

Builds the static ingredients of a run: N spin-1/2 particles placed
uniformly at random in a D-dimensional box, a symmetric coupling matrix
derived from an eta / r**epsilon potential (or drawn uniformly at random),
and per-particle superposition amplitudes (a_k, b_k).

Pairwise data lives in condensed form (one value per pair i < j, the order
of `scipy.spatial.distance.pdist`): `place_particles` tests separations on
it and returns its last distances, `build_system` hands them to
`build_couplings`, and both coupling modes expand it with `squareform`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

AMPLITUDE_MODES = ("equal-superposition", "random-complex")
COUPLING_MODES = ("potential", "uniform-random")

# Particles closer than this fraction of the box side are resampled so that
# 1/r couplings stay finite.
MIN_SEPARATION_FACTOR = 1e-9
# pdist squares separations: below this side the minimum separation squares
# below the smallest normal float, and placement reads every pair as 0 apart.
MIN_BOX_SIDE = np.sqrt(np.finfo(float).tiny) / MIN_SEPARATION_FACTOR
MAX_PLACEMENT_ATTEMPTS = 1000


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


def place_particles(config: SystemConfig,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw N positions uniformly in the box, resampling any particle that
    lands closer than MIN_SEPARATION_FACTOR * l to an earlier one. Rounds
    draw one candidate per missing particle and keep them in draw order, so
    positions and generator state match drawing one at a time.

    Returns (positions, r): r is the condensed `pdist` of the positions,
    taken in the last round, which kept every point."""
    n, d = config.n_particles, config.dimension
    side = box_side(n, config.density, d)
    min_sep = MIN_SEPARATION_FACTOR * side
    positions = np.empty((0, d))
    stalled = 0
    while len(positions) < n:
        points = np.vstack([positions, rng.random((n - len(positions), d)) * side])
        r = pdist(points)
        keep = np.ones(len(points), dtype=bool)
        close = np.flatnonzero(r < min_sep)
        if close.size:  # condensed index -> pair (i, j), i < j
            m = len(points)
            row_start = np.arange(m) * (2 * m - 1 - np.arange(m)) // 2
            i = np.searchsorted(row_start, close, side="right") - 1
            j = close - row_start[i] + i + 1
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
    from the condensed distances r, e.g. `pdist(positions)`;
    SingularCouplingError unless every coupling is finite."""
    with np.errstate(divide="ignore", over="ignore"):
        g = r**epsilon
        np.divide(eta, g, out=g)
    if not np.all(np.isfinite(g)):
        raise SingularCouplingError(f"coupling eta / r^epsilon is not finite at the "
                                    f"closest pair, r = {r.min():.3g}, epsilon = {epsilon}")
    return squareform(g)


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
        n = config.n_particles
        couplings = squareform(rng.random(n * (n - 1) // 2))
    a, b = _draw_amplitudes(config, rng)
    return SpinSystem(positions=positions, amp_a=a, amp_b=b, couplings=couplings)
