"""Closed spin-1/2 system decoherence toolkit.

Analytic reduced-density-matrix dynamics of N fixed spins under pairwise
sigma_z x sigma_z coupling, a brute-force state-vector oracle for small N,
ensemble estimation of decoherence times, scaling-law fits and Poincare
recurrence estimates.
"""

__version__ = "0.1.0"

from .model import (
    SpinSystem,
    SystemConfig,
    box_side,
    build_couplings,
    build_system,
    derive_seed,
    place_particles,
)
from .dynamics import (
    Trajectory,
    coherence_magnitudes,
    sample_trajectory,
)
from .estimation import (
    DecayFit,
    EnsembleStats,
    ScalingFit,
    decay_law,
    fit_decay,
    fit_decoherence_law,
    fit_mean_level,
    run_ensemble,
    scaling_cells,
    sweep_cells,
    time_average,
)
from .recurrence import (
    RecurrenceEstimate,
    RecurrenceStats,
    recurrence_stats,
    recurrence_time,
)

__all__ = [
    "__version__",
    "SpinSystem", "SystemConfig", "box_side", "build_couplings",
    "build_system", "derive_seed", "place_particles",
    "Trajectory", "coherence_magnitudes", "sample_trajectory",
    "DecayFit", "EnsembleStats", "ScalingFit", "decay_law", "fit_decay",
    "fit_decoherence_law", "fit_mean_level", "run_ensemble", "scaling_cells",
    "sweep_cells", "time_average",
    "RecurrenceEstimate", "RecurrenceStats", "recurrence_stats",
    "recurrence_time",
]
