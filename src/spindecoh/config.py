"""Run configuration: line-oriented `key = value` files.

`#` starts a comment, lists are comma-separated, unknown keys are
rejected. render_config() emits a canonical form such that
parse_config(render_config(cfg)) == cfg.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .dynamics import _grid_size
from .model import SystemConfig


class ConfigParseError(ValueError):
    """Malformed config text (reported with its line number)."""


class ConfigValidationError(ValueError):
    """Config parsed but violates a constraint."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: system parameters, time grid, ensemble size,
    fit window policy, output directory and sweep grids."""

    n: int = 50
    d: int = 3
    rho: float = 1.0
    eta: float = 1.0
    epsilon: float = 1.0
    amplitude_mode: str = "equal-superposition"
    coupling_mode: str = "potential"
    seed: int = 0
    dt: float = 0.05
    tmax: float = 100.0
    t1: float = 50.0
    t2: float = 100.0
    u: int = 100
    fit_window: tuple[float, float] | None = None
    out: str = "out"
    n_list: tuple[int, ...] = ()
    rho_list: tuple[float, ...] = ()
    d_list: tuple[int, ...] = ()

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            n_particles=self.n,
            dimension=self.d,
            density=self.rho,
            eta=self.eta,
            epsilon=self.epsilon,
            amplitude_mode=self.amplitude_mode,
            coupling_mode=self.coupling_mode,
            rng_seed=self.seed,
        )

    @property
    def n_samples(self) -> int:
        return _grid_size(self.tmax, self.dt)


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_fit_window(raw: str):
    if raw == "auto":
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("fit_window must be 'auto' or 'lo, hi'")
    return (float(parts[0]), float(parts[1]))


def _parse_list(raw: str, item):
    if raw == "":
        return ()
    return tuple(item(p.strip()) for p in raw.split(","))


_PARSERS = {
    "n": _parse_int,
    "d": _parse_int,
    "rho": float,
    "eta": float,
    "epsilon": float,
    "amplitude_mode": str,
    "coupling_mode": str,
    "seed": _parse_int,
    "dt": float,
    "tmax": float,
    "t1": float,
    "t2": float,
    "u": _parse_int,
    "fit_window": _parse_fit_window,
    "out": str,
    "n_list": lambda raw: _parse_list(raw, _parse_int),
    "rho_list": lambda raw: _parse_list(raw, float),
    "d_list": lambda raw: _parse_list(raw, _parse_int),
}


# Rule and message for the entries of each list key.
_LIST_RULES = {
    "n_list": (lambda n: n >= 1, "must be >= 1"),
    "rho_list": (lambda rho: 0 < rho < math.inf, "must be positive and finite"),
    "d_list": (lambda d: d in (1, 2, 3), "must be 1, 2 or 3"),
}


def validate(cfg: RunConfig, keys=()) -> RunConfig:
    """Check the system parameters, which every command reads, and each
    other key only if it is in `keys`, the keys the command reads; returns
    the config unchanged. The time windows t1, t2 and fit_window are
    checked on the sampled grid by estimation.run_ensemble."""
    try:
        cfg.system_config()
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc
    for name in ("dt", "tmax"):
        value = getattr(cfg, name)
        if name in keys and not 0 < value < math.inf:
            rule = "positive" if math.isfinite(value) else "finite"
            raise ConfigValidationError(f"{name} must be {rule}, got {value}")
    if "u" in keys and cfg.u < 1:
        raise ConfigValidationError(f"u must be >= 1, got {cfg.u}")
    for name, (ok, rule) in _LIST_RULES.items():
        for value in getattr(cfg, name) if name in keys else ():
            if not ok(value):
                raise ConfigValidationError(f"{name} entries {rule}, got {value}")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig whose system parameters
    are validated; each command checks the other keys it reads."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _PARSERS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return validate(RunConfig(**values))


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; inverse of parse_config for valid configs."""
    lines = []
    for field in fields(RunConfig):
        value = getattr(cfg, field.name)
        if field.name == "fit_window":
            rendered = "auto" if value is None else f"{value[0]!r}, {value[1]!r}"
        elif field.name in ("n_list", "rho_list", "d_list"):
            if not value:
                continue
            rendered = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{field.name} = {rendered}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the canonical config text.

    The output directory is excluded: it does not affect the numbers, and
    the same run must hash identically wherever its files land.
    """
    canonical = replace(cfg, out="out")
    return hashlib.sha256(render_config(canonical).encode()).hexdigest()[:16]

