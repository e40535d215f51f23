"""Run configuration: line-oriented `key = value` files.

`#` starts a comment, lists are comma-separated, unknown keys are
rejected. render_config() emits a canonical form such that
parse_config(render_config(cfg)) == cfg.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .model import SystemConfig


class ConfigParseError(ValueError):
    """Malformed config text (reported with its line number)."""


class ConfigValidationError(ValueError):
    """Config parsed but violates a constraint."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: system parameters, time grid, ensemble size,
    fit window policy, output directory and sweep grids. Construction
    checks the system parameters; the code that reads each other key
    checks it."""

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

    def __post_init__(self):
        try:
            self.system_config()
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from exc

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


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig, which checks its system
    parameters; the code that uses each other key checks it."""
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
    return RunConfig(**values)


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

