"""Run configuration: line-oriented `key = value` files.

`#` starts a comment and unknown keys are rejected. Each key is a
RunConfig field, read and written by one (parse, render) pair per field
type (`_FORMATS`): integers by `int(raw, 0)` and written as digits,
floats by `float` and written as `repr(float(v))`, lists comma-separated
(no entries is empty), `fit_window` as `auto` or `lo, hi`. render_config()
emits a canonical form such that parse_config(render_config(cfg)) == cfg.
"""

from __future__ import annotations

import hashlib
import operator
import re
from dataclasses import dataclass, fields, replace

from .model import SystemConfig


class ConfigParseError(ValueError):
    """Malformed config text (reported with its line number)."""


class ConfigValidationError(ValueError):
    """Config parsed but violates a constraint."""


# The config keys of the SystemConfig fields named in its messages.
_KEYS = {"n_particles": "n", "dimension": "d", "density": "rho", "rng_seed": "seed"}
_FIELD_NAME = re.compile(r"\b(" + "|".join(_KEYS) + r")\b")


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
        except ValueError as exc:  # reported under the keys the caller wrote
            message = _FIELD_NAME.sub(lambda name: _KEYS[name[0]], str(exc))
            raise ConfigValidationError(message) from exc

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


def _list(parse, render):
    """(parse, render) of a comma-separated list; no entries is empty."""
    return (lambda raw: tuple(parse(p.strip()) for p in raw.split(",")) if raw else (),
            lambda value: ", ".join(render(v) for v in value))


# An int field renders through operator.index, so a numpy integer writes as
# its digits and a float, which no build accepts there, raises TypeError.
_INT = (lambda raw: int(raw, 0), lambda value: str(operator.index(value)))
_FLOAT = (float, lambda value: repr(float(value)))
_FLOATS = _list(*_FLOAT)


def _parse_fit_window(raw: str):
    if raw == "auto":
        return None
    window = _FLOATS[0](raw)
    if len(window) != 2:
        raise ValueError("fit_window must be 'auto' or 'lo, hi'")
    return window


# (parse, render) per RunConfig field type, keyed by the annotation's text,
# so every RunConfig field is a key and parse and render agree.
_FORMATS = {
    "int": _INT,
    "float": _FLOAT,
    "str": (str, str),
    "tuple[int, ...]": _list(*_INT),
    "tuple[float, ...]": _FLOATS,
    "tuple[float, float] | None": (
        _parse_fit_window, lambda value: "auto" if value is None else _FLOATS[1](value)),
}
_FIELDS = {field.name: _FORMATS[field.type] for field in fields(RunConfig)}


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
        if key not in _FIELDS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _FIELDS[key][0](raw)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; inverse of parse_config for valid configs.
    Each value is written by its field's type, so equal configs render
    alike whether a value is an int, a float or a numpy scalar."""
    lines = []
    for name, (_, render) in _FIELDS.items():
        value = getattr(cfg, name)
        if isinstance(value, tuple) and not value:
            continue  # an empty list is the default
        lines.append(f"{name} = {render(value)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the canonical config text.

    The output directory is excluded: it does not affect the numbers, and
    the same run must hash identically wherever its files land.
    """
    canonical = replace(cfg, out="out")
    return hashlib.sha256(render_config(canonical).encode()).hexdigest()[:16]

