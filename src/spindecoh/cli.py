"""Command-line entry point and CSV output.

Subcommands: simulate, ensemble, sweep, fit-scaling, recurrence,
oracle-check. Every output file starts with `#` metadata lines carrying
the config hash, the master seed and the toolkit version, so published
numbers stay re-derivable.

Exit codes: 0 success, 1 usage, 2 validation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
# argparse's gettext imports locale when the first parser is built; importing
# it here keeps that set-up out of every command's run.
import locale
import sys
from pathlib import Path

import numpy as np

from . import __version__, dynamics
from ._floatrepr import _repr_bytes
from .config import ConfigValidationError, RunConfig, config_hash, parse_config
from .dynamics import RadicandError, _time_grid, particle_entropies, sample_trajectory
from .estimation import (_check_plan, fit_decoherence_law, run_ensemble, scaling_cells,
                         sweep_cells)
from .model import _positive_finite, build_system, derive_seed, make_rng
from .oracle import _check_cap, compare
from .recurrence import _check_recurrence_plan, recurrence_stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

ORACLE_CHECK_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _Subparser(_Parser):
    """Rejects unknown arguments itself, so the error shows the usage line
    of the subcommand, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


class _UsageError(Exception):
    pass


def write_csv(path: Path, meta: dict, columns: list[str], rows) -> None:
    """Write a CSV with `#`-prefixed metadata header lines.

    rows: an iterable of rows, or a 2-D float64 array. Floats are written as
    `repr` writes them, every other field (ints, bools, None, strings) as
    `str` does. Only a 2-D float64 array goes through the vectorised
    formatter; other rows are written field by field."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = "".join(f"# {key}: {value}\n" for key, value in meta.items())
    with open(path, "wb") as fh:
        fh.write((header + ",".join(columns) + "\n").encode())
        fh.write(_csv_body(rows))


def _csv_body(rows) -> bytes:
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        seps = np.full(rows.shape, ord(","), np.uint8)
        seps[:, -1] = ord("\n")
        return _repr_bytes(rows, seps)
    return "".join(",".join(float.__repr__(v) if isinstance(v, float) else str(v) for v in row)
                   + "\n" for row in rows).encode()


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "master_seed": cfg.seed,
        "units": "time=gt entropy=nats",
    }
    meta.update(extra)
    return meta


# Every flag of any subcommand; build_parser picks each subcommand's.
_FLAGS = {
    "--config": dict(type=str, help="path to a key = value config file"),
    "--seed": dict(type=int, help="master seed override"),
    "--out": dict(type=str, help="output directory override"),
    "--n": dict(type=int, help="particle count override"),
    "--rho": dict(type=float, help="density override"),
    "--d": dict(type=int, help="dimension override"),
    "--u": dict(type=int, help="ensemble size override"),
    "--tmax": dict(type=float, help="trajectory span override"),
    "--dt": dict(type=float, help="time step override"),
    "--threads": dict(type=int, default=1, help="worker threads for ensembles"),
    "--with-z": dict(action="store_true", help="include per-particle |z_l| columns"),
    "--with-entropy": dict(action="store_true",
                           help="include the total subsystem entropy column"),
    "--times": dict(type=int, default=20, help="number of random check times"),
}
_COMMON_FLAGS = ("--config", "--seed", "--out", "--n", "--rho", "--d")


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes the common flags and the flags of its
    _SUBCOMMANDS row."""
    parser = _Parser(prog="spindecoh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subparser)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in _COMMON_FLAGS + flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


_RUN_FIELDS = {field.name for field in dataclasses.fields(RunConfig)}


def _load_config(args) -> RunConfig:
    """The config file (or the defaults) with every given flag that names
    a RunConfig field applied on top."""
    cfg = parse_config(Path(args.config).read_text()) if args.config else RunConfig()
    overrides = {key: value for key, value in vars(args).items()
                 if key in _RUN_FIELDS and value is not None}
    return dataclasses.replace(cfg, **overrides)


def cmd_simulate(cfg: RunConfig, args) -> int:
    _time_grid(cfg.dt, cfg.tmax, cfg.n)  # the grid's rules, before the system is built
    system = build_system(cfg.system_config())
    traj = sample_trajectory(system, dt=cfg.dt, t_max=cfg.tmax)
    columns = ["t", "xi"]
    parts = [traj.times, traj.xi]
    if args.with_z:
        columns += [f"z_{l + 1}" for l in range(system.n_particles)]
        parts.append(traj.coherences)
    if args.with_entropy:
        columns.append("s_tot")
        parts.append(particle_entropies(system, traj.coherences).sum(axis=1))
    write_csv(Path(cfg.out) / "trajectory.csv", _meta(cfg), columns, np.column_stack(parts))
    return EXIT_OK


def _stats_row(stats) -> list:
    c = stats.config
    return [c.n_particles, c.dimension, c.density, c.eta, c.epsilon, stats.u,
            stats.tau_mean, stats.tau_std, stats.xi_mean, stats.xi_std]


_STATS_COLUMNS = ["n", "d", "rho", "eta", "epsilon", "u",
                  "tau_mean", "tau_std", "xi_mean", "xi_std"]


def cmd_ensemble(cfg: RunConfig, args) -> int:
    stats = run_ensemble(
        cfg.system_config(), cfg.u, cfg.seed, dt=cfg.dt, t_max=cfg.tmax,
        t1=cfg.t1, t2=cfg.t2, fit_window=cfg.fit_window, threads=args.threads,
    )
    out = Path(cfg.out)
    write_csv(
        out / "ensemble_runs.csv", _meta(cfg),
        ["run", "seed", "tau", "c", "ssr", "converged", "xi_avg",
         "n_iterations", "fit_lo", "fit_hi"],
        ([r.index, r.seed, r.fit.tau, r.fit.c, r.fit.ssr, int(r.fit.converged), r.xi_avg,
          r.fit.n_iterations, r.fit.fit_lo, r.fit.fit_hi] for r in stats.runs),
    )
    write_csv(out / "ensemble_stats.csv", _meta(cfg), _STATS_COLUMNS,
              [_stats_row(stats)])
    return EXIT_OK


def _run_sweep(cfg: RunConfig, cells, threads: int):
    """One ensemble per cell, every cell checked before the first runs."""
    _check_plan(cells, cfg.u, cfg.dt, cfg.tmax, cfg.t1, cfg.t2, cfg.fit_window)
    return [run_ensemble(cell, cfg.u, derive_seed(cfg.seed, 1_000_000 + index),
                         dt=cfg.dt, t_max=cfg.tmax, t1=cfg.t1, t2=cfg.t2,
                         fit_window=cfg.fit_window, threads=threads)
            for index, cell in enumerate(cells)]


def cmd_sweep(cfg: RunConfig, args) -> int:
    cells = sweep_cells(cfg.system_config(), cfg.n_list, cfg.rho_list, cfg.d_list)
    results = _run_sweep(cfg, cells, args.threads)
    write_csv(Path(cfg.out) / "sweep.csv", _meta(cfg), _STATS_COLUMNS,
              (_stats_row(s) for s in results))
    return EXIT_OK


def cmd_fit_scaling(cfg: RunConfig, args) -> int:
    base = cfg.system_config()
    # A bad u, dt or tmax is named before a short grid.
    _check_plan([base], cfg.u, cfg.dt, cfg.tmax, cfg.t1, cfg.t2, cfg.fit_window)
    cells = scaling_cells(base, cfg.n_list, cfg.rho_list)
    results = _run_sweep(cfg, cells, args.threads)
    fit = fit_decoherence_law(results, cfg.n, cfg.rho)
    out = Path(cfg.out)
    write_csv(out / "scaling_sweep.csv", _meta(cfg), _STATS_COLUMNS,
              (_stats_row(s) for s in results))
    write_csv(
        out / "scaling.csv", _meta(cfg),
        ["p", "q", "r", "s", "p_stderr", "q_stderr", "r_stderr", "s_stderr",
         "a", "b", "f", "g"],
        [[fit.p, fit.q, fit.r, fit.s, fit.p_stderr, fit.q_stderr,
          fit.r_stderr, fit.s_stderr, fit.a, fit.b, fit.f, fit.g]],
    )
    report = (
        "decoherence-time law: tau_d = (1/eta) (P / N^Q + R) rho^-S\n"
        f"  P = {fit.p:.6g} +- {fit.p_stderr:.2g}\n"
        f"  Q = {fit.q:.6g} +- {fit.q_stderr:.2g}\n"
        f"  R = {fit.r:.6g} +- {fit.r_stderr:.2g}\n"
        f"  S = {fit.s:.6g} +- {fit.s_stderr:.2g}\n"
        f"mean level <Xi>(N) = A exp(-B N): A = {fit.a}, B = {fit.b}\n"
        f"fluctuation level sigma(N) = F exp(-G N): F = {fit.f}, G = {fit.g}\n"
    )
    (out / "scaling.txt").write_text(report)
    print(report, end="")
    return EXIT_OK


def cmd_recurrence(cfg: RunConfig, args) -> int:
    cells = sweep_cells(cfg.system_config(), cfg.n_list, cfg.rho_list, cfg.d_list)
    _check_recurrence_plan(cells, cfg.u)
    rows = []
    for index, cell in enumerate(cells):
        stats = recurrence_stats(cell, cfg.u, derive_seed(cfg.seed, 2_000_000 + index))
        c = stats.config
        rows.append([
            c.n_particles, c.dimension, c.density, stats.samples, stats.mean,
            stats.std, stats.median, stats.log10_mean, stats.degenerate_fraction,
        ])
    write_csv(
        Path(cfg.out) / "recurrence.csv", _meta(cfg),
        ["n", "d", "rho", "samples", "mean", "std", "median",
         "log10_mean", "degenerate_fraction"],
        rows,
    )
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig, args) -> int:
    if args.times < 1:
        raise ConfigValidationError(f"--times must be >= 1, got {args.times}")
    _positive_finite("tmax", cfg.tmax)
    _check_cap(cfg.n)
    if args.times * cfg.n > dynamics.MAX_TRAJECTORY_ELEMENTS:
        raise ConfigValidationError(f"oracle check of {args.times} times x {cfg.n} particles "
                                    f"exceeds the element cap {dynamics.MAX_TRAJECTORY_ELEMENTS}")
    system = build_system(cfg.system_config())
    rng = make_rng(derive_seed(cfg.seed, 777))
    times = rng.random(args.times) * cfg.tmax
    max_dz, max_ds, norm_dev = compare(system, times)
    worst = float(max(max_dz.max(), max_ds.max()))
    passed = worst < ORACLE_CHECK_TOL
    write_csv(
        Path(cfg.out) / "oracle_check.csv",
        _meta(cfg, result="PASS" if passed else "FAIL", tolerance=ORACLE_CHECK_TOL),
        ["t", "max_dz", "max_ds", "norm_dev"],
        zip(times.tolist(), max_dz.tolist(), max_ds.tolist(), norm_dev.tolist()),
    )
    print(f"oracle-check: {'PASS' if passed else 'FAIL'} "
          f"(max deviation {worst:.3e}, tolerance {ORACLE_CHECK_TOL:.0e})")
    return EXIT_OK if passed else EXIT_NUMERICAL


_ENSEMBLE_FLAGS = ("--u", "--tmax", "--dt", "--threads")

# One row per subcommand: (handler, help, its flags besides the common ones).
# Each handler checks the values it reads before it builds a system.
_SUBCOMMANDS = {
    "simulate": (cmd_simulate, "sample one Xi(t) trajectory",
                 ("--tmax", "--dt", "--with-z", "--with-entropy")),
    "ensemble": (cmd_ensemble, "run U systems for one parameter cell", _ENSEMBLE_FLAGS),
    "sweep": (cmd_sweep, "run ensembles over parameter grids", _ENSEMBLE_FLAGS),
    "fit-scaling": (cmd_fit_scaling, "fit the decoherence-time scaling law over a sweep",
                    _ENSEMBLE_FLAGS),
    "recurrence": (cmd_recurrence, "estimate Poincare recurrence statistics", ("--u",)),
    "oracle-check": (cmd_oracle_check,
                     "compare analytic dynamics against the brute-force oracle",
                     ("--tmax", "--times")),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler = _SUBCOMMANDS[args.subcommand][0]
    try:
        return handler(_load_config(args), args)
    # RadicandError is a ValueError, so numerical failures are caught first.
    except (RadicandError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # config errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
