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
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigParseError,
    ConfigValidationError,
    RunConfig,
    config_hash,
    parse_config,
    validate,
)
from .dynamics import coherence_magnitudes, particle_entropies, sample_trajectory
from .estimation import fit_decoherence_law, run_ensemble
from .model import build_system, derive_seed
from .oracle import DEFAULT_PARTICLE_CAP, evolve, reduce_particle, vn_entropy
from .recurrence import recurrence_stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

ORACLE_CHECK_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        # float() first: the repr of a numpy scalar reads np.float64(...).
        return repr(float(value))
    return str(value)


def write_csv(path: Path, meta: dict, columns: list[str], rows) -> None:
    """Write a CSV with `#`-prefixed metadata header lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "master_seed": cfg.seed,
        "units": "time=gt entropy=nats",
    }
    meta.update(extra)
    return meta


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spindecoh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("simulate", "sample one Xi(t) trajectory"),
        ("ensemble", "run U systems for one parameter cell"),
        ("sweep", "run ensembles over parameter grids"),
        ("fit-scaling", "fit the decoherence-time scaling law over a sweep"),
        ("recurrence", "estimate Poincare recurrence statistics"),
        ("oracle-check", "compare analytic dynamics against the brute-force oracle"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", type=str, help="output directory override")
        p.add_argument(
            "--threads", type=int,
            help="worker threads for ensembles (default $SPINDECOH_THREADS or 1)",
        )
        p.add_argument("--n", type=int, help="particle count override")
        p.add_argument("--rho", type=float, help="density override")
        p.add_argument("--d", type=int, help="dimension override")
        p.add_argument("--u", type=int, help="ensemble size override")
        p.add_argument("--tmax", type=float, help="trajectory span override")
        p.add_argument("--dt", type=float, help="time step override")
        if name == "simulate":
            p.add_argument("--with-z", action="store_true",
                           help="include per-particle |z_l| columns")
            p.add_argument("--with-entropy", action="store_true",
                           help="include the total subsystem entropy column")
        if name == "oracle-check":
            p.add_argument("--times", type=int, default=20,
                           help="number of random check times")
    return parser


def _threads(args) -> int:
    """--threads, else $SPINDECOH_THREADS, else 1; a positive integer."""
    raw = os.environ.get("SPINDECOH_THREADS", "1") if args.threads is None else args.threads
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigValidationError(
            f"SPINDECOH_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigValidationError(f"threads must be >= 1, got {threads}")
    return threads


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = parse_config(Path(args.config).read_text())
    else:
        cfg = RunConfig()
    overrides = {}
    for field, attr in [("seed", "seed"), ("out", "out"), ("n", "n"),
                        ("rho", "rho"), ("d", "d"), ("u", "u"),
                        ("tmax", "tmax"), ("dt", "dt")]:
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field] = value
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return validate(cfg)


def cmd_simulate(cfg: RunConfig, args) -> int:
    system = build_system(cfg.system_config())
    traj = sample_trajectory(
        system, dt=cfg.dt, n_samples=cfg.n_samples,
        include_coherences=args.with_z, include_entropy=args.with_entropy,
    )
    columns = ["t", "xi"]
    parts = [traj.times, traj.xi]
    if args.with_z:
        columns += [f"z_{l + 1}" for l in range(system.n_particles)]
        parts += [traj.coherences[:, l] for l in range(system.n_particles)]
    if args.with_entropy:
        columns.append("s_tot")
        parts.append(traj.entropy)
    rows = zip(*(np.asarray(p).tolist() for p in parts))
    write_csv(Path(cfg.out) / "trajectory.csv", _meta(cfg), columns, rows)
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
        ["run", "seed", "tau", "c", "ssr", "converged", "xi_avg"],
        ([r.index, r.seed, r.tau, r.c, r.ssr, int(r.converged), r.xi_avg]
         for r in stats.runs),
    )
    write_csv(out / "ensemble_stats.csv", _meta(cfg), _STATS_COLUMNS,
              [_stats_row(stats)])
    return EXIT_OK


def _sweep_cells(cfg: RunConfig):
    n_values = cfg.n_list or (cfg.n,)
    rho_values = cfg.rho_list or (cfg.rho,)
    d_values = cfg.d_list or (cfg.d,)
    base = cfg.system_config()
    for d in d_values:
        for rho in rho_values:
            for n in n_values:
                yield dataclasses.replace(
                    base, n_particles=n, density=rho, dimension=d
                )


def _run_sweep(cfg: RunConfig, cells, threads: int):
    results = []
    for index, cell in enumerate(cells):
        stats = run_ensemble(
            cell, cfg.u, derive_seed(cfg.seed, 1_000_000 + index),
            dt=cfg.dt, t_max=cfg.tmax, t1=cfg.t1, t2=cfg.t2,
            fit_window=cfg.fit_window, threads=threads,
        )
        results.append(stats)
    return results


def cmd_sweep(cfg: RunConfig, args) -> int:
    cells = list(_sweep_cells(cfg))
    if not cells:
        raise ConfigValidationError("sweep grids are empty")
    results = _run_sweep(cfg, cells, args.threads)
    write_csv(Path(cfg.out) / "sweep.csv", _meta(cfg), _STATS_COLUMNS,
              (_stats_row(s) for s in results))
    return EXIT_OK


def cmd_fit_scaling(cfg: RunConfig, args) -> int:
    if len(cfg.n_list) < 3 or len(cfg.rho_list) < 3:
        raise ConfigValidationError(
            "fit-scaling needs n_list (>= 3 values) and rho_list (>= 3 values)"
        )
    base = cfg.system_config()
    cells = [dataclasses.replace(base, n_particles=n) for n in cfg.n_list]
    cells += [
        dataclasses.replace(base, density=rho)
        for rho in cfg.rho_list if rho != cfg.rho
    ]
    results = _run_sweep(cfg, cells, args.threads)
    fit = fit_decoherence_law(results)
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
    report = out / "scaling.txt"
    report.write_text(
        "decoherence-time law: tau_d = (1/eta) (P / N^Q + R) rho^-S\n"
        f"  P = {fit.p:.6g} +- {fit.p_stderr:.2g}\n"
        f"  Q = {fit.q:.6g} +- {fit.q_stderr:.2g}\n"
        f"  R = {fit.r:.6g} +- {fit.r_stderr:.2g}\n"
        f"  S = {fit.s:.6g} +- {fit.s_stderr:.2g}\n"
        f"mean level <Xi>(N) = A exp(-B N): A = {fit.a}, B = {fit.b}\n"
        f"fluctuation level sigma(N) = F exp(-G N): F = {fit.f}, G = {fit.g}\n"
    )
    print(report.read_text(), end="")
    return EXIT_OK


def cmd_recurrence(cfg: RunConfig, args) -> int:
    cells = list(_sweep_cells(cfg))
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
    if cfg.n > DEFAULT_PARTICLE_CAP:
        raise ConfigValidationError(
            f"oracle-check needs n <= {DEFAULT_PARTICLE_CAP}, got {cfg.n}"
        )
    system = build_system(cfg.system_config())
    rng = np.random.Generator(np.random.Philox(key=derive_seed(cfg.seed, 777)))
    times = rng.random(args.times) * cfg.tmax
    rows = []
    worst = 0.0
    for t in times:
        z_abs = coherence_magnitudes(system, np.array([t]))[0]
        s_analytic = particle_entropies(system, z_abs)
        state = evolve(system, float(t))
        dz = 0.0
        ds = 0.0
        for l in range(system.n_particles):
            rho_l = reduce_particle(state, l)
            dz = max(dz, abs(abs(rho_l[0, 1]) - z_abs[l]))
            ds = max(ds, abs(vn_entropy(rho_l) - s_analytic[l]))
        norm_dev = abs(np.linalg.norm(state) - 1.0)
        rows.append([float(t), dz, ds, norm_dev])
        worst = max(worst, dz, ds)
    passed = worst < ORACLE_CHECK_TOL
    write_csv(
        Path(cfg.out) / "oracle_check.csv",
        _meta(cfg, result="PASS" if passed else "FAIL", tolerance=ORACLE_CHECK_TOL),
        ["t", "max_dz", "max_ds", "norm_dev"],
        rows,
    )
    print(f"oracle-check: {'PASS' if passed else 'FAIL'} "
          f"(max deviation {worst:.3e}, tolerance {ORACLE_CHECK_TOL:.0e})")
    return EXIT_OK if passed else EXIT_NUMERICAL


_COMMANDS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "sweep": cmd_sweep,
    "fit-scaling": cmd_fit_scaling,
    "recurrence": cmd_recurrence,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.threads = _threads(args)
        cfg = _load_config(args)
        return _COMMANDS[args.subcommand](cfg, args)
    except (ConfigParseError, ConfigValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
