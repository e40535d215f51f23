"""The four benchmark workloads: inputs from a seed, item counts, output checks.

Each workload turns the benchmark seed into config files and argument
lists for `spindecoh.cli.main`; the program sees nothing else. A seed
selects one of POOL program seeds, and the outputs for every program
seed in the pool were recorded at the commit that defined the benchmark
(reference.json, written by record.py). Checks compare against those
records within the tolerances fixed below, and count each wrong or
missing output against the items (ensemble members, recurrence draws,
trajectory samples, oracle check times) it stands for.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

POOL = 32
PROGRAM_SEED_BASE = 1000

# Seed that later performance claims are re-checked on, besides the seeds
# used while a change was written.
RECHECK_SEED = 27

# Acceptance-suite bounds for the oracle comparison and the state norm.
ORACLE_TOL = 1e-10
NORM_TOL = 1e-12

# Reference tolerances. Ensemble statistics come from converged fits
# (parameter tolerance 1e-8), so 1e-6 leaves room for last-digit kernel
# changes. The scaling-law constants come from an ill-conditioned
# bounded least-squares fit and get 1e-4 (stderrs 1e-3).
SWEEP_RTOL = 1e-6
LAW_RTOL = 1e-4
LAW_STDERR_RTOL = 1e-3
LAW_ATOL = 1e-9
# Recurrence tolerances per N: (relative, for mean, std and median;
# absolute, in decades, for log10_mean). A period is 2*pi over a
# difference of coupling differences, and that gap shrinks with N (mean
# periods are 1e4-1e6 at N = 10, 1e9-1e11 at N = 100 and 1e13-1e17 at
# N = 1000), so the same coupling rounding moves large-N periods far
# more. Measured over all POOL program seeds, multiplying each coupling
# by 1 + k*eps with k in {-1, 0, 1} moved the statistics by at most
# (rel, decades)
# 8.5e-10, 3.5e-11 at N = 10; 2.3e-7, 9.5e-9 at N = 50; 2.0e-5, 8.8e-7
# at N = 100; 0.091, 0.0044 at N = 1000. Each tolerance is about ten
# times that, except that N = 1000 keeps 0.1 relative: its log10_mean
# (0.02 decades) is the check that binds there.
RECURRENCE_TOL = {10: (1e-8, 1e-9), 50: (3e-6, 1e-7), 100: (3e-4, 1e-5),
                  1000: (0.1, 0.02)}
# Xi is a mean of |z_l| values and only changes in the last digits when
# the kernel's rounding changes; values below XI_ATOL are in the
# underflow regime.
XI_RTOL = 1e-7
XI_ATOL = 1e-290
# |z_l| <= |a_l b_l|, with equality at t = 0. The ceiling is 1/2 for equal
# superpositions and recorded per particle for random-complex amplitudes;
# the kernel writes it with a few ulps of rounding (0.4999999999999999).
Z_BOUND_RTOL = 1e-12

TINY = np.finfo(float).tiny


def program_seed(seed: int) -> int:
    return PROGRAM_SEED_BASE + seed % POOL


def parse_number(text: str):
    """A CSV field as float, or None. Fields written from numpy scalars
    read `np.float64(x)`."""
    text = text.strip()
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    if text == "None":
        return None
    return float(text)


def read_csv(path: Path):
    """(metadata, header, rows of strings) of a `#`-headed CSV."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def _close(got, want, rtol, atol=0.0) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if math.isnan(want):
        return math.isnan(got)
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


class Workload:
    name = ""
    items = 0
    has_reference = True

    def params(self) -> dict:
        """Sizes that the recorded reference depends on."""
        raise NotImplementedError

    def prepare(self, seed: int, call_dir: Path, threads: int):
        """Write the inputs for one measured call; return (argv list, output dirs)."""
        raise NotImplementedError

    def extract(self, outs: list[Path]) -> dict:
        """Reference values read from a call's output files."""
        raise NotImplementedError

    def check(self, outs: list[Path], reference: dict | None) -> tuple[int, dict]:
        """Failed items, and workload-specific measurements."""
        raise NotImplementedError


_STAT_GRID = slice(0, 6)     # n, d, rho, eta, epsilon, u: exact
_STAT_VALUES = slice(6, 10)  # tau_mean, tau_std, xi_mean, xi_std


class ScalingSweep(Workload):
    name = "scaling-sweep"
    u = 2
    n_list = (10, 20, 50, 100, 200)
    rho_list = (0.5, 1, 2, 5, 10)
    n_cells = len(n_list) + len(rho_list) - 1
    items = n_cells * u

    def params(self):
        return {"u": self.u, "n_list": self.n_list, "rho_list": self.rho_list,
                "n": 50, "rho": 1.0, "d": 3, "dt": 0.05, "tmax": 100.0}

    def prepare(self, seed, call_dir, threads):
        p = self.params()
        cfg = _write(call_dir / "sweep.cfg", (
            f"n = {p['n']}\nrho = {p['rho']}\nd = {p['d']}\nu = {p['u']}\n"
            f"dt = {p['dt']}\ntmax = {p['tmax']}\n"
            f"n_list = {', '.join(map(str, self.n_list))}\n"
            f"rho_list = {', '.join(map(str, self.rho_list))}\n"
            f"amplitude_mode = equal-superposition\nseed = {program_seed(seed)}\n"))
        out = call_dir / "out"
        argv = ["fit-scaling", "--config", cfg, "--out", str(out), "--threads", str(threads)]
        return [argv], [out]

    def extract(self, outs):
        _, _, rows = read_csv(outs[0] / "scaling_sweep.csv")
        _, header, law = read_csv(outs[0] / "scaling.csv")
        return {"rows": [[parse_number(v) for v in row] for row in rows],
                "law_columns": header,
                "law": [parse_number(v) for v in law[0]]}

    def check(self, outs, reference):
        try:
            got = self.extract(outs)
        except (OSError, ValueError, IndexError) as exc:
            print(f"{self.name}: unreadable output: {exc}", file=sys.stderr)
            return self.items, {}
        failed = self.u * max(0, len(reference["rows"]) - len(got["rows"]))
        for row, ref in zip(got["rows"], reference["rows"]):
            ok = (len(row) == len(ref) and row[_STAT_GRID] == ref[_STAT_GRID]
                  and all(_close(g, w, SWEEP_RTOL)
                          for g, w in zip(row[_STAT_VALUES], ref[_STAT_VALUES])))
            if not ok:
                print(f"{self.name}: cell {ref[:3]} gave {row}", file=sys.stderr)
                failed += self.u
        law_ok = got["law_columns"] == reference["law_columns"] and all(
            _close(g, w, LAW_STDERR_RTOL if col.endswith("_stderr") else LAW_RTOL, LAW_ATOL)
            for col, g, w in zip(reference["law_columns"], got["law"], reference["law"]))
        if not law_ok:
            print(f"{self.name}: scaling law {got['law']} != {reference['law']}",
                  file=sys.stderr)
            failed = self.items
        return min(failed, self.items), {}


class RecurrenceCells(Workload):
    name = "recurrence-cells"
    draws = 10
    n_list = (10, 50, 100, 1000)
    d_list = (1, 2, 3)
    items = len(n_list) * len(d_list) * draws

    def params(self):
        return {"draws": self.draws, "n_list": self.n_list, "d_list": self.d_list, "rho": 1.0}

    def prepare(self, seed, call_dir, threads):
        cfg = _write(call_dir / "recurrence.cfg", (
            f"n_list = {', '.join(map(str, self.n_list))}\n"
            f"d_list = {', '.join(map(str, self.d_list))}\n"
            f"rho = 1.0\nu = {self.draws}\nseed = {program_seed(seed)}\n"))
        out = call_dir / "out"
        return [["recurrence", "--config", cfg, "--out", str(out)]], [out]

    def extract(self, outs):
        _, _, rows = read_csv(outs[0] / "recurrence.csv")
        return {"rows": [[parse_number(v) for v in row] for row in rows]}

    def check(self, outs, reference):
        try:
            got = self.extract(outs)
        except (OSError, ValueError) as exc:
            print(f"{self.name}: unreadable output: {exc}", file=sys.stderr)
            return self.items, {}
        failed = self.draws * max(0, len(reference["rows"]) - len(got["rows"]))
        for row, ref in zip(got["rows"], reference["rows"]):
            # n, d, rho, samples | mean, std, median | log10_mean | degenerate_fraction
            rtol, log10_atol = RECURRENCE_TOL[int(ref[0])]
            ok = (len(row) == len(ref) and row[:4] == ref[:4] and row[8] == ref[8]
                  and all(_close(g, w, rtol) for g, w in zip(row[4:7], ref[4:7]))
                  and _close(row[7], ref[7], 0.0, log10_atol))
            if not ok:
                print(f"{self.name}: cell {ref[:2]} gave {row}", file=sys.stderr)
                failed += self.draws
        return min(failed, self.items), {}


class SimulateLargeN(Workload):
    name = "simulate-large-n"
    n = 1000
    dt = 4.0
    tmax = 100.0
    n_samples = int(round(tmax / dt)) + 1
    modes = ("equal-superposition", "random-complex")
    items = len(modes) * n_samples

    def params(self):
        return {"n": self.n, "d": 3, "dt": self.dt, "tmax": self.tmax, "modes": self.modes}

    def prepare(self, seed, call_dir, threads):
        s = str(program_seed(seed))
        equal_out, complex_out = call_dir / "equal", call_dir / "complex"
        cfg = _write(call_dir / "complex.cfg", (
            f"n = {self.n}\nd = 3\ndt = {self.dt}\ntmax = {self.tmax}\n"
            f"amplitude_mode = random-complex\nseed = {s}\n"))
        flags = ["--with-z", "--with-entropy"]
        return [
            ["simulate", "--n", str(self.n), "--d", "3", "--dt", str(self.dt),
             "--tmax", str(self.tmax), "--seed", s, "--out", str(equal_out), *flags],
            ["simulate", "--config", cfg, "--out", str(complex_out), *flags],
        ], [equal_out, complex_out]

    @staticmethod
    def _table(out: Path):
        _, header, rows = read_csv(out / "trajectory.csv")
        return header, np.array(rows, dtype=float)

    def extract(self, outs):
        """Xi per mode, and |a_l b_l| (the t = 0 row) of the random-complex system."""
        tables = {mode: self._table(out)[1] for mode, out in zip(self.modes, outs)}
        return {"xi": {mode: table[:, 1].tolist() for mode, table in tables.items()},
                "ab": tables["random-complex"][0, 2:-1].tolist()}

    def check(self, outs, reference):
        failed = 0
        zeros = subnormal = total = 0
        for mode, out in zip(self.modes, outs):
            try:
                header, table = self._table(out)
            except (OSError, ValueError) as exc:
                print(f"{self.name}: unreadable {mode} output: {exc}", file=sys.stderr)
                failed += self.n_samples
                continue
            expected = ["t", "xi"] + [f"z_{l + 1}" for l in range(self.n)] + ["s_tot"]
            if header != expected or table.shape != (self.n_samples, self.n + 3):
                print(f"{self.name}: {mode} output has shape {table.shape}", file=sys.stderr)
                failed += self.n_samples
                continue
            t, xi, z, s_tot = table[:, 0], table[:, 1], table[:, 2:-1], table[:, -1]
            ab = (np.full(self.n, 0.5) if mode == "equal-superposition"
                  else np.array(reference["ab"]))
            ok = np.isclose(t, self.dt * np.arange(self.n_samples), rtol=0, atol=1e-9)
            ok &= np.all(np.isfinite(z), axis=1) & np.isfinite(s_tot)
            ok &= np.all((z >= 0.0) & (z <= ab * (1 + Z_BOUND_RTOL)), axis=1)
            ok[0] &= bool(np.all(np.abs(z[0] - ab) <= Z_BOUND_RTOL * ab))
            ok &= (s_tot >= 0.0) & (s_tot <= self.n * math.log(2) * (1 + Z_BOUND_RTOL))
            ref = np.array(reference["xi"][mode])
            ok &= np.abs(xi - ref) <= XI_RTOL * np.abs(ref) + XI_ATOL
            bad = int(np.count_nonzero(~ok))
            if bad:
                print(f"{self.name}: {bad} bad {mode} samples at t = {t[~ok].tolist()}",
                      file=sys.stderr)
            failed += bad
            zeros += int(np.count_nonzero(z == 0.0))
            subnormal += int(np.count_nonzero((z > 0.0) & (z < TINY)))
            total += z.size
        underflow = (zeros + subnormal) / total if total else 0.0
        return failed, {"underflow_frac": underflow}


class OracleCheck(Workload):
    name = "oracle-check"
    n = 14
    times = 100
    items = times
    has_reference = False

    def params(self):
        return {"n": self.n, "times": self.times}

    def prepare(self, seed, call_dir, threads):
        cfg = _write(call_dir / "oracle.cfg", (
            f"n = {self.n}\namplitude_mode = random-complex\n"
            f"coupling_mode = uniform-random\ntmax = 100.0\nseed = {program_seed(seed)}\n"))
        out = call_dir / "out"
        return [["oracle-check", "--config", cfg, "--times", str(self.times),
                 "--out", str(out)]], [out]

    def extract(self, outs):
        return {}

    def check(self, outs, reference):
        try:
            meta, header, rows = read_csv(outs[0] / "oracle_check.csv")
            good = sum(1 for t, dz, ds, norm in ([parse_number(v) for v in row] for row in rows)
                       if 0.0 <= t <= 100.0 and dz < ORACLE_TOL and ds < ORACLE_TOL
                       and norm < NORM_TOL)
        except (OSError, ValueError, TypeError) as exc:
            print(f"{self.name}: unreadable output: {exc}", file=sys.stderr)
            return self.items, {}
        if meta.get("result") != "PASS" or header != ["t", "max_dz", "max_ds", "norm_dev"]:
            print(f"{self.name}: result {meta.get('result')}", file=sys.stderr)
            return self.items, {}
        return self.items - min(good, self.items), {}


WORKLOADS = {w.name: w for w in (ScalingSweep(), RecurrenceCells(), SimulateLargeN(),
                                 OracleCheck())}
