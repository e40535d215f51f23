"""CSV float fields: the vectorised formatter against `repr(float(v))`."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindecoh import cli
from spindecoh._floatrepr import _BLOCK, _repr_bytes

TINY = np.finfo(float).tiny


def assert_reprs(values):
    values = np.asarray(values, np.float64).reshape(-1)
    seps = np.where(np.arange(values.size) % 3 == 2, ord("\n"), ord(","))
    expected = "".join(repr(float(v)) + chr(s) for v, s in zip(values, seps)).encode()
    assert _repr_bytes(values, seps.astype(np.uint8)) == expected


def with_neighbours(values):
    values = np.asarray(values, np.float64)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def reference_csv(meta, columns, rows) -> bytes:
    """The writer the formatter replaced: str of each field of each row."""
    lines = [f"# {key}: {value}" for key, value in meta.items()] + [",".join(columns)]
    lines += [",".join(map(str, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestFormatter:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    def test_raw_bit_patterns(self, patterns):
        assert_reprs(np.array(patterns, np.uint64).view(np.float64))

    def test_random_bits_and_uniform(self):
        rng = np.random.default_rng(2024)
        assert_reprs(rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64))
        assert_reprs(rng.random(100_000))

    def test_powers_of_two(self):
        assert_reprs(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))

    def test_powers_of_ten(self):
        assert_reprs(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_subnormals(self):
        assert_reprs(np.arange(1, 5000, dtype=np.uint64).view(np.float64))
        assert_reprs(with_neighbours([5e-324, 1e-323, 1.5e-323, TINY]))

    def test_integers_in_every_binade(self):
        rng = np.random.default_rng(7)
        assert_reprs(np.concatenate([rng.integers(2**m, 2**(m + 1), 2000, dtype=np.int64)
                                     for m in range(53)]).astype(np.float64))
        assert_reprs(with_neighbours([2.0**53, 1e15, 1e16, 123456789012345678.0]))

    def test_layout_boundaries(self):
        assert_reprs(with_neighbours([1e-5, 1e-4, 1e-3, 0.1, 1.0, 1e15, 1e16, 1e17, 9.5e-5,
                                      9999999999999998.0, 1e100, 1e-100]))
        assert_reprs([np.finfo(float).max, -np.finfo(float).max])

    def test_zeros_infinities_and_nans(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF], np.uint64).view(np.float64)
        assert_reprs(np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans]))

    def test_one_value(self):
        for value in (0.5, -0.0, np.nan, 5e-324):
            assert_reprs([value])

    def test_block_edges(self):
        rng = np.random.default_rng(3)
        for size in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
            assert_reprs(rng.random(size) * 10.0 ** rng.integers(-30, 30, size))


class TestWriteCsv:
    def test_one_by_one_table(self, tmp_path):
        for rows in (np.array([[2.5e-7]]), [[2.5e-7]]):
            cli.write_csv(tmp_path / "x.csv", {"k": "v"}, ["x"], rows)
            assert (tmp_path / "x.csv").read_bytes() == b"# k: v\nx\n2.5e-07\n"

    def test_mixed_fields_keep_str(self, tmp_path):
        rows = [[1, True, None, "a", 0.1, np.float64(1e16), -0.0, float("nan")],
                [-3, False, 2**70, "", 1e-5, 7.0, float("-inf"), np.float32(0.1)], []]
        cli.write_csv(tmp_path / "x.csv", {}, list("abcdefgh"), rows)
        assert (tmp_path / "x.csv").read_bytes() == reference_csv({}, list("abcdefgh"), rows)

    @pytest.mark.parametrize("mode", ["equal-superposition", "random-complex"])
    def test_simulate_large_n_bytes(self, tmp_path, monkeypatch, mode):
        tables = []
        write_csv = cli.write_csv

        def spy(path, meta, columns, rows):
            tables.append((meta, columns, rows))
            write_csv(path, meta, columns, rows)

        monkeypatch.setattr(cli, "write_csv", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 1000\nd = 3\namplitude_mode = {mode}\nseed = 1001\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--dt", "4", "--tmax", "100",
                         "--with-z", "--with-entropy", "--out", str(out)]) == 0
        (meta, columns, rows), = tables
        z = rows[:, 2:-1]
        if mode == "equal-superposition":  # |z| underflows to 0 and to subnormals
            assert np.any(z == 0.0) and np.any((z > 0.0) & (z < TINY))
        expected = reference_csv(meta, columns, rows.tolist())
        assert (out / "trajectory.csv").read_bytes() == expected


def test_import_builds_no_tables():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import spindecoh.cli, spindecoh._floatrepr as f; "
            "assert f._tables.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def small_tables_then_simulate(out: Path):
    """Run in a fresh process: the small tables are written field by field,
    as the reference writer writes them, without building the formatter's
    tables; simulate's 2-D float table then builds them."""
    from spindecoh import _floatrepr

    tables = []
    write_csv = cli.write_csv

    def spy(path, meta, columns, rows):
        rows = [list(row) for row in rows]
        tables.append((path, meta, columns, rows))
        write_csv(path, meta, columns, rows)

    cli.write_csv = spy
    for argv in (["oracle-check", "--n", "4", "--times", "3"],
                 ["recurrence", "--n", "8", "--u", "2"],
                 ["ensemble", "--n", "4", "--u", "2"]):
        assert cli.main([*argv, "--out", str(out)]) == 0, argv
    assert len(tables) == 4
    for path, meta, columns, rows in tables:
        assert path.read_bytes() == reference_csv(meta, columns, rows), path
    assert _floatrepr._tables.cache_info().currsize == 0
    cli.write_csv = write_csv
    assert cli.main(["simulate", "--n", "4", "--tmax", "1", "--out", str(out)]) == 0
    assert _floatrepr._tables.cache_info().currsize == 1


def test_small_tables_build_no_tables(tmp_path):
    tests = Path(__file__).resolve().parent
    code = ("from pathlib import Path; import test_csv_floats as t; "
            f"t.small_tables_then_simulate(Path({str(tmp_path)!r}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                [str(tests.parent / "src"), str(tests)])})
    assert result.returncode == 0, result.stderr
