import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussfactor
from gaussfactor import cli, factorizer, nslit
from gaussfactor import gausssums as gs
from factor_reports import report_of

SPEC33 = gs.ContinuousSpec(1.0, 33.0)
W10 = gs.WeightProfile(10.0, 40)


def run_to_file(tmp_path, args, name):
    out = tmp_path / name
    rc = cli.main(args + ["--output", str(out)])
    return rc, out.read_bytes()


class TestScanCommand:
    def test_csv_schema(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["scan", "--n", "33", "--dm", "10", "--xi-min", "2", "--xi-max", "3", "--step", "0.01"],
            "scan.csv",
        )
        assert rc == 0
        text = data.decode()
        assert "\r" not in text and text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "xi,re,im,abs2"
        assert len(lines) == 1 + 101
        xi, re, im, abs2 = lines[1].split(",")
        assert float(xi) == 2.0
        v = gs.continuous_sum(2.0, gs.ContinuousSpec(1.0, 33.0), gs.WeightProfile(10.0, 40))
        assert float(re) == pytest.approx(v.real, abs=1e-11)
        assert abs(float(abs2) - abs(v) ** 2) < 1e-11

    def test_byte_identical_reruns(self, tmp_path):
        args = ["scan", "--n", "33", "--dm", "10", "--xi-min", "2", "--xi-max", "4", "--step", "0.01"]
        _, a = run_to_file(tmp_path, args, "a.csv")
        _, b = run_to_file(tmp_path, args + ["--workers", "4"], "b.csv")
        assert a == b

    def test_workers_flag(self, tmp_path):
        rc, _ = run_to_file(
            tmp_path,
            ["scan", "--n", "33", "--xi-min", "2", "--xi-max", "10", "--step", "0.01", "--workers", "3"],
            "w.csv",
        )
        assert rc == 0

    def test_json_format(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["scan", "--n", "9", "--xi-min", "2", "--xi-max", "3", "--step", "0.5",
             "--format", "json"],
            "scan.json",
        )
        assert rc == 0
        doc = json.loads(data)
        assert doc["n"] == 9 and doc["unit_c"] == 1.0
        assert [s["xi"] for s in doc["samples"]] == [2.0, 2.5, 3.0]
        assert all(abs(s["abs2"] - (s["re"] ** 2 + s["im"] ** 2)) < 1e-12 for s in doc["samples"])

    def test_missing_range_is_config_error(self, capsys):
        assert cli.main(["scan", "--n", "33"]) == 1
        assert "error" in capsys.readouterr().err


def joined_csv(xis, values) -> str:
    """The CSV text built whole, as the emitter did before it streamed."""
    lines = ["xi,re,im,abs2"]
    for x, v in zip(xis, values):
        lines.append(f"{x:.12g},{v.real:.12g},{v.imag:.12g},{abs(v) ** 2:.12g}")
    return "\n".join(lines) + "\n"


class TestCsvStreaming:
    SCAN = ["scan", "--n", "33", "--dm", "10", "--xi-min", "2", "--xi-max", "3", "--step", "0.01"]

    @pytest.mark.parametrize("block_rows", [1, 7, 101, 4096])
    def test_blocks_give_the_joined_bytes(self, tmp_path, capsys, monkeypatch, block_rows):
        series = factorizer.scan_series(SPEC33, W10, 2.0, 3.0, 0.01, n_label=33)
        expect = joined_csv(series.xis, series.values).encode()
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        rc, data = run_to_file(tmp_path, self.SCAN, "s.csv")
        assert rc == 0 and data == expect
        assert cli.main(self.SCAN) == 0
        assert capsys.readouterr().out.encode() == expect

    def test_empty_series_is_header_only(self):
        for blocks in ([(np.zeros(0), np.zeros(0, complex))], []):
            doc = cli._samples_doc(0, blocks)
            assert "".join(cli._csv_chunks(doc)) == joined_csv([], [])

    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_edge_values_give_the_f_string_bytes(self, monkeypatch, block_rows):
        # signed zeros, negative, ~1e6, tiny and huge xi, tiny and non-finite
        # parts; the last three values, from the N=1001 scan, print a different
        # 12th digit when |v|^2 is taken as a vectorized np.abs(values) ** 2
        xis = np.array([0.0, -0.0, -2.5, -1e6 - 0.37, 1e6 + 0.123, 987654.321, 5e-324,
                        1e300, -7.0, 104.336, 298.196, 301.364])
        values = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                           complex(math.inf, 1.0), -1.5e-300 + 2e-310j,
                           complex(math.nan, 0.25), 0.3 - 0.7j, 1.0 / 3.0 + 0j,
                           -0.123456789012345 + 9.87654321098765e-13j,
                           0.2755038366525746 - 0.14337390695716395j,
                           0.004677147680939389 + 0.0259181401611918j,
                           0.02057342196203753 - 0.12828256517634012j])
        expect = joined_csv(xis, values)
        assert expect.splitlines()[2] == "-0,-0,0,0"
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        # one block of whole columns, as arrays and as lists, which the
        # writer alone cuts into chunks of rows
        assert "".join(cli._csv_chunks(cli._samples_doc(0, [(xis, values)]))) == expect
        columns = [c.tolist() for c in (xis, values.real, values.imag, gs.abs2(values))]
        doc = {"n": 0, "samples": cli._Records(("xi", "re", "im", "abs2"), [columns])}
        assert "".join(cli._csv_chunks(doc)) == expect

    def test_reciprocate_csv_bytes(self, tmp_path):
        args = ["reciprocate", "--n", "1911", "--l-max", "60"]
        ls = np.arange(1, 61)
        values = np.array([gs.reciprocate_complete(1911, int(l)) for l in ls])
        rc, data = run_to_file(tmp_path, args, "r.csv")
        assert rc == 0 and data == joined_csv(ls.astype(float), values).encode()
        picks = np.array([gs.monte_carlo_sum(1911, int(l), min(10, int(l)), 3) for l in ls])
        rc, data = run_to_file(tmp_path, args + ["--samples", "10", "--seed", "3"], "m.csv")
        assert rc == 0 and data == joined_csv(ls.astype(float), picks).encode()

    def test_nslit_pattern_csv_bytes(self, tmp_path):
        xis = factorizer.uniform_grid(-2.0, 9.0, 0.01).points()
        c = nslit.NSlitConfig(15, 3)
        values = np.array([nslit.green_sum(float(x), c) for x in xis])
        argv = ["nslit", "--n", "15", "--l", "3", "--xi-min", "-2", "--xi-max", "9",
                "--step", "0.01"]
        rc, data = run_to_file(tmp_path, argv, "n.csv")
        assert rc == 0 and data == joined_csv(xis, values).encode()

    # SHA-256 of the pattern CSVs as written one green_sum call per point:
    # many points per block, a short last block, and one point per block
    @pytest.mark.parametrize("grid, digest", [
        (("15", "3", "-2", "9", "0.01"),
         "46aeb40b711419f13d39baee47966e95f745e15b2f641b05916e13cb30607542"),
        (("201", "7", "-3", "20", "0.003"),
         "3a4b22493357de6ef352d5a69dcefc498bc5aa1daba0f427287ed39ef4608742"),
        (("9001", "11", "0", "5", "0.01"),
         "ab256ca96fb06c818f2171a249c2c8796e21a1877c358aa3a7ecde08e6d5a098"),
    ])
    def test_nslit_pattern_csv_digests(self, tmp_path, grid, digest):
        n, l, lo, hi, step = grid
        argv = ["nslit", "--n", n, "--l", l, "--xi-min", lo, "--xi-max", hi, "--step", step]
        rc, data = run_to_file(tmp_path, argv, "n.csv")
        assert rc == 0 and hashlib.sha256(data).hexdigest() == digest

    def test_memory_does_not_hold_the_text(self, tmp_path):
        xis = np.linspace(2.0, 1000.0, 40_000)
        values = np.exp(1j * xis) * 0.3
        cfg = cli.RunConfig(command="scan", output_path=str(tmp_path / "big.csv"))
        tracemalloc.start()
        try:
            cli._emit(cfg, cli._samples_doc(0, [(xis, values)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").read_bytes() == joined_csv(xis, values).encode()
        # the whole text is about 1.9 MB, and building it whole held it
        # about three times over (line list, joined text, encoded bytes)
        assert peak < 2 * 2**20


def joined_json_series(series) -> str:
    """The scan JSON built whole, as the emitter did before it streamed."""
    doc = {
        "n": series.n_label,
        "unit_c": series.unit_c,
        "samples": [
            {"xi": float(x), "re": v.real, "im": v.imag, "abs2": abs(v) ** 2}
            for x, v in zip(series.xis, series.values)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# signed zeros, non-finite parts, tiny and huge values, and three N=1001 scan
# values (the ones whose vectorized |v|^2 differs from the per-sample one)
EDGE_XIS = np.array([0.0, -0.0, -2.5, -1e6 - 0.37, 1e6 + 0.123, 987654.321, 5e-324,
                     1e300, math.inf, 104.336, 298.196, 301.364])
EDGE_VALUES = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                        complex(math.inf, 1.0), complex(-math.inf, math.nan),
                        complex(math.nan, 0.25), 0.3 - 0.7j, 1.0 / 3.0 + 0j,
                        -0.123456789012345 + 9.87654321098765e-13j,
                        0.2755038366525746 - 0.14337390695716395j,
                        0.004677147680939389 + 0.0259181401611918j,
                        0.02057342196203753 - 0.12828256517634012j])


# the scalars of a JSON record column: the float extremes, ints past int64,
# and strings with quotes, escapes and non-ASCII text, as keys too
JSON_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(),
    st.floats().map(np.float64),
)
JSON_INTS = st.one_of(st.integers(), st.integers(2**63, 2**200), st.integers(-(2**200), -(2**63) - 1))
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x7fé€😀'), st.characters()))
JSON_SCALARS = [JSON_FLOATS, JSON_INTS, st.booleans(), st.none(), JSON_TEXT]


@st.composite
def record_columns(draw):
    """Distinct keys and one equal-length column per key, each column of one
    scalar kind or of mixed kinds."""
    keys = draw(st.lists(JSON_TEXT, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 40))
    kinds = JSON_SCALARS + [st.one_of(*JSON_SCALARS)]
    columns = [draw(st.lists(draw(st.sampled_from(kinds)), min_size=count, max_size=count))
               for _ in keys]
    return keys, columns


# a report whose float columns hold only NaN and the infinities
NONFINITE_REPORT = report_of(
    21, "nonfinite",
    [factorizer.Candidate(l, m, p, factorizer.Classification.GHOST)
     for l, m, p in ((2, math.nan, -math.inf), (3, math.inf, math.nan), (5, -math.inf, math.inf))],
    [3])


def as_array(column: list) -> np.ndarray:
    """The column as a command would hand it over: a float64, bool or int64
    array when every value fits one, else an object array."""
    kinds = set(map(type, column))
    if kinds <= {float, np.float64}:
        dtype = float
    elif kinds == {bool}:
        dtype = bool
    elif kinds == {int} and all(-(2**63) <= v < 2**63 for v in column):
        dtype = np.int64
    else:
        dtype = object
    return np.array(column, dtype=dtype)


class TestJsonStreaming:
    @settings(max_examples=300, deadline=None)
    @given(record_columns())
    def test_columns_give_the_json_dumps_bytes(self, case):
        keys, columns = case
        records = [dict(zip(keys, row)) for row in zip(*columns)]
        expect = json.dumps({"n": 7, "records": records, "after": [1.5, None]}, indent=2) + "\n"
        count = len(columns[0])

        def written(blocks):
            doc = {"n": 7, "records": cli._Records(tuple(keys), blocks), "after": [1.5, None]}
            return "".join(cli._json_chunks(doc))

        for size in (1, 2, 3, 256):  # blocks of `size` rows
            blocks = [tuple(c[s:s + size] for c in columns) for s in range(0, count, size)]
            assert written(blocks) == expect
        # one block of whole columns, as lists and as arrays, which the
        # writer alone cuts into chunks of rows
        for size in (1, 3, count + 1):
            with mock.patch.object(cli, "_JSON_BLOCK_RECORDS", size):
                assert written([columns]) == expect
                assert written([tuple(map(as_array, columns))]) == expect

    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_edge_values_give_the_json_dumps_bytes(self, monkeypatch, block_rows):
        series = SimpleNamespace(n_label=1001, unit_c=1.0, xis=EDGE_XIS, values=EDGE_VALUES)
        expect = joined_json_series(series)
        assert "NaN" in expect and "-Infinity" in expect and "-0.0" in expect
        monkeypatch.setattr(cli, "_JSON_BLOCK_RECORDS", block_rows)
        doc = cli._samples_doc(1001, [(EDGE_XIS, EDGE_VALUES)])
        assert "".join(cli._json_chunks(doc)) == expect

    @pytest.mark.parametrize("block_rows", [1, 7, 4096])
    def test_scan_json_bytes(self, tmp_path, capsys, monkeypatch, block_rows):
        argv = ["scan", "--n", "1001", "--dm", "4", "--xi-min", "2", "--xi-max", "6",
                "--step", "0.004", "--format", "json"]
        spec = gs.ContinuousSpec(1.0, 1001.0)
        series = factorizer.scan_series(spec, gs.WeightProfile(4.0, 16), 2.0, 6.0, 0.004,
                                        n_label=1001)
        expect = joined_json_series(series).encode()
        monkeypatch.setattr(cli, "_JSON_BLOCK_RECORDS", block_rows)
        rc, data = run_to_file(tmp_path, argv, "s.json")
        assert rc == 0 and data == expect
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == expect

    def test_empty_scan_json(self):
        series = SimpleNamespace(n_label=9, unit_c=1.0, xis=np.zeros(0), values=np.zeros(0, complex))
        for blocks in ([(series.xis, series.values)], []):
            doc = cli._samples_doc(9, blocks)
            assert "".join(cli._json_chunks(doc)) == joined_json_series(series)

    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    def test_reports_give_the_json_dumps_bytes(self, monkeypatch, block_rows):
        odd = factorizer.Candidate(4, math.nan, math.inf, factorizer.Classification.GHOST)
        reports = [
            factorizer.factor_reciprocate(1911, 60),
            factorizer.factor_truncated(777777, 40, 20),
            factorizer.factor_lines_discrete(42, gs.WeightProfile.for_width(2 * 42 / math.sqrt(8))),
            factorizer.factor_scan_even(2, W10),
            report_of(15, "made_up", [odd, odd._replace(l=3, measured=-0.0)], [3],
                      {"flag": True, "none": None, "neg": -math.inf}),
            NONFINITE_REPORT,
        ]
        monkeypatch.setattr(cli, "_JSON_BLOCK_RECORDS", block_rows)
        for report in reports:
            expect = json.dumps(report.to_json_dict(), indent=2) + "\n"
            assert "".join(cli._json_chunks(cli._report_doc(report))) == expect

    def test_reciprocate_json_bytes(self, tmp_path):
        ls = np.arange(1, 61)
        values = np.array([gs.reciprocate_complete(1911, int(l)) for l in ls])
        doc = {"n": 1911, "samples": [{"l": int(l), "re": v.real, "im": v.imag, "abs": abs(v)}
                                      for l, v in zip(ls, values)]}
        rc, data = run_to_file(
            tmp_path, ["reciprocate", "--n", "1911", "--l-max", "60", "--format", "json"], "r.json"
        )
        assert rc == 0 and data == (json.dumps(doc, indent=2) + "\n").encode()

    def test_memory_does_not_hold_the_text(self, tmp_path):
        xis = np.linspace(2.0, 1000.0, 40_000)
        series = SimpleNamespace(n_label=1001, unit_c=1.0, xis=xis, values=np.exp(1j * xis) * 0.3)
        cfg = cli.RunConfig(command="scan", output_path=str(tmp_path / "big.json"), format="json")
        tracemalloc.start()
        try:
            cli._emit(cfg, cli._samples_doc(1001, [(xis, series.values)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = (tmp_path / "big.json").read_bytes()
        assert data == joined_json_series(series).encode()
        # the text is about 5 MB, and building the document whole peaked
        # near 47 MB
        assert len(data) > 4.5 * 2**20 and peak < 2**20


SPEC1001 = gs.ContinuousSpec(1.0, 1001.0)
W4 = gs.WeightProfile(4.0, 16)

# SHA-256 of the 249,501-row N=1001 scan (--dm 4, step 0.004) in JSON, as
# written by the emitter that held the whole series
N1001_JSON_SHA256 = "75dec685e1d5bd8464c1ed76cb79e0a1ef9f188baa7c99f92770b01b6fcef552"


@pytest.fixture(scope="module")
def whole_series():
    """Per row count: the scan's argv, and its CSV and JSON formatted from
    one continuous_sum_grid call over the whole grid (the JSON only below
    the 249,501-row grid, whose json.dumps text would take hundreds of MB)."""
    cache = {}

    def get(count):
        if count not in cache:
            hi = 1000.0 if count == 249_501 else 2.001 + 0.004 * (count - 1)
            xis = factorizer.uniform_grid(2.0, hi, 0.004).points()
            assert len(xis) == count
            values = gs.continuous_sum_grid(xis, SPEC1001, W4)
            argv = ["scan", "--n", "1001", "--dm", "4", "--xi-min", "2", "--xi-max", repr(hi),
                    "--step", "0.004"]
            series = SimpleNamespace(n_label=1001, unit_c=1.0, xis=xis, values=values)
            json_text = joined_json_series(series).encode() if count < 100_000 else None
            cache[count] = argv, joined_csv(xis, values).encode(), json_text
        return cache[count]

    return get


# A grid from 2^53 - 100,000 by 1: past 2^53 neighbouring points round to
# the same float, first at index 100,000, blocks after the first.
LATE_REPEAT_GRID = ["--xi-min", "9007199254640992", "--xi-max", "9007199254840992",
                    "--step", "1"]
LATE_REPEAT_SCAN = ["scan", "--n", "33", "--dm", "2", *LATE_REPEAT_GRID]


class TestStreamedScan:
    """scan writes each block of rows as it is evaluated; its bytes must be
    those of formatting the whole series at once, for any pool size and
    on both sides of a block boundary."""

    @pytest.mark.parametrize("count", [1, factorizer._SCAN_BLOCK_ROWS - 1,
                                       factorizer._SCAN_BLOCK_ROWS + 1, 249_501])
    @pytest.mark.parametrize("workers", ["1", "2", "3", None])
    def test_bytes_equal_whole_series_formatting(self, count, workers, whole_series,
                                                 tmp_path, capsys, monkeypatch):
        argv, csv_text, json_text = whole_series(count)
        if workers is None:  # one thread per CPU of a faked 4-CPU affinity set
            monkeypatch.setattr(factorizer.os, "sched_getaffinity", lambda pid: set(range(4)),
                                raising=False)
            monkeypatch.setattr(factorizer, "_PROC_CGROUP", tmp_path / "no-such-cgroup")
        else:
            argv = argv + ["--workers", workers]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == csv_text
        rc, data = run_to_file(tmp_path, argv, "s.csv")
        assert rc == 0 and data == csv_text
        rc, data = run_to_file(tmp_path, argv + ["--format", "json"], "s.json")
        assert rc == 0
        if json_text is None:
            assert hashlib.sha256(data).hexdigest() == N1001_JSON_SHA256
        else:
            assert data == json_text

    @pytest.mark.parametrize("argv", [
        ["scan", "--n", "33", "--xi-min", "1e18", "--xi-max", "1.000000000000001e18",
         "--step", "1"],
        LATE_REPEAT_SCAN,
        ["scan", "--n", "33", "--xi-min", "2", "--xi-max", "3", "--dm", "1e154"],
        ["scan", "--n", "33", "--xi-min", "2", "--xi-max", "3", "--dm", "1e16"],
        ["scan", "--n", "33", "--xi-min", "2", "--xi-max", "3", "--dm", "-1"],
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_error_exits_write_nothing(self, argv, fmt, tmp_path, capsys):
        self.assert_nothing_written([*argv, "--format", fmt], tmp_path, capsys)

    @pytest.mark.parametrize("grid", [
        # at 1e18 a step of 1 repeats every point
        ["--xi-min", "1e18", "--xi-max", "1.000000000000001e18", "--step", "1"],
        LATE_REPEAT_GRID,
    ])
    def test_repeated_pattern_grid_writes_nothing(self, grid, tmp_path, capsys):
        # the nslit pattern's grid is a uniform_grid too
        argv = ["nslit", "--n", "15", "--l", "3", *grid]
        err = self.assert_nothing_written(argv, tmp_path, capsys)
        assert "xi grid must be strictly increasing" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_evaluation_error_writes_nothing(self, fmt, tmp_path, capsys, monkeypatch):
        def short_longdouble(*args):
            raise gs.PrecisionError("real-argument sums need an 80-bit longdouble")

        monkeypatch.setattr(gs, "_real_sums", short_longdouble)
        argv = ["scan", "--n", "33", "--xi-min", "2", "--xi-max", "3", "--format", fmt]
        err = self.assert_nothing_written(argv, tmp_path, capsys)
        assert "80-bit" in err

    @staticmethod
    def assert_nothing_written(argv, tmp_path, capsys) -> str:
        """argv exits 1 with one error line, writing nothing to stdout and
        making no --output file (nor its folder)."""
        target = tmp_path / "out" / "scan.txt"
        for extra in ([], ["--output", str(target)]):
            rc = cli.main([*argv, *extra])
            captured = capsys.readouterr()
            assert_one_error_line(rc, captured.out, captured.err)
        assert not (tmp_path / "out").exists()
        return captured.err

    @pytest.mark.parametrize("emit", [
        lambda blocks: cli._csv_chunks(cli._samples_doc(9, blocks)),
        lambda blocks: cli._json_chunks(cli._samples_doc(9, blocks)),
    ], ids=["csv", "json"])
    def test_no_block_outlives_its_last_row(self, emit):
        # each block is made only once every earlier one has been released
        refs = []

        def block(start):
            assert all(ref() is None for ref in refs)
            xis = np.arange(start, start + 3000, dtype=float)
            values = np.exp(1j * xis)
            refs.extend(map(weakref.ref, (xis, values)))
            return xis, values

        assert sum(map(len, emit(map(block, range(0, 9000, 3000))))) > 9000 * 20

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
    def test_memory_bounded_on_a_million_rows(self):
        # The 998,001-row scan held its whole series (values, an index split,
        # a concatenated copy and ScanSeries' np.diff): its peak rose 66 MB
        # above the post-import level.  Streamed over a whole-array grid it
        # rose about 15.3 MB against 8.9 MB at 249,501 rows; with the grid
        # made a block at a time both rise about 6.5 MB, so the rise no
        # longer grows with the grid.
        base = ["scan", "--n", "1001", "--dm", "4", "--xi-min", "2", "--xi-max", "1000"]
        quarter = fresh_hwm_rise_kb([*base, "--step", "0.004"])  # 249,501 rows
        whole = fresh_hwm_rise_kb([*base, "--step", "0.001"])  # 998,001 rows
        assert whole <= 10 * 1024
        assert abs(whole - quarter) <= 2 * 1024

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
    def test_pattern_memory_bounded_on_a_million_points(self):
        # evaluated whole before its first row, this 1,000,001-point pattern
        # rose about 24.8 MB above the post-import level; streamed, about 3.5 MB
        rise = fresh_hwm_rise_kb(["nslit", "--n", "15", "--l", "3", "--xi-max", "1000",
                                  "--step", "0.001"])
        assert rise <= 10 * 1024

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
    def test_factor_scan_memory_grows_only_with_its_candidates(self):
        # Gathered whole, the N=9001 scan (900,001 points) rose 20.7 MB more
        # than the N=3001 one; classified block by block it rises 1.1-1.8 MB
        # more.  Only the classification of its N - 2 candidates grows with
        # N, so the bound is the tracemalloc peak of report_from_series alone
        # on a two-points-a-unit series of the same N: about 2.63 MB, nearly
        # all the classifier's temporaries, while the report it returns holds
        # about 0.235 MB (test_factor_report_holds_only_its_columns).
        small = fresh_hwm_rise_kb(["factor", "--n", "3001", "--dm", "4"])
        large = fresh_hwm_rise_kb(["factor", "--n", "9001", "--dm", "4"])
        xis = np.arange(0.0, 9002.0, 0.5)
        values = np.random.default_rng(1).random(len(xis)) + 0j
        series = factorizer.ScanSeries(1.0, xis, values, 9001)
        tracemalloc.start()
        try:
            report = factorizer.report_from_series(series, "continuous_odd")
            _, classify_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.ls) == 8999
        assert (large - small) * 1024 <= classify_peak

    def test_factor_report_holds_only_its_columns(self):
        # The report of 8,999 candidates held 1.52 MB (168 bytes each) as
        # Candidate tuples; as its columns (three 8-byte values and a 1-byte
        # class code each) it holds about 26 bytes each
        xis = np.arange(0.0, 9002.0, 0.5)
        values = np.random.default_rng(1).random(len(xis)) + 0j
        series = factorizer.ScanSeries(1.0, xis, values, 9001)
        tracemalloc.start()
        try:
            report = factorizer.report_from_series(series, "continuous_odd")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.ls) == 8999
        assert held <= 40 * 8999


def fresh_hwm_rise_kb(argv: list[str]) -> int:
    """How far one cli.main(argv) run, written to /dev/null, raises the peak
    RSS (VmHWM) above its post-import level, in KB.  A fresh interpreter
    keeps earlier tests' memory out of the high-water mark."""
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from gaussfactor import cli\n"
        "def hwm_kb():\n"
        "    for line in Path('/proc/self/status').read_text().splitlines():\n"
        "        if line.startswith('VmHWM:'):\n"
        "            return int(line.split()[1])\n"
        "before = hwm_kb()\n"
        "rc = cli.main(sys.argv[1:] + ['--output', '/dev/null'])\n"
        "print(rc, hwm_kb() - before)\n"
    )
    src = os.path.dirname(os.path.dirname(gs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop(cli.OUTDIR_ENV, None)
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True)
    rc, rise_kb = map(int, run.stdout.split())
    assert rc == 0
    return rise_kb


def joined_report_csv(report) -> str:
    """The CSV report built whole, one f-string per candidate, as the emitter
    did before it formatted blocks of columns."""
    lines = ["l,measured,predicted,class"]
    for c in sorted(report.candidates):
        lines.append(f"{c.l},{c.measured:.12g},{c.predicted:.12g},{c.classification.value}")
    return "\n".join(lines) + "\n"


class TestReportCsv:
    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    @pytest.mark.parametrize("argv, report", [
        (["--n", "33", "--scheme", "continuous"],
         lambda: factorizer.factor_scan_continuous(33, W10)),
        (["--n", "34", "--scheme", "even"], lambda: factorizer.factor_scan_even(34, W10)),
        (["--n", "39", "--scheme", "lines", "--dm", "28"],
         lambda: factorizer.factor_lines_discrete(39, gs.WeightProfile(28.0, 112))),
        (["--n", "1911", "--scheme", "reciprocate", "--l-max", "60"],
         lambda: factorizer.factor_reciprocate(1911, 60)),
        (["--n", "777777", "--scheme", "truncated", "--m-terms", "20", "--l-max", "40"],
         lambda: factorizer.factor_truncated(777777, 40, 20)),
    ], ids=["continuous", "even", "lines", "reciprocate", "truncated"])
    def test_scheme_reports_give_the_f_string_bytes(self, tmp_path, monkeypatch, block_rows,
                                                    argv, report):
        expect = joined_report_csv(report())
        assert expect.count("\n") > 5
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        rc, data = run_to_file(tmp_path, ["factor"] + argv, "rep.csv")
        assert rc == 0 and data == expect.encode()

    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    def test_edge_values_give_the_f_string_bytes(self, monkeypatch, block_rows):
        odd = factorizer.Candidate(4, math.nan, math.inf, factorizer.Classification.GHOST)
        reports = [
            report_of(15, "made_up", [odd, odd._replace(l=3, measured=-0.0),
                                      odd._replace(l=5, predicted=5e-324),
                                      odd._replace(l=2, measured=-math.inf)], [3]),
            report_of(15, "empty", [], []),
            NONFINITE_REPORT,
        ]
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        for report in reports:
            doc = cli._report_doc(report)
            assert "".join(cli._csv_chunks(doc)) == joined_report_csv(report)


class TestFactorCommand:
    def test_reciprocate_json(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["factor", "--n", "1911", "--scheme", "reciprocate", "--l-max", "100", "--format", "json"],
            "rep.json",
        )
        assert rc == 0
        doc = json.loads(data)
        assert doc["factors"] == [3, 7, 13, 21, 39, 49, 91]
        assert list(doc) == ["n", "scheme", "params", "candidates", "factors"]
        ls = [c["l"] for c in doc["candidates"]]
        assert ls == sorted(ls)

    def test_continuous_scheme(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["factor", "--n", "33", "--scheme", "continuous", "--format", "json"],
            "c.json",
        )
        assert rc == 0
        assert json.loads(data)["factors"] == [3, 11]

    def test_csv_report_format(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["factor", "--n", "15", "--scheme", "reciprocate", "--l-max", "5"],
            "rep.csv",
        )
        assert rc == 0
        lines = data.decode().splitlines()
        assert lines[0] == "l,measured,predicted,class"
        assert lines[3].startswith("3,1,1,factor")
        assert len(lines) == 6

    def test_lines_command(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["factor", "--n", "39", "--scheme", "lines", "--dm", "28", "--format", "json"],
            "lines.json",
        )
        assert rc == 0
        assert set(json.loads(data)["factors"]) == {3, 13}

    def test_even_n_wrong_scheme_fails_cleanly(self, capsys):
        assert cli.main(["factor", "--n", "30", "--scheme", "continuous"]) == 1
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["factor", "--n", "33", "--dm", "1e-160"],
        ["scan", "--n", "33", "--xi-min", "1e18", "--xi-max", "1.000000000000001e18",
         "--step", "128"],
    ])
    def test_no_numpy_warning_reaches_stderr(self, capsys, argv):
        # a weight width whose (mu / dm)^2 overflows, and phases past 2^63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 0 and out and err == ""

    def test_unknown_scheme_rejected(self):
        # argparse choices violation surfaces through ConfigError -> exit 1
        assert cli.main(["factor", "--n", "33", "--scheme", "bogus"]) == 1


class TestReciprocateCommand:
    def test_csv_series(self, tmp_path):
        rc, data = run_to_file(
            tmp_path, ["reciprocate", "--n", "1911", "--l-max", "30"], "r.csv"
        )
        assert rc == 0
        lines = data.decode().splitlines()
        assert lines[0] == "xi,re,im,abs2"
        assert len(lines) == 31
        row21 = lines[21].split(",")
        assert float(row21[0]) == 21.0
        assert abs(float(row21[3]) - 1.0) < 1e-9

    def test_monte_carlo_seeded_deterministic(self, tmp_path):
        args = ["reciprocate", "--n", "1911", "--l-max", "40", "--samples", "10", "--seed", "3"]
        _, a = run_to_file(tmp_path, args, "m1.csv")
        _, b = run_to_file(tmp_path, args, "m2.csv")
        assert a == b
        _, c = run_to_file(tmp_path, args[:-1] + ["4"], "m3.csv")
        assert a != c


class TestNslitCommand:
    def test_pattern_csv(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["nslit", "--n", "15", "--l", "3", "--xi-min", "0", "--xi-max", "3", "--step", "0.25"],
            "n.csv",
        )
        assert rc == 0
        lines = data.decode().splitlines()
        assert lines[0] == "xi,re,im,abs2"
        assert len(lines) == 14

    def test_sweep_json(self, tmp_path):
        rc, data = run_to_file(tmp_path, ["nslit", "--n", "15", "--l-max", "7"], "n.json")
        assert rc == 0
        doc = json.loads(data)
        assert doc["factors"] == [3, 5]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_is_json_whatever_the_format(self, tmp_path, fmt):
        rows = nslit.nslit_factor_test(15, 7)
        doc = {"n": 15,
               "rows": [{"l": r.l, "flag": r.is_factor_flag, "spread": r.relative_spread,
                         "divides": r.divides} for r in rows],
               "factors": [3, 5]}
        out = tmp_path / "n.out"
        cfg = cli.RunConfig("nslit", n_target=15, l_max=7, format=fmt, output_path=str(out))
        assert cli.run(cfg) == 0
        assert out.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


class TestGhostCommand:
    def test_json(self, tmp_path):
        rc, data = run_to_file(
            tmp_path,
            ["ghost", "--n", "100001", "--m-terms", "10", "--threshold", "0.7"],
            "g.json",
        )
        assert rc == 0
        doc = json.loads(data)
        assert doc["count"] == len(doc["ghosts"]) > 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_json_whatever_the_format(self, tmp_path, fmt):
        census = factorizer.ghost_census(100001, 10, 0.7, 2, 316)
        doc = {"n": 100001, "m_terms": 10, "threshold": 0.7, "ghosts": census.ghosts,
               "count": census.count}
        out = tmp_path / "g.out"
        cfg = cli.RunConfig("ghost", n_target=100001, m_terms=10, threshold=0.7, format=fmt,
                            output_path=str(out))
        assert cli.run(cfg) == 0
        assert out.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert cli.main(["verify", "--suite", "decomposition"]) == 0
        out = capsys.readouterr().out
        assert "decomposition" in out and "PASS" in out

    def test_unknown_suite_rejected(self):
        assert cli.main(["verify", "--suite", "nonsense"]) == 1

    def test_failed_suite_exits_2(self, capsys, monkeypatch):
        from gaussfactor import verify

        def broken():
            return verify.SuiteResult("decomposition", False, "forced failure", 0.0)

        monkeypatch.setitem(verify.SUITES, "decomposition", broken)
        assert cli.main(["verify", "--suite", "decomposition"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestRunConfigApi:
    def test_programmatic_run(self, tmp_path):
        out = tmp_path / "direct.csv"
        cfg = cli.RunConfig(
            command="scan",
            n_target=9,
            xi_min=2.0,
            xi_max=3.0,
            step=0.5,
            output_path=str(out),
        )
        assert cli.run(cfg) == 0
        assert out.read_text().splitlines()[0] == "xi,re,im,abs2"

    def test_unknown_command_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.run(cli.RunConfig(command="bogus"))


class TestParserCache:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_error_exits_leave_the_parser_unchanged(self, monkeypatch, capsys):
        argv = ["reciprocate", "--n", "15", "--format", "json"]
        bad = (["factor", "--n", "x"], ["scan", "--bogus"],
               ["factor", "--n", "15", "--scheme", "nope"], ["factor", "--n", "33", "--dm", "nan"])
        for argv_bad in bad:
            assert cli.main(argv_bad) == 1
        capsys.readouterr()
        assert cli.main(argv) == 0
        cached = capsys.readouterr()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.main(argv) == 0
        assert capsys.readouterr() == cached


class TestOutputDirEnv:
    def test_relative_path_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        rc = cli.main(
            ["scan", "--n", "9", "--xi-min", "2", "--xi-max", "3", "--step", "0.5",
             "--output", "sub/out.csv"]
        )
        assert rc == 0
        assert (tmp_path / "sub" / "out.csv").exists()

    def test_stdout_when_no_output(self, capsys):
        rc = cli.main(["scan", "--n", "9", "--xi-min", "2", "--xi-max", "2.5", "--step", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("xi,re,im,abs2\n")


class TestInputContracts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ghost", "--n", "0", "--m-terms", "3"],
            ["reciprocate", "--n", "0"],
            ["factor", "--n", "0", "--scheme", "reciprocate"],
            ["factor", "--n", "-5", "--scheme", "reciprocate"],
            ["factor", "--n", "-5", "--scheme", "truncated", "--m-terms", "3"],
            ["nslit", "--n", "-5"],
            ["ghost", "--n", "-5", "--m-terms", "3"],
            ["reciprocate", "--n", "-3"],
        ],
    )
    def test_n_must_be_positive(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--scheme", "reciprocate"],
            ["factor", "--scheme", "truncated", "--m-terms", "3"],
            ["reciprocate"],
            ["nslit"],
            ["ghost", "--m-terms", "3"],
        ],
    )
    def test_explicit_l_max_below_one_rejected(self, argv, capsys):
        assert cli.main(argv + ["--n", "15", "--l-max", "0"]) == 1
        assert "--l-max" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["reciprocate", "--n", "33", "--samples", "0"], "--samples must be >= 1"),
        (["nslit", "--n", "15", "--l", "0", "--xi-max", "3"], "--l must be >= 1"),
        (["factor", "--n", "33", "--scheme", "truncated", "--m-terms", "0"],
         "--m-terms must be >= 1"),
        (["factor", "--n", "33", "--scheme", "truncated", "--m-terms", "5", "--l-max", "1"],
         "--l-max must be >= 2"),
        (["factor", "--n", "3", "--scheme", "truncated", "--m-terms", "5"],
         "--l-max must be >= 2, and its default isqrt(--n) is 1"),
        (["ghost", "--n", "33", "--m-terms", "0"], "--m-terms must be >= 1"),
        (["ghost", "--n", "33", "--m-terms", "3", "--l-min", "0"], "--l-min must be >= 1"),
    ])
    def test_counts_below_their_least_value_name_the_flag(self, argv, flag, capsys):
        # each used to exit 1 naming an internal parameter (sample_count,
        # l_talbot, l_max, m_terms, l_min)
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        assert flag in captured.err

    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_nslit_pattern_step_must_be_positive(self, step, capsys):
        argv = ["nslit", "--n", "15", "--l", "3", "--xi-min", "0", "--xi-max", "3", "--step", step]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: --step must be finite and positive\n"

    @pytest.mark.parametrize("argv, err", [
        (["scan", "--n", "33", "--xi-min", "-inf", "--xi-max", "3"],
         "error: --xi-min must be finite\n"),
        (["nslit", "--n", "15", "--l", "3", "--xi-min", "-inf", "--xi-max", "3"],
         "error: --xi-min must be finite\n"),
        (["factor", "--n", "33", "--dm", "-1e5"], "error: --dm must be finite and positive\n"),
        (["scan", "--n", "33", "--xi-max", "3", "--dm", "-1e-3"],
         "error: --dm must be finite and positive\n"),
        (["factor", "--n", "30", "--scheme", "even", "--zero-factor", "-1e-3"],
         "error: --zero-factor must be finite and positive\n"),
        (["scan", "--n", "33", "--xi-max", "3", "--step", "-1E-3"],
         "error: --step must be finite and positive\n"),
    ])
    def test_negative_values_in_exponent_form_reach_their_check(self, argv, err, capsys):
        # argparse took -1e5, -1e-3 and -inf for flags: "expected one argument"
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", err)

    def test_negative_grid_bounds_in_exponent_form(self, capsys):
        argv = ["scan", "--n", "33", "--dm", "2", "--xi-max", "-99999"]
        assert cli.main([*argv, "--xi-min", "-1e5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("xi,re,im,abs2\n-100000,") and len(out.splitlines()) == 102
        assert cli.main([*argv, "--xi-min=-1e5"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--n", "33", "--workers", "2"],
            ["factor", "--n", "33", "--l-min", "3"],
            ["factor", "--n", "33", "--xi-min", "1"],
            ["factor", "--n", "33", "--xi-max", "5"],
            ["reciprocate", "--n", "15", "--l-min", "2"],
            ["nslit", "--n", "15", "--l-min", "2"],
            ["nslit", "--n", "15", "--workers", "2"],
            ["nslit", "--n", "15", "--format", "json"],
            ["ghost", "--n", "15", "--m-terms", "3", "--format", "json"],
            ["lines", "--n", "39"],
        ],
    )
    def test_removed_flags_and_commands_rejected(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("l_min", ["0", "-3"])
    def test_ghost_l_min_below_one_rejected(self, l_min, capsys):
        assert cli.main(["ghost", "--n", "15", "--m-terms", "3", "--l-min", l_min]) == 1
        err = capsys.readouterr().err
        assert "--l-min" in err and "Traceback" not in err

    @pytest.mark.parametrize("threshold", ["0", "1", "-0.5", "1.5", "nan"])
    def test_truncated_threshold_outside_unit_interval_rejected(self, threshold, capsys):
        argv = ["factor", "--n", "15", "--scheme", "truncated", "--m-terms", "3",
                "--threshold", threshold]
        assert cli.main(argv) == 1
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_scan_workers_below_one_rejected(self, workers, capsys):
        argv = ["scan", "--n", "33", "--xi-min", "2", "--xi-max", "10", "--workers", workers]
        assert cli.main(argv) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "factor", "reciprocate", "nslit", "ghost", "verify"])
    def test_workers_below_one_rejected_for_every_command(self, command):
        cfg = cli.RunConfig(command=command, n_target=33, m_terms=3, workers=0, format="json",
                            xi_min=2.0, xi_max=3.0)
        with pytest.raises(cli.ConfigError, match="workers must be >= 1"):
            cli.run(cfg)

    def test_short_longdouble_exits_cleanly(self, monkeypatch, capsys):
        monkeypatch.setattr(gs, "_LONGDOUBLE_NMANT", 52)
        assert cli.main(["scan", "--n", "33", "--xi-min", "2", "--xi-max", "3"]) == 1
        assert "80-bit" in capsys.readouterr().err
        assert cli.main(["factor", "--n", "15", "--scheme", "reciprocate"]) == 0
        assert cli.main(["ghost", "--n", "15", "--m-terms", "3"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--n", "33", "--dm", "inf", "--xi-min", "2", "--xi-max", "3"],
            ["scan", "--n", "33", "--dm", "nan", "--xi-min", "2", "--xi-max", "3"],
            ["factor", "--n", "33", "--dm", "inf"],
            ["factor", "--n", "33", "--dm", "nan"],
            ["factor", "--n", "33", "--scheme", "lines", "--dm", "inf", "--m-terms", "5"],
        ],
    )
    def test_non_finite_dm_rejected(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dm must be finite and positive\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--scheme", "lines", "--n", "10", "--dm", "1e-300"],
            ["factor", "--n", "33", "--dm", "1e-300"],
            ["factor", "--n", "30", "--scheme", "even", "--dm", "2e-170"],
            ["scan", "--n", "33", "--dm", "1e-300", "--xi-min", "0", "--xi-max", "1"],
        ],
    )
    def test_dm_whose_square_underflows_rejected(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        dm = argv[argv.index("--dm") + 1]
        assert captured.err == (
            f"error: --dm {float(dm)!r} is too small: its square underflows to 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--peak-factor", ["factor", "--n", "33"]),
            ("--peak-factor", ["factor", "--n", "30", "--scheme", "even"]),
            ("--zero-factor", ["factor", "--n", "30", "--scheme", "even"]),
        ],
    )
    def test_factor_flags_must_be_finite_and_positive(self, flag, argv, value, capsys):
        assert cli.main([*argv, f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be finite and positive\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1", "2"])
    def test_spread_threshold_must_lie_in_unit_interval(self, value, capsys):
        # a relative spread lies in [0, 1]: a threshold of 1 or more flagged
        # every l, with exit 0
        assert cli.main(["nslit", "--n", "33", f"--spread-threshold={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --spread-threshold must lie in (0, 1)\n"

    def test_factor_flags_small_positive_values_accepted(self, capsys):
        assert cli.main(["factor", "--n", "33", "--peak-factor", "1e-300"]) == 0
        assert cli.main(["nslit", "--n", "33", "--spread-threshold", "1e-300"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("params", [["--b", "nan"], ["--b", "nan", "--n", "33"],
                                        ["--a", "nan", "--n", "33"], ["--b", "inf"],
                                        ["--b", "inf", "--n", "33"], ["--a", "inf", "--n", "33"]])
    def test_nan_scan_parameters_rejected(self, params, capsys):
        # infinite A or B too: labelling a scan by round(inf) used to raise
        assert cli.main(["scan", *params, "--xi-min", "2", "--xi-max", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {params[0]} must be finite and positive\n"

    @pytest.mark.parametrize("argv, err", [
        (["factor", "--n", "2"], "--scheme continuous needs an odd --n; "
                                 "--scheme even takes an even --n"),
        (["factor", "--n", "1"], "--scheme continuous needs --n >= 3"),
        (["factor", "--scheme", "even", "--n", "35"], "--scheme even needs an even --n"),
        (["factor", "--scheme", "reciprocate", "--n", "34"],
         "--scheme reciprocate needs an odd --n"),
        (["nslit", "--n", "4", "--l-max", "2"], "the nslit factor sweep needs an odd --n"),
        (["factor", "--n", "15", "--scheme", "truncated", "--m-terms", "3", "--threshold", "1.5"],
         "--threshold must lie in (0, 1)"),
        (["ghost", "--n", "15", "--m-terms", "3", "--threshold", "0"],
         "--threshold must lie in (0, 1)"),
        (["scan", "--n", "33", "--xi-max", "3", "--step", "0"],
         "--step must be finite and positive"),
        (["factor", "--n", "33", "--step", "-1"], "--step must be finite and positive"),
        (["scan", "--n", "33", "--xi-max", "3", "--a", "0"], "--a must be finite and positive"),
        (["scan", "--b", "-2", "--xi-max", "3"], "--b must be finite and positive"),
        (["scan", "--n", "1" + "0" * 400, "--xi-max", "3"],
         "--n must be below 1.8e308 for a continuous sum"),
        (["factor", "--n", "1" + "0" * 400 + "1"], "--n must be below 1.8e308 for a continuous sum"),
        (["factor", "--n", "1" + "0" * 400, "--scheme", "even"],
         "--n must be below 1.8e308 for a continuous sum"),
        (["scan", "--n", "33", "--xi-max", "3", "--workers", "0"], "--workers must be >= 1"),
        (["factor", "--n", "33", "--dm", "1e200"],
         "--dm 1e+200 is too large: its square overflows to inf"),
        (["factor", "--n", "33", "--dm", "1e-300"],
         "--dm 1e-300 is too small: its square underflows to 0"),
        (["factor", "--n", "33", "--step", "5e-324"],
         "too many grid points: --step 5e-324 over the scan range of --n 33 makes inf points, "
         "which do not fit in memory"),
        (["scan", "--n", "33", "--xi-max", "3", "--step", "5e-324"],
         "too many grid points: --step 5e-324 over --xi-min 0.0 to --xi-max 3.0 makes inf "
         "points, which do not fit in memory"),
        (["scan", "--n", "33", "--xi-min", "nan", "--xi-max", "3"], "--xi-min must be finite"),
        (["scan", "--n", "33", "--xi-max", "nan"], "--xi-max must be finite"),
        (["scan", "--n", "33", "--xi-max", "3", "--step", "nan"],
         "--step must be finite and positive"),
        (["factor", "--n", "33", "--scheme", "truncated", "--m-terms", "9" * 20],
         "too many terms: --m-terms must be at most 5.76e+17"),
        (["factor", "--n", "33", "--scheme", "truncated", "--m-terms", "10000000000000"],
         "too many terms: --m-terms = 1e+13 terms do not fit in memory"),
        (["ghost", "--n", "33", "--m-terms", "9" * 20],
         "too many terms: --m-terms must be at most 5.76e+17"),
        (["ghost", "--n", "33", "--m-terms", "10000000000000"],
         "too many terms: --m-terms = 1e+13 terms do not fit in memory"),
        (["nslit", "--n", "33", "--spread-threshold", "2"],
         "--spread-threshold must lie in (0, 1)"),
        (["ghost", "--n", "33", "--m-terms", "3", "--l-min", "9", "--l-max", "3"],
         "--l-max must be >= --l-min 9"),
        (["ghost", "--n", "50", "--m-terms", "3", "--l-min", "10"],
         "--l-max must be >= --l-min 10, and its default isqrt(--n) is 7"),
        (["reciprocate", "--n", "15", "--samples", "99", "--l-max", "5", "--format", "json"],
         "--samples 99 must be below --l-max 5: every sum would be complete"),
        (["reciprocate", "--n", "15", "--samples", "5", "--l-max", "5"],
         "--samples 5 must be below --l-max 5: every sum would be complete"),
        (["reciprocate", "--n", "15", "--samples", "3"],
         "--samples 3 must be below --l-max, whose default isqrt(--n) is 3: every sum would "
         "be complete"),
        (["scan", "--n", "33", "--xi-min", "1e18", "--xi-max", "1.000000000000001e18",
          "--step", "1"],
         "xi grid must be strictly increasing: --step 1.0 over --xi-min 1e+18 to --xi-max "
         "1.000000000000001e+18 is below the spacing of floats near its points"),
        (LATE_REPEAT_SCAN,
         "xi grid must be strictly increasing: --step 1.0 over --xi-min 9007199254640992.0 to "
         "--xi-max 9007199254840992.0 is below the spacing of floats near its points"),
        (["nslit", "--n", "15", "--l", "3", *LATE_REPEAT_GRID],
         "xi grid must be strictly increasing: --step 1.0 over --xi-min 9007199254640992.0 to "
         "--xi-max 9007199254840992.0 is below the spacing of floats near its points"),
        (["factor", "--scheme", "reciprocate"], "the following arguments are required: --n"),
        (["ghost", "--n", "33"], "the following arguments are required: --m-terms"),
    ])
    def test_library_rejections_name_their_flag(self, argv, err, capsys):
        # each used to reach the CLI as the library's message, which names
        # N, A, B, step, threshold, delta_m or workers but no flag (the three
        # --n cases leaked an OverflowError), or as NumPy's own message
        # (--m-terms), or was accepted with exit 0 (--spread-threshold 2, an
        # --l-max below --l-min, which gave an empty census, and a --samples
        # at or above --l-max, which wrote the complete sums)
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # 7 and 2 PiB grids: past the address space, so refused at once
            ["scan", "--n", "33", "--xi-min", "0", "--xi-max", "1e15", "--step", "1"],
            ["factor", "--n", "33", "--step", "1e-13"],
        ],
    )
    def test_grid_too_large_to_allocate_exits_cleanly(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "memory" in captured.err
        assert "Traceback" not in captured.err


class TestFlagTable:
    """Every flag of the parser comes from cli._FLAGS, and every value of a
    numeric flag either runs or is rejected naming the flag."""

    # cheap runs of each command; each flag is tried on each base of its
    # command (the sweep base's --xi-max is read once --l makes a pattern)
    BASES = {
        "scan": [["scan", "--n", "33", "--dm", "1", "--xi-min", "2", "--xi-max", "3"]],
        "factor": [["factor", "--n", "33", "--dm", "1"],
                   ["factor", "--n", "33", "--scheme", "truncated", "--m-terms", "3",
                    "--l-max", "5"]],
        "reciprocate": [["reciprocate", "--n", "15", "--l-max", "5"]],
        "nslit": [["nslit", "--n", "15", "--l-max", "5", "--xi-max", "3"],
                  ["nslit", "--n", "15", "--l", "3", "--xi-max", "3"]],
        "ghost": [["ghost", "--n", "33", "--m-terms", "3", "--l-max", "5"]],
        "verify": [["verify", "--suite", "ring"]],
    }
    VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", str(10**20))

    @staticmethod
    def parser_flags():
        """(command, flag, argparse action) for each flag of each command."""
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return [(command, a.option_strings[0], a) for command, sp in sub.choices.items()
                for a in sp._actions if a.option_strings and a.dest != "help"]

    def test_every_parser_flag_is_in_the_table(self):
        flags = self.parser_flags()
        for command, flag, action in flags:
            entry = cli._FLAGS[flag]
            assert (action.dest, action.type) == (entry.field, entry.type), flag
            assert action.required == (command in entry.required_by), (command, flag)
        assert {f for _, f, _ in flags} == set(cli._FLAGS)
        assert {c for c, _, _ in flags} == set(self.BASES)

    def test_every_value_runs_or_names_its_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))  # --output nan, ...
        unclean = []
        for command, flag, action in self.parser_flags():
            named = re.compile(re.escape(flag) + r"(?![\w-])")
            for base in self.BASES[command]:
                for value in self.VALUES:
                    argv = [*base, flag, value]
                    rc = cli.main(argv)
                    err = capsys.readouterr().err
                    lines = err.splitlines()
                    clean = rc == 0 or (rc == 1 and len(lines) == 1
                                        and lines[0].startswith("error:")
                                        and named.search(lines[0]) is not None)
                    if action.type is float and not math.isfinite(float(value)):
                        clean = clean and rc == 1
                    if not clean:
                        unclean.append((argv, rc, err))
        assert not unclean

    @pytest.mark.parametrize("cfg, err", [
        (cli.RunConfig("factor"), "factor needs --n"),
        (cli.RunConfig("ghost", n_target=33), "ghost needs --m-terms"),
        (cli.RunConfig("scan", n_target=33, xi_max=3.0, step=math.nan),
         "--step must be finite and positive"),
        (cli.RunConfig("nslit", n_target=33, spread_threshold=1.0),
         "--spread-threshold must lie in (0, 1)"),
        (cli.RunConfig("reciprocate", n_target=15, samples=0), "--samples must be >= 1"),
        (cli.RunConfig("verify", n_target=0), "--n must be >= 1"),
    ])
    def test_run_checks_library_callers_against_the_table(self, cfg, err):
        with pytest.raises(cli.ConfigError) as info:
            cli.run(cfg)
        assert str(info.value) == err


def assert_one_error_line(rc, out, err):
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err


class TestUnwritableOrOverflowingRuns:
    """Inputs that overflow a float, and output that cannot be written,
    exit 1 with one error line and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["factor", "--n", "33", "--dm", "1e160"],
        ["factor", "--n", "33", "--dm", "1e308"],
        ["factor", "--n", "33", "--dm", "1e160", "--m-terms", "5"],
        ["factor", "--n", "33", "--scheme", "lines", "--dm", "1e308", "--m-terms", "5"],
        ["scan", "--n", "33", "--xi-max", "3", "--dm", "1e160"],
        ["scan", "--n", "33", "--xi-max", "3", "--dm", "1e308"],
    ])
    def test_dm_whose_square_overflows_rejected(self, argv, capsys):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        dm = float(argv[argv.index("--dm") + 1])
        assert captured.err == f"error: --dm {dm!r} is too large: its square overflows to inf\n"

    @pytest.mark.parametrize("argv", [
        ["factor", "--n", "33", "--dm", "1e154"],
        ["factor", "--n", "33", "--dm", "1e18"],
        ["factor", "--n", "33", "--m-terms", "100000000000000000000"],
        ["factor", "--n", "33", "--scheme", "lines", "--dm", "1e154"],
        ["factor", "--n", "33", "--scheme", "lines", "--dm", "1e18"],
        ["scan", "--n", "33", "--xi-max", "3", "--dm", "1e154"],
        ["scan", "--n", "33", "--xi-max", "3", "--dm", "1e18"],
        # below the cap, but 1.3e18 bytes for one longdouble array of them
        ["factor", "--n", "33", "--dm", "1e16"],
        ["factor", "--n", "33", "--scheme", "lines", "--dm", "1e16"],
        ["scan", "--n", "33", "--xi-max", "3", "--dm", "1e16"],
    ])
    def test_term_count_past_any_array_rejected(self, argv, capsys):
        # ceil(4 * dm) terms a side: NumPy refused such a row with its own
        # text ("Maximum allowed size exceeded", "array is too big")
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        assert "--dm" in captured.err and "--m-terms" in captured.err

    @pytest.mark.parametrize("argv", [
        ["nslit", "--n", "1000000000001", "--l-max", "3"],
        ["nslit", "--n", "1000000000001", "--l", "3", "--xi-max", "3"],
        ["nslit", "--n", "9999999999999999999999", "--l-max", "5"],
    ])
    def test_slit_count_past_memory_or_any_array_names_n(self, argv, capsys):
        # NumPy refused these with "Unable to allocate 7.28 TiB" and
        # "Maximum allowed size exceeded"
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        assert "too many slits: --n" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["factor", "--scheme", "lines", "--n", "100000000000000"], "--n"),
        (["reciprocate", "--n", "15", "--l-max", "100000000000000"], "--l-max"),
        (["factor", "--scheme", "reciprocate", "--n", "15", "--l-max", "100000000000000"],
         "--l-max"),
        (["factor", "--scheme", "truncated", "--m-terms", "3", "--n", "15",
          "--l-max", "100000000000000"], "--l-max"),
        (["ghost", "--m-terms", "3", "--n", "15", "--l-max", "100000000000000"], "--l-max"),
        # the default --l-max, isqrt(--n), past any array
        (["ghost", "--m-terms", "3", "--n", "10" + "0" * 40], "--l-max"),
        (["factor", "--scheme", "reciprocate", "--n", "15", "--l-max", "9" * 23], "--l-max"),
    ])
    def test_trial_argument_count_past_memory_names_its_flag(self, argv, flag, capsys):
        # NumPy refused the first three with "Unable to allocate ... TiB"
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        assert f"too many trial arguments: {flag}" in captured.err

    def test_largest_term_count_passes_the_cap(self):
        # the largest count under the cap reaches the allocation check, whose
        # 9.2e18 bytes no 64-bit host provides; one more term fails the cap
        m_max = (cli._MAX_TERMS - 1) // 2
        with pytest.raises(cli.ConfigError, match="too many terms: .* do not fit in memory"):
            cli.RunConfig("factor", m_terms=m_max).weight_profile()
        with pytest.raises(cli.ConfigError, match="too many terms: .* must be at most"):
            cli.RunConfig("factor", m_terms=m_max + 1).weight_profile()
        assert cli.RunConfig("factor", m_terms=10**6).weight_profile().m_max == 10**6

    def test_weight_profile_rejects_overflowing_width(self):
        for dm in (1e160, 1e308):
            with pytest.raises(ValueError, match="too large"):
                gs.WeightProfile(dm, 5)
        assert gs.WeightProfile(1e150, 5).weights().sum() == 1.0

    @pytest.mark.parametrize("argv, span", [
        (["scan", "--n", "33", "--xi-max", "3", "--step", "1e-320"],
         "--xi-min 0.0 to --xi-max 3.0"),
        (["factor", "--n", "33", "--step", "1e-320"], "the scan range of --n 33"),
        (["nslit", "--n", "15", "--l", "3", "--xi-max", "1", "--step", "1e-320"],
         "--xi-min 0.0 to --xi-max 1.0"),
        # the span overflows, whatever the step
        (["scan", "--n", "33", "--xi-min", "-1e308", "--xi-max", "1e308", "--step", "1e-320"],
         "--xi-min -1e+308 to --xi-max 1e+308"),
    ])
    def test_step_whose_point_count_overflows_rejected(self, argv, span, capsys):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        assert captured.err == (f"error: too many grid points: --step 1e-320 over {span} makes "
                                "inf points, which do not fit in memory\n")

    @pytest.mark.parametrize("argv, span, count", [
        (["scan", "--n", "33", "--xi-max", "3", "--step", "1e-300"],
         "--xi-min 0.0 to --xi-max 3.0", "3e+300"),
        (["factor", "--n", "33", "--step", "1e-200"], "the scan range of --n 33", "3.2e+201"),
        (["factor", "--n", "34", "--scheme", "even", "--step", "1e-300"],
         "the scan range of --n 34", "3.3e+301"),
        (["nslit", "--n", "15", "--l", "3", "--xi-max", "3", "--step", "1e-300"],
         "--xi-min 0.0 to --xi-max 3.0", "3e+300"),
        (["factor", "--n", "33", "--step", "1e-13"], "the scan range of --n 33", "3.2e+14"),
        # the default step, over a range past any array
        (["scan", "--n", "33", "--xi-max", "1e300"], "--xi-min 0.0 to --xi-max 1e+300", "1e+302"),
        (["nslit", "--n", "15", "--l", "3", "--xi-min", "-1e20", "--xi-max", "3"],
         "--xi-min -1e+20 to --xi-max 3.0", "1e+22"),
    ])
    def test_grid_past_memory_or_any_array_names_step(self, argv, span, count, capsys):
        # NumPy refused these with "Maximum allowed dimension exceeded" and
        # "Unable to allocate 2.27 PiB for an array with shape ..."; the
        # message named --step alone, also where the range made the count
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        step = argv[argv.index("--step") + 1] if "--step" in argv else "0.01"
        assert captured.err == (f"error: too many grid points: --step {step} over {span} makes "
                                f"{count} points, which do not fit in memory\n")

    @pytest.mark.parametrize("argv", [
        ["factor", "--n", "33"],
        ["scan", "--n", "33", "--xi-max", "3"],
        ["ghost", "--n", "15", "--m-terms", "3"],
    ])
    def test_output_that_cannot_be_written(self, argv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for target in (tmp_path, blocker / "x.out"):
            rc = cli.main([*argv, "--output", str(target)])
            captured = capsys.readouterr()
            assert_one_error_line(rc, captured.out, captured.err)
            assert captured.err.startswith(f"error: cannot write {str(target)!r}: ")

    def test_closed_pipe(self):
        env = {**os.environ, "PYTHONPATH": str(Path(gaussfactor.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "gaussfactor.cli", "scan", "--n", "33", "--xi-max", "2000",
             "--dm", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"xi,re,im,abs2\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert_one_error_line(proc.wait(timeout=120), "", err)
        assert "Exception ignored" not in err
