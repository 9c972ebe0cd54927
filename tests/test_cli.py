import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gaussfactor
from gaussfactor import cli, factorizer, nslit
from gaussfactor import gausssums as gs

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
        assert "".join(cli._csv_series([], [])) == joined_csv([], [])

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
        assert "".join(cli._csv_series(xis, values)) == expect

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
        xis = factorizer.uniform_grid(-2.0, 9.0, 0.01)
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
            cli._emit(cfg, cli._csv_series(xis, values))
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


class TestJsonStreaming:
    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_edge_values_give_the_json_dumps_bytes(self, monkeypatch, block_rows):
        series = SimpleNamespace(n_label=1001, unit_c=0.5, xis=EDGE_XIS, values=EDGE_VALUES)
        expect = joined_json_series(series)
        assert "NaN" in expect and "-Infinity" in expect and "-0.0" in expect
        monkeypatch.setattr(cli, "_JSON_BLOCK_RECORDS", block_rows)
        assert "".join(cli._scan_json(series)) == expect

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
        assert "".join(cli._scan_json(series)) == joined_json_series(series)

    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    def test_reports_give_the_json_dumps_bytes(self, monkeypatch, block_rows):
        odd = factorizer.Candidate(4, math.nan, math.inf, factorizer.Classification.GHOST)
        reports = [
            factorizer.factor_reciprocate(1911, 60),
            factorizer.factor_truncated(777777, 40, 20),
            factorizer.factor_lines_discrete(42, gs.WeightProfile.for_width(2 * 42 / math.sqrt(8))),
            factorizer.factor_scan_even(2, W10),
            factorizer.FactorReport(15, "made_up", [odd, odd._replace(l=3, measured=-0.0)], [3],
                                    {"flag": True, "none": None, "neg": -math.inf}),
        ]
        monkeypatch.setattr(cli, "_JSON_BLOCK_RECORDS", block_rows)
        cfg = cli.RunConfig(command="factor", format="json")
        for report in reports:
            expect = json.dumps(report.to_json_dict(), indent=2) + "\n"
            assert "".join(cli._report_chunks(cfg, report)) == expect

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
        cfg = cli.RunConfig(command="scan", output_path=str(tmp_path / "big.json"))
        tracemalloc.start()
        try:
            cli._emit(cfg, cli._scan_json(series))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = (tmp_path / "big.json").read_bytes()
        assert data == joined_json_series(series).encode()
        # the text is about 5 MB, and building the document whole peaked
        # near 47 MB
        assert len(data) > 4.5 * 2**20 and peak < 2**20


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

    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_nslit_pattern_step_must_be_positive(self, step, capsys):
        argv = ["nslit", "--n", "15", "--l", "3", "--xi-min", "0", "--xi-max", "3", "--step", step]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "step must be positive" in err and "Traceback" not in err

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
        assert "l_min" in err and "Traceback" not in err

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
            f"error: delta_m {float(dm)!r} is too small: its square underflows to 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--peak-factor", ["factor", "--n", "33"]),
            ("--peak-factor", ["factor", "--n", "30", "--scheme", "even"]),
            ("--zero-factor", ["factor", "--n", "30", "--scheme", "even"]),
            ("--spread-threshold", ["nslit", "--n", "33"]),
        ],
    )
    def test_factor_flags_must_be_finite_and_positive(self, flag, argv, value, capsys):
        assert cli.main([*argv, f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be finite and positive\n"
        assert "Traceback" not in captured.err

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
        assert captured.err == "error: A and B must be finite and positive\n"

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
        assert captured.err == f"error: delta_m {dm!r} is too large: its square overflows to inf\n"

    def test_weight_profile_rejects_overflowing_width(self):
        for dm in (1e160, 1e308):
            with pytest.raises(ValueError, match="too large"):
                gs.WeightProfile(dm, 5)
        assert gs.WeightProfile(1e150, 5).weights().sum() == 1.0

    @pytest.mark.parametrize("argv", [
        ["scan", "--n", "33", "--xi-max", "3", "--step", "1e-320"],
        ["factor", "--n", "33", "--step", "1e-320"],
        ["nslit", "--n", "15", "--l", "3", "--xi-max", "1", "--step", "1e-320"],
    ])
    def test_step_whose_point_count_overflows_rejected(self, argv, capsys):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(rc, captured.out, captured.err)
        assert "step 1e-320 is too small" in captured.err

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
