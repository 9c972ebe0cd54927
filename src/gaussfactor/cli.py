"""Command-line front end: scans, factor runs, verification suites, and
deterministic CSV/JSON emission.

Exit codes: 0 success, 1 configuration error, 2 verification failure.
Relative output paths are resolved against $GAUSSFACTOR_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import factorizer, nslit, verify
from .gausssums import (
    ContinuousSpec,
    PrecisionError,
    WeightProfile,
    _check_width,
    monte_carlo_sum,
    reciprocate_complete_sweep,
)

OUTDIR_ENV = "GAUSSFACTOR_OUTDIR"

# CSV rows formatted and written per chunk: about 0.3 MB of text.
_CSV_BLOCK_ROWS = 4096

# JSON records formatted and written per chunk: about 35 KB of text.  The
# 881-candidate reports of integer_schemes written as one chunk each (about
# 115 KB) raised its peak RSS by 2.8 MB.
_JSON_BLOCK_RECORDS = 256


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        raise ConfigError(message)


@dataclass
class RunConfig:
    command: str
    n_target: int | None = None
    scheme: str = "continuous"
    delta_m: float = 10.0
    m_terms: int | None = None
    a_param: float = 1.0
    b_param: float | None = None
    xi_min: float = 0.0
    xi_max: float = 0.0
    step: float = 0.01
    l_min: int = 2
    l_max: int | None = None
    l_talbot: int | None = None
    peak_factor: float = factorizer.DEFAULT_PEAK_FACTOR
    zero_factor: float = factorizer.DEFAULT_ZERO_FACTOR
    threshold: float = factorizer.DEFAULT_GHOST_THRESHOLD
    spread_threshold: float = nslit.DEFAULT_SPREAD_THRESHOLD
    seed: int = 0
    samples: int | None = None
    workers: int | None = None
    suites: list[str] = field(default_factory=lambda: ["all"])
    output_path: str | None = None
    format: str = "csv"

    def weight_profile(self) -> WeightProfile:
        if not 0 < self.delta_m < math.inf:
            raise ConfigError("--dm must be finite and positive")
        _check_width(self.delta_m)  # before ceil(4 * dm), which overflows first
        m_max = self.m_terms if self.m_terms is not None else math.ceil(4 * self.delta_m)
        if m_max < 1:
            raise ConfigError("--m-terms must be >= 1")
        return WeightProfile(delta_m=self.delta_m, m_max=m_max)


def _l_max(cfg: RunConfig) -> int:
    """--l-max, or isqrt(N) when the flag is absent."""
    if cfg.l_max is None:
        return math.isqrt(cfg.n_target)
    if cfg.l_max < 1:
        raise ConfigError("--l-max must be >= 1")
    return cfg.l_max


def _emit(cfg: RunConfig, chunks: Iterable[str]) -> None:
    """Write the text chunks in order to stdout or to the --output file."""
    if cfg.output_path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    path = Path(cfg.output_path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode())
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _row_slices(count: int, size: int) -> Iterator[slice]:
    """Consecutive slices of `size` rows covering `count` rows."""
    return (slice(start, start + size) for start in range(0, count, size))


def _csv_series(xis, values) -> Iterator[str]:
    """The CSV header, then the rows in blocks of _CSV_BLOCK_ROWS, so the
    whole text is never held in memory.

    Each block's four columns go to Python floats in one tolist() call and
    the block is one %-format of its rows.  abs(v) ** 2 stays a per-element
    Python expression: a vectorized np.abs(values) ** 2 does not give the
    same bits.
    """
    yield "xi,re,im,abs2\n"
    xis = np.asarray(xis, dtype=float)
    values = np.asarray(values, dtype=complex)
    for block in _row_slices(len(xis), _CSV_BLOCK_ROWS):
        v = values[block]
        cols = np.empty((len(v), 4))
        cols[:, 0] = xis[block]
        cols[:, 1] = v.real
        cols[:, 2] = v.imag
        cols[:, 3] = [abs(z) ** 2 for z in v.tolist()]
        yield ("%.12g,%.12g,%.12g,%.12g\n" * len(v)) % tuple(cols.ravel().tolist())


class _Records(NamedTuple):
    """A JSON list of objects that all have `keys`, given as blocks of value
    tuples, so the list is written one block at a time."""

    keys: tuple[str, ...]
    blocks: Iterable[Sequence[tuple]]


# stands in for the _Records value while json.dumps writes the rest of a doc
_RECORDS_MARK = "\x00records"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    """A number, string, bool or None as json.dumps writes it."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _json_chunks(doc: dict) -> Iterator[str]:
    """The text of json.dumps(doc, indent=2) + "\n" in chunks, for a doc
    with one top-level _Records value.

    json.dumps writes everything but the records, around a mark in their
    place; each block of records is then formatted into one chunk, so the
    records are never held as text (or as dicts) all at once.
    """
    key = next(k for k, v in doc.items() if isinstance(v, _Records))
    records = doc[key]
    text = json.dumps({**doc, key: _RECORDS_MARK}, indent=2)
    head, tail = text.split(json.dumps(_RECORDS_MARK))
    row = "\n    {" + ",".join(f"\n      {json.dumps(k)}: %s" for k in records.keys) + "\n    }"
    yield head + "["
    sep = ""
    for block in records.blocks:
        if len(block):
            yield sep + ",".join([row % tuple(map(_json_scalar, r)) for r in block])
            sep = ","
    yield ("\n  ]" if sep else "]") + tail + "\n"


def _scan_json(series: factorizer.ScanSeries) -> Iterator[str]:
    """The scan as JSON samples.  Each sample is computed from NumPy scalars:
    float(x), v.real, v.imag and abs(v) ** 2 on np.complex128 (a vectorized
    np.abs(values) ** 2 gives other bits)."""
    xis, values = series.xis, series.values
    rows = (
        [(float(x), v.real, v.imag, abs(v) ** 2) for x, v in zip(xis[b], values[b])]
        for b in _row_slices(len(xis), _JSON_BLOCK_RECORDS)
    )
    samples = _Records(("xi", "re", "im", "abs2"), rows)
    return _json_chunks({"n": series.n_label, "unit_c": series.unit_c, "samples": samples})


def _report_chunks(cfg: RunConfig, report: factorizer.FactorReport) -> Iterable[str]:
    if cfg.format == "json":
        doc = report.to_json_dict()
        rows = [tuple(c.values()) for c in doc["candidates"]]
        keys = tuple(doc["candidates"][0]) if rows else ()
        blocks = (rows[b] for b in _row_slices(len(rows), _JSON_BLOCK_RECORDS))
        doc["candidates"] = _Records(keys, blocks)
        return _json_chunks(doc)
    lines = ["l,measured,predicted,class"]
    for c in sorted(report.candidates):
        lines.append(f"{c.l},{c.measured:.12g},{c.predicted:.12g},{c.classification.value}")
    return ["\n".join(lines) + "\n"]


def _cmd_scan(cfg: RunConfig) -> int:
    if cfg.b_param is None:
        if cfg.n_target is None:
            raise ConfigError("scan needs --n or --b")
        cfg.b_param = float(cfg.n_target)
    if cfg.xi_max <= cfg.xi_min:
        raise ConfigError("need --xi-max > --xi-min")
    spec = ContinuousSpec(a_param=cfg.a_param, b_param=cfg.b_param)
    series = factorizer.scan_series(
        spec,
        cfg.weight_profile(),
        cfg.xi_min,
        cfg.xi_max,
        cfg.step,
        n_label=cfg.n_target or round(cfg.b_param),
        workers=cfg.workers,
    )
    if cfg.format == "csv":
        _emit(cfg, _csv_series(series.xis, series.values))
    else:
        _emit(cfg, _scan_json(series))
    return 0


def _cmd_factor(cfg: RunConfig) -> int:
    if cfg.n_target is None:
        raise ConfigError("factor needs --n")
    n = cfg.n_target
    if cfg.scheme == "continuous":
        report = factorizer.factor_scan_continuous(
            n, cfg.weight_profile(), grid_step=cfg.step, peak_factor=cfg.peak_factor
        )
    elif cfg.scheme == "even":
        report = factorizer.factor_scan_even(
            n,
            cfg.weight_profile(),
            grid_step=cfg.step,
            peak_factor=cfg.peak_factor,
            zero_factor=cfg.zero_factor,
        )
    elif cfg.scheme == "lines":
        report = factorizer.factor_lines_discrete(n, cfg.weight_profile())
    elif cfg.scheme == "reciprocate":
        report = factorizer.factor_reciprocate(n, _l_max(cfg))
    elif cfg.scheme == "truncated":
        if cfg.m_terms is None:
            raise ConfigError("truncated scheme needs --m-terms")
        report = factorizer.factor_truncated(n, _l_max(cfg), cfg.m_terms, cfg.threshold)
    else:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    _emit(cfg, _report_chunks(cfg, report))
    return 0


def _cmd_reciprocate(cfg: RunConfig) -> int:
    if cfg.n_target is None:
        raise ConfigError("reciprocate needs --n")
    ls = np.arange(1, _l_max(cfg) + 1)
    if cfg.samples is not None:
        values = np.array(
            [
                monte_carlo_sum(cfg.n_target, int(l), min(cfg.samples, int(l)), cfg.seed)
                for l in ls
            ]
        )
    else:
        values = reciprocate_complete_sweep(cfg.n_target, ls)
    if cfg.format == "json":
        rows = (
            [(int(l), v.real, v.imag, abs(v)) for l, v in zip(ls[b], values[b])]
            for b in _row_slices(len(ls), _JSON_BLOCK_RECORDS)
        )
        samples = _Records(("l", "re", "im", "abs"), rows)
        _emit(cfg, _json_chunks({"n": cfg.n_target, "samples": samples}))
    else:
        _emit(cfg, _csv_series(ls.astype(float), values))
    return 0


def _cmd_nslit(cfg: RunConfig) -> int:
    if cfg.n_target is None:
        raise ConfigError("nslit needs --n")
    if cfg.l_talbot is not None:
        if cfg.xi_max <= cfg.xi_min:
            raise ConfigError("nslit pattern needs --xi-max > --xi-min")
        xis = factorizer.uniform_grid(cfg.xi_min, cfg.xi_max, cfg.step)
        c = nslit.NSlitConfig(cfg.n_target, cfg.l_talbot)
        _emit(cfg, _csv_series(xis, nslit.green_sum(xis, c)))
        return 0
    rows = nslit.nslit_factor_test(cfg.n_target, _l_max(cfg), cfg.spread_threshold)
    doc = {
        "n": cfg.n_target,
        "rows": _Records(
            ("l", "flag", "spread", "divides"),
            [[(r.l, r.is_factor_flag, r.relative_spread, r.divides) for r in rows]],
        ),
        "factors": [r.l for r in rows if r.is_factor_flag and r.divides],
    }
    _emit(cfg, _json_chunks(doc))
    return 0


def _cmd_ghost(cfg: RunConfig) -> int:
    if cfg.n_target is None or cfg.m_terms is None:
        raise ConfigError("ghost needs --n and --m-terms")
    census = factorizer.ghost_census(
        cfg.n_target, cfg.m_terms, cfg.threshold, cfg.l_min, _l_max(cfg)
    )
    doc = {
        "n": cfg.n_target,
        "m_terms": cfg.m_terms,
        "threshold": cfg.threshold,
        "ghosts": census.ghosts,
        "count": census.count,
    }
    _emit(cfg, [json.dumps(doc, indent=2) + "\n"])
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    results = verify.run(cfg.suites)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:14s} {status}  ({r.seconds:.2f}s)  {r.detail}")
        all_ok &= r.passed
    return 0 if all_ok else 2


@cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process and shared by every main call;
    parsing leaves no state behind in it."""
    p = _Parser(prog="gaussfactor", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    flags = {
        "--n": dict(dest="n_target", type=int),
        "--dm": dict(dest="delta_m", type=float, default=10.0),
        "--m-terms": dict(dest="m_terms", type=int, default=None,
                          help="truncation M (default ceil(4*dm))"),
        "--xi-min": dict(type=float, default=0.0),
        "--xi-max": dict(type=float, default=0.0),
        "--step": dict(type=float, default=0.01),
        "--workers": dict(type=int, default=None,
                          help="worker threads, at most one per usable CPU "
                               "(default: one per usable CPU)"),
        "--l-min": dict(type=int, default=2),
        "--l-max": dict(type=int, default=None),
        "--output": dict(dest="output_path", default=None),
        "--format": dict(choices=("csv", "json"), default="csv"),
    }

    def add(sp, *names):
        for name in names:
            sp.add_argument(name, **flags[name])

    sp = sub.add_parser("scan", help="continuous-sum scan over a xi grid")
    add(sp, "--n", "--dm", "--m-terms", "--xi-min", "--xi-max", "--step", "--workers",
        "--output", "--format")
    sp.add_argument("--a", dest="a_param", type=float, default=1.0)
    sp.add_argument("--b", dest="b_param", type=float, default=None)

    sp = sub.add_parser("factor", help="run a factor-extraction scheme")
    add(sp, "--n", "--dm", "--m-terms", "--step", "--l-max", "--output", "--format")
    sp.add_argument("--scheme", choices=("continuous", "even", "lines", "reciprocate", "truncated"),
                    default="continuous")
    sp.add_argument("--peak-factor", type=float, default=factorizer.DEFAULT_PEAK_FACTOR)
    sp.add_argument("--zero-factor", type=float, default=factorizer.DEFAULT_ZERO_FACTOR)
    sp.add_argument("--threshold", type=float, default=factorizer.DEFAULT_GHOST_THRESHOLD)

    sp = sub.add_parser("reciprocate", help="complete reciprocate series")
    add(sp, "--n", "--l-max", "--output", "--format")
    sp.add_argument("--samples", type=int, default=None,
                    help="Monte-Carlo term count (default: complete sum)")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("nslit", help="N-slit pattern (CSV) or factor sweep (JSON)")
    add(sp, "--n", "--xi-min", "--xi-max", "--step", "--l-max", "--output")
    sp.add_argument("--l", dest="l_talbot", type=int, default=None,
                    help="emit the intensity pattern at this Talbot distance")
    sp.add_argument("--spread-threshold", type=float, default=nslit.DEFAULT_SPREAD_THRESHOLD)

    sp = sub.add_parser("ghost", help="ghost-factor census of the truncated sum (JSON)")
    add(sp, "--n", "--l-min", "--l-max", "--output")
    sp.add_argument("--m-terms", dest="m_terms", type=int, required=True)
    sp.add_argument("--threshold", type=float, default=factorizer.DEFAULT_GHOST_THRESHOLD)

    sp = sub.add_parser("verify", help="run the named verification suites")
    sp.add_argument("--suite", dest="suites", nargs="+", default=["all"],
                    choices=sorted(verify.SUITES) + ["all"])
    return p


_COMMANDS = {
    "scan": _cmd_scan,
    "factor": _cmd_factor,
    "reciprocate": _cmd_reciprocate,
    "nslit": _cmd_nslit,
    "ghost": _cmd_ghost,
    "verify": _cmd_verify,
}


def run(cfg: RunConfig) -> int:
    """Execute a configured command; deterministic for fixed config and seed."""
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.n_target is not None and cfg.n_target < 1:
        raise ConfigError("--n must be a positive integer")
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    for flag, value in (("--peak-factor", cfg.peak_factor), ("--zero-factor", cfg.zero_factor),
                        ("--spread-threshold", cfg.spread_threshold)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{flag} must be finite and positive")
    return _COMMANDS[cfg.command](cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        status = run(RunConfig(**vars(ns)))
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
        return status
    except BrokenPipeError:
        # As the Python docs advise: point stdout at devnull, so that the
        # flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # NumPy refuses a grid larger than the address space at once.
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
