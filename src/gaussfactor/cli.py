"""Command-line front end: scans, factor runs, verification suites, and
deterministic CSV/JSON emission.

Exit codes: 0 success, 1 configuration error, 2 verification failure.
Relative output paths are resolved against $GAUSSFACTOR_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache, partial
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
    abs2,
    continuous_sum_grid,
    monte_carlo_sum,
    reciprocate_complete_sweep,
)

OUTDIR_ENV = "GAUSSFACTOR_OUTDIR"

# Rows of a table formatted and written per chunk, by format: about 56 KB
# of CSV or 35 KB of JSON text.  The two sizes differ for peak RSS, not
# speed: continuous_kernel (the 249,501-row N=1001 scan CSV) peaked about
# 0.9 MB higher with 256-row CSV chunks, and integer_schemes (881-candidate
# JSON reports) about 2.6 MB higher with 512-record JSON chunks and 2.8 MB
# with one chunk per report.
_CSV_BLOCK_ROWS = 1024
_JSON_BLOCK_RECORDS = 256


# The most terms a weighted sum, or slits a grating, may have: one longdouble
# or complex (16 bytes) per element keeps an array within NumPy's largest
# array size.
_MAX_TERMS = sys.maxsize // 16


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An absent flag sets no attribute, so RunConfig's field defaults are
    the only copy of each default (subparsers are made of this class too)."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

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
        try:  # before ceil(4 * dm), which overflows first
            _check_width(self.delta_m)
        except ValueError as exc:  # "delta_m <dm> is too small: ...", or too large
            raise ConfigError("--dm" + str(exc).removeprefix("delta_m")) from None
        m_max = self.m_terms if self.m_terms is not None else math.ceil(4 * self.delta_m)
        _check_fits(2 * m_max + 1, "terms", "2 * M + 1",
                    ", where M is --m-terms (default ceil(4 * --dm))")
        return WeightProfile(delta_m=self.delta_m, m_max=m_max)


class _Values(NamedTuple):
    """The values a flag accepts: a test, and the rule that the error for a
    value failing it states."""

    test: Callable[[object], bool]
    rule: str


_COUNT = _Values(lambda v: v >= 1, "must be >= 1")
_FINITE = _Values(math.isfinite, "must be finite")
_POSITIVE = _Values(lambda v: 0 < v < math.inf, "must be finite and positive")
# a truncated-sum modulus and a relative spread both lie in [0, 1]
_UNIT = _Values(lambda v: 0 < v < 1, "must lie in (0, 1)")


class _Flag(NamedTuple):
    """A CLI flag: the RunConfig field it sets, the type argparse reads it
    with, the values it accepts (None: any), the commands that need it, and
    argparse's other keywords for it."""

    field: str
    type: Callable[[str], object] | None = None
    values: _Values | None = None
    required_by: tuple[str, ...] = ()
    options: dict = {}


# Each flag's accepted values, stated once: build_parser reads the types and
# run checks every set field against the values.  The command bodies check
# only what spans several flags or depends on the scheme.
_FLAGS = {
    "--n": _Flag("n_target", int, _COUNT, ("factor", "reciprocate", "nslit", "ghost")),
    "--dm": _Flag("delta_m", float, _POSITIVE),
    "--m-terms": _Flag("m_terms", int, _COUNT, ("ghost",),
                       {"help": "truncation M (a weighted sum's default: ceil(4*dm))"}),
    "--a": _Flag("a_param", float, _POSITIVE),
    "--b": _Flag("b_param", float, _POSITIVE),
    "--xi-min": _Flag("xi_min", float, _FINITE),
    "--xi-max": _Flag("xi_max", float, _FINITE),
    "--step": _Flag("step", float, _POSITIVE),
    "--l-min": _Flag("l_min", int, _COUNT),
    "--l-max": _Flag("l_max", int, _COUNT),
    "--l": _Flag("l_talbot", int, _COUNT,
                 options={"help": "emit the intensity pattern at this Talbot distance"}),
    "--peak-factor": _Flag("peak_factor", float, _POSITIVE),
    "--zero-factor": _Flag("zero_factor", float, _POSITIVE),
    "--threshold": _Flag("threshold", float, _UNIT),
    "--spread-threshold": _Flag("spread_threshold", float, _UNIT),
    "--samples": _Flag("samples", int, _COUNT,
                       options={"help": "Monte-Carlo term count (default: complete sum)"}),
    "--seed": _Flag("seed", int),
    "--workers": _Flag("workers", int, _COUNT,
                       options={"help": "worker threads, at most one per usable CPU "
                                        "(default: one per usable CPU)"}),
    "--scheme": _Flag("scheme", options={
        "choices": ("continuous", "even", "lines", "reciprocate", "truncated")}),
    "--suite": _Flag("suites", options={"nargs": "+",
                                        "choices": sorted(verify.SUITES) + ["all"]}),
    "--output": _Flag("output_path"),
    "--format": _Flag("format", options={"choices": ("csv", "json")}),
}


def _check_fits(count: int, what: str, name: str, where: str = "") -> None:
    """Raise ConfigError, naming the flags behind `name`, unless one array of
    `count` 16-byte elements (a longdouble or complex each) can be made.  The
    array is made once and never written: a count that cannot be allocated
    fails here rather than in a kernel or its worker threads."""
    if count > _MAX_TERMS:
        raise ConfigError(f"too many {what}: {name} must be at most {_MAX_TERMS:.3g}{where}")
    try:
        np.empty(count, dtype=np.longdouble)
    except MemoryError:
        raise ConfigError(f"too many {what}: {name} = {count:.3g} {what} do not fit "
                          f"in memory{where}") from None


def _l_max(cfg: RunConfig, low: int = 1, first: int = 1, low_flag: str = "") -> int:
    """--l-max, or isqrt(N) when the flag is absent; below `low` (the value
    of low_flag, when given) is an error, and so are more trial arguments
    first..l_max than fit in memory."""
    if cfg.l_max is not None:
        l_max, where = cfg.l_max, ""
    else:
        l_max, where = math.isqrt(cfg.n_target), ", where --l-max defaults to isqrt(--n)"
    if l_max < low:
        bound = f"{low_flag} {low}" if low_flag else low
        default = "" if cfg.l_max is not None else f", and its default isqrt(--n) is {l_max}"
        raise ConfigError(f"--l-max must be >= {bound}{default}")
    _check_fits(max(l_max - first + 1, 0), "trial arguments", "--l-max", where)
    return l_max


class _Records(NamedTuple):
    """A table: a list of records that all have `keys`, given as blocks of
    whole columns (one NumPy array or sequence of values per key, all of
    one length).  The writer, not the command, cuts each block into chunks
    of rows, so a command hands over its columns at any length."""

    keys: tuple[str, ...]
    blocks: Iterable[Sequence[Sequence]]


def _emit(cfg: RunConfig, doc: dict, fmt: str | None = None) -> None:
    """Write doc, in fmt (default --format), to stdout or to the --output
    file.  CSV writes the doc's one _Records table; JSON writes the doc."""
    chunks = _csv_chunks(doc) if (fmt or cfg.format) == "csv" else _json_chunks(doc)
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


def _row_chunks(blocks: Iterable[Sequence[Sequence]], size: int) -> Iterator[tuple[Sequence, ...]]:
    """The rows of each block, `size` at a time, as a tuple of column slices
    (an array's through .tolist()).  No block is held once its last chunk is
    made, so none is kept while the next one is evaluated."""
    for columns in blocks:
        for start in range(0, min(map(len, columns), default=0), size):
            chunk = (c[start:start + size] for c in columns)
            yield tuple(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk)
        del columns


def _csv_chunks(doc: dict) -> Iterator[str]:
    """The doc's one _Records table as CSV: a header of its keys, then the
    rows of each block."""
    records = next(v for v in doc.values() if isinstance(v, _Records))
    yield ",".join(records.keys) + "\n"
    yield from map(_csv_block, _row_chunks(records.blocks, _CSV_BLOCK_ROWS))


def _csv_block(columns: Sequence[Sequence]) -> str:
    """One chunk's rows: one %-format of its row template, %.12g for a
    column of floats and %s for any other.  A table's columns each hold one
    kind of value, so a column's first value gives its kind."""
    row = ",".join("%.12g" if isinstance(c[0], float) else "%s" for c in columns) + "\n"
    return (row * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


# stands in for the _Records value while json.dumps writes the rest of a doc
_RECORDS_MARK = "\x00records"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BOOLS = ("false", "true")
# the name of each class code of a FactorReport, an index into _CLASSES
_CLASS_NAMES = np.array([c.value for c in factorizer._CLASSES], dtype=object)


def _json_column(values: Sequence) -> Iterable[str]:
    """The text json.dumps writes for each value of a column.  A column of
    ints, bools, floats or strings is formatted in one C-level map; NaN and
    the infinities are fixed up only in a float column that holds one."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {bool}:
        return map(_JSON_BOOLS.__getitem__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    if all(issubclass(k, float) for k in kinds):
        text = list(map(float.__repr__, values))
        if _JSON_NONFINITE.keys().isdisjoint(text):
            return text
        return [_JSON_NONFINITE.get(t, t) for t in text]
    return map(json.dumps, values)  # None, or a column of mixed types


def _json_chunks(doc: dict) -> Iterator[str]:
    """The text of json.dumps(doc, indent=2) + "\n" in chunks.

    A doc without a _Records value is one chunk.  Otherwise json.dumps
    writes everything but the records, around a mark in their place.  Each
    chunk of records is then one %-format of its row template, with its
    values formatted a column at a time, so the records are never held as
    text (or as dicts) all at once.
    """
    key = next((k for k, v in doc.items() if isinstance(v, _Records)), None)
    if key is None:
        yield json.dumps(doc, indent=2) + "\n"
        return
    records = doc[key]
    text = json.dumps({**doc, key: _RECORDS_MARK}, indent=2)
    head, tail = text.split(json.dumps(_RECORDS_MARK))
    # a % in a key would read as a conversion of the row template
    keys = (json.dumps(k).replace("%", "%%") for k in records.keys)
    row = "\n    {" + ",".join(f"\n      {k}: %s" for k in keys) + "\n    }"
    yield head + "["
    sep = ""
    for columns in _row_chunks(records.blocks, _JSON_BLOCK_RECORDS):
        cells = itertools.chain.from_iterable(zip(*map(_json_column, columns)))
        yield sep + ",".join([row] * len(columns[0])) % tuple(cells)
        sep = ","
    yield ("\n  ]" if sep else "]") + tail + "\n"


def _samples_doc(n_label: int, blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> dict:
    """The samples of a scan, pattern or series from its (xis, values)
    blocks, as the columns xi, re, im and |v|^2; starmap, unlike a generator
    expression, keeps no block once its columns are made."""
    columns = itertools.starmap(lambda xis, v: (xis, v.real, v.imag, abs2(v)), blocks)
    return {"n": n_label, "unit_c": 1.0, "samples": _Records(("xi", "re", "im", "abs2"), columns)}


def _report_doc(report: factorizer.FactorReport) -> dict:
    """The report in the layout of FactorReport.to_json_dict."""
    columns = (report.ls, report.measured, report.predicted, _CLASS_NAMES[report.codes])
    return {"n": report.n_target, "scheme": report.scheme, "params": report.params,
            "candidates": _Records(("l", "measured", "predicted", "class"), [columns]),
            "factors": sorted(report.verified_factors)}


def _continuous_n(cfg: RunConfig) -> float:
    """--n as the float B = N of a continuous sum."""
    try:
        return float(cfg.n_target)
    except OverflowError:
        raise ConfigError("--n must be below 1.8e308 for a continuous sum") from None


def _cmd_scan(cfg: RunConfig) -> int:
    if cfg.b_param is None:
        if cfg.n_target is None:
            raise ConfigError("scan needs --n or --b")
        cfg.b_param = _continuous_n(cfg)
    spec = ContinuousSpec(a_param=cfg.a_param, b_param=cfg.b_param)
    evaluate = partial(continuous_sum_grid, spec=spec, w=cfg.weight_profile())
    _emit_grid(cfg, evaluate, cfg.n_target or round(cfg.b_param))
    return 0


def _grid_span(cfg: RunConfig) -> str:
    """The flags behind the xi range of the command's grid."""
    if cfg.command == "factor":
        return f"the scan range of --n {cfg.n_target}"
    return f"--xi-min {cfg.xi_min!r} to --xi-max {cfg.xi_max!r}"


def _emit_grid(cfg: RunConfig, evaluate: Callable[[np.ndarray], np.ndarray],
               n_label: int) -> None:
    """Write evaluate on the --xi-min/--xi-max/--step grid, as CSV or JSON
    samples, one scan_blocks block at a time."""
    if cfg.xi_max <= cfg.xi_min:
        raise ConfigError("need --xi-max > --xi-min")
    grid = factorizer.uniform_grid(cfg.xi_min, cfg.xi_max, cfg.step)
    blocks = factorizer.scan_blocks(evaluate, grid, workers=cfg.workers)
    # The first block is evaluated before the header is written or the
    # --output file made, so an evaluation error leaves no output behind.
    blocks = itertools.chain([next(blocks)], blocks)
    _emit(cfg, _samples_doc(n_label, blocks))


def _cmd_factor(cfg: RunConfig) -> int:
    n = cfg.n_target
    if cfg.scheme in ("continuous", "reciprocate") and n % 2 == 0:
        hint = "; --scheme even takes an even --n" if cfg.scheme == "continuous" else ""
        raise ConfigError(f"--scheme {cfg.scheme} needs an odd --n{hint}")
    if cfg.scheme == "even" and n % 2 == 1:
        raise ConfigError("--scheme even needs an even --n")
    if cfg.scheme in ("continuous", "even"):
        _continuous_n(cfg)
    if cfg.scheme == "continuous":
        if n < 3:
            raise ConfigError("--scheme continuous needs --n >= 3")
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
        _check_fits(n, "trial arguments", "--n")
        report = factorizer.factor_lines_discrete(n, cfg.weight_profile())
    elif cfg.scheme == "reciprocate":
        report = factorizer.factor_reciprocate(n, _l_max(cfg))
    elif cfg.scheme == "truncated":
        if cfg.m_terms is None:
            raise ConfigError("truncated scheme needs --m-terms")
        l_max = _l_max(cfg, 2)
        _check_fits(cfg.m_terms, "terms", "--m-terms")
        report = factorizer.factor_truncated(n, l_max, cfg.m_terms, cfg.threshold)
    else:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    _emit(cfg, _report_doc(report))
    return 0


def _cmd_reciprocate(cfg: RunConfig) -> int:
    l_max = _l_max(cfg)
    ls = np.arange(1, l_max + 1)
    if cfg.samples is not None:
        if cfg.samples >= l_max:  # min(--samples, l) would be l for every l
            default = "" if cfg.l_max is not None else ", whose default isqrt(--n) is"
            raise ConfigError(f"--samples {cfg.samples} must be below --l-max{default} {l_max}: "
                              "every sum would be complete")
        values = np.array(
            [monte_carlo_sum(cfg.n_target, int(l), min(cfg.samples, int(l)), cfg.seed)
             for l in ls]
        )
    else:
        values = reciprocate_complete_sweep(cfg.n_target, ls)
    if cfg.format == "json":
        columns = ls, values.real, values.imag, np.hypot(values.real, values.imag)
        _emit(cfg, {"n": cfg.n_target, "samples": _Records(("l", "re", "im", "abs"), [columns])})
    else:
        _emit(cfg, _samples_doc(cfg.n_target, [(ls.astype(float), values)]))
    return 0


def _cmd_nslit(cfg: RunConfig) -> int:
    # each sum over the slits holds one complex per slit
    _check_fits(cfg.n_target, "slits", "--n")
    if cfg.l_talbot is not None:
        c = nslit.NSlitConfig(cfg.n_target, cfg.l_talbot)
        _emit_grid(cfg, partial(nslit.green_sum, cfg=c), cfg.n_target)
        return 0
    if cfg.n_target % 2 == 0:
        raise ConfigError("the nslit factor sweep needs an odd --n")
    rows = nslit.nslit_factor_test(cfg.n_target, _l_max(cfg), cfg.spread_threshold)
    doc = {
        "n": cfg.n_target,
        "rows": _Records(("l", "flag", "spread", "divides"), [tuple(zip(*rows))]),
        "factors": [r.l for r in rows if r.is_factor_flag and r.divides],
    }
    _emit(cfg, doc, "json")
    return 0


def _cmd_ghost(cfg: RunConfig) -> int:
    _check_fits(cfg.m_terms, "terms", "--m-terms")
    census = factorizer.ghost_census(cfg.n_target, cfg.m_terms, cfg.threshold, cfg.l_min,
                                     _l_max(cfg, cfg.l_min, cfg.l_min, "--l-min"))
    doc = {
        "n": cfg.n_target,
        "m_terms": cfg.m_terms,
        "threshold": cfg.threshold,
        "ghosts": census.ghosts,
        "count": census.count,
    }
    _emit(cfg, doc, "json")
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

    def add(command: str, help: str, *flags: str) -> None:
        sp = sub.add_parser(command, help=help)
        for name in flags:
            flag = _FLAGS[name]
            sp.add_argument(name, dest=flag.field, type=flag.type,
                            required=command in flag.required_by, **flag.options)

    add("scan", "continuous-sum scan over a xi grid", "--n", "--dm", "--m-terms", "--xi-min",
        "--xi-max", "--step", "--workers", "--a", "--b", "--output", "--format")
    add("factor", "run a factor-extraction scheme", "--n", "--dm", "--m-terms", "--step",
        "--l-max", "--scheme", "--peak-factor", "--zero-factor", "--threshold", "--output",
        "--format")
    add("reciprocate", "complete reciprocate series", "--n", "--l-max", "--samples", "--seed",
        "--output", "--format")
    add("nslit", "N-slit pattern (CSV) or factor sweep (JSON)", "--n", "--xi-min", "--xi-max",
        "--step", "--l-max", "--l", "--spread-threshold", "--output")
    add("ghost", "ghost-factor census of the truncated sum (JSON)", "--n", "--m-terms",
        "--l-min", "--l-max", "--threshold", "--output")
    add("verify", "run the named verification suites", "--suite")
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
    """Execute a configured command; deterministic for fixed config and seed.
    Every set field is checked against its flag's accepted values first."""
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    for name, flag in _FLAGS.items():
        value = getattr(cfg, flag.field)
        if value is None:
            if cfg.command in flag.required_by:
                raise ConfigError(f"{cfg.command} needs {name}")
        elif flag.values is not None and not flag.values.test(value):
            raise ConfigError(f"{name} {flag.values.rule}")
    try:
        return _COMMANDS[cfg.command](cfg)
    except factorizer.GridTooLarge as exc:
        raise ConfigError(f"too many grid points: --step {cfg.step!r} over {_grid_span(cfg)} "
                          f"makes {exc.count:.3g} points, which do not fit in memory") from None
    except factorizer.GridRepeats:
        raise ConfigError(f"xi grid must be strictly increasing: --step {cfg.step!r} over "
                          f"{_grid_span(cfg)} is below the spacing of floats near its "
                          "points") from None


def _joined_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with each negative number that follows a flag joined to it, as
    --flag=-1e5.  argparse reads only -digits[.digits] as a negative number
    and any other word that starts with "-" as a flag, so -1e5, -1e-3 and
    -inf would not reach the flag's type."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_number(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_negative_number(arg: str) -> bool:
    """Whether arg is a float written with a leading minus."""
    try:
        float(arg)
    except ValueError:
        return False
    return arg.startswith("-")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_joined_negative_values(sys.argv[1:] if argv is None else argv))
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
