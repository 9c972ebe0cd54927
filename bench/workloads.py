"""Seeded workloads and output checks for the gaussfactor benchmark.

A workload turns a seed into a list of CLI operations: argv lists for
`gaussfactor.cli.main`.  The program only ever sees the generated argv.
Every operation carries what a correct answer looks like, and `check`
compares the program's output against it without importing the program.

Seeds change which inputs are used, not how much work they make: each
workload draws its numbers from narrow ranges or from equal strata of a
wide range, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SUITES = ("closedform", "reciprocity", "wtilde", "decomposition", "nslit", "ring")
SCAN_SAMPLE_ROWS = 128


@dataclass(frozen=True)
class Op:
    """One CLI operation and the facts its output is checked against."""

    argv: tuple[str, ...]
    kind: str  # continuous, scan, reciprocate, truncated, ghost, lines, nslit, verify
    n: int = 0
    l_max: int = 0
    items: int = 0  # stated work units: grid points, CSV rows, divisors, suites
    output: str | None = None  # --output file, relative to GAUSSFACTOR_OUTDIR

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def margin2_width(n: int) -> float:
    """Margin-2 weight width, 2N/sqrt(8); the same float as
    gaussfactor.decomposition.recommend_weight_width(N, 2)."""
    return 2 * n / math.sqrt(8.0)


def grid_count(xi_min: float, xi_max: float, step: float) -> int:
    """Number of points of the scan grid xi_min + step * i, as the program builds it."""
    return int(math.floor((xi_max - xi_min) / step + 1e-9)) + 1


def divisors(n: int, lo: int, hi: int) -> list[int]:
    return [d for d in range(lo, hi + 1) if n % d == 0]


def continuous_factor(seed: int) -> Op:
    # 201, 203 and 205 are the odd composites of 199..205.  Work grows like
    # N^2, so this narrow set keeps the operation within 4% across seeds.
    n = (201, 203, 205)[seed % 3]
    dm = margin2_width(n)
    argv = ("factor", "--scheme", "continuous", "--format", "json",
            "--n", str(n), "--dm", repr(dm))
    # factorizer scans [1, N] at the default step 0.01
    return Op(argv, "continuous", n=n, items=grid_count(1.0, float(n), 0.01))


def narrow_scan(seed: int) -> Op:
    n = 1001 + 2 * (0, 1, -1, 2, -2, 3, -3)[seed % 7]
    argv = ("scan", "--n", str(n), "--dm", "4", "--xi-min", "2", "--xi-max", str(n - 1),
            "--step", "0.004", "--workers", "2", "--output", f"scan_{n}.csv")
    return Op(argv, "scan", n=n, items=grid_count(2.0, float(n - 1), 0.004),
              output=f"scan_{n}.csv")


def continuous_kernel(seed: int) -> list[Op]:
    """Both shapes of the continuous kernel: broad weights on a short grid
    (20001 x 1139 at N=201), then narrow weights on a long grid written as CSV
    (~250k rows x 33 terms)."""
    return [continuous_factor(seed), narrow_scan(seed)]


def _strata(rng: random.Random, lo: int, hi: int, count: int, odd: bool) -> list[int]:
    """One draw from each of `count` equal strata of [lo, hi]."""
    out = []
    width = (hi - lo + 1) / count
    for i in range(count):
        a = lo + math.ceil(i * width)
        b = lo + math.ceil((i + 1) * width) - 1
        v = rng.randint(a, b)
        if odd and v % 2 == 0:
            v = v + 1 if v < b else v - 1
        out.append(v)
    return out


def integer_schemes(seed: int) -> list[Op]:
    rng = random.Random(f"integer_schemes:{seed}")
    ops = []
    for n in _strata(rng, 100_000, 1_000_000, 24, odd=True):
        lm = math.isqrt(n)
        common = ("--n", str(n), "--l-max", str(lm))
        ops.append(Op(("factor", "--scheme", "reciprocate", "--format", "json") + common,
                      "reciprocate", n=n, l_max=lm, items=lm))
        ops.append(Op(("factor", "--scheme", "truncated", "--m-terms", "20", "--format", "json")
                      + common, "truncated", n=n, l_max=lm, items=lm - 1))
        ops.append(Op(("ghost", "--m-terms", "20") + common,
                      "ghost", n=n, l_max=lm, items=lm - 1))
    # `factor --scheme lines` rather than the duplicate `lines` subcommand
    for n in _strata(rng, 200, 600, 6, odd=False):
        ops.append(Op(("factor", "--scheme", "lines", "--format", "json", "--n", str(n),
                       "--dm", repr(margin2_width(n))), "lines", n=n, items=n))
    for n in _strata(rng, 31, 201, 8, odd=True):
        lm = math.isqrt(n)
        ops.append(Op(("nslit", "--n", str(n), "--l-max", str(lm)),
                      "nslit", n=n, l_max=lm, items=lm - 1))
    return ops


def verify_all(seed: int) -> list[Op]:
    """Every verify suite, one operation each, so each has its own latency."""
    del seed  # the suites fix their own seeds
    return [Op(("verify", "--suite", s), "verify", items=1) for s in SUITES]


WORKLOADS = {
    "continuous_kernel": continuous_kernel,
    "integer_schemes": integer_schemes,
    "verify_all": verify_all,
}


# -- checks -------------------------------------------------------------------


def output_bytes(op: Op, stdout: str, outdir: Path) -> bytes:
    data = stdout.encode()
    if op.output is not None:
        data += (outdir / op.output).read_bytes()
    return data


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(op: Op, rc: int | None, stdout: str, outdir: Path) -> str | None:
    """Return why the output is wrong, or None when it is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[op.kind](op, stdout, outdir)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable output: {exc!r}"


def _check_report(op: Op, stdout: str, exact: list[int] | None, candidates: int) -> str | None:
    doc = json.loads(stdout)
    if doc["n"] != op.n:
        return f"report for n={doc['n']}, expected {op.n}"
    if len(doc["candidates"]) != candidates:
        return f"{len(doc['candidates'])} candidates, expected {candidates}"
    factors = doc["factors"]
    if exact is not None and factors != exact:
        return f"factors {factors}, expected {exact}"
    bad = [f for f in factors if not 1 < f < op.n or op.n % f]
    return f"factors {bad} do not divide {op.n}" if bad else None


def _check_continuous(op, stdout, outdir):
    return _check_report(op, stdout, divisors(op.n, 2, op.n - 1), op.n - 2)


def _check_reciprocate(op, stdout, outdir):
    return _check_report(op, stdout, divisors(op.n, 2, op.l_max), op.l_max)


def _check_truncated(op, stdout, outdir):
    return _check_report(op, stdout, None, op.l_max - 1)


def _check_lines(op, stdout, outdir):
    return _check_report(op, stdout, None, op.n)


def _check_ghost(op, stdout, outdir):
    doc = json.loads(stdout)
    ghosts = doc["ghosts"]
    bad = [g for g in ghosts if not 2 <= g <= op.l_max or op.n % g == 0]
    if bad or doc["count"] != len(ghosts) or doc["n"] != op.n:
        return f"ghost census inconsistent: {bad or doc['count']}"
    return None


def _check_nslit(op, stdout, outdir):
    doc = json.loads(stdout)
    want = divisors(op.n, 2, op.l_max)
    if len(doc["rows"]) != op.l_max - 1:
        return f"{len(doc['rows'])} rows, expected {op.l_max - 1}"
    if doc["factors"] != want:
        return f"factors {doc['factors']}, expected {want}"
    return None


def _check_verify(op, stdout, outdir):
    status = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            status[parts[0]] = parts[1]
    wanted = op.argv[op.argv.index("--suite") + 1:]
    bad = [s for s in wanted if status.get(s) != "PASS"]
    return f"suites not passing: {bad}" if bad else None


def scan_params(op: Op) -> tuple[float, float, float, float]:
    """(dm, xi_min, step, B) of a scan operation."""
    a = op.argv
    dm, xi_min, step = (float(a[a.index(flag) + 1]) for flag in ("--dm", "--xi-min", "--step"))
    return dm, xi_min, step, float(op.n)


def reference_row(xi: float, dm: float, b: float) -> tuple[float, float, float]:
    """Continuous sum at xi with A = 1, by exact phase reduction: the phase
    xi*(m + m^2/B) is reduced mod 1 as a Fraction, then math.cos/sin."""
    m_max = math.ceil(4 * dm)
    ms = range(-m_max, m_max + 1)
    raw = [math.exp(-0.5 * (m / dm) ** 2) for m in ms]
    norm = math.fsum(raw)
    x = Fraction(xi)
    bf = Fraction(b)
    re, im = [], []
    for m, w in zip(ms, raw):
        t = x * (m + Fraction(m * m) / bf)
        frac = float(t - math.floor(t))
        re.append(w / norm * math.cos(2 * math.pi * frac))
        im.append(w / norm * math.sin(2 * math.pi * frac))
    s_re, s_im = math.fsum(re), math.fsum(im)
    return s_re, s_im, s_re * s_re + s_im * s_im


def _twelve_digits(printed: float, ref: float) -> bool:
    """True when a %.12g value agrees with the reference to its printed digits:
    within one unit of the 12th significant digit, or 1e-14 absolute where
    cancellation leaves fewer than 12 meaningful digits."""
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 11) if ref else 0.0
    return abs(printed - ref) <= max(unit, 1e-14)


def scan_sample(op: Op, count: int) -> list[int]:
    rng = random.Random(f"scan_rows:{op.key}")
    return sorted({0, count - 1} | set(rng.sample(range(count), SCAN_SAMPLE_ROWS)))


def _check_scan(op, stdout, outdir):
    dm, xi_min, step, b = scan_params(op)
    lines = (outdir / op.output).read_text().split("\n")
    if lines[0] != "xi,re,im,abs2" or lines[-1] != "" or len(lines) != op.items + 2:
        return f"CSV has {len(lines) - 2} rows, expected {op.items}"
    for i in scan_sample(op, op.items):
        xi = xi_min + step * i
        fields = lines[i + 1].split(",")
        if fields[0] != f"{xi:.12g}":
            return f"row {i}: xi {fields[0]}, expected {xi:.12g}"
        for printed, ref in zip(fields[1:], reference_row(xi, dm, b)):
            if not _twelve_digits(float(printed), ref):
                return f"row {i}: {lines[i + 1]} differs from reference {ref!r}"
    return None


_CHECKS = {
    "continuous": _check_continuous,
    "scan": _check_scan,
    "reciprocate": _check_reciprocate,
    "truncated": _check_truncated,
    "ghost": _check_ghost,
    "lines": _check_lines,
    "nslit": _check_nslit,
    "verify": _check_verify,
}
