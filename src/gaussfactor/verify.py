"""Self-check suites: each named suite cross-validates one analytic layer
against an independent brute-force route and reports pass/fail.

Bounded exhaustive sweeps are used wherever the cost allows; the largest
domains are covered by a fixed-seed sample of documented size.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import closedform, decomposition, gausssums, nslit
from .gausssums import ContinuousSpec, WeightProfile
from .numtheory import is_prime


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Worst:
    """Running maximum of |deviation| / tolerance over one suite's checks."""

    def __init__(self) -> None:
        self.ratio = 0.0

    def over(self, dev, tol: float):
        """Record deviations (a number or an array) against tol; True where
        dev is not below tol, so a NaN deviation fails too.  np.maximum keeps
        a NaN in the ratio, where max() would drop it and report 0."""
        peak = dev.max(initial=0.0) if isinstance(dev, np.ndarray) else dev
        self.ratio = float(np.maximum(self.ratio, peak / tol))
        return np.logical_not(dev < tol)


def _suite(body: Callable[[list[str], _Worst], None]) -> Callable[[], SuiteResult]:
    """The suite check_<name>: body(failures, worst) appends a message per
    failed check, timed and reported as the SuiteResult of <name>."""
    name = body.__name__.removeprefix("check_")

    @functools.wraps(body)
    def check() -> SuiteResult:
        t0 = time.perf_counter()
        failures = []
        worst = _Worst()
        body(failures, worst)
        ok = not failures
        detail = f"ok, worst {worst.ratio:.2g} of tolerance" if ok else "; ".join(failures[:5])
        return SuiteResult(name, ok, detail, time.perf_counter() - t0)

    return check


def _gauss_sums(a, b) -> np.ndarray:
    """G(a, b) elementwise over integer arrays: one _period_sums row per
    element, with the bits of standard_gauss(a, b)."""
    return gausssums._period_sums(gausssums._reduced(a, b), b)


@_suite
def check_closedform(failures: list[str], worst: _Worst) -> None:
    bs = np.arange(1, 1001)
    diff = _gauss_sums(np.ones_like(bs), bs) - closedform.g1b_closed(bs)
    for b in bs[worst.over(np.hypot(diff.real, diff.imag), 1e-8)]:
        failures.append(f"g1b mismatch at b={b}")
    # brute-force G(a, b) for every coprime a at once, one sweep per b; the
    # closed forms of a run of b, at most _SWEEP_PHASORS values, in one call
    coprimes = []
    for b in range(1, 502, 2):
        a = np.arange(1, b)
        coprimes.append((a[np.gcd(a, b) == 1], b))
    for run in gausssums._blocks([len(a) for a, _ in coprimes]):
        a_run, b_run = zip(*coprimes[run])
        sizes = [len(a) for a in a_run]
        closed = closedform.gab_closed(np.concatenate(a_run), np.repeat(b_run, sizes))
        for a, b, part in zip(a_run, b_run, np.split(closed, np.cumsum(sizes)[:-1])):
            dev = np.abs(gausssums.standard_gauss(a, b) - part)
            for i in np.flatnonzero(worst.over(dev, 1e-8)):
                failures.append(f"gab mismatch at (a={a[i]}, b={b})")
    # the 300 draws: G(a, b) and G(a/p, b/p) in one call
    rng = random.Random(20)
    draws = []
    for _ in range(300):
        b = rng.randint(1, 400)
        a = rng.randint(1, 4 * b)
        draws.append((a, b, *closedform.factor_out(a, b)))
    a, b, p, ar, br = np.array(draws).T
    g = _gauss_sums(np.concatenate([a, ar]), np.concatenate([b, br]))
    diff = g[:len(a)] - p * g[len(a):]
    for i in np.flatnonzero(worst.over(np.hypot(diff.real, diff.imag), 1e-9)):
        failures.append(f"factor_out identity fails at (a={a[i]}, b={b[i]})")


# number of random (N, l) pairs of the reciprocity check, and their seed
_RECIPROCITY_PAIRS, _RECIPROCITY_SEED = 500, 11
# modulus-check rows (N, l) per sweep and predictor call
_MODULUS_ROWS = 2048


def _modulus_rows(rng: random.Random) -> Iterator[tuple[int, int]]:
    """The (N, l) rows of the reciprocate modulus check: every l for small
    odd N, sampled arguments and small divisors for every odd N up to 2001."""
    for n in range(3, 202, 2):
        for l in range(1, n + 1):
            yield n, l
    for n in range(203, 2002, 2):
        for l in ({rng.randint(1, n) for _ in range(8)}
                  | {d for d in range(2, min(n, 60)) if n % d == 0}):
            yield n, l


@_suite
def check_reciprocity(failures: list[str], worst: _Worst) -> None:
    rng = random.Random(_RECIPROCITY_SEED)
    pairs = []
    for _ in range(_RECIPROCITY_PAIRS):
        n = rng.randint(2, 2000)
        pairs.append((n, rng.randint(1, n)))
    ns, ls = np.array(pairs).T
    diff = (gausssums.reciprocate_complete_sweep(ns, ls)
            - closedform.reciprocity_transform(ns, ls))
    diff = np.hypot(diff.real, diff.imag)
    for i in np.flatnonzero(worst.over(diff, 1e-8)):
        failures.append(f"reciprocity mismatch at (N={ns[i]}, l={ls[i]}): {diff[i]:.2e}")
    # modulus predictor against brute force: one sum sweep and one predictor
    # call per _MODULUS_ROWS rows
    rows = itertools.chain.from_iterable(_modulus_rows(rng))
    while len(block := np.fromiter(itertools.islice(rows, 2 * _MODULUS_ROWS), np.int64)):
        ns, ls = block.reshape(-1, 2).T
        sums = gausssums.reciprocate_complete_sweep(ns, ls)
        pred, _ = closedform.predict_reciprocate_moduli(ns, ls)
        diff = np.abs(np.hypot(sums.real, sums.imag) - pred)
        for i in np.flatnonzero(worst.over(diff, 1e-9)):
            failures.append(f"reciprocate modulus mismatch at (N={ns[i]}, l={ls[i]})")


@_suite
def check_wtilde(failures: list[str], worst: _Worst) -> None:
    for r in range(1, 65):
        a_all = np.arange(1, 2 * r)
        a_all = a_all[np.gcd(a_all, r) == 1]
        bad = []
        # every a whose a r has one parity shares the c in [0, 2r) with
        # a r - c even; the rows (a, c) of a run of a, at most _SWEEP_PHASORS
        # phasors, take one sweep
        for parity in (0, 1):
            cs = np.arange(parity, 2 * r, 2)
            a_par = a_all[(a_all * r) % 2 == parity]
            for run in gausssums._blocks([len(cs) * r] * len(a_par)):
                a = a_par[run]
                vals = np.abs(gausssums.wtilde_b_sweep(a[:, None], cs, r)) ** 2
                dev = np.max(np.abs(vals - 1.0 / r), axis=-1)
                bad += [(a[i], cs[j]) for i, j in np.argwhere(worst.over(dev, 1e-10))]
        failures += [f"wtilde theorem fails at (a={a}, c={c}, r={r})" for a, c in sorted(bad)]
    for r in range(2, 51, 2):
        qs = np.arange(1, r)
        qs = qs[np.gcd(qs, r) == 1]
        # finite_w(q, r, m) for every m is the row wtilde(2q, m, 0, r)
        brute = np.abs(gausssums.wtilde_b_sweep(2 * qs, 0, r))
        pred = closedform.predict_finite_w_modulus(qs[:, None], r, np.arange(r))
        for i, m in np.argwhere(worst.over(np.abs(brute - pred), 1e-9)):
            failures.append(f"parity table fails at (q={qs[i]}, r={r}, m={m})")


@_suite
def check_decomposition(failures: list[str], worst: _Worst) -> None:
    w = WeightProfile(delta_m=10.0, m_max=40)
    for b, q, r in ((33, 1, 11), (33, 1, 3), (51, 7, 35)):
        spec = ContinuousSpec(1.0, float(b))
        center = q * b / r
        xis = np.linspace(center - 0.5, center + 0.5, 50)
        diff = (gausssums.continuous_sum_grid(xis, spec, w)
                - decomposition.decomposed_sum(xis, q, r, spec, w))
        for xi in xis[worst.over(np.hypot(diff.real, diff.imag), 1e-6)]:
            failures.append(f"decomposition mismatch at (B={b}, q={q}, r={r}, xi={xi:.3f})")


@_suite
def check_nslit(failures: list[str], worst: _Worst) -> None:
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 60)
        l = rng.randint(1, 12)
        xi = rng.uniform(-3, 3 + l)
        cfg = nslit.NSlitConfig(n, l)
        direct = nslit.green_sum(xi, cfg)
        related = nslit.relating_phase(xi, cfg) * nslit.decomposed_green(xi, cfg)
        if worst.over(abs(direct - related), 1e-9):
            failures.append(f"green decomposition mismatch at (N={n}, l={l}, xi={xi:.3f})")
    for n in range(3, 202, 2):
        for row in nslit.nslit_factor_test(n, math.isqrt(n)):
            if row.is_factor_flag and not row.divides:
                failures.append(f"unsound slit flag: N={n}, l={row.l}")


@_suite
def check_ring(failures: list[str], worst: _Worst) -> None:
    for n in range(3, 200, 2):
        if not is_prime(n):
            continue
        root_n = math.sqrt(n)
        phases = gausssums._root_table(n)
        ks = np.arange(1, n - 1)
        # the characters of a run of k, at most _SWEEP_PHASORS values, as one
        # table: G(chi, 1) as its row sums, G(chi, beta) for every beta from
        # one inverse FFT; chi(1) = 1, so the reduction identity at beta = 1
        # compares the two
        for run in gausssums._blocks([n] * len(ks)):
            chars = gausssums._char_rows(n, ks[run])
            g1 = (chars * phases).sum(axis=1)
            g = gausssums._ring_sweeps(chars)[:, 1:]
            # G(chi, beta) - conj(chi(beta)) G(chi, 1), in the characters' place
            dev = np.conjugate(chars[:, 1:], out=chars[:, 1:])
            dev *= g1[:, None]
            np.subtract(g, dev, out=dev)
            bad_g1 = worst.over(np.abs(np.hypot(g1.real, g1.imag) - root_n), 1e-8)
            bad_modulus = worst.over(np.abs(np.abs(g) - root_n), 1e-8)
            bad_reduction = worst.over(np.abs(dev), 1e-8)
            for i in np.flatnonzero(bad_g1 | (bad_modulus | bad_reduction).any(axis=1)):
                k = ks[run][i]
                if bad_g1[i]:
                    failures.append(f"|G| != sqrt(n) at (n={n}, k={k})")
                for j in np.flatnonzero(bad_modulus[i] | bad_reduction[i]):
                    beta = j + 1
                    if bad_modulus[i, j]:
                        failures.append(f"|G| != sqrt(n) at (n={n}, k={k}, beta={beta})")
                    if bad_reduction[i, j]:
                        failures.append(f"reduction identity fails at (n={n}, k={k}, beta={beta})")


SUITES = {
    "closedform": check_closedform,
    "reciprocity": check_reciprocity,
    "wtilde": check_wtilde,
    "decomposition": check_decomposition,
    "nslit": check_nslit,
    "ring": check_ring,
}


def run(names: list[str] | None = None) -> list[SuiteResult]:
    """Run the named suites once each, in the order first named; "all"
    anywhere in names (or no names) runs every suite."""
    names = list(SUITES) if names is None else names
    unknown = [n for n in names if n not in SUITES and n != "all"]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    if "all" in names:
        names = list(SUITES)
    return [SUITES[n]() for n in dict.fromkeys(names)]
