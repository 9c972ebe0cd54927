"""Self-check suites: each named suite cross-validates one analytic layer
against an independent brute-force route and reports pass/fail.

Bounded exhaustive sweeps are used wherever the cost allows; the largest
domains are covered by a fixed-seed sample of documented size.
"""

from __future__ import annotations

import math
import random
import time
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


def _result(name: str, failures: list[str], t0: float, worst: _Worst) -> SuiteResult:
    ok = not failures
    detail = f"ok, worst {worst.ratio:.2g} of tolerance" if ok else "; ".join(failures[:5])
    return SuiteResult(name, ok, detail, time.perf_counter() - t0)


def check_closedform() -> SuiteResult:
    t0 = time.perf_counter()
    failures = []
    worst = _Worst()
    for b in range(1, 1001):
        if worst.over(abs(gausssums.standard_gauss(1, b) - closedform.g1b_closed(b)), 1e-8):
            failures.append(f"g1b mismatch at b={b}")
    # brute-force G(a, b) for every coprime a at once, one sweep per b
    for b in range(1, 502, 2):
        coprime = [a for a in range(1, b) if math.gcd(a, b) == 1]
        brute = gausssums.standard_gauss(np.array(coprime, dtype=np.int64), b)
        closed = np.array([closedform.gab_closed(a, b) for a in coprime])
        for i in np.flatnonzero(worst.over(np.abs(brute - closed), 1e-8)):
            failures.append(f"gab mismatch at (a={coprime[i]}, b={b})")
    rng = random.Random(20)
    for _ in range(300):
        b = rng.randint(1, 400)
        a = rng.randint(1, 4 * b)
        p, ar, br = closedform.factor_out(a, b)
        lhs = gausssums.standard_gauss(a, b)
        rhs = p * gausssums.standard_gauss(ar, br)
        if worst.over(abs(lhs - rhs), 1e-9):
            failures.append(f"factor_out identity fails at (a={a}, b={b})")
    return _result("closedform", failures, t0, worst)


# number of random (N, l) pairs of the reciprocity check, and their seed
_RECIPROCITY_PAIRS, _RECIPROCITY_SEED = 500, 11


def check_reciprocity() -> SuiteResult:
    t0 = time.perf_counter()
    failures = []
    worst = _Worst()
    rng = random.Random(_RECIPROCITY_SEED)
    for _ in range(_RECIPROCITY_PAIRS):
        n = rng.randint(2, 2000)
        l = rng.randint(1, n)
        diff = abs(
            gausssums.reciprocate_complete(n, l) - closedform.reciprocity_transform(n, l)
        )
        if worst.over(diff, 1e-8):
            failures.append(f"reciprocity mismatch at (N={n}, l={l}): {diff:.2e}")
    # modulus predictor against brute force: full sweep for small odd N,
    # sampled arguments for every odd N up to 2001, one sum sweep per N
    def check_moduli(n: int, ls: list[int]) -> None:
        sums = gausssums.reciprocate_complete_sweep(n, ls).tolist()
        for l, value in zip(ls, sums):
            diff = abs(abs(value) - closedform.predict_reciprocate_modulus(n, l).value)
            if worst.over(diff, 1e-9):
                failures.append(f"reciprocate modulus mismatch at (N={n}, l={l})")

    for n in range(3, 202, 2):
        check_moduli(n, list(range(1, n + 1)))
    for n in range(203, 2002, 2):
        check_moduli(n, list({rng.randint(1, n) for _ in range(8)}
                             | {d for d in range(2, min(n, 60)) if n % d == 0}))
    return _result("reciprocity", failures, t0, worst)


def check_wtilde() -> SuiteResult:
    t0 = time.perf_counter()
    failures = []
    worst = _Worst()
    for r in range(1, 65):
        for a in range(1, 2 * r):
            if math.gcd(a, r) != 1:
                continue
            # every c in [0, 2r) with a r - c even, one row each
            cs = np.arange((a * r) % 2, 2 * r, 2)
            vals = np.abs(gausssums.wtilde_b_sweep(a, cs, r)) ** 2
            dev = np.max(np.abs(vals - 1.0 / r), axis=1)
            for c in cs[worst.over(dev, 1e-10)]:
                failures.append(f"wtilde theorem fails at (a={a}, c={c}, r={r})")
    for r in range(2, 51, 2):
        for q in range(1, r):
            if math.gcd(q, r) != 1:
                continue
            # finite_w(q, r, m) for every m is the row wtilde(2q, m, 0, r)
            brute = np.abs(gausssums.wtilde_b_sweep(2 * q, 0, r))
            pred = np.array([closedform.predict_finite_w_modulus(q, r, m) for m in range(r)])
            for m in np.flatnonzero(worst.over(np.abs(brute - pred), 1e-9)):
                failures.append(f"parity table fails at (q={q}, r={r}, m={m})")
    return _result("wtilde", failures, t0, worst)


def check_decomposition() -> SuiteResult:
    t0 = time.perf_counter()
    failures = []
    worst = _Worst()
    w = WeightProfile(delta_m=10.0, m_max=40)
    for b, q, r in ((33, 1, 11), (33, 1, 3), (51, 7, 35)):
        spec = ContinuousSpec(1.0, float(b))
        center = q * b / r
        for xi in np.linspace(center - 0.5, center + 0.5, 50):
            direct = gausssums.continuous_sum(float(xi), spec, w)
            decomp = decomposition.decomposed_sum(float(xi), q, r, spec, w)
            if worst.over(abs(direct - decomp), 1e-6):
                failures.append(f"decomposition mismatch at (B={b}, q={q}, r={r}, xi={xi:.3f})")
    return _result("decomposition", failures, t0, worst)


def check_nslit() -> SuiteResult:
    t0 = time.perf_counter()
    failures = []
    worst = _Worst()
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
    return _result("nslit", failures, t0, worst)


def check_ring() -> SuiteResult:
    t0 = time.perf_counter()
    failures = []
    worst = _Worst()
    for n in range(2, 200):
        if not is_prime(n) or n == 2:
            continue
        root_n = math.sqrt(n)
        for k in range(1, n - 1):
            chi = gausssums.CharacterSpec(n, k)
            g1 = gausssums.ring_gauss(chi, 1)
            if worst.over(abs(abs(g1) - root_n), 1e-8):
                failures.append(f"|G| != sqrt(n) at (n={n}, k={k})")
            # G(chi, beta) for every beta from one sweep; chi(1) = 1, so the
            # reduction identity at beta = 1 compares the sweep with the
            # scalar ring_gauss(chi, 1)
            g = gausssums.ring_gauss_sweep(chi)[1:]
            inv = gausssums._char_values(chi)[1:].conj()
            bad_modulus = worst.over(np.abs(np.abs(g) - root_n), 1e-8)
            bad_reduction = worst.over(np.abs(g - inv * g1), 1e-8)
            for i in np.flatnonzero(bad_modulus | bad_reduction):
                beta = i + 1
                if bad_modulus[i]:
                    failures.append(f"|G| != sqrt(n) at (n={n}, k={k}, beta={beta})")
                if bad_reduction[i]:
                    failures.append(f"reduction identity fails at (n={n}, k={k}, beta={beta})")
    return _result("ring", failures, t0, worst)


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
