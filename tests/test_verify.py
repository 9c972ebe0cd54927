"""The verify suites: each batched oracle still fails, at the exact point,
when one identity is broken; the batched evaluators agree with the scalar
ones; the suites keep bounded memory; and `run` runs each named suite once."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from gaussfactor import cli, closedform, decomposition, nslit, verify
from gaussfactor import gausssums as gs

HEADROOM = re.compile(r"ok, worst (\S+) of tolerance")


def old_gab_brute(a, b):
    """The per-a brute force G(a, b): each exact residue (a m^2) mod b
    exponentiated on its own, as the closedform suite did before batching."""
    m2 = np.arange(b, dtype=np.int64)
    m2 = (m2 * m2) % b
    return np.exp(2j * np.pi * (((a * m2) % b) / b)).sum()


class TestBrokenIdentityFails:
    def test_closedform_names_the_point(self, monkeypatch):
        real = closedform.gab_closed

        def off(a, b):
            return real(a, b) + 1e-7 * ((a == 3) & (b == 7))

        monkeypatch.setattr(closedform, "gab_closed", off)
        r = verify.check_closedform()
        assert not r.passed
        assert r.detail == "gab mismatch at (a=3, b=7)"

    def test_closedform_brute_force_bitwise_unchanged(self, monkeypatch):
        # closed forms replaced by the exact values the brute force is
        # compared with: every deviation of the suite must be exactly zero
        monkeypatch.setattr(closedform, "gab_closed", lambda a, b: np.array(
            [old_gab_brute(int(x), int(y)) for x, y in np.broadcast(a, b)]))
        monkeypatch.setattr(closedform, "g1b_closed", lambda bs: np.array(
            [gs.standard_gauss(1, int(b)) for b in bs]))
        monkeypatch.setattr(closedform, "factor_out", lambda a, b: (1, a, b))
        r = verify.check_closedform()
        assert r.passed
        assert r.detail == "ok, worst 0 of tolerance"

    def test_wtilde_names_the_points(self, monkeypatch):
        real = gs.wtilde_b_sweep

        def scaled(a, c, r, b_values=None):
            out = real(a, c, r, b_values)
            return out * 1.001 if r == 5 else out

        monkeypatch.setattr(gs, "wtilde_b_sweep", scaled)
        r = verify.check_wtilde()
        assert not r.passed
        assert r.detail == "; ".join(
            f"wtilde theorem fails at (a=1, c={c}, r=5)" for c in (1, 3, 5, 7, 9)
        )

    def test_ring_names_the_character(self, monkeypatch):
        real = gs._char_rows

        def negated(n, ks):
            rows = real(n, ks)
            if n == 13:
                hit = np.asarray(ks) == 4
                rows[hit, 2] = -rows[hit, 2]
            return rows

        monkeypatch.setattr(gs, "_char_rows", negated)
        r = verify.check_ring()
        assert not r.passed
        messages = r.detail.split("; ")
        assert len(messages) == 5
        assert all("(n=13, k=4" in m for m in messages)
        assert messages[0] == "|G| != sqrt(n) at (n=13, k=4)"

    def test_ring_names_the_beta(self, monkeypatch):
        real = gs._ring_sweeps
        broken = gs._char_values(gs.CharacterSpec(13, 4))

        def bumped(rows):
            out = real(rows)
            for i, row in enumerate(rows):
                if np.array_equal(row, broken):
                    out[i, 5] *= 1.001
            return out

        monkeypatch.setattr(gs, "_ring_sweeps", bumped)
        r = verify.check_ring()
        assert not r.passed
        assert r.detail == (
            "|G| != sqrt(n) at (n=13, k=4, beta=5); "
            "reduction identity fails at (n=13, k=4, beta=5)"
        )


class TestDecompositionCalls:
    def test_one_call_per_peak(self, monkeypatch):
        # one decomposed_sum call, one window row and one tail kernel call
        # per (B, q, r), not one per point
        calls = []

        def counted(module, attr):
            real = getattr(module, attr)

            def wrapper(*args):
                calls.append(attr)
                return real(*args)
            monkeypatch.setattr(module, attr, wrapper)

        names = ("decomposed_sum", "wtilde_b_sweep", "_real_sums")
        for attr in names:
            counted(decomposition, attr)
        assert verify.check_decomposition().passed
        assert [calls.count(a) for a in names] == [3, 3, 3]


def nan_at(real, hit):
    """`real`, but NaN wherever hit(*args) holds."""
    def patched(*args):
        return complex(math.nan, 0.0) if hit(*args) else real(*args)
    return patched


def nan_where(real, hit):
    """The array function `real`, but NaN wherever the elementwise
    hit(*args), broadcast to the result, holds."""
    def patched(*args):
        out = real(*args)
        out[np.broadcast_to(hit(*args), out.shape)] = complex(math.nan, 0.0)
        return out
    return patched


def nan_in_sweep(real, hit):
    """The sweep `real(n, ls)`, but NaN at each (N, l) where the elementwise
    hit(n, l) holds; n may be one N or an array of one N per l, as the suite
    passes it."""
    def patched(n, ls):
        out = real(n, ls)
        mask = hit(np.asarray(n), np.asarray(ls))
        out[np.broadcast_to(mask, out.shape)] = complex(math.nan, 0.0)
        return out
    return patched


def nan_in_b_sweep(real, hit):
    """The sweep `real(a, c, r, b_values)`, but NaN at each (a, c, b) where the
    elementwise hit(a, c, r, b) holds; a and c may be arrays, as the suite
    passes them."""
    def patched(a, c, r, b_values=None):
        out = real(a, c, r, b_values)
        b = np.arange(r) if b_values is None else np.asarray(b_values)
        mask = hit(np.asarray(a)[..., None], np.asarray(c)[..., None], r, b)
        out[np.broadcast_to(mask, out.shape)] = complex(math.nan, 0.0)
        return out
    return patched


class TestNonFiniteFails:
    """A NaN from any evaluator fails its suite: `dev >= tol` is False for
    NaN, so each check asks `not dev < tol` instead."""

    CASES = {
        "closedform": (closedform, "g1b_closed", nan_where, lambda b: b == 5,
                       "g1b mismatch at b=5"),
        "reciprocity": (gs, "reciprocate_complete_sweep", nan_in_sweep,
                        lambda n, l: (n == 9) & (l == 3),
                        "reciprocate modulus mismatch at (N=9, l=3)"),
        "wtilde": (gs, "wtilde_b_sweep", nan_in_b_sweep,
                   lambda a, c, r, b: (a == 2) & (c == 0) & (r == 4) & (b == 1),
                   "parity table fails at (q=1, r=4, m=1)"),
        "decomposition": (decomposition, "decomposed_sum", nan_where,
                          lambda xi, q, r, spec, w: (q, r) == (7, 35),
                          "decomposition mismatch at (B=51, q=7, r=35, xi=9.700)"),
        "nslit": (nslit, "relating_phase", nan_at,
                  lambda xi, cfg: (cfg.n_slits, cfg.l_talbot) == (46, 3),
                  "green decomposition mismatch at (N=46, l=3, xi=2.613)"),
        # one NaN character value of chi_4 mod 13, so G(chi, 1) is NaN
        "ring": (gs, "_char_rows", nan_where,
                 lambda n, ks: (n == 13) & (np.asarray(ks)[:, None] == 4) & (np.arange(n) == 2),
                 "|G| != sqrt(n) at (n=13, k=4)"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_nan_evaluator_fails_the_suite(self, name, monkeypatch):
        module, attr, patch, hit, first = self.CASES[name]
        monkeypatch.setattr(module, attr, patch(getattr(module, attr), hit))
        r = verify.SUITES[name]()
        assert not r.passed
        assert "worst" not in r.detail
        assert r.detail.startswith(first)

    def test_worst_keeps_nan_and_fails_inf(self):
        worst = verify._Worst()
        assert list(worst.over(np.array([0.5, math.nan, 2.0]), 1.0)) == [False, True, True]
        assert math.isnan(worst.ratio)
        assert not worst.over(0.5, 1.0) and math.isnan(worst.ratio)
        assert verify._Worst().over(math.inf, 1.0)
        assert verify._Worst().over(math.nan, 1.0)


class TestRingGaussSweep:
    @pytest.mark.parametrize("n, ks", [(3, range(2)), (13, range(12)), (199, (0, 1, 2, 99, 197))])
    def test_matches_scalar_ring_gauss(self, n, ks):
        for k in ks:
            chi = gs.CharacterSpec(n, k)
            sweep = gs.ring_gauss_sweep(chi)
            assert sweep.shape == (n,)
            for beta in range(n):
                assert abs(sweep[beta] - gs.ring_gauss(chi, beta)) < 1e-12, (n, k, beta)


def wtilde_reference(a, b, c, r):
    """cmath sum with the phase numerator reduced mod 2r as a Python int."""
    return sum(
        cmath.exp(1j * cmath.pi * ((p * p * a + 2 * b * p + p * c) % (2 * r)) / r)
        for p in range(r)
    ) / r


class TestWtildeArrays:
    def test_rows_match_scalar_and_reference(self):
        r = 7
        a = np.array([1, 3, 13])[:, None]
        c = np.array([0, 5, 12, 20])[None, :]
        b_values = np.array([0, 2, 6, 9])
        out = gs.wtilde_b_sweep(a, c, r, b_values)
        assert out.shape == (3, 4, 4)
        for i, ai in enumerate(a[:, 0]):
            for j, cj in enumerate(c[0]):
                row = gs.wtilde_b_sweep(int(ai), int(cj), r, b_values)
                assert np.max(np.abs(out[i, j] - row)) < 1e-14
                for k, b in enumerate(b_values):
                    ref = wtilde_reference(int(ai), int(b), int(cj), r)
                    assert abs(out[i, j, k] - ref) < 1e-14

    @pytest.mark.parametrize("r", [1, 5, 8, 64])
    def test_block_of_a_has_the_per_a_bits(self, r):
        # the wtilde suite sweeps a run of a against every c of one parity
        parity = r % 2
        a = np.array([x for x in range(1, 2 * r) if math.gcd(x, r) == 1 and x * r % 2 == parity])
        cs = np.arange(parity, 2 * r, 2)
        block = gs.wtilde_b_sweep(a[:, None], cs, r)
        for i, x in enumerate(a.tolist()):
            row = gs.wtilde_b_sweep(x, cs, r)
            assert block[i].view(np.uint64).tolist() == row.view(np.uint64).tolist()

    def test_scalars_give_one_dimension(self):
        assert gs.wtilde_b_sweep(3, 1, 7).shape == (7,)
        assert gs.wtilde_b_sweep(3, 1, 7, np.array([0, 4])).shape == (2,)
        assert gs.wtilde_b_sweep(3, np.array([1, 3]), 7).shape == (2, 7)
        assert isinstance(gs.wtilde(3, 2, 1, 7), complex)

    def test_python_int_coefficients_reduced_exactly(self):
        a, c = 10**20 + 1, 2**70 + 3
        assert np.array_equal(gs.wtilde_b_sweep(a, c, 7), gs.wtilde_b_sweep(a % 14, c % 14, 7))


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_suite_memory_bounded(name):
    tracemalloc.start()
    try:
        r = verify.SUITES[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.passed, r.detail
    assert peak < 4 * 2**20


def test_passing_detail_reports_headroom():
    r = verify.check_decomposition()
    assert r.passed
    match = HEADROOM.fullmatch(r.detail)
    assert match and 0 < float(match.group(1)) < 1


class TestRunContract:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in verify.SUITES:
            def fake(name=name):
                calls.append(name)
                return verify.SuiteResult(name, True, "ok", 0.0)

            monkeypatch.setitem(verify.SUITES, name, fake)
        return calls

    def test_all_anywhere_runs_every_suite_once(self, calls):
        verify.run(["decomposition", "all", "ring"])
        assert calls == list(verify.SUITES)

    def test_default_runs_every_suite(self, calls):
        assert [r.name for r in verify.run()] == list(verify.SUITES)
        assert calls == list(verify.SUITES)

    def test_duplicates_run_once_in_first_order(self, calls):
        verify.run(["ring", "decomposition", "ring"])
        assert calls == ["ring", "decomposition"]

    def test_unknown_suite_message(self, calls):
        with pytest.raises(ValueError) as exc:
            verify.run(["ring", "bogus", "all"])
        assert str(exc.value) == "unknown suite(s): bogus"
        assert calls == []

    def test_cli_all_with_other_names(self, calls, capsys):
        assert cli.main(["verify", "--suite", "all", "decomposition"]) == 0
        assert calls == list(verify.SUITES)
        assert cli.main(["verify", "--suite", "nslit", "nslit"]) == 0
        assert calls[len(verify.SUITES):] == ["nslit"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            [name, "PASS"] for name in list(verify.SUITES) + ["nslit"]
        ]
