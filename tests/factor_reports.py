"""A FactorReport built from Candidate tuples, for tests that write a report
out by hand."""

import numpy as np

from gaussfactor.factorizer import Classification, FactorReport


def report_of(n_target, scheme, candidates, verified_factors, params=None):
    """The FactorReport whose columns hold the candidates, sorted by l."""
    rows = sorted(candidates)
    ls, measured, predicted, classes = zip(*rows) if rows else ((),) * 4
    codes = [list(Classification).index(c) for c in classes]
    return FactorReport(n_target, scheme, np.array(ls, dtype=np.int64),
                        np.array(measured, dtype=float), np.array(predicted, dtype=float),
                        np.array(codes, dtype=np.uint8), verified_factors, params or {})
