"""Gauss-sum interference signals for integer factorization.

Evaluators for the continuous, discrete and reciprocate sum families with
exact phase reduction, closed-form modulus predictors, Poisson-summation
peak analysis, an N-slit interference simulator, and factor-extraction
rules, plus a CLI for scans and verification.
"""

from .numtheory import (
    ResidueClass,
    SymbolValue,
    gcd,
    is_prime,
    jacobi_symbol,
    mod_mul_phase,
    primitive_root,
    qr_indicator,
    residue_class,
)
from .gausssums import (
    CharacterSpec,
    ContinuousSpec,
    PrecisionError,
    WeightProfile,
    character_eval,
    continuous_sum,
    continuous_sum_grid,
    discrete_sum,
    exponential_sum,
    finite_w,
    monte_carlo_sum,
    reciprocate_complete,
    reciprocate_truncated,
    ring_gauss,
    ring_gauss_sweep,
    standard_gauss,
    wtilde,
    wtilde_b_sweep,
)
from .closedform import (
    ModulusPrediction,
    factor_out,
    g1b_closed,
    gab_closed,
    predict_discrete_modulus2,
    predict_finite_w_modulus,
    predict_nonfactor_baseline,
    predict_reciprocate_modulus,
    reciprocity_transform,
    wtilde_modulus2,
)
from .decomposition import (
    PeakDescriptor,
    decomposed_sum,
    locate_peaks,
    recommend_weight_width,
    shape_function,
)
from .factorizer import (
    Candidate,
    Classification,
    FactorReport,
    GhostCensus,
    ScanSeries,
    envelope_background,
    factor_lines_discrete,
    factor_reciprocate,
    factor_scan_continuous,
    factor_scan_even,
    factor_truncated,
    ghost_census,
    pocket_rescale,
    report_from_series,
    scan_series,
)
from .nslit import (
    NSlitConfig,
    SlitTestRow,
    SpikeProfile,
    decomposed_green,
    green_sum,
    nslit_factor_test,
    relating_phase,
    spike_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
