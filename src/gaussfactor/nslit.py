"""N-slit near-field interference: the Green's-function sum, its
period/remainder decomposition, and the equal-spike factor criterion.

Only the dimensionless Talbot distance l enters; the slits are treated as
point sources, and global phase factors carrying no intensity information
are dropped (comparisons between the direct and decomposed forms are made
through the known relating phase or through moduli).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gausssums import _SWEEP_PHASORS, abs2

DEFAULT_SPREAD_THRESHOLD = 1e-3


@dataclass(frozen=True)
class NSlitConfig:
    """Grating with n_slits slits probed at dimensionless Talbot distance l_talbot."""

    n_slits: int
    l_talbot: int

    def __post_init__(self) -> None:
        if self.n_slits < 1:
            raise ValueError("n_slits must be >= 1")
        if self.l_talbot < 1:
            raise ValueError("l_talbot must be >= 1")


@dataclass(frozen=True)
class SpikeProfile:
    """Intensities at the half-integer spike positions and their relative spread."""

    positions: tuple[float, ...]
    heights: tuple[float, ...]
    relative_spread: float


class SlitTestRow(NamedTuple):
    l: int
    is_factor_flag: bool
    relative_spread: float
    divides: bool


def green_sum(xi, cfg: NSlitConfig):
    """sqrt(1/l) * sum_n exp[i pi (xi - n)^2 / l]; the constant sqrt(1/i)
    prefactor is dropped (modulus preserving).

    An array of xi gives one value per point: each point's N phasors are
    one row, summed on its own (the order of a 1-D sum), in blocks of at
    most _SWEEP_PHASORS phasors, so a point has the bits of a scalar call.
    """
    l = cfg.l_talbot
    n = np.arange(cfg.n_slits, dtype=float)
    xs = np.asarray(xi, dtype=float).reshape(-1)
    out = np.empty(len(xs), dtype=complex)
    rows = max(1, _SWEEP_PHASORS // cfg.n_slits)
    for start in range(0, len(xs), rows):
        block = slice(start, start + rows)
        ph = np.pi * (xs[block, None] - n) ** 2 / l
        out[block] = np.exp(1j * ph).sum(axis=1) / math.sqrt(l)
    return complex(out[0]) if np.ndim(xi) == 0 else out.reshape(np.shape(xi))


def _w_slit(xi: float, l: int, terms: int) -> complex:
    """sqrt(1/l) * sum_{p<terms} exp[i pi (p^2 - 2 p xi) / l]."""
    p = np.arange(terms, dtype=float)
    ph = np.pi * (p * p - 2.0 * p * xi) / l
    return complex(np.exp(1j * ph).sum() / math.sqrt(l))


def comb_factor(zeta: float, k: int) -> complex:
    """Delta_k(zeta) = sum_{j=0}^{k-1} exp(-2 pi i j zeta); k at integer zeta."""
    j = np.arange(k, dtype=float)
    return complex(np.exp(-2j * np.pi * j * zeta).sum())


def decomposed_green(xi: float, cfg: NSlitConfig) -> complex:
    """Period/remainder form W^(l)(xi) Delta_k(xi - l/2) + R(xi) with N = k l + r.

    Carries the convention with the quadratic global phase exp(i pi xi^2 / l)
    split off; multiply by that phase to recover green_sum exactly.
    """
    n_slits, l = cfg.n_slits, cfg.l_talbot
    k, r = divmod(n_slits, l)
    main = _w_slit(xi, l, l) * comb_factor(xi - l / 2.0, k) if k else 0j
    if r:
        remainder = cmath.exp(-2j * math.pi * k * (xi - l / 2.0)) * _w_slit(xi, l, r)
    else:
        remainder = 0j
    return main + remainder


def relating_phase(xi: float, cfg: NSlitConfig) -> complex:
    """Global phase linking the two conventions: green_sum = phase * decomposed_green."""
    return cmath.exp(1j * math.pi * xi * xi / cfg.l_talbot)


def spike_profile(cfg: NSlitConfig) -> SpikeProfile:
    """Intensities |G|^2 at xi = q + 1/2 for q in [0, l); factors of an odd
    slit count give identical heights (relative spread ~ 0).

    The factor criterion requires the pattern to consist of spikes AT the
    half-integers, so the spread is measured against the brightest point of
    either the half-integer row or the comb-peak row xi = l/2 + s.  For odd
    l the two rows coincide and the spread is exactly (max - min)/max of the
    heights; for even l (never a factor of an odd count) the bright integer
    row exposes the mismatch.
    """
    if cfg.n_slits % 2 == 0:
        raise ValueError(
            "the equal-spike criterion applies to odd slit counts only; "
            f"got n_slits={cfg.n_slits}"
        )
    l = cfg.l_talbot
    positions = tuple(q + 0.5 for q in range(l))
    comb = tuple(l / 2.0 + s for s in range(l))
    intensities = abs2(green_sum(np.array(positions + comb), cfg)).tolist()
    heights = tuple(intensities[:l])
    top = max(max(heights), max(intensities[l:]))
    spread = 0.0 if top == 0.0 else (top - min(heights)) / top
    return SpikeProfile(positions=positions, heights=heights, relative_spread=spread)


def nslit_factor_test(
    n_slits: int,
    l_max: int,
    spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
) -> list[SlitTestRow]:
    """Sweep trial distances l in [2, l_max], flagging l whose spike heights
    are equal within spread_threshold; the divides column is the ground truth.
    """
    if n_slits % 2 == 0:
        raise ValueError("equal-spike factor test requires an odd slit count")
    rows = []
    for l in range(2, l_max + 1):
        spread = spike_profile(NSlitConfig(n_slits, l)).relative_spread
        rows.append(
            SlitTestRow(l, spread < spread_threshold, spread, n_slits % l == 0)
        )
    return rows
