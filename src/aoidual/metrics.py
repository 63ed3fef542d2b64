"""Age, peak-age and phase-type distributions of an absorbing chain.

The peak age of a cycle is the chain's absorption time conditioned on
ending in the successful column; the stationary age density is the
(normalized) probability of occupying an age-overlap state at elapsed
time ``x``; a phase-type variable is the plain absorption time. All
three are the matrix-exponential law of ``phasetype`` and differ only in
the weighting vector: the successful absorption rates for peak age, the
age-overlap mask for age, all absorption rates for the phase type, so
one walk of the kernel tabulates age and peak age together. All
conditioning follows the defining ratios directly; no renormalized
sub-chain is built.
"""

from __future__ import annotations

from numbers import Integral
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _io
from .phasetype import (AbsorbingChain, _array, _Law, _rate, absorption_probability,
                        expm_action_grid)


#: First nonzero grid point, as a multiple of the mean.
MIN_MULT = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: ``points`` log-spaced abscissae from
    ``MIN_MULT * mean`` to ``max_mult * mean``, preceded by 0."""

    points: int = 2000
    max_mult: float = 40.0

    def __post_init__(self):
        if not isinstance(self.points, Integral) or self.points < 2:
            raise ValueError("grid needs an integer number of points, at least two, "
                             f"got {self.points!r}")
        object.__setattr__(self, "max_mult", _rate(self.max_mult, "max_mult"))
        if not self.max_mult > MIN_MULT:
            raise ValueError(f"need max_mult > {MIN_MULT}")

    def build(self, mean: float) -> np.ndarray:
        mean = _rate(mean, "mean")
        body = np.geomspace(MIN_MULT * mean, self.max_mult * mean, self.points)
        return np.concatenate(([0.0], body))


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Tabulated finite pdf/cdf on a grid (CSV only), with the first two moments."""

    grid: np.ndarray = field(metadata=_io.NOT_JSON)
    pdf: np.ndarray = field(metadata=_io.NOT_JSON)
    cdf: np.ndarray = field(metadata=_io.NOT_JSON)
    mean: float
    second_moment: float
    variance: float
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        arrays = {name: _array(getattr(self, name), name).copy() for name in ("grid", "pdf", "cdf")}
        grid, pdf, cdf = arrays.values()
        if not (grid.shape == pdf.shape == cdf.shape):
            raise ValueError("grid, pdf and cdf must have equal shapes")
        if np.any(grid < 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be nonnegative and strictly increasing")
        if np.any(pdf < 0):
            raise ValueError("pdf has negative entries")
        if cdf[0] < 0 or cdf[-1] > 1 + 1e-9 or np.any(np.diff(cdf) < -1e-12):
            raise ValueError("cdf must be nondecreasing within [0, 1]")
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    def to_csv(self, path) -> None:
        _io.write_csv(path, ["x", "pdf", "cdf"], (self.grid, self.pdf, self.cdf))


@dataclass(frozen=True, eq=False)
class AoiSummary:
    """Means, first three non-central moments, success probability and
    tabulated distributions of age and peak age."""

    mean_aoi: float
    mean_paoi: float
    aoi_moments: tuple
    paoi_moments: tuple
    p_success: float
    aoi_table: DistributionTable
    paoi_table: DistributionTable
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not (self.mean_aoi > 0 and self.mean_paoi > 0):
            raise ValueError("means must be positive")
        if not 0 < self.p_success <= 1:
            raise ValueError("p_success must lie in (0, 1]")
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    def to_json(self, path) -> None:
        _io.write_json(path, self)


# ---------------------------------------------------------------------------
# one matrix-exponential law per weighting vector
# ---------------------------------------------------------------------------

def _law(chain: AbsorbingChain, kind: str) -> _Law:
    if kind == "aoi":
        w = chain.aoi_mask
    elif kind == "paoi":
        w = chain.V[:, 0]
    elif kind == "ph":
        w = chain.V.sum(axis=1)
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    return _Law(chain, w)


def ph_pdf(chain: AbsorbingChain, x):
    """Absorption-time density ``init expm(Sx) V 1`` at ``x`` (scalar or
    array); for :func:`phase_type` ``(sigma, S)`` this is ``sigma expm(Sx) nu``."""
    return _law(chain, "ph").at(x)[0]


def ph_cdf(chain: AbsorbingChain, x):
    """Absorption-time cdf ``init (expm(Sx) - I) S^{-1} V 1``."""
    return _law(chain, "ph").at(x)[1]


def ph_moment(chain: AbsorbingChain, i: int) -> float:
    """``i``-th non-central moment of the absorption time,
    ``(-1)^{i+1} i! init S^{-(i+1)} V 1``."""
    return _law(chain, "ph").moment(i)


def paoi_pdf(chain: AbsorbingChain, x):
    """Peak-age density ``init expm(Sx) V_s / (-init S^{-1} V_s)``."""
    return _law(chain, "paoi").at(x)[0]


def paoi_cdf(chain: AbsorbingChain, x):
    """Peak-age cdf ``init (expm(Sx) - I) S^{-1} V_s / (-init S^{-1} V_s)``."""
    return _law(chain, "paoi").at(x)[1]


def paoi_mean(chain: AbsorbingChain) -> float:
    """Mean peak age ``init S^{-2} V_s / (-init S^{-1} V_s)``."""
    return _law(chain, "paoi").moment(1)


def paoi_moment(chain: AbsorbingChain, i: int) -> float:
    """``i``-th non-central moment of the peak age."""
    return _law(chain, "paoi").moment(i)


def aoi_pdf(chain: AbsorbingChain, x):
    """Stationary age density ``init expm(Sx) mask / (-init S^{-1} mask)``."""
    return _law(chain, "aoi").at(x)[0]


def aoi_cdf(chain: AbsorbingChain, x):
    """Stationary age cdf, the integral of :func:`aoi_pdf`."""
    return _law(chain, "aoi").at(x)[1]


def aoi_mean(chain: AbsorbingChain) -> float:
    """Mean age ``init S^{-2} mask / (-init S^{-1} mask)``."""
    return _law(chain, "aoi").moment(1)


def aoi_moment(chain: AbsorbingChain, i: int) -> float:
    """``i``-th non-central moment of the stationary age."""
    return _law(chain, "aoi").moment(i)


def summarize(chain: AbsorbingChain, grid_spec: GridSpec = GridSpec()) -> AoiSummary:
    """Evaluate all summary quantities of a cycle chain.

    Each table uses its own grid scaled to the respective mean. Both laws
    walk ``init expm(S x)``, so one kernel call evaluates both grids
    against their four stacked weights, and both tables' ``meta`` report
    that shared walk. The result is a pure function of the chain and grid
    spec; identical inputs give bit-identical output at a fixed BLAS thread
    count (at k = 200, one and two threads differ by up to 3.7e-16 of a column's maximum).
    """
    base_meta = dict(chain.meta)
    laws = [_law(chain, kind) for kind in ("aoi", "paoi")]
    moments = [tuple(law.moments(3)) for law in laws]
    grids = [grid_spec.build(m[0]) for m in moments]
    proj, info = expm_action_grid(chain.S_csc, np.concatenate(grids), laws[0].init,
                                  np.hstack([law.W for law in laws]), full_output=True)
    # rows: aoi grid, then paoi grid; columns: aoi (w, y), then paoi (w, y)
    proj = proj.reshape(2, -1, 2, 2)
    tables = []
    for i, (kind, law, (mean, m2, _), grid) in enumerate(
            zip(("aoi", "paoi"), laws, moments, grids)):
        pdf, raw = law.pdf_cdf(proj[i, :, i])
        cdf = np.maximum.accumulate(np.clip(raw, 0.0, 1.0))
        meta = {**base_meta, "kind": kind, **info,
                "cdf_clip": float(np.max(np.abs(cdf - raw)))}
        tables.append(DistributionTable(grid, pdf, cdf, mean, m2, m2 - mean * mean,
                                        meta=meta))
    return AoiSummary(moments[0][0], moments[1][0], *moments,
                      absorption_probability(chain, 0), *tables, meta=base_meta)
