"""Freeze-rate optimization by golden-section search.

The mean age under freeze/preempt behaves unimodally in the freeze
rate: long freezes underuse the servers, very short freezes degenerate
to preemption-only. Golden-section search finds the minimizer without
derivatives; the surrounding driver compares the optimum against the
zero-wait baseline. Each evaluation is ``fp.fp_means``, whose cost does
not grow with the Erlang order; at a finite order the cycle chain checks
it once, at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

from . import _io
from .fp import FpParams, build_fp_model, fp_means
from .metrics import aoi_mean
from .zw import ZwParams, zw_closed_form_means

_INVPHI = (sqrt(5.0) - 1.0) / 2.0

#: Hard cap on objective evaluations inside one search.
MAX_EVALS = 500

#: Fraction of the bracket treated as "at the boundary".
_EDGE_FRACTION = 0.05


@dataclass(frozen=True)
class OptResult:
    """Outcome of a freeze-rate optimization."""

    lambda_star: float
    f_star: float
    aoi_at_star: float
    zw_aoi: float
    reduction_pct: float
    bracket: tuple
    evaluations: int
    boundary_hit: bool

    def to_json(self, path) -> None:
        _io.write_json(path, self)


def golden_section_min(objective, lo: float, hi: float, tol: float = 0.0,
                       rtol: float = 0.0, max_evals: int = MAX_EVALS):
    """Minimize a unimodal scalar function on ``[lo, hi]``.

    Contracts the bracket by the inverse golden ratio until its width is
    at most ``max(tol, rtol * midpoint)``. Deterministic; the number of
    evaluations is fixed by the bracket and tolerance.

    Returns
    -------
    (argmin, min_value, evaluations) : tuple of (float, float, int)
        The best point, its objective value, and the number of objective
        calls made.

    Raises
    ------
    RuntimeError
        If the bracket fails to contract to tolerance within
        ``max_evals`` objective evaluations.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if tol <= 0.0 and rtol <= 0.0:
        raise ValueError("need a positive tol or rtol")
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = objective(c)
    fd = objective(d)
    evals = 2
    while (b - a) > max(tol, rtol * 0.5 * (a + b)):
        if evals >= max_evals:
            raise RuntimeError(
                f"golden-section search did not contract within {max_evals} evaluations")
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
        evals += 1
    x = c if fc < fd else d
    f = fc if fc < fd else fd
    return x, f, evals


def optimize_freeze(mu1: float, mu2: float, k: int,
                    bracket: tuple = (0.05, 100.0),
                    rtol: float = 1e-4) -> OptResult:
    """Find the freeze rate minimizing mean age for ``(mu1, mu2, k)``.

    The objective is :func:`fp_means`'s mean age at each candidate rate
    (cached per rate, since the search revisits points). If the
    minimizer lands within 5% of a bracket edge the bracket is expanded
    tenfold on that side and the search retried once; a persistent edge
    hit is reported in ``boundary_hit``. At a finite ``k``, ``aoi_at_star``
    is the cycle chain's mean age, and a RuntimeError is raised if it
    differs from the objective's by more than ``1e-12 + 2e-16 k`` relative.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi < inf:
        raise ValueError("bracket must satisfy 0 < lo < hi, both finite")
    if not 0 < rtol < 1:
        raise ValueError("rtol must lie in (0, 1)")
    cache: dict = {}

    def objective(rate: float) -> float:
        if rate not in cache:
            cache[rate] = fp_means(FpParams(mu1, mu2, rate, k)).mean_aoi
        return cache[rate]

    boundary_hit = False
    for attempt in range(2):
        x, f, evals = golden_section_min(objective, lo, hi, rtol=rtol)
        near_lo = x <= lo * (1.0 + _EDGE_FRACTION)
        near_hi = x >= hi / (1.0 + _EDGE_FRACTION)
        if not (near_lo or near_hi):
            boundary_hit = False
            break
        boundary_hit = True
        if attempt == 0:
            if near_lo:
                lo = lo / 10.0
            if near_hi:
                hi = hi * 10.0
    if k != inf:
        chain = aoi_mean(build_fp_model(FpParams(mu1, mu2, x, k)))
        if not abs(chain - f) <= (1e-12 + 2e-16 * k) * chain:  # its rounding grows with k
            raise RuntimeError(f"mean age at {x!r}: fp_means {f!r}, cycle chain {chain!r}")
        f = chain
    zw_aoi = zw_closed_form_means(ZwParams(mu1, mu2)).mean_aoi
    return OptResult(
        lambda_star=x, f_star=1.0 / x, aoi_at_star=f, zw_aoi=zw_aoi,
        reduction_pct=100.0 * (zw_aoi - f) / zw_aoi,
        bracket=(lo, hi), evaluations=len(cache),
        boundary_hit=boundary_hit)
