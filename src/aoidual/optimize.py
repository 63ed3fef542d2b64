"""Freeze-rate optimization by Brent's method over the log of the rate.

The mean age under freeze/preempt behaves unimodally in the freeze
rate: long freezes underuse the servers, very short freezes degenerate
to preemption-only. Golden-section search with parabolic steps finds
the minimizer without derivatives; the surrounding driver compares the
optimum against the zero-wait baseline. Each evaluation is
``fp.fp_means``, whose cost does not grow with the Erlang order; at a
finite order the cycle chain checks it once, at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, exp, inf, isfinite, log, sqrt
from sys import float_info

from . import _io
from .fp import FpParams, build_fp_model, fp_means
from .metrics import aoi_mean
from .phasetype import _rate
from .zw import ZwParams, zw_closed_form_means

_CGOLD = (3.0 - sqrt(5.0)) / 2.0  # golden-section share of the larger segment

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
    trace: tuple  # (rate, mean age) per evaluation, in call order

    def to_json(self, path) -> None:
        _io.write_json(path, self)


def golden_section_min(objective, lo: float, hi: float, tol: float):
    """Minimize a unimodal scalar function on ``[lo, hi]``.

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5): golden-section search that steps to the vertex
    of the parabola through its three best points when that falls inside
    the bracket and moves less than half the step before last. It stops
    once both bracket ends lie within ``2/3 tol + 2 eps |x|`` of the best
    point ``x``, ``tol`` positive: the ``eps |x|`` floor stops a tolerance
    finer than floats resolve there, not at ``MAX_EVALS`` (read at each call).
    The name is kept for the benchmark's per-layer hook, which patches it.

    Returns
    -------
    (argmin, min_value, evaluations) : tuple of (float, float, int)
        The best point, its objective value (the first lowest seen), and
        the number of objective calls made.

    Raises
    ------
    RuntimeError
        If the bracket fails to contract to tolerance within
        ``MAX_EVALS`` objective evaluations.
    """
    if not (isfinite(lo) and isfinite(hi)):
        raise ValueError(f"{'hi' if isfinite(lo) else 'lo'} must be finite: lo={lo!r}, hi={hi!r}")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = float(lo), float(hi)
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = objective(x)
    evals, d, e = 1, 0.0, 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = tol / 3.0 + float_info.epsilon * abs(x)
        if max(x - a, b - x) <= 2.0 * tol1:
            return x, fx, evals
        if evals >= MAX_EVALS:
            raise RuntimeError(
                f"golden-section search did not contract within {MAX_EVALS} evaluations")
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)  # the parabola through x, w, v
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)  # has its vertex at x - p / q
        p, q = (-p if q > 0.0 else p), abs(q)
        if abs(e) > tol1 and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol1:
                d = tol1 if x < m else -tol1
        else:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else copysign(tol1, d))
        fu = objective(u)
        evals += 1
        if fu < fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def optimize_freeze(mu1: float, mu2: float, k: int,
                    bracket: tuple = (0.05, 100.0),
                    rtol: float = 1e-4) -> OptResult:
    """Find the freeze rate minimizing mean age for ``(mu1, mu2, k)``.

    :func:`golden_section_min` searches ``log(rate)`` to within ``rtol``,
    a relative precision on the rate, for :func:`fp_means`'s mean age;
    ``trace`` records each (rate, mean age) evaluated. ``bracket`` is a
    pair whose ends, and ``rtol``, must be positive finite numbers. If the
    minimizer lands within 5% of a bracket edge the bracket is expanded
    tenfold on that side and the search retried once; a persistent edge
    hit is reported in ``boundary_hit``. At a finite ``k``, ``aoi_at_star``
    is the cycle chain's mean age, and a RuntimeError is raised if it
    differs from the objective's by more than ``1e-12 + 2e-16 k`` relative.
    """
    if len(bracket) != 2:
        raise ValueError(f"bracket must be a pair (lo, hi), got {bracket!r}")
    lo, hi = _rate(bracket[0], "bracket low end"), _rate(bracket[1], "bracket high end")
    if not log(lo) < log(hi):  # implies lo < hi; the search runs on the logs
        raise ValueError("bracket must satisfy lo < hi with log(lo) < log(hi)")
    if not _rate(rtol, "rtol") < 1:
        raise ValueError("rtol must lie in (0, 1)")

    trace = []

    def objective(y: float) -> float:
        trace.append((exp(y), fp_means(FpParams(mu1, mu2, exp(y), k)).mean_aoi))
        return trace[-1][1]

    for attempt in range(2):
        y, f, _ = golden_section_min(objective, log(lo), log(hi),  # a step in log(rate)
                                     tol=max(rtol, float_info.epsilon))  # under eps is no step
        x = exp(y)
        near_lo = x <= lo * (1.0 + _EDGE_FRACTION)
        near_hi = x >= hi / (1.0 + _EDGE_FRACTION)
        boundary_hit = near_lo or near_hi
        if not boundary_hit or attempt:
            break
        lo, hi = lo / 10.0 if near_lo else lo, hi * 10.0 if near_hi else hi
    if k != inf:
        chain = aoi_mean(build_fp_model(FpParams(mu1, mu2, x, k)))
        if not abs(chain - f) <= (1e-12 + 2e-16 * k) * chain:  # its rounding grows with k
            raise RuntimeError(f"mean age at {x!r}: fp_means {f!r}, cycle chain {chain!r}")
        f = chain
    zw_aoi = zw_closed_form_means(ZwParams(mu1, mu2)).mean_aoi
    return OptResult(
        lambda_star=x, f_star=1.0 / x, aoi_at_star=f, zw_aoi=zw_aoi,
        reduction_pct=100.0 * (zw_aoi - f) / zw_aoi,
        bracket=(lo, hi), evaluations=len(trace),
        boundary_hit=boundary_hit, trace=tuple(trace))
