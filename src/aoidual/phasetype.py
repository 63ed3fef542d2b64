"""Phase-type distributions and absorbing continuous-time Markov chains.

A phase-type random variable is the time to absorption of a CTMC with
transient generator block ``S`` (all states transient, so ``S`` is
nonsingular) started from an initial probability vector ``sigma``. This
module holds the numerics every policy model builds on: densities, cdfs,
non-central moments, absorption probabilities, and the matrix-exponential
action computed by uniformization.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, exp, factorial, log2, sqrt
from types import MappingProxyType
from typing import Mapping

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

#: Tolerance for structural checks (row sums, probability normalization).
#: Scaled by the largest rate in a row so that chains with very large
#: rates (e.g. freeze rates of 1e8) validate correctly.
STRUCT_TOL = 1e-12

#: Poisson tail mass discarded when truncating the uniformization series.
EXPM_TAIL = 1e-14

#: Largest uniformization step; larger horizons are split into substeps
#: so the leading Poisson weight exp(-m) stays representable.
_MAX_STEP_MASS = 200.0

#: Beyond this many substeps the action switches to repeated squaring of
#: a dense step matrix, keeping extreme horizons O(log) instead of O(mass).
_MAX_SUBSTEPS = 64


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    out = np.array(a, dtype=float)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    out.flags.writeable = False
    return out


def _factor_or_raise(S: np.ndarray):
    """LU-factor a transient block, raising if any state is recurrent."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        try:
            lu, piv = lu_factor(S)
        except Exception as err:
            raise ValueError("S is singular: not all states are transient") from err
    if np.any(np.diag(lu) == 0.0):
        raise ValueError("S is singular: not all states are transient")
    return lu, piv


def _check_subgenerator(S: np.ndarray, name: str = "S") -> None:
    """Validate sign structure and row sums of a sub-generator block."""
    diag = np.diag(S)
    off = S - np.diag(diag)
    if np.any(off < 0):
        raise ValueError(f"{name} has negative off-diagonal entries")
    if np.any(diag > 0):
        raise ValueError(f"{name} has positive diagonal entries")
    scale = np.maximum(1.0, np.abs(diag))
    if np.any(S.sum(axis=1) > STRUCT_TOL * scale):
        raise ValueError(f"{name} has rows summing to more than zero")


@dataclass(frozen=True, eq=False)
class PhaseType:
    """Phase-type distribution ``(sigma, S)`` of order ``len(sigma)``.

    Parameters
    ----------
    sigma : array_like
        Initial probability row vector. Entries are nonnegative and sum
        to at most 1; a deficit is allowed for conditional constructions.
    S : array_like
        Square sub-generator over the transient states: nonnegative
        off-diagonal rates, nonpositive diagonal, nonpositive row sums,
        and nonsingular (every state transient).

    Raises
    ------
    ValueError
        If any structural invariant fails, or if ``S`` is singular.
    """

    sigma: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        sigma = _as_float_array(self.sigma, "sigma", 1)
        S = _as_float_array(self.S, "S", 2)
        n = sigma.shape[0]
        if S.shape != (n, n):
            raise ValueError(f"S must be {n}x{n} to match sigma, got {S.shape}")
        if np.any(sigma < 0):
            raise ValueError("sigma has negative entries")
        if sigma.sum() > 1.0 + STRUCT_TOL:
            raise ValueError("sigma sums to more than one")
        _check_subgenerator(S)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "S", S)
        self._lu  # fail fast on a singular S

    @cached_property
    def _lu(self):
        return _factor_or_raise(self.S)

    @property
    def order(self) -> int:
        return self.sigma.shape[0]

    @property
    def nu(self) -> np.ndarray:
        """Exit rate vector ``-S @ 1``."""
        return -self.S.sum(axis=1)

    def solve_right(self, b: np.ndarray) -> np.ndarray:
        """Return ``S^{-1} b`` for a column vector ``b``."""
        return lu_solve(self._lu, b)

    @cached_property
    def _law(self) -> "_Law":
        return _Law(self.S, self.sigma, self.nu, self.solve_right, 1.0)


@dataclass(frozen=True, eq=False)
class AbsorbingChain:
    """Absorbing CTMC with transient block ``S`` and absorbing rates ``V``.

    The full generator is ``[[S, V], [0, 0]]``; its rows sum to zero.
    ``init`` is the initial distribution over transient states and may be
    ``None`` while the chain is being assembled (the freeze/preempt model
    derives it from a separate recurrent chain). ``aoi_mask`` selects the
    transient states whose occupancy overlaps the age sawtooth, and
    ``success_col`` names the column of ``V`` that ends a cycle with a
    fresh reception.
    """

    S: np.ndarray
    V: np.ndarray
    init: np.ndarray | None
    aoi_mask: np.ndarray
    success_col: int = 0
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        S = _as_float_array(self.S, "S", 2)
        V = _as_float_array(self.V, "V", 2)
        mask = _as_float_array(self.aoi_mask, "aoi_mask", 1)
        n = S.shape[0]
        if S.shape != (n, n):
            raise ValueError("S must be square")
        if V.shape[0] != n:
            raise ValueError("V must have the same number of rows as S")
        if np.any(V < 0):
            raise ValueError("V has negative entries")
        _check_subgenerator(S)
        diag = np.abs(np.diag(S))
        scale = np.maximum(1.0, diag)
        resid = np.abs(S.sum(axis=1) + V.sum(axis=1))
        if np.any(resid > STRUCT_TOL * scale):
            raise ValueError("rows of [S V] do not sum to zero")
        if mask.shape != (n,) or np.any((mask != 0) & (mask != 1)):
            raise ValueError("aoi_mask must be a 0/1 vector over the transient states")
        if not np.any(mask):
            raise ValueError("aoi_mask selects no state")
        if not 0 <= self.success_col < V.shape[1]:
            raise ValueError(f"success_col {self.success_col} out of range")
        init = self.init
        if init is not None:
            init = _as_float_array(init, "init", 1)
            if init.shape != (n,):
                raise ValueError("init has the wrong length")
            if np.any(init < 0):
                raise ValueError("init has negative entries")
            if abs(init.sum() - 1.0) > STRUCT_TOL:
                raise ValueError("init does not sum to one")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "aoi_mask", mask)
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))
        self._lu

    @cached_property
    def _lu(self):
        return _factor_or_raise(self.S)

    @property
    def order(self) -> int:
        return self.S.shape[0]

    @property
    def n_absorbing(self) -> int:
        return self.V.shape[1]

    def with_init(self, init) -> "AbsorbingChain":
        """Return a copy of this chain carrying the given initial vector."""
        return AbsorbingChain(self.S, self.V, init, self.aoi_mask,
                              self.success_col, dict(self.meta))

    def require_init(self) -> np.ndarray:
        if self.init is None:
            raise ValueError("chain has no initial vector attached")
        return self.init

    def solve_right(self, b: np.ndarray) -> np.ndarray:
        """Return ``S^{-1} b``."""
        return lu_solve(self._lu, b)

    def solve_left(self, v: np.ndarray) -> np.ndarray:
        """Return ``v S^{-1}``."""
        return lu_solve(self._lu, v, trans=1)

    def dump_csv(self, directory) -> list:
        """Write S, V, init and aoi_mask as dense CSV files for auditing."""
        from . import _io
        import os

        os.makedirs(directory, exist_ok=True)
        written = []
        for name, arr in [("S", self.S), ("V", self.V)]:
            path = os.path.join(directory, f"{name}.csv")
            _io.write_matrix_csv(path, arr)
            written.append(path)
        vectors = [("aoi_mask", self.aoi_mask)]
        if self.init is not None:
            vectors.append(("init", self.init))
        for name, vec in vectors:
            path = os.path.join(directory, f"{name}.csv")
            _io.write_matrix_csv(path, vec.reshape(1, -1))
            written.append(path)
        return written


# ---------------------------------------------------------------------------
# matrix exponential action
# ---------------------------------------------------------------------------

def _uniformized(S: np.ndarray):
    """Return (P, rate) with ``S = rate * (P - I)`` and ``P`` substochastic."""
    rate = float(np.max(-np.diag(S)))
    if rate == 0.0:
        return None, 0.0
    P = S / rate
    P[np.diag_indices_from(P)] += 1.0
    return P, rate


def _step(v: np.ndarray, P: np.ndarray, mass: float) -> np.ndarray:
    """Advance ``v`` by one uniformization step of Poisson mass ``mass``."""
    weight = exp(-mass)
    term = v
    acc = weight * v
    remaining = 1.0 - weight
    j = 0
    cap = int(ceil(mass + 40.0 * sqrt(mass) + 100.0))
    while remaining > EXPM_TAIL and j < cap:
        j += 1
        term = term @ P
        weight *= mass / j
        acc = acc + weight * term
        remaining -= weight
    return acc


def _advance(v: np.ndarray, P: np.ndarray, mass: float) -> np.ndarray:
    """Advance ``v`` across a total Poisson mass, substepping as needed.

    Moderate masses are walked in vector substeps; extreme masses build
    one dense step matrix and square it, so even astronomically stiff
    horizons stay cheap. Both paths keep every intermediate nonnegative.
    """
    nsub = int(ceil(mass / _MAX_STEP_MASS))
    if nsub <= _MAX_SUBSTEPS:
        out = v
        for _ in range(nsub):
            out = _step(out, P, mass / nsub)
        return out
    s = int(ceil(log2(mass / _MAX_STEP_MASS)))
    E = _step(np.eye(P.shape[0]), P, mass / 2.0 ** s)
    for _ in range(s):
        E = E @ E
    return v @ E


def expm_action(S, x: float, v) -> np.ndarray:
    """Evaluate the row-vector action ``v @ expm(S * x)``.

    Uses uniformization: with ``rate = max_i |S_ii|`` and the substochastic
    matrix ``P = I + S/rate``, the action is the Poisson-weighted sum of
    ``v @ P^j``. Every intermediate quantity is nonnegative when ``v`` is,
    and the series is truncated once the remaining Poisson mass drops
    below ``EXPM_TAIL``. Horizons with ``rate * x`` beyond a safe step
    size are split into substeps.

    Parameters
    ----------
    S : array_like
        Sub-generator (square).
    x : float
        Nonnegative time.
    v : array_like
        Row vector of matching length.

    Returns
    -------
    numpy.ndarray
        ``v @ expm(S x)``.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return expm_action_grid(S, [x], v)[0]


def expm_action_grid(S, xs, v) -> np.ndarray:
    """Evaluate ``v @ expm(S * x)`` for every ``x`` of a sorted grid.

    Steps incrementally from each grid point to the next, so the total
    work scales with ``rate * max(xs)`` rather than the sum over points.

    Returns an array of shape ``(len(xs), len(v))``.
    """
    S = np.asarray(S, dtype=float)
    v = np.asarray(v, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    if v.shape != (S.shape[0],):
        raise ValueError(f"v has shape {v.shape}, expected ({S.shape[0]},)")
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if np.any(xs < 0):
        raise ValueError("grid points must be nonnegative")
    if np.any(np.diff(xs) < 0):
        raise ValueError("grid points must be sorted ascending")
    P, rate = _uniformized(S)
    out = np.empty((xs.shape[0], v.shape[0]))
    cur = v.copy()
    prev = 0.0
    for i, x in enumerate(xs):
        mass = rate * (x - prev)
        if mass > 0.0:
            cur = _advance(cur, P, mass)
        out[i] = cur
        prev = x
    return out


# ---------------------------------------------------------------------------
# distribution evaluation
# ---------------------------------------------------------------------------

class _Law:
    """The matrix-exponential law with density ``init expm(S x) w / denom``.

    With ``y = S^{-1} w`` its cdf is ``init (expm(S x) - I) y / denom``
    and its ``i``-th non-central moment is
    ``(-1)^{i+1} i! init S^{-i} y / denom``. A phase-type is the case
    ``w = nu``, ``denom = 1``; age and peak age of a cycle chain weight by
    the age mask or the success column, and by default ``denom`` is
    ``-init y``, the mass of the weight under ``init``.
    """

    def __init__(self, S, init, w, solve_right, denom=None):
        self.S, self.init, self.w, self.solve_right = S, init, w, solve_right
        self.y = solve_right(w)
        if denom is None:
            denom = float(-(init @ self.y))
            if denom <= 0:
                raise ValueError("conditioning weight has zero mass under init")
        self.denom = denom

    def pdf_cdf(self, u):
        """Density and cdf from the action ``u = init expm(S x)``."""
        return (u @ self.w) / self.denom, ((u - self.init) @ self.y) / self.denom

    def at(self, x):
        """``(pdf, cdf)`` at a scalar or an unsorted array of times."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise ValueError("time arguments must be nonnegative")
        xs = arr.reshape(1) if arr.ndim == 0 else arr
        order = np.argsort(xs, kind="stable")
        u = expm_action_grid(self.S, xs[order], self.init)
        if arr.ndim == 0:
            return tuple(float(val) for val in self.pdf_cdf(u[0]))
        vals = np.empty((2, order.size))
        vals[:, order] = self.pdf_cdf(u)
        return vals[0], vals[1]

    def moments(self, count: int) -> list:
        """The first ``count`` moments, by repeated right solves against
        the cached LU factors; the inverse is never formed."""
        out, vec = [], self.y
        for i in range(1, count + 1):
            vec = self.solve_right(vec)
            sign = 1.0 if i % 2 else -1.0
            out.append(sign * factorial(i) * float(self.init @ vec) / self.denom)
        return out

    def moment(self, i: int) -> float:
        if int(i) != i or i < 1:
            raise ValueError("moment order must be a positive integer")
        return self.moments(int(i))[-1]


def ph_pdf(ph: PhaseType, x):
    """Density ``sigma @ expm(S x) @ nu`` at ``x`` (scalar or array)."""
    return ph._law.at(x)[0]


def ph_cdf(ph: PhaseType, x):
    """Cumulative distribution ``sigma (expm(S x) - I) S^{-1} nu``."""
    return ph._law.at(x)[1]


def ph_moment(ph: PhaseType, i: int) -> float:
    """``i``-th non-central moment, ``(-1)^{i+1} i! sigma S^{-(i+1)} nu``."""
    return ph._law.moment(i)


def absorption_probability(chain: AbsorbingChain, m: int) -> float:
    """Probability ``-init S^{-1} V[:, m]`` of absorbing in column ``m``."""
    if not 0 <= m < chain.n_absorbing:
        raise ValueError(f"absorbing column {m} out of range")
    init = chain.require_init()
    row = chain.solve_left(init)
    return float(-(row @ chain.V[:, m]))


def erlang_ph(rate: float, k: int) -> PhaseType:
    """Erlang-``k`` phase-type with mean ``1/rate``.

    Bidiagonal representation: ``k`` phases, each left at rate
    ``k * rate``; the variance is ``1 / (k * rate**2)``, so large ``k``
    approximates a deterministic duration.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if int(k) != k or k < 1:
        raise ValueError("order k must be a positive integer")
    k = int(k)
    step = k * rate
    S = np.diag(np.full(k, -step))
    if k > 1:
        S += np.diag(np.full(k - 1, step), k=1)
    sigma = np.zeros(k)
    sigma[0] = 1.0
    return PhaseType(sigma, S)
