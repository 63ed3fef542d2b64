"""Absorbing continuous-time Markov chains and their phase-type laws.

A phase-type random variable is the time to absorption of a CTMC with
transient generator block ``S`` (all states transient, so ``S`` is
nonsingular) started from an initial probability vector ``sigma``, so it
is held as an :class:`AbsorbingChain` like every policy model. This
module holds the numerics they all build on: the chain, its assembly
from a policy's rule table, absorption probabilities, the action of the
matrix exponential by uniformization, the one law whose densities,
cdfs and non-central moments ``metrics`` evaluates, and the one check of
every count (``_whole``) and rate (``_rate``) the package is given.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from math import ceil, exp, factorial, inf, isfinite, lgamma, log, log2
from numbers import Real
from sys import float_info
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

#: Tolerance for structural checks (row sums, probability normalization).
#: Scaled by the largest rate in a row so that chains with very large
#: rates (e.g. fast freeze phases) validate correctly.
STRUCT_TOL = 1e-12

#: Poisson tail mass discarded when truncating the uniformization series.
EXPM_TAIL = 1e-14

#: Largest Poisson mass of the step matrix that repeated squaring starts
#: from, so its leading weight exp(-m) stays representable.
_MAX_STEP_MASS = 200.0

#: Rows of the single-pass walk held and weighted at once.
_BLOCK = 256

#: Costs deciding between a walk and squaring, in flops of a dense product
#: at 40 GFlop/s (one BLAS thread): a walk step 1-2 us plus 2.1-2.4 ns per
#: stored entry, a step-matrix term 2-5 us beyond its flops (orders 4-1805).
_VECTOR_COST = 5e4
_ENTRY_COST = 100.0
_PRODUCT_COST = 1e5


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    out = np.array(a, dtype=float)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    out.flags.writeable = False
    return out


def _factored(S):
    """CSC copy of a sub-generator block, dense or sparse, and its sparse LU
    factor, validated on the stored entries: nonnegative off-diagonal
    rates, nonpositive diagonal and row sums, every state transient."""
    if sparse.issparse(S):
        Q = sparse.csc_array(S, dtype=float, copy=True)
        Q.sum_duplicates()
        if not np.all(np.isfinite(Q.data)):
            raise ValueError("S contains non-finite entries")
    else:
        Q = sparse.csc_array(_as_float_array(S, "S", 2))
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError("S must be square")
    cols = np.repeat(np.arange(n), np.diff(Q.indptr))
    if np.any(Q.data[Q.indices != cols] < 0):
        raise ValueError("S has negative off-diagonal entries")
    diag = Q.diagonal()
    if np.any(diag > 0):
        raise ValueError("S has positive diagonal entries")
    row_sums = np.bincount(Q.indices, Q.data, minlength=n)
    if np.any(row_sums > STRUCT_TOL * np.maximum(1.0, np.abs(diag))):
        raise ValueError("S has rows summing to more than zero")
    try:
        return Q, splu(Q)
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise ValueError("S is singular: not all states are transient") from err


def _real(value) -> bool:
    """Whether ``value`` is a real number and not a bool."""
    return type(value) in (int, float) or (isinstance(value, Real) and not isinstance(value, bool))


def _whole(value, name: str, low: int = 1, infinite: bool = False):
    """Whole ``value >= low`` as an int, ``inf`` where ``infinite`` allows; else a ValueError."""
    if _real(value) and value >= low:
        if type(value) is int or (isfinite(value) and int(value) == value):
            return int(value)
        if infinite and value == inf:
            return inf
    raise ValueError(f"{name} must be a whole number of at least {low}"
                     f"{' or inf' * infinite}, got {value!r}")


def _rate(value, name: str, infinite: bool = False) -> float:
    """Positive ``value`` as a float, ``inf`` where ``infinite`` allows; else a ValueError."""
    if _real(value) and value > 0:
        rate = inf if value > float_info.max else float(value)  # a huge int too
        if infinite or rate < inf:
            return rate
    raise ValueError(f"{name} must be a positive{'' if infinite else ' finite'} number, "
                     f"got {value!r}")


def _ordered_rates(params) -> None:
    """Check and store a parameter set's service rates, swapped into ``mu1 >= mu2``."""
    mu1, mu2 = _rate(params.mu1, "mu1"), _rate(params.mu2, "mu2")
    object.__setattr__(params, "swapped", params.swapped or mu1 < mu2)
    object.__setattr__(params, "mu1", max(mu1, mu2))
    object.__setattr__(params, "mu2", min(mu1, mu2))


def _checked_init(init, n: int) -> np.ndarray:
    init = _as_float_array(init, "init", 1)
    if init.shape != (n,):
        raise ValueError("init has the wrong length")
    if np.any(init < 0):
        raise ValueError("init has negative entries")
    if abs(init.sum() - 1.0) > STRUCT_TOL:
        raise ValueError("init does not sum to one")
    return init


@dataclass(frozen=True, eq=False)
class AbsorbingChain:
    """Absorbing CTMC with transient block ``S`` and absorbing rates ``V``.

    The full generator is ``[[S, V], [0, 0]]``; its rows sum to zero.
    ``init`` is the initial distribution over transient states and may be
    ``None`` while the chain is being assembled (the freeze/preempt model
    attaches its closed-form vector with :meth:`with_init`). ``aoi_mask``
    selects the transient states whose occupancy overlaps the age
    sawtooth. Column 0 of ``V`` is the success column: absorbing there
    ends a cycle with a fresh reception. A plain phase-type law is the
    chain with one absorbing column (:func:`phase_type`).

    The block is given dense or sparse and held as the CSC matrix
    ``S_csc`` with one sparse LU factor, which every computation uses.
    """

    S_csc: sparse.csc_array
    V: np.ndarray
    init: np.ndarray | None
    aoi_mask: np.ndarray
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        S_csc, lu = _factored(self.S_csc)
        V = _as_float_array(self.V, "V", 2)
        mask = _as_float_array(self.aoi_mask, "aoi_mask", 1)
        n = S_csc.shape[0]
        if V.shape[0] != n:
            raise ValueError("V must have the same number of rows as S")
        if np.any(V < 0):
            raise ValueError("V has negative entries")
        scale = np.maximum(1.0, np.abs(S_csc.diagonal()))
        resid = np.abs(S_csc.sum(axis=1) + V.sum(axis=1))
        if np.any(resid > STRUCT_TOL * scale):
            raise ValueError("rows of [S V] do not sum to zero")
        if mask.shape != (n,) or np.any((mask != 0) & (mask != 1)):
            raise ValueError("aoi_mask must be a 0/1 vector over the transient states")
        if not np.any(mask):
            raise ValueError("aoi_mask selects no state")
        if self.init is not None:
            object.__setattr__(self, "init", _checked_init(self.init, n))
        object.__setattr__(self, "S_csc", S_csc)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "aoi_mask", mask)
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))
        object.__setattr__(self, "_lu", lu)

    @cached_property
    def S(self) -> np.ndarray:
        """The dense transient block, built when first read."""
        S = self.S_csc.toarray()
        S.flags.writeable = False
        return S

    @property
    def order(self) -> int:
        return self.S_csc.shape[0]

    @property
    def n_absorbing(self) -> int:
        return self.V.shape[1]

    def with_init(self, init) -> "AbsorbingChain":
        """Return a copy carrying ``init``; it shares the rest, the factor too."""
        chain = copy.copy(self)
        object.__setattr__(chain, "init", _checked_init(init, self.order))
        return chain

    def require_init(self) -> np.ndarray:
        if self.init is None:
            raise ValueError("chain has no initial vector attached")
        return self.init

    def solve_right(self, b: np.ndarray) -> np.ndarray:
        """Return ``S^{-1} b``."""
        return self._lu.solve(b)

    def solve_left(self, v: np.ndarray) -> np.ndarray:
        """Return ``v S^{-1}``."""
        return self._lu.solve(v, trans="T")

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


#: Absorbing columns 0 and 1 of a policy's cycle chain.
_OK, _LOST = "success", "failure"

#: A move in :func:`_triplets`: source, destination, keeps the phase, rate.
_MOVE = np.dtype([("src", np.intp), ("dst", np.intp), ("same", bool), ("rate", float)])


class _StateIndex:
    """Bijection between symbolic chain states and indices.

    ``families`` are laid out in the order given; those in ``phased``
    carry a freeze phase and take a contiguous block of ``k`` indices
    keyed ``(family, phase)``, the others one index keyed by the bare
    int. Indices are computed from ``first``, the index of each family's
    first state, so a map costs ``O(families)`` at any ``k``, and so do
    the vectors that :meth:`entry` and :meth:`mask` place by family.
    """

    def __init__(self, k: int, families, phased):
        self.k = _whole(k, "Erlang order k")
        self.phased = frozenset(phased)
        families = tuple(families)
        sizes = [self.k if fam in self.phased else 1 for fam in families]
        *starts, self.size = accumulate(sizes, initial=0)
        self.first = dict(zip(families, starts))

    def index(self, state) -> int:
        if isinstance(state, tuple):
            fam, ell = state
            if fam in self.phased and 1 <= ell <= self.k:
                return self.first[fam] + ell - 1
        elif state in self.first and state not in self.phased:
            return self.first[state]
        raise KeyError(state)

    def state(self, index: int):
        if not 0 <= index < self.size:
            raise KeyError(index)
        return self.states()[index]

    def states(self):
        return [(fam, ell) if fam in self.phased else fam for fam in self.first
                for ell in range(1, (self.k if fam in self.phased else 1) + 1)]

    def as_dict(self) -> dict:
        """JSON-friendly map from symbolic labels to dense indices."""
        return {f"{s[0]},{s[1]}" if isinstance(s, tuple) else str(s): idx
                for idx, s in enumerate(self.states())}

    def entry(self, weights: Mapping) -> np.ndarray:
        """``weights``, ``family: weight``, normalized in order, on each family's first state."""
        w, init = np.array(list(weights.values()), dtype=float), np.zeros(self.size)
        init[[self.first[fam] for fam in weights]] = w / w.sum()
        return init

    def mask(self, families) -> np.ndarray:
        """The 0/1 selector of every state of ``families``."""
        mask = np.zeros(self.size)
        for fam in families:
            mask[self.first[fam]:self.first[fam] + (self.k if fam in self.phased else 1)] = 1.0
        return mask


def _triplets(idx: _StateIndex, rules: dict, rates: dict, step: float):
    """COO triplets ``(rows, cols, rates)`` of a generator, diagonal included.

    ``rules`` maps each family to ``(exit, {server: destination})`` and
    ``rates`` each server to its rate; a destination is a family or an
    absorbing column (``_OK`` and ``_LOST``, columns ``idx.size`` and
    ``idx.size + 1``). Every phase of a phased family advances at
    ``step`` to the next, the last to ``exit``, and each move leaves every
    phase for the same phase of its destination (or a singleton), as
    ``(moves, k)`` blocks.
    """
    first = {**idx.first, _OK: idx.size, _LOST: idx.size + 1}
    blocks, single, exits = [], [], {}
    for fam, (exit_, moves) in rules.items():
        out = [(first[fam], first[dst], dst in idx.phased, rates[server])
               for server, dst in moves.items()]
        if exit_ is None:
            single += out
        else:
            exits[len(blocks)] = first[exit_]
            blocks += [(first[fam], first[fam] + 1, True, step), *out]
    blocks, single = np.array(blocks, dtype=_MOVE), np.array(single, dtype=_MOVE)
    ell = np.arange(idx.k)
    cols = blocks["dst"][:, None] + ell * blocks["same"][:, None]
    cols[list(exits), -1] = list(exits.values())
    rows = np.concatenate(((blocks["src"][:, None] + ell).ravel(), single["src"]))
    vals = np.concatenate((np.repeat(blocks["rate"], idx.k), single["rate"]))
    diag = np.arange(idx.size)
    return (np.concatenate((rows, diag)), np.concatenate((cols.ravel(), single["dst"], diag)),
            np.concatenate((vals, -np.bincount(rows, vals, minlength=idx.size))))


def _rule_chain(idx: _StateIndex, rules: dict, p, entry, age) -> AbsorbingChain:
    """The chain of a rule table at ``p``: servers 1 and 2 complete at ``p.mu1`` and
    ``p.mu2``, a freeze phase ends at ``p.k * p.freeze_rate``; moves into ``_OK``/``_LOST``
    fill ``V``, the rest ``S``. ``init`` is ``idx.entry(entry)`` (None while ``entry``
    is), ``aoi_mask`` ``idx.mask(age)`` and ``meta`` ``p.meta()``."""
    n = idx.size
    step = p.k * p.freeze_rate if idx.phased else 0.0
    rows, cols, vals = _triplets(idx, rules, {1: p.mu1, 2: p.mu2}, step)
    into_S = cols < n
    V = np.zeros((n, 2))
    np.add.at(V, (rows[~into_S], cols[~into_S] - n), vals[~into_S])
    S = sparse.coo_array((vals[into_S], (rows[into_S], cols[into_S])), shape=(n, n))
    init = None if entry is None else idx.entry(entry)
    return AbsorbingChain(S, V, init, idx.mask(age), meta=p.meta())


# ---------------------------------------------------------------------------
# matrix exponential action
# ---------------------------------------------------------------------------

def _uniformized(S):
    """Return (P, rate) with ``S = rate * (P - I)`` and ``P`` substochastic,
    as a CSR matrix, from the sparse ``S``."""
    rate = float(np.max(-S.diagonal(), initial=0.0))
    eye = sparse.eye_array(S.shape[0], format="csr")
    return sparse.csr_array(S / rate + eye if rate > 0.0 else eye), rate


def _poisson_window(mass, tail: float):
    """Whole-number bounds ``[left, right]``, as floats, outside which a
    Poisson(``mass``) law has at most ``tail`` of its mass.

    Bernstein's inequalities, ``P(N >= m + t) <= exp(-t^2 / (2 (m + t/3)))``
    and ``P(N <= m - t) <= exp(-t^2 / (2 m))``, each set to ``tail / 2``.
    Both bounds are nondecreasing in ``mass``.
    """
    mass = np.asarray(mass, dtype=float)
    c = log(2.0 / tail)
    right = np.ceil(mass + c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c * mass))
    left = np.floor(np.maximum(mass - np.sqrt(2.0 * c * mass), 0.0))
    return left, right


def _length(bound) -> int:
    """A window bound as a number of terms, which must fit in an int64."""
    if not bound < 2.0 ** 63:
        raise RuntimeError(f"uniformization needs {float(bound):.3g} terms, "
                           "more than an array can index")
    return int(bound)


def _log_factorial(j) -> np.ndarray:
    """``log(j!)`` for each entry of a nonnegative integer array."""
    j = np.asarray(j, dtype=float)
    return np.fromiter(map(lgamma, (j + 1.0).ravel().tolist()), float,
                       j.size).reshape(j.shape)


def _poisson_tail(mass, left, right):
    """Upper bound on the Poisson(``mass``) probability outside
    ``[left, right]``.

    Above ``right`` each term is at most ``mass / (right + 2)`` times the
    one before, below ``left`` at most ``(left - 1) / mass``, so while
    that ratio is under one each tail is at most a geometric series from
    its first term; otherwise the bound is 1.
    """
    mass, left, right = np.broadcast_arrays(np.asarray(mass, dtype=float),
                                            left, right)

    def geometric(first, ratio):
        with np.errstate(divide="ignore"):
            pmf = np.exp(first * np.log(mass) - mass - _log_factorial(first))
            sum_ = pmf / (1.0 - ratio)
        return np.where(ratio < 1.0, sum_, 1.0)

    first = np.maximum(left - 1, 0)
    below = np.where(left > 0, geometric(first, first / mass), 0.0)
    return geometric(right + 1, mass / (right + 2.0)) + below


def _step(X: np.ndarray, P: np.ndarray, mass: float, terms: int) -> np.ndarray:
    """The Poisson(``mass``)-weighted sum of ``X P^j`` for ``j <= terms``."""
    weight = exp(-mass)
    term = X
    acc = weight * X
    for j in range(1, terms + 1):
        term = term @ P
        weight *= mass / j
        acc = acc + weight * term
    return acc


def _squaring(P, masses: np.ndarray, v: np.ndarray):
    """``v expm(S x)`` at each mass ``rate * x`` from a step matrix squared.

    The step matrix of mass ``m / 2^s <= _MAX_STEP_MASS`` is a Poisson
    series in ``P``, made dense here, truncated at ``EXPM_TAIL / 2^s`` so
    that its ``2^s``-th power is within ``EXPM_TAIL``. The cost is
    ``O(log(m))`` dense products per point, independent of the mass.
    Returns the rows and the largest discarded Poisson mass.
    """
    P = P.toarray()
    rows, tail = [], 0.0
    for mass in masses:
        s = max(0, ceil(log2(mass / _MAX_STEP_MASS)))
        h = mass / 2.0 ** s
        terms = _length(_poisson_window(h, EXPM_TAIL / 2.0 ** s)[1])
        E = _step(np.eye(P.shape[0]), P, h, terms)
        for _ in range(s):
            E = E @ E
        rows.append(v @ E)
        tail = max(tail, 2.0 ** s * float(_poisson_tail(h, 0, terms)))
    return np.array(rows), tail


def _single_pass(P, masses: np.ndarray, v: np.ndarray, W):
    """``v expm(S x) W`` at each mass ``rate * x`` (ascending) from one walk.

    The walk forms ``u_j = v P^j`` once, for ``j`` up to the Poisson right
    bound of the largest mass, each step one direct ``csr_matvec`` call
    (``P.T @ u`` without scipy's dispatch) into the next row of one reused
    block, and keeps only the projections ``u_j W`` (``u_j`` itself when
    ``W`` is None). Each point is the Poisson-weighted sum of the
    projections inside its window (Grassmann 1977; Fox and Glynn 1988),
    the weights normalized to sum to one over the terms kept. Returns the
    values and the largest Poisson mass outside a point's window.
    """
    left, right = _poisson_window(masses, EXPM_TAIL)
    log_mass = np.log(masses)[:, None]
    n, PT = v.shape[0], P.T.tocsr()
    arrays = (n, n, PT.indptr, PT.indices, PT.data)
    width = n if W is None else W.shape[1]
    acc = np.zeros((masses.shape[0], width))
    norm = np.zeros(masses.shape[0])
    steps = _length(right[-1]) + 1
    log_factorial = _log_factorial(np.arange(steps))
    U = np.zeros((_BLOCK + 1, n))
    rows = list(U)
    U[_BLOCK] = v
    for j0 in range(0, steps, _BLOCK):
        j = np.arange(j0, min(j0 + _BLOCK, steps))
        U[0], U[1:] = U[_BLOCK], 0.0  # carry the last row over, clear the rest
        for r in range(j.shape[0]):
            csr_matvec(*arrays, rows[r], rows[r + 1])
        # the points whose window meets this block are contiguous
        a, b = np.searchsorted(right, j0), np.searchsorted(left, j[-1], "right")
        if a < b:
            p = j * log_mass[a:b]  # in place: no large temporaries
            p -= masses[a:b, None]
            p -= log_factorial[j0:j0 + j.shape[0]]
            np.exp(p, out=p)
            block = U[:j.shape[0]]
            acc[a:b] += p @ (block if W is None else block @ W)
            norm[a:b] += p.sum(axis=1)
    tail = float(np.max(_poisson_tail(masses, left, right)))
    return acc / norm[:, None], tail


def _prefer_squaring(mass: float, points: int, order: int, nnz: int) -> bool:
    """Whether squaring is cheaper than one walk, in flop equivalents.

    A walk takes about ``mass`` steps, each a fixed cost plus a cost per
    stored entry; squaring takes a few hundred dense products of order
    ``order`` per point, each a fixed cost plus its flops. Only a huge mass
    at few points and a small order tips the balance to squaring. The costs
    are compared in floating point, since a huge mass overflows any count.
    """
    if mass <= _MAX_STEP_MASS:
        return False
    s = ceil(log2(mass / _MAX_STEP_MASS))
    walk = _poisson_window(mass, EXPM_TAIL)[1] * (_VECTOR_COST + _ENTRY_COST * nnz)
    terms = _poisson_window(_MAX_STEP_MASS, EXPM_TAIL / 2.0 ** s)[1]
    square = points * (terms + s) * (_PRODUCT_COST + 2.0 * order ** 3)
    return square < walk


def expm_action_grid(S, xs, v, W=None, full_output: bool = False):
    """Evaluate ``v @ expm(S * x) @ W`` for every ``x`` of a grid.

    By default (``W`` None) the full row vector ``v @ expm(S * x)``. The
    points may come in any order and may repeat; row ``i`` belongs to
    ``xs[i]``. A single pass walks ``v P^j`` once, up to the Poisson right
    bound of ``rate * max(xs)``, so the work scales with the largest mass
    rather than with the number of points; with ``W`` only the projections
    of the walk onto the columns of ``W`` are kept, so laws of one ``v``
    share a walk by stacking their weights. For few points at a huge mass
    a step matrix is squared instead; the choice depends only on the mass,
    the number of points and the order of ``S``, which may be dense or
    sparse.

    Returns an array of shape ``(len(xs), W.shape[1])``, or
    ``(len(xs), len(v))`` without ``W``. With ``full_output`` it returns
    ``(values, info)``, where ``info`` names the ``kernel``
    (``"single_pass"`` or ``"squaring"``) and gives the ``unif_mass``
    ``rate * max(xs)`` and ``poisson_tail``, a bound on the Poisson mass
    discarded at any point.

    Raises
    ------
    RuntimeError
        If the discarded Poisson mass exceeds ``EXPM_TAIL``, or the series
        needs more terms than an array can index.
    """
    S = S if sparse.issparse(S) else np.asarray(S, dtype=float)
    v = np.asarray(v, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    S = sparse.csc_array(S, dtype=float)
    if v.shape != (S.shape[0],):
        raise ValueError(f"v has shape {v.shape}, expected ({S.shape[0]},)")
    if W is not None:
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[0] != S.shape[0]:
            raise ValueError(f"W has shape {W.shape}, expected ({S.shape[0]}, m)")
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if not np.all(np.isfinite(xs)):
        raise ValueError("grid points must be finite")
    if np.any(xs < 0):
        raise ValueError("grid points must be nonnegative")
    P, rate = _uniformized(S)
    order = np.argsort(xs, kind="stable")
    masses = rate * xs[order]
    at_zero = v if W is None else v @ W
    out = np.empty((xs.shape[0], at_zero.shape[0]))
    zero = int(np.searchsorted(masses, 0.0, side="right"))
    out[order[:zero]] = at_zero
    mass = float(masses[-1]) if zero < masses.shape[0] else 0.0
    squaring = _prefer_squaring(mass, masses.shape[0] - zero, S.shape[0],
                                P.count_nonzero())
    tail = 0.0
    if squaring:
        rows, tail = _squaring(P, masses[zero:], v)
        out[order[zero:]] = rows if W is None else rows @ W
    elif zero < masses.shape[0]:
        out[order[zero:]], tail = _single_pass(P, masses[zero:], v, W)
    if tail > EXPM_TAIL:
        raise RuntimeError(f"uniformization discarded a Poisson mass of {tail:.3g}, "
                           f"above EXPM_TAIL = {EXPM_TAIL:g}")
    if not full_output:
        return out
    return out, {"kernel": "squaring" if squaring else "single_pass",
                 "unif_mass": mass, "poisson_tail": tail}


# ---------------------------------------------------------------------------
# distribution evaluation
# ---------------------------------------------------------------------------

class _Law:
    """The matrix-exponential law with density ``init expm(S x) w / denom``
    of a chain and a weight ``w`` over its transient states.

    With ``y = S^{-1} w`` its cdf is ``init (expm(S x) - I) y / denom``
    and its ``i``-th non-central moment is
    ``(-1)^{i+1} i! init S^{-i} y / denom``, where ``denom = -init y`` is
    the mass of the weight under ``init``. Age, peak age and the plain
    absorption time weight by the age mask, the success column and the
    sum of the absorbing columns.
    """

    def __init__(self, chain: AbsorbingChain, w):
        self.S, self.init = chain.S_csc, chain.require_init()
        self.solve_right = chain.solve_right
        self.y = self.solve_right(w)
        #: the kernel projects ``init expm(S x)`` onto these two columns
        self.W = np.column_stack((w, self.y))
        self._at_zero = self.init @ self.W
        self.denom = float(-(self.init @ self.y))
        if self.denom <= 0:
            raise ValueError("conditioning weight has zero mass under init")

    def pdf_cdf(self, proj):
        """Density and cdf from the projections ``init expm(S x) W``."""
        return (proj[..., 0] / self.denom,
                (proj[..., 1] - self._at_zero[1]) / self.denom)

    def at(self, x):
        """``(pdf, cdf)`` at a scalar or a one-dimensional array of times."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise ValueError("time arguments must be nonnegative")
        proj = expm_action_grid(self.S, np.atleast_1d(arr), self.init, self.W)
        if arr.ndim == 0:
            return tuple(float(val) for val in self.pdf_cdf(proj[0]))
        return self.pdf_cdf(proj)

    def moments(self, count: int) -> list:
        """The first ``count`` moments, by repeated right solves against
        the cached LU factor; the inverse is never formed."""
        out, vec = [], self.y
        for i in range(1, count + 1):
            vec = self.solve_right(vec)
            sign = 1.0 if i % 2 else -1.0
            out.append(sign * factorial(i) * float(self.init @ vec) / self.denom)
        return out

    def moment(self, i: int) -> float:
        return self.moments(_whole(i, "moment order"))[-1]


def absorption_probability(chain: AbsorbingChain, m: int) -> float:
    """Probability ``-init S^{-1} V[:, m]`` of absorbing in column ``m``."""
    if not 0 <= m < chain.n_absorbing:
        raise ValueError(f"absorbing column {m} out of range")
    init = chain.require_init()
    row = chain.solve_left(init)
    return float(-(row @ chain.V[:, m]))


def phase_type(sigma, S) -> AbsorbingChain:
    """The phase-type law ``(sigma, S)`` as its absorbing chain.

    ``S`` is a dense sub-generator over the transient states and
    ``sigma`` an initial probability vector. The chain absorbs through
    the one column of exit rates ``-S 1``, and its age mask holds every
    state.
    """
    S = np.asarray(S, dtype=float)
    return AbsorbingChain(S, -S.sum(axis=1)[:, None], sigma, np.ones(S.shape[0]))


def erlang_ph(rate: float, k: int) -> AbsorbingChain:
    """Erlang-``k`` phase-type with mean ``1/rate``.

    Bidiagonal representation: ``k`` phases, each left at rate
    ``k * rate``; the variance is ``1 / (k * rate**2)``, so large ``k``
    approximates a deterministic duration.
    """
    k = _whole(k, "Erlang order k")
    step = k * _rate(rate, "rate")
    S = np.diag(np.full(k, -step))
    if k > 1:
        S += np.diag(np.full(k - 1, step), k=1)
    sigma = np.zeros(k)
    sigma[0] = 1.0
    return phase_type(sigma, S)
