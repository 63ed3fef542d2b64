"""Absorbing continuous-time Markov chains and their phase-type laws.

A phase-type random variable is the time to absorption of a CTMC with
transient generator block ``S`` (all states transient, so ``S`` is
nonsingular) started from an initial probability vector ``sigma``, so it
is held as an :class:`AbsorbingChain` like every policy model. This
module holds the numerics they all build on: the chain, its assembly
from a policy's rule table, absorption probabilities, the action of the
matrix exponential (by uniformization, or scaling and squaring), the one
law whose densities, cdfs and moments ``metrics`` evaluates, and the one check of
every count (``_whole``), rate (``_rate``) and array (``_array``) the package is given.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from math import ceil, factorial, inf, isfinite, ldexp, lgamma, log, log2
from numbers import Real
from sys import float_info
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

#: Tolerance for structural checks (row sums, probability normalization).
#: Scaled by the largest rate in a row so that chains with very large
#: rates (e.g. fast freeze phases) validate correctly.
STRUCT_TOL = 1e-12

#: Poisson tail mass discarded when truncating the uniformization series.
EXPM_TAIL = 1e-14

#: Rows of the single-pass walk held and weighted at once.
_BLOCK = 256

#: Points weighted at once in a block: a 64 x 256 float64 tile of weights, 128 KB, stays in L2.
_TILE = 64

#: Costs deciding between a walk and squaring, in flops of a dense product
#: at 40 GFlop/s (one BLAS thread): a walk step 1-2 us plus 2.1-2.4 ns per
#: stored entry, a squaring 2-7 us beyond its flops (its diagonal reset too),
#: and scipy's Padé step 6-21 squarings (least squares in logs, orders 7-455).
_VECTOR_COST = 5e4
_ENTRY_COST = 100.0
_PRODUCT_COST = 2e5
_PADE_PRODUCTS = 12.0


def _factored(S):
    """CSC form of a sub-generator block, dense or sparse, its sparse LU factor,
    diagonal and row sums, validated on the stored entries: nonnegative off-diagonal
    rates, nonpositive diagonal and row sums, every state transient. Its arrays are
    read-only, shared where they already were (a built chain's block comes as it is),
    else copied. Upper triangular blocks factor in order, without fill; others by COLAMD."""
    if sparse.issparse(S):
        shared = isinstance(S, sparse.csc_array) and S.dtype == float and not any(
            a.flags.writeable for a in (S.data, S.indices, S.indptr))
        Q = S if shared else sparse.csc_array(S, dtype=float)
        if not Q.has_canonical_format:
            Q = Q.copy()
            Q.sum_duplicates()
        _array(Q.data, "S")
    else:
        Q = sparse.csc_array(_array(S, "S", 2))
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError("S must be square")
    Q.data, Q.indices, Q.indptr = (a.copy() if a.flags.writeable else a
                                   for a in (Q.data, Q.indices, Q.indptr))
    for a in (Q.data, Q.indices, Q.indptr):
        a.flags.writeable = False
    cols = np.repeat(np.arange(n), np.diff(Q.indptr))
    on_diag = Q.indices == cols
    if np.any(Q.data[~on_diag] < 0):
        raise ValueError("S has negative off-diagonal entries")
    diag = np.bincount(Q.indices[on_diag], Q.data[on_diag], minlength=n)
    if np.any(diag > 0):
        raise ValueError("S has positive diagonal entries")
    row_sums = np.bincount(Q.indices, Q.data, minlength=n)
    if np.any(row_sums > STRUCT_TOL * np.maximum(1.0, np.abs(diag))):
        raise ValueError("S has rows summing to more than zero")
    upper = np.all(Q.indices <= cols)
    order = {"permc_spec": "NATURAL", "relax": 1, "panel_size": 1} if upper else {}
    try:
        return Q, splu(Q, **order), diag, row_sums
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


def _array(a, name: str, ndim: int | None = 1, finite: bool = True,
           ascending: bool = False) -> np.ndarray:
    """``a`` as a float array, a view where it is one already; a ValueError naming ``name``
    if it has other than ``ndim`` dimensions (None: any), a NaN, an infinity where
    ``finite``, or a step down where ``ascending``."""
    out = np.asarray(a, dtype=float)
    if ndim is not None and out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if not (np.isfinite(out).all() if finite else not np.isnan(out).any()):
        raise ValueError(f"{name} holds a {'non-finite entry' if finite else 'NaN'}")
    if ascending and np.any(out[1:] < out[:-1]):
        raise ValueError(f"{name} must be sorted ascending")
    return out


def _ordered_rates(params) -> None:
    """Check and store a parameter set's service rates, swapped into ``mu1 >= mu2``."""
    mu1, mu2 = _rate(params.mu1, "mu1"), _rate(params.mu2, "mu2")
    object.__setattr__(params, "swapped", params.swapped or mu1 < mu2)
    object.__setattr__(params, "mu1", max(mu1, mu2))
    object.__setattr__(params, "mu2", min(mu1, mu2))


def _checked_init(init, n: int) -> np.ndarray:
    init = _array(init, "init").copy()
    init.flags.writeable = False
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
        S_csc, lu, diag, row_sums = _factored(self.S_csc)
        V, mask = _array(self.V, "V", 2).copy(), _array(self.aoi_mask, "aoi_mask").copy()
        V.flags.writeable = mask.flags.writeable = False
        n = S_csc.shape[0]
        if V.shape[0] != n:
            raise ValueError("V must have the same number of rows as S")
        if np.any(V < 0):
            raise ValueError("V has negative entries")
        scale = np.maximum(1.0, np.abs(diag))
        resid = np.abs(row_sums + V.sum(axis=1))
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


def _table(rules: dict) -> tuple:
    """A rule table as ``(family, exit, moves)`` tuples, the key of :func:`_structure`."""
    return tuple((fam, exit_, tuple(moves.items())) for fam, (exit_, moves) in rules.items())


@lru_cache(maxsize=4)
def _structure(table: tuple, k: int, families: tuple, phased: frozenset):
    """The read-only CSC ``indptr`` and ``indices`` of a rule table's ``S`` at Erlang
    order ``k``, the positions in ``V.ravel()`` of ``V``'s entries, which follow ``S``'s,
    and the coefficients of ``mu1``, ``mu2`` and the freeze step in every entry.
    ``table`` is the rule table as :func:`_table` gives it."""
    idx = _StateIndex(k, families, phased)
    rules = {fam: (exit_, dict(moves)) for fam, exit_, moves in table}
    units = ({1: 1.0, 2: 0.0}, 0.0), ({1: 0.0, 2: 1.0}, 0.0), ({1: 0.0, 2: 0.0}, 1.0)
    triplets = [_triplets(idx, rules, *unit) for unit in units]
    rows, cols, _ = triplets[0]
    n = idx.size  # S's entries keyed in column-major order, then V's by flat position
    keys, at = np.unique(np.where(cols < n, cols * n + rows, n * n + 2 * rows + cols - n),
                         return_inverse=True)
    nnz = int(np.searchsorted(keys, n * n))
    out = (np.searchsorted(keys[:nnz] // n, np.arange(n + 1)).astype(np.intc),
           (keys[:nnz] % n).astype(np.intc), keys[nnz:] - n * n,
           np.array([np.bincount(at, vals, minlength=keys.size) for *_, vals in triplets]))
    for a in out:
        a.flags.writeable = False
    return out


def _rule_chain(idx: _StateIndex, table: tuple, p, entry, age) -> AbsorbingChain:
    """The chain of a rule table at ``p``: servers 1 and 2 complete at ``p.mu1`` and
    ``p.mu2``, a freeze phase ends at ``p.k * p.freeze_rate``; moves into ``_OK``/``_LOST``
    fill ``V``, the rest ``S``. ``init`` is ``idx.entry(entry)`` (None while ``entry``
    is), ``aoi_mask`` ``idx.mask(age)`` and ``meta`` ``p.meta()``. A build only weighs
    the rates: the structure is :func:`_structure`'s, cached per table and order."""
    indptr, indices, at_V, coef = _structure(table, idx.k, tuple(idx.first), idx.phased)
    n, nnz = idx.size, indices.size
    data = np.array([p.mu1, p.mu2, p.k * p.freeze_rate if idx.phased else 0.0]) @ coef
    data.flags.writeable = False
    V = np.zeros(2 * n)
    V[at_V] = data[nnz:]
    S = sparse.csc_array((data[:nnz], indices, indptr), shape=(n, n))
    init = None if entry is None else idx.entry(entry)
    return AbsorbingChain(S, V.reshape(n, 2), init, idx.mask(age), meta=p.meta())


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


def _poisson_tail(mass, left, right, log_factorial=None):
    """Upper bound on the Poisson(``mass``) probability outside
    ``[left, right]``.

    Above ``right`` each term is at most ``mass / (right + 2)`` times the
    one before, below ``left`` at most ``(left - 1) / mass``, so while
    that ratio is under one each tail is at most a geometric series from
    its first term; otherwise the bound is 1. ``log_factorial``, if given, is
    a table of ``log(j!)`` for ``j`` up to ``right + 1``.
    """
    mass, left, right = np.broadcast_arrays(np.asarray(mass, dtype=float),
                                            left, right)

    def geometric(j, ratio):
        log_j = _log_factorial(j) if log_factorial is None else log_factorial[j.astype(int)]
        with np.errstate(divide="ignore"):
            pmf = np.exp(j * np.log(mass) - mass - log_j)
            sum_ = pmf / (1.0 - ratio)
        return np.where(ratio < 1.0, sum_, 1.0)

    first = np.maximum(left - 1, 0)
    below = np.where(left > 0, geometric(first, first / mass), 0.0)
    return geometric(right + 1, mass / (right + 2.0)) + below


def _squaring(S, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v expm(S x)`` at each point ``x`` by scaling and squaring (Al-Mohy and
    Higham 2009): scipy's Padé step at ``S x / 2^s``, of 1-norm at most one,
    squared ``s`` times, so one Padé step and ``O(log(||S x||))`` dense products
    per point. For an upper triangular ``S`` (every policy chain, in visiting
    order) each power's diagonal is reset to its exact ``exp(diag(S) x 2^(j - s))``,
    where the squarings' rounding would otherwise double each time."""
    S = S.toarray()
    diag, upper = S.diagonal(), not np.tril(S, -1).any()
    log_norm = log2(np.linalg.norm(S, 1))
    rows = []
    for x in xs:
        s = max(0, ceil(log_norm + log2(x)))
        E = expm(S * ldexp(x, -s))
        for j in range(1, s + 1):
            E = E @ E
            if upper:  # an exponent past the float range is -inf, and its exp 0
                with np.errstate(over="ignore"):
                    np.fill_diagonal(E, np.exp(diag * ldexp(x, j - s)))
        rows.append(v @ E)
    return np.array(rows)


def _single_pass(P, masses: np.ndarray, v: np.ndarray, W):
    """``v expm(S x) W`` at each mass ``rate * x`` (ascending) from one walk.

    The walk forms ``u_j = v P^j`` once, for ``j`` up to the Poisson right
    bound of the largest mass, each step one direct ``csr_matvec`` call
    (``P.T @ u`` without scipy's dispatch) into the next row of one reused
    block, and keeps only the projections ``u_j W`` (``u_j`` itself when
    ``W`` is None). Each point is the Poisson-weighted sum of the
    projections over its window (Grassmann 1977; Fox and Glynn 1988), the
    weights normalized to sum to one over the terms kept: in each block, a
    tile of ``_TILE`` points is weighted over its share of their windows'
    union. Returns the values and a bound on the Poisson mass dropped.
    """
    left, right = _poisson_window(masses, EXPM_TAIL)
    log_mass = np.log(masses)[:, None]
    n, PT = v.shape[0], P.T.tocsr()
    arrays = (n, n, PT.indptr, PT.indices, PT.data)
    acc = np.zeros((masses.shape[0], n if W is None else W.shape[1]))
    norm = np.zeros(masses.shape[0])
    steps = _length(right[-1]) + 1
    log_factorial = _log_factorial(np.arange(steps + 1))
    U = np.zeros((_BLOCK + 1, n))
    rows = list(U)
    U[_BLOCK] = v
    for j0 in range(0, steps, _BLOCK):
        end = min(j0 + _BLOCK, steps)
        U[0], U[1:] = U[_BLOCK], 0.0  # carry the last row over, clear the rest
        for r in range(end - j0):
            csr_matvec(*arrays, rows[r], rows[r + 1])
        # the points whose window meets this block are contiguous
        a, b = np.searchsorted(right, j0), np.searchsorted(left, end - 1, "right")
        proj = U[:end - j0] if W is None else U[:end - j0] @ W
        for t0 in range(a, b, _TILE):
            t1 = min(t0 + _TILE, b)  # both window bounds are nondecreasing
            lo, hi = max(int(left[t0]), j0), min(int(right[t1 - 1]) + 1, end)
            p = np.arange(lo, hi) * log_mass[t0:t1]  # in place: no large temporaries
            p -= masses[t0:t1, None]
            p -= log_factorial[lo:hi]
            np.exp(p, out=p)
            acc[t0:t1] += p @ proj[lo - j0:hi - j0]
            norm[t0:t1] += p.sum(axis=1)
    tail = float(np.max(_poisson_tail(masses, left, right, log_factorial)))
    return acc / norm[:, None], tail


def _prefer_squaring(mass: float, points: int, order: int, nnz: int) -> bool:
    """Whether squaring is cheaper than one walk, in flop equivalents.

    A walk takes about ``mass`` steps, each a fixed cost plus a cost per
    stored entry; squaring takes one Padé step and about ``log2(2 mass)``
    dense products of order ``order`` per point, each a fixed cost plus its
    flops. Only a large mass at few points and a small order tips the
    balance to squaring. The costs are compared in floating point, since a
    huge mass overflows any count.
    """
    if not points:
        return False
    walk = _poisson_window(mass, EXPM_TAIL)[1] * (_VECTOR_COST + _ENTRY_COST * nnz)
    products = _PADE_PRODUCTS + max(0.0, log2(2.0 * mass))
    return points * products * (_PRODUCT_COST + 2.0 * order ** 3) < walk


def expm_action_grid(S, xs, v, W=None, full_output: bool = False):
    """Evaluate ``v @ expm(S * x) @ W`` for every ``x`` of a grid.

    By default (``W`` None) the full row vector ``v @ expm(S * x)``. The
    points may come in any order and may repeat; row ``i`` belongs to
    ``xs[i]``. A single pass walks ``v P^j`` once, up to the Poisson right
    bound of ``rate * max(xs)``, so the work scales with the largest mass
    rather than with the number of points; with ``W`` only the projections
    of the walk onto the columns of ``W`` are kept, so laws of one ``v``
    share a walk by stacking their weights. For few points at a huge mass
    each point is scaled and squared from scipy's Padé step instead; the
    choice depends only on the mass, the number of points and the order
    of ``S``, which may be dense or sparse.

    Returns an array of shape ``(len(xs), W.shape[1])``, or
    ``(len(xs), len(v))`` without ``W``. With ``full_output`` it returns
    ``(values, info)``, where ``info`` names the ``kernel``
    (``"single_pass"`` or ``"squaring"``) and gives the ``unif_mass``
    ``rate * max(xs)`` and ``poisson_tail``, a bound on the Poisson mass
    the walk discarded at any point, weighed only over its window and its
    tile's; 0 for squaring, which drops no series.

    Raises
    ------
    RuntimeError
        If the walk's discarded Poisson mass exceeds ``EXPM_TAIL``, or it
        needs more steps than an array can index.
    """
    S = sparse.csc_array(S if sparse.issparse(S) else _array(S, "S", 2), dtype=float)
    _array(S.data, "S")
    v, xs = _array(v, "v"), _array(xs, "xs")
    W = None if W is None else _array(W, "W", 2)
    if S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    if v.shape != (S.shape[0],):
        raise ValueError(f"v has shape {v.shape}, expected ({S.shape[0]},)")
    if W is not None and W.shape[0] != S.shape[0]:
        raise ValueError(f"W has shape {W.shape}, expected ({S.shape[0]}, m)")
    if np.any(xs < 0):
        raise ValueError("xs must be nonnegative")
    P, rate = _uniformized(S)
    order = np.argsort(xs, kind="stable")
    with np.errstate(over="ignore"):  # past the float range no walk runs; squaring does
        masses = rate * xs[order]
    at_zero = v if W is None else v @ W
    out = np.empty((xs.shape[0], at_zero.shape[0]))
    zero = int(np.searchsorted(masses, 0.0, side="right"))
    out[order[:zero]] = at_zero
    mass = float(masses[-1]) if zero < masses.shape[0] else 0.0
    squaring = mass == inf or _prefer_squaring(mass, masses.shape[0] - zero, S.shape[0],
                                               P.count_nonzero())
    tail = 0.0
    if squaring:
        rows = _squaring(S, xs[order[zero:]], v)
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
    m = _whole(m, "absorbing column", low=0)
    if m >= chain.n_absorbing:
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
    S = _array(S, "S", 2)
    return AbsorbingChain(S, -S.sum(axis=1)[:, None], _array(sigma, "sigma"), np.ones(S.shape[0]))


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
