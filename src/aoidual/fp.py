"""Freeze/preempt policy: absorbing cycle chain and its initial vector.

Under freeze/preempt, every transmission start halts sampling and
transmission for an Erlang-``k`` duration with mean ``1/freeze_rate``
(``k`` phases, each at rate ``k * freeze_rate``; ``k = inf`` is a
deterministic freeze), and a packet still in service becomes obsolete
and is removed at the source the moment a fresher packet is delivered.
When a freeze ends with a server free, a fresh packet starts on the
free server (server 1 if both are free) and a new freeze begins.

The cycle between consecutive receptions is an absorbing chain over
``9k + 5`` transient states, built from one rule table (``_RULES``):
nine state families carry the freeze phase ``1..k``, five singletons
are not in freeze. Its initial vector is in closed form: the stationary
law of the three cycle states a packet starts in (``_ENTRY``), seen
from one freeze start to the next, and the age mask selects the families
``_AGE``. A recurrent chain over ``5k + 2`` states is an
independent reference for it. The preemption-only limit (freezes of
length zero) is the zero-freeze collapse of the rule table.
:func:`fp_means` gets the means from the table at any ``k``, ``inf`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from .phasetype import (_LOST, _OK, AbsorbingChain, _ordered_rates, _rate, _rule_chain,
                        _StateIndex, _table, _triplets, _whole)

#: The freeze/preempt rules: ``family: (exit, {server: destination})``.
#: A completion at server 1 (rate ``mu1``) or 2 (``mu2``) moves the chain
#: to the destination, a family or an absorbing column. A family with an
#: ``exit`` carries the freeze phase and moves there when its freeze ends;
#: ``None`` marks a singleton: no freeze runs, both servers are busy, and a
#: completion immediately starts a fresh transmission (on server 1 if both
#: are then free).
_RULES = {
    # (1,·)/(2,·): tagged alone on server 1/2; its delivery idles both servers
    1: (4, {1: 11}), 2: (8, {2: 11}),
    # 3,(4,·): tagged on server 1, server 2 carrying a fresher packet, whose
    # completion preempts the tagged one
    3: (None, {1: 14, 2: _LOST}), 4: (3, {1: 13, 2: _LOST}),
    # 5,(6,·): tagged on server 1, server 2 carrying a staler packet, which
    # the tagged packet's delivery obsoletes (removed mid-freeze)
    5: (None, {1: 12, 2: 4}), 6: (5, {1: 11, 2: 1}),
    # 7,(8,·) and 9,(10,·): the mirror images, tagged on server 2
    7: (None, {1: _LOST, 2: 14}), 8: (7, {1: _LOST, 2: 12}),
    9: (None, {1: 8, 2: 12}), 10: (9, {1: 2, 2: 11}),
    # tagged delivered: (11,·) both servers idle, (12,·)/(13,·) a successor
    # on server 1/2 alone, 14 successors on both servers
    11: (12, {}), 12: (14, {1: _OK}), 13: (14, {2: _OK}), 14: (None, {1: _OK, 2: _OK}),
}

#: Families a new packet starts in: the states A, B, C of :func:`_entry_chain`.
_ENTRY = (1, 10, 6)

#: Age families (the tagged packet delivered), and the phased families.
_AGE = (11, 12, 13, 14)
_PHASED = tuple(fam for fam, (exit_, _) in _RULES.items() if exit_ is not None)
_TABLE = _table(_RULES)  # the key of the cached chain structure
_index = lru_cache(maxsize=4, typed=True)(lambda k: FpStateIndex(k))  # one index per order


@dataclass(frozen=True)
class FpParams:
    """Freeze/preempt parameters.

    ``mu1 >= mu2 > 0`` are the service rates (swapped into order if
    given the other way round), ``freeze_rate`` is the reciprocal mean
    freeze duration, and ``k`` is the Erlang order of the freeze
    distribution (``k = 1`` exponential, large ``k`` nearly
    deterministic, ``math.inf`` deterministic). An infinite ``freeze_rate``
    means freezes of length zero: the preemption-only policy.
    """

    mu1: float
    mu2: float
    freeze_rate: float
    k: int
    swapped: bool = False

    def __post_init__(self):
        _ordered_rates(self)
        object.__setattr__(self, "freeze_rate", _rate(self.freeze_rate, "freeze_rate", True))
        object.__setattr__(self, "k", _whole(self.k, "Erlang order k", infinite=True))

    @property
    def policy(self) -> str:
        return "fp_preempt_only" if math.isinf(self.freeze_rate) else "fp"

    def meta(self) -> dict:
        """Model fields; the preemption-only limit has no freeze rate or k.
        ``k = inf`` is ``"inf"``: JSON would write it as null, "not applicable"."""
        out = {"policy": self.policy, "mu1": self.mu1, "mu2": self.mu2,
               "swapped": self.swapped}
        if self.policy == "fp":
            out.update(freeze_rate=self.freeze_rate, k=self.k if self.k < math.inf else "inf")
        return out


def preempt_only_params(mu1: float, mu2: float) -> FpParams:
    """Parameters of the preemption-only limit: freezes of length zero."""
    return FpParams(mu1, mu2, math.inf, 1)


class FpStateIndex(_StateIndex):
    """Index map of the cycle chain, ``9k + 5`` states.

    Families are laid out in the order a cycle visits them, a topological order of
    the moves and exits of ``_RULES``, the frozen ones as contiguous phased blocks:
    (6,·), (10,·), 5, (1,·), (2,·), 9, (4,·), (8,·), 3, 7, (11,·), (13,·), (12,·), 14.
    A state leads only to the next phase or to a later family, so ``S`` is upper
    triangular and its LU factor has no fill; the ``k * freeze_rate`` phase ladders
    are superdiagonal runs of ``S``.
    """

    def __init__(self, k: int):
        if k == math.inf:
            raise ValueError("k = inf is not phase-type: use fp_means, as optimize does")
        super().__init__(k, (6, 10, 5, 1, 2, 9, 4, 8, 3, 7, 11, 13, 12, 14), _PHASED)


class RmcStateIndex(_StateIndex):
    """Index map of the recurrent chain: families (1..5, phase), then the
    two unfrozen states 6 and 7."""

    def __init__(self, k: int):
        super().__init__(k, range(1, 8), range(1, 6))


def build_fp_amc(p: FpParams) -> AbsorbingChain:
    """Absorbing chain of one freeze/preempt cycle (no initial vector):
    the state families of ``_RULES``, written ``(family, phase)`` while a
    freeze runs. Absorbing columns: 0 = successor delivered (success), 1 =
    tagged packet preempted (failure). Use :func:`fp_initial_vector` to
    attach the initial distribution.
    """
    return _rule_chain(_index(p.k), _TABLE, p, None, _AGE)


def build_fp_rmc(p: FpParams) -> sparse.csr_array:
    """CSR generator of the recurrent chain seen at an arbitrary time.

    States (families carry the freeze phase): (1,·) both servers idle,
    (2,·) server 1 busy alone, (3,·) server 2 busy alone, (4,·) both
    busy with server 2 holding the fresher packet, (5,·) both busy with
    server 1 holding the fresher packet; 6 and 7 are the unfrozen
    counterparts of (4,·) and (5,·). The chain is irreducible for every
    valid parameter set.
    """
    idx = RmcStateIndex(p.k)
    rules = {1: (2, {}), 2: (4, {1: 1}), 3: (5, {2: 1}), 4: (6, {1: 3, 2: 1}),
             5: (7, {1: 1, 2: 2}), 6: (None, {1: 5, 2: 2}), 7: (None, {1: 2, 2: 4})}
    rows, cols, rates = _triplets(idx, rules, {1: p.mu1, 2: p.mu2}, p.k * p.freeze_rate)
    return sparse.csr_array((rates, (rows, cols)), shape=(idx.size, idx.size))


@dataclass(frozen=True)
class StationarySolution:
    """Stationary distribution of the recurrent chain, the packet-generation
    intensity it implies, its balance residual and the clipped mass."""

    pi: np.ndarray
    packet_rate: float
    residual: float
    clip: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float).copy()
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


#: Largest balance residual of a stationary solve, relative to the largest rate.
_RESIDUAL_TOL = 1e-10


def rmc_stationary(P, p: FpParams) -> StationarySolution:
    """Solve ``pi P = 0, pi 1 = 1`` and derive the packet-generation rate.

    ``P`` is sparse or dense. State (1,1) is pinned to one (it is never
    exponentially rare, unlike the unfrozen states), the trailing block is
    solved by sparse LU, and the vector normalized.
    New packets are generated when a freeze ends with a server free
    (families 1-3 at phase ``k``) or when a delivery frees a server while
    not frozen (states 6 and 7), so::

        packet_rate = k*freeze_rate * (pi[1,k] + pi[2,k] + pi[3,k])
                      + (mu1 + mu2) * (pi[6] + pi[7])

    Raises
    ------
    RuntimeError
        If the solved vector leaves a residual above ``_RESIDUAL_TOL``
        or a NaN one (a malformed or reducible generator).
    """
    P = sparse.csr_array(P, dtype=float)
    try:
        tail = splu(P[1:, 1:].T).solve(-P[:1, 1:].toarray()[0])
    except RuntimeError:  # exactly singular block: no solution, NaN residual
        tail = np.full(P.shape[0] - 1, np.nan)
    pi = np.append(1.0, tail)
    pi /= pi.sum()
    # a vector that is not finite has no residual; NaN fails the check
    residual = float(np.max(np.abs(P.T @ pi))) if np.all(np.isfinite(pi)) else math.nan
    scale = max(1.0, float(np.max(np.abs(P.diagonal()))))
    if not residual <= _RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"stationary solve residual {residual:.3e} exceeds tolerance")
    if np.any(pi < -1e-12):
        raise RuntimeError("stationary solve produced negative probabilities")
    clip = max(0.0, -float(pi.min()))
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()

    idx = RmcStateIndex(p.k)
    step = p.k * p.freeze_rate
    freeze_end = sum(pi[idx.index((fam, p.k))] for fam in (1, 2, 3))
    unfrozen = pi[idx.index(6)] + pi[idx.index(7)]
    rate = step * freeze_end + (p.mu1 + p.mu2) * unfrozen
    return StationarySolution(pi, float(rate), residual, clip)


def _entry_chain(p: FpParams) -> np.ndarray:
    """Transition matrix of the cycle state a new packet starts in, from
    one freeze start to the next: A = (1,1), alone on server 1; B = (10,1),
    on server 2 beside an older packet; C = (6,1), the mirror image.

    With ``L(s) = (1 + s/(k*freeze_rate))^-k`` (``exp(-s/freeze_rate)`` at
    ``k = inf``) the freeze's Laplace transform, A -> B w.p. ``L(mu1)`` (the
    new packet outlasts the freeze), B -> C w.p. ``L(mu2) - mu2/(mu1+mu2)
    L(mu1+mu2)`` (the older packet finishes first, the new one after the
    freeze), C -> B in the mirror image, and every other move goes to A."""
    a, b = p.mu1, p.mu2

    def log_lt(s, shift=0.0):  # log(L(shift + s) / L(shift))
        if p.k == math.inf:
            return -s / p.freeze_rate
        return -p.k * math.log1p(s / (p.k * p.freeze_rate + shift))

    def swap(new, old):  # the difference through L(new + old)/L(new), so none cancels
        tail = math.expm1(log_lt(old, new))
        return math.exp(log_lt(new)) * (old - new * tail) / (new + old)

    ab, bc, cb = math.exp(log_lt(a)), swap(b, a), swap(a, b)
    return np.array([[1 - ab, ab, 0], [1 - bc, 0, bc], [1 - cb, cb, 0]])


def _entry_law(p: FpParams) -> dict:
    """The stationary law of :func:`_entry_chain` (one packet per freeze start) over
    ``_ENTRY``, unnormalized: ``(1 - P_BC P_CB, P_AB, P_AB P_BC)``."""
    P = _entry_chain(p)
    return dict(zip(_ENTRY, (1.0 - P[1, 2] * P[2, 1], P[0, 1], P[0, 1] * P[1, 2])))


def fp_initial_vector(p: FpParams) -> np.ndarray:
    """Distribution of the cycle-chain state in which a new packet starts:
    the entry law on states (1,1), (10,1) and (6,1)."""
    return _index(p.k).entry(_entry_law(p))


def _settled(fam):
    """Where ``fam`` goes on when freezes take no time: along its exits to
    a singleton. Absorbing columns stay as they are."""
    exit_ = _RULES.get(fam, (None,))[0]
    return fam if exit_ is None else _settled(exit_)


#: The zero-freeze collapse of ``_RULES``: each phased family goes straight on to its exit
#: (:func:`_settled`), which leaves singletons 5, 3, 9, 7 and 14, in visiting order.
_COLLAPSE = _StateIndex(1, (5, 3, 9, 7, 14), ())
_COLLAPSED = {fam: (None, {server: _settled(dst) for server, dst in _RULES[fam][1].items()})
              for fam in _COLLAPSE.first}
_COLLAPSED_TABLE = _table(_COLLAPSED)


def _build_preempt_only(p: FpParams) -> AbsorbingChain:
    """Exact 5-state chain of the preemption-only limit: the zero-freeze
    collapse of the rule table (``_COLLAPSED``).

    The initial vector is the entry law at ``L = 1``, settled the same way: the odds
    ``a(a+b) : a^2+ab+b^2 : (a+b)^2`` on states 5, 3 and 9. Mean age and
    mean peak age both equal ``(a + 2b)(2a + b) / (a + b)^3``.
    """
    entry = {_settled(fam): w for fam, w in _entry_law(p).items()}
    return _rule_chain(_COLLAPSE, _COLLAPSED_TABLE, p, entry, map(_settled, _AGE))


def build_fp_model(p: FpParams) -> AbsorbingChain:
    """Complete freeze/preempt cycle chain with its initial vector.

    One chain, factored once, with the closed-form initial vector of
    :func:`fp_initial_vector`. An infinite freeze rate gives the exact
    preemption-only chain instead.
    """
    if p.policy == "fp_preempt_only":
        return _build_preempt_only(p)
    return build_fp_amc(p).with_init(fp_initial_vector(p))


class FpMeans(NamedTuple):
    """Mean age, mean peak age and success probability of a cycle."""
    mean_aoi: float
    mean_paoi: float
    p_success: float


#: Epoch types (freeze starts in the phased families, then the singletons); per server, the
#: 0/1 move of a completion from each (to _OK and _LOST last); freeze ends; the age epochs.
_EPOCHS = _StateIndex(1, _PHASED + tuple(f for f in _RULES if f not in _PHASED), ())
_MOVES = np.array([[[float(_RULES[f][1].get(server) == to) for to in (*_EPOCHS.first, _OK, _LOST)]
                    for f in _EPOCHS.first] for server in (1, 2)])
_EXITS = np.array([[float(_RULES[f][0] == to) for to in _EPOCHS.first] for f in _PHASED])
_AGE_EPOCHS = _EPOCHS.mask(_AGE)


def fp_means(p: FpParams) -> FpMeans:
    """The chain's mean age, mean peak age and P(success) at any ``k``, in fixed size.

    A Markov-renewal view of the cycle. In a freeze ``D = T U`` of mean ``T`` the phased
    families move under one 9x9 generator ``A``, so ``e^{BU}``, ``B = [[A T, I, 0], [0, 0,
    I], [0, 0, 0]]``, holds ``e^{AD}``, ``int_0^D e^{As} ds / T`` and ``int_0^D (D-s) e^{As}
    ds / T^2`` (Van Loan 1978; ``T`` keeps every block of order one). With the epoch kernel
    ``K0``, its length-weighted ``K1``, ``N = (I - K0)^-1`` and the entry law ``pi0``: mean
    age ``(pi0 N O1 + pi0 N K1 N O0) / pi0 N O0``, P(success) ``pi0 N ok0``, mean peak age
    ``(pi0 N ok1 + pi0 N K1 N ok0) / pi0 N ok0``, for an epoch's age occupancy and success.
    """
    Q = p.mu1 * _MOVES[0] + p.mu2 * _MOVES[1]
    q = Q.sum(axis=1)
    n, T = len(_PHASED), 1.0 / p.freeze_rate  # T = 0: freezes add nothing
    B = np.zeros((3 * n, 3 * n))
    B[:n, :n] = (Q[:n, :n] - np.diag(q[:n])) * T
    B[:n, n:2 * n] = B[n:2 * n, 2 * n:] = np.eye(n)
    if p.k == math.inf:  # E[e^{BU}] and E[U e^{BU}] for U = 1
        E = EU = expm(B)
    else:  # M^k and M^(k+1) for M = (I - B/k)^-1 = I + C, by squaring C: as (I + X)(I + Y)
        # = I + (X + Y + XY), the identity never swamps C, and no rounding error grows with k
        C, k = np.linalg.solve(p.k * np.eye(3 * n) - B, B), p.k
        R, base = np.zeros_like(B), C
        while k:
            if k & 1:
                R = R + base + R @ base
            base, k = base + base + base @ base, k >> 1
        E, EU = np.eye(3 * n) + R, np.eye(3 * n) + R + C + R @ C
    # E int_0^D e^{As} ds, and E int_0^D s e^{As} ds as E[D int_0^D] - E int_0^D (D - s)
    phi0, phi1 = T * E[:n, n:2 * n], T * T * (EU[:n, n:2 * n] - E[:n, 2 * n:])
    K0 = np.vstack((E[:n, :n] @ _EXITS, Q[n:, :-2] / q[n:, None]))
    K1 = np.vstack((T * EU[:n, :n] @ _EXITS, K0[n:] / q[n:, None]))
    W = np.column_stack((_AGE_EPOCHS, Q[:, -2]))  # age occupancy, success rate
    W0 = np.vstack((phi0 @ W[:n], W[n:] / q[n:, None]))
    W1 = np.vstack((phi1 @ W[:n], W[n:] / q[n:, None] ** 2))
    I_K0 = np.eye(_EPOCHS.size) - K0
    visits = np.linalg.solve(I_K0.T, _EPOCHS.entry(_entry_law(p)))
    (age0, ok0), (age1, ok1) = visits @ W0, visits @ W1 + visits @ K1 @ np.linalg.solve(I_K0, W0)
    return FpMeans(float(age1 / age0), float(ok1 / ok0), float(ok0))
