"""Freeze/preempt policy: absorbing cycle chain and its initial vector.

Under freeze/preempt, every transmission start halts sampling and
transmission for an Erlang-``k`` duration with mean ``1/freeze_rate``
(``k`` phases, each at rate ``k * freeze_rate``), and a packet still in
service becomes obsolete and is removed at the source the moment a
fresher packet is delivered. When a freeze ends with a server free, a
fresh packet starts on the free server (server 1 if both are free) and
a new freeze begins.

The cycle between consecutive receptions is an absorbing chain over
``9k + 5`` transient states, built from one rule table (``_RULES``):
nine state families carry the freeze phase ``1..k``, five singletons
are not in freeze. Its initial vector is in closed form: the stationary
law of the three cycle states a packet starts in, seen from one freeze
start to the next. A recurrent chain over ``5k + 2`` states is an
independent reference for it. The preemption-only limit (freezes of
length zero) is the zero-freeze collapse of the rule table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .phasetype import _LOST, _OK, AbsorbingChain, _rule_chain, _StateIndex, _triplets

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


@dataclass(frozen=True)
class FpParams:
    """Freeze/preempt parameters.

    ``mu1 >= mu2 > 0`` are the service rates (swapped into order if
    given the other way round), ``freeze_rate`` is the reciprocal mean
    freeze duration, and ``k`` is the Erlang order of the freeze
    distribution (``k = 1`` exponential, large ``k`` nearly
    deterministic). An infinite ``freeze_rate`` means freezes of length
    zero: the preemption-only policy.
    """

    mu1: float
    mu2: float
    freeze_rate: float
    k: int
    swapped: bool = False

    def __post_init__(self):
        if not (0 < self.mu1 < np.inf and 0 < self.mu2 < np.inf):
            raise ValueError("service rates must be positive and finite")
        if not self.freeze_rate > 0:
            raise ValueError("freeze_rate must be positive")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("Erlang order k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))
        fast, slow = float(self.mu1), float(self.mu2)
        if fast < slow:
            fast, slow = slow, fast
            object.__setattr__(self, "swapped", True)
        object.__setattr__(self, "mu1", fast)
        object.__setattr__(self, "mu2", slow)
        object.__setattr__(self, "freeze_rate", float(self.freeze_rate))

    @property
    def policy(self) -> str:
        return "fp_preempt_only" if math.isinf(self.freeze_rate) else "fp"

    def meta(self) -> dict:
        """Model fields; the preemption-only limit has no freeze rate or k."""
        out = {"policy": self.policy, "mu1": self.mu1, "mu2": self.mu2,
               "swapped": self.swapped}
        if self.policy == "fp":
            out.update(freeze_rate=self.freeze_rate, k=self.k)
        return out


def preempt_only_params(mu1: float, mu2: float) -> FpParams:
    """Parameters of the preemption-only limit: freezes of length zero."""
    return FpParams(mu1, mu2, math.inf, 1)


class FpStateIndex(_StateIndex):
    """Index map of the cycle chain, ``9k + 5`` states.

    Families are laid out in the order of ``_RULES``, the frozen ones as
    contiguous phased blocks: (1,·), (2,·), 3, (4,·), 5, (6,·), 7, (8,·),
    9, (10,·), (11,·), (12,·), (13,·), 14, so the ``k * freeze_rate``
    phase ladders appear as superdiagonal runs in matrix dumps.
    """

    def __init__(self, k: int):
        super().__init__(k, _RULES, [f for f, (e, _) in _RULES.items() if e is not None])


class RmcStateIndex(_StateIndex):
    """Index map of the recurrent chain: families (1..5, phase), then the
    two unfrozen states 6 and 7."""

    def __init__(self, k: int):
        super().__init__(k, range(1, 8), range(1, 6))


def fp_aoi_mask(k: int) -> np.ndarray:
    """Selector of the post-delivery states, where the cycle chain
    overlaps the age sawtooth: families (11,·), (12,·), (13,·) and state
    14 — ``3k + 1`` states in total."""
    idx = FpStateIndex(k)
    mask = np.zeros(idx.size)
    mask[idx.first[11]:idx.first[14] + 1] = 1.0  # laid out contiguously
    return mask


def build_fp_amc(p: FpParams) -> AbsorbingChain:
    """Absorbing chain of one freeze/preempt cycle (no initial vector):
    the state families of ``_RULES``, written ``(family, phase)`` while a
    freeze runs. Absorbing columns: 0 = successor delivered (success), 1 =
    tagged packet preempted (failure). Use :func:`fp_initial_vector` to
    attach the initial distribution.
    """
    return _rule_chain(FpStateIndex(p.k), _RULES, {1: p.mu1, 2: p.mu2},
                       p.k * p.freeze_rate, None, fp_aoi_mask(p.k), p.meta())


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


def rmc_stationary(P, p: FpParams,
                   residual_tol: float = 1e-10) -> StationarySolution:
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
        If the solved vector leaves a residual above ``residual_tol``
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
    if not residual <= residual_tol * scale:
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

    With ``L(s) = (1 + s/(k*freeze_rate))^-k`` the freeze's Laplace
    transform, A -> B w.p. ``L(mu1)`` (the new packet outlasts the freeze),
    B -> C w.p. ``L(mu2) - mu2/(mu1+mu2) L(mu1+mu2)`` (the older packet
    finishes first, the new one after the freeze), C -> B in the mirror
    image, and every other move goes to A."""
    a, b, k, step = p.mu1, p.mu2, p.k, p.k * p.freeze_rate

    def swap(new, old):  # the difference through L(new + old)/L(new), so none cancels
        tail = math.expm1(-k * math.log1p(old / (step + new)))
        return math.exp(-k * math.log1p(new / step)) * (old - new * tail) / (new + old)

    ab, bc, cb = math.exp(-k * math.log1p(a / step)), swap(b, a), swap(a, b)
    return np.array([[1 - ab, ab, 0], [1 - bc, 0, bc], [1 - cb, cb, 0]])


def _entry_vector(p: FpParams, idx: _StateIndex, settle=lambda fam: fam) -> np.ndarray:
    """The stationary law of :func:`_entry_chain` (one packet per freeze
    start), ``(1 - P_BC P_CB, P_AB, P_AB P_BC)`` normalized, on the first
    states of the ``_ENTRY`` families, each taken through ``settle``."""
    P = _entry_chain(p)
    pi = np.array([1.0 - P[1, 2] * P[2, 1], P[0, 1], P[0, 1] * P[1, 2]])
    init = np.zeros(idx.size)
    init[[idx.first[settle(fam)] for fam in _ENTRY]] = pi / pi.sum()
    return init


def fp_initial_vector(p: FpParams) -> np.ndarray:
    """Distribution of the cycle-chain state in which a new packet starts:
    the entry law on states (1,1), (10,1) and (6,1)."""
    return _entry_vector(p, FpStateIndex(p.k))


def _settled(fam):
    """Where ``fam`` goes on when freezes take no time: along its exits to
    a singleton. Absorbing columns stay as they are."""
    exit_ = _RULES.get(fam, (None,))[0]
    return fam if exit_ is None else _settled(exit_)


def _build_preempt_only(p: FpParams) -> AbsorbingChain:
    """Exact 5-state chain of the preemption-only limit: the zero-freeze
    collapse of the rule table.

    Each phased family goes straight on to its exit (:func:`_settled`),
    which leaves singletons 5, 3, 9, 7 and 14, in that order. The initial
    vector is the entry law at ``L = 1``, settled the same way: the odds
    ``a(a+b) : a^2+ab+b^2 : (a+b)^2`` on states 5, 3 and 9. Mean age and
    mean peak age both equal ``(a + 2b)(2a + b) / (a + b)^3``.
    """
    idx = _StateIndex(1, (5, 3, 9, 7, 14), ())
    rules = {fam: (None, {server: _settled(dst) for server, dst in _RULES[fam][1].items()})
             for fam in idx.first}
    return _rule_chain(idx, rules, {1: p.mu1, 2: p.mu2}, 0.0, _entry_vector(p, idx, _settled),
                       np.eye(5)[idx.first[14]], p.meta())


def build_fp_model(p: FpParams) -> AbsorbingChain:
    """Complete freeze/preempt cycle chain with its initial vector.

    One chain, factored once, with the closed-form initial vector of
    :func:`fp_initial_vector`. An infinite freeze rate gives the exact
    preemption-only chain instead.
    """
    if p.policy == "fp_preempt_only":
        return _build_preempt_only(p)
    return build_fp_amc(p).with_init(fp_initial_vector(p))
