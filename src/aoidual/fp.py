"""Freeze/preempt policy: absorbing cycle chain and its initial vector.

Under freeze/preempt, every transmission start halts sampling and
transmission for an Erlang-``k`` duration with mean ``1/freeze_rate``
(``k`` phases, each at rate ``k * freeze_rate``), and a packet still in
service becomes obsolete and is removed at the source the moment a
fresher packet is delivered. When a freeze ends with a server free, a
fresh packet starts on the free server (server 1 if both are free) and
a new freeze begins.

The cycle between consecutive receptions is modeled by an absorbing
chain over ``9k + 5`` transient states: nine state families carry the
freeze phase ``1..k``, five singletons are not in freeze. Its initial
vector is in closed form: the stationary law of the three cycle states a
packet starts in, seen from one freeze start to the next. A recurrent
chain over ``5k + 2`` states is an independent reference for it. The
preemption-only limit (freezes of length zero) has an exact 5-state chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .phasetype import AbsorbingChain

#: State families of the cycle chain that carry a freeze phase; families
#: 3, 5, 7, 9 and 14 are singletons (no freeze running).
_AMC_PHASED = (1, 2, 4, 6, 8, 10, 11, 12, 13)


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


class _StateIndex:
    """Bijection between symbolic chain states and indices.

    Families ``1..n_families`` are laid out in order; those in
    ``phased`` carry a freeze phase and take a contiguous block of ``k``
    indices keyed ``(family, phase)``, the others one index keyed by the
    bare int. Indices are computed from ``first``, the index of each
    family's first state, so a map costs ``O(n_families)`` at any ``k``.
    """

    def __init__(self, k: int, n_families: int, phased):
        if int(k) != k or k < 1:
            raise ValueError("Erlang order k must be a positive integer")
        self.k = int(k)
        self.phased = frozenset(phased)
        families = range(1, n_families + 1)
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


class FpStateIndex(_StateIndex):
    """Index map of the cycle chain, ``9k + 5`` states.

    Phased families are laid out as contiguous blocks in the order
    (1,·), (2,·), 3, (4,·), 5, (6,·), 7, (8,·), 9, (10,·), (11,·),
    (12,·), (13,·), 14, so the ``k * freeze_rate`` phase ladders appear
    as superdiagonal runs in matrix dumps.
    """

    def __init__(self, k: int):
        super().__init__(k, 14, _AMC_PHASED)


class RmcStateIndex(_StateIndex):
    """Index map of the recurrent chain: families (1..5, phase), then the
    two unfrozen states 6 and 7."""

    def __init__(self, k: int):
        super().__init__(k, 7, range(1, 6))


def _triplets(idx: _StateIndex, frozen: dict, unfrozen: list, step: float,
              first: dict | None = None):
    """COO triplets ``(rows, cols, rates)`` of a generator, diagonal included.

    ``frozen`` maps each phased family to ``(exit, moves)``: every phase
    advances at ``step`` to the next, the last to the first state of
    ``exit``, and each ``(dst, rate)`` of ``moves`` leaves every phase for
    the same phase of ``dst`` (or a singleton ``dst``). ``unfrozen`` lists
    ``(src, dst, rate)`` moves of singletons. ``first`` adds destinations
    beyond the index, such as absorbing columns. Each family's moves are
    built as ``(moves, k)`` blocks.
    """
    first = {**idx.first, **(first or {})}
    blocks, exits = [], []  # (source, destination, keeps the phase, rate)
    for fam, (exit_, moves) in frozen.items():
        exits.append((len(blocks), first[exit_]))
        blocks.append((first[fam], first[fam] + 1, True, step))
        blocks += [(first[fam], first[dst], dst in idx.phased, rate)
                   for dst, rate in moves]
    src, dst, same, rate = (np.array(col) for col in zip(*blocks))
    ell = np.arange(idx.k)
    cols = dst[:, None] + ell * same[:, None]
    ladder, exit_state = zip(*exits)
    cols[list(ladder), -1] = exit_state
    single = np.array([(first[s], first[d]) for s, d, _ in unfrozen]).T
    rows = np.concatenate(((src[:, None] + ell).ravel(), single[0]))
    rates = np.concatenate((np.repeat(rate, idx.k), [r for *_, r in unfrozen]))
    diag = np.arange(idx.size)
    return (np.concatenate((rows, diag)), np.concatenate((cols.ravel(), single[1], diag)),
            np.concatenate((rates, -np.bincount(rows, rates, minlength=idx.size))))


def fp_aoi_mask(k: int) -> np.ndarray:
    """Selector of the post-delivery states, where the cycle chain
    overlaps the age sawtooth: families (11,·), (12,·), (13,·) and state
    14 — ``3k + 1`` states in total."""
    idx = FpStateIndex(k)
    mask = np.zeros(idx.size)
    mask[idx.first[11]:idx.first[14] + 1] = 1.0  # laid out contiguously
    return mask


def build_fp_amc(p: FpParams) -> AbsorbingChain:
    """Absorbing chain of one freeze/preempt cycle (no initial vector).

    State families, written ``(family, phase)`` while a freeze runs:

    - (1,·)/(2,·): tagged packet alone on server 1/2, other server idle.
    - 3,(4,·): tagged on server 1, server 2 carrying a fresher packet.
    - 5,(6,·): tagged on server 1, server 2 carrying a staler packet.
    - 7,(8,·): tagged on server 2, server 1 carrying a fresher packet.
    - 9,(10,·): tagged on server 2, server 1 carrying a staler packet.
    - (11,·): tagged delivered, both servers idle.
    - (12,·)/(13,·): tagged delivered, a successor in service on server
      1/2 alone.
    - 14: tagged delivered, successors on both servers.

    Absorbing columns: 0 = successor delivered (success), 1 = tagged
    packet preempted (failure). Use :func:`fp_initial_vector` to attach
    the initial distribution.
    """
    a, b, step = p.mu1, p.mu2, p.k * p.freeze_rate
    idx = FpStateIndex(p.k)
    n = idx.size
    ok, lost = "success", "failure"
    frozen = {
        # tagged alone in service; a delivery from it idles both servers
        1: (4, [(11, a)]),
        2: (8, [(11, b)]),
        # tagged on server 1 behind a fresher packet: completion of the
        # fresher packet preempts the tagged one
        4: (3, [(13, a), (lost, b)]),
        # tagged on server 1 ahead of a staler packet: delivering the
        # tagged packet obsoletes the other, which is removed mid-freeze
        6: (5, [(11, a), (1, b)]),
        # mirror images with the tagged packet on server 2
        8: (7, [(lost, a), (12, b)]),
        10: (9, [(2, a), (11, b)]),
        # post-delivery frozen states
        11: (12, []),
        12: (14, [(ok, a)]),
        13: (14, [(ok, b)]),
    }
    # unfrozen singletons: a completion immediately triggers a fresh
    # transmission (server 1 preferred when both are free)
    unfrozen = [(3, 14, a), (3, lost, b), (5, 12, a), (5, 4, b),
                (7, lost, a), (7, 14, b), (9, 8, a), (9, 12, b),
                (14, ok, a + b)]
    rows, cols, rates = _triplets(idx, frozen, unfrozen, step,
                                  first={ok: n, lost: n + 1})
    into_S = cols < n
    V = np.zeros((n, 2))
    np.add.at(V, (rows[~into_S], cols[~into_S] - n), rates[~into_S])
    S = sparse.coo_array((rates[into_S], (rows[into_S], cols[into_S])), shape=(n, n))
    return AbsorbingChain(S, V, None, fp_aoi_mask(p.k), meta=p.meta())


def build_fp_rmc(p: FpParams) -> sparse.csr_array:
    """CSR generator of the recurrent chain seen at an arbitrary time.

    States (families carry the freeze phase): (1,·) both servers idle,
    (2,·) server 1 busy alone, (3,·) server 2 busy alone, (4,·) both
    busy with server 2 holding the fresher packet, (5,·) both busy with
    server 1 holding the fresher packet; 6 and 7 are the unfrozen
    counterparts of (4,·) and (5,·). The chain is irreducible for every
    valid parameter set.
    """
    a, b, step = p.mu1, p.mu2, p.k * p.freeze_rate
    idx = RmcStateIndex(p.k)
    frozen = {1: (2, []), 2: (4, [(1, a)]), 3: (5, [(1, b)]),
              4: (6, [(3, a), (1, b)]), 5: (7, [(1, a), (2, b)])}
    unfrozen = [(6, 5, a), (6, 2, b), (7, 2, a), (7, 4, b)]
    rows, cols, rates = _triplets(idx, frozen, unfrozen, step)
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


def fp_initial_vector(p: FpParams) -> np.ndarray:
    """Distribution of the cycle-chain state in which a new packet starts:
    the stationary law of :func:`_entry_chain` (one packet per freeze
    start), ``(1 - P_BC P_CB, P_AB, P_AB P_BC)`` normalized, on states
    (1,1), (10,1) and (6,1)."""
    P = _entry_chain(p)
    pi = np.array([1.0 - P[1, 2] * P[2, 1], P[0, 1], P[0, 1] * P[1, 2]])
    idx = FpStateIndex(p.k)
    init = np.zeros(idx.size)
    init[[idx.first[1], idx.first[10], idx.first[6]]] = pi / pi.sum()
    return init


def _build_preempt_only(p: FpParams) -> AbsorbingChain:
    """Exact 5-state cycle chain of the preemption-only limit.

    States: 0/1 tagged packet on server 1 with a staler/fresher packet on
    server 2; 2/3 the mirror images on server 2; 4 tagged delivered, so
    both servers hold successors. Out-of-order completions preempt the
    tagged packet (column 1). The initial vector weights the generating
    events by the stationary odds ``a : a + b`` that server 1 : server 2
    holds the fresher packet. Mean age and mean peak age both equal
    ``(a + 2b)(2a + b) / (a + b)^3``.
    """
    a, b = p.mu1, p.mu2
    S, V = np.zeros((5, 5)), np.zeros((5, 2))
    S[0, 4], S[0, 1] = a, b
    S[1, 4], V[1, 1] = a, b
    S[2, 4], S[2, 3] = b, a
    S[3, 4], V[3, 1] = b, a
    V[4, 0] = a + b
    np.fill_diagonal(S, -(S.sum(axis=1) + V.sum(axis=1)))
    init = np.array([a * (a + b), a * a + a * b + b * b, (a + b) ** 2, 0.0, 0.0])
    return AbsorbingChain(S, V, init / init.sum(), np.eye(5)[4], meta=p.meta())


def build_fp_model(p: FpParams) -> AbsorbingChain:
    """Complete freeze/preempt cycle chain with its initial vector.

    One chain, factored once, with the closed-form initial vector of
    :func:`fp_initial_vector`. An infinite freeze rate gives the exact
    preemption-only chain instead.
    """
    if p.policy == "fp_preempt_only":
        return _build_preempt_only(p)
    return build_fp_amc(p).with_init(fp_initial_vector(p))
