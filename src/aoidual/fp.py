"""Freeze/preempt policy: absorbing cycle chain and its companion
recurrent chain.

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
vector cannot be written down directly; it follows from the stationary
distribution of a recurrent chain over ``5k + 2`` states describing the
system as seen at an arbitrary time, weighted by the rate at which new
packets are generated in each state. The preemption-only limit (freezes
of length zero) has an exact 5-state chain of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise ValueError("service rates must be positive")
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

    def meta(self) -> dict:
        return {"policy": "fp", "mu1": self.mu1, "mu2": self.mu2,
                "freeze_rate": self.freeze_rate, "k": self.k,
                "swapped": self.swapped}


def preempt_only_params(mu1: float, mu2: float) -> FpParams:
    """Parameters of the preemption-only limit: freezes of length zero."""
    return FpParams(mu1, mu2, math.inf, 1)


class _StateIndex:
    """Bijection between symbolic chain states and dense indices.

    Families ``1..n_families`` are laid out in order; those in
    ``phased`` carry a freeze phase and take a contiguous block of ``k``
    indices keyed ``(family, phase)``, the others one index keyed by the
    bare int.
    """

    def __init__(self, k: int, n_families: int, phased):
        if int(k) != k or k < 1:
            raise ValueError("Erlang order k must be a positive integer")
        self.k = int(k)
        keys = []
        for fam in range(1, n_families + 1):
            if fam in phased:
                keys.extend((fam, ell) for ell in range(1, self.k + 1))
            else:
                keys.append(fam)
        self._by_state = {state: pos for pos, state in enumerate(keys)}
        self._by_index = dict(enumerate(keys))

    @property
    def size(self) -> int:
        return len(self._by_index)

    def index(self, state) -> int:
        return self._by_state[state]

    def state(self, index: int):
        return self._by_index[index]

    def states(self):
        return list(self._by_state)

    def as_dict(self) -> dict:
        """JSON-friendly map from symbolic labels to dense indices."""
        return {f"{s[0]},{s[1]}" if isinstance(s, tuple) else str(s): idx
                for s, idx in self._by_state.items()}


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


def fp_aoi_mask(k: int) -> np.ndarray:
    """Selector of the post-delivery states, where the cycle chain
    overlaps the age sawtooth: families (11,·), (12,·), (13,·) and state
    14 — ``3k + 1`` states in total."""
    idx = FpStateIndex(k)
    mask = np.zeros(idx.size)
    for fam in (11, 12, 13):
        for ell in range(1, idx.k + 1):
            mask[idx.index((fam, ell))] = 1.0
    mask[idx.index(14)] = 1.0
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
    k = p.k
    a, b, step = p.mu1, p.mu2, p.k * p.freeze_rate
    idx = FpStateIndex(k)
    n = idx.size
    S = np.zeros((n, n))
    V = np.zeros((n, 2))

    def move(src, dst, rate):
        S[idx.index(src), idx.index(dst)] += rate

    def absorb(src, col, rate):
        V[idx.index(src), col] += rate

    for ell in range(1, k + 1):
        last = ell == k
        # tagged alone in service; a delivery from it idles both servers
        move((1, ell), (4, 1) if last else (1, ell + 1), step)
        move((1, ell), (11, ell), a)
        move((2, ell), (8, 1) if last else (2, ell + 1), step)
        move((2, ell), (11, ell), b)
        # tagged on server 1 behind a fresher packet: completion of the
        # fresher packet preempts the tagged one
        move((4, ell), 3 if last else (4, ell + 1), step)
        move((4, ell), (13, ell), a)
        absorb((4, ell), 1, b)
        # tagged on server 1 ahead of a staler packet: delivering the
        # tagged packet obsoletes the other, which is removed mid-freeze
        move((6, ell), 5 if last else (6, ell + 1), step)
        move((6, ell), (11, ell), a)
        move((6, ell), (1, ell), b)
        # mirror images with the tagged packet on server 2
        move((8, ell), 7 if last else (8, ell + 1), step)
        absorb((8, ell), 1, a)
        move((8, ell), (12, ell), b)
        move((10, ell), 9 if last else (10, ell + 1), step)
        move((10, ell), (2, ell), a)
        move((10, ell), (11, ell), b)
        # post-delivery frozen states
        move((11, ell), (12, 1) if last else (11, ell + 1), step)
        move((12, ell), 14 if last else (12, ell + 1), step)
        absorb((12, ell), 0, a)
        move((13, ell), 14 if last else (13, ell + 1), step)
        absorb((13, ell), 0, b)
    # unfrozen singletons: a completion immediately triggers a fresh
    # transmission (server 1 preferred when both are free)
    move(3, 14, a)
    absorb(3, 1, b)
    move(5, (12, 1), a)
    move(5, (4, 1), b)
    absorb(7, 1, a)
    move(7, 14, b)
    move(9, (8, 1), a)
    move(9, (12, 1), b)
    absorb(14, 0, a + b)

    np.fill_diagonal(S, -(S.sum(axis=1) + V.sum(axis=1)))
    return AbsorbingChain(S, V, None, fp_aoi_mask(k), success_col=0,
                          meta=p.meta())


def build_fp_rmc(p: FpParams) -> np.ndarray:
    """Generator of the recurrent chain seen at an arbitrary time.

    States (families carry the freeze phase): (1,·) both servers idle,
    (2,·) server 1 busy alone, (3,·) server 2 busy alone, (4,·) both
    busy with server 2 holding the fresher packet, (5,·) both busy with
    server 1 holding the fresher packet; 6 and 7 are the unfrozen
    counterparts of (4,·) and (5,·). The chain is irreducible for every
    valid parameter set.
    """
    k = p.k
    a, b, step = p.mu1, p.mu2, p.k * p.freeze_rate
    idx = RmcStateIndex(k)
    n = idx.size
    P = np.zeros((n, n))

    def move(src, dst, rate):
        P[idx.index(src), idx.index(dst)] += rate

    for ell in range(1, k + 1):
        last = ell == k
        move((1, ell), (2, 1) if last else (1, ell + 1), step)
        move((2, ell), (4, 1) if last else (2, ell + 1), step)
        move((2, ell), (1, ell), a)
        move((3, ell), (5, 1) if last else (3, ell + 1), step)
        move((3, ell), (1, ell), b)
        move((4, ell), 6 if last else (4, ell + 1), step)
        move((4, ell), (3, ell), a)
        move((4, ell), (1, ell), b)
        move((5, ell), 7 if last else (5, ell + 1), step)
        move((5, ell), (1, ell), a)
        move((5, ell), (2, ell), b)
    move(6, (5, 1), a)
    move(6, (2, 1), b)
    move(7, (2, 1), a)
    move(7, (4, 1), b)
    np.fill_diagonal(P, -P.sum(axis=1))
    return P


@dataclass(frozen=True)
class StationarySolution:
    """Stationary distribution of the recurrent chain and the overall
    packet-generation intensity it implies."""

    pi: np.ndarray
    packet_rate: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float).copy()
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


def rmc_stationary(P: np.ndarray, p: FpParams,
                   residual_tol: float = 1e-10) -> StationarySolution:
    """Solve ``pi P = 0, pi 1 = 1`` and derive the packet-generation rate.

    The last balance equation is replaced by the normalization and the
    square system solved by LU. New packets are generated when a freeze
    ends with a server free (families 1-3 at phase ``k``) or when a
    delivery frees a server while not frozen (states 6 and 7), so::

        packet_rate = k*freeze_rate * (pi[1,k] + pi[2,k] + pi[3,k])
                      + (mu1 + mu2) * (pi[6] + pi[7])

    Raises
    ------
    RuntimeError
        If the solved vector leaves a residual above ``residual_tol``
        or a NaN one (a malformed or reducible generator).
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    A = P.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(A, rhs)
    residual = float(np.max(np.abs(pi @ P)))
    scale = max(1.0, float(np.max(np.abs(np.diag(P)))))
    if not residual <= residual_tol * scale:
        raise RuntimeError(
            f"stationary solve residual {residual:.3e} exceeds tolerance")
    if np.any(pi < -1e-12):
        raise RuntimeError("stationary solve produced negative probabilities")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()

    idx = RmcStateIndex(p.k)
    step = p.k * p.freeze_rate
    freeze_end = sum(pi[idx.index((fam, p.k))] for fam in (1, 2, 3))
    unfrozen = pi[idx.index(6)] + pi[idx.index(7)]
    rate = step * freeze_end + (p.mu1 + p.mu2) * unfrozen
    return StationarySolution(pi, float(rate))


def fp_initial_vector(p: FpParams, st: StationarySolution) -> np.ndarray:
    """Distribution of the cycle-chain state in which a new packet starts.

    A packet generated at a freeze end or delivery instant finds the
    system in one of three configurations: alone on server 1 with server
    2 idle (family 1), on server 2 next to an older packet on server 1
    (family 10), or on server 1 next to an older packet on server 2
    (family 6) — each entered at phase 1 of the freshly started freeze.
    The probabilities weight the generating events by their rates::

        p1 = (k*freeze_rate * pi[1,k] + mu2 * pi[6] + mu1 * pi[7]) / packet_rate
        p2 = (k*freeze_rate * pi[2,k] + mu2 * pi[7]) / packet_rate
        p3 = (k*freeze_rate * pi[3,k] + mu1 * pi[6]) / packet_rate

    The result is zero except at the indices of states (1,1), (10,1) and
    (6,1), and sums to one.
    """
    ridx = RmcStateIndex(p.k)
    pi = st.pi
    step = p.k * p.freeze_rate
    f = st.packet_rate
    p1 = (step * pi[ridx.index((1, p.k))] + p.mu2 * pi[ridx.index(6)]
          + p.mu1 * pi[ridx.index(7)]) / f
    p2 = (step * pi[ridx.index((2, p.k))] + p.mu2 * pi[ridx.index(7)]) / f
    p3 = (step * pi[ridx.index((3, p.k))] + p.mu1 * pi[ridx.index(6)]) / f

    idx = FpStateIndex(p.k)
    init = np.zeros(idx.size)
    init[idx.index((1, 1))] = p1
    init[idx.index((10, 1))] = p2
    init[idx.index((6, 1))] = p3
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
    meta = {"policy": "fp_preempt_only", "mu1": a, "mu2": b, "swapped": p.swapped}
    return AbsorbingChain(S, V, init / init.sum(), np.eye(5)[4],
                          success_col=0, meta=meta)


def build_fp_model(p: FpParams) -> AbsorbingChain:
    """Complete freeze/preempt cycle chain with its initial vector.

    Runs the full pipeline: recurrent chain, stationary solve, initial
    vector, absorbing chain. An infinite freeze rate gives the exact
    preemption-only chain instead.
    """
    if math.isinf(p.freeze_rate):
        return _build_preempt_only(p)
    st = rmc_stationary(build_fp_rmc(p), p)
    return build_fp_amc(p).with_init(fp_initial_vector(p, st))
