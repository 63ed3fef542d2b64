"""Zero-wait policy: absorbing-chain model and closed-form means.

Under zero wait both servers are always busy; whenever one finishes, a
fresh update is transmitted on it immediately, and the monitor discards
receptions whose timestamp is older than the freshest already accepted.
A cycle between consecutive accepted receptions is modeled by a 9-state
absorbing chain: 7 transient states tracking the tagged packet and the
staleness ordering of the two in-flight packets, one absorbing state for
a successful next reception and one for the tagged packet being
discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phasetype import AbsorbingChain

#: Transient states whose occupancy overlaps the age sawtooth: the tagged
#: packet has been delivered and the chain is waiting for its successor.
AOI_STATES = (4, 5, 6)  # zero-based indices of states 5, 6, 7


@dataclass(frozen=True)
class ZwParams:
    """Service rates of the two servers, ordered so ``mu1 >= mu2``.

    Arguments given in the other order are swapped (every quantity of the
    model is symmetric in the rates); ``swapped`` records that this
    happened.
    """

    mu1: float
    mu2: float
    swapped: bool = False
    policy = "zw"

    def __post_init__(self):
        if not (0 < self.mu1 < np.inf and 0 < self.mu2 < np.inf):
            raise ValueError("service rates must be positive and finite")
        fast, slow = float(self.mu1), float(self.mu2)
        if fast < slow:
            fast, slow = slow, fast
            object.__setattr__(self, "swapped", True)
        object.__setattr__(self, "mu1", fast)
        object.__setattr__(self, "mu2", slow)

    def meta(self) -> dict:
        return {"policy": self.policy, "mu1": self.mu1, "mu2": self.mu2,
                "swapped": self.swapped}


class ZwMeans(NamedTuple):
    mean_paoi: float
    mean_aoi: float


def build_zw_amc(p: ZwParams) -> AbsorbingChain:
    """Absorbing chain of a zero-wait cycle.

    Transient states (1-based, as indexed in the transition table):

    1. tagged packet on server 1, other packet not fresher
    2. tagged packet on server 1, other packet fresher
    3. tagged packet on server 2, other packet not fresher
    4. tagged packet on server 2, other packet fresher
    5. tagged delivered, both in-flight packets up to date
    6. tagged delivered, packet on server 2 stale
    7. tagged delivered, packet on server 1 stale

    Absorbing columns: 0 = next fresh reception (success), 1 = tagged
    packet discarded at the monitor. The initial vector places the tagged
    packet on server ``i`` with probability ``mu_i / (mu1 + mu2)``.
    """
    a, b = p.mu1, p.mu2
    S = np.zeros((7, 7))
    V = np.zeros((7, 2))
    S[0, 1] = b
    S[0, 5] = a
    S[1, 4] = a
    V[1, 1] = b
    S[2, 3] = a
    S[2, 6] = b
    S[3, 4] = b
    V[3, 1] = a
    V[4, 0] = a + b
    S[5, 4] = b
    V[5, 0] = a
    S[6, 4] = a
    V[6, 0] = b
    np.fill_diagonal(S, -(S.sum(axis=1) + V.sum(axis=1)))

    init = np.zeros(7)
    init[0] = a / (a + b)
    init[2] = b / (a + b)
    mask = np.zeros(7)
    mask[list(AOI_STATES)] = 1.0
    return AbsorbingChain(S, V, init, mask, meta=p.meta())


def zw_explicit_inverse(p: ZwParams) -> np.ndarray:
    """Closed-form inverse of the transient block.

    The chain's near-triangular structure admits an explicit inverse,
    ``-1/(mu1+mu2)`` times a unit-diagonal matrix in the normalized rates
    ``mu_i' = mu_i/(mu1+mu2)``. Useful as an oracle for the LU-based
    solves; ``build_zw_amc(p).S @ zw_explicit_inverse(p)`` is the
    identity.
    """
    a, b = p.mu1, p.mu2
    total = a + b
    an, bn = a / total, b / total
    M = np.array([
        [1, bn, 0, 0, 2 * an * bn, an, 0],
        [0, 1, 0, 0, an, 0, 0],
        [0, 0, 1, an, 2 * an * bn, 0, bn],
        [0, 0, 0, 1, bn, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, bn, 1, 0],
        [0, 0, 0, 0, an, 0, 1],
    ], dtype=float)
    return -M / total


def zw_closed_form_means(p: ZwParams) -> ZwMeans:
    """Mean peak age and mean age under zero wait.

    ``mean_paoi = 2 (mu1+mu2) / (mu1^2 + mu1 mu2 + mu2^2)`` and
    ``mean_aoi = 2 (mu1^2 + 3 mu1 mu2 + mu2^2) / (mu1+mu2)^3``; both are
    symmetric in the rates.
    """
    a, b = p.mu1, p.mu2
    mean_paoi = 2.0 * (a + b) / (a * a + a * b + b * b)
    mean_aoi = 2.0 * (a * a + 3.0 * a * b + b * b) / (a + b) ** 3
    return ZwMeans(mean_paoi, mean_aoi)
