"""Zero-wait policy: rule table, absorbing chain and closed-form means.

Under zero wait both servers are always busy; whenever one finishes, a
fresh update is transmitted on it immediately, and the monitor discards
receptions whose timestamp is older than the freshest already accepted.
A cycle between consecutive accepted receptions is an absorbing chain
read from a rule table (``_RULES``) in the freeze/preempt format: 7
transient states tracking the tagged packet and the staleness ordering
of the two in-flight packets, all singletons (no freeze ever runs), and
the absorbing columns of a successful next reception and of the tagged
packet being discarded. ``_ENTRY`` names the states a new packet starts
in and ``_AGE`` those that overlap the age sawtooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phasetype import _LOST, _OK, AbsorbingChain, _ordered_rates, _rule_chain, _StateIndex, _table

#: The zero-wait rules, ``state: (None, {server: destination})`` as in
#: ``fp._RULES``: a completion at server 1 (rate ``mu1``) or 2 (``mu2``)
#: moves the chain to the destination, a state or an absorbing column.
#: Both servers are always busy, so every state is a singleton.
_RULES = {
    # 1/2: tagged on server 1, the packet on server 2 not fresher/fresher
    1: (None, {1: 6, 2: 2}), 2: (None, {1: 5, 2: _LOST}),
    # 3/4: the mirror images, tagged on server 2
    3: (None, {1: 4, 2: 7}), 4: (None, {1: _LOST, 2: 5}),
    # tagged delivered: 5 both in-flight packets up to date, 6/7 the packet
    # on server 2/1 stale
    5: (None, {1: _OK, 2: _OK}), 6: (None, {1: _OK, 2: 5}), 7: (None, {1: 5, 2: _OK}),
}

#: States a new packet starts in, on server 1 or 2 (weights ``mu1``, ``mu2``), and
#: those overlapping the age sawtooth: the tagged packet delivered, its successor due.
_ENTRY, _AGE = (1, 3), (5, 6, 7)

#: The states as rows ``0..6``, and the rules as the structure cache's key.
_INDEX, _TABLE = _StateIndex(1, _RULES, ()), _table(_RULES)


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
        _ordered_rates(self)

    def meta(self) -> dict:
        return {"policy": self.policy, "mu1": self.mu1, "mu2": self.mu2,
                "swapped": self.swapped}


class ZwMeans(NamedTuple):
    mean_paoi: float
    mean_aoi: float


def build_zw_amc(p: ZwParams) -> AbsorbingChain:
    """Absorbing chain of a zero-wait cycle, read from ``_RULES``; state
    ``i`` is row ``i - 1``.

    Absorbing columns: 0 = next fresh reception (success), 1 = tagged
    packet discarded at the monitor. The initial vector places the tagged
    packet on server ``i`` with probability ``mu_i / (mu1 + mu2)``.
    """
    return _rule_chain(_INDEX, _TABLE, p, dict(zip(_ENTRY, (p.mu1, p.mu2))), _AGE)


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
