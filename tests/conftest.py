"""Shared oracles: random chain generators and trajectory samplers."""

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, with no example
# database and no per-example deadline, so tier-1 stays reproducible and
# its time bounded.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("tier1")


def random_subgenerator(rng, n, scale=1.0):
    """Random valid sub-generator with strictly negative exit drift."""
    S = rng.uniform(0.0, scale, size=(n, n))
    np.fill_diagonal(S, 0.0)
    exit_rates = rng.uniform(0.05 * scale, scale, size=n)
    np.fill_diagonal(S, -(S.sum(axis=1) + exit_rates))
    return S


def random_phase_type(rng, n, scale=1.0):
    from aoidual import phase_type

    S = random_subgenerator(rng, n, scale)
    sigma = rng.uniform(0.0, 1.0, size=n)
    sigma /= sigma.sum()
    return phase_type(sigma, S)


def sample_absorption(chain, n, rng):
    """Monte-Carlo trajectories of an absorbing chain.

    Follows the embedded jump chain with exponential holding times.
    Returns (absorption_time, absorbing_column) arrays of length ``n``.
    """
    S, V = chain.S, chain.V
    n_states = S.shape[0]
    rates = -np.diag(S)
    jump = np.hstack([S - np.diag(np.diag(S)), V]) / rates[:, None]
    cum = np.cumsum(jump, axis=1)
    state = rng.choice(n_states, size=n, p=chain.init / chain.init.sum())
    time = np.zeros(n)
    col = np.full(n, -1)
    alive = np.arange(n)
    while alive.size:
        s = state[alive]
        time[alive] += rng.exponential(1.0 / rates[s])
        u = rng.random(alive.size)
        nxt = (u[:, None] > cum[s]).sum(axis=1)
        done = nxt >= n_states
        col[alive[done]] = nxt[done] - n_states
        state[alive[~done]] = nxt[~done]
        alive = alive[~done]
    return time, col


def rmc_entry_vector(p):
    """Entry probabilities of cycle states (1,1), (10,1) and (6,1), weighted
    from the recurrent chain's stationary law.

    A packet starts when a freeze ends with a server free (families 1-3 at
    phase ``k``) or when a delivery frees a server outside a freeze (states
    6 and 7); each event's rate picks the entry state. This is the
    reference the closed-form ``fp_initial_vector`` is checked against.
    """
    from aoidual import RmcStateIndex, build_fp_rmc, rmc_stationary

    st = rmc_stationary(build_fp_rmc(p), p)
    idx = RmcStateIndex(p.k)
    end1, end2, end3 = (p.k * p.freeze_rate * st.pi[idx.index((fam, p.k))]
                        for fam in (1, 2, 3))
    pi6, pi7 = st.pi[idx.index(6)], st.pi[idx.index(7)]
    return np.array([end1 + p.mu2 * pi6 + p.mu1 * pi7, end2 + p.mu2 * pi7,
                     end3 + p.mu1 * pi6]) / st.packet_rate


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250811)
