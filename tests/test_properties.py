"""Properties of the exact F/P tables over random model parameters."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoidual import (FpParams, FpStateIndex, GridSpec, absorption_probability, aoi_mean,
                     build_fp_model, fp_initial_vector, fp_means, paoi_mean,
                     preempt_only_params, summarize)
from conftest import rmc_entry_vector

rates = st.floats(min_value=0.1, max_value=10.0)
orders = st.integers(min_value=1, max_value=4)


@given(mu1=rates, mu2=rates, freeze_rate=rates, k=orders)
def test_tables_are_distributions_with_their_moments(mu1, mu2, freeze_rate, k):
    summary = summarize(build_fp_model(FpParams(mu1, mu2, freeze_rate, k)),
                        GridSpec(points=1000))
    for table in (summary.aoi_table, summary.paoi_table):
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert 0.0 <= table.cdf[0] and table.cdf[-1] <= 1.0
        # the kernel's raw cdf needs no more than rounding-level repair
        assert table.meta["cdf_clip"] <= 1e-12
        mean = np.trapezoid(table.grid * table.pdf, table.grid)
        assert mean == pytest.approx(table.mean, rel=1e-3)


@given(mu1=rates, mu2=rates, freeze_rate=rates, k=orders)
def test_means_invariant_under_swapped_rates(mu1, mu2, freeze_rate, k):
    a = summarize(build_fp_model(FpParams(mu1, mu2, freeze_rate, k)),
                  GridSpec(points=50))
    b = summarize(build_fp_model(FpParams(mu2, mu1, freeze_rate, k)),
                  GridSpec(points=50))
    assert b.mean_aoi == pytest.approx(a.mean_aoi, rel=1e-12)
    assert b.mean_paoi == pytest.approx(a.mean_paoi, rel=1e-12)


@given(mu1=st.floats(min_value=1e-3, max_value=1e5),
       mu2=st.floats(min_value=1e-3, max_value=1e5),
       freeze_rate=st.floats(min_value=1e-3, max_value=1e8),
       k=st.integers(min_value=1, max_value=60))
def test_sparse_solves_match_dense_over_extreme_rates(mu1, mu2, freeze_rate, k):
    # rate ratios up to 1e11: the closed-form initial vector matches the
    # recurrent chain's, and the sparse factor's means agree with dense
    # solves of the same chain
    p = FpParams(mu1, mu2, freeze_rate, k)
    idx = FpStateIndex(p.k)
    entry = fp_initial_vector(p)[[idx.first[1], idx.first[10], idx.first[6]]]
    np.testing.assert_allclose(entry, rmc_entry_vector(p), rtol=0.0, atol=1e-13)
    chain = build_fp_model(p)
    for w, mean in ((chain.aoi_mask, aoi_mean(chain)),
                    (chain.V[:, 0], paoi_mean(chain))):
        y = np.linalg.solve(chain.S, w)
        dense = float(chain.init @ np.linalg.solve(chain.S, y)) / -float(chain.init @ y)
        assert 0.0 < mean < np.inf
        assert mean == pytest.approx(dense, rel=1e-9)


@given(mu1=st.floats(min_value=1e-2, max_value=1e2),
       mu2=st.floats(min_value=1e-2, max_value=1e2),
       freeze_rate=st.floats(min_value=1e-2, max_value=1e2),
       k=st.sampled_from([1, 2, 5, 20]))
def test_freezing_never_lowers_mean_peak_age(mu1, mu2, freeze_rate, k):
    # the preemption-only chain, whose freezes have zero length, bounds the
    # mean peak age at every finite freeze rate from below
    bound = paoi_mean(build_fp_model(preempt_only_params(mu1, mu2)))
    mean = paoi_mean(build_fp_model(FpParams(mu1, mu2, freeze_rate, k)))
    assert mean >= bound * (1.0 - 1e-9)


def _chain_means(p):
    chain = build_fp_model(p)
    return aoi_mean(chain), paoi_mean(chain), absorption_probability(chain, 0)


@given(mu1=st.floats(min_value=0.1, max_value=10.0),
       log_ratio=st.floats(min_value=-3.0, max_value=0.0),
       log_rate=st.floats(min_value=-2.0, max_value=2.0),
       k=st.integers(min_value=1, max_value=200))
def test_freeze_level_means_match_the_chain(mu1, log_ratio, log_rate, k):
    # mu2/mu1 in [1e-3, 1] and lambda/mu1 in [1e-2, 1e2]
    p = FpParams(mu1, mu1 * 10.0 ** log_ratio, mu1 * 10.0 ** log_rate, k)
    np.testing.assert_allclose(fp_means(p), _chain_means(p), rtol=1e-12, atol=0)


scales = st.floats(min_value=1e-3, max_value=1e3)


@given(mu1=rates, mu2=rates, freeze_rate=rates, k=st.sampled_from([1, 7, 50, math.inf]),
       c=scales)
def test_freeze_level_means_are_scale_covariant(mu1, mu2, freeze_rate, k, c):
    # every rate times c: both means divided by c, P(success) unchanged
    base = fp_means(FpParams(mu1, mu2, freeze_rate, k))
    scaled = fp_means(FpParams(c * mu1, c * mu2, c * freeze_rate, k))
    np.testing.assert_allclose(
        (c * scaled.mean_aoi, c * scaled.mean_paoi, scaled.p_success), base,
        rtol=1e-12, atol=0)


@given(mu1=rates, mu2=rates, freeze_rate=rates, k=st.integers(min_value=1, max_value=50),
       c=scales)
def test_chain_means_are_scale_covariant(mu1, mu2, freeze_rate, k, c):
    base = _chain_means(FpParams(mu1, mu2, freeze_rate, k))
    aoi, paoi, ok = _chain_means(FpParams(c * mu1, c * mu2, c * freeze_rate, k))
    np.testing.assert_allclose((c * aoi, c * paoi, ok), base, rtol=1e-12, atol=0)
