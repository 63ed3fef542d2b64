"""Zero-wait chain construction against its closed forms."""

import numpy as np
import pytest

from aoidual import (
    ZwParams,
    aoi_mean,
    build_zw_amc,
    paoi_mean,
    zw_closed_form_means,
    zw_explicit_inverse,
)


class TestParams:
    def test_orders_rates(self):
        p = ZwParams(0.1, 0.5)
        assert (p.mu1, p.mu2, p.swapped) == (0.5, 0.1, True)

    def test_keeps_ordered_rates(self):
        p = ZwParams(0.5, 0.1)
        assert (p.mu1, p.mu2, p.swapped) == (0.5, 0.1, False)

    @pytest.mark.parametrize("mu1,mu2", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive(self, mu1, mu2):
        with pytest.raises(ValueError):
            ZwParams(mu1, mu2)

    @pytest.mark.parametrize("mu1,mu2", [(np.inf, 1.0), (1.0, np.inf),
                                         (np.nan, 1.0)])
    def test_rejects_non_finite(self, mu1, mu2):
        with pytest.raises(ValueError):
            ZwParams(mu1, mu2)


class TestChainStructure:
    def test_equal_rates_row_five(self):
        chain = build_zw_amc(ZwParams(1.0, 1.0))
        row_s = chain.S[4]
        row_v = chain.V[4]
        assert row_s[4] == -2.0
        assert np.count_nonzero(row_s) == 1
        assert row_v[0] == 2.0 and row_v[1] == 0.0

    def test_generator_rows_sum_to_zero(self, rng):
        for _ in range(10):
            mu = rng.uniform(0.05, 5.0, size=2)
            chain = build_zw_amc(ZwParams(*mu))
            sums = chain.S.sum(axis=1) + chain.V.sum(axis=1)
            np.testing.assert_allclose(sums, 0.0, atol=1e-12)

    def test_initial_vector(self):
        chain = build_zw_amc(ZwParams(0.5, 0.1))
        expected = np.array([5.0 / 6.0, 0, 1.0 / 6.0, 0, 0, 0, 0])
        np.testing.assert_allclose(chain.init, expected, atol=1e-15)

    def test_mask_covers_post_delivery_states(self):
        chain = build_zw_amc(ZwParams(2.0, 0.7))
        np.testing.assert_array_equal(chain.aoi_mask,
                                      [0, 0, 0, 0, 1, 1, 1])

    def test_absorption_pattern(self):
        # states 2 and 4 fail only; states 5, 6, 7 succeed only
        chain = build_zw_amc(ZwParams(0.9, 0.4))
        V = chain.V
        for fail_only in (1, 3):
            assert V[fail_only, 0] == 0.0 and V[fail_only, 1] > 0.0
        for success_only in (4, 5, 6):
            assert V[success_only, 0] > 0.0 and V[success_only, 1] == 0.0
        for no_absorption in (0, 2):
            assert np.all(V[no_absorption] == 0.0)


    @staticmethod
    def _hand_written(a, b):
        """The 7-state chain written out entry by entry, an oracle for the
        chain read from the rule table (states 1-7 of ``zw._RULES`` are
        rows 0-6)."""
        S, V = np.zeros((7, 7)), np.zeros((7, 2))
        S[0, 1], S[0, 5] = b, a
        S[1, 4], V[1, 1] = a, b
        S[2, 3], S[2, 6] = a, b
        S[3, 4], V[3, 1] = b, a
        V[4, 0] = a + b
        S[5, 4], V[5, 0] = b, a
        S[6, 4], V[6, 0] = a, b
        np.fill_diagonal(S, -(S.sum(axis=1) + V.sum(axis=1)))
        init = np.array([a / (a + b), 0, b / (a + b), 0, 0, 0, 0])
        return S, V, init, np.array([0, 0, 0, 0, 1, 1, 1.0])

    @pytest.mark.parametrize("mu1,mu2", [(1.0, 0.3), (1.0, 1.0), (0.5, 0.1), (0.1, 0.5),
                                         (3.0, 0.2), (1e3, 1e-3)])
    def test_table_matches_the_hand_written_chain(self, mu1, mu2):
        chain = build_zw_amc(ZwParams(mu1, mu2))
        want = self._hand_written(max(mu1, mu2), min(mu1, mu2))
        for got, expected in zip((chain.S, chain.V, chain.init, chain.aoi_mask), want):
            np.testing.assert_array_equal(got, expected)


class TestExplicitInverse:
    def test_equal_rates_entries(self):
        inv = zw_explicit_inverse(ZwParams(1.0, 1.0))
        assert inv[0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert inv[1, 4] == pytest.approx(-0.25, abs=1e-15)

    def test_is_inverse_of_chain_block(self, rng):
        for _ in range(20):
            mu = rng.uniform(0.02, 8.0, size=2)
            p = ZwParams(*mu)
            product = build_zw_amc(p).S @ zw_explicit_inverse(p)
            np.testing.assert_allclose(product, np.eye(7), atol=1e-12)

    def test_displayed_entry_value(self):
        # entry (1,5): -2 mu1' mu2' / (mu1+mu2) with mu' = mu/(mu1+mu2)
        inv = zw_explicit_inverse(ZwParams(0.5, 0.1))
        expected = -2.0 * (5.0 / 6.0) * (1.0 / 6.0) / 0.6
        assert inv[0, 4] == pytest.approx(expected, rel=1e-14)
        assert inv[0, 4] == pytest.approx(-0.46296296296296297, rel=1e-11)


class TestClosedFormMeans:
    def test_equal_rates(self):
        means = zw_closed_form_means(ZwParams(1.0, 1.0))
        assert means.mean_paoi == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert means.mean_aoi == pytest.approx(1.25, rel=1e-15)

    def test_heterogeneous_rates(self):
        means = zw_closed_form_means(ZwParams(0.5, 0.1))
        assert means.mean_paoi == pytest.approx(1.2 / 0.31, rel=1e-14)
        assert means.mean_aoi == pytest.approx(0.82 / 0.216, rel=1e-14)
        assert means.mean_paoi == pytest.approx(3.870968, abs=1e-6)
        assert means.mean_aoi == pytest.approx(3.796296, abs=1e-6)

    def test_symmetry_under_swap(self):
        assert zw_closed_form_means(ZwParams(2.3, 0.4)) == \
            zw_closed_form_means(ZwParams(0.4, 2.3))


class TestChainAgainstClosedForms:
    def test_means_agree_on_parameter_grid(self):
        # reduced grid here; the full 20x20 sweep runs in the acceptance suite
        rates = np.logspace(-2, 1, 6)
        for mu1 in rates:
            for mu2 in rates[rates <= mu1]:
                p = ZwParams(mu1, mu2)
                chain = build_zw_amc(p)
                means = zw_closed_form_means(p)
                assert aoi_mean(chain) == pytest.approx(means.mean_aoi, rel=1e-10)
                assert paoi_mean(chain) == pytest.approx(means.mean_paoi, rel=1e-10)
