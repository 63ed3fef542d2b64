"""Phase-type numerics against closed forms and independent oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from aoidual import (
    AbsorbingChain,
    FpParams,
    PhaseType,
    absorption_probability,
    aoi_cdf,
    aoi_pdf,
    build_fp_model,
    build_zw_amc,
    erlang_ph,
    expm_action,
    expm_action_grid,
    paoi_cdf,
    paoi_moment,
    paoi_pdf,
    ph_cdf,
    ph_moment,
    ph_pdf,
    ZwParams,
)
from conftest import random_phase_type, random_subgenerator, sample_absorption


def exponential_ph(rate):
    return PhaseType([1.0], [[-rate]])


class TestPdf:
    def test_exponential_at_zero_equals_rate(self):
        assert ph_pdf(exponential_ph(2.0), 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_exponential_density(self):
        assert ph_pdf(exponential_ph(2.0), 1.0) == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-12)

    def test_erlang2_closed_form(self):
        # k^2 lambda^2 x exp(-k lambda x) at lambda=1, k=2, x=0.5
        expected = 4.0 * 0.5 * math.exp(-1.0)
        assert ph_pdf(erlang_ph(1.0, 2), 0.5) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ph_pdf(exponential_ph(1.0), -0.1)

    def test_array_argument_matches_scalars(self):
        # unsorted, with a repeated point: every law sorts, evaluates and
        # puts the values back in the caller's order
        ph = erlang_ph(0.7, 3)
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 3))
        xs = np.array([0.0, 0.3, 2.0, 0.1, 0.3, 7.5])
        for law, model in ((ph_pdf, ph), (ph_cdf, ph),
                           (aoi_pdf, chain), (aoi_cdf, chain),
                           (paoi_pdf, chain), (paoi_cdf, chain)):
            vals = law(model, xs)
            assert vals.shape == xs.shape
            for x, v in zip(xs, vals):
                assert v == pytest.approx(law(model, float(x)), rel=1e-10)


class TestCdf:
    def test_zero_at_origin(self, rng):
        ph = random_phase_type(rng, 5)
        assert ph_cdf(ph, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_cdf(self):
        assert ph_cdf(exponential_ph(2.0), 1.0) == pytest.approx(
            1.0 - math.exp(-2.0), rel=1e-12)

    def test_erlang10_poisson_tail_identity(self):
        # brute-force summation oracle: P(Erl10 <= 1) = 1 - sum_{j<10} e^-10 10^j/j!
        expected = 1.0 - sum(
            math.exp(-10.0) * 10.0 ** j / math.factorial(j) for j in range(10))
        got = ph_cdf(erlang_ph(1.0, 10), 1.0)
        assert 0.0 < got < 1.0
        assert got == pytest.approx(expected, abs=1e-10)


class TestMoments:
    def test_exponential_mean(self):
        assert ph_moment(exponential_ph(4.0), 1) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_erlang_mean_independent_of_order(self, k):
        assert ph_moment(erlang_ph(1.7, k), 1) == pytest.approx(1.0 / 1.7, rel=1e-11)

    def test_erlang_variance(self):
        ph = erlang_ph(2.0, 4)
        var = ph_moment(ph, 2) - ph_moment(ph, 1) ** 2
        assert var == pytest.approx(1.0 / (4 * 4), rel=1e-10)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            ph_moment(exponential_ph(1.0), 0)

    def test_mean_matches_trapezoid_integral(self, rng):
        for ph in (erlang_ph(1.3, 4), random_phase_type(rng, 5)):
            mean = ph_moment(ph, 1)
            xs = np.linspace(0.0, 60.0 * mean, 200_001)
            pdf = ph_pdf(ph, xs)
            integral = np.trapezoid(xs * pdf, xs)
            assert integral == pytest.approx(mean, rel=1e-6)


class TestExpmAction:
    def test_zero_time_is_identity(self, rng):
        S = random_subgenerator(rng, 6)
        v = rng.random(6)
        np.testing.assert_array_equal(expm_action(S, 0.0, v), v)

    def test_scalar_case(self):
        got = expm_action(np.array([[-3.0]]), 2.0, np.array([1.0]))
        assert got[0] == pytest.approx(math.exp(-6.0), rel=1e-12)

    def test_matches_taylor_series_oracle(self, rng):
        S = random_subgenerator(rng, 7)
        v = rng.random(7)
        x = 1.0
        term = v.copy()
        acc = v.copy()
        for j in range(1, 201):
            term = term @ (S * x) / j
            acc += term
        np.testing.assert_allclose(expm_action(S, x, v), acc, atol=1e-9)

    @pytest.mark.parametrize("scale,x", [(1.0, 0.5), (5.0, 3.0), (40.0, 7.0)])
    def test_matches_scipy_expm(self, rng, scale, x):
        S = random_subgenerator(rng, 8, scale)
        v = rng.random(8)
        expected = v @ scipy.linalg.expm(S * x)
        np.testing.assert_allclose(expm_action(S, x, v), expected,
                                   rtol=1e-10, atol=1e-13)

    def test_stiff_horizon_squares_a_step_matrix(self, monkeypatch):
        # rate * x beyond _MAX_SUBSTEPS substeps takes the squaring branch
        from aoidual import phasetype

        S = np.array([[-1e4, 1e4, 0.0, 0.0],
                      [0.0, -0.4, 0.3, 0.0],
                      [0.5, 0.0, -2000.5, 2000.0],
                      [0.0, 1.0, 0.0, -1.2]])
        v = np.array([0.4, 0.3, 0.2, 0.1])
        x = 3.0
        assert 1e4 * x > phasetype._MAX_SUBSTEPS * phasetype._MAX_STEP_MASS
        seen = []
        step = phasetype._step

        def spy(u, P, mass):
            seen.append(u.ndim)
            return step(u, P, mass)

        monkeypatch.setattr(phasetype, "_step", spy)
        got = expm_action(S, x, v)
        assert seen == [2]
        np.testing.assert_allclose(got, v @ scipy.linalg.expm(S * x),
                                   rtol=1e-10, atol=1e-15)

    def test_nonnegative_output_for_nonnegative_input(self, rng):
        S = random_subgenerator(rng, 6, 10.0)
        v = rng.random(6)
        assert np.all(expm_action(S, 4.0, v) >= 0.0)

    def test_grid_matches_pointwise(self, rng):
        S = random_subgenerator(rng, 5)
        v = rng.random(5)
        xs = np.sort(rng.uniform(0.0, 8.0, size=40))
        grid_vals = expm_action_grid(S, xs, v)
        for x, row in zip(xs, grid_vals):
            np.testing.assert_allclose(row, expm_action(S, float(x), v),
                                       rtol=1e-9, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        # at x = 0 no matrix product runs, so only the input checks see it
        for x in (0.0, 1.0):
            with pytest.raises(ValueError, match="v has shape"):
                expm_action(np.eye(3) * -1.0, x, np.ones(4))
            with pytest.raises(ValueError, match="v has shape"):
                expm_action_grid(np.eye(3) * -1.0, [x], np.ones(4))
            with pytest.raises(ValueError, match="S must be square"):
                expm_action_grid(-np.ones((2, 3)), [x], np.ones(2))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            expm_action(np.array([[-1.0]]), -0.5, np.array([1.0]))


class TestErlangConstruction:
    def test_order_one_is_exponential(self):
        ph = erlang_ph(1.0, 1)
        np.testing.assert_array_equal(ph.sigma, [1.0])
        np.testing.assert_array_equal(ph.S, [[-1.0]])

    def test_bidiagonal_structure(self):
        ph = erlang_ph(2.0, 3)
        expected = np.array([[-6.0, 6.0, 0.0],
                             [0.0, -6.0, 6.0],
                             [0.0, 0.0, -6.0]])
        np.testing.assert_array_equal(ph.S, expected)
        np.testing.assert_array_equal(ph.sigma, [1.0, 0.0, 0.0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erlang_ph(0.0, 3)
        with pytest.raises(ValueError):
            erlang_ph(1.0, 0)

    def test_erlangization_sharpens_the_step(self):
        # cdf below the mean decreases with k; above the mean it increases
        # from k = 10 on (the k = 1 exponential already has 0.667 > 0.659 of
        # the k = 10 value at 1.1x the mean, so strict monotonicity starts
        # one step later) and converges toward the unit step
        rate = 0.8
        lo = [ph_cdf(erlang_ph(rate, k), 0.9 / rate) for k in (1, 10, 50, 200)]
        hi = [ph_cdf(erlang_ph(rate, k), 1.1 / rate) for k in (1, 10, 50, 200)]
        assert all(a > b for a, b in zip(lo, lo[1:]))
        assert all(a < b for a, b in zip(hi[1:], hi[2:]))
        assert hi[-1] > hi[0]
        assert lo[-1] < 0.1 and hi[-1] > 0.9


class TestAbsorption:
    def test_single_absorbing_state_certain(self, rng):
        S = random_subgenerator(rng, 4)
        V = -S.sum(axis=1, keepdims=True)
        init = np.full(4, 0.25)
        chain = AbsorbingChain(S, V, init, np.array([1.0, 0, 0, 0]))
        assert absorption_probability(chain, 0) == pytest.approx(1.0, abs=1e-12)

    def test_zw_columns_are_complete(self):
        chain = build_zw_amc(ZwParams(1.0, 1.0))
        total = sum(absorption_probability(chain, m) for m in range(2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_column(self):
        chain = build_zw_amc(ZwParams(1.0, 1.0))
        with pytest.raises(ValueError):
            absorption_probability(chain, 2)

    def test_zw_success_probability_against_trajectories(self):
        chain = build_zw_amc(ZwParams(0.5, 0.1))
        p = absorption_probability(chain, 0)
        mc = np.random.default_rng(7)
        n = 1_000_000
        _, col = sample_absorption(chain, n, mc)
        p_hat = float(np.mean(col == 0))
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(p - p_hat) <= 3.0 * se


class TestStructuralInvariants:
    def test_cdf_monotone_and_saturates(self, rng):
        for ph in (erlang_ph(2.0, 5), random_phase_type(rng, 6)):
            mean = ph_moment(ph, 1)
            xs = np.linspace(0.0, 20.0 * mean, 1000)
            cdf = ph_cdf(ph, xs)
            assert np.all(np.diff(cdf) >= -1e-12)
            assert ph_cdf(ph, 50.0 * mean) >= 1.0 - 1e-6

    def test_pdf_is_cdf_derivative(self, rng):
        ph = random_phase_type(rng, 5)
        mean = ph_moment(ph, 1)
        h = 1e-5 * mean
        xs = rng.uniform(0.1 * mean, 5.0 * mean, size=100)
        for x in xs:
            num = (ph_cdf(ph, x + h) - ph_cdf(ph, x - h)) / (2.0 * h)
            assert num == pytest.approx(ph_pdf(ph, float(x)), abs=1e-6)

    def test_one_column_chain_matches_phase_type(self, rng):
        # a proper phase-type is the peak age of the chain that absorbs
        # through its exit rates alone
        ph = random_phase_type(rng, 6)
        chain = AbsorbingChain(ph.S, ph.nu[:, None], ph.sigma, np.ones(6))
        xs = np.array([2.0, 0.0, 0.4, 2.0, 9.0])
        for got, want in ((paoi_pdf(chain, xs), ph_pdf(ph, xs)),
                          (paoi_cdf(chain, xs), ph_cdf(ph, xs))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        for x in (0.0, 0.4, 9.0):
            assert paoi_pdf(chain, x) == pytest.approx(ph_pdf(ph, x), rel=1e-12)
            assert paoi_cdf(chain, x) == pytest.approx(ph_cdf(ph, x), rel=1e-12)
        for i in (1, 2, 3):
            assert paoi_moment(chain, i) == pytest.approx(ph_moment(ph, i),
                                                         rel=1e-12)

    def test_substochastic_sigma_allowed(self):
        ph = PhaseType([0.5], [[-1.0]])
        assert ph_cdf(ph, 1e9) == pytest.approx(0.5, abs=1e-9)


class TestValidation:
    def test_negative_offdiagonal_rejected(self):
        with pytest.raises(ValueError):
            PhaseType([1.0, 0.0], [[-1.0, -0.5], [0.2, -0.2]])

    def test_positive_row_sum_rejected(self):
        with pytest.raises(ValueError):
            PhaseType([1.0, 0.0], [[-1.0, 2.0], [0.0, -1.0]])

    def test_singular_generator_rejected(self):
        with pytest.raises(ValueError):
            PhaseType([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]])

    def test_sigma_sum_above_one_rejected(self):
        with pytest.raises(ValueError):
            PhaseType([0.8, 0.8], [[-1.0, 0.0], [0.0, -1.0]])

    def test_chain_row_sum_mismatch_rejected(self):
        S = np.array([[-2.0, 1.0], [0.0, -1.0]])
        V = np.array([[0.5], [1.0]])  # first row short by 0.5
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_chain_init_must_normalize(self):
        S = np.array([[-1.0]])
        V = np.array([[1.0]])
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([0.7]), np.array([1.0]))

    def test_chain_mask_values(self):
        S = np.array([[-1.0]])
        V = np.array([[1.0]])
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([1.0]), np.array([0.0]))

    def test_success_col_range(self):
        S = np.array([[-1.0]])
        V = np.array([[1.0]])
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([1.0]), np.array([1.0]), success_col=1)


def test_dump_csv_writes_audit_files(tmp_path):
    chain = build_zw_amc(ZwParams(0.5, 0.1))
    written = chain.dump_csv(tmp_path / "dump")
    assert len(written) == 4
    text = (tmp_path / "dump" / "S.csv").read_text().splitlines()
    assert text[0].startswith("c0,")
    assert len(text) == 8  # header + 7 rows
