"""Conditional age/peak-age distributions against quadrature and
trajectory oracles."""

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from aoidual import (
    FpParams,
    GridSpec,
    ZwParams,
    aoi_cdf,
    aoi_mean,
    aoi_moment,
    aoi_pdf,
    build_fp_model,
    build_zw_amc,
    paoi_cdf,
    paoi_mean,
    paoi_moment,
    paoi_pdf,
    summarize,
)
from conftest import sample_absorption

ZW_EQUAL = ZwParams(1.0, 1.0)
ZW_HET = ZwParams(0.5, 0.1)


class TestPaoiDistribution:
    def test_cdf_zero_at_origin(self):
        assert paoi_cdf(build_zw_amc(ZW_EQUAL), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_cdf_saturates(self):
        chain = build_zw_amc(ZW_EQUAL)
        mean = paoi_mean(chain)
        assert paoi_cdf(chain, 100.0 * mean) >= 1.0 - 1e-8

    def test_pdf_normalizes(self):
        chain = build_zw_amc(ZW_HET)
        mean = paoi_mean(chain)
        integral, err = quad(lambda x: paoi_pdf(chain, x), 0.0, 40.0 * mean,
                             limit=200)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_pdf_is_cdf_derivative(self, rng):
        chain = build_zw_amc(ZW_HET)
        mean = paoi_mean(chain)
        h = 1e-6 * mean
        for x in rng.uniform(0.05 * mean, 6.0 * mean, size=100):
            num = (paoi_cdf(chain, x + h) - paoi_cdf(chain, x - h)) / (2 * h)
            assert num == pytest.approx(paoi_pdf(chain, float(x)), abs=1e-6)

    def test_equal_rate_mean(self):
        for mu in (0.5, 1.0, 3.0):
            chain = build_zw_amc(ZwParams(mu, mu))
            assert paoi_mean(chain) == pytest.approx(4.0 / (3.0 * mu), rel=1e-12)

    def test_heterogeneous_mean(self):
        assert paoi_mean(build_zw_amc(ZW_HET)) == pytest.approx(3.870968, abs=1e-6)

    def test_mean_matches_quadrature(self):
        chain = build_zw_amc(ZW_HET)
        mean = paoi_mean(chain)
        moment, _ = quad(lambda x: x * paoi_pdf(chain, x), 0.0, 60.0 * mean,
                         limit=300)
        assert moment == pytest.approx(mean, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            paoi_cdf(build_zw_amc(ZW_EQUAL), -1.0)

    def test_conditional_law_matches_successful_trajectories(self):
        # trajectory oracle restricted to successful cycles
        chain = build_zw_amc(ZW_HET)
        mc = np.random.default_rng(3)
        times, col = sample_absorption(chain, 200_000, mc)
        good = np.sort(times[col == 0])
        n = good.shape[0]
        analytic = paoi_cdf(chain, good)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.max(empirical_hi - analytic), np.max(analytic - empirical_lo))
        assert ks < 1.63 / np.sqrt(n)  # 1% critical value


class TestAoiDistribution:
    def test_pdf_normalizes(self):
        chain = build_zw_amc(ZW_HET)
        mean = aoi_mean(chain)
        integral, _ = quad(lambda x: aoi_pdf(chain, x), 0.0, 40.0 * mean,
                           limit=200)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_density_vanishes_at_origin(self):
        # no initial mass sits on the age-overlap states for either policy
        assert aoi_pdf(build_zw_amc(ZW_HET), 0.0) == pytest.approx(0.0, abs=1e-14)
        model = build_fp_model(FpParams(0.5, 0.1, 1.0, 3))
        assert aoi_pdf(model, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_heterogeneous_mean(self):
        chain = build_zw_amc(ZW_HET)
        assert aoi_mean(chain) == pytest.approx(3.796296, abs=1e-6)

    def test_equal_rate_mean(self):
        assert aoi_mean(build_zw_amc(ZW_EQUAL)) == pytest.approx(1.25, rel=1e-12)

    def test_first_moment_matches_quadrature(self):
        chain = build_zw_amc(ZW_HET)
        mean = aoi_mean(chain)
        moment, _ = quad(lambda x: x * aoi_pdf(chain, x), 0.0, 60.0 * mean,
                         limit=300)
        assert moment == pytest.approx(mean, abs=1e-8)

    def test_second_moment_matches_quadrature(self):
        for chain in (build_zw_amc(ZW_HET),
                      build_fp_model(FpParams(0.5, 0.1, 1.0, 4))):
            mean = aoi_mean(chain)
            grid = np.concatenate(([0.0],
                                   np.geomspace(mean / 200, 80 * mean, 4001)))
            pdf = aoi_pdf(chain, grid)
            m2_quad = simpson(grid * grid * pdf, x=grid)
            assert aoi_moment(chain, 2) == pytest.approx(m2_quad, rel=1e-6)


class TestSummarize:
    def test_zw_equal_rates_summary(self):
        summary = summarize(build_zw_amc(ZW_EQUAL))
        assert summary.mean_aoi == pytest.approx(1.25, rel=1e-12)
        assert summary.mean_paoi == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert summary.p_success == pytest.approx(0.75, rel=1e-12)

    def test_table_refuses_non_finite_entries(self):
        # every table check is a comparison, which a NaN passes unseen
        from aoidual import DistributionTable

        good = {"grid": [0.0, 1.0, 2.0], "pdf": [0.1, 0.3, 0.2], "cdf": [0.0, 0.5, 1.0]}
        DistributionTable(**good, mean=1.0, second_moment=2.0, variance=1.0)
        for name in good:
            for bad in (np.nan, np.inf):
                arrays = {**good, name: [*good[name][:2], bad]}
                with pytest.raises(ValueError, match=f"^{name} holds a non-finite entry"):
                    DistributionTable(**arrays, mean=1.0, second_moment=2.0, variance=1.0)

    def test_tables_satisfy_invariants(self):
        summary = summarize(build_fp_model(FpParams(0.5, 0.1, 1.0, 5)))
        for table in (summary.aoi_table, summary.paoi_table):
            assert np.all(table.pdf >= 0.0)
            assert np.all(np.diff(table.cdf) >= -1e-12)
            assert table.cdf[0] >= 0.0 and table.cdf[-1] <= 1.0
            integral = np.trapezoid(table.pdf, table.grid)
            # trapezoid slightly overestimates the convex tail, so allow
            # a hair above one
            assert 0.99 <= integral <= 1.0 + 1e-4
            assert table.variance == pytest.approx(
                table.second_moment - table.mean ** 2, rel=1e-12)

    def test_deterministic_output(self):
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 3))
        a = summarize(chain)
        b = summarize(chain)
        assert np.array_equal(a.aoi_table.pdf, b.aoi_table.pdf)
        assert np.array_equal(a.paoi_table.cdf, b.paoi_table.cdf)
        assert a.mean_aoi == b.mean_aoi and a.paoi_moments == b.paoi_moments

    def test_grid_spec_controls_shape(self):
        summary = summarize(build_zw_amc(ZW_EQUAL), GridSpec(points=100))
        assert summary.aoi_table.grid.shape == (101,)
        assert summary.aoi_table.grid[0] == 0.0

    @pytest.mark.parametrize("points", [2.5, 100.0, "100", None])
    def test_grid_spec_rejects_non_integer_points(self, points):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(points=points)

    @pytest.mark.parametrize("max_mult", [True, np.inf, np.nan, "40"])
    def test_grid_spec_rejects_a_max_mult_that_is_not_a_finite_number(self, max_mult):
        with pytest.raises(ValueError, match="max_mult must be a positive finite number"):
            GridSpec(points=50, max_mult=max_mult)

    def test_grid_spec_takes_numpy_integers(self):
        spec = GridSpec(points=np.int64(50))
        assert spec.points == 50
        assert spec.build(1.0).shape == (51,)

    def test_meta_carries_parameters_and_kind(self):
        summary = summarize(build_zw_amc(ZW_HET))
        assert summary.aoi_table.meta["kind"] == "aoi"
        assert summary.paoi_table.meta["kind"] == "paoi"
        assert summary.aoi_table.meta["mu2"] == 0.1

    def test_meta_reports_kernel_health(self):
        from aoidual.phasetype import EXPM_TAIL

        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 3))
        rate = float(np.max(-np.diag(chain.S)))
        summary = summarize(chain, GridSpec(points=200))
        # both tables come from one walk, up to the later grid end
        end = max(summary.aoi_table.grid[-1], summary.paoi_table.grid[-1])
        for table in (summary.aoi_table, summary.paoi_table):
            meta = table.meta
            assert meta["kernel"] == "single_pass"
            assert meta["unif_mass"] == rate * end
            assert 0.0 <= meta["poisson_tail"] <= EXPM_TAIL
            assert 0.0 <= meta["cdf_clip"] <= 1e-12

    @pytest.mark.parametrize("chain", [build_zw_amc(ZW_HET),
                                       build_fp_model(FpParams(0.5, 0.1, 1.0, 3))],
                             ids=["zw", "fp"])
    def test_every_table_point_matches_the_pointwise_law(self, chain):
        # one walk serves both tables; each must get its own rows and
        # weights back, at every point, not only at the grid end
        summary = summarize(chain, GridSpec(points=300))
        for table, pdf, cdf in ((summary.aoi_table, aoi_pdf, aoi_cdf),
                                (summary.paoi_table, paoi_pdf, paoi_cdf)):
            np.testing.assert_allclose(table.pdf, pdf(chain, table.grid), rtol=0, atol=1e-13)
            np.testing.assert_allclose(table.cdf, cdf(chain, table.grid), rtol=0, atol=1e-13)


class TestScaleCovariance:
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_zw_rate_scaling(self, c):
        base = build_zw_amc(ZwParams(0.9, 0.4))
        scaled = build_zw_amc(ZwParams(0.9 * c, 0.4 * c))
        assert aoi_mean(scaled) == pytest.approx(aoi_mean(base) / c, rel=1e-9)
        assert paoi_mean(scaled) == pytest.approx(paoi_mean(base) / c, rel=1e-9)
        for x in (0.3, 1.0, 2.5):
            assert aoi_pdf(scaled, x / c) == pytest.approx(
                c * aoi_pdf(base, x), rel=1e-9)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_fp_rate_scaling(self, c):
        base = build_fp_model(FpParams(0.9, 0.4, 1.5, 4))
        scaled = build_fp_model(FpParams(0.9 * c, 0.4 * c, 1.5 * c, 4))
        assert aoi_mean(scaled) == pytest.approx(aoi_mean(base) / c, rel=1e-9)
        assert paoi_mean(scaled) == pytest.approx(paoi_mean(base) / c, rel=1e-9)
        for x in (0.5, 2.0):
            assert paoi_pdf(scaled, x / c) == pytest.approx(
                c * paoi_pdf(base, x), rel=1e-9)


class TestSerialization:
    def test_table_csv_format(self, tmp_path):
        summary = summarize(build_zw_amc(ZW_EQUAL), GridSpec(points=50))
        path = tmp_path / "table.csv"
        summary.aoi_table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,pdf,cdf"
        assert len(lines) == 52
        # 12 significant digits
        value = lines[5].split(",")[1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12

    def test_summary_json(self, tmp_path):
        import json

        summary = summarize(build_zw_amc(ZW_EQUAL), GridSpec(points=50))
        path = tmp_path / "summary.json"
        summary.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["mean_aoi"] == pytest.approx(1.25)
        # the arrays live in the table CSVs only
        assert set(payload["aoi_table"]) == {"mean", "second_moment", "variance", "meta"}
        assert payload["meta"]["policy"] == "zw"
        assert payload["aoi_table"]["meta"]["kernel"] == "single_pass"
        assert set(payload["paoi_table"]["meta"]) >= {
            "kernel", "unif_mass", "poisson_tail", "cdf_clip"}
