"""Simulator behavior: determinism, bookkeeping identities, and
agreement with the analytic models."""

import math
import warnings

import numpy as np
import pytest

from aoidual import (
    FP,
    FP_PREEMPT_ONLY,
    FpParams,
    SimConfig,
    ZW,
    ZwParams,
    build_fp_model,
    empirical_aoi_cdf,
    empirical_vs_analytic,
    ks_against_table,
    ks_distance,
    simulate,
    summarize,
    zw_closed_form_means,
)


class TestConfigValidation:
    def test_policy_params_pairing(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), FP, horizon=1000)
        with pytest.raises(ValueError):
            SimConfig(FpParams(1, 1, 1, 1), ZW, horizon=1000)

    def test_preempt_only_accepts_either_params(self):
        SimConfig(ZwParams(1, 1), FP_PREEMPT_ONLY, horizon=1000)
        SimConfig(FpParams(1, 1, 1, 1), FP_PREEMPT_ONLY, horizon=1000)

    def test_horizon_floor(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), ZW, horizon=999)

    def test_warmup_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), ZW, horizon=1000, warmup=999)
        cfg = SimConfig(ZwParams(1, 1), ZW, horizon=1000)
        assert cfg.warmup == 10

    def test_replications_floor(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), ZW, horizon=1000, replications=0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), "lcfs", horizon=1000)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = SimConfig(ZwParams(1.0, 0.4), ZW, horizon=20_000, seed=5,
                        replications=3)
        a = simulate(cfg)
        b = simulate(cfg)
        assert a.mean_aoi == b.mean_aoi and a.mean_paoi == b.mean_paoi
        assert np.array_equal(a.samples.u, b.samples.u)
        assert np.array_equal(a.samples.peak, b.samples.peak)
        assert np.array_equal(a.aoi_cdf_y, b.aoi_cdf_y)
        assert dict(a.stats)["monitor_discards"] == dict(b.stats)["monitor_discards"]

    def test_seed_changes_draws(self):
        base = SimConfig(ZwParams(1.0, 0.4), ZW, horizon=20_000, seed=5)
        other = SimConfig(ZwParams(1.0, 0.4), ZW, horizon=20_000, seed=6)
        assert simulate(base).mean_aoi != simulate(other).mean_aoi


class TestZeroWait:
    def test_means_match_closed_forms(self):
        # 8 replications keep the standard-error estimate itself stable
        # enough for a 3-se band
        cfg = SimConfig(ZwParams(1.0, 1.0), ZW, horizon=100_000, seed=17,
                        replications=8)
        res = simulate(cfg)
        means = zw_closed_form_means(ZwParams(1.0, 1.0))
        assert abs(res.mean_aoi - means.mean_aoi) <= 3.0 * res.se_aoi
        assert abs(res.mean_paoi - means.mean_paoi) <= 3.0 * res.se_paoi

    def test_heterogeneous_peak_mean(self):
        cfg = SimConfig(ZwParams(0.5, 0.1), ZW, horizon=100_000, seed=23,
                        replications=8)
        res = simulate(cfg)
        assert abs(res.mean_paoi - 3.870968) <= 3.0 * res.se_paoi

    def test_slow_second_server_discards(self):
        cfg = SimConfig(ZwParams(1.0, 0.01), ZW, horizon=20_000, seed=2)
        res = simulate(cfg)
        assert res.stats["monitor_discards"] > 0

    def test_no_preemptions_under_zero_wait(self):
        cfg = SimConfig(ZwParams(1.0, 0.5), ZW, horizon=10_000, seed=2)
        assert simulate(cfg).stats["preemptions"] == 0


class TestFreezePreempt:
    def test_no_monitor_discards_or_out_of_order(self):
        cfg = SimConfig(FpParams(0.5, 0.1, 1.0, 3), FP, horizon=50_000, seed=4)
        res = simulate(cfg)
        assert res.stats["monitor_discards"] == 0
        assert res.stats["out_of_order_deliveries"] == 0
        assert res.stats["preemptions"] > 0

    def test_means_match_analytic_model(self):
        p = FpParams(0.5, 0.1, 1.0, 5)
        cfg = SimConfig(p, FP, horizon=100_000, seed=31, replications=8)
        res = simulate(cfg)
        model = build_fp_model(p)
        from aoidual import aoi_mean, paoi_mean

        assert abs(res.mean_aoi - aoi_mean(model)) <= 3.0 * res.se_aoi
        assert abs(res.mean_paoi - paoi_mean(model)) <= 3.0 * res.se_paoi

    def test_preempt_only_matches_limit_model(self):
        from aoidual import aoi_mean, preempt_only_params

        p = preempt_only_params(1.0, 0.4)
        cfg = SimConfig(p, FP_PREEMPT_ONLY, horizon=100_000, seed=37,
                        replications=8)
        res = simulate(cfg)
        assert abs(res.mean_aoi - aoi_mean(build_fp_model(p))) <= 3.0 * res.se_aoi


class TestBookkeeping:
    def test_single_rep_mean_is_exact_cycle_ratio(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=20_000, seed=9,
                        replications=1)
        res = simulate(cfg)
        u, length = res.samples.u, res.samples.length
        recomputed = (u * length + 0.5 * length * length).sum() / length.sum()
        assert res.mean_aoi == recomputed
        assert res.mean_paoi == res.samples.peak.mean()
        assert math.isnan(res.se_aoi) and math.isnan(res.se_paoi)

    def test_standard_errors_need_two_reps(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=10_000, seed=9,
                        replications=2)
        res = simulate(cfg)
        assert res.se_aoi > 0.0 and res.se_paoi > 0.0

    def test_cycle_count(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=10_000, warmup=100,
                        seed=9, replications=3)
        res = simulate(cfg)
        assert res.cycle_count == 3 * (10_000 - 100 - 1)

    def test_peaks_exceed_start_ages(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=10_000, seed=9)
        res = simulate(cfg)
        s = res.samples
        np.testing.assert_allclose(s.peak, s.u + s.length, rtol=1e-12)
        assert np.all(s.length > 0)


class TestEmpiricalCdfs:
    def test_aoi_cdf_matches_bruteforce(self, rng):
        u = rng.uniform(0.0, 2.0, size=200)
        length = rng.uniform(0.01, 3.0, size=200)
        xs = np.sort(rng.uniform(0.0, 6.0, size=50))
        got = empirical_aoi_cdf(u, length, xs)
        brute = np.array([
            np.sum(np.clip(x - u, 0.0, length)) / length.sum() for x in xs])
        np.testing.assert_allclose(got, brute, atol=1e-12)

    def test_cdf_outputs_monotone_in_unit_interval(self):
        cfg = SimConfig(ZwParams(1.0, 0.2), ZW, horizon=20_000, seed=3)
        res = simulate(cfg)
        for ys in (res.aoi_cdf_y, res.paoi_cdf_y):
            assert np.all(np.diff(ys) >= -1e-12)
            assert ys[0] >= 0.0 and ys[-1] <= 1.0 + 1e-12


class TestKsMachinery:
    def test_table_against_itself_is_zero(self):
        table = summarize(build_fp_model(FpParams(0.5, 0.1, 1.0, 2))).aoi_table
        assert ks_distance(table.grid, table.cdf, table.grid, table.cdf) == 0.0

    def test_mismatched_parameters_separate(self):
        t1 = summarize(build_fp_model(FpParams(0.5, 0.1, 1.0, 10))).aoi_table
        t2 = summarize(build_fp_model(FpParams(0.5, 0.2, 1.0, 10))).aoi_table
        assert ks_distance(t1.grid, t1.cdf, t2.grid, t2.cdf) > 0.02

    def test_mismatch_warning(self):
        p_table = FpParams(0.5, 0.2, 1.0, 2)
        table = summarize(build_fp_model(p_table)).aoi_table
        cfg = SimConfig(FpParams(0.5, 0.1, 1.0, 2), FP, horizon=5_000, seed=1)
        with pytest.warns(UserWarning, match="mu2"):
            ks = empirical_vs_analytic(cfg, table)
        assert ks > 0.01

    def test_preempt_only_table_matches_config(self):
        from aoidual import preempt_only_params

        p = preempt_only_params(1.0, 0.4)
        table = summarize(build_fp_model(p)).aoi_table
        for params in (p, FpParams(1.0, 0.4, 1.0, 3), ZwParams(1.0, 0.4)):
            cfg = SimConfig(params, FP_PREEMPT_ONLY, horizon=5_000, seed=1,
                            replications=1)
            assert "freeze_rate" not in cfg.describe()
            assert "k" not in cfg.describe()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert empirical_vs_analytic(cfg, table) < 0.05

    def test_simulated_agreement_smoke(self):
        p = FpParams(0.5, 0.1, 1.0, 1)
        summary = summarize(build_fp_model(p))
        cfg = SimConfig(p, FP, horizon=200_000, seed=41, replications=1)
        res = simulate(cfg)
        assert ks_against_table(res, summary.aoi_table) < 0.01
        assert ks_against_table(res, summary.paoi_table) < 0.01

    def test_requires_samples(self):
        p = FpParams(0.5, 0.1, 1.0, 1)
        table = summarize(build_fp_model(p)).aoi_table
        cfg = SimConfig(p, FP, horizon=5_000, seed=1)
        res = simulate(cfg, keep_samples=False)
        with pytest.raises(ValueError):
            ks_against_table(res, table)

    def test_kind_required_when_untagged(self):
        from aoidual import DistributionTable

        table = DistributionTable(np.array([0.0, 1.0, 2.0]),
                                  np.array([0.0, 0.5, 0.25]),
                                  np.array([0.0, 0.4, 0.8]),
                                  mean=1.0, second_moment=1.5, variance=0.5)
        cfg = SimConfig(ZwParams(1, 1), ZW, horizon=5_000, seed=1)
        res = simulate(cfg)
        with pytest.raises(ValueError):
            ks_against_table(res, table)


class TestSerialization:
    def test_json_and_csv_outputs(self, tmp_path):
        import json

        cfg = SimConfig(ZwParams(1.0, 0.2), ZW, horizon=5_000, seed=3)
        res = simulate(cfg, keep_samples=False)
        res.to_json(tmp_path / "result.json")
        res.write_cdf_csvs(tmp_path / "aoi.csv", tmp_path / "paoi.csv")
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["config"]["policy"] == "zw"
        assert payload["cycle_count"] == res.cycle_count
        header = (tmp_path / "aoi.csv").read_text().splitlines()[0]
        assert header == "x,cdf"
