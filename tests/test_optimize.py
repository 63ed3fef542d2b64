"""Golden-section search with parabolic steps, and the freeze-rate optimizer."""

import math

import numpy as np
import pytest

from aoidual import (
    FpParams,
    ZwParams,
    aoi_mean,
    build_fp_model,
    fp_means,
    golden_section_min,
    optimize_freeze,
    paoi_mean,
    preempt_only_params,
    zw_closed_form_means,
)


class TestGoldenSection:
    def test_quadratic(self):
        x, f, evals = golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0,
                                         tol=1e-8)
        assert abs(x - 2.0) <= 1e-8
        assert f <= 1e-15
        assert evals <= 8  # a parabolic step lands on a quadratic's vertex

    def test_nonsmooth_unimodal(self):
        x, _, _ = golden_section_min(lambda x: abs(x - 0.3), 0.0, 1.0,
                                     tol=1e-9)
        assert abs(x - 0.3) <= 1e-9

    def test_deterministic(self):
        a = golden_section_min(lambda x: (x - 1.3) ** 4, 0.0, 3.0, tol=1e-7)
        b = golden_section_min(lambda x: (x - 1.3) ** 4, 0.0, 3.0, tol=1e-7)
        assert a == b

    def test_evaluation_cap_signalled(self, monkeypatch):
        import aoidual.optimize as optimize_module

        monkeypatch.setattr(optimize_module, "MAX_EVALS", 10)  # read at each call
        with pytest.raises(RuntimeError, match="within 10 evaluations"):
            golden_section_min(lambda x: x * x, 0.0, 1.0, tol=1e-9)

    def test_needs_tolerance(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("lo,hi,name", [
        (0.0, math.inf, "hi"), (-math.inf, 1.0, "lo"), (math.nan, 1.0, "lo"),
    ])
    def test_bounds_must_be_finite(self, lo, hi, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            golden_section_min(lambda x: x * x, lo, hi, tol=1e-6)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 2.0, 1.0, tol=1e-6)


class TestOptimizeFreeze:
    def test_homogeneous_k50_freeze_time(self):
        result = optimize_freeze(1.0, 1.0, 50)
        assert result.f_star == pytest.approx(0.2894, abs=0.002)
        assert not result.boundary_hit
        assert result.bracket[0] < result.lambda_star < result.bracket[1]
        assert result.evaluations <= 16

    def test_reported_peak_reduction(self):
        result = optimize_freeze(1.0, 0.7943, 50)
        assert result.reduction_pct == pytest.approx(13.60, abs=0.5)
        assert result.evaluations <= 16
        assert result.zw_aoi == pytest.approx(
            zw_closed_form_means(ZwParams(1.0, 0.7943)).mean_aoi, rel=1e-12)

    def test_reduction_definition(self):
        result = optimize_freeze(1.0, 0.5, 10)
        expected = 100.0 * (result.zw_aoi - result.aoi_at_star) / result.zw_aoi
        assert result.reduction_pct == pytest.approx(expected, rel=1e-12)

    def test_boundary_hit_flagged(self):
        result = optimize_freeze(1.0, 1.0, 5, bracket=(50.0, 100.0))
        assert result.boundary_hit
        assert result.bracket == (5.0, 100.0)  # expanded once and still low

    @pytest.mark.parametrize("bracket,rtol,name", [
        (("0.05", 100.0), 1e-4, "bracket low end"),
        ((0.05, True), 1e-4, "bracket high end"),
        ((0.05, math.inf), 1e-4, "bracket high end"),
        ((0.05, 100.0), "1e-4", "rtol"),
        ((0.05, 100.0), True, "rtol"),
    ])
    def test_bracket_and_rtol_are_positive_finite_numbers(self, bracket, rtol, name):
        with pytest.raises(ValueError, match=f"{name} must be a positive finite number"):
            optimize_freeze(1.0, 1.0, 1, bracket=bracket, rtol=rtol)

    @pytest.mark.parametrize("bracket", [(0.1,), (0.1, 1.0, 5.0)])
    def test_bracket_must_be_a_pair(self, bracket):
        with pytest.raises(ValueError, match="^bracket must be a pair"):
            optimize_freeze(1.0, 1.0, 1, bracket=bracket)

    def test_bracket_and_rtol_keep_their_order_rules(self):
        with pytest.raises(ValueError, match="lo < hi"):
            optimize_freeze(1.0, 1.0, 1, bracket=(2.0, 1.0))
        with pytest.raises(ValueError, match=r"log\(lo\) < log\(hi\)"):  # one ulp apart
            optimize_freeze(1.0, 1.0, 1, bracket=(3.0, math.nextafter(3.0, 4.0)))
        with pytest.raises(ValueError, match="rtol"):
            optimize_freeze(1.0, 1.0, 1, rtol=1.0)

    def test_evaluations_count_objective_calls(self, monkeypatch):
        import aoidual.optimize as optimize_module

        calls = []
        monkeypatch.setattr(optimize_module, "fp_means", lambda p: calls.append(p) or fp_means(p))
        result = optimize_freeze(1.0, 1.0, 5, bracket=(50.0, 100.0))  # searched twice
        assert result.evaluations == len(calls) == len(result.trace)
        assert [rate for rate, _ in result.trace] == [p.freeze_rate for p in calls]

    def test_trace_best_is_the_searched_optimum(self):
        result = optimize_freeze(1.0, 0.5, 10)
        rate, value = min(result.trace, key=lambda pair: pair[1])
        # the first lowest mean age, before the chain check replaces it
        assert rate == result.lambda_star
        assert value == fp_means(FpParams(1.0, 0.5, rate, 10)).mean_aoi

    @pytest.mark.parametrize("mu1,mu2,k", [(1.0, 1.0, 50), (1.0, 0.7943, 50),
                                           (1.0, 0.01, 50), (1.0, 0.9, 1),
                                           (0.5, 0.1, math.inf)])
    def test_optimum_beats_its_neighbours(self, mu1, mu2, k):
        star = optimize_freeze(mu1, mu2, k).lambda_star
        at_star, lower, upper = (fp_means(FpParams(mu1, mu2, star * s, k)).mean_aoi
                                 for s in (1.0, 1.0 - 1e-3, 1.0 + 1e-3))
        assert lower >= at_star and upper >= at_star

    def test_tolerance_below_float_resolution_stops(self):
        # the float-resolution floor stops the search, not the evaluation cap
        fine = optimize_freeze(1.0, 1.0, 50, rtol=1e-12)
        finest = optimize_freeze(1.0, 1.0, 50, rtol=1e-17)
        assert finest.evaluations < 100
        assert finest.lambda_star == pytest.approx(fine.lambda_star, rel=1e-12)

    def test_optimum_beats_zero_wait(self):
        for mu2, k in ((1.0, 1), (0.5, 10), (0.1, 50)):
            result = optimize_freeze(1.0, mu2, k)
            assert result.aoi_at_star < result.zw_aoi


    def test_optimum_is_reported_from_the_chain(self, monkeypatch):
        import aoidual.optimize as optimize_module

        built = []
        real = optimize_module.build_fp_model
        monkeypatch.setattr(optimize_module, "build_fp_model",
                            lambda p: built.append(p) or real(p))
        result = optimize_freeze(1.0, 0.5, 10)
        # one chain, at the optimum; the search ran on the freeze-level means
        assert [(p.freeze_rate, p.k) for p in built] == [(result.lambda_star, 10)]
        p = FpParams(1.0, 0.5, result.lambda_star, 10)
        assert result.aoi_at_star == aoi_mean(real(p))
        assert result.aoi_at_star == pytest.approx(fp_means(p).mean_aoi, rel=1e-12)

    def test_disagreement_with_the_chain_raises(self, monkeypatch):
        import aoidual.optimize as optimize_module

        real = optimize_module.aoi_mean
        monkeypatch.setattr(optimize_module, "aoi_mean",
                            lambda chain: real(chain) * (1.0 + 1e-10))
        with pytest.raises(RuntimeError, match="cycle chain"):
            optimize_freeze(1.0, 0.5, 10)

    def test_chain_check_allows_for_rounding_that_grows_with_k(self):
        # the chain's mean age drifts by up to about 6e-17 k relative (2.1e-12 at
        # k = 50000), while fp_means stays within 4.4e-16 of a 50-digit evaluation
        result = optimize_freeze(0.5, 0.1, 50000)
        p = FpParams(0.5, 0.1, result.lambda_star, 50000)
        assert result.aoi_at_star == pytest.approx(fp_means(p).mean_aoi, rel=1e-11)

    def test_deterministic_freeze_builds_no_chain(self, monkeypatch):
        import aoidual.optimize as optimize_module

        def refuse(p):
            raise AssertionError("no chain at k = inf")

        erlang = optimize_freeze(1.0, 1.0, 50)
        monkeypatch.setattr(optimize_module, "build_fp_model", refuse)
        result = optimize_freeze(1.0, 1.0, math.inf)
        assert not result.boundary_hit
        assert result.aoi_at_star == fp_means(FpParams(1.0, 1.0, result.lambda_star,
                                                       math.inf)).mean_aoi
        # the k = 50 optimum approaches it from above
        assert result.f_star == pytest.approx(erlang.f_star, rel=0.05)
        assert result.aoi_at_star < erlang.aoi_at_star


class TestSampledShapes:
    RATES = np.logspace(np.log10(0.05), np.log10(100.0), 30)

    @pytest.mark.parametrize("mu2", [0.1, 0.5, 1.0])
    def test_age_is_unimodal_on_sampled_grid(self, mu2):
        values = np.array([
            aoi_mean(build_fp_model(FpParams(1.0, mu2, rate, 50)))
            for rate in self.RATES])
        best = int(np.argmin(values))
        assert np.all(np.diff(values[:best + 1]) <= 1e-9)
        assert np.all(np.diff(values[best:]) >= -1e-9)

    def test_freezing_never_improves_peak_age(self):
        # peak age at any finite rate stays above the no-freeze limit
        for mu1 in (0.1, 0.5):
            limit = paoi_mean(build_fp_model(preempt_only_params(mu1, 0.1)))
            sampled = [paoi_mean(build_fp_model(FpParams(mu1, 0.1, rate, 50)))
                       for rate in self.RATES[::4]]
            assert all(v >= limit - 1e-9 for v in sampled)

    def test_optimal_freeze_time_decreases_with_second_rate(self):
        f_stars = [optimize_freeze(1.0, mu2, 50).f_star
                   for mu2 in (0.01, 0.1, 0.5, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(f_stars, f_stars[1:]))
