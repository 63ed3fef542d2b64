"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a single pass/fail line."""

import time

import numpy as np
import pytest

from aoidual import (
    FP,
    FP_PREEMPT_ONLY,
    FpParams,
    SimConfig,
    ZwParams,
    aoi_mean,
    build_fp_amc,
    build_fp_model,
    build_zw_amc,
    fp_initial_vector,
    ks_against_table,
    ks_distance,
    optimize_freeze,
    paoi_mean,
    preempt_only_params,
    simulate,
    summarize,
    zw_closed_form_means,
    zw_explicit_inverse,
)

FIG3 = dict(mu1=0.5, mu2=0.1, freeze_rate=1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fig3_runs():
    """Analytic tables and 1e6-cycle simulations at the cdf-validation
    parameters, for Erlang orders 1, 10 and 50."""
    runs = {}
    started = time.perf_counter()
    for k in (1, 10, 50):
        params = FpParams(FIG3["mu1"], FIG3["mu2"], FIG3["freeze_rate"], k)
        summary = summarize(build_fp_model(params))
        cfg = SimConfig(params, FP, horizon=1_000_000, seed=814 + k,
                        replications=1)
        result = simulate(cfg, keep_samples=True)
        runs[k] = {
            "summary": summary,
            "ks_aoi": ks_against_table(result, summary.aoi_table),
            "ks_paoi": ks_against_table(result, summary.paoi_table),
        }
    runs["elapsed"] = time.perf_counter() - started
    return runs


def test_criterion_1_zw_closed_form_equivalence():
    started = time.perf_counter()
    rates = np.logspace(-2, 1, 20)
    worst = 0.0
    for mu1 in rates:
        for mu2 in rates[rates <= mu1]:
            p = ZwParams(mu1, mu2)
            chain = build_zw_amc(p)
            means = zw_closed_form_means(p)
            worst = max(worst,
                        abs(aoi_mean(chain) - means.mean_aoi) / means.mean_aoi,
                        abs(paoi_mean(chain) - means.mean_paoi) / means.mean_paoi)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"worst relative deviation {worst:.2e} over 20x20 grid "
                  f"(tol 1e-10), {elapsed:.2f} s")


def test_criterion_2_explicit_inverse():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        p = ZwParams(*rng.uniform(0.02, 9.0, size=2))
        product = build_zw_amc(p).S @ zw_explicit_inverse(p)
        worst = max(worst, float(np.max(np.abs(product - np.eye(7)))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, ok, f"worst |S S^-1 - I| entry {worst:.2e} over 50 draws "
                  f"(tol 1e-12), {elapsed:.2f} s")


def test_criterion_3_simulation_matches_analytics(fig3_runs):
    worst = max(max(fig3_runs[k]["ks_aoi"], fig3_runs[k]["ks_paoi"])
                for k in (1, 10, 50))
    elapsed = fig3_runs["elapsed"]
    ok = worst < 0.005 and elapsed < 120.0
    report(3, ok, f"max KS distance {worst:.4f} over k in {{1,10,50}}, "
                  f"age and peak age, 1e6 cycles (tol 0.005), {elapsed:.1f} s")


def test_criterion_4_erlang_orders_close(fig3_runs):
    t10 = fig3_runs[10]["summary"].aoi_table
    t50 = fig3_runs[50]["summary"].aoi_table
    d = ks_distance(t10.grid, t10.cdf, t50.grid, t50.cdf)
    ok = d < 0.02
    report(4, ok, f"sup distance between k=10 and k=50 age cdfs {d:.4f} "
                  f"(tol 0.02)")


def test_criterion_5_optimal_freeze_time():
    started = time.perf_counter()
    result = optimize_freeze(1.0, 1.0, 50)
    elapsed = time.perf_counter() - started
    ok = abs(result.f_star - 0.2894) <= 0.002 and elapsed < 30.0
    report(5, ok, f"optimal mean freeze time {result.f_star:.4f} "
                  f"(expected 0.2894 +- 0.002), {elapsed:.1f} s")


def test_criterion_6_peak_reduction():
    result = optimize_freeze(1.0, 0.7943, 50)
    ok = abs(result.reduction_pct - 13.60) <= 0.5
    report(6, ok, f"mean-age reduction at the reported best point "
                  f"{result.reduction_pct:.2f}% (expected 13.60 +- 0.5)")


def test_criterion_7_preemption_only_ceiling():
    best = 0.0
    for mu2 in np.logspace(-2, 0, 21):
        model = build_fp_model(preempt_only_params(1.0, mu2))
        zw = zw_closed_form_means(ZwParams(1.0, mu2)).mean_aoi
        best = max(best, 100.0 * (zw - aoi_mean(model)) / zw)
    ok = abs(best - 10.0) <= 1.0
    report(7, ok, f"max preemption-only reduction {best:.2f}% over the "
                  f"21-point grid (expected 10 +- 1)")


def test_criterion_8_freezing_never_helps_peak_age():
    rates = np.logspace(np.log10(0.05), np.log10(100.0), 30)
    worst = np.inf
    for mu1 in (0.1, 0.5):
        limit = paoi_mean(build_fp_model(preempt_only_params(mu1, 0.1)))
        for rate in rates:
            margin = paoi_mean(build_fp_model(FpParams(mu1, 0.1, rate, 50))) - limit
            worst = min(worst, margin)
    ok = worst >= -1e-9
    report(8, ok, f"smallest peak-age margin over finite rates {worst:.3e} "
                  f"(must exceed -1e-9)")


def test_criterion_9_limit_matches_native_preemption_only():
    sets = [(1.0, 1.0), (0.5, 0.1), (1.0, 0.3)]
    details = []
    ok = True
    for mu1, mu2 in sets:
        analytic = aoi_mean(build_fp_model(preempt_only_params(mu1, mu2)))
        cfg = SimConfig(ZwParams(mu1, mu2), FP_PREEMPT_ONLY, horizon=125_000,
                        seed=90, replications=8)
        res = simulate(cfg, keep_samples=False)
        dev = abs(res.mean_aoi - analytic) / res.se_aoi
        details.append(f"({mu1},{mu2}): {dev:.2f} se")
        ok = ok and dev <= 3.0
    report(9, ok, "native preemption-only simulation vs analytic limit, "
                  + "; ".join(details) + " (tol 3 se)")


def test_criterion_10_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    checks = []

    # initial vectors sum to one
    for _ in range(5):
        p = FpParams(*rng.uniform(0.05, 4.0, size=2),
                     rng.uniform(0.05, 10.0), int(rng.integers(1, 12)))
        checks.append(abs(fp_initial_vector(p).sum() - 1.0) <= 1e-12)

    # mask cardinality 3k + 1
    checks.extend(build_fp_amc(FpParams(0.7, 0.2, 1.5, k)).aoi_mask.sum() == 3 * k + 1
                  for k in (1, 5, 20))

    # generator rows sum to zero
    p = FpParams(0.7, 0.2, 1.5, 6)
    model = build_fp_model(p)
    rows = np.abs(model.S.sum(axis=1) + model.V.sum(axis=1)).max()
    checks.append(rows <= 1e-12)

    # scale covariance at c = 2
    base = build_fp_model(FpParams(0.7, 0.2, 1.5, 4))
    scaled = build_fp_model(FpParams(1.4, 0.4, 3.0, 4))
    checks.append(abs(aoi_mean(scaled) - aoi_mean(base) / 2.0)
                  <= 1e-9 * aoi_mean(base))

    # density normalization on the tabulated grid
    table = summarize(model).aoi_table
    integral = np.trapezoid(table.pdf, table.grid)
    checks.append(0.99 <= integral <= 1.0 + 1e-4)

    # determinism: simulation and summaries reproduce bit-identically
    cfg = SimConfig(p, FP, horizon=10_000, seed=55, replications=2)
    a, b = simulate(cfg), simulate(cfg)
    checks.append(a.mean_aoi == b.mean_aoi
                  and np.array_equal(a.samples.peak, b.samples.peak))
    s1, s2 = summarize(model), summarize(model)
    checks.append(np.array_equal(s1.aoi_table.cdf, s2.aoi_table.cdf))

    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 60.0
    report(10, ok, f"{len(checks)} structural properties hold "
                   f"({elapsed:.1f} s)")
