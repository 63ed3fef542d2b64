"""Validating the analytic models by simulation.

The simulator applies the system rules (service completions, freeze
expirations, source preemption, monitor discarding) as array code over
whole runs, records the age sawtooth exactly, and is reproducible from
a seed. Agreement with the chain-based distributions is measured as a
sup distance between cdfs.
"""

from aoidual import (
    FP,
    FpParams,
    SimConfig,
    ZW,
    ZwParams,
    build_fp_model,
    ks_against_table,
    simulate,
    summarize,
    zw_closed_form_means,
)

# Zero wait first: simulated means against the closed forms.
zw_params = ZwParams(1.0, 1.0)
cfg = SimConfig(zw_params, ZW, horizon=200_000, seed=1, replications=4)
res = simulate(cfg)
means = zw_closed_form_means(zw_params)
print("zero wait (equal rates):")
print(f"  simulated mean age      {res.mean_aoi:.5f} +- {res.se_aoi:.5f}")
print(f"  closed form             {means.mean_aoi:.5f}")
print(f"  simulated mean peak age {res.mean_paoi:.5f} +- {res.se_paoi:.5f}")
print(f"  closed form             {means.mean_paoi:.5f}")
print(f"  receptions discarded at the monitor: {res.stats['monitor_discards']}")

# Freeze/preempt: whole-distribution agreement. Preemption at the
# source means nothing stale ever reaches the monitor.
fp_params = FpParams(0.5, 0.1, 1.0, 10)
summary = summarize(build_fp_model(fp_params))
cfg = SimConfig(fp_params, FP, horizon=300_000, seed=2, replications=1)
res = simulate(cfg, keep_samples=True)
print("\nfreeze/preempt (k = 10):")
print(f"  simulated mean age {res.mean_aoi:.5f} vs analytic {summary.mean_aoi:.5f}")
print(f"  sup distance, age cdf:      {ks_against_table(res, summary.aoi_table):.5f}")
print(f"  sup distance, peak-age cdf: {ks_against_table(res, summary.paoi_table):.5f}")
print(f"  source preemptions: {res.stats['preemptions']}, "
      f"monitor discards: {res.stats['monitor_discards']}")

# Reruns with the same seed are bit-identical.
again = simulate(cfg, keep_samples=True)
print("\nsame seed, same result:", res.mean_aoi == again.mean_aoi)
