"""Choosing the freeze rate.

Mean age is unimodal in the freeze rate: long freezes starve the
servers, vanishing freezes degenerate to preemption-only, whose exact chain
gives the no-freezing limit. Brent's method, golden-section search with
parabolic steps over the log of the rate, finds the minimizer; sweeping
the slow server's rate maps out how much freezing buys over zero wait,
and over preemption alone.
"""

import numpy as np

from aoidual import (
    FpParams,
    ZwParams,
    aoi_mean,
    build_fp_model,
    optimize_freeze,
    paoi_mean,
    preempt_only_params,
    zw_closed_form_means,
)

# The shape of the objective for one parameter set.
mu1 = mu2 = 1.0
print("mean age versus freeze rate (mu1 = mu2 = 1, k = 50):")
rows = [(f"rate {rate:5.1f}", FpParams(mu1, mu2, rate, 50))
        for rate in (0.2, 1.0, 2.0, 3.5, 6.0, 20.0)]
for label, params in rows + [("no freezing", preempt_only_params(mu1, mu2))]:
    model = build_fp_model(params)
    print(f"  {label}: mean age {aoi_mean(model):.5f}, "
          f"mean peak age {paoi_mean(model):.5f}")
# Peak age only degrades with freezing; mean age has an interior optimum.

result = optimize_freeze(mu1, mu2, 50)
print(f"\noptimum: rate {result.lambda_star:.4f}, mean freeze time "
      f"{result.f_star:.4f}, mean age {result.aoi_at_star:.5f} "
      f"({result.evaluations} evaluations)")
print(f"zero-wait baseline {result.zw_aoi:.5f}; "
      f"reduction {result.reduction_pct:.2f}%")

# Sweep the slow server's rate: freezing pays most when the servers are
# comparable; preemption alone tops out lower.
print("\nreduction vs zero wait across the slow server's rate (mu1 = 1):")
print("   mu2     preempt-only   k=50 optimal   freeze time")
for mu2 in np.logspace(-2, 0, 9):
    zw = zw_closed_form_means(ZwParams(1.0, mu2)).mean_aoi
    pre = aoi_mean(build_fp_model(preempt_only_params(1.0, mu2)))
    opt = optimize_freeze(1.0, mu2, 50)
    print(f"  {mu2:6.3f}   {100 * (zw - pre) / zw:9.2f}%   "
          f"{opt.reduction_pct:9.2f}%   {opt.f_star:10.4f}")
