"""Exact age analysis of the freeze/preempt policy.

Freeze/preempt halts sampling for an Erlang-k time after every
transmission start and removes packets made obsolete by fresher
deliveries. Its cycle chain has 9k+5 transient states. A new packet
starts in one of three of them, and these entry states form a
three-state Markov chain from one freeze start to the next, so the
initial vector is that chain's stationary law, in closed form. This
script walks the pipeline and tabulates the cdfs for three freeze-time
shapes (the data behind the cdf-validation figures).
"""

import numpy as np

from aoidual import (
    FpParams,
    FpStateIndex,
    build_fp_amc,
    build_fp_model,
    fp_initial_vector,
    summarize,
)

mu1, mu2, freeze_rate = 0.5, 0.1, 1.0

# The pipeline, step by step, for an exponential freeze (k = 1).
params = FpParams(mu1, mu2, freeze_rate, k=1)
init = fp_initial_vector(params)
idx = FpStateIndex(params.k)
print("entry probabilities (closed form):")
print("  fresh packet alone on server 1:   ", init[idx.index((1, 1))])
print("  beside an older packet (server 2):", init[idx.index((10, 1))])
print("  beside an older packet (server 1):", init[idx.index((6, 1))])

chain = build_fp_amc(params).with_init(init)
print("cycle chain size:", chain.order, "(equals 9k+5)")

# One call does all of the above.
assert np.array_equal(build_fp_model(params).init, chain.init)

# Distributions for increasingly deterministic freezing. The k = 10 and
# k = 50 curves nearly coincide: a moderate Erlang order already stands
# in for a deterministic freeze.
print("\nage cdf at x in {2, 5, 10}:")
for k in (1, 10, 50):
    summary = summarize(build_fp_model(FpParams(mu1, mu2, freeze_rate, k)))
    table = summary.aoi_table
    vals = np.interp([2.0, 5.0, 10.0], table.grid, table.cdf)
    print(f"  k={k:2d}: mean_aoi={summary.mean_aoi:.5f} "
          f"cdf={np.array_str(vals, precision=4)}")
