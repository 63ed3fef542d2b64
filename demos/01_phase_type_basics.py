"""Phase-type building blocks.

A phase-type distribution is the law of the time an absorbing CTMC
spends among its transient states, so `phase_type(sigma, S)` returns
that chain, the same `AbsorbingChain` every policy model is. Everything
downstream (the policy models, their age distributions) is built from
the pieces shown here: construction, density/cdf evaluation, moments,
and the Erlang family used to model freeze durations.
"""

import numpy as np

from aoidual import erlang_ph, ph_cdf, ph_moment, ph_pdf, phase_type

# An exponential with rate 2 is the simplest phase type: one transient
# state, exit rate 2.
expo = phase_type([1.0], [[-2.0]])
print("exponential(2):")
print("  pdf(0)  =", ph_pdf(expo, 0.0), "(equals the rate)")
print("  cdf(1)  =", ph_cdf(expo, 1.0))
print("  mean    =", ph_moment(expo, 1))

# Erlang-k with mean 1/rate: k identical phases in series. The variance
# 1/(k rate^2) shrinks with k, so large orders imitate a deterministic
# duration; this is how deterministic freezing is approximated.
print("\nErlang family, mean fixed at 1:")
for k in (1, 4, 16, 64):
    ph = erlang_ph(1.0, k)
    mean = ph_moment(ph, 1)
    var = ph_moment(ph, 2) - mean**2
    print(f"  k={k:3d}: mean={mean:.6f} var={var:.6f} "
          f"cdf(0.8)={ph_cdf(ph, 0.8):.4f} cdf(1.2)={ph_cdf(ph, 1.2):.4f}")

# The cdf sharpens around the mean as the order grows: mass below 0.8
# vanishes while mass below 1.2 tends to one.

# Mixtures and general transient structure work the same way; any valid
# sub-generator is accepted.
ph = phase_type([0.6, 0.4], [[-3.0, 1.0], [0.5, -2.0]])
xs = np.linspace(0.0, 4.0, 9)
print("\ngeneral 2-phase example, pdf on a grid:")
print(" ", np.array_str(ph_pdf(ph, xs), precision=4))
