"""Age-of-information analysis for dual-server generate-at-will status
update systems.

Exact distributions and moments of the age and peak-age processes under
the zero-wait and freeze/preempt policies, computed from absorbing
Markov chain representations; a plain phase-type law (``phase_type``,
``erlang_ph``) is such a chain too, and ``ph_pdf``/``ph_cdf``/``ph_moment``
give the absorption time of any of them. A simulator for validation;
and an optimizer of the freeze rate over ``fp_means`` by Brent's method.
"""

from .phasetype import (
    AbsorbingChain,
    absorption_probability,
    erlang_ph,
    expm_action_grid,
    phase_type,
)
from .zw import ZwParams, build_zw_amc, zw_closed_form_means, zw_explicit_inverse
from .fp import (
    FpMeans,
    FpParams,
    FpStateIndex,
    RmcStateIndex,
    StationarySolution,
    build_fp_amc,
    build_fp_model,
    build_fp_rmc,
    fp_initial_vector,
    fp_means,
    preempt_only_params,
    rmc_stationary,
)
from .metrics import (
    AoiSummary,
    DistributionTable,
    GridSpec,
    aoi_cdf,
    aoi_mean,
    aoi_moment,
    aoi_pdf,
    paoi_cdf,
    paoi_mean,
    paoi_moment,
    paoi_pdf,
    ph_cdf,
    ph_moment,
    ph_pdf,
    summarize,
)
from .sim import (
    FP,
    FP_PREEMPT_ONLY,
    ZW,
    SimConfig,
    SimResult,
    empirical_aoi_cdf,
    empirical_paoi_cdf,
    ks_against_table,
    ks_distance,
    simulate,
)
from .optimize import OptResult, golden_section_min, optimize_freeze

__version__ = "0.1.0"

__all__ = [
    "AbsorbingChain", "absorption_probability", "erlang_ph",
    "expm_action_grid", "phase_type",
    "ZwParams", "build_zw_amc", "zw_closed_form_means", "zw_explicit_inverse",
    "FpMeans", "FpParams", "FpStateIndex", "RmcStateIndex", "StationarySolution",
    "build_fp_amc", "build_fp_model", "build_fp_rmc",
    "fp_initial_vector", "fp_means", "preempt_only_params", "rmc_stationary",
    "AoiSummary", "DistributionTable", "GridSpec", "aoi_cdf", "aoi_mean",
    "aoi_moment", "aoi_pdf", "paoi_cdf", "paoi_mean", "paoi_moment",
    "paoi_pdf", "ph_cdf", "ph_moment", "ph_pdf", "summarize",
    "FP", "FP_PREEMPT_ONLY", "ZW", "SimConfig", "SimResult",
    "empirical_aoi_cdf", "empirical_paoi_cdf", "ks_against_table", "ks_distance", "simulate",
    "OptResult", "golden_section_min", "optimize_freeze",
    "__version__",
]
