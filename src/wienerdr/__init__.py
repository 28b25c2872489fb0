"""Distortion-rate analysis of the uniformly sampled Wiener process.

Closed-form distortion curves, closed-form reverse waterfilling over the
sampled-Wiener eigenvalue densities, finite-rank Karhunen-Loeve
eigensystems, and seeded Monte-Carlo validation of the estimation and
compress-and-estimate results.
"""

__version__ = "0.1.0"

from .drf import (DistortionBundle, RateSpec, bundle, ce_penalty, d_bar, d_ce,
                  d_opt, d_tilde, d_upper, d_w, dr_asym_coeffs,
                  equilibrium_rbar, g_fun, mmse_fs, ratio_qnt, ratio_smp)
from .mc import (CeEstimate, ErrorMoments, MomentEstimate, SimConfig,
                 ce_distortion_estimate, ce_moment_oracle, empirical_mmse,
                 lemma_bounds, mc_test_channel_run)
from .spectral import (EigenSystem, ParameterError, ProcessParams,
                       SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER, SpectralDensity,
                       discrete_wiener_eigensystem,
                       discrete_wiener_eigenvalues,
                       interp_kernel_eigensystem, interp_kernel_eigenvalues)
from .waterfill import (WaterfillPoint, distortion_at_theta, rate_at_theta,
                        solve_theta_for_rate)

__all__ = [
    "__version__", "ParameterError",
    "ProcessParams", "SpectralDensity", "SAMPLED_WIENER",
    "SHIFTED_SAMPLED_WIENER",
    "EigenSystem", "discrete_wiener_eigenvalues", "discrete_wiener_eigensystem",
    "interp_kernel_eigenvalues", "interp_kernel_eigensystem",
    "WaterfillPoint", "distortion_at_theta", "rate_at_theta",
    "solve_theta_for_rate",
    "RateSpec", "DistortionBundle", "d_w", "d_bar", "mmse_fs", "d_opt",
    "d_tilde", "equilibrium_rbar", "g_fun", "d_ce", "d_upper", "ratio_smp",
    "ratio_qnt", "ce_penalty", "dr_asym_coeffs", "bundle",
    "SimConfig", "ErrorMoments", "MomentEstimate", "CeEstimate",
    "empirical_mmse", "lemma_bounds", "ce_moment_oracle",
    "ce_distortion_estimate", "mc_test_channel_run",
]
