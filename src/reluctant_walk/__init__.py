"""SO(2)-coined quantum walk on the integer line.

Exact state-vector simulation, closed-form displacement distributions
built from a Chebyshev polynomial family, and maximum-likelihood
estimation of the coin angle from sampled walk data.
"""

from .chebyshev import chebyshev_identity_suite, chebyshev_u
from .estimation import (
    EstimateResult,
    LikelihoodCurve,
    TrialDataset,
    bernoulli_return_log_likelihood,
    dataset_from_json,
    dataset_to_json,
    displacement_likelihood,
    level_set_solve,
    likelihood_curve,
    log_likelihood,
    mle_estimate,
)
from .pmf import (
    CONVENTION_SIGMA,
    Pmf,
    iter_pmf_full,
    pmf_from_csv,
    pmf_from_json,
    pmf_full,
    pmf_point,
    pmf_to_csv,
    pmf_to_json,
    reluctance_profile,
)
from .sampling import (
    data_box_experiment,
    diffusion_experiment,
    fresh_seed,
    sample_positions,
    sample_return_trials,
    trial_generator,
)
from .walk import (
    CoinParameter,
    WalkState,
    channel_position_pmf,
    coin_matrix,
    evolve,
    kernel_matrix,
    kernel_power,
    kraus_kernels,
    position_pmf,
    return_probability_kraus,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "CONVENTION_SIGMA",
    "CoinParameter",
    "EstimateResult",
    "LikelihoodCurve",
    "Pmf",
    "TrialDataset",
    "WalkState",
    "bernoulli_return_log_likelihood",
    "channel_position_pmf",
    "chebyshev_identity_suite",
    "chebyshev_u",
    "coin_matrix",
    "data_box_experiment",
    "dataset_from_json",
    "dataset_to_json",
    "diffusion_experiment",
    "displacement_likelihood",
    "evolve",
    "fresh_seed",
    "iter_pmf_full",
    "kernel_matrix",
    "kernel_power",
    "kraus_kernels",
    "level_set_solve",
    "likelihood_curve",
    "log_likelihood",
    "mle_estimate",
    "pmf_from_csv",
    "pmf_from_json",
    "pmf_full",
    "pmf_point",
    "pmf_to_csv",
    "pmf_to_json",
    "position_pmf",
    "reluctance_profile",
    "return_probability_kraus",
    "sample_positions",
    "sample_return_trials",
    "step",
    "trial_generator",
]
