"""Seeded Monte Carlo sampling and the diffusion / data-box experiments.

Reproducibility contract: every random quantity comes from a Philox
counter-based generator keyed by (seed, trial_index), so runs replay
bit-for-bit and trials are independent whether executed serially or in
parallel.  The quantum diffusion curve uses the moments of the pmf on
the float rows rather than sampling; the classical walk spread is
sqrt(k) in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .chebyshev import _finite, _integer, _unit_interval, _unit_total
from .estimation import TrialDataset, mle_estimate
from .pmf import Pmf, pmf_full

__all__ = [
    "fresh_seed",
    "trial_generator",
    "sample_positions",
    "sample_return_trials",
    "diffusion_experiment",
    "data_box_experiment",
]


def fresh_seed() -> int:
    """A new 64-bit seed from OS entropy, suitable for echoing in reports."""
    return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])


def trial_generator(seed: int, trial_index: int = 0) -> np.random.Generator:
    """The per-trial RNG substream: Philox keyed by (seed, trial_index)."""
    seed, trial_index = _integer(seed, "seed", 0), _integer(trial_index, "trial index", 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial_index))))


def sample_positions(pmf: Pmf, n: int, seed: int | None = None,
                     trial_index: int = 0) -> TrialDataset:
    """n independent displacement draws from a pmf via inverse CDF.

    The support is already sorted in a Pmf; draws use searchsorted on the
    cumulative table.  n = 0 gives an empty dataset.  The dataset records
    the base seed (a fresh one is drawn when omitted).
    """
    n = _integer(n, "n", 0)
    _unit_total(pmf.total(), "pmf")
    seed = fresh_seed() if seed is None else seed
    support = np.array(pmf.support)
    cdf = np.cumsum([pmf.table[d] for d in pmf.support])
    cdf[-1] = 1.0
    rng = trial_generator(seed, trial_index)
    draws = support[np.searchsorted(cdf, rng.random(n), side="right")]
    return TrialDataset.from_positions(pmf.k, draws.tolist(), seed=seed)


def sample_return_trials(p: float, n: int, seed: int | None = None, *,
                         k: int, trial_index: int = 0) -> TrialDataset:
    """n Bernoulli(p) return trials; n0 counts the returns.

    ``k`` tags the dataset with the (even) step count of the protocol so
    the estimator knows which level set to invert.
    """
    _unit_interval(p, "return probability")
    n = _integer(n, "n", 1)
    seed = fresh_seed() if seed is None else seed
    rng = trial_generator(seed, trial_index)
    n0 = int(np.count_nonzero(rng.random(n) < p))
    return TrialDataset.from_returns(k, n0, n, seed=seed)


def diffusion_experiment(theta: float, k_list, mode: str) -> list[tuple[int, float]]:
    """Walk spread sigma(k) for each k, analytically.

    mode "quantum" reads the standard deviation off the pmf at lam =
    cos(theta), one table on the float rows for each k in ``k_list``
    (``pmf_full(k, lam, exact=False)``); mode "classical" is the unbiased
    +-1 random walk, sigma = sqrt(k) (variance of k independent unit
    steps; theta unused, but a non-finite theta raises ValueError in either
    mode).  No sampling is involved in either mode.
    """
    _finite(theta, "theta")
    ks = [_integer(k, "step count k", 1) for k in k_list]
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_list must be non-empty and strictly increasing")
    if mode == "classical":
        return [(k, math.sqrt(k)) for k in ks]
    if mode != "quantum":
        raise ValueError(f"mode must be 'quantum' or 'classical', got {mode!r}")
    return [(k, pmf_full(k, math.cos(theta), exact=False).std()) for k in ks]


def data_box_experiment(theta_star: float, budget: int, allocations,
                        seed: int | None = None, grid_size: int = 601) -> dict:
    """Estimation error across (k, n) allocations of a fixed budget.

    Each allocation must satisfy k * n <= budget.  For allocation i, n
    displacement samples are drawn at theta_star from the k-step pmf on
    substream (seed, i) and fed to the grid MLE; the report tabulates
    |theta_hat - theta_star| per allocation and makes no claim about
    which allocation wins.  Single-trial allocations are flagged
    high_variance.
    """
    _finite(theta_star, "theta_star")
    budget = _integer(budget, "budget")
    allocs = tuple((_integer(k, "step count k", 1), _integer(n, "n", 1)) for k, n in allocations)
    if not allocs:
        raise ValueError("no allocations given")
    for k, n in allocs:
        if k * n > budget:
            raise ValueError(f"allocation ({k}, {n}) exceeds the budget {budget}")
    seed = fresh_seed() if seed is None else seed
    rows = []
    for i, (k, n) in enumerate(allocs):
        pmf = pmf_full(k, math.cos(theta_star))
        data = sample_positions(pmf, n, seed=seed, trial_index=i)
        est = mle_estimate(data, grid_size=grid_size)
        flags = list(est.flags)
        if n == 1:
            flags.append("high_variance")
        rows.append({
            "k": k,
            "n": n,
            "theta_hat": est.theta_hat,
            "lambda_hat": est.lambda_hat,
            "abs_error": abs(est.theta_hat - theta_star),
            "loglik": est.loglik,
            "flags": flags,
        })
    config = {"seed": seed, "theta_star": theta_star, "budget": budget,
              "allocations": [list(a) for a in allocs]}
    return {"config": config, "rows": rows}
