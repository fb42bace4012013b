"""Tests for seeded sampling and the two canned experiments."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from reluctant_walk.pmf import Pmf, pmf_full, pmf_point
from reluctant_walk.sampling import (
    data_box_experiment,
    diffusion_experiment,
    fresh_seed,
    sample_positions,
    sample_return_trials,
    trial_generator,
)

GOF_SEED = 20260817


# ------------------------------------------------------------------ streams

def test_trial_generator_replays_bit_for_bit():
    a = trial_generator(42, 3).random(100)
    b = trial_generator(42, 3).random(100)
    assert np.array_equal(a, b)


def test_trial_generator_substreams_differ():
    a = trial_generator(42, 0).random(100)
    b = trial_generator(42, 1).random(100)
    assert not np.array_equal(a, b)


def test_trial_generator_rejects_negative_keys():
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        trial_generator(-1, 0)
    with pytest.raises(ValueError, match="trial index must be an integer >= 0, got -2"):
        trial_generator(0, -2)


def test_fresh_seed_is_nonnegative_int():
    s = fresh_seed()
    assert isinstance(s, int)
    assert s >= 0
    # 64-bit entropy: two draws colliding would be astonishing
    assert fresh_seed() != s


# ----------------------------------------------------------------- positions

def test_sample_positions_replay():
    pmf = pmf_full(8, 0.5)
    a = sample_positions(pmf, 500, seed=7)
    b = sample_positions(pmf, 500, seed=7)
    assert a == b
    assert a.seed == 7


def test_sample_positions_substream_changes_draws():
    pmf = pmf_full(8, 0.5)
    a = sample_positions(pmf, 500, seed=7, trial_index=0)
    b = sample_positions(pmf, 500, seed=7, trial_index=1)
    assert a.counts() != b.counts()


def test_sample_positions_empty():
    ds = sample_positions(pmf_full(4, 0.3), 0, seed=1)
    assert ds.counts() == {} and ds.trials == 0.0
    assert ds.k == 4


def test_sample_positions_point_mass():
    # lam = 1 sends all mass to the extreme analytic site -k
    ds = sample_positions(pmf_full(5, 1.0), 200, seed=3)
    assert ds.counts() == {-5: 200.0}


def test_sample_positions_draws_fresh_seed_when_omitted():
    ds = sample_positions(pmf_full(2, 0.6), 10)
    assert ds.seed is not None and ds.seed >= 0


def test_sample_positions_support_and_frequency():
    pmf = pmf_full(2, 0.6)
    n = 10_000
    ds = sample_positions(pmf, n, seed=GOF_SEED)
    assert set(ds.counts()) <= {-2, 0, 2} and ds.trials == n
    # p(0) = 1 - lam^2 = 0.64; three sigma of the binomial count is ~144
    count0 = ds.counts()[0]
    sigma = math.sqrt(n * 0.64 * 0.36)
    assert abs(count0 - 0.64 * n) < 3 * sigma


def test_sample_positions_rejects_bad_input():
    pmf = pmf_full(2, 0.6)
    with pytest.raises(ValueError, match="n must be"):
        sample_positions(pmf, -1, seed=0)
    broken = pmf_full(2, 0.6)
    object.__setattr__(broken, "table", {0: 0.3, 2: 0.3, -2: 0.3})
    with pytest.raises(ValueError, match="normalized"):
        sample_positions(broken, 5, seed=0)


def test_sample_positions_rejects_a_nan_probability():
    with pytest.raises(ValueError, match="normalized"):
        sample_positions(Pmf(2, {-2: math.nan, 0: 0.5, 2: 0.5}), 5, seed=1)


def _lump_small_bins(observed, expected, floor=5.0):
    """Merge adjacent bins until every expected count reaches the floor."""
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= floor:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and obs:
        obs[-1] += acc_o
        exp[-1] += acc_e
    return np.array(obs), np.array(exp)


@pytest.mark.parametrize("k", [2, 8, 20])
@pytest.mark.parametrize("lam", [0.3, 0.6, 0.9])
def test_sample_positions_goodness_of_fit(k, lam):
    """Chi-square agreement between draws and the exact pmf at the 0.001 level."""
    pmf = pmf_full(k, lam)
    n = 100_000
    ds = sample_positions(pmf, n, seed=GOF_SEED)
    counts = ds.counts()
    observed = np.array([counts.get(d, 0.0) for d in pmf.support])
    expected = np.array([pmf.probability(d) * n for d in pmf.support])
    observed, expected = _lump_small_bins(observed, expected)
    expected *= observed.sum() / expected.sum()
    result = chisquare(observed, f_exp=expected)
    assert result.pvalue > 0.001


# ------------------------------------------------------------ return trials

def test_sample_return_trials_replay_and_tag():
    a = sample_return_trials(0.64, 300, seed=5, k=2)
    b = sample_return_trials(0.64, 300, seed=5, k=2)
    assert (a.n0, a.n, a.k, a.kind) == (b.n0, b.n, 2, "returns")


def test_sample_return_trials_degenerate_probabilities():
    assert sample_return_trials(1.0, 50, seed=1, k=4).n0 == 50
    assert sample_return_trials(0.0, 50, seed=1, k=4).n0 == 0


def test_sample_return_trials_frequency_band():
    n = 10_000
    ds = sample_return_trials(0.64, n, seed=GOF_SEED, k=2)
    sigma = math.sqrt(n * 0.64 * 0.36)
    assert abs(ds.n0 - 0.64 * n) < 3 * sigma


def test_sample_return_trials_validation():
    with pytest.raises(ValueError, match="probability"):
        sample_return_trials(1.2, 10, seed=0, k=2)
    with pytest.raises(ValueError, match="n must be"):
        sample_return_trials(0.5, 0, seed=0, k=2)
    with pytest.raises(ValueError, match="even"):
        sample_return_trials(0.5, 10, seed=0, k=3)


@pytest.mark.parametrize("bad", [2.0, 2.7, True, np.float64(2)])
def test_sampling_counts_and_keys_reject_non_integers(bad):
    pmf = pmf_full(2, 0.6)
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_positions(pmf, bad, seed=0)
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_return_trials(0.5, bad, seed=0, k=2)
    with pytest.raises(ValueError, match="seed must be an integer"):
        trial_generator(bad, 0)
    with pytest.raises(ValueError, match="trial index must be an integer"):
        trial_generator(0, bad)


def test_sampling_counts_and_keys_accept_numpy_integers():
    pmf = pmf_full(4, 0.6)
    three, five = np.int64(3), np.int64(5)
    assert (sample_positions(pmf, five, seed=three, trial_index=three).counts()
            == sample_positions(pmf, 5, seed=3, trial_index=3).counts())
    assert (sample_return_trials(0.5, five, seed=three, k=2, trial_index=three).n0
            == sample_return_trials(0.5, 5, seed=3, k=2, trial_index=3).n0)
    assert np.array_equal(trial_generator(three, five).random(4),
                          trial_generator(3, 5).random(4))


# -------------------------------------------------------------- experiments

def test_diffusion_classical_closed_form():
    out = diffusion_experiment(0.7, [1, 4, 100], mode="classical")
    assert out == [(1, 1.0), (4, 2.0), (100, 10.0)]


def test_diffusion_quantum_spread_grows():
    out = dict(diffusion_experiment(math.pi / 3, [8, 16, 32], mode="quantum"))
    assert out[8] < out[16] < out[32]


def test_diffusion_quantum_matches_pmf_std():
    theta = 0.9
    (k, sigma), = diffusion_experiment(theta, [6], mode="quantum")
    assert k == 6
    assert sigma == pytest.approx(pmf_full(6, math.cos(theta), exact=False).std(),
                                  rel=1e-12)


def test_diffusion_degenerate_coin_stays_put():
    # theta = pi/2 freezes the walker within one site of the origin
    for k, sigma in diffusion_experiment(math.pi / 2, [2, 3, 4, 5], mode="quantum"):
        assert sigma <= 1.0 + 1e-12


def test_diffusion_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        diffusion_experiment(0.5, [], mode="quantum")
    with pytest.raises(ValueError, match="strictly increasing"):
        diffusion_experiment(0.5, [4, 4], mode="quantum")
    with pytest.raises(ValueError, match=">= 1"):
        diffusion_experiment(0.5, [0, 2], mode="classical")
    with pytest.raises(ValueError, match="mode"):
        diffusion_experiment(0.5, [2], mode="thermal")


@pytest.mark.parametrize("bad", [2.7, 4.0, True, np.float64(4.0)])
def test_experiments_reject_non_integer_counts(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        diffusion_experiment(0.7, [bad, 8], mode="quantum")
    with pytest.raises(ValueError, match="must be an integer"):
        diffusion_experiment(0.7, [1, bad], mode="classical")
    with pytest.raises(ValueError, match="must be an integer"):
        data_box_experiment(0.7, 100, [(bad, 10)], seed=1)
    with pytest.raises(ValueError, match="must be an integer"):
        data_box_experiment(0.7, 100, [(2, bad)], seed=1)
    with pytest.raises(ValueError, match="must be an integer"):
        data_box_experiment(0.7, bad, [(1, 1)], seed=1)


def test_data_box_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        data_box_experiment(0.5, 100, [(20, 6)], seed=1)
    with pytest.raises(ValueError, match="step count k must be an integer >= 1, got 0"):
        data_box_experiment(0.5, 100, [(0, 5)], seed=1)
    with pytest.raises(ValueError, match="no allocations"):
        data_box_experiment(0.5, 100, [], seed=1)


def test_data_box_rows_and_flags():
    report = data_box_experiment(0.5, 40, [(4, 10), (8, 5), (4, 1)], seed=11)
    rows = report["rows"]
    assert [(r["k"], r["n"]) for r in rows] == [(4, 10), (8, 5), (4, 1)]
    for row in rows:
        assert row["abs_error"] == pytest.approx(abs(row["theta_hat"] - 0.5))
        assert math.isfinite(row["loglik"])
    assert "high_variance" in rows[2]["flags"]
    assert "high_variance" not in rows[0]["flags"]
    assert report["config"]["budget"] == 40
    assert report["config"]["seed"] == 11
    assert report["config"]["allocations"] == [[4, 10], [8, 5], [4, 1]]


def test_data_box_replays_exactly():
    a = data_box_experiment(0.5, 40, [(4, 10), (8, 5)], seed=11)
    b = data_box_experiment(0.5, 40, [(4, 10), (8, 5)], seed=11)
    assert a == b
