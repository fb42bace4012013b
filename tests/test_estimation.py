"""Tests for coin-angle estimation, likelihoods and level-set inversion."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect as scipy_bisect
from scipy.special import roots_jacobi

from reluctant_walk import estimation, pmf, sample_positions
from reluctant_walk.estimation import (
    EstimateResult,
    TrialDataset,
    dataset_from_json,
    dataset_to_json,
    level_set_solve,
    likelihood_curve,
    log_likelihood,
    mle_estimate,
)
from reluctant_walk.pmf import CONVENTION_SIGMA, _return_poly, pmf_full, pmf_point

from oracles import exact_return_scan, level_set_exact_bisection, transition_probability


def gibbs_dataset(theta_star, k):
    """Weighted dataset whose expected log-likelihood peaks exactly at theta_star."""
    table = pmf_full(k, math.cos(theta_star), exact=False)
    support = table.support
    return TrialDataset.from_positions(
        k, support, weights=[table.probability(d) for d in support])


def returns_loglik(n0, n, k, lam):
    """The log-likelihood of n0 returns in n k-step trials at lam itself, not
    at cos(acos(lam)), which need not be lam bit for bit."""
    return float(estimation._log_likelihoods(TrialDataset.from_returns(k, n0, n), [lam])[0])


# ---------------------------------------------------------------- datasets

class TestTrialDataset:
    def test_positions_roundtrip_fields(self):
        ds = TrialDataset.from_positions(4, [0, 2, -2, 0], seed=12)
        assert ds.kind == "positions"
        assert ds.k == 4
        assert ds.tally == ((-2, 1.0), (0, 2.0), (2, 1.0))
        assert ds.seed == 12
        assert ds.trials == 4.0
        # the tally is all a dataset stores of its draws
        assert [f.name for f in dataclasses.fields(ds)] == ["kind", "k", "tally", "n", "n0",
                                                           "seed"]

    def test_counts_aggregates_weights(self):
        ds = TrialDataset.from_positions(2, [0, 2, 0], weights=[0.5, 1.0, 0.25])
        assert ds.counts() == {0: 0.75, 2: 1.0}
        assert ds.trials == pytest.approx(1.75)

    def test_counts_of_unweighted_positions_are_float_tallies(self):
        counts = TrialDataset.from_positions(2, [0, 2, 0, -2, 0, 2]).counts()
        assert list(counts.items()) == [(-2, 1.0), (0, 3.0), (2, 2.0)]
        assert {type(c) for c in counts.values()} == {float}

    @pytest.mark.parametrize("positions, first", [
        ([1, 4, 5, -7], 4), ([1, 3, -5, 2], -5), ([1, 10**30, 2], 10**30),
        ([-3, 2**63, 0], 2**63), ([-2**63, 1, 0], -2**63)])
    def test_error_names_the_first_invalid_displacement(self, positions, first):
        with pytest.raises(ValueError, match=rf"^displacement {first} is outside "
                                             r"the parity-valid support for k=3$"):
            TrialDataset.from_positions(3, positions)

    def test_empty_positions_allowed(self):
        # an empty dataset is constructible; only estimation rejects it
        ds = TrialDataset.from_positions(6, [])
        assert ds.tally == () and ds.counts() == {}
        assert ds.trials == 0.0

    @pytest.mark.parametrize("bad", [0, 2, -2, 5, -5])
    def test_parity_and_range_rejected(self, bad):
        # k=3 admits only odd displacements within [-3, 3]
        with pytest.raises(ValueError, match="parity-valid"):
            TrialDataset.from_positions(3, [3, bad])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            TrialDataset.from_positions(2, [0, 2], weights=[1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TrialDataset.from_positions(2, [0, 2], weights=[1.0, -0.5])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            TrialDataset.from_positions(2, [0, 2], weights=[0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float32("nan"),
                                     True, np.bool_(False), "1", None, 10**400, 1e308],
                             ids=["nan", "inf", "-inf", "float32-nan", "true", "numpy-false",
                                  "str", "none", "huge-int", "infinite-total"])
    def test_meaningless_weights_rejected(self, bad):
        # 1e308 is finite, but two of them have no finite total
        with pytest.raises(ValueError, match="weights must be"):
            TrialDataset.from_positions(2, [0, 2], weights=[bad, 1e308])

    def test_draw_order_is_not_kept(self):
        """A dataset is its tally: the same draws in another order give an
        equal dataset, and every estimate of it bit for bit."""
        draws = sample_positions(pmf_full(12, 0.45), 400, seed=21).counts()
        forward = [d for d, c in draws.items() for _ in range(int(c))]
        shuffled = list(np.random.default_rng(5).permutation(forward))
        a, b = TrialDataset.from_positions(12, forward), TrialDataset.from_positions(12, shuffled)
        assert a == b and hash(a) == hash(b)
        assert mle_estimate(a) == mle_estimate(b)
        assert likelihood_curve(a).loglik.tobytes() == likelihood_curve(b).loglik.tobytes()

    def test_whole_number_weights_are_repeated_draws(self):
        assert (TrialDataset.from_positions(2, [0, 2, 0])
                == TrialDataset.from_positions(2, [0, 2], weights=[2, 1])
                == TrialDataset.from_positions(2, [2, 0, 0, 0], weights=[1.0, 1, 0.5, 0.5]))
        weighted = TrialDataset.from_positions(4, [0, -2, 4, 0], weights=[3, 1, 2, 1])
        repeated = TrialDataset.from_positions(4, [0] * 4 + [-2] + [4] * 2)
        assert weighted == repeated and weighted.trials == 7.0
        assert mle_estimate(weighted) == mle_estimate(repeated)

    def test_zero_weights_stay_in_the_tally(self):
        ds = TrialDataset.from_positions(4, [0, 4, 0], weights=[1, 0, 2])
        assert ds.tally == ((0, 3.0), (4, 0.0))
        assert ds != TrialDataset.from_positions(4, [0, 0, 0])

    def test_returns_fields(self):
        ds = TrialDataset.from_returns(8, n0=3, n=10)
        assert (ds.kind, ds.k, ds.n0, ds.n) == ("returns", 8, 3, 10)
        assert ds.trials == 10.0

    def test_returns_need_even_k(self):
        with pytest.raises(ValueError, match="even"):
            TrialDataset.from_returns(3, n0=1, n=2)

    def test_returns_count_bounds(self):
        with pytest.raises(ValueError):
            TrialDataset.from_returns(2, n0=5, n=4)
        with pytest.raises(ValueError):
            TrialDataset.from_returns(2, n0=0, n=0)

    def test_counts_rejected_for_returns(self):
        with pytest.raises(ValueError):
            TrialDataset.from_returns(2, n0=1, n=2).counts()

    @pytest.mark.parametrize("kind, field, value", [
        ("positions", "n", "abc"), ("positions", "n0", [1]),
        ("returns", "positions", (0, 2)), ("returns", "weights", ("x",))])
    def test_a_field_of_the_other_kind_is_rejected(self, kind, field, value):
        """Positions data take no n or n0, return counts no positions or
        weights: a dataset cannot hold what its estimate and JSON form drop."""
        other = {"n": 1, "n0": 0} if kind == "returns" else {"positions": (0,)}
        with pytest.raises(ValueError, match=rf"^{field} does not apply to {kind} data, "
                                             rf"got {re.escape(repr(value))}$"):
            TrialDataset(kind, 2, **other, **{field: value})

    def test_bad_kind_and_k(self):
        with pytest.raises(ValueError, match="kind"):
            TrialDataset("histogram", 2)
        with pytest.raises(ValueError, match="k must be"):
            TrialDataset.from_positions(0, [])


# ------------------------------------------------------------- likelihoods

def test_log_likelihood_equal_positions_is_n_log_p():
    theta = 0.7
    ds = TrialDataset.from_positions(2, [2, 2, 2])
    expected = 3.0 * math.log(pmf_point(2, 2, math.cos(theta)))
    assert log_likelihood(ds, theta) == pytest.approx(expected, rel=1e-14)


def test_log_likelihood_zero_probability_is_minus_inf():
    # at theta=0 the two-step walker never sits at the origin
    ds = TrialDataset.from_positions(2, [0])
    assert log_likelihood(ds, 0.0) == -math.inf


def test_zero_weight_at_zero_probability_stays_minus_inf():
    # theta=0 puts all mass on d=-4: the weight-1 d=0 and the weight-0 d=4
    # both have p = 0, and 0 * log 0 must not turn the -inf into NaN
    ds = TrialDataset.from_positions(4, [0, 4], weights=[1.0, 0.0])
    assert log_likelihood(ds, 0.0) == -math.inf
    curve = likelihood_curve(ds)
    assert curve.loglik[0] == -math.inf
    assert not np.isnan(curve.loglik).any()


def test_log_likelihood_weighted_matches_manual_sum():
    theta = 1.1
    lam = math.cos(theta)
    ds = TrialDataset.from_positions(4, [0, 2, -4], weights=[2.0, 0.5, 1.5])
    manual = (2.0 * math.log(pmf_point(4, 0, lam))
              + 0.5 * math.log(pmf_point(4, 2, lam))
              + 1.5 * math.log(pmf_point(4, -4, lam)))
    assert log_likelihood(ds, theta) == pytest.approx(manual, rel=1e-13)


def test_log_likelihood_dispatches_returns_to_bernoulli():
    ds = TrialDataset.from_returns(4, n0=3, n=7)
    theta = 0.9
    assert log_likelihood(ds, theta) == returns_loglik(3, 7, 4, math.cos(theta))


@given(theta=st.floats(0.05, math.pi / 2 - 0.05),
       draws=st.lists(st.integers(0, 4), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_log_likelihood_never_positive(theta, draws):
    k = 4
    positions = [2 * j - k for j in draws]
    value = log_likelihood(TrialDataset.from_positions(k, positions), theta)
    assert value <= 0.0


def test_displacement_likelihood_matches_point_sum():
    theta = 0.4
    lam = math.cos(theta)
    got = log_likelihood(TrialDataset.from_positions(3, [1, -1, 3]), theta)
    want = (math.log(pmf_point(3, 1, lam)) + math.log(pmf_point(3, -1, lam))
            + math.log(pmf_point(3, 3, lam)))
    assert got == pytest.approx(want, rel=1e-13)


def test_displacement_likelihood_rejects_mixed_parity():
    with pytest.raises(ValueError, match="parity-valid"):
        TrialDataset.from_positions(2, [2, 1])


def test_bernoulli_return_log_likelihood_closed_value():
    # q = 1 - lam^2 = 0.64 at lam = 0.6 for two steps
    got = returns_loglik(6, 10, 2, 0.6)
    assert got == pytest.approx(6 * math.log(0.64) + 4 * math.log(0.36), rel=1e-15)


def test_bernoulli_degenerate_certain_return():
    # lam = 0 makes the two-step return certain
    assert returns_loglik(5, 5, 2, 0.0) == 0.0
    assert returns_loglik(4, 5, 2, 0.0) == -math.inf


def test_bernoulli_degenerate_never_returns():
    # lam = 1 makes the two-step return impossible
    assert returns_loglik(0, 5, 2, 1.0) == 0.0
    assert returns_loglik(1, 5, 2, 1.0) == -math.inf


def test_bernoulli_validation():
    with pytest.raises(ValueError, match="even"):
        returns_loglik(1, 2, 3, 0.5)
    with pytest.raises(ValueError):
        returns_loglik(3, 2, 2, 0.5)


# ------------------------------------------------------------------ curves

positions_data = st.integers(1, 60).flatmap(lambda k: st.lists(
    st.tuples(st.integers(0, k).map(lambda i: 2 * i - k), st.floats(0.0, 5.0)),
    min_size=1, max_size=12).filter(lambda obs: sum(w for _, w in obs) > 0).map(
    lambda obs: TrialDataset.from_positions(k, *zip(*obs))))
returns_data = st.integers(1, 30).flatmap(lambda k2: st.integers(1, 50).flatmap(
    lambda n: st.builds(lambda n0: TrialDataset.from_returns(2 * k2, n0, n),
                        st.integers(0, n))))


@given(data=st.one_of(positions_data, returns_data), grid_size=st.integers(3, 40))
@settings(max_examples=60, deadline=None)
def test_likelihood_curve_is_the_pointwise_likelihood(data, grid_size):
    curve = likelihood_curve(data, grid_size=grid_size)
    assert not np.isnan(curve.loglik).any()
    pointwise = [log_likelihood(data, float(t)) for t in curve.thetas]
    assert curve.loglik.tolist() == pointwise


def test_likelihood_curve_peaks_at_generating_angle():
    theta_star = 0.5
    curve = likelihood_curve(gibbs_dataset(theta_star, 8), grid_size=301)
    assert curve.k == 8
    assert curve.thetas.shape == (301,)
    assert curve.loglik.shape == (301,)
    spacing = (math.pi / 2) / 300
    assert abs(curve.argmax_theta - theta_star) < spacing
    assert curve.curvature < 0.0


# ------------------------------------------------------------ mle: positions

@pytest.mark.parametrize("theta_star", [0.2, 0.9])
def test_mle_recovers_angle_from_expected_likelihood(theta_star):
    result = mle_estimate(gibbs_dataset(theta_star, 8))
    assert abs(result.theta_hat - theta_star) < 1e-6
    assert result.lambda_hat == pytest.approx(math.cos(result.theta_hat))
    assert result.flags == ()
    assert result.curvature < 0.0
    assert result.positivity > 0.0
    assert result.kind == "positions"
    assert result.convention_sigma == CONVENTION_SIGMA


def test_mle_candidates_sorted():
    result = mle_estimate(gibbs_dataset(0.8, 6))
    assert list(result.candidates) == sorted(result.candidates)


def test_mle_boundary_maximum_flagged():
    # all mass at the extreme site pushes lam toward 1, i.e. theta to 0
    ds = TrialDataset.from_positions(2, [-2, -2, -2, -2, -2])
    result = mle_estimate(ds)
    assert "boundary_maximum" in result.flags
    assert result.theta_hat < 0.01
    assert result.lambda_hat > 0.99


def test_mle_mirrored_maxima_tie_breaks_to_smaller_theta():
    """The pmf is even in lam, so over (0, pi) the likelihood has twin peaks."""
    theta_star = 0.5
    result = mle_estimate(gibbs_dataset(theta_star, 8),
                          theta_range=(0.0, math.pi))
    assert len(result.candidates) >= 2
    assert abs(result.theta_hat - theta_star) < 1e-6
    mirror = math.pi - theta_star
    assert any(abs(c - mirror) < 1e-5 for c in result.candidates)


def test_mle_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        mle_estimate(TrialDataset.from_positions(4, []))


def test_mle_range_validation():
    ds = TrialDataset.from_positions(2, [0])
    with pytest.raises(ValueError, match="range"):
        mle_estimate(ds, theta_range=(1.0, 1.0))
    with pytest.raises(ValueError, match="grid size"):
        mle_estimate(ds, grid_size=2)


@pytest.mark.parametrize("bad", [601.0, np.float64(601), True])
def test_grid_size_must_be_an_integer(bad):
    ds = TrialDataset.from_positions(4, [0, 2, -2])
    with pytest.raises(ValueError, match="grid size"):
        likelihood_curve(ds, grid_size=bad)
    with pytest.raises(ValueError, match="grid size"):
        mle_estimate(ds, grid_size=bad)


def test_grid_size_accepts_numpy_integers():
    ds = TrialDataset.from_positions(4, [0, 2, -2])
    assert mle_estimate(ds, grid_size=np.int64(101)) == mle_estimate(ds, grid_size=101)
    curve = likelihood_curve(ds, grid_size=np.int32(11))
    assert curve.loglik.tolist() == likelihood_curve(ds, grid_size=11).loglik.tolist()


@pytest.mark.parametrize("data", [
    TrialDataset.from_returns(24, 3100, 10000),
    TrialDataset.from_positions(48, [-30, -12, 0, 0, 6, 18, 40], seed=3),
])
def test_curvature_is_the_richardson_value(data):
    """The analytic curvature of an estimate, and of a likelihood curve at
    its grid argmax, agree with central differences of the log-likelihood
    at h = 1e-4, Richardson-extrapolated once, to 1e-6 relative."""
    def richardson(x, h=1e-4):
        ll = lambda t: log_likelihood(data, t)
        second = lambda step: (ll(x + step) - 2.0 * ll(x) + ll(x - step)) / step**2
        return (4.0 * second(h / 2) - second(h)) / 3.0

    result = mle_estimate(data)
    assert result.curvature == pytest.approx(richardson(result.theta_hat), rel=1e-6)
    curve = likelihood_curve(data)
    assert curve.curvature == pytest.approx(richardson(curve.argmax_theta), rel=1e-6)


@pytest.mark.parametrize("k, n0", [(2, 3600), (8, 660), (24, 3100), (24, 9000)])
def test_return_curvature_at_the_root_is_the_fisher_form(k, n0):
    """At the root q(lam) = n0/n the score's q'' term vanishes, so the
    curvature is -n q_theta^2 / (q (1 - q)), with q_theta = -sin(theta) q'
    and q' = -2 lam R_k(lam)^2 in closed form; positivity follows from it."""
    data = TrialDataset.from_returns(k, n0, 10_000)
    result = mle_estimate(data)
    theta = result.theta_hat
    q, dq = pmf._return_grid(k, [math.cos(theta)], order=1)[:, 0]
    q_theta = -math.sin(theta) * dq
    assert result.curvature == pytest.approx(-data.n * q_theta**2 / (q * (1 - q)), rel=1e-9)
    ptilde = math.exp(result.loglik / data.n)
    assert result.positivity == pytest.approx(-ptilde**2 * result.curvature / data.n, rel=1e-15)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_mle_rejects_bad_refine_tolerance(bad):
    with pytest.raises(ValueError, match="refine tolerance"):
        mle_estimate(gibbs_dataset(0.5, 4), refine_tolerance=bad)


@pytest.mark.parametrize("positions", [[0, 2, 2, -2, 0], [-2] * 5])
@pytest.mark.parametrize("tolerance", [0.0, 1e-300])
def test_mle_refine_terminates_at_float_resolution(monkeypatch, positions, tolerance):
    """A zero or subnormal tolerance ends at the float resolution of the
    bracket, interior (theta near pi/4) or at the theta = 0 edge alike:
    the refine scores one theta a pass (``_derivatives``), and the
    estimate is the last theta it scored.  At the edge the score
    -sin(theta) l_lam is 0 at the starting grid point, one pass."""
    thetas = []
    derivatives = estimation._derivatives

    def counted(data, theta):
        thetas.append(theta)
        if len(thetas) > 100:
            raise RuntimeError("refine did not terminate")
        return derivatives(data, theta)

    data = TrialDataset.from_positions(2, positions)
    reference = mle_estimate(data)
    monkeypatch.setattr(estimation, "_derivatives", counted)
    result = mle_estimate(data, refine_tolerance=tolerance)
    assert 1 <= len(thetas) <= (1 if positions == [-2] * 5 else 6)
    assert thetas[-1] == result.theta_hat
    assert abs(result.theta_hat - reference.theta_hat) < 1e-8
    assert result.flags == reference.flags


@pytest.mark.parametrize("k, n, theta_star, seed", [(6, 50, 0.397, 1), (2, 10, 0.9, 2),
                                                     (20, 30, 0.6, 3), (48, 50, 1.1, 4)])
def test_mle_is_within_refine_tolerance_of_the_score_root(k, n, theta_star, seed):
    """On small samples the float log-likelihood is flat to rounding over
    up to ~1e-8, but the refine follows the analytic score: the default
    estimate lies within 1e-9 of the one at float resolution, and there
    the Newton step -l'/l'' is below 1e-12."""
    data = sample_positions(pmf_full(k, math.cos(theta_star)), n, seed=seed)
    root = mle_estimate(data, refine_tolerance=0.0)
    assert abs(mle_estimate(data).theta_hat - root.theta_hat) <= 1e-9
    _, score, curvature = estimation._derivatives(data, root.theta_hat)
    assert abs(score / curvature) < 1e-12


def _count_likelihood_calls(monkeypatch):
    """The (lam count, derivative order) of every probability grid an
    estimate asks for."""
    calls = []
    outcomes = estimation._outcomes

    def counted(data, lams, order=0):
        calls.append((len(lams), order))
        if len(calls) > 100:
            raise RuntimeError("refine did not terminate")
        return outcomes(data, lams, order)

    monkeypatch.setattr(estimation, "_outcomes", counted)
    return calls


@pytest.mark.parametrize("positions", [[0, 2, 2, -2, 0], [-2] * 5])
@pytest.mark.parametrize("tolerance", [0.0, 1e-300])
def test_mle_refine_at_float_resolution_makes_few_likelihood_calls(
        monkeypatch, positions, tolerance):
    """A zero or subnormal tolerance stops at the float resolution of the
    bracket after the 601-point scan, one pass scoring three theta around
    the parabola's vertex and one one-theta derivative pass, which also
    gives the curvature: the second-order start lands on the score's root.
    At the theta = 0 edge there is no parabola, and the score at the grid
    point is 0 at once."""
    data = TrialDataset.from_positions(2, positions)
    reference = mle_estimate(data)
    calls = _count_likelihood_calls(monkeypatch)
    result = mle_estimate(data, refine_tolerance=tolerance)
    assert calls == ([(601, 0), (1, 2)] if positions == [-2] * 5
                     else [(601, 0), (3, 2), (1, 2)])
    assert abs(result.theta_hat - reference.theta_hat) < 1e-8
    assert result.flags == reference.flags


@pytest.mark.parametrize("k, positions", [(20, [-6, -2, 0, 0, 4, 10, 12]),
                                          (48, [-30, -12, 0, 0, 6, 18, 40])])
def test_default_positions_estimate_makes_at_most_8_likelihood_calls(
        monkeypatch, k, positions):
    """The default 1e-9 refine of one near-optimal run: the 601-point scan,
    one pass scoring three theta around the parabola's vertex, and at most
    two one-theta derivative passes, the last of which gives the
    curvature; no other likelihood work."""
    calls = _count_likelihood_calls(monkeypatch)
    mle_estimate(TrialDataset.from_positions(k, positions))
    assert calls[:2] == [(601, 0), (3, 2)]
    assert 1 <= len(calls[2:]) <= 2 and set(calls[2:]) == {(1, 2)}


@pytest.mark.parametrize("k", [20, 48])
def test_positions_fits_take_two_derivative_passes_on_average(monkeypatch, k):
    """Over 20 seeded datasets of 10,000 draws, theta* uniform on [0.25,
    1.3], a default fit makes at most 2.1 order-2 passes on average (2.00
    at both k measured; 3.00 and 3.25 when Newton started at the best grid
    point).  Each estimate lies within the refine tolerance of that
    earlier route: ``_newton_max`` from the best grid point, inside its
    neighbours."""
    passes = []
    for seed in range(20):
        theta_star = float(np.random.default_rng(seed).uniform(0.25, 1.3))
        data = sample_positions(pmf_full(k, math.cos(theta_star)), 10_000, seed=seed)
        with monkeypatch.context() as patch:
            calls = _count_likelihood_calls(patch)
            result = mle_estimate(data)
        passes.append(sum(order == 2 for _, order in calls))
        thetas, ll = estimation._scan(data, (0.0, math.pi / 2), 601)
        i = int(np.argmax(ll))
        start = estimation._newton_max(data, float(thetas[i - 1]), float(thetas[i + 1]),
                                       float(thetas[i]), 1e-9)
        assert abs(result.theta_hat - start[0]) <= 1e-9, seed
    assert np.mean(passes) <= 2.1


def _sextic(theta):
    """l = -(theta - 0.3)^6: its score has a root of multiplicity 5 there."""
    e = theta - 0.3
    return -e ** 6, -6.0 * e ** 5, -30.0 * e ** 4


def _cosine(theta):
    """l = -cos(2 pi theta): concave only on (1/4, 3/4), maximum at 1/2."""
    c, s = math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)
    return -c, 2 * math.pi * s, 4 * math.pi ** 2 * c


def _nan_above_half(theta):
    """l = -(theta - 0.7)^2, but l' and l'' are NaN (a zero probability) above 1/2."""
    if theta > 0.5:
        return -math.inf, math.nan, math.nan
    return -(theta - 0.7) ** 2, -2.0 * (theta - 0.7), -2.0


def _newton_trace(monkeypatch, derivatives, x, tol):
    """``_newton_max`` on [0, 1] from x over a stand-in ``_derivatives``:
    its result and every theta it scored."""
    scored = []

    def traced(data, theta):
        scored.append(theta)
        if len(scored) > 200:
            raise RuntimeError("refine did not terminate")
        return derivatives(theta)

    monkeypatch.setattr(estimation, "_derivatives", traced)
    return estimation._newton_max(None, 0.0, 1.0, x, tol), scored


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_newton_max_bisects_when_newton_steps_shrink_too_slowly(monkeypatch, tol):
    """At a root of multiplicity 5 of the score each Newton step is 4/5 of
    the last, not half the one before it, so the guard bisects instead.
    The rule stops once the next step is at most tol (floored at
    4 eps (|a| + |b|)): a Newton step from theta moves 1/5 of its distance
    to the root, and a bisection step is half a bracket with theta at one
    end, so the estimate lies within 5 tol of the root, not within tol.
    (At 1e-9 it ends 3.97e-9 away after 54 passes.)"""
    (theta, _, curvature), scored = _newton_trace(monkeypatch, _sextic, 0.9, tol)
    bound = 5 * max(tol, 4.0 * np.finfo(float).eps)
    assert abs(theta - 0.3) <= bound
    assert theta == scored[-1] and curvature == _sextic(theta)[2]
    assert all(0.0 <= t <= 1.0 for t in scored)
    newton = [x - (x - 0.3) / 5 for x in scored[:-1]]
    assert any(abs(t - n) > 1e-12 for t, n in zip(scored[1:], newton))


def test_newton_max_bisects_from_a_convex_start(monkeypatch):
    """Where l'' > 0 the Newton step points away from the maximum, so the
    first move is the bracket's midpoint; the iteration still ends at 1/2."""
    (theta, _, _), scored = _newton_trace(monkeypatch, _cosine, 0.1, 1e-9)
    assert _cosine(0.1)[2] > 0 and scored[1] == 0.55
    assert all(0.0 <= t <= 1.0 for t in scored)
    assert abs(theta - 0.5) <= 1e-9


@pytest.mark.parametrize("start", [0.2, 0.9])
def test_newton_max_cuts_off_non_finite_scores(monkeypatch, start):
    """A non-finite score cuts the bracket at that point, on its side of the
    start, and the estimate is the last finite point: here the edge 1/2 of
    the finite region.  A non-finite score at the start ends at once."""
    (theta, ll, curvature), scored = _newton_trace(monkeypatch, _nan_above_half, start, 1e-9)
    assert all(0.0 <= t <= 1.0 for t in scored)
    if start > 0.5:
        assert scored == [start] and theta == start
        assert ll == -math.inf and math.isnan(curvature)
    else:
        assert any(t > 0.5 for t in scored)
        assert 0.5 - 1e-8 <= theta <= 0.5 and (ll, curvature) == _nan_above_half(theta)[::2]


def test_derivatives_are_nan_where_an_observed_probability_is_zero():
    """At theta = 0 (lam = 1) the walker steps to d = -k only, so an
    observed d = k has probability 0 and its score term is not finite."""
    ll, score, curvature = estimation._derivatives(TrialDataset.from_positions(2, [2, 0]), 0.0)
    assert ll == -math.inf and math.isnan(score) and math.isnan(curvature)


def test_best_prefers_a_later_candidate_only_beyond_the_tie_tolerance():
    tie = estimation._TIE_TOL
    first, second = (0.1, -5.0, -1.0), (0.2, -5.0 + 2 * tie, -2.0)
    assert estimation._best([first, second]) == second
    assert estimation._best([first, (0.2, -5.0 + tie / 2, -2.0)]) == first
    assert estimation._best([first, second, (0.3, second[1] + tie / 2, -3.0)]) == second


def test_a_likelihood_of_minus_inf_everywhere_has_no_maximum():
    """At theta in [0, 1e-300], lam = 1 to rounding and the return p(0; 2,
    lam) = 1 - lam^2 is 0: every grid value is -inf, so the curve has no
    argmax and the estimate is NaN, flagged flat."""
    data = TrialDataset.from_positions(2, [0])
    curve = likelihood_curve(data, theta_range=(0.0, 1e-300), grid_size=3)
    assert (curve.loglik == -math.inf).all()
    assert math.isnan(curve.argmax_theta) and math.isnan(curve.curvature)
    result = mle_estimate(data, theta_range=(0.0, 1e-300), grid_size=3)
    assert math.isnan(result.theta_hat) and result.loglik == -math.inf
    assert result.flags == ("flat_likelihood",) and result.candidates == ()


def test_mle_positions_flags_a_flat_likelihood_on_a_narrow_range():
    """Over theta = pi/4 +- 1e-8, around the maximum of this dataset, the
    log-likelihood varies by about |l''| (1e-8)^2 / 2 = 1.6e-15, below the
    1e-14 that flags a flat likelihood; the estimate is still the maximum."""
    data = TrialDataset.from_positions(2, [0, 2, 2, -2, 0])
    result = mle_estimate(data, theta_range=(math.pi / 4 - 1e-8, math.pi / 4 + 1e-8))
    assert result.flags == ("flat_likelihood",)
    assert abs(result.theta_hat - math.pi / 4) < 1e-8
    assert result.positivity > 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_mle_is_the_global_maximum_at_large_k():
    """At k = 2000 the log-likelihood ripples in theta with a period of
    about 3/k, finer than the default scan's spacing of 2.6e-3, so the fit
    can stop on a ripple: on these draws it stops at 0.702865 (loglik
    -707.5), while the likelihood reaches -680.7 at 0.700088."""
    data = sample_positions(pmf_full(2000, math.cos(0.7), exact=False), 100, seed=3)
    assert mle_estimate(data).loglik >= log_likelihood(data, 0.700088) - 1e-6


# ------------------------------------------------------------- mle: returns

def test_mle_returns_inverts_frequency():
    # qhat = 0.36 and q(lam) = 1 - lam^2 give lam = 0.8 on the [0, 1] branch
    result = mle_estimate(TrialDataset.from_returns(2, n0=36, n=100))
    assert result.lambda_hat == pytest.approx(0.8, abs=1e-9)
    assert result.theta_hat == pytest.approx(math.acos(0.8), abs=1e-9)
    assert result.kind == "returns"
    assert result.n == 100.0
    assert result.flags == ()
    assert result.loglik == pytest.approx(
        returns_loglik(36, 100, 2, result.lambda_hat))


def test_mle_returns_all_returned():
    # every trial returning matches lam = 0, theta = pi/2: the edge of the search
    result = mle_estimate(TrialDataset.from_returns(2, n0=50, n=50))
    assert abs(result.lambda_hat) < 1e-8
    assert result.theta_hat == pytest.approx(math.pi / 2, abs=1e-8)
    assert result.flags == ("boundary_maximum",)


def test_mle_returns_none_returned():
    result = mle_estimate(TrialDataset.from_returns(2, n0=0, n=50))
    assert result.lambda_hat == pytest.approx(1.0, abs=1e-8)
    assert result.theta_hat == pytest.approx(0.0, abs=1e-8)
    assert result.flags == ("boundary_maximum",)


@pytest.mark.parametrize("n0", [1, 9_999])
def test_mle_returns_interior_count_is_unflagged(n0):
    # only n0 = 0 and n0 = n put the root at an end of the search
    result = mle_estimate(TrialDataset.from_returns(8, n0, 10_000))
    assert 0.0 < result.theta_hat < math.pi / 2 and result.flags == ()


def test_mle_returns_keeps_only_roots_in_theta_range():
    # q(0; 8, lam) = 0.3 has one root on [0, 1], at theta 1.289
    data = TrialDataset.from_returns(8, n0=3000, n=10_000)
    full = mle_estimate(data)
    assert full.theta_hat == pytest.approx(1.2893297073281542, abs=1e-12)
    assert mle_estimate(data, theta_range=(0.0, math.acos(0.0))) == full
    assert mle_estimate(data, theta_range=(1.2, 1.4)) == full
    outside = mle_estimate(data, theta_range=(0.1, 0.2))
    assert math.isnan(outside.theta_hat) and math.isnan(outside.lambda_hat)
    assert outside.candidates == () and outside.flags == ("flat_likelihood",)


@pytest.mark.parametrize("theta_range", [(0.2, 0.1), (0.3, 0.3), (math.nan, 1.0),
                                         (0.0, math.inf), (-0.1, 1.0), (0.0, 1.6)])
def test_mle_returns_rejects_invalid_theta_range(theta_range):
    with pytest.raises(ValueError, match="theta range"):
        mle_estimate(TrialDataset.from_returns(8, n0=3000, n=10_000), theta_range=theta_range)


# --------------------------------------------------------------- level sets

def test_level_set_two_step_example():
    roots = level_set_solve(0.64, 2)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.6, abs=1e-9)
    assert roots[1] == pytest.approx(0.6, abs=1e-9)


def test_level_set_roots_sorted_and_deduplicated():
    roots = level_set_solve(0.5, 8)
    assert roots == sorted(roots)
    assert all(b - a > 1e-9 for a, b in zip(roots, roots[1:]))


def test_level_set_tangential_maximum():
    # the four-step return probability touches 1 only at lam = 0
    roots = level_set_solve(1.0, 4)
    assert roots
    assert min(abs(r) for r in roots) < 1e-8


def test_level_set_endpoint_root():
    roots = level_set_solve(0.0, 2, branch=(0.0, 1.0))
    assert any(abs(r - 1.0) < 1e-8 for r in roots)


def test_level_set_single_crossing_gives_one_root():
    """A level crossed once on (0, 1) gives one root there and its mirror on
    (-1, 1), not a second root a few 1e-9 away."""
    (root,) = level_set_solve(0.066, 8, branch=(0.0, 1.0))
    assert pmf_point(8, 0, root) == pytest.approx(0.066, abs=1e-15)
    assert level_set_solve(0.066, 8) == [-root, root]
    result = mle_estimate(TrialDataset.from_returns(8, n0=660, n=10000))
    assert result.candidates == (pytest.approx(math.acos(root), abs=1e-12),)


@pytest.mark.parametrize("f, k", [(0.64, 2), (0.066, 8), (0.3, 8), (0.05, 24)])
def test_level_set_bisection_matches_scipy(f, k):
    """Each sign change is bisected with scipy.optimize.bisect's stopping
    rule, so the roots are the ones scipy finds, bit for bit."""
    gap = lambda lam: pmf_point(k, 0, lam) - f
    grid = np.linspace(-1.0, 1.0, 64)
    for a, b in zip(grid, grid[1:]):
        a, b = float(a), float(b)
        if gap(a) * gap(b) < 0:
            expected = scipy_bisect(gap, a, b, xtol=1e-14)
            assert estimation._bisect(gap, a, b, gap(a)) == expected


@given(k=st.sampled_from([8, 24, 48]), i=st.integers(0, 2046), u=st.floats(0.0, 1.0),
       path=st.lists(st.booleans(), min_size=1, max_size=36), on_node=st.booleans())
@settings(max_examples=40, deadline=None)
def test_tree_bisection_matches_the_exact_sequential_root(k, i, u, path, on_node):
    """The bisection returns scipy's root of the exact gap bit for bit on a
    cell of a 2048-point scan; ``on_node`` puts the level at the exact q of
    a midpoint on the cell's bisection tree, where the exact gap is 0."""
    xs = np.linspace(-1.0, 1.0, 2048)
    a, b = float(xs[i]), float(xs[i + 1])
    if on_node:
        lo, step = a, b - a
        for right in path:
            step *= 0.5
            node = lo + step
            if right:
                lo = node
        f = pmf_point(k, 0, node)
    else:
        f = pmf_point(k, 0, a) + u * (pmf_point(k, 0, b) - pmf_point(k, 0, a))
    gap = lambda lam: pmf_point(k, 0, lam) - f
    assume(gap(a) * gap(b) < 0)
    expected = scipy_bisect(gap, a, b, xtol=1e-14)
    assert estimation._bisect(gap, a, b, gap(a)) == expected


def test_returns_estimate_scores_few_points_inside_the_certified_bracket(monkeypatch):
    """A k = 24 estimate scores q at most 14 times before the bisection (the
    Newton passes and the certifying points) and at most twice inside the
    bracket during it, where the plain bisection scored one point for each
    of up to 47 halvings; the root stays scipy's bisection of the exact
    gap, and one build of the coefficients serves all six solves and the
    root's derivatives (a cache miss for each of Q, Q' and Q'')."""
    points = {}

    def counting(c, lam):
        if c is _return_poly(24):
            points[phase].append(lam)
        return pmf._return_value(c, lam)

    def bisect(*args):
        nonlocal phase
        phase = "inside"
        return bisection(*args)

    bisection = estimation._bisect
    monkeypatch.setattr(estimation, "_return_value", counting)
    monkeypatch.setattr(estimation, "_bisect", bisect)
    _return_poly.cache_clear()
    for n0 in (80, 314, 236, 102, 1, 9_999):
        phase, points = "before", {"before": [], "inside": []}
        result = mle_estimate(TrialDataset.from_returns(24, n0, 10000))
        assert 0 < len(points["before"]) <= 14 and len(points["inside"]) <= 2, (n0, points)
        (root,) = level_set_exact_bisection(n0 / 10000, 24, (0.0, 1.0))
        assert result.theta_hat == math.acos(root)
    assert _return_poly.cache_info().misses == 3


@pytest.mark.parametrize("zero", [1, 101, 401, 499])
def test_level_at_a_flat_inflection_solves_in_few_points(monkeypatch, zero):
    """At q(r) for a zero r of R_1000, where q - f has a triple root and
    plain Newton steps shrink by 2/3 each (84-111 calls of
    ``_return_value`` before the multiplicity step), the solve makes at
    most 40 such calls, and the root is scipy's bisection of the exact gap."""
    nodes, _ = roots_jacobi(499, 0, 1)              # R_1000(lam) = P_499^(0,1)(2 lam^2 - 1)
    r = math.sqrt((1.0 + np.sort(nodes)[zero - 1]) / 2.0)
    f = float(pmf._return_grid(1000, [r])[0])
    calls = []

    def counting(c, lam):
        calls.append(lam)
        return pmf._return_value(c, lam)

    monkeypatch.setattr(estimation, "_return_value", counting)
    roots = level_set_solve(f, 1000, (0.0, 1.0))
    assert len(calls) <= 40
    assert roots == level_set_exact_bisection(f, 1000, (0.0, 1.0))


@pytest.mark.parametrize("k", [4, 8, 24, 100, 1000])
@pytest.mark.parametrize("f", [1 - 2**-53, 1 - 2**-40], ids=["1-2^-53", "1-2^-40"])
def test_level_near_one_solves_in_few_points(monkeypatch, f, k):
    """Near lam = 0, q is about 1 - (k/2)^2 lam^2, so a level just below 1
    has its root near sqrt(1 - f) / (k/2), far left of the large-k start
    (47-61 calls of ``_return_value`` from there, as Newton halves the
    distance at each pass); the solve makes at most 12 such calls, and the
    root is scipy's bisection of the exact gap."""
    calls = []

    def counting(c, lam):
        calls.append(lam)
        return pmf._return_value(c, lam)

    monkeypatch.setattr(estimation, "_return_value", counting)
    roots = level_set_solve(f, k, (0.0, 1.0))
    assert len(calls) <= 12
    assert roots == level_set_exact_bisection(f, k, (0.0, 1.0))


def test_level_set_unattained_level_is_empty():
    # on [0.4, 1] the two-step return probability never exceeds 0.84
    assert level_set_solve(0.9, 2, branch=(0.4, 1.0)) == []


@given(f=st.floats(0.0, 1.0), k=st.sampled_from([2, 4, 8]))
@example(f=5e-324, k=2)      # the bisection's gap products underflow to 0
@settings(max_examples=30, deadline=None)
def test_level_set_roots_satisfy_residual_bound(f, k):
    for root in level_set_solve(f, k):
        assert abs(pmf_point(k, 0, root) - f) <= 1e-10


def test_level_set_validation():
    with pytest.raises(ValueError, match="level"):
        level_set_solve(1.5, 2)
    with pytest.raises(ValueError, match="level"):
        level_set_solve(-0.1, 2)
    with pytest.raises(ValueError, match="even"):
        level_set_solve(0.5, 3)
    with pytest.raises(ValueError, match="step count k must be an integer >= 2, got 0"):
        level_set_solve(0.5, 0)
    with pytest.raises(ValueError, match="branch"):
        level_set_solve(0.5, 2, branch=(0.5, 0.2))
    with pytest.raises(ValueError, match="branch"):
        level_set_solve(0.5, 2, branch=(-2.0, 1.0))


@pytest.mark.parametrize("k", [24.0, True, 2.5])
@pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
def test_level_set_rejects_a_non_integer_k(f, k):
    # the levels 0 and 1 need no bisection, but k is checked before them
    with pytest.raises(ValueError, match="step count"):
        level_set_solve(f, k)


def test_level_set_accepts_a_numpy_integer_k():
    for f in (0.0, 0.3, 1.0):
        assert level_set_solve(f, np.int64(24)) == level_set_solve(f, 24)


# q at the 101st of the 499 zeros of R_1000 (scipy's Gauss-Jacobi nodes), where q' = 0
_FLAT_LEVEL_1000 = pmf_point(1000, 0, math.sqrt((roots_jacobi(499, 0.0, 1.0)[0][100] + 1.0) / 2.0))


@given(k=st.sampled_from([2, 4, 8, 24, 48, 100]),
       level=st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 1.0 - 2.0**-53]),
                       st.lists(st.booleans(), min_size=1, max_size=46)))
@example(k=8, level=0.0)
@example(k=8, level=1.0)
@example(k=200, level=0.3)
@example(k=200, level=5e-324)
@example(k=200, level=[True, False] * 20)
@example(k=1000, level=0.6180339887498949)
@example(k=1000, level=5e-324)
@example(k=1000, level=[True, False] * 20)
@example(k=1000, level=_FLAT_LEVEL_1000)
@settings(max_examples=40, deadline=None)
def test_level_set_matches_scipy_bisection_oracle(k, level):
    """The root on [0, 1] is scipy's bisection of the exact gap there, bit
    for bit, also where the level is the exact q of a midpoint on the
    bisection tree (``level`` a path of halvings from [0, 1]), whose float
    gap is a few 1e-16 and exact gap 0, and at k = 1000 where it is q at a
    zero of R_k, a flat inflection (``_FLAT_LEVEL_1000``)."""
    if isinstance(level, list):
        lo, step = 0.0, 1.0
        for right in level:
            step *= 0.5
            node = lo + step
            if right:
                lo = node
        level = pmf_point(k, 0, node)
    gap = lambda lam: pmf_point(k, 0, lam) - level
    assert level_set_solve(level, k, (0.0, 1.0)) == [scipy_bisect(gap, 0.0, 1.0, xtol=1e-14)]


even_k = st.integers(1, 24).map(lambda h: 2 * h)
branches = st.sampled_from([(-1.0, 1.0), (0.0, 1.0)])


def _level(k, branch, resolution, level):
    """A float level as is; an int picks the scan point whose exact q is the level."""
    if isinstance(level, int):
        return float(exact_return_scan(k, *branch, resolution)[1][level % resolution])
    return level


@given(k=even_k, branch=branches,
       level=st.one_of(st.floats(0.0, 1.0), st.integers(0, 511), st.sampled_from([0.0, 1.0])))
@settings(max_examples=40, deadline=None)
def test_level_set_matches_exact_scan_oracle(k, branch, level):
    """The roots on the branch are scipy's bisection of the exact gap on
    [0, 1] and its mirror, bit for bit, also where the level is the exact
    q of a point of an even 512-point scan of the branch."""
    f = _level(k, branch, 512, level)
    assert level_set_solve(f, k, branch) == level_set_exact_bisection(f, k, branch)


@pytest.mark.parametrize("branch", [(-1.0, 1.0), (0.0, 1.0)])
@pytest.mark.parametrize("k", [8, 24])
def test_level_set_matches_exact_scan_oracle_at_default_resolution(k, branch):
    # the int levels are the exact q at points of a 2048-point scan of the branch
    for level in (0.0, 0.3, 0.066, 1.0, 0, 700, 1023, 1024, 2047):
        f = _level(k, branch, 2048, level)
        assert level_set_solve(f, k, branch) == level_set_exact_bisection(f, k, branch)


@pytest.mark.parametrize("kwargs", [
    {"residual_tol": math.nan},
    {"residual_tol": math.inf},
    {"residual_tol": -1e-10},
    {"resolution": 2048.0},
    {"resolution": True},
    {"resolution": np.float64(256)},
])
def test_level_set_rejects_bad_tolerance_and_resolution(kwargs):
    # the one bisection on [0, 1] takes no scan resolution and no branch-end
    # tolerance: any value of either is an unexpected keyword
    with pytest.raises(TypeError, match="unexpected keyword"):
        level_set_solve(1.0, 4, **kwargs)


def test_level_set_top_level_is_the_root_zero():
    # q(0) = 1 exactly and q < 1 elsewhere, so lam = 0 is the one root, a
    # positive zero (the CLI would write -0 for a negative one)
    for k, branch in [(100, (-1.0, 1.0)), (58, (-0.5, 1.0)), (8, (-1.0, 0.0))]:
        (root,) = level_set_solve(1.0, k, branch)
        assert root == 0.0 and math.copysign(1.0, root) == 1.0


def _mirror_pair(roots, f, k):
    """The two roots of a level on a branch around 0: r0 = -r1 < 0, each
    with |q(r) - f| <= 1e-15."""
    r0, r1 = roots
    assert r0 < 0.0 < r1 and r0 == -r1
    assert all(abs(pmf_point(k, 0, r) - f) <= 1e-15 for r in roots)
    return r0, r1


@pytest.mark.parametrize("branch", [(-0.5, 1.0), (-1.0, 1.0)])
def test_level_set_finds_both_roots_in_the_scan_cell_around_zero(branch):
    # both roots, +-6.32e-5, lie within 1e-4 of the top q(0) = 1
    f = 1.0 - 1e-5
    r0, r1 = _mirror_pair(level_set_solve(f, 100, branch), f, 100)
    assert r1 == pytest.approx(math.sqrt(1e-5) / 50, rel=1e-3)    # q = 1 - (k lam / 2)^2 + ...


@pytest.mark.parametrize("k", [8, 24, 100])
def test_level_set_at_a_flat_inflection(k):
    """Levels within 1e-13 of q(lam_j), lam_j a zero of R_k, where q' = 0:
    one root on (0, 1) and a mirror pair on (-1, 1).  The zeros of
    R_k(lam) = P_{k/2-1}^(0,1)(2 lam^2 - 1) are scipy's Gauss-Jacobi nodes."""
    nodes = roots_jacobi(k // 2 - 1, 0.0, 1.0)[0]
    for lam in np.sqrt((nodes + 1.0) / 2.0).tolist():
        for offset in (-1e-13, 0.0, 1e-13):
            f = pmf_point(k, 0, lam) + offset
            (root,) = level_set_solve(f, k, (0.0, 1.0))
            assert abs(pmf_point(k, 0, root) - f) <= 1e-15
            _mirror_pair(level_set_solve(f, k), f, k)


def test_level_set_branch_end_near_the_level_is_no_second_root():
    # the branch starts at a flat inflection, 5e-11 above the level, which q
    # crosses 1.3e-4 further in: the end is near the level but is not a root
    lam = math.sqrt((roots_jacobi(3, 0.0, 1.0)[0][0] + 1.0) / 2.0)
    f = pmf_point(8, 0, lam) - 5e-11
    (root,) = level_set_solve(f, 8, (lam, lam + 0.01))
    assert root > lam + 1e-4 and pmf_point(8, 0, root) == f


@given(f=st.floats(0.0, 1.0), k=st.sampled_from([2, 4, 8, 24, 100]))
@example(f=1.0, k=100)
@example(f=0.0, k=24)
@example(f=5e-324, k=2)      # gaps whose product underflows to 0 still change sign
@settings(max_examples=40, deadline=None)
def test_level_set_has_one_root_a_side(f, k):
    """q falls strictly from 1 to 0 on [0, 1] and is even: every level has
    one root r on [0, 1], and on (-1, 1) the exact mirror pair -r, r
    unless it is q(0) = 1."""
    (r,) = level_set_solve(f, k, (0.0, 1.0))
    assert level_set_solve(f, k) == ([r] if f == 1.0 else [-r, r])


# -------------------------------------------------------------- transitions

def test_transition_probability_translation_invariance():
    theta = 0.8
    assert transition_probability(5, 7, 2, theta) == pytest.approx(
        pmf_point(2, 2, math.cos(theta)), rel=1e-14)
    assert transition_probability(-4, -4, 2, theta) == pytest.approx(
        pmf_point(2, 0, math.cos(theta)), rel=1e-14)


def test_transition_probability_parity_invalid_is_zero():
    # exact zeros on the algebraic routes; quadrature noise on the channel
    assert transition_probability(3, 4, 2, 0.7, via="analytic") == 0.0
    assert transition_probability(3, 4, 2, 0.7, via="simulation") == 0.0
    assert abs(transition_probability(3, 4, 2, 0.7, via="channel")) < 1e-12


def test_transition_probability_routes_agree():
    theta = 0.9
    want = transition_probability(-1, 1, 4, theta)
    assert transition_probability(-1, 1, 4, theta, via="simulation") == pytest.approx(
        want, abs=1e-12)
    assert transition_probability(-1, 1, 4, theta, via="channel") == pytest.approx(
        want, abs=1e-9)


def test_transition_probability_unknown_route():
    with pytest.raises(ValueError, match="via"):
        transition_probability(0, 2, 2, 0.5, via="bogus")


# ----------------------------------------------------------- serialization

def test_estimate_result_to_json_fields():
    result = mle_estimate(TrialDataset.from_returns(2, n0=36, n=100, seed=4))
    obj = result.to_json()
    assert set(obj) == {"theta_hat", "lambda_hat", "loglik", "curvature",
                        "positivity", "candidates", "flags", "kind", "k", "n",
                        "seed", "convention_sigma"}
    assert obj["seed"] == 4
    assert obj["convention_sigma"] == CONVENTION_SIGMA
    assert isinstance(obj["candidates"], list)
    json.dumps(obj)


def test_estimate_result_to_json_maps_nonfinite_to_none():
    result = EstimateResult(theta_hat=0.5, lambda_hat=math.cos(0.5),
                            loglik=-math.inf, curvature=math.nan,
                            positivity=math.nan, candidates=(0.5,),
                            flags=("flat_likelihood",), kind="positions",
                            k=2, n=3.0)
    obj = result.to_json()
    assert obj["loglik"] is None
    assert obj["curvature"] is None
    assert obj["positivity"] is None
    assert obj["flags"] == ["flat_likelihood"]


def test_dataset_json_roundtrip_positions():
    ds = TrialDataset.from_positions(4, [0, 2, -2], weights=[1.0, 2.0, 0.5],
                                     seed=99)
    again = dataset_from_json(json.dumps(dataset_to_json(ds)))
    assert again == ds


def test_dataset_json_writes_the_tally():
    """``positions`` holds the distinct displacements and ``weights`` their
    counts, one entry per displacement whatever the number of draws."""
    ds = TrialDataset.from_positions(4, [0, 2, 0, -4, 0], seed=3)
    assert dataset_to_json(ds) == {"kind": "positions", "k": 4, "positions": [-4, 0, 2],
                                   "weights": [1.0, 3.0, 1.0], "seed": 3}
    assert dataset_from_json(json.dumps(dataset_to_json(ds))) == ds
    empty = TrialDataset.from_positions(2, [])
    assert dataset_from_json(dataset_to_json(empty)) == empty


@pytest.mark.parametrize("obj", [
    {"kind": "positions", "k": 4, "positions": [0, 2, 0, -4, 0]},
    {"kind": "positions", "k": 4, "positions": [0, 2, 0, -4], "weights": [1, 1, 2, 1]},
    {"kind": "positions", "k": 4, "positions": [2, 0, -4], "weights": [1.0, 3.0, 1.0]},
], ids=["draws", "weighted-draws", "tally"])
def test_old_dataset_json_forms_load(obj):
    """Files written as one entry per draw, with or without weights, still
    load, to the dataset of their tally."""
    ds = dataset_from_json(json.dumps(obj))
    assert ds == TrialDataset.from_positions(4, [0, 0, 0, 2, -4])
    assert ds.counts() == {-4: 1.0, 0: 3.0, 2: 1.0}


def test_dataset_json_roundtrip_returns():
    ds = TrialDataset.from_returns(6, n0=2, n=9)
    assert dataset_from_json(dataset_to_json(ds)) == ds


@pytest.mark.parametrize("make", [
    lambda k: TrialDataset.from_returns(k, 1, 3),
    lambda k: TrialDataset.from_positions(k, [0, 2, -4], seed=5),
])
def test_dataset_numpy_integer_k_round_trips(make):
    ds = make(np.int64(4))
    assert type(ds.k) is int
    assert dataset_from_json(json.dumps(dataset_to_json(ds))) == make(4)


@pytest.mark.parametrize("obj", [
    {"kind": "returns", "k": 2.9, "n": 100.5, "n0": 36},
    {"kind": "returns", "k": 2, "n": 100.5, "n0": 36},
    {"kind": "returns", "k": 2, "n": 100, "n0": 36.0},
    {"kind": "returns", "k": 2, "n": True, "n0": 1},
    {"kind": "positions", "k": True, "positions": [1, -1]},
    {"kind": "positions", "k": 3.5, "positions": [1, 3]},
    {"kind": "positions", "k": "3", "positions": [1, 3]},
    {"kind": "positions", "k": 3, "positions": [1, 3.5]},
    {"kind": "positions", "k": 3, "positions": [1, True]},
])
def test_dataset_json_rejects_non_integer_fields(obj):
    with pytest.raises(ValueError):
        dataset_from_json(json.dumps(obj))


def test_dataset_integer_fields_are_checked_not_truncated():
    with pytest.raises(ValueError, match="step count k"):
        TrialDataset.from_positions(2.0, [0])
    with pytest.raises(ValueError, match="n0 must be an integer"):
        TrialDataset.from_returns(2, n0=1.0, n=2)
    with pytest.raises(ValueError, match="d must be an integer"):
        TrialDataset.from_positions(2, [np.float64(2.0)])
    ds = TrialDataset.from_returns(4, n0=np.int64(1), n=np.int64(3))
    assert (type(ds.n), type(ds.n0)) == (int, int)
    assert dataset_from_json(json.dumps(dataset_to_json(ds))) == ds


@pytest.mark.parametrize("seed", ["abc", [1], -1, 2.0, True])
def test_dataset_seed_is_none_or_a_nonnegative_int(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        TrialDataset.from_returns(2, n0=1, n=2, seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        dataset_from_json({"kind": "positions", "k": 2, "positions": [0], "seed": seed})
    ds = TrialDataset.from_positions(2, [0], seed=np.uint64(2**63))
    assert ds.seed == 2**63 and type(ds.seed) is int


def test_dataset_positions_keep_plain_ints():
    ds = TrialDataset.from_positions(4, [np.int64(2), 0, np.int32(-4)])
    assert ds.counts() == {-4: 1.0, 0: 1.0, 2: 1.0}
    assert {type(d) for d in ds.counts()} == {int}
    for bad in (2.0, True, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="d must be an integer"):
            TrialDataset.from_positions(4, [0, bad])


def test_dataset_json_rejects_malformed():
    with pytest.raises(ValueError, match="kind"):
        dataset_from_json({"k": 2})
    with pytest.raises(ValueError, match="unknown dataset kind"):
        dataset_from_json({"kind": "tallies", "k": 2})


@pytest.mark.parametrize("obj", [
    {"kind": "returns", "k": 2},
    {"kind": "positions", "k": 2, "positions": 5},
    {"kind": "positions", "k": 2, "positions": [0, 2], "weights": 5},
])
def test_dataset_json_raises_value_error_for_missing_or_mistyped_fields(obj):
    with pytest.raises(ValueError, match=f"malformed {obj['kind']} dataset"):
        dataset_from_json(obj)
