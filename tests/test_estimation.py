"""Tests for coin-angle estimation, likelihoods and level-set inversion."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect as scipy_bisect
from scipy.special import roots_jacobi

from reluctant_walk import estimation, pmf
from reluctant_walk.estimation import (
    EstimateResult,
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
from reluctant_walk.pmf import CONVENTION_SIGMA, _grid, _return_grid, pmf_full, pmf_point

from oracles import exact_return_scan, level_set_exact_bisection, transition_probability


def gibbs_dataset(theta_star, k):
    """Weighted dataset whose expected log-likelihood peaks exactly at theta_star."""
    table = pmf_full(k, math.cos(theta_star), exact=False)
    support = table.support
    return TrialDataset.from_positions(
        k, support, weights=[table.probability(d) for d in support])


# ---------------------------------------------------------------- datasets

class TestTrialDataset:
    def test_positions_roundtrip_fields(self):
        ds = TrialDataset.from_positions(4, [0, 2, -2, 0], seed=12)
        assert ds.kind == "positions"
        assert ds.k == 4
        assert ds.positions == (0, 2, -2, 0)
        assert ds.seed == 12
        assert ds.trials == 4.0

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
        assert ds.positions == ()
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
    assert log_likelihood(ds, theta) == bernoulli_return_log_likelihood(
        3, 7, 4, math.cos(theta))


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
    got = displacement_likelihood([1, -1, 3], 3, theta)
    want = (math.log(pmf_point(3, 1, lam)) + math.log(pmf_point(3, -1, lam))
            + math.log(pmf_point(3, 3, lam)))
    assert got == pytest.approx(want, rel=1e-13)


def test_displacement_likelihood_rejects_mixed_parity():
    with pytest.raises(ValueError, match="parity-valid"):
        displacement_likelihood([2, 1], 2, 0.5)


def test_bernoulli_return_log_likelihood_closed_value():
    # q = 1 - lam^2 = 0.64 at lam = 0.6 for two steps
    got = bernoulli_return_log_likelihood(6, 10, 2, 0.6)
    assert got == pytest.approx(6 * math.log(0.64) + 4 * math.log(0.36), rel=1e-15)


def test_bernoulli_degenerate_certain_return():
    # lam = 0 makes the two-step return certain
    assert bernoulli_return_log_likelihood(5, 5, 2, 0.0) == 0.0
    assert bernoulli_return_log_likelihood(4, 5, 2, 0.0) == -math.inf


def test_bernoulli_degenerate_never_returns():
    # lam = 1 makes the two-step return impossible
    assert bernoulli_return_log_likelihood(0, 5, 2, 1.0) == 0.0
    assert bernoulli_return_log_likelihood(1, 5, 2, 1.0) == -math.inf


def test_bernoulli_validation():
    with pytest.raises(ValueError, match="even"):
        bernoulli_return_log_likelihood(1, 2, 3, 0.5)
    with pytest.raises(ValueError):
        bernoulli_return_log_likelihood(3, 2, 2, 0.5)


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
def test_curvature_batch_is_the_pointwise_richardson_value(data):
    """The five likelihoods of the curvature come from one batched call,
    equal bit for bit to the scalar calls combined in the same order."""
    x, h = 0.7, estimation._FD_STEP
    ll = lambda t: log_likelihood(data, t)
    second = lambda step: (ll(x + step) - 2.0 * ll(x) + ll(x - step)) / step**2
    assert estimation._curvature(data, x) == (4.0 * second(h / 2) - second(h)) / 3.0


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_mle_rejects_bad_refine_tolerance(bad):
    with pytest.raises(ValueError, match="refine tolerance"):
        mle_estimate(gibbs_dataset(0.5, 4), refine_tolerance=bad)


@pytest.mark.parametrize("positions", [[0, 2, 2, -2, 0], [-2] * 5])
@pytest.mark.parametrize("tolerance", [0.0, 1e-300])
def test_mle_refine_terminates_at_float_resolution(monkeypatch, positions, tolerance):
    """A zero or subnormal tolerance ends at the float resolution of the
    bracket, interior (theta near pi/4) or at the theta = 0 edge alike."""
    calls = []

    def counted(data, theta):
        calls.append(theta)
        if len(calls) > 2000:
            raise RuntimeError("refine did not terminate")
        return log_likelihood(data, theta)

    data = TrialDataset.from_positions(2, positions)
    reference = mle_estimate(data)
    monkeypatch.setattr(estimation, "log_likelihood", counted)
    result = mle_estimate(data, refine_tolerance=tolerance)
    # 601 grid points, 4 for the curvature, and the golden-section probes
    assert len(calls) < 700
    assert abs(result.theta_hat - reference.theta_hat) < 1e-8
    assert result.flags == reference.flags


def _count_likelihood_calls(monkeypatch):
    calls = []
    batched = estimation._log_likelihoods

    def counted(data, lams):
        calls.append(len(lams))
        if len(calls) > 100:
            raise RuntimeError("refine did not terminate")
        return batched(data, lams)

    monkeypatch.setattr(estimation, "_log_likelihoods", counted)
    return calls


@pytest.mark.parametrize("positions", [[0, 2, 2, -2, 0], [-2] * 5])
@pytest.mark.parametrize("tolerance", [0.0, 1e-300])
def test_mle_refine_at_float_resolution_makes_few_likelihood_calls(
        monkeypatch, positions, tolerance):
    """A zero or subnormal tolerance stops at the float resolution of the
    bracket within 12 likelihood calls: the scan, at most ten passes of 64
    thetas and the curvature.  The search stops once the bracket is
    4 eps (|a| + |b|) wide and each pass keeps at most 2 of its 63
    intervals.  An interior bracket is two grid spacings wide with
    a >= one spacing, so |a| + |b| >= 2 (b - a) and it takes at most
    log(1 / (8 eps)) / log(31.5) < 10 passes; at the theta = 0 edge of
    the [-2] * 5 data each pass keeps the first interval,
    log(1 / (4 eps)) / log(63) < 9 passes."""
    data = TrialDataset.from_positions(2, positions)
    reference = mle_estimate(data)
    calls = _count_likelihood_calls(monkeypatch)
    result = mle_estimate(data, refine_tolerance=tolerance)
    assert len(calls) <= 12
    assert calls[0] == 601 and calls[-1] == 5
    assert set(calls[1:-1]) == {64}
    assert abs(result.theta_hat - reference.theta_hat) < 1e-8
    assert result.flags == reference.flags


@pytest.mark.parametrize("k, positions", [(20, [-6, -2, 0, 0, 4, 10, 12]),
                                          (48, [-30, -12, 0, 0, 6, 18, 40])])
def test_default_positions_estimate_makes_at_most_8_likelihood_calls(
        monkeypatch, k, positions):
    """The default 1e-9 refine of one near-optimal run: the scan, five
    passes of 64 thetas (each keeps 2 of 63 intervals, and two grid
    spacings, 5.2e-3, over 31.5^5 is 1.7e-10) and the curvature."""
    calls = _count_likelihood_calls(monkeypatch)
    mle_estimate(TrialDataset.from_positions(k, positions))
    assert len(calls) <= 8
    assert calls[0] == 601 and calls[-1] == 5
    assert set(calls[1:-1]) == {64}


_ZOOM_TARGETS = {
    "flat": lambda m, s: (lambda x: 0.0),
    "steps": lambda m, s: (lambda x: float(math.floor(abs(x - m) * s))),  # ties
    "quadratic": lambda m, s: (lambda x: (x - m) ** 2),  # m may lie off the bracket
    "increasing": lambda m, s: (lambda x: s * x),  # ends at the left edge
    "decreasing": lambda m, s: (lambda x: -s * x),  # ends at the right edge
    "wavy": lambda m, s: (lambda x: math.cos(s * (x - m))),  # several local minima
}


@given(target=st.sampled_from(sorted(_ZOOM_TARGETS)),
       a=st.floats(-10.0, 10.0), width=st.floats(1e-12, 10.0),
       m=st.floats(-12.0, 12.0), s=st.floats(0.5, 1e6),
       tol=st.sampled_from([0.0, 1e-300, 1e-12, 1e-9, 1e-3]),
       points=st.sampled_from([pmf._GRID_BLOCK, pmf._FLOAT_BLOCK]))
# the minimum on a first-pass grid point, which no later (finer, off-centre) grid scores
@example(target="quadratic", a=0.0, width=6.3, m=float(np.linspace(0.0, 6.3, 64)[31]),
         s=1.0, tol=1e-3, points=64)
@settings(max_examples=150, deadline=None)
def test_zoom_min_returns_the_least_value_scored(target, a, width, m, s, tol, points):
    """Every call scores ``points`` points; the result is the smallest
    value scored, ties to the smaller x; a quadratic or monotone target
    ends within tol, or the float resolution of the bracket, of its
    minimizer, or where f rounds to no more than f(minimizer)."""
    f = _ZOOM_TARGETS[target](m, s)
    b = a + width
    assume(a < b)
    scored, sizes = [], []

    def fun(xs):
        sizes.append(len(xs))
        if len(sizes) > 100:
            raise RuntimeError("search did not terminate")
        values = [f(float(x)) for x in xs]
        scored.extend(zip(values, xs.tolist()))
        return np.array(values)

    x, fx = estimation._zoom_min(fun, a, b, tol, points)
    assert set(sizes) == {points}
    assert (fx, x) == min(scored)
    minimizer = {"quadratic": min(max(m, a), b), "increasing": a, "decreasing": b}
    if target in minimizer:
        x_star = minimizer[target]
        resolution = max(tol, 8.0 * estimation._EPS * (abs(a) + abs(b)))
        assert abs(x - x_star) <= resolution or fx <= f(x_star)


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
        bernoulli_return_log_likelihood(36, 100, 2, result.lambda_hat))


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
            assert estimation._bisect(gap, a, b, gap(a), 1e-14) == expected


@given(k=st.sampled_from([8, 24, 48]), i=st.integers(0, 2046), u=st.floats(0.0, 1.0),
       path=st.lists(st.booleans(), min_size=1, max_size=36), on_node=st.booleans())
@settings(max_examples=40, deadline=None)
def test_tree_bisection_matches_the_exact_sequential_root(k, i, u, path, on_node):
    """Bisection on float signs, exact only within the sign band, returns
    scipy's all-exact root bit for bit; ``on_node`` puts the level at the
    exact q of a tree midpoint, where the float gap is a few 1e-16 and
    the exact gap is 0."""
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
    floats = lambda lams: _grid(k, lams, [0], exact=False)[:, 0] - f
    expected = scipy_bisect(gap, a, b, xtol=1e-14)
    assert estimation._bisect(gap, a, b, gap(a), 1e-14, floats) == expected


def test_returns_estimate_makes_few_exact_point_passes(monkeypatch):
    """Float signs decide the bisection away from the root: a k = 24
    estimate makes at most 25 exact one-point evaluations of the return
    probability (98 when every midpoint was exact)."""
    passes = []

    def counting(k, lams, exact):
        passes.append(exact and len(lams) == 1)
        return _return_grid(k, lams, exact)

    monkeypatch.setattr(estimation, "_return_grid", counting)
    for n0 in (80, 314, 236, 102):
        passes.clear()
        mle_estimate(TrialDataset.from_returns(24, n0, 10000))
        assert 0 < sum(passes) <= 25


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
    with pytest.raises(ValueError, match="even"):
        level_set_solve(0.5, 0)
    with pytest.raises(ValueError, match="branch"):
        level_set_solve(0.5, 2, branch=(0.5, 0.2))
    with pytest.raises(ValueError, match="branch"):
        level_set_solve(0.5, 2, branch=(-2.0, 1.0))


@given(k=st.sampled_from([2, 4, 8, 24, 48, 100]),
       level=st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 1.0 - 2.0**-53]),
                       st.lists(st.booleans(), min_size=1, max_size=46)))
@example(k=8, level=0.0)
@example(k=8, level=1.0)
@settings(max_examples=40, deadline=None)
def test_level_set_matches_scipy_bisection_oracle(k, level):
    """The root on [0, 1] is scipy's bisection of the exact gap there, bit
    for bit, also where the level is the exact q of a midpoint on the
    bisection tree (``level`` a path of halvings from [0, 1]), whose float
    gap is a few 1e-16 and exact gap 0."""
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


def test_dataset_positions_keep_plain_ints():
    ds = TrialDataset.from_positions(4, [np.int64(2), 0, np.int32(-4)])
    assert ds.positions == (2, 0, -4)
    assert {type(d) for d in ds.positions} == {int}
    for bad in (2.0, True, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="d must be an integer"):
            TrialDataset.from_positions(4, [0, bad])


def test_dataset_json_rejects_malformed():
    with pytest.raises(ValueError, match="kind"):
        dataset_from_json({"k": 2})
    with pytest.raises(ValueError, match="unknown dataset kind"):
        dataset_from_json({"kind": "tallies", "k": 2})
