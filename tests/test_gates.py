"""The input gates in ``chebyshev`` (finite angle, |lam| <= 1, unit norm,
a level in [0, 1], a finite tolerance >= 0, and integer counts with their
lower bounds) accept and reject the same values at every call site that
states their rule through them."""

import argparse
import math
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reluctant_walk.chebyshev import _finite, _integer, _unit_interval, _unit_lam, _unit_total
from reluctant_walk.cli import _generate_dataset, _parser, cmd_simulate, cmd_validate
from reluctant_walk.estimation import (TrialDataset, level_set_solve, likelihood_curve,
                                       mle_estimate)
from reluctant_walk import estimation as estimation_module, pmf as pmf_module
from reluctant_walk.pmf import Pmf, _grid, _return_grid, pmf_full, pmf_point
from reluctant_walk.sampling import (data_box_experiment, diffusion_experiment, sample_positions,
                                     sample_return_trials, trial_generator)
from reluctant_walk.walk import (CoinParameter, WalkState, channel_position_pmf, evolve,
                                 kraus_kernels)

from oracles import chebyshev_identity_suite, kernel_power


def _numbers(floats):
    """``floats`` as Python and numpy floats, NaN and the infinities, bools,
    and small Python and numpy ints."""
    return st.one_of(floats, floats.map(np.float64),
                     st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
                     st.booleans(), st.integers(-3, 3), st.integers(-3, 3).map(np.int64))


def _shown(value):
    """A value as the gates show it: an int that no float can hold by its
    bit length, anything else as ``str``."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return str(value)


def _error(call):
    """The message of the ValueError ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(_numbers(st.floats(allow_nan=False, allow_infinity=False)))
@example(True)
@example(np.False_)
@example(10**400)
@example(-10**400)
def test_every_angle_site_applies_the_finite_gate(theta):
    sites = {
        "theta": [lambda: CoinParameter(theta),
                  lambda: diffusion_experiment(theta, [1], "classical")],
        "theta_star": [lambda: data_box_experiment(theta, 1, [(1, 1)], seed=0, grid_size=3),
                       lambda: _generate_dataset(argparse.Namespace(
                           theta_star=theta, k=2, n=1, method="positions", seed=0))],
    }
    for name, calls in sites.items():
        want = _error(lambda: _finite(theta, name))
        assert not (want is None and isinstance(theta, (bool, np.bool_)))  # no angle
        assert want is None or want == f"{name} must be finite, got {_shown(theta)}"
        assert [_error(call) for call in calls] == [want] * len(calls), (name, theta)


def test_gates_name_an_int_beyond_the_float_range_by_its_bit_length():
    """An int of 5001 digits passes the int-to-str limit (4300 digits), so
    every gate names it by its 16,610 bits, at its call sites too."""
    big = 10**5000
    cases = {
        "theta must be finite, got an int of 16610 bits": [
            lambda: _finite(big, "theta"), lambda: CoinParameter(big)],
        "level must lie in [0, 1], got an int of 16610 bits": [
            lambda: _unit_interval(big, "level"), lambda: level_set_solve(big, 2)],
        "k must be an integer >= 1, got a negative int of 16610 bits": [
            lambda: _integer(-big, "k", 1)],
        "step count k must be an integer >= 1, got a negative int of 16610 bits": [
            lambda: pmf_full(-big, 0.5)],
        "lam must be finite with |lam| <= 1, got a negative int of 16610 bits": [
            lambda: _unit_lam(-big), lambda: pmf_full(1, -big)],
    }
    for message, calls in cases.items():
        assert [_error(call) for call in calls] == [message] * len(calls)


@pytest.mark.parametrize("k", [sys.maxsize + 1, 2**64, 10**5000],
                         ids=["maxsize+1", "2**64", "10**5000"])
def test_a_step_count_past_sys_maxsize_is_rejected_by_name(k):
    """``islice`` counts no further than sys.maxsize steps, so every entry
    point of the Y rows rejects a step count past it, before any row is
    built, with a message that names the step count.  Past a missing gate
    k = sys.maxsize + 1 would run its rows for ever, so building one fails
    the test here; sys.maxsize itself passes the gate, and no test calls
    it.  ``_return_grid`` is left out, as past a missing gate it would build
    a list of k / 2 coefficients before any check."""
    want = f"step count k must be at most sys.maxsize = {sys.maxsize}, got {_shown(k)}"
    calls = [lambda: pmf_full(k, 0.5), lambda: pmf_point(k, 0, 0.5), lambda: _grid(k, [0.5], [0]),
             lambda: _generate_dataset(argparse.Namespace(
                 theta_star=0.5, k=k, n=1, method="positions", seed=0))]
    with mock.patch.object(pmf_module, "_iter_y_rows", side_effect=AssertionError("rows built")):
        assert [_error(call) for call in calls] == [want] * len(calls)


def _simulate_args(k):
    args = _parser(None).parse_args(["simulate", "--k", "1", "--theta", "0.9"])
    args.k = k
    return args


# the walk and sampling sites of a step count, each called with k
_WALK_SITES = {
    "WalkState": lambda k: WalkState(k, 0, [[1.0], [0.0]]),
    "evolve": lambda k: evolve(WalkState.origin(), CoinParameter(0.9), k),
    "kraus_kernels": lambda k: kraus_kernels(0.3, CoinParameter(0.9), k),
    "channel_position_pmf": lambda k: channel_position_pmf(WalkState.origin(),
                                                           CoinParameter(0.9), k),
    "cmd_simulate": lambda k: cmd_simulate(_simulate_args(k)),
    "diffusion_experiment": lambda k: diffusion_experiment(0.5, [k], "classical"),
    "data_box_experiment": lambda k: data_box_experiment(0.5, k, [(k, 1)], seed=0),
}


@pytest.mark.parametrize("site", list(_WALK_SITES))
def test_a_step_count_past_sys_maxsize_is_rejected_at_every_walk_site(site):
    """The walk, its channel, ``simulate`` and the two experiments take the
    pmf's step-count rule (``_step_count``): sys.maxsize + 1 is rejected by
    the sys.maxsize message, not accepted, not rejected as walk sites
    that leave int64, and not run as a loop of about 9.2e18 steps."""
    k = sys.maxsize + 1
    want = f"step count k must be at most sys.maxsize = {sys.maxsize}, got {_shown(k)}"
    assert _error(lambda: _WALK_SITES[site](k)) == want


@pytest.mark.parametrize("k", [sys.maxsize + 1, 2**64, 10**5000],
                         ids=["maxsize+1", "2**64", "10**5000"])
def test_a_step_count_past_sys_maxsize_is_rejected_before_the_return_poly(k):
    """The return-probability sites take the same step-count rule: the
    level set, the return grid, a return-count dataset and the bernoulli
    generator reject a k past sys.maxsize by name before any coefficient
    is built.  Past a missing gate the build of k / 2 coefficients would
    not finish, so building one fails the test here."""
    want = f"step count k must be at most sys.maxsize = {sys.maxsize}, got {_shown(k)}"
    calls = [lambda: level_set_solve(0.5, k), lambda: level_set_solve(1.0, k),
             lambda: _return_grid(k, [0.5]), lambda: TrialDataset.from_returns(k, 1, 2),
             lambda: _generate_dataset(argparse.Namespace(
                 theta_star=0.5, k=k, n=1, method="bernoulli", seed=0))]
    built = mock.Mock(side_effect=AssertionError("coefficients built"))
    with mock.patch.object(pmf_module, "_return_poly", built), \
            mock.patch.object(estimation_module, "_return_poly", built):
        assert [_error(call) for call in calls] == [want] * len(calls)


@settings(max_examples=100, deadline=None)
@given(_numbers(st.floats(-1.5, 1.5)))
@example(1.0 + 2 ** -52)
@example(-1.0)
@example(True)
@example(np.False_)
def test_every_lam_site_applies_the_unit_lam_gate(lam):
    accepted = _error(lambda: _unit_lam(lam)) is None
    for call in (lambda: pmf_full(1, lam), lambda: CoinParameter.from_lambda(lam),
                 lambda: chebyshev_identity_suite(0, lam)):
        error = _error(call)
        assert (error is None) == accepted, lam
        assert not (accepted and isinstance(lam, (bool, np.bool_)))  # a bool is no lam
        assert accepted or error == f"lam must be finite with |lam| <= 1, got {lam}"


@settings(max_examples=100, deadline=None)
@given(_numbers(st.one_of(st.floats(1 - 2e-9, 1 + 2e-9), st.floats(-1 - 2e-9, -1 + 2e-9),
                          st.floats(-1e3, 1e3))))
@example(1 + 1e-9)
def test_every_norm_site_applies_the_unit_total_gate(c):
    """One amplitude c: a squared norm, and a total probability, of c * c."""
    accepted = _error(lambda: _unit_total(c * c, "state")) is None
    for call in (lambda: WalkState.localized(0, (c, 0)),
                 lambda: WalkState.from_amplitudes({(0, 0): c}),
                 lambda: sample_positions(Pmf(2, {0: c * c}), 1, seed=0)):
        error = _error(call)
        assert (error is None) == accepted, c
        assert accepted or "must be normalized" in error


@settings(max_examples=100, deadline=None)
@given(_numbers(st.floats(-0.5, 1.5)))
@example(1.0)
@example(0.0)
@example(True)
@example(np.False_)
def test_every_level_site_applies_the_unit_interval_gate(f):
    sites = {"level": [lambda: level_set_solve(f, 2)],
             "return probability": [lambda: sample_return_trials(f, 1, seed=0, k=2)]}
    for name, calls in sites.items():
        want = _error(lambda: _unit_interval(f, name))
        assert not (want is None and isinstance(f, (bool, np.bool_)))  # a bool is no level
        assert want is None or want == f"{name} must lie in [0, 1], got {f}"
        assert [_error(call) for call in calls] == [want] * len(calls), (name, f)


@settings(max_examples=60, deadline=None)
@given(_numbers(st.floats(-1.0, 1.0)))
@example(0.0)
@example(-0.0)
@example(True)
@example(np.False_)
def test_every_tolerance_site_applies_the_tolerance_gate(tol):
    data = TrialDataset.from_positions(2, [0])
    sites = {"refine tolerance": [lambda: mle_estimate(data, grid_size=3, refine_tolerance=tol)],
             "--tol": [lambda: cmd_validate(argparse.Namespace(max_k=0, tol=tol))]}
    for name, calls in sites.items():
        want = _error(lambda: _finite(tol, name, 0))
        assert not (want is None and isinstance(tol, (bool, np.bool_)))  # a bool is no tolerance
        assert want is None or want == f"{name} must be finite and >= 0, got {tol}"
        assert [_error(call) for call in calls] == [want] * len(calls), (name, tol)


_COUNTS = st.one_of(st.integers(-3, 4), st.integers(-3, 4).map(np.int64), st.booleans(),
                    st.sampled_from([np.True_, np.False_]), st.integers(-3, 4).map(float),
                    st.floats(-3.0, 4.0), st.sampled_from([math.nan, math.inf]))


def _check_count_sites(value, name, sites):
    """Each call of ``sites[minimum]`` gates ``value`` with ``_integer(value,
    name, minimum)``: where the gate rejects it, the call raises the gate's
    message; where it accepts it, the call raises no message of the gate."""
    for minimum, calls in sites.items():
        want = _error(lambda: _integer(value, name, minimum))
        for call in calls:
            error = _error(call)
            if want is None:
                assert error is None or not error.startswith(f"{name} must be an integer"), (
                    value, error)
            else:
                assert error == want, (value, minimum, error)


@settings(max_examples=100, deadline=None)
@given(_COUNTS)
@example(np.int64(0))
@example(2.0)
def test_every_step_count_site_applies_the_integer_gate(k):
    coin = CoinParameter(0.9)
    with tempfile.TemporaryDirectory() as outdir:
        simulate = _parser(None).parse_args(
            ["simulate", "--k", "1", "--theta", "0.9", "--outdir", outdir])
        simulate.k = k
        _check_count_sites(k, "step count k", {
            1: [lambda: pmf_full(k, 0.5), lambda: pmf_point(k, 0, 0.5), lambda: _grid(k, [0.5], [0]),
                lambda: _return_grid(k, [0.5]), lambda: TrialDataset.from_positions(k, ()),
                lambda: diffusion_experiment(0.5, [k], "quantum"),
                lambda: kraus_kernels(0.3, coin, k),
                lambda: channel_position_pmf(WalkState.origin(), coin, k),
                lambda: cmd_simulate(simulate),
                lambda: _generate_dataset(argparse.Namespace(
                    theta_star=0.5, k=k, n=1, method="positions", seed=0)),
                lambda: data_box_experiment(0.5, 40, [(k, 1)], seed=0, grid_size=3)],
            0: [lambda: WalkState(k, 0, [[1.0], [0.0]]),
                lambda: evolve(WalkState.origin(), coin, k),
                lambda: kernel_power(0.3, coin, k)],
            2: [lambda: level_set_solve(0.5, k)],
        })


@settings(max_examples=60, deadline=None)
@given(_COUNTS)
@example(np.int64(0))
def test_every_trial_count_site_applies_the_integer_gate(n):
    generate = lambda method: _generate_dataset(argparse.Namespace(
        theta_star=0.5, k=2, n=n, method=method, seed=0))
    _check_count_sites(n, "n", {
        1: [lambda: TrialDataset.from_returns(2, 0, n),
            lambda: sample_return_trials(0.5, n, seed=0, k=2),
            lambda: data_box_experiment(0.5, 40, [(1, n)], seed=0, grid_size=3),
            lambda: generate("bernoulli")],
        0: [lambda: sample_positions(Pmf(2, {0: 1.0}), n, seed=0),
            lambda: generate("positions")],
    })


@settings(max_examples=60, deadline=None)
@given(_COUNTS)
def test_every_return_count_site_applies_the_integer_gate(n0):
    _check_count_sites(n0, "n0", {0: [lambda: TrialDataset.from_returns(2, n0, 5)]})


@settings(max_examples=60, deadline=None)
@given(_COUNTS)
@example(np.int64(0))
def test_every_seed_site_applies_the_integer_gate(seed):
    _check_count_sites(seed, "seed", {0: [
        lambda: trial_generator(seed),
        lambda: TrialDataset.from_positions(2, (), seed=seed),
        lambda: TrialDataset.from_returns(2, 0, 1, seed=seed),
        lambda: sample_positions(Pmf(2, {0: 1.0}), 1, seed=seed),
        lambda: sample_return_trials(0.5, 1, seed=seed, k=2),
        lambda: data_box_experiment(0.5, 4, [(1, 1)], seed=seed, grid_size=3)]})


@settings(max_examples=60, deadline=None)
@given(_COUNTS)
def test_every_trial_index_site_applies_the_integer_gate(index):
    _check_count_sites(index, "trial index", {0: [
        lambda: trial_generator(0, index),
        lambda: sample_positions(Pmf(2, {0: 1.0}), 1, seed=0, trial_index=index),
        lambda: sample_return_trials(0.5, 1, seed=0, k=2, trial_index=index)]})


@settings(max_examples=60, deadline=None)
@given(st.one_of(_COUNTS, st.integers(0, 6)))
@example(np.int64(3))
def test_every_grid_size_site_applies_the_integer_gate(size):
    data = TrialDataset.from_positions(2, [0])
    _check_count_sites(size, "grid size", {3: [
        lambda: likelihood_curve(data, grid_size=size),
        lambda: mle_estimate(data, grid_size=size),
        lambda: data_box_experiment(0.5, 4, [(1, 1)], seed=0, grid_size=size)]})


_FIELD_VALUES = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False), st.text(max_size=3),
                          st.booleans(), st.lists(st.integers(-2, 2), max_size=3).map(tuple))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["positions", "returns"]),
       fields=st.fixed_dictionaries({}, optional={
           "n": _FIELD_VALUES, "n0": _FIELD_VALUES,
           "positions": st.lists(st.sampled_from([-2, 0, 2]), min_size=1, max_size=3),
           "weights": st.one_of(st.just(()), st.lists(st.floats(0.0, 1.0), max_size=3))}))
def test_a_dataset_rejects_any_field_of_the_other_kind(kind, fields):
    """Positions data take no n or n0, and return counts no positions or
    weights, whatever the value: the first such field, in the order (n,
    n0) or (positions, weights), is named with its value."""
    other = ("n", "n0") if kind == "positions" else ("positions", "weights")
    own = {"positions": (0,)} if kind == "positions" else {"n": 2, "n0": 1}
    given_fields = {**own, **{f: v for f, v in fields.items() if f in other}}
    stray = [f for f in other if f in given_fields]
    if not stray:
        TrialDataset(kind, 2, **given_fields)
        return
    value = given_fields[stray[0]]
    shown = tuple(value) if stray[0] == "positions" else value
    assert _error(lambda: TrialDataset(kind, 2, **given_fields)) == (
        f"{stray[0]} does not apply to {kind} data, got {shown!r}")
