"""The input gates in ``chebyshev`` (finite angle, |lam| <= 1, unit norm,
integer step count) accept and reject the same values at every call site
that states their rule through them."""

import argparse
import math
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from reluctant_walk.chebyshev import (_finite, _integer, _unit_lam, _unit_total,
                                      chebyshev_identity_suite)
from reluctant_walk.cli import _generate_dataset, build_parser, cmd_simulate
from reluctant_walk.estimation import TrialDataset, level_set_solve
from reluctant_walk.pmf import Pmf, _grid, _return_grid, iter_pmf_full, pmf_full, pmf_point
from reluctant_walk.sampling import data_box_experiment, diffusion_experiment, sample_positions
from reluctant_walk.walk import (CoinParameter, WalkState, channel_position_pmf, evolve,
                                 kernel_power, kraus_kernels)


def _numbers(floats):
    """``floats`` as Python and numpy floats, NaN and the infinities, bools,
    and small Python and numpy ints."""
    return st.one_of(floats, floats.map(np.float64),
                     st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
                     st.booleans(), st.integers(-3, 3), st.integers(-3, 3).map(np.int64))


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
        assert want is None or want == f"{name} must be finite, got {theta}"
        assert [_error(call) for call in calls] == [want] * len(calls), (name, theta)


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
@given(st.one_of(st.integers(-3, 4), st.integers(-3, 4).map(np.int64), st.booleans(),
                 st.sampled_from([np.True_, np.False_]), st.integers(-3, 4).map(float),
                 st.floats(-3.0, 4.0), st.sampled_from([math.nan, math.inf])))
@example(np.int64(0))
@example(2.0)
def test_every_step_count_site_applies_the_integer_gate(k):
    """Each site that takes a step count gates it with ``_integer(k, "step
    count k", minimum)``: where the gate rejects k, the site raises its
    message; where it accepts k, the site raises no message of the gate."""
    coin = CoinParameter(0.9)
    with tempfile.TemporaryDirectory() as outdir:
        simulate = build_parser().parse_args(
            ["simulate", "--k", "1", "--theta", "0.9", "--outdir", outdir])
        simulate.k = k
        sites = {
            1: [lambda: pmf_full(k, 0.5), lambda: pmf_point(k, 0, 0.5),
                lambda: list(iter_pmf_full(0.5, k)), lambda: _grid(k, [0.5], [0]),
                lambda: _return_grid(k, [0.5]), lambda: TrialDataset.from_positions(k, ()),
                lambda: diffusion_experiment(0.5, [k], "quantum"),
                lambda: kraus_kernels(0.3, coin, k),
                lambda: channel_position_pmf(WalkState.origin(), coin, k),
                lambda: cmd_simulate(simulate),
                lambda: _generate_dataset(argparse.Namespace(
                    theta_star=0.5, k=k, n=1, method="positions", seed=0))],
            0: [lambda: WalkState(k, 0, [[1.0], [0.0]]),
                lambda: evolve(WalkState.origin(), coin, k),
                lambda: kernel_power(0.3, coin, k)],
            None: [lambda: level_set_solve(0.5, k),
                   lambda: data_box_experiment(0.5, 40, [(k, 1)], seed=0, grid_size=3)],
        }
        for minimum, calls in sites.items():
            want = _error(lambda: _integer(k, "step count k", minimum))
            for call in calls:
                error = _error(call)
                if want is None:
                    assert error is None or not error.startswith("step count k"), (k, error)
                else:
                    assert error == want, (k, minimum, error)


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
