"""The input gates in ``chebyshev`` (finite angle, |lam| <= 1, unit norm)
accept and reject the same values at every call site that states their
rule through them."""

import argparse
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from reluctant_walk.chebyshev import _finite, _unit_lam, _unit_total, chebyshev_identity_suite
from reluctant_walk.cli import _generate_dataset
from reluctant_walk.pmf import Pmf, pmf_full
from reluctant_walk.sampling import data_box_experiment, diffusion_experiment, sample_positions
from reluctant_walk.walk import CoinParameter, WalkState


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
