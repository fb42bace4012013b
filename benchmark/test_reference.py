"""Tests of the benchmark's reference walk.

Run with ``python3 -m pytest benchmark``.
"""

import math

import numpy as np
import pytest

import reference

LAMBDAS = [0.0, 0.3, 0.6, 0.95, 1.0]


@pytest.mark.parametrize("lam", LAMBDAS)
def test_closed_rows(lam):
    theta = math.acos(lam)
    one = reference.analytic_pmf(1, theta)          # displacements -1, 0, 1
    assert one[0] == pytest.approx(lam**2, abs=1e-15)
    two = reference.analytic_pmf(2, theta)          # displacements -2..2
    assert two[0] == pytest.approx(lam**4, abs=1e-15)
    assert two[2] == pytest.approx(1 - lam**2, abs=1e-15)
    assert two[4] == pytest.approx(lam**2 * (1 - lam**2), abs=1e-15)
    assert two[1] == two[3] == 0.0


@pytest.mark.parametrize("theta", [0.1, 0.77, 1.4, 2.5])
def test_every_step_keeps_unit_norm(theta):
    for a, _ in reference.walk_states(300, math.cos(theta), math.sin(theta)):
        assert np.sum(a**2) == pytest.approx(1.0, abs=1e-12)


def test_axes_are_mirrors():
    sim = reference.sim_pmf(7, 0.4)
    assert np.array_equal(reference.analytic_pmf(7, 0.4), sim[::-1])
    # the ballistic weight cos(theta)^(2k) sits at +k on the simulator axis
    assert sim[-1] == pytest.approx(math.cos(0.4) ** 14, rel=1e-13)


def test_derivative_matches_finite_difference():
    h = 1e-6
    _, dp = reference.analytic_pmf_and_derivative(12, 0.9)
    fd = (reference.analytic_pmf(12, 0.9 + h) - reference.analytic_pmf(12, 0.9 - h)) / (2 * h)
    assert np.max(np.abs(dp - fd)) < 1e-8


def test_return_probability_two_steps():
    assert reference.return_probability(2, 0.5) == pytest.approx(math.sin(0.5) ** 2,
                                                                 abs=1e-15)
