"""Simulator tests: frozen small-k amplitude tables, conservation laws,
and agreement between the direct, kernel-power, and Kraus routes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reluctant_walk.estimation import level_set_solve
from reluctant_walk.walk import (
    CoinParameter,
    WalkState,
    coin_matrix,
    step,
    evolve,
    position_pmf,
    kernel_matrix,
    kernel_power,
    kraus_kernels,
    return_probability_kraus,
    channel_position_pmf,
)

from oracles import evolve_stepwise

THETA = 0.7


def test_coin_parameter_normalization():
    assert CoinParameter(3 * math.pi).theta == pytest.approx(-math.pi)
    assert CoinParameter(0.3).theta == 0.3
    p = CoinParameter(-math.tau + 0.5)
    assert p.theta == pytest.approx(0.5)
    assert -math.pi <= CoinParameter(math.pi).theta < math.pi


def test_from_lambda():
    p = CoinParameter.from_lambda(0.6)
    assert p.lam == pytest.approx(0.6)
    assert p.sin_theta == pytest.approx(0.8)
    assert CoinParameter.from_lambda(-1.0).lam == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        CoinParameter.from_lambda(1.5)


def test_non_finite_coin_rejected():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            CoinParameter(theta)
    with pytest.raises(ValueError):
        CoinParameter.from_lambda(math.nan)


def test_coin_matrix_is_rotation():
    m = coin_matrix(CoinParameter(THETA))
    assert_allclose(m.T @ m, np.eye(2), atol=1e-15)
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_one_step_amplitudes():
    c, s = math.cos(THETA), math.sin(THETA)
    st1 = evolve(WalkState.origin(), CoinParameter(THETA), 1)
    assert st1.amplitude(0, 1) == pytest.approx(c)
    assert st1.amplitude(1, -1) == pytest.approx(-s)
    assert st1.amplitude(0, -1) == 0
    assert st1.amplitude(1, 1) == 0


def test_two_step_amplitudes():
    # Hand-derived table.  Both coin-1 entries carry -sin*cos; the signs
    # come from the lower row of the coin rotation.
    c, s = math.cos(THETA), math.sin(THETA)
    st2 = evolve(WalkState.origin(), CoinParameter(THETA), 2)
    assert st2.amplitude(0, 2) == pytest.approx(c * c)
    assert st2.amplitude(0, 0) == pytest.approx(-s * s)
    assert st2.amplitude(1, 0) == pytest.approx(-s * c)
    assert st2.amplitude(1, -2) == pytest.approx(-s * c)
    for coin in (0, 1):
        for pos in (-1, 1):
            assert st2.amplitude(coin, pos) == 0
    assert st2.amplitude(1, 2) == 0
    assert st2.amplitude(0, -2) == 0


@given(theta=st.floats(-3.1, 3.1), k=st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_norm_preserved(theta, k):
    state = evolve(WalkState.origin(), CoinParameter(theta), k)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@given(theta=st.floats(-3.1, 3.1), k=st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_off_parity_amplitudes_vanish(theta, k):
    state = evolve(WalkState.origin(), CoinParameter(theta), k)
    for pos in state.positions:
        if (pos - k) % 2:
            assert state.amplitude(0, int(pos)) == 0
            assert state.amplitude(1, int(pos)) == 0


def test_translation_invariance():
    p = CoinParameter(1.1)
    a = evolve(WalkState.origin(), p, 6)
    b = evolve(WalkState.localized(17), p, 6)
    assert b.lo == a.lo + 17
    assert np.array_equal(a.amps, b.amps)


def test_ballistic_edges():
    # lam = 1 streams right; theta = pi/2 bounces back every other step
    k = 9
    right = evolve(WalkState.origin(), CoinParameter(0.0), k)
    assert right.amplitude(0, k) == pytest.approx(1.0)
    bounce = evolve(WalkState.origin(), CoinParameter(math.pi / 2), 8)
    assert position_pmf(bounce).probability(0) == pytest.approx(1.0)


def test_evolve_zero_and_negative():
    state = WalkState.origin()
    assert evolve(state, CoinParameter(0.5), 0) is state
    with pytest.raises(ValueError):
        evolve(state, CoinParameter(0.5), -1)


@pytest.mark.parametrize("start", [
    WalkState.origin(),
    WalkState.localized(-4, coin=(0.6, 0.8j)),
    WalkState.from_amplitudes({(0, -3): 0.6, (1, 0): 0.48j, (0, 2): -0.64}, k=5),
], ids=["origin", "complex_coin", "mixed_parity"])
@given(theta=st.floats(-3.1, 3.1), steps=st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_evolve_equals_one_state_per_step(start, theta, steps):
    p = CoinParameter(theta)
    want = evolve_stepwise(start, p, steps)
    got = evolve(start, p, steps)
    assert (got.k, got.lo) == (want.k, want.lo)
    assert got.amps.tobytes() == want.amps.tobytes()   # bit for bit, signed zeros too
    if steps == 1:
        assert step(start, p).amps.tobytes() == want.amps.tobytes()


@pytest.mark.parametrize("bad", [True, False, 2.0, -1, "3", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: evolve(WalkState.origin(), CoinParameter(0.5), k),
        lambda k: kernel_power(0.4, CoinParameter(0.5), k),
        lambda k: kraus_kernels(0.4, CoinParameter(0.5), k),
        lambda k: return_probability_kraus(CoinParameter(0.5), k),
        lambda k: channel_position_pmf(WalkState.origin(), CoinParameter(0.5), k),
    ],
    ids=["evolve", "kernel_power", "kraus_kernels", "return_probability", "channel"],
)
def test_step_count_must_be_an_int(call, bad):
    with pytest.raises(ValueError, match="step count"):
        call(bad)
    call(np.int64(3))


def test_position_pmf_totals_one():
    state = evolve(WalkState.origin(), CoinParameter(0.9), 15)
    pmf = position_pmf(state)
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)
    assert pmf.k == 15
    assert pmf.lam is None


def test_walkstate_validation():
    with pytest.raises(ValueError):
        WalkState(0, 0, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        WalkState.localized(0, coin=(1.0, 1.0))
    with pytest.raises(ValueError):
        WalkState.from_amplitudes({(0, 0): 0.5})
    with pytest.raises(ValueError):
        WalkState.from_amplitudes({(2, 0): 1.0})
    state = WalkState.origin()
    with pytest.raises(ValueError):
        state.amplitude(3, 0)
    with pytest.raises((ValueError, RuntimeError)):
        state.amps[0, 0] = 0


def test_from_amplitudes_window():
    state = WalkState.from_amplitudes({(0, -3): 0.6, (1, 2): 0.8})
    assert state.lo == -3
    assert state.width == 6
    assert state.amplitude(1, 2) == pytest.approx(0.8)
    assert state.norm() == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
@pytest.mark.parametrize("theta", [0.3, 1.2, -0.7])
def test_kernel_power_matches_matrix_power(k, theta):
    p = CoinParameter(theta)
    for phi in (0.0, 0.7, 2.9):
        direct = np.linalg.matrix_power(kernel_matrix(phi, p), k)
        assert_allclose(kernel_power(phi, p, k), direct, atol=1e-12)


def test_kernel_power_zero_is_identity():
    assert_allclose(kernel_power(0.4, CoinParameter(0.8), 0), np.eye(2))
    with pytest.raises(ValueError):
        kernel_power(0.4, CoinParameter(0.8), -1)


@given(theta=st.floats(-3.1, 3.1), phi=st.floats(0, 6.28))
@settings(max_examples=40, deadline=None)
def test_kernel_unitary(theta, phi):
    m = kernel_matrix(phi, CoinParameter(theta))
    assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


@given(theta=st.floats(-3.1, 3.1), k=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_kraus_completeness(theta, k):
    phi = np.linspace(0.0, 2 * math.pi, 65)
    a, b = kraus_kernels(phi, CoinParameter(theta), k)
    assert_allclose(np.abs(a) ** 2 + np.abs(b) ** 2, 1.0, atol=1e-11)


def test_kraus_requires_positive_k():
    with pytest.raises(ValueError):
        kraus_kernels(0.1, CoinParameter(0.5), 0)


@pytest.mark.parametrize("k", range(1, 11))
def test_return_probability_matches_simulation(k):
    p = CoinParameter(THETA)
    expected = position_pmf(evolve(WalkState.origin(), p, k)).probability(0)
    assert return_probability_kraus(p, k) == pytest.approx(expected, abs=1e-12)


def test_return_probability_closed_values():
    # two steps: the walker returns iff the coin flips, probability sin^2
    theta = 1.0
    assert return_probability_kraus(CoinParameter(theta), 2) == pytest.approx(
        math.sin(theta) ** 2, abs=1e-12
    )
    assert return_probability_kraus(CoinParameter(0.0), 6) == pytest.approx(0.0, abs=1e-12)
    assert return_probability_kraus(CoinParameter(math.pi / 2), 6) == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("steps", [1, 4, 7])
def test_channel_matches_simulation(steps):
    rng = np.random.default_rng(20260817)
    p = CoinParameter(0.95)
    for _ in range(3):
        amp = rng.normal(size=5) + 1j * rng.normal(size=5)
        amp /= np.linalg.norm(amp)
        init = WalkState(0, -2, np.vstack([amp, np.zeros(5)]))
        channel = channel_position_pmf(init, p, steps)
        direct = position_pmf(evolve(init, p, steps))
        for m in range(-2 - steps, 3 + steps):
            assert channel.probability(m) == pytest.approx(
                direct.probability(m), abs=1e-9
            )
        assert channel.total() == pytest.approx(1.0, abs=1e-9)


def test_channel_requires_coin0():
    init = WalkState.localized(0, coin=(0.0, 1.0))
    with pytest.raises(ValueError):
        channel_position_pmf(init, CoinParameter(0.5), 3)
    with pytest.raises(ValueError):
        channel_position_pmf(WalkState.origin(), CoinParameter(0.5), 0)


_SPREAD = (np.arange(1, 10) - 4.5j) / np.linalg.norm(np.arange(1, 10) - 4.5j)


@pytest.mark.parametrize(
    "init, steps",
    [
        (WalkState.origin(), 1000),
        (WalkState.localized(10_000), 10),
        (WalkState(0, -4, np.vstack([_SPREAD, np.zeros(9)])), 40),
    ],
    ids=["origin-k1000", "far-site", "width9-straddling-origin"],
)
def test_channel_wraps_positions_onto_the_grid(init, steps):
    p = CoinParameter(0.8)
    channel = channel_position_pmf(init, p, steps)
    direct = position_pmf(evolve(init, p, steps))
    assert channel.table.keys() == direct.table.keys()
    worst = max(abs(channel.table[m] - direct.table[m]) for m in direct.table)
    assert worst < 1e-12


def test_channel_memory_stays_linear():
    # dense positions x nodes transforms at k=300 would take ~180 MB
    tracemalloc.start()
    try:
        channel_position_pmf(WalkState.origin(), CoinParameter(0.8), 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_level_set_solve_memory_stays_small():
    # the exact rows of a 2048-point lam grid at once would take ~20 MB; the
    # bisection scores 63 midpoints a pass on the cached Chebyshev series
    tracemalloc.start()
    try:
        level_set_solve(0.1, 24, branch=(0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
