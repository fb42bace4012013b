"""Reference distributions for the benchmark's output checks.

A plain numpy state-vector walk, written apart from ``reluctant_walk`` so
that no check reads the package it checks.  The coin is the SO(2) rotation
[[c, s], [-s, c]] applied before the shift (coin 0 hops +1, coin 1 hops
-1); the walker starts at site 0 with coin |0>.  Amplitudes stay real.

Arrays index sites -k..k, so entry i is site i - k.  The simulator axis is
the physical one; the analytic axis of ``pmf`` tables is its mirror,
p_analytic(d) = p_sim(-d).
"""

from __future__ import annotations

import math

import numpy as np


def walk_states(k: int, c: float, s: float):
    """Yield the amplitude pair (a0, a1) after steps 0, 1, ..., k,
    with the derivative pair (da0, da1) along the coin angle."""
    a = np.zeros((2, 2 * k + 1))
    da = np.zeros((2, 2 * k + 1))
    a[0, k] = 1.0
    yield a, da
    for _ in range(k):
        b0, b1 = c * a[0] + s * a[1], -s * a[0] + c * a[1]
        # d/dtheta of the coin is [[-s, c], [-c, -s]]
        db0 = -s * a[0] + c * a[1] + c * da[0] + s * da[1]
        db1 = -c * a[0] - s * a[1] - s * da[0] + c * da[1]
        a, da = np.zeros_like(a), np.zeros_like(da)
        a[0, 1:], a[1, :-1] = b0[:-1], b1[1:]
        da[0, 1:], da[1, :-1] = db0[:-1], db1[1:]
        yield a, da


def sim_pmf(k: int, theta: float) -> np.ndarray:
    """Simulator-axis probabilities of sites -k..k after k steps."""
    for a, _ in walk_states(k, math.cos(theta), math.sin(theta)):
        pass
    return a[0] ** 2 + a[1] ** 2


def analytic_pmf(k: int, theta: float) -> np.ndarray:
    """Analytic-axis probabilities of displacements -k..k (the mirror)."""
    return sim_pmf(k, theta)[::-1]


def analytic_pmf_and_derivative(k: int, theta: float):
    """Analytic-axis probabilities and their derivative in theta."""
    for a, da in walk_states(k, math.cos(theta), math.sin(theta)):
        pass
    p = a[0] ** 2 + a[1] ** 2
    dp = 2.0 * (a[0] * da[0] + a[1] * da[1])
    return p[::-1], dp[::-1]


def return_probability(k: int, theta: float) -> float:
    """Probability of being back at the start site after k steps."""
    return float(sim_pmf(k, theta)[k])


def fisher_information(k: int, theta: float) -> float:
    """Expected Fisher information of one displacement sample."""
    p, dp = analytic_pmf_and_derivative(k, theta)
    live = p > 0.0
    return float(np.sum(dp[live] ** 2 / p[live]))


def log_likelihood(k: int, counts: dict, theta: float) -> float:
    """Log-likelihood of displacement counts {d: n_d} on the analytic axis."""
    p = analytic_pmf(k, theta)
    return math.fsum(n * math.log(p[d + k]) for d, n in counts.items())
