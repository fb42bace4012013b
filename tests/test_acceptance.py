"""Acceptance gate: every advertised numerical guarantee, end to end.

Each test exercises one guarantee at its stated tolerance and prints the
measured margin, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  Tolerances here are contractual; do not loosen them to make
a regression pass.
"""

import json
import math
import time

import numpy as np
import pytest

from reluctant_walk.cli import FIG2_KS, _fig1_columns, _fig2_columns, main
from reluctant_walk.estimation import TrialDataset, level_set_solve, mle_estimate
from reluctant_walk.pmf import iter_pmf_full, pmf_full, pmf_point
from reluctant_walk.sampling import diffusion_experiment, sample_positions
from reluctant_walk.walk import (
    CoinParameter,
    WalkState,
    evolve,
    kraus_kernels,
    position_pmf,
)

from oracles import chebyshev_identity_suite, kernel_matrix, kernel_power


def gibbs_dataset(theta_star, k):
    table = pmf_full(k, math.cos(theta_star), exact=False)
    support = table.support
    return TrialDataset.from_positions(
        k, support, weights=[table.probability(d) for d in support])


def test_closed_form_matches_state_vector_sweep():
    """Exact pmf vs simulated distribution, k <= 50, lambda in 0.05 steps.

    The closed form lives on the mirrored displacement axis, so the
    comparison reads the simulator at -d.  Tolerance 1e-9, 60 s budget.
    """
    start = time.perf_counter()
    worst = 0.0
    for lam in np.arange(-0.95, 0.9501, 0.05):
        lam = float(round(lam, 2))
        coin = CoinParameter.from_lambda(lam)
        state = WalkState.origin()
        for analytic in iter_pmf_full(lam, 50, exact=True):
            state = evolve(state, coin, 1)
            sim = position_pmf(state)
            for d, p in analytic.table.items():
                worst = max(worst, abs(p - sim.probability(-d)))
    elapsed = time.perf_counter() - start
    print(f"closed form vs state vector: worst {worst:.3e} in {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_normalization_and_parity_to_k200():
    """Total mass 1 within 1e-10 and exact zeros off the parity lattice."""
    worst = 0.0
    for lam in (-0.95, -0.6, 0.0, 0.31, 0.6, 0.95):
        for pmf in iter_pmf_full(lam, 200, exact=False):
            worst = max(worst, abs(pmf.total() - 1.0))
            k = pmf.k
            for d in (k - 1, 1 - k, 0 if k % 2 else 1):
                assert pmf.probability(d) == 0.0
            assert pmf.probability(k + 2) == 0.0
    print(f"normalization: worst {worst:.3e}")
    assert worst <= 1e-10


def test_two_step_closed_row():
    """p(-2) = lam^4, p(0) = 1 - lam^2, p(2) = lam^2 (1 - lam^2) to 1e-12."""
    worst = 0.0
    for lam in np.arange(-0.95, 0.9501, 0.05):
        lam = float(lam)
        pmf = pmf_full(2, lam)
        worst = max(worst,
                    abs(pmf.probability(-2) - lam**4),
                    abs(pmf.probability(0) - (1 - lam**2)),
                    abs(pmf.probability(2) - lam**2 * (1 - lam**2)))
    print(f"two-step row: worst {worst:.3e}")
    assert worst <= 1e-12


def test_kraus_pair_completeness_random_grid():
    """|A_k|^2 + |B_k|^2 = 1 within 1e-11 on 10^4 random (phi, theta, k)."""
    rng = np.random.default_rng(20260817)
    phis = rng.uniform(-math.pi, math.pi, 10_000)
    thetas = rng.uniform(-math.pi, math.pi, 10_000)
    ks = rng.integers(1, 101, 10_000)
    worst = 0.0
    for phi, theta, k in zip(phis, thetas, ks):
        a, b = kraus_kernels(float(phi), CoinParameter(float(theta)), int(k))
        worst = max(worst, abs(abs(a) ** 2 + abs(b) ** 2 - 1.0))
    print(f"completeness: worst {worst:.3e}")
    assert worst <= 1e-11


def test_kernel_power_closed_form_to_k100():
    """Characteristic-polynomial power vs iterated multiplication, 1e-10."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        phi = float(rng.uniform(-math.pi, math.pi))
        coin = CoinParameter(float(rng.uniform(-math.pi, math.pi)))
        m = kernel_matrix(phi, coin)
        reference = np.eye(2, dtype=complex)
        for k in range(1, 101):
            reference = reference @ m
            worst = max(worst, float(np.max(np.abs(
                kernel_power(phi, coin, k) - reference))))
    print(f"kernel power: worst {worst:.3e}")
    assert worst <= 1e-10


def _interpolated_fwhm(ls, ps):
    imax = int(np.argmax(ps))
    half = ps[imax] / 2.0
    right = left = None
    for j in range(imax, len(ps) - 1):
        if ps[j] >= half > ps[j + 1]:
            t = (ps[j] - half) / (ps[j] - ps[j + 1])
            right = ls[j] + t * (ls[j + 1] - ls[j])
            break
    for j in range(imax, 0, -1):
        if ps[j] >= half > ps[j - 1]:
            t = (ps[j] - half) / (ps[j] - ps[j - 1])
            left = ls[j] - t * (ls[j] - ls[j - 1])
            break
    assert left is not None and right is not None
    return right - left


def test_figure_grids_peak_structure():
    """Return-probability curves peak uniquely at lambda = 0 and sharpen
    with k; the ridge of the k=100 surface moves outward with |lambda|."""
    fig2a = _fig2_columns("fig2a")
    widths = []
    for k in FIG2_KS:
        curve = sorted((lam, p) for k_, lam, p in zip(fig2a["k"], fig2a["lambda"], fig2a["p"])
                       if k_ == k)
        ls = np.array([l for l, _ in curve])
        ps = np.array([p for _, p in curve])
        imax = int(np.argmax(ps))
        assert ls[imax] == 0.0
        others = np.delete(ps, imax)
        assert np.all(others < ps[imax] - 1e-12)
        widths.append(_interpolated_fwhm(ls, ps))
    assert all(b < a for a, b in zip(widths, widths[1:]))
    print("peak widths:", " ".join(f"{w:.4f}" for w in widths))

    fig1 = _fig1_columns()
    by_lam: dict[float, list[tuple[float, float]]] = {}
    for lam, r, p in zip(fig1["lambda"], fig1["r"], fig1["p"]):
        by_lam.setdefault(lam, []).append((r, p))
    for half in (sorted(l for l in by_lam if l >= 0),
                 sorted((l for l in by_lam if l <= 0), reverse=True)):
        prev = -1.0
        for lam in half:
            rstar = abs(max(by_lam[lam], key=lambda t: t[1])[0])
            assert rstar >= prev - 1e-12
            prev = max(prev, rstar)


@pytest.mark.parametrize("theta_star", [0.2, 0.5, 0.9, 1.3])
def test_expected_likelihood_maximizer_recovers_angle(theta_star):
    """Grid MLE on pmf-weighted data returns the generating angle to 1e-6."""
    worst = 0.0
    for k in (8, 16, 32):
        est = mle_estimate(gibbs_dataset(theta_star, k))
        worst = max(worst, abs(est.theta_hat - theta_star))
    print(f"theta*={theta_star}: worst {worst:.3e}")
    assert worst <= 1e-6


def test_level_set_recovers_coin_parameter():
    """Inverting f = p(0; k, lam*) recovers lam* within 1e-8."""
    worst = 0.0
    for lam_star in (0.1, 0.3, 0.6):
        for k in (4, 8, 16):
            f = pmf_point(k, 0, lam_star)
            roots = level_set_solve(f, k)
            assert roots, f"no roots for lam*={lam_star}, k={k}"
            worst = max(worst, min(abs(r - lam_star) for r in roots))
    print(f"level-set recovery: worst {worst:.3e}")
    assert worst <= 1e-8


def test_sampled_estimates_converge_with_sample_size():
    """Pinned-seed sanity: the k=20, n=10^4 estimate lands within 0.05 of
    the truth, and the median error over 32 replications does not grow
    with n (at most one inversion across the three sample sizes)."""
    theta_star = 0.3
    pmf = pmf_full(20, math.cos(theta_star))

    headline = mle_estimate(sample_positions(pmf, 10_000, seed=7))
    print(f"headline estimate: {headline.theta_hat:.5f}")
    assert abs(headline.theta_hat - theta_star) < 0.05

    sizes = (100, 1_000, 10_000)
    errors = np.empty((len(sizes), 32))
    for rep in range(32):
        for j, n in enumerate(sizes):
            data = sample_positions(pmf, n, seed=9, trial_index=rep * len(sizes) + j)
            errors[j, rep] = abs(mle_estimate(data).theta_hat - theta_star)
    medians = np.median(errors, axis=1)
    inversions = sum(b > a for a, b in zip(medians, medians[1:]))
    print("median errors:", " ".join(f"{m:.4f}" for m in medians))
    assert inversions <= 1


def test_quantum_spread_scales_ballistically():
    """log-log slope of sigma(k) in [0.9, 1.1]; classical spread is sqrt(k)."""
    ks = [16, 32, 64, 128, 256]
    quantum = diffusion_experiment(math.pi / 3, ks, mode="quantum")
    slope = np.polyfit(np.log([k for k, _ in quantum]),
                       np.log([s for _, s in quantum]), 1)[0]
    print(f"quantum slope: {slope:.4f}")
    assert 0.9 <= slope <= 1.1
    for k, sigma in diffusion_experiment(math.pi / 3, ks, mode="classical"):
        assert sigma == math.sqrt(k)


def test_polynomial_identity_suite_residuals():
    """All identity residuals below 1e-9 for orders through 5."""
    worst = 0.0
    for lam in (0.0, 0.3, 0.7, 1.0):
        residuals = chebyshev_identity_suite(5, lam)
        worst = max(worst, max(residuals.values()))
    print(f"identity suite: worst {worst:.3e}")
    assert worst <= 1e-9


def test_identical_configurations_reproduce_bit_for_bit(tmp_path):
    """Two runs of the same commands yield byte-identical artifacts."""
    runs = [
        ["pmf", "--k", "30", "--lambda", "0.31"],
        ["level-set", "--f", "0.37", "--k", "8"],
        ["diffusion", "--k-list", "16,32,64"],
        ["estimate", "--generate", "--method", "positions",
         "--theta-star", "0.3", "--k", "20", "--n", "2000", "--seed", "5"],
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for outdir in (dir_a, dir_b):
        for argv in runs:
            assert main(argv + ["--outdir", str(outdir)]) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    print(f"bit-identical artifacts: {len(names)} files")
