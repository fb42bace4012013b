"""Closed-form pmf tests.

The state-vector simulator is the oracle: every analytic route must
reproduce it (up to the documented axis reflection), the three routes
must agree with each other, and exact rational inputs must normalize
to exactly 1.
"""

import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reluctant_walk.pmf import (
    CONVENTION_SIGMA,
    Pmf,
    pmf_point,
    pmf_full,
    iter_pmf_full,
    pmf_to_csv,
    pmf_from_csv,
    pmf_to_json,
    pmf_from_json,
    format_float,
    _csv_text,
    _grid,
    _json_safe,
    _mirror_text,
    _return_grid,
    _return_poly,
)
from reluctant_walk import pmf as pmf_module
from reluctant_walk.chebyshev import _iter_y_rows
from reluctant_walk.estimation import TrialDataset, _scan, mle_estimate
from reluctant_walk.walk import CoinParameter, WalkState, evolve, position_pmf

from oracles import (csv_text_per_cell, exact_grid, exact_return_scan, mirror_text_by_encoder,
                     pmf_even_closed, pmf_point_cosine_form, pmf_power_coeffs, poly_derivative,
                     poly_value, return_poly_by_convolution, return_power_coeffs, y_poly)

rational_lam = st.integers(-9, 9).map(lambda n: Fraction(n, 9))


def test_convention_constant():
    assert CONVENTION_SIGMA == -1


def test_one_step_row():
    lam = Fraction(2, 7)
    assert pmf_point(1, -1, lam) == lam * lam
    assert pmf_point(1, 1, lam) == 1 - lam * lam
    assert pmf_point(1, 0, lam) == 0
    assert pmf_point(1, 3, lam) == 0


def test_two_step_row_closed_values():
    # exact k = 2 table: {-2: lam^4, 0: 1 - lam^2, 2: lam^2 (1 - lam^2)}
    lam = Fraction(3, 5)
    assert pmf_point(2, -2, lam) == lam**4
    assert pmf_point(2, 0, lam) == 1 - lam * lam
    assert pmf_point(2, 2, lam) == lam * lam * (1 - lam * lam)


@given(lam=rational_lam, k=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_point_and_cosine_forms_agree_exactly(lam, k):
    for d in range(-k, k + 1, 2):
        assert pmf_point(k, d, lam) == pmf_point_cosine_form(k, d, lam)


@given(lam=rational_lam.filter(lambda q: q != 0), k2=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_even_closed_agrees_exactly(lam, k2):
    k = 2 * k2
    for d in range(-k, k + 1, 2):
        assert pmf_even_closed(k, d, lam) == pmf_point(k, d, lam)


@pytest.mark.parametrize("k,d", [(4, 0), (4, 2), (8, 4), (12, -6)])
def test_even_closed_float_examples(k, d):
    assert pmf_even_closed(k, d, 0.6) == pytest.approx(pmf_point(k, d, 0.6), abs=1e-14)


def test_even_closed_small_lam_delegates():
    assert pmf_even_closed(4, 2, 0.0) == pmf_point(4, 2, 0.0)
    assert pmf_even_closed(60, 0, 1e-8) == pytest.approx(pmf_point(60, 0, 1e-8), abs=1e-15)


def test_even_closed_rejects_odd_arguments():
    with pytest.raises(ValueError):
        pmf_even_closed(3, 1, 0.5)
    with pytest.raises(ValueError):
        pmf_even_closed(4, 1, 0.5)


@pytest.mark.parametrize("theta", [0.2, 0.7, 1.2, 1.5])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 12])
def test_matches_simulator_mirrored(theta, k):
    """pmf_point(k, d) is the simulated probability of position -d."""
    state = evolve(WalkState.origin(), CoinParameter(theta), k)
    sim = position_pmf(state)
    lam = math.cos(theta)
    for d in range(-k, k + 1):
        assert pmf_point(k, d, lam) == pytest.approx(
            sim.probability(CONVENTION_SIGMA * d), abs=1e-12
        )


def test_extreme_site_at_unit_lam():
    # lam = 1 sends all mass to d = -k on the analytic axis
    assert pmf_point(6, -6, Fraction(1)) == 1
    assert pmf_point_cosine_form(6, -6, Fraction(1)) == 1
    full = pmf_full(6, 1.0)
    assert full.probability(-6) == 1.0
    assert full.total() == pytest.approx(1.0, abs=0)


@given(k=st.integers(1, 60),
       lams=st.lists(st.floats(-1.0, 1.0), max_size=70).map(lambda xs: [-1.0, 0.0, 1.0] + xs),
       exact=st.booleans())
@settings(max_examples=40, deadline=None)
def test_grid_rows_are_pmf_full_tables(k, lams, exact):
    ds = range(-k, k + 1, 2)
    grid = (exact_grid if exact else _grid)(k, np.array(lams), ds)
    assert grid.shape == (len(lams), len(ds))
    for lam, row in zip(lams, grid.tolist()):
        assert row == list(pmf_full(k, lam, exact=exact).table.values())


@given(k_ds=st.integers(1, 60).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.integers(-k, k), min_size=1, max_size=4))),
       lams=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20), exact=st.booleans())
@example(k_ds=(1, [0]), lams=[0.0, 0.6, -1.0], exact=False)
@example(k_ds=(1, [0]), lams=[0.0, 0.6, -1.0], exact=True)
@settings(max_examples=40, deadline=None)
def test_grid_columns_on_a_light_cone_are_pmf_full_entries(k_ds, lams, exact):
    # a few columns near d = 0 run the rows trimmed to their light cone
    k, ds = k_ds
    grid = (exact_grid if exact else _grid)(k, np.array(lams), ds)
    for lam, row in zip(lams, grid.tolist()):
        table = pmf_full(k, lam, exact=exact)
        assert row == [table.probability(d) for d in ds]


@given(k_ds=st.integers(1, 40).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.integers(-k - 3, k + 3), min_size=1, max_size=6))),
       lams=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
@example(k_ds=(1, [0]), lams=[0.0, 0.6, -1.0])
@example(k_ds=(48, [1, -1, 47, -47, 49, -49, 50, -50, 0]), lams=[0.0, 0.6, -1.0, 1.0])
@settings(max_examples=40, deadline=None)
def test_grid_columns_beyond_the_support_are_pmf_point(k_ds, lams):
    # a column with |d| > k or off parity reads p = 0, as pmf_point does
    k, ds = k_ds
    exact, fast = exact_grid(k, np.array(lams), ds), _grid(k, np.array(lams), ds)
    for lam, row, row_fast in zip(lams, exact.tolist(), fast.tolist()):
        points = [pmf_point(k, d, lam) for d in ds]
        assert row == points
        assert row_fast == pytest.approx(points, abs=1e-12)
        assert all(p == 0.0 for d, p in zip(ds, row_fast) if abs(d) > k or (k - d) % 2)


@pytest.mark.parametrize("k, ds", [(1, [0, 1]), (48, [1, -1, 47, -47, 49, -49, 50, -50, 0])])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_grid_columns_off_the_support_read_plus_zero(k, ds, order):
    """Each off-support column reads +0.0 in p and in every lam-derivative
    (an off-parity one from the zeros between the stored entries of the
    rows), and leaves the other columns as they are alone."""
    lams = np.array([0.0, 0.6, -1.0, 1.0, -0.3])
    grid = _grid(k, lams, ds, order).reshape(order + 1, len(lams), len(ds))
    off = [i for i, d in enumerate(ds) if abs(d) > k or (k - d) % 2]
    assert grid[..., off].tobytes() == bytes(grid[..., off].nbytes)
    for i, d in enumerate(ds):
        alone = _grid(k, lams, [d], order).reshape(order + 1, len(lams))
        assert grid[..., i].tobytes() == alone.tobytes(), d


def _float_passes(k, lams, ds, order=0):
    """``_grid(k, lams, ds, order)`` and the lam count of each of its
    row-engine passes."""
    with mock.patch.object(pmf_module, "_rows_for", wraps=pmf_module._rows_for) as rows_for:
        grid = _grid(k, lams, ds, order)
    return grid, [len(call.args[1]) for call in rows_for.call_args_list]


@given(k=st.integers(12, 60), cone=st.booleans(), offset=st.sampled_from([-1, 0, 1]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_float_grid_entries_are_pmf_full_across_pass_edges(k, cone, offset, seed):
    # one column near d = 0 keeps the rows on its light cone, so a pass takes
    # more lam than with every column; either way a pass that ends one lam
    # before, at or after the last lam changes no entry
    ds = [k % 2] if cone else list(range(-k, k + 1, 2))
    block = _float_passes(k, np.zeros(10**4), ds)[1][0]
    assert block >= pmf_module._FLOAT_BLOCK
    lams = np.random.default_rng(seed).uniform(-1.0, 1.0, block + offset)
    lams[:3] = -1.0, 0.0, 1.0
    grid, passes = _float_passes(k, lams, ds)
    assert passes == ([block, 1] if offset == 1 else [block + offset])
    for lam, row in zip(lams.tolist(), grid.tolist()):
        table = pmf_full(k, lam, exact=False)
        assert row == [table.probability(d) for d in ds]


@pytest.mark.parametrize("k, points, ds, most", [
    (24, 2048, [0], 3),                           # a 2048-point return grid
    (48, 601, list(range(-48, 49, 2)), 3),        # the theta scan of a positions estimate
    (20, 601, list(range(-20, 21, 2)), 1),        # the same scan at k = 20
])
def test_float_scans_take_few_row_passes(k, points, ds, most):
    _, passes = _float_passes(k, np.linspace(0.0, 1.0, points), ds)
    assert sum(passes) == points and len(passes) <= most


def test_float_grid_blocks_match_single_points():
    # 2048 values of lam span 8 float passes; each row is computed alone
    lams = np.linspace(-1.0, 1.0, 2048)
    grid = _grid(24, lams, [0, 2, -24])
    single = np.vstack([_grid(24, [lam], [0, 2, -24]) for lam in lams])
    assert np.array_equal(grid, single)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_float_scan_blocks_match_single_points_bit_for_bit(order):
    # the theta scan of a positions estimate: all 49 columns at k = 48 over
    # 601 lam take 3 passes, and every entry, sign of zero included, is the
    # one a pass of that lam alone gives
    lams = np.cos(np.linspace(0.0, math.pi / 2, 601))
    ds = list(range(-48, 49, 2))
    grid, passes = _float_passes(48, lams, ds, order)
    assert len(passes) == 3
    for i, lam in enumerate(lams):
        assert grid[..., i, :].tobytes() == _grid(48, [lam], ds, order).tobytes(), lam


def test_float_return_scan_memory_stays_blocked():
    lams = np.linspace(-1.0, 1.0, 2048)
    tracemalloc.start()
    try:
        _grid(200, lams, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _traced_peak(call) -> int:
    """The tracemalloc peak in bytes of ``call()``, run once untraced first
    so that caches built on a first call do not count."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_positions_estimate_and_wide_scan_memory_stay_at_most_the_earlier_peaks():
    """The float pmf of a pass is computed in place and the scan's logs
    overwrite its grid, so a pass twice as wide as before costs no more
    memory.  Peaks measured on the tree before that change, same numpy:
    783,472 B for a default k = 48 ``mle_estimate`` with all 49 columns
    observed (3 passes of 266 lam, against 5 of 133 then), and 7,545,453 B
    for a 601-point scan at k = 500 over all 501 columns (64 lam a pass
    both times); this tree reads about 736 KB and 3.6 MB."""
    data = TrialDataset.from_positions(48, range(-48, 49, 2))
    assert _traced_peak(lambda: mle_estimate(data)) <= 783_472
    wide = TrialDataset.from_positions(500, range(-500, 501, 2))
    assert _traced_peak(lambda: _scan(wide, (0.0, math.pi / 2), 601)) <= 7_545_453


@pytest.mark.parametrize("k, stride", [(24, 1), (100, 16), (200, 128)])
def test_float_return_scan_error_margin(k, stride):
    """The float q = p(0; k, lam) of the rows stays within 1e-14 of the
    exact one on a 2048-point lam grid (measured worst 1.3e-15 at k = 200,
    next to lam = 0).
    Large k checks every stride-th point and every point with |lam| < 0.01."""
    xs = np.linspace(-1.0, 1.0, 2048)
    if stride == 1:
        exact = exact_return_scan(k, -1.0, 1.0)[1]
    else:
        xs = xs[(np.arange(2048) % stride == 0) | (np.abs(xs) < 0.01)]
        exact = exact_grid(k, xs, [0])[:, 0]
    assert np.max(np.abs(_grid(k, xs, [0])[:, 0] - exact)) < 1e-14


_EDGE_LAMS = [0.0, -0.0, 1.0, -1.0, 2.0**-60, -(2.0**-60), 5e-324, -5e-324,
              2.2250738585072014e-308 / 3]


@given(k=st.integers(1, 60),
       lams=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(_EDGE_LAMS)),
                     min_size=1, max_size=20))
@example(k=200, lams=_EDGE_LAMS + [0.3, -0.7, 0.999])
@settings(max_examples=60, deadline=None)
def test_exact_return_points_are_the_rows_bit_for_bit(k, lams):
    """Horner on the cached coefficients gives the same integers as the
    rows, so every exact p(0; k, lam) is ``exact_grid``'s, sign of zero included."""
    want = exact_grid(k, lams, [0])[:, 0]
    assert _return_grid(k, lams).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 24, 41, 200, 500])
def test_return_poly_coefficients_are_the_y_polynomials(k):
    """The coefficients of q = p(0; k, lam) in mu = lam^2 are the even power
    coefficients of the Y series (``return_power_coeffs``), and give
    p(0; k, lam) as the Fraction series of ``y_poly`` does and as the exact
    integer rows of the recurrence do (Z_1^(k-1), Z_0^(k-2) of
    ``_iter_y_rows(a, b)``, entry 0 of each row at even k; at odd k both
    lie off their rows' parity class, and are zero)."""
    mu = _return_poly(k)
    assert len(mu) == k
    power = return_power_coeffs(k)
    assert list(mu) == power[::2] and not any(power[1::2])
    for lam in (Fraction(3, 7), Fraction(-5, 8), Fraction(1)):
        a, b = lam.as_integer_ratio()
        q = Fraction(0)
        for c in reversed(mu):
            q = q * lam * lam + c
        y1 = y_poly(1, k - 1, lam)
        y0 = y_poly(0, k - 2, lam) if k >= 2 else 0
        assert q == (1 - lam * lam) * y1 * y1 + (y0 - lam * y1) ** 2
        row_km1, row_km2 = next(islice(_iter_y_rows(a, b), k - 1, None))
        z1, z0 = (row_km1[0], row_km2[0]) if k % 2 == 0 else (0, 0)
        assert k % 2 == 0 or y1 == y0 == 0
        assert q == Fraction((b * b - a * a) * z1 * z1 + (b * b * z0 - a * z1) ** 2,
                             b ** (2 * k))


def test_return_poly_derivative_is_minus_2_lam_r_squared():
    """q_k'(lam) = -2 lam R_k(lam)^2 in integers, with n = k/2 and
    R_k(lam) = sum_{j=1..n} (-1)^(n-j) C(n, j) C(n+j-1, j-1) lam^(2j-2),
    on the power coefficients of q from the Y series, not from R_k."""
    for k in [*range(2, 121, 2), 200, 400]:
        n = k // 2
        r = np.zeros(2 * n - 1, object)
        r[::2] = [(-1) ** (n - j) * math.comb(n, j) * math.comb(n + j - 1, j - 1)
                  for j in range(1, n + 1)]
        derivative = [i * c for i, c in enumerate(return_power_coeffs(k))][1:]
        assert derivative == [0] + (-2 * np.convolve(r, r)).tolist(), k


def test_return_poly_runs_from_one_at_zero_to_zero_at_one():
    """q(0) = 1 and q(1) = 0 exactly, the ends of the one bisection of the
    level-set solve: the coefficients of q in lam^2 start at 1 and sum to 0,
    and the exact values at lam = 0, 1, -1 are 1, 0, 0."""
    for k in [*range(2, 121, 2), 200, 400]:
        mu = _return_poly(k)
        assert (mu[0], sum(mu)) == (1, 0), k
        assert _return_grid(k, [0.0, 1.0, -1.0]).tolist() == [1.0, 0.0, 0.0], k


def test_return_poly_cache_is_keyed_by_the_validated_k():
    _return_poly.cache_clear()
    _return_grid(24, [0.5])
    _return_grid(np.int64(24), [0.5])
    assert _return_poly.cache_info()[:2] == (1, 1)        # (hits, misses)
    for k in (24.0, True):
        with pytest.raises(ValueError, match="step count"):
            _return_grid(k, [0.5])
    assert _return_poly.cache_info()[:2] == (1, 1)
    assert _return_poly.cache_info().maxsize is not None


def test_return_poly_is_the_convolution_square():
    """The big-integer square of the packed |R_k| gives the coefficients
    that the signed object-array convolution gives."""
    for k in [*range(2, 121, 2), 200, 400, 1000]:
        assert _return_poly(k) == return_poly_by_convolution(k), k


@pytest.mark.parametrize("k", [2, 4, 8, 24, 100])
def test_return_grid_derivatives_are_the_exact_derivatives(k):
    """q' = 2 lam q_mu and q'' = 2 q_mu + 4 lam^2 q_mumu, from exact values
    of the mu-derivative coefficients, are the exact lam-derivatives of
    the Y-series polynomial to rounding: q' to 4 eps relative, q'' to
    4 eps of |2 q_mu| + |4 lam^2 q_mumu|."""
    lams = [0.0, 0.1, 0.37, 0.5, 0.81, 0.999, 1.0, -0.6]
    grid = _return_grid(k, lams, order=2)
    assert grid[0].tobytes() == _return_grid(k, lams).tobytes()
    first = poly_derivative(return_power_coeffs(k))
    in_lam = lambda c: [x for c_i in c for x in (c_i, 0)]       # mu = lam^2
    q_mu = in_lam(poly_derivative(_return_poly(k)))
    q_mumu = in_lam(poly_derivative(poly_derivative(_return_poly(k))))
    for lam, (q, dq, d2q) in zip(lams, grid.T.tolist()):
        assert dq == pytest.approx(poly_value(first, lam), rel=4 * 2.0**-52, abs=1e-300)
        scale = abs(2 * poly_value(q_mu, lam)) + abs(4 * lam * lam * poly_value(q_mumu, lam))
        assert abs(d2q - poly_value(poly_derivative(first), lam)) <= 4 * 2.0**-52 * scale


_RETURN_SWEEP = [0.0, -0.0, 5e-324, -5e-324, math.cos(math.pi / 2), 1.0 - 2.0**-53, 1.0, -1.0]


def _exact_return_jet(k, lams):
    """(q, q', q'') as ``_return_grid`` combines them, from Q, Q' and Q'' each
    at mu = lam^2 by ``poly_value``: exact Horner on the coefficients in
    lam, rounded once."""
    lams = np.asarray(lams, float)
    mu = list(_return_poly(k))
    in_lam = lambda c: [x for c_i in c for x in (c_i, 0)]       # mu = lam^2
    q, q_mu, q_mumu = (np.array([poly_value(in_lam(c), lam) for lam in lams.tolist()], float)
                       for c in (mu, poly_derivative(mu), poly_derivative(poly_derivative(mu))))
    return np.stack([q, 2.0 * lams * q_mu, 2.0 * q_mu + 4.0 * lams * lams * q_mumu])


@given(k=st.one_of(st.integers(1, 30), st.sampled_from([48, 100, 200])),
       lams=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(_RETURN_SWEEP),
                               st.floats(0.999, 1.0)), min_size=1, max_size=12))
@example(k=200, lams=_RETURN_SWEEP + [0.3, 0.7, 0.999999])
@example(k=1000, lams=[0.6883296828942322, 0.9999965730559848, -0.0, 1.0])
@settings(max_examples=40, deadline=None)
def test_return_grid_is_the_exact_horner_bit_for_bit(k, lams):
    """The fixed-point values of ``_return_grid`` at orders 0-2 are the exact
    Horner values correctly rounded, bit for bit and sign of zero included,
    on a lam sweep with +-0, +-5e-324, cos(pi/2), 1 - 2^-53 and +-1 (the
    two k = 1000 points give q near 1e-3 and 1e-6, small values)."""
    want = _exact_return_jet(k, lams)
    for order in (0, 1, 2):
        got = _return_grid(k, lams, order)
        assert got.tobytes() == (want[order] if order == 0 else want[:order + 1]).tobytes()


def test_return_value_falls_back_to_the_exact_pass(monkeypatch):
    """With no fixed-point bits past the error bound no bracket decides, so
    every value at lam != 0, +-1 runs the exact pass (P = 2e (n - 1)), and
    the values stay the same bit for bit."""
    lams = [0.3, -0.77, 0.5, 2.0**-60, 5e-324, 1.0 - 2.0**-53, 0.999]
    want = {k: _return_grid(k, lams, order=2) for k in (2, 8, 24, 100)}
    passes, fixed_point = [], pmf_module._horner

    def horner(c, u, shift, bits):
        passes.append(bits == shift * (len(c) - 1))
        return fixed_point(c, u, shift, bits)

    monkeypatch.setattr(pmf_module, "_RETURN_BITS", 0)
    monkeypatch.setattr(pmf_module, "_horner", horner)
    for k, grid in want.items():
        passes.clear()
        assert _return_grid(k, lams, order=2).tobytes() == grid.tobytes(), k
        assert passes.count(True) == 3 * len(lams), k


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_pmf_power_coeffs_are_the_rows(k):
    """The oracle polynomial of p(d; k, lam) gives the exact rows' values."""
    for lam in (0.3, -0.77, 1.0, 2.0**-60):
        ds = range(-k, k + 1, 2)
        assert [poly_value(pmf_power_coeffs(k, d), lam) for d in ds] == \
            [pmf_point(k, d, lam) for d in ds]


_KERNEL_FRACTIONS = [Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), Fraction(3, 8),
                     Fraction(math.cos(0.7))]


def test_integer_rows_are_the_power_series_exactly():
    """pmf_point on a Fraction, the integer rows through the exact kernel
    of ``_probabilities`` at bracket half-width 0, is the exact value of
    p(d; k, lam)'s integer power coefficients, by Horner's rule on
    Fractions, a route that builds no rows: every d in [-k - 1, k + 1] at
    every k <= 30, for dyadic and other lam.  pmf_full of Fraction(1, 3)
    gives each of those values rounded.  Neither ever falls back."""
    with mock.patch.object(pmf_module, "_exact_entries", side_effect=AssertionError):
        for k in range(1, 31):
            table = pmf_full(k, Fraction(1, 3)).table
            for d in range(-k - 1, k + 2):
                coeffs = pmf_power_coeffs(k, d)
                for lam in _KERNEL_FRACTIONS:
                    want = Fraction(0)
                    for c in reversed(coeffs):
                        want = want * lam + c
                    p = pmf_point(k, d, lam)
                    assert type(p) is Fraction and p == want, (k, d, lam)
                    if lam == Fraction(1, 3):
                        assert table.get(d, 0.0) == float(want), (k, d)


@given(k=st.integers(1, 40), lam=st.one_of(st.floats(-1.0, 1.0), st.sampled_from(_EDGE_LAMS)))
@example(k=60, lam=0.99999)
@example(k=10, lam=2.0**-60)        # entries down to the subnormal range
@settings(max_examples=60, deadline=None)
def test_derivative_rows_are_the_exact_rational_derivatives(k, lam):
    """p' and p'' of every column from the forward-mode rows match the
    exact rational derivatives of p's integer polynomial (from the Y
    series), within 1e-13 k^2 of |p^(n)| + k^n p (plus the smallest
    normal float, for values that underflow); p itself is the plain rows'
    value bit for bit."""
    ds = list(range(-k, k + 1, 2))
    grid = _grid(k, [lam], ds, order=2)[:, 0]
    assert grid[0].tobytes() == _grid(k, [lam], ds)[0].tobytes()
    for d, (p, dp, d2p) in zip(ds, grid.T.tolist()):
        coeffs = pmf_power_coeffs(k, d)
        exact_p = poly_value(coeffs, lam)
        for order, value in ((1, dp), (2, d2p)):
            coeffs = poly_derivative(coeffs)
            exact = poly_value(coeffs, lam)
            bound = 1e-13 * k * k * (abs(exact) + k**order * exact_p) + 2.0**-1022
            assert abs(value - exact) <= bound, (d, order)


@given(k=st.integers(1, 200), lam=st.one_of(st.floats(-1.0, 1.0), st.sampled_from(_EDGE_LAMS)))
@example(k=79, lam=1 - 2.0**-53)
@example(k=200, lam=-(1 - 2.0**-53))
@settings(max_examples=60, deadline=None)
def test_derivative_rows_sum_to_zero(k, lam):
    """The pmf sums to 1 for every lam, so its n-th lam-derivatives sum to
    0: to within 8 k^n eps of the sum of their magnitudes.

    k^2 for p'' comes from Markov's inequality: near |lam| = 1 a degree-k
    polynomial's n-th derivative reaches k^(2n) times its size.  So an
    entry of p'' there sums rounded terms Y Y'' and Y'^2 of size ~k^4
    into a value of size ~k^2, sum |p''| is ~k^3, and the errors of the
    k + 1 entries add up to ~k^2 eps of sum |p''|: 0.10 k^2 eps at lam =
    1 - 2^-53 for k = 20 to 200.  The sum of p' stayed within 2 k eps on
    the same scan (k <= 200, lam up to 1 - 2^-53)."""
    grid = _grid(k, [lam], list(range(-k, k + 1, 2)), order=2)[:, 0]
    for n, derivative in enumerate(grid[1:], start=1):
        assert abs(math.fsum(derivative)) <= 8 * k**n * 2.0**-52 * np.abs(derivative).sum()


@given(lam=rational_lam, k=st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_exact_normalization(lam, k):
    total = sum(pmf_point(k, d, lam) for d in range(-k, k + 1, 2))
    assert total == 1


def test_float_normalization_large_k():
    pmf = pmf_full(200, 0.95)
    assert pmf.total() == pytest.approx(1.0, abs=1e-10)
    assert all(0.0 <= p <= 1.0 for p in pmf.table.values())


@given(lam=st.floats(0.0, 1.0), k=st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_sign_of_lam_is_irrelevant(lam, k):
    assert pmf_full(k, lam).table == pmf_full(k, -lam).table


def test_parity_and_range_zeros():
    assert pmf_point(5, 2, 0.4) == 0.0
    assert pmf_point(5, 7, 0.4) == 0.0
    assert pmf_point_cosine_form(5, 2, 0.4) == 0.0
    full = pmf_full(5, 0.4)
    assert set(full.table) == set(range(-5, 6, 2))
    assert full.probability(2) == 0.0  # off support -> default


def test_argument_validation():
    with pytest.raises(ValueError):
        pmf_point(0, 0, 0.5)
    with pytest.raises(ValueError):
        pmf_point(3, 1, 1.5)
    with pytest.raises(ValueError):
        pmf_full(3, -1.2)
    with pytest.raises(ValueError):
        list(iter_pmf_full(0.5, 0))


@pytest.mark.parametrize("d", [1.5, 2.0, True, False, np.float64(0.0), "0"])
def test_pmf_point_rejects_a_displacement_that_is_not_an_int(d):
    with pytest.raises(ValueError, match="displacement d must be an integer"):
        pmf_point(4, d, 0.3)
    assert pmf_point(4, np.int64(2), 0.3) == pmf_point(4, 2, 0.3)


def test_nan_lam_and_bool_k_rejected():
    with pytest.raises(ValueError):
        pmf_full(True, 0.5)
    with pytest.raises(ValueError):
        pmf_full(4.0, 0.5)
    with pytest.raises(ValueError):
        pmf_point(4, 0, math.nan)
    with pytest.raises(ValueError):
        pmf_full(4, math.nan, exact=False)
    with pytest.raises(ValueError):
        list(iter_pmf_full(math.nan, 3))


@pytest.mark.parametrize("lam", [0.1, 0.35, 0.6, 0.8, 0.95, -0.6])
@pytest.mark.parametrize("k", [1, 2, 10, 30, 60])
def test_exact_entries_are_correctly_rounded(k, lam):
    table = pmf_full(k, lam).table
    for d in range(-k, k + 1, 2):
        want = float(pmf_point(k, d, Fraction(lam)))
        assert table[d] == want, (k, lam, d)
        assert pmf_point(k, d, lam) == want, (k, lam, d)


@pytest.mark.parametrize("lam", [1 - 2.0**-53, -(1 - 2.0**-53), 2.0**-60, 5e-324, 0.6123,
                                 Fraction(1, 3)])
@pytest.mark.parametrize("k", [150, 200])
def test_large_k_exact_entries_are_the_rounded_rationals(k, lam):
    """The bracketed rounding gives float() of the exact rationals of the
    integer rows, dyadic (every float lam) and not (lam = 1/3).  Each
    rational is read as its exact numerator over its denominator in one
    correctly rounded int division, which is its float(), without building
    the Fraction."""
    a, b = pmf_module._ratio(lam)
    rows, ds = pmf_module._rows_for(k, a, b), range(-k, k + 1, 2)
    with mock.patch.object(pmf_module, "_fraction", lambda num, den: num / den):
        want = pmf_module._probabilities(k, a, b, rows, ds, rational=True).tolist()
    assert list(pmf_full(k, lam).table.values()) == want


def _integer_rows_tables(lam, ks) -> dict:
    """{k: float() of p(d; k, lam) for d = -k, -k + 2, ..., k} for each k
    in ``ks``, from one pass of the exact integer rows; each rational is
    read as its numerator over its denominator in one correctly rounded
    int division."""
    a, b = pmf_module._ratio(lam)
    want = {}
    with mock.patch.object(pmf_module, "_fraction", lambda num, den: num / den):
        for k, rows in enumerate(islice(_iter_y_rows(a, b), max(ks)), start=1):
            if k in ks:
                want[k] = pmf_module._probabilities(k, a, b, rows, range(-k, k + 1, 2),
                                                    rational=True).tolist()
    return want


def _spy_fallback():
    return mock.patch.object(pmf_module, "_exact_entries", wraps=pmf_module._exact_entries)


def test_exact_fallback_runs_on_the_ties_only():
    """At lam = 0.5, k = 30, p(-4) and p(4) are odd 54-bit numerators over
    2^58: each lies on a rounding midpoint, which no bracket can decide.
    The exact rows run once, on exactly those two entries, and the ties
    round to even; pmf_point falls back on its one d = 4."""
    with _spy_fallback() as fallback:
        table = pmf_full(30, 0.5).table
        point = pmf_point(30, 4, 0.5)
    assert [(c.args[:3], list(c.args[3])) for c in fallback.call_args_list] == [
        ((30, 1, 2), [-4, 4]), ((30, 1, 2), [4])]
    for d, numerator in ((-4, 12859514773239225), (4, 10254769589570925)):
        assert pmf_point(30, d, Fraction(1, 2)) == Fraction(numerator, 2**58)
        below, above = numerator - 1, numerator + 1      # the two floats beside it
        even = below if below >> 1 & 1 == 0 else above
        assert table[d] == even / 2**58
    assert point == table[4]


# odd 54-bit integers, each halfway between two floats: the tie rounds down
# to the even neighbour 2^53 for the first and up to 2^53 + 4 for the second
_MIDPOINTS = [(1 << 53) + 1, (1 << 53) + 3]


@pytest.mark.parametrize("midpoint", _MIDPOINTS)
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("square", ["z", "w"])
def test_square_sum_ratio_falls_back_at_a_midpoint(midpoint, offset, square):
    """For a numerator just below, on or just above a float midpoint, the
    fixed-point bracket straddles the midpoint, so the exact integer rows
    decide: below rounds down, above up and the tie to even.  At lam = a/b
    with b - a = 1 and b + a = m (the midpoint), g = b^2 - a^2 = m and
    a^2 + m = b^2, so at P = 700 the synthetic rows (Z^(2), Z^(1)) give
    p(1; 3, lam) = m 2^-54 exactly, with the offset on z or on w, and the
    fallback reads the same Y rows as integer rows of lam = (a 2^P)/(b 2^P)."""
    bits, q = 700, 700 - 27
    a, b = (midpoint - 1) // 2, (midpoint + 1) // 2
    if square == "z":
        z_a, w = (b << q) + offset, 0
    else:
        z_a, w = a << q, (midpoint << q) + offset
    z_b = z_c = w                                       # b z_b - a z_c = w
    rows = (np.array([z_a, z_c], object), np.array([z_b], object))
    exact_rows = (rows[0] * (b * b << bits), rows[1] * b)

    def exact_entries(k, a_, b_, ds):
        return pmf_module._probabilities(k, a_ << bits, b_ << bits, exact_rows, ds)

    with mock.patch.object(pmf_module, "_exact_entries", side_effect=exact_entries) as fallback:
        (value,) = pmf_module._probabilities(3, a, b, rows, [1], bits=bits).tolist()
    assert [(c.args[:3], list(c.args[3])) for c in fallback.call_args_list] == [((3, a, b), [1])]
    assert value == float(Fraction(midpoint * z_a * z_a + w * w, b * b << 2 * bits))
    even = min(midpoint - 1, midpoint + 1, key=lambda n: n >> 1 & 1)
    assert value == {-1: midpoint - 1, 0: even, 1: midpoint + 1}[offset] / 2**54


@pytest.mark.parametrize("lam", [0.6123, -0.6123, 0.5, 0.0, 1.0, -1.0, 5e-324])
@pytest.mark.parametrize("z_a, z_b, z_c", [
    (0, 5**300, 0),
    (3**440, 0, 0),
    (0, 0, 0),
    (-(3**440), -(5**300), 7**245),
    (3**440, 5**300, 2 * 5**300),       # w = b z_b - a z_c is 0 at lam = 1/2
], ids=["zero-z", "zero-w", "zero-both", "signed", "cancelling-w"])
def test_bracket_rounds_zero_and_signed_bases(z_a, z_b, z_c, lam):
    """The bracket of a fixed-point entry decides the float of its centre,
    the rows taken as they are: with the rows (Z^(2), Z^(1)) = ([z_a,
    z_c], [z_b]) at P = 700 bits, p(1; 3, lam) is (b^2 - a^2) z_a^2 + (b
    z_b - a z_c)^2 over b^2 2^1400, correctly rounded, for zero and
    negative bases and a cancelling w."""
    a, b = Fraction(lam).as_integer_ratio()
    rows = (np.array([z_a, z_c], object), np.array([z_b], object))
    with mock.patch.object(pmf_module, "_exact_entries", side_effect=AssertionError):
        (p,) = pmf_module._probabilities(3, a, b, rows, [1], bits=700).tolist()
    centre = (b * b - a * a) * z_a * z_a + (b * z_b - a * z_c) ** 2
    assert p == centre / (b * b << 1400)


def test_exact_rounding_seldom_squares_in_full():
    """The bracket decides all but a few entries: at k = 150 the exact
    integer rows run for at most 1 % of them."""
    lams = np.linspace(-0.99, 0.99, 20).tolist()
    with _spy_fallback() as fallback:
        entries = sum(len(pmf_full(150, lam).table) for lam in lams)
    assert sum(len(c.args[3]) for c in fallback.call_args_list) <= entries // 100


_EDGE_LAMS = [1.0, -1.0, 0.0, -0.0, 5e-324, 2.0**-60, 1e-5, 0.001, 0.5, 1 - 2.0**-53,
              -(1 - 2.0**-53)]


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 300), lam=st.one_of(st.sampled_from(_EDGE_LAMS), st.floats(-1.0, 1.0)),
       picks=st.lists(st.integers(0, 300), max_size=3))
@example(k=30, lam=2.0**-60, picks=[20])                # p(10) is subnormal
@example(k=60, lam=1e-5, picks=[13, 47])                # p(-34), p(34)
@example(k=60, lam=0.001, picks=[3, 57, 58])            # p(-54), p(54), p(56)
@example(k=30, lam=0.5, picks=[13, 17])                 # the ties p(-4), p(4)
@example(k=2, lam=-1.0, picks=[0, 1, 2])
def test_fixed_point_tables_are_the_integer_rows_bit_for_bit(k, lam, picks):
    """pmf_full, pmf_point on a float lam and iter_pmf_full(exact=True)
    each give float() of the integer rows' exact rationals: pmf_point at
    d = -k + 2 (i mod (k + 1)) for each i in ``picks``, iter_pmf_full at
    k and k // 2."""
    want = _integer_rows_tables(lam, {max(k // 2, 1), k})
    assert list(pmf_full(k, lam).table.values()) == want[k]
    assert {pmf.k: list(pmf.table.values())
            for pmf in iter_pmf_full(lam, k) if pmf.k in want} == want
    for i in picks:
        assert pmf_point(k, -k + 2 * (i % (k + 1)), lam) == want[k][i % (k + 1)]


@pytest.mark.parametrize("lam, k", [(2.0**-60, 30), (1e-5, 60), (0.001, 60), (0.05, 150)])
def test_fixed_point_rounds_subnormal_entries(lam, k):
    """Tables whose entries reach the subnormal range (down to 5e-324 at
    lam = 0.001, k = 60) are the integer rows' tables bit for bit."""
    want = _integer_rows_tables(lam, {k})[k]
    assert any(0.0 < p < sys.float_info.min for p in want)
    assert list(pmf_full(k, lam).table.values()) == want


@pytest.mark.parametrize("lam", [math.cos(0.7), 0.5, -0.75])
def test_fixed_point_tables_at_k_1000(lam):
    want = _integer_rows_tables(lam, {1000})[1000]
    assert list(pmf_full(1000, lam).table.values()) == want
    for d in (-1000, -2, 0, 500, 1000):
        assert pmf_point(1000, d, lam) == want[(d + 1000) // 2]


@pytest.mark.parametrize("k, lam", [(1, 0.3), (7, 0.6123), (30, -0.3), (60, 0.001),
                                    (40, 1.0), (120, math.cos(1.2))])
def test_a_tiny_fixed_point_falls_back_and_keeps_every_bit(k, lam):
    """With P cut to a few bits past the error bound the bracket decides
    hardly any entry, and the fallback keeps every table bit-identical."""
    want = _integer_rows_tables(lam, {k})[k]
    with mock.patch.object(pmf_module, "_FIXED_BITS", 2), _spy_fallback() as fallback:
        table = list(pmf_full(k, lam).table.values())
        first = fallback.call_args_list[:1]
        assert [list(pmf.table.values()) for pmf in iter_pmf_full(lam, k)][-1] == want
        assert [pmf_point(k, d, lam) for d in (-k, k - 2, k)] == [want[0], want[-2], want[-1]]
    assert table == want
    assert k == 1 or len(first[0].args[3]) > (k + 1) // 2


@pytest.mark.parametrize("lam", [math.cos(0.7), -0.95, 1.0, 2.0**-60, 1 - 2.0**-53, 0.001])
def test_fixed_point_rows_stay_within_the_proven_bound(lam):
    """|Z - Y * 2^P| of every fixed-point row j < 300, measured against the
    exact integer rows Z' = b^j Y as |Z b^j - Z' 2^P| / b^j, stays within
    ``_row_error(j + 1)`` units, the bound proven in ``_probabilities``."""
    a, b = Fraction(lam).as_integer_ratio()
    worst = 0.0
    rows = zip(_iter_y_rows(a, b, bits=64), _iter_y_rows(a, b))
    for j, ((fixed, _), (exact, _)) in enumerate(islice(rows, 300)):
        scale = b**j
        error = max(abs(f * scale - (z << 64)) for f, z in zip(fixed, exact))
        bound = pmf_module._row_error(j + 1)
        assert error <= bound * scale, (j, error / scale, bound)
        worst = max(worst, error / scale / max(bound, 1))
    assert lam == 1.0 or worst > 0.0                    # the floors did lose


def test_the_row_error_bound_covers_the_proven_sum():
    """``_row_error(k)`` is at least sum_{i=1..k-1} (k - i) sqrt(i + 1), the
    bound the proof in ``_probabilities`` gives on row k - 1, and at most
    (sqrt(k) + 1) k^2 / 2."""
    for k in (1, 2, 3, 10, 150, 1000):
        bound = pmf_module._row_error(k)
        assert sum((k - i) * math.sqrt(i + 1) for i in range(1, k)) <= bound
        assert bound <= (math.sqrt(k) + 1) * k * k / 2


def test_a_dyadic_fraction_point_is_reduced_without_a_long_gcd():
    """pmf_point(150, 0, Fraction(5e-324)) has a numerator and a denominator
    of some 320,000 bits, whose gcd alone took 0.2 s; its reduced Fraction
    has an odd numerator over a power of two, the same value as the
    unreduced pair, and no gcd runs on a pair of long integers."""
    lam = Fraction(5e-324)
    gcd, long_pairs = math.gcd, []
    def logged_gcd(x, y):
        if min(x.bit_length(), y.bit_length()) > 1000:
            long_pairs.append((x.bit_length(), y.bit_length()))
        return gcd(x, y)
    with mock.patch("fractions.math.gcd", logged_gcd):
        p = pmf_point(150, 0, lam)
    assert long_pairs == []
    den = p.denominator
    assert den & (den - 1) == 0 and p.numerator % 2 == 1
    assert den.bit_length() > 300_000
    assert float(p) == pmf_point(150, 0, 5e-324)
    a, b = lam.as_integer_ratio()
    with mock.patch.object(pmf_module, "_fraction", lambda num, den: (num, den)):
        (num, full_den), = pmf_module._probabilities(
            150, a, b, pmf_module._rows_for(150, a, b, [0]), [0], rational=True).tolist()
    assert num * den == p.numerator * full_den            # the same value


@settings(max_examples=200, deadline=None)
@given(num=st.integers(-(2**300), 2**300), den_twos=st.integers(0, 300),
       den_odd=st.sampled_from([1, 1, 3, 7, 45, 3**50]))
@example(num=0, den_twos=40, den_odd=1)
@example(num=5 << 40, den_twos=40, den_odd=1)
def test_fraction_is_unchanged_by_shifting_out_its_twos(num, den_twos, den_odd):
    den = den_odd << den_twos
    got, want = pmf_module._fraction(num, den), Fraction(num, den)
    assert (type(got), got.numerator, got.denominator) == (Fraction, want.numerator,
                                                           want.denominator)


def test_moment_helpers():
    pmf = pmf_full(1, 0.5)
    assert pmf.mean() == pytest.approx(1 - 2 * 0.25)
    assert pmf.variance() == pytest.approx(1 - (1 - 2 * 0.25) ** 2)
    assert pmf.std() == pytest.approx(math.sqrt(pmf.variance()))
    assert pmf.support == [-1, 1]


def test_iter_matches_single_calls():
    singles = [pmf_full(k, 0.41) for k in range(1, 9)]
    for got, want in zip(iter_pmf_full(0.41, 8), singles):
        assert got.k == want.k
        assert got.table == want.table


def test_float_rows_track_exact_rows():
    fast = pmf_full(60, 0.9, exact=False)
    slow = pmf_full(60, 0.9, exact=True)
    for d in fast.table:
        assert fast.probability(d) == pytest.approx(slow.probability(d), abs=1e-12)


def test_reluctance_profile():
    # the artifact rows key each entry by the reluctance r = d/k as well as d
    rows = pmf_to_json(pmf_full(4, 0.6))["rows"]
    assert [row["r"] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert rows[0]["p"] == pmf_full(4, 0.6).probability(-4)


def test_csv_round_trip():
    pmf = pmf_full(5, 0.31)
    text = pmf_to_csv(pmf, meta={"command": "pmf", "convention_sigma": CONVENTION_SIGMA})
    assert text.startswith("# command: pmf\n")
    assert "k,d,r,lambda,p" in text
    back = pmf_from_csv(text)
    assert back.k == pmf.k
    assert back.lam == pmf.lam
    assert back.table == pmf.table


def test_csv_round_trip_without_lam():
    pmf = position_pmf(evolve(WalkState.origin(), CoinParameter(0.8), 3))
    back = pmf_from_csv(pmf_to_csv(pmf))
    assert back.lam is None
    assert back.table == pmf.table


def test_csv_rejects_garbage():
    with pytest.raises(ValueError):
        pmf_from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        pmf_from_csv("k,d,r,lambda,p\n")


@pytest.mark.parametrize("text, reason", [
    ("k,d,r,lambda,p\n1,2\n", "5 cells"),
    ("k,d,r,lambda,p\n1,-1,-1,0.5,0.25,9\n", "5 cells"),
    ("k,d,r,lambda,p\n1,x,-1,0.5,0.25\n", "malformed pmf row"),
])
def test_csv_rejects_malformed_rows(text, reason):
    with pytest.raises(ValueError, match=reason):
        pmf_from_csv(text)


@pytest.mark.parametrize("obj, reason", [
    ({"meta": {"command": "estimate"}, "result": {}, "dataset": {}}, "no 'rows'"),
    ([1, 2], "no 'rows'"),
    ('{"meta": {}, "rows": []}', "no data rows"),
    ({"meta": {}, "rows": [{"theta": 0.1, "lambda": 0.99, "loglik": -3.0}]}, "malformed"),
    ({"meta": {}, "rows": [{"k": 1, "d": None, "r": 0, "lambda": 0.5, "p": 1}]}, "malformed"),
    ({"meta": {}, "rows": [[1, -1, -1, 0.5, 0.25]]}, "malformed"),
    ({"meta": {}, "rows": [{"k": 2, "d": 0.9, "r": 0, "lambda": 0.5, "p": 1.0}]},
     "not an integer: 0.9"),
    ({"meta": {}, "rows": [{"k": 2.5, "d": 0, "r": 0, "lambda": 0.5, "p": 1.0}]},
     "not an integer: 2.5"),
    ('{"meta": {}, "rows": [{"k": 2, "d": Infinity, "r": 0, "lambda": 0.5, "p": 1}]}',
     "not an integer: inf"),
])
def test_json_rejects_non_mirrors(obj, reason):
    with pytest.raises(ValueError, match=reason):
        pmf_from_json(obj)


def test_json_reads_integral_floats():
    row = {"k": 2.0, "d": -0.0, "r": 0.0, "lambda": 0.5, "p": 1.0}
    assert pmf_from_json({"meta": {}, "rows": [row]}) == Pmf(2, {0: 1.0}, lam=0.5)


@pytest.mark.parametrize("value, want", [
    (math.nan, None),
    (math.inf, None),
    (-math.inf, None),
    (np.float64(0.1), 0.1),
    (np.float64(np.nan), None),
    (np.int64(-7), -7),
    (np.bool_(True), True),
    (((1, np.int64(2)), (np.float64(-np.inf), "a")), [[1, 2], [None, "a"]]),
    ([None, 3, "x"], [None, 3, "x"]),
])
def test_json_safe(value, want):
    got = _json_safe(value)
    assert got == want
    assert type(got) is type(want)
    if isinstance(got, list):
        assert [type(x) for x in got] == [type(x) for x in want]


def test_json_round_trip():
    pmf = pmf_full(7, -0.64)
    obj = pmf_to_json(pmf, meta={"seed": 5})
    assert obj["meta"] == {"seed": 5}
    assert pmf_to_json(pmf)["meta"] == {}
    back = pmf_from_json(obj)
    assert back.k == pmf.k and back.lam == pmf.lam and back.table == pmf.table


_CELLS = {
    "int": st.integers(-10**20, 10**20),
    "int_bool": st.one_of(st.integers(-10**20, 10**20), st.booleans()),
    "float": st.floats(),                                   # NaN, +-inf and -0.0 too
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "nonfinite": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([math.nan, math.inf, -math.inf])),
    "float_np": st.one_of(st.floats(), st.floats().map(np.float64)),
    "mixed": st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.text(st.sampled_from('ab,"\' \u00e9\u2713\n%')),
        st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.lists(st.one_of(st.integers(), st.floats()), max_size=3).map(tuple),
        st.just({"nested": [1, {"x": None}]})),
}


@st.composite
def _tables(draw):
    columns = draw(st.lists(st.text(st.sampled_from("kdp_\u00e9\"%"), min_size=1, max_size=4),
                            min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(sorted(_CELLS))) for _ in columns]
    rows = draw(st.lists(st.tuples(*(_CELLS[kind] for kind in kinds)), max_size=6))
    meta = draw(st.dictionaries(st.sampled_from(["version", "k", "lambda", "\u00e9", "%d"]),
                                st.one_of(st.integers(), st.floats(),
                                          st.text(st.sampled_from("a%s\u00e9"), max_size=3))))
    return meta, columns, [dict(zip(columns, row)) for row in rows]


# columns of one object repeated (formatted once) beside columns of distinct
# objects that compare equal, 0.0 and -0.0, which must keep their own text
_ONE_LAM, _ONE_BIG, _ONE_NAN, _ONE_TUPLE = float("0.6"), 10**20 + 1, float("nan"), (1, -0.0)
_REPEATS = [{"k": _ONE_BIG, "lambda": _ONE_LAM, "nan": _ONE_NAN, "t": _ONE_TUPLE, "z": z,
             "zz": -z} for z in (0.0, -0.0, 0.0, -0.0)]
# a table past 2000 rows: one-object, int, float, float-with-non-finite and
# numpy-among-float columns, and one object whose text holds a %
_LONG = [{"k": _ONE_BIG, "d": d, "r": d / 1000, "lambda": _ONE_LAM, "%s": "50%",
          "p": math.exp(-d * d / 1e5) if d % 7 else -math.inf,
          "x": np.float64(d) if d % 3 else d / 3} for d in range(-1000, 1001)]


@given(table=_tables())
@example(table=({"k": 3}, ["k", "lambda", "nan", "t", "z", "zz"], _REPEATS))
@example(table=(None, ["z", "lambda"], _REPEATS[:1]))
@example(table=(None, ["zz", "k"], _REPEATS[1:3]))
@example(table=({"%d": "100%"}, ["k", "%s", "p"], []))
@example(table=({"k": 1000}, list(_LONG[0]), _LONG))
@settings(max_examples=200, deadline=None)
def test_artifact_text_equals_the_per_cell_writers(table):
    """The column writers give the per-cell writers' text on the same rows."""
    meta, names, rows = table
    columns = {c: [row[c] for row in rows] for c in names}
    assert _csv_text(meta, columns) == csv_text_per_cell(meta, names, rows)
    assert _mirror_text(meta, columns) == mirror_text_by_encoder(meta, names, rows)


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 1e-17, 123456.789):
        assert float(format_float(x)) == x


def test_table_sorted_on_construction():
    pmf = Pmf(2, {2: 0.3, -2: 0.4, 0: 0.3}, lam=None)
    assert pmf.support == [-2, 0, 2]
