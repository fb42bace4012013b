"""Closed-form pmf tests.

The state-vector simulator is the oracle: every analytic route must
reproduce it (up to the documented axis reflection), the three routes
must agree with each other, and exact rational inputs must normalize
to exactly 1.
"""

import math
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
    reluctance_profile,
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
from reluctant_walk.walk import CoinParameter, WalkState, evolve, position_pmf

from oracles import (csv_text_per_cell, exact_return_scan, mirror_text_by_encoder,
                     pmf_even_closed, pmf_point_cosine_form, return_power_coeffs, y_poly)

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
    grid = _grid(k, np.array(lams), ds, exact)
    assert grid.shape == (len(lams), len(ds))
    for lam, row in zip(lams, grid.tolist()):
        assert row == list(pmf_full(k, lam, exact=exact).table.values())


@given(k_ds=st.integers(1, 60).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.integers(-k, k), min_size=1, max_size=4))),
       lams=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20), exact=st.booleans())
@settings(max_examples=40, deadline=None)
def test_grid_columns_on_a_light_cone_are_pmf_full_entries(k_ds, lams, exact):
    # a few columns near d = 0 run the rows trimmed to their light cone
    k, ds = k_ds
    grid = _grid(k, np.array(lams), ds, exact)
    for lam, row in zip(lams, grid.tolist()):
        table = pmf_full(k, lam, exact=exact)
        assert row == [table.probability(d) for d in ds]


@given(k_ds=st.integers(1, 40).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.integers(-k - 3, k + 3), min_size=1, max_size=6))),
       lams=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_grid_columns_beyond_the_support_are_pmf_point(k_ds, lams):
    # a column with |d| > k or off parity reads p = 0, as pmf_point does
    k, ds = k_ds
    exact, fast = _grid(k, np.array(lams), ds, True), _grid(k, np.array(lams), ds, False)
    for lam, row, row_fast in zip(lams, exact.tolist(), fast.tolist()):
        points = [pmf_point(k, d, lam) for d in ds]
        assert row == points
        assert row_fast == pytest.approx(points, abs=1e-12)
        assert all(p == 0.0 for d, p in zip(ds, row_fast) if abs(d) > k or (k - d) % 2)


def _float_passes(k, lams, ds):
    """``_grid(k, lams, ds, exact=False)`` and the lam count of each of its
    row-engine passes."""
    with mock.patch.object(pmf_module, "_rows_for", wraps=pmf_module._rows_for) as rows_for:
        grid = _grid(k, lams, ds, exact=False)
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
    (24, 2048, [0], 5),                           # a 2048-point return grid
    (48, 601, list(range(-48, 49, 2)), 5),        # the theta scan of a positions estimate
])
def test_float_scans_take_few_row_passes(k, points, ds, most):
    _, passes = _float_passes(k, np.linspace(0.0, 1.0, points), ds)
    assert sum(passes) == points and len(passes) <= most


def test_float_grid_blocks_match_single_points():
    # 2048 values of lam span 8 float passes; each row is computed alone
    lams = np.linspace(-1.0, 1.0, 2048)
    grid = _grid(24, lams, [0, 2, -24], exact=False)
    single = np.vstack([_grid(24, [lam], [0, 2, -24], exact=False) for lam in lams])
    assert np.array_equal(grid, single)


def test_float_return_scan_memory_stays_blocked():
    lams = np.linspace(-1.0, 1.0, 2048)
    tracemalloc.start()
    try:
        _grid(200, lams, [0], exact=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
        exact = _grid(k, xs, [0], exact=True)[:, 0]
    assert np.max(np.abs(_grid(k, xs, [0], exact=False)[:, 0] - exact)) < 1e-14


@pytest.mark.parametrize("k, stride", [(24, 1), (100, 16), (200, 128)])
def test_clenshaw_return_scan_error_margin(k, stride):
    """Clenshaw's sum of the cached Chebyshev series of p(0; k, lam) stays
    within 1e-14 of the exact value on the points of
    test_float_return_scan_error_margin (measured worst 6.7e-16 at k = 200)."""
    xs = np.linspace(-1.0, 1.0, 2048)
    if stride == 1:
        exact = exact_return_scan(k, -1.0, 1.0)[1]
    else:
        xs = xs[(np.arange(2048) % stride == 0) | (np.abs(xs) < 0.01)]
        exact = _grid(k, xs, [0], exact=True)[:, 0]
    assert np.max(np.abs(_return_grid(k, xs, exact=False) - exact)) < 1e-14


_EDGE_LAMS = [0.0, -0.0, 1.0, -1.0, 2.0**-60, -(2.0**-60), 5e-324, -5e-324,
              2.2250738585072014e-308 / 3]


@given(k=st.integers(1, 60),
       lams=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(_EDGE_LAMS)),
                     min_size=1, max_size=20))
@example(k=200, lams=_EDGE_LAMS + [0.3, -0.7, 0.999])
@settings(max_examples=60, deadline=None)
def test_exact_return_points_are_the_rows_bit_for_bit(k, lams):
    """Horner on the cached coefficients gives the same integers as the
    rows, so every exact p(0; k, lam) is ``_grid``'s, sign of zero included."""
    want = _grid(k, lams, [0], exact=True)[:, 0]
    assert _return_grid(k, lams, exact=True).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 24, 41, 200, 500])
def test_return_poly_coefficients_are_the_y_polynomials(k):
    """The coefficients of q = p(0; k, lam) in mu = lam^2 are the even power
    coefficients of the Y series (``return_power_coeffs``), and give
    p(0; k, lam) as the Fraction series of ``y_poly`` does and as the exact
    integer rows of the recurrence do (Z_1^(k-1), Z_0^(k-2) of
    ``_iter_y_rows(a, b)``)."""
    mu, cheb = _return_poly(k)
    assert (len(mu), len(cheb)) == (k, 2 * k - 1)
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
        z1, z0 = (row_km1[1], row_km2[0]) if k >= 2 else (0, 0)
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
        mu = _return_poly(k)[0]
        assert (mu[0], sum(mu)) == (1, 0), k
        assert _return_grid(k, [0.0, 1.0, -1.0], exact=True).tolist() == [1.0, 0.0, 0.0], k


def test_return_poly_cache_is_keyed_by_the_validated_k():
    _return_poly.cache_clear()
    _return_grid(24, [0.5], exact=True)
    _return_grid(np.int64(24), [0.5], exact=False)
    assert _return_poly.cache_info()[:2] == (1, 1)        # (hits, misses)
    for k in (24.0, True):
        with pytest.raises(ValueError, match="step count"):
            _return_grid(k, [0.5], exact=True)
    assert _return_poly.cache_info()[:2] == (1, 1)
    assert _return_poly.cache_info().maxsize is not None


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
    prof = reluctance_profile(4, 0.6)
    assert [r for r, _ in prof] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert prof[0][1] == pmf_full(4, 0.6).probability(-4)


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
    "float": st.floats(),                                   # NaN, +-inf and -0.0 too
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "mixed": st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.text(st.sampled_from('ab,"\' \u00e9\u2713\n')),
        st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.lists(st.one_of(st.integers(), st.floats()), max_size=3).map(tuple),
        st.just({"nested": [1, {"x": None}]})),
}


@st.composite
def _tables(draw):
    columns = draw(st.lists(st.text(st.sampled_from("kdp_\u00e9\""), min_size=1, max_size=4),
                            min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(sorted(_CELLS))) for _ in columns]
    rows = draw(st.lists(st.tuples(*(_CELLS[kind] for kind in kinds)), max_size=6))
    meta = draw(st.dictionaries(st.sampled_from(["version", "k", "lambda", "\u00e9"]),
                                st.one_of(st.integers(), st.floats(), st.text(max_size=3))))
    return meta, columns, [dict(zip(columns, row)) for row in rows]


@given(table=_tables())
@settings(max_examples=200, deadline=None)
def test_artifact_text_equals_the_per_cell_writers(table):
    meta, columns, rows = table
    assert _csv_text(meta, columns, rows) == csv_text_per_cell(meta, columns, rows)
    assert _mirror_text(meta, columns, rows) == mirror_text_by_encoder(meta, columns, rows)


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 1e-17, 123456.789):
        assert float(format_float(x)) == x


def test_table_sorted_on_construction():
    pmf = Pmf(2, {2: 0.3, -2: 0.4, 0: 0.3}, lam=None)
    assert pmf.support == [-2, 0, 2]
