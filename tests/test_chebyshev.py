import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reluctant_walk.chebyshev import _chebyshev_u_pair, _iter_y_rows

from oracles import (chebyshev_identity_suite, chebyshev_u, chebyshev_u_pair,
                     chebyshev_u_stepwise, hyp2f1_terminating, y_poly, y_poly_quadrature)


def test_chebyshev_u_base_cases():
    assert chebyshev_u(0, 0.7) == 1.0
    assert chebyshev_u(1, 0.7) == pytest.approx(1.4, abs=1e-15)
    assert chebyshev_u(2, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_chebyshev_u_rejects_negative_degree():
    with pytest.raises(ValueError):
        chebyshev_u(-1, 0.5)


@pytest.mark.parametrize("degree", [True, 2.0, np.int64(3)])
def test_degrees_must_be_integers(degree):
    """A bool (an int subclass, so U_1 before) or a float degree raises
    ValueError, in ``chebyshev_u`` and in the identity suite's r; a numpy
    integer is an integer."""
    if isinstance(degree, np.integer):
        assert chebyshev_u(degree, 0.5) == chebyshev_u(3, 0.5)
        assert chebyshev_identity_suite(degree, 0.3) == chebyshev_identity_suite(3, 0.3)
        return
    with pytest.raises(ValueError, match="must be an integer"):
        chebyshev_u(degree, 0.5)
    with pytest.raises(ValueError, match="must be an integer"):
        chebyshev_identity_suite(degree, 0.3)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 50, 100, 200])
def test_chebyshev_u_trig_identity(n):
    """U_n(x) = sin((n+1) arccos x)/sin(arccos x) within 1e-12 on [-1, 1]."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    xs = np.concatenate([np.linspace(-0.9999999, 0.9999999, 81), [-0.999, 0.999]])
    for x in xs:
        x = float(x)
        th = mpmath.acos(mpmath.mpf(x))
        ref = float(mpmath.sin((n + 1) * th) / mpmath.sin(th))
        assert abs(chebyshev_u(n, x) - ref) < 1e-12
    # endpoints via the limit value
    assert chebyshev_u(n, 1.0) == pytest.approx(n + 1, abs=1e-12)
    assert chebyshev_u(n, -1.0) == pytest.approx((-1) ** n * (n + 1), abs=1e-12)


def test_chebyshev_u_vectorized_matches_scalar():
    x = np.linspace(-1, 1, 17)
    vec = chebyshev_u(7, x)
    assert_allclose(vec, [chebyshev_u(7, float(v)) for v in x], atol=1e-12)


def test_chebyshev_u_exact_on_fractions():
    # U_3(x) = 8x^3 - 4x
    x = Fraction(1, 3)
    assert chebyshev_u(3, x) == 8 * x**3 - 4 * x


@pytest.mark.parametrize("x", [0.3, np.float64(-0.7), Fraction(2, 7),
                               np.linspace(-1.0, 1.0, 11)], ids=repr)
def test_chebyshev_u_pair_is_two_consecutive_degrees(x):
    """One pass gives U_n and U_{n-1}, equal to two separate evaluations
    (U_{-1} = 0), with the type and precision of ``chebyshev_u``: the
    package's pair on a float array, the oracle's copy on the other types."""
    pair = _chebyshev_u_pair if isinstance(x, np.ndarray) else chebyshev_u_pair
    u, u_prev = pair(0, x)
    assert np.all(u == 1) and np.all(u_prev == 0)
    for n in (1, 2, 3, 17, 120):
        u, u_prev = pair(n, x)
        assert type(u) is type(chebyshev_u(n, x))
        assert np.array_equal(u, chebyshev_u(n, x))
        assert np.array_equal(u_prev, chebyshev_u(n - 1, x))
    with pytest.raises(ValueError):
        chebyshev_u_pair(-1, x)


@pytest.mark.parametrize("n", [0, 1, 2, 499, 999])
def test_u_pair_is_the_stepwise_recurrence_bit_for_bit(n):
    """Forming 2x once changes no value: (2 * x) * u is what 2 * x * u
    computes.  The package's pair on float arrays over the channel's 1024
    nodes (signs of zeros included); the oracle's copy on
    extended-precision scalars rounded once, and on Fractions."""
    x = 0.6 * np.cos(2 * np.pi * np.arange(1024) / 1024)
    x[[0, 1]] = 0.0, -0.0
    for got, want in zip(_chebyshev_u_pair(n, x), chebyshev_u_stepwise(n, x)):
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
    for value in (0.3, -0.999, 1.0, -1.0, 0.0, -0.0):
        want = [float(v) for v in chebyshev_u_stepwise(n, np.longdouble(value))]
        for x_scalar in (value, np.longdouble(value)):
            got = chebyshev_u_pair(n, x_scalar)
            assert [math.copysign(1, v) for v in got] == [math.copysign(1, v) for v in want]
            assert list(got) == want
    assert chebyshev_u_pair(n, Fraction(-3, 7)) == chebyshev_u_stepwise(n, Fraction(-3, 7))


@pytest.mark.parametrize(
    "d,k,lam,expected",
    [
        (1, 1, 0.3, 0.3),
        (0, 2, 0.5, -0.5),
        (3, 2, 0.9, 0.0),   # |d| > k
        (1, 2, 0.9, 0.0),   # parity mismatch
        (5, 5, 0.7, 0.7**5),
        (0, 0, 0.123, 1.0),
    ],
)
def test_y_poly_examples(d, k, lam, expected):
    assert y_poly(d, k, lam) == pytest.approx(expected, abs=1e-15)


def test_y_poly_rejects_out_of_range_lambda():
    with pytest.raises(ValueError):
        y_poly(0, 2, 1.0000001)


def test_y_poly_symmetric_in_d():
    for k in range(9):
        for d in range(-k, k + 1):
            assert y_poly(d, k, 0.77) == y_poly(-d, k, 0.77)


def test_y_poly_at_zero_argument():
    # only the constant term survives: Y_0^(2r)(0) = (-1)^r
    for r in range(8):
        assert y_poly(0, 2 * r, 0.0) == (-1) ** r
        assert y_poly(2, 2 * r, 0.0) == 0.0


def test_y_poly_lowest_order_monomial():
    """y_poly(d, k, lam)/lam^|d| tends to a non-zero constant as lam -> 0."""
    eps = Fraction(1, 10**6)
    for k, d in [(6, 2), (9, 3), (12, 0), (7, 7)]:
        # coefficient of lam^d: the n = (k-d)/2 term of the series
        n_top = (k - d) // 2
        lead = (-1) ** n_top * comb(k - n_top, n_top) * comb(k - 2 * n_top, (k + d) // 2 - n_top)
        ratio = y_poly(d, k, eps) / eps**d
        assert ratio != 0
        assert abs(ratio - lead) < Fraction(1, 10**9)


@pytest.mark.parametrize("lam", [-1.0, -0.9, -0.5, -0.1, 0.0, 0.3, 0.6, 0.9, 1.0])
def test_y_poly_agrees_with_quadrature(lam):
    """Series and quadrature paths agree to 1e-9 for k <= 64, all parity-valid d."""
    for k in range(0, 65):
        n_nodes = 8 * (2 * k + 4)
        phi = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        u = chebyshev_u(k, lam * np.cos(phi))
        ds = np.arange(k % 2, k + 1, 2)
        quad = np.cos(np.outer(ds, phi)) @ u / n_nodes
        series = np.array([y_poly(int(d), k, lam) for d in ds])
        assert_allclose(series, quad, atol=1e-9)


def test_y_poly_quadrature_examples():
    assert y_poly_quadrature(1, 1, 0.3) == pytest.approx(0.3, abs=1e-12)
    assert y_poly_quadrature(0, 0, 0.456) == pytest.approx(1.0, abs=1e-15)
    for k in (1, 4, 9):
        assert y_poly_quadrature(k, k, 0.8) == pytest.approx(0.8**k, abs=1e-12)


def test_y_poly_quadrature_rejects_non_finite():
    with pytest.raises(ValueError):
        y_poly_quadrature(0, 2, float("nan"))
    with pytest.raises(ValueError):
        y_poly_quadrature(0, 2, float("inf"))


@given(
    k=st.integers(min_value=0, max_value=24),
    d=st.integers(min_value=-24, max_value=24),
    num=st.integers(min_value=-8, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_y_poly_parity_and_symmetry_property(k, d, num):
    lam = Fraction(num, 9)
    left = y_poly(d, k, lam)
    assert left == y_poly(-d, k, lam)
    if abs(d) > k or (k - d) % 2:
        assert left == 0


def test_hyp2f1_empty_and_two_term():
    assert hyp2f1_terminating(0, 3.7, -2.5, 0.9) == 1.0
    b, c, z = 2.0, 5.0, 0.3
    assert hyp2f1_terminating(-1, b, c, z) == pytest.approx(1 - b / c * z, abs=1e-15)


def test_hyp2f1_requires_termination():
    with pytest.raises(ValueError):
        hyp2f1_terminating(0.5, 1.5, 2.0, 0.1)


def test_hyp2f1_pochhammer_zero_signal():
    # c = -1 dies at n = 2 while a = -3 keeps the numerator alive
    with pytest.raises(ValueError):
        hyp2f1_terminating(-3, 2, -1, 0.5)


def test_hyp2f1_zero_numerator_wins_over_zero_denominator():
    # a = -1 terminates the sum at n = 1, before c = -1 is a problem
    assert hyp2f1_terminating(-1, 1, -1, 0.5) == 1.5


@given(
    m=st.integers(min_value=0, max_value=6),
    bn=st.integers(min_value=-6, max_value=6),
    bd=st.integers(min_value=1, max_value=4),
    cn=st.integers(min_value=1, max_value=9),
    zn=st.integers(min_value=-4, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_hyp2f1_exact_pochhammer_sum(m, bn, bd, cn, zn):
    """Terminating 2F1 equals the direct Pochhammer sum, exactly, on rationals."""
    a = -m
    b = Fraction(bn, bd)
    c = Fraction(cn, 2)  # positive, never vanishes
    z = Fraction(zn, 5)

    def poch(v, n):
        out = Fraction(1)
        for i in range(n):
            out *= v + i
        return out

    direct = sum(
        poch(a, n) * poch(b, n) / (poch(c, n) * math.factorial(n)) * z**n
        for n in range(m + 1)
    )
    assert hyp2f1_terminating(a, b, c, z) == direct


@pytest.mark.parametrize("d,k", [(0, 2), (2, 6), (1, 7), (4, 10), (3, 11)])
def test_y_poly_matches_terminating_2f1(d, k):
    """Y_d^(k) = lam^k C(k,(k+d)/2) 2F1((d-k)/2, (-d-k)/2; -k; lam^-2)."""
    lam = Fraction(7, 9)
    z = 1 / lam**2
    via_2f1 = lam**k * comb(k, (k + d) // 2) * hyp2f1_terminating(
        (d - k) // 2, (-d - k) // 2, -k, z
    )
    assert via_2f1 == y_poly(d, k, lam)


def test_identity_suite_r0_residuals_tight():
    report = chebyshev_identity_suite(0, 0.5)
    assert set(report) == {
        "odd_mean",
        "even_mean",
        "even_first_moment",
        "odd_first_moment",
        "derivative_even",
        "derivative_odd",
    }
    assert max(report.values()) < 1e-10


def test_identity_suite_odd_mean_at_unit_lambda():
    assert chebyshev_identity_suite(1, 1.0)["odd_mean"] < 1e-10


def test_identity_suite_small_grid():
    for r in range(4):
        for lam in (0.0, 0.3, 0.7, 1.0):
            report = chebyshev_identity_suite(r, lam)
            assert max(report.values()) < 1e-9, (r, lam, report)


def test_identity_suite_rejects_bad_args():
    with pytest.raises(ValueError):
        chebyshev_identity_suite(-1, 0.5)
    with pytest.raises(ValueError):
        chebyshev_identity_suite(1, 1.5)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 1.5])
def test_identity_suite_rejects_a_lam_off_the_unit_interval(lam):
    with pytest.raises(ValueError, match=rf"lam must be finite with \|lam\| <= 1, got {lam}"):
        chebyshev_identity_suite(3, lam)


def test_exact_rows_match_series():
    # entry i of row j is Z_m^(j) = 20^j * Y_m^(j), m = j%2 + 2i
    lam = Fraction(19, 20)
    rows = _iter_y_rows(19, 20)
    for j in range(31):
        row, _ = next(rows)
        assert [Fraction(z, 20**j) for z in row] == [y_poly(m, j, lam)
                                                      for m in range(j % 2, j + 1, 2)]


def test_y_polynomials_vanish_off_their_parity_class():
    # the entries a row leaves out are zero, so dropping them loses nothing:
    # zero in the series, and zero to rounding in the quadrature of the
    # integral, where phi -> phi + pi flips U_j(lam cos phi) cos(m phi) by (-1)^(j+m)
    for j in range(31):
        for m in range(1 - j % 2, j + 1, 2):
            for lam in (Fraction(19, 20), Fraction(-2, 7), Fraction(1)):
                assert y_poly(m, j, lam) == 0, (m, j, lam)
                assert abs(y_poly_quadrature(m, j, float(lam))) < 1e-12, (m, j, lam)


def test_float_rows_track_exact_rows():
    exact = _iter_y_rows(19, 20)
    approx = _iter_y_rows(0.95, 1.0)
    for j in range(101):
        (re_, _), (rf, _) = next(exact), next(approx)
        assert rf.dtype == np.float64 and rf.shape == (j // 2 + 1,)
        assert_allclose(rf, [z / 20**j for z in re_], atol=1e-12)


@given(last=st.integers(0, 60), reach=st.integers(0, 62),
       lams=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4), exact=st.booleans(),
       order=st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_light_cone_rows_are_the_full_rows(last, reach, lams, exact, order):
    """Every entry a cone keeps is the untrimmed entry, bit for bit (sign
    of zero too), and each row keeps all the entries of its parity class
    that row ``last``'s first reach + 1 depend on.  Rows are entry-major:
    row j has shape (width,) + a.shape, or (width, order + 1) + a.shape
    with derivatives, so entry i of every lam is ``row[i]``."""
    if exact:
        a, b = (np.array(v, object) for v in zip(*(Fraction(x).as_integer_ratio() for x in lams)))
    else:
        a, b = np.array(lams), np.ones(len(lams))
    tail = ((order + 1,) if order else ()) + a.shape
    full, cone = _iter_y_rows(a, b, order=order), _iter_y_rows(a, b, last + reach, order)
    for j in range(last + 1):
        (row, _), (kept, _) = next(full), next(cone)
        # the class entries m = j%2, j%2 + 2, ... up to min(j, reach + last - j)
        width = (min(j, reach + last - j) - j % 2) // 2 + 1
        assert width <= kept.shape[0] <= row.shape[0] == j // 2 + 1
        assert row.shape == (row.shape[0],) + tail and kept.shape == (kept.shape[0],) + tail
        assert kept.tolist() == row[:len(kept)].tolist()
        if not exact:
            assert (np.signbit(kept) == np.signbit(row[:len(kept)])).all()


def test_return_probability_cone_holds_half_the_rows():
    # p(0; 100, lam) reads Z_1 of row 99 and Z_0 of row 98.  Row j keeps its
    # class entries m <= min(j, 100 - j), (min(j, 100 - j) - j%2)//2 + 1 of
    # them: 1325 over rows 0..99, against the j//2 + 1 a row, 2550 in all,
    # that they hold untrimmed
    rows = _iter_y_rows(3, 10, 99 + 1)
    kept = sum(len(next(rows)[0]) for _ in range(100))
    assert kept == 1325 and kept < 0.52 * sum(j // 2 + 1 for j in range(100))
