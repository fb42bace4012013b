"""Chebyshev polynomials of the second kind and the derived integral family.

The walk's closed-form pmf is built from the Fourier coefficients

    Y_d^(k)(lam) = (1/2pi) * integral_0^2pi U_k(lam*cos(phi)) * cos(d*phi) dphi

which are polynomials in lam with integer coefficients.  ``y_poly`` evaluates
them through an exact integer/rational core (float64 accumulation of the
alternating series loses up to ~13 digits by k = 50), and
``y_poly_quadrature`` provides an independent quadrature arbiter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

__all__ = [
    "chebyshev_u",
    "y_poly",
    "y_poly_quadrature",
    "hyp2f1_terminating",
    "chebyshev_identity_suite",
]


def chebyshev_u(n, x):
    """Evaluate the Chebyshev polynomial of the second kind U_n(x).

    Uses the three-term recurrence U_{n+1}(x) = 2x*U_n(x) - U_{n-1}(x) with
    U_0 = 1, U_1 = 2x.  For |x| <= 1 this agrees with
    sin((n+1)*arccos(x))/sin(arccos(x)).

    Parameters
    ----------
    n : int
        Polynomial degree, n >= 0.
    x : float, numpy array, or Fraction
        Evaluation point(s).  The recurrence is generic, so exact types
        propagate (a Fraction input yields a Fraction).

    Returns
    -------
    Same shape/type as ``x``.  Scalar floats are accumulated in extended
    precision (np.longdouble) and rounded once at the end, which keeps the
    absolute error below ~4e-15 even for n = 200 near |x| = 1 where U is
    large; plain float64 accumulation would lose two more digits there.
    """
    return _chebyshev_u_pair(n, x)[0]


def _chebyshev_u_pair(n, x):
    """(U_n(x), U_{n-1}(x)), U_{-1} = 0, in one pass; types as ``chebyshev_u``."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    scalar = isinstance(x, (float, np.floating))
    x = np.longdouble(x) if scalar else x
    one = x * 0 + 1
    u_prev, u = one - one, one
    for _ in range(n):
        u_prev, u = u, 2 * x * u - u_prev
    return (float(u), float(u_prev)) if scalar else (u, u_prev)


def _as_fraction(lam) -> Fraction:
    if isinstance(lam, Fraction):
        return lam
    # float conversion is exact (binary floats are dyadic rationals)
    return Fraction(lam)


def y_poly(d: int, k: int, lam):
    """Evaluate Y_d^(k)(lam) by its terminating series.

    Y_d^(k)(lam) = sum_{n=0}^{(k-|d|)/2} (-1)^n C(k-n, n)
                   * C(k-2n, (k+|d|)/2 - n) * lam^(k-2n)

    The second binomial's upper index is k-2n, matching the residue that
    produces the series.  Zero when |d| > k or when d and k differ in
    parity; symmetric under d -> -d.  The sum runs over exact integers
    times rational powers of lam, so the returned value is correctly
    rounded; naive float accumulation is unusable here (terms reach ~1e13
    at k = 50, lam = 0.95 while the result is O(1)).

    Parameters
    ----------
    d : int
        Signed Fourier index.
    k : int
        Polynomial order, k >= 0.
    lam : float or Fraction
        Argument with |lam| <= 1.  A Fraction input returns the exact
        rational value.

    Returns
    -------
    float, or Fraction when ``lam`` is a Fraction.
    """
    if k < 0:
        raise ValueError(f"order must be non-negative, got {k}")
    exact = isinstance(lam, Fraction)
    if abs(lam) > 1:
        raise ValueError(f"|lam| must be <= 1, got {lam}")
    d = abs(int(d))
    if d > k or (k - d) % 2:
        return Fraction(0) if exact else 0.0
    lam_q = _as_fraction(lam)
    total = Fraction(0)
    for n in range((k - d) // 2 + 1):
        coeff = comb(k - n, n) * comb(k - 2 * n, (k + d) // 2 - n)
        term = coeff * lam_q ** (k - 2 * n)
        total += -term if n % 2 else term
    return total if exact else float(total)


def y_poly_quadrature(d: int, k: int, lam, resolution: int | None = None) -> float:
    """Quadrature evaluation of Y_d^(k)(lam), the arbiter for ``y_poly``.

    Integrates U_k(lam*cos(phi))*cos(d*phi) over a period with the
    periodic trapezoid rule, which is exact for trigonometric polynomials
    once the node count exceeds the integrand degree k + |d|.

    Parameters
    ----------
    resolution : int, optional
        Number of quadrature nodes; defaults to 8*(k + |d| + 4).
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if k < 0:
        raise ValueError(f"order must be non-negative, got {k}")
    d = abs(int(d))
    if resolution is None:
        resolution = 8 * (k + d + 4)
    phi = 2.0 * np.pi * np.arange(resolution) / resolution
    vals = chebyshev_u(k, lam * np.cos(phi))
    return float(np.mean(vals * np.cos(d * phi)))


def hyp2f1_terminating(a, b, c, z):
    """Evaluate a terminating Gauss hypergeometric series 2F1(a, b; c; z).

    At least one of ``a``, ``b`` must be a non-positive integer so the
    Pochhammer products truncate; the sum then has min(-a, -b) + 1 terms
    and is evaluated directly.  Exact (Fraction) inputs give an exact
    rational result.

    Raises
    ------
    ValueError
        If neither upper parameter is a non-positive integer, or if
        (c)_n vanishes at some n before the terminating index while the
        numerator is still non-zero.
    """

    def _nonpos_int(v):
        try:
            return v <= 0 and float(v).is_integer()
        except (TypeError, OverflowError):
            return False

    stops = [int(-v) for v in (a, b) if _nonpos_int(v)]
    if not stops:
        raise ValueError("series does not terminate: neither a nor b is a non-positive integer")
    m = min(stops)
    exact = all(isinstance(v, (int, Fraction)) for v in (a, b, c, z))
    term = Fraction(1) if exact else 1.0
    total = term
    for i in range(m):
        num = (a + i) * (b + i)
        if num == 0:
            break
        den_c = c + i
        if den_c == 0:
            raise ValueError(f"(c)_n vanishes at n = {i + 1} before the series terminates (c = {c})")
        term = term * num * z / (den_c * (i + 1))
        total += term
    return total


def _derivative_identity_sum(n: int, xi):
    """S_n(xi) = sum over m in {n, n-2, ..., >= 1} of m*(U_{m-2}(xi) + U_m(xi)).

    Satisfies d/dtheta U_n(cos(theta)cos(phi)) = -tan(theta) * S_n at
    xi = cos(theta)cos(phi); an empty sum (n = 0) is zero.
    """
    total = xi * 0
    for m in range(n, 0, -2):
        inner = chebyshev_u(m, xi)
        if m >= 2:
            inner = inner + chebyshev_u(m - 2, xi)
        total = total + m * inner
    return total


def chebyshev_identity_suite(r: int, lam, resolution: int | None = None,
                             fd_step: float = 1e-4) -> dict[str, float]:
    """Check the integral and derivative identities of the U_n family.

    For the given ``r`` and ``lam`` the report holds absolute residuals of:

    - ``odd_mean``: (1/2pi) integral U_{2r+1}(lam cos phi) dphi = 0
    - ``even_mean``: (1/2pi) integral U_{2r}(lam cos phi) dphi = Y_0^(2r)
    - ``even_first_moment``: (1/pi) integral cos(phi) U_{2r}(lam cos phi) dphi = 0
    - ``odd_first_moment``: lam * (1/pi) integral cos(phi) U_{2r+1}(lam cos phi) dphi
      = Y_0^(2r) + Y_0^(2r+2)
    - ``derivative_even`` / ``derivative_odd``: for n = 2r and 2r+1,
      cos(theta) * dU_n/dtheta + sin(theta) * S_n(xi) = 0 at xi =
      cos(theta)cos(phi), with the theta-derivative taken by central
      finite differences (Richardson-extrapolated once).

    The derivative residual is stated in the cos/sin form rather than with
    tan(theta) so that lam = 0 (theta = pi/2) stays finite.

    Returns a dict mapping identity name to residual.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    lam = float(lam)
    if abs(lam) > 1:
        raise ValueError(f"|lam| must be <= 1, got {lam}")
    if resolution is None:
        resolution = 8 * (2 * r + 6)
    phi = 2.0 * np.pi * np.arange(resolution) / resolution
    cphi = np.cos(phi)

    u_odd, u_even = _chebyshev_u_pair(2 * r + 1, lam * cphi)
    # Y_0^(2r) and Y_0^(2r+2) from the exact rows, each correctly rounded
    a, b = lam.as_integer_ratio()
    y0 = [row[0] / b**j for j, (row, _) in zip(range(2 * r + 3), _iter_y_rows(a, b))]

    report = {
        "odd_mean": abs(float(np.mean(u_odd))),
        "even_mean": abs(float(np.mean(u_even)) - y0[2 * r]),
        "even_first_moment": abs(2.0 * float(np.mean(cphi * u_even))),
        "odd_first_moment": abs(
            lam * 2.0 * float(np.mean(cphi * u_odd)) - (y0[2 * r] + y0[2 * r + 2])
        ),
    }

    theta = math.acos(lam)

    def d_dtheta(n, h):
        up = chebyshev_u(n, math.cos(theta + h) * cphi)
        dn = chebyshev_u(n, math.cos(theta - h) * cphi)
        return (up - dn) / (2.0 * h)

    for label, n in (("derivative_even", 2 * r), ("derivative_odd", 2 * r + 1)):
        coarse = d_dtheta(n, fd_step)
        fine = d_dtheta(n, fd_step / 2.0)
        deriv = (4.0 * fine - coarse) / 3.0
        s_n = _derivative_identity_sum(n, lam * cphi)
        resid = math.cos(theta) * deriv + math.sin(theta) * s_n
        report[label] = float(np.max(np.abs(resid)))
    return report


def _iter_y_rows(a, b, cone=None):
    """Yield (Z^(j), Z^(j-1)) for j = 0, 1, ..., where Z^(j) = b^j * Y^(j)(a/b).

    ``a`` and ``b`` are scalars or arrays of one shape S, so a whole grid
    of lam = a/b runs in one pass: row j has shape S + (j+1,), holding
    [Z_0^(j), ..., Z_j^(j)] per lam, and row -1 is empty.  The rows obey

        Z_m^(j) = a*(Z_{|m-1|}^(j-1) + Z_{m+1}^(j-1)) - b^2 * Z_m^(j-2),

    with out-of-range entries zero, so they cost O(j) per row instead of
    the O(j^2) series of ``y_poly``.  With Python ints a, b (lam = a/b,
    e.g. from ``Fraction(lam)``, which is exact for a float) the rows are
    object arrays of exact integers; with float a and b = 1.0 they are
    float64 Y rows, whose rounding grows mildly with j.

    ``cone = (last, reach)`` keeps only the light cone of the entries
    m <= reach of row ``last``: once 2j > last + reach + 1, row j holds
    its first last + reach - j + 1 entries, one fewer each row.  Each kept
    entry is computed by the same operations as untrimmed, so it is the
    same number.
    """
    dtype = float if np.asarray(a).dtype.kind == "f" else object
    a, b = (np.asarray(v, dtype)[..., None] for v in (a, b))
    b2 = b * b
    shape = a.shape[:-1]
    edge = math.inf if cone is None else cone[0] + cone[1]
    prev2 = prev = np.zeros(shape + (0,), dtype)
    j = 0
    while True:
        if 2 * j > edge + 1:                    # inside the cone: every neighbor is kept
            width = edge - j + 1
            row = np.empty(shape + (width,), dtype)
            row[..., 1:] = prev[..., : width - 1]
            row[..., 0] = prev[..., 1]
            row += prev[..., 1 : width + 1]
            row *= a
            row -= b2 * prev2[..., :width]
        else:
            row = np.zeros(shape + (j + 1,), dtype)
            if j == 0:
                row[..., 0] = 1
            else:
                row[..., 1:] = prev                 # left neighbor Z_{m-1}, m >= 1
                if j >= 2:
                    row[..., 0] = prev[..., 1]      # left neighbor Z_{|0-1|} = Z_1
                row[..., : j - 1] += prev[..., 1:]  # right neighbor Z_{m+1}
                row *= a
                row[..., : j - 1] -= b2 * prev2
        yield row, prev
        prev2, prev = prev, row
        j += 1
