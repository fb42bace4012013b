"""Chebyshev polynomials of the second kind and the derived integral family.

The walk's closed-form pmf is built from the Fourier coefficients

    Y_d^(k)(lam) = (1/2pi) * integral_0^2pi U_k(lam*cos(phi)) * cos(d*phi) dphi

which are polynomials in lam with integer coefficients.  ``_iter_y_rows``
computes them row by row from their three-term recurrence, on the exact
integers of lam = a/b or in float64; ``chebyshev_identity_suite`` checks
the integral and derivative identities of the U_n family.
"""

from __future__ import annotations

import math
import numbers
from itertools import islice

import numpy as np

__all__ = [
    "chebyshev_u",
    "chebyshev_identity_suite",
]


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` when one is given; a float
    or a bool is rejected, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _unit_interval(value, name: str):
    """``value``, a level or a probability in [0, 1]; a bool or NaN raises ValueError."""
    if isinstance(value, (bool, np.bool_)) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _finite(value, name: str, minimum: float | None = None):
    """``value``, an angle or a tolerance: finite, and at least ``minimum``
    when one is given; a bool, NaN or an infinity raises ValueError."""
    if (isinstance(value, (bool, np.bool_)) or not -math.inf < value < math.inf
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" and >= {minimum}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return value


def _unit_lam(lam):
    """``lam``, one or an array; raises ValueError for bools and unless every
    lam is finite with |lam| <= 1 (NaN fails the comparison)."""
    if np.asarray(lam).dtype == bool or not np.all(np.abs(lam) <= 1):
        raise ValueError(f"lam must be finite with |lam| <= 1, got {lam}")
    return lam


def _unit_total(total, what: str) -> None:
    """Raises ValueError unless the squared norm or probability ``total`` of
    ``what`` is within 1e-9 of 1 (NaN fails the comparison)."""
    if not abs(total - 1) <= 1e-9:
        raise ValueError(f"{what} must be normalized, got total {total}")


def chebyshev_u(n, x):
    """Evaluate the Chebyshev polynomial of the second kind U_n(x).

    Uses the three-term recurrence U_{n+1}(x) = 2x*U_n(x) - U_{n-1}(x) with
    U_0 = 1, U_1 = 2x.  For |x| <= 1 this agrees with
    sin((n+1)*arccos(x))/sin(arccos(x)).

    Parameters
    ----------
    n : int
        Polynomial degree, an integer n >= 0; a bool or a float raises
        ValueError.
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
    """(U_n(x), U_{n-1}(x)), U_{-1} = 0, in one pass; types as ``chebyshev_u``.

    ``2x`` is formed once, so each of the n steps is two operations,
    ``twice * u - u_prev``: the same numbers as ``2 * x * u - u_prev``,
    which Python evaluates as ``(2 * x) * u``.
    """
    n = _integer(n, "degree", 0)
    scalar = isinstance(x, (float, np.floating))
    x = np.longdouble(x) if scalar else x
    one = x * 0 + 1
    u_prev, u = one - one, one
    twice = 2 * x
    for _ in range(n):
        u_prev, u = u, twice * u - u_prev
    return (float(u), float(u_prev)) if scalar else (u, u_prev)


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


def chebyshev_identity_suite(r: int, lam) -> dict[str, float]:
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
      finite differences at step 1e-4 (Richardson-extrapolated once).

    The derivative residual is stated in the cos/sin form rather than with
    tan(theta) so that lam = 0 (theta = pi/2) stays finite.

    Returns a dict mapping identity name to residual.
    """
    r = _integer(r, "r", 0)
    lam = float(_unit_lam(lam))
    resolution = 8 * (2 * r + 6)
    phi = 2.0 * np.pi * np.arange(resolution) / resolution
    cphi = np.cos(phi)

    u_odd, u_even = _chebyshev_u_pair(2 * r + 1, lam * cphi)
    # Y_0^(2r) and Y_0^(2r+2) from the exact rows in the cone of Y_0^(2r+2),
    # correctly rounded: entry 0 of an even row j is Z_0^(j), of an odd Z_1^(j)
    a, b = lam.as_integer_ratio()
    even_rows = islice(_iter_y_rows(a, b, 2 * r + 2), 0, 2 * r + 3, 2)
    y0 = [row[0] / b**(2 * i) for i, (row, _) in enumerate(even_rows)]

    report = {
        "odd_mean": abs(float(np.mean(u_odd))),
        "even_mean": abs(float(np.mean(u_even)) - y0[r]),
        "even_first_moment": abs(2.0 * float(np.mean(cphi * u_even))),
        "odd_first_moment": abs(
            lam * 2.0 * float(np.mean(cphi * u_odd)) - (y0[r] + y0[r + 1])
        ),
    }

    theta = math.acos(lam)

    def d_dtheta(n, h):
        up = chebyshev_u(n, math.cos(theta + h) * cphi)
        dn = chebyshev_u(n, math.cos(theta - h) * cphi)
        return (up - dn) / (2.0 * h)

    for label, n in (("derivative_even", 2 * r), ("derivative_odd", 2 * r + 1)):
        coarse = d_dtheta(n, 1e-4)
        fine = d_dtheta(n, 1e-4 / 2.0)
        deriv = (4.0 * fine - coarse) / 3.0
        s_n = _derivative_identity_sum(n, lam * cphi)
        resid = math.cos(theta) * deriv + math.sin(theta) * s_n
        report[label] = float(np.max(np.abs(resid)))
    return report


def _iter_y_rows(a, b, edge=math.inf, order=0):
    """Yield (Z^(j), Z^(j-1)) for j = 0, 1, ..., where Z^(j) = b^j * Y^(j)(a/b).

    The walk is bipartite, so Z_m^(j) is zero unless m = j (mod 2), and a
    row stores only that parity class: entry i of row j is Z_{j%2+2i}.
    ``a`` and ``b`` are scalars or arrays of one shape S, so a whole grid
    of lam = a/b runs in one pass.  The rows are entry-major: row j has
    shape (j//2 + 1,) + S, and ``row[i]`` holds Z_{j%2+2i}^(j) for every
    lam, so each update below runs on whole contiguous blocks of entries
    times lam, with a and b broadcast along the trailing axes; row -1 is
    empty.  With W_i the entries of row j and V_i, U_i those of rows j-1
    and j-2, the recurrence

        Z_m^(j) = a*(Z_{|m-1|}^(j-1) + Z_{m+1}^(j-1)) - b^2 * Z_m^(j-2)

    reads, out-of-range entries zero,

        odd j:  W_i = a*(V_i + V_{i+1}) - b^2 * U_i
        even j: W_i = a*(V_{max(i-1, 0)} + V_i) - b^2 * U_i

    so a row costs O(j) on half the entries of the full row.  With Python
    ints a, b (lam = a/b, e.g. from ``Fraction(lam)``, which is exact for a
    float) the rows are object arrays of exact integers; with float a and
    b = 1.0 they are float64 Y rows, whose rounding grows mildly with j.
    The term b^2 * z is the shift ``z << 2e`` when every b is 2^e (the
    integer rows of any float lam), ``z`` itself on float rows (b = 1.0,
    and 1.0 * z is z bit for bit), and a product only for other b, as
    from ``Fraction(1, 3)``.

    ``order`` n >= 1 runs the recurrence forward-mode: each row gains an
    axis behind the entries holding (Z, dZ/da, ..., d^nZ/da^n) at fixed b,
    shape (width, n + 1) + S.  With N the neighbour sum in the brackets,
    the i-th a-derivative of a*N is a*N^(i) + i*N^(i-1), so row j is a*N
    + i*N^(i-1) - b^2 * Z^(j-2) on every order at once, two more array
    operations a row.

    A finite ``edge`` = last + reach keeps only the light cone of the
    entries m <= reach of row ``last``: row j holds the class entries m <=
    min(j, edge - j).  Each kept entry is computed by the same operations
    as untrimmed, so it is the same number.
    """
    dtype = float if np.asarray(a).dtype.kind == "f" else object
    a, b = (np.asarray(v, dtype) for v in (a, b))
    if dtype is float:                                  # b = 1.0: b^2 * z is z
        scaled = lambda z: z
    elif all(v & (v - 1) == 0 for v in b.flat):         # b = 2^e: b^2 * z is z << 2e
        shift = np.frompyfunc(lambda v: 2 * v.bit_length() - 2, 1, 1)(b)
        scaled = lambda z: z << shift
    else:
        b2 = b * b
        scaled = lambda z: b2 * z
    shape = ((order + 1,) if order else ()) + a.shape
    # the factor i of N^(i-1) in the i-th derivative of a*N, i = 1..order
    carry = np.arange(1, order + 1).reshape((order,) + (1,) * a.ndim)
    row, prev = np.zeros((1,) + shape, dtype), np.zeros((0,) + shape, dtype)
    (row[:, 0] if order else row)[...] = 1              # Z^(0) = 1, its derivatives 0
    j = 0
    while True:
        yield row, prev
        prev2, prev = prev, row
        j += 1
        odd = j % 2
        width = (min(j, edge - j) - odd) // 2 + 1
        # the entries m <= j - 2, all but m = j, have a right neighbor Z_{m+1}
        # in row j-1 and a Z_m in row j-2; inside the cone that is every one
        # (where using the row itself saves building a view)
        inner_width = min(width, (j - odd) // 2)
        row = np.empty((width,) + shape, dtype)
        inner = row if inner_width == width else row[:inner_width]
        if odd:
            row[...] = prev[:width]                     # left neighbor Z_{m-1} = V_i
            inner += prev[1:inner_width + 1]            # right neighbor Z_{m+1} = V_{i+1}
        else:
            row[1:] = prev[:width - 1]                  # left neighbor Z_{m-1} = V_{i-1}, i >= 1
            row[0] = prev[0]                            # left neighbor Z_{|0-1|} = Z_1 = V_0
            inner += prev[:inner_width]                 # right neighbor Z_{m+1} = V_i
        if order:
            leibniz = carry * row[:, :-1]
        row *= a
        if order:
            row[:, 1:] += leibniz
        inner -= scaled(prev2[:inner_width])
