"""Chebyshev polynomials of the second kind and the derived integral family.

The walk's closed-form pmf is built from the Fourier coefficients

    Y_d^(k)(lam) = (1/2pi) * integral_0^2pi U_k(lam*cos(phi)) * cos(d*phi) dphi

which are polynomials in lam with integer coefficients.  ``_iter_y_rows``
computes them row by row from their three-term recurrence, on the exact
integers of lam = a/b, in fixed point, or in float64.  ``_chebyshev_u_pair``
evaluates U_n itself for the Kraus pair of ``walk.kraus_kernels``.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

__all__: list[str] = []


def _shown(value, text=str) -> str:
    """``text(value)`` for a gate's message, or an int beyond the float range
    by its bit length, as its decimal text may pass the int-to-str limit."""
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return text(value)


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` when one is given; a float
    or a bool is rejected, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {_shown(value, repr)}")
    return int(value)


def _step_count(k, minimum: int = 1) -> int:
    """``k`` as an int step count in [minimum, sys.maxsize], the most steps
    ``islice`` can count; anything else raises ValueError."""
    k = _integer(k, "step count k", minimum)
    if k > sys.maxsize:
        raise ValueError(f"step count k must be at most sys.maxsize = {sys.maxsize}, "
                         f"got {_shown(k, repr)}")
    return k


def _unit_interval(value, name: str):
    """``value``, a level or a probability in [0, 1]; a bool or NaN raises ValueError."""
    if isinstance(value, (bool, np.bool_)) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {_shown(value)}")
    return value


def _finite(value, name: str, minimum: float | None = None):
    """``value``, an angle or a tolerance: a float can hold it, and it is at
    least ``minimum`` when one is given; a bool, NaN, an infinity or an int
    beyond the float range raises ValueError."""
    if (isinstance(value, (bool, np.bool_)) or not abs(value) <= sys.float_info.max
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" and >= {minimum}"
        raise ValueError(f"{name} must be finite{bound}, got {_shown(value)}")
    return value


def _unit_lam(lam):
    """``lam``, one or an array; raises ValueError for bools and unless every
    lam is finite with |lam| <= 1 (NaN fails the comparison)."""
    if np.asarray(lam).dtype == bool or not np.all(np.abs(lam) <= 1):
        raise ValueError(f"lam must be finite with |lam| <= 1, got {_shown(lam)}")
    return lam


def _unit_total(total, what: str) -> None:
    """Raises ValueError unless the squared norm or probability ``total`` of
    ``what`` is within 1e-9 of 1 (NaN fails the comparison)."""
    if not abs(total - 1) <= 1e-9:
        raise ValueError(f"{what} must be normalized, got total {total}")


def _chebyshev_u_pair(n: int, x: np.ndarray):
    """(U_n(x), U_{n-1}(x)) over a float array ``x``, U_{-1} = 0, in one
    pass of the recurrence U_{n+1}(x) = 2x*U_n(x) - U_{n-1}(x) from U_0 = 1.

    ``2x`` is formed once, so each of the n steps is two operations,
    ``twice * u - u_prev``: the same numbers as ``2 * x * u - u_prev``,
    which Python evaluates as ``(2 * x) * u``.
    """
    one = x * 0 + 1
    u_prev, u = one - one, one
    twice = 2 * x
    for _ in range(n):
        u_prev, u = u, twice * u - u_prev
    return u, u_prev


def _iter_y_rows(a, b, edge=math.inf, order=0, bits=0):
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
    Only the integer rows apply b^2, a product whatever b is; float rows
    drop it (b = 1.0, and 1.0 * z is z bit for bit).

    ``bits`` P > 0 (Python ints a, b = 2^e) runs fixed point instead: Z^(j)
    is Y^(j) * 2^P up to an error that ``pmf._probabilities`` bounds, one
    scale on every row, so b^2 drops and a*(...) is the floor (a*(...)) >>
    e, which loses under one unit an entry a row; entries hold about P +
    log2(j) bits, where the exact rows of a float lam grow to 53 j bits.

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
    if bits:                            # fixed point: lam * N is (N * a) >> e, as b = 2^e
        shift = np.frompyfunc(lambda v: v.bit_length() - 1, 1, 1)(b)
    # integer rows hold b^j Y^(j), so row j - 2 gains b^2; fixed-point rows
    # (one scale 2^P) and float rows (b = 1.0) carry none
    b2 = b * b if dtype is object and not bits else None
    shape = ((order + 1,) if order else ()) + a.shape
    # the factor i of N^(i-1) in the i-th derivative of a*N, i = 1..order
    carry = np.arange(1, order + 1).reshape((order,) + (1,) * a.ndim)
    row, prev = np.zeros((1,) + shape, dtype), np.zeros((0,) + shape, dtype)
    (row[:, 0] if order else row)[...] = 1 << bits      # Z^(0) = 1 (2^P), derivatives 0
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
        if bits:
            row >>= shift
        if order:
            row[:, 1:] += leibniz
        inner -= prev2[:inner_width] if b2 is None else b2 * prev2[:inner_width]
