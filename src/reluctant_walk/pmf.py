"""Closed-form probability mass function of the walk.

All functions here evaluate the displacement distribution analytically from
the Y polynomial family; the state-vector simulator in ``walk`` is the
independent ground truth they are validated against.

Sign convention: the analytic displacement axis is the mirror image of the
simulator's shift axis.  ``pmf_point(k, d, lam)`` equals the simulated
probability of displacement ``-d``; equivalently a walker with lam close to
1 piles up at d = -k on this axis.  The constant ``CONVENTION_SIGMA = -1``
records the reflection and is stamped into serialized output so downstream
tools can map between the two axes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import is_

import numpy as np

from .chebyshev import _integer, _iter_y_rows, _step_count, _unit_lam

__all__ = [
    "CONVENTION_SIGMA",
    "Pmf",
    "pmf_point",
    "pmf_full",
    "pmf_to_csv",
    "pmf_from_csv",
    "pmf_to_json",
    "pmf_from_json",
]

# The analytic axis is the simulator's axis reflected through the origin.
CONVENTION_SIGMA = -1

_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class Pmf:
    """Displacement distribution after ``k`` steps.

    ``table`` maps displacement to probability and is kept sorted by
    displacement.  ``lam`` records the coin parameter the table was built
    from; it is None for tables read off a simulated state, where the coin
    is not part of the state.
    """

    k: int
    table: dict[int, float]
    lam: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "table", dict(sorted(self.table.items())))

    @property
    def support(self) -> list[int]:
        return list(self.table)

    def probability(self, d: int) -> float:
        return self.table.get(d, 0.0)

    def total(self) -> float:
        return math.fsum(self.table.values())

    def mean(self) -> float:
        return math.fsum(d * p for d, p in self.table.items())

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((d - mu) ** 2 * p for d, p in self.table.items())

    def std(self) -> float:
        return math.sqrt(self.variance())


def _clamp(p):
    """Clip float probabilities, one or an array (in place), into [0, 1]; a
    value beyond the clamp tolerance outside it raises ValueError."""
    if not np.all((-_CLAMP_TOL <= p) & (p <= 1.0 + _CLAMP_TOL)):
        raise ValueError(f"probability {p} outside [0, 1] beyond clamp tolerance")
    return np.clip(p, 0.0, 1.0, out=p if isinstance(p, np.ndarray) else None)


def _validate_k_lam(k: int, lam) -> int:
    """k as a step count (``_step_count``); raises unless every lam is
    finite with |lam| <= 1."""
    k = _step_count(k)
    _unit_lam(lam)
    return k


def _ratio(lam, exact: bool = True):
    """lam as a/b, elementwise: exact Python ints from ``Fraction(lam)``, else (lam, 1.0)."""
    if not exact:
        return np.asarray(lam, float), 1.0
    return np.frompyfunc(lambda x: Fraction(x).as_integer_ratio(), 1, 2)(lam)


def _edge(k: int, ds=None):
    """The light-cone edge k - 1 + reach of the row entries |d +- 1| that
    the displacements ``ds`` read at step ``k``, or math.inf when that cone
    is no narrower than the rows (always for ``ds`` None)."""
    reach = k if ds is None else max((abs(int(d)) for d in ds), default=-1) + 1
    return k - 1 + reach if reach < k - 1 else math.inf


def _rows_for(k: int, a, b, ds=None, order: int = 0, bits: int = 0):
    """Only the scaled rows (Z^(k-1), Z^(k-2)) that step ``k`` reads, each
    to the light cone of ``ds`` when it is narrower (``_edge``), entry-major,
    with their first ``order`` a-derivatives stacked on the axis behind
    the entries, or in ``bits``-bit fixed point (``_iter_y_rows``)."""
    return next(islice(_iter_y_rows(a, b, _edge(k, ds), order, bits), k - 1, None))


def _jet_mul(x, y):
    """The product of Taylor jets x and y, each (value, first derivative,
    ...) stacked on axis 0: Leibniz's rule (xy)^(n) = sum_i C(n, i)
    x^(i) y^(n-i)."""
    return np.stack([sum(math.comb(n, i) * x[i] * y[n - i] for i in range(n + 1))
                     for n in range(len(x))])


def _row_error(k: int) -> int:
    """A bound on |Z - Y * 2^P| on the fixed-point rows k - 1 and k - 2,
    whatever P (proof in ``_probabilities``)."""
    return (math.isqrt(k) + 1) * k * (k - 1) // 2


# fixed-point bits past the error bound: an entry p >= 2^-1074 is then known to
# about 2^-650 sqrt(p), so only one that close to a rounding boundary falls back
_FIXED_BITS = 650


def _fixed_bits(k: int, b) -> int:
    """P of the fixed-point rows through step ``k`` of lam = a/b for an int
    power of two b (every float lam), else 0: the exact integer rows."""
    dyadic = isinstance(b, int) and not b & (b - 1)
    return _FIXED_BITS + _row_error(k).bit_length() if dyadic else 0


def _exact_entries(k: int, a: int, b: int, ds) -> np.ndarray:
    """The fallback: p(d; k, a/b) for each d in ``ds`` from the exact integer rows."""
    return _probabilities(k, a, b, _rows_for(k, a, b, ds), ds)


# a pair in lowest terms, as numbers.Rational asks, which Fraction takes over unreduced
_Lowest = namedtuple("_Lowest", "numerator denominator")
numbers.Rational.register(_Lowest)


def _fraction(num: int, den: int) -> Fraction:
    """num/den reduced.  Shifting out the common power of two leaves a
    power-of-two den (any dyadic lam) in lowest terms, with no gcd, which
    takes 0.2 s on the 320,000-bit pair of pmf_point(150, 0, Fraction(5e-324))."""
    low = (num | den) & -(num | den)
    num, den = num // low, den // low
    return Fraction(num, den) if den & (den - 1) else Fraction(_Lowest(num, den))


def _entries(row, j: int, ms) -> np.ndarray:
    """Z_m^(j) for each m >= 0 in ``ms``, read off row j as ``_iter_y_rows``
    stores it (entry i is Z_{j%2+2i}, entry-major), gathered on the leading
    entry axis and moved last: shape S + (len(ms),), or (order + 1,) + S +
    (len(ms),) for rows of Taylor jets.  An m of the other parity reads the
    structural zero Y_m^(j) = 0, m != j (mod 2), and an m past the row (its
    end, or its light cone) reads 0, so the empty row -1 reads 0 at every m."""
    i, off = np.divmod(ms - j % 2, 2)
    zero = (off != 0) | (i >= len(row))
    z = (row[np.where(zero, 0, i)] if len(row)
         else np.zeros((len(ms),) + row.shape[1:], row.dtype))
    z[zero] = 0
    return np.moveaxis(z, 0, -1)


def _probabilities(k: int, a, b, rows, ds, rational: bool = False,
                   order: int = 0, bits: int = 0) -> np.ndarray:
    """p(d; k, a/b) for each ``d`` in ``ds``, from scaled rows; zero off
    the parity-valid support [-k, k].

    With lam = a/b and Y = Y^(j)(lam) on rows j = k - 1 and k - 2,

        p = (1 - lam^2) * (Y_{|d-1|}^(k-1))^2
            + (Y_{|d|}^(k-2) - lam * Y_{|d+1|}^(k-1))^2.

    Row k-2 is empty at k = 1, which leaves p(-1) = lam^2 and p(1) = 1 -
    lam^2.  The rows hold one parity class each (``_iter_y_rows``), and
    ``_entries`` gathers the three entries of every column straight from
    them: a column with k - d odd reads three structural zeros and one
    with |d| > k reads zeros past both rows, so p = 0 off the support.
    The gathered columns come last, giving shape S + (len(ds),).  Float
    rows (b = 1.0) give a plain float64 evaluation, which runs in place on
    about three (lam x column) buffers.

    Exact rows, integer or fixed point, give each entry as the correctly
    rounded float of its exact rational (``rational`` returns the integer
    rows' Fractions instead).  Both hold Y * s + E on rows k - 1 and
    k - 2, at one scale s, with |E| <= u.  The integer rows (``bits`` 0)
    hold Z^(j) = b^j Y^(j) exactly, so once row k - 2 is multiplied by b
    both sit at s = b^(k-1), with u = 0.  The fixed-point rows of one
    dyadic lam = a/2^e (``bits`` P > 0) sit at s = 2^P, with u =
    ``_row_error(k)`` units:

      - Row j computes Z^(j) = lam * S(Z^(j-1)) - Z^(j-2) - f^(j), where S
        adds the neighbours m - 1 and m + 1 (Y_{-m} = Y_m) and f^(j) in
        [0, 1) is the floor's loss at each of the j + 1 entries m = -j,
        -j + 2, ..., j; rows 0 and -1 are exact.
      - In Fourier, with F(phi) = sum_m f_m e^(i m phi), S is a product by
        2 cos(phi), so E^(j)(phi) = -sum_{i=1..j} U_{j-i}(lam cos(phi))
        F^(i)(phi), the exact rows' own recurrence driven by the losses.
      - |U_n| <= n + 1 on [-1, 1], and by Parseval ||F^(i)||_2 <=
        sqrt(i + 1), so each coefficient obeys |E_m^(j)| <= ||E^(j)||_1 <=
        ||E^(j)||_2 <= sum_{i=1..j} (j - i + 1) sqrt(i + 1) <= sqrt(j + 1)
        j (j + 1) / 2, which at j = k - 1 is below u = (isqrt(k) + 1)
        k (k - 1) / 2, about 0.5 k^2.5.

    So |Y_{|d-1|}^(k-1)| * s lies in z -+ u with z = |Z_{|d-1|}^(k-1)|,
    and (b Y_{|d|}^(k-2) - a Y_{|d+1|}^(k-1)) * s in w -+ (b + |a|) u
    with w = |b Z_{|d|}^(k-2) - a Z_{|d+1|}^(k-1)|, row k - 2 taken at
    the scale s.  Squaring the ends nearer and farther from zero and
    summing with weight b^2 - a^2 >= 0 brackets the exact numerator over
    (b s)^2.  Correct rounding is monotone, so when both ends of the
    bracket round to one float, that float is the correctly rounded
    entry.  On the integer rows (u = 0) the bracket is one point, the
    exact rational.  A fixed-point entry whose ends round apart, as a tie
    does (lam = 0.5, k = 30, d = +-4), is rounded from the integer rows
    instead (``_exact_entries``).

    Rows with ``order`` a-derivatives stacked behind the entries, shape
    (width, order + 1) + S (``_rows_for``), give the stack (p, dp/da, ...)
    of shape (order + 1,) + S + (len(ds),), the same formula on Taylor
    jets in a (``_jet_mul``); only p is clamped.  Only ``_grid`` asks for
    them, on float rows, so they drop b = 1.0.
    """
    row_km1, row_km2 = rows
    ds = np.asarray(ds, int)
    a = np.asarray(a, row_km1.dtype)[..., None]
    z_c = _entries(row_km1, k - 1, abs(ds + 1))
    if row_km1.dtype == float and not order:
        # b = 1.0: the formula below with b dropped, term by term in place,
        # each term's operands in the same order, so every bit the same
        z_c *= a
        odd = np.subtract(_entries(row_km2, k - 2, abs(ds)), z_c, out=z_c)
        odd *= odd
        z_a = _entries(row_km1, k - 1, abs(ds - 1))
        p = (1.0 - a * a) * z_a
        p *= z_a
        p += odd
        return _clamp(p)
    z_a, z_b = _entries(row_km1, k - 1, abs(ds - 1)), _entries(row_km2, k - 2, abs(ds))
    if order:
        lam = np.stack([a, np.ones_like(a), np.zeros_like(a)][:order + 1])
        gap = -_jet_mul(lam, lam)                   # 1 - a^2
        gap[0] += 1.0
        odd = z_b - _jet_mul(lam, z_c)
        p = _jet_mul(_jet_mul(gap, z_a), z_a) + _jet_mul(odd, odd)
        p[0] = _clamp(p[0])
        return p
    b = np.asarray(b, row_km1.dtype)[..., None]
    if bits:
        scale, u = 1 << bits, _row_error(k)
    else:
        scale, u, z_b = b ** (k - 1), 0, b * z_b
    gap, den = b * b - a * a, (b * scale) ** 2
    z, w, v = abs(z_a), abs(b * z_b - a * z_c), (b + abs(a)) * u
    num = gap * np.maximum(z - u, 0) ** 2 + np.maximum(w - v, 0) ** 2
    if rational:
        return np.frompyfunc(_fraction, 2, 1)(num, den)
    p = (num / den).astype(float)
    if u:
        doubt = p != ((gap * (z + u) ** 2 + (w + v) ** 2) / den).astype(float)
        if doubt.any():
            p[doubt] = _exact_entries(k, a.item(), b.item(), ds[doubt])
    return _clamp(p)


# row entries per pass of the float rows, counted at the full width of a row
# (j + 1 entries, or its light cone), 8 bytes each: 128 such rows at k = 100,
# 102 KB a row array.  The rows store one parity class, about half of that
# (51 KB at k = 100), entry-major.  Narrow rows take more lam a pass, so a
# pass costs fewer numpy calls per lam.  A larger budget still cuts the
# 601-point scan over all columns (best ms of ten shuffled rounds in one
# process, 2-core host; budgets in units of 64 x 100 entries), but each
# pass holds more rows at once:
#
#   budget      k = 20   k = 48   k = 200   k = 500   peak RSS, k = 48 / 500 scan
#   x1          0.53     2.87     20.8      101       30.2 / 33.2 MB
#   x2 (this)   0.34     1.68     22.3      98.1      30.4 / 32.9 MB
#   x4          0.36     1.34     15.5      96.5      31.0 / 33.0 MB
#   x16         0.35     1.11     13.2      69.5      31.0 / 35.5 MB
#   unbounded   0.35     1.02     15.2      94.9      31.0 / 40.2 MB
#
# (peak RSS of a bare process running that one scan, median of three; at
# k >= 200, x1 and x2 both take the ``_FLOAT_BLOCK`` floor, so their columns
# differ by noise alone).  The float pmf of a pass runs in place
# (``_probabilities``), which paid for x2: before it, x1 held the k = 48
# scan at 30.3 MB and x2 at 30.8 MB.  x4 and x16 add 0.6 MB at k = 48, and
# x16 2.6 MB at k = 500
_FLOAT_ENTRIES = 128 * 100
# the fewest lam per float pass, whatever the row width
_FLOAT_BLOCK = 64


def _grid(k: int, lams, ds, order: int = 0) -> np.ndarray:
    """p(d; k, lam) on the float rows for every lam in ``lams`` (rows) and
    d in ``ds`` (columns); ``order`` 1 or 2 stacks the lam-derivatives
    (p, p', p'')[:order + 1] in front, from forward-mode rows in the same
    pass (``_iter_y_rows``).

    Each pass of the row engine takes as many values of lam as keep the
    widest row, counted at full width, within ``_FLOAT_ENTRIES`` entries,
    and at least ``_FLOAT_BLOCK``: the rows of the columns ``ds`` stop at
    their light-cone edge (``_edge``), at most edge // 2 + 1 entries, so the
    d = 0 column at k = 24 (edge 24, as in the fig2a grid of ``figures``)
    takes 984 lam a pass and all 49 columns at k = 48 (48 entries) take 266.
    The rows store one parity class, so a pass holds about half that many
    entries a row: 7 and 24 at those two k.  They are entry-major, shape
    (width, lam count) or (width, order + 1, lam count), so each row update
    of a pass runs on contiguous blocks (24 x 266 doubles for the widest row
    at k = 48) rather than on a short row per lam.  Every entry equals
    ``pmf_full(k, lam, exact=False)`` bit for bit, whatever the block.
    """
    lams = np.asarray(lams, float)
    _validate_k_lam(k, lams)
    out = np.empty(((order + 1,) if order else ()) + (len(lams), len(ds)))
    edge = _edge(k, ds)
    widest = k if edge == math.inf else edge // 2 + 1
    block = max(_FLOAT_BLOCK, _FLOAT_ENTRIES // widest)
    for i in range(0, len(lams), block):
        a, b = _ratio(lams[i:i + block], exact=False)
        rows = _rows_for(k, a, b, ds, order)
        out[..., i:i + block, :] = _probabilities(k, a, b, rows, ds, order=order)
    return out


@lru_cache(maxsize=48)
def _return_poly(k: int, order: int = 0) -> tuple[int, ...]:
    """The k integer coefficients of the return probability q(lam) =
    p(0; k, lam) in mu = lam^2, lowest power first, built once per k;
    ``order`` 1 or 2 gives those of its mu-derivatives Q' and Q'' instead,
    (i mu_i) and (i (i - 1) mu_i) shifted down, cached with them (16 k of
    all three orders).

    For even k, with n = k/2,

        q(lam) = 1 - int_0^(lam^2) R_k(mu)^2 dmu,
        R_k(lam) = sum_{j=1..n} (-1)^(n-j) C(n, j) C(n+j-1, j-1) lam^(2j-2),

    so q'(lam) = -2 lam R_k(lam)^2 (test_return_poly_derivative_is_minus_2_lam_r_squared):
    q is even and falls strictly on [0, 1] from 1 to 0, flat only at the
    zeros of R_k.  R_k is the shifted Jacobi polynomial P_{n-1}^(0,1)(2 lam^2 - 1).
    The coefficients are the square s of R_k and the exact division
    -s_i / (i + 1).  R_k's coefficients alternate in sign, so s_i =
    (-1)^i t_i with t the square of |R_k|, and t comes from one
    big-integer product: the |coefficients| packed into one integer, each
    in a field of bytes wide enough for any t_i (Kronecker substitution),
    squared, and read back a field at a time.  Odd k gives the zero
    polynomial.  ``k`` is a validated int: every caller checks it before
    the cache sees it.
    """
    if order:
        return tuple(math.perm(i, order) * c for i, c in enumerate(_return_poly(k)))[order:] or (0,)
    if k % 2:
        return (0,) * k
    n = k // 2
    r = [math.comb(n, j) * math.comb(n + j - 1, j - 1) for j in range(1, n + 1)]
    width = (2 * max(r).bit_length() + n.bit_length() + 7) // 8    # t_i <= n max(r)^2
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in r), "little")
    t = (packed * packed).to_bytes(2 * n * width, "little")
    return (1, *((-1) ** i * int.from_bytes(t[(i - 1) * width:i * width], "little") // i
                 for i in range(1, k)))


# fixed-point bits of a return value past those of its error bound: a value
# near 1 is then known to about 2^-72, so only one that close to a rounding
# boundary takes a second pass
_RETURN_BITS = 72


def _horner(c: tuple[int, ...], u: int, shift: int, bits: int) -> int:
    """Horner's rule for the coefficients ``c`` at mu = u / 2^shift in
    ``bits``-bit fixed point: acc <- floor(acc u / 2^shift) + c_i 2^bits."""
    acc = 0
    for c_i in reversed(c):
        acc = (acc * u >> shift) + (c_i << bits)
    return acc


def _exact_value(c: tuple[int, ...], u: int, shift: int) -> float:
    """The polynomial with the n integer coefficients ``c`` at mu = u /
    2^shift, its exact value V correctly rounded: Horner's rule on the
    integer V 2^(shift (n - 1)), acc <- acc u + c_i 2^(shift (n - 1 - i))
    from i = n - 1 down, which loses nothing, then one int division, which
    CPython rounds correctly."""
    acc = 0
    for j, c_i in enumerate(reversed(c)):
        acc = acc * u + (c_i << shift * j)
    return acc / (1 << shift * (len(c) - 1))


def _return_value(c: tuple[int, ...], lam: float) -> float:
    """The polynomial with the n integer coefficients ``c`` in mu = lam^2 at
    the float lam = a/2^e, its exact value V correctly rounded.

    ``_horner`` runs in P-bit fixed point, mu = a^2 / 4^e <= 1.  Each of
    its n - 1 floors loses less than one unit, and a product by mu <= 1
    does not enlarge an earlier loss, so V 2^P lies in [acc, acc + n - 1].
    Correct rounding is monotone, so when both ends round to one float,
    that float is V's.  P starts at ``_RETURN_BITS`` past the bits of n; a
    small V leaves acc fewer significant bits than P, so a bracket that
    rounds two ways is run once more with the missing bits added.  One
    that still does, a value that close to a rounding boundary, is rounded
    from V itself (``_exact_value``); so is any value whose P would reach
    2e (n - 1), the bits V needs, as at lam = 0 and +-1, where e = 0.
    """
    a, b = lam.as_integer_ratio()
    u, shift = a * a, 2 * b.bit_length() - 2        # b = 2^e, b^2 = 1 << shift
    n, exact = len(c), shift * (len(c) - 1)
    bits = _RETURN_BITS + n.bit_length()
    for _ in range(2):
        if bits >= exact:
            break
        acc = _horner(c, u, shift, bits)
        low, high = acc / (1 << bits), (acc + n - 1) / (1 << bits)
        if low == high:
            return low
        missing = bits - acc.bit_length()
        if missing <= 0:
            break
        bits += missing
    return _exact_value(c, u, shift)


def _return_grid(k: int, lams, order: int = 0) -> np.ndarray:
    """p(0; k, lam) for every lam in ``lams``: ``_return_value`` on the
    cached coefficients of this k (``_return_poly``), O(k) fixed-point
    operations a point, and each value the exact rows' correctly rounded
    rational bit for bit (test_exact_return_points_are_the_rows_bit_for_bit).

    ``order`` 1 or 2 stacks the lam-derivatives (q, q', q'')[:order + 1]
    in front.  With q_mu and q_mumu the mu-derivatives of q(lam) = Q(mu),
    mu = lam^2, each ``_return_value`` on the cached coefficients of Q'
    and Q'', q' = 2 lam q_mu and q'' = 2 q_mu + 4 lam^2 q_mumu.
    """
    lams = np.asarray(lams, float)
    k = _validate_k_lam(k, lams)
    values = lambda c: np.array([_return_value(c, lam) for lam in lams.tolist()], float)
    q = values(_return_poly(k))
    if not order:
        return q
    q_mu, q_mumu = values(_return_poly(k, 1)), values(_return_poly(k, 2))
    return np.stack([q, 2.0 * lams * q_mu, 2.0 * q_mu + 4.0 * lams * lams * q_mumu])[:order + 1]


def pmf_point(k: int, d: int, lam):
    """Probability of displacement ``d`` after ``k`` steps, coin parameter lam.

    Evaluates

        p = (1 - lam^2) * (Y_{|d-1|}^(k-1))^2
            + (Y_{|d|}^(k-2) - lam * Y_{|d+1|}^(k-1))^2

    from the rows of lam = a/b through the light cone of ``d``, with Y^(-1)
    = 0 at k = 1.  Zero off the parity-valid support; a ``d`` that is not
    an int (a float or a bool) raises ValueError.  A Fraction ``lam`` runs
    the exact integer rows and gives the exact rational probability; a
    float ``lam`` runs the fixed-point rows and gives that rational
    correctly rounded (``_probabilities``).
    """
    k = _validate_k_lam(k, lam)
    d = _integer(d, "displacement d")
    exact = isinstance(lam, Fraction)
    if abs(d) > k or (k - d) % 2:
        return Fraction(0) if exact else 0.0
    a, b = _ratio(lam)
    bits = 0 if exact else _fixed_bits(k, b)
    rows = _rows_for(k, a, b, [d], bits=bits)
    (p,) = _probabilities(k, a, b, rows, [d], rational=exact, bits=bits).tolist()
    return p


def pmf_full(k: int, lam, exact: bool = True) -> Pmf:
    """Full displacement table after ``k`` steps; normalized by construction.

    ``exact=True`` gives each entry as its exact rational correctly rounded:
    from fixed-point rows for a float lam or a Fraction over a power of two,
    from the exact integer rows for another Fraction (``_probabilities``).
    ``exact=False`` runs float64 rows."""
    k = _validate_k_lam(k, lam)
    a, b = _ratio(lam, exact)
    bits = _fixed_bits(k, b)
    ds = range(-k, k + 1, 2)
    p = _probabilities(k, a, b, _rows_for(k, a, b, bits=bits), ds, bits=bits)
    return Pmf(k, dict(zip(ds, p.tolist())), lam=float(lam))


_DECIMAL = "%.17g"                   # a number's decimal text; 17 digits round-trip float64
format_float = _DECIMAL.__mod__


def _json_safe(value):
    """``value`` as plain JSON: numpy scalars become Python ones, tuples
    lists, and NaN or an infinity None."""
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _specs(columns: dict, float_spec: str, cell):
    """One format spec per column of ``columns`` (name -> one value a row),
    the row count, and the varying columns' values interleaved row by row,
    so that the rows render in one ``(template * rows) % values``.

    A column that repeats one object, as ``k`` and ``lambda`` of a pmf
    table do, is its text ``cell(value)`` with ``%`` escaped; identity,
    not equality, so that cells 0.0 and -0.0 stay apart.  An all-int
    column is ``%d`` and an all-finite-float one ``float_spec``, which
    must give ``cell``'s text of a finite float.  Any other column, one
    that holds NaN or an infinity too, is ``%s`` over the ``cell`` text of
    each value."""
    rows = len(next(iter(columns.values()), ()))
    specs, varying = [], []
    for values in columns.values():
        if rows and all(map(is_, values, repeat(values[0]))):
            specs.append(cell(values[0]).replace("%", "%%"))
            continue
        kinds = set(map(type, values))
        if kinds <= {int}:
            spec = "%d"
        elif kinds != {float} or not all(map(math.isfinite, values)):
            spec, values = "%s", list(map(cell, values))
        else:
            spec = float_spec
        specs.append(spec)
        varying.append(values)
    return specs, rows, tuple(chain.from_iterable(zip(*varying)))


def _csv_text(meta: dict | None, columns: dict) -> str:
    """``# key: value`` stamps, then the column header, then one line per row.

    ``columns`` maps each column name to its values, one a row; a cell is
    ``_cell``'s text of its value (``_specs``).  LF line endings,
    17-significant-digit decimals.
    """
    lines = [f"# {key}: {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    specs, rows, values = _specs(columns, _DECIMAL, _cell)
    return "\n".join(lines) + "\n" + ((",".join(specs) + "\n") * rows) % values


def _mirror_text(meta: dict | None, columns: dict) -> str:
    """The JSON twin of ``_csv_text``: the text ``json.dumps`` writes with
    ``indent=2`` for ``{"meta": ..., "rows": [...]}``, each row keyed by
    column name with its values through ``_json_safe``, for one or more
    string column names.  The rows render through ``_specs`` in one
    ``%``, not through ``json``, whose indenting encoder is pure Python,
    several calls a value."""
    meta_text = json.dumps(dict(meta or {}), indent=2).replace("\n", "\n  ")
    # a value as ``json.dumps`` writes it in a row entry; it writes a finite float's repr
    cell = lambda v: json.dumps(_json_safe(v), indent=2).replace("\n", "\n      ")
    specs, rows, values = _specs(columns, "%r", cell)
    fields = (f"      {json.dumps(name).replace('%', '%%')}: {spec}"
              for name, spec in zip(columns, specs))
    body = (("    {\n" + ",\n".join(fields) + "\n    },\n") * rows) % values
    rows_text = f"[\n{body[:-2]}\n  ]" if rows else "[]"
    return f'{{\n  "meta": {meta_text},\n  "rows": {rows_text}\n}}\n'


_PMF_COLUMNS = ("k", "d", "r", "lambda", "p")


def _pmf_columns(k: int, table: dict, lam) -> dict:
    """The ``_PMF_COLUMNS`` of a table; ``k`` and ``lam`` repeat one object,
    so the writers format each once."""
    return dict(zip(_PMF_COLUMNS, ([k] * len(table), list(table), [d / k for d in table],
                                   [lam] * len(table), list(table.values()))))


def pmf_to_csv(pmf: Pmf, meta: dict | None = None) -> str:
    """Render a pmf as CSV with columns (k, d, r, lambda, p).

    Optional ``meta`` entries become leading ``# key: value`` comment
    lines.  LF line endings, 17-significant-digit decimals.
    """
    return _csv_text(meta, _pmf_columns(pmf.k, pmf.table, pmf.lam))


def _whole(value) -> int:
    """A CSV cell or JSON number as an int; a fractional number is rejected,
    not truncated (``int`` already rejects the cell "0.9")."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _pmf_from_rows(rows) -> Pmf:
    """A Pmf from rows keyed by ``_PMF_COLUMNS``, as text or JSON values;
    ``k`` and ``lambda`` are read off the last row."""
    if not rows:
        raise ValueError("pmf table has no data rows")
    try:
        table = {_whole(row["d"]): float(row["p"]) for row in rows}
        k, lam = _whole(rows[-1]["k"]), rows[-1]["lambda"]
        return Pmf(k, table, lam=None if lam in ("", None) else float(lam))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed pmf row: {exc!r}") from None


def pmf_from_csv(text: str) -> Pmf:
    """Parse ``pmf_to_csv`` output, or a CLI ``pmf`` or ``simulate`` .csv,
    back into a Pmf."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    if not rows or rows[0] != list(_PMF_COLUMNS):
        raise ValueError("not a pmf table: missing 'k,d,r,lambda,p' header")
    if any(len(rec) != len(_PMF_COLUMNS) for rec in rows[1:]):
        raise ValueError(f"malformed pmf table: every row needs {len(_PMF_COLUMNS)} cells")
    return _pmf_from_rows([dict(zip(_PMF_COLUMNS, rec)) for rec in rows[1:]])


def pmf_to_json(pmf: Pmf, meta: dict | None = None) -> dict:
    """JSON mirror of the CSV table: ``{"meta": ..., "rows": [...]}`` with
    one row per displacement, keyed by (k, d, r, lambda, p)."""
    columns = _pmf_columns(pmf.k, pmf.table, pmf.lam).values()
    return {"meta": dict(meta or {}),
            "rows": [dict(zip(_PMF_COLUMNS, map(_json_safe, row))) for row in zip(*columns)]}


def pmf_from_json(obj) -> Pmf:
    """Parse ``pmf_to_json`` output, or a CLI ``pmf`` or ``simulate`` .json
    (an object or its text), back into a Pmf."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if not isinstance(rows, list):
        raise ValueError("not a pmf mirror: no 'rows' list")
    return _pmf_from_rows(rows)
