"""Cross-check routes kept out of the package.

Each function here computes something ``reluctant_walk`` also computes, by
a route the package does not take, so tests can compare the two: the
O(k^2) Fraction series of the Y polynomials, their quadrature, their
terminating-2F1 form, the law-of-cosines and even-step 2F1 forms of the
pmf, the forward dynamics for a transition probability, the return
probability by quadrature of the Kraus pair (``return_probability_kraus``)
and the level set by scipy's bisection of the exact return gap.  The package's
one route for each is the integer/float row engine
(``chebyshev._iter_y_rows`` -> ``pmf_full``, and ``pmf._grid`` on float
rows for lam grids; ``exact_grid`` runs that grid on the exact rows),
except the return probability (``pmf._return_grid``, and
``pmf._return_value`` at the points the level-set solve scores):
correctly rounded fixed-point Horner values of a polynomial cached per k, whose integer
coefficients in lam^2 come from the integral of the squared Jacobi
polynomial R_k (``pmf._return_poly``, one big-integer square;
``return_poly_by_convolution`` squares R_k by an object-array
convolution instead).  ``return_power_coeffs`` builds the same
polynomial from the integer Y series, and ``pmf_power_coeffs`` any
p(d; k, lam), so their tests check the routes against each other, against
the exact rows and, through ``poly_derivative``, the lam-derivatives of
the float rows.
Three more keep the package's loops in their plain forms: the walk with a
new state per step, the U_n recurrence with 2x formed anew at every step,
and the artifact writer a cell at a time.
The rest check the mathematics the production routes rest on: U_n itself
(``chebyshev_u``, the first of ``chebyshev_u_pair``, which runs the
recurrence of ``chebyshev._chebyshev_u_pair`` on any type: a float
array, an extended-precision scalar or a Fraction), the
integral and derivative identities of the U_n family
(``chebyshev_identity_suite``, with ``_derivative_identity_sum``), and the
one-step momentum kernel with its k-th power in closed form
(``kernel_matrix``, ``kernel_power``), whose row 0 is
``walk.kraus_kernels``' pair."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb

import numpy as np
from scipy.optimize import bisect

from reluctant_walk.chebyshev import _integer, _iter_y_rows, _unit_lam
from reluctant_walk.pmf import (_cell, _clamp, _json_safe, _probabilities, _ratio, _rows_for,
                                _validate_k_lam, pmf_point)
from reluctant_walk.walk import (CoinParameter, WalkState, _momentum_grid,
                                 channel_position_pmf, evolve, kraus_kernels, position_pmf)

# Below this the 2F1 argument 1/lam^2 is not usable; fall back to the rows.
_EVEN_CLOSED_LAMBDA_FLOOR = 1e-6


def exact_grid(k: int, lams, ds) -> np.ndarray:
    """``pmf._grid`` on the exact integer rows, 12 lam a pass (2048 at once
    hold about 20 MB at k = 24), each row an entry-major object array of
    shape (width, 12): each entry is ``pmf_full(k, lam)``'s."""
    lams = np.asarray(lams, float)
    _validate_k_lam(k, lams)
    out = np.empty((len(lams), len(ds)))
    for i in range(0, len(lams), 12):
        a, b = _ratio(lams[i:i + 12])
        out[i:i + 12] = _probabilities(k, a, b, _rows_for(k, a, b, ds), ds)
    return out


@lru_cache(maxsize=64)
def exact_return_scan(k: int, lo: float, hi: float, resolution: int = 2048):
    """An even lam grid on [lo, hi] and the exact p(0; k, lam) on every point of it."""
    xs = np.linspace(lo, hi, resolution)
    q = exact_grid(k, xs, [0])[:, 0]
    xs.flags.writeable = q.flags.writeable = False
    return xs, q


def level_set_exact_bisection(f: float, k: int, branch=(-1.0, 1.0)) -> list[float]:
    """``level_set_solve`` by ``scipy.optimize.bisect`` of the exact gap
    p(0; k, lam) - f on [0, 1], where the return probability falls from 1
    to 0, and the members of {-r, r} on the branch, sorted (a positive
    zero at f = 1)."""
    r = bisect(lambda lam: pmf_point(k, 0, lam) - f, 0.0, 1.0, xtol=1e-14)
    lo, hi = branch
    return [x for x in sorted({r, -r}) if lo <= x <= hi]


def _y_coeffs(m: int, j: int) -> list[int]:
    """The integer coefficients of Y_m^(j)(lam), lowest power first, j + 1
    of them, from the terminating series of ``y_poly``; all zero unless
    m <= j with j - m even."""
    coeffs = [0] * (j + 1)
    if (j - m) % 2 == 0:
        for n in range((j - m) // 2 + 1):
            term = comb(j - n, n) * comb(j - 2 * n, (j + m) // 2 - n)
            coeffs[j - 2 * n] = -term if n % 2 else term
    return coeffs


def return_poly_by_convolution(k: int) -> tuple[int, ...]:
    """``pmf._return_poly(k)`` by one object-array self-convolution of
    R_k's signed coefficients and the exact division -s_i / (i + 1)."""
    if k % 2:
        return (0,) * k
    n = k // 2
    r = np.array([(-1) ** (n - j) * comb(n, j) * comb(n + j - 1, j - 1)
                  for j in range(1, n + 1)], object)
    return (1, *(-s // i for i, s in enumerate(np.convolve(r, r).tolist(), 1)))


def return_power_coeffs(k: int) -> list[int]:
    """The 2k - 1 integer power coefficients of p(0; k, lam), lowest first,
    from the Y series: p(0) = (1 - lam^2) Y_1^2 + (Y_0 - lam Y_1)^2
    = Y_1 (Y_1 - 2 lam Y_0) + Y_0^2 with Y_1 = Y_1^(k-1), Y_0 = Y_0^(k-2),
    by two integer convolutions."""
    u = np.array(_y_coeffs(1, k - 1), object)
    v = np.array(_y_coeffs(0, k - 2) + [0], object)     # Y_0 in k entries
    # np.roll(v, 1) holds lam Y_0: v's last entry is the padding zero
    return (np.convolve(u, u - 2 * np.roll(v, 1)) + np.convolve(v, v)).tolist()


def y_poly(d: int, k: int, lam):
    """Y_d^(k)(lam) by its terminating series, summed in exact rationals:

        Y_d^(k)(lam) = sum_{n=0}^{(k-|d|)/2} (-1)^n C(k-n, n)
                       * C(k-2n, (k+|d|)/2 - n) * lam^(k-2n)

    Zero when |d| > k or d and k differ in parity.  A Fraction ``lam``
    gives the exact value, a float the exact value correctly rounded.
    """
    if k < 0:
        raise ValueError(f"order must be non-negative, got {k}")
    exact = isinstance(lam, Fraction)
    if abs(lam) > 1:
        raise ValueError(f"|lam| must be <= 1, got {lam}")
    d = abs(int(d))
    if d > k or (k - d) % 2:
        return Fraction(0) if exact else 0.0
    lam_q = Fraction(lam)     # exact: a binary float is a dyadic rational
    total = Fraction(0)
    for n in range((k - d) // 2 + 1):
        term = comb(k - n, n) * comb(k - 2 * n, (k + d) // 2 - n) * lam_q ** (k - 2 * n)
        total += -term if n % 2 else term
    return total if exact else float(total)


def y_poly_quadrature(d: int, k: int, lam, resolution: int | None = None) -> float:
    """Y_d^(k)(lam) by the periodic trapezoid rule on U_k(lam*cos(phi))*cos(d*phi),
    exact for this trigonometric polynomial once the node count (default
    8*(k + |d| + 4)) exceeds its degree k + |d|."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if k < 0:
        raise ValueError(f"order must be non-negative, got {k}")
    d = abs(int(d))
    if resolution is None:
        resolution = 8 * (k + d + 4)
    phi = 2.0 * np.pi * np.arange(resolution) / resolution
    return float(np.mean(chebyshev_u(k, lam * np.cos(phi)) * np.cos(d * phi)))


def hyp2f1_terminating(a, b, c, z):
    """2F1(a, b; c; z) for a or b a non-positive integer, summed directly;
    exact (int or Fraction) inputs give an exact result.

    Raises ValueError when the series does not terminate, or when (c)_n
    vanishes before the terminating index while the numerator does not.
    """

    def _nonpos_int(v):
        try:
            return v <= 0 and float(v).is_integer()
        except (TypeError, OverflowError):
            return False

    stops = [int(-v) for v in (a, b) if _nonpos_int(v)]
    if not stops:
        raise ValueError("series does not terminate: neither a nor b is a non-positive integer")
    exact = all(isinstance(v, (int, Fraction)) for v in (a, b, c, z))
    term = Fraction(1) if exact else 1.0
    total = term
    for i in range(min(stops)):
        num = (a + i) * (b + i)
        if num == 0:
            break
        if c + i == 0:
            raise ValueError(f"(c)_n vanishes at n = {i + 1} before the series terminates (c = {c})")
        term = term * num * z / ((c + i) * (i + 1))
        total += term
    return total


def pmf_point_cosine_form(k: int, d: int, lam):
    """The pmf in law-of-cosines form, from ``y_poly``:

        p = (Y_{|d|}^(k))^2 + (Y_{|d-1|}^(k-1))^2 - 2 lam Y_{|d|}^(k) Y_{|d-1|}^(k-1)

    Algebraically equal to ``pmf_point`` through the order recurrence.
    """
    _validate_k_lam(k, lam)
    d = int(d)
    exact = isinstance(lam, Fraction)
    if abs(d) > k or (k - d) % 2:
        return Fraction(0) if exact else 0.0
    y_k = y_poly(abs(d), k, lam)
    y_km1 = y_poly(abs(d - 1), k - 1, lam)
    val = y_k * y_k + y_km1 * y_km1 - 2 * lam * y_k * y_km1
    return val if exact else _clamp(val)


def _y_via_2f1(m: int, j: int, lam_q: Fraction) -> Fraction:
    """Y_m^(j)(lam) = lam^j C(j, (j+m)/2) 2F1((m-j)/2, (-m-j)/2; -j; lam^-2),
    in exact rationals (the 2F1 factor grows like lam^-j)."""
    m = abs(m)
    if m > j or (j - m) % 2:
        return Fraction(0)
    f = hyp2f1_terminating(Fraction(m - j, 2), Fraction(-m - j, 2), Fraction(-j),
                           1 / (lam_q * lam_q))
    return lam_q**j * comb(j, (j + m) // 2) * f


def pmf_even_closed(k2: int, d2: int, lam):
    """``pmf_point(k2, d2, lam)`` for even k2 and d2 with every Y factor in
    its terminating 2F1 form; delegates to ``pmf_point`` below the 2F1
    floor on |lam|."""
    _validate_k_lam(k2, lam)
    if k2 % 2 or d2 % 2:
        raise ValueError(f"even step and displacement required, got k={k2}, d={d2}")
    exact = isinstance(lam, Fraction)
    if abs(d2) > k2:
        return Fraction(0) if exact else 0.0
    if abs(lam) < _EVEN_CLOSED_LAMBDA_FLOOR:
        return pmf_point(k2, d2, lam)
    lam_q = Fraction(lam)
    y_a = _y_via_2f1(d2 - 1, k2 - 1, lam_q)
    y_b = _y_via_2f1(d2, k2 - 2, lam_q)
    y_c = _y_via_2f1(d2 + 1, k2 - 1, lam_q)
    val = (1 - lam_q * lam_q) * y_a * y_a + (y_b - lam_q * y_c) ** 2
    return val if exact else _clamp(float(val))


def transition_probability(a: int, b: int, k: int, theta: float,
                           via: str = "analytic") -> float:
    """Probability that a walker started at site a is at site b after k steps.

    Sites are on the analytic axis, so "analytic" is pmf_point(k, b - a,
    lam); "simulation" and "channel" run the forward dynamics, which live
    on the reflected axis, and read site 2a - b.
    """
    p = CoinParameter(theta)
    if via == "analytic":
        return float(pmf_point(k, b - a, p.lam))
    if via == "simulation":
        return position_pmf(evolve(WalkState.localized(a), p, k)).probability(2 * a - b)
    if via == "channel":
        return channel_position_pmf(WalkState.localized(a), p, k).probability(2 * a - b)
    raise ValueError(f"via must be 'analytic', 'simulation' or 'channel', got {via!r}")


def return_probability_kraus(p: CoinParameter, k: int) -> float:
    """Probability of finding the walker back at its start site after k steps.

    The return amplitudes are the zero-frequency coefficients of the Kraus
    pair, taken as means over the channel's momentum grid for one start
    site (R >= 2k+1 nodes).  A_k and B_k have degree <= k, so the means
    are exact to rounding.
    """
    _integer(k, "step count k", 1)
    a, b = kraus_kernels(_momentum_grid(2 * k + 1), p, k)
    return float(abs(np.mean(a)) ** 2 + abs(np.mean(b)) ** 2)



def evolve_stepwise(state: WalkState, p: CoinParameter, steps: int) -> WalkState:
    """``walk.evolve`` as a new, one site wider ``WalkState`` per step, each
    computed over its whole window: sites of both parities, where ``evolve``
    keeps only the occupied class of a one-site start."""
    c, s = p.lam, p.sin_theta
    for _ in range(steps):
        a0, a1 = state.amps
        new = np.zeros((2, state.width + 2), dtype=np.complex128)
        new[0, 2:] = c * a0 + s * a1        # coin 0 moves right
        new[1, : state.width] = -s * a0 + c * a1  # coin 1 moves left
        state = WalkState(state.k + 1, state.lo - 1, new)
    return state


def chebyshev_u_stepwise(n: int, x):
    """(U_n(x), U_{n-1}(x)) by U_{j+1} = 2 * x * U_j - U_{j-1}, forming 2x
    anew at each step, in the arithmetic of ``x`` (no extended precision)."""
    one = x * 0 + 1
    u_prev, u = one - one, one
    for _ in range(n):
        u_prev, u = u, 2 * x * u - u_prev
    return u, u_prev


def chebyshev_u_pair(n, x):
    """(U_n(x), U_{n-1}(x)), U_{-1} = 0, in one pass of the recurrence of
    ``chebyshev._chebyshev_u_pair`` (2x formed once), for any ``x``.

    A float array runs in its own arithmetic, as there.  A scalar float is
    accumulated in extended precision (np.longdouble) and rounded once at
    the end, which keeps the absolute error below ~4e-15 even for n = 200
    near |x| = 1, where U is large; a Fraction stays exact.  A degree that
    is not an integer n >= 0 raises ValueError.
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


def chebyshev_u(n, x):
    """U_n(x), the Chebyshev polynomial of the second kind, in the types and
    precision of ``chebyshev_u_pair``; a degree that is not an integer
    n >= 0 raises ValueError.  For |x| <= 1 it agrees with
    sin((n+1)*arccos(x))/sin(arccos(x))."""
    return chebyshev_u_pair(n, x)[0]


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

    u_odd, u_even = chebyshev_u_pair(2 * r + 1, lam * cphi)
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


def kernel_matrix(phi: float, p: CoinParameter) -> np.ndarray:
    """One-step kernel at momentum phi.

    In the phase basis the shift is diagonal, so one step is the 2x2
    matrix [[e^{i phi} c, e^{-i phi} s], [-e^{i phi} s, e^{-i phi} c]]
    acting on the coin alone.
    """
    c, s = p.lam, p.sin_theta
    ep, em = np.exp(1j * phi), np.exp(-1j * phi)
    return np.array([[ep * c, em * s], [-ep * s, em * c]])


def kernel_power(phi: float, p: CoinParameter, k: int) -> np.ndarray:
    """k-th power of the kernel via its characteristic polynomial.

    M^k = M * U_{k-1}(xi) - I * U_{k-2}(xi) with xi = cos(theta) cos(phi),
    U_n the Chebyshev polynomials of the second kind, in float64
    (``chebyshev_u_stepwise``).  No matrix powers are taken.  Row 0 is the
    Kraus pair, which ``walk.kraus_kernels`` computes apart.
    """
    _integer(k, "step count k", 0)
    if k == 0:
        return np.eye(2, dtype=np.complex128)
    xi = p.lam * math.cos(phi)
    u1, u2 = chebyshev_u_stepwise(k - 1, xi)
    return kernel_matrix(phi, p) * u1 - np.eye(2) * u2


def csv_text_per_cell(meta, columns, rows) -> str:
    """``pmf._csv_text`` with every cell through ``pmf._cell`` one at a time."""
    lines = [f"# {key}: {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def mirror_text_by_encoder(meta, columns, rows) -> str:
    """``pmf._mirror_text`` through the json module's indenting encoder,
    each row keyed by column with its values through ``pmf._json_safe``."""
    rows = [{c: _json_safe(row[c]) for c in columns} for row in rows]
    return json.dumps({"meta": dict(meta or {}), "rows": rows}, indent=2) + "\n"


def pmf_power_coeffs(k: int, d: int) -> list[int]:
    """The 2k + 3 integer power coefficients of p(d; k, lam), lowest first,
    from the Y series: p = (1 - lam^2) Y_{|d-1|}^(k-1)^2
    + (Y_{|d|}^(k-2) - lam Y_{|d+1|}^(k-1))^2, with Y^(-1) = 0."""
    def y(m, j):        # Y_|m|^(j) in k + 1 entries, the last a padding zero
        c = _y_coeffs(abs(m), j) if j >= 0 else []
        return np.array(c + [0] * (k + 1 - len(c)), object)

    left, odd = y(d - 1, k - 1), y(d, k - 2) - np.roll(y(d + 1, k - 1), 1)
    gap = np.convolve(np.array([1, 0, -1], object), left)
    return (np.convolve(gap, left) + np.concatenate([np.convolve(odd, odd), [0, 0]])).tolist()


def poly_derivative(coeffs: list[int]) -> list[int]:
    """The coefficients of the derivative of a polynomial, lowest power first."""
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_value(coeffs, x) -> float:
    """The polynomial with coefficients ``coeffs`` (lowest first) at the
    rational x = a/b, exact and rounded once: Horner's rule on the
    integers, sum c_i a^i b^(n-i), over b^n."""
    a, b = Fraction(x).as_integer_ratio()
    num, scale = 0, 1
    for c in reversed(coeffs):
        num, scale = num * a + c * scale, scale * b
    return num / (scale // b) if coeffs else 0.0
