"""Cross-check routes kept out of the package.

Each function here computes something ``reluctant_walk`` also computes, by
a route the package does not take, so tests can compare the two: the
O(k^2) Fraction series of the Y polynomials, their quadrature, their
terminating-2F1 form, the law-of-cosines and even-step 2F1 forms of the
pmf, the forward dynamics for a transition probability and the level set
by scipy's bisection of the exact return gap.  The package's
one route for each is the integer/float row engine
(``chebyshev._iter_y_rows`` -> ``pmf._grid``), except the return
probability that the level-set solve evaluates
(``pmf._return_grid``): a polynomial cached per k, whose coefficients
come from the integral of the squared Jacobi polynomial R_k
(``pmf._return_poly``).  ``return_power_coeffs`` builds the same
polynomial from the integer Y series instead, so its tests check the two
against each other and against the exact rows.
Two more keep the package's loops one step or one cell at a time: the walk
with a new state per step, and the artifact writer a cell at a time."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
from scipy.optimize import bisect

from reluctant_walk.chebyshev import chebyshev_u
from reluctant_walk.pmf import _cell, _clamp, _grid, _mirror, _validate_k_lam, pmf_point
from reluctant_walk.walk import (CoinParameter, WalkState, channel_position_pmf, evolve,
                                 position_pmf)

# Below this the 2F1 argument 1/lam^2 is not usable; fall back to the rows.
_EVEN_CLOSED_LAMBDA_FLOOR = 1e-6


@lru_cache(maxsize=64)
def exact_return_scan(k: int, lo: float, hi: float, resolution: int = 2048):
    """An even lam grid on [lo, hi] and the exact p(0; k, lam) on every point of it."""
    xs = np.linspace(lo, hi, resolution)
    q = _grid(k, xs, [0], exact=True)[:, 0]
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



def evolve_stepwise(state: WalkState, p: CoinParameter, steps: int) -> WalkState:
    """``walk.evolve`` as a new, one site wider ``WalkState`` per step."""
    c, s = p.lam, p.sin_theta
    for _ in range(steps):
        a0, a1 = state.amps
        new = np.zeros((2, state.width + 2), dtype=np.complex128)
        new[0, 2:] = c * a0 + s * a1        # coin 0 moves right
        new[1, : state.width] = -s * a0 + c * a1  # coin 1 moves left
        state = WalkState(state.k + 1, state.lo - 1, new)
    return state


def csv_text_per_cell(meta, columns, rows) -> str:
    """``pmf._csv_text`` with every cell through ``pmf._cell`` one at a time."""
    lines = [f"# {key}: {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def mirror_text_by_encoder(meta, columns, rows) -> str:
    """``pmf._mirror_text`` through the json module's indenting encoder."""
    return json.dumps(_mirror(meta, columns, rows), indent=2) + "\n"
