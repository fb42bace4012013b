"""Cross-check routes kept out of the package.

Each function here computes something ``reluctant_walk`` also computes, by
a slower route the package no longer takes, so tests can compare the two.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from reluctant_walk.estimation import _solve_level
from reluctant_walk.pmf import _grid


@lru_cache(maxsize=64)
def exact_return_scan(k: int, lo: float, hi: float, resolution: int = 2048):
    """The level-set scan grid and the exact p(0; k, lam) on every point of it."""
    xs = np.linspace(lo, hi, resolution)
    q = _grid(k, xs, [0], exact=True)[:, 0]
    xs.flags.writeable = q.flags.writeable = False
    return xs, q


def level_set_exact_scan(f: float, k: int, branch=(-1.0, 1.0), resolution: int = 2048,
                         residual_tol: float = 1e-10) -> list[float]:
    """``level_set_solve`` with every scan point scored by the exact rows."""
    xs, q = exact_return_scan(k, float(branch[0]), float(branch[1]), resolution)
    gap = lambda x: float(_grid(k, [x], [0], exact=True)[0, 0]) - f
    return _solve_level(xs, q - f, gap, f, residual_tol)
