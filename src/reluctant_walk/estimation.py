"""Coin-angle inference from observed walk data.

Two observation models share one interface.  Position data are
displacement samples on the analytic axis of ``pmf`` (the mirror of the
simulator's axis; see ``pmf.CONVENTION_SIGMA``), scored by the exact pmf.
Return counts are Bernoulli trials of an even-step walker being found
back at its start site, inverted through the level set of the closed-form
return probability: it falls from 1 to 0 on lam in [0, 1], so the level
of the return frequency is one bisection there.  A dataset stores only
the sufficient statistic its likelihood reads: the count (total weight)
of each displacement seen, or n and n0.

Estimates carry a concavity diagnostic.  The curvature l'' is analytic:
the lam-derivatives of the pmf come from forward-mode rows of the float
recurrence, those of the return probability from its closed form.
Writing ptilde = exp(l/n) for the geometric-mean per-trial likelihood,
the reported positivity value is p'^2 - p''*p evaluated at the
maximizer, which equals -ptilde^2 * l''/n there; it must be positive at
an interior maximum.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, ClassVar

import numpy as np

from .chebyshev import _finite, _integer, _step_count, _unit_interval
from .pmf import (CONVENTION_SIGMA, _grid, _json_safe, _return_grid, _return_poly,
                  _return_value)

__all__ = [
    "TrialDataset",
    "LikelihoodCurve",
    "EstimateResult",
    "log_likelihood",
    "likelihood_curve",
    "mle_estimate",
    "level_set_solve",
    "dataset_to_json",
    "dataset_from_json",
]

_CANDIDATE_WINDOW = 1e-6   # grid maxima within this of the best are all refined
_FLAT_TOL = 1e-14          # grid range below this flags a flat likelihood
_TIE_TOL = 1e-9            # refined values within this are ties -> smaller theta
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, init=False)
class TrialDataset:
    """Observed data for one estimation run, stored as its sufficient statistic.

    kind "positions": the inputs ``positions`` (displacement samples on
    the analytic axis, parity-valid for ``k`` and within [-k, k]) and
    ``weights`` (parallel to positions, 1 each by default) are stored as
    their ``tally``: each displacement seen with its total weight (zero
    included), in displacement order.  So a weight is an ordinary count,
    and the same draws in any order give an equal dataset.  kind
    "returns": ``n`` even-step trials of which ``n0`` ended at the start
    site, with an empty tally.  An input of the other kind must keep its
    default.  ``seed`` records sampling provenance only: None or an int
    >= 0, the seeds ``sampling.trial_generator`` takes.
    """

    kind: str
    k: int
    tally: tuple
    n: int | None
    n0: int | None
    seed: int | None

    def __init__(self, kind: str, k: int, positions=(), weights=None, n=None, n0=None, seed=None):
        if kind not in ("positions", "returns"):
            raise ValueError(f"kind must be 'positions' or 'returns', got {kind!r}")
        if seed is not None:
            seed = _integer(seed, "seed", 0)
        k = _step_count(k)
        positions = tuple(positions)
        unused = ({"n": n, "n0": n0} if kind == "positions"
                  else {"positions": positions or None, "weights": weights})
        for name, value in unused.items():
            if value is not None:
                raise ValueError(f"{name} does not apply to {kind} data, got {value!r}")
        if not set(map(type, positions)) <= {int}:
            positions = tuple(_integer(d, "d") for d in positions)
        counts = Counter(positions)
        # checked once per distinct value; the error names the first in order
        invalid = {d for d in counts if abs(d) > k or (k - d) % 2}
        if invalid:
            d = next(d for d in positions if d in invalid)
            raise ValueError(f"displacement {d} is outside the parity-valid support for k={k}")
        if weights is not None:
            w = tuple(map(_weight, weights))
            if len(w) != len(positions):
                raise ValueError("weights and positions length mismatch")
            if any(x < 0 for x in w) or (w and not 0 < sum(w) < math.inf):
                raise ValueError("weights must be nonnegative with finite total > 0")
            counts = {}
            for d, x in zip(positions, w):
                counts[d] = counts.get(d, 0.0) + x
        if kind == "returns":
            if k % 2:
                raise ValueError("return-count data requires an even step count")
            n, n0 = _integer(n, "n", 1), _integer(n0, "n0", 0)
            if n0 > n:
                raise ValueError(f"need 0 <= n0 <= n with n >= 1, got n0={n0} n={n}")
        tally = tuple(sorted((d, float(c)) for d, c in counts.items()))
        for name, value in (("kind", kind), ("k", k), ("tally", tally),
                            ("n", n), ("n0", n0), ("seed", seed)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_positions(cls, k, positions, weights=None, seed=None) -> "TrialDataset":
        return cls("positions", k, positions, weights, seed=seed)

    @classmethod
    def from_returns(cls, k, n0, n, seed=None) -> "TrialDataset":
        return cls("returns", k, n=n, n0=n0, seed=seed)

    @property
    def trials(self) -> float:
        """Effective number of trials: n for return counts, the tally's total
        weight for positions (the draw count for unweighted data)."""
        if self.kind == "returns":
            return float(self.n)
        return math.fsum(w for _, w in self.tally)

    def counts(self) -> dict[int, float]:
        """The tally as a dict: total weight per observed displacement, in
        displacement order."""
        if self.kind == "returns":
            raise ValueError("counts() applies to positions data")
        return dict(self.tally)


def _weight(value) -> float:
    """``value`` as a float; a bool, a non-number, NaN, an infinity or an
    int beyond the float range is rejected."""
    with contextlib.suppress(OverflowError):  # isfinite of an int beyond the float range
        if (isinstance(value, numbers.Real) and type(value) is not bool
                and math.isfinite(value)):
            return float(value)
    raise ValueError(f"weights must be finite real numbers, got {value!r}")


def log_likelihood(data: TrialDataset, theta: float) -> float:
    """Total log-likelihood of the dataset at coin angle theta.

    Returns -inf when any observed displacement has zero probability
    under theta.  Parity-invalid data cannot occur here; TrialDataset
    rejects it at construction.
    """
    return float(_log_likelihoods(data, np.cos([theta]))[0])


def _outcomes(data: TrialDataset, lams, order: int = 0):
    """The weight of each observed outcome and its probability at every
    lam in ``lams`` (rows by outcome columns): position data from one
    float pmf grid of the observed columns (``pmf._grid``), return counts
    from the exact return probability of each lam (``pmf._return_grid``,
    Horner on the cached polynomial of k) and its complement.  ``order``
    1 or 2 stacks the lam-derivatives of the probabilities in front."""
    if data.kind == "returns":
        q = _return_grid(data.k, lams, order)
        miss = np.concatenate([1.0 - q[:1], -q[1:]]) if order else 1.0 - q
        terms = [(c, p) for c, p in ((data.n0, q), (data.n - data.n0, miss)) if c]
        return [c for c, _ in terms], np.stack([p for _, p in terms], axis=-1)
    counts = data.counts()
    return list(counts.values()), _grid(data.k, lams, list(counts), order)


def _log_likelihoods(data: TrialDataset, lams) -> np.ndarray:
    """The log-likelihood at every lam in ``lams`` (``_outcomes``)."""
    return _log_sum(*_outcomes(data, lams))


def _log_sum(weights, p: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * log(p[:, j]) per row, added in column order;
    -inf on a row with any p <= 0, whatever its weight.  The logs overwrite
    p, so p must be a grid that no caller reads again."""
    positive = p > 0.0
    logs = np.log(p, out=p, where=positive)
    total = np.zeros(len(p))
    for w, column in zip(weights, logs.T):
        total += w * column
    return np.where(positive.all(axis=1), total, -np.inf)


def _derivatives(data: TrialDataset, theta):
    """(l, l', l''): the log-likelihood and its first two theta-derivatives
    at theta, from one order-2 pass of ``_outcomes`` at lam = cos theta;
    for a vector of theta, three arrays over it from that one pass.

    With weights w_j and probabilities p_j, l_lam = sum w_j p_j'/p_j and
    l_lamlam = sum w_j (p_j''/p_j - (p_j'/p_j)^2), each summed exactly
    (``math.fsum``); then l' = -sin(theta) l_lam and l'' = sin(theta)^2
    l_lamlam - cos(theta) l_lam.  Both are NaN where a term is not finite,
    as where some p_j is 0.
    """
    thetas = np.atleast_1d(np.asarray(theta, float)).tolist()
    weights, (p, dp, d2p) = _outcomes(data, [math.cos(t) for t in thetas], order=2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = dp / p
        terms = np.asarray(weights, float) * np.stack([ratio, d2p / p - ratio * ratio], 1)
    score, curvature = [], []
    for t, row in zip(thetas, terms):
        l_lam, l_lamlam = (map(math.fsum, row.tolist()) if np.isfinite(row).all()
                           else (math.nan, math.nan))
        sin, cos = math.sin(t), math.cos(t)
        score.append(-sin * l_lam)
        curvature.append(sin * sin * l_lamlam - cos * l_lam)
    ll = _log_sum(weights, p)        # last: its logs overwrite p
    if np.ndim(theta):
        return ll, np.array(score), np.array(curvature)
    return float(ll[0]), score[0], curvature[0]


@dataclass(frozen=True)
class LikelihoodCurve:
    """Log-likelihood on an even theta grid, with its argmax and curvature there."""

    k: int
    thetas: np.ndarray
    loglik: np.ndarray
    argmax_theta: float
    curvature: float


def likelihood_curve(data: TrialDataset, theta_range=(0.0, math.pi / 2),
                     grid_size: int = 601) -> LikelihoodCurve:
    thetas, ll = _scan(data, theta_range, grid_size)
    if np.isfinite(ll).any():
        arg = float(thetas[int(np.argmax(ll))])   # ll is finite or -inf (``_log_sum``)
        curvature = _derivatives(data, arg)[2]
    else:
        arg, curvature = math.nan, math.nan
    return LikelihoodCurve(data.k, thetas, ll, arg, curvature)


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with diagnostics.

    ``candidates`` lists every refined near-optimal maximizer (or the
    level-set root for return counts) in theta coordinates; ``theta_hat``
    is the best of them with ties resolved toward smaller theta.
    ``flags`` may contain "flat_likelihood" and "boundary_maximum".
    """

    theta_hat: float
    lambda_hat: float
    loglik: float
    curvature: float
    positivity: float
    candidates: tuple[float, ...]
    flags: tuple[str, ...]
    kind: str
    k: int
    n: float
    seed: int | None = None
    convention_sigma: ClassVar[int] = CONVENTION_SIGMA

    def to_json(self) -> dict:
        names = [f.name for f in fields(self)] + ["convention_sigma"]
        return {name: _json_safe(getattr(self, name)) for name in names}


def _theta_bounds(theta_range) -> tuple[float, float]:
    """``theta_range`` as floats (lo, hi); raises unless both are finite with lo < hi."""
    lo, hi = float(theta_range[0]), float(theta_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid theta range {theta_range}")
    return lo, hi


def _scan(data: TrialDataset, theta_range, grid_size):
    """The even theta grid over ``theta_range`` and the log-likelihood on it."""
    lo, hi = _theta_bounds(theta_range)
    _integer(grid_size, "grid size", 3)
    thetas = np.linspace(lo, hi, grid_size)
    return thetas, _log_likelihoods(data, np.cos(thetas))


def _result(data: TrialDataset, theta: float, loglik: float, curvature: float,
            candidates, flags) -> EstimateResult:
    """The estimate theta of ``data`` with its log-likelihood and curvature
    l'' there: lam_hat = cos theta, and the positivity -ptilde^2 l''/n with
    ptilde = exp(l/n), NaN unless l and l'' are finite."""
    n = data.trials
    positivity = math.nan
    if math.isfinite(loglik) and math.isfinite(curvature) and n > 0:
        positivity = -(math.exp(loglik / n) ** 2) * curvature / n
    return EstimateResult(theta, math.cos(theta), loglik, curvature, positivity,
                          tuple(candidates), tuple(flags), data.kind, data.k, n, data.seed)


def _newton_max(data: TrialDataset, a: float, b: float, x: float, tol: float):
    """The maximum of the log-likelihood on [a, b] reached from x, as
    (theta, l, l'') at the last point scored.

    A safeguarded Newton iteration on the score l' (the rule of Numerical
    Recipes' rtsafe): each pass scores one theta (``_derivatives``) and
    moves the bracket end on its downhill side to it, by the sign of l'.
    The next point is the Newton step -l'/l'' when l'' < 0, the step
    lands in the bracket and it is at most half the step before last, and
    the bracket's midpoint otherwise.  A point where l' or l'' is not
    finite is cut off on its side of x.  It stops when l' = 0 or the next
    step is at most tol, which is at least 4 eps (|a| + |b|), so any
    tol >= 0 terminates.
    """
    tol = max(tol, 4.0 * _EPS * (abs(a) + abs(b)))
    start, before, step = x, b - a, b - a
    while True:
        ll, score, curvature = _derivatives(data, x)
        if score == 0.0:
            return x, ll, curvature
        finite = math.isfinite(score)          # and so is l'' (``_derivatives``)
        if finite:
            result = x, ll, curvature
            a, b = (x, b) if score > 0.0 else (a, x)
        elif x == start:
            return x, ll, curvature
        else:
            a, b = (a, x) if x > start else (x, b)
        newton = x - score / curvature if finite and curvature < 0.0 else math.nan
        if not (a <= newton <= b and abs(newton - x) <= before / 2):
            newton = 0.5 * (a + b)
        before, step = step, abs(newton - x)
        if step <= tol:
            return result
        x = newton


def _seed(data: TrialDataset, thetas, ll, i: int, a: float, b: float) -> float:
    """Where the refine of a run starts, from its best grid point i and its
    bracket [a, b].

    s is the vertex of the parabola through grid points i - 1, i and i + 1,
    spacing h.  One order-2 pass scores s - h/8, s and s + h/8
    (``_derivatives``), and the start is the second-order step toward the
    root of the score, x1 = s - l'/l'' - l''' l'^2 / (2 l''^3), with l''' the
    central difference of l''.  The start is s when x1 leaves [a, b], a
    value is not finite or l''(s) >= 0, and the grid point itself when i
    is an end of the grid or the parabola is not concave.
    """
    x = float(thetas[i])
    if not 0 < i < len(thetas) - 1:
        return x
    h = float(thetas[i + 1] - thetas[i])
    below, at, above = ll[i - 1:i + 2].tolist()
    bend = below - 2.0 * at + above
    s = x + 0.5 * h * (below - above) / bend if bend < 0.0 else math.nan
    if not math.isfinite(s):
        return x
    _, score, curvature = _derivatives(data, [s - h / 8, s, s + h / 8])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step = score[1] / curvature[1]
        third = (curvature[2] - curvature[0]) / (h / 4)
        x1 = float(s - step - third * step * step / (2.0 * curvature[1]))
    finite = np.isfinite([*score, *curvature, x1]).all()
    return x1 if finite and curvature[1] < 0.0 and a <= x1 <= b else s


def _best(candidates):
    """The (theta, value, curvature) triple of largest value from a
    theta-sorted list; a value within _TIE_TOL of the best so far keeps
    the smaller theta."""
    best = candidates[0]
    for candidate in candidates[1:]:
        if candidate[1] > best[1] + _TIE_TOL:
            best = candidate
    return best


def mle_estimate(data: TrialDataset, theta_range=(0.0, math.pi / 2),
                 grid_size: int = 601, refine_tolerance: float = 1e-9) -> EstimateResult:
    """Maximum-likelihood coin angle for a dataset.

    Position data: dense grid scan of the log-likelihood (one likelihood
    call, which the row engine serves in passes sized by the width of the
    rows the observed displacements read: three over the default 601
    points at k = 48, one at k = 20), then a safeguarded Newton iteration
    on the score (``_newton_max``) for each run within 1e-6 of the best
    value, inside the grid points flanking the run, until the next step
    is at most refine_tolerance (finite, >= 0; 0 means float resolution).
    It starts from ``_seed``: one pass scores three theta around the
    vertex of the parabola through the run's best grid point and its
    neighbours, and a second-order step from there starts the iteration.
    That bounds the last step, not the distance to the score's root: near
    a maximum with l'' < 0 the two are about equal, but where l''
    vanishes at the root too theta_hat can lie several tolerances away.
    Each Newton pass scores one theta: the log-likelihood and its first
    two theta-derivatives from one forward-mode pass of the rows
    (``pmf._grid`` of order 2), so a default fit makes the scan, the
    three-theta pass and one or two such passes (2.0 order-2 passes a fit
    on average over 20 seeded datasets of 10,000 draws at k = 20 and at
    k = 48).  theta_hat is the last theta scored, and the curvature and
    positivity are read off its pass.
    Return counts: the empirical return frequency is pushed through the
    level set of the closed-form return probability on the lam branch
    [0, 1], the default theta range; its one root there is the candidate
    when its theta lies in ``theta_range``, and a range outside [0, pi/2]
    raises ValueError.  n0 = 0 or n0 = n puts the root at an end of the
    branch, theta 0 or pi/2, and is flagged "boundary_maximum".
    """
    _finite(refine_tolerance, "refine tolerance", 0)
    if data.kind == "returns":
        return _estimate_from_returns(data, theta_range)
    if not data.tally:
        raise ValueError("cannot estimate from an empty dataset")
    thetas, ll = _scan(data, theta_range, grid_size)
    lo, hi = float(thetas[0]), float(thetas[-1])
    spacing = (hi - lo) / (len(thetas) - 1)

    finite = np.isfinite(ll)
    if not finite.any():
        return _result(data, math.nan, -math.inf, math.nan, (), ("flat_likelihood",))
    gmax = float(ll[finite].max())
    flags = []
    if gmax - float(ll[finite].min()) < _FLAT_TOL:
        flags.append("flat_likelihood")

    near = np.flatnonzero(ll >= gmax - _CANDIDATE_WINDOW)
    runs = np.split(near, np.flatnonzero(np.diff(near) > 1) + 1)
    candidates = []  # theta-sorted: each lies in its run's bracket, and brackets only touch
    for run in runs:
        a, b = float(thetas[max(run[0] - 1, 0)]), float(thetas[min(run[-1] + 1, len(thetas) - 1)])
        start = _seed(data, thetas, ll, run[int(np.argmax(ll[run]))], a, b)
        candidates.append(_newton_max(data, a, b, start, refine_tolerance))
    best_theta, best_ll, curvature = _best(candidates)

    if best_theta - lo < spacing or hi - best_theta < spacing:
        flags.append("boundary_maximum")
    return _result(data, best_theta, best_ll, curvature,
                   (t for t, _, _ in candidates), flags)


def _estimate_from_returns(data: TrialDataset, theta_range) -> EstimateResult:
    lo, hi = _theta_bounds(theta_range)
    if lo < 0.0 or hi > math.pi / 2:
        raise ValueError(f"theta range {theta_range} reaches outside [0, pi/2], "
                         "the lam branch [0, 1] of return data")
    (root,) = level_set_solve(data.n0 / data.n, data.k, branch=(0.0, 1.0))
    theta = math.acos(root)
    if not lo <= theta <= hi:
        return _result(data, math.nan, -math.inf, math.nan, (), ("flat_likelihood",))
    ll, _, curvature = _derivatives(data, theta)
    # n0 = 0 puts the root at lam = 1 (theta 0), n0 = n at lam = 0 (theta pi/2)
    flags = ("boundary_maximum",) if data.n0 in (0, data.n) else ()
    return _result(data, theta, ll, curvature, (theta,), flags)


def _bisect(gap: Callable[[float], float], a: float, b: float, fa: float):
    """A root of gap on [a, b], given fa = gap(a) and a sign change there.

    Halves one midpoint at a time (step *= 0.5; mid = a + step) until the
    gap at the midpoint is 0 or |step| < 1e-14 + 4 eps |mid|: the loop and
    rule of scipy.optimize.bisect at xtol = 1e-14, so its root bit for bit.
    """
    step = b - a
    while True:
        step *= 0.5
        mid = a + step
        fm = gap(mid)
        if (fm < 0) == (fa < 0):     # fm * fa >= 0, which underflows for tiny gaps
            a = mid
        if fm == 0 or abs(step) < 1e-14 + 4.0 * _EPS * abs(mid):
            return mid


def level_set_solve(f: float, k: int, branch: tuple[float, float] = (-1.0, 1.0)) -> list[float]:
    """Every lam on the branch where the k-step return probability equals f.

    The return probability q(lam) = p^(k)(0, lam) is a polynomial of degree
    2k - 2 whose integer coefficients in lam^2 are built once per k and
    cached (``pmf._return_poly``).  Since q'(lam) = -2 lam R_k(lam)^2, q is
    even and falls from q(0) = 1 to q(1) = 0, so every level f has one
    root r on [0, 1] and its mirror -r.  r is 0 at f = 1, 1 at f = 0, and
    otherwise scipy's bisection of the exact gap q - f on (0, 1), bit for
    bit, found at a few points (``_return_root``).  The result holds the
    members of {-r, r} that lie on the branch, sorted, and is empty when
    neither does (e.g. f above the maximum of q on the branch).  f must lie
    in [0, 1] and k be an even step count (``_step_count``), checked before
    any coefficient is built.
    """
    _unit_interval(f, "level")
    k = _step_count(k, 2)       # an int for the cache of ``_return_poly``
    if k % 2:
        raise ValueError(f"return probability needs an even k >= 2, got {k}")
    lo, hi = float(branch[0]), float(branch[1])
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError(f"branch must be a sub-interval of [-1, 1], got {branch}")
    r = 0.0 if f == 1.0 else 1.0 if f == 0.0 else _return_root(f, k)
    return [x for x in ([r] if r == 0.0 else [-r, r]) if lo <= x <= hi]


def _return_root(f: float, k: int) -> float:
    """``_bisect`` of the float gap q(x) - f on [0, 1] for 0 < f < 1, with
    q correctly rounded (``pmf._return_value``), scoring few of its points.

    round(q) does not rise on [0, 1], so neither does the sign of the gap:
    it is positive left of every x where it was seen positive and negative
    right of every x where it was seen negative.  So the solve keeps a
    bracket (lo, hi) of such points, at first the ends, where q(0) = 1 > f
    > 0 = q(1).  It finds the root approximately, certifies a point on each
    side of it, and then runs the bisection with a gap that answers every
    midpoint outside the bracket by its sign and scores (and tightens the
    bracket with) only those inside it, so every branch, the stop at a
    zero gap and the root are the plain bisection's.

      - The root is approached by a safeguarded Newton iteration (the rule
        of ``_newton_max``) from lam = 1/sqrt(1 + (pi k f / 2)^2), where
        the large-k return probability 2 tan(theta) / (pi k) equals f, or
        for f > 1/2 from sqrt(1 - f) / (k/2) if smaller, where q ~ 1 -
        (k/2)^2 lam^2 near lam = 0 equals f: near f = 1 the large-k start
        lies far right of the root, where Newton only halves the distance.
        Each pass scores x and takes q'(x) = 2 x Q'(x^2) from the cached
        coefficients of Q'.  It stops at a zero gap, or when the Newton
        step or the bracket is at most 4 eps x; the bracket halves at
        every midpoint step, so it stops.
      - At a flat inflection, a level q(r) where R_k(r) = 0, q - f has a
        triple root (the zeros of the Jacobi polynomial R_k are simple),
        and Newton steps shrink only by 2/3 each.  So when a Newton step
        is rho in (1/2, 1) times the last one, the pass takes m times it,
        m = round(1 / (1 - rho)) at most 3, the step that reaches a root
        of multiplicity m, under the same safeguard.
      - The certifying points lie h = (|gap| + 2 eps f) / |q'| + 2 eps x
        to each side of the last x, about where the float gap changes
        sign; one that shows the wrong sign moves out 16 times as far, and
        none is scored outside the bracket.

    The start and the steps change only how many points are scored: about
    7 a solve at k = 8 to 1000 (11 to 24, median 13, at the levels of
    the 499 flat inflections of q at k = 1000), against up to 47 for a
    bisection that scores every midpoint.
    """
    mu, slope_mu = _return_poly(k), _return_poly(k, 1)
    lo, hi = 0.0, 1.0

    def score(x: float) -> float:
        nonlocal lo, hi
        gap = _return_value(mu, x) - f
        if gap > 0.0:
            lo = x
        elif gap < 0.0:
            hi = x
        return gap

    x = 1.0 / math.hypot(1.0, 0.5 * math.pi * k * f)
    if f > 0.5:
        x = min(x, math.sqrt(1.0 - f) / (0.5 * k))
    before = step = 1.0
    last = math.nan
    while True:
        gap = score(x)
        slope = 2.0 * x * _return_value(slope_mu, x)
        newton = x - gap / slope if slope else math.nan
        if abs(newton - x) <= 4.0 * _EPS * x or hi - lo <= 4.0 * _EPS * x:
            break
        rho, last = (newton - x) / last, newton - x
        if 0.5 < rho < 1.0:
            newton = x + min(3, round(1.0 / (1.0 - rho))) * last
        if not (lo < newton < hi and abs(newton - x) <= before / 2):
            newton = 0.5 * (lo + hi)
        before, step = step, abs(newton - x)
        x = newton
    h = 2.0 * _EPS * x + ((abs(gap) + 2.0 * _EPS * f) / abs(slope) if slope else 1.0)
    for side in (-1.0, 1.0):
        y = x + side * h
        while lo < y < hi and side * score(y) >= 0.0:
            y = x + side * 16.0 * abs(y - x)
    return _bisect(lambda y: 1.0 if y <= lo else -1.0 if y >= hi else score(y), 0.0, 1.0, 1.0 - f)


def dataset_to_json(data: TrialDataset) -> dict:
    """JSON-ready form of a dataset (inverse of ``dataset_from_json``): its
    kind and k; for positions its tally, ``positions`` the distinct
    displacements and ``weights`` their counts, for return counts n and
    n0; and its seed unless None."""
    obj = {"kind": data.kind, "k": data.k}
    if data.kind == "positions":
        obj.update(positions=[d for d, _ in data.tally], weights=[w for _, w in data.tally])
    else:
        obj.update(n=data.n, n0=data.n0)
    if data.seed is not None:
        obj["seed"] = data.seed
    return obj


def dataset_from_json(obj) -> TrialDataset:
    """Parse a dataset from a JSON object or string; anything malformed
    raises ValueError."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj or "k" not in obj:
        raise ValueError("dataset object needs 'kind' and 'k' fields")
    kind = obj["kind"]
    try:
        if kind == "positions":
            return TrialDataset.from_positions(obj["k"], obj.get("positions", ()),
                                               obj.get("weights"), seed=obj.get("seed"))
        if kind == "returns":
            return TrialDataset.from_returns(obj["k"], obj["n0"], obj["n"],
                                             seed=obj.get("seed"))
    except (KeyError, TypeError) as exc:  # a missing field, or a list that is not one
        raise ValueError(f"malformed {kind} dataset: {exc!r}") from None
    raise ValueError(f"unknown dataset kind {kind!r}")
