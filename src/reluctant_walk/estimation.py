"""Coin-angle inference from observed walk data.

Two observation models share one interface.  Position data are
displacement samples on the analytic axis of ``pmf`` (the mirror of the
simulator's axis; see ``pmf.CONVENTION_SIGMA``), scored by the exact pmf.
Return counts are Bernoulli trials of an even-step walker being found
back at its start site, inverted through the level set of the closed-form
return probability: it falls from 1 to 0 on lam in [0, 1], so the level
of the return frequency is one bisection there.

Estimates carry a concavity diagnostic.  Writing ptilde = exp(l/n) for
the geometric-mean per-trial likelihood, the reported positivity value is
p'^2 - p''*p evaluated at the maximizer, which equals -ptilde^2 * l''/n
there; it must be positive at an interior maximum.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np

from .pmf import _FLOAT_BLOCK, CONVENTION_SIGMA, _grid, _integer, _json_safe, _return_grid

__all__ = [
    "TrialDataset",
    "LikelihoodCurve",
    "EstimateResult",
    "log_likelihood",
    "displacement_likelihood",
    "bernoulli_return_log_likelihood",
    "likelihood_curve",
    "mle_estimate",
    "level_set_solve",
    "dataset_to_json",
    "dataset_from_json",
]

_FD_STEP = 1e-4
_CANDIDATE_WINDOW = 1e-6   # grid maxima within this of the best are all refined
_FLAT_TOL = 1e-14          # grid range below this flags a flat likelihood
_TIE_TOL = 1e-9            # refined values within this are ties -> smaller theta
# a float gap beyond this decides a sign of the level-set bisection: 100x the 1e-14
# bound on the error of the Clenshaw return probability
# (test_clenshaw_return_scan_error_margin)
_SIGN_BAND = 1e-12
_TREE_DEPTH = 6            # halvings per bisection pass: 63 midpoints, one float call
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TrialDataset:
    """Observed data for one estimation run.

    kind "positions": ``positions`` holds displacement samples on the
    analytic axis, parity-valid for ``k`` and within [-k, k]; ``weights``
    (optional, parallel to positions) supports expected-likelihood runs.
    kind "returns": ``n`` even-step trials of which ``n0`` ended at the
    start site.  ``seed`` records sampling provenance only.
    """

    kind: str
    k: int
    positions: tuple = ()
    weights: tuple | None = None
    n: int | None = None
    n0: int | None = None
    seed: int | None = None
    _counts: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("positions", "returns"):
            raise ValueError(f"kind must be 'positions' or 'returns', got {self.kind!r}")
        k = _integer(self.k, "step count k", 1)
        object.__setattr__(self, "k", k)
        positions = tuple(self.positions)
        if not set(map(type, positions)) <= {int}:
            positions = tuple(_integer(d, "d") for d in positions)
        object.__setattr__(self, "positions", positions)
        if self.kind == "positions":
            # checked once per distinct value; the error names the first in order
            invalid = {d for d in set(positions) if abs(d) > k or (k - d) % 2}
            if invalid:
                d = next(d for d in positions if d in invalid)
                raise ValueError(
                    f"displacement {d} is outside the parity-valid support for k={k}")
            if self.weights is not None:
                w = tuple(map(_weight, self.weights))
                if len(w) != len(self.positions):
                    raise ValueError("weights and positions length mismatch")
                if any(x < 0 for x in w) or (w and not 0 < sum(w) < math.inf):
                    raise ValueError("weights must be nonnegative with finite total > 0")
                object.__setattr__(self, "weights", w)
        else:
            if self.k % 2:
                raise ValueError("return-count data requires an even step count")
            object.__setattr__(self, "n", _integer(self.n, "n"))
            object.__setattr__(self, "n0", _integer(self.n0, "n0"))
            if not 0 <= self.n0 <= self.n or self.n < 1:
                raise ValueError(f"need 0 <= n0 <= n with n >= 1, got n0={self.n0} n={self.n}")

    @classmethod
    def from_positions(cls, k, positions, weights=None, seed=None) -> "TrialDataset":
        return cls("positions", k, tuple(positions),
                   None if weights is None else tuple(weights), seed=seed)

    @classmethod
    def from_returns(cls, k, n0, n, seed=None) -> "TrialDataset":
        return cls("returns", k, n=n, n0=n0, seed=seed)

    @property
    def trials(self) -> float:
        """Effective number of trials (sum of weights for weighted data)."""
        if self.kind == "returns":
            return float(self.n)
        if self.weights is None:
            return float(len(self.positions))
        return float(sum(self.weights))

    def counts(self) -> dict[int, float]:
        """Aggregate weight per observed displacement (cached; the fields
        it derives from are immutable)."""
        if self.kind == "returns":
            raise ValueError("counts() applies to positions data")
        if self._counts is None:
            if self.weights is None:
                out = {d: float(c) for d, c in Counter(self.positions).items()}
            else:
                out = {}
                for d, w in zip(self.positions, self.weights):
                    out[d] = out.get(d, 0.0) + w
            object.__setattr__(self, "_counts", dict(sorted(out.items())))
        return dict(self._counts)


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


def _log_likelihoods(data: TrialDataset, lams) -> np.ndarray:
    """The log-likelihood at every lam in ``lams``: position data from one
    float pmf grid of the observed columns (``pmf._grid``), return counts
    from the exact return probability of each lam (``pmf._return_grid``,
    Horner on the cached polynomial of k)."""
    if data.kind == "returns":
        q = _return_grid(data.k, lams, exact=True)
        terms = [(c, p) for c, p in ((data.n0, q), (data.n - data.n0, 1.0 - q)) if c]
        return _log_sum([c for c, _ in terms], np.stack([p for _, p in terms], axis=1))
    counts = data.counts()
    return _log_sum(list(counts.values()), _grid(data.k, lams, list(counts), exact=False))


def _log_sum(weights, p: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * log(p[:, j]) per row, added in column order;
    -inf on a row with any p <= 0, whatever its weight.

    The logs are ``math.log``'s: np.log differs from it in the last bit on
    ~0.3% of inputs, and the curvature's differences amplify such a bit
    ~1e7-fold."""
    positive = p > 0.0
    safe = np.where(positive, p, 1.0)
    logs = np.fromiter(map(math.log, safe.flat), float, safe.size)
    total = np.zeros(len(p))
    for w, column in zip(weights, logs.reshape(safe.shape).T):
        total += w * column
    return np.where(positive.all(axis=1), total, -np.inf)


def displacement_likelihood(d_list, k: int, theta: float) -> float:
    """Log-likelihood of a plain displacement list (sum of log pmf_point).

    For n equal displacements this is n*log p^(k)(d|theta).  Raises on
    parity-invalid or out-of-range displacements, including internally
    mixed parities.
    """
    return log_likelihood(TrialDataset.from_positions(k, d_list), theta)


def bernoulli_return_log_likelihood(n0: int, n: int, k: int, lam: float) -> float:
    """Log-likelihood of n0 returns in n even-step trials at coin parameter lam.

    l = n0 log q + (n - n0) log(1 - q) with q the k-step return
    probability; -inf when the counts contradict a degenerate q.
    """
    return float(_log_likelihoods(TrialDataset.from_returns(k, n0, n), [lam])[0])


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
    finite = np.isfinite(ll)
    if finite.any():
        masked = np.where(finite, ll, -np.inf)
        arg = float(thetas[int(np.argmax(masked))])
        curvature = _curvature(data, arg)
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
    if _integer(grid_size, "grid size") < 3:
        raise ValueError(f"grid size must be >= 3, got {grid_size}")
    thetas = np.linspace(lo, hi, grid_size)
    return thetas, _log_likelihoods(data, np.cos(thetas))


def _flat_result(data: TrialDataset) -> EstimateResult:
    return EstimateResult(math.nan, math.nan, -math.inf, math.nan, math.nan,
                          (), ("flat_likelihood",), data.kind, data.k,
                          data.trials, data.seed)


def _curvature(data: TrialDataset, x: float, h: float = _FD_STEP) -> float:
    """Second theta-derivative of the log-likelihood at x by central
    differences, Richardson-extrapolated once; the five points go through
    one ``_log_likelihoods`` call."""
    up, mid, down, up2, down2 = _log_likelihoods(
        data, np.cos([x + h, x, x - h, x + h / 2, x - h / 2])).tolist()
    coarse = (up - 2.0 * mid + down) / h**2
    fine = (up2 - 2.0 * mid + down2) / (h / 2)**2
    return (4.0 * fine - coarse) / 3.0


def _diagnostics(data: TrialDataset, theta_hat, ll_hat):
    curvature = _curvature(data, theta_hat)
    n = data.trials
    if math.isfinite(ll_hat) and math.isfinite(curvature) and n > 0:
        ptilde = math.exp(ll_hat / n)
        positivity = -(ptilde**2) * curvature / n
    else:
        positivity = math.nan
    return curvature, positivity


def _zoom_min(fun: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              tol: float, points: int):
    """A minimum of fun on [a, b] by nested even grids: (x, fun(x)).

    Each pass scores ``np.linspace(a, b, points)`` in one call of ``fun``
    and keeps the two intervals beside the first argmin, so ties go to the
    smaller x.  It stops once that bracket is no wider than tol, or no
    narrower than the last, and returns the smallest value scored (ties to
    the smaller x).  tol is at least 4 eps (|a| + |b|), so any tol >= 0
    terminates.
    """
    tol = max(tol, 4.0 * _EPS * (abs(a) + abs(b)))
    best = (math.inf, math.inf)
    while True:
        xs = np.linspace(a, b, points)
        fs = fun(xs)
        i = int(np.argmin(fs))
        best = min(best, (float(fs[i]), float(xs[i])))
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, points - 1)])
        if hi - lo <= tol or hi - lo >= b - a:
            return best[1], best[0]
        a, b = lo, hi


def _best(candidates):
    """The (theta, value) pair of largest value from a theta-sorted list;
    a value within _TIE_TOL of the best so far keeps the smaller theta."""
    best_theta, best_ll = candidates[0]
    for theta, value in candidates[1:]:
        if value > best_ll + _TIE_TOL:
            best_theta, best_ll = theta, value
    return best_theta, best_ll


def mle_estimate(data: TrialDataset, theta_range=(0.0, math.pi / 2),
                 grid_size: int = 601, refine_tolerance: float = 1e-9) -> EstimateResult:
    """Maximum-likelihood coin angle for a dataset.

    Position data: dense grid scan of the log-likelihood (one likelihood
    call, which the row engine serves in passes sized by the width of the
    rows the observed displacements read: five over the default 601
    points at k = 48), then a nested-grid search (``_zoom_min``) between
    the grid points flanking each run within 1e-6 of the best value, down
    to a bracket of refine_tolerance (finite, >= 0; 0 means float
    resolution).  Each pass scores an even grid of 64 thetas, one float
    pass of the row engine, in one likelihood call and narrows the bracket
    about 31-fold; a 1e-9 refine of the default grid takes five such
    calls.  The float log-likelihood is flat to rounding over about
    sqrt(eps |l| / |l''|) around its maximum, so a bracket finer than that
    picks one point of the flat top: on samples of n <= 50 trials that
    spread reaches about 1e-8, and theta_hat is only that precise whatever
    refine_tolerance asks.
    Return counts: the empirical return frequency is pushed through the
    level set of the closed-form return probability on the lam branch
    [0, 1], the default theta range; its one root there is the candidate
    when its theta lies in ``theta_range``, and a range outside [0, pi/2]
    raises ValueError.  n0 = 0 or n0 = n puts the root at an end of the
    branch, theta 0 or pi/2, and is flagged "boundary_maximum".
    """
    if not 0.0 <= refine_tolerance < math.inf:
        raise ValueError(f"refine tolerance must be finite and >= 0, got {refine_tolerance}")
    if data.kind == "returns":
        return _estimate_from_returns(data, theta_range)
    if not data.positions:
        raise ValueError("cannot estimate from an empty dataset")
    score = lambda ts: -_log_likelihoods(data, np.cos(ts))
    thetas, ll = _scan(data, theta_range, grid_size)
    lo, hi = float(thetas[0]), float(thetas[-1])
    spacing = (hi - lo) / (len(thetas) - 1)

    finite = np.isfinite(ll)
    if not finite.any():
        return _flat_result(data)
    gmax = float(ll[finite].max())
    flags = []
    if gmax - float(ll[finite].min()) < _FLAT_TOL:
        flags.append("flat_likelihood")

    near = np.flatnonzero(ll >= gmax - _CANDIDATE_WINDOW)
    runs = np.split(near, np.flatnonzero(np.diff(near) > 1) + 1)
    candidates = []  # theta-sorted: each lies in its run's bracket, and brackets only touch
    for run in runs:
        a, b = thetas[max(run[0] - 1, 0)], thetas[min(run[-1] + 1, len(thetas) - 1)]
        theta, neg = _zoom_min(score, a, b, refine_tolerance, _FLOAT_BLOCK)
        candidates.append((theta, -neg))
    best_theta, best_ll = _best(candidates)

    if best_theta - lo < spacing or hi - best_theta < spacing:
        flags.append("boundary_maximum")
    curvature, positivity = _diagnostics(data, best_theta, best_ll)
    return EstimateResult(best_theta, math.cos(best_theta), best_ll, curvature,
                          positivity, tuple(t for t, _ in candidates), tuple(flags),
                          data.kind, data.k, data.trials, data.seed)


def _estimate_from_returns(data: TrialDataset, theta_range) -> EstimateResult:
    lo, hi = _theta_bounds(theta_range)
    if lo < 0.0 or hi > math.pi / 2:
        raise ValueError(f"theta range {theta_range} reaches outside [0, pi/2], "
                         "the lam branch [0, 1] of return data")
    (root,) = level_set_solve(data.n0 / data.n, data.k, branch=(0.0, 1.0))
    theta = math.acos(root)
    if not lo <= theta <= hi:
        return _flat_result(data)
    ll = float(_log_likelihoods(data, np.cos([theta]))[0])
    curvature, positivity = _diagnostics(data, theta, ll)
    # n0 = 0 puts the root at lam = 1 (theta 0), n0 = n at lam = 0 (theta pi/2)
    flags = ("boundary_maximum",) if data.n0 in (0, data.n) else ()
    return EstimateResult(theta, math.cos(theta), ll, curvature, positivity, (theta,),
                          flags, data.kind, data.k, data.trials, data.seed)


def _bisect(gap: Callable[[float], float], a: float, b: float, fa: float, xtol: float,
            estimate: Callable[[np.ndarray], np.ndarray] | None = None):
    """A root of gap on [a, b], given fa = gap(a) and a sign change there.

    Halves until |step| < xtol + 4 eps |mid|, scipy.optimize.bisect's rule.
    Each pass lays out the midpoints of the next ``_TREE_DEPTH`` halvings
    on every sign path, formed as the walk forms them (step *= 0.5;
    mid = a + step), and scores them with one call of ``estimate``.  The
    walk down the tree reads a node's sign from that score when it lies
    beyond ``_SIGN_BAND`` and calls the exact ``gap`` otherwise, so only
    nodes on the taken path near the root cost an exact call.  This
    assumes ``estimate`` is within _SIGN_BAND of ``gap`` everywhere; the
    Clenshaw return probability is (within 1e-14 up to k = 200).  Without
    ``estimate`` every node on the path is exact, and so is every later
    pass once a pass took all its nodes from ``gap``: its midpoints lie
    still nearer the root, where a float sign seldom clears the band, so a
    float pass would decide nothing.  Either way the root is the one the
    all-exact one-midpoint-at-a-time loop returns, bit for bit.
    """
    step = b - a
    while True:
        starts, levels, half = np.array([a]), [], step
        for _ in range(_TREE_DEPTH):
            half *= 0.5
            levels.append(starts + half)
            starts = np.stack([starts, levels[-1]], axis=1).ravel()  # children 2i, 2i+1
        points = np.concatenate(levels)
        scores = np.zeros(len(points)) if estimate is None else estimate(points)
        node, floats_decided = 0, False
        for depth in range(_TREE_DEPTH):
            step *= 0.5
            mid = a + step
            fm = float(scores[2**depth - 1 + node])
            if abs(fm) <= _SIGN_BAND:
                fm = gap(mid)
            else:
                floats_decided = True
            node *= 2
            if (fm < 0) == (fa < 0):     # fm * fa >= 0, which underflows for tiny gaps
                a = mid
                node += 1
            if fm == 0 or abs(step) < xtol + 4.0 * _EPS * abs(mid):
                return mid
        if not floats_decided:
            estimate = None


def level_set_solve(f: float, k: int, branch: tuple[float, float] = (-1.0, 1.0)) -> list[float]:
    """Every lam on the branch where the k-step return probability equals f.

    The return probability q(lam) = p^(k)(0, lam) is a polynomial of degree
    2k - 2, built once per k and cached (``pmf._return_grid``): float
    values sum its Chebyshev series by Clenshaw's recurrence, exact ones
    evaluate its integer coefficients in lam^2 by Horner at lam = a/b, O(k)
    operations a point.  Since q'(lam) = -2 lam R_k(lam)^2 (``pmf._return_poly``),
    q is even and falls from q(0) = 1 to q(1) = 0, so every level f has
    one root r on [0, 1] and its mirror -r.  r is 0 at f = 1, 1 at f = 0,
    and otherwise bisected on (0, 1) on float signs, 63 midpoints to a
    float call, with an exact single point only where a float gap on the
    taken path is within 1e-12 of zero (``_bisect``); it is the root of the
    same bisection run on exact values throughout.  The result holds the
    members of {-r, r} that lie on the branch, sorted, and is empty when
    neither does (e.g. f above the maximum of q on the branch).
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"level must lie in [0, 1], got {f}")
    if k < 2 or k % 2:
        raise ValueError(f"return probability needs an even k >= 2, got {k}")
    lo, hi = float(branch[0]), float(branch[1])
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError(f"branch must be a sub-interval of [-1, 1], got {branch}")
    if f == 1.0:
        r = 0.0
    elif f == 0.0:
        r = 1.0
    else:
        gap = lambda x: float(_return_grid(k, [x], exact=True)[0]) - f
        floats = lambda x: _return_grid(k, x, exact=False) - f
        r = _bisect(gap, 0.0, 1.0, 1.0 - f, 1e-14, floats)
    return [x for x in ([r] if r == 0.0 else [-r, r]) if lo <= x <= hi]


def dataset_to_json(data: TrialDataset) -> dict:
    """JSON-ready form of a dataset (inverse of ``dataset_from_json``)."""
    obj: dict = {"kind": data.kind, "k": data.k}
    if data.kind == "positions":
        obj["positions"] = list(data.positions)
        if data.weights is not None:
            obj["weights"] = list(data.weights)
    else:
        obj["n"] = data.n
        obj["n0"] = data.n0
    if data.seed is not None:
        obj["seed"] = data.seed
    return obj


def dataset_from_json(obj) -> TrialDataset:
    """Parse a dataset from a JSON object or string."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj or "k" not in obj:
        raise ValueError("dataset object needs 'kind' and 'k' fields")
    kind = obj["kind"]
    if kind == "positions":
        return TrialDataset.from_positions(obj["k"], obj.get("positions", ()),
                                           obj.get("weights"), seed=obj.get("seed"))
    if kind == "returns":
        return TrialDataset.from_returns(obj["k"], obj["n0"], obj["n"],
                                         seed=obj.get("seed"))
    raise ValueError(f"unknown dataset kind {kind!r}")
