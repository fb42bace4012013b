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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator

import numpy as np

from .chebyshev import _iter_y_rows

__all__ = [
    "CONVENTION_SIGMA",
    "Pmf",
    "pmf_point",
    "pmf_full",
    "iter_pmf_full",
    "reluctance_profile",
    "pmf_to_csv",
    "pmf_from_csv",
    "pmf_to_json",
    "pmf_from_json",
    "format_float",
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
    """Clip float probabilities, one or an array, into [0, 1]; a value
    beyond the clamp tolerance outside it raises ValueError."""
    if not np.all((-_CLAMP_TOL <= p) & (p <= 1.0 + _CLAMP_TOL)):
        raise ValueError(f"probability {p} outside [0, 1] beyond clamp tolerance")
    return np.clip(p, 0.0, 1.0)


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` when one is given; a float
    or a bool is rejected, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _validate_k_lam(k: int, lam) -> int:
    """k as an int >= 1; raises unless every lam is finite with |lam| <= 1."""
    k = _integer(k, "step count k", 1)
    if not np.all(np.abs(lam) <= 1):
        raise ValueError(f"lam must be finite with |lam| <= 1, got {lam}")
    return k


def _ratio(lam, exact: bool = True):
    """lam as a/b, elementwise: exact Python ints from ``Fraction(lam)``, else (lam, 1.0)."""
    if not exact:
        lam = np.asarray(lam, float)
        return lam, np.ones_like(lam)
    return np.frompyfunc(lambda x: Fraction(x).as_integer_ratio(), 1, 2)(lam)


def _cone(k: int, ds=None):
    """The light cone ``(k - 1, reach)`` of the row entries |d +- 1| that
    the displacements ``ds`` read at step ``k``, or None when that cone is
    no narrower than the rows (always for ``ds`` None)."""
    reach = k if ds is None else max((abs(int(d)) for d in ds), default=-1) + 1
    return (k - 1, reach) if reach < k - 1 else None


def _rows_for(k: int, a, b, ds=None):
    """The scaled rows (Z^(k-1), Z^(k-2)) that step ``k`` reads, trimmed to
    the light cone of ``ds`` when it is narrower (``_cone``)."""
    return next(islice(_iter_y_rows(a, b, _cone(k, ds)), k - 1, None))


def _probabilities(k: int, a, b, rows, ds, rational: bool = False) -> np.ndarray:
    """p(d; k, a/b) for each ``d`` in ``ds``, from scaled rows; zero off
    the parity-valid support [-k, k].

    With Z = b^j * Y^(j)(a/b) taken from ``rows`` = (Z^(k-1), Z^(k-2)),

        p = [(b^2 - a^2) * Z_{|d-1|}^(k-1)^2
             + (b^2 * Z_{|d|}^(k-2) - a * Z_{|d+1|}^(k-1))^2] / b^(2k)

    which is (1 - lam^2) * (Y_{|d-1|}^(k-1))^2 + (Y_{|d|}^(k-2) - lam *
    Y_{|d+1|}^(k-1))^2.  Row k-2 is empty at k = 1, which leaves p(-1) =
    lam^2 and p(1) = 1 - lam^2.  Rows of shape S + (j+1,) give shape
    S + (len(ds),).  Integer rows give the integer numerator, so each
    float is its exact rational correctly rounded (``rational`` returns the
    Fractions instead); float rows give a plain float64 evaluation.
    """
    row_km1, row_km2 = rows
    # a column off [-k, k] reads as d = k + 1, whose entries all lie past the rows: p = 0
    ds = np.asarray([d if abs(d) <= k else k + 1 for d in ds], int)
    z1 = np.zeros(row_km1.shape[:-1] + (k + 3,), row_km1.dtype)     # |d +- 1| <= k + 2
    z1[..., :row_km1.shape[-1]] = row_km1
    z2 = np.zeros_like(z1)
    z2[..., :row_km2.shape[-1]] = row_km2
    z_a, z_b, z_c = z1[..., abs(ds - 1)], z2[..., abs(ds)], z1[..., abs(ds + 1)]
    a, b = (np.asarray(v, row_km1.dtype)[..., None] for v in (a, b))
    b2 = b * b
    num = (b2 - a * a) * z_a * z_a + (b2 * z_b - a * z_c) ** 2
    den = b ** (2 * k)
    if rational:
        return np.frompyfunc(Fraction, 2, 1)(num, den)
    return _clamp((num / den).astype(float))


# lam values per pass of the exact rows: the big-integer rows of all 2048
# points of a level-set scan at k = 24 hold about 20 MB, 12 of them 0.15 MB
_GRID_BLOCK = 12
# row entries per pass of the float rows, 8 bytes each: 64 full-width rows at
# k = 100, 51 KB a row array.  Narrow rows take more lam a pass, so a pass
# costs fewer numpy calls per lam; twice this budget raised the peak RSS of a
# bare process running the positions scan (k = 48, all 49 columns) by 0.8 MB
_FLOAT_ENTRIES = 64 * 100
# the fewest lam per float pass, whatever the row width
_FLOAT_BLOCK = 64


def _grid(k: int, lams, ds, exact: bool) -> np.ndarray:
    """p(d; k, lam) for every lam in ``lams`` (rows) and d in ``ds`` (columns).

    Each pass of the row engine takes ``_GRID_BLOCK`` values of lam on the
    exact rows.  On the float rows it takes as many as keep the widest row
    within ``_FLOAT_ENTRIES`` entries, and at least ``_FLOAT_BLOCK``: the
    rows of the columns ``ds`` stop at their light cone (``_cone``), so a
    return scan (d = 0) at k = 24 takes 492 lam a pass and all 49 columns
    at k = 48 take 133.  Every entry equals ``pmf_full(k, lam, exact)`` bit
    for bit, whatever the block.
    """
    lams = np.asarray(lams, float)
    _validate_k_lam(k, lams)
    out = np.empty((len(lams), len(ds)))
    cone = _cone(k, ds)
    widest = k if cone is None else sum(cone) // 2 + 1
    block = _GRID_BLOCK if exact else max(_FLOAT_BLOCK, _FLOAT_ENTRIES // widest)
    for i in range(0, len(lams), block):
        a, b = _ratio(lams[i:i + block], exact)
        out[i:i + block] = _probabilities(k, a, b, _rows_for(k, a, b, ds), ds)
    return out


def _y_coeffs(m: int, j: int) -> list[int]:
    """The integer coefficients of Y_m^(j)(lam), lowest power first, j + 1
    of them, from the terminating series

        Y_m^(j)(lam) = sum_{n=0}^{(j-m)/2} (-1)^n C(j-n, n) C(j-2n, (j+m)/2 - n) lam^(j-2n);

    all zero unless m <= j with j - m even."""
    coeffs = [0] * (j + 1)
    if (j - m) % 2 == 0:
        for n in range((j - m) // 2 + 1):
            term = math.comb(j - n, n) * math.comb(j - 2 * n, (j + m) // 2 - n)
            coeffs[j - 2 * n] = -term if n % 2 else term
    return coeffs


@lru_cache(maxsize=16)
def _return_poly(k: int):
    """The return probability p(0; k, lam) as polynomials in lam, built once per k.

    Returns (y1, y0, cheb): the integer coefficients of Y_1^(k-1) and
    Y_0^(k-2), lowest power first, k and k - 1 of them (``_y_coeffs``),
    and the float64 Chebyshev coefficients of

        p(0; k, lam) = (1 - lam^2) Y_1^2 + (Y_0 - lam Y_1)^2
                     = Y_1 (Y_1 - 2 lam Y_0) + Y_0^2,

    degree 2k - 2, each its exact rational correctly rounded.  The power
    coefficients of p(0) are two integer convolutions, and Horner's rule in
    lam^2 on the Chebyshev basis turns them into the Chebyshev ones, exact
    until the one rounding.  ``k`` is a validated int: ``_return_grid``
    checks it before the cache sees it.
    """
    y1, y0 = _y_coeffs(1, k - 1), _y_coeffs(0, k - 2)
    u, v = np.array(y1, object), np.array(y0 + [0], object)     # v: Y_0 in k entries
    # np.roll(v, 1) holds lam Y_0: v's last entry is the padding zero
    power = (np.convolve(u, u - 2 * np.roll(v, 1)) + np.convolve(v, v)).tolist()
    # p(0) is even: Horner in lam^2 on its coefficients of T_0, T_2, ...,
    # T_{2k-2}, scaled by 4 a step, with 4 lam^2 T_2s = T_2s+2 + 2 T_2s + T_|2s-2|
    even = np.zeros(k, object)
    even[0] = power[-1]
    for i in range(k - 2, -1, -1):
        step = 2 * even
        step[1:] += even[:-1]
        step[:-1] += even[1:]
        step[1:2] += even[:1]
        step[0] += power[2 * i] << 2 * (k - 1 - i)
        even = step
    cheb = np.zeros(2 * k - 1)
    cheb[::2] = [c / (1 << 2 * k - 2) for c in even.tolist()]
    cheb.flags.writeable = False
    return tuple(y1), tuple(y0), cheb


def _horner(coeffs, a: int, b: int) -> int:
    """b^n * sum_i coeffs[i] * (a/b)^i with n = len(coeffs) - 1, for
    coefficients that vanish off the parity of n: Horner in a^2 and b^2."""
    if not coeffs:
        return 0
    u, v = a * a, b * b
    acc, scale = 0, 1
    for c in coeffs[::-2]:
        acc = acc * u + c * scale
        scale *= v
    return acc * a if len(coeffs) % 2 == 0 else acc


def _return_grid(k: int, lams, exact: bool) -> np.ndarray:
    """p(0; k, lam) for every lam in ``lams``, from the cached polynomial
    of this k (``_return_poly``), O(k) operations a point.

    ``exact`` evaluates z1 = b^(k-1) Y_1^(k-1) and z0 = b^(k-2) Y_0^(k-2)
    at lam = a/b by homogeneous Horner on integers, and rounds the exact
    rational ((b^2 - a^2) z1^2 + (b^2 z0 - a z1)^2) / b^(2k) once, so each
    value is ``_grid(k, lams, [0], exact=True)`` bit for bit.
    Otherwise Clenshaw's recurrence sums the Chebyshev series in float64,
    within 1e-14 of the exact value up to k = 200
    (test_clenshaw_return_scan_error_margin).
    """
    lams = np.asarray(lams, float)
    k = _validate_k_lam(k, lams)
    y1, y0, cheb = _return_poly(k)
    if exact:
        out = []
        for a, b in map(float.as_integer_ratio, lams.tolist()):
            z1, z0, b2 = _horner(y1, a, b), _horner(y0, a, b), b * b
            out.append(((b2 - a * a) * z1 * z1 + (b2 * z0 - a * z1) ** 2) / b ** (2 * k))
        return np.array(out, float)
    two_x = 2.0 * lams
    b1 = b2 = np.zeros_like(lams)
    for c in cheb[:0:-1]:
        b1, b2 = two_x * b1 - b2 + c, b1
    return _clamp(lams * b1 - b2 + cheb[0])


def pmf_point(k: int, d: int, lam):
    """Probability of displacement ``d`` after ``k`` steps, coin parameter lam.

    Evaluates

        p = (1 - lam^2) * (Y_{|d-1|}^(k-1))^2
            + (Y_{|d|}^(k-2) - lam * Y_{|d+1|}^(k-1))^2

    from the exact integer rows of lam = a/b, with Y^(-1) = 0 at k = 1.
    Zero off the parity-valid support.  A Fraction ``lam`` gives the exact
    rational probability; a float ``lam`` gives that rational correctly
    rounded.
    """
    _validate_k_lam(k, lam)
    d = int(d)
    exact = isinstance(lam, Fraction)
    if abs(d) > k or (k - d) % 2:
        return Fraction(0) if exact else 0.0
    a, b = _ratio(lam)
    (p,) = _probabilities(k, a, b, _rows_for(k, a, b, [d]), [d], rational=exact).tolist()
    return p


def _table(k: int, lam, a, b, rows) -> Pmf:
    ds = range(-k, k + 1, 2)
    return Pmf(k, dict(zip(ds, _probabilities(k, a, b, rows, ds).tolist())), lam=float(lam))


def iter_pmf_full(lam, k_max: int, exact: bool = True) -> Iterator[Pmf]:
    """Yield the full pmf for k = 1, 2, ..., k_max.

    Shares one rolling pass over the Y recurrence rows, so a whole k-grid
    costs the same as the single largest k.  ``exact=True`` runs the rows
    on the exact integers of lam = a/b, so every entry is its exact
    rational correctly rounded; ``exact=False`` uses float64 rows,
    adequate to ~1e-12 and much faster for plot-scale sweeps.
    """
    _validate_k_lam(k_max, lam)
    a, b = _ratio(lam, exact)
    for k, rows in enumerate(islice(_iter_y_rows(a, b), k_max), start=1):
        yield _table(k, lam, a, b, rows)


def pmf_full(k: int, lam, exact: bool = True) -> Pmf:
    """Full displacement table after ``k`` steps; normalized by construction."""
    _validate_k_lam(k, lam)
    a, b = _ratio(lam, exact)
    return _table(k, lam, a, b, _rows_for(k, a, b))


def reluctance_profile(k: int, lam, exact: bool = True) -> list[tuple[float, float]]:
    """The pmf re-indexed by reluctance r = d/k, as (r, probability) pairs."""
    pmf = pmf_full(k, lam, exact=exact)
    return [(d / k, p) for d, p in pmf.table.items()]


def format_float(x) -> str:
    """Decimal rendering with 17 significant digits (round-trips float64)."""
    return "%.17g" % float(x)


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


def _csv_column(values):
    """The CSV cells of one column: ``_cell`` of each value, in one ``map``
    of the format an all-float or all-int column needs."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return map("%.17g".__mod__, values)
    if kinds <= {int}:
        return map(int.__repr__, values)
    return map(_cell, values)


def _csv_text(meta: dict | None, columns, rows) -> str:
    """``# key: value`` stamps, then the column header, then one line per row.

    Each row maps column name to value; cells go through ``_cell``.  LF
    line endings, 17-significant-digit decimals.
    """
    lines = [f"# {key}: {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    cells = [_csv_column([row[c] for row in rows]) for c in columns]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _mirror(meta: dict | None, columns, rows) -> dict:
    """The JSON twin of ``_csv_text``: ``{"meta": ..., "rows": [...]}``,
    each row keyed by column with its values through ``_json_safe``."""
    return {"meta": dict(meta or {}),
            "rows": [{c: _json_safe(row[c]) for c in columns} for row in rows]}


def _json_column(values):
    """The JSON text of one column's values as ``_mirror`` rows hold them,
    indented as row entries: ``float.__repr__`` or ``int.__repr__`` (what
    ``json`` writes) for an all-finite-float or all-int column."""
    kinds = set(map(type, values))
    if kinds <= {float} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if kinds <= {int}:
        return map(int.__repr__, values)
    return (json.dumps(_json_safe(v), indent=2).replace("\n", "\n      ") for v in values)


def _mirror_text(meta: dict | None, columns, rows) -> str:
    """``json.dumps(_mirror(meta, columns, rows), indent=2) + "\\n"`` for one
    or more string column names, rendered a column at a time: with an
    indent, ``json`` runs its pure-Python encoder, several calls a value."""
    meta_text = json.dumps(dict(meta or {}), indent=2).replace("\n", "\n  ")
    cells = [map(f"      {json.dumps(c)}: ".__add__, _json_column([row[c] for row in rows]))
             for c in columns]
    body = "\n    },\n    {\n".join(map(",\n".join, zip(*cells)))
    rows_text = f"[\n    {{\n{body}\n    }}\n  ]" if rows else "[]"
    return f'{{\n  "meta": {meta_text},\n  "rows": {rows_text}\n}}\n'


_PMF_COLUMNS = ("k", "d", "r", "lambda", "p")


def _pmf_rows(k: int, table: dict, lam) -> list[dict]:
    return [{"k": k, "d": d, "r": d / k, "lambda": lam, "p": p} for d, p in table.items()]


def pmf_to_csv(pmf: Pmf, meta: dict | None = None) -> str:
    """Render a pmf as CSV with columns (k, d, r, lambda, p).

    Optional ``meta`` entries become leading ``# key: value`` comment
    lines.  LF line endings, 17-significant-digit decimals.
    """
    return _csv_text(meta, _PMF_COLUMNS, _pmf_rows(pmf.k, pmf.table, pmf.lam))


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
    return _mirror(meta, _PMF_COLUMNS, _pmf_rows(pmf.k, pmf.table, pmf.lam))


def pmf_from_json(obj) -> Pmf:
    """Parse ``pmf_to_json`` output, or a CLI ``pmf`` or ``simulate`` .json
    (an object or its text), back into a Pmf."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if not isinstance(rows, list):
        raise ValueError("not a pmf mirror: no 'rows' list")
    return _pmf_from_rows(rows)
