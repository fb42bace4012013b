"""The four workloads: how each operation's input is drawn and how its
output is checked.

Every input comes from the workload seed through the benchmark's own RNG
and the reference walk in ``reference``; the program receives it as a
dataset JSON file or as CLI flags.  Every check reads the program's
artifacts (or, for the channel, its returned table) and compares them with
the reference; none compares with a stored copy of earlier output.

An operation class is a factory ``make(rng, tag, tmp)`` returning the
request sent to the workload process and a ``check(reply)`` closure that
returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference

THETA_RANGE = (0.25, 1.3)      # away from 0 and pi/2, so no estimate is flagged
SAMPLES = 10_000
ROW_TOL = 1e-9
MASS_TOL = 1e-10
SE_LIMIT = 5.0


def _theta(rng) -> float:
    return float(rng.uniform(*THETA_RANGE))


def _cli(argv, tmp, tag):
    return {"op": "cli", "argv": [str(a) for a in argv]
            + ["--outdir", tmp, "--output", tag]}


def _read_table(tmp, tag):
    """Rows {site: p} of a pmf-shaped report, after checking that its CSV
    and JSON halves carry the same rows."""
    with open(os.path.join(tmp, tag + ".csv"), encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith("# ")]
    with open(os.path.join(tmp, tag + ".json"), encoding="utf-8") as handle:
        mirror = json.load(handle)["rows"]
    header, body = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if header != ["k", "d", "r", "lambda", "p"]:
        raise ValueError(f"unexpected CSV header {header}")
    csv_rows = [(int(k), int(d), float(r), float(lam), float(p)) for k, d, r, lam, p in body]
    json_rows = [(row["k"], row["d"], row["r"], row["lambda"], row["p"]) for row in mirror]
    if csv_rows != json_rows:
        raise ValueError("CSV and JSON rows disagree")
    return {d: p for _, d, _, _, p in csv_rows}


def _compare_rows(table, expected: dict):
    if sorted(table) != sorted(expected):
        return f"rows cover sites {min(table)}..{max(table)}, expected " \
               f"{min(expected)}..{max(expected)}"
    worst = max(abs(table[d] - expected[d]) for d in expected)
    if worst > ROW_TOL:
        return f"row off the reference by {worst:.3e}"
    mass = math.fsum(table.values())
    if abs(mass - 1.0) > MASS_TOL:
        return f"mass {mass!r} is not 1"
    return None


def _estimate(tmp, tag):
    with open(os.path.join(tmp, tag + ".json"), encoding="utf-8") as handle:
        return json.load(handle)["result"]["theta_hat"]


# ------------------------------------------------------------- operations


def estimate_positions(k):
    def make(rng, tag, tmp):
        theta_star = _theta(rng)
        support = np.arange(-k, k + 1, 2)
        p = reference.analytic_pmf(k, theta_star)[support + k]
        draws = rng.choice(support, size=SAMPLES, p=p / p.sum())
        path = os.path.join(tmp, tag + "-data.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": "positions", "k": k, "positions": draws.tolist()}, handle)
        sites, counts = np.unique(draws, return_counts=True)
        counts = dict(zip(sites.tolist(), counts.tolist()))

        def check(reply):
            theta_hat = _estimate(tmp, tag)
            se = 1.0 / math.sqrt(SAMPLES * reference.fisher_information(k, theta_star))
            if abs(theta_hat - theta_star) > SE_LIMIT * se:
                return f"theta_hat {theta_hat} is {abs(theta_hat - theta_star) / se:.1f} " \
                       f"standard errors from {theta_star}"
            step = se / 20
            peak = reference.log_likelihood(k, counts, theta_hat)
            if max(reference.log_likelihood(k, counts, theta_hat - step),
                   reference.log_likelihood(k, counts, theta_hat + step)) > peak:
                return f"theta_hat {theta_hat} is not a local maximum of the likelihood"
            return None

        return _cli(["estimate", "--data", path], tmp, tag), check

    return make


def estimate_returns(k):
    def make(rng, tag, tmp):
        theta_star = _theta(rng)
        n0 = int(rng.binomial(SAMPLES, reference.return_probability(k, theta_star)))
        path = os.path.join(tmp, tag + "-data.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": "returns", "k": k, "n": SAMPLES, "n0": n0}, handle)

        def check(reply):
            theta_hat = _estimate(tmp, tag)
            residual = abs(reference.return_probability(k, theta_hat) - n0 / SAMPLES)
            if residual > ROW_TOL:
                return f"return probability at theta_hat misses n0/n by {residual:.3e}"
            return None

        return _cli(["estimate", "--data", path, "--method", "bernoulli"], tmp, tag), check

    return make


def pmf_table(k):
    def make(rng, tag, tmp):
        lam = math.cos(_theta(rng))
        ref = reference.analytic_pmf(k, math.acos(lam))
        expected = {d: float(ref[d + k]) for d in range(-k, k + 1, 2)}

        def check(reply):
            return _compare_rows(_read_table(tmp, tag), expected)

        return _cli(["pmf", "--k", k, "--lambda", repr(lam)], tmp, tag), check

    return make


def simulate(k):
    def make(rng, tag, tmp):
        theta = _theta(rng)
        start = int(rng.integers(-50, 51))
        ref = reference.sim_pmf(k, theta)
        expected = {start + i - k: float(p) for i, p in enumerate(ref)}

        def check(reply):
            return _compare_rows(_read_table(tmp, tag), expected)

        return _cli(["simulate", "--k", k, "--theta", repr(theta), "--start", start],
                    tmp, tag), check

    return make


def channel(k):
    def make(rng, tag, tmp):
        theta = _theta(rng)
        ref = reference.sim_pmf(k, theta)
        expected = {i - k: float(p) for i, p in enumerate(ref)}

        def check(reply):
            return _compare_rows(dict(zip(reply["sites"], reply["p"])), expected)

        return {"op": "channel", "k": k, "theta": theta}, check

    return make


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    small: object
    large: object
    round: tuple           # the order of operation classes in one round


def _round(small_before, small_after):
    return ("small",) * small_before + ("large",) + ("small",) * small_after


WORKLOADS = {w.name: w for w in (
    Workload("estimate_positions", estimate_positions(20), estimate_positions(48),
             _round(1, 1)),
    Workload("estimate_returns", estimate_returns(8), estimate_returns(24), _round(2, 1)),
    Workload("tables", pmf_table(30), pmf_table(150), _round(20, 20)),
    Workload("walk_channel", simulate(1000), channel(500), _round(3, 3)),
)}
