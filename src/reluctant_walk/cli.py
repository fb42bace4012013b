"""Command-line surface for the walk library.

Every data command writes a CSV table (mandatory header, LF endings,
17-significant-digit decimals) plus a JSON mirror, both stamped with the
package version, the seed in effect, and the displacement-axis convention.
Writes are atomic (temp file then rename) and contain no timestamps, so
identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 validation failure, 2 usage or parse error,
3 degenerate estimation (flat likelihood or boundary maximum), 141 stdout
closed by its reader (the artifacts are written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .chebyshev import chebyshev_identity_suite
from .estimation import (
    EstimateResult,
    TrialDataset,
    dataset_from_json,
    level_set_solve,
    likelihood_curve,
    log_likelihood,
    mle_estimate,
)
from .pmf import (
    CONVENTION_SIGMA,
    format_float,
    pmf_full,
    pmf_point,
    iter_pmf_full,
    _PMF_COLUMNS,
    _csv_text,
    _grid,
    _mirror_text,
    _pmf_rows,
    _return_grid,
)
from .sampling import (
    data_box_experiment,
    fresh_seed,
    sample_positions,
    sample_return_trials,
)
from .walk import (
    CoinParameter,
    WalkState,
    channel_position_pmf,
    evolve,
    kernel_matrix,
    kernel_power,
    position_pmf,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_ESTIMATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer SIGPIPE ended

FIG2_KS = (8, 16, 32, 64, 128, 256, 512)


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("RELUCTANT_WALK_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stamp(command: str, seed, extra: dict | None = None) -> dict:
    meta = {
        "version": __version__,
        "command": command,
        "seed": "none" if seed is None else seed,
        "convention_sigma": CONVENTION_SIGMA,
    }
    if extra:
        meta.update(extra)
    return meta


def _write_report(outdir: str, stem: str, columns, rows, meta: dict,
                  json_obj: dict | None = None) -> list[str]:
    """Write stem.csv and stem.json; returns the paths written.

    The JSON mirror defaults to ``_mirror_text(meta, columns, rows)``;
    ``json_obj`` replaces it for commands with a richer result structure.
    """
    csv_path = os.path.join(outdir, stem + ".csv")
    _atomic_write(csv_path, _csv_text(meta, columns, rows))

    if json_obj is None:
        json_text = _mirror_text(meta, columns, rows)
    else:
        json_text = json.dumps(json_obj, indent=2) + "\n"
    json_path = os.path.join(outdir, stem + ".json")
    _atomic_write(json_path, json_text)
    return [csv_path, json_path]


def _coin_from_args(args) -> CoinParameter:
    if args.theta is not None:
        return CoinParameter(args.theta)
    return CoinParameter.from_lambda(args.lam)


# ---------------------------------------------------------------- commands


def cmd_pmf(args) -> int:
    coin = _coin_from_args(args)
    pmf = pmf_full(args.k, coin.lam, exact=not args.fast)
    meta = _stamp("pmf", args.seed, {"k": args.k, "lambda": format_float(coin.lam),
                                     "theta": format_float(coin.theta),
                                     "axis": "analytic"})
    paths = _write_report(_outdir(args), args.output or "pmf",
                          _PMF_COLUMNS, _pmf_rows(pmf.k, pmf.table, pmf.lam), meta)
    print(f"pmf: k={args.k} lambda={format_float(coin.lam)} "
          f"({len(pmf.table)} rows) -> {paths[0]}, {paths[1]}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    coin = _coin_from_args(args)
    state = evolve(WalkState.localized(args.start), coin, args.k)
    table = position_pmf(state).table
    meta = _stamp("simulate", args.seed, {"k": args.k, "lambda": format_float(coin.lam),
                                          "theta": format_float(coin.theta),
                                          "start": args.start, "axis": "simulator"})
    paths = _write_report(_outdir(args), args.output or "simulate",
                          _PMF_COLUMNS, _pmf_rows(args.k, table, coin.lam), meta)
    print(f"simulate: k={args.k} start={args.start} "
          f"({len(table)} rows) -> {paths[0]}, {paths[1]}")
    return EXIT_OK


def _load_dataset(path: str) -> TrialDataset:
    try:
        with open(path, encoding="utf-8") as handle:
            return dataset_from_json(handle.read())
    except FileNotFoundError:
        raise ValueError(f"dataset file not found: {path}")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed dataset file {path}: {exc}")


def cmd_likelihood(args) -> int:
    data = _load_dataset(args.data)
    curve = likelihood_curve(data, theta_range=(args.theta_min, args.theta_max),
                             grid_size=args.grid)
    rows = [{"theta": float(t), "lambda": math.cos(float(t)), "loglik": float(v)}
            for t, v in zip(curve.thetas, curve.loglik)]
    meta = _stamp("likelihood", args.seed,
                  {"k": data.k, "kind": data.kind, "trials": data.trials,
                   "argmax_theta": format_float(curve.argmax_theta),
                   "curvature": format_float(curve.curvature)})
    paths = _write_report(_outdir(args), args.output or "likelihood",
                          ["theta", "lambda", "loglik"], rows, meta)
    print(f"likelihood: k={data.k} grid={args.grid} "
          f"argmax={format_float(curve.argmax_theta)} -> {paths[0]}, {paths[1]}")
    return EXIT_OK


def _generate_dataset(args, seed: int) -> TrialDataset:
    if args.theta_star is None or args.k is None or args.n is None:
        raise ValueError("--generate needs --theta-star, --k and --n")
    lam = math.cos(args.theta_star)
    if args.method == "bernoulli":
        q = float(_return_grid(args.k, [lam], exact=True)[0])
        return sample_return_trials(q, args.n, seed=seed, k=args.k)
    return sample_positions(pmf_full(args.k, lam), args.n, seed=seed)


def cmd_estimate(args) -> int:
    consumes_rng = args.generate
    seed = args.seed
    if consumes_rng and seed is None:
        seed = fresh_seed()
        print(f"estimate: no seed given, drew {seed}")

    if args.generate:
        data = _generate_dataset(args, seed)
    else:
        data = _load_dataset(args.data)

    method = args.method
    if method == "loop":
        # evolution-loop reading of position data: a trial succeeds when the
        # walker is back at its start site, so only the return count matters
        if data.kind != "positions":
            raise ValueError("--method loop needs position data")
        if data.weights is not None:
            raise ValueError("--method loop needs unweighted position data")
        n0 = sum(1 for d in data.positions if d == 0)
        data = TrialDataset.from_returns(data.k, n0, len(data.positions),
                                         seed=data.seed)
    elif method == "bernoulli" and data.kind != "returns":
        raise ValueError("--method bernoulli needs return-count data")
    elif method == "positions" and data.kind != "positions":
        raise ValueError("--method positions needs position data")

    est = mle_estimate(data, theta_range=(args.theta_min, args.theta_max),
                       grid_size=args.grid, refine_tolerance=args.refine_tol)
    meta = _stamp("estimate", seed if consumes_rng else args.seed,
                  {"method": method, "k": data.k})
    obj = {"meta": meta, "result": est.to_json(),
           "dataset": {"kind": data.kind, "k": data.k, "trials": data.trials,
                       "seed": data.seed}}
    row = est.to_json()
    row["candidates"] = "|".join(format_float(c) for c in est.candidates)
    row["flags"] = "|".join(est.flags)
    columns = ["theta_hat", "lambda_hat", "loglik", "curvature", "positivity",
               "candidates", "flags", "kind", "k", "n", "seed", "convention_sigma"]
    paths = _write_report(_outdir(args), args.output or "estimate", columns, [row],
                          meta, json_obj=obj)

    print(f"estimate: method={method} k={data.k} n={data.trials:g} "
          f"theta_hat={format_float(est.theta_hat)} "
          f"lambda_hat={format_float(est.lambda_hat)} flags={list(est.flags)}")
    print(f"  -> {paths[0]}, {paths[1]}")
    return EXIT_ESTIMATION if est.flags else EXIT_OK


def cmd_level_set(args) -> int:
    roots = level_set_solve(args.f, args.k, branch=(args.branch_min, args.branch_max))
    rows = [{"k": args.k, "f": args.f, "lam": r, "theta": math.acos(r)} for r in roots]
    meta = _stamp("level-set", args.seed,
                  {"k": args.k, "f": format_float(args.f), "count": len(roots)})
    paths = _write_report(_outdir(args), args.output or "level_set",
                          ["k", "f", "lam", "theta"], rows, meta)
    print(f"level-set: k={args.k} f={format_float(args.f)} -> {len(roots)} root(s) "
          f"-> {paths[0]}, {paths[1]}")
    return EXIT_OK


def cmd_diffusion(args) -> int:
    ks = _parse_int_list(args.k_list)
    modes = ("quantum", "classical") if args.mode == "both" else (args.mode,)
    rows = []
    from .sampling import diffusion_experiment

    for mode in modes:
        for k, sigma in diffusion_experiment(args.theta, ks, mode):
            rows.append({"mode": mode, "k": k, "sigma": sigma})
    meta = _stamp("diffusion", args.seed,
                  {"theta": format_float(args.theta), "k_list": " ".join(map(str, ks))})
    paths = _write_report(_outdir(args), args.output or "diffusion",
                          ["mode", "k", "sigma"], rows, meta)
    print(f"diffusion: theta={format_float(args.theta)} modes={list(modes)} "
          f"-> {paths[0]}, {paths[1]}")
    return EXIT_OK


def cmd_databox(args) -> int:
    seed = args.seed
    if seed is None:
        seed = fresh_seed()
        print(f"databox: no seed given, drew {seed}")
    allocations = _parse_allocations(args.allocations)
    report = data_box_experiment(args.theta_star, args.budget, allocations,
                                 seed=seed, grid_size=args.grid)
    rows = [dict(row, flags="|".join(row["flags"])) for row in report["rows"]]
    meta = _stamp("databox", seed, {"theta_star": format_float(args.theta_star),
                                    "budget": args.budget})
    paths = _write_report(_outdir(args), args.output or "databox",
                          ["k", "n", "theta_hat", "lambda_hat", "abs_error",
                           "loglik", "flags"], rows, meta)
    print(f"databox: theta_star={format_float(args.theta_star)} "
          f"budget={args.budget} ({len(rows)} allocations) -> {paths[0]}, {paths[1]}")
    return EXIT_OK


def _fig1_rows(k: int = 100, lam_points: int = 201) -> list[dict]:
    lams = np.linspace(-1.0, 1.0, lam_points)
    ds = range(-k, k + 1, 2)
    return [{"lambda": lam, "r": d / k, "p": p}
            for lam, ps in zip(lams.tolist(), _grid(k, lams, ds, exact=False).tolist())
            for d, p in zip(ds, ps)]


def _fig2_rows(which: str, lam_points: int = 201) -> list[dict]:
    """p vs lambda curves for k = 8..512: at d=0 (fig2a) or d=k/4 (fig2b)."""
    lams = np.linspace(-1.0, 1.0, lam_points)
    curves = np.stack([_grid(k, lams, [0 if which == "fig2a" else k // 4], exact=False)[:, 0]
                       for k in FIG2_KS], axis=1)
    return [{"k": k, "lambda": lam, "p": p}
            for lam, ps in zip(lams.tolist(), curves.tolist()) for k, p in zip(FIG2_KS, ps)]


def cmd_figures(args) -> int:
    outdir = _outdir(args)
    wanted = ("fig1", "fig2a", "fig2b") if args.which == "all" else (args.which,)
    written = []
    for which in wanted:
        if which == "fig1":
            rows = _fig1_rows()
            meta = _stamp("figures", args.seed,
                          {"figure": "fig1", "k": 100, "lambda_points": 201})
            written += _write_report(outdir, "fig1", ["lambda", "r", "p"], rows, meta)
        else:
            rows = _fig2_rows(which)
            meta = _stamp("figures", args.seed,
                          {"figure": which, "d": "0" if which == "fig2a" else "k/4",
                           "k_values": " ".join(map(str, FIG2_KS))})
            written += _write_report(outdir, which, ["k", "lambda", "p"], rows, meta)
    print(f"figures: wrote {', '.join(written)}")
    return EXIT_OK


def _validation_checks(max_k: int, tolerance: float):
    """Yield (name, worst_residual) pairs for the oracle-equivalence suite."""
    lams = [-0.95, -0.6, -0.3, 0.0, 0.3, 0.6, 0.95]

    worst = 0.0
    for lam in lams:
        coin = CoinParameter.from_lambda(lam)
        state = WalkState.origin()
        pmfs = iter_pmf_full(lam, max_k, exact=True) if max_k else ()
        for analytic in pmfs:
            state = evolve(state, coin, 1)
            sim = position_pmf(state)
            for d, p in analytic.table.items():
                worst = max(worst, abs(p - sim.probability(-d)))
    yield "analytic pmf vs state-vector oracle (reflected axis)", worst

    worst = 0.0
    for lam in lams:
        for pmf in (iter_pmf_full(lam, max_k, exact=False) if max_k else ()):
            worst = max(worst, abs(pmf.total() - 1.0))
    yield "pmf normalization", worst

    worst = 0.0
    for k in range(2, max_k + 1, max(1, max_k // 4)):
        coin = CoinParameter(0.9)
        direct = position_pmf(evolve(WalkState.origin(), coin, k))
        channel = channel_position_pmf(WalkState.origin(), coin, k)
        for m in direct.table:
            worst = max(worst, abs(direct.probability(m) - channel.probability(m)))
    yield "Kraus channel vs direct evolution", worst

    worst = 0.0
    for k in range(1, max_k + 1):
        coin = CoinParameter(0.7)
        for phi in (0.4, 1.9):
            reference = np.linalg.matrix_power(kernel_matrix(phi, coin), k)
            worst = max(worst, float(np.max(np.abs(kernel_power(phi, coin, k)
                                                   - reference))))
    yield "kernel power closed form", worst

    worst = 0.0
    if max_k >= 1:
        for lam in (0.0, 0.3, 0.7, 1.0):
            residuals = chebyshev_identity_suite(3, lam)
            worst = max(worst, max(residuals.values()))
    yield "polynomial identity suite", worst


def _detect_sigma(max_k: int) -> int | None:
    if max_k < 2:
        return None
    coin = CoinParameter.from_lambda(0.6)
    sim = position_pmf(evolve(WalkState.origin(), coin, 2))
    mirrored = max(abs(pmf_point(2, d, 0.6) - sim.probability(-d)) for d in (-2, 0, 2))
    direct = max(abs(pmf_point(2, d, 0.6) - sim.probability(d)) for d in (-2, 0, 2))
    return -1 if mirrored <= direct else 1


def cmd_validate(args) -> int:
    failed = False
    for name, worst in _validation_checks(args.max_k, args.tol):
        ok = worst <= args.tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: worst residual "
              f"{worst:.3e} (tolerance {args.tol:g})")
    detected = _detect_sigma(args.max_k)
    if detected is None:
        print(f"convention sigma: {CONVENTION_SIGMA} (module constant; "
              f"max-k too small to re-detect)")
    else:
        print(f"convention sigma: detected {detected}, module constant {CONVENTION_SIGMA}")
        if detected != CONVENTION_SIGMA:
            failed = True
    return EXIT_VALIDATION if failed else EXIT_OK


# ---------------------------------------------------------------- parsing


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise ValueError("empty k list")
    return values


def _parse_allocations(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k, n = part.split(":")
            out.append((int(k), int(n)))
        except ValueError:
            raise ValueError(f"expected allocations like '2:2000,20:200', got {text!r}")
    if not out:
        raise ValueError("empty allocation list")
    return out


def _add_common(parser: argparse.ArgumentParser, stem: bool = True) -> None:
    parser.add_argument("--outdir", default=None,
                        help="output directory (default: $RELUCTANT_WALK_OUTDIR or .)")
    if stem:
        parser.add_argument("--output", default=None, metavar="STEM",
                            help="output file stem (default: the subcommand name)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed; commands that sample draw and echo one if omitted")


def _add_coin_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="coin parameter cos(theta)")
    group.add_argument("--theta", type=float, help="coin angle in radians")


def _add_theta_range(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta-min", type=float, default=0.0,
                        help="lower end of the theta range (default 0)")
    parser.add_argument("--theta-max", type=float, default=math.pi / 2,
                        help="upper end of the theta range (default pi/2)")


def _pmf_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="step count")
    _add_coin_flags(p)
    p.add_argument("--fast", action="store_true",
                   help="float recurrence instead of exact rational rows")
    _add_common(p)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="step count")
    _add_coin_flags(p)
    p.add_argument("--start", type=int, default=0, help="initial site (default 0)")
    _add_common(p)


def _likelihood_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset JSON file")
    p.add_argument("--grid", type=int, default=601, help="theta grid points (default 601)")
    _add_theta_range(p)
    _add_common(p)


def _estimate_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="dataset JSON file")
    source.add_argument("--generate", action="store_true",
                        help="sample a dataset in-process (needs --theta-star, --k, --n)")
    p.add_argument("--method", choices=["positions", "loop", "bernoulli"],
                   default="positions",
                   help="positions: the displacement samples; loop: only their returns "
                        "to the start site; bernoulli: return-count data (default positions)")
    p.add_argument("--theta-star", type=float, default=None,
                   help="true coin angle of a --generate dataset")
    p.add_argument("--k", type=int, default=None, help="step count of a --generate dataset")
    p.add_argument("--n", type=int, default=None, help="trials of a --generate dataset")
    p.add_argument("--grid", type=int, default=601,
                   help="theta grid points of the scan (default 601)")
    p.add_argument("--refine-tol", type=float, default=1e-9,
                   help="theta bracket of the refine (0: float resolution); on small "
                        "samples the float likelihood is flat to rounding over up to "
                        "~1e-8 (n <= 50), and theta_hat is any point of that flat top")
    _add_theta_range(p)
    _add_common(p)


def _level_set_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", type=float, required=True, help="level in [0, 1]")
    p.add_argument("--k", type=int, required=True, help="even step count")
    p.add_argument("--branch-min", type=float, default=-1.0,
                   help="lower end of the lambda branch (default -1); the roots are "
                        "r, the one root on [0, 1], and -r, where they lie on the branch")
    p.add_argument("--branch-max", type=float, default=1.0,
                   help="upper end of the lambda branch (default 1)")
    _add_common(p)


def _diffusion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, default=math.pi / 3,
                   help="coin angle in radians (default pi/3)")
    p.add_argument("--k-list", default="16,32,64,128,256",
                   help="comma-separated step counts (default 16,32,64,128,256)")
    p.add_argument("--mode", choices=["quantum", "classical", "both"], default="both",
                   help="walk to measure (default both)")
    _add_common(p)


def _databox_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-star", type=float, required=True, help="true coin angle")
    p.add_argument("--budget", type=int, required=True,
                   help="largest k * n an allocation may use")
    p.add_argument("--allocations", required=True,
                   help="comma-separated k:n pairs, e.g. '2:2000,20:200'")
    p.add_argument("--grid", type=int, default=601,
                   help="theta grid points of each estimate's scan (default 601)")
    _add_common(p)


def _figures_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--which", choices=["fig1", "fig2a", "fig2b", "all"], default="all",
                   help="figure to write (default all)")
    _add_common(p, stem=False)  # the figure names are the stems


def _validate_args(p: argparse.ArgumentParser) -> None:
    # validate writes no artifact and draws nothing: no --outdir, --output or --seed
    p.add_argument("--max-k", type=int, default=30,
                   help="largest step count checked (default 30)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest residual a check may show (default 1e-9)")


# (name, help, arguments, handler) of each subcommand, in the order of the help listing
_COMMANDS = (
    ("pmf", "closed-form displacement table", _pmf_args, cmd_pmf),
    ("simulate", "state-vector walk and measured distribution", _simulate_args, cmd_simulate),
    ("likelihood", "log-likelihood curve over theta", _likelihood_args, cmd_likelihood),
    ("estimate", "maximum-likelihood coin estimate", _estimate_args, cmd_estimate),
    ("level-set", "solve return probability = f for lambda", _level_set_args, cmd_level_set),
    ("diffusion", "sigma(k) scaling, quantum vs classical", _diffusion_args, cmd_diffusion),
    ("databox", "error vs (k, n) budget allocations", _databox_args, cmd_databox),
    ("figures", "figure data grids (CSV/JSON, no plotting)", _figures_args, cmd_figures),
    ("validate", "oracle-equivalence suite", _validate_args, cmd_validate),
)


def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with the subcommand ``command`` only, or with every
    subcommand when ``command`` is None.

    Each subcommand is a full ArgumentParser (argparse makes a formatter
    per argument and per parser), which costs about as much as a small
    command, and a parse reads only the one it dispatches to.  The
    top-level usage names no subcommand (metavar COMMAND), so what a
    named subcommand's parse prints is what the full parser prints.
    """
    parser = argparse.ArgumentParser(
        prog="reluctant-walk",
        description="SO(2)-coined quantum walk: exact simulation, closed-form pmf, "
                    "and coin estimation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, add_arguments, func in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every subcommand with its arguments."""
    return _parser(None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first argument that names a subcommand is the one parse_args dispatches to
    command = argv[0] if argv and argv[0] in {c[0] for c in _COMMANDS} else None
    parser = _parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader left early (`| head -1`); devnull quiets the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
