"""Command-line surface for the walk library.

Every data command writes a CSV table (mandatory header, LF endings,
17-significant-digit decimals) plus a JSON mirror, both stamped with the
package version, the seed in effect, and the displacement-axis convention.
Writes are atomic (temp file then rename) and contain no timestamps, so
identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 validation failure, 2 usage or parse error (an
unreadable input or an unwritable output included), 3 degenerate
estimation (flat likelihood or boundary maximum), 141 stdout closed by its
reader (the artifacts are written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .chebyshev import _finite, _integer, _step_count
from .estimation import (
    TrialDataset,
    dataset_from_json,
    level_set_solve,
    likelihood_curve,
    mle_estimate,
)
from .pmf import (
    CONVENTION_SIGMA,
    format_float,
    pmf_full,
    _csv_text,
    _grid,
    _mirror_text,
    _pmf_columns,
    _return_grid,
)
from .sampling import (
    data_box_experiment,
    diffusion_experiment,
    sample_positions,
    sample_return_trials,
)
from .walk import (
    CoinParameter,
    WalkState,
    channel_position_pmf,
    evolve,
    position_pmf,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_ESTIMATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer SIGPIPE ended

FIG2_KS = (8, 16, 32, 64, 128, 256, 512)
_FIG1_K = 100
_FIG_LAMBDA_POINTS = 201  # every figure's lambda grid on [-1, 1]
# what a subcommand parse reads as a negative number, a flag's value rather than an
# option: argparse's own pattern takes neither an exponent (the %.17g of a small
# value) nor -inf or -nan
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|nan)$",
                              re.IGNORECASE)


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` by a rename, in a plain ``open``'s mode, 0o666 less the umask."""
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report(args, columns: dict, extra: dict, summary: str | None, *,
            stem: str | None = None, json_obj: dict | None = None) -> list[str]:
    """Write the table ``columns`` (column name -> its values, one a row)
    as STEM.csv and STEM.json, both rendered before either is written,
    and return their paths.

    Both are stamped with the version, ``args.command``, ``args.seed`` as
    an int and the axis convention, then ``extra``.  The stem is ``stem``,
    else ``--output``, else the command name; the directory is ``args.outdir``,
    which ``main`` resolved and created before the command ran.  The JSON
    mirror is ``_mirror_text(meta, columns)`` unless ``json_obj``
    gives the fields that follow its meta.  Unless ``summary`` is None, prints
    ``command: summary -> csv, json``.
    """
    stem = stem or args.output or args.command.replace("-", "_")
    meta = {"version": __version__, "command": args.command,
            "seed": "none" if args.seed is None else _integer(args.seed, "--seed", 0),
            "convention_sigma": CONVENTION_SIGMA, **extra}
    paths = [os.path.join(args.outdir, stem + ext) for ext in (".csv", ".json")]
    texts = (_csv_text(meta, columns), _mirror_text(meta, columns) if json_obj is None
             else json.dumps({"meta": meta, **json_obj}, indent=2) + "\n")
    for path, text in zip(paths, texts):
        _atomic_write(path, text)
    if summary is not None:
        print(f"{args.command}: {summary} -> {paths[0]}, {paths[1]}")
    return paths


def _echo_seed(args, seed: int) -> None:
    """When the command line gave no seed, store ``seed``, the one the
    library drew after its checks, in ``args`` so that the report stamps
    it, and echo it."""
    if args.seed is None:
        args.seed = seed
        print(f"{args.command}: no seed given, drew {seed}")


def _coin_from_args(args) -> CoinParameter:
    if args.theta is not None:
        return CoinParameter(args.theta)
    return CoinParameter.from_lambda(args.lam)


# ---------------------------------------------------------------- commands


def cmd_pmf(args) -> int:
    coin = _coin_from_args(args)
    # the table of the --lambda given, not of cos(acos(lambda)), which may differ
    pmf = pmf_full(args.k, coin.lam if args.lam is None else args.lam, exact=not args.fast)
    lam = format_float(pmf.lam)
    _report(args, _pmf_columns(pmf.k, pmf.table, pmf.lam),
            {"k": pmf.k, "lambda": lam, "theta": format_float(coin.theta),
             "axis": "analytic"},
            f"k={pmf.k} lambda={lam} ({len(pmf.table)} rows)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    coin = _coin_from_args(args)
    k = _step_count(args.k)     # r = d/k needs k >= 1, as pmf does
    start = WalkState.localized(args.start)
    table = position_pmf(evolve(start, coin, k)).table
    _report(args, _pmf_columns(k, table, coin.lam),
            {"k": k, "lambda": format_float(coin.lam),
             "theta": format_float(coin.theta), "start": start.lo, "axis": "simulator"},
            f"k={k} start={start.lo} ({len(table)} rows)")
    return EXIT_OK


def _load_dataset(path: str) -> TrialDataset:
    try:
        with open(path, encoding="utf-8") as handle:
            return dataset_from_json(handle.read())
    except FileNotFoundError:
        raise ValueError(f"dataset file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed dataset file {path}: {exc}")


def cmd_likelihood(args) -> int:
    data = _load_dataset(args.data)
    curve = likelihood_curve(data, theta_range=(args.theta_min, args.theta_max),
                             grid_size=args.grid)
    thetas = curve.thetas.tolist()
    argmax = format_float(curve.argmax_theta)
    _report(args, {"theta": thetas, "lambda": list(map(math.cos, thetas)),
                   "loglik": curve.loglik.tolist()},
            {"k": data.k, "kind": data.kind, "trials": data.trials,
             "argmax_theta": argmax, "curvature": format_float(curve.curvature)},
            f"k={data.k} grid={args.grid} argmax={argmax}")
    return EXIT_OK


def _generate_dataset(args) -> TrialDataset:
    if args.theta_star is None or args.k is None or args.n is None:
        raise ValueError("--generate needs --theta-star, --k and --n")
    lam = math.cos(_finite(args.theta_star, "theta_star"))
    if args.method == "bernoulli":
        q = float(_return_grid(args.k, [lam])[0])
        return sample_return_trials(q, args.n, seed=args.seed, k=args.k)
    return sample_positions(pmf_full(args.k, lam), args.n, seed=args.seed)


def cmd_estimate(args) -> int:
    if args.generate:
        data = _generate_dataset(args)
    else:
        data = _load_dataset(args.data)

    method = args.method
    # bernoulli reads return counts; positions and loop read position data
    if (data.kind == "returns") != (method == "bernoulli"):
        what = "return-count" if method == "bernoulli" else "position"
        raise ValueError(f"--method {method} needs {what} data")
    if method == "loop":
        # evolution-loop reading of position data: a trial succeeds when the
        # walker is back at its start site, so only the return count matters
        counts = data.counts()
        if not all(c.is_integer() for c in counts.values()):
            raise ValueError("--method loop needs whole-number counts as weights")
        data = TrialDataset.from_returns(data.k, int(counts.get(0, 0)), int(data.trials),
                                         seed=data.seed)

    est = mle_estimate(data, theta_range=(args.theta_min, args.theta_max),
                       grid_size=args.grid, refine_tolerance=args.refine_tol)
    if args.generate:
        _echo_seed(args, data.seed)
    row = est.to_json()
    row["candidates"] = "|".join(format_float(c) for c in est.candidates)
    row["flags"] = "|".join(est.flags)
    # the summary's trailing newline puts the paths on a line of their own
    _report(args, {name: [value] for name, value in row.items()},
            {"method": method, "k": data.k},
            f"method={method} k={data.k} n={data.trials:g} "
            f"theta_hat={format_float(est.theta_hat)} "
            f"lambda_hat={format_float(est.lambda_hat)} flags={list(est.flags)}\n ",
            json_obj={"result": est.to_json(),
                      "dataset": {"kind": data.kind, "k": data.k, "trials": data.trials,
                                  "seed": data.seed}})
    return EXIT_ESTIMATION if est.flags else EXIT_OK


def cmd_level_set(args) -> int:
    roots = level_set_solve(args.f, args.k, branch=(args.branch_min, args.branch_max))
    k = int(args.k)                                 # an int, as level_set_solve checked
    f = format_float(args.f)
    _report(args, {"k": [k] * len(roots), "f": [args.f] * len(roots), "lam": roots,
                   "theta": list(map(math.acos, roots))},
            {"k": k, "f": f, "count": len(roots)},
            f"k={k} f={f} -> {len(roots)} root(s)")
    return EXIT_OK


def cmd_diffusion(args) -> int:
    ks = _parse_list(args.k_list, int, "a comma-separated integer list", "k")
    modes = ("quantum", "classical") if args.mode == "both" else (args.mode,)
    rows = [(mode, k, sigma) for mode in modes
            for k, sigma in diffusion_experiment(args.theta, ks, mode)]
    theta = format_float(args.theta)
    _report(args, dict(zip(("mode", "k", "sigma"), map(list, zip(*rows)))),
            {"theta": theta, "k_list": " ".join(map(str, ks))},
            f"theta={theta} modes={list(modes)}")
    return EXIT_OK


def cmd_databox(args) -> int:
    allocations = _parse_list(args.allocations, _allocation,
                              "allocations like '2:2000,20:200'", "allocation")
    report = data_box_experiment(args.theta_star, args.budget, allocations,
                                 seed=args.seed, grid_size=args.grid)
    _echo_seed(args, report["config"]["seed"])
    rows = [dict(row, flags="|".join(row["flags"])) for row in report["rows"]]
    theta_star, budget = format_float(args.theta_star), report["config"]["budget"]
    _report(args, {name: [row[name] for row in rows] for name in rows[0]},
            {"theta_star": theta_star, "budget": budget},
            f"theta_star={theta_star} budget={budget} ({len(rows)} allocations)")
    return EXIT_OK


def _fig1_columns() -> dict:
    """The k = 100 pmf at every lambda of the grid, a row per (lambda, d)."""
    lams = np.linspace(-1.0, 1.0, _FIG_LAMBDA_POINTS)
    ds = range(-_FIG1_K, _FIG1_K + 1, 2)
    return {"lambda": np.repeat(lams, len(ds)).tolist(),
            "r": [d / _FIG1_K for d in ds] * len(lams),
            "p": _grid(_FIG1_K, lams, ds).ravel().tolist()}


def _fig2_columns(which: str) -> dict:
    """p vs lambda curves for k = 8..512: at d=0 (fig2a) or d=k/4 (fig2b),
    a row per (lambda, k)."""
    lams = np.linspace(-1.0, 1.0, _FIG_LAMBDA_POINTS)
    curves = np.stack([_grid(k, lams, [0 if which == "fig2a" else k // 4])[:, 0]
                       for k in FIG2_KS], axis=1)
    return {"k": list(FIG2_KS) * len(lams), "lambda": np.repeat(lams, len(FIG2_KS)).tolist(),
            "p": curves.ravel().tolist()}


def cmd_figures(args) -> int:
    wanted = ("fig1", "fig2a", "fig2b") if args.which == "all" else (args.which,)
    written = []
    for which in wanted:
        if which == "fig1":
            written += _report(args, _fig1_columns(),
                               {"figure": "fig1", "k": _FIG1_K,
                                "lambda_points": _FIG_LAMBDA_POINTS}, None, stem=which)
        else:
            written += _report(args, _fig2_columns(which),
                               {"figure": which, "d": "0" if which == "fig2a" else "k/4",
                                "k_values": " ".join(map(str, FIG2_KS))}, None, stem=which)
    print(f"figures: wrote {', '.join(written)}")
    return EXIT_OK


def _validation_checks(max_k: int):
    """Yield (name, worst_residual) pairs, one for each check of a production route."""
    lams = [-0.95, -0.6, -0.3, 0.0, 0.3, 0.6, 0.95]

    worst = 0.0
    for lam in lams:
        coin = CoinParameter.from_lambda(lam)
        state = WalkState.origin()
        for k in range(1, max_k + 1):
            analytic = pmf_full(k, lam)
            state = evolve(state, coin, 1)
            sim = position_pmf(state)
            for d, p in analytic.table.items():
                worst = max(worst, abs(p - sim.probability(CONVENTION_SIGMA * d)))
    yield "analytic pmf vs state-vector oracle (reflected axis)", worst

    worst = 0.0
    for lam in lams:
        for k in range(1, max_k + 1):
            worst = max(worst, abs(pmf_full(k, lam, exact=False).total() - 1.0))
    yield "pmf normalization", worst

    worst = 0.0
    for k in range(2, max_k + 1, max(1, max_k // 4)):
        coin = CoinParameter(0.9)
        direct = position_pmf(evolve(WalkState.origin(), coin, k))
        channel = channel_position_pmf(WalkState.origin(), coin, k)
        for m in direct.table:
            worst = max(worst, abs(direct.probability(m) - channel.probability(m)))
    yield "Kraus channel vs direct evolution", worst


def cmd_validate(args) -> int:
    _integer(args.max_k, "--max-k", 0)
    _finite(args.tol, "--tol", 0)
    failed = False
    for name, worst in _validation_checks(args.max_k):
        ok = worst <= args.tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: worst residual "
              f"{worst:.3e} (tolerance {args.tol:g})")
    return EXIT_VALIDATION if failed else EXIT_OK


# ---------------------------------------------------------------- parsing


def _parse_list(text: str, item, expected: str, name: str) -> list:
    """``item`` of each comma-separated part of ``text``, blank parts
    skipped; a part ``item`` rejects or no part at all raises ValueError."""
    try:
        values = [item(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected {expected}, got {text!r}")
    if not values:
        raise ValueError(f"empty {name} list")
    return values


def _allocation(part: str) -> tuple[int, int]:
    """A ``k:n`` pair as two ints."""
    k, n = part.split(":")
    return int(k), int(n)


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
    p.add_argument("--grid", type=int, default=601,
                   help="theta grid points (default 601); argmax_theta is the best of "
                        "them, not refined, and can miss the peak where the likelihood "
                        "ripples faster than the spacing, as at k in the thousands")
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
                   help="Newton step at which the refine stops (0: float resolution); "
                        "near a concave maximum theta_hat lies within about it of the "
                        "root of the score")
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
    ("likelihood", "log-likelihood curve over theta, with its grid argmax", _likelihood_args,
     cmd_likelihood),
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
            p._negative_number_matcher = _NEGATIVE_NUMBER
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


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
    try:
        if getattr(args, "seed", None) is not None:
            _integer(args.seed, "--seed", 0)
        if hasattr(args, "outdir"):
            # --outdir, else $RELUCTANT_WALK_OUTDIR, else here; made before any
            # work, so an unwritable output stops the run at once
            args.outdir = args.outdir or os.environ.get("RELUCTANT_WALK_OUTDIR") or "."
            os.makedirs(args.outdir, exist_ok=True)
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
    except OSError as exc:  # an unreadable input or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
