"""End-to-end tests of the command-line surface via main(argv).

Every command writes CSV + JSON into a temp directory; tests parse those
artifacts rather than scraping stdout, except where the contract is about
stdout itself (validate, seed echo).
"""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from reluctant_walk.cli import FIG2_KS, build_parser, main
from reluctant_walk.pmf import pmf_from_csv, pmf_from_json, pmf_full


def read_csv(path):
    """Parse one report: ('# key: value' metadata, header list, row dicts)."""
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def write_dataset(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- pmf

def test_pmf_writes_stamped_csv_and_json(tmp_path):
    assert main(["pmf", "--k", "2", "--lambda", "0.6",
                 "--outdir", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "pmf.csv")
    assert meta["version"]
    assert meta["command"] == "pmf"
    assert meta["seed"] == "none"
    assert meta["convention_sigma"] == "-1"
    assert meta["axis"] == "analytic"
    assert header == ["k", "d", "r", "lambda", "p"]
    table = {int(r["d"]): float(r["p"]) for r in rows}
    assert table[-2] == pytest.approx(0.6**4, abs=1e-15)
    assert table[0] == pytest.approx(1 - 0.36, abs=1e-15)
    assert table[2] == pytest.approx(0.36 * 0.64, abs=1e-15)

    mirror = json.loads((tmp_path / "pmf.json").read_text())
    assert mirror["meta"]["command"] == "pmf"
    assert len(mirror["rows"]) == len(rows) == 3


def test_pmf_csv_reads_back_as_pmf(tmp_path):
    main(["pmf", "--k", "6", "--theta", "0.8", "--outdir", str(tmp_path)])
    loaded = pmf_from_csv((tmp_path / "pmf.csv").read_text(encoding="utf-8"))
    want = pmf_full(6, math.cos(0.8))
    assert loaded.k == 6
    for d in want.support:
        assert loaded.probability(d) == pytest.approx(want.probability(d), abs=1e-15)


@pytest.mark.parametrize("argv", [["pmf", "--k", "6", "--theta", "0.8"],
                                  ["pmf", "--k", "9", "--lambda", "-0.3", "--fast"],
                                  ["simulate", "--k", "5", "--theta", "0.7", "--start", "2"]])
def test_table_json_reads_back_like_the_csv(tmp_path, argv):
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    stem = tmp_path / argv[0]
    from_csv = pmf_from_csv(stem.with_suffix(".csv").read_text(encoding="utf-8"))
    from_json = pmf_from_json(stem.with_suffix(".json").read_text(encoding="utf-8"))
    assert (from_json.k, from_json.lam, from_json.table) == (from_csv.k, from_csv.lam,
                                                             from_csv.table)


def test_pmf_custom_stem_and_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RELUCTANT_WALK_OUTDIR", str(tmp_path))
    assert main(["pmf", "--k", "2", "--lambda", "0.5", "--output", "table"]) == 0
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "table.json").exists()


def test_pmf_rejects_out_of_range_lambda(tmp_path):
    assert main(["pmf", "--k", "2", "--lambda", "1.5",
                 "--outdir", str(tmp_path)]) == 2


def test_nan_coin_exits_two_and_writes_nothing(tmp_path, capsys):
    assert main(["pmf", "--k", "4", "--lambda", "nan", "--fast",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["simulate", "--k", "4", "--theta", "nan",
                 "--outdir", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()


def test_pmf_requires_a_coin_flag(tmp_path, capsys):
    assert main(["pmf", "--k", "2", "--outdir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_negative_seed_rejected(tmp_path):
    assert main(["pmf", "--k", "2", "--lambda", "0.5", "--seed", "-3",
                 "--outdir", str(tmp_path)]) == 2


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


# ---------------------------------------------------------------- simulate

def test_simulate_reports_simulator_axis(tmp_path):
    assert main(["simulate", "--k", "2", "--theta", "0.7",
                 "--outdir", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "simulate.csv")
    assert meta["axis"] == "simulator"
    table = {int(r["d"]): float(r["p"]) for r in rows}
    # forward axis: the ballistic weight c^4 sits at +2, not -2
    assert table[2] == pytest.approx(math.cos(0.7) ** 4, abs=1e-15)
    assert table[-2] == pytest.approx(
        (math.sin(0.7) * math.cos(0.7)) ** 2, abs=1e-15)


def test_simulate_start_site_shifts_window(tmp_path):
    main(["simulate", "--k", "2", "--theta", "0.7", "--start", "3",
          "--outdir", str(tmp_path)])
    _, _, rows = read_csv(tmp_path / "simulate.csv")
    sites = [int(r["d"]) for r in rows]
    assert min(sites) == 1 and max(sites) == 5


# ---------------------------------------------------------------- estimate

def test_estimate_generate_recovers_angle(tmp_path):
    code = main(["estimate", "--generate", "--method", "positions",
                 "--theta-star", "0.3", "--k", "20", "--n", "10000",
                 "--seed", "7", "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "estimate.json").read_text())
    assert set(report) == {"meta", "result", "dataset"}
    result = report["result"]
    assert abs(result["theta_hat"] - 0.3) < 0.05
    assert result["flags"] == []
    assert result["convention_sigma"] == -1
    assert report["meta"]["seed"] == 7
    assert report["dataset"]["kind"] == "positions"

    meta, header, rows = read_csv(tmp_path / "estimate.csv")
    assert header == ["theta_hat", "lambda_hat", "loglik", "curvature",
                      "positivity", "candidates", "flags", "kind", "k", "n",
                      "seed", "convention_sigma"]
    assert len(rows) == 1
    assert float(rows[0]["theta_hat"]) == pytest.approx(result["theta_hat"])


def test_estimate_generate_echoes_fresh_seed(tmp_path, capsys):
    code = main(["estimate", "--generate", "--method", "bernoulli",
                 "--theta-star", "0.5", "--k", "2", "--n", "50",
                 "--outdir", str(tmp_path)])
    assert code in (0, 3)
    out = capsys.readouterr().out
    assert "no seed given, drew" in out
    report = json.loads((tmp_path / "estimate.json").read_text())
    assert isinstance(report["meta"]["seed"], int)


def test_estimate_bernoulli_all_returns(tmp_path):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "returns", "k": 2, "n": 40, "n0": 40})
    code = main(["estimate", "--data", data, "--method", "bernoulli",
                 "--outdir", str(tmp_path)])
    assert code == 3    # theta_hat = pi/2 sits at the edge of the search
    result = json.loads((tmp_path / "estimate.json").read_text())["result"]
    assert abs(result["lambda_hat"]) < 1e-8
    assert result["theta_hat"] == pytest.approx(math.pi / 2, abs=1e-8)
    assert result["flags"] == ["boundary_maximum"]


def test_estimate_bernoulli_honours_theta_range(tmp_path, capsys):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "returns", "k": 8, "n": 10000, "n0": 3000})
    args = ["estimate", "--data", data, "--method", "bernoulli", "--outdir", str(tmp_path)]
    assert main(args + ["--theta-min", "1.2"]) == 0
    result = json.loads((tmp_path / "estimate.json").read_text())["result"]
    assert result["theta_hat"] == pytest.approx(1.2893297073281542, abs=1e-12)
    assert main(args + ["--theta-min", "0.1", "--theta-max", "0.2"]) == 3
    result = json.loads((tmp_path / "estimate.json").read_text())["result"]
    assert result["theta_hat"] is None and result["flags"] == ["flat_likelihood"]
    capsys.readouterr()
    assert main(args + ["--theta-min", "-0.5"]) == 2
    assert "reaches outside [0, pi/2]" in capsys.readouterr().err


def test_estimate_loop_reduces_positions_to_returns(tmp_path):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 2,
                          "positions": [0, 0, 0, 2, -2, 0]})
    code = main(["estimate", "--data", data, "--method", "loop",
                 "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "estimate.json").read_text())
    assert report["result"]["kind"] == "returns"
    # 4 of 6 trials returned: 1 - lam^2 = 2/3
    assert report["result"]["lambda_hat"] == pytest.approx(
        math.sqrt(1 / 3), abs=1e-8)


def test_estimate_loop_rejects_weighted_positions(tmp_path, capsys):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 4, "positions": [0, 2, -2, 4],
                          "weights": [100, 1, 1, 0]})
    assert main(["estimate", "--data", data, "--method", "loop",
                 "--outdir", str(tmp_path)]) == 2
    assert "needs unweighted position data" in capsys.readouterr().err
    assert not (tmp_path / "estimate.csv").exists()


def test_estimate_flagged_result_exits_three(tmp_path):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 2, "positions": [-2, -2, -2]})
    code = main(["estimate", "--data", data, "--outdir", str(tmp_path)])
    assert code == 3
    result = json.loads((tmp_path / "estimate.json").read_text())["result"]
    assert "boundary_maximum" in result["flags"]


def test_estimate_method_data_mismatch(tmp_path):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 2, "positions": [0, 2]})
    assert main(["estimate", "--data", data, "--method", "bernoulli",
                 "--outdir", str(tmp_path)]) == 2


def test_estimate_rejects_malformed_dataset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["estimate", "--data", str(bad), "--outdir", str(tmp_path)]) == 2
    assert "malformed dataset" in capsys.readouterr().err


def test_estimate_rejects_missing_dataset(tmp_path):
    assert main(["estimate", "--data", str(tmp_path / "nope.json"),
                 "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("obj", [
    {"kind": "returns", "k": 2.9, "n": 100.5, "n0": 36},
    {"kind": "positions", "k": True, "positions": [1, -1]},
    {"kind": "positions", "k": 4, "positions": [0, 2.0]},
])
def test_estimate_rejects_non_integer_dataset_fields(tmp_path, capsys, obj):
    data = write_dataset(tmp_path / "ds.json", obj)
    assert main(["estimate", "--data", data, "--outdir", str(tmp_path)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "estimate.csv").exists()


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "true", '"1"'])
def test_estimate_rejects_meaningless_weights(tmp_path, capsys, weight):
    # Python's json parses NaN and Infinity, so a dataset file can carry them
    data = tmp_path / "ds.json"
    data.write_text('{"kind": "positions", "k": 2, "positions": [0, 2], '
                    f'"weights": [{weight}, 1]}}', encoding="utf-8")
    assert main(["estimate", "--data", str(data), "--outdir", str(tmp_path)]) == 2
    assert "finite real numbers" in capsys.readouterr().err
    assert not (tmp_path / "estimate.csv").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_estimate_rejects_bad_refine_tolerance(tmp_path, capsys, tol):
    assert main(["estimate", "--generate", "--theta-star", "0.7", "--k", "4",
                 "--n", "50", "--seed", "1", f"--refine-tol={tol}",
                 "--outdir", str(tmp_path)]) == 2
    assert "refine tolerance" in capsys.readouterr().err


def test_estimate_generate_needs_truth_parameters(tmp_path):
    assert main(["estimate", "--generate", "--k", "4", "--n", "10",
                 "--seed", "1", "--outdir", str(tmp_path)]) == 2


# ---------------------------------------------------------------- likelihood

def test_likelihood_curve_report(tmp_path):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 4,
                          "positions": [0, 2, 0, -2, 0, 4]})
    assert main(["likelihood", "--data", data, "--grid", "121",
                 "--outdir", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "likelihood.csv")
    assert header == ["theta", "lambda", "loglik"]
    assert len(rows) == 121
    argmax = float(meta["argmax_theta"])
    assert 0.0 <= argmax <= math.pi / 2
    # the reported argmax is the best grid point
    best = max(rows, key=lambda r: float(r["loglik"]))
    assert float(best["theta"]) == pytest.approx(argmax, abs=1e-12)


# ---------------------------------------------------------------- level-set

def test_level_set_finds_symmetric_pair(tmp_path):
    assert main(["level-set", "--f", "0.64", "--k", "2",
                 "--outdir", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "level_set.csv")
    assert header == ["k", "f", "lam", "theta"]
    assert meta["count"] == "2"
    lams = sorted(float(r["lam"]) for r in rows)
    assert lams[0] == pytest.approx(-0.6, abs=1e-9)
    assert lams[1] == pytest.approx(0.6, abs=1e-9)
    for r in rows:
        assert float(r["theta"]) == pytest.approx(
            math.acos(float(r["lam"])), abs=1e-12)


def test_level_set_empty_result_is_success(tmp_path):
    assert main(["level-set", "--f", "0.9", "--k", "2",
                 "--branch-min", "0.4", "--branch-max", "1.0",
                 "--outdir", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "level_set.csv")
    assert meta["count"] == "0"
    assert rows == []


def test_level_set_rejects_bad_level(tmp_path):
    assert main(["level-set", "--f", "1.5", "--k", "2",
                 "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag, value", [("--residual-tol", "nan"),
                                         ("--residual-tol", "-1e-10"),
                                         ("--residual-tol", "inf"),
                                         ("--residual-tol", "1e-10"),
                                         ("--resolution", "2048")])
def test_level_set_rejects_bad_residual_tol(tmp_path, flag, value, capsys):
    # the solve bisects [0, 1] once: it has no branch-end tolerance and no
    # scan resolution, so either flag, with any value, is an unknown argument
    assert main(["level-set", "--f", "1", "--k", "4", flag, value,
                 "--outdir", str(tmp_path)]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ dependencies

def test_cli_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with its import blocked, the CLI
    still imports and both estimation protocols and level-set run."""
    script = f"""
import sys
sys.modules["scipy"] = None
from reluctant_walk.cli import main
common = ["--outdir", {str(tmp_path)!r}, "--seed", "5"]
codes = [
    main(["estimate", "--generate", "--method", "bernoulli", "--theta-star", "0.7",
          "--k", "8", "--n", "500"] + common),
    main(["estimate", "--generate", "--method", "positions", "--theta-star", "0.7",
          "--k", "8", "--n", "500"] + common),
    main(["level-set", "--f", "0.3", "--k", "8"] + common),
]
assert not any(m.split(".")[0] == "scipy" for m in sys.modules if sys.modules[m])
sys.exit(max(codes))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader that closes the pipe early (``| head -1``) ends the run
    without a traceback, after the artifacts are written."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "reluctant_walk", "estimate", "--generate",
         "--theta-star", "0.3", "--k", "4", "--n", "50", "--seed", "7",
         "--outdir", str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141
    assert (tmp_path / "estimate.csv").exists() and (tmp_path / "estimate.json").exists()


# ---------------------------------------------------------------- diffusion

def test_diffusion_both_modes(tmp_path):
    assert main(["diffusion", "--theta", "1.0471975511965976",
                 "--k-list", "16,32", "--outdir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "diffusion.csv")
    assert header == ["mode", "k", "sigma"]
    classical = {int(r["k"]): float(r["sigma"])
                 for r in rows if r["mode"] == "classical"}
    assert classical == {16: 4.0, 32: pytest.approx(math.sqrt(32))}
    quantum = {int(r["k"]): float(r["sigma"])
               for r in rows if r["mode"] == "quantum"}
    assert set(quantum) == {16, 32}
    assert quantum[32] > quantum[16]


def test_diffusion_rejects_bad_k_list(tmp_path):
    assert main(["diffusion", "--k-list", "a,b", "--outdir", str(tmp_path)]) == 2


# ---------------------------------------------------------------- databox

def test_databox_rows_and_flags(tmp_path):
    assert main(["databox", "--theta-star", "0.5", "--budget", "200",
                 "--allocations", "4:50,8:25,4:1", "--seed", "11",
                 "--outdir", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "databox.csv")
    assert header == ["k", "n", "theta_hat", "lambda_hat", "abs_error",
                      "loglik", "flags"]
    assert [(int(r["k"]), int(r["n"])) for r in rows] == [(4, 50), (8, 25), (4, 1)]
    assert "high_variance" in rows[2]["flags"]
    assert meta["seed"] == "11"


def test_databox_rejects_budget_overrun(tmp_path):
    assert main(["databox", "--theta-star", "0.5", "--budget", "10",
                 "--allocations", "20:6", "--seed", "1",
                 "--outdir", str(tmp_path)]) == 2


def test_databox_rejects_malformed_allocations(tmp_path):
    assert main(["databox", "--theta-star", "0.5", "--budget", "100",
                 "--allocations", "4x50", "--seed", "1",
                 "--outdir", str(tmp_path)]) == 2


# ---------------------------------------------------------------- figures

def test_figures_writes_all_grids(tmp_path):
    assert main(["figures", "--outdir", str(tmp_path)]) == 0
    for stem in ("fig1", "fig2a", "fig2b"):
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}.json").exists()

    _, header, rows = read_csv(tmp_path / "fig1.csv")
    assert header == ["lambda", "r", "p"]
    assert len(rows) == 201 * 101  # lambda grid x displacement rows at k=100

    _, header, rows = read_csv(tmp_path / "fig2a.csv")
    assert header == ["k", "lambda", "p"]
    ks = {int(r["k"]) for r in rows}
    assert ks == set(FIG2_KS)
    assert len(rows) == len(FIG2_KS) * 201


def test_figures_single_selection(tmp_path):
    assert main(["figures", "--which", "fig2b", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "fig2b.csv").exists()
    assert not (tmp_path / "fig1.csv").exists()


def test_figures_has_no_output_stem(tmp_path, capsys):
    assert main(["figures", "--which", "fig1", "--output", "mine",
                 "--outdir", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "--output" in capsys.readouterr().err


# ---------------------------------------------------------------- validate

def test_validate_passes_at_default_tolerance(capsys):
    assert main(["validate", "--max-k", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "convention sigma: detected -1, module constant -1" in out


def test_validate_fails_at_absurd_tolerance(capsys):
    assert main(["validate", "--max-k", "8", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_trivial_when_disabled(capsys):
    assert main(["validate", "--max-k", "0"]) == 0
    assert "max-k too small" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--output", "foo"], ["--outdir", "v"], ["--seed", "3"]])
def test_validate_has_no_artifact_or_seed_flags(tmp_path, capsys, flag):
    # validate writes nothing and draws nothing, so it takes none of the three
    if flag[0] == "--outdir":
        flag = ["--outdir", str(tmp_path / "v")]
    assert main(["validate", "--max-k", "2"] + flag) == 2
    assert list(tmp_path.iterdir()) == []
    assert flag[0] in capsys.readouterr().err


# ---------------------------------------------------------------- parser

_COMMANDS = ("pmf", "simulate", "likelihood", "estimate", "level-set", "diffusion",
             "databox", "figures", "validate")
_REQUIRED = ("pmf", "simulate", "likelihood", "estimate", "level-set", "databox")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--version"], ["pmff"], ["--version", "pmf"], ["--k", "3"],
    *([command, "--help"] for command in _COMMANDS),
    *([command, "--bogus"] for command in _COMMANDS),
    *([command] for command in _REQUIRED),
    ["pmf", "--k", "x", "--lambda", "0.5"],
    ["pmf", "--k", "3", "--lambda", "0.5", "--theta", "1"],
    ["estimate", "--method", "nope", "--generate"],
    ["figures", "--which", "fig3"],
    ["validate", "--max-k"],
], ids=repr)
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    # main builds only the named subcommand's arguments; what argparse prints
    # and its exit status stay those of the parser with every argument
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        want = (int(exc.code or 0),) + tuple(capsys.readouterr())
    assert (main(argv),) + tuple(capsys.readouterr()) == want


def test_every_option_has_help():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [(name, action.option_strings)
            for name, p in [("", parser), *sub.choices.items()] for action in p._actions
            if action.option_strings and not action.help]
    assert bare == []


# ------------------------------------------------------------- determinism

def test_identical_invocations_are_byte_identical(tmp_path):
    """Same arguments, same seed: every artifact matches byte for byte."""
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 4, "positions": [0, 2, -2, 0, 4]})
    invocations = [
        ["pmf", "--k", "12", "--lambda", "0.3"],
        ["simulate", "--k", "6", "--theta", "0.7"],
        ["likelihood", "--data", data, "--grid", "41"],
        ["estimate", "--generate", "--method", "positions",
         "--theta-star", "0.4", "--k", "8", "--n", "300", "--seed", "123"],
        ["level-set", "--f", "0.64", "--k", "4"],
        ["diffusion", "--k-list", "2,4,8"],
        ["databox", "--theta-star", "0.5", "--budget", "40",
         "--allocations", "4:10,8:5", "--seed", "11", "--grid", "61"],
        ["figures", "--which", "fig2a"],
    ]
    stems = ("pmf", "simulate", "likelihood", "estimate", "level_set", "diffusion",
             "databox", "fig2a")
    dirs = tmp_path / "a", tmp_path / "b"
    for args in invocations:
        for outdir in dirs:
            assert main(args + ["--outdir", str(outdir)]) == 0
    names = sorted(path.name for path in dirs[0].iterdir())
    assert names == sorted(stem + ext for stem in stems for ext in (".csv", ".json"))
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_reports_contain_no_timestamps(tmp_path):
    main(["pmf", "--k", "4", "--lambda", "0.2", "--outdir", str(tmp_path)])
    text = (tmp_path / "pmf.csv").read_text()
    assert "time" not in text.lower()
    assert "date" not in text.lower()
