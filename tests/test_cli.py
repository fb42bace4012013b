"""End-to-end tests of the command-line surface via main(argv).

Every command writes CSV + JSON into a temp directory; tests parse those
artifacts rather than scraping stdout, except where the contract is about
stdout itself (validate, seed echo, each command's summary line).
"""

import argparse
import inspect
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from reluctant_walk import cli as cli_module, estimation as estimation_module, pmf as pmf_module
from reluctant_walk.cli import FIG2_KS, _parser, _report, main
from reluctant_walk.estimation import level_set_solve, likelihood_curve, mle_estimate
from reluctant_walk.pmf import pmf_from_csv, pmf_from_json, pmf_full
from reluctant_walk.sampling import data_box_experiment

from oracles import csv_text_per_cell, mirror_text_by_encoder


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


@pytest.mark.parametrize("command", ["simulate", "pmf"])
def test_zero_steps_exit_two_with_one_line_and_write_nothing(tmp_path, capsys, monkeypatch,
                                                             command):
    # simulate checks k before the walk runs, as pmf does: no traceback
    # from r = d/k after a walk of zero steps
    def no_walk(*args):
        raise AssertionError("evolve ran")
    monkeypatch.setattr("reluctant_walk.cli.evolve", no_walk)
    assert main([command, "--k", "0", "--lambda", "0.5", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: step count k must be an integer >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


def _no_rows(*args):
    raise AssertionError("rows built")


@pytest.mark.parametrize("k", [sys.maxsize + 1, 2**64])
def test_a_step_count_past_sys_maxsize_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                    monkeypatch, k):
    # past a missing gate, k = sys.maxsize + 1 would run its rows for ever
    monkeypatch.setattr(pmf_module, "_iter_y_rows", _no_rows)
    assert main(["pmf", "--k", str(k), "--lambda", "0.5", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: step count k must be at most sys.maxsize = {sys.maxsize}, got {k}\n")
    assert list(tmp_path.iterdir()) == []


def _no_coefficients(k):
    raise AssertionError("coefficients built")


@pytest.mark.parametrize("k", [sys.maxsize + 1, 2**64])
def test_a_return_step_count_past_sys_maxsize_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                           monkeypatch, k):
    # past a missing gate, level-set and a return-count estimate would build
    # k / 2 coefficients before any check
    monkeypatch.setattr(estimation_module, "_return_poly", _no_coefficients)
    data = write_dataset(tmp_path / "returns.json", {"kind": "returns", "k": k, "n": 2, "n0": 1})
    out = tmp_path / "out"
    for argv in (["level-set", "--f", "0.5", "--k", str(k)],
                 ["estimate", "--data", data, "--method", "bernoulli"]):
        assert main(argv + ["--outdir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: step count k must be at most sys.maxsize = {sys.maxsize}, got {k}\n")
    assert list(out.iterdir()) == []


def test_pmf_tabulates_the_lambda_given(tmp_path):
    """--lambda 0.5 gives the table at 0.5, not at cos(acos(0.5)) =
    0.49999999999999989: the stamp and the lambda column read 0.5, the rows
    are pmf_full(30, 0.5)'s bit for bit, its two exact ties included, and
    theta stays acos(0.5)."""
    assert math.cos(math.acos(0.5)) != 0.5
    assert main(["pmf", "--k", "30", "--lambda", "0.5", "--outdir", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "pmf.csv")
    assert (meta["lambda"], meta["theta"]) == ("0.5", "1.0471975511965979")
    assert {row["lambda"] for row in rows} == {"0.5"}
    assert {int(row["d"]): float(row["p"]) for row in rows} == pmf_full(30, 0.5).table


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


@pytest.mark.parametrize("start", [2**63 - 4, -2**63 + 2])
def test_simulate_past_the_int64_sites_exits_two_and_writes_nothing(tmp_path, capsys, start):
    # three steps reach start - 3 .. start + 3; the window stops at start + 4
    assert main(["simulate", "--k", "3", "--theta", "0.7", f"--start={start}",
                 "--outdir", str(tmp_path)]) == 2
    first, stop = start - 3, start + 4
    assert capsys.readouterr().err == (
        f"error: walk sites {first} to {stop} leave the int64 range\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("start", [2**63 - 5, -2**63 + 3])
def test_simulate_next_to_the_int64_sites_writes_every_site(tmp_path, start):
    assert main(["simulate", "--k", "3", "--theta", "0.7", f"--start={start}",
                 "--outdir", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "simulate.csv")
    assert meta["start"] == str(start)
    assert [int(r["d"]) for r in rows] == list(range(start - 3, start + 4))
    assert math.fsum(float(r["p"]) for r in rows) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- estimate

@pytest.mark.parametrize("seed", ["abc", [1, 2], -1, 1.5, True])
def test_estimate_rejects_a_dataset_seed_that_is_not_a_nonnegative_int(
        tmp_path, capsys, seed):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 2, "positions": [0, 2], "seed": seed})
    assert main(["estimate", "--data", data, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: seed must be an integer >= 0, got {seed!r}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ds.json"]


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


@pytest.mark.parametrize("argv", [
    ["estimate", "--generate", "--theta-star", "0.3"],
    ["databox", "--theta-star", "0.5", "--budget", "400", "--allocations", "x"],
    ["databox", "--theta-star=inf", "--budget", "100", "--allocations", "4:25"],
    ["databox", "--theta-star", "0.5", "--budget", "100", "--allocations", "4:26"],
    ["estimate", "--generate", "--method", "bernoulli", "--k", "3", "--theta-star", "0.5",
     "--n", "10"],
    ["estimate", "--generate", "--theta-star=inf", "--k", "4", "--n", "10"],
    ["estimate", "--generate", "--theta-star", "0.3", "--k", "4", "--n", "10", "--grid", "2"],
])
def test_rejected_arguments_draw_no_seed(tmp_path, capsys, argv):
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    assert "drew" not in capsys.readouterr().out


@pytest.mark.parametrize("method", ["positions", "bernoulli"])
@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_estimate_generate_rejects_a_non_finite_theta_star(tmp_path, capsys, theta, method):
    assert main(["estimate", "--generate", f"--theta-star={theta}", "--method", method,
                 "--k", "4", "--n", "10", "--seed", "1", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: theta_star must be finite, got {theta}\n"
    assert not list(tmp_path.iterdir())


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


def test_estimate_loop_reads_whole_number_weights_as_counts(tmp_path):
    """n is the total count and n0 the count at d = 0, so whole-number
    weights write the same bytes as the repeated draws."""
    outputs = []
    for name, obj in (("draws", {"positions": [0, 0, 0, 2, -2, 0, 2], "seed": 4}),
                      ("weights", {"positions": [2, 0, -2], "weights": [2, 4, 1],
                                   "seed": 4})):
        data = write_dataset(tmp_path / f"{name}.json", {"kind": "positions", "k": 2, **obj})
        outdir = tmp_path / name
        assert main(["estimate", "--data", data, "--method", "loop",
                     "--outdir", str(outdir)]) == 0
        outputs.append([(outdir / f"estimate.{ext}").read_bytes() for ext in ("csv", "json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["dataset"]["trials"] == 7


def test_estimate_loop_rejects_weighted_positions(tmp_path, capsys):
    """The loop reads n and n0 off the counts, so a weight that is not a
    whole number exits 2; whole-number weights are counts like any other."""
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 4, "positions": [0, 2, -2, 4],
                          "weights": [100, 1, 0.5, 0]})
    assert main(["estimate", "--data", data, "--method", "loop",
                 "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: --method loop needs whole-number counts as weights\n")
    assert not (tmp_path / "estimate.csv").exists()


def test_estimate_flagged_result_exits_three(tmp_path):
    data = write_dataset(tmp_path / "ds.json",
                         {"kind": "positions", "k": 2, "positions": [-2, -2, -2]})
    code = main(["estimate", "--data", data, "--outdir", str(tmp_path)])
    assert code == 3
    result = json.loads((tmp_path / "estimate.json").read_text())["result"]
    assert "boundary_maximum" in result["flags"]


def test_estimate_method_data_mismatch(tmp_path, capsys):
    positions = write_dataset(tmp_path / "positions.json",
                              {"kind": "positions", "k": 2, "positions": [0, 2]})
    returns = write_dataset(tmp_path / "returns.json",
                            {"kind": "returns", "k": 2, "n0": 1, "n": 2})
    for data, method, needs in ((positions, "bernoulli", "return-count data"),
                                (returns, "loop", "position data"),
                                (returns, "positions", "position data")):
        assert main(["estimate", "--data", data, "--method", method,
                     "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --method {method} needs {needs}\n"
    assert not (tmp_path / "estimate.csv").exists()


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


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--data", "{dir}"], "Is a directory"),
    (["pmf", "--k", "3", "--lambda", "0.5", "--outdir", "{file}"], "File exists"),
    (["validate", "--max-k", "-3"], "--max-k must be an integer >= 0, got -3"),
])
def test_unreadable_input_unwritable_output_and_negative_max_k_exit_2(
        tmp_path, capsys, argv, message):
    """An input that cannot be read, an output directory that is a file and
    a negative --max-k are input errors: status 2 and one ``error:`` line."""
    (tmp_path / "file").write_text("")
    argv = [arg.format(dir=tmp_path, file=tmp_path / "file") for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err


def test_unwritable_outdir_stops_the_run_before_any_work(tmp_path, capsys, monkeypatch):
    """The output directory is made before the command computes: a k = 500
    table aimed at a regular file exits 2 without building the table."""
    def no_table(*args, **kwargs):
        raise AssertionError("pmf_full ran before the output directory was made")

    monkeypatch.setattr("reluctant_walk.cli.pmf_full", no_table)
    (tmp_path / "file").write_text("")
    assert main(["pmf", "--k", "500", "--lambda", "0.6",
                 "--outdir", str(tmp_path / "file")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "File exists" in err


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


@pytest.mark.parametrize("mode", ["classical", "quantum", "both"])
@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_diffusion_rejects_a_non_finite_theta(tmp_path, capsys, theta, mode):
    assert main(["diffusion", f"--theta={theta}", "--mode", mode,
                 "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: theta must be finite, got {theta}\n"
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_databox_rejects_a_non_finite_theta_star(tmp_path, capsys, theta):
    assert main(["databox", f"--theta-star={theta}", "--budget", "100",
                 "--allocations", "4:25", "--seed", "1", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: theta_star must be finite, got {theta}\n"
    assert not list(tmp_path.iterdir())


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


# ---------------------------------------------------------------- stdout

SUMMARIES = [
    (["pmf", "--k", "4", "--lambda", "0.6"],
     "pmf: k=4 lambda=0.59999999999999998 (5 rows) -> {out}/pmf.csv, {out}/pmf.json\n"),
    (["simulate", "--k", "12", "--theta", "0.9"],
     "simulate: k=12 start=0 (25 rows) -> {out}/simulate.csv, {out}/simulate.json\n"),
    (["likelihood", "--data", "{out}/ds.json", "--grid", "101", "--output", "curve"],
     "likelihood: k=8 grid=101 argmax=1.2880529879718152 -> {out}/curve.csv, "
     "{out}/curve.json\n"),
    (["estimate", "--data", "{out}/ds.json", "--method", "bernoulli"],
     "estimate: method=bernoulli k=8 n=1000 theta_hat=1.2946895805966521 "
     "lambda_hat=0.27261193086007296 flags=[]\n"
     "  -> {out}/estimate.csv, {out}/estimate.json\n"),
    (["level-set", "--f", "0.64", "--k", "2"],
     "level-set: k=2 f=0.64000000000000001 -> 2 root(s) -> {out}/level_set.csv, "
     "{out}/level_set.json\n"),
    (["diffusion", "--mode", "quantum", "--k-list", "4,8"],
     "diffusion: theta=1.0471975511965976 modes=['quantum'] -> {out}/diffusion.csv, "
     "{out}/diffusion.json\n"),
    (["databox", "--theta-star", "0.5", "--budget", "4000",
      "--allocations", "2:2000,20:200", "--seed", "5"],
     "databox: theta_star=0.5 budget=4000 (2 allocations) -> {out}/databox.csv, "
     "{out}/databox.json\n"),
    (["figures", "--which", "all"],
     "figures: wrote {out}/fig1.csv, {out}/fig1.json, {out}/fig2a.csv, {out}/fig2a.json, "
     "{out}/fig2b.csv, {out}/fig2b.json\n"),
]


@pytest.mark.parametrize("argv, stdout", SUMMARIES, ids=[argv[0] for argv, _ in SUMMARIES])
def test_data_command_prints_its_summary_and_paths(tmp_path, capsys, argv, stdout):
    write_dataset(tmp_path / "ds.json", {"kind": "returns", "k": 8, "n0": 312, "n": 1000})
    argv = [arg.format(out=tmp_path) for arg in argv]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == stdout.format(out=tmp_path)


# ---------------------------------------------------------------- validate

_VALIDATE_CHECKS = ["analytic pmf vs state-vector oracle (reflected axis)",
                    "pmf normalization", "Kraus channel vs direct evolution"]


def test_validate_passes_at_default_tolerance(capsys):
    assert main(["validate", "--max-k", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"PASS  {name}" for name in _VALIDATE_CHECKS]


def test_validate_fails_at_absurd_tolerance(capsys):
    assert main(["validate", "--max-k", "8", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_trivial_when_disabled(capsys):
    assert main(["validate", "--max-k", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"PASS  {name}: worst residual 0.000e+00 (tolerance 1e-09)" for name in _VALIDATE_CHECKS]


def test_validate_fails_the_oracle_check_under_a_wrong_axis_convention(monkeypatch, capsys):
    """The first check reads the simulator at CONVENTION_SIGMA * d, so a
    wrong constant fails it and the run exits 1."""
    monkeypatch.setattr(cli_module, "CONVENTION_SIGMA", 1)
    assert main(["validate", "--max-k", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"FAIL  {_VALIDATE_CHECKS[0]}:")
    assert [line.split(":")[0] for line in lines[1:]] == [
        f"PASS  {name}" for name in _VALIDATE_CHECKS[1:]]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_validate_rejects_a_meaningless_tolerance_before_any_check(monkeypatch, capsys, tol):
    """--tol takes the rule --refine-tol does, finite and >= 0; another
    value exits 2 before a check runs."""
    def no_checks(max_k):
        raise AssertionError("a check ran under a meaningless tolerance")
    monkeypatch.setattr("reluctant_walk.cli._validation_checks", no_checks)
    assert main(["validate", "--max-k", "2", "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --tol must be finite and >= 0, got {float(tol)}\n"


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
        _parser(None).parse_args(argv)
    except SystemExit as exc:
        want = (int(exc.code or 0),) + tuple(capsys.readouterr())
    assert (main(argv),) + tuple(capsys.readouterr()) == want


_FLOAT_FLAGS = [
    (["pmf", "--k", "4", "--lambda"], "lam"),
    (["pmf", "--k", "4", "--theta"], "theta"),
    (["simulate", "--k", "4", "--lambda"], "lam"),
    (["likelihood", "--data", "ds.json", "--theta-min"], "theta_min"),
    (["likelihood", "--data", "ds.json", "--theta-max"], "theta_max"),
    (["estimate", "--generate", "--theta-min"], "theta_min"),
    (["estimate", "--generate", "--theta-max"], "theta_max"),
    (["estimate", "--generate", "--theta-star"], "theta_star"),
    (["level-set", "--f", "0.3", "--k", "8", "--branch-min"], "branch_min"),
    (["level-set", "--f", "0.3", "--k", "8", "--branch-max"], "branch_max"),
    (["databox", "--budget", "1", "--allocations", "1:1", "--theta-star"], "theta_star"),
]


@pytest.mark.parametrize("argv, dest", _FLOAT_FLAGS,
                         ids=[f"{argv[0]} {argv[-1]}" for argv, _ in _FLOAT_FLAGS])
@pytest.mark.parametrize("value", ["-1e-3", "-1.0000000000000001e-05", "-2E+2", "-.5e1",
                                   "-0.001", "-3", "-inf", "-NaN"])
def test_a_negative_float_is_a_flag_value(argv, dest, value):
    """Every float flag takes a negative value in any form float() reads,
    exponent notation (what the CLI prints at %.17g) and -inf/-nan included."""
    got = getattr(_parser(argv[0]).parse_args(argv + [value]), dest)
    assert got == float(value) or (math.isnan(got) and math.isnan(float(value)))


def test_a_negative_exponent_value_reaches_the_command(tmp_path, capsys):
    """``--lambda -1e-3`` runs the table; ``--lambda -inf`` reaches the
    package's own check of lambda, not argparse's."""
    assert main(["pmf", "--k", "4", "--lambda", "-1e-3", "--outdir", str(tmp_path)]) == 0
    assert "lambda=-0.001" in capsys.readouterr().out
    assert main(["pmf", "--k", "4", "--lambda", "-inf", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: lam must be finite with |lam| <= 1, got -inf\n"


def test_every_option_has_help():
    parser = _parser(None)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [(name, action.option_strings)
            for name, p in [("", parser), *sub.choices.items()] for action in p._actions
            if action.option_strings and not action.help]
    assert bare == []


def test_cli_defaults_are_the_library_defaults():
    """Each default the parser restates is the one the library function it
    feeds declares."""
    parser = _parser(None)
    likelihood = parser.parse_args(["likelihood", "--data", "ds.json"])
    estimate = parser.parse_args(["estimate", "--generate"])
    databox = parser.parse_args(["databox", "--theta-star", "0.5", "--budget", "1",
                                 "--allocations", "1:1"])
    level_set = parser.parse_args(["level-set", "--f", "0.5", "--k", "2"])

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    assert likelihood.grid == default(likelihood_curve, "grid_size") == 601
    assert estimate.grid == default(mle_estimate, "grid_size") == 601
    assert databox.grid == default(data_box_experiment, "grid_size") == 601
    for args, function in ((likelihood, likelihood_curve), (estimate, mle_estimate)):
        assert (args.theta_min, args.theta_max) == default(function, "theta_range")
    assert estimate.refine_tol == default(mle_estimate, "refine_tolerance")
    assert (level_set.branch_min, level_set.branch_max) == default(level_set_solve, "branch")


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


def test_numpy_int_arguments_give_the_artifacts_of_the_command_line(tmp_path):
    """A parsed Namespace whose counts, seed or budget are numpy ints stamps
    the checked Python ints, so both files are written, byte for byte as
    from main."""
    cases = [(["pmf", "--k", "3", "--lambda", "0.6"], {"k": np.int64(3)}),
             (["simulate", "--k", "3", "--theta", "0.7", "--start", "1"],
              {"k": np.int64(3), "start": np.int64(1)}),
             (["level-set", "--f", "0.5", "--k", "4"], {"k": np.int64(4)}),
             (["pmf", "--k", "2", "--lambda", "0.6", "--seed", "4", "--output", "seeded"],
              {"seed": np.int64(4)}),
             (["databox", "--theta-star", "0.7", "--budget", "40", "--allocations", "2:10,4:5",
               "--grid", "31", "--seed", "1"], {"budget": np.int64(40)})]
    plain, numpy = tmp_path / "plain", tmp_path / "numpy"
    numpy.mkdir()
    for argv, values in cases:
        assert main(argv + ["--outdir", str(plain)]) == 0
        args = _parser(None).parse_args(argv + ["--outdir", str(numpy)])
        vars(args).update(values)
        assert args.func(args) == 0
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in numpy.iterdir())
    assert len(names) == 10
    for name in names:
        assert (plain / name).read_bytes() == (numpy / name).read_bytes(), name


def test_a_report_whose_json_fails_to_render_writes_neither_file(tmp_path):
    args = argparse.Namespace(command="pmf", output=None, seed=None, outdir=str(tmp_path))
    with pytest.raises(TypeError, match="not JSON serializable"):
        _report(args, {"x": [1]}, {"stamp": object()}, None)
    assert list(tmp_path.iterdir()) == []


# DATA is a positions file whose log-likelihood is -inf at theta = 0
# (p(6; 6, 1) = 0), RETURNS a return-count file at k = 24
@pytest.mark.parametrize("argv", [
    "pmf --k 30 --lambda 0.6",
    "pmf --k 48 --lambda 0.3 --fast",
    "simulate --k 1000 --theta 0.7 --start 3",
    "likelihood --data DATA --grid 101",
    "likelihood --data RETURNS",
    "level-set --f 0.3 --k 8",
    "level-set --f 0.9 --k 2 --branch-min 0.4",
    "diffusion --k-list 4,9",
    "databox --theta-star 0.5 --budget 400 --allocations 2:200,20:20 --seed 11",
    "figures --which fig2a",
    "estimate --data DATA",
    "estimate --data RETURNS --method bernoulli",
])
def test_artifacts_equal_the_per_cell_writers_on_the_same_rows(tmp_path, monkeypatch, argv):
    """Every table artifact is the text the per-cell writers give for the
    rows the command passed (estimate's JSON is its ``json_obj``, not a table)."""
    expected = []

    def recording(writer, oracle):
        def render(meta, columns):
            names = list(columns)
            expected.append(oracle(meta, names, [dict(zip(names, row))
                                                 for row in zip(*columns.values())]))
            return writer(meta, columns)
        return render

    monkeypatch.setattr(cli_module, "_csv_text", recording(cli_module._csv_text, csv_text_per_cell))
    monkeypatch.setattr(cli_module, "_mirror_text",
                        recording(cli_module._mirror_text, mirror_text_by_encoder))
    data = write_dataset(tmp_path / "data.json", {"kind": "positions", "k": 6,
                                                  "positions": [-6, -4, 6, 6, 2]})
    returns = write_dataset(tmp_path / "returns.json",
                            {"kind": "returns", "k": 24, "n": 10000, "n0": 314})
    out = tmp_path / "out"
    argv = shlex.split(argv.replace("RETURNS", returns).replace("DATA", data))
    assert main(argv + ["--outdir", str(out)]) == 0
    written = [path.read_text(encoding="utf-8") for path in sorted(out.iterdir())
               if not (argv[0] == "estimate" and path.suffix == ".json")]
    assert len(written) >= 1 and written == expected


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_take_the_mode_of_a_plain_write(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert main(["pmf", "--k", "2", "--lambda", "0.6", "--outdir", str(tmp_path)]) == 0
        with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in tmp_path.iterdir()}
    assert modes == {"pmf.csv": mode, "pmf.json": mode, "plain.txt": mode}


def test_reports_contain_no_timestamps(tmp_path):
    main(["pmf", "--k", "4", "--lambda", "0.2", "--outdir", str(tmp_path)])
    text = (tmp_path / "pmf.csv").read_text()
    assert "time" not in text.lower()
    assert "date" not in text.lower()


# -------------------------------------------------------------- exact rows

def test_cli_tables_run_the_integer_rows_only_in_the_fallback(tmp_path, monkeypatch, capsys):
    """Every CLI table of a float lambda comes from the fixed-point rows:
    each pass of the exact integer Y rows (object entries, ``bits`` 0)
    that these runs make runs inside ``pmf._exact_entries``, the fallback
    for an entry the fixed-point bracket cannot round.  The runs are the
    README sessions, a large and a tied pmf, figures, estimate --generate
    with both methods, databox and validate; only the tie at lambda = 0.5,
    k = 30 (d = +-4) falls back, in one call."""
    from test_readme import SESSIONS
    iter_y_rows, exact_entries = pmf_module._iter_y_rows, pmf_module._exact_entries
    inside, passes, fallbacks = [False], [], []

    def traced_rows(a, b, edge=math.inf, order=0, bits=0):
        rows = iter_y_rows(a, b, edge, order, bits)
        first = next(rows)
        if first[0].dtype == object and not bits:
            passes.append((argv, inside[0]))
        yield first
        yield from rows

    def traced_entries(*args):
        fallbacks.append((argv, args[:3], list(args[3])))
        inside[0] = True
        try:
            return exact_entries(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(pmf_module, "_iter_y_rows", traced_rows)
    monkeypatch.setattr(pmf_module, "_exact_entries", traced_entries)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELUCTANT_WALK_OUTDIR", raising=False)
    generate = ["estimate", "--generate", "--theta-star", "0.3", "--k", "20", "--n", "1000",
                "--seed", "7", "--output", "generated"]
    runs = [shlex.split(command.partition(" && ")[0])[1:] for command, _ in SESSIONS] + [
        ["pmf", "--k", "150", "--lambda", repr(math.cos(0.7))],
        ["pmf", "--k", "30", "--lambda", "0.5"],
        ["figures"],
        generate + ["--method", "positions"],
        generate + ["--method", "bernoulli"],
        ["databox", "--theta-star", "0.5", "--budget", "4000", "--allocations", "2:2000,20:200",
         "--seed", "5"],
        ["validate", "--max-k", "12"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    tie = ["pmf", "--k", "30", "--lambda", "0.5"]
    assert passes == [(tie, True)]
    assert fallbacks == [(tie, (30, 1, 2), [-4, 4])]
