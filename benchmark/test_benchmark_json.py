"""BENCHMARK.json names exactly the workloads and metrics run.py produces."""

import json
import os

import run
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_import_breakdown_splits_numpy_and_scipy():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       2000 | site",
        "import time:      2000 |      90000 |     numpy",
        "import time:       100 |        100 |     json",
        "import time:      1000 |      50000 |       scipy",
        "import time:       500 |       5000 |       numpy.linalg",
        "import time:      3000 |     600000 |     scipy.optimize",
        "import time:      5000 |     770000 |   reluctant_walk",
        "import time:      1000 |     800000 | reluctant_walk.cli",
    ])
    parts = run.import_breakdown(stderr)
    assert parts["setup.numpy_import_s"] == 0.09
    assert parts["setup.scipy_import_s"] == 0.6
    assert abs(parts["setup.package_import_s"] - 0.11) < 1e-12
