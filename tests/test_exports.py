"""The public surface is pinned and its names resolve, none of them is a
test-only cross-check route, removed names stay removed, and no module
keeps an unused import or an unreferenced private name."""

import ast
import importlib
from pathlib import Path

import pytest

import oracles
import reluctant_walk

MODULES = ["chebyshev", "estimation", "pmf", "sampling", "walk"]


# the public surface; a change to it edits this list
PUBLIC = [
    "CONVENTION_SIGMA", "CoinParameter", "EstimateResult", "LikelihoodCurve", "Pmf",
    "TrialDataset", "WalkState", "channel_position_pmf", "data_box_experiment",
    "dataset_from_json", "dataset_to_json", "diffusion_experiment", "evolve", "fresh_seed",
    "kraus_kernels", "level_set_solve", "likelihood_curve", "log_likelihood", "mle_estimate",
    "pmf_from_csv", "pmf_from_json", "pmf_full", "pmf_point", "pmf_to_csv", "pmf_to_json",
    "position_pmf", "sample_positions", "sample_return_trials", "trial_generator",
]


def test_public_surface_is_pinned():
    assert reluctant_walk.__all__ == PUBLIC


@pytest.mark.parametrize("name", [
    "return_probability_kraus", "coin_matrix", "step", "displacement_likelihood",
    "bernoulli_return_log_likelihood", "reluctance_profile", "chebyshev_u",
    "chebyshev_identity_suite", "_derivative_identity_sum", "kernel_matrix", "kernel_power",
    "iter_pmf_full"])
def test_removed_names_do_not_resolve(name):
    for module in [reluctant_walk] + [importlib.import_module(f"reluctant_walk.{m}")
                                      for m in MODULES]:
        assert not hasattr(module, name), (module.__name__, name)


def test_every_exported_name_resolves():
    for module in [reluctant_walk] + [importlib.import_module(f"reluctant_walk.{name}")
                                      for name in MODULES]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_exports_the_union_of_the_module_exports():
    names = [name for module in MODULES
             for name in importlib.import_module(f"reluctant_walk.{module}").__all__]
    assert len(reluctant_walk.__all__) == len(set(reluctant_walk.__all__))
    assert set(reluctant_walk.__all__) == set(names)


def test_package_exports_no_oracle():
    tree = ast.parse(Path(oracles.__file__).read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    exported = set(reluctant_walk.__all__).union(
        *(importlib.import_module(f"reluctant_walk.{name}").__all__ for name in MODULES))
    assert {"y_poly", "return_probability_kraus"} <= defined
    assert not defined & exported
    assert not [name for name in defined if hasattr(reluctant_walk, name)]


SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(reluctant_walk.__file__).parent.glob("*.py"))}


def _exported(tree) -> set[str]:
    """The names of a literal module-level ``__all__`` list."""
    return {element.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if getattr(target, "id", None) == "__all__"
            if isinstance(node.value, ast.List) for element in node.value.elts}


def _loaded(tree) -> set[str]:
    """Every name a module reads: names loaded, attributes and names imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_a_name_it_never_uses():
    for module, tree in SOURCES.items():
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names if alias.name != "*"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - _exported(tree)
        assert not unused, (module, unused)


def test_every_module_level_private_name_is_referenced():
    referenced = set().union(*map(_loaded, SOURCES.values()))
    for module, tree in SOURCES.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        unreferenced = {name for name in defined - referenced
                        if name.startswith("_") and not name.startswith("__")}
        assert not unreferenced, (module, unreferenced)
