"""The public names resolve, and none of them is a test-only cross-check route."""

import ast
import importlib
from pathlib import Path

import oracles
import reluctant_walk

MODULES = ["chebyshev", "estimation", "pmf", "sampling", "walk"]


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
    assert "y_poly" in defined
    assert not defined & exported
    assert not [name for name in defined if hasattr(reluctant_walk, name)]
