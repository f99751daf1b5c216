"""The public surface: each name is declared once, in the module that defines it."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import numpy as np

import kgframes

# every module but the command-line driver exports its public API
MODULES = [importlib.import_module(f"kgframes.{info.name}")
           for info in pkgutil.iter_modules(kgframes.__path__) if info.name != "cli"]


def test_the_package_exports_exactly_its_public_attributes():
    public = sorted(name for name, value in vars(kgframes).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert kgframes.__all__ == public
    star: dict = {}
    exec("from kgframes import *", star)
    assert sorted(set(star) - {"__builtins__"}) == public
    # a name added or removed is a public API change
    assert len(public) == 79 and "svd_values" in public and "range_basis" not in public
    assert "FloatRangeError" in public
    # every module's list, repeats kept, equals the surface: no name has two owners
    assert kgframes.__all__ == sorted(name for module in MODULES for name in module.__all__)


def test_each_name_is_the_object_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(kgframes, name) is obj, name
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == module.__name__, name


def _quick_start() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_readme_quick_start_runs_on_the_exported_names():
    code = _quick_start()
    imported = [alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "kgframes"
                for alias in node.names]
    assert imported and set(imported) <= set(kgframes.__all__)
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    # the outcomes its comments state
    assert abs(ns["rep"].kg_lower_opt - 2.0) <= 1e-12 and ns["rep"].tight_kg
    assert ns["classify"](ns["ksys"]).label.value == "tight_kg_frame"
    assert np.linalg.norm(ns["f"] - ns["g"]) <= 1e-12 * np.linalg.norm(ns["f"])
    assert all(e <= b for e, b in zip(ns["trace"].errors, ns["trace"].predicted_bound))
