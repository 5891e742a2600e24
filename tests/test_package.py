import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import doalab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(doalab.__path__))


def test_submodules_found():
    assert {"arrays", "harness", "quantize", "spectral"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_import_as_gives_the_module(name):
    # ``import doalab.x as m`` reads the package attribute ``x``, which a
    # re-export of a same-named function would shadow
    scope = {}
    exec(f"import doalab.{name} as m", scope)
    assert isinstance(scope["m"], types.ModuleType)
    assert scope["m"] is importlib.import_module(f"doalab.{name}")


def _traced_functions():
    """(module, function) pairs the benchmark tracer wraps, read from the
    ``TRACED`` table of ``perfbench/spans.py`` without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [(mod, fn) for mod, fn, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no TRACED table in {path}")


def test_traced_functions_exist():
    # a rename here would leave a traced benchmark run without its spans
    missing = [f"doalab.{mod}.{fn}" for mod, fn in _traced_functions()
               if not callable(getattr(importlib.import_module(f"doalab.{mod}"),
                                       fn, None))]
    assert not missing
