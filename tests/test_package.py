import importlib
import pkgutil
import types

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
