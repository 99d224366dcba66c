"""Every exported name resolves, so ``from mpturan import *`` cannot break."""

import importlib
import pkgutil

import pytest

import mpturan

MODULES = ["mpturan"] + [
    f"mpturan.{info.name}" for info in pkgutil.iter_modules(mpturan.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert [export for export in exports if not hasattr(module, export)] == []
    assert len(set(exports)) == len(exports)


def test_star_import():
    namespace = {}
    exec("from mpturan import *", namespace)
    assert set(mpturan.__all__) <= set(namespace)
