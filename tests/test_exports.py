"""Every exported name resolves, so ``from mpturan import *`` cannot break,
and the package exports exactly what its modules export."""

import importlib
import pkgutil

import pytest

import mpturan

MODULES = ["mpturan"] + [
    f"mpturan.{info.name}" for info in pkgutil.iter_modules(mpturan.__path__)
]

# the command line is run, not imported as a library, so the package
# does not re-export it
LIBRARY_MODULES = [name for name in MODULES[1:] if name != "mpturan.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), name
    exports = module.__all__
    assert [export for export in exports if not hasattr(module, export)] == []
    assert len(set(exports)) == len(exports)


def test_package_exports_the_union_of_its_modules():
    union = [
        export
        for name in LIBRARY_MODULES
        for export in importlib.import_module(name).__all__
    ]
    assert sorted(mpturan.__all__) == sorted(union + ["__version__"])


def test_star_import():
    namespace = {}
    exec("from mpturan import *", namespace)
    assert set(mpturan.__all__) <= set(namespace)
