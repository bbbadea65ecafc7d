import doctest
import importlib
import pkgutil

import pytest

import floerforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(floerforge.__path__))
# Modules whose examples must not silently disappear.
DOCUMENTED = {"fualgebra", "surgery"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    results = doctest.testmod(importlib.import_module(f"floerforge.{name}"))
    assert results.failed == 0
    assert results.attempted > 0 or name not in DOCUMENTED
