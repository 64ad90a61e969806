"""Every name a module lists in `__all__` exists, so a star import works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["expr", "model", "ranktest", "transform",
                                    "sim"])
def test_every_exported_name_resolves(module):
    m = importlib.import_module(f"odeident.{module}")
    assert [n for n in m.__all__ if not hasattr(m, n)] == []
    namespace = {}
    exec(f"from odeident.{module} import *", namespace)
    assert set(m.__all__) <= namespace.keys()
