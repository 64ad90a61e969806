"""Every name a module lists in `__all__` exists, so a star import works,
and no module reaches into another's private names."""

import ast
import importlib
from pathlib import Path

import pytest

import odeident


@pytest.mark.parametrize("module", ["expr", "model", "ranktest", "transform",
                                    "sim"])
def test_every_exported_name_resolves(module):
    m = importlib.import_module(f"odeident.{module}")
    assert [n for n in m.__all__ if not hasattr(m, n)] == []
    namespace = {}
    exec(f"from odeident.{module} import *", namespace)
    assert set(m.__all__) <= namespace.keys()


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(Path(odeident.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "odeident":
                found += [f"{path.name}: {alias.name} from {module}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
