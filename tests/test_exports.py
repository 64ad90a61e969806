"""Every name a module lists in `__all__` exists, so a star import works,
and no module reaches into another's private names, by import or by
attribute."""

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
        tree = ast.parse(path.read_text())
        # the names that `from . import expr` and the like bind to modules
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "odeident":
                found += [f"{path.name}: {alias.name} from {module}"
                          for alias in node.names
                          if alias.name.startswith("_")]
                if module in (".", "odeident"):
                    modules |= {alias.asname or alias.name
                                for alias in node.names}
        found += [f"{path.name}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert found == []
