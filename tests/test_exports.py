"""Every name a module lists in `__all__` exists, so a star import works,
the package lists and resolves the names it re-exports, whether its
module loaded with the package or loads on first access, `expr` resolves
the names of the modules built on it, and no module reaches into
another's private names, by import or by attribute."""

import ast
import importlib
from pathlib import Path

import pytest

import odeident


@pytest.mark.parametrize("module", ["expr", "canonical", "program", "model",
                                    "ranktest", "transform", "sim"])
def test_every_exported_name_resolves(module):
    m = importlib.import_module(f"odeident.{module}")
    assert [n for n in m.__all__ if not hasattr(m, n)] == []
    namespace = {}
    exec(f"from odeident.{module} import *", namespace)
    assert set(m.__all__) <= namespace.keys()


# the private names of exact algebra and the evaluator that the benchmark
# reads through `expr`; tests read the others from their home modules
_THROUGH_EXPR = {"canonical": [], "program": ["_OP_MUL"]}


def test_expr_resolves_each_name_to_its_module_s_object():
    expr = importlib.import_module("odeident.expr")
    for home, private in _THROUGH_EXPR.items():
        module = importlib.import_module(f"odeident.{home}")
        names = [*module.__all__, *private]
        assert set(module.__all__) <= set(expr.__all__)
        assert set(names) <= set(dir(expr))
        assert [n for n in names
                if getattr(expr, n) is not getattr(module, n)] == []
    # a name outside the table is not there to patch, the private names
    # that tests read from the home modules included
    for name in ("_emit", "_MAX_PRODUCT_TERMS", "_LAZY_BITS", "_PIECE_CHARS",
                 "_as_residue"):
        with pytest.raises(AttributeError,
                           match=f"has no attribute '{name}'"):
            getattr(expr, name)


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


# the public names `dir(odeident)` listed while every module but the
# simulator was imported with the package
_PACKAGE_NAMES = [
    "CORRECTED", "DEFAULT_PRIMES", "DenominatorIdenticallyZero",
    "DivisionByZero", "DuplicateDeclaration", "ExhaustedRetries", "ExprError",
    "Expression", "ExpressionTooLarge", "HIV_MODEL_TEXT", "IdentityCheck",
    "MIAO_AS_PRINTED", "MissingOdeForState", "MixedModeSymbols", "OdeModel",
    "OutputJet", "PARAM_ORDER", "Params", "ParseError", "PrimeDisagreement",
    "RankReport", "RationalCanonical", "SingularPoint", "SingularTau",
    "Symbol", "SymbolTable", "TauFamily", "UnboundSymbol", "UndeclaredSymbol",
    "add", "admissible_tau_interval", "build_phi", "build_phi_system",
    "const", "derivative_chain", "differentiate", "div", "eta_prime_value",
    "evaluate", "expr", "free_symbols", "generic_rank", "hiv_model", "model",
    "mul", "neg", "normalize", "output_jet", "output_symbol",
    "parameter_jacobian", "parse_expression", "parse_model", "partials",
    "phi_vanishes_on_dynamics", "pow_", "print_model", "ranktest",
    "run_rank_test", "sub", "substitute_dynamics", "sym", "to_text",
    "total_time_derivative", "transform", "transform_params",
    "transform_state", "verify_identities",
]


def test_the_package_lists_its_names_and_star_imports_them():
    assert len(_PACKAGE_NAMES) == 67
    assert [n for n in dir(odeident) if not n.startswith("_")] \
        == _PACKAGE_NAMES
    assert odeident.__all__ == _PACKAGE_NAMES
    namespace = {}
    exec("from odeident import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(_PACKAGE_NAMES)


def test_each_package_name_is_its_module_s_object():
    modules = {m: importlib.import_module(f"odeident.{m}")
               for m in ("expr", "model", "ranktest", "transform")}
    homes = {name: [m for m in modules.values() if name in m.__all__]
             for name in _PACKAGE_NAMES if name not in modules}
    assert [n for n, found in homes.items() if len(found) != 1] == []
    assert [n for n, (home,) in homes.items()
            if getattr(odeident, n) is not getattr(home, n)] == []
    assert all(getattr(odeident, m) is modules[m] for m in modules)
