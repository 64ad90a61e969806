"""Symbolic-numeric structural identifiability toolkit.

Exact rational expressions, an ODE-model text format with a bundled HIV
within-host model, a parameter-identifiability rank test (naive versus
dynamics-constrained), a tau-indexed indistinguishability transformation
with symbolic verification, and a numerical indistinguishability
experiment.

Importing the package loads `odeident.expr` and `odeident.model` only,
which is all that parsing a model needs. Every other name, the modules
`ranktest`, `transform` and `sim` among them, is resolved on first access
through `_LAZY`, which is when its module is imported: `normalize`,
`RationalCanonical` and `evaluate` load `odeident.canonical` or
`odeident.program` through `odeident.expr`, the rank-test names
(`run_rank_test`, `CORRECTED`, ...) load `odeident.ranktest`, the
transformation names (`Params`, `verify_identities`, ...) load
`odeident.transform`, and the simulator names (`EtaSignal`, `SimConfig`,
`run_indistinguishability`, `tau_sweep`, ...) load `odeident.sim` and with
it numpy. `from odeident import *` binds the names of `__all__`, which
leaves out the simulator's, so that it never loads numpy.
"""

from importlib import import_module as _import_module

from .expr import (
    DenominatorIdenticallyZero, DivisionByZero, DuplicateDeclaration,
    Expression, ExpressionTooLarge, ExprError, ParseError,
    Symbol, SymbolTable, UnboundSymbol, UndeclaredSymbol,
    add, const, differentiate, div, free_symbols, mul, neg,
    parse_expression, partials, pow_, sub, sym, to_text,
)
from .model import (
    HIV_MODEL_TEXT, MissingOdeForState, MixedModeSymbols, OdeModel,
    OutputJet, derivative_chain, hiv_model, output_jet, output_symbol,
    parse_model, print_model, total_time_derivative,
)

__version__ = "0.1.0"

# The names each module exports here; they, and the module's own name,
# load it on first access.
_LAZY_EXPORTS = {
    "expr": ("RationalCanonical", "evaluate", "normalize"),
    "ranktest": (
        "CORRECTED", "DEFAULT_PRIMES", "MIAO_AS_PRINTED", "PARAM_ORDER",
        "ExhaustedRetries", "PrimeDisagreement", "RankReport",
        "build_phi", "build_phi_system", "generic_rank",
        "parameter_jacobian", "phi_vanishes_on_dynamics", "run_rank_test",
        "substitute_dynamics"),
    "transform": (
        "IdentityCheck", "Params", "SingularPoint", "SingularTau",
        "TauFamily", "admissible_tau_interval", "eta_prime_value",
        "transform_params", "transform_state", "verify_identities"),
    "sim": (
        "EtaSignal", "IndistReport", "NonFiniteState", "SimConfig",
        "StepBudgetExceeded", "StepSizeUnderflow", "Trajectory",
        "integrate", "phi_residual_along", "phi_residuals_along",
        "run_indistinguishability", "tau_sweep", "write_trajectory_csv"),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items()
         for name in (module, *names)}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | {name for name, module in _LAZY.items() if module != "sim"})


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*__all__, *(n for n in globals() if n.startswith("_"))})
