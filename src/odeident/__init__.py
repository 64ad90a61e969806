"""Symbolic-numeric structural identifiability toolkit.

Exact rational expressions, an ODE-model text format with a bundled HIV
within-host model, a parameter-identifiability rank test (naive versus
dynamics-constrained), a tau-indexed indistinguishability transformation
with symbolic verification, and a numerical indistinguishability
experiment.
"""

from .expr import (
    DenominatorIdenticallyZero, DivisionByZero, DuplicateDeclaration,
    Expression, ExprError, ParseError, RationalCanonical, Symbol,
    SymbolTable, UnboundSymbol, UndeclaredSymbol,
    add, const, differentiate, div, equivalent, evaluate, free_symbols,
    is_zero, mul, neg, normalize, parse_expression, pow_, sub, substitute,
    sym, to_text,
)
from .model import (
    HIV_MODEL_TEXT, MissingOdeForState, MixedModeSymbols, OdeModel,
    OutputJet, hiv_model, output_jet, output_symbol, parse_model,
    print_model, total_time_derivative,
)
from .ranktest import (
    CORRECTED, DEFAULT_PRIMES, MIAO_AS_PRINTED, PARAM_ORDER,
    ExhaustedRetries, PhiRelation, PhiSystem, PrimeDisagreement, RankReport,
    build_phi, build_phi_system, generic_rank, parameter_jacobian,
    phi_vanishes_on_dynamics, run_rank_test, substitute_dynamics,
)
from .sim import (
    EtaSignal, IndistReport, NonFiniteState, SimConfig, StepBudgetExceeded,
    StepSizeUnderflow, Trajectory, integrate, phi_residual_along,
    phi_residuals_along, run_indistinguishability, tau_sweep,
    write_trajectory_csv,
)
from .transform import (
    IdentityCheck, Params, SingularPoint, SingularTau, TauFamily,
    admissible_tau_interval, eta_prime_value, transform_params,
    transform_state, verify_identities,
)

__version__ = "0.1.0"
