"""The tau-indexed indistinguishability family for the HIV model.

For any admissible tau the family rescales (delta, N), remixes
(T_U, T_I) and rewrites the time-varying infection rate so that the
transformed quantities satisfy the same dynamics with the transformed
parameters while both outputs stay identical for all time. Existence of
this family for arbitrarily small tau is what defeats local
identifiability of delta, N and eta.

Everything is phrased in u = e^(rho*tau). Numerically tau becomes u in
one place, `TauFamily`, which computes u and the transformed parameters
once and rejects a u that is not finite and positive; the maps
`transform_params`, `transform_state` and `eta_prime_value` take u only,
as the keyword argument `u`, so all transformed quantities of a member
share one u. Symbolically u is one auxiliary nonzero symbol, which makes
all three verification identities rational and therefore decidable by
exact expansion.

The family is written once, as the closed forms that `verify_identities`
proves. They are compiled when this module is imported, and the numeric
maps run that code on floats, Fractions and numpy arrays alike; beyond it
they only check u and compare the guards. A simulation, of one twin or
of a sweep, compiles the same forms into its vector field. The module
imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import expr
from .expr import AUX, Expression, Symbol, sym
from .model import hiv_model, total_time_derivative

__all__ = [
    "IdentityCheck", "Params", "SingularPoint", "SingularTau", "TauFamily",
    "admissible_tau_interval", "eta_prime_expr", "eta_prime_poles",
    "eta_prime_scale_expr", "eta_prime_value", "params_prime_exprs",
    "state_map_exprs", "transform_params", "transform_state",
    "verify_identities",
]

_DENOM_EPS = 1e-12


class SingularTau(expr.ExprError):
    """tau outside the admissible interval, where the delta' denominator
    (rho - delta) * e^(rho tau) + delta is nonpositive or vanishing, or so
    large in magnitude that u = e^(rho tau) is not finite and positive."""


class SingularPoint(expr.ExprError):
    """The eta' denominator vanishes at this state (e.g. V = 0)."""


@dataclass(frozen=True)
class Params:
    """Constant parameters of the HIV model. Column order used throughout
    reports is (lambda, delta, rho, c, N)."""

    lam: float
    delta: float
    rho: float
    c: float
    N: float

    def as_dict(self) -> dict:
        return {"lambda": self.lam, "delta": self.delta, "rho": self.rho,
                "c": self.c, "N": self.N}

    def validate_positive(self) -> None:
        for name, v in self.as_dict().items():
            if not 0 < v < math.inf:
                raise ValueError(
                    f"parameter {name} must be finite and positive, got {v}")


def _maps(T_U, T_I, params: Params, u):
    """[T_U', T_I', delta', N'] at u. With u and rho positive the delta'
    denominator is the one divisor left; SingularTau unless it is >= 1e-12."""
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if not params.rho > 0:
        raise ValueError(f"parameter rho must be positive, got {params.rho}")
    try:
        den, *maps = _MAPS(T_U, T_I, params.delta, params.rho, params.N, u)
    except ZeroDivisionError:  # delta' at a zero denominator
        den = 0.0
    if den < _DENOM_EPS:
        raise SingularTau(
            f"delta' denominator (rho-delta)*u + delta = {den} at u = {u}; "
            f"admissible tau interval: {admissible_tau_interval(params)}")
    return maps


def transform_params(params: Params, *, u) -> Params:
    """Transformed constants: delta' = delta*rho / ((rho-delta)*u + delta),
    N' = N*u; lambda, rho, c unchanged. u == 1 is the identity, exactly."""
    if u == 1:
        return params
    _, _, delta, N = _maps(0, 0, params, u)  # no state enters delta', N'
    return replace(params, delta=delta, N=N)


def transform_state(T_U, T_I, V, params: Params, *, u):
    """Transformed states (T_U', T_I', V' = V). T_U' + T_I' equals
    T_U + T_I identically, so output one never changes."""
    if u == 1:
        return T_U, T_I, V
    T_U_p, T_I_p, _, _ = _maps(T_U, T_I, params, u)
    return T_U_p, T_I_p, V


def _at_pole(den, scale):
    """eta''s pole rule, for floats and numpy arrays alike: its denominator
    is 0 or within 1e-12 of the scale V rho (T_U + T_I) u; False at NaN
    and at an infinite denominator, an overflow, not a zero."""
    size = abs(den)
    return (den == 0) | ((size <= _DENOM_EPS * abs(scale)) & (size < math.inf))


def eta_prime_poles(T_U, T_I, V, params: Params, u):
    """Whether eta' is at its pole at this point of the original
    trajectory, by `eta_prime_value`'s rule: a bool for a float u, a bool
    array for a numpy array of them, False where u == 1. eta does not
    enter the denominator or its scale, so it is not taken."""
    _, den, scale = _ETA_PRIME(T_U, T_I, V, 0, params.delta, params.rho, u)
    return (u != 1) & _at_pole(den, scale)


def eta_prime_value(T_U, T_I, V, eta, params: Params, *, u):
    """Transformed time-varying parameter, `eta_prime_expr` at this point.
    SingularPoint at its pole (see `eta_prime_poles`)."""
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if u == 1:
        return eta
    num, den, scale = _ETA_PRIME(T_U, T_I, V, eta, params.delta, params.rho, u)
    if _at_pole(den, scale):
        raise SingularPoint(
            f"eta' denominator {den} vanishes relative to scale {abs(scale)}")
    return num / den


def admissible_tau_interval(params: Params) -> tuple[float | None, float | None]:
    """Open interval of tau keeping the delta' denominator positive.

    None means unbounded on that side. For rho >= delta every tau is
    admissible; for rho < delta the upper end is ln(delta/(delta-rho))/rho.
    """
    if params.rho >= params.delta:
        return (None, None)
    hi = math.log(params.delta / (params.delta - params.rho)) / params.rho
    return (None, hi)


@dataclass(frozen=True)
class TauFamily:
    """One member of the family, the one place where tau becomes
    u = e^(rho tau): u and the transformed parameters are computed once,
    and SingularTau is raised for an inadmissible tau or a u that is not
    finite and positive. The state and eta maps share that u."""

    tau: float
    params: Params
    u: float = field(init=False)
    params_prime: Params = field(init=False)

    def __post_init__(self):
        self.params.validate_positive()
        try:
            u = math.exp(self.params.rho * self.tau)
        except OverflowError:
            u = math.inf
        if not 0 < u < math.inf:
            raise SingularTau(f"u = e^(rho tau) = {u} at tau = {self.tau} "
                              f"is not finite and positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "params_prime",
                           transform_params(self.params, u=u))

    def map_state(self, T_U, T_I, V):
        return transform_state(T_U, T_I, V, self.params, u=self.u)

    def eta(self, T_U, T_I, V, eta):
        return eta_prime_value(T_U, T_I, V, eta, self.params, u=self.u)

    @property
    def pole(self) -> float | None:
        """T_I/T_U at eta''s pole, rho*u/(delta*(1-u)), where its denominator
        V*(rho*u*T_U - delta*(1-u)*T_I) vanishes; None unless u < 1."""
        if self.u < 1:
            return self.params.rho * self.u / (self.params.delta * (1 - self.u))
        return None


# ------------------------------------------------------- the one formula

_HIV = hiv_model()
_SYM = {s.name: sym(s) for s in
        (*_HIV.states, *_HIV.const_params, *_HIV.tv_params, Symbol("u", AUX))}


def _syms(names: str):
    return (_SYM[name] for name in names.split())


def params_prime_exprs() -> dict[str, Expression]:
    """Closed forms of the transformed constants over the base symbols and
    the auxiliary u (e^(-rho tau) is written 1/u)."""
    lam, delta, rho, c, N, u = _syms("lambda delta rho c N u")
    return {"lambda": lam, "delta": delta * rho / ((rho - delta) * u + delta),
            "rho": rho, "c": c, "N": N * u}


def state_map_exprs() -> tuple[Expression, Expression, Expression]:
    """Closed forms of (T_U', T_I', V')."""
    T_U, T_I, V, delta, rho, u = _syms("T_U T_I V delta rho u")
    T_I_p = T_I * ((delta / u + rho - delta) / rho)
    return (T_U + T_I - T_I_p, T_I_p, V)


def eta_prime_expr() -> Expression:
    """Closed form of eta', a quotient. The compiled code follows the
    order of operations written here and above (d*d, not d^2)."""
    T_U, T_I, V, eta, d, rho, u = _syms("T_U T_I V eta delta rho u")
    num = (eta * T_U * V * rho * u
           + (T_I * d * d - T_I * d * rho - eta * T_U * V * d) * (u - 1))
    return num / (V * (T_I * d + T_U * rho) * u - V * T_I * d)


def eta_prime_scale_expr() -> Expression:
    """The natural scale V rho (T_U + T_I) u of eta''s pole guard: a
    denominator within 1e-12 of it counts as a pole."""
    T_U, T_I, V, rho, u = _syms("T_U T_I V rho u")
    return V * rho * (T_U + T_I) * u


def _compiled():
    """The forms compiled once, as two functions: eta' as numerator,
    denominator and the natural scale V rho (T_U + T_I) u of its pole
    guard; and the delta' denominator, T_U', T_I', delta' and N'. Each
    caller needs one of the two: `eta_prime_value` the first,
    `transform_params` and `transform_state` the second. The one constant,
    1 in u - 1, is bound as an int, so Fraction inputs stay exact."""
    pp = params_prime_exprs()
    eta_p = [*eta_prime_expr().args, eta_prime_scale_expr()]
    maps = [pp["delta"].args[1], *state_map_exprs()[:2], pp["delta"],
            pp["N"]]
    return [expr.compile_program(exprs, [s.symbol for s in _syms(inputs)])
            .plain_fn() for exprs, inputs in (
                (eta_p, "T_U T_I V eta delta rho u"),
                (maps, "T_U T_I delta rho N u"))]


_ETA_PRIME, _MAPS = _compiled()


@dataclass(frozen=True)
class IdentityCheck:
    """One verified line of the transformed dynamics."""

    name: str
    holds: bool
    residual: expr.RationalCanonical


def verify_identities() -> list[IdentityCheck]:
    """Symbolically verify that the transformed states satisfy the
    transformed dynamics.

    For each transformed state, form its total time derivative under the
    original dynamics and subtract the transformed right-hand side: the
    model's own, with the transformed states, parameters and eta' put in
    for the originals. Each residual must expand to the zero rational
    function in the states, parameters, eta and u. False results are
    reported, not raised.
    """
    maps, pp = state_map_exprs(), params_prime_exprs()
    primed_rhs = expr.substitute_many(_HIV.rhs, {
        **dict(zip(_HIV.states, maps)), _HIV.tv_params[0]: eta_prime_expr(),
        **{s: pp[s.name] for s in _HIV.const_params}})
    checks = []
    for name, mapped, rhs in zip(("T_U'", "T_I'", "V'"), maps, primed_rhs):
        lhs = total_time_derivative(_HIV, mapped)
        residual = expr.normalize(expr.sub(lhs, rhs))
        checks.append(IdentityCheck(name, residual.is_zero, residual))
    return checks
