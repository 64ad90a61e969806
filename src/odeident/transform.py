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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr
from .expr import AUX, Expression, RationalCanonical, Symbol, sym
from .model import DYNAMICS, hiv_model, total_time_derivative

__all__ = [
    "IdentityCheck", "Params", "SingularPoint", "SingularTau", "TauFamily",
    "admissible_tau_interval", "eta_prime_value",
    "eta_prime_values", "eta_prime_expr", "params_prime_exprs",
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


def _admissible_denominator(params: Params, u):
    """The delta' denominator; SingularTau unless it is at least 1e-12."""
    den = (params.rho - params.delta) * u + params.delta
    if den < _DENOM_EPS:
        raise SingularTau(
            f"delta' denominator (rho-delta)*u + delta = {den} at u = {u}; "
            f"admissible tau interval: {admissible_tau_interval(params)}")
    return den


def transform_params(params: Params, *, u) -> Params:
    """Transformed constants: delta' = delta*rho / ((rho-delta)*u + delta),
    N' = N*u; lambda, rho, c unchanged. u == 1 is the identity, exactly."""
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if u == 1:
        return params
    return Params(
        lam=params.lam,
        delta=params.delta * params.rho / _admissible_denominator(params, u),
        rho=params.rho,
        c=params.c,
        N=params.N * u,
    )


def transform_state(T_U, T_I, V, params: Params, *, u):
    """Transformed states: T_I' = a*T_I, T_U' = T_U + (1-a)*T_I, V' = V,
    with a = (delta/u + rho - delta)/rho. The sum T_U' + T_I' equals
    T_U + T_I identically, so output one never changes."""
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if u == 1:
        return T_U, T_I, V
    _admissible_denominator(params, u)  # raises SingularTau
    a = (params.delta / u + params.rho - params.delta) / params.rho
    T_I_p = T_I * a
    return T_U + T_I - T_I_p, T_I_p, V


def eta_prime_value(T_U, T_I, V, eta, params: Params, *, u):
    """Transformed time-varying parameter, evaluated as printed:

        eta' = [eta T_U V rho u + (T_I d^2 - T_I d rho - eta T_U V d)(u-1)]
               / [V (T_I d + T_U rho) u - V T_I d]              (d = delta)

    Raises SingularPoint when the denominator falls below 1e-12 of the
    natural scale V rho (T_U + T_I) u.
    """
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if u == 1:
        return eta
    num, den, scale = _eta_prime_parts(T_U, T_I, V, eta, params, u)
    if den == 0 or abs(den) <= _DENOM_EPS * scale:
        raise SingularPoint(
            f"eta' denominator {den} vanishes relative to scale {scale}")
    return num / den


def eta_prime_values(T_U, T_I, V, eta, params: Params, *, u: np.ndarray):
    """eta_prime_value for a stack of twins, one per entry of u: entries
    with u == 1 give eta exactly, and any other entry at its pole raises
    SingularPoint. The states are arrays, one entry per twin, or Python
    floats shared by all twins; then the u-free part of the formula is
    evaluated once and only the u-dependent operations run on arrays."""
    num, den, scale = _eta_prime_parts(T_U, T_I, V, eta, params, u)
    same = u == 1
    bad = ((den == 0) | (abs(den) <= _DENOM_EPS * scale)) & ~same
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularPoint(f"eta' denominator {den[i]} vanishes relative "
                            f"to scale {scale[i]} at u = {u[i]}")
    return np.where(same, eta, num / np.where(same, 1.0, den))


def _eta_prime_parts(T_U, T_I, V, eta, params: Params, u):
    """Numerator, denominator and natural scale of eta' in plain
    arithmetic, so floats and numpy arrays alike."""
    d, rho = params.delta, params.rho
    num = eta*T_U*V*rho*u + (T_I*d*d - T_I*d*rho - eta*T_U*V*d) * (u - 1)
    den = V * (T_I*d + T_U*rho) * u - V*T_I*d
    scale = abs(V * rho * (T_U + T_I) * u)
    return num, den, scale


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


# ------------------------------------------------------- symbolic closed forms

def _symbolic_context():
    m = hiv_model()
    table = {s.name: sym(s) for s in m.states + m.const_params + m.tv_params}
    table["u"] = sym(Symbol("u", AUX))
    return m, table


def params_prime_exprs() -> dict[str, Expression]:
    """Closed forms of the transformed constants over the base symbols and
    the auxiliary u (e^(-rho tau) is written 1/u)."""
    _, t = _symbolic_context()
    lam, delta, rho, c, N, u = (t[k] for k in ("lambda", "delta", "rho", "c", "N", "u"))
    return {
        "lambda": lam,
        "delta": delta * rho / ((rho - delta) * u + delta),
        "rho": rho,
        "c": c,
        "N": N * u,
    }


def state_map_exprs() -> tuple[Expression, Expression, Expression]:
    """Closed forms of (T_U', T_I', V')."""
    _, t = _symbolic_context()
    T_U, T_I, delta, rho, u = (t[k] for k in ("T_U", "T_I", "delta", "rho", "u"))
    T_I_p = (T_I / rho) * (delta / u + rho - delta)
    return (T_U + T_I - T_I_p, T_I_p, t["V"])


def eta_prime_expr() -> Expression:
    """Closed form of eta'."""
    _, t = _symbolic_context()
    T_U, T_I, V, eta, delta, rho, u = (
        t[k] for k in ("T_U", "T_I", "V", "eta", "delta", "rho", "u"))
    num = (eta * T_U * V * rho * u
           + (T_I * delta**2 - T_I * delta * rho - eta * T_U * V * delta) * (u - 1))
    den = V * (T_I * delta + T_U * rho) * u - V * T_I * delta
    return num / den


@dataclass(frozen=True)
class IdentityCheck:
    """One verified line of the transformed dynamics."""

    name: str
    holds: bool
    residual: RationalCanonical


def verify_identities() -> list[IdentityCheck]:
    """Symbolically verify that the transformed states satisfy the
    transformed dynamics.

    For each transformed state, form its total time derivative under the
    original dynamics and subtract the transformed right-hand side built
    from the transformed parameters and eta'; each residual must expand to
    the zero rational function in the states, parameters, eta and u.
    False results are reported, not raised.
    """
    m, t = _symbolic_context()
    lam, c = t["lambda"], t["c"]
    rho = t["rho"]
    T_U_p, T_I_p, V_p = state_map_exprs()
    pp = params_prime_exprs()
    eta_p = eta_prime_expr()

    primed_rhs = {
        "T_U'": lam - rho * T_U_p - eta_p * T_U_p * V_p,
        "T_I'": eta_p * T_U_p * V_p - pp["delta"] * T_I_p,
        "V'": pp["N"] * pp["delta"] * T_I_p - c * V_p,
    }
    maps = {"T_U'": T_U_p, "T_I'": T_I_p, "V'": V_p}

    checks = []
    for name in ("T_U'", "T_I'", "V'"):
        lhs = total_time_derivative(m, maps[name], DYNAMICS)
        residual = expr.normalize(expr.sub(lhs, primed_rhs[name]))
        checks.append(IdentityCheck(name=name, holds=residual.is_zero,
                                    residual=residual))
    return checks
