"""Numerical integration and the indistinguishability experiment.

The integrator is the classic Fehlberg 4(5) embedded pair: the 4th-order
solution is propagated and the difference to the 5th-order solution
drives the step controller. Dense output uses cubic Hermite interpolation
on each accepted step, consistent with 4th-order accuracy, and is filled
in as the step is accepted. Plain, co-integrated and stacked runs share
this one solver loop and one trajectory builder. The loop calls one step
attempt emitted as straight-line Python per state width, in two
renderings: a 1-D state is one Python float per component, and a stacked
2-D state is one numpy array. Both round their stage sums exactly as the
generic `y + h * sum(a * k for ...)` does. A run that needs more than
`_MAX_ATTEMPTS` step attempts stops with StepBudgetExceeded.

A run compiles one program per evaluation site: one for the right-hand
side and one for the outputs of all its trajectories (every twin of a
sweep included). Relation residuals compile the output jets once and the
terms of each relation variant.

The indistinguishability experiment co-integrates the original system and
the transformed one as a single 6-state ODE. The transformed eta is
evaluated pointwise from the co-integrated ORIGINAL states (its closed
form is a function of the original trajectory), so no interpolation error
enters the coupling. A tau sweep stacks one such row per twin; the
original system, which every row shares bit for bit, is evaluated once
per right-hand side call on Python floats, and only the twins run on
numpy columns. Reported are the worst relative deviation between
the two output pairs, and the stronger check: the worst deviation between
the integrated transformed states and the algebraic image of the original
states.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr
from .expr import (AUX, Expression, Symbol, compile_float_fn,
                   compile_program, free_symbols)
from .model import OdeModel, hiv_model, output_jet, output_symbol
from .ranktest import CORRECTED, build_phi
from .transform import (Params, TauFamily, admissible_tau_interval,
                        eta_prime_values)

__all__ = [
    "EtaSignal", "IndistReport", "NonFiniteState", "SimConfig",
    "StepBudgetExceeded", "StepSizeUnderflow", "TIME_SYMBOL", "Trajectory",
    "integrate", "phi_residual_along", "phi_residuals_along",
    "run_indistinguishability", "tau_sweep", "write_trajectory_csv",
]

TIME_SYMBOL = Symbol("t", AUX)


class StepSizeUnderflow(expr.ExprError):
    """The controller drove the step below resolvable size (stiffness or a
    singularity on the path)."""


class StepBudgetExceeded(StepSizeUnderflow):
    """The run took more step attempts than its budget allows (a pole
    between grid points, or a window far longer than the dynamics)."""


class NonFiniteState(expr.ExprError):
    """A state stopped being finite during integration."""


class EtaSignal:
    """A time-varying parameter signal: a constant or an expression in t.

    The expression form supports exact repeated differentiation in t, so
    the derivative chain eta', eta'', ... needed by trajectory residual
    checks is available without numerics.
    """

    def __init__(self, expression: Expression):
        extra = free_symbols(expression) - {TIME_SYMBOL}
        if extra:
            names = ", ".join(sorted(s.display for s in extra))
            raise ValueError(f"eta signal may depend on t only, found: {names}")
        self.expression = expression
        self._fn = compile_float_fn(expression, [TIME_SYMBOL])

    @classmethod
    def constant(cls, value) -> "EtaSignal":
        if isinstance(value, float):
            value = _exact_fraction(value)
        return cls(expr.const(value))

    @classmethod
    def from_text(cls, text: str) -> "EtaSignal":
        table = expr.SymbolTable([TIME_SYMBOL])
        return cls(expr.parse_expression(text, table))

    def __call__(self, t):
        return self._fn(t)

    def derivative_chain(self, order: int) -> list[Callable]:
        """Compiled [eta, eta', ..., eta^(order)] as functions of t; eta
        itself is the signal's own compiled function."""
        chain = [self.expression]
        for _ in range(order):
            chain.append(expr.differentiate(chain[-1], TIME_SYMBOL))
        return [self._fn] + [compile_float_fn(e, [TIME_SYMBOL])
                             for e in chain[1:]]

    def text(self) -> str:
        return expr.to_text(self.expression)


def _exact_fraction(value: float) -> Fraction:
    # prefer the short form (1/2, not 4503599627370496/9007199254740992)
    # whenever it is exactly the same number
    exact = Fraction(value)
    short = exact.limit_denominator(10**12)
    return short if short == exact else exact


@dataclass(frozen=True)
class SimConfig:
    """Integration window, tolerances and dense-output grid size."""

    t0: float = 0.0
    tf: float = 10.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float | None = None
    dense_output_points: int = 401

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.tf)):
            raise ValueError("t0 and tf must be finite")
        if not self.tf > self.t0:
            raise ValueError("tf must exceed t0")
        for tol in (self.abs_tol, self.rel_tol):
            if not (0 < tol <= 1e-2):
                raise ValueError("tolerances must lie in (0, 1e-2]")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if self.dense_output_points < 2:
            raise ValueError("dense output grid needs at least 2 points")

    def grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.tf, self.dense_output_points)

    def to_dict(self) -> dict:
        return {"t0": self.t0, "tf": self.tf, "abs_tol": self.abs_tol,
                "rel_tol": self.rel_tol, "max_step": self.max_step,
                "dense_output_points": self.dense_output_points}


@dataclass(frozen=True)
class Trajectory:
    """Dense-output samples of one integration."""

    times: np.ndarray
    states: np.ndarray           # shape (n_points, n_states)
    outputs: np.ndarray          # shape (n_points, n_outputs)
    state_names: tuple[str, ...]
    output_names: tuple[str, ...]


# --------------------------------------------------------- RKF45 kernel

_C = (0.0, 1/4, 3/8, 12/13, 1.0, 1/2)
_A = (
    (),
    (1/4,),
    (3/32, 9/32),
    (1932/2197, -7200/2197, 7296/2197),
    (439/216, -8.0, 3680/513, -845/4104),
    (-8/27, 2.0, -3554/2565, 1859/4104, -11/40),
)
_B4 = (25/216, 0.0, 1408/2565, 2197/4104, -1/5, 0.0)
_B5 = (16/135, 0.0, 6656/12825, 28561/56430, -9/50, 2/55)
_E = tuple(b4 - b5 for b4, b5 in zip(_B4, _B5))

_SAFETY = 0.9
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0
# accepted plus rejected step attempts of one run. A default run takes
# about 2,200 and the tightest-tolerance test run about 32,000, while a
# run toward a pole between grid points, or over 1e308 time units, would
# not end
_MAX_ATTEMPTS = 100_000


def _finite(x) -> bool:
    return np.isfinite(x).all()


def _pairwise(terms: list[str]) -> str:
    """Source summing `terms` in numpy's float64 order (pairwise, eight
    accumulators, blocks of 128), so the sum rounds like ndarray.sum();
    the terms must be nonnegative, as numpy's leading 0.0 is left out."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return f"({_pairwise(terms[:half])} + {_pairwise(terms[half:])})"
    if n < 8:
        return f"({' + '.join(terms)})"
    stop = n - n % 8
    r = terms[:8]
    for i in range(8, stop, 8):
        r = [f"({r[j]} + {terms[i + j]})" for j in range(8)]
    block = (f"((({r[0]} + {r[1]}) + ({r[2]} + {r[3]}))"
             f" + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]})))")
    return f"({' + '.join([block, *terms[stop:]])})"


def _emit_attempt(width: int | None) -> str:
    """Source of `_attempt(f, t, h, y, k0, atol, rtol)`: one RKF45 step
    attempt of size h from (t, y), where k0 = f(t, y). It returns the
    4th-order solution y4 and the worst row's sum of squared scaled
    errors, or None as soon as a stage, y4 or the error is not finite.

    Each stage sum is rendered as the generic `y + h * sum(a*k for ...)`
    evaluates it, `y + h * (0 + a0*k0 + a1*k1 ...)` with zero coefficients
    kept, so it rounds the same way. With `width` None the state is one
    numpy array whose rows are stacked systems; with an int it is `width`
    Python floats, one variable each, and f takes and returns lists.
    """
    flat = width is not None
    parts = [f"_{j}" for j in range(width)] if flat else [""]

    def vec(name):
        return ", ".join(name + c for c in parts) + ("," if flat else "")

    def stage_sum(coefs, c):
        terms = " + ".join(f"{a!r}*k{i}{c}" for i, a in enumerate(coefs))
        return f"(0 + {terms})"

    def finite(*names):
        if flat:
            return " and ".join(f"isfinite({n}{c})" for n in names
                                for c in parts)
        return " and ".join(f"_finite({n})" for n in names)

    body = [f"{vec('y')} = y", f"{vec('k0')} = k0"] if flat else []
    for i in range(1, 6):
        body += [f"s{i}{c} = y{c} + h * {stage_sum(_A[i], c)}" for c in parts]
        body.append(f"if not ({finite(f's{i}')}): return None")
        arg = f"[{vec(f's{i}')}]" if flat else f"s{i}"
        body.append(f"{vec(f'k{i}')} = f(t + {_C[i]!r}*h, {arg})")
    body += [f"y4{c} = y{c} + h * {stage_sum(_B4, c)}" for c in parts]
    body += [f"e{c} = h * {stage_sum(_E, c)}" for c in parts]
    body.append(f"if not ({finite('y4', 'e')}): return None")
    if flat:
        body += [f"q{c} = e{c} / (atol + rtol * max(abs(y{c}), abs(y4{c})))"
                 for c in parts]
        body.append(f"return [{vec('y4')}], "
                    f"{_pairwise([f'q{c}*q{c}' for c in parts])}")
    else:
        body += ["q = e / (atol + rtol * np.maximum(np.abs(y), np.abs(y4)))",
                 "return y4, float((q*q).sum(axis=-1).max())"]
    return "".join(["def _attempt(f, t, h, y, k0, atol, rtol):\n",
                    *(f"    {line}\n" for line in body)])


@functools.cache
def _attempt_fn(width: int | None):
    """`_emit_attempt(width)` compiled, once per width."""
    namespace = {"isfinite": math.isfinite, "_finite": _finite, "np": np}
    exec(_emit_attempt(width), namespace)  # generated from the tableau only
    return namespace["_attempt"]


def _solve(f, y0, cfg: SimConfig) -> np.ndarray:
    """Adaptive RKF45 over the window of `cfg`; returns the states on
    `cfg.grid()`, shaped (grid points, *y0.shape).

    A 1-D `y0` is one system, stepped on Python floats: f takes and
    returns a list. A 2-D `y0` stacks one system per row, stepped as one
    numpy array, and all rows take the same steps. The step error is the
    largest of the rows' RMS errors, so no row is held to a looser
    tolerance than it would be in a run of its own. A run gives up with
    StepBudgetExceeded after `_MAX_ATTEMPTS` step attempts, and a scalar
    division by zero in f raises DivisionByZero.

    Each accepted step fills the grid points it covers by cubic Hermite
    interpolation and is then dropped, so only the current step is held.
    A point belongs to the first step whose right end lies above it; the
    last step also takes points up to 1e-12 past its end. Points still
    left get the final state, which is the initial state when the window
    is too short for a single step.
    """
    grid = cfg.grid()
    t, tf = cfg.t0, cfg.tf
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    max_step = cfg.max_step if cfg.max_step is not None else tf - t
    y0 = np.asarray(y0, dtype=float)
    if not _finite(y0):
        raise NonFiniteState("initial state is not finite")
    flat = y0.ndim == 1
    width = y0.shape[-1]
    attempt = _attempt_fn(width if flat else None)
    states = np.empty((len(grid), *y0.shape))
    filled = 0
    at_end = 1e-13 * max(abs(tf), 1.0)  # this close to tf counts as there
    y = y0.tolist() if flat else y0
    h = min(max_step, (tf - t) / 100.0)
    attempts = 0
    try:
        f_left = f(t, y)
        while tf - t > at_end:
            h = min(h, max_step, tf - t)
            if h < 1e-14 * max(abs(t), 1.0):
                raise StepSizeUnderflow(f"step size underflow at t = {t}")
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                raise StepBudgetExceeded(
                    f"no end after {_MAX_ATTEMPTS} step attempts, at t = {t}")
            step = attempt(f, t, h, y, f_left, atol, rtol)
            if step is None:
                h *= _MIN_SHRINK
                continue
            y4, sq = step
            err = math.sqrt(sq / width)
            if err <= 1.0:
                t_right = t + h
                f_right = f(t_right, y4)
                if not _finite(f_right):
                    raise NonFiniteState(
                        f"derivative not finite at t = {t_right}")
                if tf - t_right > at_end:
                    stop = np.searchsorted(grid, t_right, "left")
                else:  # the last step
                    stop = np.searchsorted(grid, t_right + 1e-12, "right")
                if stop > filled:
                    states[filled:stop] = _hermite(
                        t, h, *map(np.asarray, (y, y4, f_left, f_right)),
                        grid[filled:stop])
                    filled = stop
                t, y, f_left = t_right, y4, f_right
                if err == 0:
                    h *= _MAX_GROW
                else:
                    h *= min(_MAX_GROW, max(_MIN_SHRINK, _SAFETY * err ** -0.2))
            else:
                h *= max(_MIN_SHRINK, _SAFETY * err ** -0.2)
    except ZeroDivisionError as exc:  # a quotient of Python floats
        raise expr.DivisionByZero(str(exc)) from None
    states[filled:] = y
    if not _finite(states):
        raise NonFiniteState("trajectory left the finite domain")
    return states


def _hermite(t0, h, y0, y1, f0, f1, ts: np.ndarray) -> np.ndarray:
    theta = ((ts - t0) / h).reshape((-1,) + (1,) * y0.ndim)
    d = y1 - y0
    return ((1 - theta) * y0 + theta * y1
            + theta * (theta - 1)
            * ((1 - 2 * theta) * d + (theta - 1) * h * f0 + theta * h * f1))


# ------------------------------------------------------- shared set-up

def _signals(m: OdeModel, eta: "EtaSignal | Mapping[str, EtaSignal] | None",
             grid: np.ndarray) -> tuple[list[EtaSignal], list[np.ndarray]]:
    """The signal of each time-varying parameter, in model order, and its
    values on the grid, which must be finite and nonnegative."""
    if not m.tv_params:
        return [], []
    if eta is None:
        raise ValueError("model has time-varying parameters; pass eta")
    if isinstance(eta, EtaSignal):
        if len(m.tv_params) != 1:
            raise ValueError("several tv parameters need a name -> signal map")
        eta = {m.tv_params[0].name: eta}
    sigs, cols = [], []
    for s in m.tv_params:
        if s.name not in eta:
            raise ValueError(f"no signal for tv parameter {s.name}")
        sig = eta[s.name]
        with np.errstate(all="ignore"):  # a pole on the grid is reported below
            col = np.broadcast_to(np.asarray(sig(grid), dtype=float),
                                  grid.shape)
        if not _finite(col):
            raise ValueError(f"{s.name} is not finite on the window")
        if np.any(col < 0):
            raise ValueError(f"{s.name} goes negative on the window")
        sigs.append(sig)
        cols.append(col)
    return sigs, cols


def _param_values(m: OdeModel, params: Mapping[str, float]) -> list[float]:
    missing = [s.name for s in m.const_params if s.name not in params]
    if missing:
        raise ValueError("missing parameter value(s): " + ", ".join(missing))
    return [float(params[s.name]) for s in m.const_params]


def _rhs(m: OdeModel) -> expr.Program:
    """The whole vector field as one compiled program, taking the state
    values, then time-varying parameters, then constants, in model
    order."""
    return compile_program(m.rhs, [*m.states, *m.tv_params, *m.const_params])


def _trajectory(m: OdeModel, outputs: expr.Program, grid: np.ndarray,
                states: np.ndarray, *rest) -> Trajectory:
    """Samples of `m` on the grid; `outputs` reads the sampled state
    columns followed by `rest`."""
    values = np.empty((len(grid), len(m.outputs)))
    try:
        for j, col in enumerate(outputs.float_fn()(*states.T, *rest)):
            values[:, j] = col
    except ZeroDivisionError as exc:  # a quotient of scalar values only
        raise expr.DivisionByZero(str(exc)) from None
    return Trajectory(times=grid, states=states, outputs=values,
                      state_names=tuple(s.name for s in m.states),
                      output_names=m.output_names)


# ------------------------------------------------------------- integrate

def integrate(m: OdeModel, params: Mapping[str, float],
              init: Sequence[float], eta=None,
              cfg: SimConfig = SimConfig()) -> Trajectory:
    """Integrate the model and sample it on the dense-output grid.

    Outputs are recomputed from the sampled states, so the reported
    outputs satisfy the output definitions exactly by construction.
    Time-varying signals must be nonnegative at the grid sample points.
    """
    if len(init) != len(m.states):
        raise ValueError(f"expected {len(m.states)} initial values")
    grid = cfg.grid()
    sigs, cols = _signals(m, eta, grid)
    pvals = _param_values(m, params)
    program = _rhs(m)
    rhs = program.float_fn()

    def f(t, y):
        return rhs(*y, *[sig(t) for sig in sigs], *pvals)

    states = _solve(f, init, cfg)
    outputs = compile_program([e for _, e in m.outputs],
                              program.input_symbols)
    return _trajectory(m, outputs, grid, states, *cols, *pvals)


# ---------------------------------------------- indistinguishability run

@dataclass(frozen=True)
class IndistReport:
    """Worst-case deviations between the original system and one
    transformed twin over the integration window."""

    tau: float
    max_rel_output_dev: float
    max_rel_state_map_dev: float
    grid_size: int
    params: Params
    params_prime: Params
    admissible_tau_interval: tuple[float | None, float | None]
    eta_text: str
    config: SimConfig

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "params": self.params.as_dict(),
            "params_prime": self.params_prime.as_dict(),
            "admissible_tau_interval": list(self.admissible_tau_interval),
            "max_rel_output_dev": self.max_rel_output_dev,
            "max_rel_state_map_dev": self.max_rel_state_map_dev,
            "grid_size": self.grid_size,
            "eta": self.eta_text,
            "config": self.config.to_dict(),
        }


def run_indistinguishability(params: Params, init: Sequence[float],
                             eta: EtaSignal, tau: float,
                             cfg: SimConfig = SimConfig()
                             ) -> tuple[IndistReport, Trajectory, Trajectory]:
    """Co-integrate the original and transformed systems and measure how far
    the twin drifts from indistinguishability.

    Returns the report plus the original and transformed trajectories on
    the same grid. Inadmissible tau raises SingularTau before any
    integration starts.
    """
    return _twin_runs(params, init, eta, [tau], cfg)[0]


def tau_sweep(params: Params, init: Sequence[float], eta: EtaSignal,
              taus: Sequence[float], cfg: SimConfig = SimConfig()
              ) -> list[IndistReport]:
    """One report per tau, from a single run that co-integrates the
    original system with every twin under shared step control.

    An inadmissible tau anywhere in the list raises SingularTau before
    any integration starts. The shared steps follow the hardest twin, so
    the deviations can differ from single runs in the last digits.
    """
    runs = _twin_runs(params, init, eta, taus, cfg)
    return [report for report, _, _ in runs]


def _twin_runs(params: Params, init: Sequence[float], eta: EtaSignal,
               taus: Sequence[float], cfg: SimConfig
               ) -> list[tuple[IndistReport, Trajectory, Trajectory]]:
    """Report, original and transformed trajectory for each tau.

    The twins are stacked as rows of one (len(taus), 6) state: original
    states first, transformed second. Every row starts from the same
    original state and is advanced elementwise, so the original columns
    are bit-identical in all rows. Each right-hand side evaluation reads
    eta once, evaluates the original system once on Python floats (row
    0), eta' for all twins from those shared states, and only the twins'
    vector field on numpy columns; the original trajectory is built once
    and shared by every twin's result. A single twin keeps the state flat
    and runs on Python floats, about ten times faster than numpy on one
    row.
    """
    # every SingularTau before any integration
    insts = [TauFamily(tau=tau, params=params) for tau in taus]
    if not insts:
        return []
    m = hiv_model()
    grid = cfg.grid()
    _signals(m, eta, grid)  # rejects an eta that is not finite and >= 0
    base = _param_values(m, params.as_dict())
    primed = [_param_values(m, inst.params_prime.as_dict()) for inst in insts]
    rhs = _rhs(m).float_fn()
    init = [float(v) for v in init]
    y0 = [init + list(inst.map_state(*init)) for inst in insts]

    if len(insts) == 1:
        inst, primed = insts[0], primed[0]

        def f(t, y):
            et = eta(t)
            orig = y[:3]
            return (rhs(*orig, et, *base)
                    + rhs(*y[3:], inst.eta(*orig, et), *primed))

        states = _solve(f, y0[0], cfg)[:, None, :]
    else:
        u = np.array([inst.u for inst in insts])
        primed = np.array(primed).T

        def f(t, y):
            et = eta(t)
            orig = y[0, :3].tolist()  # every row holds this original state
            et_p = eta_prime_values(*orig, et, params, u=u)
            dy = np.empty(y.shape)
            dy[:, :3] = rhs(*orig, et, *base)
            for j, col in enumerate(rhs(*y[:, 3:].T, et_p, *primed), 3):
                dy[:, j] = col
            return dy

        states = _solve(f, y0, cfg)

    # the HIV outputs read the states only: one program for every trajectory
    outputs = compile_program([e for _, e in m.outputs], m.states)
    orig = _trajectory(m, outputs, grid, states[:, 0, :3])  # shared by all
    runs = []
    for i, inst in enumerate(insts):
        prim = _trajectory(m, outputs, grid, states[:, i, 3:])
        out_dev = (np.abs(prim.outputs - orig.outputs)
                   / (1.0 + np.abs(orig.outputs)))
        mapped = np.column_stack(inst.map_state(*orig.states.T))
        map_dev = np.abs(prim.states - mapped) / (1.0 + np.abs(mapped))
        runs.append((IndistReport(
            tau=inst.tau,
            max_rel_output_dev=float(np.max(out_dev)),
            max_rel_state_map_dev=float(np.max(map_dev)),
            grid_size=len(grid),
            params=params,
            params_prime=inst.params_prime,
            admissible_tau_interval=admissible_tau_interval(params),
            eta_text=eta.text(),
            config=cfg,
        ), orig, prim))
    return runs


# --------------------------------------------------- relation residuals

def phi_residual_along(trajectory: Trajectory, params: Params,
                       eta: EtaSignal, variant: str = CORRECTED) -> float:
    """Worst scaled residual of the input-output relation along a
    trajectory.

    Output derivatives come from the exact jets evaluated on the sampled
    states with the eta chain differentiated symbolically in t. The
    residual at each grid point is |sum of terms| / max |term|, so it is
    dimensionless; an identically satisfied relation stays at rounding
    level while a wrong one is order one. An empty grid returns 0.
    """
    return phi_residuals_along(trajectory, params, eta, [variant])[variant]


def phi_residuals_along(trajectory: Trajectory, params: Params,
                        eta: EtaSignal, variants: Sequence[str]
                        ) -> dict[str, float]:
    """`phi_residual_along` for each variant of the relation. The eta
    chain and the output jets are compiled and evaluated once for all
    variants; only each variant's terms are compiled on their own."""
    if len(trajectory.times) == 0:
        return {variant: 0.0 for variant in variants}
    m = hiv_model()
    grid = trajectory.times
    consts = [np.full_like(grid, v) for v in _param_values(m, params.as_dict())]

    # the relation is second order: jets to order 2, which read eta and eta'
    tv = m.tv_params[0]
    etas = [np.broadcast_to(np.asarray(fn(grid), dtype=float), grid.shape)
            for fn in eta.derivative_chain(1)]
    jets = compile_program(
        [e for i in (1, 2) for e in output_jet(m, i, 2).entries],
        [*m.states, *m.const_params, tv, tv.derivative(1)])
    jet_vals = jets.float_fn()(*trajectory.states.T, *consts, *etas)
    jet_symbols = [output_symbol(m, i, k) for i in (1, 2) for k in range(3)]

    residuals = {}
    for variant in variants:
        relation = build_phi(variant, m).expression
        terms = compile_program(
            relation.args if isinstance(relation, expr.Sum) else [relation],
            [*jet_symbols, *m.const_params])
        term_vals = np.column_stack(
            [np.broadcast_to(v, grid.shape)
             for v in terms.float_fn()(*jet_vals, *consts)])
        total = np.abs(term_vals.sum(axis=1))
        scale = np.abs(term_vals).max(axis=1)
        residual = np.where(scale > 0,
                            total / np.where(scale > 0, scale, 1.0), 0.0)
        residuals[variant] = float(residual.max())
    return residuals


# ----------------------------------------------------------- CSV export

def write_trajectory_csv(fileobj, trajectory: Trajectory,
                         primed: Trajectory | None = None) -> None:
    """Header: t,T_U,T_I,V,y1,y2 and, with a twin, the _p columns."""
    writer = csv.writer(fileobj)
    header = ["t", *trajectory.state_names, *trajectory.output_names]
    columns = [trajectory.times[:, None], trajectory.states,
               trajectory.outputs]
    if primed is not None:
        header += [f"{n}_p"
                   for n in (*primed.state_names, *primed.output_names)]
        columns += [primed.states, primed.outputs]
    writer.writerow(header)
    for row in np.hstack(columns):
        writer.writerow([repr(float(v)) for v in row])
