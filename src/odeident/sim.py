"""Numerical integration and the indistinguishability experiment.

The integrator is the classic Fehlberg 4(5) embedded pair: the 4th-order
solution is propagated and the difference to the 5th-order solution
drives the step controller. Dense output uses cubic Hermite interpolation
on each accepted step, consistent with 4th-order accuracy (Hairer,
Norsett & Wanner, Solving ODEs I, II.6), and is filled in as the step
is accepted: a step that covers no grid point costs one float
comparison, one that covers a single point evaluates the interpolant at
one scalar theta, and only one that covers several looks them up in the
grid and fills them as one numpy column. Plain, co-integrated and stacked
runs share this one solver loop and one trajectory builder. The loop
calls one step attempt emitted as straight-line Python, in two
renderings. A plain run and one twin step a flat state, one Python float
per component, and their attempt holds the vector field's program in
line: each of the five stages evaluates it on its own local floats, with
no call. That attempt is compiled once per field source text and bound
per run to the field's constants and parameters and, for a twin, its
pole check; Python calls the field only for the derivative at each state
the run keeps, and a stage that divides by zero goes to the pole check,
if any, and is re-raised, without calling the field. A sweep's stacked
2-D state is one numpy array, and each stage calls the field once on
all rows; the time there goes to numpy operations on small arrays, which
fusing would not remove, and no fused or re-laid-out stacked rendering
tried has measured faster. Both renderings round their stage sums exactly
as the generic `y + h * sum(a * k for ...)` does. A run that needs more
than `_MAX_ATTEMPTS` step attempts stops with StepBudgetExceeded.

A run compiles one program per evaluation site: one for the vector field
and one for the outputs of all its trajectories (every twin of a sweep
included). The vector field includes eta: the signal's expression in t
stands in for the model's time-varying parameter, and the program takes
t in its place, so each right-hand side evaluation runs one program.
The signal's own program still samples eta on the grid. Relation
residuals compile two programs: eta with eta', and the terms of every
relation variant composed with the output jets by
`ranktest.substitute_dynamics`, as one program over the states, the
parameters, eta and eta'.

The indistinguishability experiment co-integrates the original system and
the transformed one as a single 6-state ODE. The transformed eta is
evaluated pointwise from the co-integrated ORIGINAL states (its closed
form is a function of the original trajectory), so no interpolation error
enters the coupling. One program, built by `_twin_field` from the closed
forms, holds the whole 6-state field, eta and eta' included. A single
twin runs it on Python floats, as a plain run does. A tau sweep stacks
one row per twin and runs the program once per right-hand side call, on
the shared original states as Python floats and the twins' states as
numpy columns. For one twin and a sweep alike, one check runs eta''s
pole rule, `transform.eta_prime_poles`, at t0 and once per accepted
step, not per call; a single twin's stage that divides by zero runs it
too. Reported are the worst relative deviation between
the two output pairs, and the stronger check: the worst deviation
between the integrated transformed states and the algebraic image of the
original states.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expr
from .expr import (AUX, Expression, Symbol, compile_float_fn,
                   compile_program, free_symbols)
from .model import OdeModel, hiv_model
from .ranktest import CORRECTED, build_phi, substitute_dynamics
from .transform import (Params, SingularPoint, TauFamily,
                        admissible_tau_interval, eta_prime_expr,
                        eta_prime_poles)

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
    between grid points, or a window far longer than the dynamics). The
    budget is absolute; the message says how far through its window the
    run got."""


class NonFiniteState(expr.ExprError):
    """A state stopped being finite during integration."""


class EtaSignal:
    """A time-varying parameter signal: a constant or an expression in t."""

    def __init__(self, expression: Expression):
        extra = free_symbols(expression) - {TIME_SYMBOL}
        if extra:
            names = ", ".join(sorted(s.display for s in extra))
            raise ValueError(f"eta signal may depend on t only, found: {names}")
        self.expression = expression
        self._fn = compile_float_fn(expression, [TIME_SYMBOL])

    @classmethod
    def from_text(cls, text: str) -> "EtaSignal":
        table = expr.SymbolTable([TIME_SYMBOL])
        return cls(expr.parse_expression(text, table))

    def __call__(self, t):
        return self._fn(t)

    def text(self) -> str:
        return expr.to_text(self.expression)


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
        if not math.isfinite(self.tf - self.t0):
            raise ValueError("tf - t0 must be finite")
        # float64 meets no tighter tolerance: at 3e-14 a default tau run
        # spends its whole step budget halfway through the window
        for tol in (self.abs_tol, self.rel_tol):
            if not (1e-13 <= tol <= 1e-2):
                raise ValueError("tolerances must lie in [1e-13, 1e-2]")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if self.dense_output_points < 2:
            raise ValueError("dense output grid needs at least 2 points")

    def grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.tf, self.dense_output_points)

    def to_dict(self) -> dict:
        return asdict(self)


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


def _emit_attempt(width: int | None, n_rest: int = 0, prelude=(),
                  body=(), outputs=()) -> str:
    """Source of one RKF45 step attempt of size h from (t, y), where k0 =
    f(t, y). It returns the 4th-order solution y4 and the worst row's sum
    of squared scaled errors, or None as soon as a stage, y4 or the error
    is not finite.

    Each stage sum is rendered as the generic `y + h * sum(a*k for ...)`
    evaluates it, `y + h * (0 + a0*k0 + a1*k1 ...)`, so it rounds the same
    way. Terms with a zero coefficient (k1 and k5 in y4, k1 in the error)
    are left out: a sum that starts at 0 is never -0.0, so adding 0.0*k
    for a finite k changes nothing, and a k1 or k5 that is not finite
    still makes s2 or the error not finite.

    With `width` None the state is one numpy array whose rows are stacked
    systems, the attempt is `_attempt(f, t, h, y, k0, atol, rtol)`, and
    each stage calls f. With an int the state is `width` Python floats,
    one variable each, and the source is `_make(c, rest, check)`: it
    binds a field program's constants c, its `n_rest` inputs after t,
    `rest`, and a pole check or None, and returns `_attempt(t, h, y, k0,
    atol, rtol)`, whose stages run the field in line and call no f.
    `prelude`, `body` and `outputs` come from `Program.inline`: each
    stage names its state and time as the field's inputs v<j>, runs
    `body` and assigns output j, the derivative, to its k<i>_j. A stage
    that divides by zero passes its own time and state to `check`, when
    there is one, so that a twin's stage exactly on its pole raises the
    twin's SingularPoint, and otherwise re-raises the ZeroDivisionError.
    """
    flat = width is not None
    parts = [f"_{j}" for j in range(width)] if flat else [""]

    def vec(name):
        return ", ".join(name + c for c in parts) + ("," if flat else "")

    def stage_sum(coefs, c):
        terms = " + ".join(f"{a!r}*k{i}{c}" for i, a in enumerate(coefs)
                           if a)
        return f"(0 + {terms})"

    def finite(*names):
        if flat:
            return " and ".join(f"isfinite({n}{c})" for n in names
                                for c in parts)
        return " and ".join(f"_finite({n})" for n in names)

    lines = [f"{vec('y')} = y", f"{vec('k0')} = k0"] if flat else []
    for i in range(1, 6):
        if not flat:
            lines += [f"s{i} = y + h * {stage_sum(_A[i], '')}",
                      f"if not ({finite(f's{i}')}): return None",
                      f"k{i} = f(t + {_C[i]!r}*h, s{i})"]
            continue
        # the stage's state and time are the field's inputs v0 ... v<width>
        stage = [f"v{j}" for j in range(width)]
        lines += [f"v{j} = y{c} + h * {stage_sum(_A[i], c)}"
                  for j, c in enumerate(parts)]
        lines += [f"if not ({' and '.join(f'isfinite({v})' for v in stage)})"
                  ": return None",
                  f"v{width} = t + {_C[i]!r}*h", "try:",
                  *(f"    {line}" for line in body),
                  *(f"    k{i}{c} = {o}" for c, o in zip(parts, outputs)),
                  "except ZeroDivisionError:", "    if check is not None:",
                  f"        check(v{width}, [{', '.join(stage)}])",
                  "    raise"]
    lines += [f"y4{c} = y{c} + h * {stage_sum(_B4, c)}" for c in parts]
    lines += [f"e{c} = h * {stage_sum(_E, c)}" for c in parts]
    lines.append(f"if not ({finite('y4', 'e')}): return None")
    if not flat:
        lines += ["q = e / (atol + rtol * np.maximum(np.abs(y), np.abs(y4)))",
                  "return y4, float((q*q).sum(axis=-1).max())"]
        return "".join(["def _attempt(f, t, h, y, k0, atol, rtol):\n",
                        *(f"    {line}\n" for line in lines)])
    lines += [f"q{c} = e{c} / (atol + rtol * max(abs(y{c}), abs(y4{c})))"
              for c in parts]
    lines.append(f"return [{vec('y4')}], "
                 f"{_pairwise([f'q{c}*q{c}' for c in parts])}")
    rest = [f"v{j}" for j in range(width + 1, width + 1 + n_rest)]
    return "".join(["def _make(c, rest, check):\n",
                    "    from math import isfinite\n",
                    *(f"    {line}\n" for line in prelude),
                    *([f"    {', '.join(rest)}, = rest\n"] if rest else []),
                    "    def _attempt(t, h, y, k0, atol, rtol):\n",
                    *(f"        {line}\n" for line in lines),
                    "    return _attempt\n"])


# fused step attempts kept per process, one per field source text and
# state width, each 10 KiB (a plain HIV run) to 20 KiB (a twin) of code.
# Parameters, tau and u are inputs of the field, not constants, so runs
# that scan them share one; a second signal or model takes another
_KEPT_ATTEMPTS = 4
_flat_makers: dict = {}


@functools.cache
def _stacked_attempt():
    """`_emit_attempt(None)` compiled, once."""
    namespace = {"_finite": _finite, "np": np}
    exec(_emit_attempt(None), namespace)  # generated from the tableau only
    return namespace["_attempt"]


def _attempt_fn(field: expr.Program, rest: Sequence, check=None):
    """The step attempt `attempt(t, h, y, k0, atol, rtol)` of a flat
    state, which runs the program `field` on the stage's state, t and
    `rest` in line. It is compiled once per field source text and width,
    for the `_KEPT_ATTEMPTS` latest, and bound here to the field's
    constants, `rest` and `check(t, y)`, which a stage that divides by
    zero calls, if given, before it re-raises."""
    width = field.n_inputs - 1 - len(rest)
    key = field.source(), width
    make = _flat_makers.get(key)
    if make is None:
        if len(_flat_makers) >= _KEPT_ATTEMPTS:
            del _flat_makers[next(iter(_flat_makers))]
        make = _flat_makers[key] = field.inline(
            functools.partial(_emit_attempt, width, len(rest)))
    return make(field.float_constants(), rest, check)


def _flat_field(field: expr.Program, rest: Sequence):
    """f(t, y) of a flat state y, a list of Python floats: `field` run on
    (*y, t, *rest), as `_attempt_fn` runs it."""
    fn = field.float_fn()
    return lambda t, y: fn(*y, t, *rest)


def _solve(f, y0, cfg: SimConfig, check=None, attempt=None) -> np.ndarray:
    """Adaptive RKF45 over the window of `cfg`; returns the states on
    `cfg.grid()`, shaped (grid points, *y0.shape).

    The states the run keeps, the start state and each accepted step's
    end, pass one rule: `check(t, y)`, if given, tests the state and
    raises to stop the run, then f is called there, and a derivative that
    is not finite raises NonFiniteState. Stage states are not checked,
    but a run whose step shrinks below the smallest resolvable one while
    its last attempt was not finite raises NonFiniteState, not
    StepSizeUnderflow: no step from there stays finite, which is an
    overflow and no sign of stiffness or a pole.

    Given `attempt`, a flat attempt from `_attempt_fn`, `y0` is one system
    stepped on Python floats, and f, from `_flat_field`, takes and returns
    a list: a step that covers one grid point fills it without converting
    to numpy. Otherwise `y0` is 2-D, one system per row, stepped as one
    numpy array by `_stacked_attempt`, bound here to f: each stage calls f
    on all rows, and all rows take the same steps. Either attempt is
    called as `attempt(t, h, y, k0, atol, rtol)`. The step error is the
    largest of the rows' RMS errors, so no row is held to a looser
    tolerance than in a run of its own. A run gives up with
    StepBudgetExceeded after `_MAX_ATTEMPTS` step attempts; a scalar
    division by zero in the field raises DivisionByZero, and a scalar
    overflow NonFiniteState.

    Each accepted step fills the grid points it covers by cubic Hermite
    interpolation and is then dropped, so only the current step is held.
    A point belongs to the first step whose right end lies above it; the
    last step also takes points up to 1e-12 past its end. Points still
    left get the final state, which is the initial state when the window
    is too short for a single step. The next grid time is kept as a
    Python float, so a step that covers none makes no numpy call. The
    first step is a hundredth of the window, but no less than the
    smallest step resolvable at t0.
    """
    grid = cfg.grid()
    t, tf = cfg.t0, cfg.tf
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    max_step = cfg.max_step if cfg.max_step is not None else tf - t
    y0 = np.asarray(y0, dtype=float)
    flat = attempt is not None
    y = y0.tolist() if flat else y0
    # a list of Python floats is checked without a trip through numpy
    finite = (lambda v: all(map(math.isfinite, v))) if flat else _finite
    if not finite(y):
        raise NonFiniteState("initial state is not finite")
    width = y0.shape[-1]
    attempt = attempt or functools.partial(_stacked_attempt(), f)

    def derivative(t, y):  # at a state the run keeps
        if check is not None:
            check(t, y)
        dy = f(t, y)
        if not finite(dy):
            raise NonFiniteState(f"derivative not finite at t = {t}")
        return dy

    states = np.empty((len(grid), *y0.shape))
    filled = 0
    t_next = grid.item(0)  # the first grid point not yet filled
    at_end = 1e-13 * max(abs(tf), 1.0)  # this close to tf counts as there
    h = min(max_step, max((tf - t) / 100.0, 1e-14 * max(abs(t), 1.0)))
    attempts = 0
    step = ()  # the last attempt's result, None when it was not finite
    try:
        f_left = derivative(t, y)
        while tf - t > at_end:
            h = min(h, max_step, tf - t)
            if h < 1e-14 * max(abs(t), 1.0):
                if step is None:
                    raise NonFiniteState(f"no step from t = {t} stays finite")
                raise StepSizeUnderflow(f"step size underflow at t = {t}")
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                raise StepBudgetExceeded(
                    f"no end after {_MAX_ATTEMPTS} step attempts, at t = {t} "
                    f"of [{cfg.t0}, {tf}] ({(t - cfg.t0) / (tf - cfg.t0):.0%})")
            step = attempt(t, h, y, f_left, atol, rtol)
            if step is None:
                h *= _MIN_SHRINK
                continue
            y4, sq = step
            err = math.sqrt(sq / width)
            if err <= 1.0:
                t_right = t + h
                f_right = derivative(t_right, y4)
                # the step covers the grid points below `end`
                if tf - t_right > at_end:
                    end = t_right
                else:  # the last step: up to t_right + 1e-12 inclusive
                    end = math.nextafter(t_right + 1e-12, math.inf)
                if t_next < end:
                    if filled + 1 < len(grid) and grid.item(filled + 1) < end:
                        # several points: one search, one column fill (on
                        # a dense grid, point by point is several times
                        # slower)
                        stop = grid.searchsorted(end, "left")
                        theta = (grid[filled:stop] - t) / h
                        states[filled:stop] = _hermite(
                            theta.reshape(-1, *(1,) * y0.ndim), h,
                            *np.array((y, y4, f_left, f_right)))
                        filled = stop
                    else:  # one point, at a scalar theta
                        theta = (t_next - t) / h
                        states[filled] = (
                            [_hermite(theta, h, *c)
                             for c in zip(y, y4, f_left, f_right)] if flat
                            else _hermite(theta, h, y, y4, f_left, f_right))
                        filled += 1
                    t_next = (grid.item(filled) if filled < len(grid)
                              else math.inf)
                t, y, f_left = t_right, y4, f_right
                if err == 0:
                    h *= _MAX_GROW
                else:
                    h *= min(_MAX_GROW, max(_MIN_SHRINK, _SAFETY * err ** -0.2))
            else:
                h *= max(_MIN_SHRINK, _SAFETY * err ** -0.2)
    except ZeroDivisionError as exc:  # a quotient of Python floats
        raise expr.DivisionByZero(str(exc)) from None
    except OverflowError:  # a power of Python floats, in the step from t
        raise NonFiniteState(f"derivative overflows in the step from t = {t} "
                             f"to {min(t + h, tf)}") from None
    states[filled:] = y
    if not _finite(states):
        raise NonFiniteState("trajectory left the finite domain")
    return states


def _hermite(theta, h, y0, y1, f0, f1):
    """The cubic Hermite interpolant of a step of size h from (y0, f0) to
    (y1, f1), at the fraction theta of the step. theta is a Python float
    or an array shaped to broadcast against the states; one formula
    serves a component on Python floats, a stacked state and a column of
    grid points, so each rounds alike."""
    d = y1 - y0
    return ((1 - theta) * y0 + theta * y1
            + theta * (theta - 1)
            * ((1 - 2 * theta) * d + (theta - 1) * h * f0 + theta * h * f1))


# ------------------------------------------------------- shared set-up

def _signals(m: OdeModel, eta: EtaSignal | None,
             grid: np.ndarray) -> tuple[list[EtaSignal], list[np.ndarray]]:
    """The signal of the model's time-varying parameter and its values on
    the grid, as lists of one, or of none for a model without one (`eta`
    is then ignored). The values must be finite and nonnegative. A model
    with several time-varying parameters is refused: a run takes one
    signal."""
    if not m.tv_params:
        return [], []
    if len(m.tv_params) > 1:
        raise ValueError(f"model has {len(m.tv_params)} time-varying "
                         f"parameters; simulation takes one eta signal")
    if eta is None:
        raise ValueError("model has a time-varying parameter; pass eta")
    name = m.tv_params[0].name
    with np.errstate(all="ignore"):  # a pole on the grid is reported below
        col = np.broadcast_to(np.asarray(eta(grid), dtype=float), grid.shape)
    if not _finite(col):
        raise ValueError(f"{name} is not finite on the window")
    if np.any(col < 0):
        raise ValueError(f"{name} goes negative on the window")
    return [eta], [col]


def _param_values(m: OdeModel, params: Mapping[str, float]) -> list[float]:
    missing = [s.name for s in m.const_params if s.name not in params]
    if missing:
        raise ValueError("missing parameter value(s): " + ", ".join(missing))
    return [float(params[s.name]) for s in m.const_params]


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
    except OverflowError:  # a power of scalar values only
        raise NonFiniteState("an output overflows on the grid") from None
    return Trajectory(times=grid, states=states, outputs=values,
                      state_names=tuple(s.name for s in m.states),
                      output_names=m.output_names)


# ------------------------------------------------------------- integrate

def integrate(m: OdeModel, params: Mapping[str, float],
              init: Sequence[float], eta: EtaSignal | None = None,
              cfg: SimConfig = SimConfig()) -> Trajectory:
    """Integrate the model and sample it on the dense-output grid.

    Outputs are recomputed from the sampled states, so the reported
    outputs satisfy the output definitions exactly by construction.
    `eta` is the signal of the model's one time-varying parameter (see
    `_signals`); it must be nonnegative at the grid sample points. Its
    expression is compiled into the vector field, which takes t in the
    parameter's place and runs eta's operations in the order the signal
    runs them. So the states are bit for bit those of the model's own
    program fed with `eta(t)`: only an eta of 0, whose terms fold away,
    can flip the sign of a zero derivative, which no stage sum or state
    keeps. A division by zero in the field, eta's own at its pole
    included, raises DivisionByZero.
    """
    if len(init) != len(m.states):
        raise ValueError(f"expected {len(m.states)} initial values")
    grid = cfg.grid()
    sigs, cols = _signals(m, eta, grid)
    pvals = _param_values(m, params)
    field = compile_program(
        expr.substitute_many(m.rhs, {tv: sig.expression for tv, sig
                                     in zip(m.tv_params, sigs)}),
        [*m.states, TIME_SYMBOL, *m.const_params])
    states = _solve(_flat_field(field, pvals), init, cfg,
                    attempt=_attempt_fn(field, pvals))
    outputs = compile_program([e for _, e in m.outputs],
                              [*m.states, *m.tv_params, *m.const_params])
    return _trajectory(m, outputs, grid, states, *cols, *pvals)


# ---------------------------------------------- indistinguishability run

@dataclass(frozen=True)
class IndistReport:
    """Worst-case deviations between the original system and one
    transformed twin over the integration window."""

    tau: float
    params: Params
    params_prime: Params
    admissible_tau_interval: tuple[float | None, float | None]
    max_rel_output_dev: float
    max_rel_state_map_dev: float
    grid_size: int
    eta_text: str
    config: SimConfig

    def to_dict(self) -> dict:
        """The fields in their order, the parameters keyed by their names
        in `Params.as_dict`, the interval as a list and `eta_text` as
        "eta"."""
        fields = {**asdict(self), "params": self.params.as_dict(),
                  "params_prime": self.params_prime.as_dict(),
                  "admissible_tau_interval": list(self.admissible_tau_interval)}
        return {("eta" if k == "eta_text" else k): v
                for k, v in fields.items()}


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
    are bit-identical in all rows, and the original trajectory is built
    once and shared by every twin's result. `_twin_field` gives the one
    vector field for one twin and for many; a single twin keeps the state
    flat on Python floats, about ten times faster than numpy on one row.
    """
    # every SingularTau before any integration
    insts = [TauFamily(tau=tau, params=params) for tau in taus]
    if not insts:
        return []
    m = hiv_model()
    grid = cfg.grid()
    _signals(m, eta, grid)  # rejects an eta that is not finite and >= 0
    init = [float(v) for v in init]
    y0 = [init + list(inst.map_state(*init)) for inst in insts]

    f, check, attempt = _twin_field(m, eta, insts)
    try:
        # the stacked eta' divides by zero, or overflows, at or near a
        # twin's pole, and for a u == 1 twin at V = 0, whose row f
        # replaces. check raises at a pole the run keeps, at t0 or at an
        # accepted step, for one twin as for a sweep; a stage there is
        # not finite and is rejected. A flat run divides no numpy values
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            states = _solve(f, y0[0] if attempt else y0, cfg, check, attempt)
    except (StepSizeUnderflow, NonFiniteState, expr.DivisionByZero) as exc:
        # the SingularPoint of check, at a kept state or a flat stage
        # exactly at the pole, names the twin itself
        raise type(exc)(f"{exc}, for {_where(insts)}") from None
    states = states.reshape(len(grid), len(insts), 6)

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
            params=params,
            params_prime=inst.params_prime,
            admissible_tau_interval=admissible_tau_interval(params),
            max_rel_output_dev=float(np.max(out_dev)),
            max_rel_state_map_dev=float(np.max(map_dev)),
            grid_size=len(grid),
            eta_text=eta.text(),
            config=cfg,
        ), orig, prim))
    return runs


def _twin_field(m: OdeModel, eta: EtaSignal, insts: Sequence[TauFamily]):
    """The vector field f(t, y) of the original system co-integrated with
    the twins `insts`, the pole check `check(t, y)` and the step attempt
    that `_solve` takes. For one twin y is flat, the original states then
    the twin's, and f and the attempt come from `_flat_field` and
    `_attempt_fn`, as a plain run's do, with the pole check passed in to
    the attempt; check is None if u == 1, which has no pole. For several,
    y stacks one row per twin and the attempt is None: `_solve` takes the
    stacked one.

    f calls one program, built from the closed forms that
    `verify_identities` proves: the model right-hand side on the original
    states, the same on the twins' states and parameters with eta' =
    `eta_prime_expr()` in place of eta (eta itself for one twin with
    u == 1). eta's expression in t stands in for eta throughout, so the
    program takes t.
    The parameters and u are inputs, not folded constants, so every value
    rounds as eta's, the model's own program and `eta_prime_value` round
    it. The stacked f passes the original states (row 0, which every row
    holds) as Python floats and the twins' states, primed constants and u
    as numpy columns, so each row rounds as its twin's flat f; numpy's
    division and overflow warnings are left to the caller. A u == 1 row
    takes the original row's derivative, exactly: at u == 1 the state
    map, `transform_params` and eta' are identities.

    No f tests a call for eta''s pole. One `check` tests the original
    states with `eta_prime_poles`, on Python floats for one twin and by
    one reduction over the u column for a sweep; `_solve` calls it on the
    start state and each accepted step's end, so a stage near a pole is
    only a rejected step. At a pole it raises, after eta(t), the first such
    twin's SingularPoint through `inst.eta`, naming the twin. The flat
    attempt sends a stage's division by zero, a stage exactly on a pole,
    through `check` and then re-raises it; f itself checks nothing, and
    any other division by zero propagates, eta's own at its pole
    included.
    """
    states_p, consts_p = ([Symbol(s.name + "'", AUX) for s in symbols]
                          for symbols in (m.states, m.const_params))
    images = dict(zip((*m.states, *m.const_params),
                      map(expr.sym, (*states_p, *consts_p))))
    flat = len(insts) == 1
    if not flat or insts[0].u != 1:
        images[m.tv_params[0]] = eta_prime_expr()
    program = compile_program(
        expr.substitute_many([*m.rhs, *expr.substitute_many(m.rhs, images)],
                             {m.tv_params[0]: eta.expression}),
        [*m.states, *states_p, TIME_SYMBOL, *m.const_params, *consts_p,
         Symbol("u", AUX)])
    base = _param_values(m, insts[0].params.as_dict())
    primed = [_param_values(m, inst.params_prime.as_dict()) for inst in insts]
    u = insts[0].u if flat else np.array([inst.u for inst in insts])

    def check(t, y):
        orig = y[:3] if flat else y[0, :3].tolist()
        poles = eta_prime_poles(*orig, insts[0].params, u)
        if poles if flat else poles.any():
            inst = insts[int(np.argmax(poles))]  # the first at its pole
            try:
                inst.eta(*orig, eta(t))
            except SingularPoint as exc:
                raise SingularPoint(f"{exc}, for {_where([inst])}") from None

    if flat:
        rest = [*base, *primed[0], u]
        check = check if u != 1 else None
        return (_flat_field(program, rest), check,
                _attempt_fn(program, rest, check))

    field = program.float_fn()
    rest = [*base, *np.array(primed).T, u]
    ones = np.flatnonzero(u == 1)

    def f(t, y):
        cols = field(*y[0, :3].tolist(), y[:, 3], y[:, 4], y[:, 5], t, *rest)
        dy = np.empty(y.shape)
        dy[:, :3] = cols[:3]
        dy[:, 3], dy[:, 4], dy[:, 5] = cols[3:]
        if ones.size:
            dy[ones, 3:] = cols[:3]
        return dy

    return f, check, None


def _where(insts: Sequence[TauFamily]) -> str:
    """The twins `insts` as an error names them: the tau, or the tau range
    of a sweep, and for twins with u < 1 the ratio T_I/T_U at which their
    eta' has its pole."""
    taus = [inst.tau for inst in insts]
    where = (f"tau = {taus[0]:.6g}" if len(taus) == 1
             else f"tau in [{min(taus):.6g}, {max(taus):.6g}]")
    poles = sorted(inst.pole for inst in insts if inst.u < 1)
    if len(poles) == 1:
        where += f" (eta' has its pole at T_I/T_U = {poles[0]:.3g})"
    elif poles:
        where += (f" (the twins' eta' have poles at T_I/T_U from "
                  f"{poles[0]:.3g} to {poles[-1]:.3g})")
    return where


# --------------------------------------------------- relation residuals

def phi_residual_along(trajectory: Trajectory, params: Params,
                       eta: EtaSignal, variant: str = CORRECTED) -> float:
    """Worst scaled residual of the input-output relation along a
    trajectory: `phi_residuals_along` for one variant.

    Output derivatives come from the exact jets evaluated on the sampled
    states, with eta' the exact t-derivative of eta's expression. The
    residual at each grid point is |sum of terms| / max |term|, so it is
    dimensionless; an identically satisfied relation stays at rounding
    level while a wrong one is order one. An empty grid returns 0.
    """
    return phi_residuals_along(trajectory, params, eta, [variant])[variant]


# grid points per block of phi_residuals_along: its programs' temporaries
# are block-length arrays, about 200 bytes per point, so a block peaks near
# 1 MB whatever the grid, and at the default 401 points one block is the grid
_PHI_BLOCK = 4096


def phi_residuals_along(trajectory: Trajectory, params: Params,
                        eta: EtaSignal, variants: Sequence[str]
                        ) -> dict[str, float]:
    """`phi_residual_along` for each variant of the relation, from two
    programs: eta with eta', and the terms of every variant composed with
    the output jets by `substitute_dynamics`, the very terms whose sum
    `phi_vanishes_on_dynamics` proves zero. Each runs once per block of
    `_PHI_BLOCK` grid points, and the residual is the largest of the
    blocks'. eta and eta' enter the terms as columns: substituted into
    them, an eta of 0 folds the infection terms away and changes the
    residual's last bits. A term that is not finite at a grid point, or a
    sum of terms that overflows, raises `NonFiniteState`."""
    if len(trajectory.times) == 0:
        return {variant: 0.0 for variant in variants}
    m = hiv_model()
    values = _param_values(m, params.as_dict())

    tv = m.tv_params[0]
    (eta_dt,), = expr.partials([eta.expression], [TIME_SYMBOL])
    signal = compile_program([eta.expression, eta_dt],
                             [TIME_SYMBOL]).float_fn()
    terms = [r.args if isinstance(r, expr.Sum) else (r,)
             for r in map(build_phi, variants)]
    # the relation is second order: along the dynamics its terms read the
    # states, the parameters, eta and eta'
    program = compile_program(
        substitute_dynamics([[term for ts in terms for term in ts]])[0],
        [*m.states, *m.const_params, tv, tv.derivative(1)]).float_fn()

    def block_maxima(lo: int) -> list[float]:
        # each variant's largest residual on the block from `lo`; the
        # block's columns go with the call, before the next block's run
        grid = trajectory.times[lo:lo + _PHI_BLOCK]
        consts = [np.full_like(grid, v) for v in values]
        etas = [np.broadcast_to(np.asarray(v, dtype=float), grid.shape)
                for v in signal(grid)]
        outputs = iter(program(*trajectory.states[lo:lo + _PHI_BLOCK].T,
                               *consts, *etas))
        maxima = []
        for ts in terms:
            term_vals = np.column_stack(
                [np.broadcast_to(next(outputs), grid.shape) for _ in ts])
            total = np.abs(term_vals.sum(axis=1))
            # a term that is not finite, or a sum that overflows, leaves
            # the sum so; the residual would read it as 0 or NaN
            if not _finite(total):
                raise NonFiniteState("a term of the relation overflows on "
                                     "the grid")
            scale = np.abs(term_vals).max(axis=1)
            residual = np.where(scale > 0,
                                total / np.where(scale > 0, scale, 1.0), 0.0)
            maxima.append(residual.max())
        return maxima

    with np.errstate(all="ignore"):  # a term that overflows is reported
        blocks = [block_maxima(lo)
                  for lo in range(0, len(trajectory.times), _PHI_BLOCK)]
    return {variant: float(max(maxima[i] for maxima in blocks))
            for i, variant in enumerate(variants)}


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
