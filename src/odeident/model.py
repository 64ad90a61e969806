"""ODE models with rational right-hand sides, a small text format, and the
dynamics-constrained output-derivative (jet) engine.

A model has states, constant parameters, time-varying parameters and named
outputs. Time-varying parameters are handled purely symbolically through
their derivative chain eta, eta', eta'', ...; no functional form is
assumed. The bundled HIV within-host model (uninfected cells T_U, infected
cells T_I, free virus V, time-varying infection rate eta) ships both as a
constructor and as a model file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

from . import expr
from .expr import (
    CONST_PARAM, OUTPUT_DERIV, STATE, TV_DERIV, DuplicateDeclaration,
    Expression, ParseError, Symbol, SymbolTable, UndeclaredSymbol,
)

__all__ = [
    "MixedModeSymbols", "MissingOdeForState", "OdeModel", "OutputJet",
    "HIV_MODEL_TEXT", "derivative_chain", "hiv_model", "output_jet",
    "output_symbol", "parse_model", "print_model", "total_time_derivative",
]

class MissingOdeForState(expr.ExprError):
    """A declared state has no `ode` line."""

    def __init__(self, names: Iterable[str]):
        names = sorted(names)
        super().__init__("missing ode line for state(s): " + ", ".join(names))
        self.names = names


class MixedModeSymbols(expr.ExprError):
    """State symbols and output-derivative symbols cannot mix in one
    total-time-derivative call; outputs already hide the state dependence."""


@dataclass(frozen=True)
class OdeModel:
    """Immutable ODE model: x' = f(x, params, tv-params), named outputs."""

    name: str
    states: tuple[Symbol, ...]
    const_params: tuple[Symbol, ...]
    tv_params: tuple[Symbol, ...]
    rhs: tuple[Expression, ...]  # aligned with states
    outputs: tuple[tuple[str, Expression], ...]

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.outputs)


def output_symbol(m: OdeModel, output_index: int, order: int = 0) -> Symbol:
    """Symbol for the k-th time derivative of the i-th output (1-based i)."""
    i, n = output_index, len(m.outputs)
    if not (isinstance(i, int) and 1 <= i <= n):
        raise ValueError(f"output index {i!r} is outside the range 1..{n}")
    return Symbol(m.outputs[i - 1][0], OUTPUT_DERIV, order=order, output_index=i)


# ------------------------------------------------------------- model text
#
# Line oriented, '#' starts a comment:
#   model <name>
#   states <id>+
#   params <id>*
#   tvparams <id>*
#   ode <state> = <expression>
#   output <id> = <expression>

def parse_model(text: str) -> OdeModel:
    directives: list[tuple[int, str, str, str]] = []  # (line, head, rest, raw)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, _, rest = line.strip().partition(" ")
        directives.append((lineno, head, rest.strip(), line))
    if not directives:
        raise ParseError("empty model text", 1, 1)

    name = None
    groups: dict[str, list[Symbol]] = {"states": [], "params": [], "tvparams": []}
    kinds = {"states": STATE, "params": CONST_PARAM, "tvparams": TV_DERIV}
    declared: dict[str, int] = {}  # name -> declaring line
    equations: list[tuple[int, str, str, str, int, int]] = []

    def declare(ident: str, lineno: int) -> None:
        if not _is_identifier(ident):
            raise ParseError(f"invalid identifier {ident!r}", lineno, 1)
        if ident in declared:
            raise DuplicateDeclaration(ident, lineno)
        declared[ident] = lineno

    for lineno, head, rest, line in directives:
        if head == "model":
            if name is not None:
                raise DuplicateDeclaration("model", lineno)
            if not _is_identifier(rest):
                raise ParseError("model directive needs one identifier", lineno, 1)
            name = rest
        elif head in groups:
            for ident in rest.split():
                declare(ident, lineno)
                groups[head].append(Symbol(ident, kinds[head]))
        elif head in ("ode", "output"):
            before, eq, after = line.partition("=")
            target = before.split(None, 1)[1].strip() if len(before.split()) > 1 else ""
            if not eq or not after.strip() or not target:
                raise ParseError(f"'{head}' line needs '<name> = <expression>'",
                                 lineno, 1)
            target_col = line.find(target, line.find(head) + len(head)) + 1
            body_col = len(before) + 2 + (len(after) - len(after.lstrip()))
            equations.append((lineno, head, target, after.strip(),
                              target_col, body_col))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)

    if name is None:
        raise ParseError("missing 'model <name>' line", directives[0][0], 1)
    if not groups["states"]:
        raise ParseError("model declares no states", directives[0][0], 1)

    table = _BaseOnlyTable(groups["states"] + groups["params"] + groups["tvparams"])
    state_of = {s.name: s for s in groups["states"]}
    rhs_by_state: dict[str, Expression] = {}
    outputs: list[tuple[str, Expression]] = []
    output_names: set[str] = set()

    for lineno, head, target, body, target_col, body_col in equations:
        if head == "ode":
            if target not in state_of:
                raise UndeclaredSymbol(target, lineno, target_col)
            if target in rhs_by_state:
                raise DuplicateDeclaration(f"ode {target}", lineno)
            rhs_by_state[target] = expr.parse_expression(
                body, table, line=lineno, col=body_col)
        else:
            if not _is_identifier(target):
                raise ParseError(f"invalid output name {target!r}",
                                 lineno, target_col)
            if target in declared or target in output_names:
                raise DuplicateDeclaration(target, lineno)
            output_names.add(target)
            outputs.append((target, expr.parse_expression(
                body, table, line=lineno, col=body_col)))

    missing = [s.name for s in groups["states"] if s.name not in rhs_by_state]
    if missing:
        raise MissingOdeForState(missing)

    return OdeModel(
        name=name,
        states=tuple(groups["states"]),
        const_params=tuple(groups["params"]),
        tv_params=tuple(groups["tvparams"]),
        rhs=tuple(rhs_by_state[s.name] for s in groups["states"]),
        outputs=tuple(outputs),
    )


def _is_identifier(text: str) -> bool:
    if not text or not (text[0].isalpha() or text[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in text)


class _BaseOnlyTable(SymbolTable):
    """Model equations reference declared names only; derivative forms like
    eta' belong to the analysis layers, not to the model text."""

    def resolve(self, name: str, order: int = 0) -> Symbol:
        if order != 0:
            raise ValueError(
                f"derivative symbols are not allowed in model equations "
                f"('{name}' with order {order})")
        return super().resolve(name, 0)


def print_model(m: OdeModel) -> str:
    lines = [f"model {m.name}"]
    lines.append("states " + " ".join(s.name for s in m.states))
    if m.const_params:
        lines.append("params " + " ".join(s.name for s in m.const_params))
    if m.tv_params:
        lines.append("tvparams " + " ".join(s.name for s in m.tv_params))
    for s, f in zip(m.states, m.rhs):
        lines.append(f"ode {s.name} = {expr.to_text(f)}")
    for n, e in m.outputs:
        lines.append(f"output {n} = {expr.to_text(e)}")
    return "\n".join(lines) + "\n"


HIV_MODEL_TEXT = """\
model hiv
states T_U T_I V
params lambda rho delta N c
tvparams eta

# uninfected and infected target cells, free virus
ode T_U = lambda - rho*T_U - eta*T_U*V
ode T_I = eta*T_U*V - delta*T_I
ode V = N*delta*T_I - c*V

output y1 = T_U + T_I
output y2 = V
"""


@lru_cache(maxsize=1)
def hiv_model() -> OdeModel:
    """The bundled HIV within-host model with outputs y1 = T_U + T_I, y2 = V."""
    return parse_model(HIV_MODEL_TEXT)


# ------------------------------------------------------------------- jets

def derivative_chain(m: OdeModel, e: Expression) -> Iterator[Expression]:
    """`e` and its total derivatives along trajectories of `m`: e, e',
    e'', ..., one per step.

    State symbols differentiate to their right-hand sides, and the
    symbols of a derivative chain advance along it: eta^(j) -> eta^(j+1)
    and y^(k) -> y^(k+1). Mixing states with output symbols, which
    already absorb the state dependence, is an error. The chain keeps
    every node's symbol bitmask and every partial it takes, so a step
    differentiates only the nodes that no step before it did; all of
    that dies with the chain.
    """
    d = expr.PartialsMemo()
    while True:
        yield e
        syms = d.see([e]).symbols(e)
        if {STATE, OUTPUT_DERIV} <= {s.kind for s in syms}:
            raise MixedModeSymbols(
                "expression mixes state symbols with output-derivative symbols")
        # each symbol that moves with time, and its time derivative
        moving = [(s, f) for s, f in zip(m.states, m.rhs) if s in syms]
        moving += [(s, expr.sym(s.derivative()))
                   for s in sorted(syms, key=Symbol.sort_key)
                   if s.kind in (TV_DERIV, OUTPUT_DERIV)]
        grads = d.partials([e], [s for s, _ in moving])[0]
        e = expr.add(*(expr.mul(g, f) for g, (_, f) in zip(grads, moving)))


def total_time_derivative(m: OdeModel, e: Expression) -> Expression:
    """Total derivative of `e` along trajectories of `m`: entry 1 of its
    `derivative_chain`, which the single-step callers take."""
    return list(islice(derivative_chain(m, e), 2))[1]


@dataclass(frozen=True)
class OutputJet:
    """An output and its total time derivatives up to some order.

    Entry k is y^(k) written in states, constant parameters, and the
    time-varying parameter chain up to order k-1.
    """

    output_index: int
    entries: tuple[Expression, ...]

    @property
    def order(self) -> int:
        return len(self.entries) - 1


def output_jet(m: OdeModel, output_index: int, order: int) -> OutputJet:
    """Jet of the 1-based `output_index`-th output of `m` up to `order`:
    the first order + 1 entries of the output's `derivative_chain`."""
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    output_symbol(m, output_index)  # checks the index before any work
    chain = derivative_chain(m, m.outputs[output_index - 1][1])
    return OutputJet(output_index, tuple(islice(chain, order + 1)))
