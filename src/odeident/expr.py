"""Exact symbolic expressions over rational constants and named symbols.

Expressions are immutable DAGs built from sums, differences, products,
quotients and integer powers. Every coefficient is an exact rational
(`fractions.Fraction`); floating point exists only as an evaluation mode.
Two expressions are equal as rational functions exactly when
`normalize(a - b).is_zero`: the difference is expanded into numerator and
denominator, so the test never relies on simplification heuristics or
numerics.

This module builds and reads expressions; `odeident.canonical` decides
equality (`normalize`) and `odeident.program` evaluates (`compile_program`).
Their names here load their module on first access, so building a model
compiles neither.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module as _import_module
from typing import Iterable, Mapping, Sequence

__all__ = [
    "AUX", "CONST_PARAM", "OUTPUT_DERIV", "STATE", "TV_DERIV",
    "Const", "Difference", "Expression", "Power", "Product", "Quotient",
    "Sum", "Sym", "Symbol", "SymbolTable",
    "PartialsMemo", "RationalCanonical", "Program",
    "ExprError", "ParseError", "UndeclaredSymbol", "DuplicateDeclaration",
    "UnboundSymbol", "DivisionByZero", "DenominatorIdenticallyZero",
    "ExpressionTooLarge",
    "add", "compile_float_fn", "compile_program", "const", "differentiate",
    "div", "evaluate", "free_symbols", "is_identifier", "mul", "neg",
    "normalize",
    "parse_expression", "partials", "pow_", "sub", "substitute_many", "sym",
    "to_text", "ZERO", "ONE",
]

# Names of the modules built on this one; each loads its module on first
# access. The benchmark reads the one private name here, `_OP_MUL`.
_LAZY_EXPORTS = {
    "canonical": ("RationalCanonical", "normalize"),
    "program": ("Program", "compile_float_fn", "compile_program", "evaluate",
                "_OP_MUL"),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items()
         for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        _import_module(f".{_LAZY[name]}", __package__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


# ------------------------------------------------------------------ errors

class ExprError(Exception):
    """Base class for expression-engine errors."""


class ParseError(ExprError):
    """Malformed expression or model text; carries a 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UndeclaredSymbol(ExprError):
    """An identifier was used without being declared in the active table."""

    def __init__(self, name: str, line: int | None = None, col: int | None = None):
        loc = f"{line}:{col}: " if line is not None else ""
        super().__init__(f"{loc}undeclared symbol '{name}'")
        self.name = name
        self.line = line
        self.col = col


class DuplicateDeclaration(ExprError):
    """A name was declared twice within one symbol table or model."""

    def __init__(self, name: str, line: int | None = None):
        loc = f"{line}: " if line is not None else ""
        super().__init__(f"{loc}duplicate declaration of '{name}'")
        self.name = name
        self.line = line


class UnboundSymbol(ExprError):
    """Evaluation reached a symbol with no value bound to it."""


class DivisionByZero(ExprError):
    """A denominator evaluated to zero at the given point."""


class DenominatorIdenticallyZero(ExprError):
    """A denominator is the zero rational function (malformed expression)."""


class ExpressionTooLarge(ExprError):
    """Expanding an expression would form a polynomial product past the
    size limit, or a constant would pass `_MAX_CONST_BITS`; raised before
    the product, or the power of a constant, is computed."""


# ----------------------------------------------------------------- symbols

STATE = "state"
CONST_PARAM = "const-param"
TV_DERIV = "tv-deriv"
OUTPUT_DERIV = "output-deriv"
AUX = "aux"

_KINDS = (STATE, CONST_PARAM, TV_DERIV, OUTPUT_DERIV, AUX)
_DERIVABLE = (TV_DERIV, OUTPUT_DERIV)


@dataclass(frozen=True)
class Symbol:
    """A named leaf of an expression.

    `kind` tags the role a symbol plays in an ODE model. Members of a
    time-derivative chain (time-varying parameters and model outputs)
    carry `order`; output symbols additionally carry a 1-based
    `output_index`. The hash (the dataclass's field-tuple hash) and the
    sort key are computed once, at construction.
    """

    name: str
    kind: str = AUX
    order: int = 0
    output_index: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.order < 0:
            raise ValueError("symbol order must be nonnegative")
        if self.kind == OUTPUT_DERIV and self.output_index < 1:
            raise ValueError("output symbols need a 1-based output index")
        if self.kind not in _DERIVABLE and self.order != 0:
            raise ValueError(f"symbols of kind {self.kind!r} have no derivative chain")
        fields = (self.name, self.kind, self.order, self.output_index)
        object.__setattr__(self, "_hash", hash(fields))
        object.__setattr__(self, "_sort_key",
                           (self.name, self.order, self.kind, self.output_index))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy _hash
        return Symbol, (self.name, self.kind, self.order, self.output_index)

    @property
    def display(self) -> str:
        """Printed form: name, name', name'', or name^(k) for k >= 3."""
        if self.order == 0:
            return self.name
        if self.order <= 2:
            return self.name + "'" * self.order
        return f"{self.name}^({self.order})"

    def derivative(self, shift: int = 1) -> "Symbol":
        if self.kind not in _DERIVABLE:
            raise ValueError(f"symbol '{self.display}' has no time-derivative chain")
        return Symbol(self.name, self.kind, self.order + shift, self.output_index)

    def sort_key(self):
        return self._sort_key


class SymbolTable:
    """Maps identifier names to symbols for the expression parser.

    Primed identifiers (x', x'', x^(k)) resolve through the base symbol's
    derivative chain; only time-varying parameters and outputs are
    derivable.
    """

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self._by_name: dict[str, Symbol] = {}
        for s in symbols:
            self.add(s)

    def add(self, symbol: Symbol) -> None:
        if symbol.name in self._by_name:
            raise DuplicateDeclaration(symbol.name)
        self._by_name[symbol.name] = symbol

    def resolve(self, name: str, order: int = 0) -> Symbol:
        base = self._by_name.get(name)
        if base is None:
            raise KeyError(name)
        if order == 0:
            return base
        return base.derivative(order)


# ------------------------------------------------------------- expressions

class Expression:
    """Immutable, hash-consed node of an expression DAG.

    Build instances through the module constructors (`const`, `sym`,
    `add`, ...) or the arithmetic operators; direct class construction
    skips simplification and is internal.

    Every node is interned at construction in one weak-value table keyed
    by its tag, its payload and the identities of its children, so two
    structurally equal expressions are the same object and equality is
    identity. A node's table entry dies with the node. Because equal
    subexpressions share one object, every pass that memoizes by `id()`
    (partials, substitute_many, normalize, compile_program) also
    eliminates common subexpressions.
    """

    __slots__ = ("_hash", "__weakref__")

    args: tuple = ()  # leaves have no children

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return neg(self)

    # -- identity --------------------------------------------------------
    #
    # Equality is inherited from `object` (identity). The hash is
    # structural rather than `id()`-based so set and dict iteration orders
    # do not depend on allocation addresses.

    def __hash__(self):
        return self._hash

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        text = to_text(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<{type(self).__name__} {text}>"


# The intern table maps a node's key to a weak reference to the node, so
# a constructor's lookup is one dict read (`ref = _NODES.get(key)`, then
# `ref and ref()`). A dying node's reference removes its entry only while
# the entry holds a dead reference, so a node interned again under the
# same key before a late callback runs keeps its entry. The check and the
# removal are one C call, the one `WeakValueDictionary` makes.
_NODES: dict = {}


class _NodeRef(weakref.ref):
    __slots__ = ("key",)


def _forget(ref, nodes=_NODES, remove=_remove_dead_weakref):
    # bound as defaults: module globals may be gone when the last nodes die
    # at interpreter exit
    remove(nodes, ref.key)


def _new_node(cls, key, h, **fields):
    """A new `cls` node with hash `h` and `fields`, interned under `key`.
    Callers look `key` up in `_NODES` first."""
    node = object.__new__(cls)
    node._hash = h
    for name, value in fields.items():
        setattr(node, name, value)
    ref = _NodeRef(node, _forget)
    ref.key = key
    _NODES[key] = ref
    return node


# Python reads and prints an int of at most 4,300 digits (the default of
# `sys.set_int_max_str_digits`). A constant's numerator and denominator
# stay within `_MAX_CONST_BITS`, the bit length of 10^4000 - 1, so they
# have at most 4,001 digits, and any expression prints and reads back. The
# parser takes number literals of at most `_MAX_CONST_DIGITS` digits. The
# largest constant in the bundled model's jets and Jacobians has 3 bits.
_MAX_CONST_DIGITS = 4_000
_MAX_CONST_BITS = 13_288


def _bounded(value: Fraction, exponent: int = 1) -> Fraction:
    """`value`, once `value ** exponent` is known to stay within the bound.
    An int of b bits raised to k has more than (b - 1)*k bits, which is
    checked before the power is computed; a power that passes has fewer
    than 2 * _MAX_CONST_BITS, and `Const` checks it again with k = 1,
    where the test is exact."""
    if (max(value.numerator.bit_length(), value.denominator.bit_length())
            - 1) * abs(exponent) >= _MAX_CONST_BITS:
        raise ExpressionTooLarge(
            f"a constant would pass the limit of {_MAX_CONST_BITS:,} bits "
            f"(about {_MAX_CONST_DIGITS:,} digits)")
    return value


class Const(Expression):
    __slots__ = ("value",)

    def __new__(cls, value: Fraction):
        key = ("const", value)
        ref = _NODES.get(key)
        return ref and ref() or _new_node(cls, key, hash(key),
                                          value=_bounded(value))

    def __reduce__(self):  # through the constructor, which interns again
        return Const, (self.value,)


class Sym(Expression):
    __slots__ = ("symbol",)

    def __new__(cls, symbol: Symbol):
        key = ("sym", symbol)
        ref = _NODES.get(key)
        return ref and ref() or _new_node(cls, key, hash(key), symbol=symbol)

    def __reduce__(self):
        return Sym, (self.symbol,)


class _Composite(Expression):
    __slots__ = ("args",)
    _tag = "?"

    def __new__(cls, args: tuple):
        # a live node holds its children, so their ids stay unique in the key
        key = (cls._tag, *map(id, args))
        ref = _NODES.get(key)
        return ref and ref() or _new_node(
            cls, key, hash((cls._tag,) + tuple(a._hash for a in args)), args=args)

    def __reduce__(self):
        # the DAG as a flat post-order list, rebuilt in a loop through the
        # constructors, which intern the copy again; nothing recurses, so a
        # chain of any depth pickles
        order = topo_order([self])
        index = {id(node): i for i, node in enumerate(order)}
        return _rebuild, ([(type(node), tuple(index[id(c)] for c in node.args),
                            getattr(node, "exponent", None)) if node.args
                           else node for node in order],)


class Sum(_Composite):
    __slots__ = ()
    _tag = "+"


class Product(_Composite):
    __slots__ = ()
    _tag = "*"


class Difference(_Composite):
    __slots__ = ()
    _tag = "-"


class Quotient(_Composite):
    __slots__ = ()
    _tag = "/"


class Power(_Composite):
    __slots__ = ("exponent",)
    _tag = "^"

    def __new__(cls, base: Expression, exponent: int):
        key = ("^", exponent, id(base))
        ref = _NODES.get(key)
        return ref and ref() or _new_node(
            cls, key, hash(("^", exponent, base._hash)),
            args=(base,), exponent=exponent)


def _rebuild(entries) -> Expression:
    """The last node of `_Composite.__reduce__`'s list, children first:
    leaves as themselves, composites as (class, child indices, exponent)."""
    nodes: list[Expression] = []
    for entry in entries:
        if isinstance(entry, Expression):
            nodes.append(entry)
            continue
        cls, kids, exponent = entry
        args = tuple(nodes[k] for k in kids)
        nodes.append(cls(args) if exponent is None else cls(args[0], exponent))
    return nodes[-1]


# ------------------------------------------------------------ constructors

def const(value) -> Const:
    """Exact rational constant. Floats are rejected; they are never stored."""
    if isinstance(value, float):
        raise TypeError("floats are not storable constants; use Fraction or int")
    return Const(Fraction(value))


ZERO = const(0)
ONE = const(1)


def sym(s) -> Sym:
    if isinstance(s, str):
        s = Symbol(s)
    return Sym(s)


def _coerce(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, Fraction, str)):
        return const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def add(*terms) -> Expression:
    """n-ary sum; flattens nested sums, folds constants, drops zeros."""
    flat: list[Expression] = []
    # an int until the first Const replaces it: a sum without constants
    # does no Fraction arithmetic
    total = 0
    for t in terms:
        if not isinstance(t, Expression):
            t = _coerce(t)
        kind = type(t)
        if kind is Const:
            total = t.value if type(total) is int else total + t.value
        elif kind is Sum:
            for u in t.args:
                if type(u) is Const:
                    total = u.value if type(total) is int else total + u.value
                else:
                    flat.append(u)
        else:
            flat.append(t)
    if total:
        flat.append(Const(total))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors) -> Expression:
    """n-ary product; flattens, folds constants, short-circuits zero."""
    flat: list[Expression] = []
    coeff = 1  # an int until the first Const replaces it, as in `add`
    for f in factors:
        if not isinstance(f, Expression):
            f = _coerce(f)
        kind = type(f)
        if kind is Const:
            coeff = f.value if type(coeff) is int else coeff * f.value
        elif kind is Product:
            for u in f.args:
                if type(u) is Const:
                    coeff = u.value if type(coeff) is int else coeff * u.value
                else:
                    flat.append(u)
        else:
            flat.append(f)
    if not coeff:
        return ZERO
    if not flat:
        return ONE if type(coeff) is int else Const(coeff)
    if coeff != 1:
        flat.insert(0, Const(coeff))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def sub(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and a.value == 0:
        return neg(b)
    return Difference((a, b))


def div(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise DenominatorIdenticallyZero("denominator is the literal zero constant")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1:
            return a
    if isinstance(a, Const) and a.value == 0:
        return ZERO
    return Quotient((a, b))


def pow_(base, exponent: int) -> Expression:
    base = _coerce(base)
    if not isinstance(exponent, int):
        raise TypeError("exponents must be Python ints")
    if exponent == 0:
        return ONE  # 0^0 treated as the empty product
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise DenominatorIdenticallyZero("zero constant raised to a negative power")
        return Const(_bounded(base.value, exponent) ** exponent)
    return Power(base, exponent)


def neg(a) -> Expression:
    return mul(const(-1), _coerce(a))


# -------------------------------------------------------------- traversal

def topo_order(roots: Sequence[Expression], seen=None) -> list[Expression]:
    """Unique nodes of the DAG(s), children before parents. Iterative. A
    node whose id `seen` holds is left out with the nodes below it, and
    `seen` gains the ids returned. Every pass over a DAG starts here."""
    order: list[Expression] = []
    seen = set() if seen is None else seen
    stack: list[tuple[Expression, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node.args:
            stack.append((child, False))
    return order


def free_symbols(*exprs: Expression) -> set[Symbol]:
    """The symbols that occur in any of `exprs`, from one traversal of
    their shared DAG."""
    return {node.symbol for node in topo_order(exprs) if isinstance(node, Sym)}


# ---------------------------------------------------------- differentiate

def partials(roots: Sequence[Expression],
             symbols: Sequence[Symbol]) -> tuple[tuple[Expression, ...], ...]:
    """Partial derivatives of every root with respect to every symbol, all
    others held fixed: entry [i][j] is d roots[i] / d symbols[j]. One
    traversal of the roots' shared DAG records which symbols each node
    mentions; the pass for a symbol visits only the nodes that mention it,
    and every other subtree is pruned to zero without being rebuilt, which
    keeps the results sharing structure with the input."""
    return PartialsMemo().see(roots).partials(roots, symbols)


class PartialsMemo:
    """`partials` keeping, while it lives, the symbol bitmask of every node
    it has seen and every (node, symbol) partial it has taken, so a chain
    of derivatives traverses and differentiates each node once. `nodes`,
    children first, keeps their ids unique; `memos[s]` holds the partials
    by s of `nodes[:done[s]]`."""

    def __init__(self):
        self.nodes, self.seen, self.masks = [], set(), {}
        self.bits, self.memos, self.done = {}, {}, {}

    def see(self, roots: Sequence[Expression]) -> "PartialsMemo":
        """Traverse the nodes of `roots` not seen before; returns self."""
        masks, bits = self.masks, self.bits
        for node in topo_order(roots, self.seen):
            if isinstance(node, Sym):
                masks[id(node)] = bits.setdefault(node.symbol, 1 << len(bits))
            else:  # a constant has no args, so its mask is 0
                m = 0
                for c in node.args:
                    m |= masks[id(c)]
                masks[id(node)] = m
            self.nodes.append(node)
        return self

    def symbols(self, e: Expression) -> set[Symbol]:
        """The symbols that seen `e` mentions, read from its bitmask."""
        m = self.masks[id(e)]
        return {s for s, b in self.bits.items() if m & b}

    def partials(self, roots, symbols) -> tuple[tuple[Expression, ...], ...]:
        """`partials` of seen `roots`, from the nodes new to each symbol."""
        masks, nodes = self.masks, self.nodes
        columns = []
        for s in symbols:
            b = self.bits.get(s, 0)
            memo = self.memos.setdefault(s, {})
            deriv = memo.get
            start, self.done[s] = self.done.get(s, 0), len(nodes)
            for node in [n for n in nodes[start:] if masks[id(n)] & b]:
                if isinstance(node, Sym):
                    memo[id(node)] = ONE
                elif isinstance(node, Sum):
                    memo[id(node)] = add(*(memo[id(c)] for c in node.args
                                           if masks[id(c)] & b))
                elif isinstance(node, Difference):
                    x, y = node.args
                    memo[id(node)] = sub(deriv(id(x), ZERO), deriv(id(y), ZERO))
                elif isinstance(node, Product):
                    fs = node.args
                    memo[id(node)] = add(*(mul(*fs[:i], memo[id(f)], *fs[i + 1:])
                                           for i, f in enumerate(fs)
                                           if masks[id(f)] & b))
                elif isinstance(node, Quotient):
                    n, den = node.args
                    if not masks[id(den)] & b:
                        memo[id(node)] = div(memo[id(n)], den)
                    else:
                        num = sub(mul(deriv(id(n), ZERO), den), mul(n, memo[id(den)]))
                        memo[id(node)] = div(num, pow_(den, 2))
                else:  # Power
                    base, k = node.args[0], node.exponent
                    memo[id(node)] = mul(const(k), pow_(base, k - 1), memo[id(base)])
            columns.append([deriv(id(r), ZERO) for r in roots])
        return tuple(tuple(col[i] for col in columns) for i in range(len(roots)))


def differentiate(e: Expression, s: Symbol) -> Expression:
    """Partial derivative of `e` with respect to `s`: the one-root,
    one-symbol case of `partials`."""
    return partials([e], [s])[0][0]


# -------------------------------------------------------------- substitute

def substitute_many(exprs: Sequence[Expression],
                    bindings: Mapping[Symbol, Expression]) -> list[Expression]:
    """Simultaneous one-pass substitution of symbols by expressions, over
    several expressions with one shared rebuild cache, which preserves
    cross-expression sharing (important for later evaluation).

    Images are not re-scanned, so {x -> y, y -> x} swaps rather than
    cascades. Untouched subtrees are returned as the same objects.
    """
    if not bindings:
        return list(exprs)
    images = {s: _coerce(v) for s, v in bindings.items()}
    order = topo_order(list(exprs))
    memo: dict[int, Expression] = {}
    for node in order:
        if isinstance(node, Sym):
            memo[id(node)] = images.get(node.symbol, node)
        elif isinstance(node, Const):
            memo[id(node)] = node
        else:
            kids = [memo[id(c)] for c in node.args]
            if all(k is c for k, c in zip(kids, node.args)):
                memo[id(node)] = node
            elif isinstance(node, Sum):
                memo[id(node)] = add(*kids)
            elif isinstance(node, Product):
                memo[id(node)] = mul(*kids)
            elif isinstance(node, Difference):
                memo[id(node)] = sub(kids[0], kids[1])
            elif isinstance(node, Quotient):
                memo[id(node)] = div(kids[0], kids[1])
            else:
                memo[id(node)] = pow_(kids[0], node.exponent)
    return [memo[id(e)] for e in exprs]


# ---------------------------------------------------------------- printing

_LVL_SUM, _LVL_PROD, _LVL_POWBASE, _LVL_ATOM = 1, 2, 3, 4


def _render(e: Expression) -> tuple[str, int]:
    """The text of `e` and its precedence level.

    A node's text is kept as a list of parts until a reader needs it as one
    string. A node whose text begins with that of its first child, read by
    nothing else, extends the child's list in place, so a left-nested chain
    such as `x - x - ... - x` or `x/x/.../x` renders in linear time.
    """
    order = topo_order([e])
    uses: dict[int, int] = {}
    for node in order:
        for child in node.args:
            uses[id(child)] = uses.get(id(child), 0) + 1
    memo: dict[int, tuple[list | str, int]] = {}

    def text(child) -> tuple[str, int]:
        parts, level = memo[id(child)]
        if parts.__class__ is list:
            parts = "".join(parts)
            memo[id(child)] = (parts, level)
        return parts, level

    def wrap(child, min_level):
        text_, level = text(child)
        return f"({text_})" if level < min_level else text_

    def lead(child, min_level) -> list:
        """A new list of parts that begins with the child's text, wrapped
        below `min_level`; a list read only here is taken over."""
        parts, level = memo[id(child)]
        if level >= min_level and parts.__class__ is list \
                and uses[id(child)] == 1:
            del memo[id(child)]
            return parts
        return [wrap(child, min_level)]

    for node in order:
        if isinstance(node, Const):
            v = node.value
            if v < 0:
                memo[id(node)] = (str(v), _LVL_SUM)
            elif v.denominator != 1:
                memo[id(node)] = (str(v), _LVL_PROD)
            else:
                memo[id(node)] = (str(v), _LVL_ATOM)
        elif isinstance(node, Sym):
            memo[id(node)] = (node.symbol.display, _LVL_ATOM)
        elif isinstance(node, Power):
            base = wrap(node.args[0], _LVL_ATOM)
            memo[id(node)] = (f"{base}^{node.exponent}", _LVL_POWBASE)
        elif isinstance(node, Product):
            factors = list(node.args)
            if isinstance(factors[0], Const) and factors[0].value < 0:
                coeff = -factors[0].value
                factors = factors[1:]
                parts = ["-"] if coeff == 1 else ["-", str(coeff), "*"]
                parts.append(wrap(factors[0], _LVL_PROD))
                level = _LVL_SUM
            else:
                parts = lead(factors[0], _LVL_PROD)
                level = _LVL_PROD
            for f in factors[1:]:
                parts += ("*", wrap(f, _LVL_PROD))
            memo[id(node)] = (parts, level)
        elif isinstance(node, Quotient):
            parts = lead(node.args[0], _LVL_PROD)
            parts += ("/", wrap(node.args[1], _LVL_POWBASE))
            memo[id(node)] = (parts, _LVL_PROD)
        elif isinstance(node, Difference):
            parts = lead(node.args[0], _LVL_SUM)
            rtext, rlevel = text(node.args[1])
            parts += (" - ", f"({rtext})" if rlevel <= _LVL_SUM else rtext)
            memo[id(node)] = (parts, _LVL_SUM)
        else:  # Sum
            parts = lead(node.args[0], _LVL_SUM)
            for child in node.args[1:]:
                text_, _ = text(child)
                if text_.startswith("-"):
                    parts += (" - ", text_[1:])
                else:
                    parts += (" + ", text_)
            memo[id(node)] = (parts, _LVL_SUM)
    return text(e)


def to_text(e: Expression) -> str:
    """Infix text form; `parse_expression` reads it back."""
    return _render(e)[0]


# ----------------------------------------------------------------- parsing

_T_NUM, _T_IDENT, _T_OP, _T_LP, _T_RP, _T_END = range(6)
# identifiers are [A-Za-z_][A-Za-z0-9_]*: str.isalpha and str.isalnum
# would take letters and digits of any script, such as é, ² and ٣
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_IDENT_PART = _IDENT_START | frozenset("0123456789")


def is_identifier(text: str) -> bool:
    """Whether `text` is an identifier, `[A-Za-z_][A-Za-z0-9_]*`."""
    return (text[:1] in _IDENT_START
            and all(ch in _IDENT_PART for ch in text))


def _digits_end(text: str, i: int, line: int, col: int) -> int:
    """The end of the run of decimal digits from `text[i]`, at (line, col).
    `str.isdecimal` accepts exactly the digits `int` reads."""
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    if j - i > _MAX_CONST_DIGITS:
        raise ParseError(f"number longer than {_MAX_CONST_DIGITS:,} digits",
                         line, col)
    return j


def _tokenize(text: str, base_line: int, base_col: int):
    tokens = []
    i, n = 0, len(text)
    line, col = base_line, base_col
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = _digits_end(text, i, line, start_col)
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not supported; "
                                 "write an exact rational like 1/2", line, start_col)
            tokens.append((_T_NUM, text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_PART:
                j += 1
            name = text[i:j]
            col += j - i
            i = j
            order = 0
            while i < n and text[i] == "'":
                order += 1
                i += 1
                col += 1
            if order == 0 and i + 1 < n and text[i] == "^" and text[i + 1] == "(":
                # name^(k) is a derivative marker, not a power
                j = _digits_end(text, i + 2, line, col + 2)
                if j > i + 2 and j < n and text[j] == ")":
                    order = int(text[i + 2:j])
                    col += j + 1 - i
                    i = j + 1
            tokens.append((_T_IDENT, (name, order), line, start_col))
            continue
        if ch in "+-*/^":
            tokens.append((_T_OP, ch, line, start_col))
        elif ch == "(":
            tokens.append((_T_LP, ch, line, start_col))
        elif ch == ")":
            tokens.append((_T_RP, ch, line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
        i += 1
        col += 1
    tokens.append((_T_END, "", line, col))
    return tokens


# Each level of parentheses is one level of recursion in the parser. The
# deepest printed order-8 jet or Jacobian entry nests 7 levels.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, table: SymbolTable | None):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open around the current position
        self.table = table
        self._auto: dict[str, Symbol] = {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != _T_END:
            self.fail(f"unexpected trailing input {tok[1]!r}")
        return e

    def expr(self) -> Expression:
        return self._chain(self.term, "+-", add, sub)

    def term(self) -> Expression:
        return self._chain(self.factor, "*/", mul, div)

    def _chain(self, operand, ops, nary, binary) -> Expression:
        """Operands joined by the two operators `ops`, grouped from the
        left. A run joined by the first is folded by one `nary` call,
        which builds the node the pairwise fold would without copying the
        growing run at every step; the second applies `binary`."""
        run = [operand()]
        while True:
            tok = self.peek()
            if tok[0] != _T_OP or tok[1] not in ops:
                return nary(*run)
            self.advance()
            rhs = operand()
            if tok[1] == ops[0]:
                run.append(rhs)
            else:
                run = [binary(nary(*run), rhs)]

    def factor(self) -> Expression:
        negations = 0
        tok = self.peek()
        while tok[0] == _T_OP and tok[1] in "+-":
            negations += tok[1] == "-"
            self.advance()
            tok = self.peek()
        e = self.atom()
        tok = self.peek()
        if tok[0] == _T_OP and tok[1] == "^":
            self.advance()
            e = pow_(e, self.exponent())
        for _ in range(negations):
            e = neg(e)
        return e

    def exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok[0] == _T_OP and tok[1] == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok[0] == _T_LP:
            self.fail("parenthesized exponents are not supported; write x^2 "
                      "(a derivative symbol is spelled name^(k))", tok)
        if tok[0] != _T_NUM:
            self.fail("integer exponent expected", tok)
        return sign * int(tok[1])

    def atom(self) -> Expression:
        tok = self.advance()
        if tok[0] == _T_NUM:
            return const(int(tok[1]))
        if tok[0] == _T_IDENT:
            name, order = tok[1]
            return sym(self.resolve(name, order, tok))
        if tok[0] == _T_LP:
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING} "
                          "levels", tok)
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            closing = self.advance()
            if closing[0] != _T_RP:
                self.fail("expected ')'", closing)
            return e
        if tok[0] == _T_END:
            self.fail("unexpected end of input", tok)
        self.fail(f"unexpected token {tok[1]!r}", tok)

    def resolve(self, name, order, tok) -> Symbol:
        if self.table is None:
            if order != 0:
                self.fail(f"'{name}' has no derivative chain here", tok)
            s = self._auto.get(name)
            if s is None:
                s = Symbol(name)
                self._auto[name] = s
            return s
        try:
            return self.table.resolve(name, order)
        except KeyError:
            raise UndeclaredSymbol(name, tok[2], tok[3]) from None
        except ValueError as exc:
            self.fail(str(exc), tok)


def parse_expression(text: str, table: SymbolTable | None = None, *,
                     line: int = 1, col: int = 1) -> Expression:
    """Parse infix expression text.

    With a symbol table, identifiers (and their primed/`^(k)` derivative
    forms) must resolve through it; without one, plain identifiers create
    auxiliary symbols on first use. `line`/`col` offset reported
    positions, for expressions embedded in larger files.
    """
    tokens = _tokenize(text, line, col)
    if tokens[0][0] == _T_END:
        raise ParseError("empty expression", line, col)
    return _Parser(tokens, table).parse()
