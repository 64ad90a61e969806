"""Exact symbolic expressions over rational constants and named symbols.

Expressions are immutable DAGs built from sums, differences, products,
quotients and integer powers. Every coefficient is an exact rational
(`fractions.Fraction`); floating point exists only as an evaluation mode.
Two expressions are equal as rational functions exactly when
`normalize(a - b).is_zero`: the difference is expanded into numerator and
denominator, so the test never relies on simplification heuristics or
numerics.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from fractions import Fraction
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
        if not isinstance(k, int):
            raise TypeError("exponents must be Python ints")
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
        order = _topo([self])
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

def _topo(roots: Sequence[Expression], seen=None) -> list[Expression]:
    """Unique nodes of the DAG(s), children before parents. Iterative. A
    node whose id `seen` holds is left out with the nodes below it, and
    `seen` gains the ids returned."""
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
    return {node.symbol for node in _topo(exprs) if isinstance(node, Sym)}


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
        for node in _topo(roots, self.seen):
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
    order = _topo(list(exprs))
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


# ---------------------------------------------- polynomials and normalize
#
# `normalize` expands over packed monomials. The free symbols of the
# expression, sorted by `Symbol.sort_key`, are numbered 0, 1, ..., and a
# monomial is one int that holds symbol i's exponent in the bit field
# [i*w, (i+1)*w), so multiplying two monomials is adding their ints. The
# field width w is the bit length of a bound on the total degree of every
# polynomial the expansion forms, so no exponent reaches 2**w and no field
# carries into the next (`normalize` derives the bound). A polynomial is a
# dict mapping monomials to nonzero coefficients, which stay Python ints
# until a non-integral constant brings in a `Fraction`; the empty dict is
# zero. `RationalCanonical` holds the public form of the same dicts: each
# monomial unpacked into (Symbol, exponent) pairs and each coefficient made
# a Fraction. The expansion is where sizes grow, so a product of more than
# `_MAX_PRODUCT_TERMS` pairs of terms raises `ExpressionTooLarge` before
# it is formed.

_POLY_ONE = {0: 1}
# The bundled model's largest product is 3 x 496 = 1,488 term pairs
# (y1's order-8 jet). The tier-1 property tests expand only random draws
# whose degree bounds keep every product under the limit; the largest
# they formed over 50 runs was 9,216 pairs. A product under the limit has
# at most 4 million terms; one with 4 million distinct small-coefficient
# terms takes about 2.5 s and 440 MB.
_MAX_PRODUCT_TERMS = 4_000_000


def _poly_add(p1, p2):
    if not p1:
        return p2
    if not p2:
        return p1
    out = dict(p1)
    for m, c in p2.items():
        v = out.get(m)
        if v is None:
            out[m] = c
        else:
            v = v + c
            if v == 0:
                del out[m]
            else:
                out[m] = v
    return out


def _poly_scale(p, f):
    if f == 0:
        return {}
    if f == 1:
        return p
    return {m: c * f for m, c in p.items()}


def _poly_mul(p1, p2):
    if not p1 or not p2:
        return {}
    if p1 is _POLY_ONE:
        return p2
    if p2 is _POLY_ONE:
        return p1
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    if len(p1) * len(p2) > _MAX_PRODUCT_TERMS:
        raise ExpressionTooLarge(
            f"expanding a product of {len(p1)} and {len(p2)} terms exceeds "
            f"the limit of {_MAX_PRODUCT_TERMS:,} term pairs")
    out: dict = {}
    terms = p2.items()
    for m1, c1 in p1.items():
        for m2, c2 in terms:
            m = m1 + m2
            v = out.get(m)
            if v is None:
                out[m] = c1 * c2
            else:
                v = v + c1 * c2
                if v == 0:
                    del out[m]
                else:
                    out[m] = v
    return out


def _poly_pow(p, k: int):
    result = _POLY_ONE
    base = p
    while k:
        if k & 1:
            result = _poly_mul(result, base)
        base = _poly_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def _public(p, symbols, width):
    """The public form of the packed polynomial `p` over `symbols`."""
    mask = (1 << width) - 1
    out = {}
    for m, c in p.items():
        mono = []
        i = 0
        while m:
            k = m & mask
            if k:
                mono.append((symbols[i], k))
            m >>= width
            i += 1
        out[tuple(mono)] = Fraction(c)
    return out


def _mono_order_key(mono):
    return (sum(k for _, k in mono), tuple((s.sort_key(), k) for s, k in mono))


def _leading_coefficient(p) -> Fraction:
    return p[max(p, key=_mono_order_key)]


def _mono_str(mono) -> str:
    return "*".join(s.display if k == 1 else f"{s.display}^{k}" for s, k in mono)


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, key=_mono_order_key, reverse=True):
        c = p[mono]
        body = _mono_str(mono)
        if not body:
            term = str(c)
        elif c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{c}*{body}"
        parts.append(term)
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


class RationalCanonical:
    """Expanded numerator/denominator pair of a rational function.

    Each polynomial is a dict from monomials, tuples of (Symbol, exponent)
    pairs in sort-key order, to nonzero Fractions. The denominator is
    scaled so its leading coefficient (graded-lex order) is 1; numerator
    and denominator are not GCD-reduced. The numerator is empty exactly
    when the function is zero, so `is_zero` is exact without cancellation.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        if not denominator:
            raise DenominatorIdenticallyZero("denominator expands to the zero polynomial")
        if not numerator:
            numerator, denominator = {}, {(): Fraction(1)}
        else:
            lead = _leading_coefficient(denominator)
            if lead != 1:
                inv = 1 / lead
                numerator = _poly_scale(numerator, inv)
                denominator = _poly_scale(denominator, inv)
        self.numerator = numerator
        self.denominator = denominator

    @property
    def is_zero(self) -> bool:
        return not self.numerator

    def coefficient(self, monomial: Mapping[Symbol, int]) -> Fraction:
        """Numerator coefficient of the given monomial (use with denominator 1)."""
        key = tuple(sorted(((s, k) for s, k in monomial.items() if k),
                           key=lambda it: it[0].sort_key()))
        return self.numerator.get(key, Fraction(0))

    def __str__(self):
        num = _poly_str(self.numerator)
        if self.denominator == {(): 1}:
            return num
        return f"({num}) / ({_poly_str(self.denominator)})"

    def __repr__(self):
        return f"<RationalCanonical {self}>"


def normalize(e: Expression) -> RationalCanonical:
    """Expand `e` into a canonical numerator/denominator pair.

    `normalize(e).is_zero` is an exact zero test for the rational
    function `e` denotes. Shared DAG nodes are expanded once. The
    expansion runs over packed monomials and int coefficients (see the
    section comment), and the public form is built once, from the root's
    pair.

    The field width comes from a bound (num, den) on the total degrees of
    each node's pair, taken in the same pass that collects the symbols: a
    constant has (0, 0) and a symbol (1, 0); a sum or difference of
    children (n_i, d_i) has (max(n_i + D - d_i), D) with D = sum(d_i); a
    product adds the children's bounds; a quotient of (n1, d1) by
    (n2, d2) has (n1 + d2, d1 + n2); a power k >= 0 scales (n, d) by k,
    and k < 0 scales the swapped (d, n) by -k. Every intermediate
    polynomial stays within its node's bound, so the largest bound over
    all nodes caps every exponent.
    """
    order = _topo([e])
    symbols = set()
    bounds: dict[int, tuple[int, int]] = {}
    top = 0
    for node in order:
        kind = type(node)
        if kind is Const:
            bound = (0, 0)
        elif kind is Sym:
            symbols.add(node.symbol)
            bound = (1, 0)
        elif kind is Sum or kind is Difference:
            children = [bounds[id(c)] for c in node.args]
            den = sum(d for _, d in children)
            bound = (max(n + den - d for n, d in children), den)
        elif kind is Product:
            children = [bounds[id(c)] for c in node.args]
            bound = (sum(n for n, _ in children), sum(d for _, d in children))
        elif kind is Quotient:
            n1, d1 = bounds[id(node.args[0])]
            n2, d2 = bounds[id(node.args[1])]
            bound = (n1 + d2, d1 + n2)
        else:  # Power
            n, d = bounds[id(node.args[0])]
            k = node.exponent
            bound = (k * n, k * d) if k >= 0 else (-k * d, -k * n)
        bounds[id(node)] = bound
        top = max(top, *bound)
    width = top.bit_length()
    symbols = sorted(symbols, key=Symbol.sort_key)
    shift = {s: i * width for i, s in enumerate(symbols)}
    memo: dict[int, tuple[dict, dict]] = {}
    for node in order:
        kind = type(node)
        if kind is Const:
            v = node.value
            num = {0: v.numerator if v.denominator == 1 else v} if v else {}
            memo[id(node)] = (num, _POLY_ONE)
        elif kind is Sym:
            memo[id(node)] = ({1 << shift[node.symbol]: 1}, _POLY_ONE)
        elif kind is Sum:
            n, d = memo[id(node.args[0])]
            for child in node.args[1:]:
                n2, d2 = memo[id(child)]
                if d is d2 is _POLY_ONE:
                    n = _poly_add(n, n2)
                else:
                    n = _poly_add(_poly_mul(n, d2), _poly_mul(n2, d))
                    d = _poly_mul(d, d2)
            memo[id(node)] = (n, d)
        elif kind is Difference:
            n1, d1 = memo[id(node.args[0])]
            n2, d2 = memo[id(node.args[1])]
            n2 = _poly_scale(n2, -1)
            if d1 is d2 is _POLY_ONE:
                memo[id(node)] = (_poly_add(n1, n2), _POLY_ONE)
            else:
                memo[id(node)] = (
                    _poly_add(_poly_mul(n1, d2), _poly_mul(n2, d1)),
                    _poly_mul(d1, d2),
                )
        elif kind is Product:
            n, d = _POLY_ONE, _POLY_ONE
            for child in node.args:
                n2, d2 = memo[id(child)]
                n = _poly_mul(n, n2)
                d = _poly_mul(d, d2)
            memo[id(node)] = (n, d)
        elif kind is Quotient:
            n1, d1 = memo[id(node.args[0])]
            n2, d2 = memo[id(node.args[1])]
            if not n2:
                raise DenominatorIdenticallyZero(
                    "denominator expands to the zero polynomial")
            memo[id(node)] = (_poly_mul(n1, d2), _poly_mul(d1, n2))
        else:  # Power
            n, d = memo[id(node.args[0])]
            k = node.exponent
            if k >= 0:
                memo[id(node)] = (_poly_pow(n, k), _poly_pow(d, k))
            else:
                if not n:
                    raise DenominatorIdenticallyZero(
                        "zero raised to a negative power")
                memo[id(node)] = (_poly_pow(d, -k), _poly_pow(n, -k))
    num, den = memo[id(e)]
    return RationalCanonical(_public(num, symbols, width),
                             _public(den, symbols, width))


# -------------------------------------------------------------- evaluation

_OP_ADD, _OP_SUB, _OP_MUL, _OP_DIV, _OP_POW = range(5)

# CPython's parser and compiler recurse on nesting: a single-use operand
# whose inlined text would nest this deep gets a temporary instead, and a
# Sum or Product with more operands than _CHUNK is folded left to right
# through a running temporary, so the float rounding order is unchanged.
_MAX_INLINE_DEPTH = 48
_CHUNK = 32
# Compiling takes about 150 bytes of memory per character of source
# (CPython 3.11); a long program is compiled in pieces of about this many
# characters, which bounds that memory
_PIECE_CHARS = 8192
# The modular rendering reduces lazily. Every value it computes is below
# 2^(a*W + b) in magnitude, W the bit length of the modulus, and each
# operand carries its (a, b): residues (inputs, constants, temporaries and
# the results of pow and _inv) are (1, 0), n summands add ceil(log2 n) to b,
# and factors add both. `% p` is emitted only where a bound would pass
# _LAZY_BITS, and at every temporary and output, so one source serves every
# modulus and no intermediate exceeds 2^(4*W + 16).
_LAZY_BITS = (4, 16)
_REDUCED = (1, 0)
_KEPT_MODULI = 4  # a rank verdict's three primes and their product


class Program:
    """Straight-line evaluator compiled from expression DAGs.

    Value slots are laid out as [inputs][constants][temporaries]. Each
    instruction `(op, dst, ...)` fills one temporary from earlier slots, so
    shared subexpressions occupy a single slot and are computed once per
    run. The instruction list is the only intermediate form: on the first
    run in an arithmetic domain it is emitted as straight-line Python
    source (`source`), compiled once and cached on the program. The plain
    rendering (+ - * / **) is bound twice, with float64 constants
    (`float_fn`) and with exact ones (`plain_fn`, which `run_exact` runs).
    The modular rendering reduces lazily: it emits `% p` only where a
    value's bound would pass 2^(4*W + 16), W the bit length of the modulus,
    and at every temporary and output (see `_LAZY_BITS`). It raises
    DivisionByZero on a value with no inverse and is bound per modulus
    (`run_mod`), a prime or a product of distinct primes; the program keeps
    the `_KEPT_MODULI` latest bindings. Each domain converts its inputs by
    one rule: `run_exact` by `_as_fraction`, `run_mod` by `_as_residue`.
    """

    def __init__(self, instructions, constants, outputs, input_symbols):
        self.instructions = instructions
        self.constants = constants
        self.outputs = outputs
        self.input_symbols = input_symbols
        self.n_inputs = len(input_symbols)
        # every instruction fills one temporary slot of its own
        self.n_slots = self.n_inputs + len(constants) + len(instructions)
        self._rendered: dict[bool, tuple] = {}  # modular -> (source, maker)
        self._fns: dict = {}  # "float", "plain" or a modulus -> code

    def _render(self, modular: bool) -> tuple:
        rendered = self._rendered.get(modular)
        if rendered is None:
            pieces, prelude, body, outputs = _emit(self, modular)
            inputs = [f"v{j}" for j in range(self.n_inputs)]
            result = (outputs if isinstance(outputs, str)
                      else f"[{', '.join(outputs)}]")
            units = [*pieces, _unit("_make", "p, c" if modular else "c",
                                    prelude, inputs, body, result)]
            rendered = self._rendered[modular] = ("\n".join(units),
                                                  _define(units))
        return rendered

    def source(self, modular: bool = False) -> str:
        """The emitted Python source: `_make(constants)`, or
        `_make(p, residues)` when modular, returns a function of the input
        values that returns the list of output values."""
        return self._render(modular)[0]

    def _bind(self, domain, modular: bool, make_args):
        fn = self._fns[domain] = self._render(modular)[1](*make_args)
        return fn

    def float_fn(self):
        """The plain rendering in float64 as a function of the input
        values. Arguments pass through unconverted, so numpy arrays
        broadcast; scalar division by zero raises ZeroDivisionError. A
        constant outside the float64 range raises ValueError."""
        return self._fns.get("float") or self._bind(
            "float", False, (self.float_constants(),))

    def float_constants(self) -> list[float]:
        """The constants in float64, as `float_fn` binds them. One outside
        the float64 range raises ValueError."""
        try:
            return [float(c) for c in self.constants]
        except OverflowError:
            raise ValueError("a constant is outside the float64 "
                             "range") from None

    def inline(self, host):
        """Compile a function of the caller's that runs the plain rendering
        in line, in as many places as it likes.

        `host(prelude, body, outputs)` returns the source of one function,
        `def _make(c, ...)`, whose `c` takes `float_constants()`. Its top
        level runs the lines `prelude`, which bind the constants c<k> and,
        for a long program, its pieces _p<k>. Wherever it runs the lines
        `body` of `float_fn`, input j is read from the name v<j>, and
        `outputs[j]` is then the expression of output j; besides the
        inputs they use c<k>, _p<k>, temporaries t<k> and _out. The
        pieces are compiled first, as for `float_fn`, so the host's source
        holds only their calls and compile memory stays bounded. Returns
        the compiled `_make`."""
        pieces, prelude, body, outputs = _emit(self, False)
        if isinstance(outputs, str):  # the last piece's call
            body = [*body, f"_out = {outputs}"]
            outputs = [f"_out[{j}]" for j in range(len(self.outputs))]
        return _define([*pieces, host(prelude, body, outputs)])

    def plain_fn(self):
        """float_fn with integral constants bound as Python ints: Fraction
        inputs stay exact, and float inputs give float_fn's bits."""
        return self._fns.get("plain") or self._bind("plain", False, (
            [int(c) if c.denominator == 1 else c for c in self.constants],))

    def run_exact(self, values: Sequence) -> list[Fraction]:
        """The outputs as Fractions at the input `values`, which are ints,
        Fractions or floats (taken exactly); runs `plain_fn`."""
        try:
            outputs = self.plain_fn()(*map(_as_fraction, values))
        except ZeroDivisionError as exc:
            raise DivisionByZero(str(exc)) from None
        return list(map(Fraction, outputs))  # an integral constant is an int

    def run_mod(self, values: Sequence, p: int) -> list[int]:
        """The outputs in [0, p) at the input `values`, which are ints or
        Fractions, reduced mod p. `p` is a prime or a product of distinct
        primes, so by the Chinese remainder theorem the outputs mod each
        prime factor are those of a run mod that factor. A division by a
        value with no inverse mod p, or a Fraction whose denominator has
        none, raises DivisionByZero; mod a product that is a value zero
        mod some factor. `p` must be at least 2."""
        fn = self._fns.get(p)
        if fn is None:
            if p < 2:
                raise ValueError("modulus must be at least 2")
            moduli = [k for k in self._fns if type(k) is int]
            if len(moduli) >= _KEPT_MODULI:
                del self._fns[moduli[0]]
            fn = self._bind(p, True,
                            (p, [_as_residue(c, p) for c in self.constants]))
        return fn(*[_as_residue(v, p) for v in values])


def _emit(program: Program, modular: bool) -> tuple:
    """Straight-line source for `program`'s instructions, in parts:
    `(pieces, prelude, body, outputs)`.

    A slot read more than once, or an operand nested `_MAX_INLINE_DEPTH`
    deep, gets a temporary `t<slot>`; every other slot is inlined into its
    one reader, so a tree-shaped expression becomes one nested expression.
    Input slot j is read from the name v<j>. `body` is the lines of
    `_make`'s `_fn`, `outputs` the list of the expressions it returns and
    `prelude` the lines of `_make` that bind the constants. A program
    longer than `_PIECE_CHARS` is cut into piece functions that pass on
    the temporaries crossing a cut, defined by the units `pieces`, which
    are compiled first; prelude then binds them, body is their calls but
    the last, and outputs is the last call, which returns the list.
    """
    uses = [0] * program.n_slots
    for ins in program.instructions:
        op = ins[0]
        for j in (ins[2] if op in (_OP_ADD, _OP_MUL)
                  else ins[2:3] if op == _OP_POW else ins[2:4]):
            uses[j] += 1
    for o in program.outputs:
        uses[o] += 1

    n_in, n_leaves = program.n_inputs, program.n_inputs + len(program.constants)

    def name(j):
        return f"v{j}" if j < n_in else f"c{j - n_in}" if j < n_leaves else f"t{j}"

    # slot -> (text, depth, slots read, bound): depth bounds the syntactic
    # nesting; bound is the modular rendering's magnitude bound (a, b), and
    # plain values, which need no reduction, carry _REDUCED throughout
    text = {j: (name(j), 0, (j,), _REDUCED) for j in range(n_leaves)}
    lines = []  # (temporary assigned, expression, slots read)

    def read(j):  # a slot read once leaves the table when read
        return text.pop(j) if uses[j] == 1 else text[j]

    def settled(expression, bound):  # temporaries and outputs are residues
        return expression if bound == _REDUCED else f"{expression} % p"

    for ins in program.instructions:
        op, dst = ins[0], ins[1]
        bound = _REDUCED
        if op == _OP_POW:
            base, depth, reads, _ = read(ins[2])
            k = ins[3]
            if not modular:
                expression = f"({base}**{k})" if k >= 0 else f"({base}**({k}))"
            elif k >= 0:
                expression = f"pow({base}, {k}, p)"
            else:
                expression = f"_inv(pow({base}, {-k}, p))"
            depth += 2
        elif op in (_OP_SUB, _OP_DIV):
            (a, da, ra, ba), (b, db, rb, bb) = read(ins[2]), read(ins[3])
            if not modular:
                body = f"{a} - {b}" if op == _OP_SUB else f"{a} / {b}"
            elif op == _OP_SUB:
                body, bound = _mod_sum([(a, ba), (b, bb)], " - ")
            else:  # pow in _inv takes any int and returns a residue
                body, bound = _mod_product([(a, ba), (f"_inv({b})", _REDUCED)])
            expression, depth, reads = f"({body})", max(da, db) + 3, ra + rb
        else:
            operands = [read(j) for j in ins[2]]
            for start in range(0, len(operands), _CHUNK):
                chunk = operands[start:start + _CHUNK]
                if start:
                    chunk.insert(0, (name(dst), 0, (dst,), _REDUCED))
                if not modular:
                    body = (" + " if op == _OP_ADD else "*").join(
                        [t for t, _, _, _ in chunk])
                elif op == _OP_ADD:
                    body, bound = _mod_sum([(t, b) for t, _, _, b in chunk], " + ")
                else:
                    body, bound = _mod_product([(t, b) for t, _, _, b in chunk])
                expression = f"({body})"
                depth = max(d for _, d, _, _ in chunk) + len(chunk) + 1
                reads = tuple(r for _, _, rs, _ in chunk for r in rs)
                if start + _CHUNK < len(operands):
                    lines.append((dst, settled(expression, bound), reads))
        if uses[dst] == 1 and depth < _MAX_INLINE_DEPTH:
            text[dst] = (expression, depth, reads, bound)
        else:
            lines.append((dst, settled(expression, bound), reads))
            text[dst] = (name(dst), 0, (dst,), _REDUCED)

    returned = [read(o) for o in program.outputs]
    outputs = [settled(t, bound) for t, _, _, bound in returned]
    pieces = [[]]
    size = 0
    for line in lines:
        if size > _PIECE_CHARS:
            pieces.append([])
            size = 0
        pieces[-1].append(line)
        size += len(line[1])

    make = "p, c" if modular else "c"
    inv = ["def _inv(b):",
           "    try:",
           "        return pow(b, -1, p)",
           "    except ValueError:",
           "        raise DivisionByZero(\"denominator is zero at this point\") "
           "from None"] if modular else []
    later = {r for _, _, reads, _ in returned for r in reads}  # read after a piece
    units, calls = [], []
    for k in reversed(range(len(pieces))):
        last = k == len(pieces) - 1
        defined, takes = set(), set()
        for dst, _, reads in pieces[k]:
            takes.update(r for r in reads if r not in defined)
            defined.add(dst)
        if last:
            takes.update(r for r in later if r not in defined)
            hands = f"[{', '.join(outputs)}]"
        else:
            hands = f"[{', '.join(map(name, sorted(defined & later)))}]"
        later = (later - defined) | takes
        prelude = [f"{name(r)} = c[{r - n_in}]" for r in sorted(takes)
                   if n_in <= r < n_leaves] + inv
        assigns = [f"t{dst} = {expression}" for dst, expression, _ in pieces[k]]
        if len(pieces) == 1:
            return [], prelude, assigns, outputs
        args = [name(r) for r in sorted(takes) if not n_in <= r < n_leaves]
        units.append(_unit(f"_piece{k}", make, prelude, args, assigns, hands))
        calls.append(f"_p{k}({', '.join(args)})" if last
                     else f"{hands} = _p{k}({', '.join(args)})")
    units.reverse()  # both were gathered last piece first
    calls.reverse()
    made = [f"_p{k} = _piece{k}({make})" for k in range(len(pieces))]
    return units, made, calls[:-1], calls[-1]


def _define(units: Sequence[str]):
    """Compile `units`, each the source of one function, in order; returns
    the last unit's function. Each is defined in a namespace of its own
    that holds the functions defined before it but not itself, so no
    function and namespace form a reference cycle: the compiled code goes
    with its last function, not with the cyclic GC."""
    made = {}
    for unit in units:  # generated purely from a program
        namespace = {"DivisionByZero": DivisionByZero, **made}
        exec(unit, namespace)
        name = unit[len("def "):unit.index("(")]
        made[name] = namespace.pop(name)
    return made[name]


def _mod_sum(operands, sign: str) -> tuple[str, tuple[int, int]]:
    """The (text, bound) operands joined by `sign` (" + " or " - ") and the
    bound of the result: n operands add ceil(log2 n) to b, and an operand
    that would push the result past _LAZY_BITS is reduced first."""
    extra = (len(operands) - 1).bit_length()
    operands = [(f"({t} % p)", _REDUCED) if b[1] + extra > _LAZY_BITS[1]
                else (t, b) for t, b in operands]
    return sign.join(t for t, _ in operands), (
        max(b[0] for _, b in operands), max(b[1] for _, b in operands) + extra)


def _mod_product(operands) -> tuple[str, tuple[int, int]]:
    """The (text, bound) operands multiplied left to right and the bound of
    the result: bounds add, and where a factor would push the running
    product past _LAZY_BITS, the product so far is reduced, then the factor
    if needed."""
    a_max, b_max = _LAZY_BITS
    text, (a, b) = operands[0]
    parts = [text]
    for text, (fa, fb) in operands[1:]:
        if a + fa > a_max or b + fb > b_max:
            if (a, b) != _REDUCED:
                parts.append(" % p")
                a, b = _REDUCED
            if a + fa > a_max or b + fb > b_max:
                text, fa, fb = f"({text} % p)", 1, 0
        parts.append(f" * {text}")
        a, b = a + fa, b + fb
    return "".join(parts), (a, b)


def _unit(name, make, prelude, args, body, result) -> str:
    """`def name(make)` runs `prelude` and returns a function of `args`
    that runs `body` and returns `result`."""
    return "".join([f"def {name}({make}):\n",
                    *(f"    {line}\n" for line in prelude),
                    f"    def _fn({', '.join(args)}):\n",
                    *(f"        {line}\n" for line in body),
                    f"        return {result}\n",
                    "    return _fn\n"])


def compile_program(exprs: Sequence[Expression],
                    inputs: Sequence[Symbol]) -> Program:
    """Compile expressions into a `Program` over the given input symbols.

    Raises UnboundSymbol, naming every missing symbol, if an expression
    mentions a symbol outside `inputs`. No source is emitted here; that
    happens on the first run in each arithmetic domain.
    """
    input_slot = {s: i for i, s in enumerate(inputs)}
    const_slot: dict[Fraction, int] = {}
    constants: list[Fraction] = []
    instructions: list[tuple] = []
    memo: dict[int, int] = {}
    next_slot = len(inputs)  # constants and temporaries are appended

    order = _topo(list(exprs))
    missing = sorted({node.symbol.display for node in order
                      if isinstance(node, Sym) and node.symbol not in input_slot})
    if missing:
        raise UnboundSymbol(f"no value bound for symbol(s) {', '.join(missing)}")
    # constants first so the slot layout is [inputs][constants][temps]
    for node in order:
        if isinstance(node, Const) and node.value not in const_slot:
            const_slot[node.value] = next_slot
            constants.append(node.value)
            next_slot += 1

    for node in order:
        if isinstance(node, Const):
            memo[id(node)] = const_slot[node.value]
        elif isinstance(node, Sym):
            memo[id(node)] = input_slot[node.symbol]
        else:
            kids = tuple(memo[id(c)] for c in node.args)
            dst = next_slot
            next_slot += 1
            if isinstance(node, Sum):
                instructions.append((_OP_ADD, dst, kids))
            elif isinstance(node, Product):
                instructions.append((_OP_MUL, dst, kids))
            elif isinstance(node, Difference):
                instructions.append((_OP_SUB, dst, kids[0], kids[1]))
            elif isinstance(node, Quotient):
                instructions.append((_OP_DIV, dst, kids[0], kids[1]))
            else:
                instructions.append((_OP_POW, dst, kids[0], node.exponent))
            memo[id(node)] = dst

    outputs = [memo[id(e)] for e in exprs]
    return Program(instructions, constants, outputs, tuple(inputs))


def evaluate(e: Expression, point: Mapping[Symbol, object],
             arithmetic="exact"):
    """Evaluate `e` at `point`.

    `arithmetic` is "exact" (Fraction result), "float64", or an integer
    modulus p, a prime or a product of distinct primes (int result in
    [0, p)). Exact and modular modes are deterministic; division by zero
    raises, never silently absorbs.
    """
    symbols = sorted(point.keys(), key=Symbol.sort_key)
    values = [point[s] for s in symbols]
    if arithmetic == "float64":
        return compile_float_fn(e, symbols)(*map(float, values))
    program = compile_program([e], symbols)  # raises UnboundSymbol if underbound
    if arithmetic == "exact":
        return program.run_exact(values)[0]
    if isinstance(arithmetic, int):
        return program.run_mod(values, arithmetic)[0]
    raise ValueError(f"unknown arithmetic mode {arithmetic!r}")


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary expansion
    raise TypeError(f"cannot evaluate exactly with value of type {type(v).__name__}")


def _as_residue(v, p: int) -> int:
    if isinstance(v, int):
        return v % p
    if isinstance(v, Fraction):
        try:
            return v.numerator * pow(v.denominator, -1, p) % p
        except ValueError:  # the denominator shares a factor with p
            raise DivisionByZero(f"value {v} has no residue mod {p}") from None
    raise TypeError("prime-field evaluation takes ints or Fractions")


def compile_float_fn(e: Expression, inputs: Sequence[Symbol]):
    """Compile to a plain Python function of float (or numpy array) args.

    The code is `compile_program([e], inputs)`'s plain rendering, which
    uses only + - * / **, so numpy arrays broadcast through it unchanged.
    Scalar division by zero raises DivisionByZero. The function's
    docstring holds the generated source.
    """
    program = compile_program([e], inputs)
    raw = program.float_fn()

    def fn(*values):
        try:
            return raw(*values)[0]
        except ZeroDivisionError as exc:
            raise DivisionByZero(str(exc)) from None

    fn.__doc__ = program.source()
    return fn


# ---------------------------------------------------------------- printing

_LVL_SUM, _LVL_PROD, _LVL_POWBASE, _LVL_ATOM = 1, 2, 3, 4


def _render(e: Expression) -> tuple[str, int]:
    """The text of `e` and its precedence level.

    A node's text is kept as a list of parts until a reader needs it as one
    string. A node whose text begins with that of its first child, read by
    nothing else, extends the child's list in place, so a left-nested chain
    such as `x - x - ... - x` or `x/x/.../x` renders in linear time.
    """
    order = _topo([e])
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
