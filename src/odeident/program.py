"""The evaluator: `compile_program` lays expression DAGs out as a
straight-line `Program`, run in float64, exactly or modulo an integer;
`compile_float_fn` and `evaluate` are its one-output forms. Building a
model needs none of it; `odeident.expr` loads it on first access.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import expr
from .expr import (Const, Difference, DivisionByZero, Expression, Product,
                   Quotient, Sum, Sym, Symbol, UnboundSymbol)

__all__ = ["Program", "compile_float_fn", "compile_program", "evaluate"]


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
# operand carries its (a, b): residues (inputs, temporaries, the results of
# pow and _inv, and constants other than small ints) are (1, 0), an integral
# constant of at most _LAZY_BITS[1] bits is bound as itself with
# (0, its bit length) (`_constant_bound`), n summands add ceil(log2 n) to b,
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
    `run_mod` binds a small integral constant as itself and any other as
    its residue (`_constant_bound`).
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
        `_make(p, constants)` when modular, with the constants bound as
        `_constant_bound` says, returns a function of the input values that
        returns the list of output values."""
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
            fn = self._bind(p, True, (p, _mod_constants(self.constants, p)))
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
    bounds = [_REDUCED] * n_in + [_constant_bound(c) if modular else _REDUCED
                                  for c in program.constants]
    text = {j: (name(j), 0, (j,), bound) for j, bound in enumerate(bounds)}
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

    order = expr.topo_order(list(exprs))
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


def _constant_bound(c: Fraction) -> tuple[int, int]:
    """The modular rendering's bound of constant `c`, which says how
    `run_mod` binds it: an integer of at most _LAZY_BITS[1] bits as
    itself, (0, its bit length), so that it multiplies as a small int;
    any other constant as its residue, _REDUCED. The rule does not depend
    on the modulus, so one source serves every modulus."""
    if c.denominator == 1 and c.numerator.bit_length() <= _LAZY_BITS[1]:
        return (0, c.numerator.bit_length())
    return _REDUCED


def _mod_constants(constants: Sequence[Fraction], p: int) -> list[int]:
    """`constants` as the modular rendering binds them mod p, each by the
    rule of `_constant_bound`."""
    return [c.numerator if _constant_bound(c) != _REDUCED
            else _as_residue(c, p) for c in constants]


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
