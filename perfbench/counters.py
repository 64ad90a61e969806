"""Machine-independent counters, computed by the benchmark's own walks over
expression DAGs (`.args`) and over the arguments and results the tracer
kept, after the traced cycle ends."""

from __future__ import annotations

from odeident import expr

from tracer import NAME, OP


def unique_nodes(roots) -> list:
    """Nodes reachable from `roots`, each object once, children first."""
    order, seen = [], set()
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child in node.args)
    return order


def distinct_structures(roots) -> int:
    """Number of structurally distinct subexpressions: nodes equal in type,
    payload and children count once."""
    key_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    for node in unique_nodes(roots):
        payload = (getattr(node, "value", None), getattr(node, "symbol", None),
                   getattr(node, "exponent", None))
        key = (type(node).__name__, payload,
               tuple(key_of[id(c)] for c in node.args))
        key_of[id(node)] = interned.setdefault(key, len(interned))
    return len(interned)


def _kept(tracer, name: str):
    for index, (args, result) in tracer.io.items():
        span = tracer.spans[index]
        if span[NAME] == name:
            yield span, args, result


def jacobian(tracer, jacobian_kind: str | None) -> dict:
    """Node and instruction counts of the constrained Jacobian compiled
    during the operation of `jacobian_kind`; zeros where none is."""
    out = {"nodes": 0, "distinct": 0, "instructions": 0, "mul_instructions": 0}
    for span, args, program in _kept(tracer, "expr.compile_program"):
        if tracer.op_kinds.get(span[OP]) != jacobian_kind:
            continue
        exprs = args[0]
        instructions = program.instructions
        out = {"nodes": len(unique_nodes(exprs)),
               "distinct": distinct_structures(exprs),
               "instructions": len(instructions),
               "mul_instructions": sum(1 for ins in instructions
                                       if ins[0] == expr._OP_MUL)}
    return out


def source_chars(tracer) -> int:
    """Characters of Python source generated by compile_float_fn."""
    return sum(len(fn.__doc__ or "")
               for _, _, fn in _kept(tracer, "expr.compile_float_fn"))


def jet_nodes(tracer, output_index: int, order: int) -> int:
    """Nodes of the order-`order` entry of the first jet of that output built
    to at least that order; 0 when none was built."""
    for _, args, jet in _kept(tracer, "model.output_jet"):
        if args[1] == output_index and len(jet.entries) > order:
            return len(unique_nodes([jet.entries[order]]))
    return 0
