"""Exact algebra: `normalize` expands an expression into a numerator and
denominator pair, `RationalCanonical`, so `normalize(a - b).is_zero`
decides whether `a` and `b` are equal as rational functions. Building a
model needs none of it; `odeident.expr` loads it on first access.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import expr
from .expr import (Const, DenominatorIdenticallyZero, Difference, Expression,
                   ExpressionTooLarge, Product, Quotient, Sum, Sym, Symbol)

__all__ = ["RationalCanonical", "normalize"]


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
    order = expr.topo_order([e])
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
