"""Expression engine: construction, calculus, canonical forms, evaluation,
and the text syntax."""

import copy
import functools
import gc
import math
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from odeident import canonical as C
from odeident import expr as E
from odeident import model as M
from odeident import ranktest as R
from helpers import (XYZ, fd_cases, fd_derivative, identity_residuals,
                     random_expression, random_point, reference_differentiate,
                     reference_normalize, run_capped)

X, Y, Z = (E.sym(s) for s in XYZ)
xs, ys, zs = XYZ


# ------------------------------------------------------------ strategies

_consts = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                       max_denominator=6).map(E.const)
_leaves = st.one_of(_consts, st.sampled_from([X, Y, Z]))


def _safe_div(pair):
    a, b = pair
    # b^2 + 1 is positive at real points and is never the zero polynomial
    return E.div(a, E.add(E.mul(b, b), E.ONE))


def _expression_strategy(max_leaves):
    return st.recursive(
        _leaves,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda ab: E.add(*ab)),
            st.tuples(kids, kids).map(lambda ab: E.sub(*ab)),
            st.tuples(kids, kids).map(lambda ab: E.mul(*ab)),
            st.tuples(kids, kids).map(_safe_div),
            st.tuples(kids, st.integers(min_value=0, max_value=3)).map(
                lambda ak: E.pow_(*ak)),
        ),
        max_leaves=max_leaves,
    )


_expressions = _expression_strategy(8)
# derivatives of quotients square the denominators, so the calculus
# properties use smaller trees to keep cross-multiplication cheap
_small_expressions = _expression_strategy(4)

# Every product `normalize` forms at a node multiplies two polynomials whose
# degrees sum to at most max(n, d) <= n + d, where (n, d) is the node's
# bound in the recurrence its docstring gives. In the three symbols x, y, z
# a polynomial of degree k has at most C(k + 3, 3) terms, and a product of
# degrees summing to k has the most term pairs when they split evenly. So a draw in which no node has
# n + d above _SAFE_DEGREE (41) never reaches the expansion limit, and
# the property tests that expand draws reject the rest before expanding.
# About 3% of the congruence test's draws are rejected and about 1% of the
# others': nested quotients and powers of them, whose bounds double with
# each squared divisor, `_safe_div`'s and the tests' own b*b + 1.
_SAFE_DEGREE = max(k for k in range(200)
                   if math.comb(k // 2 + 3, 3) * math.comb(k - k // 2 + 3, 3)
                   <= C._MAX_PRODUCT_TERMS)


def _degree_bound(e) -> int:
    """The largest n + d over the nodes of `e`, where (n, d) bounds the
    degrees of the node's numerator and denominator as `normalize` does."""
    bounds = {}
    for node in E.topo_order([e]):
        kids = [bounds[id(c)] for c in node.args]
        if isinstance(node, E.Sym):
            bound = (1, 0)
        elif not kids:
            bound = (0, 0)
        elif isinstance(node, (E.Sum, E.Difference)):
            den = sum(d for _, d in kids)
            bound = (max(n + den - d for n, d in kids), den)
        elif isinstance(node, E.Product):
            bound = (sum(n for n, _ in kids), sum(d for _, d in kids))
        elif isinstance(node, E.Quotient):
            (n1, d1), (n2, d2) = kids
            bound = (n1 + d2, d1 + n2)
        else:  # Power
            (n, d), k = kids[0], node.exponent
            bound = (k * n, k * d) if k >= 0 else (-k * d, -k * n)
        bounds[id(node)] = bound
    return max(n + d for n, d in bounds.values())


def _expandable(*exprs):
    """Reject the draw unless expanding `exprs` stays below the limit."""
    assume(max(map(_degree_bound, exprs)) <= _SAFE_DEGREE)


_rational_points = st.fixed_dictionaries({
    s: st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                    max_denominator=5)
    for s in XYZ
})


# ---------------------------------------------------------- construction

def test_constants_are_exact_rationals():
    assert E.const(3).value == 3
    assert E.const(Fraction(3, 4)).value == Fraction(3, 4)
    with pytest.raises(TypeError):
        E.const(0.5)


def test_constant_folding():
    assert E.add(E.const(1), E.const(2)) == E.const(3)
    assert E.mul(E.const(3), E.const(Fraction(1, 3))) == E.ONE
    assert E.div(E.const(3), E.const(4)) == E.const(Fraction(3, 4))
    assert E.pow_(E.const(2), -2) == E.const(Fraction(1, 4))
    assert E.add(X, E.ZERO) is X
    assert E.mul(X, E.ONE) is X
    assert E.mul(X, E.ZERO) == E.ZERO
    assert E.pow_(X, 1) is X
    assert E.pow_(X, 0) == E.ONE


def test_a_constant_stays_within_the_printable_bound():
    # 13,288 bits is the bit length of 10^4000 - 1
    assert E.const(2**13287).value.numerator.bit_length() == 13288
    assert E.const(Fraction(1, 2**13287)).value.denominator == 2**13287
    for value in (2**13288, Fraction(1, 2**13288), -(2**13288)):
        with pytest.raises(E.ExpressionTooLarge, match="13,288 bits"):
            E.const(value)
    with pytest.raises(E.ExpressionTooLarge):
        E.mul(E.const(2**13287), E.const(2))
    biggest = E.const(10**4000 - 1)
    assert E.parse_expression(E.to_text(biggest)) is biggest


def test_a_too_large_constant_power_is_refused_before_it_is_computed():
    started = time.perf_counter()
    for base, k in ((2, 10**12), (10, 99999999), (Fraction(1, 3), -10**12),
                    (Fraction(2, 3), 10**12)):
        with pytest.raises(E.ExpressionTooLarge):
            E.pow_(E.const(base), k)
    assert time.perf_counter() - started < 1.0
    # at the bound, and bases whose powers stay small at any exponent
    assert E.pow_(E.const(2), 13287) is E.const(2**13287)
    with pytest.raises(E.ExpressionTooLarge):
        E.pow_(E.const(2), 13288)
    assert E.pow_(E.const(3), 8383).value.numerator.bit_length() == 13287
    with pytest.raises(E.ExpressionTooLarge):
        E.pow_(E.const(3), 8384)
    assert E.pow_(E.ONE, 10**12) is E.ONE
    assert E.pow_(E.const(-1), 10**12 + 1) is E.const(-1)
    assert E.pow_(E.ZERO, 10**12) is E.ZERO


def test_literal_zero_denominator_rejected():
    with pytest.raises(E.DenominatorIdenticallyZero):
        E.div(X, E.ZERO)
    with pytest.raises(E.DenominatorIdenticallyZero):
        E.pow_(E.ZERO, -1)


def test_nary_flattening():
    e = E.add(X, E.add(Y, Z))
    assert isinstance(e, E.Sum) and len(e.args) == 3
    e = E.mul(X, E.mul(Y, Z))
    assert isinstance(e, E.Product) and len(e.args) == 3


def test_structural_equality_and_hash():
    a = X * Y + Z
    b = X * Y + Z
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert a != X * Y + Y


def test_interning_keeps_tags_and_payloads_apart():
    assert E.Sum((X, Y)) is not E.Product((X, Y))
    assert E.Difference((X, Y)) is not E.Quotient((X, Y))
    assert X ** 2 is not X ** 3
    assert E.const(1) is E.const(Fraction(2, 2)) is E.ONE
    assert E.sym(E.Symbol("x")) is X
    assert E.sym(E.Symbol("x", E.STATE)) is not X


def test_copy_and_pickle_return_the_interned_node():
    e = (X * Y + Z ** -2) / (X - E.const(Fraction(1, 3)))
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert copy.deepcopy([e, X])[0] is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps(E.const(Fraction(-7, 2)))) is E.const(Fraction(-7, 2))


def test_dropped_nodes_leave_the_table():
    def jacobian():
        system = R.build_phi_system(R.build_phi())
        return R.substitute_dynamics(R.parameter_jacobian(system))

    jacobian()  # builds the cached model once
    gc.collect()
    before = len(E._NODES)
    matrix = jacobian()
    assert len(E._NODES) > before
    del matrix
    gc.collect()
    assert len(E._NODES) == before


def test_a_late_callback_leaves_a_node_interned_again_in_the_table():
    value = Fraction(987654321, 1234577)  # a constant no other test builds
    key = ("const", value)
    node = E.const(value)
    dead = E._NODES[key]
    del node
    gc.collect()
    assert dead() is None and key not in E._NODES
    # put the dead reference back, as if its callback had not run yet
    E._NODES[key] = dead
    again = E.const(value)
    assert E._NODES[key]() is again
    E._forget(dead)  # the late callback
    assert E._NODES[key]() is again
    assert E.const(value) is again
    del again
    gc.collect()
    assert key not in E._NODES


def test_symbol_validation():
    with pytest.raises(ValueError):
        E.Symbol("x", order=-1)
    with pytest.raises(ValueError):
        E.Symbol("y", E.OUTPUT_DERIV, output_index=0)
    with pytest.raises(ValueError):
        E.Symbol("x", E.STATE, order=1)
    with pytest.raises(ValueError):
        E.Symbol("x").derivative()


def test_symbol_table_duplicates():
    with pytest.raises(E.DuplicateDeclaration):
        E.SymbolTable([E.Symbol("a"), E.Symbol("a", E.STATE)])


# the reflected operators, the operands and symbol kinds refused, and
# printing: str, and repr cut to 120 characters of text
_WIDE = E.add(*(E.sym(f"a{i}") for i in range(40)))


@pytest.mark.parametrize("build, want", [
    (lambda: 1 + X, E.add(E.ONE, X)),
    (lambda: 1 - X, E.sub(E.ONE, X)),
    (lambda: 2 / X, E.div(E.const(2), X)),
    (lambda: X ** 1.5, TypeError("exponents must be Python ints")),
    (lambda: X + 1.5, TypeError("cannot use float as an expression")),
    (lambda: X + None, TypeError("cannot use NoneType as an expression")),
    (lambda: E.Symbol("a", "bogus"),
     ValueError("unknown symbol kind 'bogus'")),
    (lambda: str(X * Y + 1), "x*y + 1"),
    (lambda: repr(_WIDE), f"<Sum {E.to_text(_WIDE)[:117]}...>"),
], ids=["1 + x", "1 - x", "2 / x", "x ** 1.5", "x + 1.5", "x + None",
        "unknown kind", "str", "long repr"])
def test_operators_refusals_and_printing(build, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            build()
        assert str(info.value) == str(want)
    else:
        assert build() == want


# --------------------------------------------------------- differentiate

def test_differentiate_product_and_power_rule():
    d = E.differentiate(X * Y + X ** 2, xs)
    assert E.normalize(d - (Y + 2 * X)).is_zero


def test_differentiate_constant_is_zero():
    assert E.differentiate(E.const(7), xs) == E.ZERO
    assert E.differentiate(Z, xs) == E.ZERO  # unrelated symbol


def test_differentiate_unknown_symbol_ok():
    # differentiating in a symbol that never occurs is total, result zero
    assert E.differentiate(X + Y, E.Symbol("fresh")) == E.ZERO


def test_differentiate_quotient_closed_form():
    # d/du of delta*rho/((rho-delta)*u + delta)
    delta, rho, u = (E.sym(E.Symbol(n)) for n in ("delta", "rho", "u"))
    expr = delta * rho / ((rho - delta) * u + delta)
    got = E.differentiate(expr, u.symbol)
    want = -(delta * rho * (rho - delta)) / ((rho - delta) * u + delta) ** 2
    assert E.normalize(got - want).is_zero


def test_differentiate_quotient_vs_finite_differences():
    delta_s, rho_s, u_s = (E.Symbol(n) for n in ("delta", "rho", "u"))
    delta, rho, u = (E.sym(s) for s in (delta_s, rho_s, u_s))
    expr = delta * rho / ((rho - delta) * u + delta)
    deriv = E.differentiate(expr, u_s)
    rng = random.Random(7)
    checked = 0
    while checked < 5:
        point = {delta_s: Fraction(rng.randint(1, 8), rng.randint(1, 4)),
                 rho_s: Fraction(rng.randint(1, 8), rng.randint(1, 4)),
                 u_s: Fraction(rng.randint(1, 8), rng.randint(1, 4))}
        den = (point[rho_s] - point[delta_s]) * point[u_s] + point[delta_s]
        if abs(den) < Fraction(1, 3):
            continue
        fd = fd_derivative(expr, u_s, {s: float(v) for s, v in point.items()})
        exact = E.evaluate(deriv, point, arithmetic="float64")
        assert abs(fd - exact) <= 1e-8 * (1.0 + abs(exact))
        checked += 1


# ------------------------------------------------------------ substitute

def test_substitute_basic():
    got = E.substitute_many([X + Y], {xs: Y ** 2})[0]
    assert E.normalize(got - (Y ** 2 + Y)).is_zero


def test_substitute_empty_is_identity():
    assert E.substitute_many([X], {})[0] is X


def test_substitute_is_simultaneous():
    swapped = E.substitute_many([X - Y], {xs: Y, ys: X})[0]
    assert E.normalize(swapped - (Y - X)).is_zero


def test_substitute_preserves_untouched_subtrees():
    shared = Y * Z
    e = X + shared
    got = E.substitute_many([e], {xs: E.const(2)})[0]
    assert isinstance(got, E.Sum)
    assert any(child is shared for child in got.args)


# ------------------------------------------------------------- normalize

def test_normalize_cancellation_to_zero():
    assert E.normalize(X / Y + (-X) / Y).is_zero


def test_normalize_algebraic_identity():
    assert E.normalize((X ** 2 - Y ** 2) / (X - Y) - (X + Y)).is_zero


def test_normalize_appendix_second_equation_members():
    # the two printed members of the second transformed-dynamics identity,
    # with e^(rho tau) written as u and e^(-rho tau) as 1/u
    T_U, T_I, V, eta, delta, rho, u = (
        E.sym(E.Symbol(n)) for n in ("T_U", "T_I", "V", "eta", "delta",
                                     "rho", "u"))
    first = ((eta * T_U * V - delta * T_I) / rho) * (delta / u + rho - delta)
    second = -(E.ONE / u) * (T_I * delta - T_U * V * eta) \
        * (delta - delta * u + rho * u) / rho
    assert E.normalize(first - second).is_zero


def test_normalize_denominator_identically_zero():
    with pytest.raises(E.DenominatorIdenticallyZero):
        E.normalize(E.div(E.ONE, X - X))


@pytest.mark.parametrize("fail, error, message", [
    (lambda: E.compile_float_fn(1 / X, [xs])(0.0), E.DivisionByZero,
     "float division by zero"),
    (lambda: E.normalize((X - X) ** -1), E.DenominatorIdenticallyZero,
     "zero raised to a negative power"),
    (lambda: C.RationalCanonical({(): 1}, {}), E.DenominatorIdenticallyZero,
     "denominator expands to the zero polynomial"),
], ids=["float division", "negative power of zero", "empty denominator"])
def test_typed_errors_carry_their_messages(fail, error, message):
    with pytest.raises(error) as info:
        fail()
    assert str(info.value) == message


def test_canonical_denominator_is_monic():
    rc = E.normalize(X / (2 * Y))
    lead = max(rc.denominator.values(), key=abs)
    assert lead == 1


def test_canonical_form_prints_by_hand_derived_text():
    # over the monic denominator 2y + 4 -> y + 2 the numerator is halved;
    # terms run from the highest total degree down, a -1 prints as a sign
    # and a negative coefficient as a subtraction
    rc = E.normalize(E.parse_expression("(2*x^2*y - x + 3)/(2*y + 4)"))
    assert str(rc) == "(x^2*y - 1/2*x + 3/2) / (y + 2)"
    assert repr(rc) == "<RationalCanonical (x^2*y - 1/2*x + 3/2) / (y + 2)>"
    # a denominator of 1 is left out, and zero prints as 0
    assert str(E.normalize(E.parse_expression("y - x^2"))) == "-x^2 + y"
    assert str(E.normalize(X - X)) == "0"


def test_canonical_coefficient_lookup():
    rc = E.normalize(3 * X * Y ** 2 - E.const(Fraction(1, 2)) * Z)
    assert rc.coefficient({xs: 1, ys: 2}) == 3
    assert rc.coefficient({zs: 1}) == Fraction(-1, 2)
    assert rc.coefficient({xs: 5}) == 0


# -------------------------------------------------------------- evaluate

def test_evaluate_exact():
    assert E.evaluate(X / Y, {xs: 1, ys: 2}) == Fraction(1, 2)


def test_evaluate_rejects_an_unknown_arithmetic():
    with pytest.raises(ValueError, match="unknown arithmetic mode 'bogus'"):
        E.evaluate(X, {xs: 1}, arithmetic="bogus")


def test_evaluate_division_by_zero():
    with pytest.raises(E.DivisionByZero):
        E.evaluate(X / Y, {xs: 1, ys: 0})


def test_evaluate_delta_prime_hand_value():
    delta, rho, u = (E.Symbol(n) for n in ("delta", "rho", "u"))
    expr = E.sym(delta) * E.sym(rho) / (
        (E.sym(rho) - E.sym(delta)) * E.sym(u) + E.sym(delta))
    got = E.evaluate(expr, {delta: 1, rho: 2, u: 3})
    assert got == Fraction(1, 2)


def test_evaluate_unbound_symbol():
    with pytest.raises(E.UnboundSymbol):
        E.evaluate(X + Y, {xs: 1})


def test_evaluate_prime_field_matches_exact():
    p = 4611686018427388039
    e = (X + Y) ** 3 / (X - E.const(7))
    point = {xs: Fraction(2, 3), ys: 5}
    exact = E.evaluate(e, point)
    residue = exact.numerator * pow(exact.denominator, -1, p) % p
    assert E.evaluate(e, point, arithmetic=p) == residue


def test_evaluate_float_matches_exact():
    e = (X + 2 * Y) ** 2 / (Z + E.const(3))
    point = {xs: Fraction(1, 4), ys: 2, zs: 1}
    exact = float(E.evaluate(e, point))
    got = E.evaluate(e, {s: float(v) for s, v in point.items()},
                     arithmetic="float64")
    assert got == pytest.approx(exact, rel=1e-14)


def test_compile_float_fn_rejects_unbound():
    for compile_ in (E.compile_float_fn,
                     lambda e, inputs: E.compile_program([e], inputs)):
        with pytest.raises(E.UnboundSymbol) as err:
            compile_(Z * X + Y, [xs])
        assert "symbol(s) y, z" in str(err.value)


def test_compiled_program_shares_subexpressions():
    shared = (X + Y) ** 2
    prog = E.compile_program([shared * Z, shared + Z], [xs, ys, zs])
    got = prog.run_exact([1, 2, 3])
    assert got == [27, 12]


def test_run_exact_returns_fractions_and_takes_floats_exactly():
    # the plain binding holds integral constants as ints
    prog = E.compile_program([E.const(3), X], [xs])
    got = prog.run_exact([0.1])
    assert got == [3, Fraction(3602879701896397, 36028797018963968)]
    assert [type(v) for v in got] == [Fraction, Fraction]
    with pytest.raises(TypeError):
        prog.run_exact(["1/10"])


def test_run_mod_reduces_each_input_to_its_residue():
    p = 4611686018427388039
    e = (X + Y) ** 3 / (X - E.const(7))
    point = {xs: Fraction(2, 3), ys: 5}
    exact = E.evaluate(e, point)
    residue = exact.numerator * pow(exact.denominator, -1, p) % p
    prog = E.compile_program([e], [xs, ys])
    assert prog.run_mod([Fraction(2, 3), 5], p) == [residue]
    assert E.evaluate(e, point, p) == residue
    with pytest.raises(TypeError):
        prog.run_mod([0.5, 5], p)
    with pytest.raises(ValueError, match="at least 2"):
        prog.run_mod([1, 5], 1)


def test_free_symbols_of_several_expressions_takes_one_traversal(
        monkeypatch):
    a, b = X * Y + 1, Y / Z
    union = E.free_symbols(a) | E.free_symbols(b)
    calls = []
    topo = E.topo_order
    monkeypatch.setattr(E, "topo_order", lambda roots: calls.append(roots)
                        or topo(roots))
    assert E.free_symbols(a, b) == union == {xs, ys, zs}
    assert len(calls) == 1


def test_exact_algebra_and_the_evaluator_traverse_through_expr(monkeypatch):
    # one spy on `expr` sees the traversal of every module built on it
    calls = []
    topo = E.topo_order
    monkeypatch.setattr(E, "topo_order", lambda roots, seen=None:
                        calls.append(roots) or topo(roots, seen))
    E.normalize(X * Y + 1)
    E.compile_program([X * Y + 1], [xs, ys])
    assert len(calls) == 2


def _deep_or_wide(shape, x, nary):
    """`x*(x*(...) + 1) + 1` nested 1000 deep, or a 5000-operand Sum or
    Product; `nary(op, operands)` builds the wide node."""
    if shape == "deep":
        e = x
        for _ in range(1000):
            e = x * e + 1
        return e
    if shape == "wide sum":
        return nary(operator.add, [k * x for k in range(1, 5001)])
    return nary(operator.mul,
                [(x + k) / (x + (k + 1)) for k in range(1, 5001)])


@pytest.mark.parametrize("shape", ["deep", "wide sum", "wide product"])
def test_deep_and_wide_programs_evaluate_in_every_domain(shape):
    p = (1 << 61) - 1
    e = _deep_or_wide(shape, X, lambda op, operands:
                      (E.add if op is operator.add else E.mul)(*operands))
    # the same arithmetic as a left-to-right Python loop, in the same order
    exact = _deep_or_wide(shape, Fraction(1, 2), functools.reduce)
    looped = _deep_or_wide(shape, 0.5, functools.reduce)
    prog = E.compile_program([e], [xs])
    assert prog.run_exact([Fraction(1, 2)]) == [exact]
    assert E.compile_float_fn(e, [xs])(0.5) == looped  # bit for bit
    assert prog.float_fn()(0.5) == [looped]
    half = pow(2, -1, p)
    assert prog.run_mod([half], p) == \
        [exact.numerator * pow(exact.denominator, -1, p) % p]


# --------------------------------------------------------------- parsing

def test_parse_round_trip_hiv_line():
    text = "lambda - rho*T_U - eta*T_U*V"
    e = E.parse_expression(text)
    assert E.to_text(e) == text


def test_parse_rational_literals():
    assert E.parse_expression("3/4") == E.const(Fraction(3, 4))
    e = E.parse_expression("1/2*x + 2")
    assert E.normalize(e - (E.const(Fraction(1, 2)) * X + 2)).is_zero


def test_parse_precedence():
    assert E.evaluate(E.parse_expression("2 - 3 - 4"), {}) == -5
    assert E.evaluate(E.parse_expression("2 + 3*4^2"), {}) == 50
    assert E.evaluate(E.parse_expression("12/3/2"), {}) == 2
    assert E.evaluate(E.parse_expression("-2^2"), {}) == -4


def test_parse_negative_exponent():
    e = E.parse_expression("x^-2")
    assert E.evaluate(e, {xs: 2}, arithmetic="float64") == 0.25


def test_parse_errors_carry_positions():
    with pytest.raises(E.ParseError) as err:
        E.parse_expression("x + ")
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(E.ParseError):
        E.parse_expression("")
    with pytest.raises(E.ParseError) as err:
        E.parse_expression("x + 1.5")
    assert "rational" in str(err.value)
    with pytest.raises(E.ParseError):
        E.parse_expression("x $ y")
    with pytest.raises(E.ParseError):
        E.parse_expression("x + (y")
    with pytest.raises(E.ParseError):
        E.parse_expression("x y")


def test_number_tokens_are_the_decimal_digits_int_reads():
    # Arabic-Indic three: a decimal digit, which int reads as 3
    assert E.parse_expression("\u0663*x") == E.parse_expression("3*x")
    # superscript two: a digit to str.isdigit, but no number to int
    for text, col in (("x^\u00b2", 3), ("\u00b2", 1), ("x^(\u00b2)", 4)):
        with pytest.raises(E.ParseError, match="unexpected character") as err:
            E.parse_expression(text)
        assert err.value.col == col


def test_identifiers_are_ascii_letters_digits_and_underscore():
    assert E.parse_expression("_a1 + B_2*z9") == E.sym(E.Symbol("_a1", E.AUX)) \
        + E.sym(E.Symbol("B_2", E.AUX)) * E.sym(E.Symbol("z9", E.AUX))
    assert [E.is_identifier(t) for t in ("x", "_", "T_U2", "", "2y", "x-y")] \
        == [True, True, True, False, False, False]
    # a letter or digit of another script is no part of one: str.isalnum
    # read "\u00e9 + x\u00b2" as two symbols
    for text, col in (("\u00e9 + x\u00b2", 1), ("x\u00b2", 2),
                      ("x\u0663", 2), ("a\u00e9b", 2), ("\u03b7*t", 1)):
        with pytest.raises(E.ParseError) as err:
            E.parse_expression(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert not E.is_identifier(text.replace(" + ", ""))


@pytest.mark.parametrize("text, col", [
    ("1 + " + "9" * 4001, 5),
    ("x^-" + "9" * 4001, 4),
    ("eta^(" + "9" * 4001 + ")", 6),
], ids=["literal", "exponent", "derivative order"])
def test_a_number_past_4000_digits_is_a_parse_error(text, col):
    with pytest.raises(E.ParseError) as err:
        E.parse_expression(text)
    assert str(err.value) == f"1:{col}: number longer than 4,000 digits"


def test_parse_offsets_apply():
    with pytest.raises(E.ParseError) as err:
        E.parse_expression("a + ", line=12, col=9)
    assert err.value.line == 12 and err.value.col == 13


@pytest.mark.parametrize("text, offsets, where", [
    ("x +\n  * y", {}, "2:3: unexpected token '*'"),
    # a new line starts at column 1, whatever the first line's offset
    ("1 +\n)", {"line": 5, "col": 7}, "6:1: unexpected token ')'"),
])
def test_parse_error_on_a_later_line_names_its_position(text, offsets,
                                                        where):
    with pytest.raises(E.ParseError) as err:
        E.parse_expression(text, **offsets)
    assert str(err.value) == where


def test_parenthesized_exponent_rejected():
    with pytest.raises(E.ParseError) as err:
        E.parse_expression("(x + y)^(2)")
    assert "parenthesized exponents" in str(err.value)


def test_parse_derivative_symbols():
    table = E.SymbolTable([E.Symbol("eta", E.TV_DERIV),
                           E.Symbol("y1", E.OUTPUT_DERIV, output_index=1)])
    e = E.parse_expression("y1''*eta^(4) + y1'", table)
    syms = {s.display for s in E.free_symbols(e)}
    assert syms == {"y1''", "eta^(4)", "y1'"}
    assert E.parse_expression(E.to_text(e), table) == e


def test_parse_derivative_of_plain_symbol_fails():
    table = E.SymbolTable([E.Symbol("x", E.STATE)])
    with pytest.raises(E.ParseError):
        E.parse_expression("x'", table)
    # without a table a name creates a plain symbol, which has no chain
    with pytest.raises(E.ParseError) as err:
        E.parse_expression("x'")
    assert str(err.value) == "1:1: 'x' has no derivative chain here"


def test_parse_undeclared_symbol_with_table():
    table = E.SymbolTable([E.Symbol("x")])
    with pytest.raises(E.UndeclaredSymbol) as err:
        E.parse_expression("x + bogus", table)
    assert err.value.name == "bogus"
    assert err.value.col == 5


def _text_and_fold(rng, depth):
    """A random expression text and the node it denotes, built by applying
    each binary operator pairwise from the left and `neg` once per unary
    minus: the grouping the grammar gives, independent of the parser."""
    def fold(operand, ops, pairwise):
        text, node = operand()
        for _ in range(rng.randint(0, 3)):
            op = rng.choice(ops)
            t, n = operand()
            text, node = f"{text}{op}{t}", pairwise[op](node, n)
        return text, node

    def factor():
        signs = rng.choice(["", "", "-", "+", "--", "-+-", "---"])
        if depth > 0 and rng.random() < 0.3:
            text, node = _text_and_fold(rng, depth - 1)
            text = f"({text})"
        else:
            text = rng.choice(["x", "y", "z", "0", "1", "2", "7"])
            node = E.sym(text) if text.isalpha() else E.const(int(text))
        if rng.random() < 0.2:
            k = rng.choice([2, 3, -1])
            text, node = f"{text}^{k}", E.pow_(node, k)
        for _ in range(signs.count("-")):
            node = E.neg(node)
        return signs + text, node

    def term():
        return fold(factor, "**/", {"*": E.mul, "/": E.div})

    return fold(term, "++-", {"+": E.add, "-": E.sub})


def test_parse_builds_the_left_fold():
    rng = random.Random(16)
    checked = 0
    while checked < 500:
        try:
            text, node = _text_and_fold(rng, 3)
        except E.DenominatorIdenticallyZero:
            continue  # a literal zero divisor; the parser raises it too
        assert E.parse_expression(text) is node, text
        checked += 1


def test_parse_runs_of_unary_signs_in_a_loop():
    assert E.parse_expression("-" * 1000 + "x") is X
    assert E.parse_expression("-+" * 1001 + "x^2") is E.neg(X ** 2)


@pytest.mark.parametrize("op, nary", [("+", E.add), ("*", E.mul)])
def test_long_sums_and_products_parse_in_linear_time(op, nary):
    text = op.join(["x"] * 20_000)
    start = time.perf_counter()
    e = E.parse_expression(text)
    assert time.perf_counter() - start < 5
    assert e is nary(*[X] * 20_000)


@pytest.mark.parametrize("op", ["-", "/"])
def test_long_left_nested_chains_print_in_linear_time(op):
    # printing each link from its left operand's whole text took 4.3 s at
    # 40,000 links, and the time grew with the square of the length
    e = E.parse_expression(f" {op} ".join(["x"] * 60_000))
    start = time.perf_counter()
    text = E.to_text(e)
    assert time.perf_counter() - start < 5
    assert E.parse_expression(text) is e


def test_long_chains_pickle_round_trip():
    e = E.parse_expression(" - ".join(["x"] * 20_000))
    assert pickle.loads(pickle.dumps(e)) is e
    # a DAG, with a Power and Fraction constants, pickles as one list
    shared = (X + E.const(Fraction(-1, 3))) ** -2
    dag = shared * Y - shared / (shared + 1)
    assert pickle.loads(pickle.dumps([dag, shared])) == [dag, shared]

def test_parentheses_nest_at_most_a_hundred_levels():
    assert E.parse_expression("(" * 100 + "x" + ")" * 100) is X
    with pytest.raises(E.ParseError, match="deeper than 100 levels") as err:
        E.parse_expression("-(" * 101 + "x" + ")" * 101)
    assert err.value.col == 202  # the 101st opening parenthesis


# ------------------------------------------------------------ properties

@settings(max_examples=60, deadline=None)
@given(a=_small_expressions, b=_small_expressions)
def test_differentiate_is_linear(a, b):
    d_sum = E.differentiate(E.add(a, b), xs)
    d_parts = E.add(E.differentiate(a, xs), E.differentiate(b, xs))
    residual = E.sub(d_sum, d_parts)
    _expandable(residual)
    assert E.normalize(residual).is_zero


@settings(max_examples=60, deadline=None)
@given(a=_small_expressions, b=_small_expressions)
def test_differentiate_product_rule(a, b):
    d_prod = E.differentiate(E.mul(a, b), xs)
    want = E.add(E.mul(a, E.differentiate(b, xs)),
                 E.mul(b, E.differentiate(a, xs)))
    residual = E.sub(d_prod, want)
    _expandable(residual)
    assert E.normalize(residual).is_zero


@settings(max_examples=60, deadline=None)
@given(e=_expressions, g=_expressions, point=_rational_points)
def test_substitute_evaluate_commute_exactly(e, g, point):
    try:
        g_val = E.evaluate(g, point)
        via_subst = E.evaluate(E.substitute_many([e], {xs: g})[0], point)
        direct = E.evaluate(e, {**point, xs: g_val})
    except E.DivisionByZero:
        assume(False)
    assert via_subst == direct


@settings(max_examples=60, deadline=None)
@given(a=_small_expressions, b=_small_expressions, c=_small_expressions)
def test_normalize_is_a_congruence(a, b, c):
    distributed = E.sub(E.mul(a, E.add(b, c)), E.add(E.mul(a, b), E.mul(a, c)))
    # a second syntactic route through nested quotients
    bb = E.add(E.mul(b, b), E.ONE)
    cc = E.add(E.mul(c, c), E.ONE)
    nested = E.sub(E.div(E.div(a, bb), cc), E.div(a, E.mul(bb, cc)))
    _expandable(distributed, nested)
    assert E.normalize(distributed).is_zero
    assert E.normalize(nested).is_zero


@settings(max_examples=60, deadline=None)
@given(e=_expressions)
def test_parser_round_trip(e):
    printed = E.to_text(e)
    reparsed = E.parse_expression(printed)
    residual = E.sub(e, reparsed)
    _expandable(residual)
    assert E.normalize(residual).is_zero


@settings(max_examples=40, deadline=None)
@given(e=_expressions, point=_rational_points)
def test_prime_field_matches_exact_reduction(e, point):
    p = 4611686018427388039
    try:
        exact = E.evaluate(e, point)
    except E.DivisionByZero:
        assume(False)
    den = exact.denominator % p
    assume(den != 0)
    want = exact.numerator * pow(den, -1, p) % p
    assert E.evaluate(e, point, arithmetic=p) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_building_twice_gives_the_same_object(seed):
    a = random_expression(random.Random(seed), depth=4)
    b = random_expression(random.Random(seed), depth=4)
    assert a is b
    text = E.to_text(a)
    assert E.parse_expression(text) is E.parse_expression(text)
    g1 = random_expression(random.Random(seed + 1))
    g2 = random_expression(random.Random(seed + 1))
    assert E.substitute_many([a], {xs: g1, ys: X})[0] is \
        E.substitute_many([b], {xs: g2, ys: X})[0]
    assert E.differentiate(a, xs) is E.differentiate(b, xs)


@st.composite
def _dags(draw):
    """A random DAG: each step applies + - * / or ^ to earlier nodes, so
    nodes are shared and divisors may vanish at a point."""
    nodes = [X, Y, Z] + [E.const(c) for c in draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=1, max_size=3))]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        op = draw(st.sampled_from([E.add, E.sub, E.mul, E.div, E.pow_]))
        a = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        if op is E.pow_:
            b = draw(st.integers(min_value=-2, max_value=2))
        else:
            b = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        try:
            nodes.append(op(a, b))
        except E.DenominatorIdenticallyZero:
            pass
    return nodes[-1]


def _poly_at(poly, point) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        for s, k in mono:
            c *= Fraction(point[s]) ** k
        total += c
    return total


def _residue(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


@settings(max_examples=150, deadline=None)
@given(e=_dags(), point=st.fixed_dictionaries(
    {s: st.integers(min_value=-3, max_value=3) for s in XYZ}))
def test_program_matches_normalized_rational_function(e, point):
    """Oracle for the one evaluator: the expanded numerator over the expanded
    denominator, evaluated as polynomials, in all three domains."""
    p = (1 << 61) - 1
    values = [point[s] for s in XYZ]
    prog = E.compile_program([e], XYZ)
    try:
        [exact] = prog.run_exact(values)
    except E.DivisionByZero:
        assume(False)
    _expandable(e)
    canon = E.normalize(e)
    num = _poly_at(canon.numerator, point)
    den = _poly_at(canon.denominator, point)
    assert den != 0 and exact == num / den
    if _residue(den, p) != 0:
        want = _residue(num, p) * pow(_residue(den, p), -1, p) % p
        assert prog.run_mod(values, p) == [want]
    # float64 rounds every intermediate, so cancellation leaves an error
    # that scales with the largest intermediate, not with the result
    every_node = E.compile_program(E.topo_order([e]), XYZ).run_exact(values)
    scale = max(1.0, max(abs(float(v)) for v in every_node))
    assert prog.float_fn()(*map(float, values))[0] == pytest.approx(
        float(exact), rel=1e-12, abs=1e-12 * scale)


def _structure_keys(order):
    """Structural key of every node, built from child keys, never ids."""
    key_of = {}
    for node in order:
        payload = (getattr(node, "value", None), getattr(node, "symbol", None),
                   getattr(node, "exponent", None))
        key_of[id(node)] = (type(node).__name__, payload,
                            tuple(key_of[id(c)] for c in node.args))
    return [key_of[id(n)] for n in order]


@settings(max_examples=60, deadline=None)
@given(exprs=st.lists(_expressions, min_size=1, max_size=3))
def test_compile_emits_one_instruction_per_distinct_subexpression(exprs):
    exprs.append(E.differentiate(E.add(*exprs), xs))
    order = E.topo_order(exprs)
    keys = _structure_keys(order)
    assert len(set(keys)) == len(keys)  # no two nodes share a structure
    prog = E.compile_program(exprs, XYZ)
    assert len(prog.instructions) == sum(1 for node in order if node.args)


def test_derivative_matches_finite_differences_bulk():
    for e, s, point in fd_cases(40, seed=99):
        exact = E.evaluate(E.differentiate(e, s), point, arithmetic="float64")
        fd = fd_derivative(e, s, point)
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


# ------------------------- agreement with the reference implementations
#
# `normalize` expands over indexed monomials with int coefficients and
# `partials` differentiates for many symbols in one traversal; both must
# give exactly what the Symbol-keyed reference implementations in
# helpers.py give: the same dicts in the same insertion order, and the
# same derivative node objects.

def _items(rc):
    return list(rc.numerator.items()), list(rc.denominator.items())


def _assert_expands_like_reference(e):
    got, want = E.normalize(e), reference_normalize(e)
    assert _items(got) == _items(want)
    for poly in (got.numerator, got.denominator):
        assert all(type(c) is Fraction for c in poly.values())


@pytest.mark.parametrize("output_index", [1, 2])
def test_jets_expand_like_reference(output_index):
    jet = M.output_jet(M.hiv_model(), output_index, 7)
    for entry in jet.entries:
        _assert_expands_like_reference(entry)


def test_identity_residuals_expand_like_reference():
    residuals = identity_residuals()
    assert len(residuals) == 3
    for residual in residuals:
        # the residual is zero; its operands are not
        for e in (residual, *residual.args):
            _assert_expands_like_reference(e)


@pytest.mark.parametrize("variant", [R.CORRECTED, R.MIAO_AS_PRINTED])
def test_relations_on_the_dynamics_expand_like_reference(variant):
    relation = R.build_phi(variant)
    _assert_expands_like_reference(
        R.substitute_dynamics([[relation]])[0][0])


_fractional = st.fractions(min_value=Fraction(-7, 2), max_value=Fraction(7, 2),
                           max_denominator=9).filter(lambda q: q.denominator > 1)


@settings(max_examples=150, deadline=None)
@given(e=st.one_of(_expressions, _dags()), q=_fractional, r=_fractional)
def test_rational_expressions_expand_like_reference(e, q, r):
    # q and r bring non-integral coefficients into the numerator and
    # into the denominator
    cases = (e, E.add(E.mul(E.const(q), e), X),
             E.div(E.add(e, E.const(q)), E.add(E.mul(E.const(r), Y), Z)))
    _expandable(*cases)
    for case in cases:
        try:
            want = reference_normalize(case)
        except E.DenominatorIdenticallyZero:
            with pytest.raises(E.DenominatorIdenticallyZero):
                E.normalize(case)
            continue
        got = E.normalize(case)
        assert _items(got) == _items(want)


# Each packed exponent field is as wide as the bit length of the largest
# degree bound, so these put an exponent at the top of its field (2**bits
# - 1) or one past a smaller field's top (2**bits); a field one bit
# narrower would carry into its neighbour or past the last symbol.
@pytest.mark.parametrize("e", [
    X ** 3,                           # bound 3, 2-bit fields
    X ** 3 * Y,                       # bound 4, 3-bit fields
    X ** 4,                           # bound 4: exponent 2**2
    X ** 4 * Y,                       # bound 5: x's 4 next to y's field
    X ** 7 * Y ** 8 * Z,              # bound 16, 5-bit fields
    X ** 65535,                       # bound 2**16 - 1, 16-bit fields
    X ** 65536,                       # bound 2**16, 17-bit fields
    (X ** 2 * Y) ** -2,               # a negative power: denominator x^4 y^2
    X ** -3 * Y ** 4 - Z,             # a negative power inside a difference
    # numerator x^4 + y^2: its bound 4 comes from n + D - d = 2 + 3 - 1,
    # above both the larger child numerator bound 2 and the D = 3
    X ** 2 / Y + Y / X ** 2,
    X ** 3 / (Y * Z) + Z ** 2 / X ** 2 - Y / (X + Z) ** 2,
])
def test_packed_exponent_fields_expand_like_reference(e):
    _assert_expands_like_reference(e)


# a difference's degree bound covers its cross products: the bound of
# x^3 - y/x is 4, so its fields are 3 bits wide. With 2-bit fields, just
# wide enough for x^3, the cross product x^3 * x would carry into y's
# field and read as y, and the difference would expand to zero
@pytest.mark.parametrize("a, b, same", [
    (X ** 3 / Y, X ** 4 / (X * Y), True),
    (X ** 3, Y / X, False),
    (X ** 7 / Y ** 8, X ** 8 / (X * Y ** 8), True),
])
def test_equivalence_packs_wide_enough_for_cross_products(a, b, same):
    assert E.normalize(a - b).is_zero is same


def test_expanding_a_too_large_product_fails_before_forming_it():
    # (x1 + ... + x10)^12 squares its way to 715- and 24,310-term powers;
    # their 17-million-pair product is refused before any of it is built
    total = E.add(*(E.sym(f"x{i}") for i in range(1, 11)))
    with pytest.raises(E.ExpressionTooLarge, match="715 and 24310 terms"):
        E.normalize(total ** 12)


def test_the_expansion_limits_fire_under_an_address_space_cap():
    # the typed error must fire before the expansion runs out of memory:
    # the two too_large tests above, in a child pytest under run_capped's
    # cap, with no cache plugin, so that it leaves this run's cache alone
    done = run_capped("-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "tests/test_expr.py", "-k", "too_large", timeout=60)
    assert done.returncode == 0, done.stdout.decode()
    assert b"\n2 passed, " in done.stdout


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(st.one_of(_expressions, _dags()), min_size=1, max_size=3),
       symbols=st.lists(st.sampled_from([*XYZ, E.Symbol("w")]), max_size=4))
def test_partials_are_the_reference_derivatives(roots, symbols):
    got = E.partials(roots, symbols)
    assert len(got) == len(roots)
    for root, row in zip(roots, got):
        assert len(row) == len(symbols)
        for s, d in zip(symbols, row):
            assert d is reference_differentiate(root, s)


def test_partials_of_the_relation_system_are_the_reference_derivatives():
    entries = R.build_phi_system(R.build_phi())
    symbols = sorted(set().union(*map(E.free_symbols, entries)),
                     key=E.Symbol.sort_key)
    got = E.partials(entries, symbols)
    for entry, row in zip(entries, got):
        for s, d in zip(symbols, row):
            assert d is reference_differentiate(entry, s)
    params = {s.name: s for s in M.hiv_model().const_params}
    jacobian = R.parameter_jacobian(R.build_phi_system(R.build_phi()))
    assert jacobian == tuple(
        tuple(reference_differentiate(entry, params[n]) for n in R.PARAM_ORDER)
        for entry in entries)


@pytest.mark.parametrize("output_index", [1, 2])
def test_partials_of_the_jets_are_the_reference_derivatives(output_index):
    entries = M.output_jet(M.hiv_model(), output_index, 6).entries
    symbols = sorted(set().union(*map(E.free_symbols, entries)),
                     key=E.Symbol.sort_key)
    got = E.partials(entries, symbols)
    for entry, row in zip(entries, got):
        for s, d in zip(symbols, row):
            assert d is reference_differentiate(entry, s)
