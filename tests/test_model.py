"""Model text format, the bundled HIV model, and the jet engine."""

import gc
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from odeident import expr as E
from odeident import model as M

CORPUS = Path(__file__).parent / "corpus"
REPO_MODEL = Path(__file__).parent.parent / "models" / "hiv.ode"

hiv = M.hiv_model()
TU, TI, V = hiv.states
lam, rho, delta, N, c = hiv.const_params
eta = hiv.tv_params[0]


def _expr(text: str) -> E.Expression:
    table = E.SymbolTable(hiv.states + hiv.const_params + hiv.tv_params)
    return E.parse_expression(text, table)


# ----------------------------------------------------------------- parser

def test_hiv_model_shape():
    assert len(hiv.states) == 3
    assert len(hiv.const_params) == 5
    assert len(hiv.tv_params) == 1
    assert len(hiv.outputs) == 2
    assert hiv.output_names == ("y1", "y2")


def test_repo_model_file_matches_builtin():
    m = M.parse_model(REPO_MODEL.read_text())
    assert m.name == hiv.name
    assert [s.name for s in m.states] == [s.name for s in hiv.states]
    for a, b in zip(m.rhs, hiv.rhs):
        assert E.normalize(a - b).is_zero
    for (na, ea), (nb, eb) in zip(m.outputs, hiv.outputs):
        assert na == nb and E.normalize(ea - eb).is_zero


def test_hiv_rhs_and_outputs():
    rhs_v, rhs_tu = (hiv.rhs[hiv.states.index(s)] for s in (V, TU))
    assert E.normalize(rhs_v - _expr("N*delta*T_I - c*V")).is_zero
    assert E.normalize(rhs_tu - _expr("lambda - rho*T_U - eta*T_U*V")).is_zero
    assert E.normalize(dict(hiv.outputs)["y1"] - _expr("T_U + T_I")).is_zero
    assert E.normalize(dict(hiv.outputs)["y2"] - _expr("V")).is_zero


def test_print_parse_round_trip():
    again = M.parse_model(M.print_model(hiv))
    for a, b in zip(again.rhs, hiv.rhs):
        assert E.normalize(E.sub(a, b)).is_zero
    for (na, ea), (nb, eb) in zip(again.outputs, hiv.outputs):
        assert na == nb and E.normalize(E.sub(ea, eb)).is_zero


def test_empty_text_is_syntax_error():
    with pytest.raises(E.ParseError):
        M.parse_model("")
    with pytest.raises(E.ParseError):
        M.parse_model("# only a comment\n\n")


def test_ode_for_undeclared_state():
    text = "model m\nstates x\node x = x\node Q = x\noutput o = x\n"
    with pytest.raises(E.UndeclaredSymbol) as err:
        M.parse_model(text)
    assert err.value.name == "Q"
    assert err.value.line == 4


def test_missing_ode_line():
    text = "model m\nstates x y\node x = y\noutput o = x\n"
    with pytest.raises(M.MissingOdeForState) as err:
        M.parse_model(text)
    assert err.value.names == ["y"]


def test_duplicate_declarations():
    with pytest.raises(E.DuplicateDeclaration):
        M.parse_model("model m\nstates x x\node x = x\n")
    with pytest.raises(E.DuplicateDeclaration):
        M.parse_model("model m\nstates x\nparams x\node x = x\n")
    with pytest.raises(E.DuplicateDeclaration):
        M.parse_model("model m\nstates x\node x = x\node x = 2*x\n")
    with pytest.raises(E.DuplicateDeclaration):
        M.parse_model("model m\nstates x\node x = x\noutput x = x\n")
    with pytest.raises(E.DuplicateDeclaration):
        M.parse_model("model a\nmodel b\nstates x\node x = x\n")


def test_undeclared_symbol_in_rhs_position():
    text = "model m\nstates x\node x = x + ghost\n"
    with pytest.raises(E.UndeclaredSymbol) as err:
        M.parse_model(text)
    assert err.value.line == 3
    assert err.value.col == 13


def test_unknown_directive():
    with pytest.raises(E.ParseError):
        M.parse_model("model m\nstates x\nfoo bar\node x = x\n")


def test_output_may_not_use_derivatives():
    text = "model m\nstates x\ntvparams u\node x = u*x\noutput o = u'\n"
    with pytest.raises(E.ParseError):
        M.parse_model(text)


def test_corpus_round_trips():
    files = sorted(CORPUS.glob("*.ode"))
    assert len(files) == 10
    for path in files:
        m = M.parse_model(path.read_text())
        again = M.parse_model(M.print_model(m))
        assert again.name == m.name
        assert [s.name for s in again.states] == [s.name for s in m.states]
        for a, b in zip(again.rhs, m.rhs):
            assert E.normalize(E.sub(a, b)).is_zero, path.name
        for (na, ea), (nb, eb) in zip(again.outputs, m.outputs):
            assert na == nb and E.normalize(E.sub(ea, eb)).is_zero, path.name


# ------------------------------------------------------------------- jets

def test_jet_entry_zero_is_the_output():
    jet = M.output_jet(hiv, 1, 0)
    assert jet.entries[0] == dict(hiv.outputs)["y1"]


@pytest.mark.parametrize("order", [0, 1, 3])
def test_jet_order_is_its_highest_derivative(order):
    jet = M.output_jet(hiv, 2, order)
    assert jet.order == order and len(jet.entries) == order + 1


def test_jet_first_derivative_of_virus_output():
    jet = M.output_jet(hiv, 2, 1)
    assert E.normalize(jet.entries[1] - _expr("N*delta*T_I - c*V")).is_zero


def test_jet_first_derivative_of_cell_output():
    # oracle: the sum of the first two right-hand sides, where the
    # infection terms cancel
    jet = M.output_jet(hiv, 1, 1)
    oracle = E.add(*(hiv.rhs[hiv.states.index(s)] for s in (TU, TI)))
    assert E.normalize(E.sub(jet.entries[1], oracle)).is_zero
    assert E.normalize(jet.entries[1] - _expr("lambda - rho*T_U - delta*T_I")).is_zero


def test_jet_eta_cancellation_in_first_cell_derivative():
    rc = E.normalize(M.output_jet(hiv, 1, 1).entries[1])
    assert all(s.kind != E.TV_DERIV for poly in (rc.numerator, rc.denominator)
               for mono in poly for s, _ in mono)


def test_jet_consistency_symbolic_to_order_six():
    for i in (1, 2):
        jet = M.output_jet(hiv, i, 6)
        for k in range(6):
            derived = M.total_time_derivative(hiv, jet.entries[k])
            assert E.normalize(E.sub(jet.entries[k + 1], derived)).is_zero


def test_jet_symbol_discipline():
    for i in (1, 2):
        jet = M.output_jet(hiv, i, 6)
        for k, e in enumerate(jet.entries):
            syms = E.free_symbols(e)
            assert all(s.kind != E.OUTPUT_DERIV for s in syms)
            tv_orders = [s.order for s in syms if s.kind == E.TV_DERIV]
            assert all(o <= k - 1 for o in tv_orders)


def test_jet_text_does_not_depend_on_the_hash_seed():
    code = ("from odeident import expr, model; "
            "print(expr.to_text(model.output_jet(model.hiv_model(), 1, 7).entries[7]))")
    src = str(Path(M.__file__).resolve().parents[1])
    texts = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        texts.append(done.stdout)
    assert texts[0] and texts[0] == texts[1]


def test_jet_rejects_negative_order():
    with pytest.raises(ValueError):
        M.output_jet(hiv, 1, -1)


@pytest.mark.parametrize("index", [0, -1, 3])
def test_an_output_index_outside_the_model_is_rejected_before_any_work(
        monkeypatch, index):
    # 0 and -1 once gave the last output's jet and y1's, and 3 a bare
    # IndexError
    def no_chain(*args):
        raise AssertionError("a derivative chain was started")

    monkeypatch.setattr(M, "derivative_chain", no_chain)
    for call in (lambda: M.output_jet(hiv, index, 2),
                 lambda: M.output_symbol(hiv, index, 1)):
        with pytest.raises(ValueError, match=r"output index -?\d+ is outside "
                                             r"the range 1\.\.2"):
            call()


# ------------------------------------------------------- derivative chain

def _stepwise(m, e, order):
    """`e` and its first `order` total derivatives, one
    `total_time_derivative` call each."""
    entries = [e]
    for _ in range(order):
        entries.append(M.total_time_derivative(m, entries[-1]))
    return entries


def _same_objects(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.ode")),
                         ids=lambda path: path.stem)
def test_chain_entries_are_the_stepwise_derivatives(path):
    m = M.parse_model(path.read_text())
    for i, (_, y) in enumerate(m.outputs, start=1):
        assert _same_objects(M.output_jet(m, i, 5).entries,
                             _stepwise(m, y, 5)), (path.name, i)


@pytest.mark.parametrize("output_index", [1, 2])
def test_order_eight_jet_entries_are_the_stepwise_derivatives(output_index):
    y = hiv.outputs[output_index - 1][1]
    assert _same_objects(M.output_jet(hiv, output_index, 8).entries,
                         _stepwise(hiv, y, 8))


def test_a_chain_over_a_quotient_is_the_stepwise_one():
    # a symbol held fixed (rho), a denominator and eta's chain
    e = _expr("T_U / (V + rho*eta) - eta*T_I")
    assert _same_objects(list(islice(M.derivative_chain(hiv, e), 5)),
                         _stepwise(hiv, e, 4))


def test_a_dropped_chain_leaves_no_node_alive():
    gc.collect()
    before = len(E._NODES)
    chain = M.derivative_chain(hiv, hiv.outputs[0][1])
    assert len(list(islice(chain, 7))) == 7
    del chain  # suspended, holding its partials
    assert len(E._NODES) == before  # freed without the cyclic collector


def test_a_chain_raises_on_mixed_symbols_at_the_step_that_meets_them():
    y1 = E.sym(M.output_symbol(hiv, 1))
    chain = M.derivative_chain(hiv, y1 + E.sym(TU))
    assert next(chain) is y1 + E.sym(TU)
    with pytest.raises(M.MixedModeSymbols):
        next(chain)


# --------------------------------------------------- total time derivative

def test_dynamics_mode_state():
    got = M.total_time_derivative(hiv, E.sym(V))
    assert E.normalize(got - _expr("N*delta*T_I - c*V")).is_zero


def test_dynamics_mode_chains_eta():
    e = E.sym(eta) * E.sym(V)
    got = M.total_time_derivative(hiv, e)
    rhs_v = hiv.rhs[hiv.states.index(V)]
    want = E.sym(eta.derivative()) * E.sym(V) + E.sym(eta) * rhs_v
    assert E.normalize(E.sub(got, want)).is_zero


def test_output_mode_product_rule():
    y1 = E.sym(M.output_symbol(hiv, 1))
    y2 = E.sym(M.output_symbol(hiv, 2))
    dy1 = E.sym(M.output_symbol(hiv, 1, 1))
    dy2 = E.sym(M.output_symbol(hiv, 2, 1))
    got = M.total_time_derivative(hiv, y1 * y2)
    assert E.normalize(E.sub(got, dy1 * y2 + y1 * dy2)).is_zero


def test_output_mode_constant_param_is_zero():
    got = M.total_time_derivative(hiv, E.sym(lam))
    assert got == E.ZERO


def test_mixed_symbols_rejected():
    y1 = E.sym(M.output_symbol(hiv, 1))
    with pytest.raises(M.MixedModeSymbols):
        M.total_time_derivative(hiv, y1 + E.sym(TU))
