"""Agreement with independent oracles: scipy's DOP853 for the integrator,
sympy's power series for the output jets and `sympy.cancel` for exact
zero tests. The integrator and jet oracles live in `perfbench/oracles.py`
and share no code with odeident; these tests skip when sympy or scipy is
not installed."""

import importlib.util
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from odeident import expr as E
from odeident import ranktest as R
from odeident import sim as S
from odeident.model import hiv_model, output_jet
from odeident.transform import Params
from helpers import identity_residuals, random_expression

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
ONES = Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)


def _oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_integrator_agrees_with_scipy_dop853():
    pytest.importorskip("scipy")
    init, eta = (1.0, 0.2, 1.0), S.EtaSignal.from_text("1/2")
    got = S.integrate(hiv_model(), ONES.as_dict(), init, eta)
    want = _oracles().hiv_trajectory_scipy(init, ONES.as_dict(), eta,
                                           got.times)
    dev = np.max(np.abs(got.states - want) / (1.0 + np.abs(want)))
    assert dev < 1e-7  # the bound perfbench applies to the same run


def test_output_jets_agree_with_sympy_power_series():
    pytest.importorskip("sympy")
    order = 6
    m = hiv_model()
    tv = m.tv_params[0]
    chain = [tv] + [tv.derivative(k) for k in range(1, order)]
    state0 = [F(3, 2), F(2, 3), F(5)]
    params = {"lambda": F(7, 3), "delta": F(1, 2), "rho": F(4, 5),
              "c": F(9, 4), "N": F(11, 2)}
    eta_chain = [F(1, 2), F(-1, 3), F(2, 7), F(5, 3), F(-3, 4), F(1, 9)]

    inputs = [*m.states, *m.const_params, *chain]
    values = [*state0, *(params[s.name] for s in m.const_params), *eta_chain]
    jets = [output_jet(m, i, order).entries for i in (1, 2)]
    got = E.compile_program([e for jet in jets for e in jet],
                            inputs).run_exact(values)

    y1, y2 = _oracles().hiv_jets_sympy(state0, params, eta_chain, order)
    want = [F(int(v.p), int(v.q)) for v in (*y1, *y2)]
    assert got == want


def _to_sympy(e, sp):
    """`e` rebuilt node by node as a sympy expression."""
    names = {}
    memo = {}
    for node in E._topo([e]):
        if isinstance(node, E.Const):
            value = sp.Rational(node.value.numerator, node.value.denominator)
        elif isinstance(node, E.Sym):
            value = names.setdefault(node.symbol,
                                     sp.Symbol(f"s{len(names)}"))
        else:
            args = [memo[id(c)] for c in node.args]
            if isinstance(node, E.Sum):
                value = sp.Add(*args)
            elif isinstance(node, E.Product):
                value = sp.Mul(*args)
            elif isinstance(node, E.Difference):
                value = args[0] - args[1]
            elif isinstance(node, E.Quotient):
                value = args[0] / args[1]
            else:
                value = args[0] ** node.exponent
        memo[id(node)] = value
    return memo[id(e)]


def _cancels_to_zero(e) -> bool:
    sp = pytest.importorskip("sympy")
    return sp.cancel(_to_sympy(e, sp)) == 0


def test_zero_test_agrees_with_sympy_on_random_expressions():
    rng = random.Random(20261018)
    zeros = 0
    for _ in range(60):
        a = random_expression(rng, depth=3)
        b = random_expression(rng, depth=3)
        # about half the cases are zero by construction, rearranged
        e = E.sub(E.mul(a, E.add(b, a)), E.add(E.mul(a, b), E.pow_(a, 2))) \
            if rng.random() < 0.5 else E.sub(a, b)
        zero = E.normalize(e).is_zero
        assert zero == _cancels_to_zero(e)
        zeros += zero
    assert 20 <= zeros < 60


def test_zero_test_agrees_with_sympy_on_the_identities():
    residuals = identity_residuals()
    assert len(residuals) == 3
    assert all(E.normalize(e).is_zero for e in residuals)
    assert all(_cancels_to_zero(e) for e in residuals)


@pytest.mark.parametrize("variant, vanishes", [(R.CORRECTED, True),
                                               (R.MIAO_AS_PRINTED, False)])
def test_relation_on_the_dynamics_agrees_with_sympy(variant, vanishes):
    relation = R.build_phi(variant)
    on_dynamics = R.substitute_dynamics([[relation]])[0][0]
    assert E.normalize(on_dynamics).is_zero is vanishes
    assert _cancels_to_zero(on_dynamics) is vanishes
