"""Agreement with independent oracles: scipy's DOP853 for the integrator
and sympy's power series for the output jets. The oracles live in
`perfbench/oracles.py` and share no code with odeident; these tests skip
when sympy or scipy is not installed."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from odeident import expr as E
from odeident import sim as S
from odeident.model import hiv_model, output_jet
from odeident.transform import Params

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
