"""Agreement with independent oracles: scipy's DOP853 for the integrator,
sympy's power series for the output jets, `sympy.cancel` for exact zero
tests, sympy's exact rank for the rank verdicts and sympy's exact kernel
of the output jets' Jacobian for what is unidentifiable. The integrator
and jet oracles live in `perfbench/oracles.py` and, like the rank and
kernel oracles here, share no code with odeident. sympy and scipy are
test dependencies, like hypothesis: this module imports both, so without
them it fails at collection instead of skipping. Truncated power series
mod p are a second jet oracle that needs neither: they read only the
instruction list that `compile_program` makes of a model's vector field,
and none of odeident's differentiation."""

import functools
import importlib.util
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate  # noqa: F401, read by perfbench/oracles.py's DOP853
import sympy as sp

from odeident import expr as E
from odeident import program as P
from odeident import ranktest as R
from odeident import sim as S
from odeident.model import hiv_model, output_jet, parse_model
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
    init, eta = (1.0, 0.2, 1.0), S.EtaSignal.from_text("1/2")
    got = S.integrate(hiv_model(), ONES.as_dict(), init, eta)
    want = _oracles().hiv_trajectory_scipy(init, ONES.as_dict(), eta,
                                           got.times)
    dev = np.max(np.abs(got.states - want) / (1.0 + np.abs(want)))
    assert dev < 1e-7  # the bound perfbench applies to the same run


def test_output_jets_agree_with_sympy_power_series():
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


def _to_sympy(e):
    """`e` rebuilt node by node as a sympy expression."""
    names = {}
    memo = {}
    for node in E.topo_order([e]):
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
    return sp.cancel(_to_sympy(e)) == 0


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


# ------------------------------------------------------- rank verdicts

_PARAM_NAMES = ("lambda", "delta", "rho", "c", "N")  # the Jacobian's columns
_JET_ORDER = 6  # the relation's fourth derivative reads outputs to order 6


def _phi_sympy(lam, delta, rho, c, N, y1, dy1, ddy1, y2, dy2, ddy2,
               printed=False):
    """The relation written out again, over any sympy arithmetic: the
    corrected form, or with `printed` the form Miao et al. printed, whose
    y1*y2*y2' coefficient takes in the (rho + delta)*y1'*y2*y2' term and
    whose c*y2*y2' term lost its lambda."""
    if printed:
        middle = ((delta*rho + rho + delta - delta**2 - delta*c)*y1*y2*dy2
                  + c*y2*dy2)
    else:
        middle = ((delta*rho - delta**2 - delta*c)*y1*y2*dy2
                  + (rho + delta)*dy1*y2*dy2 + lam*c*y2*dy2)
    return (ddy1*y2*dy2 - dy1*y2*ddy2 - delta*y1*y2*ddy2 + lam*y2*ddy2
            - (delta + c)*dy1*y2*dy2 + middle
            + rho*c*dy1*y2**2 + (rho*delta*c - delta**2*c)*y1*y2**2
            - N*delta*y1*ddy1*y2 + c*ddy1*y2**2
            - N*delta*(rho + delta)*y1*dy1*y2
            - N*delta**2*rho*y1**2*y2 + N*delta**2*lam*y1*y2)


@functools.cache
def _jacobian_sympy():
    """The corrected relation in sympy's sparse polynomials over Q, its
    first four total time derivatives with the output derivatives y<i>_<k>
    as independent symbols, and the 5x5 Jacobian of those five in the
    parameters. Returns (ring, generators, Jacobian)."""
    ring, *gens = sp.polys.rings.ring(
        [*_PARAM_NAMES, *(f"y{i}_{k}" for i in (1, 2)
                          for k in range(_JET_ORDER + 1))], sp.QQ)
    y = {(i, k): gens[5 + (i - 1) * (_JET_ORDER + 1) + k]
         for i in (1, 2) for k in range(_JET_ORDER + 1)}
    system = [_phi_sympy(*gens[:5], *(y[i, k] for i in (1, 2)
                                      for k in range(3)))]
    for _ in range(4):
        system.append(sum((system[-1].diff(y[i, k]) * y[i, k + 1]
                           for i in (1, 2) for k in range(_JET_ORDER)),
                          ring.zero))
    return ring, gens, [[e.diff(p) for p in gens[:5]] for e in system]


def _hiv_output_jets(state, params, eta_chain):
    """y1 = T_U + T_I and y2 = V and their derivatives to `_JET_ORDER` at
    t = 0, from the Taylor coefficients of the solution: the HIV system is
    polynomial, so coefficient n + 1 of each state follows from those up
    to n by Cauchy products. eta_chain holds eta and its derivatives."""
    lam, delta, rho, c, N = (params[n] for n in _PARAM_NAMES)
    tu, ti, v = ([F(x)] for x in state)
    eta = [F(e, math.factorial(k)) for k, e in enumerate(eta_chain)]

    def cauchy(a, b, n):
        return sum(a[j] * b[n - j] for j in range(n + 1))

    for n in range(_JET_ORDER):
        infection = cauchy(eta, [cauchy(tu, v, m) for m in range(n + 1)], n)
        tu.append(((lam if n == 0 else 0) - rho*tu[n] - infection) / (n + 1))
        ti.append((infection - delta*ti[n]) / (n + 1))
        v.append((N*delta*ti[n] - c*v[n]) / (n + 1))
    return ([math.factorial(k) * (a + b) for k, (a, b) in enumerate(zip(tu, ti))],
            [math.factorial(k) * x for k, x in enumerate(v)])


_RATIONAL_PARAMS = {"lambda": F(7, 3), "delta": F(1, 2), "rho": F(4, 5),
                    "c": F(9, 4), "N": F(11, 2)}


def _rank_point(mode: str) -> list[F]:
    """Values of the parameters and the output derivatives: drawn freely
    for the naive matrix, and for the constrained one the output jets of a
    rational state under a rational eta chain."""
    if mode == "naive":
        rng = random.Random(20261020)
        outputs = [F(rng.randint(-50, 50), rng.randint(1, 20))
                   for _ in range(2 * (_JET_ORDER + 1))]
    else:
        y1, y2 = _hiv_output_jets(
            (F(3, 2), F(2, 3), F(5)), _RATIONAL_PARAMS,
            (F(1, 2), F(-1, 3), F(2, 7), F(5, 3), F(-3, 4), F(1, 9)))
        outputs = [*y1, *y2]
    return [*(_RATIONAL_PARAMS[n] for n in _PARAM_NAMES), *outputs]


@pytest.mark.parametrize("mode, rank", [("naive", 5), ("constrained", 4)])
def test_rank_verdicts_agree_with_sympy(mode, rank):
    ring, _, jacobian = _jacobian_sympy()
    point = [sp.QQ(x.numerator, x.denominator) for x in _rank_point(mode)]
    matrix = sp.Matrix([[ring.domain.to_sympy(entry(*point)) for entry in row]
                        for row in jacobian])
    assert matrix.rank() == rank
    assert R.run_rank_test(mode, trials=3, seed=7).generic_rank == rank
    if mode == "constrained":
        # the kernel is the tau family's tangent at tau = 0,
        # (0, delta^2 - delta*rho, 0, 0, N*rho)
        d, r, n = (_RATIONAL_PARAMS[k] for k in ("delta", "rho", "N"))
        tangent = sp.Matrix([0, d*d - d*r, 0, 0, n*r])
        (kernel,) = matrix.nullspace()
        assert matrix * tangent == sp.zeros(5, 1)
        assert sp.Matrix.hstack(kernel, tangent).rank() == 1


# ------------------------------------------- identifiability from the jets

_STATE_NAMES = ("T_U", "T_I", "V")
# the order-6 jets read eta to eta^(4): y'' is the first to read eta
_ETA_ORDERS = 5


def test_output_jet_kernel_is_the_tau_family_tangent():
    """A Sedoglavic-style test written out in sympy's sparse polynomials
    over Q, sharing no code with odeident: the Jacobian of the HIV output
    jets to order 6 with respect to the parameters, the initial states and
    eta's chain, at a random rational point, has a one-dimensional kernel,
    and that kernel is the tau family's tangent.

    The tangent by hand, from `transform.params_prime_exprs` and
    `state_map_exprs` with u = e^(-rho tau), d/du at u = 1:
    - delta' = delta*rho/((rho - delta)*u + delta) gives
      -delta*rho*(rho - delta)/rho^2 = -delta*(rho - delta)/rho;
    - N' = N*u gives N; lambda, rho and c do not move;
    - T_I' = T_I*(delta/u + rho - delta)/rho gives -delta*T_I/rho;
    - T_U' = T_U + T_I - T_I' gives delta*T_I/rho; V' = V does not move.
    Scaled by rho: (0, delta^2 - delta*rho, 0, 0, N*rho | delta*T_I,
    -delta*T_I, 0)."""
    DomainMatrix = sp.polys.matrices.DomainMatrix
    QQ = sp.QQ
    ring, *gens = sp.polys.rings.ring(
        [*_PARAM_NAMES, *_STATE_NAMES,
         *(f"eta_{j}" for j in range(_ETA_ORDERS))], QQ)
    lam, delta, rho, c, N, tu, ti, v = gens[:8]
    eta = gens[8:]
    field = {tu: lam - rho*tu - eta[0]*tu*v,
             ti: eta[0]*tu*v - delta*ti,
             v: N*delta*ti - c*v}

    def lie(p):
        # eta^(j) -> eta^(j+1); the last of the chain never occurs here
        assert p.diff(eta[-1]) == 0
        return (sum((p.diff(x) * fx for x, fx in field.items()), ring.zero)
                + sum((p.diff(eta[j]) * eta[j + 1]
                       for j in range(_ETA_ORDERS - 1)), ring.zero))

    jets = []
    for y in (tu + ti, v):
        jets.append(y)
        for _ in range(_JET_ORDER):
            jets.append(lie(jets[-1]))

    rng = random.Random(20261020)
    point = [QQ(rng.randint(1, 60), rng.randint(1, 20)) for _ in gens]
    jacobian = DomainMatrix([[y.diff(g)(*point) for g in gens] for y in jets],
                            (len(jets), len(gens)), QQ)
    assert jacobian.shape == (14, 13)
    assert jacobian.rank() == 12
    (k,) = jacobian.nullspace().to_list()
    names = [*_PARAM_NAMES, *_STATE_NAMES,
             *(f"eta^({j})" for j in range(_ETA_ORDERS))]
    assert {n for n, x in zip(names, k) if x} == {
        "delta", "N", "T_U", "T_I", *(f"eta^({j})" for j in range(5))}

    d, r, n, t_i = (point[gens.index(g)] for g in (delta, rho, N, ti))
    tangent = [QQ(0), d*d - d*r, QQ(0), QQ(0), n*r, d*t_i, -d*t_i, QQ(0)]
    scale = k[1] / tangent[1]
    assert k[:8] == [scale * x for x in tangent]


_CORPUS = Path(__file__).resolve().parent / "corpus"
_CORPUS_ORDER = 4  # K: each output and its first four derivatives


def _read_model_file(path: Path):
    """(declarations by keyword, {state: rhs text}, [output text]) of a
    model file, read line by line without odeident's parser."""
    declared = {"states": [], "params": [], "tvparams": []}
    odes, outputs = {}, []
    for line in path.read_text().splitlines():
        keyword, _, rest = line.split("#")[0].strip().partition(" ")
        name, _, text = rest.partition("=")
        if keyword in declared:
            declared[keyword] = rest.split()
        elif keyword == "ode":
            odes[name.strip()] = text
        elif keyword == "output":
            outputs.append(text)
    return declared, odes, outputs


def _corpus_jacobian(path: Path):
    """(column names, exact Jacobian rows, output-jet values) of a model's
    outputs and their first K derivatives with respect to its declared
    parameters, its initial states and each tv parameter's chain u_0 ...
    u_(K-1), at a seeded rational point, in sympy's rational function field
    over Q. The columns come from the declarations, so a parameter that no
    jet entry mentions is a zero column."""
    declared, odes, outputs = _read_model_file(path)
    chains = {u: [f"{u}_{j}" for j in range(_CORPUS_ORDER)]
              for u in declared["tvparams"]}
    names = [*declared["params"], *declared["states"],
             *(c for chain in chains.values() for c in chain)]
    field, *gens = sp.field(names, sp.QQ)
    by_name = dict(zip(names, gens))
    local = {**{n: sp.Symbol(n) for n in names},
             **{u: sp.Symbol(chain[0]) for u, chain in chains.items()}}

    def read(text):
        return field.from_expr(
            sp.parse_expr(text.replace("^", "**"), local_dict=local))

    rhs = {by_name[x]: read(text) for x, text in odes.items()}
    chain_gens = [[by_name[n] for n in chain] for chain in chains.values()]

    def lie(p):
        # u^(j) -> u^(j+1); the chain is long enough when its last entry
        # never occurs
        total = sum((p.diff(x) * f for x, f in rhs.items()), field.zero)
        for chain in chain_gens:
            assert p.diff(chain[-1]) == 0
            total += sum((p.diff(chain[j]) * chain[j + 1]
                          for j in range(_CORPUS_ORDER - 1)), field.zero)
        return total

    jets = []
    for y in map(read, outputs):
        jets.append(y)
        for _ in range(_CORPUS_ORDER):
            jets.append(lie(jets[-1]))
    rng = random.Random(20261020)
    point = [sp.QQ(rng.randint(1, 60), rng.randint(1, 20)) for _ in gens]

    def at(f):
        return f.numer(*point) / f.denom(*point)

    return names, [[at(y.diff(g)) for g in gens] for y in jets], \
        [at(y) for y in jets]


_U_W = {f"{u}_{j}" for u in "uw" for j in range(_CORPUS_ORDER)}


# model: (rank, kernel support)
_CORPUS_KERNELS = {
    "chain3": (5, set()), "decay": (2, set()), "logistic": (3, set()),
    "lotka": (6, set()), "michaelis": (4, set()), "noparams": (2, set()),
    "oscillator": (3, set()),
    # y_sum' = 0: y_sum reads x_1 + x_2 only, and no entry reads k_on or
    # k_off
    "messy": (1, {"k_on", "k_off", "x_1", "x_2"}),
    # x' = (a - w)x + u with x observed: x(0) is known, and a, w and u
    # move together (see the test below)
    "twosignals": (5, {"a", *_U_W}),
}


@pytest.mark.parametrize("model", sorted(_CORPUS_KERNELS))
def test_corpus_output_jet_kernels(model):
    """The HIV test's method on the rest of the corpus: the rank of each
    model's output-jet Jacobian at K = 4 and the support of its kernel,
    the unknowns it cannot identify."""
    assert {p.stem for p in _CORPUS.glob("*.ode")} \
        == {"hiv", *_CORPUS_KERNELS}
    rank, support = _CORPUS_KERNELS[model]
    names, rows, _ = _corpus_jacobian(_CORPUS / f"{model}.ode")
    matrix = sp.polys.matrices.DomainMatrix(rows, (len(rows), len(names)),
                                            sp.QQ)
    assert matrix.rank() == rank
    kernel = matrix.nullspace().to_list() if rank < len(names) else []
    assert len(kernel) == len(names) - rank
    assert {n for k in kernel for n, x in zip(names, k) if x} == support


def test_twosignals_kernel_is_spanned_by_its_families():
    """By hand: x' = (a - w)x + u keeps every output derivative under
    a -> a + e, w -> w + e, and under w -> w + g(t), u -> u + g(t) x(t) for
    any g. Their tangents are (a, w_0) = (1, 1) and, for g = t^j/j!,
    w_j = 1 with u_i = C(i, j) x^(i-j)(0) for i >= j: five independent
    vectors, as many as the 10 columns less the rank 5, so they span the
    kernel, whose support is a and both chains."""
    names, rows, jet = _corpus_jacobian(_CORPUS / "twosignals.ode")
    tangents = [{"a": 1, "w_0": 1}]
    for j in range(_CORPUS_ORDER):
        tangents.append({f"w_{j}": 1, **{
            f"u_{i}": math.comb(i, j) * jet[i - j]
            for i in range(j, _CORPUS_ORDER)}})
    vectors = sp.Matrix([[t.get(n, 0) for n in names] for t in tangents]).T
    assert sp.Matrix(rows) * vectors == sp.zeros(len(rows), len(tangents))
    assert vectors.rank() == len(tangents) == len(names) - 5


# ------------------------------------- the relation derived from the model

_MODEL = Path(__file__).resolve().parent.parent / "models" / "hiv.ode"


def test_relation_is_r1_and_its_derivative_multiplied_out():
    """The eta-free witness r1 = y1' + rho*y1 - lambda - k*(y2' + c*y2),
    k = (rho - delta)/(N*delta), read off the model file's own lines:

    - r1 and r1' vanish on the dynamics, eta left free;
    - with y1' and y1'' taken from r1 and r1', the corrected relation
      reduces to 0 and the printed one to a nonzero remainder, so the
      corrected relation lies in the ideal of r1 and r1', and the printed
      one does not;
    - the printed relation differs from the corrected one by the two slips;
    - the tau family keeps k, and its T_I' is T_I*N*delta/(N'*delta'),
      as y2' + c*y2 = N*delta*T_I requires of both systems."""
    declared, odes, outputs = _read_model_file(_MODEL)
    assert declared["params"] == ["lambda", "rho", "delta", "N", "c"]
    names = [*declared["states"], *declared["params"], *declared["tvparams"]]
    # lambda is a Python keyword, which sympy's parser refuses
    local = {n: sp.Symbol("lam" if n == "lambda" else n) for n in names}

    def read(text):
        text = re.sub(r"\blambda\b", "lam", text.replace("^", "**"))
        return sp.parse_expr(text, local_dict={s.name: s
                                               for s in local.values()})

    rhs = {local[x]: read(text) for x, text in odes.items()}
    (eta,) = (local[n] for n in declared["tvparams"])
    eta_1 = sp.Symbol("eta_1")  # eta', free

    def lie(e):
        return sp.expand(sum(e.diff(x) * f for x, f in rhs.items())
                         + e.diff(eta) * eta_1)

    lam, rho, delta, N, c = (local[n] for n in declared["params"])
    jets = []
    for y in map(read, outputs):
        jets.append([y, lie(y), lie(lie(y))])
    y1, dy1, ddy1, y2, dy2, ddy2 = sp.symbols("y1 dy1 ddy1 y2 dy2 ddy2")
    on_dynamics = dict(zip((y1, dy1, ddy1, y2, dy2, ddy2),
                           (*jets[0], *jets[1])))

    k = (rho - delta) / (N*delta)
    r1 = dy1 + rho*y1 - lam - k*(dy2 + c*y2)
    r1_dt = ddy1 + rho*dy1 - k*(ddy2 + c*dy2)  # its total derivative
    for r in (r1, r1_dt):
        assert sp.cancel(r.subs(on_dynamics)) == 0

    # r1 and r1' are linear in y1' and y1'' with coefficient 1
    dy1_r = dy1 - r1
    ddy1_r = (ddy1 - r1_dt).subs(dy1, dy1_r)
    params = (lam, delta, rho, c, N)
    corrected, printed = (_phi_sympy(*params, y1, dy1, ddy1, y2, dy2, ddy2,
                                     printed=p) for p in (False, True))
    reduced = [sp.cancel(phi.subs({ddy1: ddy1_r}).subs({dy1: dy1_r}))
               for phi in (corrected, printed)]
    assert reduced[0] == 0
    remainder = y2*dy2*(N*delta**2*(rho + 1)*y1 + N*delta*rho*(rho + 1)*y1
                        - N*delta*lam*(c + delta + rho) + N*c*delta
                        + (delta**2 - rho**2)*(c*y2 + dy2)) / (N*delta)
    assert sp.cancel(reduced[1] - remainder) == 0
    assert sp.expand(printed - corrected
                     - y2*dy2*((rho + delta)*(y1 - dy1) + c*(1 - lam))) == 0

    u, T_I = sp.Symbol("u", positive=True), local["T_I"]
    delta_p, N_p = delta*rho / ((rho - delta)*u + delta), N*u
    assert sp.cancel(k.subs({delta: delta_p, N: N_p}, simultaneous=True)
                     - k) == 0
    assert sp.cancel(T_I*(delta/u + rho - delta)/rho
                     - T_I*N*delta/(N_p*delta_p)) == 0


def test_the_tau_family_is_the_flow_of_one_symmetry_field():
    """With u = e^(rho tau), so d/dtau = rho*u*d/du, the family's closed
    forms of `transform.py`, typed out again here, solve
    dX'/dtau = W_X(X') for the one rational field

        W = delta*(delta - rho) d/ddelta + rho*N d/dN
            + delta*T_I (d/dT_U - d/dT_I) + W_eta d/deta,
        W_eta = -delta*eta*(T_U + T_I)/T_U + delta*(delta - rho)*T_I/(T_U*V),

    while lambda, rho, c and V do not move. W commutes with the HIV field,
    eta's component included, fixes both outputs and the identifiable
    k = (rho - delta)/(N*delta), and eta''s denominator is V*rho*u*T_U',
    so a twin's eta' pole is where its T_U' is zero."""
    lam, rho, delta, N, c, T_U, T_I, V, eta = sp.symbols(
        "lam rho delta N c T_U T_I V eta")
    u = sp.Symbol("u", positive=True)
    T_I_p = T_I*(delta/u + rho - delta)/rho
    T_U_p = T_U + T_I - T_I_p
    eta_den = V*(T_I*delta + T_U*rho)*u - V*T_I*delta
    eta_p = (eta*T_U*V*rho*u
             + (T_I*delta**2 - T_I*delta*rho - eta*T_U*V*delta)*(u - 1)
             ) / eta_den
    primed = {delta: delta*rho/((rho - delta)*u + delta), N: N*u,
              T_U: T_U_p, T_I: T_I_p, eta: eta_p}
    W = {delta: delta*(delta - rho), N: rho*N, T_U: delta*T_I,
         T_I: -delta*T_I,
         eta: -delta*eta*(T_U + T_I)/T_U + delta*(delta - rho)*T_I/(T_U*V)}
    for x, x_p in primed.items():
        flow = rho*u*sp.diff(x_p, u)
        assert sp.cancel(flow - W[x].subs(primed, simultaneous=True)) == 0, x

    def along(field, e):
        return sum(sp.diff(e, x)*f for x, f in field.items())

    hiv = {T_U: lam - rho*T_U - eta*T_U*V, T_I: eta*T_U*V - delta*T_I,
           V: N*delta*T_I - c*V}
    assert along(W, T_U + T_I) == 0 and along(W, V) == 0
    for x, f in hiv.items():
        # W_x reads no eta, so the HIV field needs no eta' to move it
        assert sp.cancel(along(W, f) - along(hiv, W.get(x, 0))) == 0, x
    assert sp.cancel(along(W, (rho - delta)/(N*delta))) == 0
    assert sp.expand(eta_den - V*rho*u*T_U_p) == 0


# ------------------------------------------- output jets as series mod p

_SERIES_PRIME = R.DEFAULT_PRIMES[0]
_SERIES_ORDER = 8  # K: each output and its first eight derivatives


def _series_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) % _SERIES_PRIME
            for k in range(len(a))]


def _series_inverse(b):
    try:
        inv0 = pow(b[0], -1, _SERIES_PRIME)
    except ValueError:  # b(0) = 0: no inverse series
        raise E.DivisionByZero("series without an inverse") from None
    out = [inv0]
    for k in range(1, len(b)):
        out.append(-inv0 * sum(b[i] * out[k - i] for i in range(1, k + 1))
                   % _SERIES_PRIME)
    return out


def _run_series(program, inputs, n):
    """The outputs of `program` on truncated power series mod the prime,
    n coefficients each, by interpreting its instruction list: add and
    subtract termwise, multiply by convolution, divide by the inverse
    series and raise to an integer power by products, inverting the base
    for a negative one."""
    slots = [*inputs,
             *([c.numerator * pow(c.denominator, -1, _SERIES_PRIME)
                % _SERIES_PRIME] + [0] * (n - 1) for c in program.constants),
             *[None] * len(program.instructions)]
    for op, dst, *args in program.instructions:
        if op == P._OP_ADD:
            value = [sum(col) % _SERIES_PRIME
                     for col in zip(*(slots[j] for j in args[0]))]
        elif op == P._OP_MUL:
            value = functools.reduce(_series_mul, (slots[j] for j in args[0]))
        elif op == P._OP_SUB:
            value = [(a - b) % _SERIES_PRIME
                     for a, b in zip(slots[args[0]], slots[args[1]])]
        elif op == P._OP_DIV:
            value = _series_mul(slots[args[0]], _series_inverse(slots[args[1]]))
        else:
            base, exponent = slots[args[0]], args[1]
            if exponent < 0:
                base, exponent = _series_inverse(base), -exponent
            value = functools.reduce(_series_mul, [base] * exponent)
        slots[dst] = value
    return [slots[o] for o in program.outputs]


def _series_output_jets(m, point, order):
    """y_i^(k)(0) mod the prime for every output i and k <= order, from the
    model's vector field alone: the states' Taylor coefficients by one
    Picard pass each, x_(k+1) = f(x)_k / (k+1), with each tv parameter fed
    in as the series of its chain, u(t) = sum u^(j)(0) t^j / j!; then
    y^(k)(0) = k! * y_k."""
    n, p = order + 1, _SERIES_PRIME
    inputs = [*m.states, *m.const_params, *m.tv_params]
    field = E.compile_program(m.rhs, inputs)
    outputs = E.compile_program([e for _, e in m.outputs], inputs)
    states = [[point[s]] + [0] * order for s in m.states]
    series = [*states, *([point[s]] + [0] * order for s in m.const_params),
              *([point[u.derivative(j)] * pow(math.factorial(j), -1, p) % p
                 for j in range(n)] for u in m.tv_params)]
    for k in range(order):
        for x, f in zip(states, _run_series(field, series, n)):
            x[k + 1] = f[k] * pow(k + 1, -1, p) % p
    return [[math.factorial(k) * y[k] % p for k in range(n)]
            for y in _run_series(outputs, series, n)]


@pytest.mark.parametrize("path", sorted(_CORPUS.glob("*.ode")),
                         ids=lambda path: path.stem)
def test_output_jets_agree_with_series_jets_mod_p(path):
    """Every output jet of every corpus model, HIV with its eta chain
    included, to order K = 8, equals its Taylor-series counterpart mod a
    prime at a random point, redrawn while a denominator vanishes."""
    m = parse_model(path.read_text())
    order = _SERIES_ORDER
    symbols = [*m.states, *m.const_params,
               *(u.derivative(j) for u in m.tv_params
                 for j in range(order + 1))]
    jets = [output_jet(m, i, order).entries
            for i in range(1, len(m.outputs) + 1)]
    program = E.compile_program([e for jet in jets for e in jet], symbols)
    rng = random.Random(f"series:{path.stem}")
    for _ in range(8):
        point = {s: rng.randrange(_SERIES_PRIME) for s in symbols}
        try:
            want = program.run_mod([point[s] for s in symbols], _SERIES_PRIME)
            got = _series_output_jets(m, point, order)
        except E.DivisionByZero:
            continue
        break
    else:
        pytest.fail("every point met a denominator")
    assert got == [want[i:i + order + 1]
                   for i in range(0, len(want), order + 1)]
