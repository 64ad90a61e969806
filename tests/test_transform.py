"""The tau family: numeric kernels, domain handling, and the symbolic
verification of the transformed dynamics."""

import dataclasses
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import helpers as H
from odeident import expr as E
from odeident import model as M
from odeident import sim as S
from odeident import transform as T

EXACT = T.Params(lam=F(1), delta=F(1), rho=F(2), c=F(1), N=F(1))
ONES = T.Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)
SKEW = T.Params(lam=1.0, delta=0.8, rho=1.7, c=1.2, N=3.0)


# ----------------------------------------------------------- parameter map

def test_tau_zero_is_the_exact_identity():
    assert T.TauFamily(tau=0.0, params=ONES).params_prime is ONES
    got = T.TauFamily(tau=0.0, params=T.Params(0.7, 0.3, 1.9, 2.2, 11.0))
    assert got.params_prime == T.Params(0.7, 0.3, 1.9, 2.2, 11.0)


def test_parameter_map_hand_values():
    got = T.transform_params(EXACT, u=F(3))
    assert got.delta == F(1, 2)
    assert got.N == F(3)
    assert (got.lam, got.rho, got.c) == (EXACT.lam, EXACT.rho, EXACT.c)


def test_singular_tau_detected():
    bad = T.Params(lam=F(1), delta=F(3), rho=F(1), c=F(1), N=F(1))
    with pytest.raises(T.SingularTau):
        T.transform_params(bad, u=F(2))  # denominator (1-3)*2+3 = -1


def test_near_singular_tau_detected():
    bad = T.Params(lam=1.0, delta=3.0, rho=1.0, c=1.0, N=1.0)
    hi = T.admissible_tau_interval(bad)[1]
    with pytest.raises(T.SingularTau):
        T.TauFamily(tau=hi, params=bad)


def test_maps_take_u_by_keyword_only():
    # a positional value would be a tau read as u: it is refused instead
    with pytest.raises(TypeError):
        T.transform_params(ONES, 0.5)
    with pytest.raises(TypeError):
        T.transform_state(1.0, 1.0, 1.0, ONES, 0.5)
    with pytest.raises(TypeError):
        T.eta_prime_value(1.0, 1.0, 1.0, 0.5, ONES, 0.5)
    for u in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError):
            T.transform_params(ONES, u=u)
        with pytest.raises(ValueError):
            T.transform_state(1.0, 1.0, 1.0, ONES, u=u)
        with pytest.raises(ValueError):
            T.eta_prime_value(1.0, 1.0, 1.0, 0.5, ONES, u=u)


@pytest.mark.parametrize("rho", [0.0, F(0), -1.0, math.nan])
def test_state_and_parameter_maps_reject_rho_not_positive(rho):
    # T_I' divides by rho; a zero rho must not pass for a zero delta'
    # denominator, whose value is 0.5 here
    params = dataclasses.replace(ONES, rho=rho)
    with pytest.raises(ValueError, match="rho must be positive"):
        T.transform_params(params, u=0.5)
    with pytest.raises(ValueError, match="rho must be positive"):
        T.transform_state(1.0, 1.0, 1.0, params, u=0.5)


@pytest.mark.parametrize("params", [T.Params(1.0, 3.0, 1.0, 1.0, 1.0),
                                    T.Params(F(1), F(3), F(1), F(1), F(1))])
def test_zero_delta_denominator_reported_as_zero(params):
    # (1 - 3) * 1.5 + 3 = 0 exactly, where delta' divides by zero
    with pytest.raises(T.SingularTau, match=r"delta = 0\.0 at u = 1\.5"):
        T.transform_params(params, u=1.5)


@pytest.mark.parametrize("tau", [1000.0, -1000.0, math.inf, -math.inf,
                                 math.nan])
def test_family_rejects_tau_whose_u_is_not_finite_and_positive(tau):
    # e^(rho tau) overflows, underflows to 0 or is nan
    with pytest.raises(T.SingularTau, match="not finite and positive"):
        T.TauFamily(tau=tau, params=ONES)



@pytest.mark.parametrize("name", ["lam", "delta", "rho", "c", "N"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_family_rejects_parameters_not_finite_and_positive(name, value):
    # an infinite parameter used to pass validation
    params = dataclasses.replace(ONES, **{name: value})
    with pytest.raises(ValueError, match="must be finite and positive"):
        T.TauFamily(tau=0.5, params=params)


# --------------------------------------------------------------- state map

def test_state_map_identity_at_tau_zero():
    fam = T.TauFamily(tau=0.0, params=ONES)
    assert fam.map_state(2.0, 3.0, 4.0) == (2.0, 3.0, 4.0)


def test_output_sum_is_exactly_preserved():
    rng = random.Random(3)
    for _ in range(20):
        tu = F(rng.randint(1, 50), rng.randint(1, 9))
        ti = F(rng.randint(1, 50), rng.randint(1, 9))
        v = F(rng.randint(1, 50), rng.randint(1, 9))
        u = F(rng.randint(1, 9), rng.randint(1, 9))
        tu2, ti2, v2 = T.transform_state(tu, ti, v, EXACT, u=u)
        assert tu2 + ti2 == tu + ti
        assert v2 == v


def test_state_map_linear_in_infected_cells():
    tu2, ti2, v2 = T.transform_state(F(4), F(0), F(2), EXACT, u=F(3))
    assert (tu2, ti2, v2) == (F(4), F(0), F(2))


# ------------------------------------------------------------- eta mapping

def test_eta_identity_at_tau_zero():
    assert T.TauFamily(tau=0.0, params=ONES).eta(1.0, 1.0, 1.0, 0.5) == 0.5


def test_eta_singular_when_no_virus():
    with pytest.raises(T.SingularPoint):
        T.eta_prime_value(F(1), F(1), F(0), F(1, 2), EXACT, u=F(2))


# eta''s pole rule, written once: its denominator V*((T_I + T_U)*u - T_I)
# at ONES is 0.0 at T_I = T_U = V = 1 with u = 1/2, within 1e-12 of the
# scale one ulp above, and far from it at T_I = 0.9
@pytest.mark.parametrize("T_I, V, u, pole", [
    (1.0, 1.0, 0.5, True),
    (math.nextafter(1.0, 2.0), 1.0, 0.5, True),
    (0.9, 1.0, 0.5, False),
    (1.0, 0.0, 2.0, True),  # V = 0: the denominator and scale are 0
    (1.0, 0.0, 1.0, False),  # u == 1 is the identity, which has no pole
    (math.nan, 1.0, 0.5, False),
])
def test_eta_prime_poles_follows_eta_prime_value(T_I, V, u, pole):
    assert T.eta_prime_poles(1.0, T_I, V, ONES, u) is pole
    if pole:
        with pytest.raises(T.SingularPoint):
            T.eta_prime_value(1.0, T_I, V, 0.5, ONES, u=u)
    else:
        T.eta_prime_value(1.0, T_I, V, 0.5, ONES, u=u)


def test_eta_prime_poles_takes_a_column_of_u():
    us = np.array([0.5, 1.0, 2.0, 0.25])
    got = T.eta_prime_poles(1.0, 1.0, 1.0, ONES, us)
    assert got.tolist() == [True, False, False, False]
    # entry by entry, as for each u alone
    assert got.tolist() == [T.eta_prime_poles(1.0, 1.0, 1.0, ONES, u)
                            for u in us.tolist()]


# a denominator that overflows is no pole: at these states it and its
# scale are inf, where the rule's inf <= 1e-12 * inf used to hold
@pytest.mark.parametrize("state, value", [
    ((1e200, 1.0, 1e200), math.nan), ((1.0, 1.0, 1e308), 0.0)],
    ids=["T_U and V 1e200", "V 1e308"])
def test_an_overflowing_eta_prime_denominator_is_no_pole(state, value):
    assert T.eta_prime_poles(*state, ONES, 0.5) is False
    assert T.eta_prime_poles(*state, ONES, np.array([0.5, 2.0])).tolist() == [
        False, False]
    for fn in (T.eta_prime_value, H.reference_eta_prime_value):
        got = fn(*state, 0.5, ONES, u=0.5)
        assert got == value or math.isnan(got) and math.isnan(value)


@pytest.mark.parametrize("params", [ONES, SKEW], ids=["ones", "skew"])
def test_tau_family_pole_is_where_eta_prime_has_it(params):
    for tau in (-0.5, -0.1):
        inst = T.TauFamily(tau=tau, params=params)
        assert inst.pole == pytest.approx(
            params.rho * inst.u / (params.delta * (1 - inst.u)))
        assert T.eta_prime_poles(1.0, inst.pole, 1.0, params, inst.u)
        for off in (0.99, 1.01):
            assert not T.eta_prime_poles(1.0, off * inst.pole, 1.0, params,
                                         inst.u)
    # a twin with u >= 1 has no pole
    assert T.TauFamily(tau=0.0, params=params).pole is None
    assert T.TauFamily(tau=0.5, params=params).pole is None


# a sweep's stacked eta' is evaluated inside its stacked twin field, on the
# shared original state, one entry per twin

HIV = M.hiv_model()
HIV_RHS = E.compile_program(
    HIV.rhs, [*HIV.states, *HIV.tv_params, *HIV.const_params]).float_fn()
# at this twin state the twin's dT_I/dt = eta' * 1 * 1 - delta' * 0 is
# eta' exactly
ETA_READOUT = (1.0, 0.0, 1.0)


def _sweep(params, us):
    """One twin per u, at tau = ln(u)/rho. A twin's own u may round off
    the given one; checks compare against the twin's."""
    return [T.TauFamily(tau=math.log(u) / params.rho, params=params)
            for u in us]


def _stacked_field(insts, orig, twins, eta):
    """The stacked twin field of a sweep at t = 0: one row per twin, the
    original state then the twin's (the original state where u == 1).
    The sweep's pole check runs first, as a run starts, and raises the
    SingularPoint of a twin at its pole."""
    rows = np.array([[*orig, *(orig if inst.u == 1 else twin)]
                     for inst, twin in zip(insts, twins)])
    field, check, _ = S._twin_field(HIV, S.EtaSignal(E.const(F(eta))), insts)
    check(0.0, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        return field(0.0, rows)


def test_stacked_eta_matches_each_member():
    # each twin's row is the model's field at the twin's own state and
    # constants and at eta' = eta_prime_value of the original state
    orig = (0.7, 1.1, 2.5)
    twins = list(zip([1.0, 0.3, 2.0, 0.7], [0.2, 0.9, 0.1, 1.1],
                     [1.5, 0.4, 0.8, 2.5]))
    insts = _sweep(SKEW, [0.5, 1.0, 2.0, 3.0])
    got = _stacked_field(insts, orig, twins, 0.5)
    base = S._param_values(HIV, SKEW.as_dict())
    for inst, row, twin in zip(insts, got, twins):
        eta_p = T.eta_prime_value(*orig, 0.5, SKEW, u=inst.u)
        primed = S._param_values(HIV, inst.params_prime.as_dict())
        assert row[:3].tolist() == HIV_RHS(*orig, 0.5, *base)
        assert row[3:].tolist() == HIV_RHS(
            *(orig if inst.u == 1 else twin), eta_p, *primed)
    # u == 1 gives eta exactly: the twin moves as the original
    assert insts[1].u == 1 and got[1, 3:].tolist() == got[1, :3].tolist()


def test_stacked_eta_with_shared_states_matches_each_member():
    orig = (0.7, 1.1, 2.5)
    insts = _sweep(SKEW, [0.5, 1.0, 2.0, 3.0])
    got = _stacked_field(insts, orig, [ETA_READOUT] * 4, 0.5)
    for i in (0, 2, 3):
        assert got[i, 4] == T.eta_prime_value(*orig, 0.5, SKEW, u=insts[i].u)
    # u == 1 gives eta exactly: the twin moves as the original
    assert insts[1].u == 1 and got[1, 3:].tolist() == got[1, :3].tolist()


def test_stacked_eta_singular_at_any_member():
    # V = 0 is eta''s pole for every twin but those with u == 1
    ones = _sweep(ONES, [1.0, 1.0])
    ok = _stacked_field(ones, (1.0, 1.0, 0.0), [ETA_READOUT] * 2, 0.5)
    assert ok[:, 3:].tolist() == ok[:, :3].tolist()
    insts = _sweep(ONES, [1.0, 2.0])
    away = _stacked_field(insts, (1.0, 1.0, 1.0), [ETA_READOUT] * 2, 0.5)
    assert np.all(np.isfinite(away))
    with pytest.raises(T.SingularPoint, match=r", for tau = 0\.693147$"):
        _stacked_field(insts, (1.0, 1.0, 0.0), [ETA_READOUT] * 2, 0.5)


def test_eta_dual_entry_oracle():
    # independent re-entry of the same closed form, numerator and
    # denominator accumulated term by term in a different association
    def second_path(T_U, T_I, V, eta, params, u):
        d, r = params.delta, params.rho
        num_terms = [eta * T_U * V * r * u,
                     T_I * d * d * (u - 1),
                     -(T_I * d * r) * (u - 1),
                     -(eta * T_U * V * d) * (u - 1)]
        den_terms = [V * T_I * d * u, V * T_U * r * u, -(V * T_I * d)]
        return sum(num_terms) / sum(den_terms)

    rng = random.Random(2024)
    for _ in range(10):
        point = [F(rng.randint(1, 20), rng.randint(1, 7)) for _ in range(4)]
        got = T.eta_prime_value(*point, EXACT, u=F(2))
        want = second_path(*point, EXACT, F(2))
        assert got == want


# ------------------------------------------------------------- composition

def test_parameter_map_composes_in_tau():
    u1, u2 = F(3), F(5, 2)
    two_step = T.transform_params(T.transform_params(EXACT, u=u1), u=u2)
    direct = T.transform_params(EXACT, u=u1 * u2)
    assert two_step == direct


def test_state_and_eta_maps_compose_too():
    # exploratory: the full family composes, not just the constants
    rng = random.Random(8)
    for _ in range(8):
        u1 = F(rng.randint(2, 9), rng.randint(1, 4))
        u2 = F(rng.randint(2, 9), rng.randint(1, 4))
        tu, ti, v = (F(rng.randint(1, 30), rng.randint(1, 6))
                     for _ in range(3))
        et = F(rng.randint(1, 10), rng.randint(1, 10))
        p1 = T.transform_params(EXACT, u=u1)
        st1 = T.transform_state(tu, ti, v, EXACT, u=u1)
        st2 = T.transform_state(*st1, p1, u=u2)
        direct = T.transform_state(tu, ti, v, EXACT, u=u1 * u2)
        assert st2 == direct
        e1 = T.eta_prime_value(tu, ti, v, et, EXACT, u=u1)
        e2 = T.eta_prime_value(*st1, e1, p1, u=u2)
        ed = T.eta_prime_value(tu, ti, v, et, EXACT, u=u1 * u2)
        assert e2 == ed


def test_local_continuity_near_tau_zero():
    p = T.Params(lam=1.0, delta=0.8, rho=1.7, c=1.0, N=3.0)
    slope_delta = abs(p.delta * (p.rho - p.delta))
    for tau in (1e-4, -1e-4, 1e-6, -1e-6):
        got = T.TauFamily(tau=tau, params=p).params_prime
        assert abs(got.delta - p.delta) <= 2 * slope_delta * abs(tau)
        assert abs(got.N - p.N) <= 2 * p.N * p.rho * abs(tau)


# ----------------------------------------------------- admissible interval

def test_admissible_interval_shapes():
    assert T.admissible_tau_interval(ONES) == (None, None)
    lo, hi = T.admissible_tau_interval(
        T.Params(lam=1.0, delta=2.0, rho=1.0, c=1.0, N=1.0))
    assert lo is None
    assert hi == pytest.approx(math.log(2.0))


def test_family_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        T.TauFamily(tau=0.1, params=T.Params(1.0, -1.0, 1.0, 1.0, 1.0))


def test_family_instance_consistency():
    fam = T.TauFamily(tau=0.25, params=ONES)
    assert fam.u == pytest.approx(math.exp(0.25))
    assert fam.params_prime == T.transform_params(ONES, u=fam.u)
    assert fam.params_prime.N == pytest.approx(math.exp(0.25))
    tu, ti, v = fam.map_state(1.0, 1.0, 1.0)
    assert tu + ti == pytest.approx(2.0, abs=1e-15)


# ------------------------------------------------------ symbolic identities

def test_verify_identities_all_hold():
    checks = T.verify_identities()
    assert [ch.name for ch in checks] == ["T_U'", "T_I'", "V'"]
    for ch in checks:
        assert ch.holds
        assert ch.residual.is_zero


def test_first_identity_second_member_printed_form():
    # the simplified right-hand side of the first transformed equation,
    # as printed: -(T_I d^2 - lam r + T_U r^2 - T_I d^2/u
    #              - T_U V d e + T_U V e r + T_U V d e/u) / r
    from odeident.model import hiv_model
    hiv = hiv_model()
    t = {s.name: E.sym(s) for s in hiv.states + hiv.const_params + hiv.tv_params}
    t["u"] = E.sym(E.Symbol("u", E.AUX))
    T_U, T_I, V, et, lam, d, r, u = (t[k] for k in
                                     ("T_U", "T_I", "V", "eta", "lambda",
                                      "delta", "rho", "u"))
    printed = -(T_I * d**2 - lam * r + T_U * r**2 - T_I * d**2 / u
                - T_U * V * d * et + T_U * V * et * r
                + T_U * V * d * et / u) / r

    T_U_p, T_I_p, V_p = T.state_map_exprs()
    built = lam - r * T_U_p - T.eta_prime_expr() * T_U_p * V_p
    assert E.normalize(E.sub(built, printed)).is_zero


def test_symbolic_maps_agree_with_numeric_kernels():
    # the closed forms against the hand-written reference maps: the
    # numeric maps are compiled from the forms, so they are no witness
    point = {"T_U": F(3, 2), "T_I": F(2, 3), "V": F(5), "eta": F(1, 2),
             "lambda": F(1), "delta": F(1), "rho": F(2), "c": F(1),
             "N": F(1), "u": F(3)}
    from odeident.model import hiv_model
    hiv = hiv_model()
    binding = {}
    for s in hiv.states + hiv.const_params + hiv.tv_params:
        binding[s] = point[s.name]
    binding[E.Symbol("u", E.AUX)] = point["u"]

    tu, ti, v = H.reference_transform_state(
        point["T_U"], point["T_I"], point["V"], EXACT, u=point["u"])
    sym_tu, sym_ti, sym_v = (E.evaluate(e, binding)
                             for e in T.state_map_exprs())
    assert (sym_tu, sym_ti, sym_v) == (tu, ti, v)

    et = H.reference_eta_prime_value(point["T_U"], point["T_I"], point["V"],
                                     point["eta"], EXACT, u=point["u"])
    assert E.evaluate(T.eta_prime_expr(), binding) == et

    pp = H.reference_transform_params(EXACT, u=point["u"])
    exprs = T.params_prime_exprs()
    assert E.evaluate(exprs["delta"], binding) == pp.delta
    assert E.evaluate(exprs["N"], binding) == pp.N


# ------------------------------------------- compiled forms against references

_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_U = st.floats(min_value=1e-2, max_value=1e2)
_EXACT_POSITIVE = st.fractions(min_value=F(1, 20), max_value=50,
                               max_denominator=20)


def _outcome(fn, *args, **kwargs):
    """fn's value, or the type of the family error it raised."""
    try:
        return fn(*args, **kwargs)
    except (T.SingularTau, T.SingularPoint) as exc:
        return type(exc)


def _maps_and_references(state, eta, params, u):
    """(compiled, reference) outcome pairs of the three maps at one point."""
    return [(_outcome(T.transform_params, params, u=u),
             _outcome(H.reference_transform_params, params, u=u)),
            (_outcome(T.transform_state, *state, params, u=u),
             _outcome(H.reference_transform_state, *state, params, u=u)),
            (_outcome(T.eta_prime_value, *state, eta, params, u=u),
             _outcome(H.reference_eta_prime_value, *state, eta, params, u=u))]


@settings(max_examples=400, deadline=None)
@example(state=(1.0, 1.0, 1.0), eta=0.5, params=ONES, u=0.5)  # eta' pole
@example(state=(1.0, 1.0, 1.0), eta=0.5,  # delta' denominator exactly 0
         params=T.Params(1.0, 3.0, 1.0, 1.0, 1.0), u=1.5)
@given(state=st.tuples(_POSITIVE, _POSITIVE, _POSITIVE), eta=_POSITIVE,
       params=st.builds(T.Params, *[_POSITIVE] * 5), u=_U)
def test_maps_match_references_bit_for_bit_on_floats(state, eta, params, u):
    for got, want in _maps_and_references(state, eta, params, u):
        assert got == want


@settings(max_examples=100, deadline=None)
@given(state=st.tuples(*[_EXACT_POSITIVE] * 3), eta=_EXACT_POSITIVE,
       params=st.builds(T.Params, *[_EXACT_POSITIVE] * 5),
       u=_EXACT_POSITIVE)
def test_maps_match_references_exactly_on_fractions(state, eta, params, u):
    pairs = _maps_and_references(state, eta, params, u)
    for got, want in pairs:
        assert got == want
    (p, _), (mapped, _), (et, _) = pairs
    for value in (p.delta, p.N) if isinstance(p, T.Params) else ():
        assert type(value) is F
    for value in mapped if isinstance(mapped, tuple) else ():
        assert type(value) is F
    assert isinstance(et, type) or type(et) is F


@settings(max_examples=200, deadline=None)
@example(us=[0.5], one_at=0, eta=0.5, params=ONES,
         orig=(1.0, 1.0, 1.0))  # T_I/T_U = 1 is the pole of u = 1/2
@given(us=st.lists(_U, min_size=1, max_size=8), one_at=st.integers(0, 8),
       eta=_POSITIVE, params=st.builds(T.Params, *[_POSITIVE] * 5),
       orig=st.tuples(_POSITIVE, _POSITIVE, _POSITIVE))
def test_stacked_eta_matches_reference_bit_for_bit(us, one_at, eta, params,
                                                   orig):
    us = us[:one_at] + [1.0] + us[one_at:]  # a tau = 0 twin
    sweeps = [_outcome(_sweep, params, [u]) for u in us]
    insts = [sweep[0] for sweep in sweeps if sweep is not T.SingularTau]
    assume(len(insts) > 1)  # one twin alone is no stack
    u = np.array([inst.u for inst in insts])
    got = _outcome(_stacked_field, insts, orig, [ETA_READOUT] * len(insts),
                   eta)
    want = _outcome(H.reference_eta_prime_values, *orig, eta, params, u=u)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got[u != 1, 4], want[u != 1])
        # u == 1 gives eta exactly: the twin moves as the original
        assert np.array_equal(got[u == 1, 3:], got[u == 1, :3])
