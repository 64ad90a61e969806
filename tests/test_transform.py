"""The tau family: numeric kernels, domain handling, and the symbolic
verification of the transformed dynamics."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from odeident import expr as E
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


@pytest.mark.parametrize("tau", [1000.0, -1000.0, math.inf, -math.inf,
                                 math.nan])
def test_family_rejects_tau_whose_u_is_not_finite_and_positive(tau):
    # e^(rho tau) overflows, underflows to 0 or is nan
    with pytest.raises(T.SingularTau, match="not finite and positive"):
        T.TauFamily(tau=tau, params=ONES)


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


def test_stacked_eta_matches_each_member():
    u = np.array([0.5, 1.0, 2.0, 3.0])
    T_U, T_I, V = (np.array(c) for c in ([1.0, 0.3, 2.0, 0.7],
                                         [0.2, 0.9, 0.1, 1.1],
                                         [1.5, 0.4, 0.8, 2.5]))
    got = T.eta_prime_values(T_U, T_I, V, 0.5, SKEW, u=u)
    for i in range(len(u)):
        assert got[i] == T.eta_prime_value(T_U[i], T_I[i], V[i], 0.5, SKEW,
                                           u=u[i])
    assert got[1] == 0.5  # u == 1 gives eta exactly


def test_stacked_eta_with_shared_states_matches_each_member():
    # the states of a sweep's original system, shared by every twin
    u = np.array([0.5, 1.0, 2.0, 3.0])
    got = T.eta_prime_values(0.7, 1.1, 2.5, 0.5, SKEW, u=u)
    for i in range(len(u)):
        assert got[i] == T.eta_prime_value(0.7, 1.1, 2.5, 0.5, SKEW, u=u[i])
    assert got[1] == 0.5  # u == 1 gives eta exactly


def test_stacked_eta_with_shared_states_singular_at_one_member():
    # T_I/T_U = u/(1-u) is the pole of the member with that u alone: T_I =
    # T_U is the pole of u = 1/2 only
    u = np.array([1.0, 2.0, 0.5, 3.0])
    others = T.eta_prime_values(1.0, 1.0, 1.0, 0.5, ONES, u=u[[0, 1, 3]])
    assert np.all(np.isfinite(others))
    with pytest.raises(T.SingularPoint, match="at u = 0.5$"):
        T.eta_prime_values(1.0, 1.0, 1.0, 0.5, ONES, u=u)


def test_stacked_eta_singular_at_any_member():
    u = np.array([1.0, 2.0])
    ok = T.eta_prime_values(np.ones(2), np.ones(2), np.array([0.0, 1.0]),
                            0.5, ONES, u=u)
    assert ok[0] == 0.5  # V = 0 is no pole where u == 1
    with pytest.raises(T.SingularPoint, match="u = 2.0"):
        T.eta_prime_values(np.ones(2), np.ones(2), np.array([1.0, 0.0]),
                           0.5, ONES, u=u)


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
    assert E.is_zero(E.sub(built, printed))


def test_symbolic_maps_agree_with_numeric_kernels():
    point = {"T_U": F(3, 2), "T_I": F(2, 3), "V": F(5), "eta": F(1, 2),
             "lambda": F(1), "delta": F(1), "rho": F(2), "c": F(1),
             "N": F(1), "u": F(3)}
    from odeident.model import hiv_model
    hiv = hiv_model()
    binding = {}
    for s in hiv.states + hiv.const_params + hiv.tv_params:
        binding[s] = point[s.name]
    binding[E.Symbol("u", E.AUX)] = point["u"]

    tu, ti, v = T.transform_state(point["T_U"], point["T_I"], point["V"],
                                  EXACT, u=point["u"])
    sym_tu, sym_ti, sym_v = (E.evaluate(e, binding)
                             for e in T.state_map_exprs())
    assert (sym_tu, sym_ti, sym_v) == (tu, ti, v)

    et = T.eta_prime_value(point["T_U"], point["T_I"], point["V"],
                           point["eta"], EXACT, u=point["u"])
    assert E.evaluate(T.eta_prime_expr(), binding) == et

    pp = T.transform_params(EXACT, u=point["u"])
    exprs = T.params_prime_exprs()
    assert E.evaluate(exprs["delta"], binding) == pp.delta
    assert E.evaluate(exprs["N"], binding) == pp.N
