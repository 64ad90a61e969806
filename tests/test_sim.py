"""Integrator oracles, the indistinguishability experiment, and relation
residuals along trajectories."""

import io
import math

import numpy as np
import pytest

from odeident import expr as E
from odeident import model as M
from odeident import sim as S
from odeident.transform import (Params, SingularTau, TauFamily,
                                eta_prime_values)

from helpers import reference_solve

hiv = M.hiv_model()
ONES = Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)
ONES_DICT = ONES.as_dict()
HALF = S.EtaSignal.constant(0.5)


# -------------------------------------------------------------- EtaSignal

def test_eta_signal_forms():
    assert HALF(3.7) == 0.5
    ramp = S.EtaSignal.from_text("1/2 + t/20")
    assert ramp(10.0) == pytest.approx(1.0)
    chain = ramp.derivative_chain(2)
    assert chain[1](0.3) == pytest.approx(0.05)
    assert chain[2](0.3) == 0.0


def test_eta_signal_rejects_other_symbols():
    from odeident import expr as E
    with pytest.raises(E.UndeclaredSymbol):
        S.EtaSignal.from_text("t + q")
    with pytest.raises(ValueError):
        S.EtaSignal(E.sym(E.Symbol("q")) + E.sym(S.TIME_SYMBOL))


def test_eta_signal_text_round_trip():
    sig = S.EtaSignal.constant(0.5)
    assert sig.text() == "1/2"
    assert S.EtaSignal.from_text(sig.text())(0.0) == 0.5


def test_output_quotient_of_constants_by_zero_raises():
    # the outputs get the constants as scalars, so 1/k is a Python float
    # division; it fails typed, as the right-hand side would
    from odeident import expr as E
    m = M.parse_model("model z\nstates x\nparams k\node x = -x\n"
                      "output y = x + 1/k\n")
    with pytest.raises(E.DivisionByZero):
        S.integrate(m, {"k": 0.0}, [1.0],
                    cfg=S.SimConfig(tf=1.0, dense_output_points=3))


def test_negative_eta_rejected_at_samples():
    sig = S.EtaSignal.from_text("1/2 - t")  # negative beyond t = 1/2
    with pytest.raises(ValueError):
        S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], sig, S.SimConfig(tf=2.0))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        S.SimConfig(t0=1.0, tf=1.0)
    with pytest.raises(ValueError):
        S.SimConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        S.SimConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        S.SimConfig(max_step=0.0)
    with pytest.raises(ValueError):
        S.SimConfig(dense_output_points=1)
    # an infinite window gives a NaN grid that integrates nothing
    for window in ({"tf": math.inf}, {"t0": -math.inf}, {"tf": math.nan},
                   {"t0": math.nan}, {"t0": -math.inf, "tf": math.inf}):
        with pytest.raises(ValueError):
            S.SimConfig(**window)


# -------------------------------------------------------------- integrate

def test_equilibrium_stays_put():
    # lam = rho * T_U0 with no infection: T_U is constant
    traj = S.integrate(hiv, ONES_DICT, [1.0, 0.0, 0.0],
                       S.EtaSignal.constant(0), S.SimConfig(tf=10.0))
    assert np.abs(traj.states[:, 0] - 1.0).max() < 1e-12
    assert np.abs(traj.states[:, 1:]).max() == 0.0


def test_decay_closed_form_oracle():
    # with eta = 0 the infected-cell equation decouples: T_I = T_I0 e^(-dt);
    # V then follows the explicit two-exponential formula
    params = {"lambda": 1.0, "rho": 1.0, "delta": 1.0, "N": 2.0, "c": 3.0}
    cfg = S.SimConfig(tf=10.0, abs_tol=1e-13, rel_tol=1e-11)
    traj = S.integrate(hiv, params, [1.0, 1.0, 0.5],
                       S.EtaSignal.constant(0), cfg)
    t = traj.times
    ti = np.exp(-t)
    v = 0.5 * np.exp(-3.0 * t) + 2.0 * (np.exp(-t) - np.exp(-3.0 * t)) / 2.0
    assert (np.abs(traj.states[:, 1] - ti) / ti).max() < 1e-8
    assert (np.abs(traj.states[:, 2] - v) / np.abs(v)).max() < 1e-8


def test_outputs_recomputed_from_states():
    traj = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], HALF,
                       S.SimConfig(tf=5.0))
    assert np.array_equal(traj.outputs[:, 0],
                          traj.states[:, 0] + traj.states[:, 1])
    assert np.array_equal(traj.outputs[:, 1], traj.states[:, 2])


def test_fixed_step_fourth_order_convergence():
    # loose tolerances force plain max_step stepping; halving the step
    # should shrink the error by about 2^4
    loose = dict(t0=0.0, tf=2.0, abs_tol=1e-2, rel_tol=1e-2,
                 dense_output_points=3)
    ref = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], HALF,
                      S.SimConfig(t0=0.0, tf=2.0, abs_tol=1e-13,
                                  rel_tol=1e-13, dense_output_points=3))
    errs = []
    for h in (0.1, 0.05):
        traj = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], HALF,
                           S.SimConfig(max_step=h, **loose))
        errs.append(np.abs(traj.states[-1] - ref.states[-1]).max())
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 32.0


def test_blowup_raises():
    m = M.parse_model("model blow\nstates x\node x = x^2\noutput o = x\n")
    with pytest.raises((S.StepSizeUnderflow, S.NonFiniteState)):
        S.integrate(m, {}, [3.0], None, S.SimConfig(tf=2.0))


def test_step_budget_raises_typed_error(monkeypatch):
    # a window far longer than the dynamics runs out of step attempts
    monkeypatch.setattr(S, "_MAX_ATTEMPTS", 500)
    m = M.parse_model("model d\nstates x\node x = -x\noutput o = x\n")
    with pytest.raises(S.StepBudgetExceeded, match="500 step attempts"):
        S.integrate(m, {}, [1.0], None, S.SimConfig(tf=1e6))
    assert issubclass(S.StepBudgetExceeded, S.StepSizeUnderflow)


def test_flat_right_hand_side_division_by_zero_is_typed():
    m = M.parse_model("model p\nstates x\node x = 1/(x-1)\noutput o = x\n")
    with pytest.raises(E.DivisionByZero):
        S.integrate(m, {}, [1.0], None, S.SimConfig(tf=1.0))


def test_co_integrated_division_by_zero_is_typed(monkeypatch):
    # the same vector field with a term that divides by T_U - 1: the
    # original system starts on its pole
    pole = M.parse_model(M.HIV_MODEL_TEXT.replace("- c*V\n",
                                                  "- c*V + 1/(T_U - 1)\n"))
    monkeypatch.setattr(S, "hiv_model", lambda: pole)
    with pytest.raises(E.DivisionByZero):
        S.run_indistinguishability(ONES, [1.0, 1.0, 1.0], HALF, 0.5)


# -------------------------------------------- reference stepper oracle
# the emitted step attempt must round exactly like the generic stepper

ORACLE_ETAS = ["1/2", "1/2 + t/20"]


@pytest.mark.parametrize("text", ORACLE_ETAS)
def test_integrate_matches_reference_stepper(text):
    eta = S.EtaSignal.from_text(text)
    rhs = S._rhs(hiv)
    pvals = S._param_values(hiv, ONES_DICT)
    want = reference_solve(
        lambda t, y: rhs.run_float([*y, eta(t), *pvals]), [1.0, 1.0, 1.0],
        S.SimConfig())
    got = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], eta).states
    assert np.array_equal(got, want)


@pytest.mark.parametrize("text", ORACLE_ETAS)
def test_co_integrated_run_matches_reference_stepper(text):
    eta = S.EtaSignal.from_text(text)
    inst = TauFamily(tau=0.7, params=ONES)
    rhs = S._rhs(hiv)
    base = S._param_values(hiv, ONES_DICT)
    primed = S._param_values(hiv, inst.params_prime.as_dict())

    def f(t, y):
        et, orig = eta(t), list(y[:3])
        return (rhs.run_float([*orig, et, *base])
                + rhs.run_float([*y[3:], inst.eta(*orig, et), *primed]))

    init = [1.0, 0.2, 1.0]
    want = reference_solve(f, init + list(inst.map_state(*init)),
                           S.SimConfig())
    _, orig, prim = S.run_indistinguishability(ONES, init, eta, 0.7)
    assert np.array_equal(np.hstack([orig.states, prim.states]), want)


def test_stacked_rows_match_reference_stepper():
    rhs = S._rhs(hiv).float_fn()
    pvals = S._param_values(hiv, ONES_DICT)

    def f(t, y):
        return np.array(rhs(*y.T, 0.5 + t / 20, *pvals)).T

    y0 = [[1.0, 0.2, 1.0], [2.0, 1.0, 0.5]]
    assert np.array_equal(S._solve(f, y0, S.SimConfig()),
                          reference_solve(f, y0, S.SimConfig()))


@pytest.mark.parametrize("width", [9, 130])
def test_wide_flat_state_matches_reference_stepper(width):
    # from 8 components on numpy sums the squared errors pairwise; the flat
    # rendering must sum them in the same order
    rng = np.random.default_rng(width)
    a = rng.normal(size=(width, width)) / width - np.eye(width)
    y0 = rng.uniform(0.5, 1.5, width)
    cfg = S.SimConfig(tf=1.0, dense_output_points=5)
    assert np.array_equal(
        S._solve(lambda t, y: (a @ y).tolist(), y0, cfg),
        reference_solve(lambda t, y: a @ y, y0, cfg))


# windows shorter than the stepper's end tolerance: no step is taken
TOO_SHORT = [S.SimConfig(t0=0.0, tf=1e-14),
             S.SimConfig(t0=1e15, tf=1e15 + 0.125)]


@pytest.mark.parametrize("cfg", TOO_SHORT, ids=["tiny", "far"])
def test_window_without_steps_keeps_initial_state(cfg):
    traj = S.integrate(hiv, ONES_DICT, [1.0, 0.5, 2.0], HALF, cfg)
    assert traj.states.shape == (cfg.dense_output_points, 3)
    assert np.all(traj.states == [1.0, 0.5, 2.0])
    assert np.all(traj.outputs == [1.5, 2.0])


def test_stacked_rows_take_the_steps_of_the_hardest_row():
    # a row with a zero vector field has zero error; the step error is the
    # worst row's, so the hard row steps exactly as in a run of its own
    rates = np.array([[1.0, 7.0, 0.3], [0.0, 0.0, 0.0]])
    cfg = S.SimConfig(tf=3.0, abs_tol=1e-8, rel_tol=1e-8)
    stacked = S._solve(lambda t, y: -rates * y, [[1.0, 2.0, 3.0]] * 2, cfg)
    alone = S._solve(lambda t, y: -rates[0] * y, [1.0, 2.0, 3.0], cfg)
    assert stacked.shape == (cfg.dense_output_points, 2, 3)
    assert np.array_equal(stacked[:, 0], alone)
    assert np.allclose(stacked[:, 1], [1.0, 2.0, 3.0], rtol=1e-15, atol=0)


@pytest.mark.parametrize("text", ["1/t", "1/(t-5)^2"])
def test_eta_not_finite_on_the_grid_rejected(text):
    pole = S.EtaSignal.from_text(text)
    with pytest.raises(ValueError, match="not finite"):
        S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], pole)
    with pytest.raises(ValueError, match="not finite"):
        S.run_indistinguishability(ONES, [1.0, 1.0, 1.0], pole, 0.5)


def test_wrong_initial_length():
    with pytest.raises(ValueError):
        S.integrate(hiv, ONES_DICT, [1.0], HALF)


def test_missing_parameter_value():
    with pytest.raises(ValueError):
        S.integrate(hiv, {"lambda": 1.0}, [1.0, 1.0, 1.0], HALF)


def test_missing_eta_signal():
    with pytest.raises(ValueError):
        S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], None)


# ------------------------------------------------- indistinguishability

def test_tau_zero_indistinguishable_to_rounding():
    report, orig, prim = S.run_indistinguishability(
        ONES, [1.0, 1.0, 1.0], HALF, 0.0)
    assert report.max_rel_output_dev < 1e-12
    assert report.max_rel_state_map_dev < 1e-12


def test_generic_tau_indistinguishable():
    report, orig, prim = S.run_indistinguishability(
        ONES, [1.0, 1.0, 1.0], HALF, math.log(2.0))
    assert report.max_rel_output_dev < 1e-6
    assert report.max_rel_state_map_dev < 1e-6
    # with rho = delta only N moves; it genuinely differs
    assert report.params_prime.N == pytest.approx(2.0)


def test_skewed_parameters_also_indistinguishable():
    skew = Params(lam=1.0, delta=0.8, rho=1.7, c=1.2, N=3.0)
    tau = math.log(2.0) / skew.rho  # e^(rho tau) = 2
    report, _, _ = S.run_indistinguishability(skew, [1.0, 1.0, 1.0],
                                              HALF, tau)
    assert report.max_rel_output_dev < 1e-6
    assert report.max_rel_state_map_dev < 1e-6
    # here both delta and N move
    assert abs(report.params_prime.delta - skew.delta) > 0.2
    assert report.params_prime.N == pytest.approx(6.0)


def test_algebraic_map_preserves_outputs_exactly():
    # oracle that bypasses the second integration: outputs computed from
    # the mapped original states equal the original outputs identically
    from odeident.transform import TauFamily
    report, orig, _ = S.run_indistinguishability(
        ONES, [1.0, 1.0, 1.0], HALF, math.log(2.0))
    inst = TauFamily(math.log(2.0), ONES)
    tu, ti, v = inst.map_state(orig.states[:, 0], orig.states[:, 1],
                               orig.states[:, 2])
    assert np.abs((tu + ti) - orig.outputs[:, 0]).max() < 1e-12
    assert np.abs(v - orig.outputs[:, 1]).max() == 0.0


@pytest.mark.parametrize("cfg", TOO_SHORT, ids=["tiny", "far"])
def test_indistinguishability_window_without_steps(cfg):
    report, orig, prim = S.run_indistinguishability(
        ONES, [1.0, 0.5, 2.0], HALF, math.log(2.0), cfg)
    assert np.all(orig.states == [1.0, 0.5, 2.0])
    assert np.all(prim.states == prim.states[0])
    assert report.max_rel_output_dev < 1e-15
    assert report.max_rel_state_map_dev == 0.0


def test_inadmissible_tau_raises_before_integration():
    steep = Params(lam=1.0, delta=2.0, rho=1.0, c=1.0, N=1.0)
    hi = math.log(2.0)  # upper end of the admissible interval
    with pytest.raises(SingularTau):
        S.run_indistinguishability(steep, [1.0, 1.0, 1.0], HALF, hi + 0.5)
    with pytest.raises(SingularTau):
        S.run_indistinguishability(steep, [1.0, 1.0, 1.0], HALF, hi)


def test_per_point_output_invariance_within_tolerance_class():
    cfg = S.SimConfig(tf=10.0, abs_tol=1e-10, rel_tol=1e-10)
    report, orig, prim = S.run_indistinguishability(
        ONES, [1.0, 1.0, 1.0], HALF, 0.4, cfg)
    dev = np.abs(prim.outputs - orig.outputs) / (1.0 + np.abs(orig.outputs))
    assert dev.max() < 100 * cfg.rel_tol


def test_monotone_accuracy_no_early_plateau():
    devs = []
    for tol in (1e-6, 1e-8):
        cfg = S.SimConfig(tf=10.0, abs_tol=tol, rel_tol=tol)
        report, _, _ = S.run_indistinguishability(
            ONES, [1.0, 1.0, 1.0], HALF, math.log(2.0), cfg)
        devs.append(max(report.max_rel_output_dev,
                        report.max_rel_state_map_dev))
    assert devs[1] < devs[0] or devs[1] <= 1e-11


def test_tau_sweep_bounded_and_continuous():
    taus = [-0.5, -1e-3, 0.0, 1e-3, 0.5]
    reports = S.tau_sweep(ONES, [1.0, 1.0, 1.0], HALF, taus,
                          S.SimConfig(tf=5.0))
    devs = [r.max_rel_output_dev for r in reports]
    assert all(d < 1e-6 for d in devs)


class _EtaCalls(S.EtaSignal):
    calls = 0

    def __call__(self, t):
        _EtaCalls.calls += 1
        return super().__call__(t)


def test_tau_sweep_checks_every_tau_before_integrating():
    steep = Params(lam=1.0, delta=2.0, rho=1.0, c=1.0, N=1.0)
    bad = math.log(2.0) + 0.5  # past the admissible interval
    with pytest.raises(SingularTau) as single:
        S.run_indistinguishability(steep, [1.0, 1.0, 1.0], HALF, bad)
    eta = _EtaCalls.from_text("1/2")
    _EtaCalls.calls = 0
    with pytest.raises(SingularTau) as swept:
        S.tau_sweep(steep, [1.0, 1.0, 1.0], eta, [0.1, 0.2, bad])
    assert str(swept.value) == str(single.value)
    assert _EtaCalls.calls == 0


def test_tau_sweep_of_no_taus_is_empty():
    assert S.tau_sweep(ONES, [1.0, 1.0, 1.0], HALF, []) == []


CRITERION_5_TAUS = [float(t) for t in np.linspace(-1.0, 1.5, 16)] + [
    -1e-3, -1e-4, 1e-4, 1e-3]


@pytest.mark.parametrize("text", ORACLE_ETAS)
def test_tau_sweep_matches_reference_stepper(text):
    # the generic stacked right-hand side: every row, its original states
    # included, evaluated on numpy columns
    eta = S.EtaSignal.from_text(text)
    insts = [TauFamily(tau=tau, params=ONES) for tau in CRITERION_5_TAUS]
    u = np.array([inst.u for inst in insts])
    rhs = S._rhs(hiv).float_fn()
    base = S._param_values(hiv, ONES_DICT)
    primed = np.array([S._param_values(hiv, inst.params_prime.as_dict())
                       for inst in insts]).T

    def f(t, y):
        et = eta(t)
        orig, prim = y[:, :3].T, y[:, 3:].T
        et_p = eta_prime_values(*orig, et, ONES, u=u)
        return np.array(rhs(*orig, et, *base) + rhs(*prim, et_p, *primed)).T

    init = [1.0, 0.2, 1.0]
    want = reference_solve(
        f, [init + list(inst.map_state(*init)) for inst in insts],
        S.SimConfig())
    # the invariant the sweep relies on: all rows share one original
    assert all(np.array_equal(want[:, i, :3], want[:, 0, :3])
               for i in range(len(insts)))
    swept = S._twin_runs(ONES, init, eta, CRITERION_5_TAUS, S.SimConfig())
    got = np.stack([np.hstack([orig.states, prim.states])
                    for _, orig, prim in swept], axis=1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("text", ORACLE_ETAS)
def test_tau_sweep_members_agree_with_single_runs(text):
    eta = S.EtaSignal.from_text(text)
    init = [1.0, 0.2, 1.0]
    swept = S._twin_runs(ONES, init, eta, CRITERION_5_TAUS, S.SimConfig())
    assert len(swept) == len(CRITERION_5_TAUS)
    for tau, (report, orig, prim) in zip(CRITERION_5_TAUS, swept):
        single, s_orig, s_prim = S.run_indistinguishability(ONES, init, eta,
                                                            tau)
        for got, want in ((orig, s_orig), (prim, s_prim)):
            assert np.array_equal(got.times, want.times)
            scale = 1.0 + np.abs(want.states)
            assert np.max(np.abs(got.states - want.states) / scale) < 1e-9
        got, want = report.to_dict(), single.to_dict()
        for key in ("max_rel_output_dev", "max_rel_state_map_dev"):
            assert got.pop(key) < 1e-6
            want.pop(key)
        assert got == want


def test_time_varying_eta_also_indistinguishable():
    sig = S.EtaSignal.from_text("1/2 + t/20")
    report, _, _ = S.run_indistinguishability(
        ONES, [1.0, 1.0, 1.0], sig, 0.7)
    assert report.max_rel_output_dev < 1e-6
    assert report.max_rel_state_map_dev < 1e-6


def test_report_dict_shape():
    report, _, _ = S.run_indistinguishability(
        ONES, [1.0, 1.0, 1.0], HALF, 0.1, S.SimConfig(tf=2.0))
    d = report.to_dict()
    assert set(d) == {"tau", "params", "params_prime",
                      "admissible_tau_interval", "max_rel_output_dev",
                      "max_rel_state_map_dev", "grid_size", "eta", "config"}
    assert d["params_prime"]["lambda"] == d["params"]["lambda"]


# ------------------------------------------------------ relation residual

def test_relation_residual_corrected_vs_printed():
    cfg = S.SimConfig(tf=10.0)
    traj = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], HALF, cfg)
    corrected = S.phi_residual_along(traj, ONES, HALF, "corrected")
    printed = S.phi_residual_along(traj, ONES, HALF, "miao")
    assert corrected < 1e-6
    assert printed > 1e-2


def test_relation_residual_with_time_varying_eta():
    sig = S.EtaSignal.from_text("1/2 + t/20")
    cfg = S.SimConfig(tf=10.0)
    traj = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], sig, cfg)
    assert S.phi_residual_along(traj, ONES, sig, "corrected") < 1e-6


def _residual_term_by_term(traj, params, eta, variant):
    """The relation residual with one compile_float_fn per jet entry and
    per relation term, every constant a full column."""
    from odeident import expr as E
    from odeident import ranktest as R
    grid = traj.times
    tv = hiv.tv_params[0]
    consts = {s: np.full_like(grid, float(params.as_dict()[s.name]))
              for s in hiv.const_params}
    cols = {**dict(zip(hiv.states, traj.states.T)), **consts}
    for k, fn in enumerate(eta.derivative_chain(1)):
        cols[tv.derivative(k) if k else tv] = np.broadcast_to(
            np.asarray(fn(grid), dtype=float), grid.shape)
    for i in (1, 2):
        for k, e in enumerate(M.output_jet(hiv, i, 2).entries):
            args = sorted(E.free_symbols(e), key=E.Symbol.sort_key)
            cols[M.output_symbol(hiv, i, k)] = np.broadcast_to(
                E.compile_float_fn(e, args)(*(cols[s] for s in args)),
                grid.shape)
    terms = []
    for term in R.build_phi(variant, hiv).expression.args:
        args = sorted(E.free_symbols(term), key=E.Symbol.sort_key)
        terms.append(np.broadcast_to(
            E.compile_float_fn(term, args)(*(cols[s] for s in args)),
            grid.shape))
    terms = np.column_stack(terms)
    total, scale = np.abs(terms.sum(axis=1)), np.abs(terms).max(axis=1)
    return float(np.where(scale > 0, total / np.where(scale > 0, scale, 1.0),
                          0.0).max())


@pytest.mark.parametrize("variant", ["corrected", "miao"])
@pytest.mark.parametrize("eta_text", ["1/2", "1/2 + t/20"])
def test_relation_residual_matches_term_by_term_evaluation(variant, eta_text):
    # the two compiled programs round exactly like one function per entry;
    # delta^2 of this delta rounds differently as a Python float than in
    # numpy, so the constants must stay columns
    eta = S.EtaSignal.from_text(eta_text)
    params = Params(lam=2.0, delta=1.700026977, rho=0.3, c=2.5, N=5.0)
    traj = S.integrate(hiv, params.as_dict(), [1.0, 0.2, 1.0], eta,
                       S.SimConfig(tf=4.0, dense_output_points=41))
    assert (S.phi_residual_along(traj, params, eta, variant)
            == _residual_term_by_term(traj, params, eta, variant))


def test_relation_residual_empty_grid_is_zero():
    empty = S.Trajectory(times=np.array([]),
                         states=np.empty((0, 3)),
                         outputs=np.empty((0, 2)),
                         state_names=("T_U", "T_I", "V"),
                         output_names=("y1", "y2"))
    assert S.phi_residual_along(empty, ONES, HALF) == 0.0


# ------------------------------------------------------------ CSV export

def test_csv_single_trajectory():
    traj = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], HALF,
                       S.SimConfig(tf=1.0, dense_output_points=5))
    buf = io.StringIO()
    S.write_trajectory_csv(buf, traj)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,T_U,T_I,V,y1,y2"
    assert len(lines) == 6


def test_csv_with_twin_trajectory():
    report, orig, prim = S.run_indistinguishability(
        ONES, [1.0, 1.0, 1.0], HALF, 0.2,
        S.SimConfig(tf=1.0, dense_output_points=4))
    buf = io.StringIO()
    S.write_trajectory_csv(buf, orig, prim)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,T_U,T_I,V,y1,y2,T_U_p,T_I_p,V_p,y1_p,y2_p"
    assert len(lines) == 5
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] + first[2] == pytest.approx(first[4])
