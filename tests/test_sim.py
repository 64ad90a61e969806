"""Integrator oracles, the indistinguishability experiment, and relation
residuals along trajectories."""

import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odeident import expr as E
from odeident import model as M
from odeident import program as P
from odeident import sim as S
from odeident.transform import (Params, SingularPoint, SingularTau,
                                TauFamily, eta_prime_expr)

from helpers import reference_eta_prime_values, reference_solve

hiv = M.hiv_model()
# the model's own vector field, eta an input, as a reference for the runs'
MODEL_RHS = E.compile_program(
    hiv.rhs, [*hiv.states, *hiv.tv_params, *hiv.const_params]).float_fn()
ONES = Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)
ONES_DICT = ONES.as_dict()
SKEWED = Params(lam=1.3, delta=0.8, rho=1.7, c=0.9, N=3.0)
HALF = S.EtaSignal.from_text("1/2")


# -------------------------------------------------------------- EtaSignal

def test_eta_signal_forms():
    assert HALF(3.7) == 0.5
    ramp = S.EtaSignal.from_text("1/2 + t/20")
    assert ramp(10.0) == pytest.approx(1.0)


def test_eta_signal_rejects_other_symbols():
    from odeident import expr as E
    with pytest.raises(E.UndeclaredSymbol):
        S.EtaSignal.from_text("t + q")
    with pytest.raises(ValueError):
        S.EtaSignal(E.sym(E.Symbol("q")) + E.sym(S.TIME_SYMBOL))


def test_a_model_with_several_tv_parameters_is_refused():
    m = M.parse_model(
        (Path(__file__).parent / "corpus" / "twosignals.ode").read_text())
    with pytest.raises(ValueError, match="2 time-varying parameters"):
        S.integrate(m, {"a": 1.0}, [1.0], S.EtaSignal.from_text("1/2"))


def test_eta_signal_text_round_trip():
    sig = S.EtaSignal.from_text("1/2")
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
    for tol in (9.9e-14, 1e-20):
        with pytest.raises(ValueError, match=r"^tolerances must lie in "
                                             r"\[1e-13, 1e-2\]$"):
            S.SimConfig(abs_tol=tol)
    assert S.SimConfig(abs_tol=1e-13, rel_tol=1e-2).rel_tol == 1e-2
    with pytest.raises(ValueError):
        S.SimConfig(max_step=0.0)
    with pytest.raises(ValueError):
        S.SimConfig(dense_output_points=1)
    # an infinite window gives a NaN grid that integrates nothing
    for window in ({"tf": math.inf}, {"t0": -math.inf}, {"tf": math.nan},
                   {"t0": math.nan}, {"t0": -math.inf, "tf": math.inf}):
        with pytest.raises(ValueError):
            S.SimConfig(**window)


def test_sim_config_rejects_a_window_whose_width_overflows():
    # the grid of [-1e308, 1e308] held NaN and inf, and the run spent its
    # whole step budget
    with pytest.raises(ValueError, match=r"^tf - t0 must be finite$"):
        S.SimConfig(t0=-1e308, tf=1e308)
    assert np.isfinite(S.SimConfig(t0=-8e307, tf=8e307).grid()).all()


# -------------------------------------------------------------- integrate

def test_equilibrium_stays_put():
    # lam = rho * T_U0 with no infection: T_U is constant
    traj = S.integrate(hiv, ONES_DICT, [1.0, 0.0, 0.0],
                       S.EtaSignal.from_text("0"), S.SimConfig(tf=10.0))
    assert np.abs(traj.states[:, 0] - 1.0).max() < 1e-12
    assert np.abs(traj.states[:, 1:]).max() == 0.0


def test_decay_closed_form_oracle():
    # with eta = 0 the infected-cell equation decouples: T_I = T_I0 e^(-dt);
    # V then follows the explicit two-exponential formula
    params = {"lambda": 1.0, "rho": 1.0, "delta": 1.0, "N": 2.0, "c": 3.0}
    cfg = S.SimConfig(tf=10.0, abs_tol=1e-13, rel_tol=1e-11)
    traj = S.integrate(hiv, params, [1.0, 1.0, 0.5],
                       S.EtaSignal.from_text("0"), cfg)
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


@pytest.mark.parametrize("init", [[math.nan, 1.0, 1.0], [1.0, math.inf, 1.0]])
def test_non_finite_initial_state_raises_typed_error(init):
    with pytest.raises(S.NonFiniteState, match="^initial state is not finite$"):
        S.integrate(hiv, ONES_DICT, init, HALF, S.SimConfig(tf=1.0))


# T_U = V = 1e200: the state is finite, but its derivative is not. The
# start state is checked as an accepted step's end is, before any step,
# and the twin's eta' denominator, inf, is no pole
@pytest.mark.parametrize("run, where", [
    (lambda init: S.integrate(hiv, ONES_DICT, init, HALF), ""),
    (lambda init: S.run_indistinguishability(ONES, init, HALF, 0.5),
     ", for tau = 0.5"),
    (lambda init: S.tau_sweep(ONES, init, HALF, [0.1, 0.5]),
     r", for tau in \[0.1, 0.5\]"),
], ids=["plain", "single tau", "tau sweep"])
def test_a_start_derivative_that_is_not_finite_raises_at_t0(run, where):
    with pytest.raises(S.NonFiniteState,
                       match=f"^derivative not finite at t = 0.0{where}$"):
        run([1e200, 1.0, 1e200])


# V = 1e308: the start state and its derivative are finite, but every
# step attempt's stages overflow, however small the step. The run ends
# when the step underflows, and says that no step stayed finite
@pytest.mark.parametrize("run, where", [
    (lambda init: S.integrate(hiv, ONES_DICT, init, HALF), ""),
    (lambda init: S.run_indistinguishability(ONES, init, HALF, 0.5),
     ", for tau = 0.5"),
], ids=["plain", "single tau"])
def test_a_start_whose_every_step_overflows_raises_non_finite(run, where):
    with pytest.raises(S.NonFiniteState,
                       match=f"^no step from t = 0.0 stays finite{where}$"):
        run([1.0, 1.0, 1e308])


def test_step_budget_raises_typed_error(monkeypatch):
    # a window far longer than the dynamics runs out of step attempts
    monkeypatch.setattr(S, "_MAX_ATTEMPTS", 500)
    m = M.parse_model("model d\nstates x\node x = -x\noutput o = x\n")
    with pytest.raises(S.StepBudgetExceeded, match=r"500 step attempts, at "
                       r"t = 0\.\d+ of \[0\.0, 1000000\.0\] \(0%\)$"):
        S.integrate(m, {}, [1.0], None, S.SimConfig(tf=1e6))
    assert issubclass(S.StepBudgetExceeded, S.StepSizeUnderflow)


def test_twin_failure_names_the_ratio_at_the_eta_pole(monkeypatch):
    def underflow(f, y0, cfg, check, attempt):
        raise S.StepSizeUnderflow("step size underflow at t = 1.0")

    monkeypatch.setattr(S, "_solve", underflow)
    params = Params(lam=1.0, delta=0.8, rho=1.7, c=1.0, N=3.0)
    with pytest.raises(S.StepSizeUnderflow) as info:
        S.run_indistinguishability(params, [1.0, 0.2, 1.0], HALF, -0.5)
    found = re.search(r", for tau = -0\.5 \(eta' has its pole at "
                      r"T_I/T_U = (\S+)\)$", str(info.value))
    ratio = float(found.group(1))
    # eta''s denominator changes sign across the printed ratio
    den = eta_prime_expr().args[1]
    TU, TI, V = hiv.states
    point = {TU: 1.0, V: 1.0, E.Symbol("u", E.AUX): math.exp(1.7 * -0.5),
             **{s: params.as_dict()[s.name] for s in hiv.const_params}}
    signs = {math.copysign(1.0, E.evaluate(den, {**point, TI: ratio * f},
                                           arithmetic="float64"))
             for f in (0.99, 1.01)}
    assert signs == {-1.0, 1.0}


def test_flat_right_hand_side_division_by_zero_is_typed():
    m = M.parse_model("model p\nstates x\node x = 1/(x-1)\noutput o = x\n")
    with pytest.raises(E.DivisionByZero):
        S.integrate(m, {}, [1.0], None, S.SimConfig(tf=1.0))


def test_a_stage_that_divides_by_zero_raises_division_by_zero(monkeypatch):
    # s' = -vmax*s/(km + s) with km = 0: k0 = -16 at s = 1, and the first
    # step, a hundredth of the window, is 1/4, so the first stage state is
    # s = 1 + 1/4*(1/4*-16) = 0. The step attempt runs the field in line,
    # and the stage re-raises its own division by zero without calling f,
    # which runs only at the start state
    m = M.parse_model(
        (Path(__file__).parent / "corpus" / "michaelis.ode").read_text())
    times = []
    compile_program = S.compile_program

    def spy(exprs, inputs):
        program = compile_program(exprs, inputs)
        fn = program.float_fn()

        def recording(*args):
            times.append(args[len(m.states)])
            return fn(*args)

        program.float_fn = lambda: recording
        return program

    monkeypatch.setattr(S, "compile_program", spy)
    with pytest.raises(E.DivisionByZero, match="^float division by zero$"):
        S.integrate(m, {"vmax": 16.0, "km": 0.0}, [1.0, 0.0], None,
                    S.SimConfig(tf=25.0))
    assert times == [0.0]


@pytest.mark.parametrize("text, params, init, message", [
    # x' = x^2 blows up at t = 1e-10, and x^2 of a Python float overflows
    # in the first step, a hundredth of the window
    ("ode x = x^2\noutput o = x\n", {}, 1e10,
     r"derivative overflows in the step from t = 0\.0 to 0\.01"),
    # the output's k^400 is a power of a scalar, which overflows at once
    ("params k\node x = -x\noutput o = x + k^400\n", {"k": 10.0}, 1.0,
     "an output overflows on the grid"),
], ids=["field", "output"])
def test_overflowing_power_is_typed(text, params, init, message):
    m = M.parse_model("model p\nstates x\n" + text)
    with pytest.raises(S.NonFiniteState, match=f"^{message}$"):
        S.integrate(m, params, [init], None, S.SimConfig(tf=1.0))


@pytest.mark.parametrize("T_I", [1.0, math.nextafter(1.0, 2.0)],
                         ids=["denominator zero", "denominator tiny"])
def test_twin_field_raises_eta_prime_values_error_at_the_pole(T_I):
    inst = TauFamily(tau=math.log(0.5), params=ONES)
    assert inst.u == 0.5
    # eta''s denominator is V*((T_I + T_U)*u - T_I): 0.0 at T_I = 1, and
    # nonzero but within 1e-12 of the scale 1.0 one ulp above
    den = eta_prime_expr().args[1]
    TU, TI, V = hiv.states
    point = {TU: 1.0, TI: T_I, V: 1.0, E.Symbol("u", E.AUX): 0.5,
             **{s: 1.0 for s in hiv.const_params}}
    value = E.evaluate(den, point, arithmetic="float64")
    assert (value == 0) == (T_I == 1.0) and abs(value) <= 1e-12
    with pytest.raises(SingularPoint) as want:
        inst.eta(1.0, T_I, 1.0, 0.5)
    # one twin's check, which `_solve` runs on the states it keeps, raises
    # at the pole, as a sweep's does; its f guards no call
    f, check, attempt = S._twin_field(hiv, HALF, [inst])
    y = [1.0, T_I, 1.0, *inst.map_state(1.0, T_I, 1.0)]
    with pytest.raises(SingularPoint) as got:
        check(0.0, y)
    # the twin is named, as by a sweep
    assert str(got.value) == (f"{want.value}, for tau = -0.693147 (eta' has "
                              f"its pole at T_I/T_U = 1)")
    if T_I == 1.0:
        assert str(want.value) == ("eta' denominator 0.0 vanishes relative "
                                   "to scale 1.0")
        # a stage exactly on the pole divides by zero and raises the same
        # through the check bound into the attempt: with h = 0 stage 1 is
        # the state y itself. f alone divides by zero
        with pytest.raises(SingularPoint) as stage:
            attempt(0.0, 0.0, y, [0.0] * 6, 1e-10, 1e-10)
        assert str(stage.value) == str(got.value)
        with pytest.raises(ZeroDivisionError):
            f(0.0, y)
    else:
        assert len(f(0.0, y)) == 6


def test_co_integrated_run_stops_at_the_eta_prime_pole():
    eta = S.EtaSignal.from_text("1/2 + t/20")
    with pytest.raises(SingularPoint) as info:
        S.run_indistinguishability(SKEWED, [1.0, 0.2, 1.0], eta, -0.5)
    # found at an accepted step, as the sweep finds it
    assert str(info.value) == ("eta' denominator 1.2652101588628284e-12 "
                               "vanishes relative to scale 1.2890235121507128"
                               ", for tau = -0.5 (eta' has its pole at "
                               "T_I/T_U = 1.59)")


def test_a_sweep_names_the_twin_at_its_eta_prime_pole():
    # from T_I/T_U = 1 the twin with u = 1/2 starts on its pole
    with pytest.raises(SingularPoint) as single:
        S.run_indistinguishability(ONES, [1.0, 1.0, 1.0], HALF, math.log(0.5))
    with pytest.raises(SingularPoint) as swept:
        S.tau_sweep(ONES, [1.0, 1.0, 1.0], HALF, [0.5, math.log(0.5)])
    assert str(swept.value) == str(single.value) == (
        "eta' denominator 0.0 vanishes relative to scale 1.0, for tau = "
        "-0.693147 (eta' has its pole at T_I/T_U = 1)")


def test_a_sweep_names_the_twin_that_meets_its_eta_prime_pole_mid_run():
    # from T_I/T_U = 0.2 the original trajectory reaches 1.59, the pole of
    # the tau = -0.5 twin, inside the window; the sweep's check finds it at
    # an accepted step, not at the start
    eta = S.EtaSignal.from_text("1/2 + t/20")
    with pytest.raises(SingularPoint) as info:
        S.tau_sweep(SKEWED, [1.0, 0.2, 1.0], eta, [-0.5, 0.5])
    assert str(info.value) == ("eta' denominator 1.2652101588628284e-12 "
                               "vanishes relative to scale 1.2890235121507128"
                               ", for tau = -0.5 (eta' has its pole at "
                               "T_I/T_U = 1.59)")



def test_one_twin_and_a_sweep_stop_alike_at_the_eta_prime_pole():
    # one pole route: alone, as a sweep of one and beside a twin that
    # passes, the tau = -0.5 twin stops at the same accepted step
    eta = S.EtaSignal.from_text("1/2 + t/20")
    messages = set()
    for run in (lambda: S.run_indistinguishability(SKEWED, [1.0, 0.2, 1.0],
                                                   eta, -0.5),
                lambda: S.tau_sweep(SKEWED, [1.0, 0.2, 1.0], eta, [-0.5]),
                lambda: S.tau_sweep(SKEWED, [1.0, 0.2, 1.0], eta,
                                    [-0.5, 0.5])):
        with pytest.raises(SingularPoint) as info:
            run()
        messages.add(str(info.value))
    assert messages == {"eta' denominator 1.2652101588628284e-12 vanishes "
                        "relative to scale 1.2890235121507128, for tau = "
                        "-0.5 (eta' has its pole at T_I/T_U = 1.59)"}


def test_a_twin_that_passes_close_to_its_eta_prime_pole_runs_through():
    # from 1,0.2,1 the original T_I/T_U peaks at about 0.3274 near
    # t = 0.776; the twin whose pole rho*u/(delta*(1-u)) lies 0.1% above
    # the peak comes within 1e-3 of it and turns away, so a pole check
    # that fires early stops it
    fine = S.integrate(hiv, ONES_DICT, [1.0, 0.2, 1.0], HALF,
                       S.SimConfig(tf=2.0, dense_output_points=20001))
    ratio = fine.states[:, 1] / fine.states[:, 0]
    assert ratio.max() == pytest.approx(0.3274, abs=1e-4)
    assert fine.times[ratio.argmax()] == pytest.approx(0.776, abs=1e-3)
    pole = 1.001 * ratio.max()
    u = pole / (1 + pole)  # rho = delta = 1, and u = exp(rho*tau)
    tau = math.log(u)
    assert tau == pytest.approx(-1.3991, abs=1e-4)
    alone, orig, _ = S.run_indistinguishability(ONES, [1.0, 0.2, 1.0], HALF,
                                                tau)
    swept, _ = S.tau_sweep(ONES, [1.0, 0.2, 1.0], HALF, [tau, 0.5])
    for report in (alone, swept):
        assert report.max_rel_output_dev < 1e-12
        assert report.max_rel_state_map_dev < 1e-12
    # eta''s denominator over its scale, V*(u*T_U - (1-u)*T_I) over
    # V*(T_U + T_I)*u, on the kept grid
    T_U, T_I = orig.states[:, 0], orig.states[:, 1]
    closest = np.min(np.abs(u * T_U - (1 - u) * T_I) / ((T_U + T_I) * u))
    assert 1e-12 < closest < 1e-3


# a stacked field of up to 6 twins, one of them with u == 1, whose row then
# holds the original state
_STATE = st.floats(min_value=1e-3, max_value=1e3)
_TWIN_ETAS = [S.EtaSignal.from_text(text) for text in ["1/2", "1/2 + t/20"]]
_POLE = {"params": ONES, "taus": [math.log(0.5)], "one_at": 0,
         "twins": [(1.0, 1.0, 1.0)] * 6, "eta": _TWIN_ETAS[0], "t": 0.0}


def _pole_outcome(f, *args):
    """f's value, or the message of the SingularPoint it raised."""
    try:
        return f(*args)
    except SingularPoint as exc:
        return str(exc)


def _single_twin_outcome(eta, inst, t, y):
    """One twin's derivative at (t, y), or the message of the SingularPoint
    that its check, which `_solve` runs on y before f, or its f raises."""
    f, check, _ = S._twin_field(hiv, eta, [inst])

    def run():
        if check is not None:
            check(t, y)
        return f(t, y)

    return _pole_outcome(run)


@settings(max_examples=60, deadline=None)
@example(orig=(1.0, 1.0, 1.0), **_POLE)  # eta''s denominator 0
@example(orig=(1.0, math.nextafter(1.0, 2.0), 1.0), **_POLE)  # tiny
@example(orig=(1.0, 1.0, 0.0), **{**_POLE, "taus": [0.0]})  # u == 1, V = 0
@given(params=st.builds(Params, *[st.floats(0.1, 10.0)] * 5),
       taus=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       one_at=st.integers(0, 5),
       orig=st.tuples(_STATE, _STATE, st.one_of(st.just(0.0), _STATE)),
       twins=st.lists(st.tuples(_STATE, _STATE, _STATE), min_size=6,
                      max_size=6),
       eta=st.sampled_from(_TWIN_ETAS), t=st.floats(0.0, 10.0))
def test_stacked_twin_field_rows_match_single_twin_fields(
        params, taus, one_at, orig, twins, eta, t):
    taus = taus[:one_at] + [0.0] + taus[one_at:]
    try:
        insts = [TauFamily(tau=tau, params=params) for tau in taus]
    except SingularTau:
        return
    rows = [[*orig, *(orig if inst.u == 1 else twin)]
            for inst, twin in zip(insts, twins)]
    singles = [_single_twin_outcome(eta, inst, t, row)
               for inst, row in zip(insts, rows)]
    # neither field guards a call; the stacked check, which `_solve` runs
    # on the states it keeps, raises what the single twins' checks raise
    f, check, _ = S._twin_field(hiv, eta, insts)
    with np.errstate(divide="ignore", invalid="ignore"):
        stacked = f(t, np.array(rows))
    checked = _pole_outcome(check, t, np.array(rows))
    try:
        eta_p = reference_eta_prime_values(
            *orig, eta(t), params, u=np.array([inst.u for inst in insts]))
    except SingularPoint:
        # the first twin at its pole raises, naming itself
        assert checked == next(s for s in singles if isinstance(s, str))
        return
    assert checked is None
    base = S._param_values(hiv, params.as_dict())
    for i, inst in enumerate(insts):
        want = (MODEL_RHS(*orig, eta(t), *base)
                + MODEL_RHS(*rows[i][3:], eta_p[i], *S._param_values(
                    hiv, inst.params_prime.as_dict())))
        assert _bit_equal(np.array(singles[i]), want)
        assert _bit_equal(stacked[i], want)


def test_co_integrated_division_by_zero_is_typed(monkeypatch):
    # the same vector field with a term that divides by T_U - 1: the
    # original system starts on its pole
    pole = M.parse_model(M.HIV_MODEL_TEXT.replace("- c*V\n",
                                                  "- c*V + 1/(T_U - 1)\n"))
    monkeypatch.setattr(S, "hiv_model", lambda: pole)
    with pytest.raises(E.DivisionByZero):
        S.run_indistinguishability(ONES, [1.0, 1.0, 1.0], HALF, 0.5)


# eta's pole at t = 1/40 lies between the points of a 400-point grid, and
# the first step's first stage, at 0.25 * (10/100), lands on it exactly
STAGE_POLE = S.EtaSignal.from_text("1/(t - 1/40)^2")
STAGE_POLE_CFG = S.SimConfig(dense_output_points=400)


@pytest.mark.parametrize("run, message", [
    (lambda: S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], STAGE_POLE,
                         STAGE_POLE_CFG), ""),
    (lambda: S.run_indistinguishability(ONES, [1.0, 0.2, 1.0], STAGE_POLE,
                                        0.5, STAGE_POLE_CFG),
     ", for tau = 0.5"),
    (lambda: S.run_indistinguishability(ONES, [1.0, 0.2, 1.0], STAGE_POLE,
                                        0.0, STAGE_POLE_CFG),
     ", for tau = 0"),
    (lambda: S.tau_sweep(ONES, [1.0, 0.2, 1.0], STAGE_POLE, [0.0, 0.5],
                         STAGE_POLE_CFG), ", for tau in [0, 0.5]"),
], ids=["plain", "tau 0.5", "tau 0", "sweep"])
def test_eta_pole_at_a_stage_time_is_a_typed_error(run, message):
    grid = STAGE_POLE_CFG.grid()
    assert 0.25 * (grid[-1] / 100) == 1 / 40 and 1 / 40 not in grid
    with pytest.raises(E.DivisionByZero) as info:
        run()
    assert str(info.value) == "float division by zero" + message


# -------------------------------------------- reference stepper oracle
# the emitted step attempt must round exactly like the generic stepper,
# down to the sign of a zero

ORACLE_ETAS = ["1/2", "1/2 + t/20"]


def _bit_equal(got, want) -> bool:
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _plain_reference_f(eta, params: Params):
    """The plain vector field as the generic stepper sees it: the model's
    own program, with eta from the signal."""
    pvals = S._param_values(hiv, params.as_dict())
    return lambda t, y: MODEL_RHS(*y, eta(t), *pvals)


def _twin_reference_f(eta, inst: TauFamily):
    """The co-integrated field as the generic stepper sees it: the model's
    own program on both halves, with eta' from `inst.eta`."""
    base = S._param_values(hiv, inst.params.as_dict())
    primed = S._param_values(hiv, inst.params_prime.as_dict())

    def f(t, y):
        et, orig = eta(t), list(y[:3])
        return (MODEL_RHS(*orig, et, *base)
                + MODEL_RHS(*y[3:], inst.eta(*orig, et), *primed))

    return f


@pytest.mark.parametrize("text", ORACLE_ETAS)
def test_integrate_matches_reference_stepper(text):
    eta = S.EtaSignal.from_text(text)
    want = reference_solve(_plain_reference_f(eta, ONES), [1.0, 1.0, 1.0],
                           S.SimConfig())
    got = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], eta).states
    assert _bit_equal(got, want)


# tau 0 is the identity twin (u == 1); under SKEWED the others move both
# delta and N
CO_INTEGRATED_CASES = {"ones": (ONES, (0.7, 0.0, -0.5, 1.3)),
                       "skewed": (SKEWED, (0.7, 0.0, -0.2, 1.3))}


@pytest.mark.parametrize("params, tau", [
    pytest.param(params, tau, id=f"{name}-tau={tau}")
    for name, (params, taus) in CO_INTEGRATED_CASES.items() for tau in taus])
@pytest.mark.parametrize("text", ORACLE_ETAS)
def test_co_integrated_run_matches_reference_stepper(text, params, tau):
    eta = S.EtaSignal.from_text(text)
    inst = TauFamily(tau=tau, params=params)
    init = [1.0, 0.2, 1.0]
    want = reference_solve(_twin_reference_f(eta, inst),
                           init + list(inst.map_state(*init)), S.SimConfig())
    _, orig, prim = S.run_indistinguishability(params, init, eta, tau)
    assert _bit_equal(np.hstack([orig.states, prim.states]), want)


@pytest.mark.parametrize("tau", [None, 0.5, 0.0],
                         ids=["plain", "tau=0.5", "tau=0"])
def test_zero_eta_from_zero_states_matches_reference_stepper(tau):
    # eta = 0 folds the infection terms out of the compiled field, whose
    # derivatives then differ from the reference's in the sign of a zero
    # (T_I' is -0.0 against 0.0 at T_I = 0); the states must not
    eta, init = S.EtaSignal.from_text("0"), [1.0, 0.0, 1.0]
    cfg = S.SimConfig(tf=2.0)
    if tau is None:
        want = reference_solve(_plain_reference_f(eta, ONES), init, cfg)
        got = S.integrate(hiv, ONES_DICT, init, eta, cfg).states
    else:
        inst = TauFamily(tau=tau, params=ONES)
        want = reference_solve(_twin_reference_f(eta, inst),
                               init + list(inst.map_state(*init)), cfg)
        _, orig, prim = S.run_indistinguishability(ONES, init, eta, tau, cfg)
        got = np.hstack([orig.states, prim.states])
    assert _bit_equal(got, want)


def test_stacked_rows_match_reference_stepper():
    pvals = S._param_values(hiv, ONES_DICT)

    def f(t, y):
        return np.array(MODEL_RHS(*y.T, 0.5 + t / 20, *pvals)).T

    y0 = [[1.0, 0.2, 1.0], [2.0, 1.0, 0.5]]
    assert _bit_equal(S._solve(f, y0, S.SimConfig()),
                      reference_solve(f, y0, S.SimConfig()))


def _wide_model(width: int, rng) -> M.OdeModel:
    """A linear model of `width` states, each coupled to its neighbours
    and to one state drawn at random, with rational coefficients."""
    lines = ["model wide", "states " + " ".join(f"x{i}" for i in range(width))]
    for i in range(width):
        coupled = sorted({i, (i + 1) % width, int(rng.integers(width))})
        terms = " + ".join(f"{int(rng.integers(-9, 10))}/{width}*x{j}"
                           for j in coupled)
        lines.append(f"ode x{i} = {terms} - x{i}")
    return M.parse_model("\n".join([*lines, "output o = x0"]) + "\n")


@pytest.mark.parametrize("width, piece_chars", [
    (9, P._PIECE_CHARS), (130, P._PIECE_CHARS), (9, 5)],
    ids=["9", "130", "9 in pieces"])
def test_wide_flat_state_matches_reference_stepper(monkeypatch, width,
                                                   piece_chars):
    # from 8 components numpy sums the squared errors pairwise, and a plain
    # run, which steps on Python floats, must sum them in the same order;
    # a field cut into pieces runs in each stage as the pieces' calls
    monkeypatch.setattr(P, "_PIECE_CHARS", piece_chars)
    rng = np.random.default_rng(width)
    m = _wide_model(width, rng)
    field = E.compile_program(m.rhs, m.states)
    assert ("_piece1" in field.source()) == (piece_chars < 1000)
    fn = field.float_fn()
    y0 = rng.uniform(0.5, 1.5, width).tolist()
    cfg = S.SimConfig(tf=1.0, dense_output_points=5)
    assert _bit_equal(S.integrate(m, {}, y0, None, cfg).states,
                      reference_solve(lambda t, y: fn(*y), y0, cfg))


# windows shorter than the stepper's end tolerance: no step is taken
TOO_SHORT = [S.SimConfig(t0=0.0, tf=1e-14),
             S.SimConfig(t0=1e15, tf=1e15 + 0.125)]


def _fill_paths(monkeypatch) -> set[str]:
    """The dense-output paths `_solve` takes from here on: "one" where a
    step fills one grid point (a scalar theta), "many" where it fills
    several (a column of thetas)."""
    paths = set()
    hermite = S._hermite

    def spy(theta, *args):
        paths.add("many" if isinstance(theta, np.ndarray) else "one")
        return hermite(theta, *args)

    monkeypatch.setattr(S, "_hermite", spy)
    return paths


def _recording_model_field(stacked: bool, times: list):
    """The model's field with eta = 1/2 + t/20 and the step attempt that
    `_solve` takes for it; each call of the field appends its t to
    `times`. A stacked state takes the stacked attempt (None). For a flat
    one the field is one program with eta in it, as in a plain run, and
    its attempt runs that program in line in every stage."""
    pvals = S._param_values(hiv, ONES_DICT)
    if stacked:
        def f(t, y):
            times.append(t)
            return np.array(MODEL_RHS(*y.T, 0.5 + t / 20, *pvals)).T

        return f, None
    program = E.compile_program(
        E.substitute_many(hiv.rhs, {hiv.tv_params[0]: S.EtaSignal.from_text(
            "1/2 + t/20").expression}),
        [*hiv.states, S.TIME_SYMBOL, *hiv.const_params])
    fn = program.float_fn()

    def f(t, y):
        times.append(t)
        return fn(*y, t, *pvals)

    return f, S._attempt_fn(program, pvals)


# steps are max_step long at loose tolerances: every step of 1/128 ends on
# a point of the 129-point grid, which the next step takes at theta 0, and
# a step of 1/32 covers four points of a grid 1/128 apart and ends on the
# fifth; a hundred steps of 0.1 sum to
# 9.99999999999998, so the last step ends short of the grid point at tf.
# Each case checks the times f was called at: a flat run calls it at each
# accepted step's end, a stacked one at every stage as well
LOOSE = dict(abs_tol=1e-2, rel_tol=1e-2)
FILL_CASES = {
    "default grid": (S.SimConfig(), {"one"}, lambda grid, times: True),
    "dense grid": (S.SimConfig(dense_output_points=2001, **LOOSE), {"many"},
                   lambda grid, times: True),
    "point at each step end": (
        S.SimConfig(tf=1.0, max_step=1 / 128, dense_output_points=129,
                    **LOOSE), {"one", "many"},
        lambda grid, times: set(grid[1:].tolist()) <= set(times)),
    "points up to each step end": (
        S.SimConfig(tf=4.0, max_step=1 / 32, dense_output_points=513,
                    **LOOSE), {"many"},
        lambda grid, times: set(grid[4::4].tolist()) <= set(times)),
    "point past the last step": (
        S.SimConfig(tf=10.0, max_step=0.1, dense_output_points=11, **LOOSE),
        {"one"},
        lambda grid, times: times[-1] < grid[-1] <= times[-1] + 1e-12),
}


@pytest.mark.parametrize("stacked", [False, True], ids=["flat", "stacked"])
@pytest.mark.parametrize("cfg, paths, check", FILL_CASES.values(),
                         ids=FILL_CASES.keys())
def test_fill_paths_match_reference_stepper(monkeypatch, cfg, paths, check,
                                            stacked):
    y0 = [[1.0, 0.2, 1.0], [2.0, 1.0, 0.5]] if stacked else [1.0, 0.2, 1.0]
    want = reference_solve(_recording_model_field(stacked, [])[0], y0, cfg)
    taken, times = _fill_paths(monkeypatch), []
    f, attempt = _recording_model_field(stacked, times)
    assert _bit_equal(S._solve(f, y0, cfg, attempt=attempt), want)
    assert taken == paths
    assert check(cfg.grid(), times)


@pytest.mark.parametrize("stacked", [False, True], ids=["flat", "stacked"])
@pytest.mark.parametrize("cfg", TOO_SHORT, ids=["tiny", "far"])
def test_window_without_steps_matches_reference_stepper(monkeypatch, cfg,
                                                        stacked):
    y0 = [[1.0, -0.0, 1.0], [2.0, 1.0, 0.5]] if stacked else [1.0, -0.0, 1.0]
    f, attempt = _recording_model_field(stacked, [])
    taken = _fill_paths(monkeypatch)
    assert _bit_equal(S._solve(f, y0, cfg, attempt=attempt),
                      reference_solve(f, y0, cfg))
    assert taken == set()


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
    alone = S._solve(lambda t, y: -rates[:1] * y, [[1.0, 2.0, 3.0]], cfg)
    assert stacked.shape == (cfg.dense_output_points, 2, 3)
    assert np.array_equal(stacked[:, :1], alone)
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
    # included, evaluated on numpy columns by the model's own program, with
    # eta' from the reference
    eta = S.EtaSignal.from_text(text)
    insts = [TauFamily(tau=tau, params=ONES) for tau in CRITERION_5_TAUS]
    u = np.array([inst.u for inst in insts])
    base = S._param_values(hiv, ONES_DICT)
    primed = np.array([S._param_values(hiv, inst.params_prime.as_dict())
                       for inst in insts]).T

    def f(t, y):
        et = eta(t)
        orig, prim = y[:, :3].T, y[:, 3:].T
        et_p = reference_eta_prime_values(*orig, et, ONES, u=u)
        return np.array(MODEL_RHS(*orig, et, *base)
                        + MODEL_RHS(*prim, et_p, *primed)).T

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
    assert _bit_equal(got, want)


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
    # in this order in the simulate and sweep JSON
    assert list(d) == ["tau", "params", "params_prime",
                       "admissible_tau_interval", "max_rel_output_dev",
                       "max_rel_state_map_dev", "grid_size", "eta", "config"]
    assert d["params_prime"]["lambda"] == d["params"]["lambda"]
    assert d["params"] == ONES_DICT and d["eta"] == "1/2"
    assert d["admissible_tau_interval"] == [None, None]
    assert d["config"] == report.config.to_dict()


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
    """The relation residual with one compile_float_fn for eta, for eta'
    (differentiated here) and per jet entry and relation term, every
    constant a full column."""
    from odeident import expr as E
    from odeident import ranktest as R
    grid = traj.times
    tv = hiv.tv_params[0]
    consts = {s: np.full_like(grid, float(params.as_dict()[s.name]))
              for s in hiv.const_params}
    cols = {**dict(zip(hiv.states, traj.states.T)), **consts}
    t = S.TIME_SYMBOL
    for k, e in enumerate([eta.expression,
                           E.differentiate(eta.expression, t)]):
        cols[tv.derivative(k) if k else tv] = np.broadcast_to(
            np.asarray(E.compile_float_fn(e, [t])(grid), dtype=float),
            grid.shape)
    for i in (1, 2):
        for k, e in enumerate(M.output_jet(hiv, i, 2).entries):
            args = sorted(E.free_symbols(e), key=E.Symbol.sort_key)
            cols[M.output_symbol(hiv, i, k)] = np.broadcast_to(
                E.compile_float_fn(e, args)(*(cols[s] for s in args)),
                grid.shape)
    terms = []
    for term in R.build_phi(variant).args:
        args = sorted(E.free_symbols(term), key=E.Symbol.sort_key)
        terms.append(np.broadcast_to(
            E.compile_float_fn(term, args)(*(cols[s] for s in args)),
            grid.shape))
    terms = np.column_stack(terms)
    total, scale = np.abs(terms.sum(axis=1)), np.abs(terms).max(axis=1)
    return float(np.where(scale > 0, total / np.where(scale > 0, scale, 1.0),
                          0.0).max())


@pytest.mark.parametrize("variant", ["corrected", "miao"])
@pytest.mark.parametrize("eta_text", ["1/2", "1/2 + t/20", "0", "t*t/3",
                                      "(t-5)^2/50 + 1/10"])
def test_relation_residual_matches_term_by_term_evaluation(variant, eta_text):
    # the compiled programs round exactly like one function per entry;
    # delta^2 of the first delta rounds differently as a Python float than
    # in numpy, so the constants must stay columns. At SKEWED from this
    # start, eta = 0 substituted into the jets (instead of fed as columns)
    # folds the infection terms away and changes the last bits
    eta = S.EtaSignal.from_text(eta_text)
    for params, init in [
            (Params(lam=2.0, delta=1.700026977, rho=0.3, c=2.5, N=5.0),
             [1.0, 0.2, 1.0]),
            (SKEWED, [0.3, 2.0, 0.0])]:
        traj = S.integrate(hiv, params.as_dict(), init, eta,
                           S.SimConfig(tf=4.0, dense_output_points=41))
        assert (S.phi_residual_along(traj, params, eta, variant)
                == _residual_term_by_term(traj, params, eta, variant))


@pytest.mark.parametrize("eta_text", ["1/2", "1/2 + t/20"])
def test_blocked_relation_residual_matches_the_whole_grid(eta_text):
    # two full blocks and one point: each block's programs see a slice of
    # the grid, and the largest block residual is the whole grid's
    eta = S.EtaSignal.from_text(eta_text)
    traj = S.integrate(hiv, SKEWED.as_dict(), [1.0, 0.2, 1.0], eta,
                       S.SimConfig(tf=4.0,
                                   dense_output_points=2 * S._PHI_BLOCK + 1))
    for variant in ("corrected", "miao"):
        assert (S.phi_residual_along(traj, SKEWED, eta, variant)
                == _residual_term_by_term(traj, SKEWED, eta, variant))


def test_relation_residual_holds_one_block_of_columns_at_a_time():
    # past one block (4,096 points) the traced peak stays that of one
    # block: keeping a block's columns alive while the next block's
    # programs ran peaked at 1.5 times it from two blocks on
    import tracemalloc
    peaks, residuals = [], []
    for points in (4096, 8192, 50000):
        traj = S.integrate(hiv, ONES_DICT, [1.0, 1.0, 1.0], HALF,
                           S.SimConfig(tf=10.0, dense_output_points=points))
        S.phi_residuals_along(traj, ONES, HALF, ["corrected", "miao"])
        tracemalloc.start()
        try:
            residuals.append(S.phi_residuals_along(traj, ONES, HALF,
                                                   ["corrected", "miao"]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) <= 1.1 * peaks[0], peaks
    assert residuals == [
        {"corrected": 5.128194307869327e-16, "miao": 0.5989104486703885},
        {"corrected": 6.342328486549087e-16, "miao": 0.5989104768701107},
        {"corrected": 5.605903249913246e-16, "miao": 0.5989105091339679}]


_PEAKS = """
import contextlib, io, json, resource, sys
from odeident import cli, sim
peaks = []
integrate = sim.integrate
def measured(*args, **kwargs):
    trajectory = integrate(*args, **kwargs)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return trajectory
sim.integrate = measured
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["phi-check", "--grid", "400000"])
peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(json.dumps([code, *peaks]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_phi_check_peaks_at_the_simulator_level():
    # the residual's programs run on blocks of the grid, so past the
    # trajectory they add about 0.3 MB at 400,000 points; over the whole
    # grid at once they added 110 MB, about 290 bytes per point
    done = subprocess.run(
        [sys.executable, "-c", _PEAKS],
        env={**os.environ, "PYTHONPATH": str(Path(S.__file__).parents[1])},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, after_integrate, after_residual = json.loads(done.stdout)
    assert code == 0
    assert after_residual - after_integrate < 8 * 1024


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
