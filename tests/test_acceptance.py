"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line each (run with -s to see them). The runtime budgets are asserted from
wall-clock measurements of the work itself."""

import json
import math
import time

import numpy as np

from odeident import cli
from odeident import expr as E
from odeident import model as M
from odeident import sim as S
from odeident.transform import Params, TauFamily
from helpers import fd_cases, fd_derivative

from pathlib import Path

CORPUS = Path(__file__).parent / "corpus"

ONES = Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)
HALF = S.EtaSignal.constant(0.5)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _run_cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_naive_rank_is_five(capsys):
    start = time.perf_counter()
    code, payload = _run_cli_json(capsys, "rank", "--mode", "naive",
                                  "--trials", "100", "--seed", "7")
    elapsed = time.perf_counter() - start
    valid = sum(payload["observed_ranks"].values())
    ok = (code == 0 and payload["generic_rank"] == 5
          and valid >= 100 * 3 and elapsed < 60.0)
    _report(1, "naive-mode generic rank is 5 over >= 100 points x 3 primes",
            ok, f"rank {payload['generic_rank']}, {valid} evaluations, "
                f"{elapsed:.1f}s")


def test_criterion_2_constrained_rank_at_most_four(capsys):
    start = time.perf_counter()
    code, payload = _run_cli_json(capsys, "rank", "--mode", "constrained",
                                  "--trials", "100", "--seed", "7")
    elapsed = time.perf_counter() - start
    ranks = {int(r) for r in payload["observed_ranks"]}
    valid = sum(payload["observed_ranks"].values())
    ok = (code == 0 and max(ranks) <= 4 and 5 not in ranks
          and valid >= 100 * 3
          and payload["structured_point_rank"] is not None
          and payload["structured_point_rank"] <= 4
          and elapsed < 120.0)
    _report(2, "constrained-mode ranks never exceed 4, structured point "
               "recorded", ok,
            f"observed {sorted(ranks)}, structured "
            f"{payload['structured_point_rank']}, {elapsed:.1f}s")


def test_criterion_3_identities_symbolically_zero(capsys):
    start = time.perf_counter()
    code, payload = _run_cli_json(capsys, "verify-identities",
                                  "--output", "json")
    elapsed = time.perf_counter() - start
    ok = (code == 0 and payload["all_pass"] is True
          and len(payload["identities"]) == 3 and elapsed < 10.0)
    _report(3, "all three transformed-dynamics identities are symbolic zero",
            ok, f"{elapsed:.2f}s")


# For tau < 0 the transformed-eta denominator vanishes on the state
# variety T_I/T_U = u/(1-u); from (1, 0.2, 1) the trajectory keeps
# T_I/T_U below 0.33, clear of every variety touched by the taus below
# (the all-ones start sits exactly on the u = 1/2 variety at t = 0).
SAFE_INIT = [1.0, 0.2, 1.0]


def test_criterion_4_indistinguishability_at_three_scales():
    ok = True
    details = []
    for factor in (0.5, 2.0, 5.0):
        tau = math.log(factor)  # rho = 1
        start = time.perf_counter()
        report, _, _ = S.run_indistinguishability(
            ONES, SAFE_INIT, HALF, tau,
            S.SimConfig(tf=10.0, abs_tol=1e-10, rel_tol=1e-10))
        elapsed = time.perf_counter() - start
        good = (report.max_rel_output_dev < 1e-6
                and report.max_rel_state_map_dev < 1e-6
                and elapsed < 10.0)
        ok = ok and good
        details.append(f"u={factor}: out {report.max_rel_output_dev:.1e} "
                       f"map {report.max_rel_state_map_dev:.1e} "
                       f"{elapsed:.1f}s")
    _report(4, "deviations < 1e-6 for e^(rho tau) in {1/2, 2, 5}", ok,
            "; ".join(details))


def test_criterion_5_tau_sweep_uniformly_bounded():
    taus = list(np.linspace(-1.0, 1.5, 16)) + [-1e-3, -1e-4, 1e-4, 1e-3]
    assert len(taus) == 20
    reports = S.tau_sweep(ONES, SAFE_INIT, HALF, taus,
                          S.SimConfig(tf=10.0))
    worst = max(max(r.max_rel_output_dev, r.max_rel_state_map_dev)
                for r in reports)
    ok = worst < 1e-6
    _report(5, "20-value tau sweep incl. |tau| < 1e-3 stays below 1e-6",
            ok, f"worst {worst:.2e}")


def test_criterion_6_relation_residuals():
    traj = S.integrate(M.hiv_model(), ONES.as_dict(), [1.0, 1.0, 1.0], HALF,
                       S.SimConfig(tf=10.0))
    corrected = S.phi_residual_along(traj, ONES, HALF, "corrected")
    printed = S.phi_residual_along(traj, ONES, HALF, "miao")
    ok = corrected < 1e-6 and printed > 1e-2
    _report(6, "corrected relation residual < 1e-6; printed variant > 1e-2",
            ok, f"corrected {corrected:.1e}, printed {printed:.1e}")


def test_criterion_7_identity_at_tau_zero():
    skew = Params(lam=0.7, delta=0.3, rho=1.9, c=2.2, N=11.0)
    params_ok = (TauFamily(tau=0.0, params=ONES).params_prime == ONES
                 and TauFamily(tau=0.0, params=skew).params_prime == skew)
    report, _, _ = S.run_indistinguishability(ONES, [1.0, 1.0, 1.0], HALF,
                                              0.0, S.SimConfig(tf=10.0))
    ok = (params_ok and report.max_rel_output_dev < 1e-12
          and report.max_rel_state_map_dev < 1e-12)
    _report(7, "tau = 0 gives exact parameter identity and deviations "
               "< 1e-12", ok,
            f"out {report.max_rel_output_dev:.1e}, "
            f"map {report.max_rel_state_map_dev:.1e}")


def test_criterion_8_engine_property_suites():
    start = time.perf_counter()

    # derivative vs central finite differences, 200 random cases
    fd_ok = 0
    for e, s, point in fd_cases(200, seed=424242):
        exact = E.evaluate(E.differentiate(e, s), point, arithmetic="float64")
        fd = fd_derivative(e, s, point)
        if abs(fd - exact) <= 1e-6 * (1.0 + abs(exact)):
            fd_ok += 1
    fd_pass = fd_ok == 200

    # jet consistency, symbolic, all orders to 6
    hiv = M.hiv_model()
    jets_pass = True
    for i in (1, 2):
        jet = M.output_jet(hiv, i, 6)
        for k in range(6):
            derived = M.total_time_derivative(hiv, jet.entries[k], M.DYNAMICS)
            if not E.is_zero(E.sub(jet.entries[k + 1], derived)):
                jets_pass = False

    # parser round-trip over the 10-model corpus
    files = sorted(CORPUS.glob("*.ode"))
    corpus_pass = len(files) == 10
    for path in files:
        m = M.parse_model(path.read_text())
        again = M.parse_model(M.print_model(m))
        for a, b in zip(again.rhs, m.rhs):
            if not E.is_zero(E.sub(a, b)):
                corpus_pass = False
        for (na, ea), (nb, eb) in zip(again.outputs, m.outputs):
            if na != nb or not E.is_zero(E.sub(ea, eb)):
                corpus_pass = False

    elapsed = time.perf_counter() - start
    ok = fd_pass and jets_pass and corpus_pass and elapsed < 60.0
    _report(8, "engine suites: 200 FD cases, order-6 jet consistency, "
               "10-model parser round-trip", ok,
            f"fd {fd_ok}/200, jets {'ok' if jets_pass else 'BAD'}, "
            f"corpus {'ok' if corpus_pass else 'BAD'}, {elapsed:.1f}s")
