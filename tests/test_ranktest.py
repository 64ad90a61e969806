"""Relation construction, parameter Jacobian, dynamics substitution, and
the randomized generic-rank machinery."""

import random
from fractions import Fraction

import pytest

from odeident import expr as E
from odeident import model as M
from odeident import ranktest as R
from helpers import fd_derivative

hiv = M.hiv_model()
lam, rho, delta, N, c = hiv.const_params


def _y(i, k=0):
    return M.output_symbol(hiv, i, k)


def _sy(i, k=0):
    return E.sym(_y(i, k))


# ---------------------------------------------------------------- relation

def test_variant_difference_is_the_two_corrections():
    corr = R.build_phi(R.CORRECTED).expression
    printed = R.build_phi(R.MIAO_AS_PRINTED).expression
    y1, dy1 = _sy(1), _sy(1, 1)
    y2, dy2 = _sy(2), _sy(2, 1)
    lam_, delta_, rho_, c_ = (E.sym(s) for s in (lam, delta, rho, c))
    want = ((rho_ + delta_) * dy1 * y2 * dy2
            - (rho_ + delta_) * y1 * y2 * dy2
            + (lam_ - 1) * c_ * y2 * dy2)
    assert E.is_zero(E.sub(E.sub(corr, printed), want))


def test_corrected_has_the_feedback_term():
    rc = E.normalize(R.build_phi(R.CORRECTED).expression)
    coeff = rc.coefficient({N: 1, delta: 1, _y(1): 1, _y(1, 2): 1, _y(2): 1})
    assert coeff == Fraction(-1)


def test_printed_variant_matches_its_two_terms():
    rc = E.normalize(R.build_phi(R.MIAO_AS_PRINTED).expression)
    # sixth term coefficient bundle on y1*y2*y2'
    assert rc.coefficient({delta: 1, rho: 1, _y(1): 1, _y(2): 1, _y(2, 1): 1}) == 1
    assert rc.coefficient({rho: 1, _y(1): 1, _y(2): 1, _y(2, 1): 1}) == 1
    # seventh term c*y2*y2' carries no lambda
    assert rc.coefficient({c: 1, _y(2): 1, _y(2, 1): 1}) == 1
    assert rc.coefficient({lam: 1, c: 1, _y(2): 1, _y(2, 1): 1}) == 0


def test_relation_vanishes_at_origin():
    phi = R.build_phi(R.CORRECTED).expression
    point = {s: 0 for s in E.free_symbols(phi)}
    assert E.evaluate(phi, point) == 0


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        R.build_phi("bogus")


def test_corrected_vanishes_along_dynamics_and_printed_does_not():
    ok, residual = R.phi_vanishes_on_dynamics(R.build_phi(R.CORRECTED))
    assert ok and residual.is_zero
    bad, residual = R.phi_vanishes_on_dynamics(R.build_phi(R.MIAO_AS_PRINTED))
    assert not bad and not residual.is_zero


# ------------------------------------------------------------------ system

def test_system_has_five_entries():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    assert len(system.entries) == 5


def test_system_orders_climb_to_six():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    for k, entry in enumerate(system.entries):
        top = max(s.order for s in E.free_symbols(entry)
                  if s.kind == E.OUTPUT_DERIV)
        assert top == k + 2
    assert top == 6


def test_system_entries_are_successive_derivatives():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    derived = M.total_time_derivative(hiv, system.entries[0],
                                      M.OUTPUT_SYMBOLS)
    assert E.is_zero(E.sub(system.entries[1], derived))


# ---------------------------------------------------------------- jacobian

def test_jacobian_first_entry_closed_form():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    jac = R.parameter_jacobian(system)
    y1, y2, dy2, ddy2 = _sy(1), _sy(2), _sy(2, 1), _sy(2, 2)
    N_, delta_, c_ = (E.sym(s) for s in (N, delta, c))
    want = y2 * ddy2 + c_ * y2 * dy2 + N_ * delta_ ** 2 * y1 * y2
    assert E.is_zero(E.sub(jac[0][0], want))


def test_jacobian_first_row_vs_finite_differences():
    phi = R.build_phi(R.CORRECTED).expression
    dlam = E.differentiate(phi, lam)
    rng = random.Random(5)
    syms = sorted(E.free_symbols(phi), key=E.Symbol.sort_key)
    for _ in range(5):
        point = {s: rng.uniform(0.5, 1.5) for s in syms}
        exact = E.evaluate(dlam, point, arithmetic="float64")
        fd = fd_derivative(phi, lam, point)
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_jacobian_c_column_has_the_quadratic_term():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    jac = R.parameter_jacobian(system)
    rc = E.normalize(jac[0][3])  # column order (lambda, delta, rho, c, N)
    assert rc.coefficient({rho: 1, _y(1, 1): 1, _y(2): 2}) == 1


def test_jacobian_of_zero_system_is_zero():
    zero_system = R.PhiSystem(variant="corrected", entries=(E.ZERO,) * 5)
    jac = R.parameter_jacobian(zero_system)
    assert all(e == E.ZERO for row in jac for e in row)


# ---------------------------------------------------------- substitution

def test_substitution_removes_output_symbols():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    jac = R.parameter_jacobian(system)
    constrained = R.substitute_dynamics(jac)
    syms = set()
    for row in constrained:
        for e in row:
            syms |= E.free_symbols(e)
    assert all(s.kind != E.OUTPUT_DERIV for s in syms)
    assert len(syms) == 14


def test_naive_matrix_has_nineteen_symbols():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    jac = R.parameter_jacobian(system)
    syms = set()
    for row in jac:
        for e in row:
            syms |= E.free_symbols(e)
    assert len(syms) == 19


def test_substituting_the_virus_derivative_alone():
    got = R.substitute_dynamics([[_sy(2, 1)]])[0][0]
    want = E.parse_expression("N*delta*T_I - c*V", hiv.symbol_table())
    assert E.is_zero(E.sub(got, want))


def test_substitution_leaves_other_symbols_intact():
    phi = R.build_phi(R.CORRECTED).expression
    target = _y(2, 1)
    image = hiv.rhs_of(hiv.states[2])
    substituted = E.substitute(phi, {target: image})
    expected_syms = (E.free_symbols(phi) - {target}) | E.free_symbols(image)
    assert E.free_symbols(substituted) == expected_syms
    # numeric spot check at one random point
    rng = random.Random(11)
    point = {s: Fraction(rng.randint(1, 9), rng.randint(1, 5))
             for s in expected_syms | {target}}
    point[target] = E.evaluate(image, point)
    assert E.evaluate(substituted, point) == E.evaluate(phi, point)


# ----------------------------------------------------------- generic rank

def _const_matrix(rows):
    return [[E.const(v) for v in row] for row in rows]


def test_rank_of_identity_matrix():
    eye = _const_matrix([[1 if i == j else 0 for j in range(5)]
                         for i in range(5)])
    report = R.generic_rank(eye, [], trials=1, seed=1)
    assert report.generic_rank == 5


def test_rank_of_deficient_matrix():
    m = _const_matrix([[1, 2], [2, 4]])
    report = R.generic_rank(m, [], trials=1, seed=1)
    assert report.generic_rank == 1


def test_rank_report_is_deterministic():
    x = E.Symbol("x")
    m = [[E.sym(x), E.ONE], [E.ONE, E.sym(x)]]
    a = R.generic_rank(m, [x], trials=20, seed=3)
    b = R.generic_rank(m, [x], trials=20, seed=3)
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed_ms")
    db.pop("elapsed_ms")
    assert da == db


def test_rank_scale_invariance():
    system = R.build_phi_system(R.build_phi(R.CORRECTED))
    jac = R.parameter_jacobian(system)
    syms = sorted({s for row in jac for e in row for s in E.free_symbols(e)},
                  key=E.Symbol.sort_key)
    base = R.generic_rank(jac, syms, trials=5, seed=9)
    scaled = [list(row) for row in jac]
    rng = random.Random(1)
    for i in range(len(scaled)):
        factor = E.const(rng.randint(2, 10**6))
        scaled[i] = [E.mul(factor, e) for e in scaled[i]]
    again = R.generic_rank(scaled, syms, trials=5, seed=9)
    assert base.observed_ranks == again.observed_ranks


def test_prime_disagreement_detected():
    # a 1x1 matrix holding the first prime: rank 0 mod p0, rank 1 mod p1
    m = _const_matrix([[R.DEFAULT_PRIMES[0]]])
    with pytest.raises(R.PrimeDisagreement):
        R.generic_rank(m, [], trials=1, seed=1)


def test_exhausted_retries_on_identically_singular_entry():
    x = E.Symbol("x")
    bad = [[E.div(E.ONE, E.sub(E.sym(x), E.sym(x)))]]
    with pytest.raises(R.ExhaustedRetries):
        R.generic_rank(bad, [x], trials=1, seed=1)


def test_exhausted_retries_at_the_structured_point():
    # every random point is valid, but pinning x = 0 puts each structured
    # point on the denominator
    x = E.Symbol("x")
    matrix = [[E.div(E.ONE, E.sym(x))]]
    assert R.generic_rank(matrix, [x], trials=2, seed=1).generic_rank == 1
    with pytest.raises(R.ExhaustedRetries):
        R.generic_rank(matrix, [x], trials=2, seed=1,
                       structured_point={x: 0})


def test_generic_rank_validation():
    eye = _const_matrix([[1]])
    with pytest.raises(ValueError):
        R.generic_rank(eye, [], trials=0, seed=1)
    with pytest.raises(ValueError):
        R.generic_rank(eye, [], trials=1, seed=1,
                       primes=(R.DEFAULT_PRIMES[0],))
    with pytest.raises(ValueError):
        R.generic_rank(eye, [], trials=1, seed=1,
                       primes=(R.DEFAULT_PRIMES[0], R.DEFAULT_PRIMES[0] + 2))
    with pytest.raises(ValueError):
        R.generic_rank(eye, [], trials=1, seed=1, primes=(101, 103))
    # a prime, but beyond the range where is_prime is proven
    with pytest.raises(ValueError, match="318665857834031151167461"):
        R.generic_rank(eye, [], trials=1, seed=1,
                       primes=(2**89 - 1, R.DEFAULT_PRIMES[0]))
    assert R.generic_rank(eye, [], trials=1, seed=1,
                          primes=R.DEFAULT_PRIMES).generic_rank == 1


def test_is_prime():
    assert R.is_prime(2) and R.is_prime(2**61 - 1)
    assert all(R.is_prime(p) for p in R.DEFAULT_PRIMES)
    assert not R.is_prime(1)
    assert not R.is_prime(2**62 + 1)


# -------------------------------------------------------------- pipelines

def test_naive_pipeline_rank_five():
    report = R.run_rank_test(mode="naive", trials=20, seed=7)
    assert report.generic_rank == 5
    assert report.structured_point_rank is None


def test_constrained_pipeline_rank_four_never_five():
    report = R.run_rank_test(mode="constrained", trials=20, seed=7)
    assert report.generic_rank == 4
    assert all(r <= 4 for r in report.observed_ranks)
    assert report.structured_point_rank is not None
    assert report.structured_point_rank <= 4


def test_single_trial_rank_bound():
    for seed in (0, 1, 2):
        report = R.run_rank_test(mode="constrained", trials=1, seed=seed)
        assert set(report.observed_ranks) <= {0, 1, 2, 3, 4}


def test_mode_ordering():
    naive = R.run_rank_test(mode="naive", trials=5, seed=13)
    constrained = R.run_rank_test(mode="constrained", trials=5, seed=13)
    assert constrained.generic_rank <= naive.generic_rank


def test_printed_variant_still_rank_five_naive():
    report = R.run_rank_test(mode="naive", variant=R.MIAO_AS_PRINTED,
                             trials=5, seed=7)
    assert report.generic_rank == 5


def test_report_json_schema():
    report = R.run_rank_test(mode="constrained", trials=2, seed=1)
    d = report.to_dict()
    assert set(d) == {"mode", "variant", "trials", "primes",
                      "observed_ranks", "generic_rank", "seed",
                      "elapsed_ms", "structured_point_rank"}
    assert all(isinstance(p, str) for p in d["primes"])
    assert all(isinstance(k, str) for k in d["observed_ranks"])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        R.run_rank_test(mode="bogus", trials=1, seed=1)
