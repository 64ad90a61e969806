"""Evaluation modulo a product of primes and lazy modular reduction.

`Program.run_mod` takes a product of distinct primes, and its rendering
reduces only where a value's bound requires it. `ranktest.generic_rank`
has one evaluation route: a trial is one run modulo the product of its
primes, and a run that hits a denominator is redone under each prime
alone, where only that prime redraws. It must report, raise and count
exactly what evaluating under one prime at a time does
(`helpers.reference_generic_rank`), and keep nothing per trial. Its one
elimination per trial, modulo the product, must give each prime the rank
that eliminating under that prime alone gives
(`helpers.reference_rank_mod`), or say that it cannot, and the trial is
then redone under each prime alone, as after a denominator. `run_rank_test` keeps each HIV matrix
compiled across verdicts; its reports must be those of a cold build, for
every mode, variant, seed and prime set, in any order."""

import functools
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from odeident import cli
from odeident import expr as E
from odeident import program as P
from odeident import ranktest as R
from helpers import (XYZ, random_expression, reference_generic_rank,
                     reference_rank_mod)

PRIMES = R.DEFAULT_PRIMES
PRODUCT = math.prod(PRIMES)
x = E.Symbol("x")
X = E.sym(x)


@functools.lru_cache(maxsize=None)
def _constrained_program():
    jac = R.substitute_dynamics(
        R.parameter_jacobian(R.build_phi_system(R.build_phi())))
    flat = [e for row in jac for e in row]
    symbols = sorted(E.free_symbols(*flat), key=E.Symbol.sort_key)
    return E.compile_program(flat, symbols), symbols


def _crt(residues, primes):
    m = math.prod(primes)
    return sum(r * (m // p) * pow(m // p, -1, p)
               for r, p in zip(residues, primes)) % m


# ------------------------------------------------- composite moduli

def test_run_mod_modulo_a_product_of_primes_is_the_crt_lift():
    program, symbols = _constrained_program()
    rng = random.Random(17)
    for _ in range(20):
        point = [rng.randrange(PRODUCT) for _ in symbols]
        per_prime = [program.run_mod(point, p) for p in PRIMES]
        assert program.run_mod(point, PRODUCT) == [
            _crt(residues, PRIMES) for residues in zip(*per_prime)]


def test_run_mod_keeps_the_latest_moduli_bound_only(monkeypatch):
    # a program that lives for the process, as run_rank_test's do, run
    # under 20 distinct pairs of primes as a verdict runs them: the product
    # for the trials and the first prime for the structured point. Every
    # binding was once kept, about 4.6 KiB each on this program
    program, symbols = _constrained_program()
    primes = [p for p in range(2**61 + 1, 2**61 + 10**4, 2) if R.is_prime(p)]
    rng = random.Random(23)
    moduli = []
    for p, q in zip(primes[0:40:2], primes[1:40:2]):
        for modulus in (p * q, p):
            moduli.append(modulus)
            point = [rng.randrange(modulus) for _ in symbols]
            fresh = E.Program(program.instructions, program.constants,
                              program.outputs, program.input_symbols)
            assert program.run_mod(point, modulus) == fresh.run_mod(point,
                                                                    modulus)
    assert len(moduli) == 40
    assert [k for k in program._fns if type(k) is int] == moduli[-4:]
    # a warm verdict binds neither its product nor its first prime again
    binds = []
    bind = E.Program._bind
    monkeypatch.setattr(E.Program, "_bind", lambda self, domain, *args: (
        binds.append(domain), bind(self, domain, *args))[1])
    R.run_rank_test("constrained", trials=3, seed=7)
    binds.clear()
    R.run_rank_test("constrained", trials=3, seed=7)
    assert binds == []


def test_random_programs_modulo_the_product_agree_with_every_prime():
    """Mod the product a run raises DivisionByZero exactly when a run mod
    some prime does, and otherwise returns the CRT lift of the runs."""
    rng = random.Random(11)
    raised = 0
    for _ in range(200):
        c = rng.randrange(1, 1000)
        e = E.div(random_expression(rng, depth=3), E.sym(XYZ[0]) - c)
        program = E.compile_program([e], XYZ)
        # x - c vanishes under no prime, one, or all of them
        hit = rng.choice([(), (0,), (2,), (0, 1, 2)])
        x = _crt([c if i in hit else rng.randrange(p)
                  for i, p in enumerate(PRIMES)], PRIMES)
        point = [x, rng.randrange(PRODUCT), rng.randrange(PRODUCT)]
        per_prime = []
        for p in PRIMES:
            try:
                per_prime.append(program.run_mod(point, p))
            except E.DivisionByZero:
                per_prime.append(None)
        if None in per_prime:
            raised += 1
            with pytest.raises(E.DivisionByZero):
                program.run_mod(point, PRODUCT)
        else:
            assert program.run_mod(point, PRODUCT) == [
                _crt(residues, PRIMES) for residues in zip(*per_prime)]
    assert 100 < raised < 200


def test_shared_factor_denominators_raise_division_by_zero():
    p0, p1 = PRIMES[:2]
    m = p0 * p1
    assert not issubclass(E.DivisionByZero, ValueError)
    inverse = E.compile_program([E.div(E.ONE, X)], [x])
    # p0 is zero mod p0 alone, so it has no inverse mod p0*p1
    assert inverse.run_mod([p0], p1) == [pow(p0, -1, p1)]
    with pytest.raises(E.DivisionByZero):
        inverse.run_mod([p0], m)
    with pytest.raises(E.DivisionByZero):
        E.compile_program([X ** -2], [x]).run_mod([p1], m)
    with pytest.raises(E.DivisionByZero):
        E.evaluate(E.div(E.ONE, X), {x: p0}, m)
    # a Fraction input or constant whose denominator shares a factor
    with pytest.raises(E.DivisionByZero, match="no residue"):
        inverse.run_mod([Fraction(1, 3 * p1)], m)
    with pytest.raises(E.DivisionByZero, match="no residue"):
        E.compile_program([E.const(Fraction(1, p0)) * X], [x]).run_mod([1], m)


# -------------------------------------------------- lazy reduction

class _TooWide(Exception):
    pass


class _Bounded(int):
    """An int whose arithmetic raises _TooWide when a result is wider than
    `limit` bits, and records the widest result in `widest`."""

    limit = widest = 0

    @classmethod
    def of(cls, v):
        bits = v.bit_length()
        if bits > cls.limit:
            raise _TooWide(bits)
        cls.widest = max(cls.widest, bits)
        return cls(v)

    def __add__(self, other):
        return _Bounded.of(int(self) + int(other))

    def __radd__(self, other):
        return _Bounded.of(int(other) + int(self))

    def __sub__(self, other):
        return _Bounded.of(int(self) - int(other))

    def __rsub__(self, other):
        return _Bounded.of(int(other) - int(self))

    def __mul__(self, other):
        return _Bounded.of(int(self) * int(other))

    def __rmul__(self, other):
        return _Bounded.of(int(other) * int(self))

    def __mod__(self, other):
        return _Bounded.of(int(self) % int(other))

    def __neg__(self):
        return _Bounded.of(-int(self))

    def __pow__(self, k, modulus=None):
        return _Bounded.of(pow(int(self), k, modulus))


def _run_bounded(source, program, modulus, point, limit):
    """`source`, a modular rendering of `program`, run at `point` on
    _Bounded ints; returns the outputs and the widest value computed."""
    namespace = {"DivisionByZero": E.DivisionByZero}
    exec(source, namespace)
    _Bounded.limit, _Bounded.widest = limit, 0
    fn = namespace["_make"](modulus, [_Bounded(P._as_residue(c, modulus))
                                      for c in program.constants])
    outputs = fn(*[_Bounded(v % modulus) for v in point])
    return [int(v) for v in outputs], _Bounded.widest


def _lazy_limit(modulus):
    a, b = P._LAZY_BITS
    return a * modulus.bit_length() + b


@pytest.mark.parametrize("modulus", [PRIMES[0], PRODUCT],
                         ids=["63-bit prime", "189-bit product"])
def test_lazy_reduction_keeps_every_value_within_its_bound(modulus):
    program, symbols = _constrained_program()
    source = program.source(modular=True)
    width = modulus.bit_length()
    rng = random.Random(3)
    for _ in range(5):
        point = [rng.randrange(modulus) for _ in symbols]
        outputs, widest = _run_bounded(source, program, modulus, point,
                                       _lazy_limit(modulus))
        assert outputs == program.run_mod(point, modulus)
        assert all(0 <= v < modulus for v in outputs)
        # reduction is lazy: some value outgrows a product of two residues
        assert widest > 2 * width


def test_a_rendering_without_reduction_at_temporaries_breaks_the_bound():
    program, symbols = _constrained_program()
    source = program.source(modular=True)
    mutant = re.sub(r"^(\s+t\d+ = .*) % p$", r"\1", source, flags=re.M)
    assert mutant != source
    point = [random.Random(3).randrange(PRIMES[0]) for _ in symbols]
    with pytest.raises(_TooWide):
        _run_bounded(mutant, program, PRIMES[0], point,
                     _lazy_limit(PRIMES[0]))


# ------------------------------------- elimination modulo a product

# small primes, so that entries which are nonzero modulo their product but
# not units, the case that splits the elimination per prime, are common
SMALL = (101, 103, 107)
SMALL_PRODUCT = math.prod(SMALL)


@pytest.fixture
def eliminations(monkeypatch):
    """The (modulus, rank) of each `ranktest._rank_mod` call, in call
    order."""
    calls = []
    rank_mod = R._rank_mod

    def spy(rows, m):
        calls.append((m, rank_mod(rows, m)))
        return calls[-1][1]

    monkeypatch.setattr(R, "_rank_mod", spy)
    return calls


def _lifted_matrix(rng):
    """A matrix of up to 5x5 CRT lifts of residues under `SMALL`, mostly
    0, 1 and 2, with one row that vanishes or copies another row's
    multiple under one prime only."""
    n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
    residues = {p: [[rng.choice((0, 1, 2, rng.randrange(p)))
                     for _ in range(n_cols)] for _ in range(n_rows)]
                for p in SMALL}
    p, r, s = rng.choice(SMALL), rng.randrange(n_rows), rng.randrange(n_rows)
    if r == s:
        residues[p][r] = [0] * n_cols
    else:
        k = rng.randrange(p)
        residues[p][r] = [k * v % p for v in residues[p][s]]
    return [[_crt([residues[p][i][j] for p in SMALL], SMALL)
             for j in range(n_cols)] for i in range(n_rows)]


def _trial(rows):
    """The ranks under `SMALL` of one `_ranks_at` trial on the constant
    matrix `rows`, compiled as a program without inputs."""
    program = E.compile_program([E.const(v) for row in rows for v in row], [])
    return R._ranks_at(program, len(rows[0]), 0, 0, SMALL, {})


def test_elimination_modulo_a_product_gives_every_prime_its_own_rank(
        eliminations):
    rng = random.Random(11)
    split = differ = 0
    for _ in range(400):
        rows = _lifted_matrix(rng)
        want = [reference_rank_mod(rows, p) for p in SMALL]
        eliminations.clear()
        assert _trial(rows) == want, rows
        (m, rank), *per_prime = eliminations
        assert m == SMALL_PRODUCT
        if rank is None:
            # ranked again under each prime alone, where every nonzero
            # entry is a unit: no prime gives None
            split += 1
            assert per_prime == list(zip(SMALL, want))
        else:
            assert per_prime == [] and want == [rank] * len(SMALL)
        differ += len(set(want)) > 1
        # the lifted entries themselves, unreduced, under each prime
        for p, rank in zip(SMALL, want):
            assert R._rank_mod(rows, p) == rank
    # both routes ran, and the ranks often differ between the primes
    assert 40 < split < 360 and differ > 40, (split, differ)


def test_a_later_unit_pivots_before_an_earlier_non_unit(eliminations):
    # column 0 reads 0, then 101 (zero mod 101 only), then the unit 1
    rows = [[0, 5], [101, 1], [1, 0]]
    assert R._rank_mod(rows, SMALL_PRODUCT) == 2
    assert eliminations == [(SMALL_PRODUCT, 2)]


def test_a_non_unit_made_by_a_row_update_splits_the_elimination(
        eliminations):
    # every entry is a unit, but after the first pivot column 1 holds
    # 105 - 2 = 103: no one rank modulo the product, so the trial is
    # ranked again under each prime alone
    rows = [[1, 2], [1, 105]]
    assert R._rank_mod(rows, SMALL_PRODUCT) is None
    assert rows == [[1, 2], [1, 105]]
    eliminations.clear()
    assert _trial(rows) == [2, 1, 2]
    assert eliminations == [(SMALL_PRODUCT, None), (101, 2), (103, 1),
                            (107, 2)]
    assert rows == [[1, 2], [1, 105]]


# ------------------------------------ generic rank against serial loop

def _report(rank, *args, **kwargs):
    d = rank(*args, **kwargs).to_dict()
    d.pop("elapsed_ms")
    return d


@pytest.fixture
def run_mod_moduli(monkeypatch):
    """The moduli `Program.run_mod` is called with, in call order."""
    moduli = []
    run_mod = E.Program.run_mod

    def spy(self, values, p):
        moduli.append(p)
        return run_mod(self, values, p)

    monkeypatch.setattr(E.Program, "run_mod", spy)
    return moduli


@pytest.mark.parametrize("hit", [0, 3])
def test_a_denominator_vanishing_under_one_prime_is_redrawn_per_prime(
        run_mod_moduli, hit):
    seed, trials = 5, 6
    p0, p1, p2 = PRIMES
    d = R._draw_point(seed, p1, hit, 0, 1)[0]
    matrix = [[E.div(E.ONE, X - E.const(d)), X], [E.ONE, X + 1]]
    got = _report(R.generic_rank, matrix, trials, seed)
    # one evaluation per trial mod the product; trial `hit` met x = d under
    # p1, so it went prime by prime there, and p1 alone drew a second point
    assert run_mod_moduli == ([PRODUCT] * hit + [PRODUCT, p0, p1, p1, p2]
                              + [PRODUCT] * (trials - hit - 1))
    assert got == _report(reference_generic_rank, matrix, trials, seed)
    assert got["observed_ranks"] == {"2": 3 * trials}


@pytest.mark.parametrize("mode, moduli", [
    ("constrained", [PRODUCT, PRODUCT, PRIMES[0]]),
    ("naive", [PRODUCT, PRODUCT])])
def test_a_rank_run_evaluates_once_per_trial_and_structured_point(
        run_mod_moduli, mode, moduli):
    R.run_rank_test(mode, trials=2, seed=7)
    assert run_mod_moduli == moduli


def test_a_lifted_failure_under_one_prime_leaves_other_primes_draws_alone():
    seed, trials = 5, 6
    p0, p1 = PRIMES[:2]
    # trial 3 hits a denominator under p1 only; p0's point for a second
    # attempt at trial 3, which p0 must never draw, is a rank drop
    d = R._draw_point(seed, p1, 3, 0, 1)[0]
    e = R._draw_point(seed, p0, 3, 1, 1)[0]
    matrix = [[E.div(E.ONE, X - E.const(d)), E.ZERO],
              [E.ZERO, X - E.const(e)]]
    got = _report(R.generic_rank, matrix, trials, seed)
    assert got == _report(reference_generic_rank, matrix, trials, seed)
    assert got["observed_ranks"] == {"2": 3 * trials}


def test_a_rank_drop_at_one_prime_and_trial_is_counted_once(run_mod_moduli):
    seed, trials = 5, 6
    p0, p1, p2 = PRIMES
    d = R._draw_point(seed, p2, 3, 0, 1)[0]
    matrix = [[X - E.const(d), E.ZERO], [E.ZERO, E.ONE]]
    got = _report(R.generic_rank, matrix, trials, seed)
    # trial 3's pivot x - d is zero under p2 only: the trial is evaluated
    # again under each prime alone, at the points the lifted run combined
    assert run_mod_moduli == ([PRODUCT] * 4 + [p0, p1, p2]
                              + [PRODUCT] * (trials - 4))
    assert got == _report(reference_generic_rank, matrix, trials, seed)
    assert got["observed_ranks"] == {"1": 1, "2": 3 * trials - 1}


def test_rank_memory_does_not_grow_with_trials():
    matrix = [[X + 1]]

    def peak(trials):
        tracemalloc.start()
        try:
            R.generic_rank(matrix, trials, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fill caches that outlive a run
    # a list kept per trial would add about 60 KiB between the two
    assert abs(peak(800) - peak(100)) < 4096


ERROR_CASES = [
    ([[E.const(PRIMES[0])]], None, R.PrimeDisagreement),
    ([[E.div(E.ONE, X - X)]], None, R.ExhaustedRetries),
    # every point is on the denominator under the second prime only
    ([[E.div(E.ONE, E.const(PRIMES[1]) * X)]], None, R.ExhaustedRetries),
    ([[E.div(E.ONE, X)]], {x: 0}, R.ExhaustedRetries),
]
ERROR_IDS = ["disagreement", "everywhere singular", "singular under one prime",
             "structured point"]


def test_a_rank_run_frees_its_program_on_return(monkeypatch):
    """No reference cycle keeps a run's program alive until the next
    garbage collection, whether the run returns or raises."""
    programs = []
    compile_program = E.compile_program

    def keep_ref(*args):
        program = compile_program(*args)
        programs.append(weakref.ref(program))
        return program

    monkeypatch.setattr(E, "compile_program", keep_ref)
    gc.disable()
    try:
        R.generic_rank([[X + 1]], 3, 1, structured_point={x: 2})
        assert programs[-1]() is None
        for matrix, structured, error in ERROR_CASES:
            with pytest.raises(error):
                R.generic_rank(matrix, 3, 1, structured_point=structured)
            assert programs[-1]() is None, error.__name__
    finally:
        gc.enable()


@pytest.mark.parametrize("matrix, structured, error", ERROR_CASES,
                         ids=ERROR_IDS)
def test_errors_are_those_of_the_serial_loop(matrix, structured, error):
    with pytest.raises(error) as want:
        reference_generic_rank(matrix, 3, 1, structured_point=structured)
    with pytest.raises(error) as got:
        R.generic_rank(matrix, 3, 1, structured_point=structured)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------ golden reports

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("mode, variant", [
    ("naive", R.CORRECTED), ("constrained", R.CORRECTED),
    ("constrained", R.MIAO_AS_PRINTED)])
def test_rank_reports_match_the_stored_seed_7_reports(capsys, mode, variant):
    """The stored reports are `rank --trials 100 --seed 7` of the serial
    loop over primes."""
    assert cli.main(["rank", "--mode", mode, "--variant", variant,
                     "--trials", "100", "--seed", "7"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"rank_{mode}_{variant}_seed7.json")
                      .read_text())
    got.pop("elapsed_ms")
    want.pop("elapsed_ms")
    assert got == want


# ------------------------------------------- verdicts on a warm program

# two primes between 2^60 and 2^61, so one binding of a warm program per
# modulus serves both prime sets
OTHER_PRIMES = "1152921504606847009,1152921504606847067"
PAIRS = [("naive", R.CORRECTED), ("naive", R.MIAO_AS_PRINTED),
         ("constrained", R.CORRECTED), ("constrained", R.MIAO_AS_PRINTED)]
# each prime set and seed in turn over the four (mode, variant) pairs, so
# every verdict after the first four runs on a program another seed or
# prime set compiled and bound
INTERLEAVED = [(mode, variant, seed, primes)
               for seed in (7, 1, 42) for primes in (None, OTHER_PRIMES)
               for mode, variant in PAIRS]

_COLD_REPORTS = """
import contextlib, io, json, sys
from odeident import cli, ranktest
reports = []
for argv in json.loads(sys.argv[1]):
    ranktest._hiv_rank_program.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    reports.append([code, out.getvalue()])
print(json.dumps(reports))
"""


def _rank_argv(mode, variant, seed, primes):
    # seed 7 under the default primes is the stored reports' run
    trials = 100 if (seed, primes) == (7, None) else 10
    argv = ["rank", "--mode", mode, "--variant", variant,
            "--trials", str(trials), "--seed", str(seed)]
    return argv + (["--primes", primes] if primes else [])


def _masked(out):
    report = json.loads(out)
    report.pop("elapsed_ms")
    return report


def test_interleaved_warm_verdicts_match_cold_ones(capsys):
    """Reports of one process that interleaves the (mode, variant) pairs,
    seeds and prime sets equal the stored seed-7 reports, and otherwise
    those of a fresh interpreter that builds every verdict's matrix cold:
    a cache key without the variant, or a binding of one prime set's
    modulus used under another, fails here."""
    want = {(mode, variant, 7, None): (0, _masked(
        (GOLDEN / f"rank_{mode}_{variant}_seed7.json").read_text()))
        for mode, variant in PAIRS if mode == "constrained"
        or variant == R.CORRECTED}
    fresh = [run for run in INTERLEAVED if run not in want]
    done = subprocess.run(
        [sys.executable, "-c", _COLD_REPORTS,
         json.dumps([_rank_argv(*run) for run in fresh])],
        env={**os.environ, "PYTHONPATH": str(Path(R.__file__).parents[1])},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    want.update((run, (code, _masked(out)))
                for run, (code, out) in zip(fresh, json.loads(done.stdout)))

    R._hiv_rank_program.cache_clear()
    for run in INTERLEAVED:
        code = cli.main(_rank_argv(*run))
        assert (code, _masked(capsys.readouterr().out)) == want[run], run
    assert R._hiv_rank_program.cache_info().misses == len(PAIRS)


@pytest.mark.parametrize("argv", [
    ["--primes", "101,103"], ["--primes", "abc"], ["--trials", "0"],
    ["--variant", "bogus"], ["--mode", "bogus"],
], ids=["small primes", "primes not integers", "no trials",
        "unknown variant", "unknown mode"])
def test_usage_errors_after_a_warm_verdict_exit_2(capsys, argv):
    base = ["rank", "--seed", "7", "--trials", "2"]
    assert cli.main(base) == 0
    capsys.readouterr()
    assert cli.main(base + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") >= 1


@pytest.mark.parametrize("kwargs, message", [
    ({"variant": "bogus"}, "unknown variant 'bogus'"),
    ({"variant": ["miao"]}, r"unknown variant \['miao'\]"),
    ({"mode": "bogus"}, "unknown mode 'bogus'"),
])
def test_the_pipeline_checks_mode_and_variant_before_the_cache(kwargs,
                                                               message):
    R.run_rank_test(trials=1, seed=7)
    with pytest.raises(ValueError, match=message):
        R.run_rank_test(trials=1, seed=7, **kwargs)
