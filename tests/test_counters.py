"""Machine-independent counters of the rank-test and simulation pipelines.

The bounds are the sizes the hash-consed engine and the straight-line
emitter produce; a change that grows the DAG, in nodes or in edges (the
total arity over its unique nodes, which the time follows), the compiled
program, its generated source or the reductions in its modular
rendering fails here before it shows up as wall time, and so does one
that traverses the DAG more often to build the jets or the Jacobian,
or that traverses or differentiates a node of a derivative chain again
at a later order, or eliminates more than once per rank trial, and so
does a second rank verdict in a process that builds, compiles or emits its matrix again
rather than reusing the first verdict's program, or whose cache of
programs keeps an expression alive. The RHS evaluation counts
of two default-config runs and of the stacked criterion-5 tau sweep are
pinned exactly, so a change to the step controller that alters a single
step fails here too; so is the number of the sweep's vector-field
evaluations that run on numpy columns, and the products of its emitted
step attempt. A flat run evaluates its field in line in the step
attempt, calls it from Python once per kept state, and compiles that
attempt once per field source text. Each default-grid run fills its
401 grid points one per step, from a scalar theta, and a run on the
largest grid fills at most once per accepted step. Every run, plain,
single-twin or sweep, reads eta inside its compiled vector field, never
through the signal; a passing tau run never calls `eta_prime_value`, a
tau run, single or swept, checks eta''s pole once per kept state, and a
plain run checks finiteness through numpy at most twice. The programs
a simulation compiles are bounded per run, not per output or per twin,
and a run's compiled code leaves nothing for the cyclic garbage
collector. Cold start is counted in modules and lines: a fresh `import
odeident` loads a pinned set of package modules, of bounded source
length, and not numpy, the symbolic subcommands run with numpy blocked,
`rank` and `parse` never load the transformation or exact algebra, and
`parse` never loads the evaluator.
"""

import gc
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import odeident
from odeident import cli
from odeident import expr as E
from odeident import model as M
from odeident import program as P
from odeident import ranktest as R
from odeident import sim as S
from odeident import transform as T

hiv = M.hiv_model()
ONES = T.Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)


def _nodes(exprs) -> int:
    return len(E.topo_order(list(exprs)))


def _edges(exprs) -> int:
    return sum(len(node.args) for node in E.topo_order(list(exprs)))


def _jacobian(mode: str):
    matrix = R.parameter_jacobian(R.build_phi_system(R.build_phi()))
    if mode == "constrained":
        matrix = R.substitute_dynamics(matrix)
    return [e for row in matrix for e in row]


def _program(flat):
    symbols = sorted(set().union(*map(E.free_symbols, flat)),
                     key=E.Symbol.sort_key)
    return E.compile_program(flat, symbols)


def _jet_args(order: int):
    tv = hiv.tv_params[0]
    chain = [tv] + [tv.derivative(k) for k in range(1, order)]
    return sorted(set(hiv.states) | set(hiv.const_params) | set(chain),
                  key=E.Symbol.sort_key)


@pytest.mark.parametrize("mode, nodes, instructions, muls", [
    ("naive", 1047, 1023, 704),
    ("constrained", 1729, 1710, 1228),
])
def test_jacobian_and_program_sizes(mode, nodes, instructions, muls):
    flat = _jacobian(mode)
    program = _program(flat)
    assert _nodes(flat) <= nodes
    assert len(program.instructions) <= instructions
    assert sum(1 for ins in program.instructions if ins[0] == E._OP_MUL) <= muls


@pytest.mark.parametrize("output_index, nodes", [(1, 1881), (2, 1002)])
def test_order_eight_jet_sizes(output_index, nodes):
    assert _nodes([M.output_jet(hiv, output_index, 8).entries[8]]) <= nodes


# the time to build, differentiate and compile a DAG follows its edges
# more closely than its nodes: the Jacobians' 1,047 and 1,729 nodes have
# 3,536 and 6,060 edges, and the widest node has 19 children (38 in the
# y1 jet)
@pytest.mark.parametrize("dag, edges", [
    (lambda: [M.output_jet(hiv, 1, 8).entries[8]], 8556),
    (lambda: [M.output_jet(hiv, 2, 8).entries[8]], 4117),
    (lambda: _jacobian("naive"), 3536),
    (lambda: _jacobian("constrained"), 6060),
], ids=["y1 order-8 jet", "y2 order-8 jet", "naive Jacobian",
        "constrained Jacobian"])
def test_dag_edges(dag, edges):
    assert _edges(dag()) <= edges


def _spy(monkeypatch, module, name) -> list:
    """Replace `module.name` by a wrapper that records each call; returns
    the record."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _traversals(monkeypatch, run) -> int:
    """Calls of the engine's one DAG traversal, `expr.topo_order`, by
    `run`; `normalize` and `compile_program` call it through `expr`."""
    calls = _spy(monkeypatch, E, "topo_order")
    run()
    return len(calls)


# one traversal per total derivative, shared by its free symbols and all
# its partials (8 per jet), of the nodes that the chain's earlier orders
# did not traverse; the relation system takes 4 total derivatives and the
# Jacobian one traversal for all 25 entries. A second traversal for the
# free symbols made these 32 and 9, one per symbol 109 and 65
@pytest.mark.parametrize("run, bound", [
    (lambda: [M.output_jet(hiv, i, 8) for i in (1, 2)], 16),
    (lambda: R.parameter_jacobian(R.build_phi_system(R.build_phi())), 5),
], ids=["order-8 jets", "relation system and Jacobian"])
def test_dag_traversals(monkeypatch, run, bound):
    assert _traversals(monkeypatch, run) <= bound


def _chain_work(monkeypatch, run) -> tuple[int, int]:
    """(nodes traversed, (node, symbol) partials taken) by the
    `expr.PartialsMemo` that `run` makes, a derivative chain's among them."""
    made = []

    class Counting(E.PartialsMemo):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(E, "PartialsMemo", Counting)
    run()
    return (sum(len(d.nodes) for d in made),
            sum(len(memo) for d in made for memo in d.memos.values()))


# a derivative chain traverses each node of its entries once and
# differentiates it once per symbol it mentions; rebuilding every order
# from scratch traversed 2,742 and 565 nodes and took 8,536 and 1,329
# partials
@pytest.mark.parametrize("run, nodes, partials", [
    (lambda: [M.output_jet(hiv, i, 8) for i in (1, 2)], 1483, 5276),
    (lambda: R.build_phi_system(R.build_phi()), 308, 901),
], ids=["order-8 jets", "relation system"])
def test_chain_nodes_traversed_and_partials_taken(monkeypatch, run, nodes,
                                                  partials):
    assert _chain_work(monkeypatch, run) == (nodes, partials)


# the modular rendering reduces lazily, where a bound requires it and at
# temporaries and outputs; reducing after every operation made these 39368
# and 75395, and binding small integral constants as residues 35550 and
# 64365
@pytest.mark.parametrize("mode, chars", [("naive", 35320),
                                         ("constrained", 64059)])
def test_jacobian_mod_p_source_size(mode, chars):
    assert len(_program(_jacobian(mode)).source(modular=True)) <= chars


# every constant of the rank matrices is a small int, which the modular
# rendering multiplies as itself, so no constant operand is full-width;
# bound as residues, their full width forced 493 and 884 reductions
@pytest.mark.parametrize("mode, reductions", [("naive", 448),
                                              ("constrained", 820)])
def test_jacobian_mod_p_reductions(mode, reductions):
    program = _program(_jacobian(mode))
    assert program.source(modular=True).count("% p") <= reductions
    assert [c for c in program.constants
            if P._constant_bound(c) == P._REDUCED] == []


@pytest.mark.parametrize("output_index, chars", [(1, 94168), (2, 36466)])
def test_order_eight_jet_float_source_size(output_index, chars):
    fn = E.compile_float_fn(M.output_jet(hiv, output_index, 8).entries[8],
                            _jet_args(8))
    assert len(fn.__doc__) <= chars


# one elimination per trial modulo the product of the three primes, and
# one for the structured point under the first; splitting every trial
# into an elimination per prime made these 300 and 301
@pytest.mark.parametrize("mode, eliminations", [("naive", 100),
                                                ("constrained", 101)])
def test_rank_eliminations_per_run(monkeypatch, capsys, mode, eliminations):
    calls = _spy(monkeypatch, R, "_rank_mod")
    assert cli.main(["rank", "--mode", mode, "--trials", "100",
                     "--seed", "7"]) == 0
    assert len(calls) == eliminations


# a process builds and compiles each (mode, variant) matrix on its first
# verdict only: (DAG traversals, compiles, emits of the source,
# eliminations) of a cold verdict, then of the same verdict again, which
# still evaluates and eliminates every trial
@pytest.mark.parametrize("mode, variant, traversals, eliminations", [
    ("naive", R.CORRECTED, 7, 100),
    ("constrained", R.CORRECTED, 21, 101),
    ("constrained", R.MIAO_AS_PRINTED, 21, 101),
])
def test_a_warm_rank_verdict_builds_and_compiles_nothing(
        monkeypatch, capsys, mode, variant, traversals, eliminations):
    spies = [_spy(monkeypatch, E, "topo_order"),
             _spy(monkeypatch, E, "compile_program"),
             _spy(monkeypatch, P, "_emit"),
             _spy(monkeypatch, R, "_rank_mod")]
    R._hiv_rank_program.cache_clear()
    counts = []
    for _ in range(2):
        assert cli.main(["rank", "--mode", mode, "--variant", variant,
                         "--trials", "100", "--seed", "7"]) == 0
        counts.append([len(calls) for calls in spies])
        for calls in spies:
            calls.clear()
    assert counts == [[traversals, 1, 1, eliminations],
                      [0, 0, 0, eliminations]]


class _CountingEta(S.EtaSignal):
    """Counts calls on a scalar t. A run's vector field computes eta in
    line, so only an error path calls the signal on a scalar."""

    calls = 0

    def __call__(self, t):
        if not isinstance(t, np.ndarray):
            _CountingEta.calls += 1
        return super().__call__(t)


def _scalar_eta_calls(run) -> int:
    _CountingEta.calls = 0
    run(_CountingEta.from_text("1/2"))
    return _CountingEta.calls


def _field_calls(monkeypatch, run) -> list[bool]:
    """One entry per Python-level call of a compiled vector field, the
    program `sim` compiles that takes t: True where the call receives a
    numpy array. A stacked run calls it once per RHS evaluation; a flat
    run only for k0 and each accepted step's end, as its step attempt
    runs the field in line."""
    calls = []
    compile_program = S.compile_program

    def spy(exprs, inputs):
        program = compile_program(exprs, inputs)
        if S.TIME_SYMBOL in inputs:
            fn = program.float_fn()

            def counting(*args):
                calls.append(any(isinstance(a, np.ndarray) for a in args))
                return fn(*args)

            program.float_fn = lambda: counting
        return program

    monkeypatch.setattr(S, "compile_program", spy)
    run(S.EtaSignal.from_text("1/2"))
    return calls


def _co_integrated_run(eta):
    return S.run_indistinguishability(ONES, (1.0, 0.2, 1.0), eta, 0.7)


def _plain_run(eta):
    return S.integrate(hiv, ONES.as_dict(), [1.0, 1.0, 1.0], eta)


# the criterion-5 taus
SWEEP_TAUS = [float(t) for t in np.linspace(-1.0, 1.5, 16)] + [
    -1e-3, -1e-4, 1e-4, 1e-3]


def _tau_sweep(eta):
    return S.tau_sweep(ONES, (1.0, 0.2, 1.0), eta, SWEEP_TAUS)


def _flat_run_counts(monkeypatch, run, width) -> tuple[int, int, int]:
    """(calls of the compiled field, step attempts, accepted steps) of a
    flat `run`, whose state has `width` components. No attempt of these
    runs stops early at a stage that is not finite, so each runs the
    field in line five times."""
    attempts = []
    attempt_fn = S._attempt_fn

    def attempt_spy(*args):
        attempt = attempt_fn(*args)

        def counting(*a):
            step = attempt(*a)
            assert step is not None
            attempts.append(math.sqrt(step[1] / width) <= 1.0)
            return step

        return counting

    monkeypatch.setattr(S, "_attempt_fn", attempt_spy)
    calls = _field_calls(monkeypatch, run).count(False)
    return calls, len(attempts), sum(attempts)


# RHS evaluations: the field's calls and the five stages of every attempt
def test_co_integrated_run_rhs_calls(monkeypatch):
    calls, attempts, _ = _flat_run_counts(monkeypatch, _co_integrated_run, 6)
    assert calls + 5 * attempts == 13069


def test_plain_run_rhs_calls(monkeypatch):
    calls, attempts, _ = _flat_run_counts(monkeypatch, _plain_run, 3)
    assert calls + 5 * attempts == 14575


# the five stages of every attempt run the field in line: Python calls it
# for k0 and at each accepted step's end only, where it took one call per
# RHS evaluation, 14,575 and 13,069
@pytest.mark.parametrize("run, width, calls", [
    (_plain_run, 3, 2425), (_co_integrated_run, 6, 2174)],
    ids=["plain", "single tau"])
def test_flat_runs_call_the_field_once_per_kept_state(monkeypatch, run,
                                                      width, calls):
    got, _, accepted = _flat_run_counts(monkeypatch, run, width)
    assert got == accepted + 1 == calls


def test_a_fused_step_attempt_is_compiled_once_per_field_text(monkeypatch):
    # fields that differ only in their constants share one source text and
    # one compiled attempt; the process keeps the _KEPT_ATTEMPTS latest
    monkeypatch.setattr(S, "_flat_makers", {})
    compiled = _spy(monkeypatch, E.Program, "inline")
    cfg = S.SimConfig(tf=1.0)

    def run(text):
        S.integrate(hiv, ONES.as_dict(), [1.0, 1.0, 1.0],
                    S.EtaSignal.from_text(text), cfg)

    for text in ("1/2", "1/3", "1/2 + t/20", "1/2 + t/30", "1/2"):
        run(text)
    assert len(compiled) == 2
    for k in range(2, 8):
        run(f"1/2 + t^{k}/20")
    assert len(compiled) == 8
    assert len(S._flat_makers) == S._KEPT_ATTEMPTS


@pytest.mark.parametrize("run", [_co_integrated_run, _plain_run, _tau_sweep],
                         ids=["single tau", "plain", "tau sweep"])
def test_plain_and_single_tau_runs_never_call_eta_on_a_scalar(run):
    # eta's expression is part of the compiled vector field; the signal is
    # called on the grid only, and on a scalar only to word an error
    assert _scalar_eta_calls(run) == 0


def test_tau_sweep_rhs_calls(monkeypatch):
    # one stacked evaluation covers all 20 twins of the criterion-5 sweep
    assert len(_field_calls(monkeypatch, _tau_sweep)) == 15708


def _dense_output(monkeypatch, run, width) -> dict[str, int]:
    """Accepted steps and dense-output fills of `run`, whose state has
    `width` components per row: "one" counts the fills of a single grid
    point (a scalar theta, per component where the state is flat) and
    "many" the fills of several (a column of thetas)."""
    counts = {"accepted": 0, "one": 0, "many": 0, "components": 0}
    attempt_fn, stacked, hermite = (S._attempt_fn, S._stacked_attempt,
                                    S._hermite)

    def counting(attempt):
        def step_counting(*args):
            step = attempt(*args)
            if step is not None and math.sqrt(step[1] / width) <= 1.0:
                counts["accepted"] += 1
            return step

        return step_counting

    def hermite_spy(theta, h, y0, *rest):
        if isinstance(theta, np.ndarray):
            counts["many"] += 1
        elif isinstance(y0, np.ndarray):
            counts["one"] += 1
        else:
            counts["components"] += 1
        return hermite(theta, h, y0, *rest)

    # a flat run takes its attempt from _attempt_fn, a stacked one from
    # _stacked_attempt
    monkeypatch.setattr(S, "_attempt_fn",
                        lambda *args: counting(attempt_fn(*args)))
    monkeypatch.setattr(S, "_stacked_attempt", lambda: counting(stacked()))
    monkeypatch.setattr(S, "_hermite", hermite_spy)
    run(S.EtaSignal.from_text("1/2"))
    assert counts["components"] % width == 0
    counts["one"] += counts.pop("components") // width
    return counts


# every default-grid run fills each of its 401 points on a step of its
# own, from a scalar theta; about 2,200 accepted steps cover none
@pytest.mark.parametrize("run, width", [
    (_co_integrated_run, 6), (_plain_run, 3), (_tau_sweep, 6)],
    ids=["single tau", "plain", "tau sweep"])
def test_default_grid_runs_fill_one_point_per_step(monkeypatch, run, width):
    counts = _dense_output(monkeypatch, run, width)
    assert (counts["one"], counts["many"]) == (401, 0)
    assert counts["accepted"] > 401


def test_a_dense_grid_fills_at_most_once_per_step(monkeypatch):
    # 1,500,000 points over the same steps: each step that covers more
    # than one point looks them up and fills them as one column
    cfg = S.SimConfig(dense_output_points=1_500_000)
    counts = _dense_output(monkeypatch, lambda eta: S.run_indistinguishability(
        ONES, (1.0, 0.2, 1.0), eta, 0.7, cfg), 6)
    assert 0 < counts["many"] <= counts["accepted"]
    assert counts["one"] + counts["many"] <= counts["accepted"]


# terms with a zero coefficient (k1 and k5 in y4, k1 in the error) are
# left out of the emitted step attempt; with them these were 27 and 162
@pytest.mark.parametrize("width, products", [(None, 24), (6, 144)],
                         ids=["stacked", "flat 6"])
def test_step_attempt_products(width, products):
    # a flat attempt runs its field in line: here one that adds no product
    source = (S._emit_attempt(None) if width is None else S._emit_attempt(
        width, 0, [], [], [f"v{j}" for j in range(width)]))
    assert source.count("*k") == products


def test_a_passing_tau_run_never_calls_eta_prime_value(monkeypatch):
    # the run's one program computes eta' in line; eta_prime_value only
    # words the error at a pole
    calls = _spy(monkeypatch, T, "eta_prime_value")
    S.run_indistinguishability(ONES, (1.0, 0.2, 1.0),
                               S.EtaSignal.from_text("1/2"), 0.7)
    assert calls == []
    T.TauFamily(0.7, ONES).eta(1.0, 0.2, 1.0, 0.5)
    assert calls == [1]


def test_a_plain_run_checks_numpy_finiteness_at_most_twice(monkeypatch):
    # the eta samples and the finished trajectory; the initial state and
    # each accepted step's derivative are Python floats, checked as such
    calls = _spy(monkeypatch, S, "_finite")
    S.integrate(hiv, ONES.as_dict(), [1.0, 1.0, 1.0],
                S.EtaSignal.from_text("1/2"))
    assert 1 <= len(calls) <= 2


def test_tau_sweep_array_rhs_calls(monkeypatch):
    # each stacked evaluation is one call of the twin field, which takes
    # the twins' states, primed constants and u as numpy columns
    assert _field_calls(monkeypatch, _tau_sweep).count(True) == 15708


def _pole_check_times(monkeypatch, run) -> tuple[list[float], int]:
    """The times at which `run` checks for eta''s pole, and its accepted
    steps."""
    times = []
    solve = S._solve

    def spy(f, y0, cfg, check, attempt):
        def counting(t, y):
            times.append(t)
            return check(t, y)

        return solve(f, y0, cfg, counting, attempt)

    monkeypatch.setattr(S, "_solve", spy)
    return times, _dense_output(monkeypatch, run, 6)["accepted"]


# no twin field guards a call: the pole check runs on the start state and
# on each accepted step's end, where a guard in every call of the field
# ran 15,708 times for the sweep and 13,069 for the single tau
def test_tau_sweep_checks_the_eta_prime_pole_once_per_kept_state(
        monkeypatch):
    times, accepted = _pole_check_times(monkeypatch, _tau_sweep)
    assert len(times) == accepted + 1 == 2613
    assert times[0] == 0.0 and times == sorted(set(times))


def test_single_tau_run_checks_the_eta_prime_pole_once_per_kept_state(
        monkeypatch):
    times, accepted = _pole_check_times(monkeypatch, _co_integrated_run)
    assert len(times) == accepted + 1 == 2174
    assert times[0] == 0.0 and times == sorted(set(times))


def _compile_calls(monkeypatch, run) -> int:
    """compile_program calls made by `run`, compile_float_fn's included:
    the spy replaces the evaluator's own name, which compile_float_fn
    calls, and the bindings that `expr` and `sim` hold."""
    calls = _spy(monkeypatch, P, "compile_program")
    monkeypatch.setattr(E, "compile_program", P.compile_program)
    monkeypatch.setattr(S, "compile_program", P.compile_program)
    run()
    return len(calls)


# the eta signal (1), the vector field (1) and the outputs of every
# trajectory (1); phi-check adds one program for eta with eta' and one for
# the terms of every relation variant composed with the output jets (2)
@pytest.mark.parametrize("run, bound", [
    (lambda: S.run_indistinguishability(
        ONES, (1.0, 0.2, 1.0), S.EtaSignal.from_text("1/2"), 0.7), 3),
    (lambda: S.tau_sweep(
        ONES, (1.0, 0.2, 1.0), S.EtaSignal.from_text("1/2"), SWEEP_TAUS), 3),
    (lambda: cli.main(["phi-check"]), 5),
], ids=["single tau", "tau sweep", "phi-check"])
def test_programs_compiled_per_run(monkeypatch, capsys, run, bound):
    # exactly: a spy that misses a call site counts too few
    assert _compile_calls(monkeypatch, run) == bound


def _left_to_the_cyclic_gc(run) -> list[str]:
    """Type names of the functions and dicts that only the cyclic garbage
    collector frees after `run`."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [type(o).__name__ for o in gc.garbage
                if isinstance(o, (dict, types.FunctionType))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_a_run_leaves_no_compiled_code_to_the_cyclic_gc():
    assert _left_to_the_cyclic_gc(lambda: S.run_indistinguishability(
        ONES, (1.0, 0.2, 1.0), S.EtaSignal.from_text("1/2"), 0.7)) == []
    assert _left_to_the_cyclic_gc(lambda: S.tau_sweep(
        ONES, (1.0, 0.2, 1.0), S.EtaSignal.from_text("1/2"), [0.0, 0.7])) == []
    # the constrained Jacobian's rendering is cut into piece functions,
    # which its `_make` looks up by name
    matrix = R.substitute_dynamics(
        R.parameter_jacobian(R.build_phi_system(R.build_phi())))
    assert _left_to_the_cyclic_gc(
        lambda: R.generic_rank(matrix, 2, 1)) == []


def _cold_and_warm_verdicts():
    R._hiv_rank_program.cache_clear()
    for _ in range(2):
        for mode in ("naive", "constrained"):
            R.run_rank_test(mode, trials=2, seed=1)


def test_the_rank_program_cache_keeps_no_expression_alive():
    M.hiv_model()
    gc.collect()
    before = len(E._NODES)
    _cold_and_warm_verdicts()
    gc.collect()
    assert len(E._NODES) == before
    assert _left_to_the_cyclic_gc(_cold_and_warm_verdicts) == []


# ------------------------------------------------------------ cold start

_SRC = Path(odeident.__file__).resolve().parents[1]
_HIV_FILE = str(_SRC.parent / "models" / "hiv.ode")


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports the package from
    this source tree."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


_LOADED = ("print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' "
           "or m.startswith(('numpy.', 'odeident')))))")
_SOURCE_LINES = ("print(sum(len(open(m.__file__).readlines()) for name, m in "
                 "list(sys.modules.items()) if name.startswith('odeident')))")


def test_import_loads_the_symbolic_modules_only():
    # the rank test and the transformation load on first use: importing
    # them here compiled 744 more lines and two closed-form programs; so do
    # exact algebra and the evaluator, which made the three modules 2,125
    # lines
    done = _fresh(f"import sys, json, odeident; {_LOADED}; "
                  f"odeident.hiv_model(); {_LOADED}; {_SOURCE_LINES}")
    assert done.returncode == 0, done.stderr
    imported, built, lines = map(json.loads, done.stdout.splitlines())
    assert imported == built == ["odeident", "odeident.expr", "odeident.model"]
    assert lines <= 1400


_FACADE = """
import json, sys
import odeident.cli, odeident.expr as E
def loaded():
    return sorted(m for m in sys.modules if m.startswith("odeident."))
fresh, listed, namespace = loaded(), set(dir(E)), {}
exec("from odeident.expr import *", namespace)
print(json.dumps([fresh, sorted(set(E.__all__) - listed),
                  sorted(set(E.__all__) - namespace.keys()), loaded()]))
"""


def test_expr_lists_every_name_and_loads_its_other_modules_on_first_access():
    done = _fresh(_FACADE)
    assert done.returncode == 0, done.stderr
    fresh, unlisted, unbound, loaded = json.loads(done.stdout)
    assert fresh == ["odeident.cli", "odeident.expr", "odeident.model",
                     "odeident.ranktest"]
    assert unlisted == unbound == []
    assert loaded == sorted([*fresh, "odeident.canonical", "odeident.program"])


_BLOCKED_MAIN = """
import json, sys
sys.modules["numpy"] = None
from odeident.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(
    m for m in ("sim", "transform", "canonical", "program")
    if f"odeident.{m}" in sys.modules)}))
"""

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


# the simulator and the transformation, exact algebra (`canonical`) and
# the evaluator (`program`) each load only where the subcommand uses them
@pytest.mark.parametrize("argv, loaded", [
    (["verify-identities"], ["canonical", "program", "transform"]),
    (["rank", "--seed", "7", "--trials", "5", "--mode", "naive"], ["program"]),
    (["rank", "--seed", "7", "--trials", "5"], ["program"]),
    (["rank", "--seed", "7", "--trials", "5", "--variant", "miao"],
     ["program"]),
    (["parse", _HIV_FILE], []),
], ids=["verify-identities", "rank naive", "rank constrained", "rank miao",
        "parse"])
def test_symbolic_subcommands_run_without_numpy(capsys, argv, loaded):
    done = _fresh(_BLOCKED_MAIN, *argv)
    assert done.returncode == 0, done.stderr
    *output, status = done.stdout.splitlines(keepends=True)
    assert json.loads(status) == {"code": 0, "loaded": loaded}
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert _ELAPSED.sub("", "".join(output)) == _ELAPSED.sub("", expected)


def test_simulator_names_load_the_simulator_on_first_access():
    from odeident import (EtaSignal, SimConfig, run_indistinguishability,
                          tau_sweep)
    assert EtaSignal is S.EtaSignal and SimConfig is S.SimConfig
    assert run_indistinguishability is S.run_indistinguishability
    assert tau_sweep is S.tau_sweep
    for name in ("IndistReport", "NonFiniteState", "StepBudgetExceeded",
                 "StepSizeUnderflow", "Trajectory", "integrate",
                 "phi_residual_along", "phi_residuals_along",
                 "write_trajectory_csv"):
        assert getattr(odeident, name) is getattr(S, name)
    with pytest.raises(AttributeError):
        odeident.no_such_name
