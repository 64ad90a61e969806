"""The three workloads: what each operation runs and its known answer.

A workload hands out one cycle of operations at a time; the runner times
each operation, then calls its check. A check raises `Mismatch` on a
wrong answer. Every operation belongs to one of three kinds, reported as
`op_a_s`, `op_b_s` and `op_c_s`:

    workload   op_a                      op_b                    op_c
    rank       naive verdict             constrained verdict     constrained miao verdict
    simulate   co-integrated tau run     20-value tau sweep      phi-check
    derive     jets and identities       constrained Jacobian    float codegen of jets

Inputs come from the workload seed only: rank `--seed` values, tau draws
and oracle points. The seed varies values, never the amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from odeident import cli, expr, model, ranktest, sim, transform

import oracles


class Mismatch(Exception):
    """An operation returned a wrong answer."""


class Op(NamedTuple):
    kind: str                      # "a", "b" or "c"
    label: str
    run: Callable[[], object]      # the timed call
    check: Callable[[object], None]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`odeident.cli.main` in process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------- rank

class Rank:
    """`rank --trials 100` verdicts through the CLI, one seed per verdict."""

    KINDS = {"a": "naive corrected verdict",
             "b": "constrained corrected verdict",
             "c": "constrained miao verdict"}
    # kind, mode, variant, known generic rank
    MIX = (("a", "naive", ranktest.CORRECTED, 5),
           ("b", "constrained", ranktest.CORRECTED, 4),
           ("c", "constrained", ranktest.MIAO_AS_PRINTED, 5))
    TRIALS = 100
    JACOBIAN_KIND = "b"

    def __init__(self, seed: int, eta_class=sim.EtaSignal):
        self.rng = random.Random(f"rank:{seed}")
        self.first_naive = None  # (argv, output) replayed by verify()
        # GF(p) rank evaluations behind the correct verdicts, structured
        # points included
        self.valid_points = 0

    def ops(self, cycle: int) -> list[Op]:
        ops = []
        for kind, mode, variant, rank in self.MIX:
            argv = ["rank", "--mode", mode, "--variant", variant,
                    "--trials", str(self.TRIALS),
                    "--seed", str(self.rng.randrange(2**31))]
            ops.append(Op(kind, f"rank {mode} {variant}",
                          lambda argv=argv: (argv, run_cli(argv)),
                          lambda out, rank=rank: self.check(out, rank)))
        return ops

    def check(self, out, rank: int) -> None:
        argv, (code, text) = out
        expect(code == 0, f"exit code {code}")
        report = json.loads(text)
        valid = self.TRIALS * len(report["primes"])
        expect(report["generic_rank"] == rank,
               f"generic rank {report['generic_rank']}, expected {rank}")
        expect(report["observed_ranks"] == {str(rank): valid},
               f"observed ranks {report['observed_ranks']}")
        if argv[2] == "constrained" and argv[4] == ranktest.CORRECTED:
            structured = report["structured_point_rank"]
            expect(structured is not None and structured <= 4,
                   f"structured point rank {structured}")
        if self.first_naive is None and argv[2] == "naive":
            self.first_naive = (argv, text)
        self.valid_points += valid + (report["structured_point_rank"] is not None)

    def verify(self) -> list[tuple[str, bool, str]]:
        """The first naive verdict again: its JSON must be byte-identical
        apart from elapsed_ms."""
        if self.first_naive is None:
            return [("rank replay", False, "no naive verdict passed")]
        argv, text = self.first_naive
        code, again = run_cli(argv)
        same = code == 0 and strip_elapsed(again) == strip_elapsed(text)
        return [("rank replay", same, f"seed {argv[-1]}")]


def strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


# ----------------------------------------------------------- simulate

ONES = transform.Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)
# keeps T_I/T_U below 0.34, clear of the eta' pole T_I/T_U = u/(1-u) for
# every tau in (-1, 1.5)
SAFE_INIT = (1.0, 0.2, 1.0)
SWEEP_TAUS = tuple(float(t) for t in np.linspace(-1.0, 1.5, 16)) + (
    -1e-3, -1e-4, 1e-4, 1e-3)
ETA_TEXTS = ("1/2", "1/2 + t/20")
ETA_FUNCS = (lambda t: 0.5, lambda t: 0.5 + t / 20)  # for the scipy oracle
SIM_CONFIG = sim.SimConfig(t0=0.0, tf=10.0, abs_tol=1e-10, rel_tol=1e-10)
DEV_MAX = 1e-6


class Simulate:
    """Co-integrated tau runs, the criterion-5 sweep and `phi-check`."""

    KINDS = {"a": "co-integrated tau run",
             "b": "20-value tau sweep",
             "c": "phi-check"}
    SINGLES_PER_CYCLE = 6
    PHI_CHECKS_PER_CYCLE = 6
    JACOBIAN_KIND = None

    def __init__(self, seed: int, eta_class=sim.EtaSignal):
        self.rng = random.Random(f"simulate:{seed}")
        self.etas = [eta_class.from_text(text) for text in ETA_TEXTS]
        self.first_single = None  # (tau, eta index, original trajectory)

    def ops(self, cycle: int) -> list[Op]:
        ops = []
        for i in range(self.SINGLES_PER_CYCLE):
            # one tau from each of six equal strata of (-1, 1.5), so every
            # cycle spans the interval whatever the seed
            tau = -1.0 + 2.5 * (i + self.rng.random()) / self.SINGLES_PER_CYCLE
            ops.append(Op("a", f"simulate tau {tau:.6f} eta {ETA_TEXTS[i % 2]}",
                          lambda tau=tau, i=i: sim.run_indistinguishability(
                              ONES, SAFE_INIT, self.etas[i % 2], tau, SIM_CONFIG),
                          lambda out, tau=tau, i=i: self.check_single(out, tau, i % 2)))
        ops.append(Op("b", "tau sweep",
                      lambda: sim.tau_sweep(ONES, SAFE_INIT, self.etas[0],
                                            SWEEP_TAUS, SIM_CONFIG),
                      self.check_sweep))
        for _ in range(self.PHI_CHECKS_PER_CYCLE):
            ops.append(Op("c", "phi-check", lambda: run_cli(["phi-check"]),
                          self.check_phi))
        return ops

    def check_single(self, out, tau: float, eta_index: int) -> None:
        report, orig, _ = out
        worst = max(report.max_rel_output_dev, report.max_rel_state_map_dev)
        expect(worst < DEV_MAX, f"tau {tau}: deviation {worst:.3e}")
        if self.first_single is None:
            self.first_single = (tau, eta_index, orig)

    @staticmethod
    def check_sweep(reports) -> None:
        expect([r.tau for r in reports] == list(SWEEP_TAUS), "sweep taus")
        worst = max(max(r.max_rel_output_dev, r.max_rel_state_map_dev)
                    for r in reports)
        expect(worst < DEV_MAX, f"sweep deviation {worst:.3e}")

    @staticmethod
    def check_phi(out) -> None:
        code, text = out
        expect(code == 0, f"exit code {code}")
        residuals = json.loads(text)["residuals"]
        expect(residuals[ranktest.CORRECTED] < 1e-6,
               f"corrected residual {residuals[ranktest.CORRECTED]:.3e}")
        expect(residuals[ranktest.MIAO_AS_PRINTED] > 1e-2,
               f"miao residual {residuals[ranktest.MIAO_AS_PRINTED]:.3e}")

    def verify(self) -> list[tuple[str, bool, str]]:
        """The first tau run's original trajectory against scipy's DOP853."""
        if self.first_single is None:
            return [("scipy DOP853 trajectory", False, "no tau run passed")]
        tau, eta_index, orig = self.first_single
        ref = oracles.hiv_trajectory_scipy(SAFE_INIT, ONES.as_dict(),
                                           ETA_FUNCS[eta_index], orig.times)
        dev = float(np.max(np.abs(orig.states - ref) / (1.0 + np.abs(ref))))
        return [("scipy DOP853 trajectory", dev < 1e-7,
                 f"tau {tau:.6f} eta {ETA_TEXTS[eta_index]}: "
                 f"max rel dev {dev:.2e}")]


# ------------------------------------------------------------- derive

JET_ORDER = 8
NORMALIZE_ORDER = 7
# compile_float_fn on y1's order-8 jet expands its DAG into 5.6 million
# characters of source and needs over 1 GB; y1 stops at order 7
CODEGEN = ((2, 8), (1, 7))   # (output index, jet order)
CHECK_PRIME = ranktest.DEFAULT_PRIMES[0]


class Derive:
    """Model analysis with almost no evaluation."""

    KINDS = {"a": "jets, normalize, identities, relation checks",
             "b": "constrained Jacobian build and compile_program",
             "c": "compile_float_fn of the jets"}
    JACOBIAN_KIND = "b"

    def __init__(self, seed: int, eta_class=sim.EtaSignal):
        self.m = model.hiv_model()
        tv = self.m.tv_params[0]
        self.chain = [tv] + [tv.derivative(k) for k in range(1, JET_ORDER)]
        self.jet_args = sorted(set(self.m.states) | set(self.m.const_params)
                               | set(self.chain), key=expr.Symbol.sort_key)
        rng = random.Random(f"derive:{seed}")

        def draw():
            return Fraction(rng.randint(1, 9), rng.randint(1, 5))

        self.state0 = [draw() for _ in self.m.states]
        self.params = {n: draw() for n in oracles.PARAM_NAMES}
        self.eta_chain = [draw() for _ in self.chain]
        self.entry = (rng.randrange(5), rng.randrange(5))
        self.point = dict(zip(self.m.states, self.state0))
        self.point.update({s: self.params[s.name] for s in self.m.const_params})
        self.point.update(zip(self.chain, self.eta_chain))
        self.mod_point = [rng.randrange(CHECK_PRIME) for _ in range(14)]
        self.jets = None
        self.first = {}      # kind -> output of the first cycle
        self.codegen_values = None

    def ops(self, cycle: int) -> list[Op]:
        return [Op("a", "derive jets", self.construct, self.check_construct),
                Op("b", "derive jacobian", self.jacobian, self.check_jacobian),
                Op("c", "derive codegen", self.codegen, self.check_codegen)]

    def construct(self):
        identities = transform.verify_identities()
        vanishes = {v: ranktest.phi_vanishes_on_dynamics(ranktest.build_phi(v))[0]
                    for v in (ranktest.CORRECTED, ranktest.MIAO_AS_PRINTED)}
        jets = [model.output_jet(self.m, i, JET_ORDER) for i in (1, 2)]
        normal = [[expr.normalize(e) for e in jet.entries[:NORMALIZE_ORDER + 1]]
                  for jet in jets]
        self.jets = jets
        return identities, vanishes, jets, normal

    def check_construct(self, out) -> None:
        identities, vanishes, _, _ = out
        expect([c.name for c in identities] == ["T_U'", "T_I'", "V'"]
               and all(c.holds for c in identities), "identities")
        expect(vanishes == {ranktest.CORRECTED: True,
                            ranktest.MIAO_AS_PRINTED: False},
               f"relation vanishing {vanishes}")
        self.first.setdefault("a", out)

    def jacobian(self):
        system = ranktest.build_phi_system(ranktest.build_phi(ranktest.CORRECTED))
        matrix = ranktest.substitute_dynamics(ranktest.parameter_jacobian(system))
        flat = [e for row in matrix for e in row]
        symbols = sorted(set().union(*(expr.free_symbols(e) for e in flat)),
                         key=expr.Symbol.sort_key)
        return matrix, symbols, expr.compile_program(flat, symbols)

    def check_jacobian(self, out) -> None:
        matrix, symbols, program = out
        expect(len(symbols) == len(self.mod_point), f"{len(symbols)} symbols")
        values = program.run_mod(self.mod_point, CHECK_PRIME)
        rows = [values[r * 5:(r + 1) * 5] for r in range(5)]
        rank = rank_mod(rows, CHECK_PRIME)
        expect(rank == 4, f"constrained Jacobian rank {rank} at a random point")
        self.first.setdefault("b", out)

    def codegen(self):
        return [expr.compile_float_fn(self.jets[i - 1].entries[k], self.jet_args)
                for i, k in CODEGEN]

    def check_codegen(self, fns) -> None:
        args = [float(self.point[s]) for s in self.jet_args]
        values = [fn(*args) for fn in fns]
        if self.codegen_values is None:
            # the first cycle's values are checked against sympy in verify()
            self.codegen_values = values
        expect(values == self.codegen_values, "compiled jet values changed")

    def verify(self) -> list[tuple[str, bool, str]]:
        """First-cycle outputs against sympy at the seed-drawn exact point."""
        if "a" not in self.first or "b" not in self.first \
                or self.codegen_values is None:
            return [("sympy oracles", False, "an operation kind never passed")]
        y1, y2 = oracles.hiv_jets_sympy(self.state0, self.params,
                                        self.eta_chain, JET_ORDER)
        refs = {1: [Fraction(int(v.p), int(v.q)) for v in y1],
                2: [Fraction(int(v.p), int(v.q)) for v in y2]}
        _, _, jets, normal = self.first["a"]

        bad = [f"y{jet.output_index}^({k})"
               for jet in jets for k, e in enumerate(jet.entries)
               if self.exact(e) != refs[jet.output_index][k]]
        results = [("sympy jets", not bad,
                    f"orders 0..{JET_ORDER} of y1, y2; wrong: {bad or 'none'}")]

        bad = [f"y{i}^({k})" for i, jets_normal in zip((1, 2), normal)
               for k, canon in enumerate(jets_normal)
               if eval_canonical(canon, self.point) != refs[i][k]]
        results.append(("sympy normalized jets", not bad,
                        f"orders 0..{NORMALIZE_ORDER}; wrong: {bad or 'none'}"))

        # float evaluation of a 20k-node sum rounds; a codegen bug is O(1)
        ok = all(abs(v - float(refs[i][k])) <= 1e-6 * max(1.0, abs(float(refs[i][k])))
                 for v, (i, k) in zip(self.codegen_values, CODEGEN))
        results.append(("sympy compiled jets", ok,
                        f"float values {self.codegen_values}"))

        row, col = self.entry
        ref = oracles.jacobian_entry_sympy(row, col, self.params, y1, y2)
        ref = Fraction(int(ref.p), int(ref.q))
        matrix, symbols, program = self.first["b"]
        ours = self.exact(matrix[row][col])
        compiled = program.run_exact([self.point[s] for s in symbols])[row * 5 + col]
        results.append(("sympy Jacobian entry", ours == ref == compiled,
                        f"entry ({row}, {col})"))
        return results

    def exact(self, e):
        return expr.evaluate(e, {s: self.point[s] for s in expr.free_symbols(e)},
                             "exact")


def eval_canonical(canon, point) -> Fraction:
    """Numerator over denominator of a `RationalCanonical` at a point."""
    def poly(p):
        total = Fraction(0)
        for mono, coef in p.items():
            term = coef
            for s, k in mono:
                term *= point[s] ** k
            total += term
        return total
    return poly(canon.numerator) / poly(canon.denominator)


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


WORKLOADS = {"rank": Rank, "simulate": Simulate, "derive": Derive}
