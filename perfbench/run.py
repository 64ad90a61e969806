"""odeident benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload {rank,simulate,derive} --seed N \
        --seconds S --trace {0,1}

Each operation starts when the previous one returns. With --trace 0 the
run repeats cycles of the workload's operation mix for about S seconds
and reports the end-to-end metrics; with --trace 1 it runs one cycle
untraced and the same cycle traced, and reports the per-layer metrics.
Human-readable rows go to standard output first; the last line is the
JSON result. The program under test is the `src/` tree next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import Sampler, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 11
# expression building, normalize and codegen: the traced calls that
# neither evaluate (run_mod, sim.*, eta') nor wrap an evaluation
CONSTRUCTION = (
    "expr.differentiate", "expr.substitute_many", "expr.normalize",
    "expr.compile_program", "expr.compile_float_fn", "model.parse_model",
    "model.output_jet", "model.total_time_derivative", "ranktest.build_phi",
    "ranktest.build_phi_system", "ranktest.parameter_jacobian",
    "ranktest.substitute_dynamics", "ranktest.phi_vanishes_on_dynamics",
    "transform.verify_identities",
)
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import odeident
odeident.hiv_model()
elapsed = time.perf_counter() - start
assert odeident.__file__.startswith(sys.argv[1])
print(elapsed)
"""


def measure_setup() -> tuple[float, float]:
    """Median time, in fresh interpreters, to import odeident and build the
    bundled model: (at reference speed, raw). Each is scaled by the speed
    measured just before and after its interpreter ran."""
    raw, speeds = [], [speed()]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        raw.append(float(done.stdout))
        speeds.append(speed())
    scaled = [t * (speeds[i] + speeds[i + 1]) / 2 for i, t in enumerate(raw)]
    return statistics.median(scaled), statistics.median(raw)


class Outcomes:
    """Operations attempted and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


class Record(NamedTuple):
    kind: str
    cycle: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_cycle(workload, cycle: int, outcomes: Outcomes,
              tracer=None) -> list[Record]:
    """Run one cycle of operations, each checked after it returns."""
    from workloads import Mismatch

    records = []
    for index, op in enumerate(workload.ops(cycle)):
        if tracer is not None:
            tracer.op_id = index
            tracer.op_kinds[index] = op.kind
        error = None
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not retried
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.paused = True  # checks are not the program's work
        if error is None:
            try:
                op.check(out)
            except Mismatch as exc:
                error = f"wrong answer: {exc}"
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.paused = False
        outcomes.record(op.label, error)
        records.append(Record(op.kind, cycle, start, end))
        out = None  # let the output go before the next operation runs
    return records


def highest_tail(values: list[float], beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it, as
    (percentile, value), or None with too few samples."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(name: str, seed: int, seconds: float):
    from workloads import WORKLOADS

    setup_s, setup_raw = measure_setup()
    workload = WORKLOADS[name](seed)
    outcomes = Outcomes()
    records: list[Record] = []
    cycles = 0
    started = time.perf_counter()
    with Sampler() as sampler:
        while True:
            records += run_cycle(workload, cycles, outcomes)
            cycles += 1
            elapsed = time.perf_counter() - started
            # stop before a cycle that would end past `seconds`, but keep
            # two cycles so that every kind has more than one sample
            if cycles >= 2 and elapsed + elapsed / cycles > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = workload.verify()

    times, raws = zip(*(sampler.scale(r.start, r.end) for r in records))
    cycle_walls = [sum(t for t, r in zip(times, records) if r.cycle == c)
                   for c in range(cycles)]
    raw_wall = statistics.median(
        sum(t for t, r in zip(raws, records) if r.cycle == c)
        for c in range(cycles))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(cycle_walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    rows = [f"{name}: seed {seed}, {cycles} cycles, closed loop, 1 client; "
            f"times in s at reference speed, median speed "
            f"{statistics.median(s[1] for s in sampler.samples):.3f} (raw s in "
            f"brackets)",
            f"  setup_s: {setup_s:.4f} ({setup_raw:.4f}) over "
            f"{SETUP_SAMPLES} fresh interpreters",
            f"  wall_s: {statistics.median(cycle_walls):.4f} ({raw_wall:.4f})"]
    for kind, label in workload.KINDS.items():
        kind_times = [t for t, r in zip(times, records) if r.kind == kind]
        raw = [t for t, r in zip(raws, records) if r.kind == kind]
        metrics[f"op_{kind}_s"] = (statistics.median(kind_times), "s")
        tail = highest_tail(kind_times)
        tail_text = (f", tail p{tail[0]:.0f} {tail[1]:.4f}" if tail
                     else ", no percentile has 10 samples beyond it")
        rows.append(f"  op_{kind}_s ({label}): median "
                    f"{statistics.median(kind_times):.4f} "
                    f"({statistics.median(raw):.4f}) over {len(raw)} "
                    f"samples{tail_text}")
    if name == "rank":
        points = workload.valid_points
        rows.append(f"  rank_points_per_s: {points / sum(times):.1f} "
                    f"({points / sum(raws):.1f}) valid "
                    f"GF(p) evaluations per second over {len(records)} "
                    f"verdicts")
    return metrics, outcomes, checks, rows


def per_layer(name: str, seed: int):
    import numpy as np
    from odeident import model, sim
    from tracer import (TRACED, Tracer, busy_s, outermost, self_s,
                        NAME, START, END, OP, ERROR)
    import counters
    from workloads import WORKLOADS

    tracer = Tracer()
    plain_eta = sim.EtaSignal

    class CountingEta(plain_eta):
        """Counts scalar calls: the RHS evaluates eta once per call."""

        def __call__(self, t):
            if not isinstance(t, np.ndarray):
                tracer.counters["sim.rhs_calls"] += 1
            return plain_eta.__call__(self, t)

    tracer.op_id = -2  # set-up, before the first operation
    tracer.install()
    model.hiv_model()
    tracer.uninstall()

    outcomes = Outcomes()
    untraced = run_cycle(WORKLOADS[name](seed), 0, outcomes)
    workload = WORKLOADS[name](seed, eta_class=CountingEta)
    tracer.install(extra={plain_eta: CountingEta})
    try:
        traced = run_cycle(workload, 0, outcomes, tracer)
    finally:
        tracer.uninstall()
    untraced_wall = sum(r.seconds for r in untraced)
    traced_wall = sum(r.seconds for r in traced)
    checks = workload.verify()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-{seed}.jsonl.gz")

    spans = tracer.spans

    def total(span_name):
        return busy_s(spans, [span_name])

    def calls(span_name):
        return sum(1 for s in spans if s[NAME] == span_name)

    run_mod = [s for s in spans if s[NAME] == "expr.run_mod"]
    discarded = sum(1 for s in run_mod if s[ERROR] == "DivisionByZero")
    jac = counters.jacobian(tracer, workload.JACOBIAN_KIND)
    metrics = {
        "expr.run_mod.s": (total("expr.run_mod"), "s"),
        "expr.run_mod.calls": (len(run_mod), "count"),
        "expr.jacobian_nodes": (jac["nodes"], "count"),
        "expr.jacobian_distinct_nodes": (jac["distinct"], "count"),
        "expr.program_instructions": (jac["instructions"], "count"),
        "expr.program_mul_instructions": (jac["mul_instructions"], "count"),
        "expr.differentiate.s": (total("expr.differentiate"), "s"),
        "expr.substitute_many.s": (total("expr.substitute_many"), "s"),
        "expr.normalize.s": (total("expr.normalize"), "s"),
        "expr.compile_program.s": (total("expr.compile_program"), "s"),
        "expr.compile_float_fn.s": (total("expr.compile_float_fn"), "s"),
        "expr.compile_float_fn.source_chars":
            (counters.source_chars(tracer), "count"),
        "model.output_jet.s": (total("model.output_jet"), "s"),
        "model.total_time_derivative.calls":
            (calls("model.total_time_derivative"), "count"),
        "model.jet_nodes.y1_o8": (counters.jet_nodes(tracer, 1, 8), "count"),
        "model.jet_nodes.y2_o8": (counters.jet_nodes(tracer, 2, 8), "count"),
        "model.parse_model.s": (total("model.parse_model"), "s"),
        "ranktest.build_phi_system.s": (total("ranktest.build_phi_system"), "s"),
        "ranktest.parameter_jacobian.s":
            (total("ranktest.parameter_jacobian"), "s"),
        "ranktest.substitute_dynamics.s":
            (total("ranktest.substitute_dynamics"), "s"),
        "ranktest.generic_rank.s": (total("ranktest.generic_rank"), "s"),
        "ranktest.generic_rank.self_s":
            (self_s(spans, "ranktest.generic_rank"), "s"),
        "ranktest.points_attempted": (len(run_mod), "count"),
        "ranktest.points_discarded": (discarded, "count"),
        "ranktest.valid_point_ratio":
            ((len(run_mod) - discarded) / len(run_mod) if run_mod else 0.0,
             "ratio"),
        "transform.eta_prime_value.calls":
            (calls("transform.eta_prime_value"), "count"),
        "transform.eta_prime_value.s": (total("transform.eta_prime_value"), "s"),
        "transform.verify_identities.s":
            (total("transform.verify_identities"), "s"),
        "sim.rhs_calls": (tracer.counters["sim.rhs_calls"], "count"),
        "sim.run_indistinguishability.s":
            (total("sim.run_indistinguishability"), "s"),
        "sim.tau_sweep.s": (total("sim.tau_sweep"), "s"),
        "sim.integrate.s": (total("sim.integrate"), "s"),
        "sim.phi_residual_along.s": (total("sim.phi_residual_along"), "s"),
        "cli.self_s": (self_s(spans, "cli.main"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(spans), "count"),
    }

    def share(names):
        """Share of the traced cycle's wall time spent inside `names`."""
        inside = outermost(spans, names)
        return sum(s[END] - s[START] for s in inside if s[OP] >= 0) / traced_wall

    simulation = [n for n in TRACED if n.startswith("sim.")]
    rows = [
        f"{name}: seed {seed}, one traced cycle, closed loop, 1 client",
        f"  tracing overhead {traced_wall - untraced_wall:+.4f} s "
        f"({traced_wall:.4f} s traced vs {untraced_wall:.4f} s untraced, "
        f"{len(spans)} spans)",
        f"  share of traced wall: expr.run_mod {share(['expr.run_mod']):.3f}, "
        f"sim.* {share(simulation):.3f}, construction/normalize/codegen "
        f"{share(CONSTRUCTION):.3f}",
    ]
    return metrics, outcomes, checks, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rank", "simulate", "derive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "odeident" / "__init__.py").is_file():
        print(f"error: no odeident source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # one thread: numpy's BLAS pool would otherwise start a thread per CPU
    # at import, and set-up time would depend on whether other tenants
    # leave the second CPU free (0.13 s against 0.21 s on the same code)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"

    if args.trace:
        metrics, outcomes, checks, rows = per_layer(args.workload, args.seed)
    else:
        metrics, outcomes, checks, rows = end_to_end(args.workload, args.seed,
                                                     args.seconds)
    for label, ok, detail in checks:
        outcomes.record(label, None if ok else detail)
    rows.append(f"  {outcomes.attempted} operations and checks, "
                f"{len(outcomes.failures)} failed, fail_ratio "
                f"{len(outcomes.failures) / outcomes.attempted:.4f}")
    rows += [f"  check {label}: {'ok' if ok else 'FAILED'} ({detail})"
             for label, ok, detail in checks]
    rows += [f"  FAILED {message}" for message in outcomes.failures]
    print("\n".join(rows))
    print(json.dumps({
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
