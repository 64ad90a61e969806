"""Command-line entry point.

Subcommands:
  verify-identities   symbolic check of the transformed-dynamics identities
  rank                randomized generic-rank report (naive or constrained)
  simulate            indistinguishability experiment for one tau or a sweep
  phi-check           relation residual along a simulated trajectory
  parse               validate a model file

Exit codes: 0 success / all checks pass, 1 a mathematical check failed or
standard output closed early, 2 usage error (bad flags, malformed input
files, a `--csv` path that cannot be written). JSON output is
deterministic for identical invocations; elapsed times live in their own
field.

A subcommand returns its exit code with its report, as a JSON payload and
as pretty lines, or raises `_Failure` with its exit code and error line;
`main` is the one writer of both. Only `simulate --output csv` streams to
standard output itself.

Only `simulate` and `phi-check` import the simulator, `odeident.sim`, and
with it numpy; `verify-identities`, `rank` and `parse` run on exact and
modular integer arithmetic and never load either.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import expr, model, ranktest, transform

_USAGE_ERROR = 2
_MATH_FAIL = 1

_PHI_CORRECTED_MAX = 1e-6
_PHI_MIAO_MIN = 1e-2

# Samples one simulate or phi-check run keeps: tau values (one unless
# sweeping) times grid points. Peak RSS grows by about 185 bytes per sample
# for a single tau, 70 for a sweep's twins and 55 for phi-check (whose
# residual runs on blocks of the grid), over about 30 MB at start; at this
# limit a single tau peaks at 305 MB, phi-check at 110 MB and a sweep of
# 3,740 taus at the default 401 points at 131 MB (9 s).
_MAX_SAMPLES = 1_500_000

# The HIV model's constant parameters in its order, which `--help` lists:
# (flag, `Params` field, help). Each defaults to 1.
_PARAM_FLAGS = (("--lambda", "lam", "production rate"),
                ("--rho", "rho", "uninfected-cell clearance rate"),
                ("--delta", "delta", "infected-cell clearance rate"),
                ("--N", "N", "virions per infected cell"),
                ("--c", "c", "virus clearance rate"))


class _Failure(Exception):
    """Ends a run; its args are (exit code, the one stderr line)."""


@contextlib.contextmanager
def _failing(code: int, *errors, prefix: str = "error"):
    """Turns any of `errors` into a `_Failure` with `code` and the line
    `prefix: message`."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, f"{prefix}: {exc}") from None


def _params_from_args(args) -> transform.Params:
    flags = {dest: flag for flag, dest, _ in _PARAM_FLAGS}
    params = transform.Params(**{dest: getattr(args, dest) for dest in flags})
    for field in dataclasses.fields(params):  # names --delta before --rho
        if not math.isfinite(getattr(params, field.name)):
            raise ValueError(f"{flags[field.name]} wants a finite number")
    return params


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=str, default="1/2",
                   help="time-varying infection rate, an expression in t "
                        "(default 1/2)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--tf", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="absolute and relative tolerance (default 1e-10)")
    p.add_argument("--grid", type=int, default=401,
                   help="dense-output points (default 401)")
    p.add_argument("--init", type=str, default="1,1,1",
                   help="initial T_U,T_I,V (default 1,1,1)")
    for flag, dest, text in _PARAM_FLAGS:
        p.add_argument(flag, dest=dest, type=float, default=1.0,
                       help=f"{text} (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odeident",
        description="Structural identifiability toolkit for the bundled "
                    "HIV within-host model and user ODE models.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-identities",
                        help="symbolically verify the transformed dynamics")
    p.add_argument("--output", choices=("json", "pretty"), default="pretty")

    p = subs.add_parser("rank", help="generic-rank report")
    p.add_argument("--mode", choices=("naive", "constrained"),
                   default="constrained")
    p.add_argument("--variant", choices=(ranktest.CORRECTED,
                                         ranktest.MIAO_AS_PRINTED),
                   default=ranktest.CORRECTED)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True,
                   help="required; there is no wall-clock seeding")
    p.add_argument("--primes", type=str, default=None,
                   help="comma-separated primes in (2^60, 3.18e23), where "
                        "primality is proven (default: three 62-bit primes)")
    p.add_argument("--output", choices=("json", "pretty"), default="json")

    p = subs.add_parser("simulate", help="indistinguishability experiment")
    p.add_argument("--tau", type=float, default=None,
                   help="transformation parameter (time units)")
    p.add_argument("--sweep", type=str, default=None, metavar="LO:HI:N",
                   help="sweep tau over N values in [LO, HI] instead")
    p.add_argument("--csv", type=str, default=None,
                   help="write the co-integrated trajectory as CSV here "
                        "(single tau only)")
    _add_sim_flags(p)
    p.add_argument("--output", choices=("json", "csv", "pretty"),
                   default="json",
                   help="csv streams the trajectory instead of the report "
                        "(single tau only)")

    p = subs.add_parser("phi-check",
                        help="relation residual along a default trajectory")
    p.add_argument("--variant",
                   choices=("both", ranktest.CORRECTED,
                            ranktest.MIAO_AS_PRINTED),
                   default="both")
    _add_sim_flags(p)
    p.add_argument("--output", choices=("json", "pretty"), default="json")

    p = subs.add_parser("parse", help="validate a model file")
    p.add_argument("file", help="path to a model file")
    p.add_argument("--output", choices=("json", "pretty"), default="pretty")

    return parser


# ------------------------------------------------------------ subcommands
#
# Each returns (exit code, JSON payload, pretty lines).

def _cmd_verify_identities(args):
    checks = transform.verify_identities()
    ok = all(ch.holds for ch in checks)
    payload = {"identities": [{"name": ch.name, "pass": ch.holds}
                              for ch in checks],
               "all_pass": ok}
    return (0 if ok else _MATH_FAIL, payload,
            [f"d/dt {ch.name} identity: {'PASS' if ch.holds else 'FAIL'}"
             for ch in checks])


def _cmd_rank(args):
    try:
        primes = ranktest.DEFAULT_PRIMES if args.primes is None \
            else tuple(int(x) for x in args.primes.split(","))
    except ValueError:
        raise _Failure(_USAGE_ERROR, "error: --primes wants comma-separated "
                                     "integers") from None
    with _failing(_USAGE_ERROR, ValueError), \
            _failing(_MATH_FAIL, ranktest.PrimeDisagreement,
                     ranktest.ExhaustedRetries):
        report = ranktest.run_rank_test(mode=args.mode, variant=args.variant,
                                        trials=args.trials, seed=args.seed,
                                        primes=primes)
    d = report.to_dict()
    return 0, d, [f"mode {d['mode']} variant {d['variant']}: generic rank "
                  f"{d['generic_rank']} over {d['trials']} trials x "
                  f"{len(d['primes'])} primes "
                  f"(observed {d['observed_ranks']}, structured point "
                  f"{d['structured_point_rank']}, {d['elapsed_ms']} ms)"]


def _sim_inputs(args):
    """(init, eta, cfg) from the shared simulation flags."""
    from . import sim

    parts = args.init.split(",")
    if len(parts) != 3:
        raise ValueError("--init wants three comma-separated numbers")
    init = [float(x) for x in parts]
    if not all(map(math.isfinite, init)):
        raise ValueError("--init wants finite numbers")
    if args.grid > _MAX_SAMPLES:
        raise ValueError(f"--grid wants at most {_MAX_SAMPLES:,} points")
    eta = sim.EtaSignal.from_text(args.eta)
    cfg = sim.SimConfig(t0=args.t0, tf=args.tf, abs_tol=args.tol,
                        rel_tol=args.tol, dense_output_points=args.grid)
    return init, eta, cfg


def _parse_sweep(text: str, grid: int):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--sweep wants LO:HI:N")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--sweep wants finite LO and HI")
    if n < 1:
        raise ValueError("--sweep wants N >= 1")
    if n * grid > _MAX_SAMPLES:
        raise ValueError(f"--sweep N x --grid = {n:,} x {grid:,} is more "
                         f"than {_MAX_SAMPLES:,} samples")
    if n == 1:
        return [lo]
    stepw = (hi - lo) / (n - 1)
    taus = [lo + i * stepw for i in range(n)]
    if not all(map(math.isfinite, taus)):
        # HI - LO, or a tau near the float limit, overflowed
        raise ValueError("--sweep spans more than the float range")
    return taus


def _cmd_simulate(args):
    from . import sim

    with _failing(_USAGE_ERROR, ValueError, expr.ExprError):
        init, eta, cfg = _sim_inputs(args)
        if (args.tau is None) == (args.sweep is None):
            raise ValueError("pass exactly one of --tau or --sweep")
        if args.tau is not None and not math.isfinite(args.tau):
            raise ValueError("--tau wants a finite number")
        if args.sweep is not None and args.csv is not None:
            raise ValueError("--csv works with a single --tau only")
        if args.sweep is not None and args.output == "csv":
            raise ValueError("--output csv works with a single --tau only")
        if args.sweep is not None:
            taus = _parse_sweep(args.sweep, args.grid)
        params = _params_from_args(args)

    with _failing(_MATH_FAIL, ValueError, expr.ExprError):
        if args.sweep is not None:
            reports = sim.tau_sweep(params, init, eta, taus, cfg)
        else:
            report, orig, prim = sim.run_indistinguishability(
                params, init, eta, args.tau, cfg)
            reports = [report]
    if args.csv:
        # opened only now, so a run that fails leaves the file as it was
        with _failing(_USAGE_ERROR, OSError), \
                open(args.csv, "w", newline="") as fh:
            sim.write_trajectory_csv(fh, orig, prim)
    if args.output == "csv":
        sim.write_trajectory_csv(sys.stdout, orig, prim)
    payload = [r.to_dict() for r in reports]
    return 0, payload[0] if args.tau is not None else payload, [
        f"tau {r.tau:+.6g}: output dev {r.max_rel_output_dev:.3e}, "
        f"state-map dev {r.max_rel_state_map_dev:.3e}" for r in reports]


def _cmd_phi_check(args):
    from . import sim

    with _failing(_USAGE_ERROR, ValueError, expr.ExprError):
        init, eta, cfg = _sim_inputs(args)
        params = _params_from_args(args)

    pd = params.as_dict()
    with _failing(_MATH_FAIL, ValueError, expr.ExprError):
        trajectory = sim.integrate(model.hiv_model(), pd, init, eta, cfg)
        variants = [ranktest.CORRECTED, ranktest.MIAO_AS_PRINTED] \
            if args.variant == "both" else [args.variant]
        residuals = sim.phi_residuals_along(trajectory, params, eta,
                                            variants)

    ok = True
    if ranktest.CORRECTED in residuals:
        ok = ok and residuals[ranktest.CORRECTED] < _PHI_CORRECTED_MAX
    if ranktest.MIAO_AS_PRINTED in residuals:
        ok = ok and residuals[ranktest.MIAO_AS_PRINTED] > _PHI_MIAO_MIN

    payload = {
        "residuals": residuals,
        "thresholds": {"corrected_max": _PHI_CORRECTED_MAX,
                       "miao_min": _PHI_MIAO_MIN},
        "pass": ok,
        "params": pd,
        "eta": eta.text(),
        "config": cfg.to_dict(),
    }
    lines = [f"{v}: max scaled residual {r:.3e}" for v, r in residuals.items()]
    return 0 if ok else _MATH_FAIL, payload, lines + ["PASS" if ok else "FAIL"]


def _cmd_parse(args):
    with _failing(_USAGE_ERROR, OSError, UnicodeDecodeError), \
            open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    with _failing(_USAGE_ERROR, expr.ExprError, prefix=args.file):
        m = model.parse_model(text)
    payload = {
        "name": m.name,
        "states": [s.name for s in m.states],
        "params": [s.name for s in m.const_params],
        "tvparams": [s.name for s in m.tv_params],
        "outputs": list(m.output_names),
    }
    return 0, payload, [f"model {m.name}: {len(m.states)} states, "
                        f"{len(m.const_params)} params, "
                        f"{len(m.tv_params)} tvparams, "
                        f"{len(m.outputs)} outputs"]


_COMMANDS = {
    "verify-identities": _cmd_verify_identities,
    "rank": _cmd_rank,
    "simulate": _cmd_simulate,
    "phi-check": _cmd_phi_check,
    "parse": _cmd_parse,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract when called
        # in-process as well
        return int(exc.code) if exc.code is not None else 0
    try:
        with _failing(_MATH_FAIL, expr.ExpressionTooLarge):
            code, payload, lines = _COMMANDS[args.command](args)
        if args.output == "json":
            print(json.dumps(payload, indent=2))
        elif args.output == "pretty":
            print("\n".join(lines))
        sys.stdout.flush()
        return code
    except _Failure as exc:
        code, line = exc.args
        print(line, file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader went away: what is still buffered goes to devnull, so
        # the interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _MATH_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
