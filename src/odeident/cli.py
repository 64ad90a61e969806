"""Command-line entry point.

Subcommands:
  verify-identities   symbolic check of the transformed-dynamics identities
  rank                randomized generic-rank report (naive or constrained)
  simulate            indistinguishability experiment for one tau or a sweep
  phi-check           relation residual along a simulated trajectory
  parse               validate a model file

Exit codes: 0 success / all checks pass, 1 a mathematical check failed,
2 usage error (bad flags, malformed input files). JSON output is
deterministic for identical invocations; elapsed times live in their own
field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import expr, model, ranktest, sim, transform

_USAGE_ERROR = 2
_MATH_FAIL = 1

_PHI_CORRECTED_MAX = 1e-6
_PHI_MIAO_MIN = 1e-2


def _params_from_args(args) -> transform.Params:
    return transform.Params(lam=args.lam, delta=args.delta, rho=args.rho,
                            c=args.c, N=args.N)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="production rate (default 1)")
    p.add_argument("--rho", type=float, default=1.0,
                   help="uninfected-cell clearance rate (default 1)")
    p.add_argument("--delta", type=float, default=1.0,
                   help="infected-cell clearance rate (default 1)")
    p.add_argument("--N", type=float, default=1.0,
                   help="virions per infected cell (default 1)")
    p.add_argument("--c", type=float, default=1.0,
                   help="virus clearance rate (default 1)")


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
    _add_param_flags(p)


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

def _cmd_verify_identities(args) -> int:
    checks = transform.verify_identities()
    if args.output == "json":
        payload = {"identities": [{"name": ch.name, "pass": ch.holds}
                                  for ch in checks],
                   "all_pass": all(ch.holds for ch in checks)}
        print(json.dumps(payload, indent=2))
    else:
        for ch in checks:
            print(f"d/dt {ch.name} identity: {'PASS' if ch.holds else 'FAIL'}")
    return 0 if all(ch.holds for ch in checks) else _MATH_FAIL


def _cmd_rank(args) -> int:
    primes = ranktest.DEFAULT_PRIMES
    if args.primes:
        try:
            primes = tuple(int(x) for x in args.primes.split(","))
        except ValueError:
            print("--primes wants comma-separated integers", file=sys.stderr)
            return _USAGE_ERROR
    try:
        report = ranktest.run_rank_test(mode=args.mode, variant=args.variant,
                                        trials=args.trials, seed=args.seed,
                                        primes=primes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (ranktest.PrimeDisagreement, ranktest.ExhaustedRetries) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _MATH_FAIL
    if args.output == "json":
        print(report.to_json())
    else:
        d = report.to_dict()
        print(f"mode {d['mode']} variant {d['variant']}: generic rank "
              f"{d['generic_rank']} over {d['trials']} trials x "
              f"{len(d['primes'])} primes "
              f"(observed {d['observed_ranks']}, structured point "
              f"{d['structured_point_rank']}, {d['elapsed_ms']} ms)")
    return 0


def _sim_inputs(args):
    """(init, eta, cfg) from the shared simulation flags."""
    parts = args.init.split(",")
    if len(parts) != 3:
        raise ValueError("--init wants three comma-separated numbers")
    init = [float(x) for x in parts]
    if not all(map(math.isfinite, init)):
        raise ValueError("--init wants finite numbers")
    eta = sim.EtaSignal.from_text(args.eta)
    cfg = sim.SimConfig(t0=args.t0, tf=args.tf, abs_tol=args.tol,
                        rel_tol=args.tol, dense_output_points=args.grid)
    return init, eta, cfg


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--sweep wants LO:HI:N")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--sweep wants finite LO and HI")
    if n < 1:
        raise ValueError("--sweep wants N >= 1")
    if n == 1:
        return [lo]
    stepw = (hi - lo) / (n - 1)
    return [lo + i * stepw for i in range(n)]


def _cmd_simulate(args) -> int:
    try:
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
            taus = _parse_sweep(args.sweep)
    except (ValueError, expr.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR

    params = _params_from_args(args)
    try:
        if args.sweep is not None:
            reports = sim.tau_sweep(params, init, eta, taus, cfg)
        else:
            report, orig, prim = sim.run_indistinguishability(
                params, init, eta, args.tau, cfg)
            reports = [report]
            if args.csv:
                with open(args.csv, "w", newline="") as fh:
                    sim.write_trajectory_csv(fh, orig, prim)
    except (ValueError, expr.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _MATH_FAIL

    if args.output == "csv":
        sim.write_trajectory_csv(sys.stdout, orig, prim)
    elif args.output == "json":
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if args.tau is not None else payload,
                         indent=2))
    else:
        for r in reports:
            print(f"tau {r.tau:+.6g}: output dev {r.max_rel_output_dev:.3e}, "
                  f"state-map dev {r.max_rel_state_map_dev:.3e}")
    return 0


def _cmd_phi_check(args) -> int:
    try:
        init, eta, cfg = _sim_inputs(args)
    except (ValueError, expr.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR

    params = _params_from_args(args)
    pd = params.as_dict()
    try:
        trajectory = sim.integrate(model.hiv_model(), pd, init, eta, cfg)
        variants = [ranktest.CORRECTED, ranktest.MIAO_AS_PRINTED] \
            if args.variant == "both" else [args.variant]
        residuals = sim.phi_residuals_along(trajectory, params, eta,
                                            variants)
    except (ValueError, expr.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _MATH_FAIL

    ok = True
    if ranktest.CORRECTED in residuals:
        ok = ok and residuals[ranktest.CORRECTED] < _PHI_CORRECTED_MAX
    if ranktest.MIAO_AS_PRINTED in residuals:
        ok = ok and residuals[ranktest.MIAO_AS_PRINTED] > _PHI_MIAO_MIN

    if args.output == "json":
        payload = {
            "residuals": residuals,
            "thresholds": {"corrected_max": _PHI_CORRECTED_MAX,
                           "miao_min": _PHI_MIAO_MIN},
            "pass": ok,
            "params": pd,
            "eta": eta.text(),
            "config": cfg.to_dict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        for v, r in residuals.items():
            print(f"{v}: max scaled residual {r:.3e}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else _MATH_FAIL


def _cmd_parse(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    try:
        m = model.parse_model(text)
    except expr.ExprError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    if args.output == "json":
        payload = {
            "name": m.name,
            "states": [s.name for s in m.states],
            "params": [s.name for s in m.const_params],
            "tvparams": [s.name for s in m.tv_params],
            "outputs": list(m.output_names),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"model {m.name}: {len(m.states)} states, "
              f"{len(m.const_params)} params, {len(m.tv_params)} tvparams, "
              f"{len(m.outputs)} outputs")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract when called
        # in-process as well
        return int(exc.code) if exc.code is not None else 0
    handlers = {
        "verify-identities": _cmd_verify_identities,
        "rank": _cmd_rank,
        "simulate": _cmd_simulate,
        "phi-check": _cmd_phi_check,
        "parse": _cmd_parse,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
