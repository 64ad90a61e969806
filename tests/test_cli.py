"""Command-line surface: subcommands, exit codes, schema-stable JSON."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from odeident import cli, expr, ranktest, sim
from odeident.transform import Params

ONES = Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)

REPO_MODEL = Path(__file__).parent.parent / "models" / "hiv.ode"

# the error line of a constant past expr's bound
_PAST_THE_BOUND = ("a constant would pass the limit of 13,288 bits (about "
                   "4,000 digits)")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------- verify-identities

def test_verify_identities_pretty(capsys):
    code, out, _ = run(capsys, "verify-identities")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3
    assert all(l.endswith("PASS") for l in lines)


def test_expansion_past_the_size_limit_prints_only_the_error_line(
        capsys, monkeypatch):
    monkeypatch.setattr(expr, "_MAX_PRODUCT_TERMS", 10)
    code, out, err = run(capsys, "verify-identities")
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: expanding a product of ")


def test_verify_identities_json(capsys):
    code, out, _ = run(capsys, "verify-identities", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert [x["name"] for x in payload["identities"]] == ["T_U'", "T_I'", "V'"]


# ----------------------------------------------------------------- rank

def test_rank_requires_seed(capsys):
    code, _, err = run(capsys, "rank", "--mode", "naive")
    assert code == 2
    assert "--seed" in err


def test_rank_json_schema_and_value(capsys):
    code, out, _ = run(capsys, "rank", "--mode", "naive", "--trials", "3",
                       "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["generic_rank"] == 5
    assert payload["mode"] == "naive"
    assert set(payload) == {"mode", "variant", "trials", "primes",
                            "observed_ranks", "generic_rank", "seed",
                            "elapsed_ms", "structured_point_rank"}


def test_rank_json_is_deterministic(capsys):
    _, out1, _ = run(capsys, "rank", "--mode", "constrained", "--trials", "3",
                     "--seed", "11")
    _, out2, _ = run(capsys, "rank", "--mode", "constrained", "--trials", "3",
                     "--seed", "11")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a) == json.dumps(b)


def test_rank_bad_primes_flag(capsys):
    code, _, err = run(capsys, "rank", "--seed", "1", "--primes", "abc")
    assert code == 2
    code, _, err = run(capsys, "rank", "--seed", "1", "--primes", "101,103")
    assert code == 2
    assert "2^60" in err
    # the prime 2^89 - 1 lies beyond the proven range of the primality test
    code, _, err = run(capsys, "rank", "--seed", "1", "--primes",
                       f"{2**89 - 1},4611686018427388039")
    assert code == 2
    assert err.startswith("error:") and "318665857834031151167461" in err


def test_rank_primes_that_are_not_integers_print_one_error_line(capsys):
    code, out, err = run(capsys, "rank", "--seed", "7", "--primes", "abc")
    assert code == 2
    assert out == ""
    assert err == "error: --primes wants comma-separated integers\n"


def test_rank_empty_primes_is_usage_error(capsys):
    # an empty list used to run silently with the default primes
    code, out, err = run(capsys, "rank", "--seed", "7", "--primes", "")
    assert code == 2
    assert out == ""
    assert err == "error: --primes wants comma-separated integers\n"


def test_rank_pretty_output(capsys):
    code, out, _ = run(capsys, "rank", "--seed", "7", "--trials", "3",
                       "--output", "pretty")
    assert code == 0
    assert re.fullmatch(
        r"mode constrained variant corrected: generic rank 4 over 3 trials "
        r"x 3 primes \(observed \{'4': 9\}, structured point 4, \d+ ms\)\n",
        out)


def test_rank_unknown_flag(capsys):
    code, _, _ = run(capsys, "rank", "--seed", "1", "--bogus")
    assert code == 2


@pytest.mark.parametrize("error", [ranktest.PrimeDisagreement,
                                   ranktest.ExhaustedRetries])
def test_rank_failed_verdict_prints_one_line_and_exits_1(capsys, monkeypatch,
                                                         error):
    # neither is met on the bundled model with proven primes, so the
    # pipeline is stood in for by one that raises
    def failing(**kwargs):
        raise error("per-prime generic ranks differ: p->4, q->5")

    monkeypatch.setattr(ranktest, "run_rank_test", failing)
    code, out, err = run(capsys, "rank", "--seed", "7")
    assert code == 1
    assert out == ""
    assert err == "error: per-prime generic ranks differ: p->4, q->5\n"


# --------------------------------------------------------------- simulate

def test_simulate_tau_zero(capsys):
    code, out, _ = run(capsys, "simulate", "--tau", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_rel_output_dev"] < 1e-12
    assert payload["max_rel_state_map_dev"] < 1e-12
    assert payload["params_prime"] == payload["params"]
    assert payload["admissible_tau_interval"] == [None, None]


def test_simulate_needs_exactly_one_of_tau_or_sweep(capsys):
    code, _, err = run(capsys, "simulate")
    assert code == 2
    code, _, err = run(capsys, "simulate", "--tau", "0", "--sweep", "0:1:2")
    assert code == 2


@pytest.mark.parametrize("flags, line", [
    (["--tau", "0.5", "--init", "1,1"],
     "--init wants three comma-separated numbers"),
    (["--sweep", "0:1"], "--sweep wants LO:HI:N"),
    (["--sweep", "0:1:0"], "--sweep wants N >= 1"),
])
def test_malformed_simulate_flags_are_usage_errors(capsys, flags, line):
    code, out, err = run(capsys, "simulate", *flags)
    assert code == 2
    assert out == "" and err == f"error: {line}\n"


def test_simulate_sweep_pretty_output(capsys):
    code, out, _ = run(capsys, "simulate", "--sweep=0:1:3", "--output",
                       "pretty")
    assert code == 0
    lines = out.splitlines()
    assert [l.split(":")[0] for l in lines] == ["tau +0", "tau +0.5", "tau +1"]
    for l in lines:
        assert re.fullmatch(r"tau [+-][\d.]+: output dev \d\.\d{3}e[+-]\d+, "
                            r"state-map dev \d\.\d{3}e[+-]\d+", l)


def test_simulate_sweep(capsys):
    # the = form keeps argparse from reading the leading minus as a flag
    code, out, _ = run(capsys, "simulate", "--sweep=-0.5:0.5:3", "--tf", "4")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 3
    assert [r["tau"] for r in payload] == [-0.5, 0.0, 0.5]


def test_simulate_singular_tau_fails_mathematically(capsys):
    code, _, err = run(capsys, "simulate", "--tau", "5", "--delta", "2",
                       "--rho", "0.5")
    assert code == 1
    assert "admissible" in err


def test_simulate_csv_export(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--tau", "0.2", "--tf", "2",
                     "--grid", "5", "--csv", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,T_U,T_I,V,y1,y2,T_U_p,T_I_p,V_p,y1_p,y2_p"
    assert len(lines) == 6


def test_simulate_csv_with_sweep_rejected(capsys):
    code, _, _ = run(capsys, "simulate", "--sweep", "0:1:2", "--csv", "/tmp/x.csv")
    assert code == 2
    code, _, _ = run(capsys, "simulate", "--sweep", "0:1:2", "--output", "csv")
    assert code == 2


def test_simulate_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "simulate", "--tau", "0.2", "--tf", "1",
                       "--grid", "3", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,T_U,T_I,V,y1,y2,T_U_p,T_I_p,V_p,y1_p,y2_p"
    assert len(lines) == 4


def test_simulate_csv_to_a_path_that_cannot_be_written_is_usage_error(
        tmp_path, capsys):
    for path in (tmp_path / "no" / "such" / "dir.csv", tmp_path):
        code, out, err = run(capsys, "simulate", "--tau", "0.5", "--csv",
                             str(path))
        assert code == 2
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: [Errno ") and str(path) in err


def test_a_failed_run_leaves_an_existing_csv_file_as_it_was(tmp_path,
                                                             capsys):
    out_csv = tmp_path / "traj.csv"
    out_csv.write_text("kept\n")
    code, _, err = run(capsys, "simulate", "--tau", "0.5", "--eta", "1/(t-1)",
                       "--csv", str(out_csv))
    assert code == 1 and err == "error: eta is not finite on the window\n"
    assert out_csv.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["rank", "--seed", "7", "--trials", "5", "--output", "pretty"],
    ["simulate", "--tau", "0.5", "--output", "csv"],
], ids=["rank pretty", "simulate csv"])
def test_a_reader_that_closes_early_ends_the_run_with_exit_1(argv):
    # a new interpreter, on this odeident, whose standard output is a pipe
    # with its read end already closed: the first write fails with EPIPE
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "odeident.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_simulate_bad_eta_expression(capsys):
    code, _, err = run(capsys, "simulate", "--tau", "0", "--eta", "0.5")
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["phi-check"]])
@pytest.mark.parametrize("eta, line", [
    ("t^x", "1:3: integer exponent expected"),
    ("t + )", "1:5: unexpected token ')'"),
    # a digit to str.isdigit, but no number to int
    ("t^\u00b2", "1:3: unexpected character '\u00b2'"),
    # constants past the bound, refused before the power is computed
    ("10^99999999*t", _PAST_THE_BOUND),
    ("3^9100/(3^9100+1)/2", _PAST_THE_BOUND),
])
def test_malformed_eta_is_usage_error(capsys, command, eta, line):
    code, out, err = run(capsys, *command, "--eta", eta)
    assert code == 2
    assert out == "" and err == f"error: {line}\n"


def test_simulate_undeclared_eta_symbol_is_usage_error(capsys):
    code, _, err = run(capsys, "simulate", "--tau", "0", "--eta", "x")
    assert code == 2
    assert err.startswith("error:") and "undeclared symbol 'x'" in err


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["phi-check"]])
def test_eta_pole_at_start_fails_mathematically(capsys, command):
    code, _, err = run(capsys, *command, "--eta", "1/t")
    assert code == 1
    assert "error:" in err


def test_eta_pole_inside_the_window_fails_before_integrating(capsys):
    # t = 5 is a grid point; without the grid check the run grinds
    # toward the pole for minutes
    code, _, err = run(capsys, "simulate", "--tau", "0.5",
                       "--eta", "1/(t-5)^2")
    assert code == 1
    assert err == "error: eta is not finite on the window\n"


@pytest.mark.parametrize("flags, window", [
    (["--tf", "1e308"], r"\[0\.0, 1e\+308\] \(0%\)"),
    (["--eta", "1/(t-5)^2", "--grid", "400"], r"\[0\.0, 10\.0\] \(50%\)"),
], ids=["huge window", "pole between grid points"])
def test_endless_run_stops_at_the_step_budget(capsys, monkeypatch, flags,
                                              window):
    # both used to run on without end; the real budget of 100,000 attempts
    # stops each in about 4 s, and a smaller one takes the same path sooner
    monkeypatch.setattr(sim, "_MAX_ATTEMPTS", 5000)
    code, out, err = run(capsys, "simulate", "--tau", "0.5", *flags)
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert re.fullmatch(r"error: no end after 5000 step attempts, at t = "
                        rf"\S+ of {window}, for tau = 0\.5\n", err)


@pytest.mark.parametrize("flag, budget, failure, where", [
    ("--tau=-1", None, "step size underflow at t =",
     "tau = -1 (eta' has its pole at T_I/T_U = 0.582)"),
    # the sweep underflows only after about 50,000 step attempts (20 s); a
    # smaller budget stops it sooner, and the failure names the twins alike
    ("--sweep=-1:1.5:20", 2000, "no end after 2000 step attempts, at t =",
     "tau in [-1, 1.5] (the twins' eta' have poles at T_I/T_U from 0.582 "
     "to 12.2)"),
], ids=["single", "sweep"])
def test_negative_tau_failure_names_the_tau_and_the_pole(
        capsys, monkeypatch, flag, budget, failure, where):
    # at the default init T_I/T_U = 1 the original trajectory runs into the
    # ratio rho*u/(delta*(1-u)) where a twin with u < 1 divides by zero
    if budget is not None:
        monkeypatch.setattr(sim, "_MAX_ATTEMPTS", budget)
    code, out, err = run(capsys, "simulate", flag)
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {failure} ")
    assert err.endswith(f", for {where}\n")


@pytest.mark.parametrize("flag", ["--tau=-0.6931471805599453",
                                  "--sweep=-0.6931471805599453:0.5:2"],
                         ids=["single", "sweep"])
def test_a_twin_on_its_eta_prime_pole_is_named(capsys, flag):
    # from the default start, T_I/T_U = 1, the twin with u = 1/2 starts on
    # its pole; a sweep names that twin as its single run does
    code, out, err = run(capsys, "simulate", flag)
    assert code == 1 and out == ""
    assert err == ("error: eta' denominator 0.0 vanishes relative to scale "
                   "1.0, for tau = -0.693147 (eta' has its pole at "
                   "T_I/T_U = 1)\n")


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["simulate", "--sweep=0:1:3"],
                                     ["phi-check"]])
def test_eta_pole_prints_only_the_error_line(capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *command, "--eta", "1/t")
    assert code == 1
    assert out == "" and err == "error: eta is not finite on the window\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command, where", [
    (["simulate", "--tau", "0.5"], ", for tau = 0.5"),
    (["phi-check"], ""),
], ids=["simulate", "phi-check"])
def test_eta_pole_at_a_stage_time_prints_only_the_error_line(capsys, command,
                                                             where):
    # the 400-point grid misses t = 1/40, where the first step's first
    # stage lands; the pole is met inside the compiled vector field
    code, out, err = run(capsys, *command, "--eta", "1/(t - 1/40)^2",
                         "--grid", "400")
    assert code == 1
    assert out == "" and err == f"error: float division by zero{where}\n"


@pytest.mark.parametrize("command, where", [
    (["simulate", "--tau", "0.5"], ", for tau = 0.5"),
    (["simulate", "--sweep=0:1:3"], ", for tau in [0, 1]"),
    (["phi-check"], ""),
], ids=["simulate", "sweep", "phi-check"])
def test_eta_overflow_between_grid_points_prints_only_the_error_line(
        capsys, command, where):
    # eta is finite on the grid, but a power of a Python float overflows
    # at a stage between grid points, in the step from 0 to 0.02 that
    # holds the pole at t = 1/80
    code, out, err = run(capsys, *command, "--eta", "(t - 1/80)^-150")
    assert code == 1
    assert out == ""
    assert err == ("error: derivative overflows in the step from t = 0.0 "
                   f"to 0.020000000000000004{where}\n")


def test_simulate_sweep_matches_tau_sweep(capsys):
    code, out, _ = run(capsys, "simulate", "--sweep=-0.5:0.5:3", "--tf", "2",
                       "--init", "1,0.2,1")
    assert code == 0
    reports = sim.tau_sweep(ONES, [1.0, 0.2, 1.0],
                            sim.EtaSignal.from_text("1/2"),
                            [-0.5, 0.0, 0.5], sim.SimConfig(tf=2.0))
    assert json.loads(out) == [r.to_dict() for r in reports]


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["simulate", "--sweep=0:1:3"],
                                     ["phi-check"]])
@pytest.mark.parametrize("window", [["--tf", "inf"], ["--tf", "nan"],
                                    ["--t0=-1e308", "--tf", "1e308"]])
def test_non_finite_window_is_usage_error(capsys, command, window):
    # an infinite window made a NaN grid, integrated nothing and passed; a
    # window whose width overflows warned twice and spent the step budget
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *command, *window)
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["simulate", "--sweep=0:1:3"],
                                     ["phi-check"]])
@pytest.mark.parametrize("init", ["nan,0.2,1", "1,0.2,inf", "1,-inf,1"])
def test_non_finite_init_is_usage_error(capsys, command, init):
    # it used to pass the flags and fail in the integrator with exit 1
    code, out, err = run(capsys, *command, "--init", init)
    assert code == 2
    assert out == "" and err == "error: --init wants finite numbers\n"


@pytest.mark.parametrize("flag", ["--tau=nan", "--tau=inf", "--tau=-inf",
                                  "--sweep=nan:1:3", "--sweep=0:inf:3",
                                  "--sweep=-inf:0:1"])
def test_non_finite_tau_is_usage_error(capsys, flag):
    # it used to exit 1 blaming a positive u or a pole of eta'
    code, out, err = run(capsys, "simulate", flag)
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("sweep", ["--sweep=-1e308:1e308:3",
                                   "--sweep=0:1.7976931348623157e308:4"])
def test_sweep_beyond_the_float_range_is_usage_error(capsys, sweep):
    # HI - LO overflowed to inf, and the first tau, LO + 0 * inf, was nan
    code, out, err = run(capsys, "simulate", sweep)
    assert code == 2
    assert out == "" and err == "error: --sweep spans more than the float range\n"


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["phi-check"]])
def test_eta_constant_beyond_the_float_range_is_usage_error(capsys, command):
    # binding 10^400 as a float raised OverflowError, a traceback and exit 1
    code, out, err = run(capsys, *command, "--eta", "10^400")
    assert code == 2
    assert out == "" and err == "error: a constant is outside the float64 range\n"


@pytest.mark.parametrize("n, grid", [(1, cli._MAX_SAMPLES), (3750, 400)])
def test_sweep_at_the_sample_limit_passes_and_one_more_fails(n, grid):
    assert n * grid == cli._MAX_SAMPLES
    assert len(cli._parse_sweep(f"0:1:{n}", grid)) == n
    for over in (f"0:1:{n + 1}", grid), (f"0:1:{n}", grid + 1):
        with pytest.raises(ValueError, match="samples"):
            cli._parse_sweep(*over)


@pytest.mark.parametrize("command, runs", [(["simulate", "--tau", "0.5"], 1),
                                           (["simulate", "--sweep=0:1:3"], 3),
                                           (["phi-check"], 1)])
def test_a_run_past_the_sample_limit_is_usage_error(capsys, monkeypatch,
                                                    command, runs):
    monkeypatch.setattr(cli, "_MAX_SAMPLES", runs * 20)
    code, _, _ = run(capsys, *command, "--grid", "20")
    assert code == 0
    code, out, err = run(capsys, *command, "--grid", "21")
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_grid_past_the_sample_limit_is_usage_error(capsys):
    code, out, err = run(capsys, "simulate", "--tau", "0.5", "--grid",
                         str(cli._MAX_SAMPLES + 1))
    assert code == 2
    assert out == "" and err == (
        f"error: --grid wants at most {cli._MAX_SAMPLES:,} points\n")


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["simulate", "--sweep=0:1:3"],
                                     ["phi-check"]])
@pytest.mark.parametrize("flag", ["--lambda", "--rho", "--delta", "--N", "--c"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_parameter_is_usage_error(capsys, command, flag, value):
    # an infinite N or c used to fail in the integrator ("step size
    # underflow"), and a nan rho as a nonpositive parameter, with exit 1
    code, out, err = run(capsys, *command, f"{flag}={value}")
    assert code == 2
    assert out == "" and err == f"error: {flag} wants a finite number\n"


@pytest.mark.parametrize("flag", ["--tau=1000", "--tau=-1000",
                                  "--sweep=0:800:3"])
def test_tau_whose_u_is_not_finite_fails_mathematically(capsys, flag):
    # e^(rho tau) overflowing in math.exp used to escape as a traceback
    code, out, err = run(capsys, "simulate", flag)
    assert code == 1
    assert out == "" and err.startswith("error: u = e^(rho tau)")
    assert err.count("\n") == 1


def test_simulate_window_too_short_for_a_step(capsys):
    code, out, _ = run(capsys, "simulate", "--tau", "0.5", "--tf", "1e-14")
    assert code == 0
    assert json.loads(out)["max_rel_state_map_dev"] == 0.0


# a window of 1e-12 at t = 5: a hundredth of it lies below the resolvable
# step, 1e-14 * 5, so the first step starts at that floor instead
@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["phi-check", "--variant", "corrected"]],
                         ids=["simulate", "phi-check"])
def test_a_short_window_away_from_zero_integrates(capsys, command):
    code, out, err = run(capsys, *command, "--t0", "5",
                         "--tf", "5.000000000001")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["config"]["tf"] == 5.000000000001
    if "max_rel_state_map_dev" in payload:
        assert payload["max_rel_state_map_dev"] < 1e-15


# --------------------------------------------------------------- phi-check

def test_phi_check_both_variants(capsys):
    code, out, _ = run(capsys, "phi-check")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["residuals"]["corrected"] < 1e-6
    assert payload["residuals"]["miao"] > 1e-2


def test_phi_check_single_variant(capsys):
    code, out, _ = run(capsys, "phi-check", "--variant", "corrected",
                       "--output", "pretty")
    assert code == 0
    assert "PASS" in out


def test_phi_check_printed_variant_alone_fails(capsys):
    # the printed variant alone must NOT look consistent with the dynamics
    code, out, _ = run(capsys, "phi-check", "--variant", "miao")
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["miao"] > 1e-2


# ---------------------------------------------------------- golden outputs
# stored from `simulate --tau T --eta E --output json`, the sha256 of the
# same run with `--output csv`, `simulate --sweep ... --output json` keyed
# by its flags, and `phi-check --output json`; every float is printed by
# repr, so equal reports mean bit-identical trajectories

GOLDEN = Path(__file__).parent / "golden"
SIMULATE_GOLDEN = json.loads((GOLDEN / "simulate_tau_runs.json").read_text())
SWEEP_GOLDEN = json.loads((GOLDEN / "simulate_sweeps.json").read_text())
# the second sweep's eta varies in time; the third holds the u == 1 twin
SWEEP_RUNS = [
    ["--sweep=-1:1.5:20", "--init", "1,0.2,1", "--eta", "1/2"],
    ["--sweep=-1:1.5:20", "--init", "1,0.2,1", "--eta", "1/2 + t/20"],
    ["--sweep=0:1:20"],
]


@pytest.mark.parametrize("tau", ["0.7", "0", "-0.5"])
@pytest.mark.parametrize("eta", ["1/2", "1/2 + t/20"])
def test_simulate_reports_and_csv_match_the_stored_ones(tmp_path, capsys,
                                                         tau, eta):
    want = SIMULATE_GOLDEN[f"--tau={tau} --eta={eta}"]
    path = tmp_path / "run.csv"
    # --csv writes the bytes --output csv prints, from the same run
    code, out, _ = run(capsys, "simulate", f"--tau={tau}", "--eta", eta,
                       "--output", "json", "--csv", str(path))
    assert code == 0
    assert json.loads(out) == want["report"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want["csv_sha256"]


def test_the_sweep_goldens_are_the_runs_tested():
    assert list(SWEEP_GOLDEN) == [" ".join(argv) for argv in SWEEP_RUNS]


@pytest.mark.parametrize("argv", SWEEP_RUNS,
                         ids=["eta 1/2", "eta 1/2 + t/20", "default"])
def test_simulate_sweep_reports_match_the_stored_ones(capsys, argv):
    code, out, _ = run(capsys, "simulate", *argv, "--output", "json")
    assert code == 0
    assert json.loads(out) == SWEEP_GOLDEN[" ".join(argv)]


def test_phi_check_output_matches_the_stored_one(capsys):
    code, out, _ = run(capsys, "phi-check", "--output", "json")
    assert code == 0
    assert out == (GOLDEN / "phi_check.json").read_text()


# ------------------------------------------------------------------ parse

def test_parse_valid_model(capsys):
    code, out, _ = run(capsys, "parse", str(REPO_MODEL))
    assert code == 0
    assert "3 states" in out


def test_parse_valid_model_json(capsys):
    code, out, _ = run(capsys, "parse", str(REPO_MODEL), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == ["T_U", "T_I", "V"]
    assert payload["outputs"] == ["y1", "y2"]


def test_parse_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.ode"
    bad.write_text("model m\nstates x\node x = x + ghost\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert "3:13" in err and "ghost" in err


@pytest.mark.parametrize("text, where", [
    ("model m\nstates x 2y\n", "2:1: invalid identifier '2y'"),
    ("model 1x\nstates x\node x = -x\n",
     "1:1: model directive needs one identifier"),
    ("states x\node x = -x\n", "1:1: missing 'model <name>' line"),
    ("model m\nparams k\noutput y = k\n", "1:1: model declares no states"),
    ("model m\nstates x\node x -x\n",
     "3:1: 'ode' line needs '<name> = <expression>'"),
    ("model m\nstates x\node x = -x\noutput 9y = x\n",
     "4:8: invalid output name '9y'"),
])
def test_parse_malformed_model_names_the_position(tmp_path, capsys, text,
                                                  where):
    bad = tmp_path / "bad.ode"
    bad.write_text(text)
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert out == "" and err == f"{bad}: {where}\n"


def test_parse_rejects_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "binary.ode"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_parse_missing_file(capsys):
    code, _, _ = run(capsys, "parse", "/does/not/exist.ode")
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


# ------------------------------------------------------ deep and long input

def _hiv_with_virus_rhs(tmp_path, rhs):
    path = tmp_path / "deep.ode"
    path.write_text(REPO_MODEL.read_text().replace(
        "ode V = N*delta*T_I - c*V", f"ode V = {rhs}"))
    return path


@pytest.mark.parametrize("command", ["simulate", "parse"])
def test_parentheses_past_the_nesting_limit_are_usage_errors(
        tmp_path, capsys, command):
    nested = "(" * 260 + "{}" + ")" * 260
    if command == "simulate":
        argv = ["simulate", "--tau", "0.5", "--eta", nested.format("1/2")]
        where = "error: 1:101: "
    else:
        path = _hiv_with_virus_rhs(tmp_path, nested.format("c*V"))
        argv = ["parse", str(path)]
        where = f"{path}: 9:109: "  # the 101st opening parenthesis
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith(where) and "deeper than 100 levels" in err


def test_a_hundred_levels_of_parentheses_and_long_sign_runs_parse(
        tmp_path, capsys):
    for rhs in ("(" * 100 + "c*V" + ")" * 100, "-" * 2000 + "c*V"):
        code, out, err = run(capsys, "parse",
                             str(_hiv_with_virus_rhs(tmp_path, rhs)))
        assert code == 0 and err == ""
        assert out.startswith("model hiv: 3 states")


# -------------------------------------------- constants and number tokens

@pytest.mark.parametrize("rhs, message", [
    # constants past the bound, refused before the power is computed
    ("10^9999999", _PAST_THE_BOUND),
    ("10^99999999", _PAST_THE_BOUND),
    ("3^9100", _PAST_THE_BOUND),
    ("(1/3)^-9100", _PAST_THE_BOUND),
    # a digit to str.isdigit, but no number to int
    ("-c*V^\u00b2", "9:14: unexpected character '\u00b2'"),
    ("7" * 5000 + "*V", "9:9: number longer than 4,000 digits"),
    ("V^" + "7" * 5000, "9:11: number longer than 4,000 digits"),
], ids=["10^9999999", "10^99999999", "3^9100", "(1 over 3)^-9100",
        "superscript two", "long literal", "long exponent"])
def test_a_number_past_its_bound_is_a_one_line_usage_error(tmp_path, capsys,
                                                           rhs, message):
    path = _hiv_with_virus_rhs(tmp_path, rhs)
    code, out, err = run(capsys, "parse", str(path))
    assert code == 2
    assert out == "" and err == f"{path}: {message}\n"


def test_an_eta_constant_under_the_bound_prints_and_reads_back(capsys):
    # numerator and denominator of 3,818 digits each
    eta = "3^8000/(3^8000+1)/2"
    code, out, err = run(capsys, "phi-check", "--eta", eta, "--grid", "3",
                         "--tf", "1")
    assert code == 0 and err == ""
    text = json.loads(out)["eta"]
    assert expr.parse_expression(text) is expr.parse_expression(eta)
