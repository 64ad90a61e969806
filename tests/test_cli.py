"""Command-line surface: subcommands, exit codes, schema-stable JSON."""

import json
import warnings
from pathlib import Path

import pytest

from odeident import cli, sim
from odeident.transform import Params

ONES = Params(lam=1.0, delta=1.0, rho=1.0, c=1.0, N=1.0)

REPO_MODEL = Path(__file__).parent.parent / "models" / "hiv.ode"


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


def test_rank_unknown_flag(capsys):
    code, _, _ = run(capsys, "rank", "--seed", "1", "--bogus")
    assert code == 2


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


def test_simulate_bad_eta_expression(capsys):
    code, _, err = run(capsys, "simulate", "--tau", "0", "--eta", "0.5")
    assert code == 2
    assert "rational" in err


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


@pytest.mark.parametrize("flags", [["--tf", "1e308"],
                                   ["--eta", "1/(t-5)^2", "--grid", "400"]],
                         ids=["huge window", "pole between grid points"])
def test_endless_run_stops_at_the_step_budget(capsys, monkeypatch, flags):
    # both used to run on without end; the real budget of 100,000 attempts
    # stops each in about 4 s, and a smaller one takes the same path sooner
    monkeypatch.setattr(sim, "_MAX_ATTEMPTS", 5000)
    code, out, err = run(capsys, "simulate", "--tau", "0.5", *flags)
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: no end after 5000 step attempts")


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


def test_simulate_sweep_matches_tau_sweep(capsys):
    code, out, _ = run(capsys, "simulate", "--sweep=-0.5:0.5:3", "--tf", "2",
                       "--init", "1,0.2,1")
    assert code == 0
    reports = sim.tau_sweep(ONES, [1.0, 0.2, 1.0], sim.EtaSignal.constant(0.5),
                            [-0.5, 0.0, 0.5], sim.SimConfig(tf=2.0))
    assert json.loads(out) == [r.to_dict() for r in reports]


@pytest.mark.parametrize("command", [["simulate", "--tau", "0.5"],
                                     ["simulate", "--sweep=0:1:3"],
                                     ["phi-check"]])
@pytest.mark.parametrize("window", [["--tf", "inf"], ["--tf", "nan"]])
def test_non_finite_window_is_usage_error(capsys, command, window):
    # an infinite window made a NaN grid, integrated nothing and passed
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
