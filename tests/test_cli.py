import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from truncbell import sequences
from truncbell.cli import main
from truncbell.fps import Poly
from truncbell.sequences import FAMILIES, build_table, trunc_bell_deg

SMALL_SUITE = [
    "suite", "--lambdas", "0,1/2", "--ps", "0,1", "--n-max", "4",
    "--order", "6", "--moment-nodes", "5000",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- table


def test_table_csv_triangle_entry(capsys):
    code, out, _ = run(capsys, "table", "--family", "S2deg", "--lambda", "1/2",
                       "--n-max", "6", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0].split(",")[:3] == ["n", "k=0", "k=1"]
    assert rows[3].split(",")[2] == "1/2"  # entry (n=2, k=1)


def test_table_classical_bell_values(capsys):
    code, out, _ = run(capsys, "table", "--family", "BellClassical", "--n-max", "5")
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "2", "5", "15", "52"]


def test_table_lam_zero_matches_classical_triangle(capsys):
    code_deg, out_deg, _ = run(capsys, "table", "--family", "S2deg", "--lambda", "0",
                               "--n-max", "5")
    code_cls, out_cls, _ = run(capsys, "table", "--family", "S2", "--n-max", "5")
    assert code_deg == code_cls == 0
    assert out_deg == out_cls


def test_table_json_round_trip(capsys):
    # negative rationals need the = form so argparse does not read them as flags
    code, out, _ = run(capsys, "table", "--family", "TruncBellDeg", "--lambda=-1/3",
                       "--p", "2", "--n-max", "5", "--format", "json")
    assert code == 0
    values = json.loads(out)["values"]
    assert values == [trunc_bell_deg(n, 2, Fraction(-1, 3)).to_string() for n in range(6)]


def test_table_rejects_wrong_parameters(capsys):
    code, _, err = run(capsys, "table", "--family", "BellClassical", "--lambda", "1",
                       "--n-max", "4")
    assert code == 2
    assert "does not take" in err


def test_table_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run(capsys, "table", "--family", "S2deg", "--lambda", "1/2",
                         "--n-max", "8", "-o", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------- eval


def test_eval_polynomial_output(capsys):
    code, out, _ = run(capsys, "eval", "--family", "TruncBellDeg", "--lambda", "1/2",
                       "--p", "1", "--n", "2")
    assert code == 0
    assert out == "1/4*x + 1/3*x^2\n"


def test_eval_at_point(capsys):
    code, out, _ = run(capsys, "eval", "--family", "TruncBellDeg", "--p", "0",
                       "--lambda", "0", "--n", "4", "--x", "1")
    assert code == 0
    assert out == "15\n"


def test_eval_bernoulli_number(capsys):
    code, out, _ = run(capsys, "eval", "--family", "BernoulliDeg", "--lambda", "1/3",
                       "--r", "1", "--n", "1", "--x", "0")
    assert code == 0
    assert out == "-1/3\n"


def test_eval_triangular_families(capsys):
    code, out, _ = run(capsys, "eval", "--family", "S2deg", "--lambda", "1/2",
                       "--n", "2", "--k", "1")
    assert code == 0
    assert out == "1/2\n"
    # shifted-argument family evaluated at 0 reduces to the plain triangle
    code, out, _ = run(capsys, "eval", "--family", "S2degPoly", "--lambda", "1/2",
                       "--n", "2", "--k", "1", "--x", "0")
    assert code == 0
    assert out == "1/2\n"


def test_eval_argument_errors(capsys):
    code, _, err = run(capsys, "eval", "--family", "S2deg", "--lambda", "1/2", "--n", "2")
    assert code == 2 and "pass --k" in err
    code, _, err = run(capsys, "eval", "--family", "S2deg", "--lambda", "1/2",
                       "--n", "2", "--k", "5")
    assert code == 2
    code, _, err = run(capsys, "eval", "--family", "BellClassical", "--n", "2", "--x", "1")
    assert code == 2 and "no x argument" in err


# one value for each family parameter: its flag, and the value build_table takes
FAMILY_ARGS = {"lam": ("--lambda=1/3", Fraction(1, 3)), "p": ("--p=2", 2), "r": ("--r=2", 2)}
X = Fraction(1, 3)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_eval_prints_the_table_entry(family, capsys):
    spec = FAMILIES[family]
    flags = [FAMILY_ARGS[name][0] for name in spec.params]
    values = {name: FAMILY_ARGS[name][1] for name in spec.params}
    for n in (0, 5, 12):
        row = build_table(family, n, **values).values[n]
        for k, value in enumerate(row) if spec.triangular else [(None, row)]:
            argv = ["eval", f"--family={family.value}", *flags, f"--n={n}"]
            argv += [] if k is None else [f"--k={k}"]
            if isinstance(value, Poly):
                assert run(capsys, *argv) == (0, value.to_string() + "\n", "")
                assert run(capsys, *argv, f"--x={X}") == (0, f"{value(X)}\n", "")
            else:
                assert run(capsys, *argv) == (0, f"{value}\n", "")


def test_eval_calls_the_entry_function_once(monkeypatch, capsys):
    calls = []
    original = sequences.trunc_mod_bell_deg

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sequences, "trunc_mod_bell_deg", counting)
    code, out, _ = run(capsys, "eval", "--family=TruncModBellDeg", "--lambda=1/2", "--p=2",
                       "--n=6")
    assert (code, out) == (0, original(6, 2, Fraction(1, 2)).to_string() + "\n")
    assert calls == [(6, 2, Fraction(1, 2))]


@pytest.mark.parametrize("argv,message", [
    (("eval", "--family=S2deg", "--lambda=1/2", "--n=2"), "is triangular; pass --k"),
    (("eval", "--family=S2deg", "--lambda=1/2", "--n=2", "--k=5"), "0 <= k <= n, got 5"),
    (("eval", "--family=S2", "--n=2", "--k=-1"), "0 <= k <= n, got -1"),
    (("eval", "--family=BellClassical", "--n=2", "--k=1"), "does not take --k"),
    (("eval", "--family=BellClassical", "--n=2", "--x=1"), "values take no x argument"),
    (("eval", "--family=S2", "--n=-1", "--k=0"), "n must be >= 0, got -1"),
    (("table", "--family=S2", "--n-max=-1"), "n_max must be >= 0, got -1"),
    (("table", "--family=S2deg", "--lambda=1/2", "--p=1", "--n-max=3"),
     "family S2deg does not take a truncation index p"),
    (("eval", "--family=S2deg", "--lambda=1/2", "--p=1", "--n=3", "--k=1"),
     "family S2deg does not take a truncation index p"),
    (("table", "--family=TruncBellDeg", "--lambda=1/2", "--p=-1", "--n-max=3"),
     "p must be >= 0, got -1"),
    (("eval", "--family=TruncModBellDeg", "--lambda=1/2", "--p=-1", "--n=3"),
     "p must be >= 0, got -1"),
    (("table", "--family=BernoulliDeg", "--lambda=1/2", "--r=-1", "--n-max=3"),
     "r must be >= 0, got -1"),
    (("eval", "--family=BernoulliDeg", "--lambda=1/2", "--r=-1", "--n=3"),
     "r must be >= 0, got -1"),
    (("table", "--family=BellDeg", "--lambda=1/2", "--r=1", "--n-max=3"),
     "family BellDeg does not take an order r"),
    (("eval", "--family=BellDeg", "--lambda=1/2", "--r=1", "--n=3"),
     "family BellDeg does not take an order r"),
    (("table", "--family=S2deg", "--n-max=3"), "family S2deg requires a lambda parameter"),
    (("eval", "--family=TruncBellDeg", "--p=1", "--n=3"),
     "family TruncBellDeg requires a lambda parameter"),
])
def test_malformed_family_arguments_are_usage_errors(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (("check", "--id=T1", "--lambda=1/2"), "check T1 requires p"),
    (("check", "--id=L9", "--lambda=1/2", "--k=-1"), "column index must be >= 0, got -1"),
    (("check", "--id=T1", "--lambda=1/2", "--p=-1"), "p must be >= 0, got -1"),
    (("check", "--id=T1", "--lambda=1/2", "--p=1", "--n-max=-1"), "n_max must be >= 0, got -1"),
    (("check", "--id=L9", "--lambda=1/2", "--quad-nodes", "7"),
     "quad_nodes must be a positive even node count"),
    (("check", "--id=S3", "--lambda=1/2", "--p=1", "--moment-nodes", "0"),
     "moment_nodes must be >= 1"),
    (("check", "--id=T11", "--lambda", "5", "--p=1"), "contour checks need |lambda| < 1, got 5"),
    (("suite", "--n-max=-1"), "n_max must be >= 0, got -1"),
    (("suite", "--ps=1,-1"), "p must be >= 0, got -1"),
])
def test_malformed_check_arguments_are_usage_errors(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err and "Traceback" not in err


def test_eval_rejects_float_notation(capsys):
    code, _, err = run(capsys, "eval", "--family", "TruncBellDeg", "--lambda", "0.5",
                       "--p", "1", "--n", "2")
    assert code == 2
    assert "position" in err


def test_eval_rejects_non_ascii_digits(capsys):
    # Arabic-Indic 1/2 and 2, which int() reads as 1/2 and 2
    code, out, err = run(capsys, "eval", "--family", "BellDeg", "--lambda", "\u0661/\u0662",
                         "--n", "3", "--x", "\u0662")
    assert (code, out) == (2, "")
    assert "unexpected character '\u0661' at position 0" in err


# ---------------------------------------------------------------- check


def test_check_exact_identity_passes(capsys):
    code, out, _ = run(capsys, "check", "--id", "T1", "--lambda", "1/3", "--p", "2",
                       "--n-max", "12")
    assert code == 0
    verdicts = json.loads(out)
    assert len(verdicts) == 1
    assert verdicts[0]["id"] == "T1"
    assert verdicts[0]["status"] == "pass"
    assert verdicts[0]["max_residual"] == 0.0


def test_check_numeric_with_tight_tolerance(capsys):
    code, out, _ = run(capsys, "check", "--id", "T4", "--lambda", "1/3", "--p", "2",
                       "--n-max", "8", "--tol-rel", "1e-9")
    assert code == 0
    assert json.loads(out)[0]["params"]["tol_rel"] == 1e-9


def test_check_adjudication_pair_does_not_fail_exit(capsys):
    code, out, _ = run(capsys, "check", "--id", "T6", "--lambda", "1/2", "--p", "3",
                       "--n-max", "6", "--order", "10")
    assert code == 0  # the failing fixed-exponent variant is excluded from exit accounting
    verdicts = json.loads(out)
    assert [v["id"] for v in verdicts] == ["T6", "T6k"]
    assert [v["status"] for v in verdicts] == ["fail", "pass"]


def test_check_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--id", "Z9", "--lambda", "1/2")
    assert code == 2
    assert "invalid choice" in err


def test_check_missing_p_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--id", "T1", "--lambda", "1/2")
    assert code == 2
    assert "requires p" in err


@pytest.mark.parametrize("argv,message", [
    (("--id", "C10", "--k", "-1"), "check C10 does not take k"),
    (("--id", "T2", "--p", "7"), "check T2 does not take p"),
    (("--id", "T14", "--p", "2", "--x-points", "1/3"), "check T14 does not take x_points"),
    (("--id", "T1", "--p", "2", "--quad-nodes", "18"), "check T1 does not take numeric settings"),
    (("--id", "C-SIX", "--p", "2", "--quad-nodes", "18"),
     "check C-SIX does not take numeric settings"),
    (("--id", "T13", "--seed", "7"), "check T13 does not take numeric settings"),
])
def test_check_unused_argument_is_usage_error(argv, message, capsys):
    code, out, err = run(capsys, "check", "--lambda", "1/2", "--n-max", "2", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--id", "S3", "--lambda", "1/2", "--p", "2",
                         "--seed=-1")
    assert code == 2
    assert out == ""
    assert "seed must be >= 0" in err


@pytest.mark.parametrize("flag,message", [
    ("--order=-1", "order must be >= 0, got -1"),
    ("--n-max=-3", "n_max must be >= 0, got -3"),
])
def test_check_negative_size_is_usage_error(flag, message, capsys):
    code, out, err = run(capsys, "check", "--id", "P5b", "--lambda", "1/2", "--p", "1", flag)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_infinite_tolerance_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--id", "T4", "--lambda", "1/3", "--p", "1",
                         "--n-max", "3", "--tol-rel", "inf")
    assert code == 2
    assert out == ""
    assert "tolerances must be finite" in err


def test_check_contour_domain_error(capsys):
    code, _, err = run(capsys, "check", "--id", "T11", "--lambda", "1", "--p", "2")
    assert code == 2
    assert "lambda" in err


@pytest.mark.parametrize("argv", [
    ("--id", "C10"), ("--id", "L9"), ("--id", "T11", "--p", "1"),
])
def test_check_contour_with_aliasing_node_count_is_usage_error(argv, capsys):
    # four nodes alias coefficient n with coefficient N - n: a domain error,
    # not a fail verdict for an identity that holds
    code, out, err = run(capsys, "check", "--lambda=1/2", "--quad-nodes", "4", "--n-max", "10",
                         *argv)
    assert (code, out) == (2, "")
    assert err == "error: contour checks need 2*n_max < quad_nodes = 4, got n_max = 10\n"


def test_suite_with_aliasing_node_count_is_usage_error(capsys):
    code, out, err = run(capsys, "suite", "--lambdas", "1/2", "--ps", "1", "--n-max", "10",
                         "--order", "12", "--quad-nodes", "20")
    assert (code, out) == (2, "")
    assert "2*n_max < quad_nodes = 20" in err


@pytest.mark.parametrize("argv", [
    ("--id", "C10"), ("--id", "L9"), ("--id", "T11", "--p", "1"),
])
def test_check_contour_beyond_float_factorials_is_usage_error(argv, capsys):
    # coefficient n is scaled by n!, and 171! overflows a float
    code, out, err = run(capsys, "check", "--lambda=1/2", "--n-max", "171", *argv)
    assert (code, out) == (2, "")
    assert err == ("error: contour checks need n_max <= 170, where n! fits in a float, "
                   "got n_max = 171\n")


def test_check_contour_column_beyond_float_factorials_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--id", "L9", "--lambda=1/2", "--n-max", "5",
                         "--k", "171")
    assert (code, out) == (2, "")
    assert "column index must be <= 170" in err


def test_check_monte_carlo_overflow_is_usage_error(capsys):
    # S3's lattice at n_max 140: the smallest node's powers leave the normal
    # float range, where the rounding model of its bound does not hold
    code, out, err = run(capsys, "check", "--id", "S3", "--lambda=0", "--p", "2",
                         "--n-max", "140", "--moment-nodes", "2000")
    assert (code, out) == (2, "")
    assert err.startswith("error: check S3 at lambda = 0 leaves the float range")
    assert "underflows" in err


@pytest.mark.parametrize("check_id", ["T11"])
def test_check_contour_at_truncation_index_beyond_float_factorials(check_id, capsys):
    # (m + p)! for m <= 60 overflows a float past p = 110, so the bracket
    # must not form it
    code, out, _ = run(capsys, "check", "--id", check_id, "--lambda=1/2", "--p", "120",
                       "--n-max", "3")
    assert code == 0
    assert [v["status"] for v in json.loads(out)] == ["pass"]


@pytest.mark.parametrize("lam", ["1/10000", "-1/10000", "1/1" + "0" * 20, "1/1" + "0" * 400],
                         ids=["1e-4", "-1e-4", "1e-20", "1e-400"])
def test_check_contour_at_small_lambda_keeps_its_accuracy(lam, capsys):
    # log(1 + lam*u) / lam magnifies the rounding of the logarithm by 1/|lam|;
    # the residuals must stay at the level they have at lambda = 1/2
    for argv in (("--id", "L9"), ("--id", "C10"), ("--id", "T11", "--p", "1")):
        code, out, err = run(capsys, "check", f"--lambda={lam}", *argv)
        assert (code, err) == (0, ""), argv
        assert [v["status"] for v in json.loads(out)] == ["pass"], argv
        assert json.loads(out)[0]["max_residual"] < 1e-9, argv


@pytest.mark.parametrize("argv", [
    ("--id", "T4", "--lambda", "1" + "0" * 40, "--p", "0"),
    ("--id", "S3", "--lambda", "1" + "0" * 40, "--p", "1"),
    ("--id", "T15", "--lambda", "0", "--p", "1", "--x-points", "1" + "0" * 40),
])
def test_check_beyond_the_float_range_is_usage_error(argv, capsys):
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (2, "")
    last = err.splitlines()[-1]
    assert last.startswith("error: check ") and "leaves the float range" in last
    assert f"at lambda = {argv[3]} " in last


BIG = "1" + "0" * 40


@pytest.mark.parametrize("argv, point", [
    (("--id", "T4", "--lambda", BIG, "--p", "0"), (f"T4 at lambda = {BIG}", "p = 0")),
    (("--id", "T15", "--lambda", "0", "--p", "1", "--x-points", f"1/2,{BIG}"),
     ("T15 at lambda = 0", f"p = 1, x_points = 1/2,{BIG}")),
    (("--id", "T15", "--lambda", BIG, "--p", "2"), (f"T15 at lambda = {BIG}", "p = 2")),
], ids=["T4-lambda", "T15-x-point", "T15-lambda"])
def test_check_beyond_the_float_range_names_the_whole_point(argv, point, capsys):
    # the x point, not lambda, leaves the float range in the second case
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (2, "")
    where, rest = point
    assert err.startswith(f"error: check {where} leaves the float range (with {rest}): ")


@pytest.mark.parametrize("check_id", ["T14", "T16", "C-SIX"])
def test_exact_check_beyond_the_float_range_passes(check_id, capsys):
    # exact checks run no float code
    code, out, err = run(capsys, "check", "--id", check_id, "--lambda", BIG, "--p", "2")
    assert (code, err) == (0, "")
    assert [(v["id"], v["mode"], v["status"]) for v in json.loads(out)] == [
        (check_id, "exact", "pass")]


def test_double_series_overflow_is_an_error_without_a_warning():
    # under -W error a numpy overflow warning would end the process first
    import truncbell

    env = dict(os.environ, PYTHONPATH=str(Path(truncbell.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-W", "error", "-m", "truncbell", "check", "--id", "T4",
                          "--lambda", BIG, "--p", "0"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: check T4 at lambda = {BIG} leaves the float range "
                          "(with p = 0): double-series row n = 9 is not finite\n")


# ---------------------------------------------------------------- suite


def test_suite_small_grid_exit_and_summary(capsys):
    code, out, _ = run(capsys, *SMALL_SUITE)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["required_pass"] is True
    assert len(report["summary"]["adjudication"]) == 1
    assert report["summary"]["grid"]["lambdas"] == ["0", "1/2"]
    assert report["summary"]["config"]["moment_nodes"] == 5000


def test_suite_and_check_accept_an_order_that_only_series_checks_read(capsys):
    # T2, T6, T8 and T12 build no series, so no order bound of theirs can fail a grid
    code, out, err = run(capsys, "suite", "--lambdas=1/2", "--ps=0,3", "--n-max=6",
                         "--order=7", "--moment-nodes=5000")
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["required_pass"] is True
    code, out, err = run(capsys, "check", "--id", "T6", "--lambda", "1/2", "--p", "2",
                         "--n-max", "10", "--order", "11")
    assert (code, err) == (0, "")
    assert [v["id"] for v in json.loads(out)] == ["T6", "T6k"]


def test_suite_config_records_every_flag(capsys):
    code, out, _ = run(capsys, "suite", "--lambdas", "1/2", "--ps", "1", "--n-max", "2",
                       "--order", "4", "--tol-rel", "1e-6", "--tol-abs", "1e-8",
                       "--quad-nodes", "512", "--cutoff-k", "40", "--cutoff-l", "50",
                       "--moment-nodes", "3000", "--seed", "7")
    assert code == 0
    assert json.loads(out)["summary"]["config"] == {
        "tol_rel": 1e-6, "tol_abs": 1e-8, "quad_nodes": 512, "series_cutoff_k": 40,
        "series_cutoff_l": 50, "moment_nodes": 3000, "seed": 7,
    }


def test_suite_rejects_a_contour_grid_before_its_exact_work(capsys):
    # the exact checks at n_max = 171 take seconds; the rejection must not wait for them
    start = time.perf_counter()
    code, out, err = run(capsys, "suite", "--lambdas", "1/2", "--ps", "1", "--n-max", "171",
                         "--order", "172")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == ("error: contour checks need n_max <= 170, where n! fits in a float, "
                   "got n_max = 171\n")


def test_suite_without_contour_lambdas_ignores_the_node_count(capsys):
    # at |lambda| >= 1 no contour runs, so four nodes for n_max = 3 are no error
    code, out, err = run(capsys, "suite", "--lambdas", "1,-2", "--ps", "1", "--n-max", "3",
                         "--order", "4", "--quad-nodes", "4", "--moment-nodes", "2000")
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["required_pass"] is True


def test_suite_at_n_max_zero_skips_the_contour_checks(capsys):
    code, out, err = run(capsys, "suite", "--lambdas", "1/2", "--ps", "1", "--n-max", "0",
                         "--order", "4")
    assert (code, err) == (0, "")
    skipped = json.loads(out)["summary"]["skipped_checks"]
    assert [(s["id"], s["reason"]) for s in skipped] == [
        (i, "contour representations hold for n >= 1 only") for i in ("L9", "C10", "T11")
    ]
    # a single contour check at n_max = 0 is still a usage error
    code, _, err = run(capsys, "check", "--id", "L9", "--lambda", "1/2", "--n-max", "0")
    assert code == 2 and "n >= 1" in err


def test_suite_runs_at_large_truncation_index(tmp_path, capsys):
    path = tmp_path / "p12.json"
    code, _, err = run(capsys, "suite", "--lambdas", "1/2", "--ps", "12", "-o", str(path))
    assert (code, err) == (0, "")
    report = json.loads(path.read_text())
    assert report["summary"]["required_pass"] is True
    assert report["summary"]["counts_by_id"]["P5b"] == {"pass": 1, "fail": 0}


def test_suite_output_files_are_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (f1, f2):
        code, _, _ = run(capsys, *SMALL_SUITE, "--seed", "42", "-o", str(path))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_suite_seed_changes_only_the_recorded_config(tmp_path, capsys):
    # 7337 is a seed at which the sampled band of the old random route failed
    # the default grid; no verdict reads the seed now
    f1, f2 = tmp_path / "s42.json", tmp_path / "s7337.json"
    for seed, path in (("42", f1), ("7337", f2)):
        code, _, _ = run(capsys, "suite", "--seed", seed, "-o", str(path))
        assert code == 0
    a, b = json.loads(f1.read_text()), json.loads(f2.read_text())
    assert (a["summary"]["config"].pop("seed"), b["summary"]["config"].pop("seed")) == (42, 7337)
    assert a == b


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TRUNCBELL_OUTPUT_DIR", str(outdir))
    code, _, _ = run(capsys, "table", "--family", "BellClassical", "--n-max", "3",
                     "-o", "bell.csv")
    assert code == 0
    assert (outdir / "bell.csv").exists()
    assert not (tmp_path / "bell.csv").exists()
    # absolute paths ignore the override
    absolute = tmp_path / "abs.csv"
    code, _, _ = run(capsys, "table", "--family", "BellClassical", "--n-max", "3",
                     "-o", str(absolute))
    assert code == 0
    assert absolute.exists()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    code, _, err = run(capsys, "table", "--family", "BellClassical", "--n-max", "3",
                       "-o", str(blocker / "x.csv"))
    assert code == 3
    assert "cannot write" in err


def test_unknown_flag_rejected(capsys):
    code, _, err = run(capsys, "table", "--family", "S2", "--n-max", "3", "--frmt", "csv")
    assert code == 2
    assert "unrecognized" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "suite", "--help")[0] == 0


COMMANDS = ("table", "eval", "check", "suite")


def test_help_and_mistyped_command_list_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "{" + ",".join(COMMANDS) + "}" in out
    code, _, err = run(capsys, "tabel", "--family", "S2", "--n-max", "3")
    assert code == 2
    assert "invalid choice: 'tabel'" in err
    assert all(f"'{c}'" in err for c in COMMANDS)
