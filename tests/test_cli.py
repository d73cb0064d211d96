import json
import os
from fractions import Fraction

import pytest

from truncbell.cli import main
from truncbell.sequences import Family, SequenceTable, build_table

SMALL_SUITE = [
    "suite", "--lambdas", "0,1/2", "--ps", "0,1", "--n-max", "4",
    "--order", "6", "--mc-samples", "5000",
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
    parsed = SequenceTable.from_json_dict(json.loads(out))
    assert parsed == build_table(Family.TruncBellDeg, 5, lam=Fraction(-1, 3), p=2)


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


def test_eval_rejects_float_notation(capsys):
    code, _, err = run(capsys, "eval", "--family", "TruncBellDeg", "--lambda", "0.5",
                       "--p", "1", "--n", "2")
    assert code == 2
    assert "position" in err


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


def test_check_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--id", "S3", "--lambda", "1/2", "--p", "2",
                         "--seed=-1")
    assert code == 2
    assert out == ""
    assert "seed must be >= 0" in err


def test_check_contour_domain_error(capsys):
    code, _, err = run(capsys, "check", "--id", "T11", "--lambda", "1", "--p", "2")
    assert code == 2
    assert "lambda" in err


# ---------------------------------------------------------------- suite


def test_suite_small_grid_exit_and_summary(capsys):
    code, out, _ = run(capsys, *SMALL_SUITE)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["required_pass"] is True
    assert len(report["summary"]["adjudication"]) == 1
    assert report["summary"]["grid"]["lambdas"] == ["0", "1/2"]
    assert report["summary"]["config"]["mc_samples"] == 5000


def test_suite_output_files_are_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (f1, f2):
        code, _, _ = run(capsys, *SMALL_SUITE, "--seed", "42", "-o", str(path))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_suite_seed_changes_monte_carlo_rows(tmp_path, capsys):
    f1, f2 = tmp_path / "s42.json", tmp_path / "s43.json"
    run(capsys, *SMALL_SUITE, "--seed", "42", "-o", str(f1))
    run(capsys, *SMALL_SUITE, "--seed", "43", "-o", str(f2))
    assert f1.read_bytes() != f2.read_bytes()


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
