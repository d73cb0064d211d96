"""Acceptance checklist: one test per criterion, one printed line per test.

Every test prints "criterion NN <label>: PASS/FAIL (T.TTs)" past the capture
machinery so the checklist is visible in any pytest run.  Stated runtime
budgets are asserted, not just reported.
"""

import hashlib
import json
import re
import time
from fractions import Fraction

from truncbell import cli, sequences, verify
from truncbell.verify import NumericConfig

from oracles import bell_oracle, stirling1_oracle, stirling2_oracle

F = Fraction
GRID4 = (F(0), F(1), F(1, 2), F(-1, 3))
GRID5 = GRID4 + (F(2),)
# sha256 of the exact-mode verdicts of `suite --seed 42`,
# serialised by verify.verdicts_to_json_text (244 verdicts); re-recorded
# when P5b's incomplete-gamma guard became exact, which changed only the
# text of its meta note (the digest before was the Fraction schoolbook
# kernel's, a479d6eb...da1e), and again when T12's counted middle-term
# form was fixed in advance, which changed only the note and meta text of
# its 20 verdicts (before: 834ea368...bc79), and again when T2, T6, T8
# and T12 stopped taking the series order they never used, which dropped
# only the order key from the params of their 80 verdicts, T6k's
# included (before: 285d34ea...5fc6), and again when C-SIX became an exact
# verdict over routes 1, 3 and 4, which added its 16 verdicts, each an
# exact pass with one meta row, to the 228 before (before: 60eb4721...4414),
# and again when T1 and T14 stopped taking the series order and built their
# series through n_max, which dropped only the order key from the params of
# their 40 verdicts (before: da8d7e10...59f5)
EXACT_VERDICTS_SHA256 = "af386f56be8f518e3ef480f040d834c58b9892aa94b5dbd23a9f78519d749d8f"
# sha256 of the same report's summary plus the shape of every non-exact
# verdict (see _shape_digest), recorded before the check registry replaced
# the hand-written suite loop, skip list and six-route composite, and
# re-recorded when S3's sampled band became the lattice with its proven
# bound, which changed only S3's 16 numeric verdicts (mode, params and row
# notes) and summary.config (mc_samples became moment_nodes; before:
# 5c0db64e...3c61), and again when T15 dropped x = 0, whose rows repeated
# T4's float for float: T15's rows, params.x_points and
# summary.grid.x_points lost x = 0 (before: 19073c17...cea1), and again
# when C-SIX became an exact verdict and stopped repeating T4's and T11's
# rows, which took its 16 verdicts out of the numeric shapes; the summary
# did not change (before: 7dfb778f...485f)
SHAPE_SHA256 = "6a09060bfaa43effd14bb8efbb9955168a20413c1ef0a4ea50c3632aed3a778a"
# sha256 of the exact-mode verdicts of `suite --n-max 20 --order 34 --seed 42`
# (244 of its 318 verdicts), serialised the same way: the numerators run
# longest on this grid, so a slip in the integer sums shows here first.
# Recorded with the Poly- and Fraction-by-term sums the kernels replaced;
# re-recorded when T12's counted middle-term form was fixed in advance,
# which changed only the note and meta text of its 20 verdicts (before:
# 645aeede...21b7), and again when T2, T6, T8 and T12 stopped taking the
# series order, which dropped only that key from their params (before:
# 1ec5bf66...da73), and again when C-SIX became an exact verdict over
# routes 1, 3 and 4, which added its 16 exact passes (before:
# 76d7bc00...2fce), and again when T1 and T14 stopped taking the series
# order, which dropped only that key from their params (before:
# 5191d117...46f4).
DEEP_EXACT_VERDICTS_SHA256 = "95d64614a819be6e0f93a3dc73f100cd6f3de77a2c4788ce92e0534418858c83"
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _shape_digest(report: dict) -> str:
    """sha256 over the summary and, for each numeric verdict, its id,
    mode, params, status and each detail row's n, k and note with every
    number stripped out: no float digits enter it, so it holds across
    platforms."""
    shapes = [
        {"id": v["id"], "mode": v["mode"], "params": v["params"], "status": v["status"],
         "rows": [[row["n"], row["k"], _NUMBER.sub("#", row.get("note", ""))]
                  for row in v["details"]]}
        for v in report["verdicts"] if v["mode"] != "exact"
    ]
    text = json.dumps({"summary": report["summary"], "non_exact": shapes}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _exact_digest(report: dict) -> str:
    """sha256 over the exact-mode verdicts of a report, serialised by
    verify.verdicts_to_json_text. Numeric rows are left out, as their
    floats may differ by platform."""
    exact = [verify.Verdict(v["id"], v["mode"], v["params"], v["status"],
                            v["max_residual"], v["details"])
             for v in report["verdicts"] if v["mode"] == "exact"]
    return hashlib.sha256(verify.verdicts_to_json_text(exact).encode()).hexdigest()


def criterion(capsys, num, label, body, budget=None):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:  # report, then re-raise
        failure = exc
    elapsed = time.perf_counter() - start
    if failure is None and budget is not None and elapsed > budget:
        failure = AssertionError(
            f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    status = "PASS" if failure is None else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d} {label}: {status} ({elapsed:.2f}s)")
    if failure is not None:
        raise failure


def _all_pass(verdicts):
    bad = [v for v in verdicts if v.status != "pass"]
    assert not bad, f"failing verdicts: {[(v.check_id, v.params) for v in bad]}"


def test_criterion_01_exact_dual_route_tables(capsys):
    def body():
        _all_pass([verify.check_T1(lam, p, 12)
                   for lam in GRID5 for p in range(5)])
    criterion(capsys, 1, "exact dual-route table equality (T1)", body, budget=10.0)


def test_criterion_02_triangle_inversion(capsys):
    def body():
        for lam in GRID5:
            s1 = [[sequences.stirling1_deg(n, k, lam) for k in range(17)]
                  for n in range(17)]
            s2 = [[sequences.stirling2_deg(n, k, lam) for k in range(17)]
                  for n in range(17)]
            for a, b in ((s1, s2), (s2, s1)):
                for n in range(17):
                    for m in range(17):
                        total = sum(a[n][k] * b[k][m] for k in range(17))
                        assert total == (1 if n == m else 0), (lam, n, m)
    criterion(capsys, 2, "mutually inverse triangles (S1deg, S2deg)", body,
              budget=5.0)


def test_criterion_03_classical_degeneration(capsys):
    def body():
        for n in range(8):
            for k in range(n + 1):
                assert sequences.stirling2_deg(n, k, 0) \
                    == sequences.stirling2(n, k) == stirling2_oracle(n, k)
                assert sequences.stirling1_deg(n, k, 0) \
                    == sequences.stirling1(n, k) == stirling1_oracle(n, k)
        bells = [sequences.bell_deg(n, 0)(F(1)) for n in range(7)]
        assert bells == [bell_oracle(n) for n in range(7)]
        assert bells == [1, 1, 2, 5, 15, 52, 203]
    criterion(capsys, 3, "degeneration to the classical triangles", body)


def test_criterion_04_beta_integral_routes(capsys):
    def body():
        _all_pass([verify.check_P3(lam, p, 10)
                   for lam in GRID4 for p in range(1, 5)])
        _all_pass([verify.check_P5a(lam, p, 10)
                   for lam in GRID4 for p in range(1, 5)])
    criterion(capsys, 4, "exact integral representations (P3, P5a)", body)


def test_criterion_05_double_series_numeric(capsys):
    cfg = NumericConfig(tol_rel=1e-9)

    def body():
        _all_pass([verify.check_T4(lam, p, 8, cfg)
                   for lam in (F(0), F(1, 3)) for p in range(3)])
    criterion(capsys, 5, "infinite double-series evaluation (T4)", body,
              budget=5.0)


def test_criterion_06_bracket_and_operator_series(capsys):
    def body():
        for lam in (F(1, 2), F(-1, 3)):
            for p in (1, 2, 3):
                _all_pass([verify.check_P5b(lam, p, 14),
                           verify.check_T7(lam, p, 14)])
    criterion(capsys, 6, "series bracket and operator routes (P5b, T7)", body)


def test_criterion_07_oscillatory_integrals(capsys):
    cfg = NumericConfig()

    def body():
        for lam in (F(0), F(1, 3)):
            _all_pass([verify.check_L9(lam, 8, None, cfg),
                       verify.check_C10(lam, 8, cfg)])
            _all_pass([verify.check_T11(lam, p, 8, cfg)
                       for p in (1, 2, 3)])
    criterion(capsys, 7, "oscillatory integral routes (L9, C10, T11)", body,
              budget=30.0)


def test_criterion_08_exact_recurrences(capsys):
    def body():
        _all_pass([verify.check_T12(lam, p, 10)
                   for lam in GRID4 for p in range(5)])
        _all_pass([verify.check_T16(lam, p, 8)
                   for lam in GRID4 for p in range(4)])
    criterion(capsys, 8, "three-term and one-step recurrences (T12, T16)", body)


def test_criterion_09_modified_family_routes(capsys):
    cfg = NumericConfig(tol_rel=1e-8)

    def body():
        for lam in GRID4:
            for p in range(5):
                _all_pass([verify.check_T14(lam, p, 10),
                           verify.check_T15(lam, p, 10, cfg)])
    criterion(capsys, 9, "twisted family dual routes (T14, T15)", body)


def test_criterion_10_moment_identity(capsys):
    cfg = NumericConfig()

    def body():
        for lam in GRID4:
            for p in (1, 2, 3):
                _all_pass(verify.check_S3(lam, p, 6, cfg))
    criterion(capsys, 10, "moment identity, exact and lattice (S3)", body)


def test_criterion_11_adjudication_record(capsys):
    def body():
        report = verify.run_suite(
            verify.default_grid(lambdas=(F(0), F(1, 2)), ps=(2, 3),
                                n_max=6, order=10),
            NumericConfig(moment_nodes=20_000))
        records = report.summary["adjudication"]
        assert len(records) == 1
        assert records[0]["checked"] == ["T6", "T6k"]
        by_id = {}
        for v in report.verdicts:
            by_id.setdefault(v.check_id, []).append(v.status)
        assert "fail" in by_id["T6"]
        assert set(by_id["T6k"]) == {"pass"}
        assert report.summary["required_pass"] is True
        assert report.exit_code() == 0
    criterion(capsys, 11, "conflicting-variant adjudication (T6)", body)


def test_criterion_12_six_route_consensus(capsys):
    def body():
        _all_pass([verify.check_CSIX(lam, p, 8)
                   for lam in (F(0), F(1, 3)) for p in (1, 2, 3)])
    criterion(capsys, 12, "six-route consensus (C-SIX)", body)


def test_criterion_13_deterministic_reports(capsys, tmp_path):
    def body():
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (f1, f2):
            code = cli.main(["suite", "--seed", "42", "-o", str(path)])
            assert code == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        # golden digest: exact results must not move under a kernel change
        assert _exact_digest(json.loads(f1.read_text())) == EXACT_VERDICTS_SHA256
        # second digest: the summary (skip list and counts included) and the
        # row structure of the numeric verdicts, which the first one leaves out
        assert _shape_digest(json.loads(f1.read_text())) == SHAPE_SHA256
    criterion(capsys, 13, "byte-identical default suite reports", body)


def test_criterion_14_deep_grid_exact_verdicts(capsys, tmp_path):
    def body():
        path = tmp_path / "deep.json"
        # exit 1: the deep grid's numeric false fails are counted
        cli.main(["suite", "--n-max", "20", "--order", "34", "--seed", "42", "-o", str(path)])
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert len(report["verdicts"]) == 318
        assert _exact_digest(report) == DEEP_EXACT_VERDICTS_SHA256
    criterion(capsys, 14, "deep-grid exact verdicts unchanged", body, budget=20.0)
