import argparse
import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import truncbell.sequences as sequences
import truncbell.verify as verify
from truncbell import cli
from truncbell.verify import (
    ADJUDICATION_IDS,
    NumericConfig,
    SuiteGrid,
    Verdict,
    exit_code_for,
    report_to_json_text,
    run_check,
    run_suite,
    verdicts_to_json_text,
)

CFG = NumericConfig()
FAST_CFG = NumericConfig(mc_samples=20_000)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _bump_at(fn, bad_n=3):
    """Wrap a family function so its value at n == bad_n is off by one."""

    def wrapper(n, *args, **kwargs):
        out = fn(n, *args, **kwargs)
        return out + 1 if n == bad_n else out

    return wrapper


# ---------------------------------------------------------------- positive paths


def test_exact_checks_pass_on_valid_parameters():
    assert verify.check_T1(HALF, 2, 6, 8).status == "pass"
    assert verify.check_T2(Fraction(-1, 3), 6, 8).status == "pass"
    assert verify.check_P3(HALF, 0, 6).status == "pass"
    assert verify.check_P3(HALF, 3, 6).status == "pass"
    assert verify.check_P5a(HALF, 2, 6).status == "pass"
    assert verify.check_P5b(HALF, 2, 10).status == "pass"
    assert verify.check_T7(HALF, 2, 10).status == "pass"
    assert verify.check_T8(HALF, 2, 6).status == "pass"
    assert verify.check_T12(HALF, 3, 8).status == "pass"
    assert verify.check_T13(HALF, 5).status == "pass"


def test_numeric_checks_pass_on_valid_parameters():
    assert verify.check_T4(THIRD, 1, 6, CFG).status == "pass"
    for which, kp in (("L9", None), ("L9", 2), ("C10", None), ("T11", 2)):
        v = verify.check_trig(THIRD, 6, kp, which, CFG)
        assert v.status == "pass"
        assert v.max_residual < CFG.tol_rel


def test_combined_modified_family_checks_pass():
    v14, v15, v16 = verify.check_T14_T15_T16(HALF, 2, 6, 8, CFG)
    assert (v14.check_id, v15.check_id, v16.check_id) == ("T14", "T15", "T16")
    assert {v14.status, v15.status, v16.status} == {"pass"}
    assert v15.mode == "numeric"
    assert v15.params["x_points"] == ["0", "1", "1/2"]


def test_moment_check_exact_and_monte_carlo():
    v_exact, v_mc = verify.check_S3(HALF, 2, 5, FAST_CFG)
    assert v_exact.mode == "exact" and v_exact.status == "pass"
    assert v_mc.mode == "monte_carlo" and v_mc.status == "pass"
    assert all("se=" in row["note"] for row in v_mc.details)
    assert v_mc.params["seed"] == FAST_CFG.seed


def test_six_route_composite_passes():
    v = verify.check_CSIX(THIRD, 2, 6, CFG)
    assert v.status == "pass"
    routes = {row["k"] for row in v.details if row["n"] >= 0}
    assert routes == {2, 5}  # exact routes record rows only on mismatch
    assert any(row["n"] == -1 for row in v.details)  # route-5 range note


def test_six_route_composite_skips_contour_outside_domain():
    v = verify.check_CSIX(Fraction(2), 1, 4, CFG)
    assert v.status == "pass"
    notes = [row["note"] for row in v.details if row["n"] == -1]
    assert any("route 5 skipped" in note for note in notes)
    assert not any(row["k"] == 5 for row in v.details if row["n"] >= 0)


# ---------------------------------------------------------------- parameter validation


def test_checks_reject_bad_parameters():
    with pytest.raises(ValueError):
        verify.check_T1(HALF, 1, 8, 6)  # order below n_max
    with pytest.raises(ValueError):
        verify.check_P5a(HALF, 0, 4)
    with pytest.raises(ValueError):
        verify.check_T6(HALF, 2, 6, 7)  # order below n_max + p
    with pytest.raises(ValueError):
        verify.check_T7(HALF, 0, 8)
    with pytest.raises(ValueError):
        verify.check_trig(Fraction(1), 4, None, "C10", CFG)
    with pytest.raises(ValueError):
        verify.check_trig(HALF, 4, None, "T9", CFG)
    with pytest.raises(ValueError):
        verify.check_trig(HALF, 4, 0, "T11", CFG)
    with pytest.raises(ValueError):
        verify.check_CSIX(HALF, 0, 4, CFG)


def test_numeric_config_validation():
    with pytest.raises(ValueError):
        NumericConfig(tol_rel=0.0)
    with pytest.raises(ValueError):
        NumericConfig(quad_nodes=15)
    with pytest.raises(ValueError):
        NumericConfig(mc_samples=1)
    with pytest.raises(ValueError):
        NumericConfig(series_cutoff_k=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        NumericConfig(seed=-1)


# ---------------------------------------------------------------- negative controls

EXACT_CONTROLS = [
    ("T1", "trunc_bell_deg", lambda: verify.check_T1(HALF, 2, 6, 8)),
    ("T2", "deg_bernoulli_num", lambda: verify.check_T2(HALF, 6, 8)),
    ("P3", "stirling2_deg", lambda: verify.check_P3(HALF, 2, 6)),
    ("P5a", "stirling2_deg", lambda: verify.check_P5a(HALF, 2, 6)),
    ("P5b", "trunc_bell_deg", lambda: verify.check_P5b(HALF, 2, 10)),
    ("T6k", "deg_bernoulli_num", lambda: verify.check_T6(HALF, 2, 6, 8)[1]),
    ("T7", "trunc_bell_deg", lambda: verify.check_T7(HALF, 2, 10)),
    ("T8", "bell_deg", lambda: verify.check_T8(HALF, 2, 6)),
    ("T12", "trunc_bell_deg", lambda: verify.check_T12(HALF, 1, 6)),
    ("T13", "stirling2_deg_poly", lambda: verify.check_T13(HALF, 5)),
    ("T14", "trunc_mod_bell_deg", lambda: verify.check_T14_T15_T16(HALF, 2, 6, 8, CFG)[0]),
    ("T16", "trunc_mod_bell_deg", lambda: verify.check_T14_T15_T16(HALF, 2, 6, 8, CFG)[2]),
    ("S3", "trunc_bell_deg", lambda: verify.check_S3(HALF, 2, 5, FAST_CFG)[0]),
]

NUMERIC_CONTROLS = [
    ("T4", "trunc_bell_deg", lambda: verify.check_T4(THIRD, 1, 6, CFG)),
    ("L9", "stirling2_deg", lambda: verify.check_trig(THIRD, 6, None, "L9", CFG)),
    ("C10", "bell_deg", lambda: verify.check_trig(THIRD, 6, None, "C10", CFG)),
    ("T11", "trunc_bell_deg", lambda: verify.check_trig(THIRD, 6, 2, "T11", CFG)),
    ("T15", "stirling2_deg", lambda: verify.check_T14_T15_T16(HALF, 2, 6, 8, CFG)[1]),
    ("S3-mc", "trunc_bell_deg", lambda: verify.check_S3(HALF, 2, 5, FAST_CFG)[1]),
    ("C-SIX", "stirling2_deg", lambda: verify.check_CSIX(THIRD, 2, 6, CFG)),
]


@pytest.mark.parametrize("label,attr,runner", EXACT_CONTROLS, ids=[c[0] for c in EXACT_CONTROLS])
def test_exact_checkers_fail_on_perturbed_tables(label, attr, runner, monkeypatch):
    runner()  # warm every memo first: the perturbation must still reach the check
    monkeypatch.setattr(sequences, attr, _bump_at(getattr(sequences, attr)))
    verdict = runner()
    assert verdict.status == "fail"
    assert verdict.max_residual >= 1.0  # counts mismatching coefficients
    assert any(row["n"] >= 0 for row in verdict.details)


@pytest.mark.parametrize("label,attr,runner", NUMERIC_CONTROLS, ids=[c[0] for c in NUMERIC_CONTROLS])
def test_numeric_checkers_fail_on_perturbed_tables(label, attr, runner, monkeypatch):
    runner()  # warm every memo first: the perturbation must still reach the check
    monkeypatch.setattr(sequences, attr, _bump_at(getattr(sequences, attr)))
    verdict = runner()
    assert verdict.status == "fail"


@pytest.mark.parametrize("runner,calls", [
    (lambda: verify.check_T8(HALF, 2, 10), 66),
    (lambda: verify.check_P3(HALF, 2, 10), 66),
    (lambda: verify.check_P5a(HALF, 2, 10), 66),
    (lambda: verify.check_CSIX(HALF, 2, 10, CFG), 4 * 66),
], ids=["T8", "P3", "P5a", "C-SIX"])
def test_exact_routes_read_each_triangle_entry_once(runner, calls, monkeypatch):
    # a row route reads S2deg(n, k) once for each of the 11*12/2 entries with
    # n <= 10; C-SIX runs the P3, P5a, T8 and S3 routes once each
    count = 0
    original = sequences.stirling2_deg

    def counting(*args):
        nonlocal count
        count += 1
        return original(*args)

    monkeypatch.setattr(sequences, "stirling2_deg", counting)
    assert runner().status == "pass"
    assert count == calls


def test_t6_entry_builds_the_shared_sides_once(monkeypatch):
    # one run of the T6 registry entry emits both variants and reads the
    # left side's trunc_bell_deg once per n and the convolution's bell_deg
    # once per (n, m), m <= n + p
    counts = {"trunc_bell_deg": 0, "bell_deg": 0}
    for name in counts:
        original = getattr(sequences, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(sequences, name, counting)
    verdicts = run_check("T6", HALF, p=2, n_max=6, order=8)
    assert [v.check_id for v in verdicts] == ["T6", "T6k"]
    assert [v.params["variant"] for v in verdicts] == ["fixed", "running"]
    assert counts == {"trunc_bell_deg": 7, "bell_deg": sum(n + 3 for n in range(7))}


# ---------------------------------------------------------------- diagnostics


def test_truncated_series_reports_inconclusive_tail():
    tiny = NumericConfig(series_cutoff_k=2, series_cutoff_l=2)
    v = verify.check_T4(HALF, 0, 6, tiny)
    assert v.status == "fail"
    assert any("inconclusive-fail" in row.get("note", "") for row in v.details)


def test_contour_branch_floor_reports_inconclusive():
    lam = Fraction(10**12 - 1, 10**12)
    v = verify.check_trig(lam, 4, None, "C10", CFG)
    assert v.status == "fail"
    assert len(v.details) == 1
    assert "inconclusive-fail" in v.details[0]["note"]
    assert "branch point" in v.details[0]["note"]


def test_incomplete_gamma_guard_accepts_closed_form():
    for p in range(1, 5):
        assert verify._validate_incgamma(p) < 1e-9


def test_incomplete_gamma_guard_rejects_broken_closed_form(monkeypatch):
    monkeypatch.setattr(verify, "_incgamma_closed", lambda p, zv: 0.0)
    with pytest.raises(RuntimeError, match="quadrature guard"):
        verify.check_P5b(HALF, 2, 8)


def test_refinement_does_not_diverge_on_passing_cases():
    # residuals of passing numeric checks sit at the noise floor; doubling
    # the discretization must not blow them up (factor 10 plus an epsilon
    # allowance for float noise around 1e-16)
    eps = 1e-13
    coarse = verify.check_trig(THIRD, 6, None, "C10", NumericConfig(quad_nodes=512))
    fine = verify.check_trig(THIRD, 6, None, "C10", NumericConfig(quad_nodes=1024))
    assert fine.max_residual <= 10.0 * coarse.max_residual + eps

    coarse = verify.check_T4(THIRD, 1, 6, NumericConfig(series_cutoff_k=20, series_cutoff_l=20))
    fine = verify.check_T4(THIRD, 1, 6, NumericConfig(series_cutoff_k=40, series_cutoff_l=40))
    assert fine.max_residual <= 10.0 * coarse.max_residual + eps


# ---------------------------------------------------------------- adjudication


def test_conflicting_variant_is_detected_and_reported():
    fixed, running = verify.check_T6(HALF, 3, 6, 10)
    assert fixed.check_id == "T6" and fixed.status == "fail"
    assert running.check_id == "T6k" and running.status == "pass"
    record = verify._adjudication_record([fixed, running])
    assert record["selected"] == "T6k"
    assert record["outcomes"] == {"T6": "fail", "T6k": "pass"}


def test_variants_coincide_when_correction_sum_is_degenerate():
    # p <= 1 leaves at most one correction term, where both readings agree
    for p in (0, 1):
        fixed, running = verify.check_T6(HALF, p, 6, 8)
        assert fixed.status == "pass"
        assert running.status == "pass"
    record = verify._adjudication_record(verify.check_T6(HALF, 1, 6, 8))
    assert record["selected"] == "both"


def test_adjudication_never_drives_exit_code():
    failing_variant = verify.check_T6(HALF, 3, 6, 10)[0]
    passing = verify.check_T1(HALF, 2, 6, 8)
    assert failing_variant.status == "fail"
    assert exit_code_for([failing_variant, passing]) == 0
    broken = Verdict("T1", "exact", {}, "fail", 1.0, [])
    assert exit_code_for([failing_variant, broken]) == 1
    assert ADJUDICATION_IDS == {"T6", "T6k"}


def test_recurrence_middle_term_adjudicates_at_runtime():
    v = verify.check_T12(Fraction(0), 1, 8)
    assert v.status == "pass"
    meta = [r["note"] for r in v.details if "probe" in r.get("note", "")]
    assert meta == [
        "middle-term exponent probe over n >= 2: printed form holds=False, "
        "raised-index form holds=True; counted variant: raised-index"
    ]
    informational = [r for r in v.details if "non-counted" in r.get("note", "")]
    assert informational, "printed-form mismatches should be reported"
    n2 = next(r for r in informational if r["n"] == 2)
    assert (n2["lhs"], n2["rhs"]) == ("7/4", "19/12")
    below = [r for r in v.details if "below stated range" in r.get("note", "")]
    assert {r["n"] for r in below} == {0, 1}


def test_recurrence_corollary_form_checked_at_p_zero():
    v = verify.check_T12(HALF, 0, 8)
    assert v.status == "pass"
    assert any("rewritten corollary form" in r.get("note", "") for r in v.details) is False
    # corollary rows only surface on mismatch; force one to confirm coverage
    vbad = None
    original = sequences.trunc_bell_deg
    try:
        sequences.trunc_bell_deg = _bump_at(original)
        vbad = verify.check_T12(HALF, 0, 6)
    finally:
        sequences.trunc_bell_deg = original
    assert vbad.status == "fail"
    assert any("rewritten corollary form" in r.get("note", "") for r in vbad.details)


def test_modified_family_convolution_variants():
    v14 = verify.check_T14_T15_T16(HALF, 2, 6, 8, CFG)[0]
    assert v14.status == "pass"
    literal = [r for r in v14.details if "printed constant index" in r.get("note", "")]
    assert literal, "the literal index variant should be probed and reported"
    assert all("informational" in r["note"] for r in literal)
    summary = [r for r in v14.details if "mismatches on" in r.get("note", "")]
    assert len(summary) == 1


# ---------------------------------------------------------------- verdict serialization


def test_verdict_json_schema():
    v = verify.check_T4(THIRD, 1, 3, CFG)
    d = v.to_json_dict()
    assert sorted(d) == ["details", "id", "max_residual", "mode", "params", "status"]
    assert d["id"] == "T4"
    assert d["params"]["lambda"] == "1/3"
    assert isinstance(d["max_residual"], float)
    for row in d["details"]:
        assert sorted(row)[:4] == ["k", "lhs", "n", "note"]
        assert isinstance(row["lhs"], str) and isinstance(row["rhs"], str)
        assert "resid=" in row["note"]


def test_monte_carlo_reruns_are_bit_identical():
    a = verdicts_to_json_text(verify.check_S3(HALF, 2, 5, FAST_CFG))
    b = verdicts_to_json_text(verify.check_S3(HALF, 2, 5, FAST_CFG))
    assert a == b


# ---------------------------------------------------------------- dispatch


def test_run_check_dispatch():
    assert [v.check_id for v in run_check("T6", HALF, p=2, n_max=4, order=8)] == ["T6", "T6k"]
    assert [v.check_id for v in run_check("T15", HALF, p=1, n_max=4, order=6)] == ["T15"]
    assert [v.check_id for v in run_check("S3", HALF, p=1, n_max=4, cfg=FAST_CFG)] == ["S3", "S3"]
    assert run_check("L9", THIRD, k=1, n_max=4)[0].params["k"] == 1
    with pytest.raises(ValueError):
        run_check("T1", HALF)  # missing p
    with pytest.raises(ValueError):
        run_check("Z9", HALF, p=1)


# ---------------------------------------------------------------- registry


@pytest.fixture(scope="module")
def point_report():
    grid = SuiteGrid(lambdas=(HALF,), ps=(2,), n_max=4, order=8)
    return run_suite(grid, FAST_CFG), grid


@pytest.mark.parametrize("check_id", verify.KNOWN_CHECK_IDS)
def test_run_check_agrees_with_suite(check_id, point_report):
    report, grid = point_report
    single = run_check(check_id, HALF, p=2, n_max=grid.n_max, order=grid.order,
                       cfg=FAST_CFG, x_points=grid.x_points)
    # asking for T6 runs the adjudication, so it also reports the T6k variant
    ids = {"T6": {"T6", "T6k"}}.get(check_id, {check_id})
    from_suite = [v for v in report.verdicts if v.check_id in ids]
    single.sort(key=verify._verdict_sort_key)
    assert verdicts_to_json_text(single) == verdicts_to_json_text(from_suite)


def test_point_suite_emits_every_registry_id(point_report):
    report, _ = point_report
    assert {v.check_id for v in report.verdicts} == set(verify.KNOWN_CHECK_IDS)
    assert report.summary["skipped_checks"] == []


def test_suite_skip_records_follow_registry_order():
    grid = SuiteGrid(lambdas=(Fraction(1),), ps=(0, 1, 2), n_max=2, order=4)
    skipped = run_suite(grid, FAST_CFG).summary["skipped_checks"]
    reason = "|lambda| >= 1 is outside the contour domain"
    assert skipped == [
        {"id": "L9", "lambda": "1", "reason": reason},
        {"id": "C10", "lambda": "1", "reason": reason},
        {"id": "T11", "lambda": "1", "p": 1, "reason": reason},
        {"id": "T11", "lambda": "1", "p": 2, "reason": reason},
    ]


def test_suite_rejects_negative_p():
    with pytest.raises(ValueError, match="p must be >= 0"):
        run_suite(SuiteGrid(lambdas=(HALF,), ps=(1, -1), n_max=2, order=4), FAST_CFG)


def test_cli_check_choices_are_registry_ids():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    id_flag = next(a for a in commands.choices["check"]._actions if a.dest == "id")
    assert tuple(id_flag.choices) == verify.KNOWN_CHECK_IDS


# ---------------------------------------------------------------- suite


@pytest.fixture(scope="module")
def small_report():
    grid = SuiteGrid(lambdas=(Fraction(0), Fraction(1), HALF), ps=(0, 2), n_max=5, order=8)
    return run_suite(grid, FAST_CFG), grid


def test_suite_summary_accounting(small_report):
    report, grid = small_report
    s = report.summary
    assert s["total"] == len(report.verdicts)
    assert s["passed"] + s["failed"] == s["total"]
    assert s["required_pass"] is True
    assert report.exit_code() == 0
    failing = {v.check_id for v in report.verdicts if v.status == "fail"}
    assert failing == {"T6"}  # only the adjudicated variant fails
    assert s["counts_by_id"]["T6"]["fail"] > 0
    assert s["counts_by_id"]["T6k"] == {"pass": len(grid.lambdas) * len(grid.ps), "fail": 0}


def test_suite_skips_contour_checks_outside_domain(small_report):
    report, _ = small_report
    skipped = report.summary["skipped_checks"]
    assert {e["id"] for e in skipped} == {"L9", "C10", "T11"}
    assert all(e["lambda"] == "1" for e in skipped)
    assert report.summary["skipped"] == len(skipped)
    contour_lambdas = {
        v.params["lambda"] for v in report.verdicts if v.check_id in ("L9", "C10", "T11")
    }
    assert "1" not in contour_lambdas


def test_suite_has_exactly_one_adjudication_record(small_report):
    report, _ = small_report
    records = report.summary["adjudication"]
    assert len(records) == 1
    assert records[0]["checked"] == ["T6", "T6k"]
    assert records[0]["selected"] == "T6k"


def test_suite_ordering_is_deterministic(small_report):
    report, _ = small_report
    keys = [verify._verdict_sort_key(v) for v in report.verdicts]
    assert keys == sorted(keys)


def test_suite_reruns_are_byte_identical():
    grid = SuiteGrid(lambdas=(Fraction(0),), ps=(0, 1), n_max=4, order=6)
    a = report_to_json_text(run_suite(grid, FAST_CFG))
    b = report_to_json_text(run_suite(grid, FAST_CFG))
    assert a == b
    parsed = json.loads(a)
    assert sorted(parsed) == ["summary", "verdicts"]


# ---------------------------------------------------------------- lambda pool

POOL_GRID = SuiteGrid(lambdas=(Fraction(0), Fraction(1), HALF), ps=(0, 2), n_max=5, order=8)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_pool(*args, **kwargs):
    raise AssertionError("the serial path must not start a pool")


def test_pool_and_loop_reports_are_identical(monkeypatch):
    # three CPUs, so the pool runs whatever this machine has
    _cpus(monkeypatch, 3)
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def spy(*args, **kwargs):
        pools.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    pooled = report_to_json_text(run_suite(POOL_GRID, FAST_CFG))
    assert pools == [(3,)]
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    looped = report_to_json_text(run_suite(POOL_GRID, FAST_CFG))
    assert pooled == looped
    assert json.loads(pooled)["summary"]["skipped_checks"]


@pytest.mark.parametrize("case", ["one lambda", "one cpu", "darwin"])
def test_suite_falls_back_to_the_loop(case, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    grid = SuiteGrid(lambdas=(Fraction(0), Fraction(1), HALF), ps=(0, 2), n_max=3, order=6)
    if case == "one lambda":
        _cpus(monkeypatch, 3)
        grid = SuiteGrid(lambdas=(HALF,), ps=(0, 2), n_max=3, order=6)
    elif case == "one cpu":
        _cpus(monkeypatch, 1)
    else:
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(sys, "platform", "darwin")
    report = run_suite(grid, FAST_CFG)
    assert report.summary["total"] == len(report.verdicts) > 0
    assert report.exit_code() == 0


def test_worker_error_reaches_the_caller(monkeypatch):
    _cpus(monkeypatch, 3)
    real_check = verify.check_T2

    def broken(lam, *args):
        if lam == HALF:
            raise ValueError("boom")
        return real_check(lam, *args)

    monkeypatch.setattr(verify, "check_T2", broken)
    with pytest.raises(ValueError, match="^boom$") as raised:
        run_suite(POOL_GRID, FAST_CFG)
    assert type(raised.value) is ValueError
    assert multiprocessing.active_children() == []


def test_import_loads_no_pool_modules():
    import truncbell

    code = ("import sys, truncbell; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(truncbell.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
