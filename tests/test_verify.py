import argparse
import ast
import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import truncbell.numeric as numeric
import truncbell.sequences as sequences
import truncbell.verify as verify
from truncbell import cli
from truncbell.fps import Fps
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
FAST_CFG = NumericConfig(moment_nodes=1000)  # a lattice size that is no power of 2
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
NEAR_ONE = Fraction(10**12 - 1, 10**12)

# the optional run_check arguments each check reads, written out here
# rather than read from the registry
TAKES_NO_P = {"T2", "L9", "C10", "T13"}
TAKES_CFG = {"T4", "L9", "C10", "T11", "T15", "S3"}
TAKES_K = {"L9"}
TAKES_X_POINTS = {"T15"}


def taken(check_id, **values):
    """The given run_check arguments that check_id reads."""
    takes = {"p": check_id not in TAKES_NO_P, "cfg": check_id in TAKES_CFG,
             "k": check_id in TAKES_K, "x_points": check_id in TAKES_X_POINTS}
    return {name: value for name, value in values.items() if takes[name]}


def _bump_at(fn, bad_n=3):
    """Wrap a family function so its value at n == bad_n is off by one."""

    def wrapper(n, *args, **kwargs):
        out = fn(n, *args, **kwargs)
        return out + 1 if n == bad_n else out

    return wrapper


# ---------------------------------------------------------------- positive paths


def test_exact_checks_pass_on_valid_parameters():
    assert verify.check_T1(HALF, 2, 6, 8).status == "pass"
    assert verify.check_T2(Fraction(-1, 3), 6).status == "pass"
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
    for v in (verify.check_L9(THIRD, 6, None, CFG), verify.check_L9(THIRD, 6, 2, CFG),
              verify.check_C10(THIRD, 6, CFG), verify.check_T11(THIRD, 2, 6, CFG)):
        assert v.status == "pass"
        assert v.max_residual < CFG.tol_rel


def test_combined_modified_family_checks_pass():
    v14, v15, v16 = (verify.check_T14(HALF, 2, 6, 8), verify.check_T15(HALF, 2, 6, CFG),
                     verify.check_T16(HALF, 2, 6))
    assert (v14.check_id, v15.check_id, v16.check_id) == ("T14", "T15", "T16")
    assert (v14.mode, v16.mode) == ("exact", "exact")
    assert {v14.status, v15.status, v16.status} == {"pass"}
    assert v15.mode == "numeric"
    assert v15.params["x_points"] == ["1", "1/2"]


def test_moment_check_exact_and_monte_carlo():
    # the numeric half is the lattice now; the seed reaches no verdict
    v_exact, v_lattice = verify.check_S3(HALF, 2, 5, FAST_CFG)
    assert v_exact.mode == "exact" and v_exact.status == "pass"
    assert v_lattice.mode == "numeric" and v_lattice.status == "pass"
    assert all(row["note"].startswith("bound=") for row in v_lattice.details)
    assert v_lattice.params == {"lambda": "1/2", "p": 2, "n_max": 5, "moment_nodes": 1000}


_CSIX_META = [{"n": -1, "k": -1, "lhs": "", "rhs": "", "note":
               "route 2 is checked by T4, route 5 by T11, and route 6, the "
               "moment sum, is route 1"}]


def test_six_route_composite_passes():
    # an exact verdict over routes 1, 3 and 4, which record rows only on a
    # mismatch
    v = verify.check_CSIX(THIRD, 2, 6)
    assert (v.mode, v.status, v.max_residual) == ("exact", "pass", 0.0)
    assert v.params == {"lambda": "1/3", "p": 2, "n_max": 6}
    assert v.details == _CSIX_META


def test_six_route_composite_skips_contour_outside_domain():
    # C-SIX runs no contour route, so outside the contour domain (lambda = 2)
    # it skips nothing and reaches the same exact verdict
    v = verify.check_CSIX(Fraction(2), 1, 4)
    assert (v.mode, v.status, v.max_residual) == ("exact", "pass", 0.0)
    assert v.params == {"lambda": "2", "p": 1, "n_max": 4}
    assert v.details == _CSIX_META
    assert not any("skipped" in row["note"] for row in v.details)


# ---------------------------------------------------------------- parameter validation


def test_checks_reject_bad_parameters():
    with pytest.raises(ValueError):
        verify.check_T1(HALF, 1, 8, 6)  # order below n_max
    with pytest.raises(ValueError):
        verify.check_P5a(HALF, 0, 4)
    with pytest.raises(ValueError):
        verify.check_T7(HALF, 0, 8)
    with pytest.raises(ValueError):
        verify.check_C10(Fraction(1), 4, CFG)
    with pytest.raises(ValueError):
        verify.check_T11(HALF, 0, 4, CFG)
    with pytest.raises(ValueError):
        verify.check_CSIX(HALF, 0, 4)


def test_checks_that_read_no_series_accept_any_order():
    # T2 and T6 read no series order (deg_bernoulli_num picks its own
    # depth), so an order below n_max is no error
    assert [v.status for v in run_check("T2", HALF, n_max=10, order=10)] == ["pass"]
    verdicts = run_check("T6", HALF, p=2, n_max=6, order=0)
    assert [(v.check_id, v.status) for v in verdicts] == [("T6", "fail"), ("T6k", "pass")]


# the calls that only validate or record an argument, which is no use of it
_RECORD_ONLY = {"_require", "_params", "_num_params", "_series_params"}


def test_every_check_parameter_is_used():
    # a parameter that a check only validates or copies into its params
    # changes no verdict, so a check takes only the arguments it reads
    module = ast.parse(Path(verify.__file__).read_text())
    unused = []
    for fn in module.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_")):
            continue
        skipped = {id(node) for call in ast.walk(fn) if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name) and call.func.id in _RECORD_ONLY
                   for node in ast.walk(call)}
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load) and id(node) not in skipped}
        unused += [f"{fn.name}({arg.arg})" for arg in fn.args.args if arg.arg not in read]
    assert unused == []


def test_contour_parameters_are_checked_before_the_branch_floor():
    # near lambda = -1 the contour hits the branch floor, which must not
    # hide an out-of-domain truncation index or column
    with pytest.raises(ValueError, match="p >= 1"):
        verify.check_T11(-NEAR_ONE, 0, 4, CFG)
    with pytest.raises(ValueError, match="column index must be >= 0"):
        verify.check_L9(-NEAR_ONE, 4, -1, CFG)
    with pytest.raises(ValueError, match="column index must be <= 170"):
        verify.check_L9(-NEAR_ONE, 4, 171, CFG)


@pytest.mark.parametrize("check_id", verify.KNOWN_CHECK_IDS)
def test_run_check_rejects_negative_sizes(check_id):
    args = taken(check_id, p=2, k=1)
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        run_check(check_id, HALF, n_max=-1, cfg=FAST_CFG, **args)
    with pytest.raises(ValueError, match="order must be >= 0, got -1"):
        run_check(check_id, HALF, order=-1, cfg=FAST_CFG, **args)


@pytest.mark.parametrize("check_id", verify.KNOWN_CHECK_IDS)
def test_run_check_rejects_arguments_the_check_does_not_take(check_id):
    values = {"p": 2, "k": 1, "x_points": (HALF,), "cfg": FAST_CFG}
    needed = taken(check_id, p=2)
    for name in sorted(values.keys() - taken(check_id, **values).keys()):
        what = "numeric settings" if name == "cfg" else name
        with pytest.raises(ValueError, match=f"check {check_id} does not take {what}"):
            run_check(check_id, HALF, n_max=2, order=4, **{**needed, name: values[name]})


@pytest.mark.parametrize("spec", [s for s in verify.CHECKS if s.ids[0] not in TAKES_NO_P],
                         ids=lambda spec: spec.ids[0])
def test_p_min_is_the_least_p_each_check_accepts(spec):
    # p_min is the one fact a CHECKS entry states by hand: it must be the
    # bound the check's own guard enforces
    check_id = spec.ids[0]
    args = {"n_max": 2, "order": 4}
    assert run_check(check_id, HALF, p=spec.p_min, **args)
    with pytest.raises(ValueError, match=rf"p (must be )?>= {spec.p_min}"):
        run_check(check_id, HALF, p=spec.p_min - 1, **args)


def test_rebound_family_function_reaches_build_table(monkeypatch):
    # build_table calls the module-level name, and reads the family's
    # parameters from the function FAMILIES holds, not from the wrapper
    family = sequences.Family.TruncBellDeg
    plain = sequences.build_table(family, 4, lam=HALF, p=2).values
    monkeypatch.setattr(sequences, "trunc_bell_deg", _bump_at(sequences.trunc_bell_deg))
    bumped = sequences.build_table(family, 4, lam=HALF, p=2).values
    assert [n for n in range(5) if bumped[n] != plain[n]] == [3]
    assert bumped[3] == plain[3] + 1
    with pytest.raises(ValueError, match="does not take an order r"):
        sequences.build_table(family, 4, lam=HALF, p=2, r=1)


def test_rebound_family_function_reaches_eval(monkeypatch, capsys):
    # eval reads its one entry through the same module-level name
    argv = ["eval", "--family=TruncBellDeg", "--lambda=1/2", "--p=2"]
    plain = [sequences.trunc_bell_deg(n, 2, HALF) for n in (2, 3)]
    monkeypatch.setattr(sequences, "trunc_bell_deg", _bump_at(sequences.trunc_bell_deg))
    for n, value in zip((2, 3), (plain[0], plain[1] + 1)):
        assert cli.main([*argv, f"--n={n}"]) == 0
        assert capsys.readouterr().out == value.to_string() + "\n"


def test_rebound_check_reaches_run_check_and_the_suite(monkeypatch):
    # both call the module-level name, with arguments named by the
    # registered function's parameters, not by the (lam, *args) wrapper's
    calls = []
    original = verify.check_T13

    def counting(lam, *args):
        calls.append((lam, *args))
        return original(lam, *args)

    monkeypatch.setattr(verify, "check_T13", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the suite's serial loop
    run_check("T13", HALF, n_max=2)
    run_suite(SuiteGrid(lambdas=(THIRD,), ps=(1,), n_max=3, order=4), FAST_CFG)
    assert calls == [(HALF, 2), (THIRD, 3)]


def test_suite_rejects_negative_sizes():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        run_suite(SuiteGrid(lambdas=(HALF,), ps=(1,), n_max=-1, order=4), FAST_CFG)


def test_numeric_config_validation():
    with pytest.raises(ValueError):
        NumericConfig(tol_rel=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerances must be finite"):
            NumericConfig(tol_rel=bad)
        with pytest.raises(ValueError, match="tolerances must be finite"):
            NumericConfig(tol_abs=bad)
    with pytest.raises(ValueError):
        NumericConfig(quad_nodes=15)
    with pytest.raises(ValueError, match="moment_nodes must be >= 1"):
        NumericConfig(moment_nodes=0)
    with pytest.raises(ValueError):
        NumericConfig(series_cutoff_k=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        NumericConfig(seed=-1)


# ---------------------------------------------------------------- negative controls

EXACT_CONTROLS = [
    ("T1", "trunc_bell_deg", lambda: verify.check_T1(HALF, 2, 6, 8)),
    ("T2", "deg_bernoulli_num", lambda: verify.check_T2(HALF, 6)),
    ("P3", "stirling2_deg", lambda: verify.check_P3(HALF, 2, 6)),
    ("P3-p0", "stirling2_deg", lambda: verify.check_P3(HALF, 0, 6)),
    ("P5a", "stirling2_deg", lambda: verify.check_P5a(HALF, 2, 6)),
    ("P5b", "trunc_bell_deg", lambda: verify.check_P5b(HALF, 2, 10)),
    ("T6k", "deg_bernoulli_num", lambda: verify.check_T6(HALF, 2, 6)[1]),
    ("T7", "trunc_bell_deg", lambda: verify.check_T7(HALF, 2, 10)),
    ("T8", "bell_deg", lambda: verify.check_T8(HALF, 2, 6)),
    ("T12", "trunc_bell_deg", lambda: verify.check_T12(HALF, 1, 6)),
    ("T12-p0", "trunc_bell_deg", lambda: verify.check_T12(HALF, 0, 6)),
    ("T13", "stirling2_deg_poly", lambda: verify.check_T13(HALF, 5)),
    ("T14", "trunc_mod_bell_deg", lambda: verify.check_T14(HALF, 2, 6, 8)),
    # the plain truncated numbers are the input of T14's convolution route
    ("T14-conv", "trunc_bell_deg", lambda: verify.check_T14(HALF, 2, 6, 8)),
    ("T16", "trunc_mod_bell_deg", lambda: verify.check_T16(HALF, 2, 6)),
    ("S3", "trunc_bell_deg", lambda: verify.check_S3(HALF, 2, 5, FAST_CFG)[0]),
    ("C-SIX", "stirling2_deg", lambda: verify.check_CSIX(THIRD, 2, 6)),
]

NUMERIC_CONTROLS = [
    ("T4", "trunc_bell_deg", lambda: verify.check_T4(THIRD, 1, 6, CFG)),
    ("L9", "stirling2_deg", lambda: verify.check_L9(THIRD, 6, None, CFG)),
    ("C10", "bell_deg", lambda: verify.check_C10(THIRD, 6, CFG)),
    ("T11", "trunc_bell_deg", lambda: verify.check_T11(THIRD, 2, 6, CFG)),
    ("T15", "trunc_mod_bell_deg", lambda: verify.check_T15(HALF, 2, 6, CFG)),
    ("S3-mc", "trunc_bell_deg", lambda: verify.check_S3(HALF, 2, 5, FAST_CFG)[1]),  # the lattice
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
    (lambda: verify.check_CSIX(HALF, 2, 10), 66),
    (lambda: verify.check_S3(HALF, 2, 10, FAST_CFG)[0], 66),
], ids=["T8", "P3", "P5a", "C-SIX", "S3"])
def test_exact_routes_read_each_triangle_entry_once(runner, calls, monkeypatch):
    # a row route reads S2deg(n, k) once for each of the 11*12/2 entries with
    # n <= 10; C-SIX runs the P3, P5a and T8 routes over one read of the
    # triangle, and S3's exact and lattice halves share one read
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


def test_cold_finite_sums_do_no_fraction_arithmetic(monkeypatch):
    # the finite sums hand fps.lincomb and fps.dot their factors, so building
    # the x-shifted and modified families and the T8 route from cold memos
    # multiplies and divides no Fraction
    names = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__")
    calls = []
    for name in names:
        real = getattr(Fraction, name)

        def counted(self, other, name=name, real=real):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    assert (THIRD * 2, 2 * THIRD, THIRD / 2, 2 / THIRD) == (Fraction(2, 3), Fraction(2, 3),
                                                            Fraction(1, 6), 6)
    assert calls == list(names)  # the counters see each method
    calls.clear()
    for memo in vars(sequences).values():
        if callable(getattr(memo, "cache_clear", None)):
            memo.cache_clear()
    for lam in (HALF, -THIRD):
        for n in range(13):
            for p in range(4):
                sequences.trunc_mod_bell_deg(n, p, lam)
            for l in range(n + 1):
                sequences.stirling2_deg_poly(n, l, lam)
        verify._convolution_route(lam, verify._triangle(lam, 12), 2)
    assert calls == []


# ---------------------------------------------------------------- diagnostics


def test_truncated_series_reports_inconclusive_tail():
    tiny = NumericConfig(series_cutoff_k=2, series_cutoff_l=2)
    v = verify.check_T4(HALF, 0, 6, tiny)
    assert v.status == "fail"
    assert any("inconclusive-fail" in row.get("note", "") for row in v.details)


def test_contour_branch_floor_reports_inconclusive():
    v = verify.check_C10(NEAR_ONE, 4, CFG)
    assert v.status == "fail"
    assert len(v.details) == 1
    assert "inconclusive-fail" in v.details[0]["note"]
    assert "branch point" in v.details[0]["note"]


def test_incomplete_gamma_guard_accepts_closed_form():
    for p in range(1, 17):
        verify._validate_incgamma(p)  # raises on any unequal coefficient


def test_incomplete_gamma_guard_rejects_broken_closed_form(monkeypatch):
    original = verify._incgamma_closed

    def broken(p, u):
        gamma, upow = original(p, u)
        coeffs = list(gamma.coeffs)
        coeffs[2 * p] += 1  # the last coefficient the guard compares
        return Fps(coeffs), upow

    monkeypatch.setattr(verify, "_incgamma_closed", broken)
    with pytest.raises(RuntimeError, match="series guard"):
        verify.check_P5b(HALF, 2, 8)


def test_incomplete_gamma_route_holds_beyond_p_eleven():
    [v] = run_check("P5b", HALF, p=12, order=24)
    assert v.status == "pass"
    assert v.details == [{"n": -1, "k": -1, "lhs": "", "rhs": "", "note":
                          "closed-form incomplete-gamma guard: exact against the integral "
                          "through t^24"}]


def test_refinement_does_not_diverge_on_passing_cases():
    # residuals of passing numeric checks sit at the noise floor; doubling
    # the discretization must not blow them up (factor 10 plus an epsilon
    # allowance for float noise around 1e-16)
    eps = 1e-13
    coarse = verify.check_C10(THIRD, 6, NumericConfig(quad_nodes=512))
    fine = verify.check_C10(THIRD, 6, NumericConfig(quad_nodes=1024))
    assert fine.max_residual <= 10.0 * coarse.max_residual + eps

    coarse = verify.check_T4(THIRD, 1, 6, NumericConfig(series_cutoff_k=20, series_cutoff_l=20))
    fine = verify.check_T4(THIRD, 1, 6, NumericConfig(series_cutoff_k=40, series_cutoff_l=40))
    assert fine.max_residual <= 10.0 * coarse.max_residual + eps



# ---------------------------------------------------------------- contour quadrature

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
# the polynomial sum_n c_n u^n, degree 7 < N/2, sampled at the N = 16 nodes
POLY_COEFFS = np.random.default_rng(1).standard_normal(8)
POLY_VALUES = np.polyval(POLY_COEFFS[::-1], np.exp(2j * np.pi * np.arange(16) / 16))


def _bell_integrand():
    # at lambda = 0 the contour carries z = e^u - 1, and n! [u^n] e^z = Bell(n)
    z, floor = numeric.circle_data(Fraction(0), 2048)
    assert floor == 1.0
    return np.exp(z)


@pytest.mark.parametrize("values,n_max,expected,rel", [
    (_bell_integrand, 10, BELL, 1e-12),
    (lambda: POLY_VALUES, 7, [factorial(n) * c for n, c in enumerate(POLY_COEFFS)], 1e-14),
    (lambda: np.stack([_bell_integrand(), _bell_integrand() ** 2]), 10,
     [BELL, [sum(2**k * sequences.stirling2(n, k) for k in range(n + 1)) for n in range(11)]],
     1e-12),
], ids=["bell-numbers", "trigonometric-polynomial", "one-transform-per-row"])
def test_contour_coeffs_reads_every_coefficient_from_one_transform(values, n_max, expected, rel):
    # the trapezoid rule integrates a polynomial of degree below N/2 exactly,
    # so its coefficients come back to rounding; the Bell numbers converge
    # geometrically in N
    got = numeric.contour_coeffs(values(), n_max)
    expected = np.array(expected, dtype=float)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= rel * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("check_id,lam,p,n_max", [
    ("T11", HALF, 120, 3),
    ("T11", -THIRD, 400, 10),
])
def test_contour_bracket_holds_at_large_truncation_index(check_id, lam, p, n_max):
    # p!/(m+p)! is formed as a product of ratios, so no factorial has to fit
    # in a float
    [v] = run_check(check_id, lam, p=p, n_max=n_max, cfg=CFG)
    assert v.status == "pass"


@pytest.mark.parametrize("check_id", ["L9", "C10", "T11"])
def test_contour_routes_reject_node_counts_that_alias(check_id):
    # coefficient n of the N-node rule aliases with coefficient N - n, and
    # n = N/2 reads the Nyquist term, which carries no sine part
    args = taken(check_id, p=1)
    with pytest.raises(ValueError, match=r"2\*n_max < quad_nodes = 20, got n_max = 10"):
        run_check(check_id, HALF, n_max=10, cfg=NumericConfig(quad_nodes=20), **args)
    run_check(check_id, HALF, n_max=10, cfg=NumericConfig(quad_nodes=22), **args)


@pytest.mark.parametrize("check_id", ["L9", "C10", "T11"])
def test_contour_routes_reject_n_max_beyond_float_factorials(check_id):
    # every coefficient is scaled by n!, and 171! overflows a float
    with pytest.raises(ValueError, match="n_max <= 170, where n! fits in a float, got n_max = 171"):
        run_check(check_id, HALF, n_max=171, cfg=CFG, **taken(check_id, p=1))


def test_suite_rejects_node_counts_that_alias():
    grid = SuiteGrid(lambdas=(HALF,), ps=(1,), n_max=10, order=12)
    with pytest.raises(ValueError, match=r"2\*n_max < quad_nodes = 4"):
        run_suite(grid, NumericConfig(quad_nodes=4, moment_nodes=2000))


def test_suite_value_beyond_the_float_range_is_a_domain_error():
    grid = SuiteGrid(lambdas=(Fraction(10**40),), ps=(0,), n_max=10, order=12)
    with pytest.raises(ValueError, match=r"check T4 at lambda = 1(0{40}) leaves the float range"):
        run_suite(grid, FAST_CFG)


# the deep-grid contour verdicts that fail although the identities hold: at
# n_max = 20 a coefficient near 1/20! is read out of an O(1) integrand and
# multiplied by 20!, so rounding, not the identity, decides them
KNOWN_DEEP_CONTOUR_FAILS = {("L9", "0", None), ("L9", "1/2", None), ("C10", "1/2", None)} | {
    ("T11", "1/2", p) for p in range(1, 5)}


def test_deep_contour_rows_fail_only_where_known():
    failing = set()
    for lam in (Fraction(0), HALF, -THIRD):
        verdicts = [verify.check_L9(lam, 20, None, CFG), verify.check_C10(lam, 20, CFG)]
        verdicts += [verify.check_T11(lam, p, 20, CFG) for p in range(1, 5)]
        failing |= {(v.check_id, v.params["lambda"], v.params.get("p"))
                    for v in verdicts if v.status != "pass"}
    assert failing <= KNOWN_DEEP_CONTOUR_FAILS


# ---------------------------------------------------------------- adjudication


def test_conflicting_variant_is_detected_and_reported():
    fixed, running = verify.check_T6(HALF, 3, 6)
    assert fixed.check_id == "T6" and fixed.status == "fail"
    assert running.check_id == "T6k" and running.status == "pass"
    record = verify._adjudication_record([fixed, running])
    assert record["selected"] == "T6k"
    assert record["outcomes"] == {"T6": "fail", "T6k": "pass"}


def test_variants_coincide_when_correction_sum_is_degenerate():
    # p <= 1 leaves at most one correction term, where both readings agree
    for p in (0, 1):
        fixed, running = verify.check_T6(HALF, p, 6)
        assert fixed.status == "pass"
        assert running.status == "pass"
    record = verify._adjudication_record(verify.check_T6(HALF, 1, 6))
    assert record["selected"] == "both"


def test_adjudication_never_drives_exit_code():
    failing_variant = verify.check_T6(HALF, 3, 6)[0]
    passing = verify.check_T1(HALF, 2, 6, 8)
    assert failing_variant.status == "fail"
    assert exit_code_for([failing_variant, passing]) == 0
    broken = Verdict("T1", "exact", {}, "fail", 1.0, [])
    assert exit_code_for([failing_variant, broken]) == 1
    assert ADJUDICATION_IDS == {"T6", "T6k"}


@pytest.mark.parametrize("p", [0, 1])
def test_recurrence_counts_the_raised_index_middle_term(p):
    v = verify.check_T12(Fraction(0), p, 8)
    assert v.status == "pass"
    assert [r["note"] for r in v.details if r["n"] == -1 and r["k"] == -1] == [
        "middle-term form fixed in advance: raised-index counted over n >= 2, "
        "printed form informational"
    ]
    below = [r for r in v.details if "below stated range" in r.get("note", "")]
    assert {r["n"] for r in below} == {0, 1}
    printed = [r for r in v.details if "printed middle-term form" in r.get("note", "")]
    if p == 0:
        assert printed == []  # the weight p/(p+1) vanishes: the two forms are equal
    else:
        n2 = next(r for r in printed if r["n"] == 2)
        assert (n2["lhs"], n2["rhs"]) == ("7/4", "19/12")


def test_recurrence_fails_when_only_the_raised_index_form_breaks(monkeypatch):
    # perturb only the p + 1 family, which the raised-index middle term alone reads
    original = sequences.trunc_bell_deg

    def bumped(n, p, lam):
        out = original(n, p, lam)
        return out + 1 if (n, p) == (3, 2) else out

    monkeypatch.setattr(sequences, "trunc_bell_deg", bumped)
    v = verify.check_T12(HALF, 1, 6)
    assert v.status == "fail"
    assert "counted variant: raised-index" in {r.get("note") for r in v.details if r["n"] == 3}


def test_modified_family_convolution_variants():
    v14 = verify.check_T14(HALF, 2, 6, 8)
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
    # S3's numeric half, now the lattice, reruns to the same bytes
    a = verdicts_to_json_text(verify.check_S3(HALF, 2, 5, FAST_CFG))
    b = verdicts_to_json_text(verify.check_S3(HALF, 2, 5, FAST_CFG))
    assert a == b


def _bound_of(row) -> float:
    assert row["note"].startswith("bound=")
    return float(row["note"].removeprefix("bound="))


def _direct_row_means(p, nodes, coeffs):
    """The per-row sums the lattice moments replace: each row's polynomial
    evaluated at every lattice node, then averaged."""
    x = 1.0 - ((np.arange(nodes) + 0.5) / nodes) ** (1.0 / p)
    return [float(np.polynomial.polynomial.polyval(x, row).mean()) for row in coeffs]


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), HALF, -THIRD])
@pytest.mark.parametrize("p", [1, 4])
def test_sample_moments_agree_with_direct_row_sums(lam, p):
    # by linearity c.m equals the mean of g over the lattice nodes; both sums
    # are floats within the rounding term of the exact one, so within twice it
    coeffs = [[sequences.stirling2_deg(n, k, lam) for k in range(n + 1)] for n in range(11)]
    moments = numeric.lattice_moments(p, 8192, 10)
    gamma = numeric.lattice_rounding(8192, 10)
    want = _direct_row_means(p, 8192, [[float(c) for c in row] for row in coeffs])
    for row, ref in zip(coeffs, want):
        got = float(np.array(row, dtype=float) @ moments[:len(row)])
        assert abs(got - ref) <= 2 * gamma * float(sum(map(abs, row)))


@pytest.mark.parametrize("nodes", [1, 64, 1000])
def test_rational_lattice_moments_within_the_stated_rounding(nodes):
    # at p = 1 every node X_i = 1 - (i - 1/2)/N is rational: the float
    # moments stay within lattice_rounding of the exact lattice sums, and
    # each exact lattice row misses the integral E[X^k] = 1/(k+1) by at most
    # V/(2N), the Koksma-Hlawka bound
    kmax = 20
    xs = [1 - Fraction(2 * i - 1, 2 * nodes) for i in range(1, nodes + 1)]
    exact = [sum(x**k for x in xs) / nodes for k in range(kmax + 1)]
    moments = numeric.lattice_moments(1, nodes, kmax)
    gamma = numeric.lattice_rounding(nodes, kmax)
    assert moments[0] == 1.0
    for k in range(kmax + 1):
        assert abs(Fraction(moments[k]) - exact[k]) <= gamma, k
    for lam in (HALF, -THIRD, Fraction(3)):
        for n in range(kmax + 1):
            c = [sequences.stirling2_deg(n, k, lam) for k in range(n + 1)]
            error = abs(sum(ck * (exact[k] - Fraction(1, k + 1)) for k, ck in enumerate(c)))
            assert error <= sum(map(abs, c[1:])) / (2 * nodes), (lam, n)


@pytest.mark.parametrize("bad_n", [3, 5])
def test_lattice_rows_fail_on_a_perturbed_triangle(bad_n, monkeypatch):
    # S2deg(n, k) + 1 for every k at one n moves that row's mean by
    # sum_k E[X^k] >= 1, far outside its bound
    verify.check_S3(HALF, 2, 6, CFG)
    monkeypatch.setattr(sequences, "stirling2_deg", _bump_at(sequences.stirling2_deg, bad_n))
    _, v = verify.check_S3(HALF, 2, 6, CFG)
    assert v.status == "fail"
    outside = [row["n"] for row in v.details
               if abs(float(row["lhs"]) - float(row["rhs"])) > _bound_of(row)]
    assert outside == [bad_n]


@pytest.mark.parametrize("seed", [7337, 6059, 9261])
def test_seeds_that_failed_the_sampled_band_pass_the_lattice(seed):
    # at these seeds the 200 000-sample band of the random route failed the
    # default grid; no check reads the seed now
    cfg = NumericConfig(seed=seed)
    for lam in SuiteGrid.lambdas:
        for p in (1, 2, 3, 4):
            assert {v.status for v in verify.check_S3(lam, p, 10, cfg)} == {"pass"}, (lam, p)


@pytest.mark.parametrize("est,se", [(1.0, float("inf")), (1.0, float("nan")),
                                    (float("inf"), 0.5), (float("nan"), 0.5)])
def test_monte_carlo_band_rejects_non_finite_rows(est, se):
    # a bounded row with an infinite bound (or a non-finite value) would
    # accept anything, or fail on an overflow rather than on a disproof
    with pytest.raises(ValueError, match="row n = 3 is not finite"):
        verify._Collector().bounded(3, est, 1, se)


def test_monte_carlo_row_that_overflows_is_a_domain_error():
    # at n_max 140 the smallest lattice node's powers leave the normal float
    # range, where the rounding model of the bound does not hold
    with pytest.raises(ValueError, match=r"check S3 at lambda = 0 leaves the float range "
                                         r"\(with p = 2\): lattice node power X\^\d+ at p = 2 "
                                         r"underflows"):
        run_check("S3", 0, p=2, n_max=140, cfg=NumericConfig(moment_nodes=2000))


S3_SWEEP_LAMBDAS = [Fraction(0), Fraction(1), HALF, -THIRD, Fraction(-9, 10), Fraction(3),
                    Fraction(-5, 2), Fraction(-99, 100), Fraction(999, 1000), Fraction(7, 2),
                    Fraction(-1)]


@pytest.mark.parametrize("lam", S3_SWEEP_LAMBDAS, ids=str)
@pytest.mark.parametrize("p", [1, 2, 4, 12])
def test_moment_check_holds_across_regimes(lam, p):
    # every lattice row inside its proven bound, at every n_max of the sweep
    for n_max in (10, 20, 30):
        v_exact, v_lattice = verify.check_S3(lam, p, n_max, CFG)
        assert (v_exact.status, v_lattice.status) == ("pass", "pass"), n_max
        for row in v_lattice.details:
            assert abs(float(row["lhs"]) - float(row["rhs"])) <= _bound_of(row), (n_max, row)


def test_no_source_module_draws_random_numbers():
    # every verdict is deterministic by construction: no module of the
    # package imports random or numpy.random, or reads an attribute random
    import truncbell

    found = []
    for path in sorted(Path(truncbell.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            if any(name == "random" or name.endswith(".random") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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
    single = run_check(check_id, HALF, n_max=grid.n_max, order=grid.order,
                       **taken(check_id, p=2, cfg=FAST_CFG, x_points=grid.x_points))
    # asking for T6 runs the adjudication, so it also reports the T6k variant
    ids = {"T6": {"T6", "T6k"}}.get(check_id, {check_id})
    from_suite = [v for v in report.verdicts if v.check_id in ids]
    single.sort(key=verify._verdict_sort_key)
    assert verdicts_to_json_text(single) == verdicts_to_json_text(from_suite)


def test_every_registry_entry_emits_one_id_but_the_adjudication_pair():
    # no check hands its intermediate values to another; only the uncounted
    # T6/T6k pair shares a left side on purpose
    assert {c.ids: c.counted for c in verify.CHECKS if len(c.ids) != 1} == {("T6", "T6k"): False}


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


def test_no_numeric_verdict_repeats_another_verdicts_rows(small_report):
    # a numeric verdict whose data rows all recur, n, lhs and rhs alike, in
    # another verdict at the same (lambda, p) checks nothing that one does not
    report, _ = small_report
    rows = [((v.params["lambda"], v.params.get("p")),
             {(r["n"], r["lhs"], r["rhs"]) for r in v.details if r["n"] >= 0}, v)
            for v in report.verdicts]
    repeated = [(v.check_id, other.check_id, point)
                for point, mine, v in rows if v.mode == "numeric" and mine
                for other_point, theirs, other in rows
                if other is not v and other_point == point and mine <= theirs]
    assert repeated == []


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


# ---------------------------------------------------------------- forked units

FORK_GRID = SuiteGrid(lambdas=(Fraction(0), Fraction(1), HALF), ps=(0, 2), n_max=5, order=8)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _count_forks(monkeypatch) -> list:
    """Patch os.fork to record each call in the returned list."""
    forks = []
    real_fork = os.fork

    def spy():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", spy)
    return forks


def _no_fork():
    raise AssertionError("the serial path must not fork")


def _looped(grid, monkeypatch) -> str:
    """The report of the serial loop: one usable CPU, and forking forbidden."""
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    return report_to_json_text(run_suite(grid, FAST_CFG))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_and_looped_reports_are_identical(monkeypatch):
    # three CPUs, so three children run whatever this machine has
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    forked = report_to_json_text(run_suite(FORK_GRID, FAST_CFG))
    assert forks == [os.getpid()] * 3
    _assert_no_child_left()
    assert forked == _looped(FORK_GRID, monkeypatch)
    assert json.loads(forked)["summary"]["skipped_checks"]


@pytest.mark.parametrize("case", ["one cpu", "darwin"])
def test_suite_falls_back_to_the_loop(case, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    grid = SuiteGrid(lambdas=(Fraction(0), Fraction(1), HALF), ps=(0, 2), n_max=3, order=6)
    if case == "one cpu":
        _cpus(monkeypatch, 1)
    else:
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(sys, "platform", "darwin")
    report = run_suite(grid, FAST_CFG)
    assert report.summary["total"] == len(report.verdicts) > 0
    assert report.exit_code() == 0


def test_one_lambda_is_split_into_forked_units(monkeypatch):
    grid = SuiteGrid(lambdas=(HALF,), ps=(0, 2), n_max=3, order=6)
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    forked = report_to_json_text(run_suite(grid, FAST_CFG))
    assert len(forks) == 3
    assert forked == _looped(grid, monkeypatch)


def test_more_units_than_one_byte_can_index(monkeypatch):
    # 16 lambdas times 19 registry entries: 304 units, taken by more
    # children than this machine is likely to have CPUs; a unit handed out
    # twice or never changes the report
    grid = SuiteGrid(lambdas=tuple(Fraction(k, 17) for k in range(-8, 8)), ps=(0, 1),
                     n_max=1, order=3)
    assert len(grid.lambdas) * len(verify.CHECKS) > 256
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    forked = report_to_json_text(run_suite(grid, FAST_CFG))
    assert len(forks) == 4
    _assert_no_child_left()
    assert forked == _looped(grid, monkeypatch)


def test_worker_error_reaches_the_caller(monkeypatch):
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    real_check = verify.check_T2

    def broken(lam, *args):
        if lam == HALF:
            raise ValueError("boom")
        return real_check(lam, *args)

    monkeypatch.setattr(verify, "check_T2", broken)
    with pytest.raises(ValueError, match="^boom$") as raised:
        run_suite(FORK_GRID, FAST_CFG)
    assert type(raised.value) is ValueError
    # the child's traceback comes along as the cause, down to the raising frame
    cause = str(raised.value.__cause__)
    assert "in broken" in cause
    assert 'raise ValueError("boom")' in cause
    assert len(forks) == 3
    _assert_no_child_left()


def test_a_child_that_dies_raises(monkeypatch):
    _cpus(monkeypatch, 3)
    caller = os.getpid()
    real_check = verify.check_T2

    def dying(lam, *args):
        if os.getpid() != caller:
            os._exit(3)
        return real_check(lam, *args)

    monkeypatch.setattr(verify, "check_T2", dying)
    with pytest.raises(RuntimeError, match="exited with status 3$"):
        run_suite(FORK_GRID, FAST_CFG)
    _assert_no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_a_child_killed_while_it_holds_the_queue_record_raises():
    """The second of two children SIGKILLs itself right after it reads the
    queue record, so the record is never written back and the first child
    blocks on the empty queue. The caller must see the death and raise
    rather than wait on the first child. It runs in its own session, so that
    a hang is ended, children included, by killing the process group."""
    import truncbell

    script = (
        "import os, signal, time\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from fractions import Fraction\n"
        "from truncbell import verify\n"
        "real_fork, real_read, real_unit = os.fork, os.read, verify._run_unit\n"
        "forked, victim = [], False\n"
        "def fork():\n"
        "    global victim\n"
        "    pid = real_fork()\n"
        "    if pid:\n"
        "        forked.append(pid)\n"
        "    else:\n"
        "        victim = len(forked) == 1\n"
        "    return pid\n"
        "def read(fd, size):\n"
        "    data = real_read(fd, size)\n"
        "    if victim:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return data\n"
        "def unit(*args):\n"
        "    time.sleep(0.02)  # so the first child cannot empty the queue alone\n"
        "    return real_unit(*args)\n"
        "os.fork, os.read, verify._run_unit = fork, read, unit\n"
        "grid = verify.SuiteGrid(lambdas=(Fraction(0), Fraction(1, 2)), ps=(1,), n_max=2,\n"
        "                        order=4)\n"
        "try:\n"
        "    verify.run_suite(grid)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(truncbell.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_suite hung on a child killed while it held the queue record")
    assert (proc.returncode, err) == (0, "")
    assert re.fullmatch(r"suite child process \d+ was killed by signal 9\n", out)


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_lowest_failing_unit_is_raised(cpus, monkeypatch):
    # T2 fails at every lambda, and at lambda = 0 (unit 1, the lowest) only
    # after the others: unit 0 keeps the first child busy, so unit 1 goes to
    # a later child, and the first child stops at a higher failing unit
    _cpus(monkeypatch, cpus)
    real_check = verify.check_T1

    def slow(lam, *args):
        if lam == 0:
            time.sleep(0.2)
        return real_check(lam, *args)

    def broken(lam, *args):
        if lam == 0:
            time.sleep(0.3)
        raise ValueError(f"at lambda = {lam}")

    monkeypatch.setattr(verify, "check_T1", slow)
    monkeypatch.setattr(verify, "check_T2", broken)
    with pytest.raises(ValueError, match="^at lambda = 0$"):
        run_suite(FORK_GRID, FAST_CFG)
    _assert_no_child_left()


def test_a_forked_run_leaves_the_open_fds_as_they_were(monkeypatch):
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    before = sorted(os.listdir("/proc/self/fd"))
    run_suite(FORK_GRID, FAST_CFG)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 2


def test_the_fork_path_runs_clean_under_strict_warnings():
    """Two usable CPUs in a fresh interpreter with -X dev -W error: a file or
    fd left open (ResourceWarning) or a fork of a threaded process
    (DeprecationWarning, Python 3.12+) shows on stderr or fails the run.
    DeprecationWarning is printed rather than raised, since os.fork of
    Python 3.12 drops its warning without a word when it is an error."""
    import truncbell

    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "real_fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or real_fork()\n"
        "from fractions import Fraction\n"
        "from truncbell import verify\n"
        "grid = verify.SuiteGrid(lambdas=(Fraction(0), Fraction(1, 2)), ps=(0, 2), n_max=4,\n"
        "                        order=6)\n"
        "report = verify.run_suite(grid, verify.NumericConfig(moment_nodes=5000))\n"
        "print(len(forks), report.exit_code())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(truncbell.__file__).parents[1]))
    strict = ["-X", "dev", "-W", "error", "-W", "always::DeprecationWarning"]
    out = subprocess.run([sys.executable, *strict, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "2 0\n")


_HEAVY_MODULES = ("concurrent.futures", "multiprocessing", "numpy", "truncbell.numeric",
                  "truncbell.verify")
_CLI = "from truncbell import cli\nif cli.main({}) != 0: raise SystemExit('command failed')"


@pytest.mark.parametrize("code, loaded", [
    ("import truncbell", []),
    (_CLI.format(["table", "--family", "S2deg", "--lambda", "1/2", "--n-max", "4"]), []),
    (_CLI.format(["eval", "--family", "TruncBellDeg", "--lambda", "1/2", "--p", "1",
                  "--n", "2", "--x", "1/3"]), []),
    (_CLI.format(["check", "--id", "T1", "--lambda", "1/3", "--p", "2", "--n-max", "4"]),
     ["numpy", "truncbell.numeric", "truncbell.verify"]),
    ("import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"
     + _CLI.format(["suite", "--lambdas=0,1/2", "--ps=0,1", "--n-max=4", "--order=6",
                    "--moment-nodes=5000"]),
     ["numpy", "truncbell.numeric", "truncbell.verify"]),
], ids=["import", "table", "eval", "check", "suite"])
def test_modules_loaded_by_entry_point(code, loaded):
    """The exact paths load neither numpy nor the float kernels nor the
    check engine; check and suite load the engine, the kernels and numpy
    (so the probe sees them at all), and suite, which forks on two usable
    CPUs, loads neither multiprocessing nor concurrent.futures."""
    import truncbell

    probe = f"{code}\nimport sys; print(sorted(set({_HEAVY_MODULES!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(truncbell.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == repr(loaded)


def test_lazy_exports_are_the_engine_objects():
    import truncbell

    for name in ("ADJUDICATION_IDS", "KNOWN_CHECK_IDS", "NumericConfig", "SuiteGrid",
                 "SuiteReport", "Verdict", "default_grid", "exit_code_for",
                 "report_to_json_text", "run_check", "run_suite", "verdicts_to_json_text"):
        assert getattr(truncbell, name) is getattr(verify, name), name
    assert truncbell.verify is verify
    with pytest.raises(AttributeError, match="no_such_name"):
        truncbell.no_such_name
