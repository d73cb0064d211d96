import functools
import gc
import importlib
import inspect
import json
import pkgutil
import weakref
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraction_kernel import read_poly
from oracles import bell_oracle, stirling1_oracle, stirling2_oracle
import truncbell
from truncbell import sequences
from truncbell.fps import Fps, Poly, deg_exp, lincomb, times_deg_exp_x
from truncbell.sequences import (
    CONSTRUCTION,
    Family,
    bell_classical,
    bell_deg,
    build_table,
    deg_bernoulli,
    deg_bernoulli_num,
    deg_falling_factorial_poly,
    stirling1,
    stirling1_deg,
    stirling2,
    stirling2_deg,
    stirling2_deg_poly,
    stirling2_deg_poly_egf,
    trunc_bell_deg,
    trunc_bell_deg_egf,
    trunc_mod_bell_deg,
    trunc_mod_bell_deg_egf,
)

LAMBDAS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2)]

lam_st = st.fractions(min_value=-3, max_value=3, max_denominator=12)


# ---------------------------------------------------------------- enumeration oracles


def test_stirling2_matches_partition_enumeration():
    for n in range(8):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_oracle(n, k)


def test_stirling1_matches_cycle_enumeration():
    for n in range(8):
        for k in range(n + 1):
            assert stirling1(n, k) == stirling1_oracle(n, k)


def test_bell_classical_matches_partition_enumeration():
    for n in range(9):
        assert bell_classical(n) == bell_oracle(n)
    assert [bell_classical(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_bell_poly_classical_row_sums():
    for n in range(9):
        assert bell_deg(n, Fraction(0))(Fraction(1)) == bell_classical(n)


# ---------------------------------------------------------------- classical degeneration


def test_degenerate_families_specialize_at_lam_zero():
    for n in range(11):
        for k in range(n + 1):
            assert stirling2_deg(n, k, Fraction(0)) == stirling2(n, k)
            assert stirling1_deg(n, k, Fraction(0)) == stirling1(n, k)


def test_falling_factorial_polys_specialize():
    falling = Poly.one()  # x (x-1) ... (x-n+1)
    for n in range(9):
        assert deg_falling_factorial_poly(n, Fraction(1)) == falling
        assert deg_falling_factorial_poly(n, Fraction(0)) == Poly.x() ** n
        falling = falling * Poly((-n, 1))


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3),
                                 Fraction(7, 3), Fraction(-99, 100)])
def test_stirling1_deg_satisfies_its_defining_relation(lam):
    # (x)_n = sum_k stirling1_deg(n, k, lam) (x)_{k,lam}, read off the products
    # alone: no second-kind row enters either side
    for n in range(13):
        rhs = lincomb((stirling1_deg(n, k, lam), deg_falling_factorial_poly(k, lam))
                      for k in range(n + 1))
        assert rhs == deg_falling_factorial_poly(n, Fraction(1))


# ---------------------------------------------------------------- triangle structure


@pytest.mark.parametrize("lam", LAMBDAS)
def test_stirling_triangles_are_mutually_inverse(lam):
    n_top = 10
    for n in range(n_top + 1):
        for m in range(n_top + 1):
            s12 = sum(stirling1_deg(n, k, lam) * stirling2_deg(k, m, lam) for k in range(n + 1))
            s21 = sum(stirling2_deg(n, k, lam) * stirling1_deg(k, m, lam) for k in range(n + 1))
            expected = Fraction(1 if n == m else 0)
            assert s12 == expected
            assert s21 == expected


@pytest.mark.parametrize("lam", LAMBDAS)
def test_triangles_vanish_above_diagonal_and_normalize(lam):
    for n in range(9):
        assert stirling2_deg(n, n, lam) == 1
        assert stirling1_deg(n, n, lam) == 1
        assert stirling2_deg(n, n + 2, lam) == 0
        if n > 0:
            assert stirling2_deg(n, 0, lam) == 0


# ---------------------------------------------------------------- dual constructions


@pytest.mark.parametrize("lam", LAMBDAS)
def test_stirling_egf_routes_agree(lam):
    # at x = 0 the x-shifted series z^k / k! * e_lam^x(t) is z^k / k!, the
    # generating series of column k of the degenerate second-kind triangle
    for n in range(9):
        for k in range(n + 1):
            assert stirling2_deg_poly_egf(n, k, lam, order=8)(0) == stirling2_deg(n, k, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_bell_family_egf_routes_agree(lam):
    for p in range(5):
        for n in range(9):
            assert trunc_bell_deg_egf(n, p, lam, order=8) == trunc_bell_deg(n, p, lam)
            assert trunc_mod_bell_deg_egf(n, p, lam, order=8) == trunc_mod_bell_deg(n, p, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_shifted_stirling_poly_egf_route_agrees(lam):
    for n in range(7):
        for l in range(n + 1):
            assert stirling2_deg_poly_egf(n, l, lam, order=6) == stirling2_deg_poly(n, l, lam)


@pytest.mark.parametrize("l", [-1, 5])
def test_shifted_stirling_poly_is_zero_off_the_triangle(l):
    assert stirling2_deg_poly(4, l, Fraction(1, 2)) == Poly()
    assert stirling2_deg_poly_egf(4, l, Fraction(1, 2), order=6) == Poly()


def test_shifted_stirling_poly_at_zero_reduces_to_plain():
    for lam in LAMBDAS:
        for n in range(8):
            for l in range(n + 1):
                assert stirling2_deg_poly(n, l, lam)(Fraction(0)) == stirling2_deg(n, l, lam)


def test_series_order_too_small_raises():
    with pytest.raises(ValueError):
        trunc_bell_deg_egf(5, 1, Fraction(1, 2), order=3)
    with pytest.raises(ValueError):
        stirling2_deg_poly_egf(5, 2, Fraction(1, 2), order=4)


def test_construction_tags_distinguish_dual_routes():
    pairs = [
        ("trunc_bell_deg", "trunc_bell_deg_egf"),
        ("trunc_mod_bell_deg", "trunc_mod_bell_deg_egf"),
        ("stirling2_deg_poly", "stirling2_deg_poly_egf"),
    ]
    for primary, secondary in pairs:
        assert CONSTRUCTION[primary] != CONSTRUCTION[secondary], (primary, secondary)


# ---------------------------------------------------------------- truncated family basics


@given(lam_st, st.integers(0, 7), st.integers(0, 4))
def test_row_sum_identity_at_x_one(lam, n, p):
    total = sum(
        stirling2_deg(n, k, lam) / comb(k + p, k) for k in range(n + 1)
    )
    assert trunc_bell_deg(n, p, lam)(Fraction(1)) == total


@pytest.mark.parametrize("lam", LAMBDAS)
def test_truncation_at_zero_is_plain_family(lam):
    for n in range(9):
        assert trunc_bell_deg(n, 0, lam) == bell_deg(n, lam)


def test_known_truncated_coefficients():
    # coefficient of x^k is the triangle entry divided by C(k+p, k)
    p = trunc_bell_deg(2, 1, Fraction(1, 2))
    assert p == Poly((0, Fraction(1, 4), Fraction(1, 3)))


def test_family_domain_errors():
    with pytest.raises(ValueError):
        trunc_bell_deg(-1, 0, Fraction(0))
    with pytest.raises(ValueError):
        trunc_bell_deg(2, -1, Fraction(0))
    with pytest.raises(ValueError):
        stirling2_deg(-1, 0, Fraction(0))


# ---------------------------------------------------------------- degenerate Bernoulli


@pytest.mark.parametrize("lam", LAMBDAS)
def test_deg_bernoulli_low_orders(lam):
    assert deg_bernoulli_num(0, 1, lam) == 1
    assert deg_bernoulli_num(1, 1, lam) == (lam - 1) / 2
    for n in range(6):
        assert deg_bernoulli_num(n, 0, lam) == (1 if n == 0 else 0)
        assert deg_bernoulli(n, 1, lam)(Fraction(0)) == deg_bernoulli_num(n, 1, lam)


def test_deg_bernoulli_lam_one_collapses():
    # the deformed exponential minus one equals t itself at lam = 1
    for r in range(4):
        for n in range(6):
            assert deg_bernoulli_num(n, r, Fraction(1)) == (1 if n == 0 else 0)


def _bern_series(lam, r, depth):
    """(t / (deformed exp - 1))**r through t^depth, built here."""
    return (Fps.t(depth + 1) / (deg_exp(1, lam, depth + 1) - 1)) ** r


@pytest.mark.parametrize("r", [1, 3])
def test_deg_bernoulli_tables_grow_on_demand(r, monkeypatch):
    # a fresh memo in place of _bern_nums records the depth of every series
    # it builds, and every deformed exponential the module builds is counted;
    # lambdas no other test uses, so the polynomial memo starts cold
    lam, fresh = Fraction(-5, 11), Fraction(-7, 19)
    builds, exps = [], []
    real = sequences._bern_nums.__wrapped__
    real_exp = sequences.deg_exp

    def counted_exp(*args):
        exps.append(args[-1])
        return real_exp(*args)

    @functools.lru_cache(maxsize=None)
    def counted(*args):
        builds.append(args[-1])
        return real(*args)

    monkeypatch.setattr(sequences, "_bern_nums", counted)
    monkeypatch.setattr(sequences, "deg_exp", counted_exp)
    nums = [deg_bernoulli_num(n, r, lam) for n in range(13)]
    polys = [deg_bernoulli(n, r, lam) for n in range(13)]
    # asking again, or for a shallower n, rebuilds nothing
    assert deg_bernoulli_num(5, r, lam) == nums[5]
    assert deg_bernoulli(12, r, lam) == polys[12]
    # every n <= 15 reads one series of depth 15, and the polynomials build
    # none of their own
    assert (builds, exps) == ([15], [16])
    # the n-th entry is the one a series of depth exactly n gives
    for n in range(13):
        at_depth_n = _bern_series(lam, r, n)
        assert nums[n] == at_depth_n.egf_coeff(n)
        assert polys[n] == times_deg_exp_x(at_depth_n, lam)[n] * factorial(n)
        assert polys[n](Fraction(0)) == nums[n]
    # a descending run builds depth 31 for n = 20, then 15 for n = 12 and
    # nothing more for n = 3, each value the one a depth-n series gives
    builds.clear()
    exps.clear()
    for n in (20, 12, 3):
        at_depth_n = _bern_series(fresh, r, n)
        assert deg_bernoulli_num(n, r, fresh) == at_depth_n.egf_coeff(n)
        assert deg_bernoulli(n, r, fresh) == times_deg_exp_x(at_depth_n, fresh)[n] * factorial(n)
    assert (builds, exps) == ([31, 15], [32, 16])


# ---------------------------------------------------------------- tables


def test_equal_keys_build_equal_tables():
    a = build_table(Family.S2deg, 6, lam=Fraction(1, 2))
    b = build_table("S2deg", 6, lam=Fraction(1, 2))
    assert a == b
    assert a.value(2, 1) == Fraction(1, 2)


def test_build_table_keeps_no_table_alive():
    table = build_table(Family.S1deg, 6, lam=Fraction(5, 11))
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None


def test_build_table_validates_parameters():
    with pytest.raises(ValueError):
        build_table(Family.S2deg, 4)  # missing lambda
    with pytest.raises(ValueError):
        build_table(Family.BellClassical, 4, lam=Fraction(1))
    with pytest.raises(ValueError):
        build_table(Family.S2deg, 4, lam=Fraction(1), p=1)
    with pytest.raises(ValueError):
        build_table(Family.TruncBellDeg, 4, lam=Fraction(1))  # missing p
    with pytest.raises(ValueError):
        build_table(Family.BellDeg, 4, lam=Fraction(1), r=2)
    with pytest.raises(ValueError):
        build_table(Family.TruncBellDeg, -1, lam=Fraction(1), p=0)
    with pytest.raises(ValueError):
        build_table(Family.TruncBellDeg, 4, lam=Fraction(1), p=-1)


def test_table_csv_golden():
    text = build_table(Family.S2deg, 3, lam=Fraction(1, 2)).to_csv_text()
    assert text == (
        "n,k=0,k=1,k=2,k=3\n"
        "0,1,,,\n"
        "1,0,1,,\n"
        "2,0,1/2,1,\n"
        "3,0,0,3/2,1\n"  # (1-lam)(1-2*lam) vanishes at lam = 1/2
    )


def test_sequence_table_csv_for_linear_family():
    text = build_table(Family.BellClassical, 5).to_csv_text()
    assert text.splitlines()[1:] == ["0,1", "1,1", "2,2", "3,5", "4,15", "5,52"]


@pytest.mark.parametrize(
    "family,kwargs",
    [
        (Family.S2deg, {"lam": Fraction(-1, 3)}),
        (Family.S2degPoly, {"lam": Fraction(1, 2)}),
        (Family.BernoulliDeg, {"lam": Fraction(1, 2), "r": 2}),
        (Family.TruncBellDeg, {"lam": Fraction(1, 2), "p": 2}),
        (Family.TruncModBellDeg, {"lam": Fraction(-1, 3), "p": 1}),
        (Family.BellClassical, {}),
    ],
)
def test_table_json_round_trip(family, kwargs):
    table = build_table(family, 5, **kwargs)
    data = json.loads(table.to_json_text())
    assert _json_values(data) == table.values
    lam = kwargs.get("lam")
    assert (data["family"], data["lambda"], data["p"], data["r"]) == (
        family.value, None if lam is None else str(lam), kwargs.get("p"), kwargs.get("r"))
    assert (data["n_max"], data["construction"]) == (5, table.construction)


@pytest.mark.parametrize("term", ["1*x^-1", "1*x^+2"])
def test_table_json_rejects_signed_exponents(term):
    # the round trip reads values strictly, so a signed exponent fails it
    data = build_table(Family.BellDeg, 2, lam=Fraction(1, 2)).to_json_dict()
    data["values"][2] = f"2 + {term}"
    with pytest.raises(ValueError, match="invalid polynomial term"):
        _json_values(data)


# the families whose entries are polynomials in x, written out here rather
# than read from the package
POLY_VALUED = {Family.S2degPoly, Family.BernoulliDeg, Family.BellDeg, Family.TruncBellDeg,
               Family.TruncModBellDeg}


def _json_values(data: dict) -> tuple:
    """A table's JSON values read back exactly, by the reference reader."""
    family = Family(data["family"])
    spec = sequences.FAMILIES[family]
    read = (lambda v: Poly(read_poly(v).coeffs)) if family in POLY_VALUED else Fraction
    if spec.triangular:
        return tuple(tuple(map(read, row)) for row in data["values"])
    return tuple(map(read, data["values"]))


def test_table_output_is_byte_stable():
    a = build_table(Family.TruncBellDeg, 6, lam=Fraction(-1, 3), p=2)
    b = build_table(Family.TruncBellDeg, 6, lam=Fraction(-1, 3), p=2)
    assert a.to_json_text() == b.to_json_text()
    assert a.to_csv_text() == b.to_csv_text()


def test_table_value_accessor_shape_checks():
    tri = build_table(Family.S2deg, 4, lam=Fraction(1, 2))
    lin = build_table(Family.BellClassical, 4)
    with pytest.raises(ValueError):
        tri.value(2)
    with pytest.raises(ValueError):
        lin.value(2, 1)


def test_table_value_rejects_indices_outside_the_table():
    lin = build_table(Family.BellClassical, 4)
    tri = build_table(Family.S2, 4)
    assert lin.value(4) == 15
    assert tri.value(2, 2) == 1
    for n in (-1, 5):
        with pytest.raises(ValueError, match="0 <= n <= n_max = 4"):
            lin.value(n)
        with pytest.raises(ValueError, match="0 <= n <= n_max = 4"):
            tri.value(n, 0)
    for k in (-1, 3):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            tri.value(2, k)


def _package_modules():
    return [importlib.import_module(f"truncbell.{info.name}")
            for info in pkgutil.iter_modules(truncbell.__path__)
            if info.name != "__main__"]  # importing it runs the CLI


def test_every_memo_is_bounded():
    memos = [(module.__name__, name, v) for module in _package_modules()
             for name, v in vars(module).items() if callable(getattr(v, "cache_parameters", None))]
    assert memos
    for module_name, name, memo in memos:
        assert memo.cache_parameters()["maxsize"] == sequences.MEMO_MAXSIZE, (module_name, name)


# every memo whose key holds a lambda, keyed by its (numerator, denominator)
LAMBDA_MEMOS = {
    "sequences": ["_deg_ff_poly", "_s2deg_num", "_s2deg_row", "_s1deg_row", "_s2deg_poly",
                  "_trunc_poly", "_trunc_mod_poly", "_bern_nums", "_bern_polys", "_z_pow",
                  "_trunc_gf", "_mod_gf", "_s2degpoly_gf"],
    "verify": ["_operator_core"],
}

# every other memo of the package: these hold no lambda, except circle_data,
# the float layer's contour nodes, keyed by the Fraction lambda it evaluates at
OTHER_MEMOS = {
    "sequences": {"_s2_row"},
    "numeric": {"circle_data", "_series_weight_matrix"},
}


def test_lambda_memos_are_bounded_and_keyed_by_integers():
    for module_name, names in LAMBDA_MEMOS.items():
        module = importlib.import_module(f"truncbell.{module_name}")
        for name in names:
            memo = getattr(module, name)
            assert callable(memo.cache_info), name
            assert memo.cache_parameters()["maxsize"] == sequences.MEMO_MAXSIZE, name
            assert list(inspect.signature(memo).parameters)[:2] == ["a", "b"], name
    # the two lists classify every memo the package defines
    for module in _package_modules():
        short = module.__name__.removeprefix("truncbell.")
        memos = {name for name, v in vars(module).items()
                 if hasattr(v, "cache_parameters") and v.__module__ == module.__name__}
        assert memos == set(LAMBDA_MEMOS.get(short, ())) | OTHER_MEMOS.get(short, set()), short


def _immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(_immutable(v) for v in value)
    if isinstance(value, (Poly, Fps)):
        return _immutable(value.num) and _immutable(value.den)
    return isinstance(value, (int, Fraction))


def test_every_lambda_memo_holds_an_immutable_value():
    # a memo's value must not change after it is stored; every lambda memo
    # takes integer arguments, so 1, 2, 3, ... is a valid call of each
    for module_name, names in LAMBDA_MEMOS.items():
        module = importlib.import_module(f"truncbell.{module_name}")
        for name in names:
            memo = getattr(module, name)
            value = memo(*range(1, len(inspect.signature(memo).parameters) + 1))
            assert _immutable(value), name


def test_equal_lambdas_share_one_memo_entry():
    # a lambda no other test uses, so the entries start cold
    first, second = Fraction(7, 13), Fraction(14, 26)
    assert first == second and first is not second
    memo = sequences._s2deg_row
    value = stirling2_deg(6, 2, first)
    before = memo.cache_info()
    assert stirling2_deg(6, 2, second) == value
    assert stirling2_deg(6, 2, "21/39") == value
    after = memo.cache_info()
    assert after.hits == before.hits + 2
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert build_table(Family.S2deg, 3, lam="2/4") == build_table(Family.S2deg, 3,
                                                                   lam=Fraction(1, 2))


def test_warm_reads_hash_no_fraction(monkeypatch):
    lam = Fraction(-3, 17)
    reads = [
        lambda: stirling2_deg(9, 4, lam),
        lambda: bell_deg(9, lam),
        lambda: trunc_bell_deg(9, 2, lam),
        lambda: trunc_bell_deg_egf(9, 2, lam, 12),
        lambda: trunc_mod_bell_deg_egf(9, 2, lam, 12),
        lambda: deg_bernoulli_num(9, 2, lam),
    ]
    warm = [read() for read in reads]
    hashes = []
    real = Fraction.__hash__

    def counted(self):
        hashes.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    hash(Fraction(1, 3))  # the counter sees a Fraction hash
    assert len(hashes) == 1
    assert [read() for read in reads] == warm
    assert len(hashes) == 1
