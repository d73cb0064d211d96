import importlib
import json
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bell_oracle, stirling1_oracle, stirling2_oracle
import truncbell
from truncbell.exactnum import binomial
from truncbell import sequences
from truncbell.fps import Poly, deg_exp, lift_to_poly_ring
from truncbell.sequences import (
    CONSTRUCTION,
    Family,
    SequenceTable,
    bell_classical,
    bell_deg,
    bell_deg_egf,
    bell_poly_classical,
    build_table,
    deg_bernoulli,
    deg_bernoulli_num,
    deg_falling_factorial_poly,
    falling_factorial_poly,
    stirling1,
    stirling1_deg,
    stirling1_deg_egf,
    stirling2,
    stirling2_deg,
    stirling2_deg_egf,
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
        assert bell_poly_classical(n)(Fraction(1)) == bell_classical(n)
        assert bell_poly_classical(n) == bell_deg(n, Fraction(0))


# ---------------------------------------------------------------- classical degeneration


def test_degenerate_families_specialize_at_lam_zero():
    for n in range(11):
        for k in range(n + 1):
            assert stirling2_deg(n, k, Fraction(0)) == stirling2(n, k)
            assert stirling1_deg(n, k, Fraction(0)) == stirling1(n, k)


def test_falling_factorial_polys_specialize():
    for n in range(9):
        assert deg_falling_factorial_poly(n, Fraction(1)) == falling_factorial_poly(n)
        assert deg_falling_factorial_poly(n, Fraction(0)) == Poly.monomial(n)


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
    for n in range(9):
        for k in range(n + 1):
            assert stirling2_deg_egf(n, k, lam, order=8) == stirling2_deg(n, k, lam)
            assert stirling1_deg_egf(n, k, lam, order=8) == stirling1_deg(n, k, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_bell_family_egf_routes_agree(lam):
    for n in range(9):
        assert bell_deg_egf(n, lam, order=8) == bell_deg(n, lam)
    for p in range(5):
        for n in range(9):
            assert trunc_bell_deg_egf(n, p, lam, order=8) == trunc_bell_deg(n, p, lam)
            assert trunc_mod_bell_deg_egf(n, p, lam, order=8) == trunc_mod_bell_deg(n, p, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_shifted_stirling_poly_egf_route_agrees(lam):
    for n in range(7):
        for l in range(n + 1):
            assert stirling2_deg_poly_egf(n, l, lam, order=6) == stirling2_deg_poly(n, l, lam)


def test_shifted_stirling_poly_at_zero_reduces_to_plain():
    for lam in LAMBDAS:
        for n in range(8):
            for l in range(n + 1):
                assert stirling2_deg_poly(n, l, lam)(Fraction(0)) == stirling2_deg(n, l, lam)


def test_series_order_too_small_raises():
    with pytest.raises(ValueError):
        trunc_bell_deg_egf(5, 1, Fraction(1, 2), order=3)
    with pytest.raises(ValueError):
        stirling2_deg_egf(5, 2, Fraction(1, 2), order=4)


def test_construction_tags_distinguish_dual_routes():
    pairs = [
        ("stirling2_deg", "stirling2_deg_egf"),
        ("stirling1_deg", "stirling1_deg_egf"),
        ("bell_deg", "bell_deg_egf"),
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
        stirling2_deg(n, k, lam) / binomial(k + p, k) for k in range(n + 1)
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


@pytest.mark.parametrize("r", [1, 3])
def test_deg_bernoulli_tables_grow_on_demand(r, monkeypatch):
    # a lambda no other test uses, so both tables start empty
    lam = Fraction(-5, 11)
    builds = []
    real = sequences._bern_base_pow

    def counted(*args):
        builds.append(args[-1])
        return real(*args)

    monkeypatch.setattr(sequences, "_bern_base_pow", counted)
    nums = [deg_bernoulli_num(n, r, lam) for n in range(13)]
    polys = [deg_bernoulli(n, r, lam) for n in range(13)]
    # asking again, or for a shallower n, rebuilds nothing
    assert deg_bernoulli_num(5, r, lam) == nums[5]
    assert deg_bernoulli(12, r, lam) == polys[12]
    # depths double: 0, 1, 3, 7, 15 for each table
    assert builds == [0, 1, 3, 7, 15] * 2
    # the n-th coefficient is the one a series of depth exactly n gives
    x = Poly.x()
    for n in range(13):
        at_depth_n = real(lam, r, n)
        assert nums[n] == at_depth_n.egf_coeff(n)
        gf = (lift_to_poly_ring(at_depth_n) * deg_exp(x, lam, n)).egf_coeff(n)
        assert polys[n] == gf
        assert polys[n](Fraction(0)) == nums[n]


# ---------------------------------------------------------------- tables


def test_build_table_is_memoized_per_key():
    a = build_table(Family.S2deg, 6, lam=Fraction(1, 2))
    b = build_table("S2deg", 6, lam=Fraction(1, 2))
    assert a is b
    assert a.value(2, 1) == Fraction(1, 2)


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
    parsed = SequenceTable.from_json_dict(json.loads(table.to_json_text()))
    assert parsed == table


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


def test_every_memo_is_bounded():
    package_modules = [importlib.import_module(f"truncbell.{info.name}")
                       for info in pkgutil.iter_modules(truncbell.__path__)
                       if info.name != "__main__"]  # importing it runs the CLI
    memos = [(module.__name__, name, v) for module in package_modules
             for name, v in vars(module).items() if callable(getattr(v, "cache_parameters", None))]
    assert memos
    for module_name, name, memo in memos:
        assert memo.cache_parameters()["maxsize"] == sequences.MEMO_MAXSIZE, (module_name, name)
