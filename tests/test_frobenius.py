"""Potential construction, WDVV/Euler/intersection identities, B -> C."""

from fractions import Fraction

import pytest

from weylfrob.cli import compare_fixture
from weylfrob.exactalg import Poly
from weylfrob.fixtures import FIXTURES
from weylfrob.frobenius import (PotentialF, build_structure, oracle_check,
                                third_from_potential, verify_euler_unity,
                                verify_intersection, verify_wdvv)
from weylfrob.rootdata import RootSystemSpec

ALL_SMALL = [(l, k) for l in range(1, 4) for k in range(1, l + 1)]


def test_rank1_potential_closed_form():
    struct = build_structure(RootSystemSpec("C", 1, 1))
    tc = struct.potential.chart
    assert struct.potential.poly == Fraction(1, 2) * Poly.monomial(tc, {"E": 2})
    # third derivative along the log coordinate (the worked value)
    f3 = third_from_potential(struct.potential)
    assert f3[1][1][1] == 4 * Poly.monomial(tc, {"E": 2})
    assert f3[0][0][1] == Poly.const(tc, 1)


def test_g_in_t_c3k1_entry():
    struct = build_structure(RootSystemSpec("C", 3, 1))
    tc = struct.g_t.chart
    expected = Fraction(1, 4) * Poly.monomial(tc, {"t2": 1, "t3": -1}) \
        - Fraction(1, 12) * Poly.monomial(tc, {"t3": 2})
    assert struct.g_t.mat[2][2] == expected


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_unity_row_equals_eta(l, k):
    struct = build_structure(RootSystemSpec("C", l, k))
    f3 = third_from_potential(struct.potential)
    kpos = k - 1
    tc = struct.potential.chart
    for i in range(l + 1):
        for j in range(l + 1):
            assert f3[kpos][i][j] == Poly.const(tc, struct.eta_cov[i][j])


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_third_tensor_totally_symmetric(l, k):
    struct = build_structure(RootSystemSpec("C", l, k))
    f3 = third_from_potential(struct.potential)
    n = l + 1
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert f3[a][b][c] == f3[b][a][c] == f3[a][c][b]


@pytest.mark.parametrize("fixture_id", ["c3k1", "c4k1", "c4k2"])
def test_fixture_potentials_match(fixture_id):
    fx = FIXTURES[fixture_id]
    struct = build_structure(RootSystemSpec(fx.family, fx.rank, fx.vertex))
    assert compare_fixture(struct, fx) == []


def test_named_fixture_coefficients():
    s3 = build_structure(RootSystemSpec("C", 3, 1))

    def coeff(poly, mono):
        for e, c in poly.terms.items():
            if poly.exponents_as_dict(e) == mono:
                return c
        return Fraction(0)

    assert coeff(s3.potential.poly, {"t2": 3, "t3": -1}) == Fraction(1, 48)
    assert coeff(s3.potential.poly, {"t3": 8}) == Fraction(-1, 36288)
    s41 = build_structure(RootSystemSpec("C", 4, 1))
    assert coeff(s41.potential.poly, {"t3": 5, "t4": -3}) == Fraction(1, 4320)
    assert coeff(s41.potential.poly, {"t4": 12}) == Fraction(-1, 7603200)
    s42 = build_structure(RootSystemSpec("C", 4, 2))
    assert coeff(s42.potential.poly, {"E": 4}) == Fraction(1, 4)
    assert coeff(s42.potential.poly, {"t3": 3, "t4": -1}) == Fraction(1, 48)


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_wdvv_residuals_vanish(l, k):
    struct = build_structure(RootSystemSpec("C", l, k))
    assert verify_wdvv(struct) == []


def test_wdvv_negative_control():
    struct = build_structure(RootSystemSpec("C", 3, 1))
    tc = struct.potential.chart
    corrupted = PotentialF(tc, struct.potential.vertex,
                           struct.potential.poly + Poly.monomial(tc, {"t2": 2, "t3": 2}))
    bad = type(struct)(**{**struct.__dict__, "potential": corrupted})
    assert verify_wdvv(bad) != []


def test_euler_residuals():
    s1 = build_structure(RootSystemSpec("C", 1, 1))
    tc = s1.potential.chart
    assert verify_euler_unity(s1) == Fraction(1, 2) * Poly.monomial(tc, {"t1": 2})
    s42 = build_structure(RootSystemSpec("C", 4, 2))
    tc42 = s42.potential.chart
    assert verify_euler_unity(s42) == Fraction(1, 4) * Poly.monomial(tc42, {"t2": 2})
    assert s42.euler.dtilde == (Fraction(1, 2), Fraction(1), Fraction(3, 4),
                                Fraction(1, 4))
    assert s42.euler.last_component == Fraction(1, 2)


@pytest.mark.parametrize("l,k", [(l, k) for l in range(1, 5) for k in range(1, l + 1)])
def test_intersection_relations(l, k):
    struct = build_structure(RootSystemSpec("C", l, k))
    verify_intersection(struct)


@pytest.mark.parametrize("family,l,k", [("B", 2, 1), ("B", 2, 2), ("B", 3, 1),
                                        ("B", 3, 2), ("B", 3, 3)])
def test_b_to_c_identification(family, l, k):
    spec = RootSystemSpec(family, l, k)
    struct = build_structure(spec)
    assert struct.cspec == RootSystemSpec("C", l, k)
    assert struct.b_ident is not None and struct.b_ident.validated
    expected_scale = Fraction(1, 2) if k == l else Fraction(1)
    assert struct.b_ident.log_scale == expected_scale
    assert oracle_check(struct)


def test_b_potential_equals_c_potential():
    b = build_structure(RootSystemSpec("B", 3, 2))
    c = build_structure(RootSystemSpec("C", 3, 2))
    assert b.potential.poly == c.potential.poly
    assert b.euler == c.euler


def test_oracle_check_passes_small_c():
    for l in (1, 2, 3):
        for k in range(1, l + 1):
            assert oracle_check(build_structure(RootSystemSpec("C", l, k)))
    assert oracle_check(build_structure(RootSystemSpec("C", 4, 1)),
                        max_rank=3) is False  # skipped


def test_rank6_structure_builds_and_verifies():
    struct = build_structure(RootSystemSpec("C", 6, 3))
    assert verify_wdvv(struct) == []
    verify_intersection(struct)


def test_b_above_oracle_bound_builds_unvalidated():
    struct = build_structure(RootSystemSpec("B", 4, 4))
    assert struct.b_ident is not None and not struct.b_ident.validated
    assert struct.potential.poly == build_structure(RootSystemSpec("C", 4, 4)).potential.poly
