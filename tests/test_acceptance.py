"""Acceptance suite: one test per acceptance criterion, exact equality throughout.

Each test prints a PASS line on success (visible with `pytest -s`); pytest's
own per-test status provides the same information in the default mode.
"""

import json
import time
from fractions import Fraction

from weylfrob import cli
from weylfrob.exactalg import Poly
from weylfrob.fixtures import FIXTURES
from weylfrob.flatcoords import b_coefficients
from weylfrob.frobenius import (build_structure, oracle_check, third_derivatives,
                                verify_euler_unity, verify_intersection, verify_wdvv)
from weylfrob.metrics import assert_eta_pattern, build_pencil, det_eta_check, eta_pattern
from weylfrob.rootdata import RootSystemSpec, dual_index, flat_degrees
from weylfrob.serialize import document_json, structure_document

from test_flatcoords import reference_b_recursion
from test_frobenius import reference_connection_identity

STRUCTURES_L5 = [(l, k) for l in range(1, 6) for k in range(1, l + 1)]


def _report(name, started):
    print(f"PASS {name} ({time.monotonic() - started:.1f}s)")


def _coeff(poly, mono):
    for e, c in poly.terms.items():
        if poly.exponents_as_dict(e) == mono:
            return c
    return Fraction(0)


def test_criterion_01_c3k1_fixture():
    started = time.monotonic()
    fx = FIXTURES["c3k1"]
    struct = build_structure(RootSystemSpec("C", 3, 1))
    assert cli.compare_fixture(struct, fx) == []
    assert _coeff(struct.potential.poly, {"t2": 3, "t3": -1}) == Fraction(1, 48)
    assert _coeff(struct.potential.poly, {"t3": 8}) == Fraction(-1, 36288)
    # flat coordinates: t1 = y1 - 2 e^{y4}; t2 = (y2 - y3/6)(y3)^{-1/4}; t3 = (y3)^{1/4}
    yc = struct.pencil.chart
    assert struct.flat.p_list[0] == -2 * yc.var("E")
    assert struct.flat.z_map.forward["z2"] == yc.var("y2") - Fraction(1, 6) * yc.var("y3")
    wc = struct.flat.w_map.target
    assert struct.flat.w_map.pullback["z2"] == Poly.monomial(wc, {"w2": 1, "w3": 1})
    assert struct.flat.w_map.pullback["z3"] == Poly.monomial(wc, {"w3": 4})
    assert struct.flat.t_map.forward["t2"] == wc.var("w2")
    assert struct.flat.t_map.forward["t3"] == wc.var("w3")
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report("criterion 1 (c3k1 fixture)", started)


def test_criterion_02_c4k1_fixture():
    started = time.monotonic()
    fx = FIXTURES["c4k1"]
    struct = build_structure(RootSystemSpec("C", 4, 1))
    assert cli.compare_fixture(struct, fx) == []
    assert _coeff(struct.potential.poly, {"t3": 5, "t4": -3}) == Fraction(1, 4320)
    assert _coeff(struct.potential.poly, {"t4": 12}) == Fraction(-1, 7603200)
    yc = struct.pencil.chart
    z2 = struct.flat.z_map.forward["z2"]
    assert _coeff(z2, {"y3": 1}) == Fraction(-1, 6)
    assert _coeff(z2, {"y4": 1}) == Fraction(1, 30)
    wc = struct.flat.w_map.target
    assert struct.flat.h_polys[2] == Fraction(-1, 12) * Poly.monomial(wc, {"w3": 2})
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("criterion 2 (c4k1 fixture)", started)


def test_criterion_03_c4k2_fixture():
    started = time.monotonic()
    fx = FIXTURES["c4k2"]
    struct = build_structure(RootSystemSpec("C", 4, 2))
    assert cli.compare_fixture(struct, fx) == []
    assert _coeff(struct.potential.poly, {"E": 4}) == Fraction(1, 4)
    assert _coeff(struct.potential.poly, {"t3": 3, "t4": -1}) == Fraction(1, 48)
    assert struct.euler.last_component == Fraction(1, 2)
    assert struct.euler.dtilde == (Fraction(1, 2), Fraction(1), Fraction(3, 4),
                                   Fraction(1, 4))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("criterion 3 (c4k2 fixture)", started)


def test_criterion_04_wdvv_all_structures_rank5():
    started = time.monotonic()
    for (l, k) in STRUCTURES_L5:
        struct = build_structure(RootSystemSpec("C", l, k))
        assert verify_wdvv(struct) == [], f"WDVV residual at C{l} k={k}"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _report("criterion 4 (WDVV, 15 structures)", started)


def test_criterion_05_eta_normal_form_rank5():
    started = time.monotonic()
    for (l, k) in STRUCTURES_L5:
        spec = RootSystemSpec("C", l, k)
        struct = build_structure(spec)
        expected = eta_pattern(spec, struct.flat.eta_t.chart, "t")
        for i in range(l + 1):
            for j in range(l + 1):
                assert struct.flat.eta_t.mat[i][j] == expected[i][j]
    _report("criterion 5 (eta normal form, 15 structures)", started)


def test_criterion_06_det_eta_closed_form_rank6():
    started = time.monotonic()
    for l in range(1, 7):
        for k in range(1, l + 1):
            spec = RootSystemSpec("C", l, k)
            det_eta_check(spec, build_pencil(spec).eta)  # closed form with the derived sign
    _report("criterion 6 (det eta closed form, l <= 6)", started)


def test_criterion_07_eta_closed_form_rank6():
    started = time.monotonic()
    for l in range(1, 7):
        for k in range(1, l + 1):
            spec = RootSystemSpec("C", l, k)
            assert_eta_pattern(spec, build_pencil(spec).eta, "y")
    _report("criterion 7 (eta block closed form, l <= 6)", started)


def test_criterion_08_oracle_equivalence():
    started = time.monotonic()
    for l in (1, 2, 3):
        for k in range(1, l + 1):
            oracle_check(build_structure(RootSystemSpec("C", l, k)))
    for l in (2, 3):
        for k in range(1, l + 1):
            oracle_check(build_structure(RootSystemSpec("B", l, k)))  # includes k = l
    _report("criterion 8 (oracle equivalence, C and B)", started)


def test_criterion_09_euler_unity_duality():
    started = time.monotonic()
    for (l, k) in STRUCTURES_L5:
        struct = build_structure(RootSystemSpec("C", l, k))
        residual = verify_euler_unity(struct)
        expected = Poly.monomial(struct.potential.chart, {f"t{k}": 2}, Fraction(1, 2 * k))
        assert residual == expected
        f3 = third_derivatives(struct.potential)
        kpos = k - 1
        for i in range(l + 1):
            for j in range(l + 1):
                assert f3[kpos][i][j] == Poly.const(struct.potential.chart,
                                                    struct.eta_cov[i][j])
    for family in ("B", "C"):
        for l in range(1, 9):
            for k in range(1, l + 1):
                spec = RootSystemSpec(family, l, k)
                dt = flat_degrees(l, k)
                for i in range(1, l + 2):
                    assert dt[i - 1] + dt[dual_index(spec, i) - 1] == 1
    _report("criterion 9 (Euler/unity + duality)", started)


def test_criterion_10_b_coefficients():
    # the build reads B off the central factorial numbers' closed form; the
    # shear recursion, solved independently, must give the same constants
    # at every size up to 15 (n = l - k = 15 is the deepest block at rank 16)
    started = time.monotonic()
    bs = b_coefficients(8)
    assert bs[(1, 2)] == Fraction(1, 6)
    assert bs[(2, 3)] == Fraction(1, 4)
    assert bs[(1, 3)] == Fraction(1, 120)
    for n in range(1, 16):
        assert b_coefficients(n) == reference_b_recursion(n), n
    _report("criterion 10 (B-series == recursion)", started)


def test_criterion_11_intersection_relations_rank4():
    started = time.monotonic()
    for l in range(1, 5):
        for k in range(1, l + 1):
            struct = build_structure(RootSystemSpec("C", l, k))
            verify_intersection(struct)
            reference_connection_identity(struct)
    _report("criterion 11 (g = L_E F^{ij}, Gamma = dtilde c, l <= 4)", started)


def test_criterion_12_cli_contract(tmp_path, monkeypatch, capsys):
    started = time.monotonic()
    struct = build_structure(RootSystemSpec("C", 3, 1))
    report = cli.run_checks(struct, cli.CHECK_NAMES, 3)
    text = document_json(structure_document(struct, report))
    assert document_json(json.loads(text)) == text  # byte-identical round trip
    out = tmp_path / "doc.json"
    assert cli.main(["construct", "--family", "C", "--rank", "2", "--vertex", "1",
                     "--out", str(out)]) == 0
    assert document_json(json.loads(out.read_text())) == out.read_text()
    # exit-code contract on corrupted input
    assert cli.main(["verify", "--family", "C", "--rank", "2", "--vertex", "9"]) == 2
    from weylfrob.fixtures import C3K1, Fixture
    bad = Fixture(identifier="c3k1", family="C", rank=3, vertex=1,
                  p_terms={1: [({"E": 1}, "-5")]}, z_terms=C3K1.z_terms,
                  h_terms=C3K1.h_terms, potential_terms=C3K1.potential_terms,
                  euler_dtilde=C3K1.euler_dtilde, euler_last=C3K1.euler_last)
    monkeypatch.setitem(cli.FIXTURES, "c3k1", bad)
    assert cli.main(["compare", "--fixture", "c3k1"]) == 1
    monkeypatch.undo()
    assert cli.main(["compare", "--fixture", "c3k1"]) == 0
    capsys.readouterr()
    _report("criterion 12 (CLI contract)", started)
