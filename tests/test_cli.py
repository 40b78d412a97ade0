"""CLI behaviour: exit codes, JSON round-trip, LaTeX export."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from weylfrob import cli
from weylfrob.exactalg import Poly
from weylfrob.fixtures import C3K1, Fixture
from weylfrob.frobenius import build_structure
from weylfrob.metrics import BilinearForm, ChristoffelContra
from weylfrob.rootdata import RootSystemSpec
from weylfrob.serialize import document_json, load_document, structure_document


def run(argv):
    return cli.main(argv)


def test_construct_json_document(tmp_path):
    out = tmp_path / "c3k1.json"
    assert run(["construct", "--family", "C", "--rank", "3", "--vertex", "1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    terms = {tuple(sorted(t["m"].items())): t["c"] for t in doc["potential"]["terms"]}
    assert terms[(("t2", 3), ("t3", -1))] == "1/48"
    assert doc["potential"]["head"]["monomial"] == {"t1": 2, "t4": 1}
    assert all(r["passed"] for r in doc["verification"])


def test_construct_rank1_stdout(capsys):
    assert run(["construct", "--family", "C", "--rank", "1", "--vertex", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["potential"]["terms"] == [{"m": {"E": 2}, "c": "1/2"}]


def test_construct_b_family_matches_c(tmp_path):
    b_out = tmp_path / "b.json"
    c_out = tmp_path / "c.json"
    assert run(["construct", "--family", "B", "--rank", "3", "--vertex", "2",
                "--out", str(b_out)]) == 0
    assert run(["construct", "--family", "C", "--rank", "3", "--vertex", "2",
                "--out", str(c_out)]) == 0
    b_doc = json.loads(b_out.read_text())
    c_doc = json.loads(c_out.read_text())
    assert b_doc["potential"] == c_doc["potential"]
    assert b_doc["b_identification"]["oracle_validated"] is True
    assert c_doc["b_identification"] is None


def test_latex_output(capsys):
    assert run(["construct", "--family", "C", "--rank", "1", "--vertex", "1",
                "--format", "latex"]) == 0
    text = capsys.readouterr().out
    assert "\\frac{1}{2} t_{1}^{2} t_{2}" in text
    assert "e^{2 t_{2}}" in text


def test_verify_exit_codes(capsys):
    assert run(["verify", "--family", "C", "--rank", "2", "--vertex", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {r["check"] for r in report["checks"]} == set(cli.CHECK_NAMES)
    assert run(["verify", "--family", "C", "--rank", "2", "--vertex", "1",
                "--checks", "wdvv,det"]) == 0
    capsys.readouterr()
    assert run(["verify", "--family", "C", "--rank", "2", "--vertex", "1",
                "--checks", "nonsense"]) == 2


def test_invalid_invocations_exit_2(capsys):
    assert run(["verify", "--family", "C", "--rank", "3", "--vertex", "5"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--family", "Q", "--rank", "1", "--vertex", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_compare_fixtures_match(capsys):
    for fixture in ("c3k1", "c4k1", "c4k2"):
        assert run(["compare", "--fixture", fixture]) == 0
    capsys.readouterr()


def test_compare_corrupted_fixture_exits_1(monkeypatch, capsys):
    bad = Fixture(identifier="c3k1", family="C", rank=3, vertex=1,
                  p_terms={1: [({"E": 1}, "-3")]},   # wrong coefficient
                  z_terms=C3K1.z_terms, h_terms=C3K1.h_terms,
                  potential_terms=C3K1.potential_terms,
                  euler_dtilde=C3K1.euler_dtilde, euler_last=C3K1.euler_last)
    monkeypatch.setitem(cli.FIXTURES, "c3k1", bad)
    assert run(["compare", "--fixture", "c3k1"]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH" in err and "p_1" in err


def test_json_roundtrip_byte_identical():
    struct = build_structure(RootSystemSpec("C", 3, 1))
    report = cli.run_checks(struct, cli.CHECK_NAMES, 3)
    text = document_json(structure_document(struct, report))
    doc = load_document(text)
    assert document_json(doc) == text


def test_compare_reports_term_level_diff(monkeypatch, capsys):
    terms = list(C3K1.potential_terms)
    terms[0] = (terms[0][0], "2/3")
    bad = Fixture(identifier="c3k1", family="C", rank=3, vertex=1,
                  p_terms=C3K1.p_terms, z_terms=C3K1.z_terms, h_terms=C3K1.h_terms,
                  potential_terms=terms, euler_dtilde=C3K1.euler_dtilde,
                  euler_last=C3K1.euler_last)
    monkeypatch.setitem(cli.FIXTURES, "c3k1", bad)
    assert run(["compare", "--fixture", "c3k1"]) == 1
    err = capsys.readouterr().err
    assert "constructed - expected" in err


def test_document_contains_all_maps_and_charts(tmp_path):
    out = tmp_path / "doc.json"
    assert run(["construct", "--family", "C", "--rank", "2", "--vertex", "1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["charts"]) == {"zeta", "theta", "y", "z", "w", "t"}
    assert set(doc["maps"]) == {"generators_zeta_to_y", "theta_to_y",
                                "y_to_z", "z_to_w", "w_to_t"}
    assert "forward" in doc["maps"]["generators_zeta_to_y"]
    assert "pullback" not in doc["maps"]["generators_zeta_to_y"]
    assert "pullback" in doc["maps"]["w_to_t"] and "forward" in doc["maps"]["w_to_t"]


@pytest.mark.parametrize("command", [
    ["construct", "--family", "C", "--rank", "2", "--vertex", "1"],
    ["verify", "--family", "C", "--rank", "2", "--vertex", "1"],
])
def test_internal_error_exits_3(monkeypatch, capsys, command):
    def broken(spec):
        raise KeyError("injected")

    monkeypatch.setattr(cli, "build_structure", broken)
    assert run(command) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'injected'\n"


# ---------------------------------------------------------------------------
# Mutation suite: each check must fail on a structure with one entry corrupted
# ---------------------------------------------------------------------------

def _bump_form(form, i, j):
    mat = [list(row) for row in form.mat]
    mat[i][j] = mat[i][j] + 1
    return BilinearForm(form.chart, mat)


def _bump_connection(gamma, i, j, m):
    arr = [[list(row) for row in plane] for plane in gamma.arr]
    arr[i][j][m] = arr[i][j][m] + 1
    return ChristoffelContra(gamma.chart, arr)


def _bump_f_coefficient(struct, monomial):
    """Add 1 to the coefficient of one monomial that F already contains."""
    potential = struct.potential
    mono = Poly.monomial(potential.chart, monomial)
    (exps,) = mono.terms
    assert exps in potential.poly.terms
    return replace(struct, potential=replace(potential, poly=potential.poly + mono))


def _bump_eta_up(struct, i, j):
    eta_up = [list(row) for row in struct.eta_up]
    eta_up[i][j] += Fraction(1)
    return replace(struct, eta_up=eta_up)


# C3k1: F contains t3^8 (a pure G term) and t1 t2 t3 (the unity-row tail)
MUTATIONS = [
    ("wdvv", "F coefficient of t3^8",
     lambda s: _bump_f_coefficient(s, {"t3": 8})),
    ("euler", "F coefficient of t1 t2 t3",
     lambda s: _bump_f_coefficient(s, {"t1": 1, "t2": 1, "t3": 1})),
    ("intersection", "g_t[0][0]",
     lambda s: replace(s, g_t=_bump_form(s.g_t, 0, 0))),
    ("intersection", "Gamma_t[0][0][0]",
     lambda s: replace(s, gamma_t=_bump_connection(s.gamma_t, 0, 0, 0))),
    ("eta-form", "pencil.eta[1][1]",
     lambda s: replace(s, pencil=replace(s.pencil, eta=_bump_form(s.pencil.eta, 1, 1)))),
    ("det", "pencil.eta[0][3]",
     lambda s: replace(s, pencil=replace(s.pencil, eta=_bump_form(s.pencil.eta, 0, 3)))),
    ("pencil", "gamma_eta[0][0][0]",
     lambda s: replace(s, pencil=replace(
         s.pencil, gamma_eta=_bump_connection(s.pencil.gamma_eta, 0, 0, 0)))),
    ("duality", "eta_up[0][0]", lambda s: _bump_eta_up(s, 0, 0)),
    ("oracle", "pencil.g[0][0]",
     lambda s: replace(s, pencil=replace(s.pencil, g=_bump_form(s.pencil.g, 0, 0)))),
]


@pytest.mark.parametrize("check,where,corrupt", MUTATIONS,
                         ids=[f"{c}:{w}" for c, w, _ in MUTATIONS])
def test_check_fails_on_corrupted_copy(check, where, corrupt):
    spec = RootSystemSpec("C", 3, 1)
    bad = corrupt(build_structure(spec))
    assert cli.run_check(check, bad, 3)["passed"] is False
    # the cached structure is untouched by the corruption of its copy
    intact = build_structure(spec)
    assert all(r["passed"] for r in cli.run_checks(intact, cli.CHECK_NAMES, 3))


def test_mutation_suite_covers_every_check():
    assert {check for check, _, _ in MUTATIONS} == set(cli.CHECK_NAMES)
