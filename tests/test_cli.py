"""CLI behaviour: exit codes, JSON round-trip, LaTeX export."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from weylfrob import cli, frobenius, orbitspace, serialize
from weylfrob.exactalg import Poly
from weylfrob.fixtures import C3K1, Fixture
from weylfrob.frobenius import (build_structure, integrate_potential,
                                third_derivatives_from_metric)
from weylfrob.metrics import BilinearForm, ChristoffelContra
from weylfrob.rootdata import ExtendedMetric, RootSystemSpec
from weylfrob.serialize import document_json, structure_document

from test_orbitspace import reference_oracle_agrees, zeta_oracle_agrees


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


@pytest.mark.parametrize("checks", [",", "", " , ,"])
def test_verify_with_no_checks_named_exits_2(capsys, checks):
    assert run(["verify", "--family", "C", "--rank", "2", "--vertex", "1",
                "--checks", checks]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("no checks named")


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
    doc = json.loads(text)
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


@pytest.mark.parametrize("family,rank,vertex", [("C", 3, 1), ("B", 3, 2)])
def test_construct_streams_the_document_json_text(tmp_path, capsys, monkeypatch,
                                                 family, rank, vertex):
    struct = build_structure(RootSystemSpec(family, rank, vertex))
    expected = document_json(structure_document(struct, cli.run_checks(
        struct, cli.CHECK_NAMES, cli.ORACLE_MAX_RANK))).encode()
    chunks = []

    def counted(doc):
        for chunk in serialize.document_chunks(doc):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(cli, "document_chunks", counted)
    argv = ["construct", "--family", family, "--rank", str(rank), "--vertex", str(vertex)]
    out = tmp_path / "doc.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected and len(chunks) > 1
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == expected


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    # a missing directory is an invalid invocation, not a program fault
    out = tmp_path / "missing" / "x.json"
    assert run(["construct", "--family", "C", "--rank", "2", "--vertex", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


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


@pytest.mark.parametrize("command,where", [("construct", "build"), ("construct", "check"),
                                           ("verify", "build"), ("verify", "check"),
                                           ("compare", "build")])
def test_value_error_in_a_construction_step_exits_1(monkeypatch, capsys, command, where):
    # a ValueError from the build or from a check is a failed construction
    # step on every command, not an internal error
    def broken(*args):
        raise ValueError("injected")

    if where == "build":
        monkeypatch.setattr(cli, "build_structure", broken)
    else:
        monkeypatch.setitem(frobenius.CHECKS, "det", broken)
    args = ["--fixture", "c3k1"] if command == "compare" else \
        ["--family", "C", "--rank", "2", "--vertex", "1"]
    assert run([command] + args) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "construction failed: injected\n"


# ---------------------------------------------------------------------------
# Mutation suite: each check must fail on a structure with one entry corrupted
# ---------------------------------------------------------------------------

def _bump_form(form, i, j, by=1):
    """form[i][j] += by, and [j][i] left as it is."""
    mat = [list(row) for row in form.mat]
    mat[i][j] = mat[i][j] + by
    return BilinearForm(form.chart, mat)


def _bump_connection(gamma, i, j, m, by=1):
    arr = [[list(row) for row in plane] for plane in gamma.arr]
    arr[i][j][m] = arr[i][j][m] + by
    return ChristoffelContra(gamma.chart, arr)


def _bump_gamma_y(struct, i, j, m):
    return replace(struct, pencil=replace(
        struct.pencil, gamma_g=_bump_connection(struct.pencil.gamma_g, i, j, m)))


def _twist_gamma_y(struct, i, j, m):
    """+1 at Gamma_y^{ij}_m and -1 at Gamma_y^{ji}_m: the sum
    Gamma^{ij}_m + Gamma^{ji}_m (metric compatibility) is unchanged."""
    gamma = _bump_connection(struct.pencil.gamma_g, i, j, m)
    return replace(struct, pencil=replace(
        struct.pencil, gamma_g=_bump_connection(gamma, j, i, m, by=-1)))


def _twist_gamma_eta(struct, i, j, m):
    """The twist of _twist_gamma_y on the y^k-linear part of Gamma_y, which is
    the connection gamma_eta = d_k Gamma_y of eta: +y^k at Gamma_y^{ij}_m and
    -y^k at Gamma_y^{ji}_m.  Only the (y^k)^2 coefficient of torsion-freeness
    (the eta identity for d_k Gamma) can see it."""
    yk = Poly.variable(struct.pencil.gamma_g.chart, f"y{struct.cspec.vertex}")
    gamma = _bump_connection(struct.pencil.gamma_g, i, j, m, by=yk)
    return replace(struct, pencil=replace(
        struct.pencil, gamma_g=_bump_connection(gamma, j, i, m, by=-yk)))


def _bump_gamma_eta(struct, i, j, m):
    """gamma_eta^{ij}_m += 1, i.e. Gamma_y^{ij}_m += y^k: still linear in y^k."""
    yk = Poly.variable(struct.pencil.gamma_g.chart, f"y{struct.cspec.vertex}")
    return replace(struct, pencil=replace(
        struct.pencil, gamma_g=_bump_connection(struct.pencil.gamma_g, i, j, m, by=yk)))


def _shift_gamma_y(struct, m0, s0):
    """Gamma_y^{j m0}_{s0} += g^{j s0} for every j: g^{is} dGamma^{jm}_s =
    g^{i s0} g^{j s0} delta_{m m0} is symmetric in i <-> j, so the shift stays
    torsion-free and linear in y^k; only metric compatibility breaks."""
    g = struct.pencil.g.mat
    arr = [[list(row) for row in plane] for plane in struct.pencil.gamma_g.arr]
    for j in range(len(arr)):
        arr[j][m0][s0] = arr[j][m0][s0] + g[j][s0]
    gamma = ChristoffelContra(struct.pencil.gamma_g.chart, arr)
    return replace(struct, pencil=replace(struct.pencil, gamma_g=gamma))


def _bump_pencil_g(struct, i=0, j=0, by=1):
    return replace(struct, pencil=replace(struct.pencil, g=_bump_form(struct.pencil.g, i, j, by)))


def _laurent_pencil_g(struct):
    """pencil.g[0][0] += y3^-1: still in the y-chart ring (y3 is its Laurent
    variable) but no polynomial in the generators."""
    g = struct.pencil.g
    mat = [list(row) for row in g.mat]
    mat[0][0] = mat[0][0] + Poly.monomial(g.chart, {"y3": -1})
    return replace(struct, pencil=replace(struct.pencil, g=BilinearForm(g.chart, mat)))


def _perturb_metric(struct, patch):
    """m[0][0] += 1 in the extended metric that ``compute_g_direct`` reads
    (through ``orbitspace.build``); the structure is returned intact."""
    build = orbitspace.build

    def perturbed(spec):
        rows = [list(row) for row in build(spec).entries]
        rows[0][0] += 1
        return ExtendedMetric(tuple(map(tuple, rows)))

    patch.setattr(orbitspace, "build", perturbed)
    return struct


def _set_log_scale(struct, log_scale):
    return replace(struct, b_ident=replace(struct.b_ident, log_scale=log_scale))


def _add_to_f(struct, monomial):
    """F += the monomial, with coefficient 1."""
    potential = struct.potential
    mono = Poly.monomial(potential.chart, monomial)
    return replace(struct, potential=replace(potential, poly=potential.poly + mono))


def _bump_f_coefficient(struct, monomial):
    """Add 1 to the coefficient of one monomial that F already contains."""
    (exps,) = Poly.monomial(struct.potential.chart, monomial).terms
    assert exps in struct.potential.poly.terms
    return _add_to_f(struct, monomial)


def _rebuild_from_metric(struct, bumps):
    """g_t with each (i, j, monomial) added symmetrically, and F rebuilt from
    it the way the build does: F_{abc} from g_t, then integration."""
    chart = struct.g_t.chart
    mat = [list(row) for row in struct.g_t.mat]
    for i, j, mono in bumps:
        mat[i][j] = mat[i][j] + Poly.monomial(chart, mono)
        if i != j:
            mat[j][i] = mat[j][i] + Poly.monomial(chart, mono)
    g_t = BilinearForm(chart, mat)
    spec = struct.cspec
    f3 = third_derivatives_from_metric(spec, g_t, struct.eta_cov)
    return replace(struct, g_t=g_t, potential=integrate_potential(spec, f3))


# C3k1: g^{11} += t1, g^{12} += t2^2 still integrates to a potential of the
# right shape; only the intersection check sees that it does not match g_t
CORRUPT_METRIC = [(0, 0, {"t1": 1}), (0, 1, {"t2": 2})]
# C3k1: g^{22} += E integrates to an F whose G has mixed weighted degree
MIXED_DEGREE_METRIC = [(1, 1, {"E": 1})]


def _bump_eta_up(struct, i, j):
    eta_up = [list(row) for row in struct.eta_up]
    eta_up[i][j] += Fraction(1)
    return replace(struct, eta_up=eta_up)


def _bump_eta_cov(struct, i, j):
    """eta_{ij} and eta_{ji} += 1: still symmetric."""
    eta_cov = [list(row) for row in struct.eta_cov]
    eta_cov[i][j] += Fraction(1)
    eta_cov[j][i] += Fraction(1)
    return replace(struct, eta_cov=eta_cov)


# C3k1: F contains t3^8 (a pure G term) and t1 t2 t3 (the unity-row tail)
MUTATIONS = [
    ("wdvv", "F coefficient of t3^8",
     lambda s, _: _bump_f_coefficient(s, {"t3": 8})),
    ("euler", "F coefficient of t1 t2 t3",
     lambda s, _: _bump_f_coefficient(s, {"t1": 1, "t2": 1, "t3": 1})),
    # the shape of F: G of mixed degree, G dependent on t^k, and an eta that
    # pairs the log coordinate t4 outside the head
    ("euler", "F rebuilt from g_t with g^{22} += E",
     lambda s, _: _rebuild_from_metric(s, MIXED_DEGREE_METRIC)),
    ("euler", "F += t1 t2^2", lambda s, _: _add_to_f(s, {"t1": 1, "t2": 2})),
    ("euler", "eta_cov[1][3] += 1, mirrored", lambda s, _: _bump_eta_cov(s, 1, 3)),
    ("intersection", "g_t[0][0]",
     lambda s, _: replace(s, g_t=_bump_form(s.g_t, 0, 0))),
    ("intersection", "F rebuilt from g_t with g^{11} += t1, g^{12} += t2^2",
     lambda s, _: _rebuild_from_metric(s, CORRUPT_METRIC)),
    # one-sided: g^{12} bumped, g^{21} left intact
    ("intersection", "g_t[0][1]", lambda s, _: replace(s, g_t=_bump_form(s.g_t, 0, 1))),
    ("eta-form", "pencil.eta[1][1]",
     lambda s, _: replace(s, pencil=replace(s.pencil, eta=_bump_form(s.pencil.eta, 1, 1)))),
    ("det", "pencil.eta[0][3]",
     lambda s, _: replace(s, pencil=replace(s.pencil, eta=_bump_form(s.pencil.eta, 0, 3)))),
    ("pencil", "gamma_g[0][0][0]", lambda s, _: _bump_gamma_y(s, 0, 0, 0)),
    # the log-coordinate column j = 4
    ("pencil", "gamma_g[0][3][0]", lambda s, _: _bump_gamma_y(s, 0, 3, 0)),
    # Gamma^{21}_3 against an intact Gamma^{12}_3
    ("pencil", "gamma_g[1][0][2]", lambda s, _: _bump_gamma_y(s, 1, 0, 2)),
    ("pencil", "gamma_g[0][1][0] up, [1][0][0] down",
     lambda s, _: _twist_gamma_y(s, 0, 1, 0)),
    ("pencil", "gamma_g[j][0][0] += g[j][0]", lambda s, _: _shift_gamma_y(s, 0, 0)),
    # the twist below the diagonal: the halved loops still see i > j
    ("pencil", "gamma_g[2][1][0] up, [1][2][0] down",
     lambda s, _: _twist_gamma_y(s, 2, 1, 0)),
    # one-sided corruptions of g_y that keep it linear in y^k and leave
    # eta = d_k g intact
    ("pencil", "pencil.g[0][1] += 1", lambda s, _: _bump_pencil_g(s, 0, 1)),
    ("pencil", "pencil.g[2][0] += y2",
     lambda s, _: _bump_pencil_g(s, 2, 0, Poly.variable(s.pencil.chart, "y2"))),
    # the stage patterns: eta_w[0][0] is 0 in the w chart of C3k1
    ("pencil", "flat.eta_w[0][0]",
     lambda s, _: replace(s, flat=replace(s.flat, eta_w=_bump_form(s.flat.eta_w, 0, 0)))),
    # gamma_eta = d_k Gamma_y, the connection of eta, corrupted through Gamma_y
    ("pencil", "gamma_eta[0][0][0]", lambda s, _: _bump_gamma_eta(s, 0, 0, 0)),
    ("pencil", "gamma_eta[0][1][0] up, [1][0][0] down",
     lambda s, _: _twist_gamma_eta(s, 0, 1, 0)),
    ("duality", "eta_up[0][0]", lambda s, _: _bump_eta_up(s, 0, 0)),
    ("oracle", "pencil.g[0][0]", lambda s, _: _bump_pencil_g(s)),
    ("oracle", "pencil.g[0][0] += y3^-1", lambda s, _: _laurent_pencil_g(s)),
    # the metric the first-principles pairings read; g_y is intact
    ("oracle", "extended metric m[0][0]", _perturb_metric),
]


@pytest.mark.parametrize("check,where,corrupt", MUTATIONS,
                         ids=[f"{c}:{w}" for c, w, _ in MUTATIONS])
def test_check_fails_on_corrupted_copy(check, where, corrupt, monkeypatch):
    # each corruption takes the structure and a monkeypatch undone before
    # the intact run
    spec = RootSystemSpec("C", 3, 1)
    with monkeypatch.context() as patch:
        bad = corrupt(build_structure(spec), patch)
        assert cli.run_check(check, bad, 3)["passed"] is False
    # the cached structure is untouched by the corruption of its copy
    intact = build_structure(spec)
    assert all(r["passed"] for r in cli.run_checks(intact, cli.CHECK_NAMES, 3))


@pytest.mark.parametrize("where,detail", [
    ("F rebuilt from g_t with g^{22} += E",
     "graded part of F is not quasi-homogeneous of degree 2"),
    ("F += t1 t2^2", "F_(k,2,2) != eta_(2,2)"),
    ("eta_cov[1][3] += 1, mirrored", "F_(k,2,4) != eta_(2,4)"),
])
def test_euler_names_the_broken_shape_of_f(where, detail):
    """The build does not guard the shape of F; ``euler`` does, and its
    detail names the identity that fails."""
    (corrupt,) = [c for check, w, c in MUTATIONS if check == "euler" and w == where]
    bad = corrupt(build_structure(RootSystemSpec("C", 3, 1)), None)
    assert cli.run_check("euler", bad, 3) == {"check": "euler", "passed": False,
                                              "detail": detail}
    # each is a fault of the shape of F, whatever identity names it
    with pytest.raises(frobenius.ShapeMismatch) as err:
        frobenius.verify_euler_unity(bad)
    assert str(err.value) == detail


def test_construct_with_a_mixed_degree_potential_fails_euler(monkeypatch, capsys):
    # a built F of the wrong shape is a failed verification (exit 1), not an
    # internal error (exit 3)
    bad = _rebuild_from_metric(build_structure(RootSystemSpec("C", 3, 1)),
                               MIXED_DEGREE_METRIC)
    monkeypatch.setattr(cli, "build_structure", lambda spec: bad)
    assert run(["construct", "--family", "C", "--rank", "3", "--vertex", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "check euler failed: graded part of F is not quasi-homogeneous of degree 2\n" in err


@pytest.mark.parametrize("k,log_scale", [(3, Fraction(1)), (2, Fraction(1, 2))],
                         ids=["B3k3", "B3k2"])
def test_oracle_fails_on_a_wrong_b_log_scale(k, log_scale):
    # the recorded scales are 1/2 at k = l and 1 below it
    struct = build_structure(RootSystemSpec("B", 3, k))
    assert struct.b_ident.log_scale != log_scale
    assert cli.run_check("oracle", struct, 3)["passed"] is True
    assert cli.run_check("oracle", _set_log_scale(struct, log_scale), 3)["passed"] is False


def test_oracle_names_the_entry_with_a_laurent_term():
    bad = _laurent_pencil_g(build_structure(RootSystemSpec("C", 3, 1)))
    assert cli.run_check("oracle", bad, 3)["detail"] == (
        "C3k1: g[1][1] differs from the first-principles pairing")


def test_oracle_names_the_zeta_pairing_of_a_perturbed_metric(monkeypatch):
    # step 1 alone sees it: g_y is intact, so every other check passes
    struct = _perturb_metric(build_structure(RootSystemSpec("C", 3, 1)), monkeypatch)
    report = {r["check"]: r for r in cli.run_checks(struct, cli.CHECK_NAMES, 3)}
    assert [name for name, r in report.items() if not r["passed"]] == ["oracle"]
    assert report["oracle"]["detail"] == (
        "C3k1: the pairing of zeta1 and zeta1 differs from its closed form")


@pytest.mark.parametrize("check,where,corrupt",
                         [m for m in MUTATIONS if m[0] == "oracle"],
                         ids=[w for c, w, _ in MUTATIONS if c == "oracle"])
def test_the_two_oracles_fail_together(check, where, corrupt, monkeypatch):
    bad = corrupt(build_structure(RootSystemSpec("C", 3, 1)), monkeypatch)
    assert zeta_oracle_agrees(bad) is reference_oracle_agrees(bad) is False


@pytest.mark.parametrize("k,log_scale", [(3, Fraction(1)), (2, Fraction(1, 2))],
                         ids=["B3k3", "B3k2"])
def test_the_two_oracles_fail_together_on_a_wrong_b_log_scale(k, log_scale):
    bad = _set_log_scale(build_structure(RootSystemSpec("B", 3, k)), log_scale)
    assert zeta_oracle_agrees(bad) is reference_oracle_agrees(bad) is False


def test_wdvv_without_a_certificate_is_a_failed_check(monkeypatch, capsys):
    """No direction certifies and the residuals vanish: the check fails with
    a detail that names the missing certificate, and `verify` exits 1."""
    monkeypatch.setattr(frobenius, "_krylov_certifies", lambda h, kpos: False)
    result = cli.run_check("wdvv", build_structure(RootSystemSpec("C", 3, 1)), 3)
    assert result["passed"] is False
    assert "no certificate" in result["detail"]
    assert run(["verify", "--family", "C", "--rank", "3", "--vertex", "1",
                "--checks", "wdvv"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [result]


def test_oracle_validated_reads_the_oracle_check():
    """A B document is oracle-validated exactly when its report holds the
    passing ``oracle`` check."""
    struct = build_structure(RootSystemSpec("B", 3, 2))

    def validated(report):
        return structure_document(struct, report)["b_identification"]["oracle_validated"]

    report = cli.run_checks(struct, cli.CHECK_NAMES, 3)
    assert validated(report) is True
    assert validated([r for r in report if r["check"] != "oracle"]) is False
    assert validated(cli.run_checks(struct, ["oracle"], 2)) is False  # skipped
    wrong = _set_log_scale(struct, Fraction(1, 2))
    assert validated(cli.run_checks(wrong, ["oracle"], 3)) is False


def test_mutation_suite_covers_every_check():
    assert {check for check, _, _ in MUTATIONS} == set(cli.CHECK_NAMES)


def test_check_names_are_the_library_checks():
    assert cli.CHECK_NAMES == list(frobenius.CHECKS)


def test_unknown_check_is_a_failed_result():
    struct = build_structure(RootSystemSpec("C", 3, 1))
    assert cli.run_check("nope", struct, 3) == {
        "check": "nope", "passed": False, "detail": "unknown check 'nope'"}


def test_metric_corruption_is_caught_by_intersection_alone():
    """F rebuilt from a corrupted g_t is a potential of its own: WDVV and
    Euler hold; intersection reports the metric identity it breaks."""
    bad = _rebuild_from_metric(build_structure(RootSystemSpec("C", 3, 1)),
                               CORRUPT_METRIC)
    report = {r["check"]: r for r in cli.run_checks(bad, cli.CHECK_NAMES, 3)}
    assert [name for name, r in report.items() if not r["passed"]] == ["intersection"]
    assert report["intersection"]["detail"] == "L_E F^{1,1} != g^{1,1}"


def test_pencil_twist_is_caught_by_torsion_freeness():
    bad = _twist_gamma_y(build_structure(RootSystemSpec("C", 3, 1)), 0, 1, 0)
    result = cli.run_check("pencil", bad, 3)
    assert result["passed"] is False
    assert "torsion" in result["detail"]


@pytest.mark.parametrize("check,corrupt,detail", [
    ("pencil", lambda s: _bump_pencil_g(s, 0, 1), "g^(2,1) != g^(1,2)"),
    ("intersection", lambda s: replace(s, g_t=_bump_form(s.g_t, 1, 0)), "g^{2,1} != g^{1,2}"),
], ids=["pencil", "intersection"])
def test_one_sided_metric_corruption_fails_the_symmetry_test(check, corrupt, detail):
    # each check tests symmetry first; intersection then compares only the
    # entries i <= j, which do not include g_t[1][0]
    bad = corrupt(build_structure(RootSystemSpec("C", 3, 1)))
    assert cli.run_check(check, bad, 3) == {"check": check, "passed": False, "detail": detail}


def test_pencil_torsion_free_shift_is_caught_by_compatibility():
    bad = _shift_gamma_y(build_structure(RootSystemSpec("C", 3, 1)), 0, 0)
    result = cli.run_check("pencil", bad, 3)
    assert result["passed"] is False
    assert result["detail"].endswith("_1 mismatch")


def test_pencil_catches_metric_corruption_above_oracle_bound():
    """C4k2 is above the oracle bound: pencil.g[0][0] += 1 keeps g linear in
    y^k and eta = d_k g, and only the Levi-Civita test of Gamma_y sees it."""
    spec = RootSystemSpec("C", 4, 2)
    bad = _bump_pencil_g(build_structure(spec))
    report = {r["check"]: r for r in cli.run_checks(bad, cli.CHECK_NAMES, 3)}
    assert [name for name, r in report.items() if not r["passed"]] == ["pencil"]
    assert "torsion" in report["pencil"]["detail"]
    assert all(r["passed"] for r in cli.run_checks(build_structure(spec),
                                                   cli.CHECK_NAMES, 3))


def test_pencil_catches_a_degenerate_eta():
    """Row and column 1 of eta cleared, and g changed to match (g - y^k times
    what was cleared): g stays symmetric and linear in y^k with eta = d g/d y^k,
    so only the determinant of eta sees it."""
    struct = build_structure(RootSystemSpec("C", 3, 1))
    eta, g = struct.pencil.eta, struct.pencil.g
    yk = Poly.variable(g.chart, "y1")
    cleared = [[e if 0 not in (i, j) else e * 0 for j, e in enumerate(row)]
               for i, row in enumerate(eta.mat)]
    g_mat = [[a - yk * (e - c) for a, e, c in zip(*rows)]
             for rows in zip(g.mat, eta.mat, cleared)]
    bad = replace(struct, pencil=replace(struct.pencil, eta=BilinearForm(eta.chart, cleared),
                                         g=BilinearForm(g.chart, g_mat)))
    assert cli.run_check("pencil", bad, 3) == {"check": "pencil", "passed": False,
                                               "detail": "det(eta) = 0"}


def test_pencil_catches_eta_not_derived_from_g():
    """eta replaced by 2 eta: its determinant is still a unit and the
    Levi-Civita test reads g, so within pencil only the comparison with
    d g/d y^k sees it."""
    struct = build_structure(RootSystemSpec("C", 3, 1))
    eta = struct.pencil.eta
    bad = replace(struct, pencil=replace(
        struct.pencil, eta=BilinearForm(eta.chart, [[e * 2 for e in row]
                                                    for row in eta.mat])))
    result = cli.run_check("pencil", bad, 3)
    assert result["passed"] is False
    assert result["detail"].startswith("eta^(")
