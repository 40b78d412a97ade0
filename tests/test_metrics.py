"""Generating-function metric/connection, transports, eta and its closed forms."""

from fractions import Fraction

import pytest

from weylfrob.exactalg import Poly
from weylfrob.metrics import (build_pencil, det_eta_check, DetMismatch,
                              eta_closed_form, eta_closed_form_check,
                              first_principles_g_check,
                              first_principles_gamma_check, g_theta, gamma_theta,
                              linearity_check, theta_map,
                              transform_christoffel, transform_form)
from weylfrob.orbitspace import compute_g_direct, identity_map
from weylfrob.rootdata import RootSystemSpec, degrees, flat_degrees


def paper_literal_det_sign(spec: RootSystemSpec) -> int:
    return -1 if spec.rank % 2 else 1

ALL_SMALL = [(l, k) for l in range(1, 5) for k in range(1, l + 1)]


def test_g_theta_rank1_entries():
    g = g_theta(RootSystemSpec("C", 1, 1))
    tc = g.chart
    th0, th1 = tc.var("th0"), tc.var("th1")
    assert g.mat[0][0] == th0 ** 2
    assert g.mat[0][1] == th0 * th1
    assert g.mat[1][1] == 4 * th0 * th1


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_g_theta_quadratic_and_symmetric(l, k):
    g = g_theta(RootSystemSpec("C", l, k))
    assert g.is_symmetric()
    for row in g.mat:
        for entry in row:
            for exps in entry.terms:
                assert sum(exps) == 2  # quadratic polynomials in theta


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_gamma_theta_linear(l, k):
    gam = gamma_theta(RootSystemSpec("C", l, k))
    for plane in gam.arr:
        for row in plane:
            for entry in row:
                for exps in entry.terms:
                    assert sum(exps) == 1  # homogeneous linear functions


@pytest.mark.parametrize("l,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_first_principles_identities(l, k):
    spec = RootSystemSpec("C", l, k)
    first_principles_g_check(spec)
    first_principles_gamma_check(spec)


def test_transform_identity_map():
    spec = RootSystemSpec("C", 2, 1)
    pen = build_pencil(spec)
    ident = identity_map(pen.chart)
    same = transform_form(pen.g, ident)
    assert all(same.mat[i][j] == pen.g.mat[i][j] for i in range(3) for j in range(3))
    gam = transform_christoffel(pen.gamma_g, ident, same)
    assert all(gam.arr[i][j][m] == pen.gamma_g.arr[i][j][m]
               for i in range(3) for j in range(3) for m in range(3))


@pytest.mark.parametrize("l,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_theta_transport_equals_oracle(l, k):
    spec = RootSystemSpec("C", l, k)
    fast = transform_form(g_theta(spec), theta_map(spec))
    direct = compute_g_direct(spec)
    n = l + 1
    assert all(fast.mat[i][j] == direct.mat[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_gamma_degrees_in_y_chart(l, k):
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    d = list(degrees(spec)) + [Fraction(0)]
    for i in range(l + 1):
        for j in range(l + 1):
            for m in range(l + 1):
                entry = pen.gamma_g.arr[i][j][m]
                if not entry.is_zero():
                    assert entry.weighted_degree() == d[i] + d[j] - d[m]


def test_eta_c3k1_entries():
    spec = RootSystemSpec("C", 3, 1)
    pen = build_pencil(spec)
    yc = pen.chart
    eta = pen.eta
    assert eta.mat[0][0] == 4 * yc.var("E")
    assert eta.mat[1][1] == 4 * yc.var("y2") + 2 * yc.var("y3")
    assert eta.mat[1][2] == 8 * yc.var("y3")
    assert eta.mat[2][2].is_zero()
    assert eta.mat[0][3] == Poly.const(yc, 1)


def test_eta_closed_form_legend():
    # P_j = 4 (k - j + 1) y^{j-1} e^{y^{l+1}} with y^0 = 1
    spec = RootSystemSpec("C", 4, 3)
    closed = eta_closed_form(spec)
    yc = closed.chart
    for j in range(1, 4):
        prefactor = 4 * (3 - j + 1)
        expected = prefactor * (Poly.monomial(yc, {f"y{j - 1}": 1, "E": 1})
                                if j > 1 else yc.var("E"))
        assert closed.mat[j - 1][2] == expected


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_eta_matches_closed_form(l, k):
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    eta_closed_form_check(spec, pen.eta)


def test_det_examples():
    # corrected sign: C3k1 gives +64 (y^3)^2 (the printed (-1)^l would say -64)
    spec = RootSystemSpec("C", 3, 1)
    pen = build_pencil(spec)
    det = det_eta_check(spec, pen.eta)
    yc = pen.chart
    assert det == 64 * Poly.monomial(yc, {"y3": 2})
    assert paper_literal_det_sign(spec) == -1  # the documented erratum
    # k = l: constant of magnitude k^{k-1}
    spec2 = RootSystemSpec("C", 3, 3)
    det2 = det_eta_check(spec2, build_pencil(spec2).eta)
    assert abs(det2.constant_value()) == 9
    # C4k2: +128 (y^4)^2, where the printed sign happens to agree
    spec3 = RootSystemSpec("C", 4, 2)
    det3 = det_eta_check(spec3, build_pencil(spec3).eta)
    assert det3 == 128 * Poly.monomial(build_pencil(spec3).chart, {"y4": 2})


def test_det_mismatch_detected():
    spec = RootSystemSpec("C", 2, 1)
    pen = build_pencil(spec)
    corrupted = pen.eta.map_entries(lambda p: p * 2)
    with pytest.raises(DetMismatch):
        det_eta_check(spec, corrupted)


@pytest.mark.parametrize("l,k", [(2, 1), (3, 2)])
def test_linearity_and_negative_control(l, k):
    spec = RootSystemSpec(family="C", rank=l, vertex=k)
    pen = build_pencil(spec)
    assert linearity_check(pen.g, pen.gamma_g, spec)
    yc = pen.chart
    bad = pen.g.map_entries(lambda p: p + Poly.monomial(yc, {f"y{k}": 2}))
    assert not linearity_check(bad, pen.gamma_g, spec)


def test_transport_to_t_reproduces_corner_identities():
    # g^{m,l+1} = dtilde_m t^m and Gamma^{l+1,i}_j = dtilde_j delta_ij
    from weylfrob.frobenius import build_structure

    for (l, k) in [(2, 1), (3, 2), (3, 3)]:
        struct = build_structure(RootSystemSpec("C", l, k))
        tc = struct.g_t.chart
        dt = flat_degrees(l, k)
        for m in range(1, l + 1):
            assert struct.g_t.mat[m - 1][l] == dt[m - 1] * tc.var(f"t{m}")
        assert struct.g_t.mat[l][l] == Poly.const(tc, Fraction(1, k))
        for i in range(l + 1):
            for j in range(l + 1):
                expected = dt[j] * Poly.const(tc, 1) if i == j else Poly.const(tc, 0)
                assert struct.gamma_t.arr[l][i][j] == expected


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_g_degrees_in_y_chart(l, k):
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    d = list(degrees(spec)) + [Fraction(0)]
    for i in range(l + 1):
        for j in range(l + 1):
            entry = pen.g.mat[i][j]
            if not entry.is_zero():
                assert entry.weighted_degree() == d[i] + d[j]
