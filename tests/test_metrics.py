"""Closed-form metric/connection, transports, eta and its closed forms."""

import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Tuple

import pytest

from weylfrob.exactalg import Chart, Poly, contract, mat_inverse_unit, substitute_all
from weylfrob.metrics import (BilinearForm, BlockFormMismatch, ChristoffelContra,
                              build_pencil, det_eta_check, DetMismatch, assert_eta_pattern,
                              eta_from_g, eta_pattern, linearity_check, metric_y,
                              transform_christoffel, transform_form)
from weylfrob.orbitspace import (CoordMap, generator_map, theta_chart, theta_map, y_chart,
                                 zeta_chart)
from weylfrob.rootdata import RootSystemSpec, degrees, flat_degrees

from test_exactalg import reference_exact_div, weighted_degree
from test_orbitspace import elementary_symmetric, extend_with_uv, inject, reference_g_direct


def identity_map(chart: Chart) -> CoordMap:
    ident = {v.name: Poly.variable(chart, v.name) for v in chart.vars}
    return CoordMap(chart, chart, pullback=dict(ident), forward=dict(ident))


# ---------------------------------------------------------------------------
# Reference pencil: generating functions in (theta, u, v), three contractions
# ---------------------------------------------------------------------------

def _poly_P(chart: Chart, l: int, var: str) -> Poly:
    u = Poly.variable(chart, var)
    out = Poly.const(chart, 0)
    for j in range(l + 1):
        out = out + u ** (l - j) * Poly.variable(chart, f"th{j}")
    return out


def _extract_uv(gen: Poly, l: int, theta: Chart) -> Dict[Tuple[int, int], Poly]:
    """Split a generating function by u^{l-i} v^{l-j} into theta-chart entries."""
    iu = gen.chart.index["u"]
    iv = gen.chart.index["v"]
    buckets: Dict[Tuple[int, int], Dict[Tuple[int, ...], Fraction]] = {}
    for exps, c in gen.terms.items():
        i = l - exps[iu]
        j = l - exps[iv]
        if not (0 <= i <= l and 0 <= j <= l):
            raise ArithmeticError("generating function has stray u/v powers")
        rest = tuple(e for p, e in enumerate(exps) if p not in (iu, iv))
        buckets.setdefault((i, j), {})[rest] = c
    return {key: Poly(theta, terms) for key, terms in buckets.items()}


def reference_g_theta(spec: RootSystemSpec) -> BilinearForm:
    """g in the theta chart from the generating function

        (k-l) P(u) P(v) + ((u^2+4u) P'(u) P(v) - (v^2+4v) P(u) P'(v)) / (u-v),

    P(u) = sum_p theta^p u^(l-p), with the division done exactly."""
    l, k = spec.rank, spec.vertex
    tc = theta_chart(spec)
    work = extend_with_uv(tc)
    Pu = _poly_P(work, l, "u")
    Pv = _poly_P(work, l, "v")
    dPu = Pu.diff("u")
    dPv = Pv.diff("v")
    u = Poly.variable(work, "u")
    v = Poly.variable(work, "v")
    numerator = (u ** 2 + 4 * u) * dPu * Pv - (v ** 2 + 4 * v) * Pu * dPv
    gen = Pu * Pv * (k - l) + reference_exact_div(numerator, u - v)
    entries = _extract_uv(gen, l, tc)
    mat = [[entries.get((i, j), Poly.const(tc, 0)) for j in range(l + 1)]
           for i in range(l + 1)]
    return BilinearForm(tc, mat)


def reference_gamma_theta(spec: RootSystemSpec) -> ChristoffelContra:
    """Gamma in the theta chart from the one-form generating function with
    its (u-v)^2 denominator, the division done exactly."""
    l, k = spec.rank, spec.vertex
    tc = theta_chart(spec)
    work = extend_with_uv(tc)
    Pu = _poly_P(work, l, "u")
    Pv = _poly_P(work, l, "v")
    dPu = Pu.diff("u")
    u = Poly.variable(work, "u")
    v = Poly.variable(work, "v")
    u_minus_v = u - v
    uv_factor = 2 * u + u * v + 2 * v
    arr = [[[Poly.const(tc, 0) for _ in range(l + 1)] for _ in range(l + 1)]
           for _ in range(l + 1)]
    for m in range(l + 1):
        a = (u ** 2 + 4 * u) * dPu * v ** (l - m)
        if m < l:
            a = a - (v ** 2 + 4 * v) * Pu * (l - m) * v ** (l - m - 1)
        b = uv_factor * (Pv * u ** (l - m) - Pu * v ** (l - m))
        gen = Pu * v ** (l - m) * (k - l) + reference_exact_div(a * u_minus_v + b,
                                                                u_minus_v ** 2)
        for (i, j), poly in _extract_uv(gen, l, tc).items():
            arr[i][j][m] = poly
    return ChristoffelContra(tc, arr)


def reference_transform_christoffel(gamma: ChristoffelContra, cmap: CoordMap,
                                    g_target: BilinearForm) -> ChristoffelContra:
    """Gamma'^{ij}_m = J^i_u J^j_c K^q_m Gamma^{uc}_q - g'^{ia} J^j_c d_a(K^c_m)
    by three contractions of the pushed connection, two for the
    inhomogeneous term, and one subtraction pass."""
    K = cmap.jacobian_pullback()
    J = mat_inverse_unit(K)
    n = gamma.dim
    pushed = iter(cmap.push([e for plane in gamma.arr for row in plane for e in row]))
    gsub = [[[next(pushed) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    K_t = [[K[q][m] for q in range(n)] for m in range(n)]
    tens = contract(K_t, contract(J, contract(J, gsub, 0), 1), 2)
    dK = [[[K[c][m].coord_diff(a) for m in range(n)] for c in range(n)]
          for a in range(n)]
    inhom = contract(J, contract(g_target.mat, dK, 0), 1)
    out = [[[t - h for t, h in zip(t_row, h_row)]
            for t_row, h_row in zip(t_plane, h_plane)]
           for t_plane, h_plane in zip(tens, inhom)]
    return ChristoffelContra(cmap.target, out)


# ---------------------------------------------------------------------------
# First-principles checks in the (zeta, E) chart
# ---------------------------------------------------------------------------

def _zeta_products(spec: RootSystemSpec, work: Chart, var: str):
    """P(u), the deleted products P_a(u), and doubly-deleted P_{ab}(u)."""
    l, k = spec.rank, spec.vertex
    u = Poly.variable(work, var)
    zs = [Poly.variable(work, f"zeta{j}") for j in range(1, l + 1)]
    Ek = Poly.variable(work, "E") ** k
    factors = [u + z for z in zs]

    def product(skip):
        out = Ek
        for idx, f in enumerate(factors):
            if idx not in skip:
                out = out * f
        return out

    P = product(())
    P_a = [product((a,)) for a in range(l)]
    P_ab = [[product((a, b)) if a != b else None for b in range(l)] for a in range(l)]
    return P, P_a, P_ab


def first_principles_g_check(spec: RootSystemSpec) -> None:
    """The reference g in the theta chart equals (dP(u), dP(v)) computed from
    the mu-chart derivatives."""
    l, k = spec.rank, spec.vertex
    work = extend_with_uv(zeta_chart(spec))
    Pu, Pau, _ = _zeta_products(spec, work, "u")
    Pv, Pav, _ = _zeta_products(spec, work, "v")
    zs = [Poly.variable(work, f"zeta{j}") for j in range(1, l + 1)]
    rhs = k * Pu * Pv
    for a in range(l):
        rhs = rhs - (zs[a] ** 2 - 4 * zs[a]) * Pau[a] * Pav[a]
    g_th = reference_g_theta(spec)
    theta_subs = _theta_in_zeta(spec, work)
    u = Poly.variable(work, "u")
    v = Poly.variable(work, "v")
    lhs = Poly.const(work, 0)
    for i in range(l + 1):
        for j in range(l + 1):
            e = g_th.mat[i][j]
            if not e.is_zero():
                lhs = lhs + e.substitute(theta_subs, work) * u ** (l - i) * v ** (l - j)
    if lhs != rhs:
        raise ArithmeticError(
            f"reference g fails the first-principles identity for {spec.label()}")


def first_principles_gamma_check(spec: RootSystemSpec) -> None:
    """The reference Gamma in the theta chart equals the mu-chart one-form
    expansion, component by component."""
    l, k = spec.rank, spec.vertex
    work = extend_with_uv(zeta_chart(spec))
    Pu, Pau, _ = _zeta_products(spec, work, "u")
    Pv, Pav, Pabv = _zeta_products(spec, work, "v")
    zs = [Poly.variable(work, f"zeta{j}") for j in range(1, l + 1)]
    Ek = Poly.variable(work, "E") ** k
    gam = reference_gamma_theta(spec)
    theta_subs = _theta_in_zeta(spec, work)
    u = Poly.variable(work, "u")
    v = Poly.variable(work, "v")

    gens = []
    for m in range(l + 1):
        acc = Poly.const(work, 0)
        for i in range(l + 1):
            for j in range(l + 1):
                e = gam.arr[i][j][m]
                if not e.is_zero():
                    acc = acc + e.substitute(theta_subs, work) * u ** (l - i) * v ** (l - j)
        gens.append(acc)

    # dmu_c components, divided through by the odd factor s_c
    for c in range(l):
        lhs = Poly.const(work, 0)
        others = [zs[b] for b in range(l) if b != c]
        for m in range(1, l + 1):
            dtheta = Ek * _esym_or_one(others, m - 1, work)
            lhs = lhs + gens[m] * dtheta
        rhs = k * Pu * Pav[c] - (zs[c] - 2) * Pau[c] * Pav[c]
        for a in range(l):
            if a != c:
                rhs = rhs - (zs[a] ** 2 - 4 * zs[a]) * Pau[a] * Pabv[a][c]
        if lhs != rhs:
            raise ArithmeticError(
                f"reference Gamma fails the dmu_{c + 1} identity for {spec.label()}")

    # dmu_{l+1} component
    lhs = Poly.const(work, 0)
    for m in range(l + 1):
        theta_m = Ek * _esym_or_one(zs, m, work)
        lhs = lhs + gens[m] * (k * theta_m)
    rhs = k * k * Pu * Pv
    for a in range(l):
        rhs = rhs - k * (zs[a] ** 2 - 4 * zs[a]) * Pau[a] * Pav[a]
    if lhs != rhs:
        raise ArithmeticError(f"reference Gamma fails the dmu_(l+1) identity for {spec.label()}")


def _esym_or_one(values, j: int, chart: Chart) -> Poly:
    if j == 0:
        return Poly.const(chart, 1)
    if not values:
        return Poly.const(chart, 0)
    return elementary_symmetric(values, j)


def _theta_in_zeta(spec: RootSystemSpec, work: Chart) -> Dict[str, Poly]:
    gen = generator_map(spec)
    tmap = theta_map(spec)
    return {f"th{j}": inject(gen.pull([tmap.pullback[f"th{j}"]])[0], work)
            for j in range(spec.rank + 1)}


def paper_literal_det_sign(spec: RootSystemSpec) -> int:
    return -1 if spec.rank % 2 else 1

ALL_SMALL = [(l, k) for l in range(1, 5) for k in range(1, l + 1)]


def test_g_theta_rank1_entries():
    g = reference_g_theta(RootSystemSpec("C", 1, 1))
    tc = g.chart
    th0, th1 = tc.var("th0"), tc.var("th1")
    assert g.mat[0][0] == th0 ** 2
    assert g.mat[0][1] == th0 * th1
    assert g.mat[1][1] == 4 * th0 * th1


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_g_theta_quadratic_and_symmetric(l, k):
    g = reference_g_theta(RootSystemSpec("C", l, k))
    assert all(g.mat[i][j] == g.mat[j][i] for i in range(g.dim) for j in range(i))
    for row in g.mat:
        for entry in row:
            for exps in entry.terms:
                assert sum(exps) == 2  # quadratic polynomials in theta


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_gamma_theta_linear(l, k):
    gam = reference_gamma_theta(RootSystemSpec("C", l, k))
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


def test_transform_form_rejects_a_non_symmetric_form():
    # only the entries i <= j of J g J^T are formed, so symmetry is checked
    pen = build_pencil(RootSystemSpec("C", 2, 1))
    mat = [list(row) for row in pen.g.mat]
    mat[0][1] = mat[0][1] + 1
    with pytest.raises(ValueError, match=r"^form is not symmetric$"):
        transform_form(BilinearForm(pen.chart, mat), identity_map(pen.chart))


@pytest.mark.parametrize("l,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_theta_transport_equals_oracle(l, k):
    spec = RootSystemSpec("C", l, k)
    fast = metric_y(spec)
    direct = reference_g_direct(spec)
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
                    assert weighted_degree(entry) == d[i] + d[j] - d[m]


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
    yc = y_chart(spec)
    closed = eta_pattern(spec, yc, "y")
    for j in range(1, 4):
        prefactor = 4 * (3 - j + 1)
        expected = prefactor * (Poly.monomial(yc, {f"y{j - 1}": 1, "E": 1})
                                if j > 1 else yc.var("E"))
        assert closed[j - 1][2] == expected


def test_z_pattern_zeroes_r_and_p_and_drops_the_q_tail():
    # C5k3 (n = 2): R_1 at (2, 2), P_1..P_3 at (1..3, 3); Q_1 at (4, 4)
    # carries the tail 2 y5 in the y chart only
    spec = RootSystemSpec("C", 5, 3)
    yc = y_chart(spec)
    y = eta_pattern(spec, yc, "y")
    z = eta_pattern(spec, yc, "z")
    E = yc.var("E")
    slots = {(1, 1): 12 * E + 2 * yc.var("y1"), (0, 2): 12 * E,
             (1, 2): 8 * yc.var("y1") * E, (2, 2): 4 * yc.var("y2") * E,
             (3, 3): 4 * yc.var("y4") + 2 * yc.var("y5")}
    for (i, j), value in slots.items():
        assert y[i][j] == y[j][i] == value
    assert all(z[i][j].is_zero() for i, j in list(slots)[:4])
    assert z[3][3] == 4 * yc.var("y4")
    assert all(y[i][j] == z[i][j] for i in range(6) for j in range(6)
               if (min(i, j), max(i, j)) not in slots)


def test_corrupted_eta_misses_the_y_pattern():
    spec = RootSystemSpec("C", 3, 1)
    pen = build_pencil(spec)
    with pytest.raises(BlockFormMismatch, match=r"^eta\(y\)\[1\]\[1\] = 8\*E, "):
        assert_eta_pattern(spec, pen.eta.map_entries(lambda p: p * 2), "y")


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_eta_matches_closed_form(l, k):
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    assert_eta_pattern(spec, pen.eta, "y")


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


@pytest.mark.parametrize("l,k", [(2, 1), (3, 2), (3, 3)])
def test_linearity_and_negative_control(l, k):
    spec = RootSystemSpec(family="C", rank=l, vertex=k)
    pen = build_pencil(spec)
    assert linearity_check(pen.g, pen.gamma_g, spec)
    yc = pen.chart
    bad = pen.g.map_entries(lambda p: p + Poly.monomial(yc, {f"y{k}": 2}))
    assert not linearity_check(bad, pen.gamma_g, spec)
    # one entry of Gamma in (y^k)^2, or with y^k to a negative power when
    # y^k is the Laurent y^l
    for exponent in [2] + [-1] * (k == l):
        arr = [[list(row) for row in plane] for plane in pen.gamma_g.arr]
        arr[l][0][1] = arr[l][0][1] + Poly.monomial(yc, {f"y{k}": exponent})
        assert not linearity_check(pen.g, ChristoffelContra(yc, arr), spec)


def test_transport_to_t_reproduces_corner_identities():
    # g^{m,l+1} = dtilde_m t^m and Gamma^{l+1,i}_j = dtilde_j delta_ij
    from weylfrob.frobenius import build_structure
    from test_frobenius import reference_connection_identity

    for (l, k) in [(2, 1), (3, 2), (3, 3)]:
        struct = build_structure(RootSystemSpec("C", l, k))
        gamma_t = reference_connection_identity(struct)
        tc = struct.g_t.chart
        dt = flat_degrees(l, k)
        for m in range(1, l + 1):
            assert struct.g_t.mat[m - 1][l] == dt[m - 1] * tc.var(f"t{m}")
        assert struct.g_t.mat[l][l] == Poly.const(tc, Fraction(1, k))
        for i in range(l + 1):
            for j in range(l + 1):
                expected = dt[j] * Poly.const(tc, 1) if i == j else Poly.const(tc, 0)
                assert gamma_t.arr[l][i][j] == expected


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_g_degrees_in_y_chart(l, k):
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    d = list(degrees(spec)) + [Fraction(0)]
    for i in range(l + 1):
        for j in range(l + 1):
            entry = pen.g.mat[i][j]
            if not entry.is_zero():
                assert weighted_degree(entry) == d[i] + d[j]


# ---------------------------------------------------------------------------
# Closed-form tables and the closed-form transport against the references
# ---------------------------------------------------------------------------

PENCIL_SPECS = ([(l, k) for l in range(1, 7) for k in range(1, l + 1)]
                + [(7, 1), (7, 7), (8, 1), (8, 4), (8, 8)])


def _same(got, want) -> bool:
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


@pytest.mark.parametrize("l,k", PENCIL_SPECS)
def test_closed_form_pencil_equals_the_generating_functions(l, k):
    spec = RootSystemSpec("C", l, k)
    g_th, gam_th = reference_g_theta(spec), reference_gamma_theta(spec)
    tmap = theta_map(spec)
    g_y = transform_form(g_th, tmap)
    pen = build_pencil(spec)
    assert _same(pen.g.mat, g_y.mat)
    assert _same(pen.gamma_g.arr, reference_transform_christoffel(gam_th, tmap, g_y).arr)
    assert _same(pen.eta.mat, eta_from_g(g_y, spec).mat)


def _count_everywhere(monkeypatch, fn, calls: Counter) -> None:
    """Count the calls of ``fn`` into calls[fn.__name__] wherever a weylfrob
    module looks it up."""
    def counting(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "weylfrob" or name.startswith("weylfrob."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)


def _count_polys(monkeypatch, on: Callable[[Chart], bool], calls: Counter) -> None:
    """Count every Poly made on a chart for which ``on`` holds into
    calls["polys"]; every Poly is made by __init__ or _raw."""
    raw, init = Poly._raw.__func__, Poly.__init__

    def note(chart):
        if on(chart):
            calls["polys"] += 1

    def counting_raw(cls, chart, *args):
        note(chart)
        return raw(cls, chart, *args)

    def counting_init(self, chart, terms):
        note(chart)
        init(self, chart, terms)

    monkeypatch.setattr(Poly, "_raw", classmethod(counting_raw))
    monkeypatch.setattr(Poly, "__init__", counting_init)


def test_pencil_forms_no_jacobian_inverse_or_substitution(monkeypatch):
    """build_pencil calls no mat_inverse_unit, substitute_all or
    jacobian_pullback and makes no Poly on the theta chart: theta -> y is
    closed-form index rules.  The generic transport of the reference table
    trips every counter, so they see what they guard against."""
    calls = Counter()
    _count_everywhere(monkeypatch, mat_inverse_unit, calls)
    _count_everywhere(monkeypatch, substitute_all, calls)
    jacobian = CoordMap.jacobian_pullback

    def counting_jacobian(cmap):
        calls["jacobian_pullback"] += 1
        return jacobian(cmap)

    monkeypatch.setattr(CoordMap, "jacobian_pullback", counting_jacobian)
    _count_polys(monkeypatch, lambda chart: chart.name == "theta", calls)
    for l, k in [(1, 1), (4, 2), (5, 5)]:
        build_pencil(RootSystemSpec("C", l, k))
        assert not calls, (l, k)
    spec = RootSystemSpec("C", 4, 2)
    transform_form(reference_g_theta(spec), theta_map(spec))
    assert set(calls) == {"mat_inverse_unit", "substitute_all", "jacobian_pullback", "polys"}


@pytest.mark.parametrize("l,k", [(1, 1), (4, 2), (5, 5), (7, 1)])
def test_pencil_shares_one_chart(l, k):
    """g, Gamma and eta and every entry of them sit on the one y chart
    object, so sum_products and Poly equality stop at the identity test."""
    pen = build_pencil(RootSystemSpec("C", l, k))
    yc = pen.chart
    assert pen.g.chart is yc and pen.gamma_g.chart is yc and pen.eta.chart is yc
    assert all(e.chart is yc for row in pen.g.mat + pen.eta.mat for e in row)
    assert all(e.chart is yc for plane in pen.gamma_g.arr for row in plane for e in row)


def test_connection_transport_rejects_other_charts():
    spec = RootSystemSpec("C", 3, 2)
    with pytest.raises(ValueError, match="y chart"):
        transform_christoffel(spec, build_pencil(RootSystemSpec("C", 3, 1)).g)


def test_pencil_uses_no_generating_function(monkeypatch):
    """Building the C5k3 pencil makes no Poly on a chart with u and v, while
    the reference does (so the counter sees what it guards against)."""
    spec = RootSystemSpec("C", 5, 3)
    calls = Counter()
    _count_polys(monkeypatch, lambda chart: "u" in chart.index and "v" in chart.index, calls)
    build_pencil(spec)
    assert calls["polys"] == 0
    reference_gamma_theta(spec)
    assert calls["polys"] > 0
