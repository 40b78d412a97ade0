"""Generators, the generating polynomial P, and the first-principles oracle."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import pytest

from weylfrob import orbitspace
from weylfrob.exactalg import (Chart, NonUnitLaurentSubstitution, Poly, VarSpec,
                               monomials_of_weighted_degree, substitute_all)
from weylfrob.frobenius import build_structure, oracle_check
from weylfrob.metrics import BilinearForm
from weylfrob.orbitspace import (CoordMap, OracleMismatch, compute_g_direct, generator_map,
                                 oracle_chart, oracle_pairing, theta_chart, theta_map,
                                 y_chart, zeta_chart, zeta_exprs)
from weylfrob.rootdata import RootSystemSpec, degrees

from test_exactalg import reference_solve_linear, weighted_degree


def elementary_symmetric(values: Sequence[Poly], j: int) -> Poly:
    """sigma_j of the given ring elements (sigma_0 = 1), by Poly products:
    the reference for the closed form of ``generator_map``."""
    chart = values[0].chart
    coeffs = [Poly.const(chart, 1)]
    for v in values:
        nxt = [coeffs[0]]
        for i in range(1, len(coeffs) + 1):
            term = coeffs[i] if i < len(coeffs) else Poly.const(chart, 0)
            prev = coeffs[i - 1] * v
            nxt.append(term + prev)
        coeffs = nxt
    return coeffs[j] if j < len(coeffs) else Poly.const(chart, 0)


def reference_generator_map(spec: RootSystemSpec) -> Dict[str, Poly]:
    """The forward map of ``generator_map``, y^j = E^{d_j} sigma_j(zeta),
    with sigma_j from ``elementary_symmetric``."""
    zc = zeta_chart(spec)
    d = degrees(spec)
    zs = [Poly.variable(zc, f"zeta{j}") for j in range(1, spec.rank + 1)]
    E = Poly.variable(zc, "E")
    forward = {f"y{j}": (E ** int(d[j - 1])) * elementary_symmetric(zs, j)
               for j in range(1, spec.rank + 1)}
    forward["E"] = E
    return forward


def inject(p: Poly, target: Chart) -> Poly:
    """Re-home a polynomial into a chart containing all its variables by name."""
    return p.substitute({}, target=target)


class ExpansionIdentityError(ArithmeticError):
    """P(u) failed its defining product expansion."""


@dataclass
class GenPolyP:
    """Coefficients theta^0..theta^l of P(u) = sum u^{l-j} theta^j.

    Construction verifies the product expansion P(u) = E^k prod(u + zeta_j)
    symbolically in the auxiliary (zeta, E) chart.
    """

    spec: RootSystemSpec
    chart: Chart
    thetas: List[Poly]


def extend_with_uv(chart: Chart) -> Chart:
    """Clone a chart with two extra weight-0 variables u, v (for generating functions)."""
    varspecs = list(chart.vars) + [VarSpec("u", Fraction(0)), VarSpec("v", Fraction(0))]
    return Chart(f"{chart.name}_uv", varspecs, log_coord=chart.log_coord,
                 exp_var=chart.exp_var)


def assemble_P(spec: RootSystemSpec) -> GenPolyP:
    if spec.family != "C":
        raise ValueError("the theta/P machinery is the C_l fast path")
    l, k = spec.rank, spec.vertex
    tc = theta_chart(spec)
    thetas = [Poly.variable(tc, f"th{j}") for j in range(l + 1)]

    # verification chart: (zeta, E, u, v)
    zc_uv = extend_with_uv(zeta_chart(spec))
    gen = generator_map(spec)
    tmap = theta_map(spec)
    theta_in_zeta = {f"th{j}": inject(gen.pull([tmap.pullback[f"th{j}"]])[0], zc_uv)
                     for j in range(l + 1)}
    u = Poly.variable(zc_uv, "u")
    lhs = Poly.const(zc_uv, 0)
    for j in range(l + 1):
        lhs = lhs + u ** (l - j) * theta_in_zeta[f"th{j}"]
    rhs = Poly.variable(zc_uv, "E") ** k
    for j in range(1, l + 1):
        rhs = rhs * (u + Poly.variable(zc_uv, f"zeta{j}"))
    if lhs != rhs:
        raise ExpansionIdentityError(f"P(u) expansion identity fails for {spec.label()}")
    return GenPolyP(spec, tc, thetas)


class ReexpressionFailed(ArithmeticError):
    """An invariant could not be rewritten in the generator chart."""


def reexpress(entry: Poly, target_chart: Chart, target_degree: Fraction,
              var_exprs: Dict[str, Poly]) -> Poly:
    """Rewrite an oracle-chart invariant as a polynomial over the target chart.

    Enumerates the finite monomial basis of the given weighted degree,
    expands each candidate through ``var_exprs`` and solves the exact linear
    system for the coefficients; anything but a unique solution raises.
    """
    names = [v.name for v in target_chart.vars]
    candidates = monomials_of_weighted_degree(target_chart, names, target_degree)
    if not candidates and not entry.is_zero():
        raise ReexpressionFailed(f"no candidate monomials of degree {target_degree}")
    cache: Dict[Tuple[str, int], Poly] = {}

    def var_power(name: str, e: int) -> Poly:
        if (name, e) not in cache:
            cache[(name, e)] = var_exprs[name] ** e
        return cache[(name, e)]

    unknowns = [f"c{q}" for q in range(len(candidates))]
    equations: Dict[Tuple[int, ...], Dict[str, Fraction]] = {}
    for q, mono in enumerate(candidates):
        x = Poly.const(entry.chart, 1)
        for name, e in mono.items():
            x = x * var_power(name, e)
        for exps, coeff in x.terms.items():
            row = equations.setdefault(exps, {})
            row[unknowns[q]] = row.get(unknowns[q], Fraction(0)) + coeff
    eqs = [(equations.get(exps, {}), entry.terms.get(exps, Fraction(0)))
           for exps in set(equations) | set(entry.terms)]
    result = reference_solve_linear(eqs, unknowns)
    if result.kind != "unique":
        raise ReexpressionFailed(f"re-expression solve is {result.kind}")
    out = Poly.const(target_chart, 0)
    for q, mono in enumerate(candidates):
        c = result.solution[unknowns[q]]
        if c:
            out = out + Poly.monomial(target_chart, mono, c)
    return out


# ---------------------------------------------------------------------------
# The half-step reference oracle: every generator expanded in the oracle chart
# ---------------------------------------------------------------------------

def half_zeta_exprs(spec: RootSystemSpec, chart: Chart) -> List[Poly]:
    """The square roots zeta_j^{1/2} = 2 cos(...) in the half-step chart (B_l)."""
    l = spec.rank
    out = []
    for j in range(1, l + 1):
        dj = Poly.variable(chart, f"d{j}")
        dj_prev = Poly.variable(chart, f"d{j - 1}") if j > 1 else Poly.const(chart, 1)
        if spec.family == "B" and j == l:
            half = dj_prev * dj.unit_inverse() ** 2
        else:
            half = dj * dj_prev.unit_inverse()
        out.append(half + half.unit_inverse())
    return out


def generator_exprs(spec: RootSystemSpec, chart: Chart) -> List[Poly]:
    """The generators y^1..y^l expanded in the oracle chart (E = r^4)."""
    l = spec.rank
    d = degrees(spec)
    zs = zeta_exprs(spec, chart)
    r = Poly.variable(chart, "r")
    out = []
    for j in range(1, l + 1):
        twist = r ** int(4 * d[j - 1])
        if spec.family == "B" and j == l:
            prod = Poly.const(chart, 1)
            for h in half_zeta_exprs(spec, chart):
                prod = prod * h
            out.append(twist * prod)
        else:
            out.append(twist * elementary_symmetric(zs, j))
    return out


def log_scale_of(spec: RootSystemSpec) -> Fraction:
    """The recorded log scale c: 1/2 for B_l at k = l, else 1."""
    return Fraction(1, 2) if spec.family == "B" and spec.vertex == spec.rank else Fraction(1)


def reference_pairings(spec: RootSystemSpec,
                       log_scale: Fraction) -> Tuple[List[List[Poly]], Dict[str, Poly]]:
    """The generators' pairings in the oracle chart (the log coordinate
    scaled by ``log_scale``) under the extended metric that
    ``orbitspace.build`` gives, and the bindings that expand a y-chart form
    there: y^j -> the j-th generator (for B_l, y^l -> the square of the last
    one) and E -> r^(4 log_scale).  The generators and E are algebraically
    independent, so the expansion is injective."""
    ochart = oracle_chart(spec)
    funcs = generator_exprs(spec, ochart)
    if spec.family == "B":
        funcs[-1] = funcs[-1] * funcs[-1]
    bindings = {f"y{j}": f for j, f in enumerate(funcs, 1)}
    bindings["E"] = Poly.variable(ochart, "r") ** int(4 * log_scale)
    return oracle_pairing(orbitspace.build(spec), funcs, log_scale), bindings


def reference_oracle_agrees(struct) -> bool:
    """The half-step oracle: the structure's y-chart metric, expanded through
    the generators, equals their pairings entry by entry.  An entry with a
    negative power of a generator cannot be expanded, so it disagrees."""
    spec = struct.spec
    log_scale = struct.b_ident.log_scale if spec.family == "B" else Fraction(1)
    pairings, bindings = reference_pairings(spec, log_scale)
    entries = [e for row in struct.pencil.g.mat for e in row]
    try:
        expanded = substitute_all(entries, bindings, pairings[0][0].chart)
    except NonUnitLaurentSubstitution:
        return False
    return expanded == [e for row in pairings for e in row]


def zeta_oracle_agrees(struct) -> bool:
    """The library's oracle as a verdict."""
    try:
        oracle_check(struct)
    except OracleMismatch:
        return False
    return True


def b_y_chart(spec: RootSystemSpec) -> Chart:
    """The chart of the B_l generators themselves: y^j of weight d_j, and
    E = e^{y^{l+1}} of weight 1, or E = e^{y^{l+1}/4} of weight 1/4 when
    k = l, where the d_j are quarter-integers."""
    l = spec.rank
    d = degrees(spec)
    varspecs = [VarSpec(f"y{j}", d[j - 1], laurent=(j == l)) for j in range(1, l + 1)]
    e_weight = Fraction(1, 4) if spec.vertex == l else Fraction(1)
    varspecs.append(VarSpec("E", e_weight, laurent=True))
    return Chart("y", varspecs, log_coord=f"y{l + 1}", exp_var="E")


def reference_g_direct(spec: RootSystemSpec) -> BilinearForm:
    """The intersection form on the spec's own y-chart, from the definition:
    the generators' pairings in the oracle chart, each re-expressed in the
    y-chart by an exact linear solve over the monomials of its weighted
    degree.  It reads the generators as they were before the oracle went
    through the zeta chart."""
    ochart = oracle_chart(spec)
    funcs = generator_exprs(spec, ochart)
    ghat = oracle_pairing(orbitspace.build(spec), funcs, Fraction(1))
    yc = y_chart(spec) if spec.family == "C" else b_y_chart(spec)
    var_exprs = {f"y{j}": funcs[j - 1] for j in range(1, spec.rank + 1)}
    var_exprs["E"] = Poly.variable(ochart, "r") ** int(4 * yc.weight("E"))
    wts = list(degrees(spec)) + [Fraction(0)]
    size = spec.rank + 1
    mat = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            mat[i][j] = reexpress(ghat[i][j], yc, wts[i] + wts[j], var_exprs)
    return BilinearForm(yc, mat)


def test_elementary_symmetric_rank3():
    c = zeta_chart(RootSystemSpec("C", 3, 1))
    zs = [c.var(f"zeta{j}") for j in (1, 2, 3)]
    a, b, d = zs
    assert elementary_symmetric(zs, 2) == a * b + a * d + b * d
    assert elementary_symmetric(zs, 0) == Poly.const(c, 1)


@pytest.mark.parametrize("l", range(1, 11))
def test_generator_map_closed_form_matches_elementary_symmetric(l):
    for k in range(1, l + 1):
        spec = RootSystemSpec("C", l, k)
        gen = generator_map(spec)
        assert gen.source == zeta_chart(spec) and gen.target == y_chart(spec)
        assert gen.forward == reference_generator_map(spec)


def test_generators_rank2():
    spec = RootSystemSpec("C", 2, 1)
    gen = generator_map(spec)
    zc = gen.source
    E = zc.var("E")
    z1, z2 = zc.var("zeta1"), zc.var("zeta2")
    assert gen.forward["y1"] == E * (z1 + z2)
    assert gen.forward["y2"] == E * (z1 * z2)


def test_generators_c3k1_match_worked_example():
    spec = RootSystemSpec("C", 3, 1)
    gen = generator_map(spec)
    zc = gen.source
    E = zc.var("E")
    zs = [zc.var(f"zeta{j}") for j in (1, 2, 3)]
    assert gen.forward["y1"] == E * (zs[0] + zs[1] + zs[2])
    assert gen.forward["y2"] == E * elementary_symmetric(zs, 2)
    assert gen.forward["y3"] == E * (zs[0] * zs[1] * zs[2])
    # every generator is weighted homogeneous of degree d_j
    d = degrees(spec)
    for j in (1, 2, 3):
        assert weighted_degree(gen.forward[f"y{j}"]) == d[j - 1]


@pytest.mark.parametrize("l,k", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)])
def test_assemble_P_expansion_identity(l, k):
    # construction itself verifies P(u) = E^k prod(u + zeta_j)
    gp = assemble_P(RootSystemSpec("C", l, k))
    assert len(gp.thetas) == l + 1


def test_theta_chart_weights_all_equal_k():
    spec = RootSystemSpec("C", 3, 2)
    tc = theta_chart(spec)
    assert all(v.weight == 2 for v in tc.vars)
    tmap = theta_map(spec)
    yc = tmap.target
    E = yc.var("E")
    assert tmap.pullback["th0"] == E ** 2
    assert tmap.pullback["th1"] == yc.var("y1") * E
    assert tmap.pullback["th2"] == yc.var("y2")
    assert tmap.pullback["th3"] == yc.var("y3")


def test_direct_metric_rank1():
    spec = RootSystemSpec("C", 1, 1)
    g = reference_g_direct(spec)
    yc = g.chart
    assert g.mat[0][0] == 4 * Poly.monomial(yc, {"y1": 1, "E": 1})
    assert g.mat[0][1] == yc.var("y1")
    assert g.mat[1][1] == Poly.const(yc, 1)


SMALL_B = [("B", l, k) for l in (1, 2, 3) for k in range(1, l + 1)]
SMALL_C = [("C", l, k) for l in (1, 2, 3) for k in range(1, l + 1)]


@pytest.mark.parametrize("family,l,k", [("C", 2, 1), ("C", 2, 2), ("C", 3, 2)] + SMALL_B)
def test_direct_metric_structure(family, l, k):
    # the pairings re-express uniquely on the spec's own y-chart (for B_l
    # with k = l, the chart with E = e^{y^{l+1}/4}); the reference raises
    # otherwise
    spec = RootSystemSpec(family, l, k)
    g = reference_g_direct(spec)
    d = list(degrees(spec)) + [Fraction(0)]
    dk = d[k - 1]
    assert all(g.mat[i][j] == g.mat[j][i] for i in range(l + 1) for j in range(i))
    # corner and last column from the definition
    assert g.mat[l][l] == Poly.const(g.chart, 1 / dk)
    for m in range(1, l + 1):
        assert g.mat[m - 1][l] == (d[m - 1] / dk) * g.chart.var(f"y{m}")
    # weighted homogeneity deg g^{ij} = d_i + d_j
    for i in range(l + 1):
        for j in range(l + 1):
            if not g.mat[i][j].is_zero():
                assert weighted_degree(g.mat[i][j]) == d[i] + d[j]


@pytest.mark.parametrize("family,l,k", SMALL_C)
def test_reference_expands_to_the_pairings(family, l, k):
    # the y-chart form re-expressed by the reference, expanded back through
    # the bindings, gives the pairings entry by entry
    spec = RootSystemSpec(family, l, k)
    pairings, bindings = reference_pairings(spec, Fraction(1))
    ochart = pairings[0][0].chart
    ref = reference_g_direct(spec)
    for i in range(l + 1):
        for j in range(l + 1):
            assert ref.mat[i][j].substitute(bindings, ochart) == pairings[i][j]


def test_compose_needs_both_pullbacks():
    spec = RootSystemSpec("C", 2, 1)
    gen, th = generator_map(spec), theta_map(spec)  # forward only, pullback only
    y_to_theta = CoordMap(th.target, th.source, forward=th.pullback)
    with pytest.raises(ValueError, match="zeta->y has no pullback"):
        gen.compose(y_to_theta)
    with pytest.raises(ValueError, match="y->theta has no pullback"):
        th.compose(y_to_theta)


def test_theta_machinery_is_c_only():
    with pytest.raises(ValueError):
        generator_map(RootSystemSpec("B", 2, 1))
    with pytest.raises(ValueError):
        assemble_P(RootSystemSpec("B", 2, 1))
    for k in (1, 2):  # a B_l structure shares the C_l chart and generator map
        with pytest.raises(ValueError):
            y_chart(RootSystemSpec("B", 2, k))


RANKS_1_TO_5 = [(family, l, k) for family in ("C", "B")
                for l in range(1, 6) for k in range(1, l + 1)]


@pytest.mark.parametrize("family,l,k", [(family, l, k) for family in ("C", "B")
                                        for l in range(1, 7) for k in range(1, l + 1)])
def test_generator_map_gives_the_reference_generators(family, l, k):
    # the identity the zeta route rests on: the C_l map, applied to the
    # spec's own zeta's with E = r^(4c), is the half-step generators (for
    # B_l, the last one squared)
    spec = RootSystemSpec(family, l, k)
    ochart = oracle_chart(spec)
    gens = generator_map(RootSystemSpec("C", l, k))
    bindings = {f"zeta{a}": z for a, z in enumerate(zeta_exprs(spec, ochart), 1)}
    bindings["E"] = Poly.variable(ochart, "r") ** int(4 * log_scale_of(spec))
    got = substitute_all([gens.forward[f"y{j}"] for j in range(1, l + 1)], bindings,
                         ochart)
    want = generator_exprs(spec, ochart)
    if family == "B":
        want[-1] = want[-1] * want[-1]
    assert got == want


@pytest.mark.parametrize("family,l,k", [(family, l, k) for family in ("C", "B")
                                        for l in range(1, 7) for k in range(1, l + 1)])
def test_zeta_pairings_have_the_closed_form(family, l, k):
    # compute_g_direct checks the diagonal itself; its log entry is 1/k
    spec = RootSystemSpec(family, l, k)
    form = compute_g_direct(spec, log_scale_of(spec))
    zc = zeta_chart(spec)
    for i in range(l + 1):
        for j in range(l + 1):
            if i == j < l:
                zeta = zc.var(f"zeta{i + 1}")
                assert form[i][j] == zeta * (4 - zeta)
            elif i == j:
                assert form[i][j] == Poly.const(zc, Fraction(1, k))
            else:
                assert form[i][j].is_zero()


@pytest.mark.parametrize("family,l,k", RANKS_1_TO_5)
def test_zeta_oracle_agrees_with_the_reference(family, l, k):
    struct = build_structure(RootSystemSpec(family, l, k))
    assert zeta_oracle_agrees(struct) is reference_oracle_agrees(struct) is True
