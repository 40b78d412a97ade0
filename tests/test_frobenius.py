"""Potential construction, WDVV/Euler/intersection identities, B -> C."""

import sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from weylfrob import cli, exactalg, frobenius
from weylfrob.cli import compare_fixture
from weylfrob.exactalg import (Chart, NonExactDivision, Poly, VarSpec, contract, mat_det,
                               sum_products)
from weylfrob.fixtures import FIXTURES
from weylfrob.flatcoords import flat_pipeline
from weylfrob.frobenius import (ORACLE_AGREES, Inconsistent, PotentialF,
                                build_structure, integrate_potential, oracle_check,
                                raised_hessian, third_derivatives,
                                third_derivatives_from_metric, verify_euler_unity,
                                verify_intersection, verify_pencil, verify_wdvv)
from weylfrob.metrics import BilinearForm, build_pencil, transform_christoffel, transform_form
from weylfrob.rootdata import RootSystemSpec, flat_degrees
from weylfrob.serialize import structure_document

from test_exactalg import reference_coord_integral, reference_overlay_integrals
from test_metrics import _count_everywhere, reference_transform_christoffel

ALL_SMALL = [(l, k) for l in range(1, 4) for k in range(1, l + 1)]
ALL_RANK5 = [(l, k) for l in range(1, 6) for k in range(1, l + 1)]
ALL_RANK7 = [(l, k) for l in range(1, 8) for k in range(1, l + 1)]
ALL_RANK8 = [(l, k) for l in range(1, 9) for k in range(1, l + 1)]


# ---------------------------------------------------------------------------
# Reference WDVV: one residual at a time, every product recomputed
# ---------------------------------------------------------------------------

def _wdvv_tensors(struct):
    """F_{abc} and h_{ab}^mu = F_{ab lam} eta^{lam mu}."""
    f3 = third_derivatives(struct.potential)
    return f3, contract(struct.eta_up, f3, 2)


def _wdvv_residual(struct, f3, h, i, j, p, q):
    """A_{ijpq} = B(ij;pq) - B(pj;iq), 0-based indices."""
    acc = Poly.const(struct.potential.chart, 0)
    for mu in range(len(f3)):
        if not h[i][j][mu].is_zero() and not f3[mu][p][q].is_zero():
            acc = acc + h[i][j][mu] * f3[mu][p][q]
        if not h[p][j][mu].is_zero() and not f3[mu][i][q].is_zero():
            acc = acc - h[p][j][mu] * f3[mu][i][q]
    return acc


def reference_wdvv(struct):
    """Every nonzero A_{ijpq} over i < p, j <= q, as (1-based indices, A)."""
    f3, h = _wdvv_tensors(struct)
    dim = len(f3)
    failures = []
    for i in range(dim):
        for p in range(i + 1, dim):
            for j in range(dim):
                for q in range(j, dim):
                    acc = _wdvv_residual(struct, f3, h, i, j, p, q)
                    if not acc.is_zero():
                        failures.append(((i + 1, j + 1, p + 1, q + 1), acc))
    return failures


def reference_wdvv_pairings(struct):
    """WDVV over every 4-index multiset a <= b <= c <= d: its (up to three)
    pairings ab|cd, ac|bd, ad|bc computed once each and compared exactly;
    one entry ((i, j, p, q), A_{ijpq}), 1-based, per pairing that differs
    from ab|cd: (b, a, c, d) for ac|bd and (b, a, d, c) for ad|bc."""
    potential = struct.potential
    eta_up = struct.eta_up
    f3 = third_derivatives(potential)
    dim = len(f3)
    chart = potential.chart
    kpos, last = potential.vertex - 1, dim - 1
    # h_{ab}^mu = d_a d_b (eta^{mu lam} d_lam F), plus the head's constant
    # third derivatives at the permutations of (k, k, l+1)
    raised = contract(eta_up, [potential.poly.coord_diff(lam) for lam in range(dim)], 0)

    def pairing(ha, b, c, d):
        return sum_products(chart, [(hm, f3[mu][c][d]) for mu, hm in enumerate(ha[b])])

    failures = []
    for a in range(dim):
        # a, the least index of the multiset, lies in the first pair of
        # every pairing, so only the row h_{a.} is live
        da = [v.coord_diff(a) for v in raised]
        ha = {b: [v.coord_diff(b) for v in da] for b in range(a, dim)}
        if a == kpos:
            for b, lam in ((kpos, last), (last, kpos)):
                ha[b] = [e + eta_up[mu][lam] for mu, e in enumerate(ha[b])]
        for b in range(a, dim):
            for c in range(b, dim):
                for d in range(c, dim):
                    first = pairing(ha, b, c, d)
                    splits = []
                    if b != c:
                        splits.append(((b, a, c, d), c, b, d))
                    if a != b and c != d:
                        splits.append(((b, a, d, c), d, b, c))
                    for (i, j, p, q), y, z, w in splits:
                        other = pairing(ha, y, z, w)
                        if other != first:
                            failures.append(((i + 1, j + 1, p + 1, q + 1), first - other))
    return failures


def _rows_through(struct, f3, x):
    """h_{xb}^mu = eta^{mu lam} F_{xb lam}, indexed [b][mu]."""
    return contract(struct.eta_up, f3[x], 1)


def _pairing_slots(f3, h, x):
    """The (multiset, pairing, mu) slots that need a product: over the
    multisets {x, b, c, d} with b <= c <= d, their distinct splits xy|zw into
    two pairs, and the mu with h_{xy}^mu and F_{mu zw} both nonzero."""
    dim = len(f3)
    total = 0
    for b in range(dim):
        for c in range(b, dim):
            for d in range(c, dim):
                splits = {}
                for y, z, w in ((b, c, d), (c, b, d), (d, b, c)):
                    key = frozenset([tuple(sorted((x, y))), tuple(sorted((z, w)))])
                    splits.setdefault(key, (y, z, w))
                for (y, z, w) in splits.values():
                    total += sum(1 for mu in range(dim) if not h[y][mu].is_zero()
                                 and not f3[mu][z][w].is_zero())
    return total


def reference_tagged_derivatives(f2, kpos):
    """F_{abc} = d_c F_{ab} at every (a, b, c), plus the tag's 1 at (k, k, l+1)."""
    dim = len(f2)
    f3 = [[[f2[a][b].coord_diff(c) for c in range(dim)] for b in range(dim)]
          for a in range(dim)]
    f3[kpos][kpos][dim - 1] = f3[kpos][kpos][dim - 1] + 1
    return f3


# ---------------------------------------------------------------------------
# Reference connection: Gamma_y transported to the flat chart, against F
# ---------------------------------------------------------------------------

def reference_connection_identity(struct):
    """Transport Gamma_y along y -> t and assert, entry by entry, that it is
    dtilde_j dF^{ij}/dt^m; returns the transported connection.

    The checks do not need this comparison (``pencil`` certifies Gamma_y as
    the Levi-Civita connection of g_y, and ``intersection`` holds g_t against
    F), so the build does not transport the connection; this oracle confirms
    the conclusion the two checks license."""
    spec = struct.cspec
    l, k = spec.rank, spec.vertex
    dim, last = l + 1, l
    gamma_t = reference_transform_christoffel(struct.pencil.gamma_g, struct.flat.y_to_t,
                                              struct.g_t)
    fup = raised_hessian(struct.potential, struct.eta_up)
    dt = flat_degrees(l, k)
    zero = Poly.const(struct.potential.chart, 0)
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                c = fup[i][j].coord_diff(m)
                if i == j == m == last:
                    c = c + 1  # derivative of the raised tag t^{l+1}
                expected = c * dt[j] if dt[j] else zero
                assert gamma_t.arr[i][j][m] == expected, \
                    f"Gamma^{{{i + 1},{j + 1}}}_{m + 1} != dtilde_j c^{{ij}}_m"
    return gamma_t


def test_rank1_potential_closed_form():
    struct = build_structure(RootSystemSpec("C", 1, 1))
    tc = struct.potential.chart
    assert struct.potential.poly == Fraction(1, 2) * Poly.monomial(tc, {"E": 2})
    # third derivative along the log coordinate (the worked value)
    f3 = third_derivatives(struct.potential)
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
    f3 = third_derivatives(struct.potential)
    kpos = k - 1
    tc = struct.potential.chart
    for i in range(l + 1):
        for j in range(l + 1):
            assert f3[kpos][i][j] == Poly.const(tc, struct.eta_cov[i][j])


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_third_tensor_totally_symmetric(l, k):
    struct = build_structure(RootSystemSpec("C", l, k))
    f3 = third_derivatives(struct.potential)
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


# ---------------------------------------------------------------------------
# The single construction route: g_t -> F_{abc} -> F, with no linear solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l,k", ALL_RANK5)
def test_integrate_potential_inverts_third_derivatives(l, k):
    spec = RootSystemSpec("C", l, k)
    struct = build_structure(spec)
    f3 = third_derivatives(struct.potential)
    assert integrate_potential(spec, f3).poly == struct.potential.poly
    # the build's F_{abc}, taken from g_t, are those of the potential
    assert third_derivatives_from_metric(spec, struct.g_t, struct.eta_cov) == f3


@pytest.mark.parametrize("l,k", ALL_RANK5)
def test_tagged_derivatives_match_the_dense_reference(l, k):
    """Each F_{abc} is differentiated once, at a <= b <= c, and shared by its
    permutations; the tensor equals the one differentiated at every slot."""
    potential = build_structure(RootSystemSpec("C", l, k)).potential
    f2 = potential.hessian
    f3 = third_derivatives(potential)
    assert f3 == reference_tagged_derivatives(f2, k - 1)
    dim = l + 1
    assert all(f3[a][b][c] is f3[c][a][b] is f3[b][c][a]
               for a in range(dim) for b in range(dim) for c in range(dim))
    rows = [row for plane in f3 for row in plane]
    assert len({id(row) for row in rows}) == dim * dim


def _count_solves(monkeypatch):
    """Count solve_linear calls wherever a weylfrob module looks it up."""
    solve = exactalg.solve_linear
    calls = [0]

    def counting_solve(equations, unknowns=None):
        calls[0] += 1
        return solve(equations, unknowns)

    for name, module in list(sys.modules.items()):
        if name == "weylfrob" or name.startswith("weylfrob."):
            for attr, value in list(vars(module).items()):
                if value is solve:
                    monkeypatch.setattr(module, attr, counting_solve)
    return calls


def test_build_solves_only_in_the_flat_pipeline(monkeypatch):
    """The potential is integrated term by term: building C4k2 makes exactly
    the linear solves of the flat-coordinate pipeline, counted wherever a
    weylfrob module looks solve_linear up."""
    spec = RootSystemSpec("C", 4, 2)
    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(frobenius, "_CACHE", {})
    build_structure(spec)
    built = calls[0]
    calls[0] = 0
    flat_pipeline(spec, build_pencil(spec).eta)
    assert built == calls[0] > 0


def test_oracle_check_takes_no_linear_solve(monkeypatch):
    """The oracle pushes g to the zeta chart and compares: no solve on any
    spec it reaches, in either family."""
    structs = [build_structure(RootSystemSpec(family, l, k))
               for family in ("C", "B") for l, k in ALL_SMALL]
    calls = _count_solves(monkeypatch)
    for struct in structs:
        oracle_check(struct)
    assert calls[0] == 0


def test_oracle_check_expands_g_in_one_batch(monkeypatch):
    """One substitute_all call over all (l+1)^2 entries of g, and no
    entry-by-entry push, on every spec the CLI runs the oracle on."""
    structs = [build_structure(RootSystemSpec(family, l, k))
               for family in ("C", "B") for l, k in ALL_SMALL]
    batch, single = frobenius.substitute_all, Poly.substitute
    sizes, singles = [], [0]

    def counting_batch(polys, bindings, target=None):
        sizes.append(len(polys))
        return batch(polys, bindings, target)

    def counting_single(self, bindings, target=None):
        singles[0] += 1
        return single(self, bindings, target)

    monkeypatch.setattr(frobenius, "substitute_all", counting_batch)
    monkeypatch.setattr(Poly, "substitute", counting_single)
    for struct in structs:
        oracle_check(struct)
    assert sizes == [(struct.spec.rank + 1) ** 2 for struct in structs]
    assert singles == [0]


def test_build_transports_only_the_metric_to_the_flat_chart(monkeypatch):
    """The connection is certified in the y-chart, so building C4k2 calls
    transform_christoffel exactly once, for theta -> y in the pencil, counted
    wherever a weylfrob module looks it up."""
    transport = transform_christoffel
    calls = []

    def counting_transport(spec, g_y):
        calls.append((spec, g_y.chart.name))
        return transport(spec, g_y)

    for name, module in list(sys.modules.items()):
        if name == "weylfrob" or name.startswith("weylfrob."):
            for attr, value in list(vars(module).items()):
                if value is transport:
                    monkeypatch.setattr(module, attr, counting_transport)
    monkeypatch.setattr(frobenius, "_CACHE", {})
    build_structure(RootSystemSpec("C", 4, 2))
    assert calls == [(RootSystemSpec("C", 4, 2), "y")]


def test_package_matrices_eliminate_on_unit_pivots(monkeypatch):
    """Every matrix the package inverts or takes the determinant of has a
    unit pivot at each step (else NonInvertibleMatrix would fail the build
    or the check), so every C spec through rank 8 builds and passes the
    `pencil` and `det` checks, with unit steps taken."""
    from weylfrob.cli import run_check

    calls = {"unit": 0}
    unit_step = exactalg._unit_step

    def counting_unit_step(*args):
        calls["unit"] += 1
        return unit_step(*args)

    monkeypatch.setattr(exactalg, "_unit_step", counting_unit_step)
    for l in range(1, 9):
        for k in range(1, l + 1):
            struct = build_structure(RootSystemSpec("C", l, k))
            for check in ("pencil", "det"):
                assert run_check(check, struct, 3)["passed"], (l, k, check)
    assert calls["unit"] > 0


@pytest.mark.parametrize("l,k", [(7, 1), (7, 7)])
def test_pencil_check_forms_only_independent_identities(monkeypatch, l, k):
    """The pencil check makes at most n^2 (n + 1)/2 + n^2 (n - 1)/2
    sum_products calls (n = l + 1) besides those of its mat_det(eta),
    which are counted on their own: one per compatibility identity with
    i <= j and one per torsion identity with i < j.  Counted wherever a
    weylfrob module looks sum_products up."""
    struct = build_structure(RootSystemSpec("C", l, k))
    n = l + 1
    calls = Counter()
    _count_everywhere(monkeypatch, sum_products, calls)
    mat_det(struct.pencil.eta.mat)
    det_calls = calls["sum_products"]
    calls.clear()
    verify_pencil(struct)
    assert 0 < calls["sum_products"] <= n * n * (n + 1) // 2 + n * n * (n - 1) // 2 + det_calls


@pytest.mark.parametrize("triple,mono", [((2, 2, 2), {"t3": -1}),
                                         ((0, 0, 3), {})],
                         ids=["t3^-1 along t3", "constant along t4"])
def test_integrate_potential_rejects_log_antiderivatives(triple, mono):
    """A term of F_{abc} whose antiderivative along (a, b, c) needs an
    explicit log coordinate (C3k1: t3 is Laurent, t4 is the log coordinate)."""
    spec = RootSystemSpec("C", 3, 1)
    struct = build_structure(spec)
    f3 = third_derivatives(struct.potential)
    a, b, c = triple
    f3[a][b][c] = f3[a][b][c] + Poly.monomial(struct.potential.chart, mono)
    with pytest.raises(Inconsistent, match=rf"^F_\({a + 1},{b + 1},{c + 1}\) has a term whose "
                       "antiderivative needs an explicit log coordinate$"):
        integrate_potential(spec, f3)
    # the coord_integral chain fails on the same term
    with pytest.raises(NonExactDivision):
        reference_overlay_integrals([(f3[a][b][c], [a, b, c])])


@pytest.mark.parametrize("l,k", ALL_RANK7)
def test_integrate_potential_matches_the_coord_integral_chain(l, k):
    """F read off the keys of F_{abc} is the reference: the coord_integral
    chain along c, b and a of each F_{abc}, a <= b <= c (less the head's
    constant at (k, k, l+1)), merged with the last triple winning."""
    spec = RootSystemSpec("C", l, k)
    struct = build_structure(spec)
    f3 = third_derivatives_from_metric(spec, struct.g_t, struct.eta_cov)
    dim = l + 1
    pieces = [(f3[a][b][c] - int((a, b, c) == (k - 1, k - 1, l)), [a, b, c])
              for a in range(dim) for b in range(a, dim) for c in range(b, dim)]
    want = reference_overlay_integrals(pieces)
    assert dict(integrate_potential(spec, f3).poly.terms) == {e: v for e, v in want.items() if v}
    assert integrate_potential(spec, f3).poly == struct.potential.poly


@pytest.mark.parametrize("l,k", ALL_RANK8)
def test_g_t_is_the_unsplit_transport_of_g(l, k):
    """The build transports A = g - y^k eta and adds y^k(t) eta_t; the
    transport of the whole of g gives the same g_t, entry for entry."""
    struct = build_structure(RootSystemSpec("C", l, k))
    assert struct.g_t.mat == transform_form(struct.pencil.g, struct.flat.y_to_t).mat


def test_g_transport_skips_the_yk_eta_part(monkeypatch):
    """At C7k7 the transport of g takes at most 55 000 sum_products term
    pairs (x's terms times y's, one per term of y for a rational x; 52 334
    here), counted wherever a weylfrob module looks sum_products up; the
    transport of the whole of g, counted the same way, takes more (65 807)."""
    struct = build_structure(RootSystemSpec("C", 7, 7))
    pairs = [0]
    kernel = exactalg.sum_products

    def counting(chart, ps):
        ps = list(ps)
        pairs[0] += sum(len(y.packed) * (len(x.packed) if isinstance(x, Poly) else 1)
                        for x, y in ps)
        return kernel(chart, ps)

    for name, module in list(sys.modules.items()):
        if name == "weylfrob" or name.startswith("weylfrob."):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, counting)
    g_t = transform_form(struct.pencil.g, struct.flat.y_to_t, ("y7", struct.flat.eta_t))
    split, pairs[0] = pairs[0], 0
    assert g_t.mat == transform_form(struct.pencil.g, struct.flat.y_to_t).mat
    assert 0 < split <= 55_000 < pairs[0]


def test_split_transport_rejects_a_metric_of_degree_two_in_yk():
    """The split that the transport of g rests on raises on a term in
    (y^k)^2."""
    struct = build_structure(RootSystemSpec("C", 3, 1))
    g = struct.pencil.g
    mat = [list(row) for row in g.mat]
    mat[0][0] = mat[0][0] + Poly.monomial(g.chart, {"y1": 2})
    with pytest.raises(ValueError, match="^y1 has exponent 2, not 0 or 1$"):
        transform_form(BilinearForm(g.chart, mat), struct.flat.y_to_t, ("y1", struct.flat.eta_t))


def test_pencil_compares_eta_with_the_yk_coefficient_of_g():
    """pencil fails when eta is not the y^k coefficient of g, and when g
    is not linear in y^k."""
    struct = build_structure(RootSystemSpec("C", 3, 1))
    pen = struct.pencil
    eta = [list(row) for row in pen.eta.mat]
    eta[1][1] = eta[1][1] + 1
    bad = replace(struct, pencil=replace(pen, eta=BilinearForm(pen.chart, eta)))
    with pytest.raises(frobenius.CheckFailed, match=r"^eta\^\(2,2\) != d g\^\(2,2\)/d y\^k$"):
        verify_pencil(bad)
    g = [list(row) for row in pen.g.mat]
    g[1][1] = g[1][1] + Poly.monomial(pen.chart, {"y1": 2})
    bad = replace(struct, pencil=replace(pen, g=BilinearForm(pen.chart, g)))
    with pytest.raises(frobenius.CheckFailed, match=r"^g or Gamma not linear in y\^k$"):
        verify_pencil(bad)


@pytest.mark.parametrize("l,k", ALL_RANK5)
def test_wdvv_residuals_vanish(l, k):
    struct = build_structure(RootSystemSpec("C", l, k))
    assert verify_wdvv(struct) == []
    assert reference_wdvv_pairings(struct) == []
    assert reference_wdvv(struct) == []


@pytest.mark.parametrize("l,k", ALL_RANK5)
def test_wdvv_residuals_vanish_on_b(l, k):
    struct = build_structure(RootSystemSpec("B", l, k))
    assert verify_wdvv(struct) == []
    assert reference_wdvv_pairings(struct) == []


# one monomial added to F breaks WDVV; the reported residuals must be exact
WDVV_CORRUPTIONS = [((l, k), mono) for (l, k) in [(3, 1), (4, 2)]
                    for mono in [{"t3": 8}, {"t2": 2, "t3": 2},
                                 {"t1": 1, "t2": 1, "t3": 1}, {"t1": 3}]]
WDVV_CORRUPTIONS.append(((5, 3), {"t4": 4, "t5": 2}))


def _corrupted(lk, mono):
    struct = build_structure(RootSystemSpec("C", *lk))
    potential = struct.potential
    return replace(struct, potential=replace(
        potential, poly=potential.poly + Poly.monomial(potential.chart, mono)))


@pytest.mark.parametrize("lk,mono", WDVV_CORRUPTIONS,
                         ids=[f"C{l}k{k}-{'.'.join(f'{v}^{e}' for v, e in m.items())}"
                              for (l, k), m in WDVV_CORRUPTIONS])
def test_wdvv_corrupted_potential_reports_exact_residuals(lk, mono):
    """The corruption fails verify_wdvv, the full pairing loop, and the
    comparison through every direction x != k; each residual reported is
    the exact A_{ijpq}."""
    bad = _corrupted(lk, mono)
    failures = verify_wdvv(bad)
    assert failures and reference_wdvv(bad) and reference_wdvv_pairings(bad)
    f3, h = _wdvv_tensors(bad)
    through = [frobenius._residuals_through(f3, h[x], x)
               for x in range(len(f3)) if x != lk[1] - 1]
    for reported in [failures] + through:
        assert reported
        for (i, j, p, q), residual in reported:
            assert not residual.is_zero()
            assert residual == _wdvv_residual(bad, f3, h, i - 1, j - 1, p - 1, q - 1)


def test_wdvv_reports_residuals_without_a_certificate(monkeypatch):
    """With no direction certified, nonzero residuals are still reported;
    vanishing ones raise NoCyclicDirection rather than pass."""
    bad = _corrupted((3, 1), {"t3": 8})
    expected = verify_wdvv(bad)
    monkeypatch.setattr(frobenius, "_krylov_certifies", lambda h, kpos: False)
    assert verify_wdvv(bad) == expected != []
    with pytest.raises(frobenius.NoCyclicDirection, match="no certificate"):
        verify_wdvv(build_structure(RootSystemSpec("C", 3, 1)))


def _constant_rows(chart, mat):
    """C e_b = column b of ``mat``, as the rows h[b] of the certificate."""
    return [[Poly.const(chart, mat[mu][b]) for mu in range(len(mat))]
            for b in range(len(mat))]


def test_krylov_certificate_rejects_derogatory_matrices():
    """A derogatory C has no cyclic vector, so the certificate must fail on
    it; a companion matrix is cyclic from its first basis vector."""
    chart = Chart("c", [VarSpec("u", Fraction(1)), VarSpec("v", Fraction(1), laurent=True)])
    u, v = Poly.variable(chart, "u"), Poly.variable(chart, "v")
    certifies = frobenius._krylov_certifies
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert not certifies(_constant_rows(chart, identity), 0)
    assert not certifies(_constant_rows(chart, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]), 0)
    companion = [[0, 0, 7], [1, 0, -3], [0, 1, 2]]
    assert certifies(_constant_rows(chart, companion), 0)
    # the companion matrix of x^3 - v x - u: cyclic from e_1 at every point
    zero, one = Poly.const(chart, 0), Poly.const(chart, 1)
    assert certifies([[zero, one, zero], [zero, zero, one], [u, v, zero]], 0)
    # diag(u, u, v^-1) is derogatory at every point
    assert not certifies([[u, zero, zero], [zero, u, zero],
                          [zero, zero, v.unit_inverse()]], 0)
    # from e_3 the companion's Krylov space is all of it only if u != 0;
    # at the point (u, v) = (2, 1) it is
    assert certifies([[zero, one, zero], [zero, zero, one], [u, v, zero]], 2)


def test_every_spec_certifies_a_direction():
    """The guard behind verify_wdvv's one-direction proof: some x != k has a
    nonzero Krylov determinant on every C spec up to rank 8 and every B spec
    up to rank 5."""
    specs = [RootSystemSpec("C", l, k) for l in range(1, 9) for k in range(1, l + 1)]
    specs += [RootSystemSpec("B", l, k) for l, k in ALL_RANK5]
    for spec in specs:
        struct = build_structure(spec)
        f3 = third_derivatives(struct.potential)
        kpos = spec.vertex - 1
        assert any(frobenius._krylov_certifies(_rows_through(struct, f3, x), kpos)
                   for x in range(len(f3)) if x != kpos), spec.label()


def test_wdvv_rejects_nonsymmetric_eta():
    struct = build_structure(RootSystemSpec("C", 3, 1))
    eta_up = [list(row) for row in struct.eta_up]
    eta_up[0][1] += 1
    with pytest.raises(ArithmeticError):
        verify_wdvv(replace(struct, eta_up=eta_up))


def test_wdvv_computes_each_pairing_once(monkeypatch):
    """At most one Poly-by-Poly product per (multiset, pairing, mu) slot of
    the multisets that hold the certified direction x (the lightest),
    counted as the nonzero Poly x Poly pairs that reach the product kernel on
    the flat chart (the certificate's products are on the point chart)."""
    struct = build_structure(RootSystemSpec("C", 5, 3))
    chart = struct.potential.chart
    calls = [0]
    chosen = []
    kernel = exactalg.sum_products
    through = frobenius._residuals_through

    def counting_kernel(chart_of, pairs):
        pairs = list(pairs)
        if chart_of is chart:
            calls[0] += sum(1 for x, y in pairs if isinstance(x, Poly)
                            and not x.is_zero() and not y.is_zero())
        return kernel(chart_of, pairs)

    def recording_through(f3, eta_up, x):
        chosen.append(x)
        return through(f3, eta_up, x)

    # Poly.__mul__ looks the kernel up in exactalg, verify_wdvv in frobenius
    monkeypatch.setattr(exactalg, "sum_products", counting_kernel)
    monkeypatch.setattr(frobenius, "sum_products", counting_kernel)
    monkeypatch.setattr(frobenius, "_residuals_through", recording_through)
    assert verify_wdvv(struct) == []
    (x,) = chosen
    f3 = third_derivatives(struct.potential)

    def terms(y):
        return sum(len(p.packed) for row in f3[y] for p in row)

    # the lightest direction certifies here, and it is the one used
    assert terms(x) == min(terms(y) for y in range(len(f3)) if y != 2)
    bound = _pairing_slots(f3, _rows_through(struct, f3, x), x)
    assert 0 < calls[0] <= bound
    # the per-residual reference recomputes pairings and exceeds the bound
    calls[0] = 0
    assert reference_wdvv(struct) == []
    assert calls[0] > bound


def test_wdvv_builds_no_fraction(monkeypatch):
    """verify_wdvv compares the pairings as integer numerators over one
    denominator: on C4k2 and C5k1 it passes and creates no Fraction, and on
    the `wdvv` corruption of the CLI mutation suite (C3k1 with the
    coefficient of t3^8 in F raised by 1) it fails, again with none."""
    structs = [build_structure(RootSystemSpec("C", l, k)) for l, k in ((4, 2), (5, 1))]
    c3 = build_structure(RootSystemSpec("C", 3, 1))
    potential = c3.potential
    bump = Poly.monomial(potential.chart, {"t3": 8})
    assert next(iter(bump.packed)) in potential.poly.packed
    bad = replace(c3, potential=replace(potential, poly=potential.poly + bump))
    made = [0]
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) and made[0] == 1  # the patch sees every Fraction
    made[0] = 0
    results = [verify_wdvv(s) for s in structs]
    failures = verify_wdvv(bad)
    monkeypatch.undo()
    assert made[0] == 0
    assert results == [[], []]
    assert failures


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


@pytest.mark.parametrize("l,k", ALL_RANK5)
def test_intersection_relations(l, k):
    struct = build_structure(RootSystemSpec("C", l, k))
    verify_intersection(struct)
    reference_connection_identity(struct)


@pytest.mark.parametrize("family,l,k", [("B", 2, 1), ("B", 2, 2), ("B", 3, 1),
                                        ("B", 3, 2), ("B", 3, 3)])
def test_b_to_c_identification(family, l, k):
    spec = RootSystemSpec(family, l, k)
    struct = build_structure(spec)
    assert struct.cspec == RootSystemSpec("C", l, k)
    expected_scale = Fraction(1, 2) if k == l else Fraction(1)
    assert struct.b_ident.log_scale == expected_scale
    # the oracle check is the one comparison, and the document reads it back
    report = cli.run_checks(struct, ["oracle"], 3)
    assert report == [{"check": "oracle", "passed": True, "detail": ORACLE_AGREES}]
    assert structure_document(struct, report)["b_identification"]["oracle_validated"]


def test_b_potential_equals_c_potential():
    b = build_structure(RootSystemSpec("B", 3, 2))
    c = build_structure(RootSystemSpec("C", 3, 2))
    assert b.potential.poly == c.potential.poly
    assert b.euler == c.euler


def test_oracle_check_passes_small_c():
    for l in (1, 2, 3):
        for k in range(1, l + 1):
            struct = build_structure(RootSystemSpec("C", l, k))
            assert cli.run_check("oracle", struct, 3) == {
                "check": "oracle", "passed": True, "detail": ORACLE_AGREES}
            assert structure_document(struct, [])["b_identification"] is None
    # the bound lives in run_check, which skips above it
    assert cli.run_check("oracle", build_structure(RootSystemSpec("C", 4, 1)), 3) == {
        "check": "oracle", "passed": True, "detail": "skipped (rank 4 > bound 3)"}


ABOVE_ORACLE_BOUND = [(l, k) for l in (4, 5, 6) for k in range(1, l + 1)] + [
    (8, 1), (8, 4), (8, 8)]


@pytest.mark.parametrize("family,l,k", [(family, l, k) for family in ("C", "B")
                                        for l, k in ABOVE_ORACLE_BOUND])
def test_oracle_passes_above_the_cli_bound(family, l, k):
    # the library check runs at any rank; the CLI still skips above its bound
    struct = build_structure(RootSystemSpec(family, l, k))
    assert oracle_check(struct) == ORACLE_AGREES
    assert cli.run_check("oracle", struct, cli.ORACLE_MAX_RANK) == {
        "check": "oracle", "passed": True,
        "detail": f"skipped (rank {l} > bound {cli.ORACLE_MAX_RANK})"}


def test_rank6_structure_builds_and_verifies():
    struct = build_structure(RootSystemSpec("C", 6, 3))
    assert verify_wdvv(struct) == []
    verify_intersection(struct)


def test_b_above_oracle_bound_builds_unvalidated():
    struct = build_structure(RootSystemSpec("B", 4, 4))
    report = cli.run_checks(struct, ["oracle"], 3)
    assert report[0]["passed"] and report[0]["detail"].startswith("skipped")
    assert structure_document(struct, report)["b_identification"]["oracle_validated"] is False
    assert struct.potential.poly == build_structure(RootSystemSpec("C", 4, 4)).potential.poly


def test_b_is_compared_with_the_oracle_once(monkeypatch):
    """Building and checking every B spec of rank <= 3 forms the
    first-principles form once per spec, in the ``oracle`` check; B4k4 is
    above the bound and never reaches it."""
    g_direct = frobenius.compute_g_direct
    calls = []

    def counting_g_direct(spec, log_scale):
        calls.append(spec.label())
        return g_direct(spec, log_scale)

    monkeypatch.setattr(frobenius, "compute_g_direct", counting_g_direct)
    monkeypatch.setattr(frobenius, "_CACHE", {})
    specs = [RootSystemSpec("B", l, k) for l in (1, 2, 3) for k in range(1, l + 1)]
    for spec in specs + [RootSystemSpec("B", 4, 4)]:
        report = cli.run_checks(build_structure(spec), cli.CHECK_NAMES, 3)
        assert all(r["passed"] for r in report)
    assert calls == [spec.label() for spec in specs]


def test_checks_form_the_hessian_once(monkeypatch):
    """All checks on C5k3 and then on B5k3 form F_ab once: every check reads
    the potential's cached Hessian, and B5k3 shares the C5k3 potential.
    Counted as derivatives taken of F's polynomial itself."""
    monkeypatch.setattr(frobenius, "_CACHE", {})
    structs = [build_structure(RootSystemSpec(family, 5, 3)) for family in ("C", "B")]
    poly = structs[0].potential.poly
    coord_diff = Poly.coord_diff
    taken = []

    def counting_coord_diff(p, i):
        if p is poly:
            taken.append(i)
        return coord_diff(p, i)

    monkeypatch.setattr(Poly, "coord_diff", counting_coord_diff)
    for struct in structs:
        assert all(r["passed"] for r in cli.run_checks(struct, cli.CHECK_NAMES, 3))
    assert taken == list(range(6))


def test_structure_containers_are_frozen():
    struct = build_structure(RootSystemSpec("C", 3, 1))
    b_ident = build_structure(RootSystemSpec("B", 3, 2)).b_ident
    for obj, field in ((struct, "potential"), (struct.potential, "poly"),
                       (b_ident, "log_scale"), (struct.pencil, "g"),
                       (struct.flat, "eta_t"), (struct.flat.y_to_t, "pullback"),
                       (struct.g_t, "mat"), (struct.pencil.gamma_g, "arr")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))
    # a changed potential is a new one, with a Hessian of its own
    potential = struct.potential
    hessian = potential.hessian
    assert potential.hessian is hessian
    bump = Poly.monomial(potential.chart, {"t3": 8})
    bumped = replace(potential, poly=potential.poly + bump)
    assert bumped.hessian[2][2] - hessian[2][2] == bump.coord_diff(2).coord_diff(2)
    assert potential.hessian is hessian
