"""The z/w/t normalization stages and the B-series."""

from fractions import Fraction
from typing import Dict, Optional, Tuple

import pytest

from weylfrob import exactalg, flatcoords, frobenius
from weylfrob.exactalg import FlatnessRows, Poly, mat_det, monomials_of_weighted_degree
from weylfrob.flatcoords import (AnsatzInsufficient, b_coefficients,
                                 build_w_chart, build_z_chart, flat_candidate_solve,
                                 flat_pipeline, gamma_w, lower_christoffels,
                                 solve_p_block)
from weylfrob.frobenius import build_structure
from weylfrob.metrics import BlockFormMismatch, build_pencil
from weylfrob.rootdata import RootSystemSpec, degrees, flat_degrees

from test_exactalg import reference_solve_linear, weighted_degree

ALL_SMALL = [(l, k) for l in range(1, 5) for k in range(1, l + 1)]


def reference_b_recursion(n: int) -> Dict[Tuple[int, int], Fraction]:
    """{(i, j): B^i_j} for 1 <= i <= j <= n from the shear recursion, the
    oracle for ``b_coefficients``.

    The recursion 4(i+j-1) B^{i+j-1}_m + (i+j) B^{i+j}_m =
    4m sum_{a+b=m+1} B^i_a B^j_b is solved offset by offset (offset = column
    minus row) with the test's reference solver; at each offset every
    instance is linear in the new unknowns.
    """
    table: Dict[Tuple[int, int], Fraction] = {(i, i): Fraction(1) for i in range(1, n + 1)}

    def value(a: int, b: int) -> Optional[Fraction]:
        return Fraction(0) if a > b else table.get((a, b))

    for o in range(1, n):
        unknowns = [f"B{s}_{s + o}" for s in range(1, n - o + 1)]

        def ref(a: int, b: int):
            """(unknown-name, None) or (None, known value) for B^a_b."""
            v = value(a, b)
            if v is not None:
                return None, v
            if b - a == o:
                return f"B{a}_{b}", None
            raise AssertionError(f"B^{a}_{b} demanded before its offset")

        eqs = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                m = i + j + o - 1
                if m > n:
                    continue
                coeffs: Dict[str, Fraction] = {}
                rhs = Fraction(0)

                def add(a: int, b: int, c: Fraction):
                    nonlocal rhs
                    name, v = ref(a, b)
                    if name is None:
                        rhs -= c * v
                    else:
                        coeffs[name] = coeffs.get(name, Fraction(0)) + c

                add(i + j - 1, m, Fraction(4 * (i + j - 1)))
                add(i + j, m, Fraction(i + j))
                for alpha in range(i, m + 1):
                    beta = m + 1 - alpha
                    if beta < j:
                        continue
                    va = value(i, alpha)
                    vb = value(j, beta)
                    if va is not None and vb is not None:
                        rhs += 4 * m * va * vb
                    elif va is not None:
                        name, _ = ref(j, beta)
                        coeffs[name] = coeffs.get(name, Fraction(0)) - 4 * m * va
                    elif vb is not None:
                        name, _ = ref(i, alpha)
                        coeffs[name] = coeffs.get(name, Fraction(0)) - 4 * m * vb
                    else:
                        raise AssertionError("two unknown factors in one recursion term")
                eqs.append((coeffs, rhs))
        result = reference_solve_linear(eqs, unknowns)
        assert result.kind == "unique", f"B-series offset {o} solve is {result.kind}"
        for s in range(1, n - o + 1):
            table[(s, s + o)] = result.solution[f"B{s}_{s + o}"]
    return table


def test_b_series_spot_values():
    bs = b_coefficients(8)  # the closed form; criterion 10 runs the recursion
    assert bs[(1, 2)] == Fraction(1, 6)
    assert bs[(2, 3)] == Fraction(1, 4)
    assert bs[(1, 3)] == Fraction(1, 120)
    # the diagonal is 1; nothing below it is listed
    assert all(bs[(i, i)] == 1 for i in range(1, 9))
    assert sorted(bs) == [(i, j) for i in range(1, 9) for j in range(i, 9)]


def test_p_block_k1_is_minus_2E():
    for l in (1, 2, 3, 4):
        spec = RootSystemSpec("C", l, 1)
        pen = build_pencil(spec)
        (p1,) = solve_p_block(spec, pen.eta)
        assert p1 == -2 * pen.chart.var("E")


def test_p_block_c4k2():
    spec = RootSystemSpec("C", 4, 2)
    pen = build_pencil(spec)
    p1, p2 = solve_p_block(spec, pen.eta)
    yc = pen.chart
    assert p1 == -4 * yc.var("E")
    assert p2 == -2 * Poly.monomial(yc, {"y1": 1, "E": 1}) + 6 * Poly.monomial(yc, {"E": 2})


def test_z_block_fixture_coefficients():
    spec = RootSystemSpec("C", 4, 1)
    pen = build_pencil(spec)
    zmap, _, _ = build_z_chart(spec, pen.eta)
    yc = pen.chart
    assert zmap.forward["z2"] == yc.var("y2") - Fraction(1, 6) * yc.var("y3") \
        + Fraction(1, 30) * yc.var("y4")
    assert zmap.forward["z3"] == yc.var("y3") - Fraction(1, 4) * yc.var("y4")

    spec3 = RootSystemSpec("C", 3, 1)
    pen3 = build_pencil(spec3)
    zmap3, _, _ = build_z_chart(spec3, pen3.eta)
    assert zmap3.forward["z2"] == pen3.chart.var("y2") - Fraction(1, 6) * pen3.chart.var("y3")


def test_empty_ansatz_gives_zero_p():
    # k = l = 1: the ansatz basis is just E and the solve fixes it; for a
    # degenerate slot with no candidates the solver must return p = 0, which
    # is exercised by h_{l-1} below; here check p_j stays in its variable range
    spec = RootSystemSpec("C", 4, 3)
    pen = build_pencil(spec)
    ps = solve_p_block(spec, pen.eta)
    for j, p in enumerate(ps, start=1):
        for exps in p.terms:
            for v, e in zip(pen.chart.vars, exps):
                if e and v.name != "E":
                    assert int(v.name[1:]) < j


def test_w_stage_eta_block_form_n1():
    # l - k = 1: the only w-variable is s with s^2 = z^l and eta(w^l, w^l) = 1
    spec = RootSystemSpec("C", 2, 1)
    pen = build_pencil(spec)
    zmap, eta_z, _ = build_z_chart(spec, pen.eta)
    wmap, eta_w = build_w_chart(spec, eta_z)
    assert eta_w.mat[1][1] == Poly.const(eta_w.chart, 1)
    assert wmap.pullback["z2"] == Poly.monomial(eta_w.chart, {"w2": 2})


def test_w_stage_exponents_c4k1():
    spec = RootSystemSpec("C", 4, 1)
    pen = build_pencil(spec)
    zmap, eta_z, _ = build_z_chart(spec, pen.eta)
    wmap, eta_w = build_w_chart(spec, eta_z)
    wc = eta_w.chart
    # z^3 = w^3 s^4, z^4 = s^6 encode w^3 = z^3 (z^4)^{-2/3}, w^4 = (z^4)^{1/6}
    assert wmap.pullback["z3"] == Poly.monomial(wc, {"w3": 1, "w4": 4})
    assert wmap.pullback["z4"] == Poly.monomial(wc, {"w4": 6})
    assert wmap.pullback["z2"] == Poly.monomial(wc, {"w2": 1, "w4": 1})


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_stage_patterns_hold(l, k):
    # per-stage eta patterns are asserted inside the constructors
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    flat = flat_pipeline(spec, pen.eta)
    n = l + 1
    for i in range(n):
        for j in range(n):
            entry = flat.eta_t.mat[i][j]
            if not entry.is_zero():
                assert entry == Poly.const(flat.eta_t.chart, entry.constant_value())


def test_gamma_w_vanishing_cases():
    # k = l: eta(w) is constant, all symbols vanish
    spec = RootSystemSpec("C", 3, 3)
    pen = build_pencil(spec)
    flat = flat_pipeline(spec, pen.eta)
    gam = lower_christoffels(flat.eta_w)
    assert all(g.is_zero() for plane in gam for row in plane for g in row)
    # l - k = 1: same
    spec2 = RootSystemSpec("C", 3, 2)
    pen2 = build_pencil(spec2)
    flat2 = flat_pipeline(spec2, pen2.eta)
    gam2 = lower_christoffels(flat2.eta_w)
    assert all(g.is_zero() for plane in gam2 for row in plane for g in row)


def test_gamma_w_delta_over_s_property_c5k1():
    # gamma^m_{l j} = delta^m_j / w^l for k+2 <= m <= l-1
    spec = RootSystemSpec("C", 5, 1)
    pen = build_pencil(spec)
    zmap, eta_z, _ = build_z_chart(spec, pen.eta)
    wmap, eta_w = build_w_chart(spec, eta_z)
    gam = gamma_w(spec, eta_w)  # runs all property checks internally
    wc = eta_w.chart
    inv_s = Poly.monomial(wc, {"w5": -1})
    assert gam[3][4][3] == inv_s            # m = j = 4, i = l = 5
    assert gam[3][4][2].is_zero()


def test_flat_chart_fixture_c4k1():
    spec = RootSystemSpec("C", 4, 1)
    pen = build_pencil(spec)
    flat = flat_pipeline(spec, pen.eta)
    wc = flat.w_map.target
    assert flat.h_polys[2] == Fraction(-1, 12) * Poly.monomial(wc, {"w3": 2})
    assert flat.h_polys[3].is_zero()        # h_{l-1} = 0
    # t^2 = w^2 - (1/12) w^3^2 w^4 and t^3 = w^3 w^4
    tmap = flat.t_map
    assert tmap.forward["t2"] == wc.var("w2") \
        - Fraction(1, 12) * Poly.monomial(wc, {"w3": 2, "w4": 1})
    assert tmap.forward["t3"] == Poly.monomial(wc, {"w3": 1, "w4": 1})


@pytest.mark.parametrize("l,k", ALL_SMALL)
def test_h_degrees_and_map_invertibility(l, k):
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    flat = flat_pipeline(spec, pen.eta)
    n = l - k
    for j, h in flat.h_polys.items():
        if not h.is_zero():
            assert weighted_degree(h) == Fraction(k * (l - j), n)
    # composed pullback y(t) has a unit Jacobian
    K = flat.y_to_t.jacobian_pullback()
    det = mat_det(K)
    assert det.is_unit_monomial()
    # forward/backward verification ran at construction for z and t stages
    flat.z_map.verify()
    flat.t_map.verify()


def test_t_chart_weights_are_flat_degrees():
    spec = RootSystemSpec("C", 4, 2)
    pen = build_pencil(spec)
    flat = flat_pipeline(spec, pen.eta)
    tc = flat.t_map.target
    dt = flat_degrees(4, 2)
    for j in range(1, 5):
        assert tc.weight(f"t{j}") == dt[j - 1]
    assert tc.weight("E") == Fraction(1, 2)


def test_composite_transport_matches_stagewise():
    # transporting eta through the composed y -> t map must reproduce the
    # stagewise result, tying map composition and tensor transport together
    from weylfrob.metrics import transform_form

    for (l, k) in [(3, 1), (4, 2), (3, 3)]:
        spec = RootSystemSpec("C", l, k)
        pen = build_pencil(spec)
        flat = flat_pipeline(spec, pen.eta)
        direct = transform_form(pen.eta, flat.y_to_t)
        n = l + 1
        assert all(direct.mat[i][j] == flat.eta_t.mat[i][j]
                   for i in range(n) for j in range(n))


def test_map_components_weighted_homogeneous():
    # forward z(y) carries weight d_j; forward t(w) carries k * dtilde_j in
    # the w-grading (the t-chart grading is the w one rescaled by 1/k)
    spec = RootSystemSpec("C", 4, 1)
    pen = build_pencil(spec)
    flat = flat_pipeline(spec, pen.eta)
    yc = pen.chart
    for j in range(1, 5):
        assert weighted_degree(flat.z_map.forward[f"z{j}"]) == yc.weight(f"y{j}")
    wc = flat.w_map.target
    tc = flat.t_map.target
    for j in range(1, 5):
        expected = tc.weight(f"t{j}") * spec.vertex
        assert weighted_degree(flat.t_map.forward[f"t{j}"]) == expected


def test_corrupted_eta_is_rejected():
    # scaling one block entry of eta by 3 at C3k1 breaks the z-stage pattern
    # at its (2, 2) slot: the pattern check is not vacuous
    from weylfrob.metrics import BilinearForm

    spec = RootSystemSpec("C", 3, 1)
    pen = build_pencil(spec)
    mat = [row[:] for row in pen.eta.mat]
    mat[1][2] = mat[1][2] * 3
    mat[2][1] = mat[1][2]
    bad = BilinearForm(pen.eta.chart, mat)
    with pytest.raises(BlockFormMismatch,
                       match=r"^eta\(z\)\[2\]\[2\] = 4\*z2 - 16/3\*z3, expected 4\*z2$"):
        flat_pipeline(spec, bad)


def p_block_inputs(spec: RootSystemSpec, eta_y, j: int):
    """(base, candidates) of p_j exactly as ``solve_p_block`` builds them."""
    yc = eta_y.chart
    names = [f"y{i}" for i in range(1, j)] + ["E"]
    basis = monomials_of_weighted_degree(yc, names, degrees(spec)[j - 1])
    return Poly.variable(yc, f"y{j}"), [Poly.monomial(yc, mono) for mono in basis]


@pytest.mark.parametrize("l,k", [(3, 2), (4, 4), (5, 3)])
def test_flat_candidate_solve_reads_any_denominators(l, k):
    # base and candidates with denominators of their own give the same flat
    # function, scaled with base: the rows and the solution are on numerators
    spec = RootSystemSpec("C", l, k)
    eta = build_pencil(spec).eta
    flatness = FlatnessRows(lower_christoffels(eta))
    base, candidates = p_block_inputs(spec, eta, k)
    plain = flat_candidate_solve(flatness, base, candidates, "p")
    assert plain != base
    scaled = [c * Fraction(1, 3 + q) for q, c in enumerate(candidates)]
    assert flat_candidate_solve(flatness, base * Fraction(2, 5), scaled, "p") == (
        plain * Fraction(2, 5))


def test_perturbed_gamma_makes_the_flatness_system_inconsistent():
    # doubling gamma^2_{11} at C3k3 leaves p_2 no solution in its ansatz
    spec = RootSystemSpec("C", 3, 3)
    eta = build_pencil(spec).eta
    gammas = lower_christoffels(eta)
    base, candidates = p_block_inputs(spec, eta, 2)
    assert flat_candidate_solve(FlatnessRows(gammas), base, candidates, "p_2") != base
    gammas[1][0][0] = gammas[1][0][0] * 2
    with pytest.raises(AnsatzInsufficient,
                       match=r"^flatness system for p_2 is inconsistent$"):
        flat_candidate_solve(FlatnessRows(gammas), base, candidates, "p_2")


def test_equations_dropped_for_one_candidate_leave_a_nonzero_residual(monkeypatch):
    # the solver never sees the rows of one candidate whose coefficient is
    # nonzero, so it sets that coefficient to 0 and the system stays
    # consistent: only the exact residual check of the solution catches it
    spec = RootSystemSpec("C", 3, 3)
    eta = build_pencil(spec).eta
    gammas = lower_christoffels(eta)
    base, candidates = p_block_inputs(spec, eta, 3)
    tau = flat_candidate_solve(FlatnessRows(gammas), base, candidates, "p_3")
    q = next(q for q, c in enumerate(candidates)
             if next(iter(c.packed)) in tau.packed)
    solve = flatcoords.solve_linear
    seen = []

    def blind_solve(rows, unknowns):
        seen.append(q)
        return solve([row for row in rows if q not in row], unknowns)

    monkeypatch.setattr(flatcoords, "solve_linear", blind_solve)
    with pytest.raises(AnsatzInsufficient,
                       match=r"^flatness residual \(\d+, \d+\) nonzero for p_3$"):
        flat_candidate_solve(FlatnessRows(gammas), base, candidates, "p_3")
    assert seen


def test_flat_solve_accepts_scaled_and_mixed_candidates():
    # the rows use numerator polynomials: rescaled candidates, a
    # two-term candidate and a base with a denominator give the same flat
    # function, scaled with the base
    spec = RootSystemSpec("C", 4, 4)
    eta = build_pencil(spec).eta
    gammas = lower_christoffels(eta)
    base, candidates = p_block_inputs(spec, eta, 4)
    flatness = FlatnessRows(gammas)
    tau = flat_candidate_solve(flatness, base, candidates, "p_4")
    mixed = [candidates[0] * Fraction(3, 7) + candidates[1]] + \
        [c * Fraction(5, 2) for c in candidates[1:]]
    scaled = flat_candidate_solve(flatness, base * Fraction(2, 9), mixed, "p_4")
    assert scaled == tau * Fraction(2, 9)


def test_flat_candidate_solve_makes_fractions_only_for_its_unknowns(monkeypatch):
    """On C6k6 each p_j solve creates at most one Fraction per unknown (its
    solution values), however many rows its system has."""
    spec = RootSystemSpec("C", 6, 6)
    eta = build_pencil(spec).eta
    flatness = FlatnessRows(lower_christoffels(eta))
    inputs = [p_block_inputs(spec, eta, j) for j in range(1, 7)]
    solve = flatcoords.solve_linear
    rows = []

    def counting_solve(equations, unknowns):
        rows.append(len(equations))
        return solve(equations, unknowns)

    made = [0]
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(flatcoords, "solve_linear", counting_solve)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) and made[0] == 1  # the patch sees every Fraction
    counts = []
    for base, candidates in inputs:
        made[0] = 0
        flat_candidate_solve(flatness, base, candidates, "p")
        counts.append((made[0], len(candidates)))
    monkeypatch.undo()
    assert all(n_made <= n_unknowns for n_made, n_unknowns in counts), counts
    assert rows[-1] > 2 * counts[-1][1]


@pytest.mark.parametrize("l,k,p_solves,h_solves", [(5, 3, 3, 1), (6, 1, 1, 4), (4, 4, 4, 0)])
def test_each_gamma_set_is_prepared_once(monkeypatch, l, k, p_solves, h_solves):
    """The p-block and the h-block each scale their gamma terms once
    (one FlatnessRows), however many candidate solves they run; an empty
    h-block prepares none."""
    made, solves = [], []
    rows_init = FlatnessRows.__init__
    candidate_solve = flatcoords.flat_candidate_solve

    def counting_init(self, gammas):
        made.append(len(solves))
        rows_init(self, gammas)

    def counting_solve(flatness, *args):
        solves.append(flatness)
        return candidate_solve(flatness, *args)

    monkeypatch.setattr(FlatnessRows, "__init__", counting_init)
    monkeypatch.setattr(flatcoords, "flat_candidate_solve", counting_solve)
    flat_pipeline(RootSystemSpec("C", l, k), build_pencil(RootSystemSpec("C", l, k)).eta)
    assert made == [0, p_solves][:1 + (h_solves > 0)]
    assert len(solves) == p_solves + h_solves
    assert len(set(map(id, solves))) == 1 + (h_solves > 0)


@pytest.mark.parametrize("l,k", [(4, 1), (6, 1), (7, 3)])
def test_every_perturbed_b_constant_breaks_the_z_pattern(monkeypatch, l, k):
    # the series is the one route to B in the build, so the eta_z block
    # pattern is what stands guard over it: 1/7 added to any single constant
    # above the diagonal must be rejected (the p-block is solved once and
    # reused); the forward map takes the diagonal as 1, so a perturbed
    # diagonal entry fails the map's round trip first
    spec = RootSystemSpec("C", l, k)
    pen = build_pencil(spec)
    p_list = solve_p_block(spec, pen.eta)
    good = b_coefficients(l - k)
    assert len(good) > l - k  # the diagonal and at least one constant above it
    monkeypatch.setattr(flatcoords, "solve_p_block", lambda spec, eta_y: p_list)
    for key in good:
        table = dict(good)
        table[key] += Fraction(1, 7)
        monkeypatch.setattr(flatcoords, "b_coefficients", lambda n, table=table: table)
        i, j = key
        with pytest.raises(BlockFormMismatch if i < j else ArithmeticError,
                           match=None if i < j else "round trip"):
            build_z_chart(spec, pen.eta)


@pytest.mark.parametrize("l,k", [(4, 2), (7, 1)])
def test_b_constants_take_no_linear_solve(monkeypatch, l, k):
    # every solve_linear of a build from an empty cache comes from
    # flat_candidate_solve (the p- and h-blocks), one per call: none is left
    # for B
    calls = {"solve": 0, "candidate": 0, "solve_in_candidate": 0}
    depth = [0]
    solve = exactalg.solve_linear
    candidate_solve = flatcoords.flat_candidate_solve

    def counting_solve(*args, **kwargs):
        calls["solve"] += 1
        calls["solve_in_candidate"] += depth[0] > 0
        return solve(*args, **kwargs)

    def counting_candidate_solve(*args, **kwargs):
        calls["candidate"] += 1
        depth[0] += 1
        try:
            return candidate_solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    for module in (exactalg, flatcoords):
        monkeypatch.setattr(module, "solve_linear", counting_solve)
    monkeypatch.setattr(flatcoords, "flat_candidate_solve", counting_candidate_solve)
    monkeypatch.setattr(frobenius, "_CACHE", {})
    build_structure(RootSystemSpec("C", l, k))
    assert calls["candidate"] > 0
    assert calls["solve"] == calls["solve_in_candidate"] == calls["candidate"]
