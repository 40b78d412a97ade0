"""Ring, calculus, and linear-solve tests for the exact-arithmetic substrate."""

import random
from fractions import Fraction

import pytest

from weylfrob.exactalg import (Chart, ChartMismatch, NonExactDivision,
                               NonUnitLaurentSubstitution, NotHomogeneous, Poly,
                               VarSpec, monomials_of_weighted_degree, solve_linear)


def simple_chart():
    return Chart("uv", [VarSpec("u", Fraction(1)), VarSpec("v", Fraction(1))])


def laurent_chart():
    return Chart("xy", [VarSpec("x", Fraction(1)),
                        VarSpec("y", Fraction(1), laurent=True)])


def exp_chart(prefix="t", weights=(1, 1)):
    return Chart(prefix, [VarSpec(f"{prefix}1", Fraction(weights[0])),
                          VarSpec("E", Fraction(weights[1]), laurent=True)],
                 log_coord=f"{prefix}2", exp_var="E")


def test_mul_difference_of_squares():
    c = simple_chart()
    u, v = c.var("u"), c.var("v")
    assert (u - v) * (u + v) == u ** 2 - v ** 2


def test_additive_inverse_gives_empty_term_map():
    c = simple_chart()
    p = 3 * c.var("u") ** 2 - c.var("v")
    assert (p + (-p)).terms == {}


def test_sigma1_times_sigma2_rank_two():
    c = Chart("z", [VarSpec("z1", Fraction(0)), VarSpec("z2", Fraction(0))])
    z1, z2 = c.var("z1"), c.var("z2")
    assert (z1 + z2) * (z1 * z2) == z1 ** 2 * z2 + z1 * z2 ** 2


def test_chart_mismatch_raises():
    with pytest.raises(ChartMismatch):
        simple_chart().var("u") + laurent_chart().var("x")


def test_exact_div_difference_of_squares():
    c = simple_chart()
    u, v = c.var("u"), c.var("v")
    assert (u ** 2 - v ** 2).exact_div(u - v) == u + v


def test_exact_div_rank_one_metric_generating_function():
    # P(u) = u th0 + th1: the combination entering the metric generating
    # function divides by (u - v) to th0 (u v th0 + (u + v + 4) th1)
    c = Chart("w", [VarSpec("u", Fraction(0)), VarSpec("v", Fraction(0)),
                    VarSpec("th0", Fraction(1)), VarSpec("th1", Fraction(1))])
    u, v = c.var("u"), c.var("v")
    th0, th1 = c.var("th0"), c.var("th1")
    Pu = u * th0 + th1
    Pv = v * th0 + th1
    num = (u ** 2 + 4 * u) * th0 * Pv - (v ** 2 + 4 * v) * Pu * th0
    got = num.exact_div(u - v)
    assert got == th0 * (u * v * th0 + (u + v + 4) * th1)


def test_exact_div_laurent_unit():
    c = laurent_chart()
    x, y = c.var("x"), c.var("y")
    assert x.exact_div(y) == Poly.monomial(c, {"x": 1, "y": -1})


def test_exact_div_failure_is_reported():
    c = simple_chart()
    u, v = c.var("u"), c.var("v")
    with pytest.raises(NonExactDivision):
        (u ** 2 + v).exact_div(u - v)
    with pytest.raises(NonExactDivision):
        u.exact_div(v)  # v is not laurent here


def test_substitute_rank_one_flat_coordinates():
    y = exp_chart("y")
    t = exp_chart("t")
    p = 4 * Poly.monomial(y, {"E": 1, "y1": 1})
    got = p.substitute({"y1": t.var("t1") + 2 * t.var("E"), "E": t.var("E")}, t)
    assert got == 4 * Poly.monomial(t, {"t1": 1, "E": 1}) + 8 * Poly.monomial(t, {"E": 2})


def test_substitute_identity():
    c = simple_chart()
    p = (c.var("u") + 1) ** 3
    assert p.substitute({}, c) == p


def test_substitute_negative_power_requires_unit():
    c = laurent_chart()
    p = Poly.monomial(c, {"y": -1})
    with pytest.raises(NonUnitLaurentSubstitution):
        p.substitute({"y": c.var("x") + 1}, c)
    assert p.substitute({"y": 2 * Poly.monomial(c, {"y": 3})}, c) == \
        Fraction(1, 2) * Poly.monomial(c, {"y": -3})


def test_diff_formal_and_log_coordinate():
    y = exp_chart("y")
    p = 4 * Poly.monomial(y, {"E": 1, "y1": 1})
    assert p.diff("y1") == 4 * y.var("E")
    q = y.var("y1") ** 2
    assert q.diff("y1") == 2 * y.var("y1")
    # d/dy2 of E^2 is 2 E^2 (chain rule through E = e^{y2})
    assert (y.var("E") ** 2).diff("y2") == 2 * y.var("E") ** 2


def test_weighted_degree_cases():
    t = Chart("t", [VarSpec("t2", Fraction(3, 4)), VarSpec("t3", Fraction(1, 4)),
                    VarSpec("E", Fraction(1), laurent=True)],
              log_coord="t4", exp_var="E")
    g11 = 2 * Poly.monomial(t, {"t2": 1, "t3": 1, "E": 1}) \
        + Fraction(1, 3) * Poly.monomial(t, {"t3": 4, "E": 1}) \
        + 4 * Poly.monomial(t, {"E": 2})
    assert g11.weighted_degree() == 2
    assert Poly.const(t, 5).weighted_degree() == 0
    with pytest.raises(NotHomogeneous):
        (t.var("t2") + t.var("t3")).weighted_degree()


def test_solve_linear_unique_and_spot_value():
    res = solve_linear([({"x": Fraction(2)}, Fraction(1))], ["x"])
    assert res.kind == "unique" and res.solution["x"] == Fraction(1, 2)
    # the m = 2 instance of the triangular recursion: 12 B = 2
    res = solve_linear([({"B": Fraction(12)}, Fraction(2))], ["B"])
    assert res.solution["B"] == Fraction(1, 6)


def test_solve_linear_inconsistent_and_parametric():
    res = solve_linear([({"x": 1, "y": 1}, 1), ({"x": 1, "y": 1}, 2)], ["x", "y"])
    assert res.kind == "inconsistent"
    res = solve_linear([({"x": 1, "y": 1}, 3)], ["x", "y"])
    assert res.kind == "parametric"
    assert res.solution["x"] + res.solution["y"] == 3
    (vec,) = res.nullspace
    assert vec["x"] + vec["y"] == 0 or vec["y"] + vec.get("x", 0) == 0


def random_poly(chart, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in chart.vars)
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(chart, terms)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240817)
    c = simple_chart()
    for _ in range(60):
        p, q, r = (random_poly(c, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_exact_div_roundtrip_property():
    rng = random.Random(7)
    c = laurent_chart()
    for _ in range(40):
        p = random_poly(c, rng)
        q = random_poly(c, rng)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p


def test_substitute_respects_composition():
    rng = random.Random(99)
    a = simple_chart()
    for _ in range(20):
        p = random_poly(a, rng)
        f = {"u": random_poly(a, rng), "v": random_poly(a, rng)}
        g = {"u": random_poly(a, rng), "v": random_poly(a, rng)}
        fg = {name: expr.substitute(g, a) for name, expr in f.items()}
        assert p.substitute(f, a).substitute(g, a) == p.substitute(fg, a)


def test_diff_leibniz_rule():
    rng = random.Random(3)
    y = exp_chart("y")
    for _ in range(30):
        p = random_poly(y, rng)
        q = random_poly(y, rng)
        for var in ("y1", "y2"):
            lhs = (p * q).diff(var)
            rhs = p.diff(var) * q + p * q.diff(var)
            assert lhs == rhs


def test_weighted_degree_multiplicative():
    c = Chart("g", [VarSpec("a", Fraction(2)), VarSpec("b", Fraction(3))])
    p = Poly.monomial(c, {"a": 3}) + Poly.monomial(c, {"b": 2})
    q = Poly.monomial(c, {"a": 1, "b": 2}) * 5
    assert (p * q).weighted_degree() == p.weighted_degree() + q.weighted_degree()


def test_monomial_enumeration_is_exact():
    c = Chart("m", [VarSpec("a", Fraction(1)), VarSpec("b", Fraction(1, 2))])
    monos = monomials_of_weighted_degree(c, ["a", "b"], Fraction(2))
    assert sorted((m.get("a", 0), m.get("b", 0)) for m in monos) == \
        [(0, 4), (1, 2), (2, 0)]


def random_laurent_poly(chart, rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-3, 3) if v.laurent else rng.randint(0, 3)
                     for v in chart.vars)
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(chart, terms)


def test_exact_div_roundtrip_with_negative_exponents():
    rng = random.Random(1234)
    c = Chart("pq", [VarSpec("p", Fraction(1), laurent=True),
                     VarSpec("q", Fraction(1), laurent=True)])
    for _ in range(60):
        a = random_laurent_poly(c, rng)
        b = random_laurent_poly(c, rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def mat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    chart = a[0][0].chart
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = Poly.const(chart, 0)
            for t in range(mid):
                if not a[i][t].is_zero() and not b[t][j].is_zero():
                    s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    chart = m[0][0].chart
    acc = Poly.const(chart, 0)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        sub = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = m[0][j] * naive_det(sub)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def test_bareiss_det_and_adjugate_against_cofactors():
    from weylfrob.exactalg import mat_adjugate, mat_det

    rng = random.Random(55)
    c = Chart("ab", [VarSpec("a", Fraction(1)), VarSpec("b", Fraction(1), laurent=True)])
    for trial in range(25):
        n = rng.randint(1, 4)
        m = [[random_laurent_poly(c, rng, max_terms=2) for _ in range(n)]
             for _ in range(n)]
        det = mat_det(m)
        assert det == naive_det(m)
        adj = mat_adjugate(m)
        prod = mat_mul(m, adj)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (det if i == j else Poly.const(c, 0))


def test_solve_linear_parametric_fuzz():
    rng = random.Random(314)
    for _ in range(150):
        nu = rng.randint(1, 6)
        unknowns = [f"x{i}" for i in range(nu)]
        eqs = []
        for _ in range(rng.randint(1, 9)):
            coeffs = {u: Fraction(rng.randint(-3, 3)) for u in unknowns
                      if rng.random() < 0.5}
            coeffs = {u: c for u, c in coeffs.items() if c}
            eqs.append((coeffs, Fraction(rng.randint(-4, 4))))
        res = solve_linear(eqs, unknowns)
        if res.kind == "inconsistent":
            continue
        for coeffs, rhs in eqs:
            assert sum(res.solution[u] * c for u, c in coeffs.items()) == rhs
            for vec in res.nullspace:
                assert sum(vec.get(u, 0) * c for u, c in coeffs.items()) == 0
        assert (res.kind == "unique") == (not res.nullspace)


def test_substitute_unknown_target_variable_fails():
    c = simple_chart()
    other = Chart("zz", [VarSpec("z", Fraction(1))])
    with pytest.raises(KeyError):
        c.var("u").substitute({}, other)


def cofactor_adjugate(m):
    """Reference adjugate: adj(A)[i][j] = (-1)^(i+j) det(A without row j, column i)."""
    n = len(m)
    if n == 1:
        return [[Poly.const(m[0][0].chart, 1)]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = naive_det(minor)
            row.append(-cof if (i + j) % 2 else cof)
        adj.append(row)
    return adj


def laurent_matrix_chart():
    return Chart("ab", [VarSpec("a", Fraction(1)), VarSpec("b", Fraction(1), laurent=True)])


def test_adjugate_sweep_matches_cofactor_reference():
    from weylfrob.exactalg import NonInvertibleMatrix, mat_adjugate

    rng = random.Random(2024)
    c = laurent_matrix_chart()

    def entry():
        # sparse, like the Jacobians and metrics the package inverts
        return random_laurent_poly(c, rng, max_terms=2) if rng.random() < 0.8 \
            else Poly.const(c, 0)

    checked = 0
    for trial in range(30):
        n = 1 + trial % 5
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            m[0][0] = Poly.const(c, 0)  # zero leading pivot: forces a row swap
        if n > 1 and naive_det(m).is_zero():
            with pytest.raises(NonInvertibleMatrix):
                mat_adjugate(m)
            continue
        assert mat_adjugate(m) == cofactor_adjugate(m)
        checked += 1
    assert checked >= 24


def test_adjugate_row_swap_flips_the_sign():
    from weylfrob.exactalg import mat_adjugate

    c = laurent_matrix_chart()
    a, b = c.var("a"), c.var("b")
    zero = Poly.const(c, 0)
    m = [[zero, a], [b, a + b]]
    # adj [[p, q], [r, s]] = [[s, -q], [-r, p]]
    assert mat_adjugate(m) == [[a + b, -a], [-b, zero]]


def test_adjugate_one_by_one_and_singular():
    from weylfrob.exactalg import NonInvertibleMatrix, mat_adjugate

    c = laurent_matrix_chart()
    assert mat_adjugate([[Poly.const(c, 0)]]) == [[Poly.const(c, 1)]]
    a, b = c.var("a"), c.var("b")
    r1 = [a, b, a + 1]
    r2 = [b ** -1, a * b, Poly.const(c, 2)]
    r3 = [x + 3 * y for x, y in zip(r1, r2)]
    with pytest.raises(NonInvertibleMatrix):
        mat_adjugate([r1, r2, r3])


def test_inverse_unit_requires_a_monomial_determinant():
    from weylfrob.exactalg import NonInvertibleMatrix, mat_inverse_unit

    c = laurent_matrix_chart()
    a, b = c.var("a"), c.var("b")
    one = Poly.const(c, 1)
    with pytest.raises(NonInvertibleMatrix):
        mat_inverse_unit([[a, one], [one, one]])  # det = a - 1
    with pytest.raises(NonInvertibleMatrix):
        mat_inverse_unit([[a, b], [a, b]])  # det = 0
    m = [[one, a], [Poly.const(c, 0), 2 * b]]  # det = 2 b, a unit
    inv = mat_inverse_unit(m)
    assert mat_mul(m, inv) == [[one, Poly.const(c, 0)], [Poly.const(c, 0), one]]


def nested_zeros(shape, chart):
    if not shape:
        return Poly.const(chart, 0)
    return [nested_zeros(shape[1:], chart) for _ in range(shape[0])]


def nested_get(t, idx):
    for i in idx:
        t = t[i]
    return t


def nested_set(t, idx, value):
    for i in idx[:-1]:
        t = t[i]
    t[idx[-1]] = value


def loop_contract(matrix, tensor, shape, axis):
    """out[..i..] = sum_a matrix[i][a] tensor[..a..] by explicit index loops."""
    from itertools import product

    chart = nested_get(tensor, (0,) * len(shape)).chart
    out_shape = list(shape)
    out_shape[axis] = len(matrix)
    out = nested_zeros(out_shape, chart)
    for idx in product(*(range(d) for d in out_shape)):
        acc = Poly.const(chart, 0)
        for a in range(shape[axis]):
            src = idx[:axis] + (a,) + idx[axis + 1:]
            acc = acc + nested_get(tensor, src) * matrix[idx[axis]][a]
        nested_set(out, idx, acc)
    return out


def test_contract_matches_explicit_loops():
    from weylfrob.exactalg import contract

    rng = random.Random(77)
    c = laurent_matrix_chart()
    n = 3

    def random_tensor(shape):
        if not shape:
            return random_laurent_poly(c, rng, max_terms=2) if rng.random() < 0.7 \
                else Poly.const(c, 0)
        return [random_tensor(shape[1:]) for _ in range(shape[0])]

    poly_matrix = [[random_laurent_poly(c, rng, max_terms=2) for _ in range(n)]
                   for _ in range(4)]
    poly_matrix[1] = [Poly.const(c, 0)] * n  # an all-zero row
    frac_matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                   for _ in range(n)]
    frac_matrix[2] = [Fraction(0)] * n
    for rank in (1, 2, 3):
        shape = [n] * rank
        tensor = random_tensor(shape)
        for matrix in (poly_matrix, frac_matrix):
            for axis in range(rank):
                assert contract(matrix, tensor, axis) == \
                    loop_contract(matrix, tensor, shape, axis)
