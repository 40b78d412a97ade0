"""Ring, calculus, and linear-solve tests for the exact-arithmetic substrate."""

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylfrob.exactalg import (FIELD_BITS, Chart, ChartMismatch, ExponentOverflow,
                               NonExactDivision,
                               NonUnitLaurentSubstitution, Poly, VarSpec, congruence,
                               contract,
                               FlatnessRows, monomials_of_weighted_degree, rat,
                               solve_linear, substitute_all, sum_products)


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


def test_floats_are_rejected_as_coefficients():
    """A float would enter as its binary fraction (0.1 as
    3602879701896397/36028797018963968), so every way in refuses it."""
    c = simple_chart()
    u = c.var("u")
    for make in (lambda: rat(0.1), lambda: Poly.const(c, 0.1), lambda: u + 0.1,
                 lambda: 0.1 - u, lambda: u * 0.1, lambda: 0.1 * u,
                 lambda: Poly.monomial(c, {"u": 1}, 0.1), lambda: Poly(c, {(1, 0): 0.5})):
        with pytest.raises(TypeError):
            make()
    assert rat("1/10") == Fraction(1, 10) and rat(3) == 3
    assert u + Fraction(1, 10) == u + rat("1/10")


def test_exact_div_difference_of_squares():
    c = simple_chart()
    u, v = c.var("u"), c.var("v")
    assert reference_exact_div(u ** 2 - v ** 2, u - v) == u + v


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
    got = reference_exact_div(num, u - v)
    assert got == th0 * (u * v * th0 + (u + v + 4) * th1)


def test_exact_div_laurent_unit():
    c = laurent_chart()
    x, y = c.var("x"), c.var("y")
    assert reference_exact_div(x, y) == Poly.monomial(c, {"x": 1, "y": -1})


def test_exact_div_failure_is_reported():
    c = simple_chart()
    u, v = c.var("u"), c.var("v")
    with pytest.raises(NonExactDivision):
        reference_exact_div(u ** 2 + v, u - v)
    with pytest.raises(NonExactDivision):
        reference_exact_div(u, v)  # v is not laurent here


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


class NotHomogeneous(ValueError):
    """A polynomial expected to be weighted-homogeneous is not."""

    def __init__(self, message, offenders=None):
        super().__init__(message)
        self.offenders = offenders or []


def weighted_degree(p):
    """Common weighted degree of all terms of p (0 for the zero polynomial);
    raises NotHomogeneous on mixed degrees."""
    if not p.terms:
        return Fraction(0)
    degs = {reference_term_weight(p.chart, e) for e in p.terms}
    if len(degs) > 1:
        offenders = [(p.exponents_as_dict(e), reference_term_weight(p.chart, e))
                     for e in p.terms]
        raise NotHomogeneous(
            f"mixed weighted degrees {sorted(degs)} in chart {p.chart.name!r}",
            offenders)
    return degs.pop()


def test_weighted_degree_cases():
    t = Chart("t", [VarSpec("t2", Fraction(3, 4)), VarSpec("t3", Fraction(1, 4)),
                    VarSpec("E", Fraction(1), laurent=True)],
              log_coord="t4", exp_var="E")
    g11 = 2 * Poly.monomial(t, {"t2": 1, "t3": 1, "E": 1}) \
        + Fraction(1, 3) * Poly.monomial(t, {"t3": 4, "E": 1}) \
        + 4 * Poly.monomial(t, {"E": 2})
    assert weighted_degree(g11) == 2
    assert weighted_degree(Poly.const(t, 5)) == 0
    with pytest.raises(NotHomogeneous):
        weighted_degree(t.var("t2") + t.var("t3"))


def test_solve_linear_unique_and_spot_value():
    # 2x - 1 = 0; the rhs sits in the last column, on the left-hand side
    assert solve_linear([{0: 2, 1: -1}], ["x"]) == [Fraction(1, 2)]
    # the m = 2 instance of the triangular recursion: 12 B = 2
    assert solve_linear([{0: 12, 1: -2}], ["B"]) == [Fraction(1, 6)]


def test_solve_linear_inconsistent_and_parametric():
    assert solve_linear([{0: 1, 1: 1, 2: -1}, {0: 1, 1: 1, 2: -2}], ["x", "y"]) is None
    # x + y = 3: y is free and set to 0
    assert solve_linear([{0: 1, 1: 1, 2: -3}], ["x", "y"]) == [3, 0]
    # an empty row set leaves every unknown free
    assert solve_linear([], ["x", "y"]) == [0, 0]


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
        assert reference_exact_div(p * q, q) == p


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
    assert weighted_degree(p * q) == weighted_degree(p) + weighted_degree(q)


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
        assert reference_exact_div(a * b, b) == a


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


def against_cofactors(m) -> bool:
    """Check mat_det and mat_adjugate on m against naive_det and
    cofactor_adjugate when the unit elimination completes, or ends in a zero
    Schur complement (det 0, and an adjugate of size >= 2 raises); returns
    whether it did.  When it stalls on a nonzero remainder, both raise
    NonInvertibleMatrix: they eliminate on the same pivots."""
    from weylfrob.exactalg import NonInvertibleMatrix, mat_adjugate, mat_det

    n = len(m)
    try:
        det = mat_det(m)
    except NonInvertibleMatrix:
        completed = False
    else:
        assert det == naive_det(m)
        completed = True
    if n == 1:
        assert mat_adjugate(m) == cofactor_adjugate(m)
    elif completed and not det.is_zero():
        adj = mat_adjugate(m)
        assert adj == cofactor_adjugate(m)
        assert mat_mul(m, adj) == [[det if i == j else Poly.const(det.chart, 0)
                                    for j in range(n)] for i in range(n)]
    else:
        with pytest.raises(NonInvertibleMatrix):
            mat_adjugate(m)
    return completed


def unit_eliminable_matrix(chart, rng, n, density=1.0):
    """P L U on a chart with a Laurent variable b: a row permutation of a
    lower and an upper triangular factor whose diagonals hold units c b^e
    and whose other entries are random 1-2 term Laurent polynomials (each
    nonzero with probability ``density``).  Its determinant is a unit, so
    the unit elimination mostly completes; it may still stall."""
    zero = Poly.const(chart, 0)

    def unit():
        return Poly.monomial(chart, {"b": rng.randint(-2, 2)},
                             Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))

    def entry():
        return random_laurent_poly(chart, rng, max_terms=2) if rng.random() < density else zero

    lower = [[unit() if i == j else entry() if i > j else zero for j in range(n)]
             for i in range(n)]
    upper = [[unit() if i == j else entry() if i < j else zero for j in range(n)]
             for i in range(n)]
    m = mat_mul(lower, upper)
    rng.shuffle(m)
    return m


def test_bareiss_det_and_adjugate_against_cofactors():
    rng = random.Random(55)
    c = Chart("ab", [VarSpec("a", Fraction(1)), VarSpec("b", Fraction(1), laurent=True)])
    compared = 0
    for trial in range(25):
        n = rng.randint(1, 4)
        compared += against_cofactors(unit_eliminable_matrix(c, rng, n)) and n >= 2
    assert compared >= 10
    # det -1, but no entry is a unit: the elimination stalls at once
    a, one = c.var("a"), Poly.const(c, 1)
    assert against_cofactors([[one + a, a], [a, a - one]]) is False


def test_solve_linear_parametric_fuzz():
    rng = random.Random(314)
    solved = 0
    for _ in range(150):
        nu = rng.randint(1, 6)
        unknowns = [f"x{i}" for i in range(nu)]
        eqs = []
        for _ in range(rng.randint(1, 9)):
            coeffs = {u: Fraction(rng.randint(-3, 3)) for u in unknowns
                      if rng.random() < 0.5}
            coeffs = {u: c for u, c in coeffs.items() if c}
            eqs.append((coeffs, Fraction(rng.randint(-4, 4))))
        xs = _assert_same_solve(eqs, unknowns)
        if xs is None:
            continue
        solved += 1
        for coeffs, rhs in eqs:
            assert sum(xs[unknowns.index(u)] * c for u, c in coeffs.items()) == rhs
    assert solved > 30


def integer_rows(equations, unknowns):
    """The (coeffs-by-unknown, rhs) equations as solve_linear's integer rows:
    scaled by the lcm of their denominators, the rhs negated into column n."""
    col = {u: i for i, u in enumerate(unknowns)}
    rows = []
    for coeffs, rhs in equations:
        parts = {col[u]: Fraction(c) for u, c in coeffs.items()}
        parts[len(unknowns)] = -Fraction(rhs)
        den = lcm(1, *[c.denominator for c in parts.values()])
        rows.append({i: int(c * den) for i, c in parts.items()})
    return rows


ReferenceSolve = namedtuple("ReferenceSolve", "kind solution nullspace")


def reference_solve_linear(equations, unknowns):
    """The incremental Fraction eliminator that solve_linear replaced: each
    equation is reduced against the pivot rows found so far, which are kept
    reduced against each other (Gauss-Jordan).  Returns a ReferenceSolve:
    the kind ("unique", "parametric" or "inconsistent"), the solution by
    unknown with free unknowns 0, and a nullspace basis."""
    eqs = [({u: rat(c) for u, c in coeffs.items() if c}, rat(rhs))
           for coeffs, rhs in equations]
    order = {u: i for i, u in enumerate(unknowns)}
    # pivot variable -> (row dict, rhs); rows are kept reduced against each other
    pivots = {}
    inconsistent = False

    def reduce_row(row, rhs):
        # eliminate every pivot column present; pivot rows contain no other
        # pivot columns, so one sweep cannot reintroduce any
        while True:
            pcols = [u for u in row if u in pivots]
            if not pcols:
                break
            for lead in sorted(pcols, key=lambda u: order[u]):
                f = row.get(lead)
                if not f:
                    continue
                prow, prhs = pivots[lead]
                for u, c in prow.items():
                    s = row.get(u, Fraction(0)) - f * c
                    if s:
                        row[u] = s
                    elif u in row:
                        del row[u]
                rhs = rhs - f * prhs
        if not row:
            return row, rhs, None
        return row, rhs, min(row, key=lambda u: order[u])

    for coeffs, rhs in eqs:
        row, r, lead = reduce_row(dict(coeffs), rhs)
        if lead is None:
            if r:
                inconsistent = True
            continue
        f = row[lead]
        row = {u: c / f for u, c in row.items()}
        r = r / f
        # keep existing pivot rows reduced against the new one
        for pl, (prow, prhs) in list(pivots.items()):
            g = prow.get(lead)
            if g:
                for u, c in row.items():
                    s = prow.get(u, Fraction(0)) - g * c
                    if s:
                        prow[u] = s
                    elif u in prow:
                        del prow[u]
                pivots[pl] = (prow, prhs - g * r)
        pivots[lead] = (row, r)

    if inconsistent:
        return ReferenceSolve("inconsistent", None, [])
    free = [u for u in unknowns if u not in pivots]
    solution = {u: Fraction(0) for u in free}
    for lead, (row, rhs) in pivots.items():
        solution[lead] = rhs
    if not free:
        return ReferenceSolve("unique", solution, [])
    basis = []
    for fvar in free:
        vec = {fvar: Fraction(1)}
        for lead, (row, _) in pivots.items():
            c = row.get(fvar)
            if c:
                vec[lead] = -c
        basis.append(vec)
    return ReferenceSolve("parametric", solution, basis)


def _assert_same_solve(eqs, unknowns):
    """solve_linear on the integer rows of eqs against the reference: both
    inconsistent, or the same solution with free unknowns 0 (the reduced
    echelon form's pivots are the same in any elimination order)."""
    got = solve_linear(integer_rows(eqs, unknowns), unknowns)
    ref = reference_solve_linear(eqs, unknowns)
    assert (got is None) == (ref.kind == "inconsistent")
    if got is not None:
        assert dict(zip(unknowns, got)) == ref.solution
    return got


UNKNOWNS = ["u0", "u1", "u2", "u3", "u4"]
solve_coeffs = st.integers(-4, 4) | st.builds(Fraction, st.integers(-6, 6),
                                              st.integers(1, 7))


@st.composite
def linear_systems(draw):
    """Int and mixed-denominator rows over 0..5 unknowns, with zero rows and
    duplicate rows mixed in."""
    unknowns = UNKNOWNS[:draw(st.integers(0, 5))]
    coeffs = (st.dictionaries(st.sampled_from(unknowns), solve_coeffs, max_size=5)
              if unknowns else st.just({}))
    eqs = draw(st.lists(st.tuples(coeffs, solve_coeffs), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        eqs.insert(draw(st.integers(0, len(eqs))), ({u: 0 for u in unknowns}, 0))
    if eqs:
        for _ in range(draw(st.integers(0, 2))):
            eqs.append(eqs[draw(st.integers(0, len(eqs) - 1))])
    return eqs, unknowns


@st.composite
def full_rank_with_a_tail(draw):
    """One single-unknown row per unknown (sparsest, so eliminated first),
    then denser rows checked only against the solution: consistent ones and,
    when ``bump`` is nonzero, one that is off by it."""
    unknowns = UNKNOWNS[:draw(st.integers(1, 5))]
    values = {u: draw(solve_coeffs) for u in unknowns}
    eqs = []
    for u in unknowns:
        c = draw(solve_coeffs.filter(bool))
        eqs.append(({u: c}, c * values[u]))
    for _ in range(draw(st.integers(1, 3))):
        row = {u: draw(solve_coeffs.filter(bool)) for u in unknowns}
        eqs.append((row, sum(c * values[u] for u, c in row.items())))
    bump = draw(st.integers(-2, 2))
    row, rhs = eqs[-1]
    eqs[-1] = (row, rhs + bump)
    return eqs, unknowns, values, bump


@settings(max_examples=200, deadline=None)
@given(linear_systems())
@example(([], []))
@example(([({}, 0), ({}, 3)], []))
@example(([({"u0": 0, "u1": 0}, 0)] * 3, ["u0", "u1"]))
def test_solve_linear_matches_the_fraction_reference(system):
    _assert_same_solve(*system)


@settings(max_examples=100, deadline=None)
@given(full_rank_with_a_tail())
def test_solve_linear_checks_the_rows_left_after_full_rank(system):
    eqs, unknowns, values, bump = system
    got = _assert_same_solve(eqs, unknowns)
    if bump:
        assert got is None
    else:
        assert reference_solve_linear(eqs, unknowns).kind == "unique"
        assert got == [values[u] for u in unknowns]


def test_solve_linear_names_an_unknown_it_was_not_given():
    # two unknowns: columns 0 and 1, and the constant term in column 2
    for column in (3, -1, "z"):
        with pytest.raises(ValueError, match=rf"columns \{{{column!r}\}} outside 0\.\.2"):
            solve_linear([{0: 1, 2: -1}, {0: 1, column: 2, 2: -3}], ["x", "y"])


def test_solve_linear_leaves_its_rows_as_given():
    rows = [{0: 2, 1: 4, 2: -6}, {0: 3, 1: 6, 2: -9}]  # x + 2y = 3, twice
    copies = [dict(row) for row in rows]
    assert solve_linear(rows, ["x", "y"]) == [3, 0]
    assert rows == copies


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
    compared = 0
    for trial in range(30):
        n = 1 + trial % 5
        # sparse, like the Jacobians and metrics the package inverts
        m = unit_eliminable_matrix(c, rng, n, density=0.8)
        if n > 1 and trial % 6 == 1:
            m[1] = m[0]  # singular: the adjugate of size >= 2 must raise
            assert naive_det(m).is_zero()
            with pytest.raises(NonInvertibleMatrix):
                mat_adjugate(m)
            continue
        compared += against_cofactors(m) and n >= 2
    assert compared >= 10


def test_adjugate_row_swap_flips_the_sign():
    from weylfrob.exactalg import NonInvertibleMatrix, mat_adjugate, mat_det

    c = laurent_matrix_chart()
    a, b = c.var("a"), c.var("b")
    zero = Poly.const(c, 0)
    # the pivots b (row 0, column 1), then 1/b: an odd pivot order
    m = [[zero, b], [b ** -1, a + b]]
    assert mat_det(m) == Poly.const(c, -1)
    # adj [[p, q], [r, s]] = [[s, -q], [-r, p]]
    assert mat_adjugate(m) == [[a + b, -b], [-(b ** -1), zero]]
    # with a (not Laurent) in place of b, no unit is left after the pivot b
    with pytest.raises(NonInvertibleMatrix):
        mat_adjugate([[zero, a], [b, a + b]])


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
    with pytest.raises(NonInvertibleMatrix):
        mat_inverse_unit([[Poly.const(c, 0)]])


def test_inverse_unit_eliminates_once(monkeypatch):
    # det(A) is read off the adjugate, so one inverse is one unit-pivot
    # elimination and takes no separate determinant
    from weylfrob import exactalg

    calls = {"elimination": 0, "det": 0}
    elimination, det = exactalg._unit_elimination, exactalg.mat_det

    def counting_elimination(*args, **kwargs):
        calls["elimination"] += 1
        return elimination(*args, **kwargs)

    def counting_det(*args):
        calls["det"] += 1
        return det(*args)

    monkeypatch.setattr(exactalg, "_unit_elimination", counting_elimination)
    monkeypatch.setattr(exactalg, "mat_det", counting_det)
    c = laurent_matrix_chart()
    a, b = c.var("a"), c.var("b")
    zero, one = Poly.const(c, 0), Poly.const(c, 1)
    m = [[a, one, zero], [3 * b, zero, one], [one, zero, zero]]  # det = 1
    inv = exactalg.mat_inverse_unit(m)
    assert mat_mul(m, inv) == identity(c, 3) == mat_mul(inv, m)
    assert calls == {"elimination": 1, "det": 0}


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


def test_congruence_matches_explicit_loops():
    """A F A^T from the entries i <= j equals two full loop contractions, for
    a non-square A of Polys or rationals; a non-symmetric F is refused."""
    rng = random.Random(78)
    c = laurent_matrix_chart()
    n = 3
    form = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            form[i][j] = form[j][i] = random_laurent_poly(c, rng, max_terms=2)
    form[0][2] = form[2][0] = Poly.const(c, 0)
    poly_matrix = [[random_laurent_poly(c, rng, max_terms=2) for _ in range(n)]
                   for _ in range(4)]
    frac_matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                   for _ in range(2)]
    for matrix in (poly_matrix, frac_matrix):
        m = len(matrix)
        half = loop_contract(matrix, form, [n, n], 0)
        assert congruence(matrix, form) == loop_contract(matrix, half, [m, n], 1)
    form[0][1] = form[0][1] + 1
    with pytest.raises(ValueError, match=r"^form is not symmetric$"):
        congruence(frac_matrix, form)


# ---------------------------------------------------------------------------
# The integer product-sum kernel against term-by-term Fraction references
# ---------------------------------------------------------------------------

def reference_mul(p, q):
    """Poly x Poly term by term in Fraction arithmetic."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(key)
            if s is None:
                out[key] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
    return Poly(p.chart, out)


def reference_term(x, y):
    """x * y with x a Poly or a rational, without the kernel."""
    if isinstance(x, Poly):
        return reference_mul(x, y)
    x = Fraction(x)
    return Poly(y.chart, {e: c * x for e, c in y.terms.items() if x})


def accumulated_products(chart, pairs):
    acc = Poly.const(chart, 0)
    for x, y in pairs:
        acc = acc + reference_term(x, y)
    return acc


def reference_numerators(terms):
    """The terms as (exponents, integer numerator) over their least common
    denominator, and that denominator."""
    den = lcm(*[c.denominator for c in terms.values()])
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


def reference_sum_products(chart, pairs):
    """The tuple-keyed kernel: integer numerators over a common denominator,
    exponent tuples added per term pair, one Fraction per output term."""
    acc = {}
    den = 1
    for x, y in pairs:
        if y.chart != chart or (isinstance(x, Poly) and x.chart != chart):
            raise ChartMismatch("operand on another chart")
        if isinstance(x, Poly):
            if not x.terms or not y.terms:
                continue
            xn, dx = reference_numerators(x.terms)
        else:
            if not x or not y.terms:
                continue
            x = Fraction(x)
            xn, dx = x.numerator, x.denominator
        yn, dy = reference_numerators(y.terms)
        d = dx * dy
        if den % d:
            grown = lcm(den, d)
            for e in acc:
                acc[e] *= grown // den
            den = grown
        scale = den // d
        if isinstance(xn, int):
            for e, b in yn:
                acc[e] = acc.get(e, 0) + xn * scale * b
            continue
        for e1, a in xn:
            for e2, b in yn:
                key = tuple(map(add, e1, e2))
                acc[key] = acc.get(key, 0) + a * scale * b
    return Poly(chart, {e: Fraction(v, den) for e, v in acc.items() if v})


def reference_add(p, q, sign=1):
    """p + sign * q term by term in Fraction arithmetic."""
    out = dict(p.terms)
    for e, c in q.terms.items():
        s = out.get(e, Fraction(0)) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return Poly(p.chart, out)


def reference_diff(p, name):
    """The formal derivative on exponent tuples; E d/dE along the log coordinate."""
    chart = p.chart
    log = name == chart.log_coord
    idx = chart.index[chart.exp_var if log else name]
    out = {}
    for exps, c in p.terms.items():
        e = exps[idx]
        if e:
            key = exps if log else exps[:idx] + (e - 1,) + exps[idx + 1:]
            out[key] = out.get(key, 0) + c * e
    return Poly(chart, out)


def reference_combine(row, parts):
    """The sum of c * parts[a] over (a, c) in row, accumulated one at a time."""
    acc = Poly.const(parts[0].chart, 0)
    for a, c in row:
        if not parts[a].is_zero():
            acc = acc + reference_term(c, parts[a])
    return acc


def reference_exact_div(p, q):
    """Exact division by long division in Fraction arithmetic."""
    if q.is_zero():
        raise ZeroDivisionError("exact division by zero polynomial")
    if p.is_zero():
        return Poly(p.chart, {})
    laurent = [v.laurent for v in p.chart.vars]
    if len(q.terms) == 1:
        (qe, qc), = q.terms.items()
        out = {}
        for e, c in p.terms.items():
            key = tuple(a - b for a, b in zip(e, qe))
            if any(x < 0 and not lau for x, lau in zip(key, laurent)):
                raise NonExactDivision("negative exponent on a non-laurent variable")
            out[key] = c / qc
        return Poly(p.chart, out)
    n = p.chart.nvars
    shift_p = tuple(-min(e[i] for e in p.terms) for i in range(n))
    shift_q = tuple(-min(e[i] for e in q.terms) for i in range(n))
    q_terms = {tuple(a + s for a, s in zip(e, shift_q)): c for e, c in q.terms.items()}
    rem = {tuple(a + s for a, s in zip(e, shift_p)): c for e, c in p.terms.items()}

    def grlex(e):
        return (sum(e), e)

    lead_q = max(q_terms, key=grlex)
    cq = q_terms[lead_q]
    quot = {}
    while rem:
        lead_r = max(rem, key=grlex)
        d = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(x < 0 for x in d):
            raise NonExactDivision("division left a nonzero remainder")
        c = rem[lead_r] / cq
        quot[d] = quot.get(d, Fraction(0)) + c
        for e2, c2 in q_terms.items():
            key = tuple(a + b for a, b in zip(d, e2))
            s = rem.get(key, Fraction(0)) - c * c2
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    correction = tuple(sq - sp for sq, sp in zip(shift_q, shift_p))
    out = {}
    for e, c in quot.items():
        if not c:
            continue
        key = tuple(a + b for a, b in zip(e, correction))
        if any(x < 0 and not lau for x, lau in zip(key, laurent)):
            raise NonExactDivision("negative exponent on a non-laurent variable")
        out[key] = c
    return Poly(p.chart, out)


def reference_substitute(p, bindings, target):
    acc = Poly.const(target, 0)
    for exps, c in p.terms.items():
        term = Poly.const(target, c)
        for var, e in zip(p.chart.vars, exps):
            base = bindings[var.name]
            if e < 0:
                base, e = base.unit_inverse(), -e
            for _ in range(e):
                term = reference_mul(term, base)
        acc = acc + term
    return acc


KERNEL_CHART = Chart("kx", [VarSpec("x", Fraction(1)),
                            VarSpec("y", Fraction(1), laurent=True),
                            VarSpec("z", Fraction(2), laurent=True)])

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
# C8k1 carries denominators near 10^22
tall_rationals = st.builds(Fraction, st.integers(-10 ** 22, 10 ** 22),
                           st.integers(10 ** 21, 10 ** 22))
rationals = small_rationals | tall_rationals
laurent_exponents = st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(-2, 2))
laurent_polys = st.dictionaries(laurent_exponents, rationals, max_size=5).map(
    lambda terms: Poly(KERNEL_CHART, terms))
factors = laurent_polys | rationals | st.integers(-3, 3)


def is_normalized(p):
    return all(type(c) is Fraction and c for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(laurent_polys, laurent_polys)
def test_mul_matches_the_fraction_reference(p, q):
    got = p * q
    assert got == reference_mul(p, q)
    assert is_normalized(got)


TALL_A = Fraction(10 ** 22 + 1, 10 ** 22 - 3)
TALL_B = Fraction(-7, 10 ** 22 + 9)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(factors, laurent_polys), max_size=6))
@example([(Poly(KERNEL_CHART, {(1, 0, 0): TALL_A, (0, -2, 0): TALL_B}),
           Poly(KERNEL_CHART, {(0, 1, 0): TALL_B, (0, 0, 0): -TALL_A})),
          (Fraction(1, 10 ** 22), Poly(KERNEL_CHART, {(0, 1, 0): TALL_B}))])
def test_sum_products_matches_the_fraction_reference(pairs):
    got = sum_products(KERNEL_CHART, pairs)
    assert got == reference_sum_products(KERNEL_CHART, pairs) == \
        accumulated_products(KERNEL_CHART, pairs)
    assert is_normalized(got)


@settings(max_examples=80, deadline=None)
@given(factors, laurent_polys, laurent_polys)
def test_sum_products_cancels_to_an_empty_term_map(x, y, z):
    chart = KERNEL_CHART
    assert sum_products(chart, [(x, y), (x, -y)]).terms == {}
    assert sum_products(chart, [(y, z), (Fraction(-1), y * z)]).terms == {}
    # a partial cancellation keeps exactly the surviving terms
    assert sum_products(chart, [(y, z), (z, y), (-1, y * z)]) == reference_mul(y, z)


def test_sum_products_of_empty_and_zero_operands():
    chart = KERNEL_CHART
    zero = Poly.const(chart, 0)
    x = chart.var("x")
    assert sum_products(chart, []).terms == {}
    assert sum_products(chart, [(zero, x), (x, zero), (0, x), (Fraction(0), x)]).terms == {}
    assert sum_products(chart, [(zero, x), (3, x)]) == 3 * x
    with pytest.raises(ChartMismatch):
        sum_products(chart, [(simple_chart().var("u"), x)])
    with pytest.raises(ChartMismatch):
        sum_products(chart, [(2, simple_chart().var("u"))])


@settings(max_examples=80, deadline=None)
@given(st.lists(factors, min_size=1, max_size=4), st.lists(laurent_polys, min_size=4,
                                                            max_size=4))
def test_contract_matches_the_accumulating_reference(row, parts):
    matrix = [row + [0] * (len(parts) - len(row))]
    nonzero = [(a, c) for a, c in enumerate(matrix[0])
               if not (c.is_zero() if isinstance(c, Poly) else c == 0)]
    assert contract(matrix, parts, 0) == [reference_combine(nonzero, parts)]


def reference_term_weight(chart, exps):
    """A term's weight as a Fraction sum, one product per variable."""
    return sum((v.weight * e for v, e in zip(chart.vars, exps)), Fraction(0))


@settings(max_examples=120, deadline=None)
@given(laurent_polys, laurent_polys)
def test_reference_exact_div_inverts_multiplication(p, q):
    # the reference is the one exact division left; the generating-function
    # and Bareiss references lean on it
    assume(not q.is_zero())
    assert reference_exact_div(p * q, q) == p
    try:
        quotient = reference_exact_div(p, q)
    except NonExactDivision:
        return
    assert quotient * q == p


def test_exact_div_integer_remainder_and_negative_exponent_raise():
    chart = KERNEL_CHART
    x, y = chart.var("x"), chart.var("y")
    # 2x + 1 over x + 1: the leading quotient 2 leaves the remainder -1
    with pytest.raises(NonExactDivision):
        reference_exact_div(2 * x + 1, x + 1)
    # (y + 1) / (x y + x) = 1 / x, but x is not laurent
    with pytest.raises(NonExactDivision):
        reference_exact_div(y + 1, x * y + x)
    assert reference_exact_div(x * y + x, y + 1) == x
    assert reference_exact_div(Fraction(3, 4) * x * y - Fraction(3, 2),
                               Fraction(1, 6) * x * y - Fraction(1, 3)) == \
        Poly.const(chart, Fraction(9, 2))


small_kernel_polys = st.dictionaries(laurent_exponents, small_rationals, max_size=4).map(
    lambda terms: Poly(KERNEL_CHART, terms))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_kernel_polys, min_size=1, max_size=4),
       st.dictionaries(laurent_exponents, small_rationals, max_size=3).map(
           lambda terms: Poly(KERNEL_CHART, terms)),
       small_rationals.filter(bool), small_rationals.filter(bool), st.booleans())
def test_substitute_matches_the_fraction_reference(batch, bx, cy, cz, carry_x):
    # one substitute_all call pushes the whole batch through one table of
    # monomial images; y and z carry negative exponents (unit bindings), and
    # an unbound x is carried over by name
    chart = KERNEL_CHART
    bindings = {"x": bx, "y": cy * chart.var("y") ** 2, "z": cz * chart.var("z")}
    if carry_x:
        del bindings["x"]
    full = {"x": chart.var("x"), **bindings}
    expected = [reference_substitute(p, full, chart) for p in batch]
    assert substitute_all(batch, bindings, chart) == expected
    assert [p.substitute(bindings, chart) for p in batch] == expected


def test_substitute_all_raises_for_a_non_unit_and_an_overflow():
    chart = KERNEL_CHART
    x, y = chart.var("x"), chart.var("y")
    y_inv = Poly.monomial(chart, {"y": -1})
    non_unit = {"y": y + 1}
    # a non-unit binding is fine until some entry carries a negative exponent
    assert substitute_all([x * y, x], non_unit, chart) == [x * y + x, x]
    with pytest.raises(NonUnitLaurentSubstitution):
        substitute_all([x * y, x * y_inv], non_unit, chart)
    big = Poly.monomial(chart, {"x": (1 << (FIELD_BITS - 1)) // 3 + 1})
    assert substitute_all([x ** 2], {"x": big}, chart) == [big * big]
    with pytest.raises(ExponentOverflow):
        substitute_all([x ** 2, x ** 3], {"x": big}, chart)


# ---------------------------------------------------------------------------
# The packed representation: one canonical form, read-only terms, the field
# bound
# ---------------------------------------------------------------------------

HALF = 1 << (FIELD_BITS - 1)
LOG_CHART = Chart("kl", [VarSpec("x", Fraction(1)),
                         VarSpec("E", Fraction(1, 2), laurent=True)],
                  log_coord="s", exp_var="E")
log_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-3, 3)), rationals,
                            max_size=5).map(lambda terms: Poly(LOG_CHART, terms))


@settings(max_examples=150, deadline=None)
@given(laurent_polys, laurent_polys)
def test_add_and_sub_match_the_fraction_reference(p, q):
    assert p + q == reference_add(p, q)
    assert p - q == reference_add(p, q, -1)
    assert is_normalized(p - q)


@settings(max_examples=150, deadline=None)
@given(laurent_polys, log_polys)
def test_diff_matches_the_fraction_reference(p, r):
    for name in ("x", "y", "z"):
        assert p.diff(name) == reference_diff(p, name)
    for name in ("x", "s"):
        assert r.diff(name) == reference_diff(r, name)


def needs_log(p, i):
    """Whether some term of p has no antiderivative along coordinate i."""
    chart = p.chart
    name = chart.coords[i]
    if name == chart.log_coord:
        return any(e[chart.index[chart.exp_var]] == 0 for e in p.terms)
    return any(e[chart.index[name]] == -1 for e in p.terms)


@settings(max_examples=100, deadline=None)
@given(laurent_polys | log_polys)
def test_integral_and_grading_against_their_definitions(p):
    for i in range(p.chart.dim):
        if needs_log(p, i):
            with pytest.raises(NonExactDivision):
                p.coord_integral(i)
        else:
            assert p.coord_integral(i).coord_diff(i) == p
    def weight(exps):
        return reference_term_weight(p.chart, exps)

    scaled, flat = p.graded()
    assert scaled == Poly(p.chart, {e: c * weight(e) for e, c in p.terms.items()})
    assert flat == Poly(p.chart, {e: c for e, c in p.terms.items() if not weight(e)})
    inverse, flat_again = p.graded(-1)
    assert flat_again == flat and inverse.graded()[0] == p - flat


@settings(max_examples=150, deadline=None)
@given(laurent_polys, laurent_polys, small_rationals.filter(bool))
def test_equal_polynomials_share_packed_form_and_hash(p, q, c):
    chart = KERNEL_CHART
    routes = [(p + q) - q, Poly(chart, dict(p.terms)), -(-p), (p * c) * (1 / c),
              sum_products(chart, [(1, p)]), p.substitute({}, chart),
              reference_sum_products(chart, [(1, p), (q, p), (-q, p)])]
    for r in routes:
        assert r == p and hash(r) == hash(p)
        assert (dict(r.packed), r.den) == (dict(p.packed), p.den)
    assert (p == q) == (dict(p.terms) == dict(q.terms))


def test_term_maps_are_read_only():
    c = KERNEL_CHART
    p = 3 * c.var("x") * c.var("y") ** -2 + Fraction(1, 2)
    expected = {(1, -2, 0): Fraction(3), (0, 0, 0): Fraction(1, 2)}
    with pytest.raises(TypeError):
        p.terms[(1, -2, 0)] = Fraction(5)
    with pytest.raises(TypeError):
        p.terms[(0, 1, 0)] = Fraction(5)
    with pytest.raises(TypeError):
        del p.terms[(0, 0, 0)]
    with pytest.raises(TypeError):
        p.packed[next(iter(p.packed))] = 7
    with pytest.raises(AttributeError):
        p.terms = {}
    assert dict(p.terms) == expected


def test_exponents_at_the_field_bound_raise():
    c = KERNEL_CHART
    top = HALF - 1
    x, y = c.var("x"), c.var("y")
    x_top = Poly(c, {(top, 0, 0): 1})
    y_low = Poly(c, {(0, -top, 0): 1})
    assert dict(x_top.terms) == {(top, 0, 0): 1}
    assert y_low.unit_inverse() == Poly(c, {(0, top, 0): 1})
    assert Poly(c, {(top - 1, 0, 0): 2}) * x == 2 * x_top
    # an exponent, or the total degree, out of range
    for exps in [(HALF, 0, 0), (0, -HALF, 0), (HALF // 2, HALF // 2, 0),
                 (0, -HALF // 2, -HALF // 2)]:
        with pytest.raises(ExponentOverflow):
            Poly(c, {exps: 1})
    with pytest.raises(ValueError):  # one exponent per chart variable
        Poly(c, {(1, 2): 1})
    with pytest.raises(ExponentOverflow):
        x_top * x
    with pytest.raises(ExponentOverflow):
        sum_products(c, [(2, x), (x_top, x_top)])
    with pytest.raises(ExponentOverflow):
        Poly(c, {(HALF // 2, 0, 0): 1}) * Poly(c, {(0, HALF // 2, 0): 1})
    with pytest.raises(ExponentOverflow):
        y_low.diff("y")
    with pytest.raises(ExponentOverflow):
        (x_top * y ** -1) * y
    # a bound loosened by cancellation is made exact before raising
    x_below = Poly(c, {(top - 1, 0, 0): 1})
    shrunk = (x_top + y) - x_top
    assert shrunk == y and shrunk * x_below == Poly(c, {(top - 1, 1, 0): 1})


def test_bounds_on_a_chart_without_laurent_variables_are_exact():
    # every exponent is >= 0, so the bound is the largest total degree
    c = simple_chart()
    top = HALF - 1
    x_top = Poly(c, {(top, 0): 1})
    split = Poly.from_packed(c, {c.pack((top // 2, top - top // 2)): 3, c.pack((1, 0)): 1}, 2)
    for p in (x_top, split):
        with pytest.raises(ExponentOverflow):
            p * c.var("v")
    # a bound loosened by cancellation is made exact before raising
    shrunk = split - Poly(c, {(top // 2, top - top // 2): Fraction(3, 2)})
    assert shrunk * Poly(c, {(top - 1, 0): 1}) == Poly(c, {(top, 0): Fraction(1, 2)})


def largest(p):
    """The largest |exponent| or |total degree| over the terms of p."""
    return max((max(abs(sum(e)), *map(abs, e)) for e in p.terms), default=0)


near_bound = st.integers(-3, 3) | st.integers(HALF - 4, HALF - 1) | \
    st.integers(-HALF + 1, -HALF + 4)
near_bound_polys = st.dictionaries(
    st.tuples(st.integers(0, 3) | st.integers(HALF - 4, HALF - 1), near_bound,
              st.integers(-3, 3)), small_rationals, max_size=3)


@settings(max_examples=150, deadline=None)
@given(near_bound_polys, near_bound_polys)
def test_products_near_the_field_bound_raise_or_are_exact(pt, qt):
    try:
        p, q = Poly(KERNEL_CHART, pt), Poly(KERNEL_CHART, qt)
    except ExponentOverflow:
        assume(False)
    expected = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(map(add, e1, e2))
            expected[key] = expected.get(key, 0) + c1 * c2
    try:
        got = p * q
    except ExponentOverflow:
        assert largest(p) + largest(q) >= HALF
    else:
        assert dict(got.terms) == {e: v for e, v in expected.items() if v}


# ---------------------------------------------------------------------------
# Unit-pivot elimination against the natural-order Bareiss references
# ---------------------------------------------------------------------------

def reference_bareiss_det(matrix):
    """Determinant by natural-order fraction-free (Bareiss) elimination."""
    n = len(matrix)
    chart = matrix[0][0].chart
    m = [row[:] for row in matrix]
    sign = 1
    prev = Poly.const(chart, 1)
    for p in range(n - 1):
        if m[p][p].is_zero():
            for r in range(p + 1, n):
                if not m[r][p].is_zero():
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return Poly.const(chart, 0)
        piv = m[p][p]
        for r in range(p + 1, n):
            f = m[r][p]
            for c in range(p + 1, n):
                m[r][c] = reference_exact_div(piv * m[r][c] - f * m[p][c], prev)
            m[r][p] = Poly.const(chart, 0)
        prev = piv
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def reference_bareiss_adjugate(matrix):
    """Adjugate by the natural-order fraction-free Gauss-Jordan sweep on
    [A | I]: it ends at [d I | T] with d = sign * det(A), adj(A) = sign * T."""
    from weylfrob.exactalg import NonInvertibleMatrix

    n = len(matrix)
    chart = matrix[0][0].chart
    if n == 1:
        return [[Poly.const(chart, 1)]]
    zero, one = Poly.const(chart, 0), Poly.const(chart, 1)
    m = [list(row) + [one if c == r else zero for c in range(n)]
         for r, row in enumerate(matrix)]
    sign = 1
    prev = one
    for p in range(n):
        for r in range(p, n):
            if not m[r][p].is_zero():
                break
        else:
            raise NonInvertibleMatrix("matrix is singular")
        if r != p:
            m[p], m[r] = m[r], m[p]
            sign = -sign
        piv = m[p][p]
        for r in range(n):
            if r == p:
                continue
            f = m[r][p]
            for c in range(p + 1, 2 * n):
                m[r][c] = reference_exact_div(piv * m[r][c] - f * m[p][c], prev)
            m[r][p] = zero
        prev = piv
    return [[-e if sign < 0 else e for e in row[n:]] for row in m]


def identity(chart, n):
    return [[Poly.const(chart, 1 if i == j else 0) for j in range(n)] for i in range(n)]


def permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def check_against_references(m, det) -> bool:
    """Check det and the Bareiss references, and, when the unit elimination
    completes, mat_det, mat_adjugate and mat_inverse_unit against them;
    returns whether it did.  When it stalls all three raise
    NonInvertibleMatrix."""
    from weylfrob.exactalg import NonInvertibleMatrix, mat_adjugate, mat_det, mat_inverse_unit

    chart = m[0][0].chart
    n = len(m)
    assert det == reference_bareiss_det(m)
    try:
        assert mat_det(m) == det
    except NonInvertibleMatrix:
        for f in (mat_adjugate, mat_inverse_unit):
            with pytest.raises(NonInvertibleMatrix):
                f(m)
        return False
    adj = mat_adjugate(m)
    assert adj == reference_bareiss_adjugate(m)
    inv = mat_inverse_unit(m)
    assert inv == [[e * det.unit_inverse() for e in row] for row in adj]
    assert mat_mul(m, inv) == identity(chart, n) == mat_mul(inv, m)
    return True


UNIMODULAR_CHART = Chart("xb", [VarSpec("x", Fraction(1)),
                                VarSpec("b", Fraction(1), laurent=True)])
unit_exponents = st.tuples(st.just(0), st.integers(-2, 2))
any_exponents = st.tuples(st.integers(0, 2), st.integers(-2, 2))
units = st.builds(lambda e, c: Poly(UNIMODULAR_CHART, {e: c}), unit_exponents,
                  small_rationals.filter(bool))
# elementary-matrix entries: one monomial or two terms, units or not
shears = st.dictionaries(any_exponents, small_rationals.filter(bool),
                         min_size=1, max_size=2).map(lambda t: Poly(UNIMODULAR_CHART, t))


@st.composite
def unimodular_matrices(draw):
    """(A, det A): a row permutation of a unit diagonal times elementary
    shears I + s E_ij, so det A = sign * (product of the diagonal)."""
    n = draw(st.integers(1, 4))
    chart = UNIMODULAR_CHART
    diag = [draw(units) for _ in range(n)]
    m = [[diag[i] if i == j else Poly.const(chart, 0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        if n == 1:
            break
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        s = draw(shears)
        shear = identity(chart, n)
        shear[i][j] = s
        m = mat_mul(shear, m) if draw(st.booleans()) else mat_mul(m, shear)
    perm = draw(st.permutations(range(n)))
    m = [m[p] for p in perm]
    det = Poly.const(chart, permutation_sign(perm))
    for d in diag:
        det = det * d
    return m, det


@settings(max_examples=120, deadline=None)
@given(unimodular_matrices())
def test_unit_pivots_match_the_bareiss_references_on_unimodular_matrices(case):
    m, det = case
    check_against_references(m, det)


@pytest.mark.parametrize("perm", [(1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1),
                                  (1, 0, 3, 2), (1, 2, 3, 0), (3, 1, 2, 0)])
def test_unit_pivot_permutation_sign(perm):
    # a permutation pattern of units: the pivots are (i, perm[i]), so the
    # determinant's sign is that of the pivot order, odd or even
    c = UNIMODULAR_CHART
    n = len(perm)
    b = c.var("b")
    m = [[Poly.const(c, 0)] * n for _ in range(n)]
    det = Poly.const(c, permutation_sign(perm))
    for i, j in enumerate(perm):
        m[i][j] = (i + 2) * b ** (i - 1)
        det = det * m[i][j]
    assert naive_det(m) == det
    assert check_against_references(m, det)


def test_non_laurent_single_term_is_not_a_unit():
    from weylfrob.exactalg import NonInvertibleMatrix, mat_inverse_unit, unit_det

    c = UNIMODULAR_CHART
    x, b = c.var("x"), c.var("b")
    assert not x.is_unit_monomial() and not (x * b).is_unit_monomial()
    assert (3 * b ** -2).is_unit_monomial() and Poly.const(c, 5).is_unit_monomial()
    with pytest.raises(NonInvertibleMatrix):
        mat_inverse_unit([[x]])
    for singular_or_not_unit in ([[x * b, Poly.const(c, 0)], [x, b]],
                                 [[x, b], [x * x, x * b]]):
        with pytest.raises(NonInvertibleMatrix):
            unit_det(singular_or_not_unit)
        with pytest.raises(NonInvertibleMatrix):
            mat_inverse_unit(singular_or_not_unit)
    with pytest.raises(NonExactDivision):
        x.unit_inverse()


def test_a_zero_schur_complement_gives_det_zero():
    from weylfrob.exactalg import NonInvertibleMatrix, mat_det, mat_inverse_unit, unit_det

    point = Chart("point", [])
    c = UNIMODULAR_CHART
    x, b = c.var("x"), c.var("b")
    # rank 2 in integers, as a Krylov matrix at a point may be; and a
    # Laurent matrix whose pivot b leaves the complement x - (x b) b^-1 = 0
    constant = [[Poly.const(point, v) for v in row] for row in ((1, 2, 3), (2, 4, 6), (0, 1, 5))]
    laurent = [[b, x * b], [Poly.const(c, 1), x]]
    for m in (constant, laurent):
        assert naive_det(m).is_zero()
        det = mat_det(m)
        assert det.is_zero() and det.chart == m[0][0].chart
        for f in (unit_det, mat_inverse_unit):
            with pytest.raises(NonInvertibleMatrix):
                f(m)


def test_elimination_without_a_unit_pivot_raises():
    from weylfrob.exactalg import NonInvertibleMatrix, mat_adjugate, mat_det, mat_inverse_unit

    c = UNIMODULAR_CHART
    x, b = c.var("x"), c.var("b")
    # det = (1+x)^2 - x(2+x) = 1, and x, the one single-term entry, is no unit
    m = [[1 + x, x], [2 + x, 1 + x]]
    # one unit pivot (2b) first leaves the Schur complement
    # [[1+x, x], [2+x, 1+x]], on which the elimination stalls
    big = [[2 * b, b, Poly.const(c, 0)],
           [x * b, 1 + x + Fraction(1, 2) * x * b, x],
           [Poly.const(c, 0), 2 + x, 1 + x]]
    cases = [(m, Poly.const(c, 1))] + [([big[p] for p in perm], permutation_sign(perm) * 2 * b)
                                       for perm in itertools.permutations(range(3))]
    for case, det in cases:
        assert naive_det(case) == det
        for f in (mat_det, mat_adjugate, mat_inverse_unit):
            with pytest.raises(NonInvertibleMatrix, match="no unit pivot left"):
                f(case)


# ---------------------------------------------------------------------------
# FlatnessRows: the integer rows of the flatness operator
# ---------------------------------------------------------------------------

def scaled_residuals(gammas, col):
    """s_ij (d_i d_j N - sum_m gamma^m_{ij} d_m N) for i <= j, built as Polys."""
    c = col.chart
    n = c.dim
    out = []
    for i in range(n):
        for j in range(i, n):
            s = lcm(1, *[gammas[m][i][j].den for m in range(n)
                         if not gammas[m][i][j].is_zero()])
            r = col.coord_diff(i).coord_diff(j) - sum_products(
                c, [(gammas[m][i][j], col.coord_diff(m)) for m in range(n)])
            out.append(r * s)
    return out


def test_flatness_rows_are_the_scaled_residual_numerators():
    c = laurent_chart()
    x, y = c.var("x"), c.var("y")
    gammas = [[[x * Fraction(1, 3) + y ** -1, Poly.const(c, 0)],
               [Poly.const(c, 0), x * y * Fraction(5, 2)]],
              [[y ** 2 * Fraction(-1, 6), x ** 2 + Fraction(2, 9)],
               [x ** 2 + Fraction(2, 9), Poly.const(c, 7)]]]
    cols = [x ** 3 * y ** -2 * 4 - x * y, x ** 2 + y ** 3 * 3, Poly.const(c, 5)]
    rows = list(FlatnessRows(gammas)(cols + [cols[0] * Fraction(-2, 3)]))
    for col, row in zip(cols, rows):
        residuals = scaled_residuals(gammas, col)
        assert all(r.den == 1 for r in residuals)
        # pairs never share a key: the rows hold every residual numerator once
        assert sorted(v for v in row.values() if v) == \
            sorted(v for r in residuals for v in r.packed.values())
    assert not any(rows[2].values())  # a constant is flat
    # equal keys name one equation, and a column's denominator is dropped:
    # -2/3 N has the rows of its numerator -2 N
    assert rows[3] == {k: -2 * v for k, v in rows[0].items()}


def test_flatness_rows_guard_the_packed_fields():
    c = simple_chart()
    zero = Poly.const(c, 0)
    gammas = [[[zero, zero], [zero, zero]] for _ in range(2)]
    gammas[0][0][0] = Poly.monomial(c, {"u": HALF - 3})
    # u^(HALF-3) * d_u u^3 = 3 u^(HALF-1) still fits; d_u u^4 would not
    (row,) = FlatnessRows(gammas)([c.var("u") ** 3])
    assert sorted(row.values()) == [-3, 6]
    with pytest.raises(ExponentOverflow, match=r"^a product exponent could reach"):
        list(FlatnessRows(gammas)([c.var("u") ** 4]))
