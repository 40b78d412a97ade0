"""Flat coordinates of eta: the z, w and t stages.

The z-stage polynomials p_j and the t-stage polynomials h_j are found by
solving the flatness equations

    d_i d_j f  -  sum_m gamma^m_{ij} d_m f  =  0

as exact linear systems over a triangular weighted-homogeneous ansatz; the
resulting eta patterns (``metrics.eta_pattern``, one per stage) are then
asserted exactly.  The linear-block constants B^i_j between the z and y
charts are central factorial numbers in closed form (``b_coefficients``);
the triangular quadratic recursion they solve is kept in the tests as the
oracle.

Fractional powers never appear: the w-chart realizes (z^l)^{1/(2(l-k))} as a
Laurent generator s = w^l with z^l = s^{2(l-k)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

from .exactalg import (FlatnessRows, Matrix, Poly, mat_inverse_unit,
                       monomials_of_weighted_degree, solve_linear, sum_products)
from .metrics import BilinearForm, assert_eta_pattern, transform_form
from .orbitspace import CoordMap, t_chart, w_chart, z_chart
from .rootdata import RootSystemSpec, degrees


class AnsatzInsufficient(ArithmeticError):
    """The triangular flat-coordinate ansatz admits no solution."""


class PropertyViolation(ArithmeticError):
    """A Christoffel-symbol property of the w-chart fails."""


# ---------------------------------------------------------------------------
# Covariant components and lowered Christoffel symbols
# ---------------------------------------------------------------------------

def covariant_form(form: BilinearForm) -> Matrix:
    """Inverse matrix of a contravariant metric whose determinant is a unit."""
    return mat_inverse_unit(form.mat)


def lower_christoffels(form: BilinearForm,
                       cov: Optional[Matrix] = None) -> List[List[List[Poly]]]:
    """Classical Christoffel symbols gamma^m_{ij} = g^{ms} Gamma_{s,ij} of
    the metric (lower indices), with Gamma_{s,ij} = (d_i g_{sj} + d_j g_{si}
    - d_s g_{ij}) / 2 on the covariant form g_{ij}.

    ``form`` must be symmetric (ValueError otherwise), and ``cov``, its
    covariant form for a caller that holds it, is then symmetric too: only
    the entries g_{sj} with s <= j are differentiated, and only the symbols
    with i <= j are formed, each by one ``sum_products`` call over its
    nonzero terms; gamma^m_{ji} is the same Poly as gamma^m_{ij}.
    """
    g = form.mat
    n = form.dim
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise ValueError("form is not symmetric")
    if cov is None:
        cov = covariant_form(form)
    chart = form.chart
    zero = Poly.const(chart, 0)
    # dcov[s][j][i] = d_i g_{sj}, one list shared by (s, j) and (j, s)
    dcov: List[List[Optional[List[Poly]]]] = [[None] * n for _ in range(n)]
    for s in range(n):
        for j in range(s, n):
            if not cov[s][j].is_zero():
                dcov[s][j] = dcov[j][s] = [cov[s][j].coord_diff(i) for i in range(n)]
    rows = [[(s, c) for s, c in enumerate(row) if not c.is_zero()] for row in g]
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    out = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            first = {}  # s -> Gamma_{s,ij}, nonzero only
            for s in range(n):
                terms = [(c, d[a]) for c, d, a in ((half, dcov[s][j], i),
                                                   (half, dcov[s][i], j),
                                                   (minus_half, dcov[i][j], s))
                         if d is not None and not d[a].is_zero()]
                if terms:
                    entry = sum_products(chart, terms)
                    if not entry.is_zero():
                        first[s] = entry
            for m in range(n):
                terms = [(c, first[s]) for s, c in rows[m] if s in first]
                if terms:
                    out[m][i][j] = out[m][j][i] = sum_products(chart, terms)
    return out


# ---------------------------------------------------------------------------
# Flatness PDE as an exact linear solve
# ---------------------------------------------------------------------------

def flat_candidate_solve(flatness: FlatnessRows, base: Poly,
                         candidates: List[Poly], what: str) -> Poly:
    """The flat function base + sum c_q * candidate_q, solved on the integer
    rows of ``flatness`` with free parameters zero: AnsatzInsufficient when
    the system is inconsistent.  The solution's flatness is not re-derived
    here: each stage asserts its eta pattern, and a constant eta_t makes
    every t^j flat, the p-block's y^j + p_j (= t^j, j <= k) and the h-block's
    solutions among them; a wrong solve breaks the pattern of its stage."""
    chart = base.chart
    rows: Dict[int, Dict[int, int]] = {}  # base's column is the constant term
    for q, acc in enumerate(flatness(candidates + [base])):
        for key, v in acc.items():
            rows.setdefault(key, {})[q] = v
    coeffs = solve_linear(rows.values(), candidates)
    if coeffs is None:
        raise AnsatzInsufficient(f"flatness system for {what} is inconsistent")
    # the rows are on numerators, so x_q multiplies den_q candidate_q / den_base
    # (no new Fraction when the denominators agree, as for monomial candidates)
    return sum_products(chart, [(1, base)] + [
        (x if p.den == base.den else x * p.den / base.den, p)
        for x, p in zip(coeffs, candidates)])


# ---------------------------------------------------------------------------
# z-stage: the p-block and the B-series linear block
# ---------------------------------------------------------------------------

def solve_p_block(spec: RootSystemSpec, eta_y: BilinearForm) -> List[Poly]:
    """The polynomials p_j (1 <= j <= k) with z^j = y^j + p_j flat for eta."""
    yc = eta_y.chart
    d = degrees(spec)
    flatness = FlatnessRows(lower_christoffels(eta_y))
    out = []
    for j in range(1, spec.vertex + 1):
        names = [f"y{i}" for i in range(1, j)] + ["E"]
        basis = monomials_of_weighted_degree(yc, names, d[j - 1])
        candidates = [Poly.monomial(yc, mono) for mono in basis]
        base = Poly.variable(yc, f"y{j}")
        tau = flat_candidate_solve(flatness, base, candidates, f"p_{j}")
        out.append(tau - base)
    return out


def b_coefficients(n: int) -> Dict[Tuple[int, int], Fraction]:
    """{(i, j): B^i_j} for 1 <= i <= j <= n, the central factorial numbers

        B^i_j = sum_{r=0}^{2i} (-1)^r C(2i, r) (i-r)^(2j) / (2i (2j-1)!).

    B^i_j is the t^(j-i) coefficient of cosh(sqrt t/2)
    (2 sinh(sqrt t/2)/sqrt t)^(2i-1), which is d/dx (2 sinh(x/2))^(2i) /
    (2i x^(2i-1)) at x = sqrt t.  These constants solve the shear
    recursion 4(i+j-1) B^{i+j-1}_m + (i+j) B^{i+j}_m = 4m sum_{a+b=m+1}
    B^i_a B^j_b, which the tests keep as an independent oracle; in the
    build, a wrong constant breaks the eta_z block pattern that
    ``build_z_chart`` asserts.
    """
    return {(i, j): Fraction(sum((-1) ** r * comb(2 * i, r) * (i - r) ** (2 * j)
                                 for r in range(2 * i + 1)), 2 * i * factorial(2 * j - 1))
            for i in range(1, n + 1) for j in range(i, n + 1)}


def build_z_chart(spec: RootSystemSpec, eta_y: BilinearForm):
    """The shear stage y -> z and eta in the z-chart (zeroed R/P slots)."""
    l, k = spec.rank, spec.vertex
    n = l - k
    yc = eta_y.chart
    zc = z_chart(spec)
    p_list = solve_p_block(spec, eta_y)
    b = b_coefficients(n)

    forward: Dict[str, Poly] = {"E": Poly.variable(yc, "E")}
    for j in range(1, k + 1):
        forward[f"z{j}"] = Poly.variable(yc, f"y{j}") + p_list[j - 1]
    pullback: Dict[str, Poly] = {"E": Poly.variable(zc, "E")}
    for j in range(1, k + 1):
        expr = Poly.variable(zc, f"z{j}") - p_list[j - 1].substitute(pullback, zc)
        pullback[f"y{j}"] = expr
    for i in range(1, n + 1):
        pullback[f"y{k + i}"] = sum_products(zc, [
            (b[(i, j)], Poly.variable(zc, f"z{k + j}")) for j in range(i, n + 1)])
    for i in range(n, 0, -1):  # y^{k+i} = sum_{j>=i} B^i_j z^{k+j}, B^i_i = 1
        forward[f"z{k + i}"] = Poly.variable(yc, f"y{k + i}") - sum_products(yc, [
            (b[(i, j)], forward[f"z{k + j}"]) for j in range(i + 1, n + 1)])

    cmap = CoordMap(yc, zc, pullback=pullback, forward=forward)
    cmap.verify()
    eta_z = transform_form(eta_y, cmap)
    assert_eta_pattern(spec, eta_z, "z")
    return cmap, eta_z, p_list


def build_w_chart(spec: RootSystemSpec, eta_z: BilinearForm):
    """The radical stage z -> w and eta in the w-chart (anti-triangular form)."""
    l, k = spec.rank, spec.vertex
    n = l - k
    zc = eta_z.chart
    wc = w_chart(spec)
    pullback: Dict[str, Poly] = {"E": Poly.variable(wc, "E")}
    for i in range(1, k + 1):
        pullback[f"z{i}"] = Poly.variable(wc, f"w{i}")
    if n == 0:
        forward = {"E": Poly.variable(zc, "E")}
        for i in range(1, l + 1):
            forward[f"w{i}"] = Poly.variable(zc, f"z{i}")
        cmap = CoordMap(zc, wc, pullback=pullback, forward=forward)
        cmap.verify()
    else:
        s = Poly.variable(wc, f"w{l}")
        if n >= 2:
            pullback[f"z{k + 1}"] = Poly.variable(wc, f"w{k + 1}") * s
            for m in range(2, n):
                pullback[f"z{k + m}"] = Poly.variable(wc, f"w{k + m}") * s ** (2 * m)
        pullback[f"z{l}"] = s ** (2 * n)
        cmap = CoordMap(zc, wc, pullback=pullback, forward=None)
    eta_w = transform_form(eta_z, cmap)
    assert_eta_pattern(spec, eta_w, "w")
    return cmap, eta_w


def gamma_w(spec: RootSystemSpec, eta_w: BilinearForm) -> List[List[List[Poly]]]:
    """Christoffel symbols of eta in the w-chart, with their structure checks
    (on the entries i <= j: gamma^m_{ji} is gamma^m_{ij})."""
    l, k = spec.rank, spec.vertex
    n = l - k
    wc = eta_w.chart
    cov = covariant_form(eta_w)
    gammas = lower_christoffels(eta_w, cov)
    dim = l + 1
    # (1) vanishing rows: m in 1..k, l, l+1
    for m in list(range(0, k)) + [l - 1, l]:
        for i in range(dim):
            for j in range(i, dim):
                if not gammas[m][i][j].is_zero():
                    raise PropertyViolation(
                        f"gamma^{m + 1}_{{{i + 1},{j + 1}}} expected to vanish")
    allowed = {f"w{idx}" for idx in range(k + 3, l + 1)}
    if n >= 1 and k + 1 <= l - 1:
        # (2) gamma^{k+1}_{ij} = -d eta_{ij} / d w^l
        for i in range(dim):
            for j in range(i, dim):
                expected = -cov[i][j].diff(f"w{l}")
                if gammas[k][i][j] != expected:
                    raise PropertyViolation(
                        f"gamma^{k + 1}_{{{i + 1},{j + 1}}} != -d eta_ij/d w^l")
                _check_support(gammas[k][i][j], allowed, "property (2)")
    # (3) polynomiality in w^{k+3}..w^l for middle m, i,j != l
    for m in range(k + 1, l - 1):
        for i in range(dim):
            for j in range(i, dim):
                if i == l - 1 or j == l - 1:
                    continue
                _check_support(gammas[m][i][j], allowed, "property (3)")
    # (4) gamma^m_{l j} = delta^m_j / w^l for k+2 <= m <= l-1
    if n >= 3:
        inv_s = Poly.monomial(wc, {f"w{l}": -1})
        for m in range(k + 1, l - 1):
            for j in range(dim):
                expected = inv_s if j == m else Poly.const(wc, 0)
                if gammas[m][l - 1][j] != expected:
                    raise PropertyViolation(
                        f"gamma^{m + 1}_{{l,{j + 1}}} != delta/w^l")
    return gammas


def _check_support(p: Poly, allowed: set, what: str) -> None:
    lo, hi = p.exponent_range()
    for v, a, b in zip(p.chart.vars, lo, hi):
        if (a or b) and v.name not in allowed:
            raise PropertyViolation(f"{what}: stray variable {v.name} in {p!r}")
    if any(a < 0 for a in lo):
        raise PropertyViolation(f"{what}: negative exponent in {p!r}")


def solve_flat_chart(spec: RootSystemSpec, eta_w: BilinearForm,
                     gammas_w: List[List[List[Poly]]]):
    """The flat stage w -> t and the constant eta it produces."""
    l, k = spec.rank, spec.vertex
    n = l - k
    wc = eta_w.chart
    tc = t_chart(spec)
    forward: Dict[str, Poly] = {"E": Poly.variable(wc, "E")}
    h_polys: Dict[int, Poly] = {}
    for i in range(1, k + 1):
        forward[f"t{i}"] = Poly.variable(wc, f"w{i}")
    if n >= 1:
        forward[f"t{l}"] = Poly.variable(wc, f"w{l}")
    s = Poly.variable(wc, f"w{l}") if n >= 1 else None
    flatness = FlatnessRows(gammas_w) if k + 1 < l else None  # for the h-block
    for j in range(k + 1, l):
        wj = Poly.variable(wc, f"w{j}")
        base = wj if j == k + 1 else s * wj
        arg_names = [f"w{m}" for m in range(max(j + 1, k + 2), l)]
        target = Fraction(k * (l - j), n)
        basis = monomials_of_weighted_degree(wc, arg_names, target)
        candidates = [s * Poly.monomial(wc, mono) for mono in basis]
        tau = flat_candidate_solve(flatness, base, candidates, f"t^{j}")
        forward[f"t{j}"] = tau
        h_polys[j] = (tau - base) * s.unit_inverse()

    pullback: Dict[str, Poly] = {"E": Poly.variable(tc, "E")}
    for i in range(1, k + 1):
        pullback[f"w{i}"] = Poly.variable(tc, f"t{i}")
    if n >= 1:
        tl = Poly.variable(tc, f"t{l}")
        pullback[f"w{l}"] = tl
        inv_tl = tl.unit_inverse()
        for j in range(l - 1, k, -1):
            tj = Poly.variable(tc, f"t{j}")
            h_sub = h_polys[j].substitute(pullback, tc)
            if j == k + 1:
                pullback[f"w{j}"] = tj - tl * h_sub
            else:
                pullback[f"w{j}"] = tj * inv_tl - h_sub
    cmap = CoordMap(wc, tc, pullback=pullback, forward=forward)
    cmap.verify()
    eta_t = transform_form(eta_w, cmap)
    assert_eta_pattern(spec, eta_t, "t")
    return cmap, eta_t, h_polys


@dataclass(frozen=True)
class FlatChartData:
    """All stages of the y -> t normalization for one structure."""

    p_list: List[Poly]
    h_polys: Dict[int, Poly]
    z_map: CoordMap
    w_map: CoordMap
    t_map: CoordMap
    y_to_t: CoordMap
    eta_z: BilinearForm
    eta_w: BilinearForm
    eta_t: BilinearForm


def flat_pipeline(spec: RootSystemSpec, eta_y: BilinearForm) -> FlatChartData:
    z_map, eta_z, p_list = build_z_chart(spec, eta_y)
    w_map, eta_w = build_w_chart(spec, eta_z)
    gammas = gamma_w(spec, eta_w)
    t_map, eta_t, h_polys = solve_flat_chart(spec, eta_w, gammas)
    y_to_t = z_map.compose(w_map).compose(t_map)
    return FlatChartData(p_list=p_list, h_polys=h_polys, z_map=z_map, w_map=w_map,
                         t_map=t_map, y_to_t=y_to_t, eta_z=eta_z, eta_w=eta_w,
                         eta_t=eta_t)
