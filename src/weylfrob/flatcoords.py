"""Flat coordinates of eta: the z, w and t stages.

The z-stage polynomials p_j and the t-stage polynomials h_j are found by
solving the flatness equations

    d_i d_j f  -  sum_m gamma^m_{ij} d_m f  =  0

as exact linear systems over a triangular weighted-homogeneous ansatz; the
resulting eta patterns (one per stage) are then asserted exactly.  The
linear-block constants between the z and y charts come from the B-series of
a triangular quadratic recursion, cross-checked against the closed-form
generating series cosh(sqrt(t)/2) (2 sinh(sqrt(t)/2)/sqrt(t))^(2i-1).

Fractional powers never appear: the w-chart realizes (z^l)^{1/(2(l-k))} as a
Laurent generator s = w^l with z^l = s^{2(l-k)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactalg import (Chart, Matrix, Poly, contract, mat_inverse_unit,
                       monomials_of_weighted_degree, solve_linear)
from .metrics import BilinearForm, transform_form
from .orbitspace import CoordMap, t_chart, w_chart, z_chart
from .rootdata import RootSystemSpec, degrees


class AnsatzInsufficient(ArithmeticError):
    """The triangular flat-coordinate ansatz admits no solution."""


class NonUniqueNormalization(ArithmeticError):
    """The flat-coordinate solve left free parameters."""


class BlockFormMismatch(ArithmeticError):
    """eta in the z or w chart missed its expected block pattern."""


class EtaPatternMismatch(ArithmeticError):
    """eta in the t-chart is not the expected constant matrix."""


class PropertyViolation(ArithmeticError):
    """A Christoffel-symbol property of the w-chart fails."""


class SeriesRecursionMismatch(ArithmeticError):
    """The B-series recursion and its closed-form series disagree."""


# ---------------------------------------------------------------------------
# Covariant components and lowered Christoffel symbols
# ---------------------------------------------------------------------------

def covariant_form(form: BilinearForm) -> Matrix:
    """Inverse matrix of a contravariant metric whose determinant is a unit."""
    return mat_inverse_unit(form.mat)


def lower_christoffels(form: BilinearForm,
                       cov: Optional[Matrix] = None) -> List[List[List[Poly]]]:
    """Classical Christoffel symbols gamma^m_{ij} of the metric (lower indices).

    ``cov`` is the covariant form of ``form``, for a caller that holds it.
    """
    if cov is None:
        cov = covariant_form(form)
    n = form.dim
    dcov = [[[cov[s][j].coord_diff(i) for i in range(n)] for j in range(n)]
            for s in range(n)]
    half = Fraction(1, 2)
    brace = [[[(dcov[s][j][i] + dcov[s][i][j] - dcov[i][j][s]) * half
               for j in range(n)] for i in range(n)] for s in range(n)]
    return contract(form.mat, brace, 0)


# ---------------------------------------------------------------------------
# Flatness PDE as an exact linear solve
# ---------------------------------------------------------------------------

def flat_candidate_solve(gammas: List[List[List[Poly]]], base: Poly,
                         candidates: List[Poly], what: str) -> Tuple[Poly, bool]:
    """Solve for the flat function base + sum c_q * candidate_q.

    Returns the solution and a flag marking whether free parameters occurred
    (resolved deterministically to zero).  Raises AnsatzInsufficient when the
    system is inconsistent or the verified residual is nonzero.
    """
    chart = base.chart
    n = chart.dim

    def residuals(f: Poly) -> Dict[Tuple[int, int], Poly]:
        grads = [f.coord_diff(m) for m in range(n)]
        out = {}
        for i in range(n):
            gi = grads[i]
            for j in range(i, n):
                r = gi.coord_diff(j)
                for m in range(n):
                    gm = gammas[m][i][j]
                    if not gm.is_zero() and not grads[m].is_zero():
                        r = r - gm * grads[m]
                out[(i, j)] = r
        return out

    base_res = residuals(base)
    cand_res = [residuals(c) for c in candidates]
    unknowns = [f"c{q}" for q in range(len(candidates))]
    eqs = []
    for key in base_res:
        support = set(base_res[key].terms)
        for res in cand_res:
            support.update(res[key].terms)
        for exps in support:
            coeffs = {}
            for q, res in enumerate(cand_res):
                c = res[key].terms.get(exps)
                if c:
                    coeffs[unknowns[q]] = c
            rhs = -base_res[key].terms.get(exps, Fraction(0))
            eqs.append((coeffs, rhs))
    result = solve_linear(eqs, unknowns)
    if result.kind == "inconsistent":
        raise AnsatzInsufficient(f"flatness system for {what} is inconsistent")
    solution = base
    for q, c in enumerate(candidates):
        coeff = result.solution[unknowns[q]]
        if coeff:
            solution = solution + c * coeff
    for key, r in residuals(solution).items():
        if not r.is_zero():
            raise AnsatzInsufficient(f"flatness residual {key} nonzero for {what}")
    return solution, result.kind == "parametric"


# ---------------------------------------------------------------------------
# z-stage: the p-block and the B-series linear block
# ---------------------------------------------------------------------------

def solve_p_block(spec: RootSystemSpec, eta_y: BilinearForm) -> List[Poly]:
    """The polynomials p_j (1 <= j <= k) with z^j = y^j + p_j flat for eta."""
    yc = eta_y.chart
    d = degrees(spec)
    gammas = lower_christoffels(eta_y)
    out = []
    for j in range(1, spec.vertex + 1):
        names = [f"y{i}" for i in range(1, j)] + ["E"]
        basis = monomials_of_weighted_degree(yc, names, d[j - 1])
        candidates = [Poly.monomial(yc, mono) for mono in basis]
        base = Poly.variable(yc, f"y{j}")
        tau, _ = flat_candidate_solve(gammas, base, candidates, f"p_{j}")
        out.append(tau - base)
    return out


@dataclass
class BSeries:
    """Triangular constants B^i_j of the shear recursion (B^i_i = 1)."""

    n: int
    table: Dict[Tuple[int, int], Fraction]

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        if i == j:
            return Fraction(1)
        if i > j:
            return Fraction(0)
        return self.table[(i, j)]


def _series_mul(a: List[Fraction], b: List[Fraction], order: int) -> List[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def _f_series(i: int, order: int) -> List[Fraction]:
    """Taylor coefficients in t of cosh(sqrt t/2)(2 sinh(sqrt t/2)/sqrt t)^{2i-1}."""
    from math import factorial

    cosh = [Fraction(1, 4 ** m * factorial(2 * m)) for m in range(order + 1)]
    sinc = [Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(order + 1)]
    out = cosh
    for _ in range(2 * i - 1):
        out = _series_mul(out, sinc, order)
    return out


def b_coefficients(n: int) -> BSeries:
    """B^i_j from the shear recursion, cross-checked against the series.

    The recursion 4(i+j-1) B^{i+j-1}_m + (i+j) B^{i+j}_m =
    4m sum_{a+b=m+1} B^i_a B^j_b is solved offset by offset (offset = column
    minus row); at each offset every instance is linear in the new unknowns.
    """
    table: Dict[Tuple[int, int], Fraction] = {}

    def value(a: int, b: int) -> Optional[Fraction]:
        if a > b:
            return Fraction(0)
        if a == b:
            return Fraction(1)
        return table.get((a, b))

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
        result = solve_linear(eqs, unknowns)
        if result.kind != "unique":
            raise SeriesRecursionMismatch(
                f"B-series offset {o} solve is {result.kind}")
        for s in range(1, n - o + 1):
            table[(s, s + o)] = result.solution[f"B{s}_{s + o}"]

    series = BSeries(n, table)
    for i in range(1, n + 1):
        f = _f_series(i, n - i)
        for alpha in range(0, n - i + 1):
            if series[(i, i + alpha)] != f[alpha]:
                raise SeriesRecursionMismatch(
                    f"B^{i}_{i + alpha}: recursion {series[(i, i + alpha)]} vs "
                    f"series {f[alpha]}")
    return series


def _expected_pattern(spec: RootSystemSpec, chart: Chart, stage: str) -> Matrix:
    """The expected eta pattern after the z, w, or t stage.

    For l-k = 1 the generic w/t-stage displays would overlap at the (l,l)
    slot; the constructed value there is 1 (chain rule through s^2 = z^l).
    """
    l, k = spec.rank, spec.vertex
    n = l - k
    pfx = chart.vars[0].name[0]
    size = l + 1
    zero = Poly.const(chart, 0)
    mat = [[zero] * size for _ in range(size)]

    def put(i: int, j: int, val):
        val = val if isinstance(val, Poly) else Poly.const(chart, val)
        mat[i - 1][j - 1] = val
        mat[j - 1][i - 1] = val

    for i in range(1, k):
        if k - i >= i:
            put(i, k - i, k)
    put(k, l + 1, 1)
    if stage == "z":
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                m = i + j - 1
                if m <= n:
                    put(k + i, k + j, 4 * m * Poly.variable(chart, f"{pfx}{k + m}"))
    elif stage == "w":
        if n == 1:
            put(l, l, 1)
        elif n >= 2:
            put(k + 1, l, 2)
            s_inv2 = Poly.monomial(chart, {f"{pfx}{l}": -2})
            for i in range(2, n):
                for j in range(i, n):
                    m = i + j - 1
                    if m <= n - 1:
                        put(k + i, k + j,
                            4 * m * s_inv2 * Poly.variable(chart, f"{pfx}{k + m}"))
            for i in range(2, n + 1):
                j = n + 1 - i
                if j >= i:
                    put(k + i, k + j, 4 * n * s_inv2)
    elif stage == "t":
        if n == 1:
            put(l, l, 1)
        elif n >= 2:
            put(k + 1, l, 2)
            for i in range(k + 2, l):
                j = k + l + 1 - i
                if j >= i:
                    put(i, j, 4 * n)
    else:
        raise ValueError(stage)
    return mat


def _assert_pattern(form: BilinearForm, expected: Matrix, stage: str, exc) -> None:
    n = form.dim
    for i in range(n):
        for j in range(n):
            if form.mat[i][j] != expected[i][j]:
                raise exc(
                    f"eta({stage})[{i + 1}][{j + 1}] = {form.mat[i][j]!r}, "
                    f"expected {expected[i][j]!r}")


def build_z_chart(spec: RootSystemSpec, eta_y: BilinearForm,
                  p_list: Optional[List[Poly]] = None,
                  bseries: Optional[BSeries] = None):
    """The shear stage y -> z and eta in the z-chart (zeroed R/P slots)."""
    l, k = spec.rank, spec.vertex
    n = l - k
    yc = eta_y.chart
    zc = z_chart(spec)
    if p_list is None:
        p_list = solve_p_block(spec, eta_y)
    if bseries is None:
        bseries = b_coefficients(n)

    forward: Dict[str, Poly] = {"E": Poly.variable(yc, "E")}
    for j in range(1, k + 1):
        forward[f"z{j}"] = Poly.variable(yc, f"y{j}") + p_list[j - 1]
    pullback: Dict[str, Poly] = {"E": Poly.variable(zc, "E")}
    for j in range(1, k + 1):
        expr = Poly.variable(zc, f"z{j}") - p_list[j - 1].substitute(pullback, zc)
        pullback[f"y{j}"] = expr
    for i in range(1, n + 1):
        acc = Poly.const(zc, 0)
        for alpha in range(0, n - i + 1):
            acc = acc + bseries[(i, i + alpha)] * Poly.variable(zc, f"z{k + i + alpha}")
        pullback[f"y{k + i}"] = acc
    fz: Dict[int, Poly] = {}
    for i in range(n, 0, -1):
        expr = Poly.variable(yc, f"y{k + i}")
        for alpha in range(1, n - i + 1):
            expr = expr - bseries[(i, i + alpha)] * fz[k + i + alpha]
        fz[k + i] = expr
    for idx, expr in fz.items():
        forward[f"z{idx}"] = expr

    cmap = CoordMap(yc, zc, pullback=pullback, forward=forward)
    cmap.verify()
    eta_z = transform_form(eta_y, cmap)
    _assert_pattern(eta_z, _expected_pattern(spec, zc, "z"), "z", BlockFormMismatch)
    return cmap, eta_z, p_list, bseries


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
    _assert_pattern(eta_w, _expected_pattern(spec, wc, "w"), "w", BlockFormMismatch)
    return cmap, eta_w


def gamma_w(spec: RootSystemSpec, eta_w: BilinearForm) -> List[List[List[Poly]]]:
    """Christoffel symbols of eta in the w-chart, with their structure checks."""
    l, k = spec.rank, spec.vertex
    n = l - k
    wc = eta_w.chart
    cov = covariant_form(eta_w)
    gammas = lower_christoffels(eta_w, cov)
    dim = l + 1
    # (1) vanishing rows: m in 1..k, l, l+1
    for m in list(range(0, k)) + [l - 1, l]:
        for i in range(dim):
            for j in range(dim):
                if not gammas[m][i][j].is_zero():
                    raise PropertyViolation(
                        f"gamma^{m + 1}_{{{i + 1},{j + 1}}} expected to vanish")
    allowed = {f"w{idx}" for idx in range(k + 3, l + 1)}
    if n >= 1 and k + 1 <= l - 1:
        # (2) gamma^{k+1}_{ij} = -d eta_{ij} / d w^l
        for i in range(dim):
            for j in range(dim):
                expected = -cov[i][j].diff(f"w{l}")
                if gammas[k][i][j] != expected:
                    raise PropertyViolation(
                        f"gamma^{k + 1}_{{{i + 1},{j + 1}}} != -d eta_ij/d w^l")
                _check_support(gammas[k][i][j], allowed, "property (2)")
    # (3) polynomiality in w^{k+3}..w^l for middle m, i,j != l
    for m in range(k + 1, l - 1):
        for i in range(dim):
            for j in range(dim):
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
    for exps in p.terms:
        for v, e in zip(p.chart.vars, exps):
            if e and v.name not in allowed:
                raise PropertyViolation(f"{what}: stray variable {v.name} in {p!r}")
        for v, e in zip(p.chart.vars, exps):
            if e < 0:
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
    for j in range(k + 1, l):
        wj = Poly.variable(wc, f"w{j}")
        base = wj if j == k + 1 else s * wj
        arg_names = [f"w{m}" for m in range(max(j + 1, k + 2), l)]
        target = Fraction(k * (l - j), n)
        basis = monomials_of_weighted_degree(wc, arg_names, target)
        candidates = [s * Poly.monomial(wc, mono) for mono in basis]
        tau, _ = flat_candidate_solve(gammas_w, base, candidates, f"t^{j}")
        forward[f"t{j}"] = tau
        h = (tau - base).exact_div(s) if not (tau - base).is_zero() else Poly.const(wc, 0)
        h_polys[j] = h

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
    _assert_pattern(eta_t, _expected_pattern(spec, tc, "t"), "t", EtaPatternMismatch)
    return cmap, eta_t, h_polys


@dataclass
class FlatChartData:
    """All stages of the y -> t normalization for one structure."""

    spec: RootSystemSpec
    p_list: List[Poly]
    bseries: BSeries
    h_polys: Dict[int, Poly]
    z_map: CoordMap
    w_map: CoordMap
    t_map: CoordMap
    y_to_t: CoordMap
    eta_z: BilinearForm
    eta_w: BilinearForm
    eta_t: BilinearForm


def flat_pipeline(spec: RootSystemSpec, eta_y: BilinearForm) -> FlatChartData:
    z_map, eta_z, p_list, bseries = build_z_chart(spec, eta_y)
    w_map, eta_w = build_w_chart(spec, eta_z)
    gammas = gamma_w(spec, eta_w)
    t_map, eta_t, h_polys = solve_flat_chart(spec, eta_w, gammas)
    y_to_t = z_map.compose(w_map).compose(t_map)
    return FlatChartData(spec=spec, p_list=p_list, bseries=bseries, h_polys=h_polys,
                         z_map=z_map, w_map=w_map, t_map=t_map, y_to_t=y_to_t,
                         eta_z=eta_z, eta_w=eta_w, eta_t=eta_t)
