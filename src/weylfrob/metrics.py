"""The intersection form, its connection, and the flat pencil.

The fast path builds g and Gamma in the theta chart from the generating
functions

    (k-l) P(u) P(v) + (u^2+4u)/(u-v) P'(u) P(v) - (v^2+4v)/(u-v) P(u) P'(v)

(and the corresponding one-form identity with (u-v)^2 denominators for the
contravariant connection), performing all divisions exactly; both are checked
against a first-principles computation in the (zeta, E) chart.  Contravariant
tensors are transported between charts through exact inverse Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactalg import Chart, Matrix, Poly, contract, mat_det, mat_inverse_unit
from .orbitspace import (CoordMap, extend_with_uv, generator_map, inject,
                         theta_chart, theta_map, y_chart, zeta_chart)
from .rootdata import RootSystemSpec


class ClosedFormMismatch(ArithmeticError):
    """eta from differentiation disagrees with its closed form."""


class DetMismatch(ArithmeticError):
    """det(eta) disagrees with the closed form."""


@dataclass
class BilinearForm:
    """Symmetric matrix of contravariant metric components over a chart."""

    chart: Chart
    mat: Matrix

    @property
    def dim(self) -> int:
        return len(self.mat)

    def is_symmetric(self) -> bool:
        n = self.dim
        return all(self.mat[i][j] == self.mat[j][i] for i in range(n) for j in range(i))

    def map_entries(self, fn) -> "BilinearForm":
        return BilinearForm(self.chart, [[fn(e) for e in row] for row in self.mat])


@dataclass
class ChristoffelContra:
    """Contravariant connection components Gamma^{ij}_m over a chart."""

    chart: Chart
    arr: List[List[List[Poly]]]

    @property
    def dim(self) -> int:
        return len(self.arr)

    def map_entries(self, fn) -> "ChristoffelContra":
        return ChristoffelContra(self.chart,
                                 [[[fn(e) for e in row] for row in plane]
                                  for plane in self.arr])


@dataclass
class FlatPencil:
    """The pair (g, eta) with their connection data on the y-chart."""

    chart: Chart
    g: BilinearForm
    eta: BilinearForm
    gamma_g: ChristoffelContra
    gamma_eta: ChristoffelContra


# ---------------------------------------------------------------------------
# Generating-function fast path in the theta chart
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
    buckets: Dict[Tuple[int, int], Dict[tuple, Fraction]] = {}
    for exps, c in gen.terms.items():
        i = l - exps[iu]
        j = l - exps[iv]
        if not (0 <= i <= l and 0 <= j <= l):
            raise ArithmeticError("generating function has stray u/v powers")
        rest = tuple(e for p, e in enumerate(exps) if p not in (iu, iv))
        buckets.setdefault((i, j), {})[rest] = c
    out = {}
    for key, terms in buckets.items():
        out[key] = Poly(theta, terms)
    return out


def g_theta(spec: RootSystemSpec) -> BilinearForm:
    """The metric in the theta chart; entries are quadratic in theta."""
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
    gen = Pu * Pv * (k - l) + numerator.exact_div(u - v)
    entries = _extract_uv(gen, l, tc)
    mat = [[entries.get((i, j), Poly.const(tc, 0)) for j in range(l + 1)]
           for i in range(l + 1)]
    return BilinearForm(tc, mat)


def gamma_theta(spec: RootSystemSpec) -> ChristoffelContra:
    """The contravariant connection in the theta chart; entries linear in theta."""
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
        gen = Pu * v ** (l - m) * (k - l) + (a * u_minus_v + b).exact_div(u_minus_v ** 2)
        for (i, j), poly in _extract_uv(gen, l, tc).items():
            arr[i][j][m] = poly
    return ChristoffelContra(tc, arr)


# ---------------------------------------------------------------------------
# Transport of contravariant tensors
# ---------------------------------------------------------------------------

def transform_form(form: BilinearForm, cmap: CoordMap) -> BilinearForm:
    """Contravariant 2-tensor components in the target chart of the map."""
    if form.chart != cmap.source:
        raise ValueError("form does not live on the map's source chart")
    J = mat_inverse_unit(cmap.jacobian_pullback())
    zero = Poly.const(cmap.target, 0)
    gsub = [[cmap.push(e) if not e.is_zero() else zero for e in row]
            for row in form.mat]
    return BilinearForm(cmap.target, contract(J, contract(J, gsub, 0), 1))


def transform_christoffel(gamma: ChristoffelContra, cmap: CoordMap,
                          g_target: BilinearForm) -> ChristoffelContra:
    """Contravariant connection components in the target chart.

    Gamma'^{ij}_m = J^i_u J^j_c K^q_m Gamma^{uc}_q - g'^{ia} J^j_c d_a(K^c_m),
    with K the pullback Jacobian, J its exact inverse and g' the transported
    metric (all expressed over the target chart).
    """
    if gamma.chart != cmap.source:
        raise ValueError("connection does not live on the map's source chart")
    K = cmap.jacobian_pullback()
    J = mat_inverse_unit(K)
    n = gamma.dim
    zero = Poly.const(cmap.target, 0)
    gsub = [[[cmap.push(e) if not e.is_zero() else zero for e in row]
             for row in plane] for plane in gamma.arr]
    K_t = [[K[q][m] for q in range(n)] for m in range(n)]
    tens = contract(K_t, contract(J, contract(J, gsub, 0), 1), 2)
    # inhomogeneous part; dK[a][c][m] = d_a K^c_m
    dK = [[[K[c][m].coord_diff(a) for m in range(n)] for c in range(n)]
          for a in range(n)]
    inhom = contract(J, contract(g_target.mat, dK, 0), 1)
    out = [[[t - h for t, h in zip(t_row, h_row)]
            for t_row, h_row in zip(t_plane, h_plane)]
           for t_plane, h_plane in zip(tens, inhom)]
    return ChristoffelContra(cmap.target, out)


# ---------------------------------------------------------------------------
# eta: definition, closed form, determinant, linearity
# ---------------------------------------------------------------------------

def eta_from_g(g_y: BilinearForm, spec: RootSystemSpec) -> BilinearForm:
    """eta^{ij} = d g^{ij} / d y^k."""
    name = f"{g_y.chart.vars[0].name[0]}{spec.vertex}"
    return g_y.map_entries(lambda p: p.diff(name))


def eta_closed_form(spec: RootSystemSpec, chart: Optional[Chart] = None) -> BilinearForm:
    """The block closed form of eta, entries R_j, P_j, Q_m (y^0 = 1 convention)."""
    l, k = spec.rank, spec.vertex
    n = l - k
    if chart is None:
        chart = y_chart(spec)
    pfx = chart.vars[0].name[0]
    E = Poly.variable(chart, "E")

    def yv(j: int) -> Poly:
        return Poly.const(chart, 1) if j == 0 else Poly.variable(chart, f"{pfx}{j}")

    def R(j: int) -> Poly:
        return 4 * (k - j + 1) * yv(j - 1) * E + (k - j) * yv(j)

    def P(j: int) -> Poly:
        return 4 * (k - j + 1) * yv(j - 1) * E

    def Q(m: int) -> Poly:
        out = 4 * m * yv(k + m)
        if m != n:
            out = out + (m + 1) * yv(k + m + 1)
        return out

    size = l + 1
    zero = Poly.const(chart, 0)
    mat = [[zero] * size for _ in range(size)]

    def put(i: int, j: int, val: Poly):
        mat[i - 1][j - 1] = val
        mat[j - 1][i - 1] = val

    for i in range(1, k):
        for j in range(i, k):
            s = i + j
            if s == k:
                put(i, j, Poly.const(chart, k))
            elif s > k:
                put(i, j, R(s - k))
    for i in range(1, k + 1):
        put(i, k, P(i))
    put(k, l + 1, Poly.const(chart, 1))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i + j - 1 <= n:
                put(k + i, k + j, Q(i + j - 1))
    return BilinearForm(chart, mat)


def det_eta_closed_form(spec: RootSystemSpec, chart: Optional[Chart] = None) -> Poly:
    """Closed-form det(eta) with the corrected overall sign.

    The usual printed form of this determinant carries (-1)^l; direct
    expansion of the block pattern gives the sign
    (-1)^(floor((k-1)/2) + 1 + n(n-1)/2) instead (n = l-k), which is what
    every symbolic determinant here reproduces.
    """
    l, k = spec.rank, spec.vertex
    n = l - k
    if chart is None:
        chart = y_chart(spec)
    pfx = chart.vars[0].name[0]
    sign = -1 if (((k - 1) // 2) + 1 + n * (n - 1) // 2) % 2 else 1
    coeff = Fraction(sign) * k ** (k - 1) * 4 ** n * (n ** n if n else 1)
    return Poly.monomial(chart, {f"{pfx}{l}": n}, coeff)


def det_eta_check(spec: RootSystemSpec, eta: BilinearForm) -> Poly:
    """Symbolic det(eta) asserted against the closed form; returns the determinant."""
    det = mat_det(eta.mat)
    expected = det_eta_closed_form(spec, eta.chart)
    if det != expected:
        raise DetMismatch(f"det(eta) = {det!r}, closed form gives {expected!r}")
    return det


def eta_closed_form_check(spec: RootSystemSpec, eta: BilinearForm) -> None:
    expected = eta_closed_form(spec, eta.chart)
    n = eta.dim
    for i in range(n):
        for j in range(n):
            if eta.mat[i][j] != expected.mat[i][j]:
                raise ClosedFormMismatch(
                    f"eta[{i + 1}][{j + 1}] = {eta.mat[i][j]!r} differs from closed "
                    f"form {expected.mat[i][j]!r}")


def linearity_check(g_y: BilinearForm, gamma_y: ChristoffelContra,
                    spec: RootSystemSpec) -> bool:
    """g and Gamma in the y-chart are at most linear in y^k."""
    name = f"y{spec.vertex}"
    for row in g_y.mat:
        for entry in row:
            if not entry.diff(name).diff(name).is_zero():
                return False
    for plane in gamma_y.arr:
        for row in plane:
            for entry in row:
                if not entry.diff(name).diff(name).is_zero():
                    return False
    return True


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
    """g_theta equals (dP(u), dP(v)) computed from the mu-chart derivatives."""
    l, k = spec.rank, spec.vertex
    work = extend_with_uv(zeta_chart(spec))
    Pu, Pau, _ = _zeta_products(spec, work, "u")
    Pv, Pav, _ = _zeta_products(spec, work, "v")
    zs = [Poly.variable(work, f"zeta{j}") for j in range(1, l + 1)]
    rhs = k * Pu * Pv
    for a in range(l):
        rhs = rhs - (zs[a] ** 2 - 4 * zs[a]) * Pau[a] * Pav[a]
    g_th = g_theta(spec)
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
        raise ArithmeticError(f"g_theta fails the first-principles identity for {spec.label()}")


def first_principles_gamma_check(spec: RootSystemSpec) -> None:
    """gamma_theta equals the mu-chart one-form expansion, component by component."""
    l, k = spec.rank, spec.vertex
    work = extend_with_uv(zeta_chart(spec))
    Pu, Pau, _ = _zeta_products(spec, work, "u")
    Pv, Pav, Pabv = _zeta_products(spec, work, "v")
    zs = [Poly.variable(work, f"zeta{j}") for j in range(1, l + 1)]
    Ek = Poly.variable(work, "E") ** k
    gam = gamma_theta(spec)
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
                f"gamma_theta fails the dmu_{c + 1} identity for {spec.label()}")

    # dmu_{l+1} component
    lhs = Poly.const(work, 0)
    for m in range(l + 1):
        theta_m = Ek * _esym_or_one(zs, m, work)
        lhs = lhs + gens[m] * (k * theta_m)
    rhs = k * k * Pu * Pv
    for a in range(l):
        rhs = rhs - k * (zs[a] ** 2 - 4 * zs[a]) * Pau[a] * Pav[a]
    if lhs != rhs:
        raise ArithmeticError(f"gamma_theta fails the dmu_(l+1) identity for {spec.label()}")


def _esym_or_one(values, j: int, chart: Chart) -> Poly:
    from .orbitspace import elementary_symmetric

    if j == 0:
        return Poly.const(chart, 1)
    if not values:
        return Poly.const(chart, 0)
    return elementary_symmetric(values, j)


def _theta_in_zeta(spec: RootSystemSpec, work: Chart) -> Dict[str, Poly]:
    gen = generator_map(spec)
    tmap = theta_map(spec)
    return {f"th{j}": inject(gen.pull(tmap.pullback[f"th{j}"]), work)
            for j in range(spec.rank + 1)}


# ---------------------------------------------------------------------------
# Pencil assembly
# ---------------------------------------------------------------------------

def build_pencil(spec: RootSystemSpec) -> FlatPencil:
    """g, Gamma, eta and gamma_eta on the y-chart via the theta fast path."""
    tmap = theta_map(spec)
    g_y = transform_form(g_theta(spec), tmap)
    gamma_y = transform_christoffel(gamma_theta(spec), tmap, g_y)
    eta = eta_from_g(g_y, spec)
    name = f"y{spec.vertex}"
    gamma_eta = gamma_y.map_entries(lambda p: p.diff(name))
    return FlatPencil(g_y.chart, g_y, eta, gamma_y, gamma_eta)
