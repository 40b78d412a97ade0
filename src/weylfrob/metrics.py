"""The intersection form, its connection, and the flat pencil.

The fast path builds g and Gamma in the theta chart from the generating
functions

    (k-l) P(u) P(v) + (u^2+4u)/(u-v) P'(u) P(v) - (v^2+4v)/(u-v) P(u) P'(v)

(and the corresponding one-form identity with (u-v)^2 denominators for the
contravariant connection), performing all divisions exactly.  Contravariant
tensors are transported between charts through exact inverse Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .exactalg import Chart, Matrix, Poly, contract, mat_det, mat_inverse_unit
from .orbitspace import CoordMap, extend_with_uv, theta_chart, theta_map
from .rootdata import RootSystemSpec


class BlockFormMismatch(ArithmeticError):
    """eta missed its block pattern in the y, z, w or t chart."""


class DetMismatch(ArithmeticError):
    """det(eta) disagrees with the closed form."""


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric matrix of contravariant metric components over a chart."""

    chart: Chart
    mat: Matrix

    @property
    def dim(self) -> int:
        return len(self.mat)

    def map_entries(self, fn) -> "BilinearForm":
        return BilinearForm(self.chart, [[fn(e) for e in row] for row in self.mat])


@dataclass(frozen=True)
class ChristoffelContra:
    """Contravariant connection components Gamma^{ij}_m over a chart."""

    chart: Chart
    arr: List[List[List[Poly]]]

    @property
    def dim(self) -> int:
        return len(self.arr)


@dataclass(frozen=True)
class FlatPencil:
    """The pair (g, eta) and the connection of g on the y-chart."""

    chart: Chart
    g: BilinearForm
    eta: BilinearForm
    gamma_g: ChristoffelContra


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
    unpack, pack = gen.chart.unpack, theta.pack
    buckets: Dict[Tuple[int, int], Dict[int, int]] = {}
    for key, c in gen.packed.items():
        exps = unpack(key)
        i = l - exps[iu]
        j = l - exps[iv]
        if not (0 <= i <= l and 0 <= j <= l):
            raise ArithmeticError("generating function has stray u/v powers")
        rest = tuple(e for p, e in enumerate(exps) if p not in (iu, iv))
        buckets.setdefault((i, j), {})[pack(rest)] = c
    return {key: Poly.from_packed(theta, nums, gen.den) for key, nums in buckets.items()}


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
    """Symmetric contravariant 2-tensor components in the target chart of the
    map: all entries pushed at once, then the entries i <= j of J g J^T."""
    if form.chart != cmap.source:
        raise ValueError("form does not live on the map's source chart")
    n = form.dim
    if any(form.mat[i][j] != form.mat[j][i] for i in range(n) for j in range(i)):
        raise ValueError("form is not symmetric")
    J = mat_inverse_unit(cmap.jacobian_pullback())
    flat = cmap.push([e for row in form.mat for e in row])
    half = contract(J, [flat[i * n:(i + 1) * n] for i in range(n)], 0)
    upper = [contract(J[i:], half[i], 0) for i in range(n)]  # upper[i][j - i]
    return BilinearForm(cmap.target, [[upper[min(i, j)][abs(j - i)] for j in range(n)]
                                      for i in range(n)])


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
    pushed = iter(cmap.push([e for plane in gamma.arr for row in plane for e in row]))
    gsub = [[[next(pushed) for _ in range(n)] for _ in range(n)] for _ in range(n)]
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
# eta: definition, block patterns, determinant, linearity
# ---------------------------------------------------------------------------

def eta_from_g(g_y: BilinearForm, spec: RootSystemSpec) -> BilinearForm:
    """eta^{ij} = d g^{ij} / d y^k."""
    name = f"{g_y.chart.vars[0].name[0]}{spec.vertex}"
    return g_y.map_entries(lambda p: p.diff(name))


def eta_pattern(spec: RootSystemSpec, chart: Chart, stage: str) -> Matrix:
    """eta's block pattern in the y, z, w or t chart (stage y/z/w/t).

    In the y chart it is the closed form with entries R_j, P_j and Q_m
    (y^0 = 1); the shear stage z zeroes the R/P slots and drops the tail of
    Q_m.  For l-k = 1 the generic w/t-stage displays would overlap at the
    (l,l) slot; the constructed value there is 1 (chain rule through
    s^2 = z^l).
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

    def var(j: int) -> Poly:
        return Poly.const(chart, 1) if j == 0 else Poly.variable(chart, f"{pfx}{j}")

    E = Poly.variable(chart, "E")
    for i in range(1, k):
        for j in range(i, k):
            r = i + j - k
            if r == 0:
                put(i, j, k)
            elif r > 0 and stage == "y":  # R_r
                put(i, j, 4 * (k - r + 1) * var(r - 1) * E + (k - r) * var(r))
    if stage == "y":
        for i in range(1, k + 1):  # P_i
            put(i, k, 4 * (k - i + 1) * var(i - 1) * E)
    put(k, l + 1, 1)
    if stage in ("y", "z"):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                m = i + j - 1
                if m <= n:  # Q_m, whose tail the z stage drops
                    q = 4 * m * var(k + m)
                    if stage == "y" and m != n:
                        q = q + (m + 1) * var(k + m + 1)
                    put(k + i, k + j, q)
    elif stage in ("w", "t"):
        if n == 1:
            put(l, l, 1)
        elif n >= 2:
            put(k + 1, l, 2)
            # the w chart carries s^-2 = (w^l)^-2 and the blocks m < n
            scale = Poly.monomial(chart, {f"{pfx}{l}": -2}) if stage == "w" else 1
            for i in range(2, n + 1):
                for j in range(i, n + 1):
                    m = i + j - 1
                    if m == n:
                        put(k + i, k + j, 4 * n * scale)
                    elif m < n and stage == "w":
                        put(k + i, k + j, 4 * m * scale * var(k + m))
    else:
        raise ValueError(stage)
    return mat


def assert_eta_pattern(spec: RootSystemSpec, eta: BilinearForm, stage: str) -> None:
    """eta against ``eta_pattern`` in its own chart, entry by entry;
    BlockFormMismatch names the first entry that differs."""
    expected = eta_pattern(spec, eta.chart, stage)
    for i, (got_row, want_row) in enumerate(zip(eta.mat, expected)):
        for j, (got, want) in enumerate(zip(got_row, want_row)):
            if got != want:
                raise BlockFormMismatch(
                    f"eta({stage})[{i + 1}][{j + 1}] = {got!r}, expected {want!r}")


def det_eta_closed_form(spec: RootSystemSpec, chart: Chart) -> Poly:
    """Closed-form det(eta) with the corrected overall sign.

    The usual printed form of this determinant carries (-1)^l; direct
    expansion of the block pattern gives the sign
    (-1)^(floor((k-1)/2) + 1 + n(n-1)/2) instead (n = l-k), which is what
    every symbolic determinant here reproduces.
    """
    l, k = spec.rank, spec.vertex
    n = l - k
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
# Pencil assembly
# ---------------------------------------------------------------------------

def build_pencil(spec: RootSystemSpec) -> FlatPencil:
    """g, its connection Gamma and eta = dg/dy^k on the y-chart via the theta
    fast path."""
    tmap = theta_map(spec)
    g_y = transform_form(g_theta(spec), tmap)
    gamma_y = transform_christoffel(gamma_theta(spec), tmap, g_y)
    return FlatPencil(g_y.chart, g_y, eta_from_g(g_y, spec), gamma_y)
