"""The intersection form, its connection, and the flat pencil.

In the theta chart, with P(u) = sum_p theta^p u^(l-p), the entry (i, j) of
g is the coefficient of u^(l-i) v^(l-j) in the generating function

    (k-l) P(u) P(v) + ((u^2+4u) P'(u) P(v) - (v^2+4v) P(u) P'(v)) / (u-v)

and that of the contravariant connection Gamma_m the same coefficient of
the one-form identity with a (u-v)^2 denominator.  Their theta-coefficients
are divided differences D(x, y) = (u^x v^y - u^y v^x) / (u-v), a signed sum
of |x-y| monomials.  With a = l-p and b = l-q, the theta^p theta^q
coefficient of g is (k-l+a) u^a v^a for p = q and

    (k-l)(u^a v^b + u^b v^a) + a D(a+1, b) + b D(b+1, a) + 4(a-b) D(a, b)

for p < q; with alpha = l-p and beta = l-m, the theta^p coefficient of
Gamma_m is (k-l) u^alpha v^beta plus

    (u^alpha v^beta (alpha(u+4) - beta(v+4)) - (2u+uv+2v) D(alpha, beta)) / (u-v),

whose quotient, taken degree by degree as a prefix sum, has the
coefficients that ``gamma_theta`` states.  So ``g_theta`` and
``gamma_theta`` write integer tables and make one Poly per nonzero entry;
no polynomial is divided (the generating functions are kept in the tests
as the reference).

Contravariant tensors are transported between charts through exact
inverse Jacobians.  The connection's transport is one pass over the
nonzero terms (``exactalg.transform_sum``): theta^0 = E^k, theta^p =
y^p E^(k-p) for p < k and theta^p = y^p above, so from theta to y every
entry of the Jacobian, of its inverse and of its derivatives is one term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .exactalg import (Chart, Matrix, Poly, contract, mat_det, mat_inverse_unit,
                       transform_sum)
from .orbitspace import CoordMap, theta_chart, theta_map
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
# Closed-form coefficient tables in the theta chart
# ---------------------------------------------------------------------------

def g_theta(spec: RootSystemSpec) -> BilinearForm:
    """The metric in the theta chart; entries are quadratic in theta.

    For p <= q the theta^p theta^q coefficient of g^{ij} is k-p at i+j = p+q
    with i in {p, q}, q-p at i+j = p+q with p < i < q, and 4(q-p) at
    i+j = p+q+1 with p < i <= q; no two of these share an entry."""
    l, k = spec.rank, spec.vertex
    tc = theta_chart(spec)
    n = l + 1
    tab: List[List[Dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            key = tc.pack([(s == p) + (s == q) for s in range(n)])
            for i in range(p, q + 1):
                for j, c in ((p + q - i, k - p if i in (p, q) else q - p),
                             (p + q + 1 - i, 4 * (q - p) if i > p else 0)):
                    if c:
                        tab[i][j][key] = c
    return BilinearForm(tc, [[Poly.from_packed(tc, e, 1) for e in row] for row in tab])


def gamma_theta(spec: RootSystemSpec) -> ChristoffelContra:
    """The contravariant connection in the theta chart; entries linear in theta.

    With lo = min(p, m) and hi = max(p, m), the theta^p coefficient of
    Gamma^{ij}_m is k-lo at (i, j) = (p, m), |m-i| at j = p+m-i for
    lo < i < hi, and sgn(m-p) (4(m-i)+2) at j = p+m+1-i for lo < i <= hi;
    no two of these share an entry."""
    l, k = spec.rank, spec.vertex
    tc = theta_chart(spec)
    n = l + 1
    tab: List[List[List[Dict[int, int]]]] = [[[{} for _ in range(n)] for _ in range(n)]
                                             for _ in range(n)]
    for p in range(n):
        key = tc.pack([int(s == p) for s in range(n)])
        for m in range(n):
            lo, hi, sign = min(p, m), max(p, m), (m > p) - (m < p)
            terms = ([(p, m, k - lo)]
                     + [(i, p + m - i, abs(m - i)) for i in range(lo + 1, hi)]
                     + [(i, p + m + 1 - i, sign * (4 * (m - i) + 2))
                        for i in range(lo + 1, hi + 1)])
            for i, j, c in terms:
                if c:
                    tab[i][j][m][key] = c
    return ChristoffelContra(tc, [[[Poly.from_packed(tc, e, 1) for e in row] for row in plane]
                                  for plane in tab])


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
    metric (all expressed over the target chart).  Both sums go through one
    ``transform_sum``: Gamma's terms are composed with the pullback inside
    it, and only the nonzero entries of Gamma and of d_a K^c_m are visited,
    so a map whose Jacobian entries are single terms (theta -> y) costs a
    few integer products per term of Gamma.
    """
    if gamma.chart != cmap.source:
        raise ValueError("connection does not live on the map's source chart")
    K = cmap.jacobian_pullback()
    J = mat_inverse_unit(K)
    n = gamma.dim
    entries = {(u, c, q): e for u, plane in enumerate(gamma.arr)
               for c, row in enumerate(plane) for q, e in enumerate(row) if not e.is_zero()}
    dK = {}  # (a, c, m) -> d_a K^c_m, nonzero only
    for c, row in enumerate(K):
        for m, e in enumerate(row):
            if not e.is_zero():
                for a in range(n):
                    d = e.coord_diff(a)
                    if not d.is_zero():
                        dK[a, c, m] = d
    K_t = [list(col) for col in zip(*K)]
    arr = transform_sum(cmap.target, n, [(1, entries, (J, J, K_t), cmap.pullback),
                                         (-1, dK, (g_target.mat, J, None), None)])
    return ChristoffelContra(cmap.target, arr)


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
