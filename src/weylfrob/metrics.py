"""The intersection form, its connection, and the flat pencil.

The pencil is written straight into the y chart.  In the theta chart,
with P(u) = sum_p theta^p u^(l-p), the entry (i, j) of g is the
coefficient of u^(l-i) v^(l-j) in

    (k-l) P(u) P(v) + ((u^2+4u) P'(u) P(v) - (v^2+4v) P(u) P'(v)) / (u-v)

and that of the contravariant connection Gamma_m the same coefficient of
the one-form identity with a (u-v)^2 denominator; both reduce to integer
tables of divided differences (``metric_y`` and ``transform_christoffel``
state them).  The generating functions are kept in the tests as the
reference.  With theta^0 = E^k, theta^p = y^p E^(k-p) for p < k and
theta^p = y^p above, every entry of the Jacobian K of theta -> y and of
its inverse J is one known term.  So a theta^p theta^q term of g lands on
the key of y^p y^q E^(s_p+s_q) and a theta^p term of Gamma on that of
y^p E^(s_p) (s_0 = k, s_p = max(k-p, 0)); J g J^T and J J K Gamma are
integer key shifts over the denominator k^2, and the inhomogeneous term
-g J dK of the connection is three rules in the log slots.  No Jacobian,
inverse, substitution or theta-chart tensor is formed.

Other contravariant 2-tensors are transported between charts through
exact inverse Jacobians (``transform_form``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .exactalg import (Chart, Matrix, Poly, congruence, mat_det, mat_inverse_unit,
                       sum_products)
from .orbitspace import CoordMap, y_chart
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
# The pencil in the y chart by closed-form index rules
# ---------------------------------------------------------------------------

def _theta_rules(spec: RootSystemSpec, yc: Chart):
    """The index rules of theta^p = y^p E^(s_p) over the y chart ``yc``.

    Every entry of the Jacobian K of this map and of its inverse J is one
    term: K^p_(p) = E^(s_p), K^0_log = k E^k and K^p_log = s_p y^p E^(s_p);
    J^(p)_p = E^(-s_p), J^log_0 = E^(-k)/k and J^(p)_0 = -(s_p/k) y^p E^(-k).
    Returns the key of 1, each theta^p's key offset (that of y^p E^(s_p)),
    s, and those entries: j_col[u] lists (i, k J^i_u, key offset) and
    k_row[q] lists (m, K^q_m, key offset).
    """
    l, k = spec.rank, spec.vertex
    n = l + 1
    # every exponent and degree of a product below sums four, each at most k
    # in size, so packing that sum once guards every key
    yc.pack([0] * l + [4 * k])
    origin = yc.pack([0] * n)

    def offset(p: int, e: int) -> int:  # y^p E^e, y^0 = 1
        return yc.pack([int(p == j) for j in range(1, n)] + [e]) - origin

    s = [k] + [max(k - p, 0) for p in range(1, n)]
    image = [offset(p, s[p]) for p in range(n)]
    slot = [l] + list(range(l))  # theta^p's y coordinate: log for p = 0, y^p else
    j_col: List[list] = [[] for _ in range(n)]
    k_row: List[list] = [[] for _ in range(n)]
    for p in range(n):
        j_col[p].append((slot[p], k if p else 1, offset(0, -s[p])))
        k_row[p].append((slot[p], 1 if p else k, offset(0, s[p])))
        if p and s[p]:
            j_col[0].append((p - 1, -s[p], offset(p, -k)))
            k_row[p].append((l, s[p], offset(p, s[p])))
    return origin, image, s, j_col, k_row


def metric_y(spec: RootSystemSpec) -> BilinearForm:
    """The intersection form g in the y chart.

    For p <= q the theta^p theta^q coefficient of g^{ij} is k-p at
    i+j = p+q with i in {p, q}, q-p at i+j = p+q with p < i < q, and
    4(q-p) at i+j = p+q+1 with p < i <= q; no two of these share an entry.
    Each goes to the key of y^p y^q E^(s_p+s_q) and through
    g'^{ab} = J^a_i J^b_j g^{ij}, over the denominator k^2; g' is
    symmetric, so only its entries a <= b are formed."""
    l, k = spec.rank, spec.vertex
    yc, n = y_chart(spec), l + 1
    origin, image, _, j_col, _ = _theta_rules(spec, yc)
    zero = Poly.const(yc, 0)
    acc = [[{} for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            t = origin + image[p] + image[q]
            for i in range(p, q + 1):
                for j, c in ((p + q - i, k - p if i in (p, q) else q - p),
                             (p + q + 1 - i, 4 * (q - p) if i > p else 0)):
                    for a, x, ka in j_col[i] if c else ():
                        for b, y, kb in j_col[j]:
                            if a <= b:
                                cell, key = acc[a][b], t + ka + kb
                                cell[key] = cell.get(key, 0) + x * y * c
    upper = [[Poly.from_packed(yc, e, k * k, 4 * k) if e else zero for e in row]
             for row in acc]
    return BilinearForm(yc, [[upper[min(a, b)][max(a, b)] for b in range(n)]
                             for a in range(n)])


def transform_christoffel(spec: RootSystemSpec, g_y: BilinearForm) -> ChristoffelContra:
    """The contravariant connection of g in the y chart of ``g_y``.

    With lo = min(p, m) and hi = max(p, m), the theta^p coefficient of
    Gamma^{ij}_m is k-lo at (i, j) = (p, m), |m-i| at j = p+m-i for
    lo < i < hi, and sgn(m-p) (4(m-i)+2) at j = p+m+1-i for lo < i <= hi;
    no two of these share an entry.  Each goes to the key of y^p E^(s_p)
    and through Gamma'^{ab}_r = J^a_i J^b_j K^m_r Gamma^{ij}_m, over k^2.
    The inhomogeneous term -g'^{ia} J^j_c d_a(K^c_m) is nonzero only in
    the log slots: (log, log) loses k g^{i,log}, ((p), (p)) loses
    s_p g^{i,log} and ((p), log) loses s_p g^{i,(p)} + s_p (s_p - k) y^p
    g^{i,log}.
    """
    l, k = spec.rank, spec.vertex
    yc, n = g_y.chart, l + 1
    if yc != y_chart(spec):
        raise ValueError("expected g on the y chart of the spec")
    origin, image, s, j_col, k_row = _theta_rules(spec, yc)
    zero = Poly.const(yc, 0)
    acc = [[[{} for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for p in range(n):
        t = origin + image[p]
        for m in range(n):
            lo, hi, sign = min(p, m), max(p, m), (m > p) - (m < p)
            terms = ([(p, m, k - lo)]
                     + [(i, p + m - i, abs(m - i)) for i in range(lo + 1, hi)]
                     + [(i, p + m + 1 - i, sign * (4 * (m - i) + 2))
                        for i in range(lo + 1, hi + 1)])
            for i, j, c in terms:
                for a, x, ka in j_col[i] if c else ():
                    for b, y, kb in j_col[j]:
                        for r, z, kr in k_row[m]:
                            cell, key = acc[a][b][r], t + ka + kb + kr
                            cell[key] = cell.get(key, 0) + x * y * z * c
    arr = [[[Poly.from_packed(yc, a, k * k, 4 * k) if a else zero for a in row]
            for row in plane] for plane in acc]
    g = g_y.mat
    for i in range(n):
        arr[i][l][l] -= k * g[i][l]
        for p in range(1, k):
            arr[i][p - 1][p - 1] -= s[p] * g[i][l]
            arr[i][p - 1][l] = sum_products(yc, [(1, arr[i][p - 1][l]), (-s[p], g[i][p - 1]),
                                                 (s[p] * (k - s[p]) * yc.var(f"y{p}"), g[i][l])])
    return ChristoffelContra(yc, arr)


# ---------------------------------------------------------------------------
# Transport of contravariant 2-tensors
# ---------------------------------------------------------------------------

def transform_form(form: BilinearForm, cmap: CoordMap,
                   linear: Optional[Tuple[str, BilinearForm]] = None) -> BilinearForm:
    """Symmetric contravariant 2-tensor components in the target chart of the
    map (ValueError for a form that is not symmetric): the entries i <= j
    pushed at once, then J g J^T by ``congruence``.  With ``linear`` =
    (x, eta_t) the form is A + x eta, A and eta free of the source variable
    x (else ``Poly.split_linear`` raises ValueError), and eta_t is eta
    transported: only A is, and x's image times eta_t is added."""
    if form.chart != cmap.source:
        raise ValueError("form does not live on the map's source chart")
    g, n = form.mat, form.dim
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise ValueError("form is not symmetric")
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    entries = [g[i][j] for i, j in upper]
    if linear is not None:
        entries = [e.split_linear(linear[0])[0] for e in entries] + [form.chart.var(linear[0])]
    pushed = cmap.push(entries)
    half = dict(zip(upper, pushed))
    out = congruence(mat_inverse_unit(cmap.jacobian_pullback()),
                     [[half[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    if linear is not None:
        x_t, eta_t = pushed[-1], linear[1].mat
        for i, j in upper:
            if eta_t[i][j]._nums:
                out[i][j] = out[j][i] = sum_products(cmap.target,
                                                     ((1, out[i][j]), (eta_t[i][j], x_t)))
    return BilinearForm(cmap.target, out)


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
    """g and Gamma in the y-chart are at most linear in y^k: every exponent
    of y^k, read off the packed keys by ``Poly.split_linear``, is 0 or 1."""
    name = f"y{spec.vertex}"
    try:
        for entry in [e for row in g_y.mat for e in row] + \
                [e for plane in gamma_y.arr for row in plane for e in row]:
            entry.split_linear(name)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Pencil assembly
# ---------------------------------------------------------------------------

def build_pencil(spec: RootSystemSpec) -> FlatPencil:
    """g, its connection Gamma and eta = dg/dy^k on one y chart, by the
    closed-form index rules."""
    g_y = metric_y(spec)
    gamma_y = transform_christoffel(spec, g_y)
    return FlatPencil(g_y.chart, g_y, eta_from_g(g_y, spec), gamma_y)
