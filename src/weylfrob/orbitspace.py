"""Charts and invariant generators on the orbit space.

Variable conventions (0-based positions vs 1-based paper indices):

* y/z/w/t charts have ring variables ``y1..yl`` plus ``E`` = exp of the log
  coordinate ``y{l+1}``; coordinate position p corresponds to index p+1.
* the theta chart has ring variables ``th0..thl`` (no log coordinate);
  position j corresponds to theta^j.
* the zeta chart carries the shifted exponentials ``zeta1..zetal`` plus ``E``
  with log coordinate ``mu``; it is only used for symbolic verification.
* the oracle chart carries half-step Laurent variables ``d1..dl`` (for
  exp(i*pi*x_a)) and the quarter variable ``r`` (for exp(i*pi*x_{l+1}/2)),
  which makes every generator of both families an honest Laurent polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import (Chart, ChartMismatch, Matrix, Poly, VarSpec, contract,
                       monomials_of_weighted_degree, rat, solve_linear)
from .rootdata import ExtendedMetric, RootSystemSpec, build, degrees, flat_degrees


class ReexpressionFailed(ArithmeticError):
    """An invariant could not be rewritten in the generator chart."""


class ExpansionIdentityError(ArithmeticError):
    """P(u) failed its defining product expansion."""


# ---------------------------------------------------------------------------
# Chart builders
# ---------------------------------------------------------------------------

def _indexed_chart(prefix: str, spec: RootSystemSpec, weights: Sequence[Fraction],
                   e_weight: Fraction, laurent_last: bool) -> Chart:
    l = spec.rank
    varspecs = [VarSpec(f"{prefix}{j}", rat(weights[j - 1]),
                        laurent=(laurent_last and j == l))
                for j in range(1, l + 1)]
    varspecs.append(VarSpec("E", rat(e_weight), laurent=True))
    return Chart(prefix, varspecs, log_coord=f"{prefix}{l + 1}", exp_var="E")


def exp_granularity(spec: RootSystemSpec) -> Fraction:
    """The step of the chart's exponential variable as a fraction of y^{l+1}.

    For C_l (and B_l with k < l) the generator twists are integer multiples
    of y^{l+1} and E = e^{y^{l+1}}.  For B_l with k = l the degrees d_j are
    quarter-integers, so the invariant ring needs E = e^{y^{l+1}/4}.
    """
    if spec.family == "B" and spec.vertex == spec.rank:
        return Fraction(1, 4)
    return Fraction(1)


def y_chart(spec: RootSystemSpec) -> Chart:
    return _indexed_chart("y", spec, degrees(spec), exp_granularity(spec),
                          laurent_last=True)


def z_chart(spec: RootSystemSpec) -> Chart:
    return _indexed_chart("z", spec, degrees(spec), Fraction(1), laurent_last=True)


def w_chart(spec: RootSystemSpec) -> Chart:
    """The radical stage chart; w^l is the Laurent generator s with z^l = s^{2(l-k)}.

    Weights stay in the y-grading (deg E = 1).  For k = l the w-stage is the
    identity and this chart coincides with the z-chart up to names.
    """
    l, k = spec.rank, spec.vertex
    n = l - k
    if n == 0:
        return _indexed_chart("w", spec, degrees(spec), Fraction(1), laurent_last=True)
    weights: List[Fraction] = [Fraction(j) for j in range(1, k + 1)]
    if n >= 2:
        weights.append(Fraction(k * (2 * n - 1), 2 * n))       # w^{k+1}
        for j in range(k + 2, l):
            weights.append(Fraction(k * (l - j), n))           # middle block
    weights.append(Fraction(k, 2 * n))                         # w^l = s
    return _indexed_chart("w", spec, weights, Fraction(1), laurent_last=True)


def t_chart(spec: RootSystemSpec) -> Chart:
    l, k = spec.rank, spec.vertex
    return _indexed_chart("t", spec, flat_degrees(l, k)[:l], Fraction(1, k),
                          laurent_last=True)


def theta_chart(spec: RootSystemSpec) -> Chart:
    k = spec.vertex
    varspecs = [VarSpec(f"th{j}", Fraction(k)) for j in range(spec.rank + 1)]
    return Chart("theta", varspecs)


def zeta_chart(spec: RootSystemSpec) -> Chart:
    varspecs = [VarSpec(f"zeta{j}", Fraction(0)) for j in range(1, spec.rank + 1)]
    varspecs.append(VarSpec("E", Fraction(1), laurent=True))
    return Chart("zeta", varspecs, log_coord="mu", exp_var="E")


def oracle_chart(spec: RootSystemSpec) -> Chart:
    varspecs = [VarSpec(f"d{a}", Fraction(0), laurent=True)
                for a in range(1, spec.rank + 1)]
    varspecs.append(VarSpec("r", Fraction(0), laurent=True))
    return Chart("oracle", varspecs)


def extend_with_uv(chart: Chart, tag: str = "uv") -> Chart:
    """Clone a chart with two extra weight-0 variables u, v (for generating functions)."""
    varspecs = list(chart.vars) + [VarSpec("u", Fraction(0)), VarSpec("v", Fraction(0))]
    return Chart(f"{chart.name}_{tag}", varspecs, log_coord=chart.log_coord,
                 exp_var=chart.exp_var)


def inject(p: Poly, target: Chart) -> Poly:
    """Re-home a polynomial into a chart containing all its variables by name."""
    return p.substitute({}, target=target)


# ---------------------------------------------------------------------------
# Coordinate maps
# ---------------------------------------------------------------------------

@dataclass
class CoordMap:
    """An invertible polynomial chart change, stored in whichever directions
    are polynomial.

    ``pullback`` expresses the source ring variables as polynomials over the
    target chart (enough to transport contravariant tensors source->target);
    ``forward`` expresses the target ring variables over the source.  The log
    coordinates must correspond identically (E -> E).
    """

    source: Chart
    target: Chart
    pullback: Optional[Dict[str, Poly]] = None
    forward: Optional[Dict[str, Poly]] = None

    def push(self, p: Poly) -> Poly:
        """Re-express a function given over the source chart in target variables."""
        if self.pullback is None:
            raise ValueError(f"map {self.source.name}->{self.target.name} has no pullback")
        if p.chart != self.source:
            raise ChartMismatch("push expects a polynomial over the source chart")
        return p.substitute(self.pullback, target=self.target)

    def pull(self, p: Poly) -> Poly:
        """Re-express a function given over the target chart in source variables."""
        if self.forward is None:
            raise ValueError(f"map {self.source.name}->{self.target.name} has no forward")
        if p.chart != self.target:
            raise ChartMismatch("pull expects a polynomial over the target chart")
        return p.substitute(self.forward, target=self.source)

    def verify(self):
        """Check that the stored directions compose to the identity."""
        if self.pullback is not None and self.forward is not None:
            for name in [v.name for v in self.target.vars]:
                got = self.push(self.forward[name])
                if got != Poly.variable(self.target, name):
                    raise ArithmeticError(
                        f"map {self.source.name}->{self.target.name}: forward/pullback "
                        f"composition fails on {name!r}: {got!r}")
            for name in [v.name for v in self.source.vars]:
                got = self.pull(self.pullback[name])
                if got != Poly.variable(self.source, name):
                    raise ArithmeticError(
                        f"map {self.source.name}->{self.target.name}: pullback/forward "
                        f"composition fails on {name!r}: {got!r}")

    def compose(self, other: "CoordMap") -> "CoordMap":
        """self: A->B composed with other: B->C, giving A->C."""
        if self.target != other.source:
            raise ChartMismatch("compose requires matching middle chart")
        pullback = None
        if self.pullback is not None and other.pullback is not None:
            pullback = {u: other.push(expr) for u, expr in self.pullback.items()}
        forward = None
        if self.forward is not None and other.forward is not None:
            forward = {v: self.pull(other.forward[v]) for v in other.forward}
        return CoordMap(self.source, other.target, pullback=pullback, forward=forward)

    def jacobian_pullback(self) -> Matrix:
        """K[a][i] = d(source coord a)/d(target coord i), as Polys over the target.

        Requires the pullback direction; the log coordinate (when present)
        must map identically, contributing a unit row.
        """
        if self.pullback is None:
            raise ValueError("jacobian_pullback requires the pullback direction")
        src, tgt = self.source, self.target
        rows: Matrix = []
        for a, coord in enumerate(src.coords):
            if coord == src.log_coord:
                if tgt.log_coord is None:
                    raise ValueError("source has a log coordinate but target does not")
                expr = self.pullback.get(src.exp_var)
                if expr != Poly.variable(tgt, tgt.exp_var):
                    raise ValueError("log coordinates must correspond identically (E -> E)")
                rows.append([Poly.const(tgt, 1 if tgt.coords[i] == tgt.log_coord else 0)
                             for i in range(tgt.dim)])
            else:
                expr = self.pullback[coord]
                rows.append([expr.diff(tgt.coords[i]) for i in range(tgt.dim)])
        return rows


def identity_map(chart: Chart) -> CoordMap:
    ident = {v.name: Poly.variable(chart, v.name) for v in chart.vars}
    return CoordMap(chart, chart, pullback=dict(ident), forward=dict(ident))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def elementary_symmetric(values: Sequence[Poly], j: int) -> Poly:
    """sigma_j of the given ring elements (sigma_0 = 1)."""
    chart = values[0].chart
    coeffs = [Poly.const(chart, 1)]
    for v in values:
        nxt = [coeffs[0]]
        for i in range(1, len(coeffs) + 1):
            term = coeffs[i] if i < len(coeffs) else Poly.const(chart, 0)
            prev = coeffs[i - 1] * v
            nxt.append(term + prev)
        coeffs = nxt
    return coeffs[j] if j < len(coeffs) else Poly.const(chart, 0)


def generator_map(spec: RootSystemSpec) -> CoordMap:
    """The C_l generators y^j = E^{d_j} sigma_j(zeta) as a map (zeta,E) -> y.

    Only the forward direction is polynomial (symmetric functions cannot be
    inverted polynomially).  The B_l generators involve square roots of the
    zeta's and live inside the oracle chart instead.
    """
    if spec.family != "C":
        raise ValueError("generator_map covers the C family; B_l generators "
                         "are realized inside the oracle chart")
    zc = zeta_chart(spec)
    yc = y_chart(spec)
    d = degrees(spec)
    zs = [Poly.variable(zc, f"zeta{j}") for j in range(1, spec.rank + 1)]
    E = Poly.variable(zc, "E")
    forward: Dict[str, Poly] = {}
    for j in range(1, spec.rank + 1):
        forward[f"y{j}"] = (E ** int(d[j - 1])) * elementary_symmetric(zs, j)
    forward["E"] = E
    return CoordMap(zc, yc, pullback=None, forward=forward)


def theta_map(spec: RootSystemSpec) -> CoordMap:
    """theta^0 = E^k, theta^j = y^j E^{k-j} (j < k), theta^j = y^j (j >= k)."""
    yc = y_chart(spec)
    tc = theta_chart(spec)
    k = spec.vertex
    E = Poly.variable(yc, "E")
    pullback: Dict[str, Poly] = {"th0": E ** k}
    for j in range(1, spec.rank + 1):
        yj = Poly.variable(yc, f"y{j}")
        pullback[f"th{j}"] = yj * E ** (k - j) if j < k else yj
    return CoordMap(tc, yc, pullback=pullback, forward=None)


@dataclass
class GenPolyP:
    """Coefficients theta^0..theta^l of P(u) = sum u^{l-j} theta^j.

    Construction verifies the product expansion P(u) = E^k prod(u + zeta_j)
    symbolically in the auxiliary (zeta, E) chart.
    """

    spec: RootSystemSpec
    chart: Chart
    thetas: List[Poly]


def assemble_P(spec: RootSystemSpec) -> GenPolyP:
    if spec.family != "C":
        raise ValueError("the theta/P machinery is the C_l fast path")
    l, k = spec.rank, spec.vertex
    tc = theta_chart(spec)
    thetas = [Poly.variable(tc, f"th{j}") for j in range(l + 1)]

    # verification chart: (zeta, E, u, v)
    zc_uv = extend_with_uv(zeta_chart(spec))
    gen = generator_map(spec)
    tmap = theta_map(spec)
    theta_in_zeta = {f"th{j}": inject(gen.pull(tmap.pullback[f"th{j}"]), zc_uv)
                     for j in range(l + 1)}
    u = Poly.variable(zc_uv, "u")
    lhs = Poly.const(zc_uv, 0)
    for j in range(l + 1):
        lhs = lhs + u ** (l - j) * theta_in_zeta[f"th{j}"]
    rhs = Poly.variable(zc_uv, "E") ** k
    for j in range(1, l + 1):
        rhs = rhs * (u + Poly.variable(zc_uv, f"zeta{j}"))
    if lhs != rhs:
        raise ExpansionIdentityError(f"P(u) expansion identity fails for {spec.label()}")
    return GenPolyP(spec, tc, thetas)


# ---------------------------------------------------------------------------
# First-principles oracle in the x-space Laurent chart
# ---------------------------------------------------------------------------

def zeta_exprs(spec: RootSystemSpec, chart: Chart) -> List[Poly]:
    """The shifted invariants zeta_j as Laurent polynomials in d1..dl."""
    l = spec.rank
    out = []
    for j in range(1, l + 1):
        dj = Poly.variable(chart, f"d{j}")
        dj_prev = Poly.variable(chart, f"d{j - 1}") if j > 1 else Poly.const(chart, 1)
        if spec.family == "B" and j == l:
            # zeta_l = exp(2 i pi (x_{l-1} - 2 x_l)) + inverse + 2
            fwd = dj_prev ** 2 * dj.unit_inverse() ** 4
        else:
            fwd = dj ** 2 * dj_prev.unit_inverse() ** 2
        out.append(fwd + fwd.unit_inverse() + 2)
    return out


def half_zeta_exprs(spec: RootSystemSpec, chart: Chart) -> List[Poly]:
    """The square roots zeta_j^{1/2} = 2 cos(...) in the half-step chart (B_l)."""
    l = spec.rank
    out = []
    for j in range(1, l + 1):
        dj = Poly.variable(chart, f"d{j}")
        dj_prev = Poly.variable(chart, f"d{j - 1}") if j > 1 else Poly.const(chart, 1)
        if spec.family == "B" and j == l:
            half = dj_prev * dj.unit_inverse() ** 2
        else:
            half = dj * dj_prev.unit_inverse()
        out.append(half + half.unit_inverse())
    return out


def generator_exprs(spec: RootSystemSpec, chart: Chart) -> List[Poly]:
    """The generators y^1..y^l expanded in the oracle chart (E = r^4)."""
    l = spec.rank
    d = degrees(spec)
    zs = zeta_exprs(spec, chart)
    r = Poly.variable(chart, "r")
    out = []
    for j in range(1, l + 1):
        twist = r ** int(4 * d[j - 1])
        if spec.family == "B" and j == l:
            prod = Poly.const(chart, 1)
            for h in half_zeta_exprs(spec, chart):
                prod = prod * h
            out.append(twist * prod)
        else:
            out.append(twist * elementary_symmetric(zs, j))
    return out


def oracle_pairing(metric: ExtendedMetric, funcs: Sequence[Poly],
                   log_scale: Fraction = Fraction(1)) -> Matrix:
    """Pairings of the given functions (plus the log coordinate) under the
    invariant metric, computed from first principles in the oracle chart.

    ``funcs`` are Laurent polynomials in d1..dl, r; the last row/column is the
    log coordinate, whose x_{l+1}-derivative is 2*pi*i*log_scale.  All i*pi
    factors cancel rationally.
    """
    chart = funcs[0].chart
    l = len(funcs)
    c = rat(log_scale)
    m_rr = metric[(l, l)]

    def theta(f: Poly, a: int) -> Poly:
        name = f"d{a}" if a <= l else "r"
        return Poly.variable(chart, name) * f.diff(name)

    theta_v = [[theta(f, a) for a in range(1, l + 1)] for f in funcs]
    theta_r = [theta(f, l + 1) for f in funcs]
    size = l + 1
    g: Matrix = [[Poly.const(chart, 0)] * size for _ in range(size)]
    block = [[metric[(a, b)] for b in range(l)] for a in range(l)]
    # pair[j][i] = theta_v[i][a] m_ab theta_v[j][b]
    pair = contract(theta_v, contract(block, theta_v, 1), 1)
    quarter = Fraction(-1, 4)
    for i in range(l):
        for j in range(l):
            g[i][j] = (pair[j][i] * quarter
                       + theta_r[i] * theta_r[j] * (Fraction(-1, 16) * m_rr))
    for i in range(l):
        entry = theta_r[i] * (Fraction(-1, 4) * c * m_rr)
        g[i][l] = entry
        g[l][i] = entry
    g[l][l] = Poly.const(chart, -c * c * m_rr)
    return g


def reexpress(entry: Poly, target_chart: Chart, target_degree: Fraction,
              var_exprs: Dict[str, Poly]) -> Poly:
    """Rewrite an oracle-chart invariant as a polynomial over the target chart.

    Enumerates the finite monomial basis of the given weighted degree,
    expands each candidate through ``var_exprs`` and solves the exact linear
    system for the coefficients.
    """
    names = [v.name for v in target_chart.vars]
    candidates = monomials_of_weighted_degree(target_chart, names, target_degree)
    if not candidates and not entry.is_zero():
        raise ReexpressionFailed(f"no candidate monomials of degree {target_degree}")
    expansions = []
    cache: Dict[Tuple[str, int], Poly] = {}
    ochart = entry.chart

    def var_power(name: str, e: int) -> Poly:
        key = (name, e)
        if key not in cache:
            cache[key] = var_exprs[name] ** e
        return cache[key]

    for mono in candidates:
        x = Poly.const(ochart, 1)
        for name, e in mono.items():
            x = x * var_power(name, e)
        expansions.append(x)
    unknowns = [f"c{q}" for q in range(len(candidates))]
    equations: Dict[Tuple[int, ...], Dict[str, Fraction]] = {}
    for q, x in enumerate(expansions):
        for exps, coeff in x.terms.items():
            equations.setdefault(exps, {})[unknowns[q]] = \
                equations.get(exps, {}).get(unknowns[q], Fraction(0)) + coeff
    eqs = []
    keys = set(equations) | set(entry.terms)
    for exps in keys:
        eqs.append((equations.get(exps, {}), entry.terms.get(exps, Fraction(0))))
    result = solve_linear(eqs, unknowns)
    if result.kind != "unique":
        raise ReexpressionFailed(
            f"re-expression solve is {result.kind} (generator bug?)")
    out = Poly.const(target_chart, 0)
    for q, mono in enumerate(candidates):
        c = result.solution[unknowns[q]]
        if c:
            out = out + Poly.monomial(target_chart, mono, c)
    return out


def compute_g_direct(spec: RootSystemSpec, max_rank: int = 4):
    """The intersection form on the y-chart, from the definition.

    Differentiates the generators in the half-step Laurent chart, contracts
    with the extended metric, and re-expresses the invariant result in the
    y-chart by an exact linear solve.  Independent of the generating-function
    fast path.
    """
    from .metrics import BilinearForm  # local import to avoid a cycle

    if spec.rank > max_rank:
        raise ValueError(f"oracle bound exceeded: rank {spec.rank} > {max_rank}")
    metric, data = build(spec)
    ochart = oracle_chart(spec)
    funcs = generator_exprs(spec, ochart)
    ghat = oracle_pairing(metric, funcs, Fraction(1))
    yc = y_chart(spec)
    var_exprs = {f"y{j}": funcs[j - 1] for j in range(1, spec.rank + 1)}
    var_exprs["E"] = Poly.variable(ochart, "r") ** int(4 * exp_granularity(spec))
    wts = list(data.d) + [Fraction(0)]
    size = spec.rank + 1
    mat = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            target = wts[i] + wts[j]
            entry = reexpress(ghat[i][j], yc, target, var_exprs)
            mat[i][j] = entry
            mat[j][i] = entry
    return BilinearForm(yc, mat)
