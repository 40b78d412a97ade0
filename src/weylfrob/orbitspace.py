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
  in which every zeta_a of both families is an honest Laurent polynomial.
  The oracle pairs the zeta_a there from the definition and checks that
  they pair diagonally, as zeta_a (4 - zeta_a) (``compute_g_direct``); a
  y-chart form is then compared with that closed form in the zeta chart,
  through the generator map and its Jacobian (``frobenius.oracle_check``).
  Nothing is solved for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence

from .exactalg import (Chart, ChartMismatch, Matrix, Poly, VarSpec, contract, rat,
                       substitute_all)
from .rootdata import ExtendedMetric, RootSystemSpec, build, degrees, flat_degrees


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


def y_chart(spec: RootSystemSpec) -> Chart:
    """The chart of the C_l generators, E = e^{y^{l+1}}.  A B_l structure
    has no chart of its own: it shares the C_l one (``frobenius.b_to_c``)."""
    if spec.family != "C":
        raise ValueError("y_chart covers the C family; a B_l structure "
                         "shares the C_l chart")
    return _indexed_chart("y", spec, degrees(spec), Fraction(1), laurent_last=True)


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


# ---------------------------------------------------------------------------
# Coordinate maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    def push(self, ps: Sequence[Poly]) -> List[Poly]:
        """Functions over the source chart in target variables, at one go."""
        if self.pullback is None:
            raise ValueError(f"map {self.source.name}->{self.target.name} has no pullback")
        if any(p.chart != self.source for p in ps):
            raise ChartMismatch("push expects polynomials over the source chart")
        return substitute_all(ps, self.pullback, target=self.target)

    def pull(self, ps: Sequence[Poly]) -> List[Poly]:
        """Functions over the target chart in source variables, at one go."""
        if self.forward is None:
            raise ValueError(f"map {self.source.name}->{self.target.name} has no forward")
        if any(p.chart != self.target for p in ps):
            raise ChartMismatch("pull expects polynomials over the target chart")
        return substitute_all(ps, self.forward, target=self.source)

    def verify(self):
        """Check that the stored directions compose to the identity."""
        if self.pullback is not None and self.forward is not None:
            for chart, there, back in ((self.target, self.forward, self.push),
                                       (self.source, self.pullback, self.pull)):
                names = [v.name for v in chart.vars]
                for name, got in zip(names, back([there[n] for n in names])):
                    if got != Poly.variable(chart, name):
                        raise ArithmeticError(
                            f"map {self.source.name}->{self.target.name}: round trip "
                            f"fails on {name!r}: {got!r}")

    def compose(self, other: "CoordMap") -> "CoordMap":
        """self: A->B composed with other: B->C, giving A->C by its pullback
        alone (transport needs no other direction)."""
        if self.target != other.source:
            raise ChartMismatch("compose requires matching middle chart")
        if self.pullback is None:
            raise ValueError(f"map {self.source.name}->{self.target.name} has no pullback")
        pullback = dict(zip(self.pullback, other.push(list(self.pullback.values()))))
        return CoordMap(self.source, other.target, pullback=pullback)

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


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generator_map(spec: RootSystemSpec) -> CoordMap:
    """The C_l generators y^j = E^{d_j} sigma_j(zeta) as a map (zeta,E) -> y.

    Only the forward direction is polynomial (symmetric functions cannot be
    inverted polynomially).  The map serves B_l too: applied to the B_l
    zeta's with E = e^{2 pi i c x_{l+1}} (c the log scale) it gives the
    B_l generators y^j, j < l, and the square of the last one, because
    the B_l degrees are d_j = c min(j, k) for j < l and d_l = c k / 2, and
    the half-zetas square to the zeta's.
    """
    if spec.family != "C":
        raise ValueError("generator_map covers the C family; a B_l structure "
                         "reads it through the C_l spec")
    zc = zeta_chart(spec)
    yc = y_chart(spec)
    d = degrees(spec)
    l = spec.rank
    forward: Dict[str, Poly] = {}
    for j in range(1, l + 1):
        # E^{d_j} times the C(l, j) square-free monomials of sigma_j(zeta)
        e = int(d[j - 1])
        forward[f"y{j}"] = Poly(zc, {tuple(int(a in picked) for a in range(l)) + (e,): 1
                                     for picked in combinations(range(l), j)})
    forward["E"] = Poly.variable(zc, "E")
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


# ---------------------------------------------------------------------------
# First-principles oracle in the x-space Laurent chart
# ---------------------------------------------------------------------------

class OracleMismatch(ArithmeticError):
    """The metric disagrees with its first-principles pairings."""


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


def oracle_pairing(metric: ExtendedMetric, funcs: Sequence[Poly],
                   log_scale: Fraction) -> Matrix:
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


def compute_g_direct(spec: RootSystemSpec, log_scale: Fraction) -> Matrix:
    """The intersection form over the zeta chart, from the definition.

    Pairs the zeta_a (and the log coordinate, scaled by ``log_scale`` = c)
    under the extended metric in the oracle chart, and checks the closed
    form: zeta_a (4 - zeta_a) on the diagonal and 0 off it.  Returns that
    closed form over ``zeta_chart(spec)``, with -c^2 m_rr at (log, log);
    raises OracleMismatch naming the first pairing that differs.  Independent
    of the generating-function fast path.
    """
    l = spec.rank
    metric = build(spec)
    zetas = zeta_exprs(spec, oracle_chart(spec))
    pairings = oracle_pairing(metric, zetas, log_scale)
    names = [f"zeta{a}" for a in range(1, l + 1)] + ["the log coordinate"]
    for i in range(l):  # the form is symmetric; (log, log) is set, not paired
        for j, got in enumerate(pairings[i]):
            if got != (zetas[i] * (4 - zetas[i]) if i == j else 0):
                raise OracleMismatch(f"{spec.label()}: the pairing of {names[i]} and "
                                     f"{names[j]} differs from its closed form")
    zc = zeta_chart(spec)
    form: Matrix = [[Poly.const(zc, 0)] * (l + 1) for _ in range(l + 1)]
    for a in range(l):
        zeta = Poly.variable(zc, names[a])
        form[a][a] = zeta * (4 - zeta)
    form[l][l] = Poly.const(zc, -rat(log_scale) ** 2 * metric[(l, l)])
    return form
