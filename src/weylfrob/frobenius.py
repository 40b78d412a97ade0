"""The Frobenius structure: potential, Euler field, and its verification.

In the flat chart the Euler field acts on the ring as the weight derivation
(the chart weights are exactly the flat degrees, with E carrying 1/k), so
L_E is the degree operator.  The potential is reconstructed by exact
antidifferentiation of the third-derivative tensor; the single monomial with
an explicit log coordinate, (t^k)^2 t^{l+1} / 2, is tracked separately and
never enters the polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactalg import Chart, Matrix, Poly, Rational, contract, solve_linear
from .flatcoords import FlatChartData, covariant_form, flat_pipeline
from .metrics import (BilinearForm, ChristoffelContra, FlatPencil, build_pencil,
                      transform_christoffel, transform_form)
from .orbitspace import (compute_g_direct, generator_exprs, oracle_chart,
                         oracle_pairing)
from .rootdata import RootSystemSpec, build, flat_degrees


class SymmetryViolation(ArithmeticError):
    """The third-derivative tensor is not totally symmetric."""


class IntegrabilityViolation(ArithmeticError):
    """Two routes to the same multiplication component disagree."""


class Inconsistent(ArithmeticError):
    """No single potential matches all third derivatives."""


class ShapeMismatch(ArithmeticError):
    """The potential does not have the required head + quadratic-tail shape."""


class OracleMismatch(ArithmeticError):
    """The B_l pullback disagrees with the B_l first-principles metric."""


@dataclass(frozen=True)
class EulerField:
    """Linear Euler field: coefficients dtilde_j on t^j plus a constant last leg.

    The last component is 1/k (the printed C4 k=2 example fixes the
    normalization; see the design notes)."""

    dtilde: Tuple[Rational, ...]
    last_component: Rational


@dataclass
class PotentialF:
    """F = (t^k)^2 t^{l+1} / 2 + poly, with poly free of explicit t^{l+1}."""

    chart: Chart
    vertex: int
    poly: Poly

    def head_description(self) -> Dict[str, object]:
        return {"monomial": {f"t{self.vertex}": 2, self.chart.log_coord: 1},
                "coefficient": Fraction(1, 2)}


@dataclass
class BIdentification:
    """How a B_l structure is pulled back from the C_l one."""

    spec: RootSystemSpec
    log_scale: Rational          # ybar^{l+1} = log_scale * y^{l+1}
    validated: bool              # oracle comparison performed


@dataclass
class FrobeniusStructure:
    spec: RootSystemSpec
    cspec: RootSystemSpec
    pencil: FlatPencil
    flat: FlatChartData
    g_t: BilinearForm
    gamma_t: ChristoffelContra
    eta_t: BilinearForm
    eta_cov: List[List[Rational]]
    eta_up: List[List[Rational]]
    euler: EulerField
    potential: PotentialF
    b_ident: Optional[BIdentification] = None


# ---------------------------------------------------------------------------
# Helpers on the flat chart
# ---------------------------------------------------------------------------

def lie_euler(p: Poly) -> Poly:
    """L_E on ring elements of the flat chart: the weight derivation."""
    out = {}
    for exps, c in p.terms.items():
        w = p.term_weight(exps)
        if w:
            out[exps] = c * w
    return Poly(p.chart, out)


def constant_matrix(mat: Matrix) -> List[List[Rational]]:
    return [[entry.constant_value() for entry in row] for row in mat]


# ---------------------------------------------------------------------------
# Third derivatives and the potential
# ---------------------------------------------------------------------------

def third_derivatives(spec: RootSystemSpec, gamma_t: ChristoffelContra,
                      eta_cov: List[List[Rational]]) -> List[List[List[Poly]]]:
    """F_{abc} from the defining relations Gamma^{ij}_m = dtilde_j c^{ij}_m.

    Every component reachable two ways is compared; the j = l+1 column of
    Gamma must vanish identically (its flat degree is zero).
    """
    l, k = spec.rank, spec.vertex
    dim = l + 1
    last = l
    kpos = k - 1
    chart = gamma_t.chart
    dt = flat_degrees(l, k)
    zero = Poly.const(chart, 0)

    for i in range(dim):
        for m in range(dim):
            if not gamma_t.arr[i][last][m].is_zero():
                raise IntegrabilityViolation(
                    f"Gamma^{{{i + 1},l+1}}_{m + 1} nonzero but dtilde_(l+1) = 0")

    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            routes = []
            if dt[j]:
                routes.append(lambda m, i=i, j=j: gamma_t.arr[i][j][m] * (1 / dt[j]))
            if dt[i]:
                routes.append(lambda m, i=i, j=j: gamma_t.arr[j][i][m] * (1 / dt[i]))
            if not routes:
                # i = j = l+1: from the unity row, c^{l+1,l+1}_m = eta_{km}
                routes.append(lambda m: Poly.const(chart, eta_cov[kpos][m]))
            for m in range(dim):
                vals = [rt(m) for rt in routes]
                for other in vals[1:]:
                    if other != vals[0]:
                        raise IntegrabilityViolation(
                            f"c^{{{i + 1},{j + 1}}}_{m + 1} differs between routes")
                c[i][j][m] = vals[0]

    f3 = contract(eta_cov, contract(eta_cov, c, 0), 1)
    for a in range(dim):
        for b in range(dim):
            for m in range(dim):
                if f3[a][b][m] != f3[a][m][b] or f3[a][b][m] != f3[b][a][m]:
                    raise SymmetryViolation(
                        f"F_({a + 1},{b + 1},{m + 1}) not totally symmetric")
    for i in range(dim):
        for j in range(dim):
            if f3[kpos][i][j] != Poly.const(chart, eta_cov[i][j]):
                raise SymmetryViolation(
                    f"unity row F_(k,{i + 1},{j + 1}) != eta_({i + 1},{j + 1})")
    return f3


def third_derivatives_from_metric(spec: RootSystemSpec, g_t: BilinearForm,
                                  eta_cov: List[List[Rational]]) -> List[List[List[Poly]]]:
    """F_{abc} via F^{ij} = L_E^{-1} g^{ij}: the independent metric route."""
    l, k = spec.rank, spec.vertex
    dim = l + 1
    last = l
    kpos = k - 1
    chart = g_t.chart
    zero = Poly.const(chart, 0)
    fup = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            out = {}
            for exps, c in g_t.mat[i][j].terms.items():
                w = g_t.mat[i][j].term_weight(exps)
                if w == 0:
                    if (i, j) != (last, last):
                        raise Inconsistent(
                            f"g^{{{i + 1},{j + 1}}} has a degree-0 term off the corner")
                    if c != Fraction(1, k):
                        raise Inconsistent("corner constant of g is not 1/k")
                    continue  # becomes the explicit t^{l+1} tag
                out[exps] = c / w
            fup[i][j] = Poly(chart, out)
            fup[j][i] = fup[i][j]
    f2 = contract(eta_cov, contract(eta_cov, fup, 0), 1)
    # the tag t^{l+1} at F^{l+1,l+1} lowers to (kpos, kpos); its m-derivative
    # contributes 1 exactly at (kpos, kpos, last)
    f3 = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for m in range(dim):
                val = f2[a][b].coord_diff(m)
                if a == kpos and b == kpos and m == last:
                    val = val + 1
                f3[a][b][m] = val
    return f3


def integrate_potential(spec: RootSystemSpec, f3: List[List[List[Poly]]],
                        eta_cov: List[List[Rational]], eta_up: List[List[Rational]],
                        g_t: BilinearForm) -> PotentialF:
    """Antidifferentiate the third-derivative tensor into the potential.

    Candidate monomials are proposed by integrating each term of each
    F_{abc} along its three directions; one exact linear solve then fixes all
    coefficients simultaneously.  Quadratic-and-lower integration constants
    are the free variables and are set to zero.
    """
    l, k = spec.rank, spec.vertex
    dim = l + 1
    last = l
    kpos = k - 1
    chart = f3[0][0][0].chart
    e_idx = chart.index["E"]

    def head_third(a: int, b: int, c: int) -> Fraction:
        return Fraction(1) if sorted((a, b, c)) == sorted((kpos, kpos, last)) else Fraction(0)

    candidates: Dict[tuple, None] = {}
    triples = [(a, b, c) for a in range(dim) for b in range(a, dim)
               for c in range(b, dim)]
    targets = {}
    for (a, b, c) in triples:
        t = f3[a][b][c]
        h = head_third(a, b, c)
        if h:
            t = t - h
        targets[(a, b, c)] = t
        for exps, coeff in t.terms.items():
            cnt: Dict[int, int] = {}
            for pos in (a, b, c):
                cnt[pos] = cnt.get(pos, 0) + 1
            new = list(exps)
            ok = True
            for pos, times in cnt.items():
                if pos == last:
                    if exps[e_idx] == 0:
                        ok = False  # would need an explicit log coordinate
                        break
                else:
                    e = exps[pos]
                    for s in range(1, times + 1):
                        if e + s == 0:
                            ok = False  # log obstruction along this route
                            break
                    if not ok:
                        break
                    new[pos] = e + times
            if ok:
                candidates[tuple(new)] = None

    cand_list = list(candidates)
    unknowns = [f"c{q}" for q in range(len(cand_list))]

    def derive(exps: tuple, dirs: Tuple[int, int, int]):
        coeff = Fraction(1)
        cur = list(exps)
        for pos in dirs:
            if pos == last:
                coeff *= cur[e_idx]
            else:
                coeff *= cur[pos]
                cur[pos] -= 1
            if not coeff:
                return None
        return tuple(cur), coeff

    eqs = []
    for (a, b, c) in triples:
        rows: Dict[tuple, Dict[str, Fraction]] = {}
        for q, exps in enumerate(cand_list):
            got = derive(exps, (a, b, c))
            if got is None:
                continue
            key, coeff = got
            rows.setdefault(key, {})[unknowns[q]] = \
                rows.get(key, {}).get(unknowns[q], Fraction(0)) + coeff
        support = set(rows) | set(targets[(a, b, c)].terms)
        for key in support:
            eqs.append((rows.get(key, {}),
                        targets[(a, b, c)].terms.get(key, Fraction(0))))
    result = solve_linear(eqs, unknowns)
    if result.kind == "inconsistent":
        raise Inconsistent("no single potential matches all third derivatives")
    terms = {}
    for q, exps in enumerate(cand_list):
        coeff = result.solution[unknowns[q]]
        if coeff:
            terms[exps] = coeff
    poly = Poly(chart, terms)
    potential = PotentialF(chart, k, poly)
    _check_shape(spec, potential, eta_cov)
    _check_metric_identity(spec, potential, eta_up, g_t)
    return potential


def _quadratic_tail(spec: RootSystemSpec, chart: Chart,
                    eta_cov: List[List[Rational]]) -> Poly:
    """(1/2) t^k sum_{i,j != k} eta_{ij} t^i t^j (no explicit log terms occur)."""
    l, k = spec.rank, spec.vertex
    dim = l + 1
    kpos = k - 1
    last = l
    tk = Poly.variable(chart, f"t{k}")
    acc = Poly.const(chart, 0)
    for i in range(dim):
        for j in range(dim):
            if i == kpos or j == kpos or not eta_cov[i][j]:
                continue
            if i == last or j == last:
                raise ShapeMismatch("eta pairs the log coordinate outside the head")
            ti = Poly.variable(chart, f"t{i + 1}")
            tj = Poly.variable(chart, f"t{j + 1}")
            acc = acc + ti * tj * Fraction(eta_cov[i][j], 2)
    return tk * acc


def _check_shape(spec: RootSystemSpec, potential: PotentialF,
                 eta_cov: List[List[Rational]]) -> None:
    k = spec.vertex
    g = potential.poly - _quadratic_tail(spec, potential.chart, eta_cov)
    if not g.diff(f"t{k}").is_zero():
        raise ShapeMismatch("G still depends on t^k")
    if not g.is_zero() and g.weighted_degree() != 2:
        raise ShapeMismatch("G is not weighted-homogeneous of degree 2")


def second_derivatives(potential: PotentialF) -> List[List[Poly]]:
    """d^2 F / dt^a dt^b, head included except for its t^{l+1} tag at (k,k)."""
    chart = potential.chart
    dim = chart.dim
    kpos = potential.vertex - 1
    last = dim - 1
    grads = [potential.poly.coord_diff(a) for a in range(dim)]
    f2 = [[None] * dim for _ in range(dim)]
    tk = Poly.variable(chart, f"t{potential.vertex}")
    for a in range(dim):
        for b in range(a, dim):
            val = grads[a].coord_diff(b)
            if {a, b} == {kpos, last}:
                val = val + tk
            f2[a][b] = val
            f2[b][a] = val
    return f2


def third_from_potential(potential: PotentialF) -> List[List[List[Poly]]]:
    chart = potential.chart
    dim = chart.dim
    kpos = potential.vertex - 1
    last = dim - 1
    f2 = second_derivatives(potential)
    f3 = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                val = f2[a][b].coord_diff(c)
                # f2 already holds the t^k block of the head; only the
                # unrepresentable t^{l+1} tag at (k,k) needs its derivative added
                if a == kpos and b == kpos and c == last:
                    val = val + 1
                f3[a][b][c] = val
    return f3


def raised_hessian(potential: PotentialF, eta_up: List[List[Rational]]):
    """F^{ij} = eta^{ii'} eta^{jj'} F_{i'j'}; returns (poly part, tag flag).

    The explicit-t^{l+1} tag of F_{kk} raises to the (l+1, l+1) slot with
    coefficient 1 (eta^{l+1,k} = 1).
    """
    f2 = second_derivatives(potential)
    return contract(eta_up, contract(eta_up, f2, 0), 1)


def _check_metric_identity(spec: RootSystemSpec, potential: PotentialF,
                           eta_up: List[List[Rational]], g_t: BilinearForm) -> None:
    """g^{ij} = L_E F^{ij} entrywise (with the tag contributing 1/k)."""
    l, k = spec.rank, spec.vertex
    dim = l + 1
    last = l
    fup = raised_hessian(potential, eta_up)
    kpos = k - 1
    tag = eta_up[last][kpos]  # = 1; tag coefficient after raising
    for i in range(dim):
        for j in range(dim):
            got = lie_euler(fup[i][j])
            if i == last and j == last:
                got = got + Fraction(tag * tag, k)
            if got != g_t.mat[i][j]:
                raise Inconsistent(
                    f"L_E F^{{{i + 1},{j + 1}}} != g^{{{i + 1},{j + 1}}}")


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------

def verify_wdvv(struct: FrobeniusStructure) -> List[Tuple[Tuple[int, int, int, int], Poly]]:
    """All WDVV residuals; empty list means the system holds identically."""
    f3 = third_from_potential(struct.potential)
    eta_up = struct.eta_up
    dim = len(f3)
    zero = Poly.const(struct.potential.chart, 0)
    # h_{ij}^mu = F_{ij lam} eta^{lam mu}; eta^{..} is symmetric
    h = contract(eta_up, f3, 2)
    failures = []
    for i in range(dim):
        for p in range(i + 1, dim):
            for j in range(dim):
                for q in range(j, dim):
                    acc = zero
                    for mu in range(dim):
                        if not h[i][j][mu].is_zero() and not f3[mu][p][q].is_zero():
                            acc = acc + h[i][j][mu] * f3[mu][p][q]
                        if not h[p][j][mu].is_zero() and not f3[mu][i][q].is_zero():
                            acc = acc - h[p][j][mu] * f3[mu][i][q]
                    if not acc.is_zero():
                        failures.append(((i + 1, j + 1, p + 1, q + 1), acc))
    return failures


def verify_euler_unity(struct: FrobeniusStructure) -> Poly:
    """Unity row, charge-1 scaling, and quasi-homogeneity.

    Returns the symbolic L_E F - 2F, which must equal (t^k)^2 / (2k)."""
    spec = struct.cspec
    l, k = spec.rank, spec.vertex
    chart = struct.potential.chart
    dim = l + 1
    f3 = third_from_potential(struct.potential)
    kpos = k - 1
    for i in range(dim):
        for j in range(dim):
            if f3[kpos][i][j] != Poly.const(chart, struct.eta_cov[i][j]):
                raise SymmetryViolation(
                    f"F_(k,{i + 1},{j + 1}) != eta_({i + 1},{j + 1})")
    residual = lie_euler(struct.potential.poly) - struct.potential.poly * 2
    if not residual.is_zero():
        raise ShapeMismatch("graded part of F is not quasi-homogeneous of degree 2")
    dt = flat_degrees(l, k)
    for i in range(dim):
        for j in range(dim):
            if struct.eta_cov[i][j] and dt[i] + dt[j] != 1:
                raise ShapeMismatch(
                    f"eta_({i + 1},{j + 1}) nonzero but dtilde_i + dtilde_j != 1")
    if struct.euler.dtilde != tuple(dt[:l]) or struct.euler.last_component != Fraction(1, k):
        raise ShapeMismatch("Euler field coefficients are off")
    # the head term contributes exactly (t^k)^2/(2k) to L_E F - 2F
    return Poly.monomial(chart, {f"t{k}": 2}, Fraction(1, 2 * k))


def verify_intersection(struct: FrobeniusStructure) -> None:
    """g^{ij} = L_E F^{ij} and Gamma^{ij}_m = dtilde_j dF^{ij}/dt^m, exactly."""
    spec = struct.cspec
    l, k = spec.rank, spec.vertex
    dim = l + 1
    last = l
    _check_metric_identity(spec, struct.potential, struct.eta_up, struct.g_t)
    fup = raised_hessian(struct.potential, struct.eta_up)
    dt = flat_degrees(l, k)
    chart = struct.potential.chart
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                c = fup[i][j].coord_diff(m)
                if i == last and j == last and m == last:
                    c = c + 1  # derivative of the raised tag t^{l+1}
                expected = c * dt[j] if dt[j] else Poly.const(chart, 0)
                if struct.gamma_t.arr[i][j][m] != expected:
                    raise Inconsistent(
                        f"Gamma^{{{i + 1},{j + 1}}}_{m + 1} != dtilde_j c^{{ij}}_m")


# ---------------------------------------------------------------------------
# Construction pipelines
# ---------------------------------------------------------------------------

_CACHE: Dict[Tuple[str, int, int], FrobeniusStructure] = {}

B_ORACLE_BOUND = 3


def build_structure(spec: RootSystemSpec) -> FrobeniusStructure:
    """Construct (and cache) the full verified structure for a marked spec."""
    key = (spec.family, spec.rank, spec.vertex)
    got = _CACHE.get(key)
    if got is not None:
        return got
    if spec.family == "B":
        struct = b_to_c(spec)
    else:
        struct = _build_c(spec)
    _CACHE[key] = struct
    return struct


def _build_c(spec: RootSystemSpec) -> FrobeniusStructure:
    l, k = spec.rank, spec.vertex
    pencil = build_pencil(spec)
    flat = flat_pipeline(spec, pencil.eta)
    g_t = transform_form(pencil.g, flat.y_to_t)
    gamma_t = transform_christoffel(pencil.gamma_g, flat.y_to_t, g_t)
    eta_up = constant_matrix(flat.eta_t.mat)
    eta_cov = constant_matrix(covariant_form(flat.eta_t))
    euler = EulerField(dtilde=tuple(flat_degrees(l, k)[:l]),
                       last_component=Fraction(1, k))
    f3 = third_derivatives(spec, gamma_t, eta_cov)
    f3_metric = third_derivatives_from_metric(spec, g_t, eta_cov)
    dim = l + 1
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                if f3[a][b][c] != f3_metric[a][b][c]:
                    raise IntegrabilityViolation(
                        f"F_({a + 1},{b + 1},{c + 1}) differs between the "
                        "connection and metric routes")
    potential = integrate_potential(spec, f3, eta_cov, eta_up, g_t)
    return FrobeniusStructure(spec=spec, cspec=spec, pencil=pencil, flat=flat,
                              g_t=g_t, gamma_t=gamma_t, eta_t=flat.eta_t,
                              eta_cov=eta_cov, eta_up=eta_up, euler=euler,
                              potential=potential)


def b_to_c(spec: RootSystemSpec) -> FrobeniusStructure:
    """The B_l structure as the pullback of the C_l one (same l, k).

    At oracle-reachable ranks the identification is validated from first
    principles: the pairings of the pulled-back generators under the B_l
    invariant metric must equal the C_l intersection form expanded in the
    same Laurent chart.
    """
    if spec.family != "B":
        raise ValueError("b_to_c expects a B-family spec")
    cspec = RootSystemSpec("C", spec.rank, spec.vertex)
    cstruct = build_structure(cspec)
    log_scale = Fraction(1, 2) if spec.vertex == spec.rank else Fraction(1)
    validated = spec.rank <= B_ORACLE_BOUND
    if validated:
        _validate_b_pullback(spec, cstruct.pencil.g, log_scale)
    return FrobeniusStructure(spec=spec, cspec=cspec, pencil=cstruct.pencil,
                              flat=cstruct.flat, g_t=cstruct.g_t,
                              gamma_t=cstruct.gamma_t, eta_t=cstruct.eta_t,
                              eta_cov=cstruct.eta_cov, eta_up=cstruct.eta_up,
                              euler=cstruct.euler, potential=cstruct.potential,
                              b_ident=BIdentification(spec, log_scale, validated))


def _validate_b_pullback(spec: RootSystemSpec, g_c: BilinearForm,
                         log_scale: Fraction) -> None:
    l = spec.rank
    metric_b, _ = build(spec)
    ochart = oracle_chart(spec)
    funcs_b = generator_exprs(spec, ochart)
    ybar = list(funcs_b[:l - 1]) + [funcs_b[l - 1] * funcs_b[l - 1]]
    ghat = oracle_pairing(metric_b, ybar, log_scale)
    # expand the C-side metric in the same chart
    r = Poly.variable(ochart, "r")
    exp_scaled = r ** int(4 * log_scale)
    subs = {f"y{j}": ybar[j - 1] for j in range(1, l + 1)}
    subs["E"] = exp_scaled
    dim = l + 1
    for i in range(dim):
        for j in range(dim):
            lhs = g_c.mat[i][j].substitute(subs, ochart)
            if lhs != ghat[i][j]:
                raise OracleMismatch(
                    f"{spec.label()}: pullback entry ({i + 1},{j + 1}) "
                    "differs from the B-side first-principles pairing")


def oracle_check(struct: FrobeniusStructure, max_rank: int = 3) -> bool:
    """The structure's metric equals the direct-definition one (family C), or
    its pullback identification holds (family B).  Returns False above the
    bound."""
    spec = struct.spec
    if spec.rank > max_rank:
        return False
    if spec.family == "C":
        direct = compute_g_direct(spec, max_rank)
        dim = spec.rank + 1
        for i in range(dim):
            for j in range(dim):
                if direct.mat[i][j] != struct.pencil.g.mat[i][j]:
                    raise OracleMismatch(
                        f"{spec.label()}: g[{i + 1}][{j + 1}] differs from the oracle")
        return True
    _validate_b_pullback(spec, struct.pencil.g, struct.b_ident.log_scale)
    # also check the B-side direct metric re-expressed on its own chart
    direct_b = compute_g_direct(spec, max_rank)
    if not direct_b.is_symmetric():
        raise OracleMismatch(f"{spec.label()}: direct metric not symmetric")
    return True
