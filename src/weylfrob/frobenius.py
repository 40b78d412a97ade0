"""The Frobenius structure: potential, Euler field, and its verification.

In the flat chart the Euler field acts on the ring as the weight derivation
(the chart weights are exactly the flat degrees, with E carrying 1/k), so
L_E is the degree operator.

The structure is built along one route: F^{ij} = L_E^{-1} g^{ij} from the
intersection form g_t, F_{abc} by lowering with eta and differentiating, and
the potential by exact antidifferentiation of F_{abc}; the shape of F is the
build's only guard.  The single monomial with an explicit log coordinate,
(t^k)^2 t^{l+1} / 2, is tracked separately and never enters the polynomial
ring.  The named checks verify the result; among them ``verify_intersection``
holds g^{ij} = L_E F^{ij} against F entry by entry.  The connection of g is
certified once, in the y-chart, by the ``pencil`` check: compatible with g_y
and torsion-free, so it is the Levi-Civita connection of g.  Transported to
the flat chart it is then dtilde_j dF^{ij}/dt^m for any F that passes
``wdvv``, ``euler`` and ``intersection`` (Dubrovin, LNM 1620, Lecture 3), so
the build never transports it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm
from typing import Callable, Dict, List, Optional, Tuple

from .exactalg import (Chart, Matrix, NonExactDivision, NonUnitLaurentSubstitution,
                       Poly, Rational, congruence, contract, mat_det, overlay,
                       substitute_all, sum_products, unit_det)
from .flatcoords import FlatChartData, covariant_form, flat_pipeline
from .metrics import (BilinearForm, FlatPencil, assert_eta_pattern, build_pencil,
                      det_eta_check, eta_from_g, linearity_check, transform_form)
from .orbitspace import CoordMap, OracleMismatch, compute_g_direct, generator_map
from .rootdata import RootSystemSpec, dual_index, flat_degrees


class SymmetryViolation(ArithmeticError):
    """The third-derivative tensor is not totally symmetric."""


class Inconsistent(ArithmeticError):
    """No potential of the required form matches the metric or F_{abc}."""


class ShapeMismatch(ArithmeticError):
    """The potential does not have the required head + quadratic-tail shape."""


class NoCyclicDirection(ArithmeticError):
    """No direction x certifies C_x cyclic, so WDVV cannot be proved through one."""


class CheckFailed(ArithmeticError):
    """A named check found the identity it tests violated."""


@dataclass(frozen=True)
class EulerField:
    """Linear Euler field: coefficients dtilde_j on t^j plus a constant last leg.

    The last component is 1/k (the printed C4 k=2 example fixes the
    normalization; see the design notes)."""

    dtilde: Tuple[Rational, ...]
    last_component: Rational


@dataclass(frozen=True)
class PotentialF:
    """F = (t^k)^2 t^{l+1} / 2 + poly, with poly free of explicit t^{l+1}."""

    chart: Chart
    vertex: int
    poly: Poly

    @cached_property
    def hessian(self) -> List[List[Poly]]:
        """F_{ab} = d^2 F / dt^a dt^b, head included except for its t^{l+1}
        tag at (k, k); formed on first use and read by every check (a
        changed poly is a new, frozen PotentialF, so it cannot go stale)."""
        chart = self.chart
        dim = chart.dim
        kpos = self.vertex - 1
        last = dim - 1
        grads = [self.poly.coord_diff(a) for a in range(dim)]
        f2 = [[None] * dim for _ in range(dim)]
        tk = Poly.variable(chart, f"t{self.vertex}")
        for a in range(dim):
            for b in range(a, dim):
                val = grads[a].coord_diff(b)
                if {a, b} == {kpos, last}:
                    val = val + tk
                f2[a][b] = val
                f2[b][a] = val
        return f2


@dataclass(frozen=True)
class BIdentification:
    """How a B_l structure is pulled back from the C_l one."""

    spec: RootSystemSpec
    log_scale: Rational          # ybar^{l+1} = log_scale * y^{l+1}


@dataclass(frozen=True)
class FrobeniusStructure:
    spec: RootSystemSpec
    cspec: RootSystemSpec
    pencil: FlatPencil
    flat: FlatChartData
    g_t: BilinearForm
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
    return p.graded()[0]


def constant_matrix(mat: Matrix) -> List[List[Rational]]:
    return [[entry.constant_value() for entry in row] for row in mat]


# ---------------------------------------------------------------------------
# Third derivatives and the potential
# ---------------------------------------------------------------------------

def third_derivatives_from_metric(spec: RootSystemSpec, g_t: BilinearForm,
                                  eta_cov: List[List[Rational]]) -> List[List[List[Poly]]]:
    """F_{abc} via F^{ij} = L_E^{-1} g^{ij}: the route the build takes."""
    l, k = spec.rank, spec.vertex
    dim = l + 1
    last = l
    kpos = k - 1
    chart = g_t.chart
    zero = Poly.const(chart, 0)
    fup = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            # the weight-0 part, the corner constant 1/k, becomes the
            # explicit t^{l+1} tag
            fup[i][j], flat = g_t.mat[i][j].graded(-1)
            if not flat.is_zero():
                if (i, j) != (last, last):
                    raise Inconsistent(
                        f"g^{{{i + 1},{j + 1}}} has a degree-0 term off the corner")
                if flat != Fraction(1, k):
                    raise Inconsistent("corner constant of g is not 1/k")
            fup[j][i] = fup[i][j]
    # the tag t^{l+1} at F^{l+1,l+1} lowers to (kpos, kpos)
    return _tagged_derivatives(contract(eta_cov, contract(eta_cov, fup, 0), 1), kpos)


def _tagged_derivatives(f2: List[List[Poly]], kpos: int) -> List[List[List[Poly]]]:
    """F_{abc} = d_c F_{ab}, plus the derivative 1 of the t^{l+1} tag that
    F_{kk} carries (kpos = k - 1) at (k, k, l+1), taken once at a <= b <= c
    and shared by the permutations (each slot in a list of its own)."""
    dim = len(f2)
    once = {(a, b, c): f2[a][b].coord_diff(c)
            for a in range(dim) for b in range(a, dim) for c in range(b, dim)}
    once[kpos, kpos, dim - 1] = once[kpos, kpos, dim - 1] + 1
    return [[[once[tuple(sorted((a, b, c)))] for c in range(dim)] for b in range(dim)]
            for a in range(dim)]


def integrate_potential(spec: RootSystemSpec, f3: List[List[List[Poly]]],
                        eta_cov: List[List[Rational]]) -> PotentialF:
    """Antidifferentiate the third-derivative tensor into the potential.

    With the head's constant third derivative removed, each term of
    F_{abc} (a <= b <= c) is the derivative along (a, b, c) of exactly one
    monomial, its antiderivative along c, b and a in turn (along t^{l+1},
    E d/dE keeps the exponent).  A monomial reached from several (a, b, c)
    takes the value of the last.  Quadratic-and-lower integration constants
    are zero.  Whether the result matches the metric and the connection is
    for the named checks to say; the shape of F is the build's one guard.
    """
    l, k = spec.rank, spec.vertex
    dim = l + 1
    last = l
    kpos = k - 1
    chart = f3[0][0][0].chart
    pieces = []
    for a in range(dim):
        for b in range(a, dim):
            for c in range(b, dim):
                t = f3[a][b][c]
                if (a, b, c) == (kpos, kpos, last):
                    t = t - 1
                try:
                    pieces.append(t.coord_integral(c).coord_integral(b).coord_integral(a))
                except NonExactDivision:
                    raise Inconsistent(
                        f"F_({a + 1},{b + 1},{c + 1}) has a term whose "
                        "antiderivative needs an explicit log coordinate") from None
    potential = PotentialF(chart, k, overlay(chart, pieces))
    _check_shape(spec, potential, eta_cov)
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
    if lie_euler(g) != g * 2:
        raise ShapeMismatch("G is not weighted-homogeneous of degree 2")


def third_derivatives(potential: PotentialF) -> List[List[List[Poly]]]:
    """F_{abc} of the potential, head included."""
    # f2 already holds the t^k block of the head; only the unrepresentable
    # t^{l+1} tag at (k,k) needs its derivative added
    return _tagged_derivatives(potential.hessian, potential.vertex - 1)


def raised_hessian(potential: PotentialF, eta_up: List[List[Rational]]):
    """F^{ij} = eta^{ii'} eta^{jj'} F_{i'j'} without the t^{l+1} tag of
    F_{kk}, which raises to 1 * t^{l+1} at (l+1, l+1) (eta^{l+1,k} = 1)."""
    return contract(eta_up, contract(eta_up, potential.hessian, 0), 1)


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------

def verify_wdvv(struct: FrobeniusStructure) -> List[Tuple[Tuple[int, int, int, int], Poly]]:
    """The WDVV residuals that do not vanish; an empty list means the system
    holds identically.

    A_{ijpq} = B(ij;pq) - B(pj;iq), B(ab;cd) = F_{ab lam} eta^{lam mu} F_{mu cd}
    (eta^{..} must be symmetric: SymmetryViolation).  WDVV says the C_a,
    (C_a)^mu_nu = eta^{mu lam} F_{lam a nu}, commute (Dubrovin, LNM 1620,
    Lecture 1); what commutes with a cyclic C_x is a polynomial in it (Horn &
    Johnson, Matrix Analysis, Thm 3.2.4.2).  So through the lightest x != k
    (fewest terms in F_{x..}) that ``_krylov_certifies``, each distinct
    pairing xb|cd, xc|bd, xd|bc of each multiset {x, b, c, d}, b <= c <= d,
    is computed once; one that differs from xb|cd is reported, 1-based, as
    ((b, x, c, d), A_bxcd) or ((b, x, d, c), A_bxdc); with none certified,
    the nonzero residuals through the lightest x, or else NoCyclicDirection.
    """
    eta_up = struct.eta_up
    f3 = third_derivatives(struct.potential)
    dim = len(f3)
    for i in range(dim):
        for j in range(i):
            if eta_up[i][j] != eta_up[j][i]:
                raise SymmetryViolation(f"eta^({i + 1},{j + 1}) != eta^({j + 1},{i + 1})")
    kpos = struct.potential.vertex - 1
    directions = sorted((x for x in range(dim) if x != kpos),
                        key=lambda x: sum(len(p.packed) for row in f3[x] for p in row))
    for x in directions:  # row b of h_{xb}^mu = eta^{mu lam} F_{xb lam} is C_x e_b
        if _krylov_certifies(contract(eta_up, f3[x], 1), kpos):
            return _residuals_through(f3, eta_up, x)
    failures = _residuals_through(f3, eta_up, directions[0])
    if failures:
        return failures
    raise NoCyclicDirection("no certificate: no x != k makes C_x cyclic at the test point")


def _krylov_certifies(h: Matrix, kpos: int) -> bool:
    """Whether det[e_k, C e_k, ..., C^{n-1} e_k], C e_b = h[b], is nonzero at
    the point with the Laurent variables at 1 and the others at 2, 3, 5, ...
    in chart order, so a nonzero rational function with e_k a cyclic vector
    of C.  C is read in integers: a constant's one numerator over their lcm."""
    point_chart = Chart("point", [])
    primes = (p for p in count(2) if all(p % q for q in range(2, p)))
    point = {var.name: Poly.const(point_chart, 1 if var.laurent else next(primes))
             for var in h[0][0].chart.vars}
    n = len(h)
    at = substitute_all([e for row in h for e in row], point, point_chart)
    den = lcm(1, *[v.den for v in at])
    nums = [sum(v.packed.values()) * (den // v.den) for v in at]
    cols = [nums[b * n:(b + 1) * n] for b in range(n)]
    krylov = [[int(i == kpos) for i in range(n)]]
    for _ in range(n - 1):
        krylov.append([sum(a * c for a, c in zip(r, krylov[-1])) for r in zip(*cols)])
    return not mat_det([[Poly.const(point_chart, c) for c in row] for row in krylov]).is_zero()


def _residuals_through(f3: List[List[List[Poly]]], eta_up: List[List[Rational]],
                       x: int) -> List[Tuple[Tuple[int, int, int, int], Poly]]:
    """The nonzero A_{ijpq} of the multisets {x, b, c, d}, b <= c <= d (see
    ``verify_wdvv``), through h_{xb}^mu = eta^{mu lam} F_{xb lam}; F_{abc}
    holds the head's constant 1 at every permutation of (k, k, l+1)."""
    dim = len(f3)
    chart = f3[0][0][0].chart
    h = contract(eta_up, f3[x], 1)

    def pairing(b: int, c: int, d: int) -> Poly:  # B(xb;cd)
        return sum_products(chart, [(hm, f3[mu][c][d]) for mu, hm in enumerate(h[b])])

    failures = []
    for b in range(dim):
        for c in range(b, dim):
            for d in range(c, dim):
                first = pairing(b, c, d)
                # xc|bd is xb|cd when b = c or x = d; xd|bc is xc|bd when
                # c = d or x = b, and xb|cd when b = d or x = c
                for (i, j, p, q), distinct in (((b, x, c, d), b != c and x != d),
                                               ((b, x, d, c), c != d and x not in (b, c))):
                    if distinct:
                        other = pairing(p, i, q)  # B(xp;iq) = B(pj;iq)
                        if other != first:
                            failures.append(((i + 1, j + 1, p + 1, q + 1), first - other))
    return failures


def verify_euler_unity(struct: FrobeniusStructure) -> Poly:
    """Unity row, charge-1 scaling, and quasi-homogeneity.

    Returns the symbolic L_E F - 2F, which must equal (t^k)^2 / (2k)."""
    spec = struct.cspec
    l, k = spec.rank, spec.vertex
    chart = struct.potential.chart
    dim = l + 1
    # F_{kij} = d_k F_{ij}: the head's constant third derivatives come from
    # its t^k block in F_{ij}, and the t^{l+1} tag at (k, k) has zero d_k
    f2 = struct.potential.hessian
    kpos = k - 1
    for i in range(dim):
        for j in range(dim):
            if f2[i][j].coord_diff(kpos) != Poly.const(chart, struct.eta_cov[i][j]):
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


def verify_intersection(struct: FrobeniusStructure) -> str:
    """g^{ij} = L_E F^{ij} entrywise, exactly (the tag contributing 1/k);
    returns the ``intersection`` check's pass detail.

    The connection needs no test here (see the module notes).  Nor does its
    compatibility with g_t: once ``euler`` holds, F^{ij} has weight
    dtilde_i + dtilde_j, and that test is the d_m derivative of this one."""
    spec = struct.cspec
    dim = spec.rank + 1
    last, kpos = spec.rank, spec.vertex - 1
    eta_up = struct.eta_up
    fup = raised_hessian(struct.potential, eta_up)
    tag = eta_up[last][kpos]  # = 1; tag coefficient after raising
    for i in range(dim):
        for j in range(dim):
            got = lie_euler(fup[i][j])
            if i == last and j == last:
                got = got + Fraction(tag * tag, spec.vertex)
            if got != struct.g_t.mat[i][j]:
                raise Inconsistent(
                    f"L_E F^{{{i + 1},{j + 1}}} != g^{{{i + 1},{j + 1}}}")
    return "g = L_E F^(ij) and Gamma = dtilde_j c"


def verify_pencil(struct: FrobeniusStructure) -> str:
    """The ``pencil`` check: in the y-chart, g and Gamma are at most linear in
    y^k, eta = d g/d y^k has a unit determinant, and Gamma is the
    Levi-Civita connection of g; eta keeps its pattern after the z, w and t
    stages.  Returns the pass detail."""
    cspec = struct.cspec
    pencil = struct.pencil
    if not linearity_check(pencil.g, pencil.gamma_g, cspec):
        raise CheckFailed("g or Gamma not linear in y^k")
    g = pencil.g.mat
    dim = len(g)
    d_k_g = eta_from_g(pencil.g, cspec).mat
    for i in range(dim):
        for j in range(dim):
            if pencil.eta.mat[i][j] != d_k_g[i][j]:
                raise CheckFailed(f"eta^({i+1},{j+1}) != d g^({i+1},{j+1})/d y^k")
    unit_det(pencil.eta.mat)  # raises NonInvertibleMatrix on a degenerate eta
    # Gamma must be the Levi-Civita connection of g, in the y-chart:
    # - g = A + y^k eta with A, eta free of y^k, so det g has leading
    #   coefficient det eta, a unit: g is non-degenerate, and compatible
    #   plus torsion-free pins Gamma as its Levi-Civita connection (no
    #   inverse is needed);
    # - d/dy^k of compatibility and the (y^k)^2 coefficient of
    #   torsion-freeness are the same two identities for (eta, d_k Gamma),
    #   so the Levi-Civita connection of eta needs no test of its own
    gam = pencil.gamma_g.arr
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                if g[i][j].coord_diff(m) != gam[i][j][m] + gam[j][i][m]:
                    raise CheckFailed(f"gamma^({i+1},{j+1})_{m+1} mismatch")
    # torsion[j][m][i] = g^{is} gamma^{jm}_s, symmetric in i <-> j
    torsion = contract(g, gam, 2)
    for i in range(dim):
        for j in range(i + 1, dim):
            for m in range(dim):
                if torsion[j][m][i] != torsion[i][m][j]:
                    raise CheckFailed(f"gamma^({i+1},{m+1}) and gamma^({j+1},{m+1}) "
                                      "torsion mismatch")
    flat = struct.flat
    for stage, form in (("z", flat.eta_z), ("w", flat.eta_w), ("t", flat.eta_t)):
        assert_eta_pattern(cspec, form, stage)
    return "linearity, pencil symbols, stage patterns"


def verify_duality(struct: FrobeniusStructure) -> str:
    """The ``duality`` check: the involution i -> i* pairs flat degrees to
    dtilde_i + dtilde_i* = 1, and eta^{ij} is nonzero exactly at j = i*.
    Returns the pass detail."""
    cspec = struct.cspec
    l = cspec.rank
    dt = flat_degrees(l, cspec.vertex)
    for i in range(1, l + 2):
        if dt[i - 1] + dt[dual_index(cspec, i) - 1] != 1:
            raise CheckFailed(f"dtilde_{i} + dtilde_{i}* != 1")
    for i in range(l + 1):
        for j in range(l + 1):
            if bool(struct.eta_up[i][j]) != (dual_index(cspec, i + 1) == j + 1):
                raise CheckFailed(f"eta^{i+1},{j+1} vs duality mismatch")
    return "involution matches eta pattern"


# ---------------------------------------------------------------------------
# Construction pipelines
# ---------------------------------------------------------------------------

_CACHE: Dict[Tuple[str, int, int], FrobeniusStructure] = {}


def build_structure(spec: RootSystemSpec) -> FrobeniusStructure:
    """Construct (and cache) the structure for a marked spec.

    The build runs pencil -> flat coordinates -> g_t -> F_{abc} from g_t ->
    F, guarded only by the shape of F; the eight named checks (``CHECKS``)
    verify the result.  Only the metric is transported to the flat chart:
    the connection is certified in the y-chart (``pencil``), where the
    pencil builds it."""
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
    eta_up = constant_matrix(flat.eta_t.mat)
    eta_cov = constant_matrix(covariant_form(flat.eta_t))
    euler = EulerField(dtilde=tuple(flat_degrees(l, k)[:l]),
                       last_component=Fraction(1, k))
    f3 = third_derivatives_from_metric(spec, g_t, eta_cov)
    potential = integrate_potential(spec, f3, eta_cov)
    return FrobeniusStructure(spec=spec, cspec=spec, pencil=pencil, flat=flat,
                              g_t=g_t, eta_cov=eta_cov, eta_up=eta_up, euler=euler,
                              potential=potential)


def b_to_c(spec: RootSystemSpec) -> FrobeniusStructure:
    """The B_l structure as the pullback of the C_l one (same l, k): every
    part of the C_l structure is shared, the potential and its Hessian
    included.  The ``oracle`` check validates the identification."""
    if spec.family != "B":
        raise ValueError("b_to_c expects a B-family spec")
    cstruct = build_structure(RootSystemSpec("C", spec.rank, spec.vertex))
    log_scale = Fraction(1, 2) if spec.vertex == spec.rank else Fraction(1)
    return replace(cstruct, spec=spec, b_ident=BIdentification(spec, log_scale))


# the detail of a passing ``oracle`` check, which a B document reads back
ORACLE_AGREES = "first-principles metric agrees"


def oracle_check(struct: FrobeniusStructure) -> str:
    """Compare the structure's y-chart metric g with the intersection form
    from the definition, entry by entry, in the zeta chart; for B_l that is
    the pullback identification with the recorded log scale.

    ``compute_g_direct`` gives the form G over the zeta chart.  The C_l
    generator map y^j -> E^{min(j,k)} sigma_j(zeta) pushes g there, and
    K G K^T, with K the map's Jacobian, is what g must become.  The sigma_j
    and E are algebraically independent, so the push is injective and the
    comparison exact; an entry with a negative power of a generator is no
    polynomial in them, so it is a mismatch too (its push raises).  All
    entries are pushed through one ``substitute_all``; when that raises,
    entry by entry, so the detail names the first entry that fails.
    Returns ORACLE_AGREES."""
    spec = struct.spec
    log_scale = struct.b_ident.log_scale if spec.family == "B" else Fraction(1)
    form = compute_g_direct(spec, log_scale)
    gens = generator_map(struct.cspec)
    zc = gens.source
    jac = CoordMap(gens.target, zc, pullback=gens.forward).jacobian_pullback()
    want = congruence(jac, form)  # K G K^T
    entries = [e for row in struct.pencil.g.mat for e in row]

    def push(entry: Poly) -> Optional[Poly]:
        try:
            return entry.substitute(gens.forward, zc)
        except NonUnitLaurentSubstitution:
            return None

    try:
        pushed = substitute_all(entries, gens.forward, zc)
    except NonUnitLaurentSubstitution:
        pushed = map(push, entries)
    for idx, got in enumerate(pushed):
        i, j = divmod(idx, len(want))
        if got is None or got != want[i][j]:
            raise OracleMismatch(f"{spec.label()}: g[{i + 1}][{j + 1}] differs from the "
                                 "first-principles pairing")
    return ORACLE_AGREES


# ---------------------------------------------------------------------------
# The named checks
# ---------------------------------------------------------------------------

def _eta_form(struct: FrobeniusStructure) -> str:
    assert_eta_pattern(struct.cspec, struct.pencil.eta, "y")
    return "eta equals the closed form"


def _wdvv(struct: FrobeniusStructure) -> str:
    failures = verify_wdvv(struct)
    if failures:
        (idx, poly) = failures[0]
        raise CheckFailed(f"{len(failures)} nonzero residuals, e.g. {idx}: {poly!r}")
    return "all associativity residuals vanish"


# each check takes the structure and returns its pass detail, or raises an
# ArithmeticError whose message is the failure detail; the order is the
# order of every report
CHECKS: Dict[str, Callable[[FrobeniusStructure], str]] = {
    "pencil": verify_pencil,
    "eta-form": _eta_form,
    "det": lambda struct: f"det(eta) = {det_eta_check(struct.cspec, struct.pencil.eta)!r}",
    "wdvv": _wdvv,
    "euler": lambda struct: f"L_E F - 2F = {verify_euler_unity(struct)!r}",
    "intersection": verify_intersection,
    "duality": verify_duality,
    "oracle": oracle_check,
}
