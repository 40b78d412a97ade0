"""Exact sparse Laurent-polynomial arithmetic over the rationals.

A polynomial lives on a Chart: an ordered list of named, weighted variables,
some of which may be Laurent (negative exponents permitted).  Terms are stored
as a dict mapping exponent tuples (one int per chart variable) to Fraction
coefficients; zero coefficients are never stored, so equality of term maps is
equality of polynomials.

A chart may designate one variable as the exponential of an extra logarithmic
coordinate (E = exp of the last coordinate).  Differentiation along that
coordinate acts as E*d/dE, which keeps the ring purely polynomial.

Products and sums of products go through one kernel, ``sum_products``,
which works on integer numerators over a common denominator and builds one
Fraction per output term (sparse products in the manner of Monagan and
Pearce).  ``Poly.__mul__`` is its one-pair case.

The module also provides the exact linear algebra the rest of the package
leans on: an incremental rational Gaussian eliminator, the determinant and
adjugate of Poly matrices, and the two primitives every tensor computation
goes through: ``mat_inverse_unit`` (the one exact inverse) and ``contract``
(the one index contraction).  Determinants and adjugates eliminate on unit
pivots (single terms in the chart's Laurent variables) of least Markowitz
cost, so each division is a monomial shift; fraction-free (Bareiss)
elimination is the fallback for a submatrix with no unit entry left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Rational = Fraction
Exponents = Tuple[int, ...]


class ChartMismatch(ValueError):
    """Operands of a ring operation belong to different charts."""


class NonExactDivision(ArithmeticError):
    """poly_exact_div was asked for a quotient that does not exist."""


class NonUnitLaurentSubstitution(ValueError):
    """A negatively-exponentiated variable was bound to a non-unit."""


class NonInvertibleMatrix(ArithmeticError):
    """A matrix expected to have a unit (monomial) determinant does not."""


def rat(value) -> Fraction:
    """Coerce ints, strings like '1/48', or Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class VarSpec:
    """A named chart variable with a weighted degree."""

    name: str
    weight: Fraction
    laurent: bool = False


class Chart:
    """An ordered weighted variable set, optionally with a log coordinate.

    ``coords`` lists the coordinate names used for tensor indices.  When
    ``log_coord`` is set, the chart's ring variable ``exp_var`` represents
    exp(log_coord); the log coordinate is appended as the final coordinate and
    differentiation along it is realized as E*d/dE.
    """

    def __init__(self, name: str, varspecs: Sequence[VarSpec],
                 log_coord: Optional[str] = None, exp_var: Optional[str] = None):
        if (log_coord is None) != (exp_var is None):
            raise ValueError("log_coord and exp_var must be given together")
        names = [v.name for v in varspecs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in chart {name!r}")
        if exp_var is not None and exp_var not in names:
            raise ValueError(f"exp_var {exp_var!r} is not a chart variable")
        self.name = name
        self.vars: Tuple[VarSpec, ...] = tuple(varspecs)
        self.index: Dict[str, int] = {v.name: i for i, v in enumerate(self.vars)}
        self.log_coord = log_coord
        self.exp_var = exp_var
        coords = [v.name for v in self.vars if v.name != exp_var]
        if log_coord is not None:
            coords.append(log_coord)
        self.coords: Tuple[str, ...] = tuple(coords)
        self.nvars = len(self.vars)
        self.dim = len(self.coords)
        # weights as integer numerators over their lcm: a term's weight is
        # one integer dot product
        den = lcm(1, *(v.weight.denominator for v in self.vars))
        self._weight_den = den
        self._weight_nums = tuple(v.weight.numerator * (den // v.weight.denominator)
                                  for v in self.vars)
        self._laurent = tuple(v.laurent for v in self.vars)

    def weight(self, name: str) -> Fraction:
        return self.vars[self.index[name]].weight

    def var(self, name: str) -> "Poly":
        return Poly.variable(self, name)

    def one(self) -> "Poly":
        return Poly.const(self, 1)

    def const(self, c) -> "Poly":
        return Poly.const(self, c)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Chart) and self.name == other.name
                and self.vars == other.vars and self.log_coord == other.log_coord
                and self.exp_var == other.exp_var)

    def __hash__(self):
        return hash((self.name, self.vars, self.log_coord, self.exp_var))

    def __repr__(self):
        return f"Chart({self.name!r}, {[v.name for v in self.vars]})"


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate Laurent polynomial with exact rational coefficients."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponents, Fraction],
                 normalized: bool = False):
        self.chart = chart
        if normalized:
            self.terms: Dict[Exponents, Fraction] = dict(terms)
        else:
            clean: Dict[Exponents, Fraction] = {}
            laurent = chart._laurent
            for exps, coeff in terms.items():
                if not coeff:
                    continue
                for e, lau in zip(exps, laurent):
                    if e < 0 and not lau:
                        raise ValueError(
                            f"negative exponent on non-laurent variable in chart {chart.name!r}: {exps}")
                clean[exps] = rat(coeff)
            self.terms = clean

    # ---- constructors ----

    @staticmethod
    def const(chart: Chart, c) -> "Poly":
        c = rat(c)
        if c == 0:
            return Poly(chart, {}, normalized=True)
        return Poly(chart, {(0,) * chart.nvars: c}, normalized=True)

    @staticmethod
    def variable(chart: Chart, name: str, power: int = 1) -> "Poly":
        return Poly.monomial(chart, {name: power})

    @staticmethod
    def monomial(chart: Chart, exps: Mapping[str, int], coeff=1) -> "Poly":
        e = [0] * chart.nvars
        for nm, p in exps.items():
            e[chart.index[nm]] += p
        return Poly(chart, {tuple(e): rat(coeff)})

    # ---- basic structure ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_monomial(self) -> bool:
        """A unit of the chart's ring: one term whose nonzero exponents all
        sit on Laurent variables."""
        if len(self.terms) != 1:
            return False
        (exps,) = self.terms
        return all(lau or not e for e, lau in zip(exps, self.chart._laurent))

    def constant_value(self) -> Fraction:
        """The coefficient of the empty monomial (the value if constant)."""
        if not self.terms:
            return Fraction(0)
        zero = (0,) * self.chart.nvars
        if set(self.terms) != {zero}:
            raise ValueError("polynomial is not constant")
        return self.terms[zero]

    def sorted_terms(self) -> List[Tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (canonical serialization order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def exponents_as_dict(self, exps: Exponents) -> Dict[str, int]:
        return {v.name: e for v, e in zip(self.chart.vars, exps) if e != 0}

    def _check_chart(self, other: "Poly"):
        if self.chart != other.chart:
            raise ChartMismatch(f"{self.chart.name!r} vs {other.chart.name!r}")

    # ---- ring operations ----

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        self._check_chart(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            if s is None:
                out[exps] = c
            else:
                s = s + c
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return Poly(self.chart, out, normalized=True)

    def __neg__(self) -> "Poly":
        return Poly(self.chart, {e: -c for e, c in self.terms.items()}, normalized=True)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return sum_products(self.chart, ((self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return Poly(self.chart, {}, normalized=True)
        other = rat(other)
        return Poly(self.chart, {e: c * other for e, c in self.terms.items()},
                    normalized=True)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = Poly.const(self.chart, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.chart, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        return isinstance(other, Poly) and self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart.name, frozenset(self.terms.items())))

    def unit_inverse(self) -> "Poly":
        """Inverse of a unit of the chart's ring (raises NonExactDivision
        otherwise): a monomial shift."""
        if not self.is_unit_monomial():
            raise NonExactDivision(f"inverse of a non-unit requested: {self!r}")
        (exps, coeff), = self.terms.items()
        return Poly(self.chart, {tuple(-e for e in exps): 1 / coeff}, normalized=True)

    # ---- calculus ----

    def diff(self, name: str) -> "Poly":
        """Formal partial derivative; the chart's log coordinate maps to E*d/dE."""
        chart = self.chart
        if name == chart.log_coord:
            idx = chart.index[chart.exp_var]
            out = {}
            for exps, c in self.terms.items():
                if exps[idx]:
                    out[exps] = c * exps[idx]
            return Poly(chart, out, normalized=True)
        idx = chart.index[name]
        out = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e:
                key = exps[:idx] + (e - 1,) + exps[idx + 1:]
                s = out.get(key)
                out[key] = c * e if s is None else s + c * e
        return Poly(chart, {k: v for k, v in out.items() if v}, normalized=True)

    def coord_diff(self, i: int) -> "Poly":
        """Derivative along the chart's i-th coordinate (0-based)."""
        return self.diff(self.chart.coords[i])

    # ---- substitution ----

    def substitute(self, bindings: Mapping[str, "Poly"],
                   target: Optional[Chart] = None) -> "Poly":
        """Exact composition: replace each chart variable by its binding.

        Unbound variables are carried over by name into the target chart.
        Negative exponents require the binding to be a unit monomial.
        """
        if target is None:
            for b in bindings.values():
                target = b.chart
                break
            else:
                target = self.chart
        cache: Dict[Tuple[str, int], Poly] = {}

        def power_of(name: str, e: int) -> Poly:
            key = (name, e)
            got = cache.get(key)
            if got is not None:
                return got
            base = bindings.get(name)
            if base is None:
                base = Poly.variable(target, name)
            if base.chart != target:
                raise ChartMismatch("bindings live on different charts")
            if e >= 0:
                val = base ** e
            else:
                if not base.is_unit_monomial():
                    raise NonUnitLaurentSubstitution(
                        f"variable {name!r} occurs with negative exponent but is bound "
                        f"to {base!r}, not a unit")
                val = base.unit_inverse() ** (-e)
            cache[key] = val
            return val

        # each term c * x^a * ... * z^b enters the sum as the pair
        # (c * x^a * ..., z^b), so its last product happens in the kernel
        one = Poly.const(target, 1)
        pairs = []
        for exps, c in self.terms.items():
            factors = [power_of(var.name, e) for var, e in zip(self.chart.vars, exps) if e]
            last = factors.pop() if factors else one
            for f in factors:
                c = f * c
            pairs.append((c, last))
        return sum_products(target, pairs)

    # ---- exact division ----

    def exact_div(self, q: "Poly") -> "Poly":
        """Return r with r*q == self exactly, else raise NonExactDivision."""
        self._check_chart(q)
        if q.is_zero():
            raise ZeroDivisionError("exact division by zero polynomial")
        if self.is_zero():
            return Poly(self.chart, {}, normalized=True)
        if len(q.terms) == 1:
            (qe, qc), = q.terms.items()
            out = {}
            for e, c in self.terms.items():
                key = tuple(map(sub, e, qe))
                for x, lau in zip(key, self.chart._laurent):
                    if x < 0 and not lau:
                        raise NonExactDivision("quotient needs a negative exponent "
                                               "on a non-laurent variable")
                out[key] = c / qc
            return Poly(self.chart, out, normalized=True)
        n = self.chart.nvars
        # remove the full monomial content of both operands: the quotient of
        # the content-free parts is then an honest polynomial (minimal degrees
        # are additive under multiplication), so the leading-term test below
        # is sound and complete for exact division
        shift_p = tuple(-min(e[i] for e in self.terms) for i in range(n))
        shift_q = tuple(-min(e[i] for e in q.terms) for i in range(n))
        # self = P / dp and q = content * Q / dq with P, Q integral and Q
        # primitive; by Gauss's lemma P / Q is integral whenever it exists,
        # so every leading-coefficient quotient below must be exact
        pn, dp = _numerators(self.terms)
        qn, dq = _numerators(q.terms)
        content = gcd(*[c for _, c in qn])
        rem = {tuple(map(add, e, shift_p)): c for e, c in pn}
        q_terms = [(tuple(map(add, e, shift_q)), c // content) for e, c in qn]
        lead_q, cq = max(q_terms, key=lambda t: _grlex_key(t[0]))
        quot: Dict[Exponents, int] = {}
        while rem:
            lead_r = max(rem, key=_grlex_key)
            d = tuple(map(sub, lead_r, lead_q))
            if any(x < 0 for x in d):
                raise NonExactDivision("division left a nonzero remainder")
            c, r = divmod(rem[lead_r], cq)
            if r:
                raise NonExactDivision("division left a nonzero remainder")
            # the leading term strictly falls, so each d is new
            quot[d] = c
            for e2, c2 in q_terms:
                key = tuple(map(add, d, e2))
                s = rem.get(key, 0) - c * c2
                if s:
                    rem[key] = s
                else:
                    del rem[key]
        correction = tuple(map(sub, shift_q, shift_p))
        num, den = dq, dp * content
        out = {}
        for e, c in quot.items():
            key = tuple(map(add, e, correction))
            for x, lau in zip(key, self.chart._laurent):
                if x < 0 and not lau:
                    raise NonExactDivision("quotient needs a negative exponent "
                                           "on a non-laurent variable")
            out[key] = Fraction(c * num, den)
        return Poly(self.chart, out, normalized=True)

    # ---- grading ----

    def term_weight(self, exps: Exponents) -> Fraction:
        chart = self.chart
        return Fraction(sum(map(mul, chart._weight_nums, exps)), chart._weight_den)

    # ---- display ----

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.chart.vars, exps):
                if e == 1:
                    factors.append(v.name)
                elif e:
                    factors.append(f"{v.name}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# The product-sum kernel
# ---------------------------------------------------------------------------

def _numerators(terms: Mapping[Exponents, Fraction]) -> Tuple[list, int]:
    """The terms as (exponents, integer numerator) over their least common
    denominator, and that denominator."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return [(e, c.numerator) for e, c in terms.items()], 1
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


def sum_products(chart: Chart, pairs: Iterable[tuple]) -> Poly:
    """The exact sum of x * y over the pairs (x, y) of ``pairs``.

    Each x is a Poly or a rational and each y is a Poly, all on ``chart``.
    Every operand is taken as integer numerators over the lcm of its
    denominators; all products are added as Python ints over one common
    denominator D, and one Fraction(v, D) is built per nonzero output term.
    D is the lcm of the pairs' denominators so far: when a pair raises it,
    the running sum is rescaled, so ``pairs`` is read once.
    """
    acc: Dict[Exponents, int] = {}
    get = acc.get
    den = 1
    for x, y in pairs:
        if y.chart is not chart and y.chart != chart:
            raise ChartMismatch(f"{chart.name!r} vs {y.chart.name!r}")
        if isinstance(x, Poly):
            if x.chart is not chart and x.chart != chart:
                raise ChartMismatch(f"{chart.name!r} vs {x.chart.name!r}")
            if not x.terms or not y.terms:
                continue
            xn, dx = _numerators(x.terms)
        else:
            if not x or not y.terms:
                continue
            xn, dx = x.numerator, x.denominator
        yn, dy = _numerators(y.terms)
        d = dx * dy
        if den % d:
            grown = lcm(den, d)
            up = grown // den
            for e in acc:
                acc[e] *= up
            den = grown
        scale = den // d
        if isinstance(xn, int):
            xn *= scale
            for e, b in yn:
                acc[e] = get(e, 0) + xn * b
            continue
        if scale != 1:
            xn = [(e, a * scale) for e, a in xn]
        for e1, a in xn:
            for e2, b in yn:
                key = tuple(map(add, e1, e2))
                acc[key] = get(key, 0) + a * b
    return Poly(chart, {e: Fraction(v, den) for e, v in acc.items() if v},
                normalized=True)


# ---------------------------------------------------------------------------
# Exact linear solving over the rationals
# ---------------------------------------------------------------------------

UNIQUE = "unique"
PARAMETRIC = "parametric"
INCONSISTENT = "inconsistent"


@dataclass
class LinearSolveResult:
    """Outcome of an exact linear solve.

    ``solution`` is the unique solution when kind == UNIQUE, and the
    particular solution with all free unknowns set to zero when kind ==
    PARAMETRIC.  ``nullspace`` is a basis of the homogeneous solutions.
    """

    kind: str
    solution: Optional[Dict[str, Fraction]]
    nullspace: List[Dict[str, Fraction]]


def solve_linear(equations: Iterable[Tuple[Mapping[str, Fraction], Fraction]],
                 unknowns: Optional[Sequence[str]] = None) -> LinearSolveResult:
    """Solve a rational linear system given as (coeffs-by-unknown, rhs) pairs.

    Elimination is incremental: each equation is reduced against the pivot
    rows found so far, so large overdetermined systems stay cheap as long as
    the rank is moderate.
    """
    eqs = [({u: rat(c) for u, c in coeffs.items() if c}, rat(rhs))
           for coeffs, rhs in equations]
    if unknowns is None:
        seen = set()
        for coeffs, _ in eqs:
            seen.update(coeffs)
        unknowns = sorted(seen)
    order = {u: i for i, u in enumerate(unknowns)}
    # pivot variable -> (row dict, rhs); rows are kept reduced against each other
    pivots: Dict[str, Tuple[Dict[str, Fraction], Fraction]] = {}
    inconsistent = False

    def reduce_row(row: Dict[str, Fraction], rhs: Fraction):
        # eliminate every pivot column present; pivot rows contain no other
        # pivot columns, so one sweep cannot reintroduce any
        while True:
            pcols = [u for u in row if u in pivots]
            if not pcols:
                break
            for lead in sorted(pcols, key=lambda u: order[u]):
                f = row.get(lead)
                if not f:
                    continue
                prow, prhs = pivots[lead]
                for u, c in prow.items():
                    s = row.get(u, Fraction(0)) - f * c
                    if s:
                        row[u] = s
                    elif u in row:
                        del row[u]
                rhs = rhs - f * prhs
        if not row:
            return row, rhs, None
        return row, rhs, min(row, key=lambda u: order[u])

    for coeffs, rhs in eqs:
        row, r, lead = reduce_row(dict(coeffs), rhs)
        if lead is None:
            if r:
                inconsistent = True
            continue
        f = row[lead]
        row = {u: c / f for u, c in row.items()}
        r = r / f
        # keep existing pivot rows reduced against the new one
        for pl, (prow, prhs) in list(pivots.items()):
            g = prow.get(lead)
            if g:
                for u, c in row.items():
                    s = prow.get(u, Fraction(0)) - g * c
                    if s:
                        prow[u] = s
                    elif u in prow:
                        del prow[u]
                pivots[pl] = (prow, prhs - g * r)
        pivots[lead] = (row, r)

    if inconsistent:
        return LinearSolveResult(INCONSISTENT, None, [])
    free = [u for u in unknowns if u not in pivots]
    solution = {u: Fraction(0) for u in free}
    for lead, (row, rhs) in pivots.items():
        solution[lead] = rhs
    if not free:
        return LinearSolveResult(UNIQUE, solution, [])
    basis = []
    for fvar in free:
        vec = {fvar: Fraction(1)}
        for lead, (row, _) in pivots.items():
            c = row.get(fvar)
            if c:
                vec[lead] = -c
        basis.append(vec)
    return LinearSolveResult(PARAMETRIC, solution, basis)


# ---------------------------------------------------------------------------
# Matrices of Poly: determinant, adjugate, the exact inverse, contraction
# ---------------------------------------------------------------------------

Matrix = List[List[Poly]]


def _unit_pivot(m: Matrix, rows: List[int], cols: List[int]) -> Optional[Tuple[int, int]]:
    """The unit entry m[r][c] (r in ``rows``, c in ``cols``) of least Markowitz
    cost (r_nz - 1)(c_nz - 1), with r_nz and c_nz counted on the submatrix
    rows x cols; ties go to the first in row-major order.  None when the
    submatrix holds no unit."""
    row_nz = {r: sum(1 for c in cols if m[r][c].terms) for r in rows}
    col_nz = {c: sum(1 for r in rows if m[r][c].terms) for c in cols}
    best, best_cost = None, 0
    for r in rows:
        for c in cols:
            if m[r][c].is_unit_monomial():
                cost = (row_nz[r] - 1) * (col_nz[c] - 1)
                if best is None or cost < best_cost:
                    best, best_cost = (r, c), cost
    return best


def _unit_step(m: Matrix, r: int, c: int, rows: Iterable[int]) -> Poly:
    """Divide row r by its unit m[r][c] (a monomial shift) and clear column c
    from ``rows`` by a - a_col * a_row; returns the pivot."""
    pivot_row = m[r]
    piv = pivot_row[c]
    chart = piv.chart
    inv = piv.unit_inverse()
    zero = Poly.const(chart, 0)
    live = [(j, e * inv) for j, e in enumerate(pivot_row) if j != c and e.terms]
    for i in rows:
        row = m[i]
        minus_f = -row[c]
        if not minus_f.terms:
            continue
        for j, b in live:
            row[j] = sum_products(chart, ((1, row[j]), (minus_f, b)))
        row[c] = zero
    for j, b in live:
        pivot_row[j] = b
    pivot_row[c] = Poly.const(chart, 1)
    return piv


def _perm_sign(src: Sequence[int], dst: Sequence[int]) -> int:
    """The sign of the permutation taking src[i] to dst[i]."""
    perm = dict(zip(src, dst))
    sign = 1
    for start in src:
        # walk each cycle once, from its first element; a cycle of
        # length L contributes (-1)^(L-1)
        x = perm.pop(start, None)
        while x is not None and x != start:
            sign = -sign
            x = perm.pop(x)
    return sign


def _unit_elimination(m: Matrix, n: int, jordan: bool):
    """Eliminate on unit pivots of the leading n x n block of m while one is
    left; returns (sign * product of the pivots, the pivots (r, c) in order,
    the rows left, the columns left).

    Each pivot column is cleared from every other row (Gauss-Jordan) when
    ``jordan`` is set, else from the rows left only, which then hold the
    Schur complement on the columns left.  A pivot row has no entry in the
    earlier pivot columns, so it carries only columns still live.  The sign
    is that of the permutation taking the pivot rows, then the rows left, to
    the pivot columns, then the columns left."""
    rows, cols = list(range(n)), list(range(n))
    pivots: List[Tuple[int, int]] = []
    product = Poly.const(m[0][0].chart, 1)
    while rows:
        found = _unit_pivot(m, rows, cols)
        if found is None:
            break
        r, c = found
        rows.remove(r)
        cols.remove(c)
        pivots.append(found)
        clear = [i for i in range(n) if i != r] if jordan else rows
        product = product * _unit_step(m, r, c, clear)
    if _perm_sign([r for r, _ in pivots] + rows, [c for _, c in pivots] + cols) < 0:
        product = -product
    return product, pivots, rows, cols


def mat_det(matrix: Matrix) -> Poly:
    """Determinant by unit-pivot elimination.

    Each pivot is a unit of the chart's ring (a monomial shift to divide
    by), picked by least Markowitz cost on the remaining submatrix, and the
    rows not yet pivoted are cleared with no other division.  det = sign *
    (product of the pivots) * det(S), with the sign of the pivot permutation
    and S the Schur complement left when no unit remains; det(S) is taken by
    fraction-free Bareiss elimination (S is empty on the package's matrices).
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    m = [row[:] for row in matrix]
    det, _, rows, cols = _unit_elimination(m, n, jordan=False)
    if rows:
        det = det * _bareiss_det([[m[r][c] for c in cols] for r in rows])
    return det


def mat_adjugate(matrix: Matrix) -> Matrix:
    """Adjugate by unit-pivot Gauss-Jordan elimination on [A | I].

    Pivots are units chosen as in ``mat_det``; each step divides the pivot
    row by its pivot and clears the pivot column from every other row.  After
    n pivots (r, c) the row r of the right half is row c of A^-1, and
    adj(A) = det(A) * A^-1 with det(A) = sign * (product of the pivots).  When
    no unit pivot remains (the determinant may still be a unit, e.g.
    [[1+x, x], [2+x, 1+x]] with x not Laurent) the adjugate is taken by the
    fraction-free sweep over the whole matrix instead.  A singular matrix of
    size n >= 2 raises NonInvertibleMatrix; the 1x1 adjugate is [[1]].
    """
    n = len(matrix)
    chart = matrix[0][0].chart
    if n == 1:
        return [[Poly.const(chart, 1)]]
    zero = Poly.const(chart, 0)
    one = Poly.const(chart, 1)
    m = [list(row) + [one if c == r else zero for c in range(n)]
         for r, row in enumerate(matrix)]
    det, pivots, rows, _ = _unit_elimination(m, n, jordan=True)
    if rows:
        return _bareiss_adjugate(matrix)
    adj: Matrix = [None] * n
    for r, c in pivots:
        adj[c] = [e * det for e in m[r][n:]]
    return adj


def _fraction_free_step(m: Matrix, p: int, prev: Poly, rows: Iterable[int],
                        width: int) -> None:
    """One Bareiss step on the pivot m[p][p]: every row r of ``rows`` becomes
    (pivot * a - a_col * a_row) / prev on the columns p+1..width-1, an exact
    division because each entry is a minor (Bareiss, Math. Comp. 22, 1968)."""
    chart = prev.chart
    pivot_row = m[p]
    piv = pivot_row[p]
    for r in rows:
        row = m[r]
        minus_f = -row[p]
        for c in range(p + 1, width):
            num = sum_products(chart, ((piv, row[c]), (minus_f, pivot_row[c])))
            row[c] = num.exact_div(prev)
        row[p] = Poly.const(chart, 0)


def _bareiss_det(m: Matrix) -> Poly:
    """Determinant by natural-order fraction-free elimination (mutates m)."""
    n = len(m)
    prev = Poly.const(m[0][0].chart, 1)
    sign = 1
    for p in range(n - 1):
        if m[p][p].is_zero():
            for r in range(p + 1, n):
                if not m[r][p].is_zero():
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return Poly.const(prev.chart, 0)
        _fraction_free_step(m, p, prev, range(p + 1, n), n)
        prev = m[p][p]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _bareiss_adjugate(matrix: Matrix) -> Matrix:
    """Adjugate by one fraction-free Gauss-Jordan sweep on [A | I], for n >= 2.

    The sweep ends at [d I | T] with d = sign * det(A), so adj(A) = sign * T,
    where sign counts the row swaps; a singular matrix raises
    NonInvertibleMatrix."""
    n = len(matrix)
    chart = matrix[0][0].chart
    zero = Poly.const(chart, 0)
    one = Poly.const(chart, 1)
    m = [list(row) + [one if c == r else zero for c in range(n)]
         for r, row in enumerate(matrix)]
    sign = 1
    prev = one
    for p in range(n):
        for r in range(p, n):
            if not m[r][p].is_zero():
                break
        else:
            raise NonInvertibleMatrix("matrix is singular")
        if r != p:
            m[p], m[r] = m[r], m[p]
            sign = -sign
        _fraction_free_step(m, p, prev, [r for r in range(n) if r != p], 2 * n)
        prev = m[p][p]
    return [[-e if sign < 0 else e for e in row[n:]] for row in m]


def unit_det(matrix: Matrix) -> Poly:
    """The determinant, required to be a unit of the chart's ring (so the
    matrix is invertible over it); raises NonInvertibleMatrix otherwise."""
    return _require_unit(mat_det(matrix))


def _require_unit(det: Poly) -> Poly:
    if det.is_zero():
        raise NonInvertibleMatrix("determinant is zero")
    if not det.is_unit_monomial():
        raise NonInvertibleMatrix(f"determinant is not a unit: {det!r}")
    return det


def mat_inverse_unit(matrix: Matrix) -> Matrix:
    """Exact inverse of a matrix whose determinant is a unit of its chart's ring.

    det(A) is read off the adjugate as row 0 of A times column 0 of adj(A);
    a determinant that is no unit raises NonInvertibleMatrix."""
    adj = mat_adjugate(matrix)
    det = sum_products(matrix[0][0].chart, zip(matrix[0], [row[0] for row in adj]))
    inv_det = _require_unit(det).unit_inverse()
    return [[entry * inv_det for entry in row] for row in adj]


def contract(matrix: Sequence[Sequence], tensor: list, axis: int) -> list:
    """out[..i..] = sum_a matrix[i][a] * tensor[..a..], summed along ``axis``.

    ``tensor`` is a nested list with Poly entries; ``matrix`` holds Polys or
    rationals.  Zero factors are skipped.
    """
    if axis:
        return [contract(matrix, sub, axis - 1) for sub in tensor]
    out = []
    for row in matrix:
        nonzero = [(a, c) for a, c in enumerate(row)
                   if not (c.is_zero() if isinstance(c, Poly) else c == 0)]
        out.append(_combine(nonzero, tensor))
    return out


def _combine(row: List[tuple], parts: list):
    """The sum of c * parts[a] over the pairs (a, c) of ``row``, entry by entry."""
    first = parts[0]
    if isinstance(first, Poly):
        return sum_products(first.chart, [(c, parts[a]) for a, c in row])
    return [_combine(row, [part[idx] for part in parts]) for idx in range(len(first))]


# ---------------------------------------------------------------------------
# Weighted monomial enumeration (positive weights only, hence finite)
# ---------------------------------------------------------------------------

def monomials_of_weighted_degree(chart: Chart, names: Sequence[str],
                                 target: Fraction) -> List[Dict[str, int]]:
    """All monomials in the given variables of exact weighted degree target.

    Every listed variable must have positive weight, which bounds the search.
    """
    target = rat(target)
    weights = []
    for nm in names:
        w = chart.weight(nm)
        if w <= 0:
            raise ValueError(f"variable {nm!r} has non-positive weight {w}")
        weights.append(w)
    out: List[Dict[str, int]] = []

    def rec(i: int, remaining: Fraction, acc: Dict[str, int]):
        if remaining == 0:
            out.append(dict(acc))
            return
        if i == len(names) or remaining < 0:
            return
        w = weights[i]
        max_e = int(remaining / w)
        for e in range(max_e, -1, -1):
            if e:
                acc[names[i]] = e
            rec(i + 1, remaining - w * e, acc)
            acc.pop(names[i], None)

    rec(0, target, {})
    return out
