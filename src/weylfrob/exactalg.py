"""Exact sparse Laurent-polynomial arithmetic over the rationals.

A polynomial lives on a Chart: an ordered list of named, weighted variables,
some of which may be Laurent (negative exponents permitted).  Terms are stored
as a dict mapping exponent tuples (one int per chart variable) to Fraction
coefficients; zero coefficients are never stored, so equality of term maps is
equality of polynomials.

A chart may designate one variable as the exponential of an extra logarithmic
coordinate (E = exp of the last coordinate).  Differentiation along that
coordinate acts as E*d/dE, which keeps the ring purely polynomial.

The module also provides the exact linear algebra the rest of the package
leans on: an incremental rational Gaussian eliminator, a fraction-free
(Bareiss) determinant, and the two primitives every tensor computation goes
through: ``mat_inverse_unit`` (the one exact inverse) and ``contract`` (the
one index contraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Rational = Fraction
Exponents = Tuple[int, ...]


class ChartMismatch(ValueError):
    """Operands of a ring operation belong to different charts."""


class NonExactDivision(ArithmeticError):
    """poly_exact_div was asked for a quotient that does not exist."""


class NonUnitLaurentSubstitution(ValueError):
    """A negatively-exponentiated variable was bound to a non-monomial."""


class NotHomogeneous(ValueError):
    """A polynomial expected to be weighted-homogeneous is not."""

    def __init__(self, message: str, offenders: Optional[list] = None):
        super().__init__(message)
        self.offenders = offenders or []


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
        self._weights = tuple(v.weight for v in self.vars)
        self._laurent = tuple(v.laurent for v in self.vars)

    def weight(self, name: str) -> Fraction:
        return self.vars[self.index[name]].weight

    def var(self, name: str) -> "Poly":
        return Poly.variable(self, name)

    def zero(self) -> "Poly":
        return Poly(self, {})

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
        return len(self.terms) == 1

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
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.chart, {}, normalized=True)
            other = rat(other)
            return Poly(self.chart, {e: c * other for e, c in self.terms.items()},
                        normalized=True)
        self._check_chart(other)
        out: Dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key)
                if s is None:
                    out[key] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return Poly(self.chart, out, normalized=True)

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
        """Inverse of a single-term polynomial (raises if not a unit)."""
        if len(self.terms) != 1:
            raise NonExactDivision("inverse of a non-monomial requested")
        (exps, coeff), = self.terms.items()
        inv = tuple(-e for e in exps)
        return Poly(self.chart, {inv: 1 / coeff})

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
        return Poly(chart, {k: v for k, v in out.items() if v})

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
                        f"to a {len(base.terms)}-term polynomial")
                val = base.unit_inverse() ** (-e)
            cache[key] = val
            return val

        total = Poly.const(target, 0)
        for exps, c in self.terms.items():
            term = Poly.const(target, c)
            for var, e in zip(self.chart.vars, exps):
                if e:
                    term = term * power_of(var.name, e)
            total = total + term
        return total

    # ---- exact division ----

    def exact_div(self, q: "Poly") -> "Poly":
        """Return r with r*q == self exactly, else raise NonExactDivision."""
        self._check_chart(q)
        if q.is_zero():
            raise ZeroDivisionError("exact division by zero polynomial")
        if self.is_zero():
            return Poly(self.chart, {}, normalized=True)
        if q.is_unit_monomial():
            (qe, qc), = q.terms.items()
            out = {}
            for e, c in self.terms.items():
                key = tuple(a - b for a, b in zip(e, qe))
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
        p_terms = {tuple(a + s for a, s in zip(e, shift_p)): c for e, c in self.terms.items()}
        q_terms = {tuple(a + s for a, s in zip(e, shift_q)): c for e, c in q.terms.items()}
        lead_q = max(q_terms, key=_grlex_key)
        cq = q_terms[lead_q]
        quot: Dict[Exponents, Fraction] = {}
        rem = dict(p_terms)
        while rem:
            lead_r = max(rem, key=_grlex_key)
            d = tuple(a - b for a, b in zip(lead_r, lead_q))
            if any(x < 0 for x in d):
                raise NonExactDivision("division left a nonzero remainder")
            c = rem[lead_r] / cq
            quot[d] = quot.get(d, Fraction(0)) + c
            for e2, c2 in q_terms.items():
                key = tuple(a + b for a, b in zip(d, e2))
                s = rem.get(key, Fraction(0)) - c * c2
                if s:
                    rem[key] = s
                elif key in rem:
                    del rem[key]
        correction = tuple(sq - sp for sq, sp in zip(shift_q, shift_p))
        out = {}
        for e, c in quot.items():
            if not c:
                continue
            key = tuple(a + b for a, b in zip(e, correction))
            for x, lau in zip(key, self.chart._laurent):
                if x < 0 and not lau:
                    raise NonExactDivision("quotient needs a negative exponent "
                                           "on a non-laurent variable")
            out[key] = c
        return Poly(self.chart, out, normalized=True)

    # ---- grading ----

    def term_weight(self, exps: Exponents) -> Fraction:
        return sum((w * e for w, e in zip(self.chart._weights, exps)), Fraction(0))

    def weighted_degree(self) -> Fraction:
        """Common weighted degree of all terms (0 for the zero polynomial)."""
        if not self.terms:
            return Fraction(0)
        degs = {self.term_weight(e) for e in self.terms}
        if len(degs) > 1:
            offenders = [(self.exponents_as_dict(e), self.term_weight(e))
                         for e in self.terms]
            raise NotHomogeneous(
                f"mixed weighted degrees {sorted(degs)} in chart {self.chart.name!r}",
                offenders)
        return degs.pop()

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


def mat_det(matrix: Matrix) -> Poly:
    """Determinant by fraction-free Bareiss elimination (exact divisions)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    chart = matrix[0][0].chart
    m = [row[:] for row in matrix]
    sign = 1
    prev = Poly.const(chart, 1)
    for p in range(n - 1):
        if m[p][p].is_zero():
            for r in range(p + 1, n):
                if not m[r][p].is_zero():
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return Poly.const(chart, 0)
        piv = m[p][p]
        for r in range(p + 1, n):
            for c in range(p + 1, n):
                num = m[r][c] * piv - m[r][p] * m[p][c]
                m[r][c] = num.exact_div(prev)
            m[r][p] = Poly.const(chart, 0)
        prev = piv
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def mat_adjugate(matrix: Matrix) -> Matrix:
    """Adjugate by one fraction-free Gauss-Jordan sweep on [A | I].

    Each step replaces every entry off the pivot row by
    (pivot * a - a_col * a_row) / previous pivot, an exact division because
    every entry is a minor of [A | I] (Bareiss, Math. Comp. 22, 1968).  The
    sweep ends at [d I | T] with d = sign * det(A), so adj(A) = sign * T,
    where sign counts the row swaps.  A singular matrix of size n >= 2 raises
    NonInvertibleMatrix; the 1x1 adjugate is [[1]].
    """
    n = len(matrix)
    chart = matrix[0][0].chart
    if n == 1:
        return [[Poly.const(chart, 1)]]
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
        pivot_row = m[p]
        piv = pivot_row[p]
        for r in range(n):
            if r == p:
                continue
            row = m[r]
            f = row[p]
            for c in range(p + 1, 2 * n):
                num = row[c] * piv
                if not f.is_zero() and not pivot_row[c].is_zero():
                    num = num - f * pivot_row[c]
                row[c] = num.exact_div(prev)
            row[p] = zero
        prev = piv
    return [[-e if sign < 0 else e for e in row[n:]] for row in m]


def mat_inverse_unit(matrix: Matrix) -> Matrix:
    """Exact inverse of a matrix whose determinant is a unit monomial."""
    det = mat_det(matrix)
    if det.is_zero():
        raise NonInvertibleMatrix("determinant is zero")
    if not det.is_unit_monomial():
        raise NonInvertibleMatrix(f"determinant is not a unit monomial: {det!r}")
    inv_det = det.unit_inverse()
    adj = mat_adjugate(matrix)
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
        acc = Poly.const(first.chart, 0)
        for a, c in row:
            if not parts[a].is_zero():
                acc = acc + c * parts[a]
        return acc
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
