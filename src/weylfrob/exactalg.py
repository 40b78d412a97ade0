"""Exact sparse Laurent-polynomial arithmetic over the rationals.

A polynomial lives on a Chart: an ordered list of named, weighted variables,
some of which may be Laurent (negative exponents permitted).

A Poly stores one representation: its terms as integer numerators over one
minimal positive denominator (the gcd of the denominator and all numerators
is 1), in a dict keyed by packed exponents.  A key packs the exponent vector
into one int of ``FIELD_BITS``-bit fields, each biased by 2^(FIELD_BITS-1):
the total degree in the top field, then variable 0, ..., the last variable
in the bottom one.  Integer order of keys is therefore graded-lex order, a
monomial product is a key sum minus the bias, and equal polynomials have
equal term dicts and denominators.  Every exponent and total degree must lie
strictly between -2^(FIELD_BITS-1) and 2^(FIELD_BITS-1); each Poly keeps an
upper bound of its largest |exponent| (total degree included), and an
operation whose result could leave that range raises ExponentOverflow before
a field can wrap.  Fractions are built only at the boundary: ``terms`` is a
read-only mapping (exponent tuple -> Fraction) built on demand, for display
and tests; ``reduced_terms`` hands serialization each term's nonzero
exponents by name and its coefficient as a reduced integer pair.

A chart may designate one variable as the exponential of an extra logarithmic
coordinate (E = exp of the last coordinate).  Differentiation along that
coordinate acts as E*d/dE, which keeps the ring purely polynomial.

Products and sums of products go through one kernel, ``sum_products``,
which adds the products of integer numerators over one common denominator
(sparse products with packed exponents in the manner of Monagan and
Pearce).  ``Poly.__mul__`` is its one-pair case.  ``substitute_all``
composes a batch of polynomials through one table of monomial images.

The module also provides the exact linear algebra the rest of the package
leans on: a fraction-free integer-row linear solver, the determinant and
adjugate of Poly matrices, and the primitives every tensor computation goes
through: ``mat_inverse_unit`` (the one exact inverse) and ``contract`` (the
one index contraction).  Determinants and inverses eliminate on unit pivots
(single terms in the chart's Laurent variables) of least Markowitz cost, so
each division is a monomial shift; the only polynomial division anywhere is
by a unit.  A matrix with no unit pivot left and a nonzero remainder raises
NonInvertibleMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import (Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

Rational = Fraction
Exponents = Tuple[int, ...]

FIELD_BITS = 16
_HALF = 1 << (FIELD_BITS - 1)  # the bias of a field; |exponent| < _HALF
_MASK = (1 << FIELD_BITS) - 1


class ChartMismatch(ValueError):
    """Operands of a ring operation belong to different charts."""


class NonExactDivision(ArithmeticError):
    """A quotient that does not exist was asked for: the inverse of a
    non-unit, or an antiderivative that needs a logarithm."""


class NonUnitLaurentSubstitution(ValueError):
    """A negatively-exponentiated variable was bound to a non-unit."""


class NonInvertibleMatrix(ArithmeticError):
    """A matrix expected to have a unit (monomial) determinant does not, or
    its elimination ran out of unit pivots before the remainder was zero."""


class ExponentOverflow(OverflowError):
    """An exponent or total degree would leave its packed field."""


def rat(value) -> Fraction:
    """Coerce ints, strings like '1/48', or Fractions to Fraction.  A float
    raises TypeError: it would enter as its binary fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact coefficient {value!r}: use an int, a Fraction or a string")
    return Fraction(value)


def _parts(value) -> Tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or anything rat takes."""
    if isinstance(value, int):
        return value, 1
    value = rat(value)
    return value.numerator, value.denominator


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
        n = self.nvars = len(self.vars)
        self.dim = len(self.coords)
        # weights as integer numerators over their lcm: a term's weight is
        # one integer dot product
        den = lcm(1, *(v.weight.denominator for v in self.vars))
        self._weight_den = den
        self._weight_nums = tuple(v.weight.numerator * (den // v.weight.denominator)
                                  for v in self.vars)
        # the packed layout: variable i in the field FIELD_BITS * (n-1-i)
        # bits up, the total degree above them all
        self._shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self._deg_shift = FIELD_BITS * n
        self._bias = sum(_HALF << s for s in self._shifts + (self._deg_shift,))
        # the key step that raises variable i (and the degree) by one
        self._units = tuple((1 << s) + (1 << self._deg_shift) for s in self._shifts)
        self._laurent = any(v.laurent for v in self.vars)
        fixed = [s for s, v in zip(self._shifts, self.vars) if not v.laurent]
        # a key's non-Laurent fields, and their top bits: set exactly when
        # the exponent is >= 0, all-bias exactly when it is 0
        self._fixed_mask = sum(_MASK << s for s in fixed)
        self._fixed_half = sum(_HALF << s for s in fixed)

    def weight(self, name: str) -> Fraction:
        return self.vars[self.index[name]].weight

    def var(self, name: str) -> "Poly":
        return Poly.variable(self, name)

    def pack(self, exps: Sequence[int]) -> int:
        """The packed key of an exponent vector; ExponentOverflow when an
        exponent or the total degree is out of range."""
        if len(exps) != self.nvars:
            raise ValueError(f"{len(exps)} exponents for the {self.nvars} variables "
                             f"of chart {self.name!r}")
        deg = sum(exps)
        if not all(-_HALF < e < _HALF for e in exps) or not -_HALF < deg < _HALF:
            raise ExponentOverflow(f"exponents {tuple(exps)} exceed the packed field "
                                   f"bound +-{_HALF - 1}")
        return self._bias + (deg << self._deg_shift) + sum(map(int.__lshift__, exps,
                                                               self._shifts))

    def _along(self, coord: str) -> Tuple[int, int]:
        """(shift of the field, key step) of d/d coord: the exponent it
        reads, and what a term's key loses (E*d/dE keeps the key)."""
        if coord == self.log_coord:
            return self._shifts[self.index[self.exp_var]], 0
        i = self.index[coord]
        return self._shifts[i], self._units[i]

    def unpack(self, key: int) -> Exponents:
        """The exponent vector of a packed key."""
        return tuple(((key >> s) & _MASK) - _HALF for s in self._shifts)

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


class Poly:
    """Sparse multivariate Laurent polynomial with exact rational coefficients.

    Immutable: the term dict ``_nums`` (packed key -> integer numerator)
    and the denominator ``_den`` are never changed after construction, so
    Polys may be shared.  ``_bound`` bounds the largest |exponent| and
    |total degree| of the terms from above (it is made exact on demand)."""

    __slots__ = ("chart", "_nums", "_den", "_bound")

    def __init__(self, chart: Chart, terms: Mapping[Exponents, Fraction]):
        parts = [(chart.pack(exps), _parts(c)) for exps, c in terms.items()]
        den = lcm(1, *[d for _, (n, d) in parts if n])
        # reduced fractions over the lcm of their denominators: minimal
        nums = {k: n * (den // d) for k, (n, d) in parts if n}
        fixed = chart._fixed_half
        for k in nums:
            if k & fixed != fixed:
                raise ValueError(f"negative exponent on non-laurent variable in chart "
                                 f"{chart.name!r}: {chart.unpack(k)}")
        self.chart, self._nums, self._den = chart, nums, den
        self._bound = _exact_bound(self)

    @classmethod
    def _raw(cls, chart: Chart, nums: Dict[int, int], den: int, bound: int) -> "Poly":
        """A Poly from canonical parts: no zero numerator, gcd(den, nums) = 1."""
        p = object.__new__(cls)
        p.chart, p._nums, p._den, p._bound = chart, nums, den, bound
        return p

    @staticmethod
    def from_packed(chart: Chart, nums: Mapping[int, int], den: int,
                    bound: Optional[int] = None) -> "Poly":
        """The Poly sum nums[k] / den * x^k over packed keys k of ``chart``;
        ``bound``, when given, bounds every |exponent| and |total degree| of
        the terms from above (else it is computed)."""
        p = _canon(chart, dict(nums), den, bound or 0)
        if bound is None:
            p._bound = _exact_bound(p)
        return p

    # ---- constructors ----

    @staticmethod
    def const(chart: Chart, c) -> "Poly":
        n, d = _parts(c)
        if not n:
            return Poly._raw(chart, {}, 1, 0)
        return Poly._raw(chart, {chart._bias: n}, d, 0)

    @staticmethod
    def variable(chart: Chart, name: str) -> "Poly":
        return Poly.monomial(chart, {name: 1})

    @staticmethod
    def monomial(chart: Chart, exps: Mapping[str, int], coeff=1) -> "Poly":
        e = [0] * chart.nvars
        for nm, p in exps.items():
            e[chart.index[nm]] += p
        return Poly(chart, {tuple(e): coeff})

    # ---- basic structure ----

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """The terms as a read-only mapping exponent tuple -> Fraction,
        built on demand."""
        unpack, den = self.chart.unpack, self._den
        return MappingProxyType({unpack(k): Fraction(v, den) for k, v in self._nums.items()})

    @property
    def packed(self) -> Mapping[int, int]:
        """The stored terms: a read-only mapping packed key -> numerator."""
        return MappingProxyType(self._nums)

    @property
    def den(self) -> int:
        """The common denominator of the stored numerators."""
        return self._den

    def is_zero(self) -> bool:
        return not self._nums

    def is_unit_monomial(self) -> bool:
        """A unit of the chart's ring: one term whose nonzero exponents all
        sit on Laurent variables."""
        if len(self._nums) != 1:
            return False
        chart = self.chart
        for key in self._nums:
            return key & chart._fixed_mask == chart._fixed_half

    def constant_value(self) -> Fraction:
        """The coefficient of the empty monomial (the value if constant)."""
        if not self._nums:
            return Fraction(0)
        v = self._nums.get(self.chart._bias)
        if v is None or len(self._nums) != 1:
            raise ValueError("polynomial is not constant")
        return Fraction(v, self._den)

    def sorted_terms(self) -> List[Tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (canonical serialization order)."""
        unpack, den = self.chart.unpack, self._den
        return [(unpack(k), Fraction(v, den))
                for k, v in sorted(self._nums.items(), reverse=True)]

    def reduced_terms(self) -> Iterator[Tuple[List[Tuple[str, int]], int, int]]:
        """(the nonzero (name, exponent) pairs, numerator, denominator) of each
        term in ``sorted_terms`` order, the coefficient in lowest terms."""
        fields = [(v.name, s) for v, s in zip(self.chart.vars, self.chart._shifts)]
        den, mask, half = self._den, _MASK, _HALF
        for k, v in sorted(self._nums.items(), reverse=True):
            g = gcd(v, den)
            yield ([(name, e) for name, s in fields if (e := ((k >> s) & mask) - half)],
                   v // g, den // g)

    def exponent_range(self) -> Tuple[Exponents, Exponents]:
        """The least and the largest exponent of each variable over the
        terms (two empty tuples for the zero polynomial)."""
        cols = list(zip(*map(self.chart.unpack, self._nums)))
        return tuple(map(min, cols)), tuple(map(max, cols))

    def exponents_as_dict(self, exps: Exponents) -> Dict[str, int]:
        return {v.name: e for v, e in zip(self.chart.vars, exps) if e != 0}

    # ---- ring operations ----

    def __add__(self, other) -> "Poly":
        return sum_products(self.chart, ((1, self), (1, self._coerce(other))))

    def __neg__(self) -> "Poly":
        return Poly._raw(self.chart, {k: -v for k, v in self._nums.items()},
                         self._den, self._bound)

    def __sub__(self, other) -> "Poly":
        return sum_products(self.chart, ((1, self), (-1, self._coerce(other))))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return sum_products(self.chart, ((self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _scale(self, other.numerator, other.denominator)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            return self.unit_inverse() ** (-n)
        result, base = Poly.const(self.chart, 1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.chart, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return (self._den == other._den and self._nums == other._nums
                    and self.chart == other.chart)
        return isinstance(other, (int, Fraction)) and self == Poly.const(self.chart, other)

    def __hash__(self):
        return hash((self.chart.name, self._den, frozenset(self._nums.items())))

    def unit_inverse(self) -> "Poly":
        """Inverse of a unit of the chart's ring (raises NonExactDivision
        otherwise): a monomial shift."""
        if not self.is_unit_monomial():
            raise NonExactDivision(f"inverse of a non-unit requested: {self!r}")
        (key, v), = self._nums.items()
        # every field e + B becomes -e + B; c = v / den becomes den / v
        num, den = (self._den, v) if v > 0 else (-self._den, -v)
        return Poly._raw(self.chart, {2 * self.chart._bias - key: num}, den, self._bound)

    # ---- calculus ----

    def diff(self, name: str) -> "Poly":
        """Formal partial derivative; the chart's log coordinate maps to E*d/dE."""
        chart = self.chart
        s, step = chart._along(name)
        out = {}
        for k, v in self._nums.items():
            e = ((k >> s) & _MASK) - _HALF
            if e:
                out[k - step] = v * e
        return _canon(chart, out, self._den, _bound_of(1 if step else 0, self))

    def coord_diff(self, i: int) -> "Poly":
        """Derivative along the chart's i-th coordinate (0-based)."""
        return self.diff(self.chart.coords[i])

    def coord_integral(self, i: int) -> "Poly":
        """The antiderivative along the chart's i-th coordinate that
        ``coord_diff(i)`` maps back to self term by term (no constant
        term); NonExactDivision when a term would need a logarithm."""
        chart = self.chart
        name = chart.coords[i]
        s, step = chart._along(name)
        bound = _bound_of(1 if step else 0, self)
        raw = []
        for k, v in self._nums.items():
            k += step
            e = ((k >> s) & _MASK) - _HALF
            if not e:
                raise NonExactDivision(f"the antiderivative along {name} needs a logarithm")
            raw.append((k, v, e))
        scale = lcm(1, *[e for _, _, e in raw])
        return _canon(chart, {k: v * (scale // e) for k, v, e in raw},
                      self._den * scale, bound)

    # ---- substitution ----

    def substitute(self, bindings: Mapping[str, "Poly"], target: Chart) -> "Poly":
        """Exact composition: replace each chart variable by its binding
        (``substitute_all`` of this one polynomial)."""
        return substitute_all([self], bindings, target)[0]

    # ---- grading ----

    def graded(self, power: int = 1) -> Tuple["Poly", "Poly"]:
        """(the sum of w^power c x^e over the terms c x^e of nonzero weight
        w, for power = 1 or -1; the terms of weight 0)."""
        chart = self.chart
        wnums, wden, unpack = chart._weight_nums, chart._weight_den, chart.unpack
        raw, flat = [], {}
        for k, v in self._nums.items():
            w = sum(map(mul, wnums, unpack(k)))
            if w:
                raw.append((k, v, w))
            else:
                flat[k] = v
        # w = wn / wden: c w = v wn / (den wden) and c / w = v wden / (den wn)
        if power == 1:
            scaled = _canon(chart, {k: v * w for k, v, w in raw},
                            self._den * wden, self._bound)
        else:
            scale = lcm(1, *[w for _, _, w in raw])
            scaled = _canon(chart, {k: v * wden * (scale // w) for k, v, w in raw},
                            self._den * scale, self._bound)
        return scaled, _canon(chart, flat, self._den, self._bound)

    # ---- display ----

    def __repr__(self):
        if not self._nums:
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
# Canonical form, exponent bounds, and the product-sum kernel
# ---------------------------------------------------------------------------

def _canon(chart: Chart, acc: Dict[int, int], den: int, bound: int) -> Poly:
    """The Poly of the numerators ``acc`` over ``den`` > 0: zeros dropped,
    then one gcd pass to the minimal denominator D / gcd(D, all v)."""
    nums = {k: v for k, v in acc.items() if v}
    if not nums:
        return Poly._raw(chart, nums, 1, 0)
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    return Poly._raw(chart, nums, den, bound)


def _exact_bound(p: Poly) -> int:
    """The largest |exponent| and |total degree| over the terms of p."""
    if not p._nums:
        return 0
    deg_shift = p.chart._deg_shift
    if not p.chart._laurent:
        # no Laurent variable: every exponent is >= 0 and at most the degree
        # of the last key in graded-lex order
        return (max(p._nums) >> deg_shift) - _HALF
    lo, hi = p.exponent_range()
    degs = [(k >> deg_shift) - _HALF for k in (min(p._nums), max(p._nums))]
    return max(map(abs, lo + hi + tuple(degs)))


def _bound_of(extra: int, *ps: Poly) -> int:
    """extra plus the sum of the exponent bounds of ps: the bound of a
    result whose exponents are sums of theirs (plus at most ``extra``).
    When it reaches the field bound the operands' bounds are made exact
    first; ExponentOverflow if it still does."""
    bound = extra + sum(p._bound for p in ps)
    if bound < _HALF:
        return bound
    for p in ps:
        p._bound = _exact_bound(p)
    bound = extra + sum(p._bound for p in ps)
    if bound < _HALF:
        return bound
    raise ExponentOverflow(f"a result exponent could reach {bound}, beyond the packed "
                           f"field bound +-{_HALF - 1}")


def _scale(p: Poly, n: int, d: int) -> Poly:
    """p * n / d for integers n and d > 0."""
    if not n or not p._nums:
        return Poly._raw(p.chart, {}, 1, 0)
    if n == d:
        return p
    return _canon(p.chart, {k: v * n for k, v in p._nums.items()}, p._den * d, p._bound)


def overlay(chart: Chart, polys: Sequence[Poly]) -> Poly:
    """The Poly holding the terms of all ``polys``, the last one's coefficient
    on a monomial several of them share.  Its exponent bound is the largest
    of theirs, so no key is unpacked."""
    den = lcm(1, *[p._den for p in polys])
    nums: Dict[int, int] = {}
    for p in polys:
        scale = den // p._den
        nums.update((k, v * scale) for k, v in p._nums.items())
    return _canon(chart, nums, den, max([p._bound for p in polys], default=0))


def sum_products(chart: Chart, pairs: Iterable[tuple]) -> Poly:
    """The exact sum of x * y over the pairs (x, y) of ``pairs``.

    Each x is a Poly or a rational (int or Fraction) and each y is a Poly,
    all on ``chart``.  All products of stored numerators are added as Python
    ints over one common denominator D, keyed by the sum of the packed keys
    less the bias, and the result is brought to canonical form once.  D is
    the lcm of the pairs' denominators so far: when a pair raises it, the
    running sum is rescaled, so ``pairs`` is read once.  Each pair checks
    once that its exponent bounds stay inside the packed fields.
    """
    acc: Dict[int, int] = {}
    get = acc.get
    den = 1
    bound = 0
    bias = chart._bias
    for x, y in pairs:
        if y.chart is not chart and y.chart != chart:
            raise ChartMismatch(f"{chart.name!r} vs {y.chart.name!r}")
        ynums = y._nums
        if isinstance(x, Poly):
            if x.chart is not chart and x.chart != chart:
                raise ChartMismatch(f"{chart.name!r} vs {x.chart.name!r}")
            xnums = x._nums
            if not xnums or not ynums:
                continue
            dx = x._den
            b = x._bound + y._bound
            if b >= _HALF:
                b = _bound_of(0, x, y)
        else:
            if not x or not ynums:
                continue
            xnums = None
            xn, dx = x.numerator, x.denominator
            b = y._bound
        if b > bound:
            bound = b
        d = dx * y._den
        if den % d:
            grown = lcm(den, d)
            up = grown // den
            for e in acc:
                acc[e] *= up
            den = grown
        scale = den // d
        if xnums is None:
            xn *= scale
            for k, v in ynums.items():
                acc[k] = get(k, 0) + xn * v
            continue
        for k1, a in xnums.items():
            a *= scale
            k1 -= bias
            for k2, v in ynums.items():
                key = k1 + k2
                acc[key] = get(key, 0) + a * v
    return _canon(chart, acc, den, bound)


class FlatnessRows:
    """The integer rows of the flatness operator of one set of lowered
    Christoffel symbols ``gammas`` (gammas[m][i][j] = gamma^m_{ij}).

    Called on columns, it yields for the numerator polynomial N of each
    column the integer rows of s_ij (d_i d_j N - sum_m gamma^m_{ij} d_m N)
    over the pairs i <= j, with s_ij the lcm of the gamma^m_{ij}
    denominators: a dict keyed by the pair's index stacked above the
    monomial's packed key, so equal keys across columns name one equation.
    d_i d_j of a term is a key shift and gamma^m_{ij} times a term of d_m N
    shifts gamma's keys.  Gamma's terms are scaled and shifted, and its
    exponent bound taken, once per instance, not once per call."""

    def __init__(self, gammas: Sequence[Sequence[Sequence[Poly]]]):
        self.gammas = gammas
        n = len(gammas)
        bias = gammas[0][0][0].chart._bias
        self._top = top = bias.bit_length()  # a row's key: pair index b above a monomial key
        self._pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self._scales = []
        self._by_m: List[List[Tuple[int, int]]] = [[] for _ in range(n)]  # shifted, scaled
        for b, (i, j) in enumerate(self._pairs):
            gs = [(m, gammas[m][i][j]) for m in range(n) if gammas[m][i][j]._nums]
            self._scales.append(lcm(1, *[g._den for _, g in gs]))
            for m, g in gs:
                self._by_m[m] += [((b << top) + k - bias, v * (self._scales[b] // g._den))
                                  for k, v in g._nums.items()]
        self._all = [g for p in gammas for r in p for g in r]
        self._bound = max(g._bound for g in self._all)

    def __call__(self, columns: Sequence[Poly]) -> Iterable[Dict[int, int]]:
        n, top, pairs, scales, by_m = len(self.gammas), self._top, self._pairs, \
            self._scales, self._by_m
        grads = [[Poly._raw(c.chart, c._nums, 1, c._bound).coord_diff(m) for m in range(n)]
                 for c in columns]
        # every product of a gamma and a gradient must stay inside the fields
        flat = [d for ds in grads for d in ds]
        if self._bound + max(d._bound for d in flat) >= _HALF:
            bound = max(map(_exact_bound, self._all)) + max(map(_exact_bound, flat))
            if bound >= _HALF:
                raise ExponentOverflow(f"a product exponent could reach {bound}")
        for ds in grads:
            acc: Dict[int, int] = {}
            for b, (i, j) in enumerate(pairs):  # d_i d_j N = 0 once d_i N or d_j N is
                if ds[i]._nums and ds[j]._nums:
                    acc.update(((b << top) + k, scales[b] * v)
                               for k, v in ds[i].coord_diff(j)._nums.items())
            for m in range(n):
                for k1, a in ds[m]._nums.items():
                    for k2, c in by_m[m]:
                        acc[k1 + k2] = acc.get(k1 + k2, 0) - a * c
            yield acc


def substitute_all(polys: Sequence[Poly], bindings: Mapping[str, Poly],
                   target: Chart) -> List[Poly]:
    """Exact composition of each of ``polys`` (all on one chart) with the
    bindings of its variables; unbound ones are carried over by name into
    the target chart.  The monomial images come from one
    ``_monomial_images`` table for the call.
    """
    if not polys:
        return []
    source = polys[0].chart
    image = _monomial_images(source, bindings, target)
    out = []
    for p in polys:
        if p.chart != source:
            raise ChartMismatch("substitute_all takes polynomials of one chart")
        images = sum_products(target, [(v, image(k)) for k, v in p._nums.items()])
        out.append(_scale(images, 1, p._den))
    return out


def _monomial_images(source: Chart, bindings: Mapping[str, Poly], target: Chart):
    """The image on ``target`` of a packed key of ``source`` under the
    bindings, as a function.  A monomial's image is a smaller one's times
    one binding (its inverse, which must be a unit, for a negative
    exponent), memoized; the variables with the fewest binding terms are
    peeled first."""
    # (term count of the binding, key step, field shift, name), cheapest first
    steps = sorted((len(bindings[v.name]._nums) if v.name in bindings else 1,
                    source._units[i], source._shifts[i], v.name)
                   for i, v in enumerate(source.vars))
    table: Dict[int, Poly] = {source._bias: Poly.const(target, 1)}

    @cache
    def factor(name: str, sign: int) -> Poly:
        """The binding of ``name`` (sign 1) or its inverse (sign -1)."""
        got = bindings.get(name) or Poly.variable(target, name)
        if got.chart != target:
            raise ChartMismatch("bindings live on different charts")
        if sign > 0:
            return got
        if not got.is_unit_monomial():
            raise NonUnitLaurentSubstitution(f"variable {name!r} occurs with negative "
                                             f"exponent but is bound to {got!r}, not a unit")
        return got.unit_inverse()

    def image(key: int) -> Poly:
        path = []  # (key, factor) down to a key in the table
        while key not in table:
            # one step of the cheapest variable present
            _, unit, shift, name = next(s for s in steps if (key >> s[2]) & _MASK != _HALF)
            sign = 1 if (key >> shift) & _MASK > _HALF else -1
            path.append((key, factor(name, sign)))
            key -= sign * unit
        got = table[key]
        for key, f in reversed(path):
            got = table[key] = got * f
        return got

    return image


# ---------------------------------------------------------------------------
# Exact linear solving over the rationals
# ---------------------------------------------------------------------------

def solve_linear(rows: Collection[Mapping[int, int]],
                 unknowns: Sequence) -> Optional[List[Fraction]]:
    """A solution of the integer rows, free unknowns 0, or None when they
    are inconsistent.

    Columns 0..n-1 of a row are the n = len(unknowns) unknowns and column n
    its constant term: the row reads sum_c row[c] x_c + row[n] = 0, and any
    other column is a ValueError.  Rows are eliminated sparsest first by
    fraction-free steps, one gcd pass per row, each pivoting on its
    lowest-index column; those are the pivots of the reduced echelon form in
    any row order, so the solution is too.  Once every unknown has a pivot,
    the rows left are only checked against the solution.
    """
    rhs_col = len(unknowns)
    stray = {c for row in rows for c in row}.difference(range(rhs_col + 1))
    if stray:
        raise ValueError(f"rows name columns {stray} outside 0..{rhs_col}")
    eqs = sorted(filter(None, [_primitive({c: v for c, v in row.items() if v})
                               for row in rows]), key=len)
    # pivot column -> its row, in the order found; a pivot row holds no
    # earlier pivot column, so one pass in that order clears them all
    pivots: Dict[int, Dict[int, int]] = {}
    for at, row in enumerate(eqs):
        if len(pivots) == rhs_col:
            break
        for p, prow in pivots.items():
            if p in row:
                _eliminate(row, p, prow)
        if row:
            lead = min(row)
            if lead == rhs_col:
                return None
            pivots[lead] = _primitive(row)
    else:
        at = len(eqs)
    # back-substitute: each row then holds its pivot, free columns and rhs
    for p in reversed(list(pivots)):
        row = pivots[p]
        for c in [c for c in row if c != p and c in pivots]:
            _eliminate(row, c, pivots[c])
        pivots[p] = _primitive(row)
    if at < len(eqs):
        # every unknown has a pivot: x_p = -X_p / den
        den = lcm(1, *[row[p] for p, row in pivots.items()])
        xs = {p: row.get(rhs_col, 0) * (den // row[p]) for p, row in pivots.items()}
        for row in eqs[at:]:
            if sum(v * xs[c] for c, v in row.items() if c != rhs_col) != \
                    row.get(rhs_col, 0) * den:
                return None
    return [Fraction(-pivots[c].get(rhs_col, 0), pivots[c][c]) if c in pivots else Fraction(0)
            for c in range(rhs_col)]


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _eliminate(row: Dict[int, int], p: int, prow: Dict[int, int]) -> None:
    """row <- a * row - b * prow in place, with a and b the entries of column
    p in prow and row over their gcd, so that column p cancels."""
    g = gcd(prow[p], row[p])
    a, b = prow[p] // g, row[p] // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in prow.items():
        s = row.get(c, 0) - b * v
        if s:
            row[c] = s
        else:
            del row[c]


# ---------------------------------------------------------------------------
# Matrices of Poly: determinant, adjugate, the exact inverse, contraction
# ---------------------------------------------------------------------------

Matrix = List[List[Poly]]


def _unit_pivot(m: Matrix, rows: List[int], cols: List[int]) -> Optional[Tuple[int, int]]:
    """The unit entry m[r][c] (r in ``rows``, c in ``cols``) of least Markowitz
    cost (r_nz - 1)(c_nz - 1), with r_nz and c_nz counted on the submatrix
    rows x cols; ties go to the first in row-major order.  None when the
    submatrix holds no unit."""
    row_nz = {r: sum(1 for c in cols if m[r][c]._nums) for r in rows}
    col_nz = {c: sum(1 for r in rows if m[r][c]._nums) for c in cols}
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
    live = [(j, e * inv) for j, e in enumerate(pivot_row) if j != c and e._nums]
    for i in rows:
        row = m[i]
        minus_f = -row[c]
        if not minus_f._nums:
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
    (product of the pivots), with the sign of the pivot permutation.  When
    no unit is left, a zero Schur complement gives det 0 (every singular
    constant matrix ends so); any other remainder raises NonInvertibleMatrix.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    m = [row[:] for row in matrix]
    det, _, rows, cols = _unit_elimination(m, n, jordan=False)
    if rows:
        if any(m[r][c]._nums for r in rows for c in cols):
            raise NonInvertibleMatrix("no unit pivot left")
        return Poly.const(det.chart, 0)
    return det


def mat_adjugate(matrix: Matrix, inverse: bool = False):
    """Adjugate by unit-pivot Gauss-Jordan elimination on [A | I].

    Pivots are units chosen as in ``mat_det``; each step divides the pivot
    row by its pivot and clears the pivot column from every other row.  After
    n pivots (r, c) the row r of the right half is row c of A^-1, and
    adj(A) = det(A) * A^-1 with det(A) = sign * (product of the pivots).
    With ``inverse`` set it returns (det(A), A^-1) instead, the right half
    as it stands (det(A), a product of units, is one).  When no unit pivot is
    left before n steps (a singular matrix, or one like [[1+x, x], [2+x, 1+x]]
    with x not Laurent, whose determinant 1 no entry shows) it raises
    NonInvertibleMatrix; the 1x1 adjugate is [[1]].
    """
    n = len(matrix)
    chart = matrix[0][0].chart
    if n == 1 and not inverse:
        return [[Poly.const(chart, 1)]]
    zero = Poly.const(chart, 0)
    one = Poly.const(chart, 1)
    m = [list(row) + [one if c == r else zero for c in range(n)]
         for r, row in enumerate(matrix)]
    det, pivots, rows, _ = _unit_elimination(m, n, jordan=True)
    if rows:
        raise NonInvertibleMatrix("no unit pivot left")
    right: Matrix = [None] * n
    for r, c in pivots:
        right[c] = m[r][n:]
    if inverse:
        return det, right
    return [[e * det for e in row] for row in right]


def unit_det(matrix: Matrix) -> Poly:
    """The determinant, required to be a unit of the chart's ring (so the
    matrix is invertible over it); raises NonInvertibleMatrix otherwise.
    A completed unit elimination gives a product of units, so the only
    other outcome of ``mat_det`` to reject is 0."""
    det = mat_det(matrix)
    if det.is_zero():
        raise NonInvertibleMatrix("determinant is zero")
    return det


def mat_inverse_unit(matrix: Matrix) -> Matrix:
    """Exact inverse of a matrix whose determinant is a unit of its chart's
    ring, read off the elimination of ``mat_adjugate``; a matrix on which
    that runs out of unit pivots (every one whose determinant is no unit
    among them) raises NonInvertibleMatrix."""
    return mat_adjugate(matrix, inverse=True)[1]


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


def congruence(matrix: Sequence[Sequence], form: Matrix) -> Matrix:
    """A F A^T for a symmetric matrix F = ``form`` of Polys: only the entries
    i <= j are formed, so symmetry is checked first."""
    n, m = len(form), len(matrix)
    if any(form[i][j] != form[j][i] for i in range(n) for j in range(i)):
        raise ValueError("form is not symmetric")
    half = contract(matrix, form, 0)
    upper = [contract(matrix[i:], half[i], 0) for i in range(m)]  # upper[i][j - i]
    return [[upper[min(i, j)][abs(j - i)] for j in range(m)] for i in range(m)]


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
