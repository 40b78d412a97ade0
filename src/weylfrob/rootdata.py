"""Static data of the B_l / C_l root systems with a marked Dynkin vertex.

Only the data the construction consumes is materialized: the invariant
bilinear form on the extended space (stored with the 1/(4 pi^2) prefactor
cancelled, so all entries are rational), the marked-vertex degrees d_j, the
normalized flat-chart degrees, and the duality involution on indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exactalg import Rational


class InvalidSpec(ValueError):
    """Family/rank/vertex combination outside the supported range."""


@dataclass(frozen=True)
class RootSystemSpec:
    """A root-system family (B or C), its rank, and the marked vertex."""

    family: str
    rank: int
    vertex: int

    def __post_init__(self):
        if self.family not in ("B", "C"):
            raise InvalidSpec(f"family must be 'B' or 'C', got {self.family!r}")
        for name, value in (("rank", self.rank), ("vertex", self.vertex)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidSpec(f"{name} must be an int, got {value!r}")
        if self.rank < 1:
            raise InvalidSpec(f"rank must be positive, got {self.rank}")
        if not 1 <= self.vertex <= self.rank:
            raise InvalidSpec(
                f"vertex must satisfy 1 <= k <= {self.rank}, got {self.vertex}")

    def label(self) -> str:
        return f"{self.family}{self.rank}k{self.vertex}"


@dataclass(frozen=True)
class ExtendedMetric:
    """The invariant form on V + R, scaled by 4 pi^2 (entries are rational).

    The V-block is positive definite; the extra direction carries -1/d_k.
    """

    entries: Tuple[Tuple[Rational, ...], ...]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def degrees(spec: RootSystemSpec) -> Tuple[Rational, ...]:
    l, k = spec.rank, spec.vertex
    if spec.family == "C":
        return tuple(Fraction(min(j, k)) for j in range(1, l + 1))
    if k < l:
        d = [Fraction(min(j, k)) for j in range(1, l)]
        d.append(Fraction(k, 2))
    else:
        d = [Fraction(j, 2) for j in range(1, l)]
        d.append(Fraction(l, 4))
    return tuple(d)


def flat_degrees(l: int, k: int) -> Tuple[Rational, ...]:
    """The natural degrees of the flat coordinates t^1..t^{l+1}."""
    dt = [Fraction(j, k) for j in range(1, k + 1)]
    for m in range(k + 1, l + 1):
        dt.append(Fraction(2 * l - 2 * m + 1, 2 * (l - k)))
    dt.append(Fraction(0))
    return tuple(dt)


def build(spec: RootSystemSpec) -> ExtendedMetric:
    """Construct the extended metric for a marked root system."""
    l, k = spec.rank, spec.vertex
    d = degrees(spec)
    rows = []
    for m in range(1, l + 1):
        row = []
        for n in range(1, l + 1):
            a, b = min(m, n), max(m, n)
            if spec.family == "C":
                val = Fraction(a)
            else:
                val = Fraction(a)
                if b == l:
                    val = val / 2
                if a == l:  # m = n = l
                    val = Fraction(l, 2) - Fraction(l, 4)
            row.append(val)
        row.append(Fraction(0))
        rows.append(tuple(row))
    last = [Fraction(0)] * l + [Fraction(-1) / d[k - 1]]
    rows.append(tuple(last))
    return ExtendedMetric(tuple(rows))


def dual_index(spec: RootSystemSpec, i: int) -> int:
    """The duality involution i -> i* with dtilde_i + dtilde_{i*} = 1.

    Deleting vertex k splits the Dynkin path into {1..k-1} and {k+1..l}; the
    involution reflects each component and swaps k with l+1.
    """
    l, k = spec.rank, spec.vertex
    if not 1 <= i <= l + 1:
        raise InvalidSpec(f"index {i} outside 1..{l + 1}")
    if i == k:
        return l + 1
    if i == l + 1:
        return k
    if i < k:
        return k - i
    return k + l + 1 - i

