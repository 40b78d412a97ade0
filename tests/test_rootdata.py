"""Root-system data: metrics, degrees, duality."""

from fractions import Fraction

import pytest

from weylfrob.rootdata import (ExtendedMetric, InvalidSpec, RootSystemSpec, build,
                               degrees, dual_index, flat_degrees)


def leading_principal_minors_positive(metric: ExtendedMetric, size: int) -> bool:
    """Check positive definiteness of the V-block by Sylvester's criterion."""

    def det(sub):
        n = len(sub)
        m = [row[:] for row in sub]
        sign = 1
        for p in range(n):
            if m[p][p] == 0:
                for r in range(p + 1, n):
                    if m[r][p] != 0:
                        m[p], m[r] = m[r], m[p]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            for r in range(p + 1, n):
                f = m[r][p] / m[p][p]
                for c in range(p, n):
                    m[r][c] -= f * m[p][c]
        prod = Fraction(sign)
        for p in range(n):
            prod *= m[p][p]
        return prod

    for s in range(1, size + 1):
        sub = [[metric[(i, j)] for j in range(s)] for i in range(s)]
        if det(sub) <= 0:
            return False
    return True


def test_c3_metric_block():
    metric = build(RootSystemSpec("C", 3, 1))
    block = [[metric[(i, j)] for j in range(3)] for i in range(3)]
    assert block == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]


def test_c4_k2_corner():
    metric = build(RootSystemSpec("C", 4, 2))
    assert metric[(4, 4)] == Fraction(-1, 2)


def test_b_metric_entries():
    metric = build(RootSystemSpec("B", 3, 1))
    assert metric[(2, 2)] == Fraction(3, 4)          # m = n = l entry: l/4
    assert metric[(0, 2)] == Fraction(1, 2)          # m < n = l entry: m/2
    assert metric[(0, 1)] == 1


def test_degree_lists():
    assert degrees(RootSystemSpec("C", 5, 2)) == tuple(map(Fraction, (1, 2, 2, 2, 2)))
    assert degrees(RootSystemSpec("B", 4, 2)) == \
        (Fraction(1), Fraction(2), Fraction(2), Fraction(1))
    assert degrees(RootSystemSpec("B", 4, 4)) == \
        (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1))


def test_flat_degrees_examples():
    assert flat_degrees(3, 1) == (Fraction(1), Fraction(3, 4), Fraction(1, 4), Fraction(0))
    assert flat_degrees(4, 1) == (Fraction(1), Fraction(5, 6), Fraction(1, 2),
                                  Fraction(1, 6), Fraction(0))
    assert flat_degrees(4, 2) == (Fraction(1, 2), Fraction(1), Fraction(3, 4),
                                  Fraction(1, 4), Fraction(0))


def test_dual_index_examples():
    spec = RootSystemSpec("C", 3, 1)
    assert dual_index(spec, 1) == 4
    assert dual_index(spec, 2) == 3
    for l in range(1, 6):
        for k in range(1, l + 1):
            assert dual_index(RootSystemSpec("C", l, k), k) == l + 1
    assert dual_index(RootSystemSpec("C", 4, 2), 1) == 1
    assert flat_degrees(4, 2)[0] == Fraction(1, 2)


def test_duality_sums_to_one_up_to_rank_8():
    for family in ("B", "C"):
        for l in range(1, 9):
            for k in range(1, l + 1):
                spec = RootSystemSpec(family, l, k)
                dt = flat_degrees(l, k)
                for i in range(1, l + 2):
                    assert dt[i - 1] + dt[dual_index(spec, i) - 1] == 1
                    assert dual_index(spec, dual_index(spec, i)) == i


def test_v_block_positive_definite_up_to_rank_8():
    for family in ("B", "C"):
        for l in range(1, 9):
            metric = build(RootSystemSpec(family, l, 1))
            assert leading_principal_minors_positive(metric, l)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        RootSystemSpec("A", 3, 1)
    with pytest.raises(InvalidSpec):
        RootSystemSpec("C", 3, 4)
    with pytest.raises(InvalidSpec):
        RootSystemSpec("C", 0, 1)


@pytest.mark.parametrize("rank,vertex", [(3.0, 2), (3, 2.0), (True, True), (3, True),
                                         ("3", 1), (3, "1"), (None, 1), (Fraction(3), 1)],
                         ids=["float-rank", "float-vertex", "bool-both", "bool-vertex",
                              "str-rank", "str-vertex", "none-rank", "fraction-rank"])
def test_non_int_rank_or_vertex_rejected(rank, vertex):
    # a float, bool or str would otherwise build into a TypeError or a
    # KeyError deep in the construction, or compare as a str
    with pytest.raises(InvalidSpec, match="must be an int"):
        RootSystemSpec("C", rank, vertex)
