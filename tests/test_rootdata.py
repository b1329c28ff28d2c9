"""Cartan data, root systems, and lattice utilities."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from liekit.rootdata import (build_cartan, invariant_factors, lattice_index,
                             parse_type, root_string, root_system)

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
         ("D", 4), ("G", 2)]

# positive root counts from the classical formulas
POS_COUNT = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("B", 2): 4,
             ("B", 3): 9, ("C", 3): 9, ("D", 4): 12, ("G", 2): 6}

WEYL = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("B", 3): 48,
        ("C", 3): 48, ("D", 4): 192, ("G", 2): 12}


@pytest.mark.parametrize("series,rank", TYPES)
def test_root_counts_and_weyl_order(series, rank):
    rs = root_system(series, rank)
    assert len(rs.positive) == POS_COUNT[(series, rank)]
    assert rs.weyl_order() == WEYL[(series, rank)]


def enumerated_weyl_order(rs):
    """|W| by closing the simple reflections, as permutations of the roots,
    under composition: every element of W is stored, so this is the slow
    reference for the formula by exponents."""
    idx = {r: k for k, r in enumerate(rs.roots)}

    def reflect(beta, i):
        out = list(beta)
        out[i] -= rs.pairing_with_coroot(beta, i)
        return tuple(out)

    gens = [tuple(idx[reflect(r, i)] for r in rs.roots)
            for i in range(rs.cartan.rank)]
    ident = tuple(range(len(rs.roots)))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[x] for x in g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 5), ("G", 2), ("F", 4),
    ("E", 6)])
def test_weyl_order_formula_matches_enumeration(series, rank):
    rs = root_system(series, rank)
    assert rs.weyl_order() == enumerated_weyl_order(rs)


@pytest.mark.parametrize("series,rank", TYPES)
def test_symmetrized_cartan(series, rank):
    c = build_cartan(series, rank)
    for i in range(rank):
        for j in range(rank):
            assert c.d[i] * c.a[i][j] == c.d[j] * c.a[j][i]
    assert min(c.d) == 1


def test_g2_orientation():
    c = build_cartan("G", 2)
    assert [list(r) for r in c.a] == [[2, -3], [-1, 2]]
    assert list(c.d) == [1, 3]


def test_parse_type():
    assert parse_type("g2") == ("G", 2)
    assert parse_type("A12") == ("A", 12)
    with pytest.raises(ValueError):
        parse_type("2A")
    with pytest.raises(ValueError):
        build_cartan("H", 3)


@pytest.mark.parametrize("series,rank", TYPES)
def test_root_strings_bounded(series, rank):
    """p - q = <alpha^vee, beta> and string length p+q+1 <= 4."""
    rs = root_system(series, rank)
    for alpha in rs.positive:
        for beta in rs.positive:
            if beta == alpha:
                continue
            p, q = root_string(rs, alpha, beta)
            lhs = 2 * rs.sym_form(alpha, beta)
            assert lhs == (p - q) * rs.sym_form(alpha, alpha)
            assert p + q + 1 <= 4


sq = st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
              min_size=3, max_size=3)
rect = st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(st.integers(-6, 6), min_size=c, max_size=c),
    min_size=1, max_size=4))


def _det(m):
    """Integer determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)))


@given(st.one_of(sq, rect))
def test_invariant_factors_properties(mat):
    """An oracle apart from any elimination: the factors are nonnegative,
    each divides the next, and d_1...d_k is the gcd D_k of the k x k minors
    (Smith's theorem)."""
    d = invariant_factors(mat)
    rows, cols = len(mat), len(mat[0])
    assert len(d) == min(rows, cols)
    assert all(v >= 0 for v in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0 if a else b == 0
    prod = 1
    for k in range(1, len(d) + 1):
        prod *= d[k - 1]
        minors = [_det([[mat[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(rows), k)
                  for cs in combinations(range(cols), k)]
        assert prod == gcd(*minors)


def test_invariant_factors_known():
    for (series, rank), idx in [(("A", 2), 3), (("A", 3), 4), (("G", 2), 1),
                                (("B", 2), 2), (("D", 4), 4)]:
        c = build_cartan(series, rank)
        prod = 1
        for f in invariant_factors(c.a):
            prod *= f
        assert prod == idx
        assert lattice_index(c) == idx
