"""Structure constants and the invariant form of the integral Lie algebra."""

import pytest

from liekit.exact import sp_transpose
from liekit.liealg import LieAlgebraZ, lie_algebra
from liekit.rootcat import root_category
from liekit.rootdata import root_system

SMALL = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
ALL = SMALL + [("A", 3), ("B", 3), ("C", 3)]


@pytest.mark.parametrize("series,rank", ALL)
def test_dimension(series, rank):
    alg = lie_algebra(series, rank)
    rs = root_system(series, rank)
    assert alg.dim == 2 * len(rs.positive) + rank


@pytest.mark.parametrize("series,rank", ALL)
def test_jacobi(series, rank):
    ok, witness = lie_algebra(series, rank).jacobi_check()
    assert ok, witness


@pytest.mark.parametrize("series,rank", ALL)
def test_antisymmetry_and_grading(series, rank):
    alg = lie_algebra(series, rank)
    cat = alg.cat
    for (ix, iy), (il, g) in alg.gamma.items():
        # gamma_{YX}^L = -gamma_{XY}^L
        assert alg.gamma.get((iy, ix)) == (il, -g)
        # class grading
        x, y, l = alg.objects[ix], alg.objects[iy], alg.objects[il]
        assert tuple(a + b for a, b in zip(x.cls, y.cls)) == l.cls
        assert g != 0 and abs(g) <= 3


@pytest.mark.parametrize("series,rank",
                         [t for t in SMALL if t != ("A", 1)])
def test_gamma_pair_products(series, rank):
    vals = lie_algebra(series, rank).gamma_pair_products()
    assert vals and all(v in (-1, -2, -3, -4) for v in vals)


def invariance_check(alg):
    """([x,y],z) = (x,[y,z]) for the category form on all basis triples."""
    gram, table, n = alg.killing_gram(), alg._brackets, alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum(c * gram[l][k] for l, c in table[i][j].items())
                rhs = sum(w * gram[i][l] for l, w in table[j][k].items())
                if lhs != rhs:
                    return False, (i, j, k)
    return True, None


@pytest.mark.parametrize("series,rank", SMALL)
def test_killing_form(series, rank):
    alg = lie_algebra(series, rank)
    ok, witness = alg.killing_equals_trace_form()
    assert ok, witness
    ok, witness = invariance_check(alg)
    assert ok, witness


def test_sl2_bracket_values():
    """[u_X, u_TX] = H'_X and [H', u] eigenvalues in the rank-1 case."""
    alg = lie_algebra("A", 1)
    # objects: 0 = (alpha, +), 1 = (alpha, -); basis index 2 = H'
    assert alg.bracket({0: 1}, {1: 1}) == {2: 1}
    assert alg.bracket({2: 1}, {0: 1}) == {0: -2}
    assert alg.bracket({2: 1}, {1: 1}) == {1: 2}


def test_g2_gamma_magnitudes():
    """G2 has structure constants of absolute value up to 3."""
    alg = lie_algebra("G", 2)
    mags = {abs(g) for (_, g) in alg.gamma.values()}
    assert mags == {1, 2, 3}


def test_with_gamma_derives_and_leaves_the_algebra_untouched():
    """The derived algebra shares the category and the Chevalley constants,
    keeps the gamma order, brackets by the changed table and is not
    validated; the algebra it came from keeps its tables and ad matrices."""
    base = lie_algebra("G", 2)
    gamma = list(base.gamma.items())
    table = [[dict(c) for c in row] for row in base._brackets]
    ad = [base.ad_matrix(i) for i in range(base.dim)]
    key = next(iter(base.gamma))
    il, g = base.gamma[key]
    alg = base.with_gamma({key: (il, -g)})
    assert list(base.gamma.items()) == gamma and base._brackets == table
    assert [base.ad_matrix(i) for i in range(base.dim)] == ad
    assert list(alg.gamma) == list(base.gamma) and alg.gamma[key] == (il, -g)
    assert all(getattr(alg, a) is getattr(base, a)
               for a in ("cat", "rs", "chev", "objects"))
    assert alg.bracket_basis(*key) == {il: -g}
    assert alg.ad_matrix(key[0]) != base.ad_matrix(key[0])
    assert not alg.jacobi_check()[0]


def test_ad_matrix_follows_a_replaced_bracket_table():
    """The hand rebuild of `perfbench/workloads.py:flipped_algebra`, without
    its cache clear: ad matrices read before the table is replaced are not
    served after it."""
    alg = LieAlgebraZ(root_category("B", 2))
    before = [alg.ad_matrix(i) for i in range(alg.dim)]
    il, g = alg.gamma[(7, 4)]
    alg.gamma[(7, 4)] = (il, -g)
    alg._brackets = alg._build_bracket_table()
    after = [alg.ad_matrix(i) for i in range(alg.dim)]
    assert after != before
    assert after == [sp_transpose(dict(enumerate(row))) for row in alg._brackets]
    derived = lie_algebra("B", 2).with_gamma({(7, 4): (il, -g)})
    assert after == [derived.ad_matrix(i) for i in range(alg.dim)]
