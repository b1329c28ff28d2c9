"""The object category over a root system: pairing, chains, omega."""

import pytest

from liekit.rootcat import RootCategory, root_category

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
         ("G", 2)]


@pytest.mark.parametrize("series,rank", TYPES)
def test_shift_is_involution(series, rank):
    cat = root_category(series, rank)
    assert len(cat.objects) == 2 * len(cat.rs.positive)
    for x in cat.objects:
        tx = cat.shift(x)
        assert tx.pos_root == x.pos_root and tx.parity == 1 - x.parity
        assert cat.shift(tx) == x
        assert tuple(a + b for a, b in zip(x.cls, tx.cls)) == (0,) * cat.m


@pytest.mark.parametrize("series,rank", TYPES)
def test_pairing_symmetry(series, rank):
    """d(X) A(X,Y) = d(Y) A(Y,X), and A(X,X) = 2."""
    cat = root_category(series, rank)
    for x in cat.objects:
        assert cat.A(x, x) == 2
        for y in cat.objects:
            assert cat.d(x) * cat.A(x, y) == cat.d(y) * cat.A(y, x)
            assert cat.A(cat.shift(x), y) == -cat.A(x, y)


def test_a_raises_on_a_non_dividing_d():
    """A_{XY} is (H_X|H_Y) / d(X) in exact integers: with d planted as 3,
    (H_X|H_X) = 2 on a short root does not divide, and A must raise rather
    than round."""
    cat = RootCategory("B", 2)
    cat.d = lambda x: 3
    x = cat.simples[1]
    assert cat.euler_form(x, x) == 2
    with pytest.raises(ArithmeticError, match="non-integer A"):
        cat.A(x, x)


@pytest.mark.parametrize("series,rank", TYPES)
def test_chain_extents_match_pairing(series, rank):
    """p - q = A(X,Y) on chains through distinct root lines."""
    cat = root_category(series, rank)
    for x in cat.objects:
        for y in cat.objects:
            if x.pos_root == y.pos_root:
                continue
            p, q = cat.pq(x, y)
            assert p - q == cat.A(x, y)
            assert 0 <= p <= 3 and 0 <= q <= 3
            # the chain is exactly the objects at offsets -p..q
            for k in range(-p, q + 1):
                assert cat.chain_object(x, y, k, 1) is not None
            assert cat.chain_object(x, y, q + 1, 1) is None
            assert cat.chain_object(x, y, -p - 1, 1) is None


def reflect_in_root(rs, alpha, beta):
    """s_alpha(beta) = beta - <beta, alpha^vee> alpha."""
    c, rem = divmod(rs.sym_form(alpha, beta), rs.root_d(alpha))
    assert rem == 0
    return tuple(b - c * a for a, b in zip(alpha, beta))


@pytest.mark.parametrize("series,rank", TYPES)
def test_omega_reflection(series, rank):
    """omega_M fixes M-line objects by shift and otherwise reflects the
    class of N in the root line of M."""
    cat = root_category(series, rank)
    rs = cat.rs
    for m in cat.objects:
        for n in cat.objects:
            w = cat.omega(m, n)
            if m.pos_root == n.pos_root:
                assert w == cat.shift(n)
            else:
                zm = [(-1 if m.parity else 1) * c for c in m.pos_root]
                zn = [(-1 if n.parity else 1) * c for c in n.pos_root]
                want = reflect_in_root(rs, zm, zn)
                assert w.cls == tuple(want)
