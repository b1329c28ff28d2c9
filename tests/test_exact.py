"""Scalar domains and sparse-matrix helpers."""

from fractions import Fraction

from hypothesis import given, strategies as st

import pytest

from liekit.compactform import TRIG_QI, TrigPoly
from liekit.exact import (GaussianRational, LAURENT, LDL, LaurentPoly,
                          PrimeField, QI, QQ, ZZ, components, dense_inverse,
                          dense_matmul, dense_det,
                          ff_eq, ff_mul, ff_reduce, leading_principal_minors,
                          solve_linear, sp_eq, sp_from_dense, sp_identity,
                          sp_mul, sp_to_dense, sp_transpose)

fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7))
gauss = st.builds(GaussianRational, fracs, fracs)


@given(gauss, gauss, gauss)
def test_gaussian_rational_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(gauss)
def test_gaussian_rational_inverse(a):
    if a:
        assert a * QI.inv(a) == GaussianRational(1)
    norm = a * a.conjugate()
    assert norm.im == 0 and norm.re >= 0


@given(st.integers(-5, 5), st.integers(-5, 5), fracs, st.integers(-4, 4),
       st.integers(-4, 4), fracs)
def test_laurent_multiplication(e1, f1, c1, e2, f2, c2):
    a = LaurentPoly({(e1, f1): c1}) if c1 else LaurentPoly({})
    b = LaurentPoly({(e2, f2): c2}) if c2 else LaurentPoly({})
    assert LAURENT.eq(LAURENT.mul(a, b), LAURENT.mul(b, a))
    if c1:
        assert LAURENT.eq(LAURENT.mul(a, LAURENT.inv(a)), LAURENT.one)


def test_prime_field_units():
    f7 = PrimeField(7)
    for u in f7.units():
        assert f7.mul(u, f7.inv(u)) == f7.one


sq3 = st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=3, max_size=3)


@given(sq3, sq3)
def test_sparse_matches_dense(a, b):
    sa, sb = sp_from_dense(a, QQ), sp_from_dense(b, QQ)
    got = sp_to_dense(sp_mul(sa, sb, QQ), 3, QQ)
    assert got == dense_matmul(a, b)


@given(sq3, st.lists(fracs, min_size=3, max_size=3))
def test_transpose_roundtrip_and_row_product(a, v):
    sa = sp_from_dense(a, QQ)
    at = sp_transpose(sa)
    assert sp_transpose(at) == sa
    assert sp_to_dense(at, 3, QQ) == [list(col) for col in zip(*a)]
    # M v as the row product v^T M^T, zero entries absent
    vec = {j: x for j, x in enumerate(v) if x}
    want = {i: x for i, row in enumerate(a)
            if (x := sum(row[j] * v[j] for j in range(3)))}
    assert sp_mul({0: vec}, at, QQ).get(0, {}) == want


@given(sq3)
def test_dense_inverse_roundtrip(a):
    if dense_det([row[:] for row in a]) == 0:
        return
    inv = dense_inverse(a)
    prod = dense_matmul(a, inv)
    ident = [[Fraction(i == j) for j in range(3)] for i in range(3)]
    assert prod == ident


def test_leading_minors():
    mat = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert leading_principal_minors(mat) == [Fraction(2), Fraction(5)]


def _prefix_products(d):
    out, acc = [], Fraction(1)
    for v in d:
        acc *= v
        out.append(acc)
    return out


@given(sq3)
def test_ldl_reconstructs_a_positive_definite_matrix(a):
    g = [[sum(a[k][i] * a[k][j] for k in range(3)) + (i == j)
          for j in range(3)] for i in range(3)]
    f = LDL.of(g)
    low = [row + [Fraction(1)] + [Fraction(0)] * (2 - k)
           for k, row in enumerate(f.low)]
    ldlt = dense_matmul(dense_matmul(
        low, [[f.d[i] * (i == j) for j in range(3)] for i in range(3)]),
        [list(col) for col in zip(*low)])
    assert ldlt == g
    assert _prefix_products(f.d) == leading_principal_minors(g)


@given(sq3)
def test_ldl_stops_at_the_first_nonpositive_minor(a):
    g = [[a[i][j] + a[j][i] for j in range(3)] for i in range(3)]
    d = LDL.of(g).d
    minors = leading_principal_minors(g)
    first = next((k for k, v in enumerate(minors) if v <= 0), None)
    if first is None:
        assert len(d) == 3 and min(d) > 0
    else:
        assert len(d) == first + 1 and d[-1] <= 0
    assert _prefix_products(d) == minors[:len(d)]


@given(sq3, st.lists(fracs, min_size=2, max_size=2))
def test_ldl_residual_and_span_coordinates(a, x0):
    """A column in the span of the pivots leaves residual 0, and `back`
    recovers its coordinates; any other column is a new pivot."""
    g = [[sum(a[k][i] * a[k][j] for k in range(3)) + (i == j)
          for j in range(2)] for i in range(2)]
    f = LDL.of(g)
    col = [sum(g[i][j] * x0[j] for j in range(2)) for i in range(2)]
    diag = sum(x0[i] * col[i] for i in range(2))
    resid, z = f.reduce(col, diag)
    assert resid == 0 and f.back(z) == x0
    resid, z = f.reduce(col, diag + 1)
    assert resid == 1
    x = f.back(z)
    assert [sum(g[i][j] * x[j] for j in range(2)) for i in range(2)] == col


def test_solve_linear():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    rhs = [Fraction(5), Fraction(10)]
    x = solve_linear(a, rhs)
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == rhs


def test_identity_is_multiplicative_unit():
    ident = sp_identity(4, QQ)
    mat = sp_from_dense([[Fraction(i + 2 * j) for j in range(4)]
                         for i in range(4)], QQ)
    assert sp_eq(sp_mul(ident, mat, QQ), mat, QQ)


def test_laurent_int_and_fraction_coefficients_agree():
    """Integral coefficients are stored as int; equality and hashing do not
    see the difference, and inverting a non-unit makes a Fraction."""
    t = LaurentPoly.var_t()
    assert type(t.c[(1, 0)]) is int
    assert type(LaurentPoly.const(Fraction(6, 3)).c[(0, 0)]) is int
    frac = LaurentPoly({(1, 0): Fraction(1)})
    assert t == frac and hash(t) == hash(frac)
    two_t = LaurentPoly({(1, 0): 2})
    inv = LAURENT.inv(two_t)
    assert inv.c == {(-1, 0): Fraction(1, 2)}
    assert type(inv.c[(-1, 0)]) is Fraction
    assert LAURENT.mul(two_t, inv) == LAURENT.one
    assert type(LAURENT.inv(LaurentPoly({(2, 1): -1})).c[(-2, -1)]) is int


F7 = PrimeField(7)
# (domain, a unit, a non-unit or None) for every domain kind
POWER_CASES = [
    (ZZ, -1, 2),
    (QQ, Fraction(-3, 2), Fraction(0)),
    (QI, GaussianRational(Fraction(1, 2), -2), GaussianRational(0)),
    (F7, 3, 0),
    (LAURENT, LaurentPoly({(2, -1): Fraction(-3, 4)}),
     LaurentPoly({(1, 0): 1, (0, 1): 2})),
    (TRIG_QI, TrigPoly({(0, -1): GaussianRational(0, 2)}),
     TrigPoly({(1, 0): GaussianRational(1), (0, 2): GaussianRational(0, 1)})),
]


@pytest.mark.parametrize("dom,unit,other", POWER_CASES,
                         ids=["ZZ", "QQ", "QI", "F7", "LAURENT", "TRIG_QI"])
def test_power_is_repeated_product(dom, unit, other):
    for a in (unit, other):
        prod = dom.one
        for n, an in enumerate(dom.powers(a, 6)):
            assert dom.eq(dom.power(a, n), prod)
            assert dom.eq(an, prod)
            prod = dom.mul(prod, a)
    for n in range(6):
        assert dom.eq(dom.mul(dom.power(unit, -n), dom.power(unit, n)), dom.one)


# ---------------------------------------------------------------------------
# fraction-free pairs (N, d) against the same matrices with Fraction entries

sparse_int = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.integers(-30, 30).filter(bool), max_size=9)
denominators = st.integers(-12, 12).filter(bool)


def _rows(entries, scale=1):
    out = {}
    for (i, j), v in entries.items():
        out.setdefault(i, {})[j] = v * scale
    return out


def _over(dom, n, d):
    """N / d as a sparse matrix over QQ or a PrimeField."""
    dinv = dom.inv(dom.embed(d))
    out = {}
    for i, row in n.items():
        r = {j: dom.mul(dom.embed(v), dinv) for j, v in row.items()}
        r = {j: v for j, v in r.items() if not dom.is_zero(v)}
        if r:
            out[i] = r
    return out


@given(sparse_int, denominators, sparse_int, denominators)
def test_fraction_free_pairs_match_fractions(a, da, b, db):
    na, nb = _rows(a), _rows(b)
    fa, fb = _over(QQ, na, da), _over(QQ, nb, db)
    assert sp_eq(_over(QQ, *ff_mul((na, da), (nb, db))), sp_mul(fa, fb, QQ), QQ)
    assert ff_eq((na, da), (nb, db)) is sp_eq(fa, fb, QQ)
    # the same matrix over another denominator, and one entry off
    assert ff_eq((na, da), (_rows(a, db), da * db))
    if a:
        (i, j), v = next(iter(a.items()))
        assert not ff_eq((na, da), (_rows({**a, (i, j): v + 1}), da))


@given(sparse_int, denominators, sparse_int, denominators,
       st.sampled_from([2, 3, 5, 7]))
def test_fraction_free_pairs_match_prime_field(a, da, b, db, p):
    if not (da % p and db % p):
        return
    f = PrimeField(p)
    na, nb = _rows(a), _rows(b)
    fa, fb = _over(f, na, da), _over(f, nb, db)
    prod = ff_mul((na, da), (nb, db))
    assert ff_eq(prod, (sp_mul(fa, fb, f), 1), p)
    assert ff_eq(ff_reduce(prod, p), prod, p)
    assert ff_eq((na, da), (nb, db), p) is sp_eq(fa, fb, f)


def test_zero_denominator_equals_nothing():
    n = {0: {0: 1}}
    assert not ff_eq((n, 0), (n, 0))
    assert not ff_eq((n, 1), (n, 0))
    assert not ff_eq((n, 5), (n, 5), 5)
    assert ff_eq((n, 6), (n, 6), 5)


def test_components_of_disjoint_blocks():
    a = {0: {3: 1}, 3: {0: 1}, 2: {2: 5}}
    b = {4: {1: 1}}
    assert components(6, [a, b]) == [[0, 3], [1, 4], [2], [5]]
    assert components(6, [b]) == [[0], [1, 4], [2], [3], [5]]


def test_components_of_a_chain():
    """A path 5 - 3 - 1 - 4 - 0 whose edges come from two matrices, one
    direction each, is one component; 2 stays alone."""
    a = {5: {3: 1}, 1: {4: 1}}
    b = {1: {3: 1}, 0: {4: 1}}
    assert components(6, [a, b]) == [[0, 1, 3, 4, 5], [2]]
    assert components(6, [a]) == [[0], [1, 4], [2], [3, 5]]


def test_components_of_empty_inputs():
    assert components(0, []) == []
    assert components(3, []) == [[0], [1], [2]]
    assert components(3, [{}, {}]) == [[0], [1], [2]]
