"""Scalar domains and sparse-matrix helpers."""

from fractions import Fraction

from hypothesis import given, strategies as st

import pytest

from liekit.compactform import TRIG_QI, TrigPoly
from liekit.exact import (GaussianRational, LAURENT, LDL, LaurentPoly,
                          PrimeField, QI, QQ, dense_inverse, dense_matmul, dense_det,
                          leading_principal_minors, solve_linear, sp_eq,
                          sp_from_dense, sp_identity, sp_mul, sp_to_dense)

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
    (QQ, Fraction(-3, 2), Fraction(0)),
    (QI, GaussianRational(Fraction(1, 2), -2), GaussianRational(0)),
    (F7, 3, 0),
    (LAURENT, LaurentPoly({(2, -1): Fraction(-3, 4)}),
     LaurentPoly({(1, 0): 1, (0, 1): 2})),
    (TRIG_QI, TrigPoly({(0, -1): GaussianRational(0, 2)}),
     TrigPoly({(1, 0): GaussianRational(1), (0, 2): GaussianRational(0, 1)})),
]


@pytest.mark.parametrize("dom,unit,other", POWER_CASES,
                         ids=["QQ", "QI", "F7", "LAURENT", "TRIG_QI"])
def test_power_is_repeated_product(dom, unit, other):
    for a in (unit, other):
        prod = dom.one
        for n in range(6):
            assert dom.eq(dom.power(a, n), prod)
            prod = dom.mul(prod, a)
    for n in range(6):
        assert dom.eq(dom.mul(dom.power(unit, -n), dom.power(unit, n)), dom.one)
