"""Scalar domains and sparse-matrix helpers."""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

import pytest

from liekit.compactform import TRIG_QI, TrigPoly
from liekit.exact import (Bareiss, GaussianRational, LAURENT, LaurentPoly,
                          PrimeField, QI, QQ, ZZ, components,
                          dense_inverse, dense_det, ek_at,
                          ff_column, ff_pairing, leading_principal_minors,
                          solve_linear, sp_eq, sp_from_dense, sp_identity,
                          sp_mul, sp_to_dense, sp_transpose)

fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7))
gauss = st.builds(GaussianRational, fracs, fracs)


def dense_matmul(a, b):
    """The product of two dense matrices (lists of rows)."""
    k, m = len(b), len(b[0]) if b else 0
    return [[sum(row[l] * b[l][j] for l in range(k)) for j in range(m)]
            for row in a]


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


def _ldl_of(g):
    """Bareiss.of(g) and the L, D of G = L D L^T read off it, with L's unit
    diagonal and zeros above filled in."""
    f = Bareiss.of(g)
    mnr, n = f.minors, len(f.rows)
    low = [[Fraction(row[t], mnr[t + 1]) for t in range(k)] + [Fraction(1)]
           + [Fraction(0)] * (len(g) - k - 1) for k, row in enumerate(f.rows)]
    d = [Fraction(mnr[t + 1], f.scale * mnr[t]) for t in range(n)]
    return f, low, d


def _assert_bareiss_of_reconstructs(g):
    f, low, d = _ldl_of(g)
    n = len(g)
    assert f.scale == math.lcm(*(Fraction(v).denominator
                                 for row in g for v in row))
    ldlt = dense_matmul(dense_matmul(
        low, [[d[i] * (i == j) for j in range(n)] for i in range(n)]),
        [list(col) for col in zip(*low)])
    assert ldlt == g
    assert [Fraction(m, f.scale ** k) for k, m in enumerate(f.minors)][1:] \
        == leading_principal_minors(g)


def _assert_bareiss_of_stops_at_the_first_nonpositive_minor(g):
    f = Bareiss.of(g)
    minors = leading_principal_minors(g)
    first = next((k for k, v in enumerate(minors) if v <= 0), None)
    if first is None:
        assert len(f.minors) == len(g) + 1 and min(f.minors) > 0
    else:
        assert len(f.minors) == first + 2 and f.minors[-1] <= 0
        assert min(f.minors[:-1]) > 0
    assert [Fraction(m, f.scale ** k) for k, m in enumerate(f.minors)][1:] \
        == minors[:len(f.minors) - 1]


@given(sq3)
def test_bareiss_of_reconstructs_a_positive_definite_matrix(a):
    g = [[sum(a[k][i] * a[k][j] for k in range(3)) + (i == j)
          for j in range(3)] for i in range(3)]
    _assert_bareiss_of_reconstructs(g)


@given(sq3)
def test_bareiss_of_stops_at_the_first_nonpositive_minor(a):
    g = [[a[i][j] + a[j][i] for j in range(3)] for i in range(3)]
    _assert_bareiss_of_stops_at_the_first_nonpositive_minor(g)


def test_bareiss_of_scales_a_fraction_gram():
    """A Gram with denominators 2, 3 and 6 is scaled by 6; lowering its
    last diagonal entry by 1 makes its last leading minor negative."""
    g = [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
         [Fraction(1, 3), Fraction(5, 6), Fraction(-1, 2)],
         [Fraction(1, 6), Fraction(-1, 2), Fraction(1)]]
    assert Bareiss.of(g).scale == 6
    _assert_bareiss_of_reconstructs(g)
    _assert_bareiss_of_stops_at_the_first_nonpositive_minor(g)
    g[2][2] -= 1
    f = Bareiss.of(g)
    assert f.scale == 6 and len(f.minors) == 4 and f.minors[-1] < 0
    _assert_bareiss_of_stops_at_the_first_nonpositive_minor(g)


small = st.integers(-3, 3)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=5,
                max_size=5))
def test_bareiss_minors_and_span_coordinates(vecs):
    """The Gram of five integer vectors in Z^3, its columns taken in order
    as `build_irrep` takes its candidates: a nonzero bordered minor is the
    next leading minor of the pivot Gram, a zero one comes from a column in
    the span of the pivots, whose integer coordinates over Delta_k solve the
    pivot Gram; and the same column with its diagonal raised by 1 is a new
    pivot with minor Delta_k.  Five vectors in rank 3 leave at least two
    span columns."""
    g = [[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs]
    f = Bareiss()
    pivots = []
    spans = 0
    for c in range(5):
        col = [g[p][c] for p in pivots]
        minor, v = f.reduce(col, g[c][c])
        bordered = pivots + [c]
        assert minor == dense_det([[g[p][q] for q in bordered]
                                   for p in bordered])
        if minor:
            f.push(v, minor)
            pivots.append(c)
            continue
        spans += 1
        dk = f.minors[-1]
        y = f.span(v)
        assert all(type(yk) is int for yk in y)
        assert [Fraction(yk, dk) for yk in y] == solve_linear(
            [[Fraction(g[p][q]) for q in pivots] for p in pivots], col)
        assert f.reduce(col, g[c][c] + 1)[0] == dk
    assert spans >= 2
    assert f.minors[1:] == leading_principal_minors(
        [[g[p][q] for q in pivots] for p in pivots])


def test_ff_column_takes_lowest_terms():
    assert ff_column({0: 4, 1: -6, 2: 0}, 8) == ({0: 2, 1: -3}, 4)
    assert ff_column({3: 3}, -6) == ({3: -1}, 2)
    assert ff_column({0: 5, 1: 7}, 1) == ({0: 5, 1: 7}, 1)
    assert ff_column({0: 0}, -5) == ({}, 1)


def test_ff_pairing_divides_exactly_or_raises():
    assert ff_pairing({0: 3, 1: 1}, ({0: 2, 1: 2}, 4)) == 2
    assert ff_pairing({0: 1, 1: 5}, ({}, 1)) == 0
    for col in (({0: 1}, 2), ({0: -1}, 2), ({0: 7, 1: 1}, 3)):
        with pytest.raises(ArithmeticError):
            ff_pairing({0: 1, 1: 0}, col)


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
# exponent-keyed matrices at a point, against LaurentPoly.evaluate entrywise

ek_entries = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3),
              st.integers(-3, 3)),
    st.integers(-5, 5).filter(bool), max_size=12)


def _evaluated(entries, t, s, p=None):
    """The exponent-keyed matrix of `entries` {(i, j, et, es): v}, and the
    matrix of its entries as LaurentPolys evaluated at (t, s), over Q or,
    reduced, over F_p; zero entries and empty rows left out."""
    mat, polys = {}, {}
    for (i, j, et, es), v in entries.items():
        mat.setdefault(i, {})[j, et, es] = v
        polys[i, j] = polys.get((i, j), LAURENT.zero) + LaurentPoly({(et, es): v})
    want = {}
    for (i, j), poly in polys.items():
        v = poly.evaluate(Fraction(t), Fraction(s))
        if p is not None:
            v = v.numerator * pow(v.denominator, -1, p) % p
        if v:
            want.setdefault(i, {})[j] = v
    return mat, want


@given(ek_entries, fracs.filter(bool), fracs.filter(bool))
def test_ek_at_evaluates_over_rationals(entries, t, s):
    mat, want = _evaluated(entries, t, s)
    assert ek_at(mat, t, s) == want


@given(ek_entries, st.integers(-20, 20), st.integers(-20, 20),
       st.sampled_from([3, 7]))
def test_ek_at_evaluates_over_prime_fields(entries, t, s, p):
    if not (t % p and s % p):
        return
    mat, want = _evaluated(entries, t, s, p)
    assert ek_at(mat, t, s, p) == want


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
