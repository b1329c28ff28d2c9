"""The compact real form: trig-polynomial scalars, brackets, exponentials.

The definiteness minors come from the `Bareiss.of` pivots of each component
of the compact Gram; the dense `leading_principal_minors` they replaced is
their oracle here, and numpy's eigenvalues a float one.  The parent's own walk of
the gamma-strings is kept as the reference of `gamma_string_product_check`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liekit.compactform import (CompactForm, TrigPoly, closed_form_ode_check,
                                closed_form_vs_expm, d_coefficients,
                                d_coefficients_dual, d_equals_dual_check,
                                exp_beta_factorization_check,
                                gamma_string_product_check,
                                gram_preservation_deviation, trig_multiple)
from liekit.exact import leading_principal_minors
from liekit.liealg import lie_algebra
from test_liealg_oracle import ref_gamma_of

TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]

coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
trig = st.builds(
    lambda c0, cs, cc, e: TrigPoly.const(c0) + TrigPoly.sin().scale(cs)
    + TrigPoly.cos(e).scale(cc),
    coeffs, coeffs, coeffs, st.integers(-2, 2))


def exact_value(p, s, c):
    return sum(v * s ** sd * c ** cd for (sd, cd), v in p.c.items())


# u != +-1 keeps c != 0, as c^-1 may appear
circle_u = coeffs.filter(lambda u: abs(u) != 1)


@given(trig, trig, circle_u)
def test_trigpoly_mul_evaluates(a, b, u):
    """Products and sums agree exactly at the rational point
    (s, c) = (2u, 1 - u^2) / (1 + u^2) of the unit circle."""
    s, c = 2 * u / (1 + u * u), (1 - u * u) / (1 + u * u)
    assert s * s + c * c == 1
    assert exact_value(a * b, s, c) == exact_value(a, s, c) * exact_value(b, s, c)
    assert exact_value(a + b, s, c) == exact_value(a, s, c) + exact_value(b, s, c)


@given(trig)
def test_trigpoly_normal_form(a):
    """Normal form keeps sin-degree at most 1."""
    sq = a * a
    assert all(sd <= 1 for (sd, _) in sq.c)


def test_derivative_of_sin_and_cos_powers():
    s, c = TrigPoly.sin(), TrigPoly.cos()
    assert s.derivative() == c
    assert c.derivative() == -s
    assert TrigPoly.const(5).derivative() == TrigPoly()
    # d(c^-2) = 2 s c^-3 and d(s c^-1) = c^-2 (tan' = sec^2)
    assert TrigPoly.cos(-2).derivative() == TrigPoly({(1, -3): 2})
    assert TrigPoly({(1, -1): 1}).derivative() == TrigPoly.cos(-2)


@given(trig, trig)
def test_derivative_is_a_derivation(a, b):
    """The Leibniz rule on products, with d(s) = c and d(c) = -s, fixes
    the derivative on the whole ring."""
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    assert (a + b).derivative() == a.derivative() + b.derivative()


@given(trig, st.floats(0.1, 1.4))
def test_derivative_matches_a_difference_quotient(a, t):
    h = 1e-6
    quotient = (a.evaluate(t + h) - a.evaluate(t - h)) / (2 * h)
    assert abs(a.derivative().evaluate(t) - quotient) < 1e-4 * (
        1 + sum(abs(float(v)) for v in a.c.values())) / math.cos(t) ** 4


@given(st.integers(0, 6), st.floats(0.1, 3.0))
def test_multiple_angle_polynomials(k, t):
    cos_k, sin_k = trig_multiple(k)
    assert abs(cos_k.evaluate(t) - math.cos(k * t)) < 1e-9
    assert abs(sin_k.evaluate(t) - math.sin(k * t)) < 1e-9


@pytest.mark.parametrize("series,rank", TYPES)
def test_compact_jacobi_and_antisymmetry(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    ok, witness = cf.jacobi_check()
    assert ok, witness


@pytest.mark.parametrize("series,rank", TYPES + [("F", 4)])
def test_complexification_homomorphism(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    ok, witness = cf.phi_homomorphism_check()
    assert ok, witness


@pytest.mark.parametrize("series,rank", TYPES)
def test_form_negative_definite(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert cf.is_negative_definite()


@pytest.mark.parametrize("series,rank", TYPES + [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6)])
def test_generates_full_algebra(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert cf.generated_subalgebra_dim() == cf.dim


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2)])
def test_generated_subalgebra_reads_the_brackets(series, rank):
    """With every bracket zero the 2m simple generators span only
    themselves."""
    cf = CompactForm(lie_algebra(series, rank))
    cf._brackets = [[{} for _ in range(cf.dim)] for _ in range(cf.dim)]
    assert cf.generated_subalgebra_dim() == 2 * cf.m


@pytest.mark.parametrize("series,rank", TYPES + [
    ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6)])
def test_definiteness_minors_equal_dense_minors(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert cf.definiteness_minors() == leading_principal_minors(
        cf.killing_gram())


def _negative_definite_by_eigenvalues(gram):
    return bool(np.linalg.eigvalsh(
        np.array([[float(v) for v in row] for row in gram])).max() < 0)


@pytest.mark.parametrize("series,rank", [("F", 4), ("E", 6), ("E", 7),
                                         ("E", 8)])
def test_negative_definite_agrees_with_eigenvalues(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert cf.is_negative_definite()
    assert _negative_definite_by_eigenvalues(cf.killing_gram())


def _zero_row(k):
    def edit(g):
        for j in range(len(g)):
            g[k][j] = g[j][k] = Fraction(0)
    return edit


def _couple(i, j):
    """A symmetric pair of entries large enough to make the 2 x 2 block on
    (i, j) indefinite."""
    def edit(g):
        big = 10 * max(abs(v) for row in g for v in row)
        g[i][j] = g[j][i] = big
    return edit


def _diag(k, v):
    def edit(g):
        g[k][k] = Fraction(v)
    return edit


@pytest.mark.parametrize("series,rank,edit", [
    ("B", 2, _zero_row(4)),           # singular inside a 1 x 1 block
    ("B", 2, _zero_row(1)),           # singular inside the Cartan block
    ("G", 2, _diag(13, 0)),           # singular at the last index only
    ("B", 2, _couple(0, 1)),          # indefinite inside the Cartan block
    ("B", 2, _couple(1, 7)),          # joins two blocks, indefinite at 7
    ("G", 2, _couple(3, 6)),
    ("G", 2, _diag(13, 1)),           # one positive pivot, the last
])
def test_planted_gram_is_not_negative_definite(monkeypatch, series, rank,
                                               edit):
    cf = CompactForm(lie_algebra(series, rank))
    gram = cf.killing_gram()
    edit(gram)
    monkeypatch.setattr(cf, "killing_gram", lambda: gram)
    dense = leading_principal_minors(gram)
    first = next(k for k, v in enumerate(dense) if (-1) ** (k + 1) * v <= 0)
    assert cf.definiteness_minors() == dense[:first + 1]
    assert cf.is_negative_definite() is False
    assert _negative_definite_by_eigenvalues(gram) is False


@pytest.mark.parametrize("series,rank,k", [("B", 2, 1), ("B", 2, 4),
                                           ("G", 2, 3)])
def test_non_integral_gram_minors_equal_dense_minors(monkeypatch, series,
                                                     rank, k):
    """Row and column k times 2/3, a congruence: the Gram stays negative
    definite but is no longer integral, so the elimination of the block
    holding k runs on the block scaled by the lcm of its denominators."""
    cf = CompactForm(lie_algebra(series, rank))
    gram = cf.killing_gram()
    for j in range(len(gram)):
        gram[k][j] *= Fraction(2, 3)
        gram[j][k] *= Fraction(2, 3)
    monkeypatch.setattr(cf, "killing_gram", lambda: gram)
    assert cf.definiteness_minors() == leading_principal_minors(gram)
    assert cf.is_negative_definite() is True


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_root_string_coefficient_identities(series, rank):
    alg = lie_algebra(series, rank)
    ok, witness = gamma_string_product_check(alg)
    assert ok, witness
    ok, witness = d_equals_dual_check(alg)
    assert ok, witness


def _reference_gamma_string_product_check(alg):
    """`gamma_string_product_check` walking the X-chain from Y once and
    reading every gamma of the shifted chain off its own objects."""
    cat = alg.cat
    for x in cat.objects:
        for y in cat.objects:
            if x.pos_root == y.pos_root:
                continue
            p, q = cat.pq(x, y)
            if p != 0:
                continue
            chain = [y]
            for l in range(q):
                chain.append(cat.chain_object(x, chain[-1], 1, 1))
            for k in range(q + 1):
                for j in range(k, q + 1):
                    prod = 1
                    for l in range(k, j):
                        prod *= ref_gamma_of(alg, x, chain[l], chain[l + 1])
                    for l in range(j, k, -1):
                        prod *= ref_gamma_of(alg, x, cat.shift(chain[l]),
                                             cat.shift(chain[l - 1]))
                    want = ((-1) ** (j - k) * math.factorial(q - k)
                            * math.factorial(j)
                            // (math.factorial(q - j) * math.factorial(k)))
                    if prod != want:
                        return False, (x, y, k, j, prod, want)
    return True, None


def _flipped(series, rank, key):
    """The algebra with gamma[key] negated, as `verify --mutate-gamma`."""
    alg = lie_algebra(series, rank)
    il, g = alg.gamma[key]
    return alg.with_gamma({key: (il, -g)})


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2)])
def test_gamma_string_product_check_matches_reference_walk(series, rank):
    """Equal verdicts and witnesses on the algebra and on every one of its
    single flipped structure constants, each of which the check rejects."""
    alg = lie_algebra(series, rank)
    assert gamma_string_product_check(alg) == (True, None)
    assert _reference_gamma_string_product_check(alg) == (True, None)
    for key in sorted(alg.gamma):
        flip = _flipped(series, rank, key)
        got = gamma_string_product_check(flip)
        assert got[0] is False, key
        assert got == _reference_gamma_string_product_check(flip), key


def _reference_chain_coefficient(alg, x, y, j):
    """C_{X,Y,j,1}, walking the X-chain from Y afresh."""
    cat = alg.cat
    prod, cur = 1, y
    for _ in range(j):
        nxt = cat.chain_object(x, cur, 1, 1)
        if nxt is None:
            return Fraction(0)
        prod *= ref_gamma_of(alg, x, cur, nxt)
        cur = nxt
    return Fraction(prod, math.factorial(j))


def _reference_d(alg, x, y, k, dual):
    """D_{X,Y,k} (or D'), one k at a time, with fresh chain walks for every
    term."""
    cat, c = alg.cat, _reference_chain_coefficient
    p, q = cat.pq(x, y)
    tx, ty = cat.shift(x), cat.shift(y)
    out = TrigPoly()
    if dual:
        for j in range(max(0, k), q + 1):
            lj = cat.chain_object(tx, ty, j, 1) if j else ty
            coeff = c(alg, x, y, j) * c(alg, x, lj, j - k)
            out = out + TrigPoly.monomial(coeff, 2 * j - k, k + p - q)
    else:
        for j in range(max(0, -k), p + 1):
            lj = cat.chain_object(tx, y, j, 1) if j else y
            coeff = c(alg, tx, y, j) * c(alg, x, lj, j + k)
            out = out + TrigPoly.monomial(coeff, 2 * j + k, -k + q - p)
    return out


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2), ("C", 3)])
def test_d_coefficients_match_per_k_walks(series, rank):
    alg = lie_algebra(series, rank)
    for x in alg.cat.objects:
        for y in alg.cat.objects:
            if x.pos_root == y.pos_root:
                continue
            p, q = alg.cat.pq(x, y)
            ix, iy = alg.cat.index(x), alg.cat.index(y)
            for fn, dual in ((d_coefficients, False),
                             (d_coefficients_dual, True)):
                got = fn(alg, ix, iy)
                assert list(got) == list(range(-p, q + 1))
                assert got == {k: _reference_d(alg, x, y, k, dual)
                               for k in got}


@pytest.mark.parametrize("series,rank", TYPES)
def test_closed_form_exponentials(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert closed_form_ode_check(cf) == (True, None)
    assert closed_form_vs_expm(cf) < 1e-10


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_gram_preserved_by_words(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert gram_preservation_deviation(cf, words=8, max_len=4) < 1e-9


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2),
                                         ("G", 2), ("D", 4), ("F", 4)])
def test_exp_beta_factorization(series, rank):
    ok, witness = exp_beta_factorization_check(lie_algebra(series, rank))
    assert ok, witness


def test_exp_beta_factorization_rejects_every_gamma_flip():
    alg = lie_algebra("B", 2)
    assert len(alg.gamma) == 24
    for key in alg.gamma:
        ok, witness = exp_beta_factorization_check(_flipped("B", 2, key))
        assert ok is False and witness is not None, key
