"""The compact real form: trig-polynomial scalars, brackets, exponentials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liekit.compactform import (CompactForm, TrigPoly, closed_form_vs_expm,
                                d_equals_dual_check,
                                exp_beta_factorization_check,
                                gamma_string_product_check,
                                gram_preservation_deviation, trig_multiple)
from liekit.liealg import lie_algebra

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


@pytest.mark.parametrize("series,rank", TYPES)
def test_complexification_homomorphism(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    ok, witness = cf.phi_homomorphism_check()
    assert ok, witness


@pytest.mark.parametrize("series,rank", TYPES)
def test_form_negative_definite(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert cf.is_negative_definite()


@pytest.mark.parametrize("series,rank", TYPES)
def test_generates_full_algebra(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert cf.generated_subalgebra_dim() == cf.dim


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_root_string_coefficient_identities(series, rank):
    alg = lie_algebra(series, rank)
    ok, witness = gamma_string_product_check(alg)
    assert ok, witness
    ok, witness = d_equals_dual_check(alg)
    assert ok, witness


@pytest.mark.parametrize("series,rank", TYPES)
def test_closed_form_exponentials(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert closed_form_vs_expm(cf) < 1e-10


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_gram_preserved_by_words(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    assert gram_preservation_deviation(cf, words=8, max_len=4) < 1e-9


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("G", 2)])
def test_exp_beta_factorization(series, rank):
    ok, witness = exp_beta_factorization_check(lie_algebra(series, rank))
    assert ok, witness
