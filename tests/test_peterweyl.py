"""Fourier blocks, Haar quadrature, characters, and integral forms."""

import random
import time
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from liekit.exact import GaussianRational
from liekit.hwmodules import build_irrep, root_fund, weyl_dim
from liekit.peterweyl import (MatrixCoefficient, OElement, SU2Quadrature,
                              SU2Rep, char_orthonormality, character_weights,
                              fourier_coeff, inner_product,
                              integral_lattice_report,
                              weight_orbit)
from liekit.rootdata import build_cartan


def _random_coeffs(modules, per_block=2, seed=11):
    rng = random.Random(seed)
    out = []
    for mod in modules.values():
        for _ in range(per_block):
            z = {k: GaussianRational(Fraction(rng.randint(-3, 3)),
                                     Fraction(rng.randint(-3, 3)))
                 for k in range(mod.dim)}
            zp = {k: GaussianRational(Fraction(rng.randint(-3, 3)),
                                      Fraction(rng.randint(-3, 3)))
                  for k in range(mod.dim)}
            out.append(MatrixCoefficient(mod, z, zp))
    return out


@pytest.fixture(scope="module")
def a2_blocks():
    cartan = build_cartan("A", 2)
    return {lam: build_irrep(cartan, lam)
            for lam in [(1, 0), (0, 1), (1, 1)]}


def test_inner_product_formula_matches_fourier(a2_blocks):
    coeffs = _random_coeffs(a2_blocks)
    for f in coeffs:
        for g in coeffs:
            lhs = inner_product(f, g)
            rhs = OElement.from_coefficients(a2_blocks, [f]).inner(
                OElement.from_coefficients(a2_blocks, [g]))
            assert lhs == rhs


def test_parseval_exact(a2_blocks):
    coeffs = _random_coeffs(a2_blocks)
    elem = OElement.from_coefficients(a2_blocks, coeffs)
    direct = sum((inner_product(f, g) for f in coeffs for g in coeffs),
                 GaussianRational(0))
    assert direct == elem.norm_sq() == elem.parseval_rhs()


def test_convolution_no_block_mixing(a2_blocks):
    coeffs = _random_coeffs(a2_blocks, per_block=1)
    singles = [OElement.from_coefficients(a2_blocks, [f]) for f in coeffs]
    for i, a in enumerate(singles):
        for j, b in enumerate(singles):
            conv = a.convolve(b)
            if i == j:
                assert set(conv.blocks) <= set(a.blocks)
            else:
                assert conv.blocks == {}


def test_convolution_associative(a2_blocks):
    coeffs = _random_coeffs(a2_blocks)
    a = OElement.from_coefficients(a2_blocks, coeffs[:3])
    b = OElement.from_coefficients(a2_blocks, coeffs[2:5])
    c = OElement.from_coefficients(a2_blocks, coeffs[4:])
    lhs = a.convolve(b).convolve(c)
    rhs = a.convolve(b.convolve(c))
    assert lhs.blocks == rhs.blocks


def test_fourier_trace_reproduces_coefficient():
    """tr(pi(x) T_{z,z'}) = (pi(x) z, z') for random SU(2) samples."""
    mod = build_irrep(build_cartan("A", 1), (2,))
    rng = random.Random(3)
    z = {k: GaussianRational(Fraction(rng.randint(-3, 3))) for k in range(3)}
    zp = {k: GaussianRational(Fraction(rng.randint(-3, 3))) for k in range(3)}
    f = MatrixCoefficient(mod, z, zp)
    t = fourier_coeff(f)
    rep = SU2Rep(2)
    for angles in [(0.3, 1.2, 2.2), (4.0, 0.4, 1.0)]:
        pi = rep.matrix(*angles)
        pmod = (pi / rep.scale[:, None]) * rep.scale[None, :]
        lhs = OElement({(2,): mod}, {(2,): t}).evaluate({(2,): pmod})
        zv = rep.to_orthonormal(z)
        zpv = rep.to_orthonormal(zp)
        rhs = np.dot(np.conj(zpv), pi @ zv)
        assert abs(lhs - rhs) < 1e-10


def test_cauchy_geometric_series(a2_blocks):
    """Partial sums of sum_n 2^-n f are Cauchy in the truncation norm."""
    coeffs = _random_coeffs(a2_blocks, per_block=1)
    base = OElement.from_coefficients(a2_blocks, coeffs)
    partial = OElement(a2_blocks)
    sums = []
    for n in range(8):
        partial = partial + base.scale(Fraction(1, 2 ** n))
        sums.append(partial)
    norm_base = base.norm_sq()
    for n in range(1, 8):
        diff = sums[n] + sums[n - 1].scale(-1)
        # ||s_n - s_{n-1}||^2 = 4^-n ||f||^2, summable
        assert diff.norm_sq() == GaussianRational(Fraction(1, 4 ** n)) * norm_base


def test_su2_volume_and_schur():
    q = SU2Quadrature(16)
    assert abs(q.volume() - 1.0) < 1e-12
    r1, r2 = SU2Rep(1), SU2Rep(2)
    e = lambda n, k: np.eye(n, dtype=complex)[k]
    # same-rep diagonal value 1/dim, cross-rep zero
    val = q.schur_integral(r1, r1, e(2, 0), e(2, 0), e(2, 0), e(2, 0))
    assert abs(val - 0.5) < 1e-12
    val = q.schur_integral(r1, r2, e(2, 0), e(2, 1), e(3, 0), e(3, 2))
    assert abs(val) < 1e-12


def test_su2_schur_general_vectors():
    """Quadrature matches (w1,w2)(v2,v1)/dim for non-basis vectors."""
    mod = build_irrep(build_cartan("A", 1), (3,))
    rep = SU2Rep(3)
    q = SU2Quadrature(16)
    rng = random.Random(5)

    def vec():
        return {k: GaussianRational(Fraction(rng.randint(-2, 2)))
                for k in range(mod.dim)}

    w1, v1, w2, v2 = vec(), vec(), vec(), vec()
    got = q.schur_integral(rep, rep, w1, v1, w2, v2)
    want = complex(mod.inner(w1, w2)) * complex(mod.inner(v2, v1)) / mod.dim
    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("two_j", [99, 140])
def test_su2_rep_past_the_float_range_of_its_gram(two_j):
    """The Gram entries reach (2j)!^2, beyond a float from 2j = 99; the
    rotations are built from exact ratios and stay orthogonal."""
    rep = SU2Rep(two_j)
    assert np.all(np.isfinite(rep.scale))
    for theta in (0.3, 1.0, 2.5, np.pi):
        rot = rep.rotation(theta)
        assert np.abs(rot @ rot.T - np.eye(rep.dim)).max() < 1e-10


def test_su2_rep_refuses_a_scale_past_the_float_range():
    """From 2j = 171 the largest orthonormal scale passes the float range;
    the representation is refused rather than built with inf in it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(SU2Rep(170).scale).all()
        with pytest.raises(ValueError, match="overflow"):
            SU2Rep(171)


def test_convolution_quadrature_cross_check():
    mod = build_irrep(build_cartan("A", 1), (1,))
    f = MatrixCoefficient(mod, {0: GaussianRational(1),
                                1: GaussianRational(Fraction(1, 2))},
                          {0: GaussianRational(0, 1),
                           1: GaussianRational(2)})
    g = MatrixCoefficient(mod, {0: GaussianRational(Fraction(-1, 3)),
                                1: GaussianRational(1, 1)},
                          {0: GaussianRational(1),
                           1: GaussianRational(Fraction(1, 5))})
    assert SU2Quadrature(12).convolution_check(f, g) < 1e-5


def test_weight_orbit_sizes():
    cartan = build_cartan("A", 2)
    assert len(weight_orbit(cartan, (1, 0))) == 3
    assert len(weight_orbit(cartan, (1, 1))) == 6
    assert weight_orbit(cartan, (0, 0)) == {(0, 0)}


def test_character_weights_sum_to_dim():
    cartan = build_cartan("G", 2)
    wl = character_weights(cartan, (1, 0))
    assert sum(wl.values()) == 7


@pytest.mark.parametrize("series,rank,lam,mu,want", [
    ("A", 1, (2,), (2,), 1), ("A", 1, (1,), (3,), 0),
    ("A", 2, (1, 0), (1, 0), 1), ("A", 2, (1, 0), (0, 1), 0),
    ("B", 2, (0, 1), (0, 1), 1), ("G", 2, (1, 0), (0, 1), 0),
])
def test_character_orthonormality(series, rank, lam, mu, want):
    val = char_orthonormality(series, rank, lam, mu, grid=16)
    assert abs(val - want) < 1e-4


@pytest.mark.parametrize("series,rank,order", [
    ("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("B", 2, 2), ("G", 2, 1),
    ("B", 4, 2), ("C", 4, 2), ("D", 5, 4), ("F", 4, 1), ("E", 6, 3),
    ("E", 7, 2), ("E", 8, 1)])
def test_integral_lattice(series, rank, order):
    rep = integral_lattice_report(series, rank)
    assert rep["equals_root_lattice"]
    assert rep["kernel_generators_trivial"]
    assert rep["fundamental_group_order"] == order


def test_a3_counterexample():
    rep = integral_lattice_report("A", 3)
    ce = rep["a3_counterexample"]
    assert ce["exp_is_identity"]
    assert ce["lambda"] == (1, 0, 0)
    assert ce["lambda_of_H_over_i_pi"] == 1
    assert not ce["analytically_integral"]


def q_plus_enumerate(series, rank, bound):
    """Dominant weights in the root lattice with root-height <= bound, the
    index set of K-irreducibles up to that height, as (lambda, x) pairs with
    lambda the weight of the root-lattice vector x."""
    cartan = build_cartan(series, rank)
    out = []
    for x in product(range(bound + 1), repeat=rank):
        if sum(x) > bound:
            continue
        lam = root_fund(cartan, x)
        if all(v >= 0 for v in lam):
            out.append((lam, x))
    out.sort(key=lambda p: (sum(p[1]), p[0]))
    return out


def test_q_plus_enumeration():
    got = q_plus_enumerate("A", 2, 3)
    assert ((0, 0), (0, 0)) in got
    assert ((1, 1), (1, 1)) in got  # the adjoint weight, height 2
    for lam, x in got:
        assert all(v >= 0 for v in lam)
        cartan = build_cartan("A", 2)
        recon = tuple(sum(cartan.a[j][i] * x[i] for i in range(2))
                      for j in range(2))
        assert recon == lam


@pytest.mark.parametrize("series,rank,lam,dim", [
    ("E", 7, (0, 1, 0, 0, 0, 0, 0), 912),
    ("E", 7, (0, 0, 1, 0, 0, 0, 0), 8645),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0), 3875),
    ("E", 8, (0, 0, 0, 0, 0, 0, 1, 0), 30380)])
def test_character_weights_at_e7_e8(series, rank, lam, dim):
    """sum mult * |orbit| is the Weyl dimension.  The Freudenthal table
    visits only the dominant weights, so each takes well under a second
    (the box of all depth vectors took 13 s at E7 dim 912)."""
    cartan = build_cartan(series, rank)
    start = time.perf_counter()
    table = character_weights(cartan, lam)
    elapsed = time.perf_counter() - start
    assert weyl_dim(cartan, lam) == dim
    assert sum(table.values()) == dim
    assert elapsed < 1.0
