"""End-to-end acceptance: one test (= one pass/fail line under pytest -v)
per headline property of the toolkit, at the stated tolerances."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from liekit.chevgroup import (center_order_bruteforce, center_order_formula,
                              steinberg_report, verify_conjugation_relations)
from liekit.compactform import (CompactForm, closed_form_vs_expm,
                                d_equals_dual_check,
                                exp_beta_factorization_check,
                                gamma_string_product_check,
                                gram_preservation_deviation)
from liekit.exact import QI, QQ, GaussianRational, sp_eq, sp_mul_many
from liekit.hwmodules import (FreudenthalTable, ModuleGenerators,
                              adjoint_check, build_irrep,
                              shapovalov_binomial_check, unitarity_deviation,
                              weyl_dim)
from liekit.liealg import lie_algebra
from liekit.peterweyl import (MatrixCoefficient, OElement, SU2Quadrature,
                              SU2Rep, char_orthonormality, inner_product,
                              integral_lattice_report)
from liekit.rootdata import build_cartan

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 3), ("D", 4), ("G", 2)]
LOW_RANK = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
            ("G", 2)]
COMPACT_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


def report(num, ok, desc):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_jacobi_exact():
    t0 = time.time()
    for series, rank in ALL_TYPES:
        ok, witness = lie_algebra(series, rank).jacobi_check()
        assert ok, (series, rank, witness)
    elapsed = time.time() - t0
    report(1, elapsed < 60.0,
           f"Jacobi exact over Z for all basis triples, 9 types in "
           f"{elapsed:.1f}s")


def test_criterion_02_invariant_form_is_killing():
    for series, rank in ALL_TYPES:
        ok, witness = lie_algebra(series, rank).killing_equals_trace_form()
        # an overall scalar mismatch would surface here as a finding
        assert ok, (series, rank, witness)
    report(2, True, "category-defined form equals tr(ad ad) exactly, 9 types")


def test_criterion_03_negative_definite_minors():
    for series, rank in COMPACT_TYPES + [("A", 3)]:
        cf = CompactForm(lie_algebra(series, rank))
        minors = cf.definiteness_minors()
        assert all(((-1) ** (k + 1)) * m > 0 for k, m in enumerate(minors)), \
            (series, rank)
    report(3, True, "compact form negative definite by exact leading minors")


def test_criterion_04_gamma_pair_products():
    count = 0
    for series, rank in ALL_TYPES:
        for v in lie_algebra(series, rank).gamma_pair_products():
            assert v in (-1, -2, -3, -4), (series, rank, v)
            count += 1
    report(4, count > 0,
           f"gamma * shifted-gamma in {{-1..-4}} for {count} instances")


def test_criterion_05_exp_coefficient_identities():
    for series, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                         ("G", 2)]:
        ok, witness = gamma_string_product_check(lie_algebra(series, rank))
        assert ok, (series, rank, witness)
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        ok, witness = d_equals_dual_check(lie_algebra(series, rank))
        assert ok, (series, rank, witness)
    report(5, True,
           "factorial string identity and D = D' exact in trig normal form")


def test_criterion_06_conjugation_relations():
    for series, rank in LOW_RANK:
        rep = verify_conjugation_relations(lie_algebra(series, rank),
                                           samples=10)
        assert rep["ok"], (series, rank, rep["failures"],
                           rep["sample_failures"])
        assert rep["eta_values_ok"], (series, rank)
    report(6, True,
           "conjugation identities (1)-(6) symbolic + 10 rational points, "
           "eta in {+-1}, rank <= 3 and G2")


def test_criterion_07_steinberg_relations():
    for series, rank in [("A", 2), ("B", 2)]:
        rep = steinberg_report(lie_algebra(series, rank),
                               primes=(2, 3, 5, 7, 11, 13), samples=10)
        assert rep["ok"], (series, rank, rep)
        assert rep["constants_integer"], (series, rank)
    report(7, True,
           "Steinberg relations over Q (10 points) and F_p, p in "
           "{2,3,5,7,11,13}; commutator constants integral")


def test_criterion_08_center_orders():
    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]:
        alg = lie_algebra(series, rank)
        for p in (2, 3, 5, 7, 11, 13):
            a = center_order_formula(alg, p)
            b = center_order_bruteforce(alg, p)
            assert a == b, (series, rank, p, a, b)
    report(8, True,
           "center counts match brute force for A1, A2, A3, B2, p <= 13")


def test_criterion_09_closed_form_exponentials():
    rng = random.Random(20240822)
    worst = 0.0
    for series, rank in COMPACT_TYPES:
        cf = CompactForm(lie_algebra(series, rank))
        # 7 random angles x every root object covers > 20 (X, t) pairs
        ts = tuple(rng.uniform(0.1, 3.0) for _ in range(7))
        dev = closed_form_vs_expm(cf, ts=ts)
        worst = max(worst, dev)
        assert dev < 1e-10, (series, rank, dev)
        gdev = gram_preservation_deviation(cf, words=24, max_len=6)
        assert gdev < 1e-9, (series, rank, gdev)
        ok, witness = exp_beta_factorization_check(lie_algebra(series, rank),
                                                   cf)
        assert ok, (series, rank, witness)
    report(9, True,
           f"closed-form exponentials match expm (worst {worst:.2e}); "
           "length <= 6 words preserve the Gram form")


def test_criterion_10_module_dimensions_and_multiplicities():
    for series, rank in LOW_RANK:
        cartan = build_cartan(series, rank)
        for i in range(rank):
            lam = tuple(1 if j == i else 0 for j in range(rank))
            mod = build_irrep(cartan, lam)
            assert mod.dim == weyl_dim(cartan, lam), (series, rank, lam)
            table = FreudenthalTable(cartan, lam)
            for data in mod.weights.values():
                assert table.multiplicity(data["fund"]) == \
                    len(data["basis"]), (series, rank, lam, data["fund"])
            ok, witness = mod.gram_positive_definite()
            assert ok, (series, rank, lam, witness)
            ok, witness = shapovalov_binomial_check(mod)
            assert ok, (series, rank, lam, witness)
    assert build_irrep(build_cartan("A", 2), (1, 0)).dim == 3
    assert build_irrep(build_cartan("G", 2), (1, 0)).dim == 7
    report(10, True,
           "fundamental-module dims = Weyl formula, multiplicities = "
           "Freudenthal, Gram PD, binomial norms exact (rank <= 3 and G2)")


def test_criterion_11_generator_identities():
    us = (Fraction(2), Fraction(-1), Fraction(3, 5))
    for series, rank, lam in [("A", 2, (1, 1)), ("B", 2, (1, 0))]:
        cartan = build_cartan(series, rank)
        mod = build_irrep(cartan, lam)
        gens = ModuleGenerators(mod)
        for i in range(rank):
            assert sp_eq(gens.s_second(i), gens.s_second_sum(i), QQ)
            for u in us:
                assert sp_eq(gens.t_torus(i, u),
                             gens.t_torus_diagonal(i, u), QQ)
            for j in range(rank):
                u, h = Fraction(3, 5), Fraction(-7, 3)
                lhs = sp_mul_many([gens.t_torus_diagonal(j, u),
                                   gens.x(i, h, QQ),
                                   gens.t_torus_diagonal(j, 1 / u)], QQ)
                rhs = gens.x(i, u ** cartan.a[j][i] * h, QQ)
                assert sp_eq(lhs, rhs, QQ), (series, rank, i, j)
        ok, witness = adjoint_check(mod)
        assert ok, (series, rank, witness)
        dev = unitarity_deviation(mod)
        assert dev < 1e-10, (series, rank, dev)
    report(11, True,
           "torus product formula, double-sum reflection, torus conjugation "
           "over Q; adjoint law and divided powers over Q; unitarity < 1e-10")


def test_criterion_12_schur_orthogonality_quadrature():
    q = SU2Quadrature(32)
    vol_dev = abs(q.volume() - 1.0)
    assert vol_dev < 1e-8

    rng = random.Random(20240823)
    worst_same = 0.0
    for two_j in (1, 2):
        mod = build_irrep(build_cartan("A", 1), (two_j,))
        rep = SU2Rep(two_j)

        def vec():
            return {k: GaussianRational(Fraction(rng.randint(-2, 2)))
                    for k in range(mod.dim)}

        for _ in range(4):
            w1, v1, w2, v2 = vec(), vec(), vec(), vec()
            got = q.schur_integral(rep, rep, w1, v1, w2, v2)
            want = complex(mod.inner(w1, w2)) * complex(mod.inner(v2, v1)) \
                / mod.dim
            worst_same = max(worst_same, abs(got - want))
    assert worst_same < 1e-6

    r1, r2 = SU2Rep(1), SU2Rep(2)
    worst_cross = 0.0
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(3):
                for d in range(3):
                    val = q.schur_integral(r1, r2, eye2[b], eye2[a],
                                           eye3[d], eye3[c])
                    worst_cross = max(worst_cross, abs(val))
    assert worst_cross < 1e-6

    worst_char = 0.0
    for series, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        lams = [tuple(1 if j == i else 0 for j in range(rank))
                for i in range(rank)]
        for lam in lams:
            for mu in lams:
                val = char_orthonormality(series, rank, lam, mu, grid=16)
                want = 1.0 if lam == mu else 0.0
                worst_char = max(worst_char, abs(val - want))
    assert worst_char < 1e-4
    report(12, True,
           f"SU(2) Schur quadrature (same {worst_same:.1e}, cross "
           f"{worst_cross:.1e}), Haar volume {vol_dev:.1e}, characters "
           f"{worst_char:.1e}")


def test_criterion_13_parseval_and_plancherel():
    cartan = build_cartan("A", 2)
    modules = {lam: build_irrep(cartan, lam)
               for lam in [(1, 0), (0, 1), (1, 1)]}
    rng = random.Random(20240824)
    coeffs = []
    for lam, mod in modules.items():
        for _ in range(2):
            z = {k: GaussianRational(Fraction(rng.randint(-3, 3)),
                                     Fraction(rng.randint(-3, 3)))
                 for k in range(mod.dim)}
            zp = {k: GaussianRational(Fraction(rng.randint(-3, 3)),
                                      Fraction(rng.randint(-3, 3)))
                  for k in range(mod.dim)}
            coeffs.append(MatrixCoefficient(mod, z, zp))
    elem = OElement.from_coefficients(modules, coeffs)
    direct = sum((inner_product(f, g) for f in coeffs for g in coeffs),
                 GaussianRational(0))
    assert len(elem.blocks) == 3
    assert direct == elem.norm_sq() == elem.parseval_rhs()

    # block-ideal: convolution never mixes blocks, exactly
    singles = [OElement.from_coefficients(modules, [f]) for f in coeffs]
    for a in singles:
        for b in singles:
            conv = a.convolve(b)
            if set(a.blocks) == set(b.blocks):
                assert set(conv.blocks) <= set(a.blocks)
            else:
                assert conv.blocks == {}

    mod = build_irrep(build_cartan("A", 1), (1,))
    f = MatrixCoefficient(mod, {0: GaussianRational(1),
                                1: GaussianRational(Fraction(1, 2))},
                          {0: GaussianRational(0, 1),
                           1: GaussianRational(2)})
    g = MatrixCoefficient(mod, {0: GaussianRational(Fraction(-1, 3)),
                                1: GaussianRational(1, 1)},
                          {0: GaussianRational(1),
                           1: GaussianRational(Fraction(1, 5))})
    conv_dev = SU2Quadrature(12).convolution_check(f, g)
    assert conv_dev < 1e-5
    report(13, True,
           f"Parseval exact on 3 blocks; block-ideal exact; quadrature "
           f"convolution deviation {conv_dev:.1e}")


def test_criterion_14_integral_forms():
    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]:
        rep = integral_lattice_report(series, rank)
        assert rep["equals_root_lattice"], (series, rank, rep["mismatches"])
        assert rep["kernel_generators_trivial"], (series, rank)
    ce = integral_lattice_report("A", 3)["a3_counterexample"]
    assert ce["exp_is_identity"] and ce["lambda"] == (1, 0, 0)
    assert ce["lambda_of_H_over_i_pi"] == 1 and not ce["analytically_integral"]
    for series, rank, order in [("A", 2, 3), ("A", 3, 4), ("G", 2, 1)]:
        assert integral_lattice_report(series, rank)[
            "fundamental_group_order"] == order, (series, rank)
    report(14, True,
           "analytically integral lattice = Q (A1-A3, B2: span of "
           "[A(S_j, Y)] inside Q with the Smith index of Q), "
           "A3 counterexample, |pi_1(K)| = invariant-factor product")
