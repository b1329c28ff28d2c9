"""The adjoint Chevalley group: one-parameter subgroups and relations."""

import random
from fractions import Fraction

import pytest

from liekit.chevgroup import (ChevalleyGroup, center_order_bruteforce,
                              center_order_formula, commutator_constants,
                              preserves_bracket, random_group_element,
                              steinberg_report, verify_conjugation_relations)
from liekit.exact import QI, QQ, PrimeField, sp_eq, sp_identity, sp_mul
from liekit.liealg import lie_algebra


def test_exp_tables_are_integral():
    alg = lie_algebra("G", 2)
    grp = ChevalleyGroup(alg)
    for ix in range(len(alg.objects)):
        for mat in grp.exp_table(ix):
            for row in mat.values():
                for v in row.values():
                    assert Fraction(v).denominator == 1


def test_one_parameter_additivity():
    alg = lie_algebra("B", 2)
    grp = ChevalleyGroup(alg)
    t, s = Fraction(3, 7), Fraction(-5, 2)
    for x in alg.objects:
        lhs = sp_mul(grp.E(x, t, QQ), grp.E(x, s, QQ), QQ)
        assert sp_eq(lhs, grp.E(x, t + s, QQ), QQ)
        assert sp_eq(sp_mul(grp.E(x, t, QQ), grp.E(x, -t, QQ), QQ),
                     sp_identity(alg.dim, QQ), QQ)


def test_h_is_multiplicative():
    alg = lie_algebra("A", 2)
    grp = ChevalleyGroup(alg)
    t, s = Fraction(2, 3), Fraction(-7, 5)
    for x in alg.objects:
        lhs = sp_mul(grp.h(x, t, QQ), grp.h(x, s, QQ), QQ)
        assert sp_eq(lhs, grp.h(x, t * s, QQ), QQ)


def test_n_inverse():
    alg = lie_algebra("A", 2)
    grp = ChevalleyGroup(alg)
    for x in alg.objects:
        prod = sp_mul(grp.n(x, Fraction(4, 3), QQ),
                      grp.n_inv(x, Fraction(4, 3), QQ), QQ)
        assert sp_eq(prod, sp_identity(alg.dim, QQ), QQ)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_conjugation_relations(series, rank):
    rep = verify_conjugation_relations(lie_algebra(series, rank), samples=2)
    assert rep["ok"], rep
    assert rep["eta_values_ok"]


def test_conjugation_relations_f4():
    """The symbolic proof on F4: 48 objects, so 48^2 pairs, each with a sign."""
    rep = verify_conjugation_relations(lie_algebra("F", 4), samples=0)
    assert rep["ok"], rep["failures"][:5]
    assert rep["pairs"] == 2304
    assert len(rep["eta"]) == 2304
    assert set(rep["eta"].values()) <= {1, -1}
    assert rep["eta_values_ok"]


def test_commutator_constants_a2():
    """[E_alpha(t), E_beta(s)] = E_{alpha+beta}(+-t s) in type A2."""
    alg = lie_algebra("A", 2)
    cat = alg.cat
    x, y = cat.objects[0], cat.objects[2]  # the two simple roots, parity 0
    consts = commutator_constants(alg, x, y)
    assert len(consts) == 1
    (ij, il, c) = consts[0]
    assert ij == (1, 1) and c in (1, -1)
    assert alg.objects[il].cls == tuple(
        a + b for a, b in zip(x.cls, y.cls))


def test_steinberg_b2():
    rep = steinberg_report(lie_algebra("B", 2), primes=(2, 5), samples=4)
    assert rep["ok"], rep
    assert rep["constants_integer"]


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_center_orders(series, rank):
    alg = lie_algebra(series, rank)
    for p in (2, 3, 5, 7):
        assert center_order_formula(alg, p) == center_order_bruteforce(alg, p)


def test_group_elements_are_automorphisms():
    """Random words in E/h/n preserve the bracket over Q and F_7."""
    alg = lie_algebra("A", 2)
    grp = ChevalleyGroup(alg)
    rng = random.Random(99)
    scalars = [Fraction(2), Fraction(-1, 3), Fraction(5, 4)]
    g = random_group_element(grp, QQ, rng, 5, scalars)
    assert preserves_bracket(alg, g, QQ)
    f7 = PrimeField(7)
    g = random_group_element(grp, f7, rng, 5, [1, 3, 6])
    assert preserves_bracket(alg, g, f7)


@pytest.mark.parametrize("series,rank", [("F", 4), ("E", 6)])
def test_prime_field_words_at_rank_4_and_6(series, rank):
    """A random word in E/h/n over F_101 is an automorphism; with one entry
    of its matrix changed it is not."""
    alg = lie_algebra(series, rank)
    dom = PrimeField(101)
    rng = random.Random(f"F_101 word {series}{rank}")
    word = random_group_element(ChevalleyGroup(alg), dom, rng, 12,
                                list(range(1, 101)))
    assert preserves_bracket(alg, word, dom)
    r = rng.choice(sorted(word))
    c = rng.randrange(alg.dim)
    row = dict(word[r])
    row[c] = dom.add(row.get(c, dom.zero), dom.one)
    changed = {**word, r: {k: v for k, v in row.items() if v}}
    assert not preserves_bracket(alg, changed, dom)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_unit_modulus_torus_preserves_bracket(series, rank):
    """h_X(i) over Q(i), an element of the compact torus, is an automorphism."""
    alg = lie_algebra(series, rank)
    grp = ChevalleyGroup(alg)
    for x in alg.objects:
        assert preserves_bracket(alg, grp.h(x, QI.i, QI), QI)
