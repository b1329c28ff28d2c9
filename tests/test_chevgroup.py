"""The adjoint Chevalley group: one-parameter subgroups and relations."""

import random
from fractions import Fraction

import pytest

from liekit.chevgroup import (ChevalleyGroup, LaurentGroup,
                              center_order_bruteforce,
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


def test_torus_elements_that_do_not_commute_fail_relation_5(monkeypatch):
    """With an entry planted off the diagonal of h_0, h_X(t) h_Y(s) and
    h_Y(s) h_X(t) differ on exactly the pairs that involve object 0."""
    alg = lie_algebra("A", 2)
    h = LaurentGroup.h

    def planted(self, ix, a, b):
        out = h(self, ix, a, b)
        if ix == 0:
            out[0] = {**out[0], (1, 0, 0): 1}
        return out

    monkeypatch.setattr(LaurentGroup, "h", planted)
    rep = verify_conjugation_relations(alg, samples=0)
    pairs = {f[1:] for f in rep["failures"] if f[0] == "h_h_conj"}
    n = len(alg.cat.objects)
    assert pairs == {(0, iy) for iy in range(n)} | {(ix, 0) for ix in range(n)}


def test_failed_relation_6_is_named_at_every_point(monkeypatch):
    """With the torus conjugation by h_0 negated, relation (6) fails for
    every pair (0, Y), relation (1) does not use it and finds every sign,
    and each sample point names each of those pairs, at that point."""
    alg = lie_algebra("B", 2)
    conj = LaurentGroup.conj_by_h

    def negated(self, ix, mat):
        out = conj(self, ix, mat)
        if ix == 0:
            out = {i: {k: -v for k, v in row.items()} for i, row in out.items()}
        return out

    monkeypatch.setattr(LaurentGroup, "conj_by_h", negated)
    rep = verify_conjugation_relations(alg, samples=3, seed=5)
    n = len(alg.cat.objects)
    assert len(rep["eta"]) == n * n
    assert rep["sample_failures"] == [
        ("h_n_conj", 0, iy, t0, s0)
        for t0, s0 in rep["sample_points"] for iy in range(n)]


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


def _doubled(ad, dim):
    return {r: {c: 2 * v for c, v in row.items()} for r, row in ad.items()}


def _zero_cell_first(ad, dim):
    r = min(set(range(dim)) - set(ad))  # a row where ad, and so R, is 0
    return {r: {r: 1}, **ad}


@pytest.mark.parametrize("plant,message", [
    (_doubled, "non-integer commutator constant"),
    (_zero_cell_first, "not proportional")])
def test_commutator_constants_refuses_a_planted_chain_operator(
        monkeypatch, plant, message):
    """On A2 with ad of the chain root planted: doubled, the t s coefficient
    is +-1/2 times it, proportional but not integral; with a first entry in
    a row where the coefficient is 0, the ratio is 0 and the nonzero
    coefficient is not proportional."""
    alg = lie_algebra("A", 2).with_gamma({})
    cat = alg.cat
    x, y = cat.objects[0], cat.objects[2]
    il = cat.index(cat.chain_object(x, y, 1, 1))
    ad = alg.ad_matrix
    monkeypatch.setattr(alg, "ad_matrix", lambda i: (
        plant(ad(i), alg.dim) if i == il else ad(i)))
    with pytest.raises(ArithmeticError, match=message):
        commutator_constants(alg, x, y)


def test_steinberg_b2():
    rep = steinberg_report(lie_algebra("B", 2), primes=(2, 5), samples=4)
    assert rep["ok"], rep
    assert rep["constants_integer"]


def test_steinberg_fails_on_a_failed_proof_without_points(monkeypatch):
    """On B2 with one entry of E_X(t + s) raised, for X object 0, the
    additive proof of X fails while every commutator keeps its constants;
    the report fails with no sample point and no prime."""
    e_sum = LaurentGroup.E_sum

    def raised(self, ix):
        out = e_sum(self, ix)
        if ix == 0:
            row = out[min(out)]
            key = min(row)
            row[key] += 1
        return out

    monkeypatch.setattr(LaurentGroup, "E_sum", raised)
    rep = steinberg_report(lie_algebra("B", 2), primes=(), samples=0)
    assert rep["constant_failures"] == []
    assert rep["ok"] is False


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
