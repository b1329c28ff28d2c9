"""Highest-weight modules: dimensions, multiplicities, generators.

The module relations [E_i, F_j] = delta_ij H_i and Serre, the block direct
sum, the injectivity probe of the unipotent parametrization and the
reduced word `longest_word` it runs along are used by these tests only, so
they are defined here, not in `liekit.hwmodules`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liekit.exact import (QI, QQ, GaussianRational, sp_add, sp_eq, sp_mul,
                          sp_mul_many)
from liekit.hwmodules import (FreudenthalTable, ModuleGenerators,
                              WeightModule, adjoint_check, build_irrep,
                              dominant_conjugate,
                              shapovalov_binomial_check, unitarity_deviation,
                              weight_bilinear, weyl_dim)
from liekit.rootdata import build_cartan, root_system


def longest_word(cartan):
    """A reduced word for the longest Weyl element: the simple reflections
    s_i taken, each at the first i with <mu, alpha_i^vee> < 0, by the walk
    from -rho to rho; its length is the number of positive roots."""
    m = len(cartan.a)
    mu, word = [-1] * m, []
    while True:
        for i in range(m):
            if mu[i] < 0:
                c = mu[i]
                for j in range(m):
                    mu[j] -= c * cartan.a[j][i]
                word.append(i)
                break
        else:
            return word


def commutation_check(mod):
    """[E_i, F_j] = delta_ij H_i as exact matrix identities."""
    for i in range(mod.m):
        for j in range(mod.m):
            lhs = sp_add(sp_mul(mod.E[i], mod.F[j], QQ),
                         sp_mul(mod.F[j], mod.E[i], QQ), QQ, bsign=-1)
            want = {}
            if i == j:
                for g in range(mod.dim):
                    hv = Fraction(mod.h_value(i, g))
                    if hv:
                        want[g] = {g: hv}
            if not sp_eq(lhs, want, QQ):
                return False, (i, j)
    return True, None


def serre_check(mod):
    """sum_{p+q=1-a_ij} (-1)^q E_i^(p) E_j E_i^(q) = 0, and the F twin."""
    gens = mod.generators()
    for mats, dp in ((mod.E, gens.ex), (mod.F, gens.fx)):
        for i in range(mod.m):
            for j in range(mod.m):
                if i == j:
                    continue
                nmax = 1 - mod.cartan.a[i][j]
                acc = {}
                for q in range(nmax + 1):
                    p = nmax - q
                    if p >= len(dp[i]) or q >= len(dp[i]):
                        continue
                    term = sp_mul_many([dp[i][p], mats[j], dp[i][q]], QQ)
                    acc = sp_add(acc, term, QQ,
                                 bsign=-1 if q % 2 else 1)
                if acc:
                    return False, (i, j, "E" if mats is mod.E else "F")
    return True, None


def direct_sum(mods):
    """Block direct sum of modules over the same Cartan datum."""
    cartan = mods[0].cartan
    m = mods[0].m
    dim = sum(mm.dim for mm in mods)
    E = [{} for _ in range(m)]
    F = [{} for _ in range(m)]
    weight_of = []
    weights = {}
    off = 0
    for t, mm in enumerate(mods):
        for i in range(m):
            for r, row in mm.E[i].items():
                E[i].setdefault(r + off, {}).update(
                    {c + off: v for c, v in row.items()})
            for r, row in mm.F[i].items():
                F[i].setdefault(r + off, {}).update(
                    {c + off: v for c, v in row.items()})
        weight_of.extend(mm.weight_of)
        for depth, data in mm.weights.items():
            weights[(t,) + depth] = {
                "fund": data["fund"],
                "basis": [g + off for g in data["basis"]],
                "gram": data["gram"],
                "raw_labels": data["raw_labels"],
            }
        off += mm.dim
    out = WeightModule(cartan, mods[0].lam, dim, E, F, weights, weight_of)
    return out


def xh_injectivity_probe(cartan, samples=100, seed=20240820):
    """On the direct sum of all fundamental modules, the map
    h = (h_1..h_N) -> x_{i_1}(h_1)...x_{i_N}(h_N) along a reduced word for
    the longest element is injective on random samples."""
    m = len(cartan.a)
    mods = [build_irrep(cartan, tuple(1 if k == i else 0 for k in range(m)))
            for i in range(m)]
    gens = direct_sum(mods).generators()
    word = longest_word(cartan)
    rng = random.Random(seed)
    seen = {}
    drawn = set()
    while len(drawn) < samples:
        h = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 7))
                  for _ in word)
        if h in drawn:
            continue
        drawn.add(h)
        mat = sp_mul_many([gens.x(i, hv, QQ) for i, hv in zip(word, h)], QQ)
        key = tuple(sorted((r, c, v) for r, row in mat.items()
                           for c, v in row.items()))
        if key in seen and seen[key] != h:
            return False, (h, seen[key])
        seen[key] = h
    return True, len(seen)

KNOWN_DIMS = [
    ("A", 1, (1,), 2), ("A", 1, (4,), 5),
    ("A", 2, (1, 0), 3), ("A", 2, (0, 1), 3), ("A", 2, (1, 1), 8),
    ("A", 2, (2, 0), 6),
    ("A", 3, (1, 0, 0), 4), ("A", 3, (0, 1, 0), 6), ("A", 3, (1, 0, 1), 15),
    ("B", 2, (1, 0), 5), ("B", 2, (0, 1), 4), ("B", 2, (1, 1), 16),
    ("B", 3, (1, 0, 0), 7), ("B", 3, (0, 0, 1), 8),
    ("C", 3, (1, 0, 0), 6), ("C", 3, (0, 1, 0), 14),
    ("G", 2, (1, 0), 7), ("G", 2, (0, 1), 14),
]


@pytest.mark.parametrize("series,rank,lam,dim", KNOWN_DIMS)
def test_weyl_dimension_formula(series, rank, lam, dim):
    assert weyl_dim(build_cartan(series, rank), lam) == dim


@pytest.mark.parametrize("series,rank,lam,dim", KNOWN_DIMS)
def test_module_construction(series, rank, lam, dim):
    cartan = build_cartan(series, rank)
    mod = build_irrep(cartan, lam)
    assert mod.dim == dim
    ok, witness = commutation_check(mod)
    assert ok, witness
    ok, witness = mod.gram_positive_definite()
    assert ok, witness


@pytest.mark.parametrize("series,rank,lam",
                         [("A", 2, (1, 1)), ("B", 2, (1, 1)),
                          ("G", 2, (0, 1)), ("A", 3, (1, 0, 1))])
def test_freudenthal_matches_module(series, rank, lam):
    cartan = build_cartan(series, rank)
    mod = build_irrep(cartan, lam)
    table = FreudenthalTable(cartan, lam)
    for data in mod.weights.values():
        assert table.multiplicity(data["fund"]) == len(data["basis"])
    assert sum(len(d["basis"]) for d in mod.weights.values()) == mod.dim


@pytest.mark.parametrize("series,rank,lam",
                         [("A", 2, (1, 1)), ("B", 2, (0, 1)), ("G", 2, (1, 0))])
def test_serre_relations(series, rank, lam):
    mod = build_irrep(build_cartan(series, rank), lam)
    ok, witness = serre_check(mod)
    assert ok, witness


@given(st.sampled_from([("A", 2), ("B", 2), ("G", 2)]),
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_dominant_conjugate_properties(tp, mu):
    """The dominant conjugate is dominant and has the same length."""
    cartan = build_cartan(*tp)
    dom = dominant_conjugate(cartan, mu)
    assert all(v >= 0 for v in dom)
    assert weight_bilinear(cartan, dom, dom) == weight_bilinear(cartan, mu, mu)
    assert dominant_conjugate(cartan, dom) == dom


@given(st.sampled_from([("A", 2), ("B", 2)]),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_weight_bilinear_symmetric(tp, mu, nu):
    cartan = build_cartan(*tp)
    assert weight_bilinear(cartan, mu, nu) == weight_bilinear(cartan, nu, mu)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_longest_word(series, rank):
    cartan = build_cartan(series, rank)
    word = longest_word(cartan)
    assert len(word) == len(root_system(series, rank).positive)


def test_longest_word_a2_explicit():
    assert longest_word(build_cartan("A", 2)) in ([0, 1, 0], [1, 0, 1])


@pytest.mark.parametrize("series,rank,lam",
                         [("A", 2, (1, 1)), ("B", 2, (1, 0)), ("G", 2, (1, 0))])
def test_shapovalov_binomials(series, rank, lam):
    mod = build_irrep(build_cartan(series, rank), lam)
    ok, witness = shapovalov_binomial_check(mod)
    assert ok, witness


@pytest.mark.parametrize("series,rank,lam",
                         [("A", 2, (1, 1)), ("B", 2, (0, 1))])
def test_generator_identities(series, rank, lam):
    mod = build_irrep(build_cartan(series, rank), lam)
    gens = ModuleGenerators(mod)
    for i in range(rank):
        assert sp_eq(gens.s_second(i), gens.s_second_sum(i), QQ)
        for u in (Fraction(2), Fraction(-1), Fraction(3, 5)):
            assert sp_eq(gens.t_torus(i, u), gens.t_torus_diagonal(i, u), QQ)


def test_unit_modulus_torus_closed_form():
    """t_i(u) is diagonal with entries u^<i, mu> at |u| = 1 over Q(i)."""
    mod = build_irrep(build_cartan("A", 2), (1, 0))
    gens = ModuleGenerators(mod)
    for u in (QI.i, GaussianRational(Fraction(3, 5), Fraction(4, 5))):
        for i in range(2):
            assert sp_eq(gens.t_torus(i, u, QI),
                         gens.t_torus_diagonal(i, u, QI), QI)


def test_torus_conjugates_unipotents():
    """t_j(u) x_i(h) t_j(u)^-1 = x_i(u^{a_ji} h)."""
    cartan = build_cartan("A", 2)
    mod = build_irrep(cartan, (1, 1))
    gens = ModuleGenerators(mod)
    u, h = Fraction(3, 5), Fraction(-7, 2)
    for i in range(2):
        for j in range(2):
            t = gens.t_torus_diagonal(j, u)
            tinv = gens.t_torus_diagonal(j, 1 / u)
            lhs = sp_mul_many([t, gens.x(i, h, QQ), tinv], QQ)
            rhs = gens.x(i, u ** cartan.a[j][i] * h, QQ)
            assert sp_eq(lhs, rhs, QQ)


@pytest.mark.parametrize("series,rank,lam",
                         [("A", 2, (1, 0)), ("B", 2, (0, 1))])
def test_adjoint_and_unitarity(series, rank, lam):
    mod = build_irrep(build_cartan(series, rank), lam)
    ok, witness = adjoint_check(mod)
    assert ok, witness
    assert unitarity_deviation(mod) < 1e-10


def test_direct_sum_dimensions():
    cartan = build_cartan("A", 2)
    mods = [build_irrep(cartan, (1, 0)), build_irrep(cartan, (0, 1))]
    tot = direct_sum(mods)
    assert tot.dim == 6
    ok, _ = commutation_check(tot)
    assert ok


def test_unipotent_parametrization_injective():
    ok, count = xh_injectivity_probe(build_cartan("A", 2), samples=40)
    assert ok and count == 40


def test_b3_211_dimension():
    cartan = build_cartan("B", 3)
    mod = build_irrep(cartan, (2, 1, 1))
    assert mod.dim == weyl_dim(cartan, (2, 1, 1)) == 1512
    assert mod.gram_positive_definite() == (True, None)
