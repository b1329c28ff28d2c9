"""The invariant form against the walks it replaced.

`LieAlgebraZ.killing_gram` reads its root block off the gamma table and its
Cartan block off one Euler-form vector per object, and
`killing_equals_trace_form` takes every tr(ad e_i ad e_j) from the one sparse
product `trace_gram`.  The references here are the direct algorithms: the
root block by a `chain_object` walk over every object pair, the Cartan block
by m^2 Euler-form sums, and the trace form by `trace_form` on every pair.
Both must give equal Grams and equal (ok, witness), also on flipped
structure constants, planted bracket-table faults and a gamma entry whose
target is not the class-sum object.
"""

import copy
import random
from fractions import Fraction

import pytest

from liekit.liealg import lie_algebra


def reference_killing_gram(alg):
    """(u_X, u_TX) = -4 + sum over Y of gamma_{TX,Y}^L gamma_{X,L}^Y with
    L = chain_object(TX, Y, 1, 1); (H'_i, H'_j) = sum_Z (S_i|Z)(S_j|Z)/(d_i d_j)."""
    cat, n_u, m = alg.cat, alg.n_u, alg.m
    gram = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
    for ix, x in enumerate(alg.objects):
        itx = cat.index(cat.shift(x))
        val = Fraction(-4)
        for y in alg.objects:
            if y.pos_root == x.pos_root:
                continue
            tx = cat.shift(x)
            l = cat.chain_object(tx, y, 1, 1)
            if l is None:
                continue
            val += alg.gamma_of(tx, y, l) * alg.gamma_of(x, l, y)
        gram[ix][itx] = val
    for i in range(m):
        si = cat.simples[i]
        for j in range(m):
            sj = cat.simples[j]
            tot = Fraction(0)
            for z in alg.objects:
                tot += cat.euler_form(si, z) * cat.euler_form(sj, z)
            gram[n_u + i][n_u + j] = tot / (cat.cartan.d[i] * cat.cartan.d[j])
    return gram


def reference_killing_equals_trace_form(alg):
    gram = reference_killing_gram(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if gram[i][j] != alg.trace_form(i, j):
                return False, (i, j, gram[i][j], alg.trace_form(i, j))
    return True, None


def assert_same_verdict(alg):
    gram = alg.killing_gram()
    want = reference_killing_gram(alg)
    assert gram == want
    assert [type(v) for row in gram for v in row] == [Fraction] * alg.dim ** 2
    got, ref = alg.killing_equals_trace_form(), reference_killing_equals_trace_form(alg)
    assert got == ref
    if ref[1] is not None:
        assert [type(v) for v in got[1]] == [type(v) for v in ref[1]]
    return got


def planted(alg):
    """A copy of `alg` whose gamma table and bracket table can be changed
    without touching the cached algebra."""
    out = copy.copy(alg)
    out.gamma = dict(alg.gamma)
    out._brackets = [[dict(c) for c in row] for row in alg._brackets]
    return out


def flipped(series, rank, key):
    """The algebra `verify --mutate-gamma` derives: gamma[key] negated."""
    alg = lie_algebra(series, rank)
    il, g = alg.gamma[key]
    return alg.with_gamma({key: (il, -g)})


TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
         ("D", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("E", 6), ("E", 7)]


@pytest.mark.parametrize("series,rank", TYPES)
def test_gram_and_verdict_equal_the_walks(series, rank):
    assert assert_same_verdict(lie_algebra(series, rank)) == (True, None)


@pytest.mark.parametrize("series,rank,key", [("B", 2, (7, 4)), ("E", 7, (125, 122))])
def test_mutate_gamma_tables(series, rank, key):
    assert_same_verdict(flipped(series, rank, key))


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("B", 3),
                                         ("D", 4), ("F", 4), ("E", 6)])
def test_trace_gram_equals_trace_form(series, rank):
    alg = lie_algebra(series, rank)
    trace = alg.trace_gram()
    assert all(v for row in trace.values() for v in row.values())
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert trace.get(i, {}).get(j, 0) == alg.trace_form(i, j), (i, j)


def _plant_bracket(alg, rng, kind):
    """Change one entry of the bracket table: add 1 to a stored coefficient,
    drop it, or store a 1 as the coefficient of u_Y in [u_X, u_Y], which
    the table never holds."""
    table = alg._brackets
    n = alg.dim
    if kind == "empty":
        i, j = rng.sample(range(alg.n_u), 2)
        assert j not in table[i][j]
        table[i][j][j] = 1
        return
    stored = [(i, j, k) for i in range(n) for j in range(n) for k in table[i][j]]
    i, j, k = rng.choice(stored)
    if kind == "bump":
        table[i][j][k] += 1
        if not table[i][j][k]:
            del table[i][j][k]
    else:
        del table[i][j][k]


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2), ("F", 4), ("E", 6)])
@pytest.mark.parametrize("kind", ["bump", "drop", "empty"])
def test_planted_bracket_faults(series, rank, kind):
    """Equal verdicts on every planted fault.  A changed coefficient c_{ij}^k
    moves no trace when every c_{i'k}^j is 0 (Jacobi rejects those), so only
    some of the faults must be rejected here."""
    rng = random.Random(f"{series}{rank}{kind}")
    rejected = 0
    for _ in range(4):
        alg = planted(lie_algebra(series, rank))
        _plant_bracket(alg, rng, kind)
        ok, _ = assert_same_verdict(alg)
        rejected += not ok
    assert rejected


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2), ("F", 4)])
def test_planted_gamma_values(series, rank):
    """A gamma value changed in the gamma table alone moves the category
    form and not the trace form."""
    base = lie_algebra(series, rank)
    rng = random.Random(f"{series}{rank}")
    for key in rng.sample(sorted(base.gamma), 4):
        alg = planted(base)
        il, g = alg.gamma[key]
        alg.gamma[key] = (il, g + 1)
        ok, wit = assert_same_verdict(alg)
        tx = alg.objects[key[0]]
        assert not ok and wit[0] in (key[0], alg.cat.index(alg.cat.shift(tx)))


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2), ("F", 4)])
def test_retargeted_gamma_entry(series, rank):
    """A gamma entry whose target is not the class-sum object counts for
    neither factor of the root block, as `gamma_of` reads it."""
    base = lie_algebra(series, rank)
    rng = random.Random(f"retarget {series}{rank}")
    for key in rng.sample(sorted(base.gamma), 4):
        alg = planted(base)
        il, g = alg.gamma[key]
        wrong = rng.choice([k for k in range(alg.n_u) if k != il])
        alg.gamma[key] = (wrong, g)
        ok, wit = assert_same_verdict(alg)
        assert not ok
        assert_same_verdict(base.with_gamma({key: (wrong, g)}))
