"""The invariant form and the Jacobi sweep against the walks they replaced.

`LieAlgebraZ.killing_gram` reads its root block off the gamma table and its
Cartan block off one Euler-form vector per object, and
`killing_equals_trace_form` takes every tr(ad e_i ad e_j) from the one sparse
product `trace_gram`.  The references here are the direct algorithms: the
root block by a `chain_object` walk over every object pair, the Cartan block
by m^2 Euler-form sums, and the trace form by `trace_form` on every pair.
Both must give equal Grams and equal (ok, witness), also on flipped
structure constants, planted bracket-table faults and a gamma entry whose
target is not the class-sum object.

`jacobi_sweep` accumulates each Jacobiator from the table's nonzero terms
only; the reference is the earlier sweep over all C(n, 3) triples, copied
here unchanged.  Both must give the same (ok, witness) on the integer and
compact tables, on every single gamma flip of A2, B2 and G2, and on planted
entries that break the grading, touch the Cartan indices or make a nonzero
[e_i, e_i].
"""

import copy
import random
from fractions import Fraction

import pytest

from liekit.compactform import CompactForm
from liekit.liealg import jacobi_sweep, lie_algebra
from test_liealg import ALL


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


# ---------------------------------------------------------------------------
# jacobi_sweep

def reference_jacobi_sweep(table):
    """Exhaustive Jacobi over basis triples i < j < k; returns (ok, witness)."""
    n = len(table)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, v in table[a][b].items():
                        for q, w in table[l][c].items():
                            t = acc.get(q, 0) + v * w
                            if t:
                                acc[q] = t
                            elif q in acc:
                                del acc[q]
                if acc:
                    return False, (i, j, k)
    return True, None


def assert_same_jacobi(table):
    got = jacobi_sweep(table)
    assert got == reference_jacobi_sweep(table)
    return got


@pytest.mark.parametrize("series,rank", ALL + [
    ("E", 7), pytest.param("E", 8, marks=pytest.mark.slow)])
def test_jacobi_equals_the_exhaustive_sweep(series, rank):
    assert assert_same_jacobi(lie_algebra(series, rank)._brackets) == (True, None)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_jacobi_on_every_gamma_flip(series, rank):
    alg = lie_algebra(series, rank)
    verdicts = [assert_same_jacobi(flipped(series, rank, key)._brackets)
                for key in alg.gamma]
    assert not any(ok for ok, _ in verdicts)


def test_jacobi_on_flipped_e7():
    ok, wit = assert_same_jacobi(flipped("E", 7, (125, 122))._brackets)
    assert (ok, wit) == (False, (13, 122, 123))


def _plant_entry(table, alg, rng, kind):
    """Add c to the coefficient of e_q in [e_i, e_j], where the integer
    table holds nothing: off the graded target, on a Cartan index (as the
    coefficient, or in the bracket of a Cartan element), on [e_i, e_i], or
    a half anywhere."""
    n, n_u = alg.dim, alg.n_u
    cartan = range(n_u, n)
    if kind == "ungraded":
        i, j = rng.sample(range(n_u), 2)
        q = rng.choice([q for q in range(n_u) if q not in table[i][j]])
    elif kind == "cartan coefficient":
        (i, j), q = rng.sample(range(n), 2), rng.choice(cartan)
    elif kind == "cartan bracket":
        i, j, q = rng.choice(cartan), rng.randrange(n), rng.randrange(n)
    elif kind == "diagonal":
        i = j = rng.randrange(n)
        q = rng.randrange(n)
    else:
        (i, j), q = rng.sample(range(n), 2), rng.randrange(n)
    c = Fraction(1, 2) if kind == "half" else rng.choice([-2, -1, 1, 3])
    table[i][j][q] = table[i][j].get(q, 0) + c


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2), ("A", 3), ("B", 3)])
@pytest.mark.parametrize("kind", ["ungraded", "cartan coefficient",
                                  "cartan bracket", "diagonal", "half"])
def test_jacobi_on_planted_entries(series, rank, kind):
    """Equal verdicts and witnesses on seeded planted entries; an entry
    that moves no Jacobiator may pass, but most must be rejected."""
    alg = lie_algebra(series, rank)
    rng = random.Random(f"jacobi {series}{rank} {kind}")
    rejected = 0
    for _ in range(6):
        table = [[dict(c) for c in row] for row in alg._brackets]
        _plant_entry(table, alg, rng, kind)
        ok, _ = assert_same_jacobi(table)
        rejected += not ok
    assert rejected >= 3


@pytest.mark.parametrize("series,rank,key", [("B", 2, None), ("G", 2, None),
                                             ("D", 4, None), ("D", 4, (0, 4))])
def test_jacobi_on_compact_tables(series, rank, key):
    alg = lie_algebra(series, rank) if key is None else flipped(series, rank, key)
    ok, wit = assert_same_jacobi(CompactForm(alg)._brackets)
    assert (ok, wit) == ((True, None) if key is None else (False, (0, 5, 8)))
