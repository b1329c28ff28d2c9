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

The gamma table is built on root and object indices, from one pass over the
unordered positive root pairs, with every mixed-sign N rotated in exact
integers; the references are the earlier walk over every ordered object
pair through `chain_object`, its `Fraction` constants, triangle-sign check,
pair products and bracket table, copied here unchanged.  Both must give the
same gamma table (insertion order included), bracket table, pair products
and triangle verdict on every type up to rank 8, and the same verdicts and
witnesses on every single gamma flip and every deleted gamma key of A2, B2
and G2.
"""

import copy
import random
from fractions import Fraction

import pytest

from liekit.compactform import CompactForm
from liekit.liealg import (ChevalleyConstants, jacobi_sweep, lie_algebra,
                           structure_constants)
from liekit.rootcat import root_category
from liekit.rootdata import root_string, root_system
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
            val += ref_gamma_of(alg, tx, y, l) * ref_gamma_of(alg, x, l, y)
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
    neither factor of the root block, as `ref_gamma_of` reads it."""
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


# ---------------------------------------------------------------------------
# construction: the object-pair walk and the Fraction constants it replaced

class RefChevalleyConstants:
    """N_{alpha,beta} for all root pairs, built by height induction.

    Extraspecial pairs get N = p+1; remaining special pairs are solved from
    the standard zero-sum Jacobi identities.  Conventions:
    [e_a, e_b] = N_{a,b} e_{a+b}, [e_a, e_{-a}] = h_a, N_{-a,-b} = -N_{a,b}.
    """

    def __init__(self, rs):
        self.rs = rs
        self._npos = {}
        self._order = rs.pos_index
        self._build()

    def _build(self):
        rs = self.rs
        for gamma in rs.positive:
            if sum(gamma) < 2:
                continue
            pairs = []
            for alpha in rs.positive:
                beta = tuple(g - a for a, g in zip(alpha, gamma))
                if rs.contains(beta) and sum(beta) > 0 \
                        and self._order[alpha] < self._order[beta]:
                    pairs.append((alpha, beta))
            pairs.sort(key=lambda ab: self._order[ab[0]])
            alpha0, beta0 = pairs[0]  # the extraspecial pair of gamma
            self._npos[(alpha0, beta0)] = root_string(rs, alpha0, beta0)[0] + 1
            for (xi, eta) in pairs[1:]:
                self._npos[(xi, eta)] = self._solve_special(
                    gamma, alpha0, beta0, xi, eta)

    def _solve_special(self, gamma, alpha, beta, xi, eta):
        """Jacobi coefficient identity with (b,c,d) = (-xi, -eta, beta):
        N_{-xi,-eta} N_{-gamma, beta} + N_{-eta,beta} N_{beta-eta,-xi}
        + N_{beta,-xi} N_{beta-xi,-eta} = 0.
        """
        neg = lambda v: tuple(-c for c in v)
        t2 = self._term(neg(eta), beta, neg(xi))
        t3 = self._term(beta, neg(xi), neg(eta))
        denom = self.n(neg(gamma), beta)
        assert denom != 0
        val = Fraction(t2 + t3, denom)
        if val.denominator != 1:
            raise ArithmeticError("non-integer structure constant")
        n = int(val)
        pexp = root_string(self.rs, xi, eta)[0]
        if abs(n) != pexp + 1:
            raise ArithmeticError(
                f"structure constant magnitude {n} != p+1 = {pexp + 1}")
        return n

    def _term(self, a, b, c):
        """N_{a,b} N_{a+b,c} (zero if a+b is not a root)."""
        ab = tuple(x + y for x, y in zip(a, b))
        if not self.rs.contains(ab):
            return 0
        return self.n(a, b) * self.n(ab, c)

    def n(self, a, b):
        """N_{a,b} for arbitrary roots a, b with a + b != 0."""
        s = tuple(x + y for x, y in zip(a, b))
        if all(v == 0 for v in s):
            raise ValueError("N undefined for opposite roots")
        if not self.rs.contains(s):
            return 0
        apos, bpos = sum(a) > 0, sum(b) > 0
        if apos and bpos:
            key = (a, b) if self._order[a] < self._order[b] else (b, a)
            val = self._npos[key]
            return val if key == (a, b) else -val
        if not apos and not bpos:
            neg = lambda v: tuple(-x for x in v)
            return -self.n(neg(a), neg(b))
        # mixed signs: rotate the zero-sum triple (a, b, c) to its same-sign
        # pair; (v, v) = 2 d_v for a root v
        c = tuple(-x for x in s)
        cpos = sum(c) > 0
        d = self.rs.root_d
        if cpos == bpos:
            # N_{a,b}/(c,c) = N_{b,c}/(a,a)
            val = Fraction(2 * d(c) * self.n(b, c), 2 * d(a))
        else:
            # N_{a,b}/(c,c) = N_{c,a}/(b,b)
            val = Fraction(2 * d(c) * self.n(c, a), 2 * d(b))
        assert val.denominator == 1
        return int(val)


def ref_gamma_value(chev, x, y, l):
    sx = -1 if x.parity else 1
    sy = -1 if y.parity else 1
    sl = -1 if l.parity else 1
    return sx * sy * sl * chev.n(x.cls, y.cls)


def ref_gamma_of(self, x, y, l):
    """gamma_{XY}^L by objects (0 when ungraded)."""
    key = (self.cat.index(x), self.cat.index(y))
    got = self.gamma.get(key)
    if got and got[0] == self.cat.index(l):
        return got[1]
    return 0


def ref_gamma_pair_products(self):
    """All nonzero gamma_{XY}^L * gamma_{X,TL}^{TY}; theory says in {-1..-4}."""
    out = []
    cat = self.cat
    for (ix, iy), (il, g1) in self.gamma.items():
        x = self.objects[ix]
        ty = cat.shift(self.objects[iy])
        tl = cat.shift(self.objects[il])
        g2 = ref_gamma_of(self, x, tl, ty)
        if g2:
            out.append(g1 * g2)
    return out


def ref_triangle_sign_check(self):
    """gamma_{TZ,X}^Y d(X) = gamma_{YZ}^X d(Y) wherever both sides are graded."""
    cat = self.cat
    for z in self.objects:
        tz = cat.shift(z)
        for x in self.objects:
            if tz.pos_root == x.pos_root:
                continue
            y = cat.chain_object(tz, x, 1, 1)
            if y is None:
                continue
            lhs = ref_gamma_of(self, tz, x, y) * cat.d(x)
            rhs = ref_gamma_of(self, y, z, x) * cat.d(y)
            if lhs != rhs:
                return False, (z, x, y)
    return True, None


def ref_hprime_coords(self, x):
    """H'_X expanded over H'_{S_1..S_m}: coefficients c_j d_j / d(X)."""
    dx = self.cat.d(x)
    out = []
    for j in range(self.m):
        val = Fraction(x.cls[j] * self.cat.cartan.d[j], dx)
        if val.denominator != 1:
            raise ArithmeticError("non-integral coroot expansion")
        out.append(int(val))
    return out


def ref_bracket_table(self):
    """table[i][j] = dict {k: coeff} for basis bracket [e_i, e_j]."""
    n_u, m, cat = self.n_u, self.m, self.cat
    table = [[None] * self.dim for _ in range(self.dim)]
    for i in range(self.dim):
        for j in range(self.dim):
            table[i][j] = {}
    for ix, x in enumerate(self.objects):
        for iy, y in enumerate(self.objects):
            if ix == iy:
                continue
            if x.pos_root == y.pos_root:
                if x.parity != y.parity:  # Y = TX: bracket is H'_X
                    for j, c in enumerate(ref_hprime_coords(self, x)):
                        if c:
                            table[ix][iy][n_u + j] = c
                continue
            got = self.gamma.get((ix, iy))
            if got:
                il, g = got
                table[ix][iy][il] = g
    for j in range(m):
        s = cat.simples[j]
        for iy, y in enumerate(self.objects):
            a = cat.A(s, y)
            if a:
                table[n_u + j][iy][iy] = -a
                table[iy][n_u + j][iy] = a
    return table


def ref_gamma(cat):
    """The gamma table by `chain_object` on every ordered object pair, with
    the constants of `RefChevalleyConstants`."""
    chev = RefChevalleyConstants(cat.rs)
    gamma = {}
    for ix, x in enumerate(cat.objects):
        for iy, y in enumerate(cat.objects):
            if x.pos_root == y.pos_root:
                continue
            l = cat.chain_object(x, y, 1, 1)
            if l is None:
                continue
            g = ref_gamma_value(chev, x, y, l)
            if g:
                gamma[(ix, iy)] = (cat.index(l), g)
    return gamma


def assert_same_checks(alg):
    """Equal bracket tables, pair products and triangle verdicts (witness
    included) from the index-based routines and the object walks."""
    assert alg._brackets == ref_bracket_table(alg)
    assert alg.gamma_pair_products() == ref_gamma_pair_products(alg)
    got = alg.triangle_sign_check()
    assert got == ref_triangle_sign_check(alg)
    return got


CONSTRUCTION_TYPES = ([("A", r) for r in range(1, 9)]
                      + [(s, r) for s in "BC" for r in range(2, 9)]
                      + [("D", r) for r in range(4, 9)]
                      + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("series,rank", CONSTRUCTION_TYPES)
def test_construction_equals_the_object_walk(series, rank):
    """The same gamma table, insertion order included, bracket table, pair
    products and triangle verdict as the walk over every object pair."""
    cat = root_category(series, rank)
    alg = structure_constants(cat)
    assert list(alg.gamma.items()) == list(ref_gamma(cat).items())
    assert assert_same_checks(alg) == (True, None)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_checks_on_every_flip_and_deletion(series, rank):
    """Every single gamma flip and every single deleted gamma key: the same
    verdict and witness from both triangle checks, the same pair products
    and bracket tables.  A deleted key must fail the triangle law even
    though the gamma table no longer names the pair."""
    base = lie_algebra(series, rank)
    for key, (il, g) in base.gamma.items():
        assert_same_checks(base.with_gamma({key: (il, -g)}))
        alg = base.with_gamma({})
        del alg.gamma[key]
        alg._brackets = alg._build_bracket_table()
        assert assert_same_checks(alg)[0] is False


def test_mixed_constant_that_does_not_divide_raises():
    """A mixed-sign N is a same-sign N times d_c, divided by d_x or d_y.
    With d_x = d_y = 3 on B2, which divides no numerator (d_c |N| <= 4
    there), every mixed pair raises instead of rounding."""
    chev = ChevalleyConstants(root_system("B", 2))
    d = chev.d
    mixed = [(x, y) for x, row in enumerate(chev.sums) for y in row if (x ^ y) & 1]
    assert mixed
    for x, y in mixed:
        chev.d = [3 if i in (x, y) else v for i, v in enumerate(d)]
        with pytest.raises(ArithmeticError):
            chev.n(x, y)


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2)])
def test_bracket_table_ignores_keys_off_the_root_pairs(series, rank):
    """Gamma keys (X, X), (X, TX) and (X, H'_1) name no root bracket: both
    bracket tables ignore them."""
    base = lie_algebra(series, rank)
    alg = base.with_gamma({(0, 0): (2, 1), (0, 1): (2, 1), (1, 0): (2, -1),
                           (0, base.n_u): (2, 1)})
    assert alg._brackets == ref_bracket_table(alg) == base._brackets
