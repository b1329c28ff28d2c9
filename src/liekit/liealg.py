"""The integer-form Lie algebra attached to a root category.

Basis: one u_X per indecomposable X, plus H'_{S_1..S_m} for the parity-0
simple objects.  The structure constants gamma_{XY}^L have magnitude p+1
(root strings); their signs come from a deterministic extraspecial-pair
construction of Chevalley constants N_{alpha,beta} on the underlying root
system (Carter, *Simple Groups of Lie Type*, 4.1-4.2).  The construction
works on indices: object 2k + e is the positive root k with parity e, so T
is `ix ^ 1` and the class of an object is the root of its index.  Each
object's row {Y: L} of class sums is the root system's table `rs.sums`,
and each p is one walk `rs.walk` down a root string; every mixed-sign N
is rotated to a same-sign one by exact integer division, which raises
`ArithmeticError` if it does not divide.  Antisymmetry and class
grading hold by construction; `structure_constants` re-verifies the
gamma*gamma range and the triangle-sign law on every pair whose class sum
is a root, reading gamma by index, and aborts on a violation.  Jacobi is
not re-run at construction: it is checked by `LieAlgebraZ.jacobi_check`
(`liekit verify liealg`).

The invariant form costs O(nnz), not dim^2 trace walks: `killing_gram` reads
its root block off the gamma table and its Cartan block off one Euler-form
vector per object, and `trace_gram` gives tr(ad e_i ad e_j) on every pair as
one sparse integer product over the bracket table.

A changed gamma table is derived with `with_gamma`, never patched into an
algebra's `_brackets`; the cached `lie_algebra` stays untouched, and
`ad_matrix` refills its cache whenever `_brackets` is replaced.

The one bracket routine `table_bracket` and the bracket-preservation sweep
work on any basis bracket table,
table[i][j] = {k: coefficient of e_k in [e_i, e_j]}, over any scalars with
Python's operators, and the Jacobi sweep on any such table over the
rationals; the integer form here and the compact form (`compactform`)
share them.  The Jacobi sweep visits only the triples with a nonzero term
(on E7, 49,647 of 383,306), which is exact: every other Jacobiator is 0.
The bracket-preservation sweep checks every basis pair exactly, one row i
at a time: ad(M e_i) is built once per row from the target table's nonzero
cells, and two sparse products give both sides for all j > i.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact import ZZ, sp_mul, sp_transpose
from .rootcat import RootCategory, root_category


# ---------------------------------------------------------------------------
# brackets through a basis table: table[i][j] = {k: coeff of e_k in [e_i, e_j]}

def table_bracket(table, a, b):
    """Bracket of dict vectors {basis_index: coeff}."""
    out = {}
    for i, ca in a.items():
        row = table[i]
        for j, cb in b.items():
            for k, v in row[j].items():
                w = out.get(k, 0) + ca * cb * v
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
    return out


def first_bracket_failure(src, dst, mat, dom):
    """First basis pair i < j with M[e_i, e_j] != [M e_i, M e_j], where the
    sparse matrix M over `dom` maps the basis of table `src` into that of
    table `dst` and each bracket is taken in its own table; None if M
    preserves the bracket.

    The sweep goes one basis row i at a time.  ad_i[b] = [M e_i, e_b] is
    the sum of M_{ai} dst[a][b] over the nonzero cells of `dst` (listed
    once per call); then two sparse products give the whole row:
    M[e_i, e_j] for every j > i as the rows src[i][j] times the columns of
    M, and [M e_i, M e_j] as the columns M e_j times ad_i.  Rows equal as
    dicts pass at once; others are compared entry by entry with `dom.eq`,
    so no verdict rests on residues being reduced.  The first row that
    differs returns its least j, so the witness is the lexicographically
    least failing pair, as a pair-by-pair sweep would find it."""
    cols = sp_transpose(mat)
    cells = [[(b, d) for b, d in enumerate(row) if d] for row in dst]
    n, zero = len(src), dom.zero
    for i in range(n):
        ad = {}
        for a, c in cols.get(i, {}).items():
            for b, d in cells[a]:
                acc = ad.setdefault(b, {})
                for k, v in d.items():
                    acc[k] = acc[k] + c * v if k in acc else c * v
        row = src[i]
        lhs = sp_mul({j: row[j] for j in range(i + 1, n) if row[j]}, cols, dom)
        rhs = sp_mul({j: cols[j] for j in range(i + 1, n) if j in cols}, ad, dom)
        if lhs == rhs:
            continue
        for j in sorted(lhs.keys() | rhs.keys()):
            x, y = lhs.get(j, {}), rhs.get(j, {})
            if any(not dom.eq(x.get(k, zero), y.get(k, zero))
                   for k in x.keys() | y.keys()):
                return i, j
    return None


def jacobi_sweep(table):
    """Jacobi on every basis triple i < j < k, driven by the table's nonzero
    entries; returns (ok, witness), the witness being the lexicographically
    least triple whose Jacobiator is not 0.

    A term [[e_a, e_b], e_c] is the sum of v * table[l][c] over the e_l in
    [e_a, e_b] with coefficient v.  For each least index i in turn, the
    Jacobiators of all triples i < j < k are accumulated from their nonzero
    terms only, in three families by where i sits: a = i (scan row i, then
    the nonzero entries of each row l it reaches, past j), c = i (through
    an index l -> [(a, b, v)] of where e_l occurs, built once per call) and
    b = i (scan column i).  A triple with no nonzero term has Jacobiator 0,
    so skipping it changes no verdict; nothing assumes antisymmetry or
    grading, which a flipped ordered gamma breaks.  Memory is bounded by
    one i at a time.

    The scalars are rationals (int or Fraction).  A table with Fractions
    is swept as the table times the lcm D of their denominators, in
    integers: every Jacobiator is quadratic in the table, so it only
    scales by D^2."""
    n = len(table)
    if any(type(v) is not int for row in table for d in row for v in d.values()):
        den = lcm(*(v.denominator for row in table for d in row for v in d.values()))
        table = [[{q: v.numerator * (den // v.denominator) for q, v in d.items()}
                  for d in row] for row in table]
    heads = [[c for c, d in enumerate(row) if d] for row in table]
    occurs = [[] for _ in range(n)]
    for a, row in enumerate(table):
        for b in heads[a]:
            for l, v in row[b].items():
                occurs[l].append((a, b, v))
    for i in range(n):
        # acc[(j * n + k) * n + q]: coefficient of e_q in J(e_i, e_j, e_k)
        acc = {}
        col = [a for a, row in enumerate(table) if row[i]]
        for j in heads[i]:  # a = i: [[e_i, e_j], e_k], k > j
            if j <= i:
                continue
            for l, v in table[i][j].items():
                row, head = table[l], heads[l]
                for k in head[bisect_right(head, j):]:
                    base = (j * n + k) * n
                    for q, w in row[k].items():
                        acc[base + q] = acc.get(base + q, 0) + v * w
        for l in col:  # c = i: [[e_j, e_k], e_i]
            e = table[l][i]
            for j, k, v in occurs[l]:
                if i < j < k:
                    base = (j * n + k) * n
                    for q, w in e.items():
                        acc[base + q] = acc.get(base + q, 0) + v * w
        for k in col:  # b = i: [[e_k, e_i], e_j], i < j < k
            if k <= i:
                continue
            for l, v in table[k][i].items():
                row, head = table[l], heads[l]
                for j in head[bisect_right(head, i):bisect_left(head, k)]:
                    base = (j * n + k) * n
                    for q, w in row[j].items():
                        acc[base + q] = acc.get(base + q, 0) + v * w
        bad = [key for key, w in acc.items() if w]
        if bad:
            j, k = divmod(min(bad) // n, n)
            return False, (i, j, k)
    return True, None


# ---------------------------------------------------------------------------
# Chevalley structure constants on the root system

class ChevalleyConstants:
    """N_{x,y} for all pairs of roots whose sum is a root, built by height
    induction on the positive pairs.

    A root is named by its root index 2k + e (`RootSystem`), the index of
    the root-category object of that class, so negation is `x ^ 1`.  The
    class sums are the root system's table `sums = rs.sums`, {y: index of
    x + y} per x in ascending y, and root strings are `rs.walk`.
    Extraspecial pairs get N = p+1; remaining special pairs are solved from
    the standard zero-sum Jacobi identities.  Conventions: [e_a, e_b] =
    N_{a,b} e_{a+b}, [e_a, e_{-a}] = h_a, N_{-a,-b} = -N_{a,b}.
    """

    def __init__(self, rs):
        self.rs, self.sums = rs, rs.sums
        self.d = [rs.root_d(r) for r in rs.positive for _ in (0, 1)]  # (v, v) = 2 d_v
        pairs = [[] for _ in rs.positive]  # the positive pairs of each sum, by alpha
        for x in range(0, len(self.sums), 2):
            for y, s in self.sums[x].items():
                if y > x and not y & 1:
                    pairs[s >> 1].append((x, y))
        self._n = {}  # N_{alpha,beta} on the positive pairs alpha < beta
        for k, found in enumerate(pairs):
            if found:
                (alpha, beta), rest = found[0], found[1:]  # extraspecial first
                self._n[alpha, beta] = self._p(alpha, beta) + 1
                for xi, eta in rest:
                    self._n[xi, eta] = self._solve_special(
                        2 * k, alpha, beta, xi, eta)

    def _p(self, x, y):
        """The largest p with y - p x a root."""
        return len(self.rs.walk(x ^ 1, y)) - 1

    def _solve_special(self, gamma, alpha, beta, xi, eta):
        """Jacobi coefficient identity with (b,c,d) = (-xi, -eta, beta):
        N_{-xi,-eta} N_{-gamma, beta} + N_{-eta,beta} N_{beta-eta,-xi}
        + N_{beta,-xi} N_{beta-xi,-eta} = 0.
        """
        t2 = self._term(eta ^ 1, beta, xi ^ 1)
        t3 = self._term(beta, xi ^ 1, eta ^ 1)
        n, r = divmod(t2 + t3, self.n(gamma ^ 1, beta))
        if r:
            raise ArithmeticError("non-integer structure constant")
        p = self._p(xi, eta)
        if abs(n) != p + 1:
            raise ArithmeticError(
                f"structure constant magnitude {n} != p+1 = {p + 1}")
        return n

    def _term(self, a, b, c):
        """N_{a,b} N_{a+b,c} (zero if a+b is not a root)."""
        ab = self.sums[a].get(b)
        return 0 if ab is None else self.n(a, b) * self.n(ab, c)

    def n(self, x, y):
        """N_{x,y} for root indices x, y; 0 when x + y is not a root."""
        z = self.sums[x].get(y)
        if z is None:
            return 0
        if not (x ^ y) & 1:  # N_{b,a} = N_{-a,-b} = -N_{a,b}
            sign = -1 if x & 1 else 1
            if x > y:
                x, y, sign = y, x, -sign
            return sign * self._n[x & ~1, y & ~1]
        # mixed signs: rotate the zero-sum triple (x, y, c) to its same-sign
        # pair, N_{x,y}/d_c = N_{y,c}/d_x = N_{c,x}/d_y, in exact integers
        c, d = z ^ 1, self.d
        if (c ^ y) & 1:
            n, r = divmod(d[c] * self.n(c, x), d[y])
        else:
            n, r = divmod(d[c] * self.n(y, c), d[x])
        if r:
            raise ArithmeticError("non-integer structure constant")
        return n


# ---------------------------------------------------------------------------
# the Lie algebra

class LieAlgebraZ:
    """g_Z in the basis {u_X} + {H'_{S_j}}, with exact integer brackets."""

    def __init__(self, cat: RootCategory):
        self.cat = cat
        rs = cat.rs
        self.rs = rs
        self.chev = ChevalleyConstants(rs)
        self.objects = cat.objects
        self.n_u = len(self.objects)
        self.m = cat.m
        self.dim = self.n_u + self.m
        # gamma table: dict (ix, iy) -> (iL, gamma) for class-graded brackets,
        # in ascending (ix, iy); gamma_{XY}^L = s_X s_Y s_L N_{X,Y}, where
        # s = -1 on the odd parity
        self.gamma = {}
        for ix, row in enumerate(self.chev.sums):
            for iy, il in row.items():
                g = self.chev.n(ix, iy)
                self.gamma[ix, iy] = (il, -g if (ix ^ iy ^ il) & 1 else g)
        self._brackets = self._build_bracket_table()
        self._ad_cache, self._ad_table = {}, self._brackets

    def with_gamma(self, changes):
        """A new algebra with gamma = {**self.gamma, **changes} (keys keep
        their order) and its own bracket table; it shares `cat`, `rs`, `chev`
        and `objects` with `self`, which stays untouched, and validates
        nothing, since a changed table is meant to fail the checks."""
        out = copy.copy(self)
        out.gamma = {**self.gamma, **changes}
        out._brackets = out._build_bracket_table()
        return out

    # -- gamma --------------------------------------------------------------

    def _gamma_to(self, ix, iy, il):
        """gamma_{XY}^L by indices (0 when the entry of (X, Y) targets
        another object or is absent)."""
        got = self.gamma.get((ix, iy))
        return got[1] if got and got[0] == il else 0

    # -- Cartan bookkeeping ---------------------------------------------------

    def hprime_coords(self, x):
        """H'_X expanded over H'_{S_1..S_m}: coefficients c_j d_j / d(X)."""
        dx = self.cat.d(x)
        out = []
        for c, d in zip(x.cls, self.cat.cartan.d):
            q, r = divmod(c * d, dx)
            if r:
                raise ArithmeticError("non-integral coroot expansion")
            out.append(q)
        return out

    # -- brackets -------------------------------------------------------------

    def _build_bracket_table(self):
        """table[i][j] = dict {k: coeff} for basis bracket [e_i, e_j], read
        off the gamma entries of root objects X, Y with Y neither X nor TX,
        the brackets [u_X, u_TX] = H'_X and the action of each H'_{S_j}."""
        n_u, m, cat = self.n_u, self.m, self.cat
        table = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
        for (ix, iy), (il, g) in self.gamma.items():
            if ix >> 1 != iy >> 1 and ix < n_u and iy < n_u:
                table[ix][iy][il] = g
        for ix, x in enumerate(self.objects):
            table[ix][ix ^ 1] = {n_u + j: c for j, c in
                                 enumerate(self.hprime_coords(x)) if c}
        for j in range(m):
            s = cat.simples[j]
            for iy, y in enumerate(self.objects):
                a = cat.A(s, y)
                if a:
                    table[n_u + j][iy][iy] = -a
                    table[iy][n_u + j][iy] = a
        return table

    def bracket_basis(self, i, j):
        return self._brackets[i][j]

    def bracket(self, a, b):
        """Bracket of dict vectors {basis_index: coeff}."""
        return table_bracket(self._brackets, a, b)

    def ad_matrix(self, i):
        """Sparse column-action matrix of ad(e_i): ad[k][j] = coeff of e_k in
        [e_i, e_j], cached until `_brackets` is replaced."""
        if self._ad_table is not self._brackets:
            self._ad_cache, self._ad_table = {}, self._brackets
        if i not in self._ad_cache:
            self._ad_cache[i] = sp_transpose(dict(enumerate(self._brackets[i])))
        return self._ad_cache[i]

    def trace_form(self, i, j):
        """tr(ad e_i ad e_j), exact integer, from the two ad matrices.

        `killing_equals_trace_form` reads every pair from `trace_gram`.  This
        per-pair walk stays as the independent oracle the tests hold that one
        product against, and perfbench's tracer wraps it by name."""
        a, b = self.ad_matrix(i), self.ad_matrix(j)
        tot = 0
        for l, row in a.items():
            for mm, v in row.items():
                tot += v * b.get(mm, {}).get(l, 0)
        return tot

    def trace_gram(self):
        """T[i][j] = tr(ad e_i ad e_j) on all basis pairs, as a sparse integer
        matrix: with c_{im}^l the coefficient of e_l in [e_i, e_m],
        tr(ad e_i ad e_j) = sum_{l,m} c_{im}^l c_{jl}^m, which is one product
        of the rows i -> {(l, m): c_{im}^l} with the rows (l, m) -> {j: c_{jl}^m}."""
        left, right = {}, {}
        for i, row in enumerate(self._brackets):
            for m, col in enumerate(row):
                for l, c in col.items():
                    left.setdefault(i, {})[l, m] = c
                    right.setdefault((m, l), {})[i] = c
        return sp_mul(left, right, ZZ)

    # -- verification sweeps ---------------------------------------------------

    def jacobi_check(self):
        """Jacobi on every basis triple (`jacobi_sweep`); returns (ok, witness)."""
        return jacobi_sweep(self._brackets)

    def gamma_pair_products(self):
        """All nonzero gamma_{XY}^L * gamma_{X,TL}^{TY}; theory says in {-1..-4}."""
        out = []
        for (ix, iy), (il, g1) in self.gamma.items():
            g2 = self._gamma_to(ix, il ^ 1, iy ^ 1)
            if g2:
                out.append(g1 * g2)
        return out

    def triangle_sign_check(self):
        """gamma_{TZ,X}^Y d(X) = gamma_{YZ}^X d(Y) for every pair (TZ, X)
        whose class sum is the class of an object Y, in z-major order; the
        witness is the first (Z, X, Y) that differs."""
        d = self.chev.d
        for iz in range(self.n_u):
            for ix, iy in self.chev.sums[iz ^ 1].items():
                if (self._gamma_to(iz ^ 1, ix, iy) * d[ix]
                        != self._gamma_to(iy, iz, ix) * d[iy]):
                    return False, tuple(self.objects[i] for i in (iz, ix, iy))
        return True, None

    # -- the invariant form ------------------------------------------------------

    def killing_gram(self):
        """Gram matrix of the category-defined invariant form, rational entries.

        Clauses: (H_X,H_Y) = sum_Z (H_X|H_Z)(H_Y|H_Z); (H,u) = 0;
        (u_X,u_Y) = 0 unless Y = TX; (u_X,u_TX) = -4 + sum gamma*gamma.
        Note H'_{S_i} = H_{S_i}/d_i.

        The root block is read off the gamma table: each entry
        (TX, Y) -> L whose target L is the class-sum object adds
        gamma_{TX,Y}^L gamma_{X,L}^Y to (u_X, u_TX), the second factor
        counting only if it targets Y (as `_gamma_to` requires).  The Cartan
        block comes from one vector ((S_i|Z))_i per object Z.
        """
        cat, n_u, m, objs = self.cat, self.n_u, self.m, self.objects
        gram = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        root = [-4] * n_u
        for (itx, iy), (il, g) in self.gamma.items():
            if self.chev.sums[itx].get(iy) == il:
                root[itx ^ 1] += g * self._gamma_to(itx ^ 1, il, iy)
        for ix, val in enumerate(root):
            gram[ix][ix ^ 1] = Fraction(val)
        vecs = [[cat.euler_form(s, z) for s in cat.simples] for z in objs]
        d = cat.cartan.d
        for i in range(m):
            for j in range(m):
                tot = sum(v[i] * v[j] for v in vecs)
                gram[n_u + i][n_u + j] = Fraction(tot, d[i] * d[j])
        return gram

    def killing_equals_trace_form(self):
        """Compare the category form against tr(ad ad) on all basis pairs, in
        row-major order; the witness is the first pair (i, j, form, trace)
        that differs."""
        gram, trace = self.killing_gram(), self.trace_gram()
        for i, row in enumerate(gram):
            t = trace.get(i, {})
            for j, v in enumerate(row):
                if v != t.get(j, 0):
                    return False, (i, j, v, t.get(j, 0))
        return True, None


def structure_constants(cat: RootCategory):
    """Build and sanity-check the full gamma table; abort on violation."""
    alg = LieAlgebraZ(cat)
    # antisymmetry and class grading are structural in the construction;
    # check the two numeric constraints the construction is supposed to obey
    for val in alg.gamma_pair_products():
        if val not in (-1, -2, -3, -4):
            raise ArithmeticError(f"gamma pair product {val} out of range")
    ok, witness = alg.triangle_sign_check()
    if not ok:
        raise ArithmeticError(f"triangle sign law failed at {witness}")
    return alg


@lru_cache(maxsize=None)
def lie_algebra(series, rank):
    return structure_constants(root_category(series, rank))
