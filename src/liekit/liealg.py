"""The integer-form Lie algebra attached to a root category.

Basis: one u_X per indecomposable X, plus H'_{S_1..S_m} for the parity-0
simple objects.  The structure constants gamma_{XY}^L have magnitude p+1
(root strings); their signs come from a deterministic extraspecial-pair
construction of Chevalley constants N_{alpha,beta} on the underlying root
system.  Antisymmetry and class grading hold by construction;
`structure_constants` re-verifies the gamma*gamma range and the triangle-sign
law and aborts on a violation.  Jacobi is not re-run at construction: it is
checked by `LieAlgebraZ.jacobi_check` (`liekit verify liealg`).

The invariant form costs O(nnz), not dim^2 trace walks: `killing_gram` reads
its root block off the gamma table and its Cartan block off one Euler-form
vector per object, and `trace_gram` gives tr(ad e_i ad e_j) on every pair as
one sparse integer product over the bracket table.

A changed gamma table is derived with `with_gamma`, never patched into an
algebra's `_brackets`; the cached `lie_algebra` stays untouched, and
`ad_matrix` refills its cache whenever `_brackets` is replaced.

The one bracket routine `table_bracket`, the bracket-preservation sweep and
the Jacobi sweep work on any basis bracket table,
table[i][j] = {k: coefficient of e_k in [e_i, e_j]}, over any scalars with
Python's operators; the integer form here and the compact form
(`compactform`) share them.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from functools import lru_cache

from .exact import ZZ, sp_mul, sp_transpose
from .rootcat import RootCategory, root_category
from .rootdata import root_string


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
    preserves the bracket.  The two sides are compared entry by entry with
    `dom.eq`, so the bracket may run on Python's operators (over F_p it
    leaves residues unreduced)."""
    cols = sp_transpose(mat)
    n = len(src)
    for i in range(n):
        for j in range(i + 1, n):
            img = sp_mul({0: src[i][j]}, cols, dom).get(0, {})
            got = table_bracket(dst, cols.get(i, {}), cols.get(j, {}))
            if any(not dom.eq(img.get(k, dom.zero), got.get(k, dom.zero))
                   for k in img.keys() | got.keys()):
                return i, j
    return None


def jacobi_sweep(table):
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


# ---------------------------------------------------------------------------
# Chevalley structure constants on the root system

class ChevalleyConstants:
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
        # gamma table: dict (ix, iy) -> (iL, gamma) for class-graded brackets
        self.gamma = {}
        for ix, x in enumerate(self.objects):
            for iy, y in enumerate(self.objects):
                if x.pos_root == y.pos_root:
                    continue
                l = cat.chain_object(x, y, 1, 1)
                if l is None:
                    continue
                g = self._gamma_value(x, y, l)
                if g:
                    self.gamma[(ix, iy)] = (cat.index(l), g)
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

    def _gamma_value(self, x, y, l):
        sx = -1 if x.parity else 1
        sy = -1 if y.parity else 1
        sl = -1 if l.parity else 1
        return sx * sy * sl * self.chev.n(x.cls, y.cls)

    def gamma_of(self, x, y, l):
        """gamma_{XY}^L by objects (0 when ungraded)."""
        key = (self.cat.index(x), self.cat.index(y))
        got = self.gamma.get(key)
        if got and got[0] == self.cat.index(l):
            return got[1]
        return 0

    # -- Cartan bookkeeping ---------------------------------------------------

    def hprime_coords(self, x):
        """H'_X expanded over H'_{S_1..S_m}: coefficients c_j d_j / d(X)."""
        dx = self.cat.d(x)
        out = []
        for j in range(self.m):
            val = Fraction(x.cls[j] * self.cat.cartan.d[j], dx)
            if val.denominator != 1:
                raise ArithmeticError("non-integral coroot expansion")
            out.append(int(val))
        return out

    # -- brackets -------------------------------------------------------------

    def _build_bracket_table(self):
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
                        for j, c in enumerate(self.hprime_coords(x)):
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
        """Exhaustive Jacobi over basis triples; returns (ok, witness)."""
        return jacobi_sweep(self._brackets)

    def gamma_pair_products(self):
        """All nonzero gamma_{XY}^L * gamma_{X,TL}^{TY}; theory says in {-1..-4}."""
        out = []
        cat = self.cat
        for (ix, iy), (il, g1) in self.gamma.items():
            x = self.objects[ix]
            ty = cat.shift(self.objects[iy])
            tl = cat.shift(self.objects[il])
            g2 = self.gamma_of(x, tl, ty)
            if g2:
                out.append(g1 * g2)
        return out

    def triangle_sign_check(self):
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
                lhs = self.gamma_of(tz, x, y) * cat.d(x)
                rhs = self.gamma_of(y, z, x) * cat.d(y)
                if lhs != rhs:
                    return False, (z, x, y)
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
        counting only if it targets Y (as `gamma_of` requires).  The Cartan
        block comes from one vector ((S_i|Z))_i per object Z.
        """
        cat, n_u, m, objs = self.cat, self.n_u, self.m, self.objects
        gram = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        shift = [cat.index(cat.shift(x)) for x in objs]
        root = [-4] * n_u
        for (itx, iy), (il, g) in self.gamma.items():
            tx, y = objs[itx], objs[iy]
            l = cat.chain_object(tx, y, 1, 1)
            if tx.pos_root == y.pos_root or l is None or cat.index(l) != il:
                continue
            back = self.gamma.get((shift[itx], il))
            if back and back[0] == iy:
                root[shift[itx]] += g * back[1]
        for ix, val in enumerate(root):
            gram[ix][shift[ix]] = Fraction(val)
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

    def invariance_check(self, form=None):
        """([x,y],z) = (x,[y,z]) on all basis triples."""
        gram = form if form is not None else self.killing_gram()

        def pair(vec, k):
            return sum(c * gram[i][k] for i, c in vec.items())

        n = self.dim
        for i in range(n):
            for j in range(n):
                bij = self._brackets[i][j]
                for k in range(n):
                    lhs = pair(bij, k)
                    rhs = sum(w * gram[i][l] for l, w in self._brackets[j][k].items())
                    if lhs != rhs:
                        return False, (i, j, k)
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
