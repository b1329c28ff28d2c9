"""The Chevalley group in its adjoint action on the integer Lie algebra.

Generators are exponentials of the nilpotent basis operators: E_X(t) is a
matrix polynomial in t with integer coefficient matrices, h_X(t) is diagonal
with entries t^{A_{XY}}, and n_X(t) = E_X(t) E_{TX}(t^{-1}) E_X(t).  Each
group relation is proved once, as an identity of matrices over the
Laurent-polynomial ring Z[t^{+-1}, s^{+-1}], on a `LaurentGroup`: every
argument the proofs use is a monomial c t^a s^b or the sum t + s, so each
generator is an integer matrix whose column keys (col, et, es) carry the
exponents, E_X(c t^a s^b) putting c^k times entry (i, j) of M_k at (i, (j,
ka, kb)), and the torus conjugation only moves keys.  n_X(u) is built once
per object over Z[u^{+-1}], and n_X at any monomial is the substitution of
that monomial for u, with no further product; conjugation by n_X(t) is one
pass over the entries of the conjugated matrix.  Evaluation at a unit
point of Q or F_p is a ring homomorphism, so a proved identity holds at
every point: a sample point evaluates (`ek_at`) only the two sides of a
proof that failed, and names that proof where they differ.
`ChevalleyGroup.E`, `h` and `n` give the generators over any `Domain`,
Laurent polynomials included.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct

from .exact import (PrimeField, divided_powers, ek_at, ek_mul, sp_map,
                    sp_mul_many, sum_powers)
from .liealg import LieAlgebraZ, first_bracket_failure
from .rootdata import invariant_factors


class ChevalleyGroup:
    def __init__(self, alg: LieAlgebraZ):
        self.alg = alg
        self.cat = alg.cat
        self.dim = alg.dim
        self._exp_tables = {}
        self._h_exps = {}

    # -- exponential tables --------------------------------------------------

    def exp_table(self, ix):
        """[I, ad u_X, (ad u_X)^2/2!, ...] as integer sparse matrices."""
        mats = self._exp_tables.get(ix)
        if mats is None:
            mats = []
            powers = divided_powers(self.alg.ad_matrix(ix), self.dim)
            for k, mat in enumerate(powers):
                intmat = sp_map(mat, int)
                if intmat != mat:  # int() truncates a non-integral entry
                    raise ArithmeticError(
                        f"non-integer exponential coefficient at power {k}")
                mats.append(intmat)
            self._exp_tables[ix] = mats
        return mats

    # -- generators over an arbitrary domain ----------------------------------

    def E_index(self, ix, t, dom):
        table = self.exp_table(ix)
        return sum_powers(table, dom.powers(t, len(table)), dom)

    def E(self, x, t, dom):
        return self.E_index(self.cat.index(x), t, dom)

    def h_exponents(self, x):
        """Diagonal exponents of h_X: A_{XY} on u_Y, 0 on the Cartan part."""
        exps = self._h_exps.get(x)
        if exps is None:
            exps = self._h_exps[x] = tuple(
                [self.cat.A(x, y) for y in self.cat.objects] + [0] * self.alg.m)
        return exps

    def h(self, x, t, dom):
        out = {}
        for i, e in enumerate(self.h_exponents(x)):
            out[i] = {i: dom.power(t, e) if e else dom.one}
        return out

    def conj_by_h(self, x, t, mat, dom):
        """h_X(t) M h_X(t)^{-1}: entrywise scaling by t^{A_i - A_j}."""
        exps = self.h_exponents(x)
        powers = {}  # one power per distinct exponent
        out = {}
        for i, row in mat.items():
            r = {}
            for j, v in row.items():
                e = exps[i] - exps[j]
                if e:
                    te = powers.get(e)
                    if te is None:
                        te = powers[e] = dom.power(t, e)
                    r[j] = dom.mul(te, v)
                else:
                    r[j] = v
            out[i] = r
        return out

    def n(self, x, t, dom):
        tinv = dom.inv(t)
        tx = self.cat.shift(x)
        e1 = self.E(x, t, dom)
        return sp_mul_many([e1, self.E(tx, tinv, dom), e1], dom)

    def n_inv(self, x, t, dom):
        """n_X(t)^{-1} = n_X(-t)."""
        return self.n(x, dom.neg(t), dom)


class LaurentGroup:
    """E, h, n and n^{-1} of `grp` at monomials c t^a s^b, as integer
    matrices over Z[t^{+-1}, s^{+-1}] in the exponent-keyed form of `ek_mul`,
    {row: {(col, et, es): int}} with no zero entry and no empty row, so that
    `==` is equality.

    Objects are named by index and a monomial by its integer coefficient c
    and exponents (a, b); n inverts its argument, so there c is +-1, and h
    is taken at t^a s^b.  Every generator is a relabelling of the integer
    exp table or of the torus exponents: entry v of M_k in E_X(c t^a s^b)
    goes to the key (col, k a, k b) with value c^k v.  n_X(u) = E_X(u)
    E_TX(u^{-1}) E_X(u) takes two products once per object, as the memo
    entry at (c, a, b) = (1, 1, 0), whose keys are (col, e, 0); at any other
    monomial n is the substitution u = c t^a s^b (`_substituted`), a ring
    map, with no product.  Conjugation by n_X(t) is one pass over the
    entries of M (`conj_by_n`).  E and n are memoised by (index, c, a, b).
    """

    def __init__(self, grp):
        self.grp = grp
        self.cat = grp.cat
        self._memo = {}

    def mul(self, *mats):
        return reduce(ek_mul, mats)

    def identity(self):
        return {i: {(i, 0, 0): 1} for i in range(self.grp.dim)}

    def E(self, ix, c, a, b):
        key = ("E", ix, c, a, b)
        out = self._memo.get(key)
        if out is None:
            out = {}
            for k, mat in enumerate(self.grp.exp_table(ix)):
                ck, ka, kb = c ** k, k * a, k * b
                for i, row in mat.items():
                    r = out.setdefault(i, {})
                    for j, v in row.items():
                        jk = (j, ka, kb)  # keys meet only when a = b = 0
                        r[jk] = r[jk] + ck * v if jk in r else ck * v
            out = self._memo[key] = {
                i: r for i, row in out.items()
                if (r := {jk: v for jk, v in row.items() if v})}
        return out

    def E_sum(self, ix):
        """E_X(t + s): entry v of M_k goes to the keys (col, j, k - j), for
        j = 0..k, with value C(k, j) v; no two of them meet."""
        out = {}
        for k, mat in enumerate(self.grp.exp_table(ix)):
            binom = [math.comb(k, j) for j in range(k + 1)]
            for i, row in mat.items():
                r = out.setdefault(i, {})
                for col, v in row.items():
                    if v:
                        for j, c in enumerate(binom):
                            r[col, j, k - j] = c * v
        return {i: r for i, r in out.items() if r}

    def h(self, ix, a, b):
        """h_X(t^a s^b) = diag(t^(e a) s^(e b)) over the exponents e of h_X."""
        exps = self.grp.h_exponents(self.cat.objects[ix])
        return {i: {(i, e * a, e * b): 1} for i, e in enumerate(exps)}

    def conj_by_h(self, ix, mat):
        """h_X(t) M h_X(t)^{-1}: entry (i, j) moved by A_i - A_j in t."""
        exps = self.grp.h_exponents(self.cat.objects[ix])
        return {i: {(j, et + exps[i] - exps[j], es): v
                    for (j, et, es), v in row.items()}
                for i, row in mat.items()}

    def n(self, ix, c, a, b):
        """E_X(m) E_TX(m^{-1}) E_X(m) for m = c t^a s^b, c = +-1: n_X(u)
        at u = m, entry v at (col, e, 0) going to (col, e a, e b) with
        value c^e v."""
        if c not in (1, -1):
            raise ValueError(f"n_X(c t^a s^b) needs c = +-1, not {c}")
        key = ("n", ix, c, a, b)
        out = self._memo.get(key)
        if out is None:
            if (c, a, b) == (1, 1, 0):  # n_X(u), by two products
                itx = self.cat.index(self.cat.shift(self.cat.objects[ix]))
                e1 = self.E(ix, 1, 1, 0)
                out = self.mul(e1, self.E(itx, 1, -1, 0), e1)
            else:
                out = _substituted(self.n(ix, 1, 1, 0), c, a, b)
            self._memo[key] = out
        return out

    def n_inv(self, ix, c, a, b):
        """n_X(m)^{-1} = n_X(-m), sharing its memo entry."""
        return self.n(ix, -c, a, b)

    def conj_by_n(self, ix, mat):
        """n_X(t) M n_X(t)^{-1} in one pass, with no product formed between.

        Each entry of row i of n_X(t), at column k, each entry of row k of
        M, at column l, and each entry of row l of n_X(-t) add their product
        at the column of the last and the sums of the three exponents.  No
        shape of n_X is assumed; its rows and those of n_X(-t) are listed
        once per object.  Rows end as in `ek_mul`, so the result is `==` to
        the product of the three."""
        rows = self._memo.get(("conj", ix))
        if rows is None:
            rows = self._memo["conj", ix] = (
                [(i, tuple(r.items())) for i, r in self.n(ix, 1, 1, 0).items()],
                {k: tuple(r.items()) for k, r in self.n(ix, -1, 1, 0).items()})
        n_rows, inv_rows = rows
        out = {}
        for i, nrow in n_rows:
            acc = {}
            for (k, at, as_), nv in nrow:
                mrow = mat.get(k)
                if not mrow:
                    continue
                for (l, mt, ms), mv in mrow.items():
                    irow = inv_rows.get(l)
                    if not irow:
                        continue
                    et, es, v = at + mt, as_ + ms, nv * mv
                    for (j, bt, bs), bv in irow:
                        key = j, et + bt, es + bs
                        if key in acc:
                            acc[key] += v * bv
                        else:
                            acc[key] = v * bv
            if not all(acc.values()):
                acc = {key: v for key, v in acc.items() if v}
            if acc:
                out[i] = acc
        return out


def _substituted(mat, c, a, b):
    """The exponent-keyed `mat`, a matrix over Z[u^{+-1}] with keys (col,
    e, 0), at u = c t^a s^b for c = +-1: entry v goes to (col, e a, e b)
    with value c^e v, which is c v for odd e.  Keys meet only when a = b =
    0; there they are summed and zeros dropped."""
    out = {}
    for i, row in mat.items():
        r = {}
        for (j, e, _), v in row.items():
            jk = j, e * a, e * b
            if e & 1:
                v *= c
            r[jk] = r[jk] + v if jk in r else v
        if r := {jk: v for jk, v in r.items() if v}:
            out[i] = r
    return out


# ---------------------------------------------------------------------------
# sample points

def _rational_point(rng):
    """A nonzero rational a/b with 0 < |a| <= 9 and 0 < b <= 9."""
    return Fraction(rng.choice([v for v in range(-9, 10) if v]),
                    rng.randint(1, 9))


def _failed_at(failed, t0, s0, p=None):
    """The keys of the failed proofs (key, lhs, rhs) whose two sides differ
    at (t0, s0), over Q or, when p is given, over F_p."""
    return [key for key, lhs, rhs in failed
            if ek_at(lhs, t0, s0, p) != ek_at(rhs, t0, s0, p)]


# ---------------------------------------------------------------------------
# reflection / torus conjugation relations

def verify_conjugation_relations(alg, samples=2, seed=20240817, grp=None):
    """Check the six conjugation identities on every ordered pair of objects.

    Each is proved once over Z[t^{+-1}, s^{+-1}] on a `LaurentGroup`.
    Returns a report with the extracted signs eta_{XY} (asserted to be +-1
    by construction of the check).  At each of `samples` fresh random
    rational points, `sample_failures` names every pair with a sign whose
    relation (6) failed and whose two sides differ there; relation (1)
    holds for such a pair by the proof that found its sign.
    """
    if grp is None:
        grp = ChevalleyGroup(alg)
    cat = alg.cat
    objs = cat.objects
    lg = LaurentGroup(grp)
    idx = range(len(objs))
    # s = (1, 0, 1) as (c, a, b) of c t^a s^b
    n_s = [lg.n(ix, 1, 0, 1) for ix in idx]
    E_s = [lg.E(ix, 1, 0, 1) for ix in idx]
    h_t = [lg.h(ix, 1, 0) for ix in idx]
    h_s = [lg.h(ix, 0, 1) for ix in idx]
    eta = {}
    failures = []
    failed = []  # (key, lhs, rhs) of each failed proof a point evaluates

    for ix, x in enumerate(objs):
        for iy, y in enumerate(objs):
            iw = cat.index(cat.omega(x, y))
            A = cat.A(x, y)
            # (1) n_X(t) E_Y(s) n_X(t)^{-1} = E_{omega}(eta t^{-A} s)
            lhs = lg.conj_by_n(ix, E_s[iy])
            got = None
            for e in (1, -1):
                if lhs == lg.E(iw, e, -A, 1):
                    got = e
                    break
            if got is None:
                failures.append(("n_E_conj", ix, iy))
            else:
                eta[(ix, iy)] = got
            # (2) h_X(t) E_Y(s) h_X(t)^{-1} = E_Y(t^A s)
            if lg.conj_by_h(ix, E_s[iy]) != lg.E(iy, 1, A, 1):
                failures.append(("h_E_conj", ix, iy))
            # (3) n_X(t) n_Y(s) n_X(t)^{-1} = n_{omega}(eta t^{-A} s)
            if got is not None:
                lhs = lg.conj_by_n(ix, n_s[iy])
                if lhs != lg.n(iw, got, -A, 1):
                    failures.append(("n_n_conj", ix, iy))
            # (4) n_X(t) h_Y(s) n_X(t)^{-1} = h_{omega}(s)
            lhs = lg.conj_by_n(ix, h_s[iy])
            if lhs != h_s[iw]:
                failures.append(("n_h_conj", ix, iy))
            # (5) h_X(t) h_Y(s) = h_Y(s) h_X(t)
            if lg.mul(h_t[ix], h_s[iy]) != lg.mul(h_s[iy], h_t[ix]):
                failures.append(("h_h_conj", ix, iy))
            # (6) h_X(t) n_Y(s) h_X(t)^{-1} = n_Y(t^A s)
            lhs, rhs = lg.conj_by_h(ix, n_s[iy]), lg.n(iy, 1, A, 1)
            if lhs != rhs:
                failures.append(("h_n_conj", ix, iy))
                if got is not None:
                    failed.append((("h_n_conj", ix, iy), lhs, rhs))

    rng = random.Random(seed)
    points = [(_rational_point(rng), _rational_point(rng))
              for _ in range(samples)]
    sample_failures = [key + (t0, s0) for t0, s0 in points
                       for key in _failed_at(failed, t0, s0)]

    return {
        "ok": not failures and not sample_failures,
        "eta": eta,
        "eta_values_ok": all(v in (1, -1) for v in eta.values()),
        "failures": failures,
        "sample_failures": sample_failures,
        "pairs": len(objs) ** 2,
        "sample_points": points,
    }


# ---------------------------------------------------------------------------
# Steinberg relations

def commutator_constants(alg, x, y, lg=None):
    """Constants C_{i,j} with [E_X(t), E_Y(s)] = prod_{(i,j) lex} E_L(C t^i s^j).

    The commutator matrix is computed exactly over Z[t^{+-1}, s^{+-1}] on a
    `LaurentGroup`, and the product factors are peeled off in lexicographic
    order, the coefficient of t^i s^j being read off the keys (col, i, j);
    each constant is asserted integral and the final residual is asserted to
    be the identity, which proves the formula as a polynomial identity.
    A caller that runs many pairs passes one `LaurentGroup` as `lg`, and
    the pairs share its memo.
    """
    cat = alg.cat
    if x.pos_root == y.pos_root:
        raise ValueError("commutator formula needs independent roots")
    if lg is None:
        lg = LaurentGroup(ChevalleyGroup(alg))
    ix, iy = cat.index(x), cat.index(y)
    R = lg.mul(lg.E(ix, 1, 1, 0), lg.E(iy, 1, 0, 1),
               lg.E(ix, -1, 1, 0), lg.E(iy, -1, 0, 1))
    out = []
    for i, j in iproduct(range(1, 6), repeat=2):  # lexicographic
        lobj = cat.chain_object(x, y, i, j)
        if lobj is None:
            continue
        il = cat.index(lobj)
        coef = {}
        for r, row in R.items():
            for (c, et, es), v in row.items():
                if et == i and es == j:
                    coef.setdefault(r, {})[c] = v
        adl = alg.ad_matrix(il)
        # the ratio against the first ad entry, then proportionality at once
        r0, row0 = next(iter(adl.items()))
        c0, v0 = next(iter(row0.items()))
        C = Fraction(coef.get(r0, {}).get(c0, 0), v0)
        if coef != ({r: {c: C * v for c, v in row.items()}
                     for r, row in adl.items()} if C else {}):
            raise ArithmeticError(
                f"commutator coefficient of t^{i}s^{j} is not "
                f"proportional to a root operator")
        if C.denominator != 1:
            raise ArithmeticError("non-integer commutator constant")
        C = int(C)
        if C:
            R = lg.mul(lg.E(il, -C, i, j), R)
            out.append(((i, j), il, C))
    if R != lg.identity():
        raise ArithmeticError("commutator does not close on the chain roots")
    return out


def steinberg_report(alg, primes=(2, 3, 5, 7, 11, 13), samples=10,
                     seed=20240818, grp=None):
    """Steinberg presentation relations over Q and small prime fields.

    The commutator constants of each pair of independent roots, and per
    object the additive relation E_X(t) E_X(s) = E_X(t + s), h_X(t) h_X(s)
    = h_X(ts) and n_X(t) E_X(s) n_X(t)^{-1} = E_TX(t^{-2} s), are proved
    once over Z[t^{+-1}, s^{+-1}] on a `LaurentGroup`.  A pair whose
    commutator is not a product of root elements has no constants: it is
    reported in `constant_failures` with the reason.  A failed proof makes
    the report fail, whether or not any point is sampled; at each rational
    sample point and at unit points of each prime field, the failure lists
    name every failed proof whose two sides differ there.  A commutator
    with constants is proved by `commutator_constants`, given that E_L(-m)
    inverts E_L(m) for each factor L, which the additive relation of L
    proves; so it fails at no point.
    """
    if grp is None:
        grp = ChevalleyGroup(alg)
    cat = alg.cat
    lg = LaurentGroup(grp)
    consts = {}
    constant_failures = []
    for ix, x in enumerate(cat.objects):
        for iy, y in enumerate(cat.objects):
            if x.pos_root != y.pos_root:
                try:
                    consts[(ix, iy)] = commutator_constants(alg, x, y, lg=lg)
                except ArithmeticError as exc:
                    constant_failures.append(
                        ("commutator_constants", ix, iy, str(exc)))
    all_integer = all(isinstance(c, int)
                      for lst in consts.values() for (_, _, c) in lst)

    failed = []  # (key, lhs, rhs) of each failed proof a point evaluates
    for ix, x in enumerate(cat.objects):
        itx = cat.index(cat.shift(x))
        proofs = [
            ("additive", lg.mul(lg.E(ix, 1, 1, 0), lg.E(ix, 1, 0, 1)),
             lg.E_sum(ix)),
            ("h_mult", lg.mul(lg.h(ix, 1, 0), lg.h(ix, 0, 1)), lg.h(ix, 1, 1)),
            ("n_self", lg.conj_by_n(ix, lg.E(ix, 1, 0, 1)),
             lg.E(itx, 1, -2, 1))]
        failed += [((name, ix), lhs, rhs)
                   for name, lhs, rhs in proofs if lhs != rhs]

    rng = random.Random(seed)
    points = [(_rational_point(rng), _rational_point(rng))
              for _ in range(samples)]
    rational_failures = [key for t0, s0 in points
                         for key in _failed_at(failed, t0, s0)]

    prime_failures = {}
    for p in primes:
        units = PrimeField(p).units()
        pairs = list(iproduct(units, units))
        if len(pairs) > 16:
            pairs = [(rng.choice(units), rng.choice(units)) for _ in range(16)]
        prime_failures[p] = [key for t0, s0 in pairs
                             for key in _failed_at(failed, t0, s0, p)]

    return {
        "ok": (not constant_failures and not failed and not rational_failures
               and all_integer and not any(prime_failures.values())),
        "constants": consts,
        "constants_integer": all_integer,
        "constant_failures": constant_failures,
        "rational_points": points,
        "rational_failures": rational_failures,
        "prime_failures": prime_failures,
    }


# ---------------------------------------------------------------------------
# the center of the simply connected form over F_p

def center_order_formula(alg, p):
    """prod over invariant factors d_k of the Cartan matrix of gcd(d_k, p-1)."""
    out = 1
    for f in invariant_factors(alg.cat.cartan.a):
        out *= math.gcd(f, p - 1)
    return out


def center_order_bruteforce(alg, p):
    """Count torus parameter tuples (t_1..t_m) in F_p^* with
    prod_i t_i^{a_ij} = 1 for every j — i.e. h acts trivially on every u_Y."""
    a = alg.cat.cartan.a
    m = alg.m
    units = list(range(1, p))
    count = 0
    for tup in iproduct(units, repeat=m):
        if all(
            math.prod(pow(tup[i], a[i][j] % (p - 1) if p > 2 else 0, p)
                      for i in range(m)) % p == 1
            for j in range(m)
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# automorphism utilities

def preserves_bracket(alg, mat, dom):
    """Does the matrix act as a Lie algebra automorphism?"""
    return first_bracket_failure(alg._brackets, alg._brackets, mat, dom) is None


def random_group_element(grp, dom, rng, length, scalars):
    """Product of `length` random generators with arguments from `scalars`."""
    cat = grp.cat
    mats = []
    for _ in range(length):
        x = rng.choice(cat.objects)
        t = rng.choice(scalars)
        kind = rng.randrange(3)
        if kind == 0:
            mats.append(grp.E(x, t, dom))
        elif kind == 1:
            mats.append(grp.h(x, t, dom))
        else:
            mats.append(grp.n(x, t, dom))
    return sp_mul_many(mats, dom)
