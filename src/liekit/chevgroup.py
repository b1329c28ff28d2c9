"""The Chevalley group in its adjoint action on the integer Lie algebra.

Generators are exponentials of the nilpotent basis operators: E_X(t) is a
matrix polynomial in t with integer coefficient matrices, h_X(t) is diagonal
with entries t^{A_{XY}}, and n_X(t) = E_X(t) E_{TX}(t^{-1}) E_X(t).  All
group relations are verified two ways: as identities of matrices over the
Laurent-polynomial ring Z[t^{+-1}, s^{+-1}] (a complete proof), and at fresh
random sample points over Q or a prime field.  The proofs run on a
`LaurentGroup`: every argument they use is a monomial c t^a s^b, so each
generator is an integer matrix whose column keys (col, et, es) carry the
exponents, E_X(c t^a s^b) putting c^k times entry (i, j) of M_k at (i, (j,
ka, kb)), and the torus conjugation only moves keys.  The sample points run
fraction-free on a `PointGroup`: a matrix at a point of Q is an integer
matrix over one integer denominator, E_X(a/b) = (sum_k a^k b^(K-k) M_k, b^K),
and over F_p the same integer kernel works on residues, so no product takes
a gcd.  `ChevalleyGroup.E`, `h` and `n` give the generators over any
`Domain`, Laurent polynomials included.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct

from .exact import (QQ, ZZ, PrimeField, divided_powers, ek_mul, ff_eq, ff_mul,
                    ff_reduce, sp_identity, sp_map, sp_mul_many, sum_powers)
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


class PointGroup:
    """E, h, n and n^{-1} of `grp` at points of Q, or over F_p when `p` is
    given, as fraction-free pairs (N, d) for `ff_mul` and `ff_eq`.

    Objects are named by index and arguments are Fractions, or residues
    mod p.  Over F_p an argument t is the pair (t, 1) and each generator is
    reduced mod p once; products are compared mod p.  Every generator is
    memoised by its argument, so one PointGroup should live for one rational
    point or for one prime field.
    """

    def __init__(self, grp, p=None):
        self.grp, self.p = grp, p
        self.dom = QQ if p is None else PrimeField(p)
        self.cat = grp.cat
        self._memo = {}

    def _split(self, t):
        """(a, b) with t = a / b."""
        if self.p is None:
            return t.numerator, t.denominator
        return t % self.p, 1

    def _pair(self, n, d):
        return ff_reduce((n, d), self.p) if self.p else (n, d)

    def mul(self, *mats):
        return reduce(ff_mul, mats)

    def eq(self, a, b):
        return ff_eq(a, b, self.p)

    def identity(self):
        return sp_identity(self.grp.dim, ZZ), 1

    def E(self, ix, t):
        key = ("E", ix, t)
        out = self._memo.get(key)
        if out is None:
            table = self.grp.exp_table(ix)
            a, b = self._split(t)
            top = len(table) - 1
            coeffs = [a ** k * b ** (top - k) for k in range(top + 1)]
            out = self._memo[key] = self._pair(
                sum_powers(table, coeffs, ZZ), b ** top)
        return out

    def h(self, ix, t):
        """h_X(a/b) = diag(a^(e-lo) b^(hi-e)) / (a^-lo b^hi) for the
        exponents e of h_X, lo <= 0 <= hi."""
        key = ("h", ix, t)
        out = self._memo.get(key)
        if out is None:
            a, b = self._split(t)
            if not a:
                raise ZeroDivisionError("h_X at argument 0")
            exps = self.grp.h_exponents(self.cat.objects[ix])
            lo, hi = min(exps), max(exps)
            diag = {i: {i: a ** (e - lo) * b ** (hi - e)}
                    for i, e in enumerate(exps)}
            out = self._memo[key] = self._pair(diag, a ** -lo * b ** hi)
        return out

    def conj_by_h(self, ix, t, mat):
        """h_X(t) M h_X(t)^{-1}, the product's pair, made by scaling entry
        (i, j) of M by diagonal entry i of h_X(t) and j of h_X(t^{-1})."""
        (hn, hd), (gn, gd) = self.h(ix, t), self.h(ix, self.dom.inv(t))
        return ({i: {j: hn[i][i] * v * gn[j][j] for j, v in row.items()}
                 for i, row in mat[0].items()}, hd * mat[1] * gd)

    def n(self, ix, t):
        """E_X(t) E_TX(t^{-1}) E_X(t)."""
        key = ("n", ix, t)
        out = self._memo.get(key)
        if out is None:
            itx = self.cat.index(self.cat.shift(self.cat.objects[ix]))
            e1 = self.E(ix, t)
            out = self._memo[key] = self._pair(
                *self.mul(e1, self.E(itx, self.dom.inv(t)), e1))
        return out

    def n_inv(self, ix, t):
        """n_X(t)^{-1} = n_X(-t), sharing its memo entry."""
        return self.n(ix, self.dom.neg(t))


class LaurentGroup:
    """E, h, n and n^{-1} of `grp` at monomials c t^a s^b, as integer
    matrices over Z[t^{+-1}, s^{+-1}] in the exponent-keyed form of `ek_mul`,
    {row: {(col, et, es): int}} with no zero entry and no empty row, so that
    `==` is equality.

    Objects are named by index and a monomial by its integer coefficient c
    and exponents (a, b); n inverts its argument, so there c is +-1, and h
    is taken at t^a s^b.  Every generator is a relabelling of the integer
    exp table or of the torus exponents: entry v of M_k in E_X(c t^a s^b)
    goes to the key (col, k a, k b) with value c^k v.  E and n are memoised
    by (index, c, a, b).
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
        """E_X(m) E_TX(m^{-1}) E_X(m) for m = c t^a s^b, c = +-1."""
        key = ("n", ix, c, a, b)
        out = self._memo.get(key)
        if out is None:
            itx = self.cat.index(self.cat.shift(self.cat.objects[ix]))
            e1 = self.E(ix, c, a, b)
            out = self._memo[key] = self.mul(e1, self.E(itx, c, -a, -b), e1)
        return out

    def n_inv(self, ix, c, a, b):
        """n_X(m)^{-1} = n_X(-m), sharing its memo entry."""
        return self.n(ix, -c, a, b)


# ---------------------------------------------------------------------------
# reflection / torus conjugation relations

def verify_conjugation_relations(alg, samples=2, seed=20240817, grp=None):
    """Check the six conjugation identities on every ordered pair of objects.

    Symbolically over Z[t^{+-1}, s^{+-1}] on a `LaurentGroup`, then at
    `samples` fresh random rational points.  Returns a report with the
    extracted signs eta_{XY} (asserted to be +-1 by construction of the
    check).

    Relation (5), that torus elements commute, cannot fail as written: it
    compares `conj_by_h(X, h_Y(s))` with h_Y(s), and `conj_by_h` moves
    entry (i, j) by A_i - A_j in t, which is 0 on the diagonal where h_Y(s)
    lives.
    """
    if grp is None:
        grp = ChevalleyGroup(alg)
    cat = alg.cat
    objs = cat.objects
    lg = LaurentGroup(grp)
    idx = range(len(objs))
    # t = (1, 1, 0) and s = (1, 0, 1) as (c, a, b) of c t^a s^b
    n_t = [lg.n(ix, 1, 1, 0) for ix in idx]
    n_t_inv = [lg.n_inv(ix, 1, 1, 0) for ix in idx]
    n_s = [lg.n(ix, 1, 0, 1) for ix in idx]
    E_s = [lg.E(ix, 1, 0, 1) for ix in idx]
    h_s = [lg.h(ix, 0, 1) for ix in idx]
    eta = {}
    failures = []

    for ix, x in enumerate(objs):
        for iy, y in enumerate(objs):
            iw = cat.index(cat.omega(x, y))
            A = cat.A(x, y)
            # (1) n_X(t) E_Y(s) n_X(t)^{-1} = E_{omega}(eta t^{-A} s)
            lhs = lg.mul(n_t[ix], E_s[iy], n_t_inv[ix])
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
                lhs = lg.mul(n_t[ix], n_s[iy], n_t_inv[ix])
                if lhs != lg.n(iw, got, -A, 1):
                    failures.append(("n_n_conj", ix, iy))
            # (4) n_X(t) h_Y(s) n_X(t)^{-1} = h_{omega}(s)
            lhs = lg.mul(n_t[ix], h_s[iy], n_t_inv[ix])
            if lhs != h_s[iw]:
                failures.append(("n_h_conj", ix, iy))
            # (5) torus elements commute
            if lg.conj_by_h(ix, h_s[iy]) != h_s[iy]:
                failures.append(("h_h_conj", ix, iy))
            # (6) h_X(t) n_Y(s) h_X(t)^{-1} = n_Y(t^A s)
            if lg.conj_by_h(ix, n_s[iy]) != lg.n(iy, 1, A, 1):
                failures.append(("h_n_conj", ix, iy))

    rng = random.Random(seed)
    points = []
    sample_failures = []
    for _ in range(samples):
        t0 = Fraction(rng.choice([v for v in range(-9, 10) if v]),
                      rng.randint(1, 9))
        s0 = Fraction(rng.choice([v for v in range(-9, 10) if v]),
                      rng.randint(1, 9))
        points.append((t0, s0))
        sample_failures += _conjugation_point_check(
            alg, PointGroup(grp), t0, s0, eta)

    return {
        "ok": not failures and not sample_failures,
        "eta": eta,
        "eta_values_ok": all(v in (1, -1) for v in eta.values()),
        "failures": failures,
        "sample_failures": sample_failures,
        "pairs": len(objs) ** 2,
        "sample_points": points,
    }


def _conjugation_point_check(alg, pg, t0, s0, eta):
    """Relations (1) and (6) at one point, on the PointGroup `pg`, for every
    pair with a sign in `eta`."""
    cat, dom = alg.cat, pg.dom
    fails = []
    for ix, x in enumerate(cat.objects):
        for iy, y in enumerate(cat.objects):
            e = eta.get((ix, iy))
            if e is None:
                continue
            iw = cat.index(cat.omega(x, y))
            A = cat.A(x, y)
            lhs = pg.mul(pg.n(ix, t0), pg.E(iy, s0), pg.n_inv(ix, t0))
            arg = dom.mul(dom.embed(e), dom.mul(dom.power(t0, -A), s0))
            if not pg.eq(lhs, pg.E(iw, arg)):
                fails.append(("n_E_conj", ix, iy, t0, s0))
            lhs = pg.conj_by_h(ix, t0, pg.n(iy, s0))
            if not pg.eq(lhs, pg.n(iy, dom.mul(dom.power(t0, A), s0))):
                fails.append(("h_n_conj", ix, iy, t0, s0))
    return fails


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
    cands = sorted((i, j) for i in range(1, 6) for j in range(1, 6)
                   if cat.chain_object(x, y, i, j) is not None)
    out = []
    for (i, j) in cands:
        lobj = cat.chain_object(x, y, i, j)
        il = cat.index(lobj)
        coef = {}
        for r, row in R.items():
            for (c, et, es), v in row.items():
                if et == i and es == j:
                    coef.setdefault(r, {})[c] = v
        adl = alg.ad_matrix(il)
        # ratio against the first nonzero ad entry, then full proportionality
        C = Fraction(0)
        for r, row in adl.items():
            for c, v in row.items():
                C = Fraction(coef.get(r, {}).get(c, Fraction(0)), v)
                break
            break
        for r in set(adl) | set(coef):
            cols = set(adl.get(r, {})) | set(coef.get(r, {}))
            for c in cols:
                if coef.get(r, {}).get(c, Fraction(0)) != C * adl.get(r, {}).get(c, 0):
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


def _steinberg_point_check(alg, pg, t0, s0, const_cache):
    """All four Steinberg families at one (t0, s0), on the PointGroup `pg`."""
    cat, dom = alg.cat, pg.dom
    fails = []
    for ix, x in enumerate(cat.objects):
        lhs = pg.mul(pg.E(ix, t0), pg.E(ix, s0))
        if not pg.eq(lhs, pg.E(ix, dom.add(t0, s0))):
            fails.append(("additive", ix))
        lhs = pg.mul(pg.h(ix, t0), pg.h(ix, s0))
        if not pg.eq(lhs, pg.h(ix, dom.mul(t0, s0))):
            fails.append(("h_mult", ix))
        if not dom.is_zero(t0):
            lhs = pg.mul(pg.n(ix, t0), pg.E(ix, s0), pg.n_inv(ix, t0))
            arg = dom.mul(dom.power(t0, -2), s0)
            if not pg.eq(lhs, pg.E(cat.index(cat.shift(x)), arg)):
                fails.append(("n_self", ix))
        for iy, y in enumerate(cat.objects):
            if y.pos_root == x.pos_root or (ix, iy) not in const_cache:
                continue
            lhs = pg.mul(pg.E(ix, t0), pg.E(iy, s0),
                         pg.E(ix, dom.neg(t0)), pg.E(iy, dom.neg(s0)))
            rhs = [pg.E(il, dom.mul(dom.embed(c),
                                    dom.mul(dom.power(t0, i), dom.power(s0, j))))
                   for (i, j), il, c in const_cache[(ix, iy)]]
            rhs = pg.mul(*rhs) if rhs else pg.identity()
            if not pg.eq(lhs, rhs):
                fails.append(("commutator", ix, iy))
    return fails


def steinberg_report(alg, primes=(2, 3, 5, 7, 11, 13), samples=10,
                     seed=20240818, grp=None):
    """Steinberg presentation relations over Q and small prime fields.

    A pair whose commutator is not a product of root elements has no
    constants: it is reported in `constant_failures` with the reason, and
    the point checks skip it.
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

    rng = random.Random(seed)
    rational_failures = []
    points = []
    for _ in range(samples):
        t0 = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
        s0 = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
        points.append((t0, s0))
        rational_failures += _steinberg_point_check(
            alg, PointGroup(grp), t0, s0, consts)

    prime_failures = {}
    for p in primes:
        pg = PointGroup(grp, p)
        units = pg.dom.units()
        pairs = list(iproduct(units, units))
        if len(pairs) > 16:
            pairs = [(rng.choice(units), rng.choice(units)) for _ in range(16)]
        fails = []
        for t0, s0 in pairs:
            fails += _steinberg_point_check(alg, pg, t0, s0, consts)
        prime_failures[p] = fails

    return {
        "ok": (not constant_failures and not rational_failures
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
