"""Exact scalar domains, sparse polynomials and sparse exact linear algebra.

Everything downstream (structure constants, Chevalley group elements,
trig-polynomial identities, module actions) runs over a `Domain`: a ring of
exact scalars whose operations are Python's operators on its elements, with
`embed` taking an int or Fraction into the ring and `inv` inverting a unit.
`IntegerDomain` (ZZ), `RationalDomain` (QQ), `GaussianDomain` (QI) and
`LaurentDomain` (LAURENT) are defined here and `TrigDomain` in `compactform`;
`PrimeField` overrides the operations with residue arithmetic.  A Gaussian
rational is three plain integers (a, b, d) standing for (a + b*i)/d, with
d > 0 and gcd(a, b, d) = 1, so an operation on two of them takes one gcd
(none when d = 1), where a pair of Fractions takes one or two for each of
its part products and sums (Knuth, TAOCP vol. 2, 4.5.1).
`LaurentPoly` and the trigonometric `TrigPoly` share the sparse-dict base
`SparsePoly`, which holds everything but the product.

Matrices are kept as dicts of rows because almost every operator we build
(exp of a nilpotent ad, torus elements, reflection elements) is sparse.
`sp_mul` is the one product over a `Domain`, of matrices and of a matrix
and a vector, and `sp_transpose` the one way to read a matrix by columns.
The divided powers M^k/k! and their sums (`sum_powers`) behind every
one-parameter subgroup, of the group and of the modules alike, are built
here.  The product and the sums add with the elements' own `*` and `+` and
finish each row once: zeros dropped, each F_p entry reduced mod p once.  No
element class may define a mutating `__iadd__`.  A matrix over
Z[t^{+-1}, s^{+-1}] is held exponent-keyed, as integers under keys (col,
et, es) that carry the exponents: `ek_mul` multiplies two of them, and the
symbolic group proofs run on it in place of matrices of `LaurentPoly`
entries; `ek_at` evaluates one at a point of Q or F_p, which is all a
sample point does with a proof that failed.  A column over Q can be held
fraction-free, as an integer dict over one denominator (`ff_column`,
`ff_pairing`).  One Gauss-Jordan routine backs the dense inverse, the
linear solve and the module kernels.
`Bareiss`, a fraction-free elimination of a symmetric integer matrix grown a
row at a time, picks the basis of each module weight space from its integer
Gram.  `Bareiss.of` factors a whole symmetric matrix over Q on integers, and
is the one factorization of a Gram: its leading minors decide the
definiteness of each weight Gram and of the blocks of the compact Gram that
`components` finds, and its L D L^T gives the unitarity coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """(a + b*i)/d with integers a, b, d, where d > 0 and gcd(a, b, d) = 1.

    The form is unique, so equality compares the three integers.  Every
    result is built by `_gauss`, which takes one gcd, and none when d = 1;
    a sum over a common denominator adds the numerators.  An int or a
    Fraction operand, on either side, is read as (n, 0, 1) or
    (numerator, 0, denominator), and any other real (a float, say) as its
    exact Fraction.  `re` and `im` are the parts as Fractions; `==` and
    `hash` agree with the int's or the Fraction's when im is 0.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        return _gauss(re.numerator * di, im.numerator * dr, dr * di)

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        a2, b2, d2 = _parts(other)
        d = self.d
        if d == d2:
            return _gauss(self.a + a2, self.b + b2, d)
        return _gauss(self.a * d2 + a2 * d, self.b * d2 + b2 * d, d * d2)

    __radd__ = __add__

    def __sub__(self, other):
        a2, b2, d2 = _parts(other)
        d = self.d
        if d == d2:
            return _gauss(self.a - a2, self.b - b2, d)
        return _gauss(self.a * d2 - a2 * d, self.b * d2 - b2 * d, d * d2)

    def __rsub__(self, other):
        return _gauss(*_parts(other), True) - self

    def __mul__(self, other):
        a2, b2, d2 = _parts(other)
        a, b = self.a, self.b
        return _gauss(a * a2 - b * b2, a * b2 + b * a2, self.d * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a2, b2, d2 = _parts(other)
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.a, self.b
        return _gauss((a * a2 + b * b2) * d2, (b * a2 - a * b2) * d2,
                      self.d * n)

    def __rtruediv__(self, other):
        return _gauss(*_parts(other), True) / self

    def __neg__(self):
        return _gauss(-self.a, -self.b, self.d, True)

    def conjugate(self):
        return _gauss(self.a, -self.b, self.d, True)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return (self.a, self.b, self.d) == _parts(other)
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.a or self.b)

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_object_new = object.__new__


def _gauss(a, b, d, lowest=False):
    """The GaussianRational (a + b*i)/d for integers a, b and d > 0, brought
    to lowest terms by one gcd unless d = 1 or `lowest` says it is."""
    if d != 1 and not lowest:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _object_new(GaussianRational)
    z.a = a
    z.b = b
    z.d = d
    return z


def _parts(x):
    """(a, b, d) of a GaussianRational, an int or any exact real."""
    if isinstance(x, GaussianRational):
        return x.a, x.b, x.d
    if isinstance(x, int):
        return x, 0, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, 0, x.denominator


# ---------------------------------------------------------------------------
# sparse polynomials: dict {exponent tuple: coefficient}, zero terms absent

def _rational(v):
    """An integral Fraction as an int; any other coefficient unchanged."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


class SparsePoly:
    """Construction, sums, equality, hashing and monomial inversion of a
    sparse polynomial; each subclass supplies the product of its ring."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = dict(c) if c else {}

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return type(self)(out)

    def __sub__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) - v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.c.items()})

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def inverse(self):
        """The inverse of a monomial, the only units used here."""
        if len(self.c) != 1:
            raise ZeroDivisionError(
                f"non-monomial {type(self).__name__} inverse")
        (e, v), = self.c.items()
        return type(self)({tuple(-x for x in e): _rational(Fraction(1) / v)})

    def __repr__(self):
        return f"{type(self).__name__}({self.c!r})"


class LaurentPoly(SparsePoly):
    """Laurent polynomials in (t, s), keyed by (et, es); exponents may be
    negative.  Coefficients are rational; they are stored as int while
    integral (every exponential table is), and become Fraction only once a
    non-integer appears.  1 == Fraction(1) with equal hashes, so equality is
    unaffected."""

    __slots__ = ()

    @classmethod
    def const(cls, v):
        if not isinstance(v, int):
            v = _rational(Fraction(v))
        return cls({(0, 0): v} if v else {})

    @classmethod
    def var_t(cls, e=1):
        return cls({(e, 0): 1})

    def __mul__(self, other):
        out = {}
        for (a1, b1), v1 in self.c.items():
            for (a2, b2), v2 in other.c.items():
                k = (a1 + a2, b1 + b2)
                w = out.get(k, 0) + v1 * v2
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
        return LaurentPoly(out)

    def coeff(self, et, es):
        return self.c.get((et, es), 0)

    def evaluate(self, t, s):
        tot = Fraction(0)
        for (et, es), v in self.c.items():
            tot += v * t ** et * s ** es
        return tot


# ---------------------------------------------------------------------------
# scalar domains

class Domain:
    """A commutative ring of exact scalars as the sparse-matrix code sees it.

    The operations are Python's operators on the elements.  A subclass sets
    `zero`, `one` (and `p`, in a `PrimeField`) and supplies `embed`, which
    takes an int or a Fraction into the ring, and `inv`, which inverts a unit.
    """

    p = None

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    def conj(self, a):
        return a.conjugate()

    def power(self, a, n):
        """a^n for any integer n; a negative n needs a unit a."""
        if n < 0:
            a, n = self.inv(a), -n
        if n == 0:
            return self.one
        out = a
        for _ in range(n - 1):
            out = self.mul(out, a)
        return out

    def powers(self, a, n):
        """[1, a, a^2, ..., a^(n-1)], the coefficients of `sum_powers`."""
        out = [self.one]
        for k in range(1, n):
            out.append(self.mul(out[-1], a) if k > 1 else a)
        return out


class IntegerDomain(Domain):
    """Plain integers, for `sp_mul` and `sp_add` on integer matrices (the
    trace form, compact-form coordinates)."""

    zero = 0
    one = 1

    def embed(self, v):
        if isinstance(v, int):
            return v
        if v.denominator != 1:
            raise ValueError(f"{v} is not an integer")
        return v.numerator

    def inv(self, a):
        if a not in (1, -1):
            raise ZeroDivisionError(f"{a} is not a unit of Z")
        return a


class RationalDomain(Domain):
    """Exact rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    def embed(self, v):
        return Fraction(v)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a


class GaussianDomain(Domain):
    """Exact Gaussian rationals Q(i), as `GaussianRational` integer triples."""

    zero = GaussianRational(0)
    one = GaussianRational(1)
    i = GaussianRational(0, 1)

    def embed(self, v):
        if isinstance(v, GaussianRational):
            return v
        return _gauss(*_parts(v), True)

    def inv(self, a):
        return self.one / a


class PrimeField(Domain):
    """F_p, elements stored as ints in [0, p)."""

    def __init__(self, p):
        # a probable-prime check would be overkill; trial division is enough
        # for the desk-scale primes used here
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def embed(self, v):
        if isinstance(v, int):
            return v % self.p
        v = Fraction(v)
        return v.numerator * self.inv(v.denominator) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def is_zero(self, a):
        return a % self.p == 0

    def power(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def units(self):
        return list(range(1, self.p))


class LaurentDomain(Domain):
    """Domain wrapper so sparse-matrix code can run over LaurentPoly entries."""

    zero = LaurentPoly()
    one = LaurentPoly.const(1)

    def embed(self, v):
        return LaurentPoly.const(v)

    def inv(self, a):
        # only monomials are invertible; that is all we ever invert
        return a.inverse()


ZZ = IntegerDomain()
QQ = RationalDomain()
QI = GaussianDomain()
LAURENT = LaurentDomain()


# ---------------------------------------------------------------------------
# sparse matrices: dict {row_index: {col_index: value}}, zero entries absent

def sp_identity(n, dom):
    return {i: {i: dom.one} for i in range(n)}


def sp_from_dense(rows, dom):
    m = {}
    for i, row in enumerate(rows):
        r = {j: v for j, v in enumerate(row) if not dom.is_zero(v)}
        if r:
            m[i] = r
    return m


def sp_to_dense(m, n, dom):
    out = [[dom.zero] * n for _ in range(n)]
    for i, row in m.items():
        for j, v in row.items():
            out[i][j] = v
    return out


def sp_mul(a, b, dom):
    """Matrix product a @ b of sparse row-dict matrices.  A row adds up
    with the elements' own `*` and `+=`, never a mutating `__iadd__`, and is
    finished once: zeros dropped, over F_p each entry reduced mod p once."""
    p = dom.p
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, av in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for j, bv in brow.items():
                if j in acc:
                    acc[j] += av * bv
                else:
                    acc[j] = av * bv
        if acc := _finish_row(acc, p):
            out[i] = acc
    return out


def _finish_row(row, p):
    """`row` without its zeros, each entry first reduced mod p if p is given."""
    if p:
        return {j: w for j, v in row.items() if (w := v % p)}
    if all(row.values()):
        return row
    return {j: v for j, v in row.items() if v}


def sp_mul_many(mats, dom):
    out = None
    for m in mats:
        out = m if out is None else sp_mul(out, m, dom)
    return out


def ek_mul(a, b):
    """Product of two matrices over Z[t^{+-1}, s^{+-1}] in exponent-keyed
    form: {row: {(col, et, es): int}}, the entry (row, col) being the sum of
    v t^et s^es over its keys.  With no zero entry and no empty row, `==`
    on two such dicts is equality of the matrices.  A row adds up as in
    `sp_mul`, the exponents of the two factors adding in the key."""
    out = {}
    for i, arow in a.items():
        acc = {}
        for (k, at, as_), av in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for (j, bt, bs), bv in brow.items():
                key = j, at + bt, as_ + bs
                if key in acc:
                    acc[key] += av * bv
                else:
                    acc[key] = av * bv
        if acc := _finish_row(acc, None):
            out[i] = acc
    return out


def ek_at(mat, t, s, p=None):
    """The exponent-keyed matrix `mat` (see `ek_mul`) at the point (t, s):
    over Q, or over F_p with entries in [0, p) when p is given.  A negative
    exponent needs t or s to be a unit.  No zero entry and no empty row is
    kept, so `==` is equality at the point."""
    if p is None:
        t, s = Fraction(t), Fraction(s)
    monos = {}
    out = {}
    for i, row in mat.items():
        acc = {}
        for (j, et, es), v in row.items():
            m = monos.get((et, es))
            if m is None:
                m = monos[et, es] = (t ** et * s ** es if p is None
                                     else pow(t, et, p) * pow(s, es, p))
            acc[j] = acc[j] + v * m if j in acc else v * m
        if acc := _finish_row(acc, p):
            out[i] = acc
    return out


def sp_add(a, b, dom, bsign=1):
    """a + b, or a - b for bsign = -1, with rows built as in `sp_mul`."""
    out = {}
    for i in set(a) | set(b):
        acc = dict(a.get(i, {}))
        for j, v in b.get(i, {}).items():
            w = v if bsign == 1 else -v
            acc[j] = acc[j] + w if j in acc else w
        if acc := _finish_row(acc, dom.p):
            out[i] = acc
    return out


def sp_eq(a, b, dom):
    for i in set(a) | set(b):
        ra, rb = a.get(i, {}), b.get(i, {})
        for j in set(ra) | set(rb):
            if not dom.eq(ra.get(j, dom.zero), rb.get(j, dom.zero)):
                return False
    return True


def sp_transpose(m):
    """The transpose: row c of the result is column c of m.  A dict vector v
    is a one-row matrix {0: v}, so M v is `sp_mul({0: v}, sp_transpose(M))`."""
    out = {}
    for i, row in m.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


def sp_map(m, f):
    """Apply f to every stored entry (used for domain conversion)."""
    return {i: {j: f(v) for j, v in row.items()} for i, row in m.items()}


def components(n, mats):
    """The components of the graph on 0..n-1 whose edges are the stored
    entries (r, c) of the sparse matrices `mats`: ascending index lists,
    in the order of their least index."""
    root = list(range(n))

    def find(g):
        while root[g] != g:
            root[g] = root[root[g]]
            g = root[g]
        return g

    for mat in mats:
        for r, row in mat.items():
            for c in row:
                root[find(r)] = find(c)
    comps = {}
    for g in range(n):
        comps.setdefault(find(g), []).append(g)
    return list(comps.values())


def divided_powers(mat, dim):
    """[I, M, M^2/2!, ...] over Q, up to the last nonzero term, for a
    matrix M that is nilpotent on a space of dimension `dim`."""
    out = [sp_identity(dim, QQ)]
    cur = mat
    k = 1
    while cur:
        if k > dim:
            raise ArithmeticError("generator is not nilpotent")
        out.append(cur)
        k += 1
        inv_k = Fraction(1, k)
        cur = {i: {j: v * inv_k for j, v in row.items()}
               for i, row in sp_mul(cur, mat, QQ).items()}
    return out


def sum_powers(table, coeffs, dom):
    """sum_k c_k M_k over `dom` for a table [M_0, M_1, ...] of exact
    rational matrices, such as one from `divided_powers`, and coefficients
    [c_0, c_1, ...] in `dom`: `dom.powers(t, len(table))` gives the
    one-parameter element at t.  Rows are built as in `sp_mul`."""
    out = {}
    for mat, c in zip(table, coeffs):
        terms = {}  # v -> c v; a table has few distinct entries
        for i, row in mat.items():
            r = out.setdefault(i, {})
            for j, v in row.items():
                w = terms.get(v)
                if w is None:
                    w = terms[v] = c * dom.embed(v)
                r[j] = r[j] + w if j in r else w
    return {i: r for i, row in out.items() if (r := _finish_row(row, dom.p))}


# ---------------------------------------------------------------------------
# fraction-free columns: a column over Q as a pair (N, d) of an integer dict
# N and an integer d != 0 standing for N / d, kept in lowest terms by one
# gcd (`ff_column`), so no sum of fractions is formed (the fraction-free
# idea of Bareiss, Math. Comp. 22, 1968).  `Bareiss` eliminates a symmetric
# integer matrix with exact integer divisions only.

def ff_column(vec, d):
    """The column vec / d, an integer dict over a nonzero integer, in lowest
    terms: zeros dropped, then one gcd over d and every entry, so that d > 0
    and gcd(d, *vec) = 1.  A zero column comes back as ({}, 1)."""
    vec = {k: v for k, v in vec.items() if v}
    g = gcd(d, *vec.values())
    if d < 0:
        g = -g
    if g == 1:
        return vec, d
    return {k: v // g for k, v in vec.items()}, d // g


def ff_pairing(row, col):
    """sum row[k] N[k] / d for an integer dict `row` and a column (N, d)
    whose support `row` covers; raises ArithmeticError when d does not
    divide the sum, and never truncates."""
    n, d = col
    q, r = divmod(sum(row[k] * v for k, v in n.items()), d)
    if r:
        raise ArithmeticError(f"pairing {q * d + r}/{d} is not an integer")
    return q


class Bareiss:
    """Fraction-free elimination of a symmetric integer matrix G, grown one
    row and column at a time (Bareiss, Math. Comp. 22, 1968).

    `minors` holds the leading minors Delta_0 = 1, Delta_1, ..., Delta_k of
    the k rows in, and `rows[s][t]`, for t < s, entry (t, s) after t
    elimination steps: the minor of the leading t x t block bordered by row
    t and column s.  Every division is exact by Sylvester's identity, so
    everything stays an integer and no gcd is taken.

    Read as G = L D L^T, with L unit lower triangular, the elimination gives
    L[s][t] = rows[s][t] / Delta_{t+1} and D_t = Delta_{t+1} / Delta_t; for a
    rational matrix factored by `of`, D_t = Delta_{t+1} / (scale Delta_t).
    """

    def __init__(self):
        self.rows = []
        self.minors = [1]
        self.scale = 1

    @classmethod
    def of(cls, gram):
        """The elimination of a whole symmetric matrix over Q, of ints or
        Fractions, stopped after its first leading minor that is not
        positive.  G is first multiplied by the lcm `scale` of its
        denominators (1 for every Gram liekit builds), which multiplies
        Delta_k by scale^k > 0.  So G is positive definite iff
        minors[-1] > 0, and otherwise minors[-1] <= 0 is the first leading
        minor that is not positive.  No pivoting is needed while every
        minor is nonzero."""
        f = cls()
        f.scale = scale = lcm(*(v.denominator for row in gram for v in row))
        for k, row in enumerate(gram):
            ints = [v.numerator * (scale // v.denominator) for v in row[:k + 1]]
            minor, v = f.reduce(ints[:k], ints[k])
            f.push(v, minor)
            if minor <= 0:
                break
        return f

    def reduce(self, col, diag):
        """For a new column `col` (its entries in the k rows in) and diagonal
        entry `diag`: the bordered minor det [[G, col], [col^T, diag]] and v,
        where v[t] is entry t of the column after t steps.  The minor is 0
        exactly when the new row is a combination of the rows in; otherwise
        it is Delta_{k+1} and v the new row of `rows`."""
        v = list(col)
        minors, rows = self.minors, self.rows
        for t in range(len(v)):
            vt, dn, dp = v[t], minors[t + 1], minors[t]
            for s in range(t + 1, len(v)):
                v[s] = (dn * v[s] - rows[s][t] * vt) // dp
            diag = (dn * diag - vt * vt) // dp
        return diag, v

    def push(self, v, minor):
        self.rows.append(v)
        self.minors.append(minor)

    def span(self, v):
        """For v from `reduce(col, .)`: the integers y with G y = Delta_k col,
        so that y / Delta_k are the coordinates of col on the rows in (by
        Cramer's rule the y are integers).  Back-substitution in the
        eliminated system, each step an exact division by Delta_{t+1}."""
        k, rows = len(v), self.rows
        dk = self.minors[k]
        y = [0] * k
        for t in range(k - 1, -1, -1):
            acc = dk * v[t] - sum(rows[s][t] * y[s] for s in range(t + 1, k))
            y[t] = acc // self.minors[t + 1]
        return y


# ---------------------------------------------------------------------------
# dense exact linear algebra over Q (Gram matrices, inverses, minors)

def gauss_jordan(rows, ncols):
    """Reduce `rows`, lists of Fractions, in place to reduced row echelon
    form on their first `ncols` columns; returns the pivot columns."""
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        s = rows[top][c]
        rows[top] = [v / s for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(c)
    return pivots


def dense_inverse(mat):
    """Gauss-Jordan inverse over Q of a matrix of ints or Fractions; raises
    on singular input."""
    n = len(mat)
    rows = [[Fraction(v) for v in row]
            + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    if len(gauss_jordan(rows, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in rows]


def dense_det(mat):
    """Determinant over Fraction by fraction-free-ish Gaussian elimination.

    No code in liekit calls it: it is kept as the tests' oracle for the
    minors that `Bareiss` gives, and because the benchmark's tracer
    wraps it by name."""
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        s = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / s
                a[r] = [a[r][j] - f * a[col][j] for j in range(n)]
    return det


def leading_principal_minors(mat):
    """Every leading principal minor, each by its own determinant; kept,
    like the determinant, as a test oracle and a traced name only."""
    return [dense_det([row[: k + 1] for row in mat[: k + 1]])
            for k in range(len(mat))]


def solve_linear(gram, rhs):
    """Solve gram @ x = rhs for exact square invertible gram (Fractions)."""
    n = len(gram)
    rows = [list(gram[i]) + [rhs[i]] for i in range(n)]
    if len(gauss_jordan(rows, n)) < n:
        raise ValueError("singular system")
    return [row[n] for row in rows]

