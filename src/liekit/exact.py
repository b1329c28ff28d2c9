"""Exact scalar domains and sparse exact linear algebra.

Everything downstream (structure constants, Chevalley group elements,
trig-polynomial identities) runs over one of the domains defined here, so
equality is decidable wherever the domain is exact.  Matrices are kept as
dicts of rows because almost every operator we build (exp of a nilpotent ad,
torus elements, reflection elements) is sparse.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _gi(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _gi(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _gi(other) - self

    def __mul__(self, other):
        other = _gi(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gi(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _gi(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _gi(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


QI_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# scalar domains

class RationalDomain:
    """Exact rationals."""

    name = "QQ"
    exact = True
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def conj(self, a):
        return a

    def power(self, a, n):
        if n >= 0:
            return a ** n
        return self.inv(a) ** (-n)


class GaussianDomain(RationalDomain):
    """Exact Gaussian rationals Q(i)."""

    name = "QI"
    zero = GaussianRational(0)
    one = GaussianRational(1)
    i = QI_I

    def from_int(self, n):
        return GaussianRational(n)

    def inv(self, a):
        return GaussianRational(1) / _gi(a)

    def eq(self, a, b):
        return _gi(a) == _gi(b)

    def is_zero(self, a):
        return not bool(_gi(a))

    def conj(self, a):
        return _gi(a).conjugate()


class PrimeField:
    """F_p, elements stored as ints in [0, p)."""

    exact = True

    def __init__(self, p):
        # a probable-prime check would be overkill; trial division is enough
        # for the desk-scale primes used here
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

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

    def conj(self, a):
        return a

    def power(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def units(self):
        return list(range(1, self.p))


class ComplexDomain:
    """Complex double precision with tolerance-based equality."""

    name = "CC"
    exact = False
    zero = 0j
    one = 1 + 0j

    def __init__(self, tol=1e-10):
        self.tol = tol

    def from_int(self, n):
        return complex(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def eq(self, a, b):
        return abs(a - b) <= self.tol

    def is_zero(self, a):
        return abs(a) <= self.tol

    def conj(self, a):
        return complex(a).conjugate()

    def power(self, a, n):
        return a ** n


QQ = RationalDomain()
QI = GaussianDomain()
CC = ComplexDomain()


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
    """Matrix product a @ b of sparse row-dict matrices."""
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, av in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for j, bv in brow.items():
                t = dom.mul(av, bv)
                if j in acc:
                    acc[j] = dom.add(acc[j], t)
                else:
                    acc[j] = t
        acc = {j: v for j, v in acc.items() if not dom.is_zero(v)}
        if acc:
            out[i] = acc
    return out


def sp_mul_many(mats, dom):
    out = None
    for m in mats:
        out = m if out is None else sp_mul(out, m, dom)
    return out


def sp_add(a, b, dom, asign=1, bsign=1):
    out = {}
    for i in set(a) | set(b):
        acc = {}
        for j, v in a.get(i, {}).items():
            acc[j] = v if asign == 1 else dom.neg(v)
        for j, v in b.get(i, {}).items():
            w = v if bsign == 1 else dom.neg(v)
            acc[j] = dom.add(acc[j], w) if j in acc else w
        acc = {j: v for j, v in acc.items() if not dom.is_zero(v)}
        if acc:
            out[i] = acc
    return out


def sp_scale(a, c, dom):
    out = {}
    for i, row in a.items():
        r = {}
        for j, v in row.items():
            w = dom.mul(c, v)
            if not dom.is_zero(w):
                r[j] = w
        if r:
            out[i] = r
    return out


def sp_eq(a, b, dom):
    for i in set(a) | set(b):
        ra, rb = a.get(i, {}), b.get(i, {})
        for j in set(ra) | set(rb):
            if not dom.eq(ra.get(j, dom.zero), rb.get(j, dom.zero)):
                return False
    return True


def sp_apply(m, vec, dom):
    """Apply sparse matrix to a dict vector {index: value}."""
    out = {}
    for i, row in m.items():
        acc = dom.zero
        hit = False
        for j, v in row.items():
            if j in vec:
                acc = dom.add(acc, dom.mul(v, vec[j]))
                hit = True
        if hit and not dom.is_zero(acc):
            out[i] = acc
    return out


def sp_map(m, f):
    """Apply f to every stored entry (used for domain conversion)."""
    return {i: {j: f(v) for j, v in row.items()} for i, row in m.items()}


def sp_transpose(m):
    out = {}
    for i, row in m.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


# ---------------------------------------------------------------------------
# dense exact linear algebra (Gram matrices, inverses, minors)

def dense_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(m)]
           for i in range(n)]
    return out


def dense_inverse(mat, dom=QQ):
    """Gauss-Jordan inverse over an exact field; raises on singular input."""
    n = len(mat)
    a = [list(row) for row in mat]
    inv = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not dom.is_zero(a[r][col])), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        s = dom.inv(a[col][col])
        a[col] = [dom.mul(s, v) for v in a[col]]
        inv[col] = [dom.mul(s, v) for v in inv[col]]
        for r in range(n):
            if r != col and not dom.is_zero(a[r][col]):
                f = a[r][col]
                a[r] = [dom.sub(a[r][j], dom.mul(f, a[col][j])) for j in range(n)]
                inv[r] = [dom.sub(inv[r][j], dom.mul(f, inv[col][j])) for j in range(n)]
    return inv


def dense_det(mat):
    """Determinant over Fraction by fraction-free-ish Gaussian elimination."""
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
    return [dense_det([row[: k + 1] for row in mat[: k + 1]])
            for k in range(len(mat))]


def solve_linear(gram, rhs):
    """Solve gram @ x = rhs for exact square invertible gram (Fractions)."""
    n = len(gram)
    aug = [list(gram[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        aug[col], aug[piv] = aug[piv], aug[col]
        s = aug[col][col]
        aug[col] = [v / s for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [aug[r][j] - f * aug[col][j] for j in range(n + 1)]
    return [aug[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Laurent polynomials in (t, s): dict {(et, es): coefficient}; et may be
# negative.  Coefficients are rational; they are stored as int while integral
# (every exponential table is), and become Fraction only once a non-integer
# appears.  1 == Fraction(1) with equal hashes, so equality is unaffected.

def _rational(v):
    """v as an int when integral, else as a Fraction."""
    if isinstance(v, int):
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class LaurentPoly:
    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = dict(c) if c else {}

    @classmethod
    def const(cls, v):
        v = _rational(v)
        return cls({(0, 0): v} if v else {})

    @classmethod
    def var_t(cls, e=1):
        return cls({(e, 0): 1})

    @classmethod
    def var_s(cls, e=1):
        return cls({(0, e): 1})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) - v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.c.items()})

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

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def coeff(self, et, es):
        return self.c.get((et, es), 0)

    def evaluate(self, t, s):
        tot = Fraction(0)
        for (et, es), v in self.c.items():
            tot += v * t ** et * s ** es
        return tot

    def __repr__(self):
        return f"LaurentPoly({self.c!r})"


class LaurentDomain:
    """Domain wrapper so sparse-matrix code can run over LaurentPoly entries."""

    name = "QQ[t,t^-1,s]"
    exact = True
    zero = LaurentPoly()
    one = LaurentPoly.const(1)

    def from_int(self, n):
        return LaurentPoly.const(n)

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

    def inv(self, a):
        # only monomials are invertible; that is all we ever invert
        if len(a.c) != 1:
            raise ZeroDivisionError("non-monomial Laurent inverse")
        ((et, es), v), = a.c.items()
        return LaurentPoly({(-et, -es): _rational(1 / Fraction(v))})

    def power(self, a, n):
        if n >= 0:
            out = self.one
            for _ in range(n):
                out = out * a
            return out
        return self.power(self.inv(a), -n)


LAURENT = LaurentDomain()
