"""Finite-type Cartan data, root systems, root strings and lattice utilities.

The order of the Weyl group is read off the root heights rather than by
enumerating W: if n_k positive roots have height k, the exponent k occurs
n_k - n_{k+1} times, and |W| is the product of (exponent + 1) (Kostant).
The root-string walk `RootSystem.walk` serves the root category's p/q and
omega, the Chevalley constants and the compact form alike.

Conventions fixed here and used by every other module:

* Bourbaki node numbering for all series.
* Cartan matrix entries a_ij = <alpha_i^vee, alpha_j>, i.e. rows are indexed
  by coroots, so that d_i * a_ij is the symmetric positive-definite matrix
  ( alpha_i | alpha_j ) with short roots normalized to d = 1,
  ( alpha | alpha ) = 2 d_alpha.
* Roots are integer coefficient vectors in the simple-root basis, ordered by
  (height, lexicographic coefficients).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub

SERIES_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class CartanDatum:
    series: str
    rank: int
    a: tuple  # tuple of tuple of int, a_ij = <alpha_i^vee, alpha_j>
    d: tuple  # symmetrizers, d_i a_ij symmetric, min d_i = 1

    def sym(self, i, j):
        """( alpha_i | alpha_j ) = d_i a_ij."""
        return self.d[i] * self.a[i][j]


def _edges(series, n):
    """Dynkin diagram as (i, j, a_ij, a_ji) with 0-based Bourbaki nodes."""
    if series == "A":
        return [(i, i + 1, -1, -1) for i in range(n - 1)]
    if series == "B":
        # nodes 1..n-1 long, node n short
        e = [(i, i + 1, -1, -1) for i in range(n - 2)]
        e.append((n - 2, n - 1, -1, -2))
        return e
    if series == "C":
        # nodes 1..n-1 short, node n long
        e = [(i, i + 1, -1, -1) for i in range(n - 2)]
        e.append((n - 2, n - 1, -2, -1))
        return e
    if series == "D":
        e = [(i, i + 1, -1, -1) for i in range(n - 3)]
        e.append((n - 3, n - 2, -1, -1))
        e.append((n - 3, n - 1, -1, -1))
        return e
    if series == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        e = [(chain[k], chain[k + 1], -1, -1) for k in range(len(chain) - 1)]
        e.append((1, 3, -1, -1))
        return e
    if series == "F":
        # nodes 1,2 long; nodes 3,4 short
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    if series == "G":
        # node 1 short, node 2 long: a_12 = <alpha_1^vee, alpha_2> = -3
        return [(0, 1, -3, -1)]
    raise ValueError(f"unknown series {series!r}")


def build_cartan(series, rank):
    """Cartan matrix and symmetrizers for a finite Dynkin type."""
    series = series.upper()
    if series not in SERIES_RANKS or not SERIES_RANKS[series](rank):
        raise ValueError(f"invalid finite Dynkin type {series}{rank}")
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j, aij, aji) in _edges(series, n):
        a[i][j] = aij
        a[j][i] = aji
    # solve d_i a_ij = d_j a_ji over the connected diagram, normalize min = 1
    d = [0] * n
    d[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and d[j] == 0:
                # d_j = d_i a_ij / a_ji
                val = Fraction(d[i] * a[i][j], a[j][i])
                d[j] = val
                todo.append(j)
    lcm_den = 1
    for v in d:
        lcm_den = lcm_den * v.denominator // math.gcd(lcm_den, v.denominator)
    d = [v * lcm_den for v in d]
    g = 0
    for v in d:
        g = math.gcd(g, int(v))
    d = tuple(int(v) // g for v in d)
    for i in range(n):
        for j in range(n):
            assert d[i] * a[i][j] == d[j] * a[j][i], "symmetrizer failure"
    return CartanDatum(series, rank, tuple(tuple(r) for r in a), d)


class RootSystem:
    """Full root set, closed under simple reflections, with fast membership;
    root index 2k + e is positive[k], negated for e = 1 (negation is x ^ 1)."""

    def __init__(self, cartan):
        self.cartan = cartan
        n = cartan.rank
        simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        roots = set(simple)
        frontier = set(simple)
        while frontier:
            nxt = set()
            for beta in frontier:
                for i in range(n):
                    img = self._reflect(beta, i)
                    if img not in roots:
                        roots.add(img)
                        nxt.add(img)
            frontier = nxt
        self.positive = sorted((r for r in roots if sum(r) > 0),
                               key=lambda r: (sum(r), r))
        self.roots = sorted(roots, key=lambda r: (sum(r), r))
        self._set = roots
        self.pos_index = {r: k for k, r in enumerate(self.positive)}
        # the rows d_i a_ij of the symmetric form, and d_alpha of every root
        self._sym_rows = [[cartan.sym(i, j) for j in range(n)] for i in range(n)]
        self._d = {}
        for r in roots:
            val = self.sym_form(r, r)
            assert val % 2 == 0
            self._d[r] = val // 2

    def _reflect(self, beta, i):
        c = self.pairing_with_coroot(beta, i)
        out = list(beta)
        out[i] -= c
        return tuple(out)

    def pairing_with_coroot(self, beta, i):
        """<beta, alpha_i^vee> = sum_j beta_j a_ij."""
        a = self.cartan.a
        return sum(a[i][j] * beta[j] for j in range(self.cartan.rank))

    def contains(self, v):
        return tuple(v) in self._set

    def sym_form(self, v, w):
        """(v | w) with (alpha_i | alpha_j) = d_i a_ij; args in root coords."""
        return sum(vi * sum(map(mul, row, w))
                   for vi, row in zip(v, self._sym_rows) if vi)

    def root_d(self, v):
        """Symmetrizer d_alpha = (alpha|alpha)/2 of a root (1 for short)."""
        return self._d[tuple(v)]

    @cached_property
    def sums(self):
        """sums[x] = {y: index of x + y} by root index, rows in ascending y,
        from one pass over the positive pairs a < b (alpha +- beta)."""
        pos = self.positive
        index = {}
        for k, r in enumerate(pos):
            index[r], index[tuple(-c for c in r)] = 2 * k, 2 * k + 1
        rows = [{} for _ in index]
        for a, alpha in enumerate(pos):
            x = 2 * a
            for b in range(a + 1, len(pos)):
                beta = pos[b]
                for y, v in ((2 * b, map(add, alpha, beta)),
                             (2 * b + 1, map(sub, alpha, beta))):
                    s = index.get(tuple(v))
                    if s is not None:
                        rows[x][y] = rows[y][x] = s
                        rows[x ^ 1][y ^ 1] = rows[y ^ 1][x ^ 1] = s ^ 1
        return [dict(sorted(row.items())) for row in rows]

    def walk(self, x, y):
        """[y, y + x, y + 2x, ...] by root index, to the last root: so
        p, q = len(walk(x ^ 1, y)) - 1, len(walk(x, y)) - 1."""
        out, row = [y], self.sums[x]
        while y in row:
            y = row[y]
            out.append(y)
        return out

    def weyl_order(self):
        """|W| = prod (e + 1) over the exponents e; exponent k occurs
        n_k - n_{k+1} times, n_k being the number of positive roots of
        height k."""
        heights = Counter(sum(r) for r in self.positive)
        return math.prod((k + 1) ** (n - heights[k + 1])
                         for k, n in heights.items())


@lru_cache(maxsize=None)
def root_system(series, rank):
    return RootSystem(build_cartan(series, rank))


def parse_type(name):
    """'G2' -> ('G', 2); outer spaces aside, only an ASCII letter and ASCII
    digits (`int` would also take a sign, '_' or a non-ASCII digit)."""
    name = name.strip()
    if not (name.isascii() and name[:1].isalpha() and name[1:].isdigit()):
        raise ValueError(f"bad type name {name!r}")
    return name[0].upper(), int(name[1:])


# ---------------------------------------------------------------------------
# Smith normal form

def invariant_factors(mat):
    """The invariant factors d_1 | d_2 | ... of an integer matrix, the
    nonnegative diagonal of its Smith normal form, min(rows, cols) of them.

    Unimodular row and column operations bring the remaining entry of least
    nonzero magnitude to the pivot and reduce its row and column by it; a
    nonzero remainder is smaller and becomes the next pivot, and a row with
    an entry the pivot does not divide is added to the pivot's row."""
    a = [list(map(int, row)) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    n = min(nrows, ncols)
    for t in range(n):
        while True:
            rest = [(abs(a[i][j]), i, j) for i in range(t, nrows)
                    for j in range(t, ncols) if a[i][j]]
            if not rest:
                return [abs(a[i][i]) for i in range(n)]
            _, pi, pj = min(rest)
            a[t], a[pi] = a[pi], a[t]
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            p = a[t][t]
            for i in range(t + 1, nrows):
                f = a[i][t] // p
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, ncols):
                f = a[t][j] // p
                for r in a:
                    r[j] -= f * r[t]
            if any(a[i][t] for i in range(t + 1, nrows)) or any(
                    a[t][j] for j in range(t + 1, ncols)):
                continue
            bad = next((i for i in range(t + 1, nrows)
                        if any(a[i][j] % p for j in range(t + 1, ncols))), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    return [abs(a[i][i]) for i in range(n)]


def lattice_index(cartan):
    """[X : Q] = product of the invariant factors of the Cartan matrix."""
    return math.prod(invariant_factors(cartan.a))
