"""Combinatorial model of the root category of a Dynkin quiver.

Indecomposables are (positive root, parity) pairs; the shift T flips parity.
Everything the downstream constructions need — Grothendieck classes, the
symmetric Euler form, extension chains L_{X,Y,i,j} — is root-lattice
arithmetic on classes; p/q and omega are root-string walks on indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootdata import build_cartan, root_system, RootSystem


@dataclass(frozen=True)
class RootCatObject:
    pos_root: tuple  # coefficients of the underlying positive root
    parity: int      # 0 = hereditary side, 1 = shifted copy

    @property
    def cls(self):
        """Grothendieck class zeta_X = (-1)^parity * root."""
        if self.parity == 0:
            return self.pos_root
        return tuple(-c for c in self.pos_root)


class RootCategory:
    def __init__(self, series, rank):
        self.cartan = build_cartan(series, rank)
        self.rs: RootSystem = root_system(series, rank)
        # object 2k + parity lies over rs.positive[k]: its index is the root
        # index of its class and TX's is X's ^ 1; index-built code relies on it
        self.objects = [RootCatObject(r, p)
                        for r in self.rs.positive for p in (0, 1)]
        self._index = {x: k for k, x in enumerate(self.objects)}
        self._by_class = {x.cls: x for x in self.objects}
        self.m = rank
        # simple parity-0 objects, in node order
        self.simples = [self._by_class[tuple(1 if k == i else 0 for k in range(rank))]
                        for i in range(rank)]
        self._A = {}  # memo of A, at most objects^2 ints

    # -- object bookkeeping -------------------------------------------------

    def index(self, x):
        return self._index[x]

    def shift(self, x):
        return RootCatObject(x.pos_root, 1 - x.parity)

    def d(self, x):
        """d(X) = dim End X, realized as the symmetrizer of the root."""
        return self.rs.root_d(x.pos_root)

    # -- Euler form and A ---------------------------------------------------

    def euler_form(self, x, y):
        """(H_X | H_Y): symmetrized Cartan form of the classes."""
        return self.rs.sym_form(x.cls, y.cls)

    def A(self, x, y):
        """A_{XY} = (H_X|H_Y)/d(X); always an integer."""
        val = self._A.get((x, y))
        if val is None:
            val, r = divmod(self.euler_form(x, y), self.d(x))
            if r:
                raise ArithmeticError(f"non-integer A for {x}, {y}")
            self._A[x, y] = val
        return val

    # -- extension chains ---------------------------------------------------

    def chain_object(self, x, y, i, j):
        """L_{X,Y,i,j}, the object of class i*zeta_X + j*zeta_Y, or None if
        that is not a root (every +-root is an object class)."""
        return self._by_class.get(tuple([i * a + j * b for a, b in zip(x.cls, y.cls)]))

    def pq(self, x, y):
        """(p_XY, q_XY): extents of the zeta_X-chain through zeta_Y."""
        if x.pos_root == y.pos_root:
            raise ValueError("p/q undefined for X isomorphic to Y or TY")
        ix, iy = self._index[x], self._index[y]
        return len(self.rs.walk(ix ^ 1, iy)) - 1, len(self.rs.walk(ix, iy)) - 1

    def omega(self, m, n):
        """The omega_M(N) symbol: TN on the degenerate diagonal, else the
        reflected chain endpoint, q - p steps up the zeta_M-chain from N."""
        if m.pos_root == n.pos_root:
            return self.shift(n)
        im, i_n = self._index[m], self._index[n]
        down, up = self.rs.walk(im ^ 1, i_n), self.rs.walk(im, i_n)
        k = len(up) - len(down)  # q - p
        return self.objects[up[k] if k >= 0 else down[-k]]


@lru_cache(maxsize=None)
def root_category(series, rank):
    return RootCategory(series, rank)
