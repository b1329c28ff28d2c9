"""The integral-form lattice against a brute-force oracle.

`integral_lattice_report` compares the span of the torus weights
[A(S_j, Y)] with the root lattice by one exact lattice comparison.  The
oracle here works apart from it: it reads the torus action on every u_Y off
the Lie algebra's bracket table, finds the kernel of exp on the torus by
brute force over (1/det a) Z^m mod Z^m, and compares "lambda pairs
integrally with that kernel" with "a^{-1} lambda is integral" (own exact
inverse) over the 7^rank box of weights.
"""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from liekit.liealg import lie_algebra
from liekit.peterweyl import integral_lattice_report
from liekit.rootcat import RootCategory, root_category
from liekit.rootdata import build_cartan

# every finite type of rank <= 4, with the classical |pi_1| of the adjoint
# compact form
TYPES = [("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("A", 4, 5),
         ("B", 2, 2), ("B", 3, 2), ("B", 4, 2), ("C", 2, 2), ("C", 3, 2),
         ("C", 4, 2), ("D", 4, 4), ("G", 2, 1), ("F", 4, 1)]


def _inverse_and_det(a):
    """Gauss-Jordan over Q: (a^{-1}, det a)."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        piv = rows[c][c]
        det *= piv
        rows[c] = [x / piv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows], int(det)


def _torus_weights(series, rank):
    """For each u_Y, the eigenvalues of ad H'_1..H'_m on it."""
    alg = lie_algebra(series, rank)
    return [[alg.bracket_basis(alg.n_u + j, y).get(y, 0) for j in range(rank)]
            for y in range(alg.n_u)]


def _exp_kernel(weights, rank, det):
    """h in {0..det-1}^m with exp(2 pi i sum_j (h_j/det) H'_j) = 1, i.e.
    every torus weight pairs with h to a multiple of det."""
    return [h for h in iproduct(range(det), repeat=rank)
            if all(sum(hj * wj for hj, wj in zip(h, w)) % det == 0
                   for w in weights)]


@pytest.mark.parametrize("series,rank,order", TYPES)
def test_integral_lattice_matches_brute_force_kernel(series, rank, order):
    a = build_cartan(series, rank).a
    ainv, det = _inverse_and_det(a)
    kernel = _exp_kernel(_torus_weights(series, rank), rank, det)
    assert len(kernel) == det == order
    for lam in iproduct(range(-3, 4), repeat=rank):
        integral = all(sum(l * h for l, h in zip(lam, hv)) % det == 0
                       for hv in kernel)
        in_q = all(sum(ainv[i][j] * lam[j] for j in range(rank)).denominator == 1
                   for i in range(rank))
        assert integral == in_q, (series, rank, lam)
    rep = integral_lattice_report(series, rank)
    assert rep["equals_root_lattice"] and rep["kernel_generators_trivial"]
    assert rep["mismatches"] == []
    assert rep["fundamental_group_order"] == order


def _patch_A(monkeypatch, change):
    orig = RootCategory.A
    monkeypatch.setattr(RootCategory, "A",
                        lambda self, x, y: change(x, y, orig(self, x, y)))


def test_planted_fault_one_pairing_off_by_one(monkeypatch):
    """A(S_1, Y) + 1 for one object Y of A3 moves the weight of u_Y off Q."""
    cat = root_category("A", 3)
    s, y = cat.simples[0], cat.objects[4]
    _patch_A(monkeypatch, lambda x, z, v: v + 1 if (x, z) == (s, y) else v)
    rep = integral_lattice_report("A", 3)
    assert rep["equals_root_lattice"] is False
    assert rep["kernel_generators_trivial"] is False
    assert rep["mismatches"] == [y.cls]


def test_planted_fault_index_only(monkeypatch):
    """Every A(S_j, Y) doubled: the weights span 2Q, inside Q but of index
    2^m [Z^m : Q], so only the Smith index comparison can reject it."""
    _patch_A(monkeypatch, lambda x, z, v: 2 * v)
    rep = integral_lattice_report("A", 2)
    assert rep["mismatches"] == [] and rep["kernel_generators_trivial"]
    assert rep["equals_root_lattice"] is False
