"""The integral-form lattice and the numeric Haar quadratures against
brute-force oracles.

`integral_lattice_report` compares the span of the torus weights
[A(S_j, Y)] with the root lattice by one exact lattice comparison.  The
oracle here works apart from it: it reads the torus action on every u_Y off
the Lie algebra's bracket table, finds the kernel of exp on the torus by
brute force over (1/det a) Z^m mod Z^m, and compares "lambda pairs
integrally with that kernel" with "a^{-1} lambda is integral" (own exact
inverse) over the 7^rank box of weights.

The SU(2) quadratures are contractions of one tensor
`SU2Quadrature.coefficient_tensor`, and the torus character sum is one
array expression.  The references here are the direct sums they replaced:
the Schur integral evaluated per theta node on the full (phi, psi) grid, the
convolution integral by a loop over every node of the product grid, and the
character pairing by a loop over every torus node.
"""

import cmath
import random
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from scipy.linalg import expm

from liekit import peterweyl
from liekit.exact import GaussianRational
from liekit.hwmodules import root_fund
from liekit.liealg import lie_algebra
from liekit.peterweyl import (MatrixCoefficient, OElement, SU2Quadrature,
                              SU2Rep, char_orthonormality, character_weights,
                              integral_lattice_report)
from liekit.rootcat import RootCategory, root_category
from liekit.rootdata import build_cartan, root_system

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


# ---------------------------------------------------------------------------
# SU(2) Haar quadrature

def _rotation(rep, theta):
    return expm(-theta / 2.0 * rep._k)


def _schur_reference(q, rep1, rep2, w1, v1, w2, v2):
    """Quadrature of (pi1 w1, v1) conj((pi2 w2, v2)): at each theta node,
    both coefficients on the whole (phi, psi) grid."""
    def coeff_grid(rep, w, v, rot):
        c = np.conj(v)[:, None] * rot * w[None, :]
        phase_l = np.exp(-1j * np.outer(q.phis, rep.mvals) / 2.0)
        phase_r = np.exp(-1j * np.outer(rep.mvals, q.psis) / 2.0)
        return phase_l @ c @ phase_r

    total = 0j
    for u_w, theta in zip(q.ws, q.thetas):
        f1 = coeff_grid(rep1, w1, v1, _rotation(rep1, theta))
        f2 = coeff_grid(rep2, w2, v2, _rotation(rep2, theta))
        total += (u_w / 2.0) * np.sum(f1 * np.conj(f2)) / (len(q.phis) * len(q.psis))
    return complex(total)


def _convolution_reference(q, rep, z1, z1p, z2, z2p, x):
    """int f(y^-1 x) g(y) dy, node by node over the whole product grid."""
    pix = rep.matrix(*x)
    total = 0j
    for u_w, theta in zip(q.ws, q.thetas):
        rot = _rotation(rep, theta)
        for phi in q.phis:
            left = np.exp(-1j * phi * rep.mvals / 2.0)
            for psi in q.psis:
                right = np.exp(-1j * psi * rep.mvals / 2.0)
                piy = (left[:, None] * rot) * right[None, :]
                fv = np.dot(np.conj(z1p), np.conj(piy).T @ pix @ z1)
                gv = np.dot(np.conj(z2p), piy @ z2)
                total += (u_w / 2.0) * fv * gv / (len(q.phis) * len(q.psis))
    return total


def _char_reference(series, rank, lam, mu, grid):
    """The Weyl-integration pairing, one torus node at a time."""
    cartan = build_cartan(series, rank)
    rs = root_system(series, rank)
    wl = character_weights(cartan, lam)
    wm = character_weights(cartan, mu)
    pos = [root_fund(cartan, r) for r in rs.positive]

    def phase(t, w):
        return cmath.exp(2j * cmath.pi * sum(tj * wj for tj, wj in zip(t, w)))

    total, count = 0j, 0
    for idx in iproduct(range(grid), repeat=rank):
        t = [(k + 0.5) / grid for k in idx]
        chi1 = sum(m * phase(t, w) for w, m in wl.items())
        chi2 = sum(m * phase(t, w) for w, m in wm.items())
        delta = 1.0
        for a in pos:
            delta *= abs(phase(t, a) - 1.0) ** 2
        total += chi1 * chi2.conjugate() * delta
        count += 1
    return total / (count * rs.weyl_order())


def _gauss_vec(rng, n):
    return {k: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            for k in range(n)}


def _schur_table_deviation(q, r1, r2):
    """max |Q - delta_ac delta_bd / d|, the `peterweyl schur` deviation."""
    dev = q.coefficient_tensor(r1, r2)
    if r1.dim == r2.dim:
        dev = dev - np.einsum("ac,bd->abcd", np.eye(r1.dim), np.eye(r1.dim)) / r1.dim
    return float(np.abs(dev).max())


@pytest.mark.parametrize("grid", [3, 4, 8, 16, 24])
def test_schur_integral_matches_grid_reference(grid):
    """Every spin pair up to 3/2, with random complex vectors, dicts in
    module coordinates for the first pair of arguments.  Grids 3 and 4 are
    too coarse to integrate exactly; the sums must still agree there, node
    for node, aliasing included."""
    q = SU2Quadrature(grid)
    reps = [SU2Rep(tj) for tj in range(4)]
    rng = random.Random(grid)
    for r1, r2 in iproduct(reps, repeat=2):
        w1, v1 = _gauss_vec(rng, r1.dim), _gauss_vec(rng, r1.dim)
        w2 = rng.choice([-1, 1]) * np.exp(1j * np.arange(r2.dim))
        v2 = np.arange(r2.dim) - 1j
        got = q.schur_integral(r1, r2, w1, v1, w2, v2)
        want = _schur_reference(q, r1, r2, r1.to_orthonormal(w1),
                                r1.to_orthonormal(v1), w2, v2)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (r1.dim, r2.dim)


def test_coefficient_tensor_matches_grid_reference_entrywise():
    """Q[a,b,c,d] is the Schur integral of the basis coefficients; spin 1/2
    against spin 1, and spin 3/2 with itself on an aliasing grid."""
    for q, r1, r2 in ((SU2Quadrature(8), SU2Rep(1), SU2Rep(2)),
                      (SU2Quadrature(3), SU2Rep(3), SU2Rep(3))):
        tensor = q.coefficient_tensor(r1, r2)
        e1, e2 = np.eye(r1.dim), np.eye(r2.dim)
        for a, b, c, d in iproduct(range(r1.dim), range(r1.dim),
                                   range(r2.dim), range(r2.dim)):
            want = _schur_reference(q, r1, r2, e1[b], e1[a], e2[d], e2[c])
            assert abs(tensor[a, b, c, d] - want) <= 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3])
def test_convolution_matches_node_loop(monkeypatch, two_j):
    """With the Fourier side replaced by the node-by-node reference value,
    `convolution_check` returns |new - reference|, relative to the size of
    the value; unchanged, it returns a deviation at rounding level."""
    rng = random.Random(two_j)
    mod = SU2Rep(two_j).mod
    f = MatrixCoefficient(mod, _gauss_vec(rng, mod.dim), _gauss_vec(rng, mod.dim))
    g = MatrixCoefficient(mod, _gauss_vec(rng, mod.dim), _gauss_vec(rng, mod.dim))
    rep = SU2Rep(two_j)
    z = [rep.to_orthonormal(v) for v in (f.z, f.zp, g.z, g.zp)]
    for grid in (8, 16, 24):
        q = SU2Quadrature(grid)
        assert q.convolution_check(f, g) <= 1e-9
        for x in ((0.4, 1.1, 2.3), (2.9, 0.6, 5.0)):
            ref = _convolution_reference(q, rep, *z, x)
            with monkeypatch.context() as m:
                m.setattr(OElement, "evaluate", lambda self, reps: ref)
                dev = q.convolution_check(f, g, xs=(x,))
            assert dev <= 1e-12 * max(1.0, abs(ref)), (grid, x, ref)


@pytest.mark.parametrize("series,rank,grid", [
    ("A", 1, 16), ("A", 2, 16), ("B", 2, 16), ("G", 2, 16), ("B", 3, 8)])
def test_char_orthonormality_matches_node_loop(series, rank, grid):
    fund = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    pairs = [(lam, mu) for lam in fund for mu in fund]
    pairs.append((tuple([1] * rank), fund[0]))
    for lam, mu in pairs:
        got = char_orthonormality(series, rank, lam, mu, grid=grid)
        want = _char_reference(series, rank, lam, mu, grid)
        assert abs(got - want) <= 1e-12, (lam, mu)


class _BrokenRep(SU2Rep):
    """K with one entry doubled: exp(-theta K/2) is no longer a
    representation of SU(2)."""

    def __init__(self, two_j):
        super().__init__(two_j)
        self._k = self._k.copy()
        self._k[0, 1] *= 2


@pytest.mark.parametrize("two_j", [1, 2, 3])
def test_planted_fault_broken_representation(monkeypatch, two_j):
    q = SU2Quadrature(16)
    assert _schur_table_deviation(q, SU2Rep(two_j), SU2Rep(two_j)) < 1e-12
    assert _schur_table_deviation(q, _BrokenRep(two_j), _BrokenRep(two_j)) > 1e-3
    rng = random.Random(two_j)
    mod = SU2Rep(two_j).mod
    f = MatrixCoefficient(mod, _gauss_vec(rng, mod.dim), _gauss_vec(rng, mod.dim))
    g = MatrixCoefficient(mod, _gauss_vec(rng, mod.dim), _gauss_vec(rng, mod.dim))
    assert q.convolution_check(f, g) < 1e-9
    monkeypatch.setattr(peterweyl, "SU2Rep", _BrokenRep)
    assert q.convolution_check(f, g) > 1e-3

