"""The module layer against its direct exact algorithms.

`build_irrep` works on integers: E and F by column, each an integer dict
over one denominator, an integer Gram, and pivots selected by fraction-free
elimination; `adjoint_check` tests M^H G == G N with no inverse;
`end_inner` sums only the trace of B* A; `gram_positive_definite` reads the
leading minors off `Bareiss.of`; `shapovalov_binomial_check` and
`s_second_sum` read columns through one transpose and apply matrices by
`sp_mul`.  The references below
are the direct algorithms they replace: a `Fraction` build that re-solves
the pivot Gram for every candidate, row scans of E and F, the adjoint
G^{-1} M^H G over Q(i), the full product B* A, every leading principal
minor, and a per-vector scan of every row.  `unitarity_deviation` reads
the L D L^T of each weight Gram off `Bareiss.of`; its reference is the same
routine on the rational LDL^T it used before, and the two must agree to the
last bit.  `FreudenthalTable` walks the dominant weights of V(lam) by
positive-root steps from lam, `weight_bilinear` reads one cached form and
`longest_word` (defined in `test_hwmodules`) is the reflection walk from
-rho; their references are the Freudenthal recursion over the whole box of
depth vectors, one `solve_linear` per pairing, and the descent walk from
rho.  Each fast path must agree with its reference exactly.
"""

import math
import random

from fractions import Fraction
from itertools import product as iproduct
from operator import mul

import pytest

from liekit.exact import (QI, QQ, Bareiss, GaussianRational, components,
                          dense_inverse, leading_principal_minors,
                          solve_linear, sp_eq, sp_map, sp_mul, sp_mul_many,
                          sp_transpose)
from liekit.hwmodules import (FreudenthalTable, ModuleGenerators,
                              WeightModule, _nullspace, adjoint_check,
                              build_irrep, dominant_conjugate, irrep_columns,
                              root_fund,
                              shapovalov_binomial_check,
                              unitarity_deviation, weight_bilinear, weyl_dim)
from liekit.peterweyl import MatrixCoefficient, OElement, end_inner
from liekit.rootdata import build_cartan, root_system
from test_hwmodules import longest_word


# ---------------------------------------------------------------------------
# references

def sp_apply(m, vec, dom):
    """M v by walking every row of M."""
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


def reference_inner(mod, x, y):
    """The Hermitian form, walking every weight block."""
    tot = 0
    for data in mod.weights.values():
        basis, gram = data["basis"], data["gram"]
        for a, ga in enumerate(basis):
            if ga not in x:
                continue
            for b, gb in enumerate(basis):
                if gb in y:
                    tot = x[ga] * y[gb].conjugate() * gram[a][b] + tot
    return tot


def reference_shapovalov_binomial_check(mod):
    """Columns of E_j by a scan of every row for each basis vector, and F_j
    applied by `sp_apply`."""
    for depth, data in mod.weights.items():
        basis = data["basis"]
        for j in range(mod.m):
            rows = {}
            for g in basis:
                col = {r: row[g] for r, row in mod.E[j].items() if g in row}
                for r, v in col.items():
                    rows.setdefault(r, {})[g] = v
            n = data["fund"][j]
            for y in _nullspace(rows, basis):
                if n < 0:
                    return False, (depth, j, "negative weight primitive")
                norm_y = reference_inner(mod, y, y)
                z = dict(y)
                for s in range(1, n + 2):
                    z = sp_apply(mod.F[j], z, QQ)
                    z = {k: v / s for k, v in z.items()}
                    want = math.comb(n, s) * norm_y if s <= n else 0
                    if reference_inner(mod, z, z) != want:
                        return False, (depth, j, s)
    return True, None


def reference_s_second_sum(gens, i):
    """sum over l+m = <i, mu> of (-1)^l F_i^(l) 1_mu E_i^(m), one column of
    E_i^(m) at a time, each read by a scan of every row."""
    mod = gens.mod
    out = {}
    for mi, emat in enumerate(gens.ex[i]):
        for lpow, fmat in enumerate(gens.fx[i]):
            sign = -1 if lpow % 2 else 1
            for g in range(mod.dim):
                if mod.weight_of[g][i] + 2 * mi != lpow + mi:
                    continue
                col = {r: row[g] for r, row in emat.items() if g in row}
                col = {r: v for r, v in col.items()
                       if mod.weight_of[r][i] == lpow + mi}
                for r, v in sp_apply(fmat, col, QQ).items():
                    w = out.get(r, {}).get(g, Fraction(0)) + sign * v
                    if w:
                        out.setdefault(r, {})[g] = w
                    elif g in out.get(r, {}):
                        del out[r][g]
    return {r: row for r, row in out.items() if row}


def reference_build_irrep(cartan, lam):
    """(E, F, weights, weight_of) by the direct construction: every candidate
    re-solves the pivot Gram, E and F are read by scanning rows, and the
    position of each basis vector in its weight is looked up afresh."""
    m = len(cartan.a)
    E = [{} for _ in range(m)]
    F = [{} for _ in range(m)]
    weights = {}
    weight_of = []

    def fund_of(depth):
        return tuple(lam[j] - sum(depth[i] * cartan.a[j][i] for i in range(m))
                     for j in range(m))

    zero = (0,) * m
    weights[zero] = {"fund": lam, "basis": [0], "gram": [[Fraction(1)]],
                     "raw_labels": [None]}
    weight_of.append(lam)
    nglobal = 1
    level = [zero]
    while level:
        nxt = set()
        for depth in level:
            for i in range(m):
                d2 = list(depth)
                d2[i] += 1
                nxt.add(tuple(d2))
        newlevel = []
        for depth in sorted(nxt):
            cands = []
            for i in range(m):
                if depth[i] == 0:
                    continue
                up = list(depth)
                up[i] -= 1
                src = weights.get(tuple(up))
                if src is None:
                    continue
                for b in src["basis"]:
                    cands.append((i, b))
            if not cands:
                continue
            fund = fund_of(depth)
            cand_E = []
            for (i, b) in cands:
                mu = weight_of[b]
                evec = [dict() for _ in range(m)]
                for j in range(m):
                    ejb = {r: row[b] for r, row in E[j].items() if b in row}
                    acc = sp_apply(F[i], ejb, QQ)
                    if i == j and mu[j]:
                        acc[b] = acc.get(b, Fraction(0)) + mu[j]
                        if not acc[b]:
                            del acc[b]
                    evec[j] = acc
                cand_E.append(evec)
            nc = len(cands)
            C = [[Fraction(0)] * nc for _ in range(nc)]
            pos_in_weight = {}
            for w, data in weights.items():
                for loc, g in enumerate(data["basis"]):
                    pos_in_weight[g] = (w, loc)
            for r_ in range(nc):
                i_r, b_r = cands[r_]
                up = list(depth)
                up[i_r] -= 1
                wdata = weights[tuple(up)]
                gram_up = wdata["gram"]
                loc_b = wdata["basis"].index(b_r)
                for c_ in range(nc):
                    tot = Fraction(0)
                    for g, v in cand_E[c_][i_r].items():
                        _, loc = pos_in_weight[g]
                        tot += gram_up[loc_b][loc] * v
                    C[r_][c_] = tot
            pivots = []
            coords = [None] * nc
            gp = []
            for c_ in range(nc):
                col = [C[p][c_] for p in pivots]
                x = solve_linear(gp, col) if pivots else []
                resid = C[c_][c_] - sum(xx * cc for xx, cc in zip(x, col))
                if resid != 0:
                    coords[c_] = ("pivot", len(pivots))
                    pivots.append(c_)
                    gp = [[C[p][q] for q in pivots] for p in pivots]
                else:
                    coords[c_] = ("span", x)
            if not pivots:
                continue
            basis = []
            for p in pivots:
                basis.append(nglobal)
                weight_of.append(fund)
                nglobal += 1
            weights[depth] = {
                "fund": fund, "basis": basis,
                "gram": [[C[p][q] for q in pivots] for p in pivots],
                "raw_labels": list(cands),
            }
            for c_, (i, b) in enumerate(cands):
                kind, data_ = coords[c_]
                if kind == "pivot":
                    F[i].setdefault(basis[data_], {})[b] = Fraction(1)
                else:
                    for k_, v in enumerate(data_):
                        if v:
                            F[i].setdefault(basis[k_], {})[b] = \
                                F[i].get(basis[k_], {}).get(b, Fraction(0)) + v
            for k_, p in enumerate(pivots):
                for j in range(m):
                    for r, v in cand_E[p][j].items():
                        if v:
                            E[j].setdefault(r, {})[basis[k_]] = v
            newlevel.append(depth)
        level = newlevel
    return E, F, weights, weight_of


def _gram_and_inverse(mod):
    g, ginv = {}, {}
    for data in mod.weights.values():
        basis = data["basis"]
        inv = dense_inverse(data["gram"])
        for a, ga in enumerate(basis):
            for b, gb in enumerate(basis):
                if data["gram"][a][b]:
                    g.setdefault(ga, {})[gb] = data["gram"][a][b]
                if inv[a][b]:
                    ginv.setdefault(ga, {})[gb] = inv[a][b]
    return g, ginv


def reference_dagger(mod, mat):
    """G^{-1} M^H G over Q(i), the Gram and its inverse built afresh."""
    g, ginv = _gram_and_inverse(mod)
    mh = {}
    for r, row in mat.items():
        for c, v in row.items():
            mh.setdefault(c, {})[r] = QI.conj(v)
    return sp_mul_many([sp_map(ginv, QI.embed), mh, sp_map(g, QI.embed)], QI)


def reference_adjoint_check(mod, hs):
    gens = ModuleGenerators(mod)
    for i in range(mod.m):
        if not sp_eq(reference_dagger(mod, sp_map(mod.E[i], QI.embed)),
                     sp_map(mod.F[i], QI.embed), QI):
            return False, (i, "E")
        for h in hs:
            if not sp_eq(reference_dagger(mod, gens.x(i, h, QI)),
                         gens.y(i, h.conjugate(), QI), QI):
                return False, (i, h)
    return True, None


def reference_end_inner(mod, a, b):
    prod = sp_mul(reference_dagger(mod, b), a, QI)
    tot = GaussianRational(0)
    for i, row in prod.items():
        if i in row:
            tot = tot + row[i]
    return tot / GaussianRational(mod.dim)


def cholesky_unitarity_deviation(mod, ts=(0.37, 1.1)):
    """The deviation through a float Cholesky factor of the whole Gram."""
    import numpy as np
    from scipy.linalg import expm
    n = mod.dim

    def dense(mat):
        out = np.zeros((n, n))
        for r, row in mat.items():
            for c, v in row.items():
                out[r, c] = float(v)
        return out

    low = np.linalg.cholesky(dense(mod.gram_sparse()))
    low_inv = np.linalg.inv(low)
    worst = 0.0
    for i in range(mod.m):
        e, f = dense(mod.E[i]), dense(mod.F[i])
        for base in (e - f, 1j * (e + f)):
            for t in ts:
                u = low.T @ expm(t * base) @ low_inv.T
                worst = max(worst, float(
                    np.abs(u @ u.conj().T - np.eye(n)).max()))
    return worst


# `unitarity_deviation` and the exact LDL^T it factored each weight Gram by,
# as they were before the factorization moved onto `Bareiss.of`

class LDL:
    """The exact factorisation G = L D L^T of a symmetric matrix over Q, in
    which L is unit lower triangular; the leading minors of G are the prefix
    products of `d`.  `Bareiss` is its fraction-free twin for integer
    matrices.
    """

    def __init__(self):
        self.low = []  # row k of L left of its unit diagonal
        self.d = []

    def forward(self, col):
        """y with L y = col, over the first len(d) entries of col."""
        y = []
        for row, c in zip(self.low, col):
            y.append(c - sum(map(mul, row, y)))
        return y

    @classmethod
    def of(cls, gram):
        """The factorisation of a symmetric matrix, stopped after its first
        pivot that is not positive: G is positive definite iff every
        d > 0, and otherwise d[-1] <= 0 sits at the first leading minor
        that is not positive.  Row k of L is D^{-1} L^{-1} of the column
        above the diagonal, and the pivot its residual diag - y^T D^{-1} y,
        so no pivoting is needed while every d is nonzero."""
        f = cls()
        for k, row in enumerate(gram):
            y = f.forward(row[:k])
            z = [v / dk for v, dk in zip(y, f.d)]
            resid = row[k] - sum(map(mul, y, z))
            f.low.append(z)
            f.d.append(resid)
            if resid <= 0:
                break
        return f


def reference_unitarity_deviation(mod, ts=(0.37, 1.1)):
    """exp(t(E_i - F_i)) and exp(it(E_i + F_i)) are unitary for the
    hermitian inner product; returns the worst |U U^H - I| entry in the
    orthonormalized coordinates.

    Each weight block of the Gram is factored exactly as L D L^T, so
    u = D^{1/2} L^T x are orthonormal coordinates and an operator M becomes
    D^{1/2} (L^T M L^{-T}) D^{-1/2}.  The middle factor is exact; only the
    scale sqrt(d_i / d_j) is taken in float, so the error does not grow
    with the condition of the Gram.

    E_i and F_i move a weight only along its alpha_i-string, so E_i +- F_i
    is block diagonal, each block inside one string, and so is its
    exponential.  The blocks are the `components` of the graph that the
    entries of E_i and F_i draw on the basis; the exponentials are taken
    block by block, all blocks of one size in one stacked `expm`."""
    import numpy as np
    from scipy.linalg import expm
    n = mod.dim
    lt, lt_inv = {}, {}
    sqrt_d = np.zeros(n)
    for data in mod.weights.values():
        basis = data["basis"]
        nb = len(basis)
        fac = LDL.of(data["gram"])
        if fac.d[-1] <= 0:
            raise ValueError("the Gram is not positive definite")
        for k, g in enumerate(basis):
            sqrt_d[g] = math.sqrt(fac.d[k])
            # row k of L^T is column k of L; row k of L^{-T} solves L y = e_k
            lt[g] = {g: Fraction(1)}
            lt[g].update({basis[l]: fac.low[l][k] for l in range(k + 1, nb)
                          if fac.low[l][k]})
            lt_inv[g] = {basis[l]: v for l, v in enumerate(
                fac.forward([Fraction(int(l == k)) for l in range(nb)])) if v}

    def dense(mat, idxs):
        """The blocks of mat on the index lists idxs, stacked, as floats in
        the orthonormal coordinates."""
        out = np.zeros((len(idxs), len(idxs[0]), len(idxs[0])))
        for b, idx in enumerate(idxs):
            pos = {g: k for k, g in enumerate(idx)}
            for r in idx:
                for c, v in mat.get(r, {}).items():
                    out[b, pos[r], pos[c]] = float(v)
        scale = sqrt_d[idxs]
        return out * scale[:, :, None] / scale[:, None, :]

    worst = 0.0
    for i in range(mod.m):
        e = sp_mul_many([lt, mod.E[i], lt_inv], QQ)
        f = sp_mul_many([lt, mod.F[i], lt_inv], QQ)
        by_size = {}
        for idx in components(n, (e, f)):
            by_size.setdefault(len(idx), []).append(idx)
        for idxs in by_size.values():
            eb, fb = dense(e, idxs), dense(f, idxs)
            for base in (eb - fb, 1j * (eb + fb)):
                for t in ts:
                    u = expm(t * base)
                    worst = max(worst, float(np.abs(
                        u @ u.conj().swapaxes(1, 2) - np.eye(len(idxs[0]))).max()))
    return worst


def reference_gram_positive_definite(mod):
    for depth, data in mod.weights.items():
        for k, mnr in enumerate(leading_principal_minors(data["gram"])):
            if mnr <= 0:
                return False, (depth, k)
    return True, None


def reference_weight_bilinear(cartan, mu, nu):
    """(mu, nu) with (alpha_j, alpha_j) = 2 d_j; exact rational."""
    m = len(cartan.a)
    amat = [[Fraction(v) for v in row] for row in cartan.a]
    x = solve_linear(amat, [Fraction(v) for v in mu])
    return sum(x[j] * cartan.d[j] * nu[j] for j in range(m))


def reference_longest_word(cartan):
    """A reduced word for the longest Weyl element, via the descent walk
    from rho to -rho; its length is the number of positive roots."""
    m = len(cartan.a)
    lam = [1] * m
    word = []
    while True:
        for i in range(m):
            if lam[i] > 0:
                c = lam[i]
                for j in range(m):
                    lam[j] -= c * cartan.a[j][i]
                word.append(i)
                break
        else:
            return word


class ReferenceFreudenthalTable:
    """Weight multiplicities of the irreducible with highest weight lam,
    by the Freudenthal recursion on dominant weights."""

    def __init__(self, cartan, lam):
        self.cartan = cartan
        self.lam = tuple(lam)
        m = len(cartan.a)
        rs = root_system(cartan.series, m)
        amat = [[Fraction(v) for v in row] for row in cartan.a]
        low = tuple(-v for v in dominant_conjugate(cartan, tuple(-v for v in lam)))
        extent_fr = solve_linear(amat, [Fraction(a - b) for a, b in zip(lam, low)])
        assert all(e.denominator == 1 for e in extent_fr)
        extent = [int(e) for e in extent_fr]
        lam_rho_sq = reference_weight_bilinear(
            cartan, tuple(l + 1 for l in lam), tuple(l + 1 for l in lam))
        pos_fund = [(root_fund(cartan, r), r) for r in rs.positive]
        self.mult = {}
        # dominant weights in increasing depth
        grid = sorted(iproduct(*(range(e + 1) for e in extent)), key=sum)
        for n in grid:
            nu = tuple(lam[j] - sum(n[i] * cartan.a[j][i] for i in range(m))
                       for j in range(m))
            if any(v < 0 for v in nu):
                continue
            if sum(n) == 0:
                self.mult[nu] = 1
                continue
            num = Fraction(0)
            for afund, r in pos_fund:
                # nu + k*alpha stays inside the weight diagram only while its
                # depth vector remains componentwise nonnegative
                kmax = min(n[i] // r[i] for i in range(m) if r[i])
                for k in range(1, kmax + 1):
                    up = tuple(nu[j] + k * afund[j] for j in range(m))
                    mu_mult = self.multiplicity(up)
                    if mu_mult:
                        num += mu_mult * reference_weight_bilinear(
                            cartan, up, afund)
            den = lam_rho_sq - reference_weight_bilinear(
                cartan, tuple(v + 1 for v in nu), tuple(v + 1 for v in nu))
            if den == 0:
                continue
            val = 2 * num / den
            assert val.denominator == 1
            if val:
                self.mult[nu] = int(val)

    def multiplicity(self, nu):
        return self.mult.get(dominant_conjugate(self.cartan, tuple(nu)), 0)


# ---------------------------------------------------------------------------
# build_irrep

BUILDS = [("A", 2, (6, 6)), ("G", 2, (2, 1)), ("B", 3, (0, 1, 1)),
          ("C", 3, (0, 1, 0)), ("D", 4, (0, 1, 0, 0)), ("A", 3, (1, 0, 0)),
          ("A", 3, (2, 1, 2))]
SLOW_BUILDS = [pytest.param("G", 2, (3, 1), marks=pytest.mark.slow),
               pytest.param("B", 2, (4, 3), marks=pytest.mark.slow)]


def _entry_types(mod):
    mats = [row for m in mod.E + mod.F for row in m.values()]
    grams = [row for data in mod.weights.values() for row in data["gram"]]
    return ({type(v) for row in mats for v in row.values()}
            | {type(v) for row in grams for v in row})


@pytest.mark.parametrize("series,rank,lam", BUILDS + SLOW_BUILDS)
def test_build_irrep_matches_direct_construction(series, rank, lam):
    cartan = build_cartan(series, rank)
    mod = build_irrep(cartan, lam)
    E, F, weights, weight_of = reference_build_irrep(cartan, lam)
    assert mod.E == E
    assert mod.F == F
    assert mod.weights == weights
    assert mod.weight_of == weight_of
    assert mod.dim == len(weight_of) == weyl_dim(cartan, lam)
    assert _entry_types(mod) == {Fraction}


@pytest.mark.parametrize("series,rank,lam", BUILDS)
def test_irrep_columns_are_integral_and_reduced(series, rank, lam):
    """Every E and F column is an integer dict over a positive denominator
    in lowest terms, with no zero entry, and every Gram entry an int; read
    as Fractions they are `build_irrep`'s matrices and Grams."""
    cartan = build_cartan(series, rank)
    E, F, weights, _ = irrep_columns(cartan, lam)
    mod = build_irrep(cartan, lam)
    for cols, rows in zip(E + F, mod.E + mod.F):
        assert sp_transpose(rows) == {
            g: {r: Fraction(v, d) for r, v in n.items()}
            for g, (n, d) in cols.items()}
        for n, d in cols.values():
            assert n and d > 0 and math.gcd(d, *n.values()) == 1
            assert all(type(v) is int and v for v in n.values())
    for depth, data in weights.items():
        assert {type(v) for row in data["gram"] for v in row} == {int}
        assert data["gram"] == mod.weights[depth]["gram"]


# ---------------------------------------------------------------------------
# adjoint_check, end_inner and gram_positive_definite

HS = [GaussianRational(2), GaussianRational(-1),
      GaussianRational(Fraction(3, 5)),
      GaussianRational(Fraction(1, 2), Fraction(-2, 3))]


def _doubled_f(mod, i):
    """The module with one row of F_i doubled, as the benchmark's fault."""
    fs = list(mod.F)
    row = next(iter(fs[i]))
    fs[i] = {**fs[i], row: {c: 2 * v for c, v in fs[i][row].items()}}
    return WeightModule(mod.cartan, mod.lam, mod.dim, mod.E, fs,
                        mod.weights, mod.weight_of)


GOOD = [("A", 2, (1, 1)), ("B", 2, (0, 1)), ("G", 2, (1, 0)),
        ("A", 3, (1, 0, 0)), ("B", 3, (0, 0, 1))]


@pytest.mark.parametrize("series,rank,lam", GOOD)
def test_adjoint_check_matches_dagger(series, rank, lam):
    mod = build_irrep(build_cartan(series, rank), lam)
    assert adjoint_check(mod) == reference_adjoint_check(mod, HS) == (True, None)


@pytest.mark.parametrize("i", [0, 2])
def test_adjoint_check_witness_on_doubled_f(i):
    mod = _doubled_f(build_irrep(build_cartan("A", 3), (1, 0, 0)), i)
    got = adjoint_check(mod)
    assert got == reference_adjoint_check(mod, HS) == (False, (i, "E"))


@pytest.mark.parametrize("series,rank,lam", [("A", 2, (1, 1)),
                                             ("B", 2, (1, 1)),
                                             ("G", 2, (0, 1))])
def test_unitarity_matches_cholesky_coordinates(series, rank, lam):
    """Weight spaces of dimension 2 and more, where L is not the identity;
    the Grams are well conditioned, so the float Cholesky is accurate."""
    mod = build_irrep(build_cartan(series, rank), lam)
    assert any(len(data["basis"]) > 1 for data in mod.weights.values())
    assert unitarity_deviation(mod) < 1e-12
    assert cholesky_unitarity_deviation(mod) < 1e-10
    bad = _doubled_f(mod, rank - 1)
    assert unitarity_deviation(bad) > 1e-6
    assert cholesky_unitarity_deviation(bad) > 1e-6


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 2, (1, 0)), ("A", 3, (1, 0, 0)), ("B", 2, (1, 1)),
    ("G", 2, (1, 0)), ("G", 2, (2, 1)), ("B", 3, (0, 1, 1))])
def test_unitarity_deviation_is_bit_equal_to_ldl_reference(series, rank, lam):
    """The L D L^T read off `Bareiss.of` is the exact factorization the
    reference computes over Q, so every float that follows is the same."""
    mod = build_irrep(build_cartan(series, rank), lam)
    assert unitarity_deviation(mod).hex() \
        == reference_unitarity_deviation(mod).hex()


def test_unitarity_deviation_is_bit_equal_to_ldl_reference_on_doubled_f():
    """The benchmark's changed A3 (1,0,0) module, F_3 doubled on one row."""
    bad = _doubled_f(build_irrep(build_cartan("A", 3), (1, 0, 0)), 2)
    dev = unitarity_deviation(bad)
    assert dev > 1e-6
    assert dev.hex() == reference_unitarity_deviation(bad).hex()


def test_unitarity_deviation_rejects_a_gram_that_is_not_positive_definite():
    """The lowest weight's Gram negated (first minor negative), and a block
    of multiplicity 2 whose second leading minor is exactly 0."""
    mod = build_irrep(build_cartan("A", 3), (1, 0, 0))
    low = list(mod.weights)[-1]
    negated = _with_block(mod, low, [[-v for v in row]
                                     for row in mod.weights[low]["gram"]])
    mod = build_irrep(build_cartan("A", 2), (1, 1))
    depth = next(d for d, data in mod.weights.items()
                 if len(data["basis"]) == 2)
    (a, b), (c, _) = mod.weights[depth]["gram"]
    singular = _with_block(mod, depth, [[a, b], [c, b * c / a]])
    for bad in (negated, singular):
        for dev in (unitarity_deviation, reference_unitarity_deviation):
            with pytest.raises(ValueError, match="not positive definite"):
                dev(bad)


def test_adjoint_check_accepts_rational_arguments():
    mod = build_irrep(build_cartan("B", 2), (1, 0))
    hs = [Fraction(-7, 3), 4, GaussianRational(0, 2)]
    want = reference_adjoint_check(mod, [QI.embed(h) for h in hs])
    assert adjoint_check(mod, hs) == want == (True, None)


def test_end_inner_matches_full_product():
    cartan = build_cartan("A", 2)
    lams = [(1, 0), (0, 1), (2, 1)]
    mods = {lam: build_irrep(cartan, lam) for lam in lams}
    coeffs = []
    for n, lam in enumerate(lams):
        dim = mods[lam].dim
        z = {k: GaussianRational((3 * k + n) % 7 - 3, (k * k + 2 * n) % 5 - 2)
             for k in range(dim)}
        zp = {k: GaussianRational((5 * k + 1) % 7 - 3, (2 * k + n) % 5 - 2)
              for k in range(dim)}
        coeffs.append(MatrixCoefficient(mods[lam], z, zp))
    f = OElement.from_coefficients(mods, coeffs)
    g = OElement.from_coefficients(mods, coeffs[::-1]).scale(
        GaussianRational(1, 2))
    for lam in lams:
        mod, a, b = mods[lam], f.blocks[lam], g.blocks[lam]
        for x, y in ((a, a), (a, b), (b, a)):
            assert end_inner(mod, x, y) == reference_end_inner(mod, x, y)


def _with_block(mod, depth, gram):
    weights = dict(mod.weights)
    weights[depth] = {**weights[depth], "gram": gram}
    return WeightModule(mod.cartan, mod.lam, mod.dim, mod.E, mod.F,
                        weights, mod.weight_of)


def test_gram_positive_definite_matches_minors():
    mod = build_irrep(build_cartan("A", 3), (1, 0, 0))
    low = list(mod.weights)[-1]
    negated = _with_block(mod, low, [[-v for v in row]
                                     for row in mod.weights[low]["gram"]])
    assert mod.gram_positive_definite() == (True, None)
    assert negated.gram_positive_definite() \
        == reference_gram_positive_definite(negated) == (False, (low, 0))
    # a block of multiplicity 2 whose second leading minor is exactly 0
    mod = build_irrep(build_cartan("A", 2), (1, 1))
    depth = next(d for d, data in mod.weights.items()
                 if len(data["basis"]) == 2)
    (a, b), (c, _) = mod.weights[depth]["gram"]
    singular = _with_block(mod, depth, [[a, b], [c, b * c / a]])
    assert singular.gram_positive_definite() \
        == reference_gram_positive_definite(singular) == (False, (depth, 1))


def test_gram_positive_definite_matches_minors_on_b3_211():
    """Weight multiplicities up to 27; then the largest block with its last
    diagonal entry lowered by its last pivot Delta_27 / (scale Delta_26),
    read off `Bareiss.of`, and a half, which makes its last leading minor
    negative and its Gram non-integral."""
    mod = build_irrep(build_cartan("B", 3), (2, 1, 1))
    assert mod.gram_positive_definite() \
        == reference_gram_positive_definite(mod) == (True, None)
    depth, data = max(mod.weights.items(), key=lambda dd: len(dd[1]["basis"]))
    gram = [list(row) for row in data["gram"]]
    fac = Bareiss.of(gram)
    assert len(fac.minors) == 28
    gram[-1][-1] -= Fraction(fac.minors[-1], fac.scale * fac.minors[-2]) \
        + Fraction(1, 2)
    lowered = _with_block(mod, depth, gram)
    assert lowered.gram_positive_definite() \
        == reference_gram_positive_definite(lowered) == (False, (depth, 26))


# ---------------------------------------------------------------------------
# shapovalov_binomial_check, s_second_sum and inner

# each has a weight space of multiplicity 2 or more
MULTI = [("A", 2, (1, 1)), ("B", 2, (1, 1)), ("G", 2, (0, 1)),
         ("A", 3, (1, 0, 1)), ("B", 3, (0, 1, 0)), ("C", 3, (0, 1, 0))]


def _doubled_f_entry(mod, i):
    """The module with one entry of F_i doubled."""
    fs = list(mod.F)
    r = next(iter(fs[i]))
    c = next(iter(fs[i][r]))
    fs[i] = {**fs[i], r: {**fs[i][r], c: 2 * fs[i][r][c]}}
    return WeightModule(mod.cartan, mod.lam, mod.dim, mod.E, fs,
                        mod.weights, mod.weight_of)


@pytest.mark.parametrize("series,rank,lam", MULTI)
def test_module_checks_match_row_scans(series, rank, lam):
    mod = build_irrep(build_cartan(series, rank), lam)
    assert any(len(data["basis"]) > 1 for data in mod.weights.values())
    assert shapovalov_binomial_check(mod) \
        == reference_shapovalov_binomial_check(mod) == (True, None)
    gens = ModuleGenerators(mod)
    for i in range(rank):
        assert gens.s_second_sum(i) == reference_s_second_sum(gens, i)
        assert sp_eq(gens.s_second_sum(i), gens.s_second(i), QQ)
    vecs = [{g: Fraction(g % 5 - 2, g % 3 + 1) for g in range(0, mod.dim, k)}
            for k in (1, 2, 3)]
    for x in vecs:
        for y in vecs:
            assert mod.inner(x, y) == reference_inner(mod, x, y)


@pytest.mark.parametrize("series,rank,lam,i", [("A", 2, (1, 1), 0),
                                               ("A", 3, (1, 0, 0), 2),
                                               ("G", 2, (0, 1), 1),
                                               ("B", 3, (0, 1, 0), 1)])
def test_module_checks_witness_on_doubled_f_entry(series, rank, lam, i):
    mod = _doubled_f_entry(build_irrep(build_cartan(series, rank), lam), i)
    got = shapovalov_binomial_check(mod)
    assert got == reference_shapovalov_binomial_check(mod)
    assert got[0] is False
    gens = ModuleGenerators(mod)
    for j in range(rank):
        assert gens.s_second_sum(j) == reference_s_second_sum(gens, j)
    assert unitarity_deviation(mod) > 1e-6


# ---------------------------------------------------------------------------
# FreudenthalTable, weight_bilinear and longest_word

SMALL_TYPES = ([("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 6)]
               + [("C", r) for r in range(2, 6)] + [("D", 4), ("D", 5)]
               + [("G", 2), ("F", 4)])
ALL_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
             + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
# every fundamental weight of SMALL_TYPES (F4's second among them), and
# weights with several dominant weights below them
FREUDENTHAL = ([(s, r, tuple(int(j == i) for j in range(r)))
                for s, r in SMALL_TYPES for i in range(r)]
               + [("E", 6, (0, 0, 0, 1, 0, 0)), ("B", 3, (2, 1, 1)), ("G", 2, (2, 1)), ("A", 3, (2, 1, 2)),
                  ("C", 3, (1, 1, 1)), ("D", 4, (1, 1, 1, 1))])


@pytest.mark.parametrize("series,rank,lam", FREUDENTHAL)
def test_freudenthal_matches_depth_vector_box(series, rank, lam):
    """Equal tables, in the same order: the character sums of
    `char_orthonormality` add the weights in that order."""
    cartan = build_cartan(series, rank)
    got = FreudenthalTable(cartan, lam).mult
    want = ReferenceFreudenthalTable(cartan, lam).mult
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_longest_word_matches_descent_walk(series, rank):
    cartan = build_cartan(series, rank)
    word = longest_word(cartan)
    assert word == reference_longest_word(cartan)
    assert len(word) == len(root_system(series, rank).positive)


@pytest.mark.parametrize("series,rank", SMALL_TYPES + [("E", 8)])
def test_weight_bilinear_matches_solve(series, rank):
    cartan = build_cartan(series, rank)
    rng = random.Random(rank)
    for _ in range(20):
        mu = tuple(rng.randint(-6, 6) for _ in range(rank))
        nu = tuple(rng.randint(-6, 6) for _ in range(rank))
        got = weight_bilinear(cartan, mu, nu)
        assert isinstance(got, Fraction)
        assert got == reference_weight_bilinear(cartan, mu, nu)
