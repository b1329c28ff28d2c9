"""The module layer against its direct exact algorithms.

`build_irrep` selects pivots by an incremental LDL^T and reads E and F by
column; `adjoint_check` tests M^H G == G N with no inverse; `end_inner` sums
only the trace of B* A; `gram_positive_definite` reads the LDL^T pivots.  The
references below are the direct algorithms they replace: a fresh
`solve_linear` of the pivot Gram for every candidate, row scans of E and F,
the adjoint G^{-1} M^H G over Q(i), the full product B* A and every leading
principal minor.  Each fast path must agree with its reference exactly.
"""

from fractions import Fraction

import pytest

from liekit.exact import (QI, QQ, GaussianRational, dense_inverse,
                          leading_principal_minors, solve_linear, sp_apply,
                          sp_eq, sp_map, sp_mul, sp_mul_many)
from liekit.hwmodules import (ModuleGenerators, WeightModule, adjoint_check,
                              build_irrep, unitarity_deviation, weyl_dim)
from liekit.peterweyl import MatrixCoefficient, OElement, end_inner
from liekit.rootdata import build_cartan


# ---------------------------------------------------------------------------
# references

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
                     "raw_gram": [[Fraction(1)]], "raw_labels": [None]}
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
                "raw_gram": C, "raw_labels": list(cands),
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


def reference_unitarity_deviation(mod, ts=(0.37, 1.1)):
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


def reference_gram_positive_definite(mod):
    for depth, data in mod.weights.items():
        for k, mnr in enumerate(leading_principal_minors(data["gram"])):
            if mnr <= 0:
                return False, (depth, k)
    return True, None


# ---------------------------------------------------------------------------
# build_irrep

BUILDS = [("A", 2, (6, 6)), ("G", 2, (2, 1)), ("B", 3, (0, 1, 1)),
          ("C", 3, (0, 1, 0)), ("D", 4, (0, 1, 0, 0)), ("A", 3, (1, 0, 0))]


def _entry_types(mod):
    mats = [row for m in mod.E + mod.F for row in m.values()]
    grams = [row for data in mod.weights.values()
             for key in ("gram", "raw_gram") for row in data[key]]
    return ({type(v) for row in mats for v in row.values()}
            | {type(v) for row in grams for v in row})


@pytest.mark.parametrize("series,rank,lam", BUILDS)
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
    assert reference_unitarity_deviation(mod) < 1e-10
    bad = _doubled_f(mod, rank - 1)
    assert unitarity_deviation(bad) > 1e-6
    assert reference_unitarity_deviation(bad) > 1e-6


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
