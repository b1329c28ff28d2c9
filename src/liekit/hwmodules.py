"""Finite-dimensional highest-weight modules over exact rationals.

The irreducible with highest weight lambda is built breadth-first by weight:
every candidate vector F_i b at a new weight gets its E-actions from the
commutation rule E_j F_i = F_i E_j + delta_ij H_j and its pairings from the
contravariance (F_i x, y) = (x, E_i y); each weight space is then quotiented
by the radical of its Gram matrix by greedy pivot selection.  Dimensions and
weight multiplicities are cross-checked against two independent oracles (the
Weyl dimension formula and the Freudenthal recursion).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct

from .exact import (QQ, QI, GaussianRational, dense_inverse, divided_powers,
                    gauss_jordan, leading_principal_minors, solve_linear,
                    sp_add, sp_apply, sp_eq, sp_map, sp_mul, sp_mul_many,
                    sum_powers)
from .rootdata import root_system


# ---------------------------------------------------------------------------
# weight bookkeeping (fundamental-weight coordinates throughout)

def simple_root_fund(cartan, i):
    """alpha_i in fundamental coordinates: j-th entry <alpha_j^vee, alpha_i>."""
    return tuple(cartan.a[j][i] for j in range(len(cartan.a)))


def root_fund(cartan, r):
    """A root given in simple-root coordinates, as a weight."""
    m = len(cartan.a)
    return tuple(sum(r[i] * cartan.a[j][i] for i in range(m)) for j in range(m))


def weight_bilinear(cartan, mu, nu):
    """(mu, nu) with (alpha_j, alpha_j) = 2 d_j; exact rational."""
    m = len(cartan.a)
    amat = [[Fraction(v) for v in row] for row in cartan.a]
    x = solve_linear(amat, [Fraction(v) for v in mu])
    return sum(x[j] * cartan.d[j] * nu[j] for j in range(m))


def dominant_conjugate(cartan, mu):
    """The dominant Weyl-chamber representative of a weight."""
    m = len(cartan.a)
    mu = list(mu)
    while True:
        for i in range(m):
            if mu[i] < 0:
                c = mu[i]
                for j in range(m):
                    mu[j] -= c * cartan.a[j][i]
                break
        else:
            return tuple(mu)


def longest_word(cartan):
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


def weyl_dim(cartan, lam):
    """The Weyl dimension formula, exact."""
    rs = root_system(cartan.series, len(cartan.a))
    rho = (1,) * len(cartan.a)
    num = den = 1
    # the common 1/d_alpha factors cancel between numerator and denominator
    for r in rs.positive:
        num *= sum(r[j] * cartan.d[j] * (lam[j] + rho[j]) for j in range(len(r)))
        den *= sum(r[j] * cartan.d[j] for j in range(len(r)))
    val = Fraction(num, den)
    assert val.denominator == 1
    return int(val)


class FreudenthalTable:
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
        lam_rho_sq = weight_bilinear(cartan, tuple(l + 1 for l in lam),
                                     tuple(l + 1 for l in lam))
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
                        num += mu_mult * weight_bilinear(cartan, up, afund)
            den = lam_rho_sq - weight_bilinear(
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
# the module builder

class WeightModule:
    """An irreducible highest-weight module with exact E/F matrices and a
    per-weight contravariant Gram."""

    def __init__(self, cartan, lam, dim, E, F, weights, weight_of):
        self.cartan = cartan
        self.lam = tuple(lam)
        self.m = len(cartan.a)
        self.dim = dim
        self.E = E  # list of sparse {row: {col: Fraction}}
        self.F = F
        self.weights = weights  # {depth: {"fund","basis","gram","raw_gram","raw_labels"}}
        self.weight_of = weight_of  # global index -> fundamental coords

    def h_value(self, i, g):
        return self.weight_of[g][i]

    def gram_sparse(self):
        out = {}
        for data in self.weights.values():
            basis, gram = data["basis"], data["gram"]
            for a, ga in enumerate(basis):
                for b, gb in enumerate(basis):
                    v = gram[a][b]
                    if v:
                        out.setdefault(ga, {})[gb] = v
        return out

    def gram_inverse_sparse(self):
        out = {}
        for data in self.weights.values():
            basis = data["basis"]
            inv = dense_inverse(data["gram"])
            for a, ga in enumerate(basis):
                for b, gb in enumerate(basis):
                    if inv[a][b]:
                        out.setdefault(ga, {})[gb] = inv[a][b]
        return out

    def inner(self, x, y):
        """Hermitian inner product of coordinate dicts (conjugate-linear in y)."""
        tot = 0
        for data in self.weights.values():
            basis, gram = data["basis"], data["gram"]
            for a, ga in enumerate(basis):
                if ga not in x:
                    continue
                for b, gb in enumerate(basis):
                    if gb in y:
                        tot = x[ga] * y[gb].conjugate() * gram[a][b] + tot
        return tot

    def commutation_check(self):
        """[E_i, F_j] = delta_ij H_i as exact matrix identities."""
        for i in range(self.m):
            for j in range(self.m):
                lhs = sp_add(sp_mul(self.E[i], self.F[j], QQ),
                             sp_mul(self.F[j], self.E[i], QQ), QQ, bsign=-1)
                want = {}
                if i == j:
                    for g in range(self.dim):
                        hv = Fraction(self.h_value(i, g))
                        if hv:
                            want[g] = {g: hv}
                if not sp_eq(lhs, want, QQ):
                    return False, (i, j)
        return True, None

    def serre_check(self):
        """sum_{p+q=1-a_ij} (-1)^q E_i^(p) E_j E_i^(q) = 0, and the F twin."""
        for mats in (self.E, self.F):
            dp = [divided_powers(mats[i], self.dim) for i in range(self.m)]
            for i in range(self.m):
                for j in range(self.m):
                    if i == j:
                        continue
                    nmax = 1 - self.cartan.a[i][j]
                    acc = {}
                    for q in range(nmax + 1):
                        p = nmax - q
                        if p >= len(dp[i]) or q >= len(dp[i]):
                            continue
                        term = sp_mul_many([dp[i][p], mats[j], dp[i][q]], QQ)
                        acc = sp_add(acc, term, QQ,
                                     bsign=-1 if q % 2 else 1)
                    if acc:
                        return False, (i, j, "E" if mats is self.E else "F")
        return True, None

    def gram_positive_definite(self):
        for depth, data in self.weights.items():
            for k, mnr in enumerate(leading_principal_minors(data["gram"])):
                if mnr <= 0:
                    return False, (depth, k)
        return True, None


# the largest module `build_irrep` builds unless asked for a larger one
DIM_CAP = 5000


def build_irrep(cartan, lam, cap=DIM_CAP):
    lam = tuple(lam)
    if any(v < 0 for v in lam):
        raise ValueError("weight is not dominant")
    wdim = weyl_dim(cartan, lam)
    if wdim > cap:
        raise ValueError(
            f"Weyl dimension {wdim} exceeds the configured cap {cap}")
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
            # E_j of each candidate F_i b, as a dict over global indices
            cand_E = []
            for (i, b) in cands:
                mu = weight_of[b]
                evec = [dict() for _ in range(m)]
                for j in range(m):
                    # E_j F_i b = F_i (E_j b) + delta_ij <j, wt b> b
                    ejb = {r: row[b] for r, row in E[j].items() if b in row}
                    acc = sp_apply(F[i], ejb, QQ)
                    if i == j and mu[j]:
                        acc[b] = acc.get(b, Fraction(0)) + mu[j]
                        if not acc[b]:
                            del acc[b]
                    evec[j] = acc
                cand_E.append(evec)
            # candidate Gram via contravariance
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
                    vec = cand_E[c_][i_r]
                    tot = Fraction(0)
                    for g, v in vec.items():
                        _, loc = pos_in_weight[g]
                        tot += gram_up[loc_b][loc] * v
                    C[r_][c_] = tot
            # greedy pivot selection / radical quotient
            pivots = []
            coords = [None] * nc
            gp = []
            for c_ in range(nc):
                col = [C[p][c_] for p in pivots]
                if pivots:
                    x = solve_linear([[gp[a][b] for b in range(len(pivots))]
                                      for a in range(len(pivots))], col)
                else:
                    x = []
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
                if nglobal > cap:
                    raise ValueError(
                        f"module exceeded the configured cap {cap}")
            weights[depth] = {
                "fund": fund, "basis": basis,
                "gram": [[C[p][q] for q in pivots] for p in pivots],
                "raw_gram": C, "raw_labels": list(cands),
            }
            # F columns for every candidate; E columns for pivots
            for c_, (i, b) in enumerate(cands):
                kind, data_ = coords[c_]
                if kind == "pivot":
                    g = basis[data_]
                    F[i].setdefault(g, {})[b] = Fraction(1)
                else:
                    for k_, v in enumerate(data_):
                        if v:
                            F[i].setdefault(basis[k_], {})[b] = \
                                F[i].get(basis[k_], {}).get(b, Fraction(0)) + v
            for k_, p in enumerate(pivots):
                g = basis[k_]
                for j in range(m):
                    for r, v in cand_E[p][j].items():
                        if v:
                            E[j].setdefault(r, {})[g] = v
            newlevel.append(depth)
        level = newlevel
    mod = WeightModule(cartan, lam, nglobal, E, F, weights, weight_of)
    if mod.dim != wdim:
        raise ArithmeticError(
            f"built dimension {mod.dim} != Weyl formula {wdim}")
    return mod


def direct_sum(mods):
    """Block direct sum of modules over the same Cartan datum."""
    cartan = mods[0].cartan
    m = mods[0].m
    dim = sum(mm.dim for mm in mods)
    E = [{} for _ in range(m)]
    F = [{} for _ in range(m)]
    weight_of = []
    weights = {}
    off = 0
    for t, mm in enumerate(mods):
        for i in range(m):
            for r, row in mm.E[i].items():
                E[i].setdefault(r + off, {}).update(
                    {c + off: v for c, v in row.items()})
            for r, row in mm.F[i].items():
                F[i].setdefault(r + off, {}).update(
                    {c + off: v for c, v in row.items()})
        weight_of.extend(mm.weight_of)
        for depth, data in mm.weights.items():
            weights[(t,) + depth] = {
                "fund": data["fund"],
                "basis": [g + off for g in data["basis"]],
                "gram": data["gram"],
                "raw_gram": data["raw_gram"],
                "raw_labels": data["raw_labels"],
            }
        off += mm.dim
    out = WeightModule(cartan, mods[0].lam, dim, E, F, weights, weight_of)
    return out


# ---------------------------------------------------------------------------
# the contravariant-form binomial identity

def shapovalov_binomial_check(mod):
    """For each weight and each j: every y with E_j y = 0 satisfies
    (F_j^(s) y, F_j^(s) y) = binom(<j, wt y>, s) (y, y) exactly."""
    m = mod.m
    for depth, data in mod.weights.items():
        basis = data["basis"]
        for j in range(m):
            # exact kernel of E_j on this weight space
            rows = {}
            for g in basis:
                col = {r: row[g] for r, row in mod.E[j].items() if g in row}
                for r, v in col.items():
                    rows.setdefault(r, {})[g] = v
            kernel = _nullspace(rows, basis)
            n = data["fund"][j]
            for y in kernel:
                if n < 0:
                    return False, (depth, j, "negative weight primitive")
                norm_y = mod.inner(y, y)
                z = dict(y)
                for s in range(1, n + 2):
                    z = sp_apply(mod.F[j], z, QQ)
                    z = {k: v / s for k, v in z.items()}
                    want = math.comb(n, s) * norm_y if s <= n else 0
                    if mod.inner(z, z) != want:
                        return False, (depth, j, s)
    return True, None


def _nullspace(rows, cols):
    """Exact nullspace of the sparse matrix (restricted to `cols`) as
    coordinate dicts over the global column labels."""
    collist = list(cols)
    mat = [[row.get(c, Fraction(0)) for c in collist] for row in rows.values()]
    pivots = gauss_jordan(mat, len(collist))
    out = []
    for fcol in range(len(collist)):
        if fcol in pivots:
            continue
        vec = {collist[fcol]: Fraction(1)}
        for prow, pcol in enumerate(pivots):
            v = -mat[prow][fcol]
            if v:
                vec[collist[pcol]] = v
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# one-parameter generators on a module

class ModuleGenerators:
    """x_i(h), y_i(h), the reflection s''_i and the torus element t_i(u),
    acting on a WeightModule; divided-power tables cached once."""

    def __init__(self, mod: WeightModule):
        self.mod = mod
        self.ex = [divided_powers(mod.E[i], mod.dim) for i in range(mod.m)]
        self.fx = [divided_powers(mod.F[i], mod.dim) for i in range(mod.m)]

    def x(self, i, h, dom=QQ):
        return sum_powers(self.ex[i], h, dom)

    def y(self, i, h, dom=QQ):
        return sum_powers(self.fx[i], h, dom)

    def s_second(self, i, dom=QQ):
        one = dom.one
        return sp_mul_many([self.x(i, one, dom),
                            self.y(i, dom.neg(one), dom),
                            self.x(i, one, dom)], dom)

    def s_second_sum(self, i, dom=QQ):
        """The double-sum form: sum over l+m = <i, mu> of
        (-1)^l F_i^(l) 1_mu E_i^(m)."""
        mod = self.mod
        out = {}
        for mi, emat in enumerate(self.ex[i]):
            # project E_i^(m) image onto its weight, then apply F^(l)
            for lpow, fmat in enumerate(self.fx[i]):
                sign = -1 if lpow % 2 else 1
                for g in range(mod.dim):
                    if mod.weight_of[g][i] + 2 * mi != lpow + mi:
                        continue
                    # middle weight mu has <i,mu> = l + m
                    col = {r: row[g] for r, row in emat.items() if g in row}
                    col = {r: v for r, v in col.items()
                           if mod.weight_of[r][i] == lpow + mi}
                    img = sp_apply(fmat, col, QQ)
                    for r, v in img.items():
                        w = out.get(r, {}).get(g, Fraction(0)) + sign * v
                        if w:
                            out.setdefault(r, {})[g] = w
                        elif g in out.get(r, {}):
                            del out[r][g]
        return {r: row for r, row in out.items() if row}

    def t_torus(self, i, u, dom=QQ):
        if dom.is_zero(u):
            raise ValueError("torus parameter must be invertible")
        one = dom.one
        uinv = dom.inv(u)
        return sp_mul_many([
            self.x(i, dom.sub(u, one), dom),
            self.y(i, one, dom),
            self.x(i, dom.sub(uinv, one), dom),
            self.y(i, dom.neg(u), dom)], dom)

    def t_torus_diagonal(self, i, u, dom=QQ):
        """The claimed closed form: diagonal with entries u^{<i, mu>}."""
        out = {}
        for g in range(self.mod.dim):
            out[g] = {g: dom.power(u, self.mod.weight_of[g][i])}
        return out


# ---------------------------------------------------------------------------
# adjoints and unitarity

def dagger(mod, mat, dom=QI):
    """Adjoint with respect to the hermitian Gram: G^{-1} M^H G."""
    g = mod.gram_sparse()
    ginv = mod.gram_inverse_sparse()
    mh = {}
    for r, row in mat.items():
        for c, v in row.items():
            mh.setdefault(c, {})[r] = dom.conj(v)
    return sp_mul_many([sp_map(ginv, dom.embed), mh, sp_map(g, dom.embed)],
                       dom)


def adjoint_check(mod, hs=None):
    """x_i(h)^dagger = y_i(conj h) and E^dagger = F, exact over Q(i)."""
    gens = ModuleGenerators(mod)
    if hs is None:
        hs = [GaussianRational(2), GaussianRational(-1),
              GaussianRational(Fraction(3, 5)),
              GaussianRational(Fraction(1, 2), Fraction(-2, 3))]
    for i in range(mod.m):
        emat = sp_map(mod.E[i], QI.embed)
        fmat = sp_map(mod.F[i], QI.embed)
        if not sp_eq(dagger(mod, emat), fmat, QI):
            return False, (i, "E")
        for h in hs:
            lhs = dagger(mod, gens.x(i, h, QI))
            rhs = gens.y(i, h.conjugate(), QI)
            if not sp_eq(lhs, rhs, QI):
                return False, (i, h)
    return True, None


def unitarity_deviation(mod, ts=(0.37, 1.1)):
    """exp(t(E_i - F_i)) and exp(it(E_i + F_i)) are unitary for the
    hermitian inner product; returns the worst |U U^H - I| entry in the
    orthonormalized coordinates."""
    import numpy as np
    from scipy.linalg import expm
    n = mod.dim
    g = np.zeros((n, n))
    for r, row in mod.gram_sparse().items():
        for c, v in row.items():
            g[r, c] = float(v)
    L = np.linalg.cholesky(g)

    def dense(mat):
        out = np.zeros((n, n))
        for r, row in mat.items():
            for c, v in row.items():
                out[r, c] = float(v)
        return out

    worst = 0.0
    linv = np.linalg.inv(L)
    for i in range(mod.m):
        e, f = dense(mod.E[i]), dense(mod.F[i])
        for base in (e - f, 1j * (e + f)):
            for t in ts:
                u = L.T @ expm(t * base) @ linv.T
                worst = max(worst, float(
                    np.abs(u @ u.conj().T - np.eye(n)).max()))
    return worst


# ---------------------------------------------------------------------------
# injectivity probe for the unipotent parametrization

def xh_injectivity_probe(cartan, samples=100, seed=20240820):
    """On the direct sum of all fundamental modules, the map
    h = (h_1..h_N) -> x_{i_1}(h_1)...x_{i_N}(h_N) along a reduced word for
    the longest element is injective on random samples."""
    import random
    m = len(cartan.a)
    mods = [build_irrep(cartan, tuple(1 if k == i else 0 for k in range(m)))
            for i in range(m)]
    mod = direct_sum(mods)
    gens = ModuleGenerators(mod)
    word = longest_word(cartan)
    rng = random.Random(seed)
    seen = {}
    drawn = set()
    while len(drawn) < samples:
        h = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 7))
                  for _ in word)
        if h in drawn:
            continue
        drawn.add(h)
        mat = sp_mul_many([gens.x(i, hv, QQ) for i, hv in zip(word, h)], QQ)
        key = tuple(sorted((r, c, v) for r, row in mat.items()
                           for c, v in row.items()))
        if key in seen and seen[key] != h:
            return False, (h, seen[key])
        seen[key] = h
    return True, len(seen)
