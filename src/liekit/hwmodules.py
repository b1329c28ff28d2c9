"""Finite-dimensional highest-weight modules over exact rationals.

The irreducible with highest weight lambda is built breadth-first by weight:
every candidate vector F_i b at a new weight gets its E-actions from the
commutation rule E_j F_i = F_i E_j + delta_ij H_j and its pairings from the
contravariance (F_i x, y) = (x, E_i y); each weight space is then quotiented
by the radical of its Gram matrix: the candidates are taken in order into an
incremental exact LDL^T of the Gram of those kept, a nonzero residual makes a
candidate a new basis vector and a zero one expresses it in the basis so far.
Dimensions and weight multiplicities are cross-checked against two
independent oracles (the Weyl dimension formula and the Freudenthal
recursion).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct

from .exact import (LDL, QQ, QI, GaussianRational, dense_inverse,
                    divided_powers, gauss_jordan, solve_linear, sp_add,
                    sp_apply, sp_eq, sp_map, sp_mul, sp_mul_many, sum_powers)
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
        self._gram = self._gram_inverse = None

    def h_value(self, i, g):
        return self.weight_of[g][i]

    def _block_sparse(self, block_of):
        """The block-diagonal matrix with block_of(weight data) on each
        weight space, as a sparse matrix over global indices."""
        out = {}
        for data in self.weights.values():
            basis, blk = data["basis"], block_of(data)
            for a, ga in enumerate(basis):
                row = {gb: v for gb, v in zip(basis, blk[a]) if v}
                if row:
                    out[ga] = row
        return out

    def gram_sparse(self):
        """The Gram as a sparse matrix, built once per module; the dict is
        shared between callers, who must not change it."""
        if self._gram is None:
            self._gram = self._block_sparse(lambda data: data["gram"])
        return self._gram

    def gram_inverse_sparse(self):
        """The inverse Gram, built once per module like `gram_sparse`."""
        if self._gram_inverse is None:
            self._gram_inverse = self._block_sparse(
                lambda data: dense_inverse(data["gram"]))
        return self._gram_inverse

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
        """Every weight block's LDL^T pivots are positive; otherwise (depth, k)
        of the first pivot that is not, which is where the first leading
        minor that is not positive sits."""
        for depth, data in self.weights.items():
            d = LDL.of(data["gram"]).d
            if d[-1] <= 0:
                return False, (depth, len(d) - 1)
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
    # column views beside the row dicts: Ecol[j][g] is column g of E[j]
    Ecol = [{} for _ in range(m)]
    Fcol = [{} for _ in range(m)]
    weights = {}
    weight_of = []
    local = []  # global index -> its position in its weight's basis

    def fund_of(depth):
        return tuple(lam[j] - sum(depth[i] * cartan.a[j][i] for i in range(m))
                     for j in range(m))

    zero = (0,) * m
    weights[zero] = {"fund": lam, "basis": [0], "gram": [[Fraction(1)]],
                     "raw_gram": [[Fraction(1)]], "raw_labels": [None]}
    weight_of.append(lam)
    local.append(0)
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
            # E_j of each candidate F_i b, as a dict over global indices:
            # E_j F_i b = F_i (E_j b) + delta_ij <j, wt b> b
            cand_E = []
            for (i, b) in cands:
                mu = weight_of[b]
                fcol = Fcol[i]
                evec = []
                for j in range(m):
                    acc = {}
                    for c, v in Ecol[j].get(b, {}).items():
                        for r, w in fcol.get(c, {}).items():
                            acc[r] = acc[r] + w * v if r in acc else w * v
                    if i == j and mu[j]:
                        acc[b] = acc.get(b, Fraction(0)) + mu[j]
                    evec.append({r: v for r, v in acc.items() if v})
                cand_E.append(evec)
            # candidate Gram via contravariance: (F_i b, y) = (b, E_i y); the
            # form is symmetric, so each pair is computed once
            nc = len(cands)
            C = [[None] * nc for _ in range(nc)]
            for r_, (i_r, b_r) in enumerate(cands):
                up = list(depth)
                up[i_r] -= 1
                grow = weights[tuple(up)]["gram"][local[b_r]]
                for c_ in range(r_, nc):
                    C[r_][c_] = C[c_][r_] = sum(
                        (grow[local[g]] * v for g, v in cand_E[c_][i_r].items()),
                        Fraction(0))
            # radical quotient: a candidate whose residual against the
            # pivots so far is nonzero is a new pivot of the LDL^T of the
            # pivot Gram; any other is a combination of the pivots
            ldl = LDL()
            pivots = []
            coords = []
            for c_ in range(nc):
                resid, z = ldl.reduce([C[p][c_] for p in pivots], C[c_][c_])
                if resid:
                    coords.append(("pivot", len(pivots)))
                    pivots.append(c_)
                    ldl.push(z, resid)
                else:
                    coords.append(("span", ldl.back(z)))
            if not pivots:
                continue
            basis = list(range(nglobal, nglobal + len(pivots)))
            nglobal += len(pivots)
            if nglobal > cap:
                raise ValueError(f"module exceeded the configured cap {cap}")
            weight_of.extend([fund] * len(pivots))
            local.extend(range(len(pivots)))
            weights[depth] = {
                "fund": fund, "basis": basis,
                "gram": [[C[p][q] for q in pivots] for p in pivots],
                "raw_gram": C, "raw_labels": list(cands),
            }
            # F columns for every candidate; E columns for pivots
            for c_, (i, b) in enumerate(cands):
                kind, x = coords[c_]
                if kind == "pivot":
                    col = {basis[x]: Fraction(1)}
                else:
                    col = {basis[k]: v for k, v in enumerate(x) if v}
                if col:
                    Fcol[i][b] = col
                for g, v in col.items():
                    F[i].setdefault(g, {})[b] = v
            for k, p in enumerate(pivots):
                g = basis[k]
                for j in range(m):
                    Ecol[j][g] = cand_E[p][j]
                    for r, v in cand_E[p][j].items():
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

def _conj_transpose(mat, dom):
    out = {}
    for r, row in mat.items():
        for c, v in row.items():
            out.setdefault(c, {})[r] = dom.conj(v)
    return out


def dagger(mod, mat, dom=QI):
    """Adjoint with respect to the hermitian Gram: G^{-1} M^H G."""
    return sp_mul_many([sp_map(mod.gram_inverse_sparse(), dom.embed),
                        _conj_transpose(mat, dom),
                        sp_map(mod.gram_sparse(), dom.embed)], dom)


def _is_adjoint(mat, other, gram, dom):
    """M^H G == G N: (M x, y) = (x, N y) for all x, y, which for the
    nondegenerate Gram of a module is M^dagger = N with no inverse formed."""
    return sp_eq(sp_mul(_conj_transpose(mat, dom), gram, dom),
                 sp_mul(gram, other, dom), dom)


def adjoint_check(mod, hs=None):
    """x_i(h)^dagger = y_i(conj h) and E^dagger = F, exact; over Q for E and
    for real h, over Q(i) otherwise."""
    gens = ModuleGenerators(mod)
    if hs is None:
        hs = [GaussianRational(2), GaussianRational(-1),
              GaussianRational(Fraction(3, 5)),
              GaussianRational(Fraction(1, 2), Fraction(-2, 3))]
    gram = mod.gram_sparse()
    gram_qi = sp_map(gram, QI.embed)
    for i in range(mod.m):
        if not _is_adjoint(mod.E[i], mod.F[i], gram, QQ):
            return False, (i, "E")
        for h in hs:
            hq = QI.embed(h)
            if hq.im == 0:
                ok = _is_adjoint(gens.x(i, hq.re, QQ), gens.y(i, hq.re, QQ),
                                 gram, QQ)
            else:
                ok = _is_adjoint(gens.x(i, hq, QI),
                                 gens.y(i, hq.conjugate(), QI), gram_qi, QI)
            if not ok:
                return False, (i, h)
    return True, None


def unitarity_deviation(mod, ts=(0.37, 1.1)):
    """exp(t(E_i - F_i)) and exp(it(E_i + F_i)) are unitary for the
    hermitian inner product; returns the worst |U U^H - I| entry in the
    orthonormalized coordinates.

    Each weight block of the Gram is factored exactly as L D L^T, so
    u = D^{1/2} L^T x are orthonormal coordinates and an operator M becomes
    D^{1/2} (L^T M L^{-T}) D^{-1/2}.  The middle factor is exact; only the
    scale sqrt(d_i / d_j) is taken in float, so the error does not grow
    with the condition of the Gram."""
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

    def orthonormal(mat):
        out = np.zeros((n, n))
        for r, row in sp_mul_many([lt, mat, lt_inv], QQ).items():
            for c, v in row.items():
                out[r, c] = float(v)
        return out * sqrt_d[:, None] / sqrt_d[None, :]

    worst = 0.0
    for i in range(mod.m):
        e, f = orthonormal(mod.E[i]), orthonormal(mod.F[i])
        for base in (e - f, 1j * (e + f)):
            for t in ts:
                u = expm(t * base)
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
