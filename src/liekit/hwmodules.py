"""Finite-dimensional highest-weight modules, exact.

The irreducible with highest weight lambda is built breadth-first by weight,
on integers: every candidate vector F_i b at a new weight gets its E-actions
from the commutation rule E_j F_i = F_i E_j + delta_ij H_j and its pairings
from the contravariance (F_i x, y) = (x, E_i y).  Every basis vector is a
monomial in the F_i applied to v_lambda, so the Gram of the candidates is
integral, and each E and F column is held as an integer dict over one
denominator.  Each weight space is quotiented by the radical of that Gram:
the candidates are taken in order into an incremental fraction-free
(Bareiss) elimination, a nonzero bordered minor makes a candidate a new
basis vector and a zero one expresses it in the basis so far.  The finished
module holds its E, F and Grams as `Fraction`s.
Dimensions and weight multiplicities are cross-checked against two
independent oracles: the Weyl dimension formula, and the Freudenthal
recursion, run on the dominant weights only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .exact import (QQ, QI, Bareiss, components, dense_inverse,
                    divided_powers, ff_column, ff_pairing, gauss_jordan,
                    sp_add, sp_eq, sp_identity, sp_map, sp_mul, sp_mul_many,
                    sp_transpose, sum_powers)
from .rootdata import root_system


# ---------------------------------------------------------------------------
# weight bookkeeping (fundamental-weight coordinates throughout)

def root_fund(cartan, r):
    """A root given in simple-root coordinates, as a weight."""
    m = len(cartan.a)
    return tuple(sum(r[i] * cartan.a[j][i] for i in range(m)) for j in range(m))


@lru_cache(maxsize=None)
def _weight_form(cartan):
    """F[i][k] = (a^{-1})[k][i] d_k, so that (mu, nu) = sum mu_i F[i][k] nu_k;
    built once per Cartan datum."""
    ainv = dense_inverse(cartan.a)
    return tuple(tuple(ainv[k][i] * d for k, d in enumerate(cartan.d))
                 for i in range(len(ainv)))


def weight_bilinear(cartan, mu, nu):
    """(mu, nu) with (alpha_j, alpha_j) = 2 d_j; exact rational."""
    return sum(mu_i * sum(map(mul, row, nu))
               for mu_i, row in zip(mu, _weight_form(cartan)))


def dominant_conjugate(cartan, mu):
    """The dominant Weyl-chamber representative of a weight: mu reflected
    by the first simple reflection s_i with <mu, alpha_i^vee> < 0 until it
    is dominant."""
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
    """Weight multiplicities of the irreducible with highest weight lam, by
    the Freudenthal recursion on its dominant weights only: these are
    reached from lam by positive-root steps through dominant weights
    (Stembridge, Adv. Math. 136, 1998) and taken by depth, the height of
    lam - nu = sum n_j alpha_j.  Every pairing is an integer, as (nu, alpha)
    = sum r_j d_j nu_j for alpha = sum r_j alpha_j."""

    def __init__(self, cartan, lam):
        self.cartan = cartan
        self.lam = tuple(lam)
        rs = root_system(cartan.series, len(cartan.a))
        steps = [(root_fund(cartan, r), r, tuple(map(mul, r, cartan.d)))
                 for r in rs.positive]
        depth = {self.lam: (0,) * len(self.lam)}
        todo = [self.lam]
        while todo:
            nu = todo.pop()
            for afund, r, _ in steps:
                mu = tuple(map(sub, nu, afund))
                if min(mu) >= 0 and mu not in depth:
                    depth[mu] = tuple(map(add, depth[nu], r))
                    todo.append(mu)
        order = sorted(depth, key=lambda nu: (sum(depth[nu]), depth[nu]))
        self.mult = {self.lam: 1}
        for nu in order[1:]:
            num = 0
            for afund, _, rd in steps:
                # alpha-strings are unbroken (Humphreys 21.3), so the first
                # nu + k alpha of multiplicity 0 ends the string
                up = tuple(map(add, nu, afund))
                while up_mult := self.multiplicity(up):
                    num += up_mult * sum(map(mul, up, rd))
                    up = tuple(map(add, up, afund))
            # (lam + rho)^2 - (nu + rho)^2 = (lam + nu + 2 rho, lam - nu)
            den = sum(nj * dj * (l + v + 2) for nj, dj, l, v in
                      zip(depth[nu], cartan.d, self.lam, nu))
            val, rem = divmod(2 * num, den)
            assert rem == 0
            self.mult[nu] = val

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
        self.weights = weights  # {depth: {"fund","basis","gram","raw_labels"}}
        self.weight_of = weight_of  # global index -> fundamental coords
        self._gram = self._gram_inverse = self._generators = None

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

    def generators(self):
        """The module's `ModuleGenerators`, built once per module like
        `gram_sparse`."""
        if self._generators is None:
            self._generators = ModuleGenerators(self)
        return self._generators

    def inner(self, x, y):
        """Hermitian inner product of coordinate dicts (conjugate-linear in y),
        read from the Gram rows of x's support."""
        gram = self.gram_sparse()
        tot = 0
        for a, xa in x.items():
            for b, g in gram.get(a, {}).items():
                if b in y:
                    tot = xa * y[b].conjugate() * g + tot
        return tot

    def gram_positive_definite(self):
        """Every leading minor of every weight Gram is positive; otherwise
        (depth, k) of the first minor Delta_{k+1} that is not.  The minors
        come from `Bareiss.of`, which stops at the first that is not."""
        for depth, data in self.weights.items():
            minors = Bareiss.of(data["gram"]).minors
            if minors[-1] <= 0:
                return False, (depth, len(minors) - 2)
        return True, None


# the largest module `build_irrep` builds unless asked for a larger one
DIM_CAP = 5000


def irrep_columns(cartan, lam, cap=DIM_CAP):
    """V(lam) on integers: (E, F, weights, weight_of) with E[j] and F[i]
    held by columns, {g: (N, d)}, each column an integer dict N over one
    denominator d in lowest terms (`ff_column`), and integer weight Grams.

    Every basis vector and every candidate F_i b is a monomial in the F_i
    applied to v_lam, so every pairing of two of them is an integer; one
    that is not raises ArithmeticError (`ff_pairing`).  Each weight's
    candidates go in order into a `Bareiss` elimination of their Gram: a
    nonzero bordered minor makes a candidate a new basis vector, and a zero
    one expresses it in the basis so far, with integer coordinates over the
    leading minor Delta_k."""
    lam = tuple(lam)
    if any(v < 0 for v in lam):
        raise ValueError("weight is not dominant")
    wdim = weyl_dim(cartan, lam)
    if wdim > cap:
        raise ValueError(
            f"Weyl dimension {wdim} exceeds the configured cap {cap}")
    m = len(cartan.a)
    # E[j][g] is column g of E_j; F[i][b] is column b of F_i
    E = [{} for _ in range(m)]
    F = [{} for _ in range(m)]
    zero_col = ({}, 1)
    # gram_row[g]: row g of its weight's Gram, over global indices
    gram_row = {0: {0: 1}}
    zero = (0,) * m
    weights = {zero: {"fund": lam, "basis": [0], "gram": [[1]],
                      "raw_labels": [None]}}
    weight_of = [lam]
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
            fund = tuple(map(sub, lam, root_fund(cartan, depth)))
            # E_j of each candidate F_i b, as a column (N, d):
            # E_j F_i b = F_i (E_j b) + delta_ij <j, wt b> b
            cand_E = []
            for (i, b) in cands:
                mu_i = weight_of[b][i]
                fcols = F[i]
                evec = []
                for j in range(m):
                    nb, db = E[j].get(b, zero_col)
                    terms = [(v, fcols[c]) for c, v in nb.items() if c in fcols]
                    den = math.lcm(*(dc for _, (_, dc) in terms))
                    acc = {}
                    for v, (nc, dc) in terms:
                        f = v * (den // dc)
                        for r, w in nc.items():
                            acc[r] = acc[r] + w * f if r in acc else w * f
                    den *= db
                    if i == j and mu_i:
                        acc[b] = acc.get(b, 0) + mu_i * den
                    evec.append(ff_column(acc, den))
                cand_E.append(evec)
            # radical quotient: the Gram entries a candidate needs come by
            # contravariance, (F_i b, y) = (b, E_i y), against the pivots so
            # far and itself
            nglobal = len(weight_of)
            elim = Bareiss()
            pivots = []
            gram = []
            cols = []
            for c_, (i, b) in enumerate(cands):
                evec = cand_E[c_]
                col = [ff_pairing(gram_row[cands[p][1]], evec[cands[p][0]])
                       for p in pivots]
                diag = ff_pairing(gram_row[b], evec[i])
                minor, v = elim.reduce(col, diag)
                if minor:
                    cols.append(({nglobal + len(pivots): 1}, 1))
                    for grow, x in zip(gram, col):
                        grow.append(x)
                    gram.append(col + [diag])
                    pivots.append(c_)
                    elim.push(v, minor)
                else:
                    y = elim.span(v)
                    cols.append(ff_column(
                        {nglobal + k: yk for k, yk in enumerate(y)},
                        elim.minors[-1]))
            if not pivots:
                continue
            basis = list(range(nglobal, nglobal + len(pivots)))
            if basis[-1] >= cap:
                raise ValueError(f"module exceeded the configured cap {cap}")
            weight_of.extend([fund] * len(pivots))
            weights[depth] = {"fund": fund, "basis": basis, "gram": gram,
                              "raw_labels": list(cands)}
            for g, grow in zip(basis, gram):
                gram_row[g] = dict(zip(basis, grow))
            for col, (i, b) in zip(cols, cands):
                if col[0]:
                    F[i][b] = col
            for g, p in zip(basis, pivots):
                for j in range(m):
                    if cand_E[p][j][0]:
                        E[j][g] = cand_E[p][j]
            newlevel.append(depth)
        level = newlevel
    if len(weight_of) != wdim:
        raise ArithmeticError(
            f"built dimension {len(weight_of)} != Weyl formula {wdim}")
    return E, F, weights, weight_of


def _fraction_rows(cols):
    """The sparse matrix {row: {col: Fraction}} of columns held as (N, d)."""
    out = {}
    for g, (n, d) in cols.items():
        for r, v in n.items():
            out.setdefault(r, {})[g] = Fraction(v, d)
    return out


def build_irrep(cartan, lam, cap=DIM_CAP):
    """The irreducible `WeightModule` with highest weight lam, built on
    integers by `irrep_columns`.  `Fraction`s are made only here, at the
    boundary: the entries of E, F and of every weight's Gram."""
    E, F, weights, weight_of = irrep_columns(cartan, lam, cap)
    for data in weights.values():
        data["gram"] = [[Fraction(v) for v in row] for row in data["gram"]]
    # in place, so that each matrix's integer columns go as it is converted
    for mats in (E, F):
        for j, cols in enumerate(mats):
            mats[j] = _fraction_rows(cols)
    return WeightModule(cartan, lam, len(weight_of), E, F, weights, weight_of)


# ---------------------------------------------------------------------------
# the contravariant-form binomial identity

def shapovalov_binomial_check(mod):
    """For each weight and each j: every y with E_j y = 0 satisfies
    (F_j^(s) y, F_j^(s) y) = binom(<j, wt y>, s) (y, y) exactly."""
    ecols = [sp_transpose(e) for e in mod.E]
    fcols = [sp_transpose(f) for f in mod.F]
    for depth, data in mod.weights.items():
        basis = data["basis"]
        for j in range(mod.m):
            # exact kernel of E_j on this weight space
            rows = {}
            for g in basis:
                for r, v in ecols[j].get(g, {}).items():
                    rows.setdefault(r, {})[g] = v
            kernel = _nullspace(rows, basis)
            n = data["fund"][j]
            for y in kernel:
                if n < 0:
                    return False, (depth, j, "negative weight primitive")
                norm_y = mod.inner(y, y)
                z = dict(y)
                for s in range(1, n + 2):
                    z = sp_mul({0: z}, fcols[j], QQ).get(0, {})
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
        return sum_powers(self.ex[i], dom.powers(h, len(self.ex[i])), dom)

    def y(self, i, h, dom=QQ):
        return sum_powers(self.fx[i], dom.powers(h, len(self.fx[i])), dom)

    def s_second(self, i, dom=QQ):
        one = dom.one
        return sp_mul_many([self.x(i, one, dom),
                            self.y(i, dom.neg(one), dom),
                            self.x(i, one, dom)], dom)

    def s_second_sum(self, i):
        """The double-sum form: sum over l+m = <i, mu> of
        (-1)^l F_i^(l) 1_mu E_i^(m).  E_i^(m) takes a vector of weight nu to
        weight nu + m alpha_i, so 1_mu E_i^(m) keeps the columns g of E_i^(m)
        with <i, wt g> = l - m."""
        wt = [w[i] for w in self.mod.weight_of]
        out = {}
        for mi, emat in enumerate(self.ex[i]):
            # E_i^(m) split by the <i, wt g> of its columns g
            parts = {}
            for r, row in emat.items():
                for g, v in row.items():
                    parts.setdefault(wt[g] + mi, {}).setdefault(r, {})[g] = v
            for lpow, fmat in enumerate(self.fx[i]):
                if lpow in parts:
                    out = sp_add(out, sp_mul(fmat, parts[lpow], QQ), QQ,
                                 bsign=-1 if lpow % 2 else 1)
        return out

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
    return sp_mul_many([sp_map(mod.gram_inverse_sparse(), dom.embed),
                        sp_map(sp_transpose(mat), dom.conj),
                        sp_map(mod.gram_sparse(), dom.embed)], dom)


def _is_adjoint(mat, other, gram):
    """M^T G == G N over Q: (M x, y) = (x, N y) for all x, y, which for the
    nondegenerate Gram of a module is M^dagger = N with no inverse formed."""
    return sp_eq(sp_mul(sp_transpose(mat), gram, QQ), sp_mul(gram, other, QQ),
                 QQ)


def _divided_power_failure(table, gen, dim):
    """The first k at which the table [M_0, M_1, ...], with M_k = 0 past its
    end, breaks M_0 = I or k M_k = gen M_{k-1}; None if there is none, and
    then M_k = gen^k / k! for every k."""
    want = sp_identity(dim, QQ)
    for k, mat in enumerate(table + [{}]):
        if not sp_eq(mat, want, QQ):
            return k
        want = sp_map(sp_mul(gen, mat, QQ), lambda v: v / (k + 1))
    return None


def adjoint_check(mod):
    """E_i^dagger = F_i for every i, exact over Q; then the divided-power law
    on the cached x_i and y_i tables, so x_i(h)^dagger = y_i(conj h) for
    every h: dagger is conjugate-linear and reverses products, so
    (E_i^k / k!)^dagger = F_i^k / k!.  Every E line is checked first: a
    failure (i, "E") names the first i that fails, and one
    (i, "x" | "y", k), at M_k of a table, means every E line held."""
    gram = mod.gram_sparse()
    for i in range(mod.m):
        if not _is_adjoint(mod.E[i], mod.F[i], gram):
            return False, (i, "E")
    gens = mod.generators()
    for i in range(mod.m):
        for name, table, gen in (("x", gens.ex[i], mod.E[i]),
                                 ("y", gens.fx[i], mod.F[i])):
            k = _divided_power_failure(table, gen, mod.dim)
            if k is not None:
                return False, (i, name, k)
    return True, None


def unitarity_deviation(mod, ts=(0.37, 1.1)):
    """exp(t(E_i - F_i)) and exp(it(E_i + F_i)) are unitary for the
    hermitian inner product; returns the worst |U U^H - I| entry in the
    orthonormalized coordinates.

    Kept as the tests' float oracle, and because the benchmark calls it:
    `verify` reads unitarity off the exact E_i^dagger = F_i instead.

    Each weight block of the Gram is factored exactly as L D L^T, read off
    its `Bareiss.of` elimination, so u = D^{1/2} L^T x are orthonormal
    coordinates and an operator M becomes D^{1/2} (L^T M L^{-T}) D^{-1/2}.
    The middle factor is exact; only the scale sqrt(d_i / d_j) is taken in
    float, so the error does not grow with the condition of the Gram.

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
        fac = Bareiss.of(data["gram"])
        mnr = fac.minors
        if mnr[-1] <= 0:
            raise ValueError("the Gram is not positive definite")
        low = [[Fraction(v, mnr[t + 1]) for t, v in enumerate(row)]
               for row in fac.rows]
        for k, g in enumerate(basis):
            sqrt_d[g] = math.sqrt(Fraction(mnr[k + 1], fac.scale * mnr[k]))
            # row k of L^T is column k of L; row k of L^{-T} solves L y = e_k
            lt[g] = {g: Fraction(1)}
            lt[g].update({basis[l]: low[l][k] for l in range(k + 1, nb)
                          if low[l][k]})
            y = [Fraction(int(l == k)) for l in range(nb)]
            for l in range(k + 1, nb):
                y[l] = -sum(map(mul, low[l][k:l], y[k:l]))
            lt_inv[g] = {basis[l]: v for l, v in enumerate(y) if v}

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
