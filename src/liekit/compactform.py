"""The compact real form attached to a root category.

Basis: alpha over the simple objects, then (beta, xi) per positive root.
The defining brackets only involve the A-pairing and the gamma constants, so
everything stays in exact rational arithmetic.  One-parameter subgroups
exp(t ad alpha_X), exp(t ad beta_X), exp(t ad xi_X) have closed forms whose
entries live in the trigonometric ring Q[sin, cos, cos^-1] modulo
sin^2 + cos^2 = 1; identities in that ring are decidable, and the same
symbolic matrices evaluate to floats for comparison against scipy's expm.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chevgroup import ChevalleyGroup
from .exact import (LDL, QI, QQ, Domain, GaussianRational, SparsePoly,
                    components, sp_eq, sp_from_dense, sp_map, sp_mul_many,
                    sp_to_dense, sp_transpose)
from .liealg import (LieAlgebraZ, first_bracket_failure, jacobi_sweep,
                     table_bracket)
from .rootcat import RootCatObject


# ---------------------------------------------------------------------------
# the trigonometric ring

class TrigPoly(SparsePoly):
    """Elements of k[s, c, c^-1] / (s^2 + c^2 - 1), normal form s-degree <= 1.

    Stored as {(s_deg, c_deg): coeff} with s_deg in {0, 1}; the coefficient
    field k is whatever the values are (rationals or Gaussian rationals).
    """

    __slots__ = ()

    @classmethod
    def monomial(cls, coeff, s_deg, c_deg):
        """coeff * s^s_deg * c^c_deg with s-degree reduction."""
        if not coeff:
            return cls()
        out = {}
        _accumulate(out, coeff, s_deg, c_deg)
        return cls(out)

    @classmethod
    def const(cls, v):
        return cls.monomial(v, 0, 0)

    @classmethod
    def sin(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def cos(cls, e=1):
        return cls({(0, e): Fraction(1)})

    def __mul__(self, other):
        out = {}
        for (s1, c1), v1 in self.c.items():
            for (s2, c2), v2 in other.c.items():
                _accumulate(out, v1 * v2, s1 + s2, c1 + c2)
        return TrigPoly({k: v for k, v in out.items() if v})

    def scale(self, v):
        if not v:
            return TrigPoly()
        return TrigPoly({k: v * w for k, w in self.c.items()})

    def inverse(self):
        out = super().inverse()
        if any(sd for sd, _ in out.c):
            raise ZeroDivisionError("sin is not invertible")
        return out

    def evaluate(self, t):
        """Numeric value at angle t (complex if coefficients are Gaussian)."""
        s, c = math.sin(t), math.cos(t)
        tot = 0
        for (sd, cd), v in self.c.items():
            if isinstance(v, GaussianRational):
                v = complex(v)
            else:
                v = float(v)
            tot += v * (s ** sd) * (c ** cd)
        return tot


def _accumulate(out, coeff, s_deg, c_deg):
    """Add coeff*s^s_deg*c^c_deg to `out`, rewriting s^2 -> 1 - c^2."""
    if s_deg <= 1:
        k = (s_deg, c_deg)
        w = out.get(k, 0) + coeff
        if w:
            out[k] = w
        elif k in out:
            del out[k]
        return
    # s^(2n+r) = (1-c^2)^n s^r
    n, r = divmod(s_deg, 2)
    for l in range(n + 1):
        sign = (-1) ** l
        _accumulate(out, coeff * sign * math.comb(n, l), r, c_deg + 2 * l)


def trig_multiple(a):
    """(cos(a*t), sin(a*t)) as TrigPolys, integer a."""
    cosk, sink = TrigPoly.const(Fraction(1)), TrigPoly()
    c, s = TrigPoly.cos(), TrigPoly.sin()
    for _ in range(abs(a)):
        cosk, sink = c * cosk - s * sink, s * cosk + c * sink
    return cosk, (-sink if a < 0 else sink)


class TrigDomain(Domain):
    """Domain wrapper so the sparse-matrix helpers run over TrigPoly."""

    zero = TrigPoly()

    def __init__(self, coeff_one=Fraction(1)):
        self.coeff_one = coeff_one
        self.one = TrigPoly.const(coeff_one)

    def embed(self, v):
        return TrigPoly.const(self.coeff_one * v)

    def inv(self, a):
        return a.inverse()


TRIG = TrigDomain()
TRIG_QI = TrigDomain(GaussianRational(1))


# ---------------------------------------------------------------------------
# gamma-product coefficients of the closed-form exponentials

def _chain(alg, x, y, n):
    """The n steps gamma_{X, L_l}^{L_{l+1}} of the X-chain from L_0 = Y."""
    cat = alg.cat
    out = []
    for _ in range(n):
        nxt = cat.object_of_class(tuple(a + b for a, b in zip(x.cls, y.cls)))
        out.append(alg.gamma_of(x, y, nxt))
        y = nxt
    return out


def _chain_coeff(steps):
    """C_{X,Y,j,1} = (1/j!) prod_{l<j} gamma_{X, L_l}^{L_{l+1}} from the j
    steps of the X-chain from Y."""
    return Fraction(math.prod(steps), math.factorial(len(steps)))


def d_coefficients(alg, x, y):
    """{k: D_{X,Y,k}} as TrigPolys in t for k in [-p_XY, q_XY], from one walk
    down the TX-chain from Y to L_{-p} and one up the X-chain from there to
    L_q, L_s being the object of class zeta_Y + s zeta_X."""
    p, q = alg.cat.pq(x, y)
    tx = alg.cat.shift(x)
    down = _chain(alg, tx, y, p)
    up = _chain(alg, x, alg.cat.chain_object(tx, y, p, 1), p + q)
    out = {}
    for k in range(-p, q + 1):
        out[k] = TrigPoly()
        for j in range(max(0, -k), p + 1):
            # C_{TX,Y,j,1} C_{X,L_{-j},j+k,1} sin^{2j} tan^k cos^{q-p}
            coeff = _chain_coeff(down[:j]) * _chain_coeff(up[p - j:p + k])
            out[k] = out[k] + TrigPoly.monomial(coeff, 2 * j + k, -k + q - p)
    return out


def d_coefficients_dual(alg, x, y):
    """{k: D'_{X,Y,k}}, equal to `d_coefficients` by a trigonometric
    identity, from one walk up the X-chain from Y to L_q and one up the
    X-chain from TL_q to TL_{-p}."""
    cat = alg.cat
    p, q = cat.pq(x, y)
    up = _chain(alg, x, y, q)
    tup = _chain(alg, x, cat.chain_object(cat.shift(x), cat.shift(y), q, 1), p + q)
    out = {}
    for k in range(-p, q + 1):
        out[k] = TrigPoly()
        for j in range(max(0, k), q + 1):
            # C_{X,Y,j,1} C_{X,TL_j,j-k,1} sin^{2j-k} cos^{k+p-q}
            coeff = _chain_coeff(up[:j]) * _chain_coeff(tup[q - j:q - k])
            out[k] = out[k] + TrigPoly.monomial(coeff, 2 * j - k, k + p - q)
    return out


def gamma_string_product_check(alg):
    """For every pair with p_{XY} = 0 the closed gamma-string product equals
    (-1)^{j-k} (q-k)! j! / ((q-j)! k!); returns (ok, witness).  The product
    is gamma_{X,L_l}^{L_{l+1}} over k <= l < j, read up the X-chain from Y,
    times gamma_{X,TL_l}^{TL_{l-1}} over k < l <= j, read up the X-chain
    from TL_q, as in `d_coefficients_dual`."""
    cat = alg.cat
    for x in cat.objects:
        for y in cat.objects:
            if x.pos_root == y.pos_root:
                continue
            p, q = cat.pq(x, y)
            if p != 0:
                continue
            up = _chain(alg, x, y, q)
            tlq = cat.chain_object(cat.shift(x), cat.shift(y), q, 1)
            tup = _chain(alg, x, tlq, q)
            for k in range(q + 1):
                for j in range(k, q + 1):
                    prod = math.prod(up[k:j]) * math.prod(tup[q - j:q - k])
                    want = ((-1) ** (j - k) * math.factorial(q - k)
                            * math.factorial(j)
                            // (math.factorial(q - j) * math.factorial(k)))
                    if prod != want:
                        return False, (x, y, k, j, prod, want)
    return True, None


def d_equals_dual_check(alg):
    """D_{X,Y,k} == D'_{X,Y,k} in the trig ring, all pairs and k."""
    cat = alg.cat
    for x in cat.objects:
        for y in cat.objects:
            if x.pos_root == y.pos_root:
                continue
            dual = d_coefficients_dual(alg, x, y)
            for k, d in d_coefficients(alg, x, y).items():
                if d != dual[k]:
                    return False, (x, y, k)
    return True, None


# ---------------------------------------------------------------------------
# the compact form itself

class CompactForm:
    """Basis layout: alpha_1..alpha_m, then beta_r, xi_r per positive root."""

    def __init__(self, alg: LieAlgebraZ):
        self.alg = alg
        self.cat = alg.cat
        rs = alg.rs
        self.positive = rs.positive
        self.npos = len(rs.positive)
        self.m = alg.m
        self.dim = self.m + 2 * self.npos
        self._pos_index = rs.pos_index
        self._brackets = self._build_brackets()

    # basis indexing
    def beta_index(self, root):
        return self.m + 2 * self._pos_index[root]

    def xi_index(self, root):
        return self.m + 2 * self._pos_index[root] + 1

    # coordinates of the generators attached to an arbitrary object
    def alpha_coords(self, x):
        return {j: Fraction(c) for j, c in enumerate(self.alg.hprime_coords(x)) if c}

    def beta_coords(self, x):
        return {self.beta_index(x.pos_root): Fraction(1)}

    def xi_coords(self, x):
        return {self.xi_index(x.pos_root): Fraction(-1 if x.parity else 1)}

    def _reduce_beta(self, obj, coeff, acc):
        k = self.beta_index(obj.pos_root)
        w = acc.get(k, 0) + coeff
        if w:
            acc[k] = w
        elif k in acc:
            del acc[k]

    def _reduce_xi(self, obj, coeff, acc):
        k = self.xi_index(obj.pos_root)
        w = acc.get(k, 0) + (-coeff if obj.parity else coeff)
        if w:
            acc[k] = w
        elif k in acc:
            del acc[k]

    def _gamma_terms(self, x, y):
        """[(L, gamma_{XY}^L)] + [(M, gamma_{X,TY}^M)] (at most one each)."""
        cat = self.cat
        out = []
        for other in (y, cat.shift(y)):
            l = cat.object_of_class(
                tuple(a + b for a, b in zip(x.cls, other.cls)))
            if l is not None:
                g = self.alg.gamma_of(x, other, l)
                if g:
                    out.append((l, g, other is y))
            else:
                out.append((None, 0, other is y))
        return out

    def _build_brackets(self):
        m, cat = self.m, self.cat
        table = [[{} for _ in range(self.dim)] for _ in range(self.dim)]

        def put(i, j, vec):
            table[i][j] = {k: Fraction(v) for k, v in vec.items() if v}
            table[j][i] = {k: -Fraction(v) for k, v in vec.items() if v}

        x0 = [RootCatObject(r, 0) for r in self.positive]
        for i in range(m):
            si = cat.simples[i]
            for y in x0:
                a = cat.A(si, y)
                put(i, self.beta_index(y.pos_root), {self.xi_index(y.pos_root): -a})
                put(i, self.xi_index(y.pos_root), {self.beta_index(y.pos_root): a})
        for xi_, x in enumerate(x0):
            bx, xx = self.beta_index(x.pos_root), self.xi_index(x.pos_root)
            put(bx, xx, {j: -2 * c for j, c in self.alpha_coords(x).items()})
            for y in x0[xi_ + 1:]:
                by, xy = self.beta_index(y.pos_root), self.xi_index(y.pos_root)
                acc_bb, acc_xx, acc_bx, acc_xb = {}, {}, {}, {}
                for (l, g, is_sum) in self._gamma_terms(x, y):
                    if l is None:
                        continue
                    self._reduce_beta(l, g, acc_bb)
                    self._reduce_beta(l, g if not is_sum else -g, acc_xx)
                    self._reduce_xi(l, g if is_sum else -g, acc_bx)
                for (l, g, is_sum) in self._gamma_terms(y, x):
                    if l is None:
                        continue
                    self._reduce_xi(l, g if is_sum else -g, acc_xb)
                put(bx, by, acc_bb)
                put(xx, xy, acc_xx)
                put(bx, xy, acc_bx)
                put(by, xx, acc_xb)
        return table

    def bracket(self, a, b):
        return table_bracket(self._brackets, a, b)

    def jacobi_check(self):
        return jacobi_sweep(self._brackets)

    # -- the complexification map ------------------------------------------

    def phi_matrix(self):
        """Columns: alpha_j -> i H'_j, beta_r -> u_{r,0}+u_{r,1},
        xi_r -> i(u_{r,0} - u_{r,1}); a QI matrix into the integer-form basis."""
        cat, alg = self.cat, self.alg
        i_ = QI.i
        mat = {}

        def put(r, c, v):
            mat.setdefault(r, {})[c] = v

        for j in range(self.m):
            put(alg.n_u + j, j, i_)
        for k, r in enumerate(self.positive):
            u0 = cat.index(RootCatObject(r, 0))
            u1 = cat.index(RootCatObject(r, 1))
            put(u0, self.m + 2 * k, GaussianRational(1))
            put(u1, self.m + 2 * k, GaussianRational(1))
            put(u0, self.m + 2 * k + 1, i_)
            put(u1, self.m + 2 * k + 1, GaussianRational(0) - i_)
        return mat

    def phi_inverse(self):
        """u_{r,0} = (beta - i xi)/2, u_{r,1} = (beta + i xi)/2, H'_j = -i alpha_j."""
        cat = self.cat
        i_ = QI.i
        half = GaussianRational(Fraction(1, 2))
        mih = GaussianRational(0, Fraction(-1, 2))
        mat = {}

        def put(r, c, v):
            mat.setdefault(r, {})[c] = v

        for j in range(self.m):
            put(j, self.alg.n_u + j, GaussianRational(0) - i_)
        for k, r in enumerate(self.positive):
            u0 = cat.index(RootCatObject(r, 0))
            u1 = cat.index(RootCatObject(r, 1))
            put(self.m + 2 * k, u0, half)
            put(self.m + 2 * k + 1, u0, mih)
            put(self.m + 2 * k, u1, half)
            put(self.m + 2 * k + 1, u1, GaussianRational(0) - mih)
        return mat

    def phi_homomorphism_check(self):
        """phi([a,b]) == [phi a, phi b] on all basis pairs, over Q(i)."""
        bad = first_bracket_failure(self._brackets, self.alg._brackets,
                                    self.phi_matrix(), QI)
        return bad is None, bad

    # -- the invariant form ---------------------------------------------------

    def killing_gram(self):
        """Pullback of the trace form through phi; real, symmetric, and
        negative definite."""
        phi = self.phi_matrix()
        gram = sp_mul_many([sp_transpose(phi),
                            sp_from_dense(self.alg.killing_gram(), QQ), phi], QI)
        if any(v.im for row in gram.values() for v in row.values()):
            raise ArithmeticError("compact form pairing is not real")
        return sp_to_dense(sp_map(gram, lambda v: v.re), self.dim, QQ)

    def definiteness_minors(self):
        """Leading principal minors of the compact Gram G, up to the first
        whose sign is not (-1)^k for the k x k minor, as negative
        definiteness needs.

        The entries of G draw `components` on the basis, and G restricted to
        the first k indices is block diagonal over them, each block a
        leading block of its component.  So the k x k minor is (-1)^k times
        the product of the `LDL` pivots of -G_c at indices below k, over
        every component c."""
        gram = self.killing_gram()
        pivot = {}
        for idx in components(self.dim, [sp_from_dense(gram, QQ)]):
            fac = LDL.of([[-gram[r][c] for c in idx] for r in idx])
            pivot.update(zip(idx, fac.d))
        minors, prod = [], Fraction(1)
        for k in range(self.dim):
            # a component's LDL stops after its first pivot <= 0, so every
            # index up to the first such pivot has one
            prod *= pivot[k]
            minors.append(-prod if k % 2 == 0 else prod)
            if pivot[k] <= 0:
                break
        return minors

    def is_negative_definite(self):
        minors = self.definiteness_minors()
        return len(minors) == self.dim and all(
            (-1) ** (k + 1) * mnr > 0 for k, mnr in enumerate(minors))

    def generated_subalgebra_dim(self):
        """Dimension of the subalgebra generated by beta_{S_j} and xi_{S_j}
        over the simple objects S_j: the bracket closure of those 2m
        vectors, by exact row reduction.  It is `dim` iff they generate."""
        rows = [c(s) for s in self.cat.simples
                for c in (self.beta_coords, self.xi_coords)]
        basis = []
        pivots = {}

        def insert(vec):
            vec = dict(vec)
            for p, bv in pivots.items():
                if p in vec:
                    f = vec[p] / bv[p]
                    for k, v in bv.items():
                        w = vec.get(k, 0) - f * v
                        if w:
                            vec[k] = w
                        elif k in vec:
                            del vec[k]
            if vec:
                p = min(vec)
                pivots[p] = vec
                basis.append(vec)
                return True
            return False

        frontier = []
        for v in rows:
            if insert(v):
                frontier.append(v)
        while frontier:
            new = []
            for a in frontier:
                for b in list(basis):
                    w = self.bracket(a, b)
                    if w and insert(w):
                        new.append(w)
            frontier = new
        return len(basis)


# ---------------------------------------------------------------------------
# closed-form one-parameter subgroups (symbolic TrigPoly matrices)

def _parity0(x):
    return RootCatObject(x.pos_root, 0)


def exp_alpha_matrix(cf: CompactForm, x):
    """exp(t ad alpha_X) as a sparse TrigPoly matrix."""
    cat = cf.cat
    one = TrigPoly.const(Fraction(1))
    mat = {j: {j: one} for j in range(cf.m)}
    for r in cf.positive:
        y = RootCatObject(r, 0)
        a = cat.A(x, y)
        bi, xi_ = cf.beta_index(r), cf.xi_index(r)
        ca, sa = trig_multiple(a)
        mat[bi] = {bi: ca, xi_: sa}
        mat[xi_] = {bi: -sa, xi_: ca}
        for k in (bi, xi_):
            mat[k] = {c: v for c, v in mat[k].items() if v}
    return mat


def _alpha_column_terms(cf, x, partner_coords, sign):
    """Common alpha_Y column of exp(t ad beta_X) / exp(t ad xi_X):
    alpha_j + (A_{S_j,X}/2) [(cos2t - 1) alpha_X + sign * sin2t * partner]."""
    cat = cf.cat
    cos2, sin2 = trig_multiple(2)
    cos2m1 = cos2 - TrigPoly.const(Fraction(1))
    ax = cf.alpha_coords(x)
    cols = {}
    for j in range(cf.m):
        a = Fraction(cat.A(cat.simples[j], x), 2)
        col = {j: TrigPoly.const(Fraction(1))}
        if a:
            for k, v in ax.items():
                col[k] = col.get(k, TrigPoly()) + cos2m1.scale(a * v)
            for k, v in partner_coords.items():
                col[k] = col.get(k, TrigPoly()) + sin2.scale(sign * a * v)
        cols[j] = {k: v for k, v in col.items() if v}
    return cols


def exp_beta_matrix(cf: CompactForm, x):
    """exp(t ad beta_X); beta_{TX} = beta_X so only the root of X matters."""
    x = _parity0(x)
    cols = _alpha_column_terms(cf, x, cf.xi_coords(x), 1)
    bx, xx = cf.beta_index(x.pos_root), cf.xi_index(x.pos_root)
    cols[bx] = {bx: TrigPoly.const(Fraction(1))}
    cos2, sin2 = trig_multiple(2)
    col = {xx: cos2}
    for k, v in cf.alpha_coords(x).items():
        col[k] = sin2.scale(-v)
    cols[xx] = col
    for r, k, lk, dk in _chain_terms(cf, x):
        bcol = cols.setdefault(cf.beta_index(r), {})
        xcol = cols.setdefault(cf.xi_index(r), {})
        bi, xi_ = cf.beta_index(lk.pos_root), cf.xi_index(lk.pos_root)
        bcol[bi] = bcol.get(bi, TrigPoly()) + dk
        xcol[xi_] = xcol.get(xi_, TrigPoly()) + (-dk if lk.parity else dk)
    # chain terms may cancel; the matrix keeps no zero entries
    return sp_transpose({c: {r: v for r, v in col.items() if v}
                         for c, col in cols.items()})


def exp_xi_matrix(cf: CompactForm, x):
    """exp(t ad xi_X) for parity-0 X; for TX substitute t -> -t."""
    flip = x.parity == 1
    x = _parity0(x)
    cols = _alpha_column_terms(cf, x, cf.beta_coords(x), -1)
    bx, xx = cf.beta_index(x.pos_root), cf.xi_index(x.pos_root)
    cos2, sin2 = trig_multiple(2)
    col = {bx: cos2}
    for k, v in cf.alpha_coords(x).items():
        col[k] = sin2.scale(v)
    cols[bx] = col
    cols[xx] = {xx: TrigPoly.const(Fraction(1))}
    for r, k, lk, dk in _chain_terms(cf, x):
        bcol = cols.setdefault(cf.beta_index(r), {})
        xcol = cols.setdefault(cf.xi_index(r), {})
        bi, xi_ = cf.beta_index(lk.pos_root), cf.xi_index(lk.pos_root)
        xsign = -1 if lk.parity else 1
        if k % 2 == 0:
            s = Fraction(1 if (k // 2) % 2 == 0 else -1)
            bcol[bi] = bcol.get(bi, TrigPoly()) + dk.scale(s)
            xcol[xi_] = xcol.get(xi_, TrigPoly()) + dk.scale(s * xsign)
        else:
            sb = Fraction(1 if ((k - 1) // 2) % 2 == 0 else -1)
            sx = Fraction(1 if ((k + 1) // 2) % 2 == 0 else -1)
            bcol[xi_] = bcol.get(xi_, TrigPoly()) + dk.scale(sb * xsign)
            xcol[bi] = xcol.get(bi, TrigPoly()) + dk.scale(sx)
    mat = sp_transpose({c: {r: v for r, v in col.items() if v}
                        for c, col in cols.items()})
    if flip:
        mat = {i: {j: _flip_sin(v) for j, v in row.items()}
               for i, row in mat.items()}
    return mat


def _chain_terms(cf, x):
    """(r, k, L_k, D_{X,Y,k}) for Y = (r, parity 0) over every positive root
    r other than X's and every k in [-p_XY, q_XY] with D nonzero; L_k is the
    object of class zeta_Y + k zeta_X."""
    cat = cf.cat
    for r in cf.positive:
        if r == x.pos_root:
            continue
        y = RootCatObject(r, 0)
        for k, dk in d_coefficients(cf.alg, x, y).items():
            if dk:
                yield r, k, cat.chain_object(x, y, k, 1), dk


def _flip_sin(tp):
    """Substitute t -> -t: negate odd sin-degree terms."""
    return TrigPoly({k: (-v if k[0] else v) for k, v in tp.c.items()})


def trig_matrix_numeric(mat, dim, t):
    """Dense numpy evaluation of a TrigPoly matrix at angle t."""
    import numpy as np
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in mat.items():
        for j, v in row.items():
            out[i, j] = v.evaluate(t)
    return out


def ad_matrix_numeric(cf, vec):
    """Dense ad of a compact-form vector with rational coordinates."""
    import numpy as np
    out = np.zeros((cf.dim, cf.dim))
    for j in range(cf.dim):
        img = cf.bracket(vec, {j: Fraction(1)})
        for i, v in img.items():
            out[i, j] = float(v)
    return out


def closed_form_vs_expm(cf, ts=(0.3, 0.7, 1.9)):
    """Compare every closed-form exponential with scipy's expm at sample
    angles; returns max absolute deviation."""
    import numpy as np
    from scipy.linalg import expm
    worst = 0.0
    gens = []
    for j in range(cf.m):
        vec = {j: Fraction(1)}
        gens.append((vec, exp_alpha_matrix(cf, cf.cat.simples[j])))
    for r in cf.positive:
        y = RootCatObject(r, 0)
        gens.append(({cf.beta_index(r): Fraction(1)}, exp_beta_matrix(cf, y)))
        gens.append(({cf.xi_index(r): Fraction(1)}, exp_xi_matrix(cf, y)))
        ty = RootCatObject(r, 1)
        gens.append(({cf.xi_index(r): Fraction(-1)}, exp_xi_matrix(cf, ty)))
    for vec, sym in gens:
        ad = ad_matrix_numeric(cf, vec)
        for t in ts:
            ref = expm(t * ad)
            got = trig_matrix_numeric(sym, cf.dim, t)
            worst = max(worst, float(np.abs(got - ref).max()))
    return worst


def gram_preservation_deviation(cf, words=24, max_len=6, seed=20240819):
    """Random words in the closed-form exponentials must preserve the
    compact Gram matrix; returns the worst |W^T G W - G| entry."""
    import random as _random
    import numpy as np
    rng = _random.Random(seed)
    gram = np.array([[float(v) for v in row] for row in cf.killing_gram()])
    syms = []
    for j in range(cf.m):
        syms.append(exp_alpha_matrix(cf, cf.cat.simples[j]))
    for r in cf.positive:
        y = RootCatObject(r, 0)
        syms.append(exp_beta_matrix(cf, y))
        syms.append(exp_xi_matrix(cf, y))
    worst = 0.0
    for _ in range(words):
        w = np.eye(cf.dim)
        for _ in range(rng.randint(1, max_len)):
            mat = rng.choice(syms)
            t = rng.uniform(-2.0, 2.0)
            w = trig_matrix_numeric(mat, cf.dim, t).real @ w
        dev = np.abs(w.T @ gram @ w - gram).max()
        worst = max(worst, float(dev))
    return worst


# ---------------------------------------------------------------------------
# the factorization of exp(t ad(u_X + u_TX)) through the Chevalley generators

def exp_beta_factorization_check(alg, cf=None):
    """exp(t ad(u_X+u_TX)) = E_X(tan t) h_X(1/cos t) E_TX(tan t), and the
    Gaussian twin for i(u_X - u_TX), as identities of TrigPoly matrices
    transported through phi.  Returns (ok, witness)."""
    if cf is None:
        cf = CompactForm(alg)
    grp = ChevalleyGroup(alg)
    phi = sp_map(cf.phi_matrix(), TrigPoly.const)
    phiinv = sp_map(cf.phi_inverse(), TrigPoly.const)
    tan = TrigPoly({(1, -1): GaussianRational(1)})
    itan = TrigPoly({(1, -1): QI.i})
    sec = TrigPoly({(0, -1): GaussianRational(1)})
    for r in cf.positive:
        x = RootCatObject(r, 0)
        tx = RootCatObject(r, 1)
        # beta: transport exp(t ad beta_X) into the integer-form basis
        sym = sp_map(exp_beta_matrix(cf, x), _gaussian)
        lhs = sp_mul_many([phi, sym, phiinv], TRIG_QI)
        rhs = sp_mul_many([
            grp.E(x, tan, TRIG_QI),
            grp.h(x, sec, TRIG_QI),
            grp.E(tx, tan, TRIG_QI)], TRIG_QI)
        if not sp_eq(lhs, rhs, TRIG_QI):
            return False, ("beta", r)
        # xi: exp(t ad i(u_X - u_TX)) = E_X(i tan t) h_X(1/cos t) E_TX(-i tan t)
        sym = sp_map(exp_xi_matrix(cf, x), _gaussian)
        lhs = sp_mul_many([phi, sym, phiinv], TRIG_QI)
        rhs = sp_mul_many([
            grp.E(x, itan, TRIG_QI),
            grp.h(x, sec, TRIG_QI),
            grp.E(tx, -itan, TRIG_QI)], TRIG_QI)
        if not sp_eq(lhs, rhs, TRIG_QI):
            return False, ("xi", r)
    return True, None



def _gaussian(tp):
    """A rational-coefficient TrigPoly with its coefficients in Q(i)."""
    return tp.scale(QI.one)
