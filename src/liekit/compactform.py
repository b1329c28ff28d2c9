"""The compact real form attached to a root category.

Basis: alpha over the simple objects, then (beta, xi) per positive root.
The defining brackets only involve the A-pairing and the gamma constants,
read by object index (object 2k + e is the positive root k with parity e,
so T is `ix ^ 1`); root strings are walks `rs.walk` on the class-sum table
`rs.sums`, which does not depend on gamma.  Every coefficient is an int,
since in a Chevalley basis ad(e)^j / j! is integral (Humphreys,
*Introduction to Lie Algebras*, 25.5); a changed gamma table may leave an
exact Fraction.  One-parameter subgroups exp(t ad alpha_X), exp(t ad
beta_X), exp(t ad xi_X) have closed forms whose entries live in the
trigonometric ring Q[sin, cos, cos^-1] modulo sin^2 + cos^2 = 1; identities
in that ring are decidable.  `closed_forms` builds them once per
`CompactForm`, for every check that walks them.  `closed_form_ode_check`
proves each one is exp(t ad vec) by F' = ad(vec) F and F(0) = I, and
`exp_beta_factorization_check` proves the unipotent-torus factorization
through phi by relabelling and scaling integer tables; neither multiplies
two TrigPolys.  The same matrices evaluate to floats for the comparison
against scipy's expm that the tests and `compact verify` keep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product

from .chevgroup import ChevalleyGroup, LaurentGroup
from .exact import (QI, QQ, Bareiss, Domain, GaussianRational, SparsePoly,
                    _finish_row, _rational, components, sp_from_dense, sp_map,
                    sp_mul_many, sp_to_dense, sp_transpose)
from .liealg import (LieAlgebraZ, first_bracket_failure, jacobi_sweep,
                     table_bracket)


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
        return cls({(1, 0): 1})

    @classmethod
    def cos(cls, e=1):
        return cls({(0, e): 1})

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

    def derivative(self):
        """d/dt, with s = sin t and c = cos t: d(c^b) = -b s c^(b-1), and
        d(s c^b) = (1 + b) c^(b+1) - b c^(b-1) after s^2 = 1 - c^2."""
        out = {}
        for (sd, cd), v in self.c.items():
            terms = ((((0, cd + 1), (1 + cd) * v), ((0, cd - 1), -cd * v))
                     if sd else (((1, cd - 1), -cd * v),))
            for k, w in terms:
                out[k] = out.get(k, 0) + w
        return TrigPoly({k: v for k, v in out.items() if v})

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
        w = out[k] + coeff if k in out else coeff
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
    cosk, sink = TrigPoly.const(1), TrigPoly()
    c, s = TrigPoly.cos(), TrigPoly.sin()
    for _ in range(abs(a)):
        cosk, sink = c * cosk - s * sink, s * cosk + c * sink
    return cosk, (-sink if a < 0 else sink)


class TrigDomain(Domain):
    """Domain wrapper so the sparse-matrix helpers run over TrigPoly."""

    zero = TrigPoly()

    def __init__(self, coeff_one=1):
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

def _chain(alg, ix, iy):
    """The X-chain from Y, by index: the objects L_0 = Y, L_1, ... of class
    zeta_Y + l zeta_X up to the end of the string (`RootSystem.walk`), and
    the steps gamma_{X, L_l}^{L_{l+1}} between them."""
    objs, steps = alg.rs.walk(ix, iy), []
    for il in objs[1:]:
        steps.append(alg._gamma_to(ix, iy, il))
        iy = il
    return objs, steps


def _dual_chains(alg, ix, iy):
    """The steps up the X-chain from Y to L_q, and those up the X-chain
    from TL_q to TL_{-p}."""
    highs, up = _chain(alg, ix, iy)
    return up, _chain(alg, ix, highs[-1] ^ 1)[1]


def _chain_coeff(steps):
    """C_{X,Y,j,1} = (1/j!) prod_{l<j} gamma_{X, L_l}^{L_{l+1}} from the j
    steps of the X-chain from Y: an int, or an exact Fraction on a changed
    gamma table whose product j! does not divide."""
    return _rational(Fraction(math.prod(steps), math.factorial(len(steps))))


def _d_string(alg, ix, iy):
    """The objects L_{-p}..L_q, L_s of class zeta_Y + s zeta_X, and
    {k: D_{X,Y,k}} as TrigPolys in t for k in [-p_XY, q_XY], from one walk
    down the TX-chain from Y to L_{-p} and one up the X-chain from there."""
    lows, down = _chain(alg, ix ^ 1, iy)
    objs, up = _chain(alg, ix, lows[-1])
    p = len(down)
    q = len(up) - p
    out = {}
    for k in range(-p, q + 1):
        acc = {}
        for j in range(max(0, -k), p + 1):
            # C_{TX,Y,j,1} C_{X,L_{-j},j+k,1} sin^{2j} tan^k cos^{q-p}
            coeff = _chain_coeff(down[:j]) * _chain_coeff(up[p - j:p + k])
            if coeff:
                _accumulate(acc, coeff, 2 * j + k, -k + q - p)
        out[k] = TrigPoly(acc)
    return objs, out


def d_coefficients(alg, ix, iy):
    """{k: D_{X,Y,k}} for the objects of index ix and iy (`_d_string`)."""
    return _d_string(alg, ix, iy)[1]


def d_coefficients_dual(alg, ix, iy):
    """{k: D'_{X,Y,k}}, equal to `d_coefficients` by a trigonometric
    identity, from one walk up the X-chain from Y to L_q and one up the
    X-chain from TL_q to TL_{-p}."""
    up, tup = _dual_chains(alg, ix, iy)
    q = len(up)
    p = len(tup) - q
    out = {}
    for k in range(-p, q + 1):
        acc = {}
        for j in range(max(0, k), q + 1):
            # C_{X,Y,j,1} C_{X,TL_j,j-k,1} sin^{2j-k} cos^{k+p-q}
            coeff = _chain_coeff(up[:j]) * _chain_coeff(tup[q - j:q - k])
            if coeff:
                _accumulate(acc, coeff, 2 * j - k, k + p - q)
        out[k] = TrigPoly(acc)
    return out


def gamma_string_product_check(alg):
    """For every pair with p_{XY} = 0 the closed gamma-string product equals
    (-1)^{j-k} (q-k)! j! / ((q-j)! k!); returns (ok, witness).  The product
    is gamma_{X,L_l}^{L_{l+1}} over k <= l < j, read up the X-chain from Y,
    times gamma_{X,TL_l}^{TL_{l-1}} over k < l <= j, read up the X-chain
    from TL_q (`_dual_chains`, as in `d_coefficients_dual`)."""
    sums, objects = alg.rs.sums, alg.objects
    for ix, iy in product(range(alg.n_u), repeat=2):
        # one root, p_XY > 0, or q_XY = 0 (only k = j = 0: both products empty)
        if ix >> 1 == iy >> 1 or iy in sums[ix ^ 1] or iy not in sums[ix]:
            continue
        up, tup = _dual_chains(alg, ix, iy)
        q = len(up)
        for k in range(q + 1):
            for j in range(k, q + 1):
                prod = math.prod(up[k:j]) * math.prod(tup[q - j:q - k])
                want = ((-1) ** (j - k) * math.factorial(q - k)
                        * math.factorial(j)
                        // (math.factorial(q - j) * math.factorial(k)))
                if prod != want:
                    return False, (objects[ix], objects[iy], k, j, prod, want)
    return True, None


def d_equals_dual_check(alg):
    """D_{X,Y,k} == D'_{X,Y,k} in the trig ring, all pairs and k."""
    for ix, iy in product(range(alg.n_u), repeat=2):
        if ix >> 1 == iy >> 1:
            continue
        dual = d_coefficients_dual(alg, ix, iy)
        for k, d in d_coefficients(alg, ix, iy).items():
            if d != dual[k]:
                return False, (alg.objects[ix], alg.objects[iy], k)
    return True, None


# ---------------------------------------------------------------------------
# the compact form itself

class CompactForm:
    """Basis layout: alpha_1..alpha_m, then beta_r, xi_r per positive root,
    so the object of index ix has beta index m + (ix & ~1) and xi index
    m + (ix | 1)."""

    def __init__(self, alg: LieAlgebraZ):
        self.alg = alg
        self.cat = alg.cat
        rs = alg.rs
        self.positive = rs.positive
        self.npos = len(rs.positive)
        self.m = alg.m
        self.dim = self.m + 2 * self.npos
        self._pos_index = rs.pos_index
        self._forms = None  # the list `closed_forms` builds on first call

    # basis indexing
    def beta_index(self, root):
        return self.m + 2 * self._pos_index[root]

    def xi_index(self, root):
        return self.m + 2 * self._pos_index[root] + 1

    # coordinates of the generators attached to an arbitrary object
    def alpha_coords(self, x):
        return {j: c for j, c in enumerate(self.alg.hprime_coords(x)) if c}

    def beta_coords(self, x):
        return {self.beta_index(x.pos_root): 1}

    def xi_coords(self, x):
        return {self.xi_index(x.pos_root): -1 if x.parity else 1}

    @cached_property
    def _brackets(self):
        """table[i][j] = {k: int coeff} for the basis bracket [e_i, e_j],
        built on first read (the closed forms and `compact exp` need only
        the indices, A and gamma) by object index: for parity-0 X and Y,
        the class sums L of (X, Y) and M of (X, TY) come from `sums` and
        each gamma_{XY}^L from `alg.gamma`."""
        m, cat, alg = self.m, self.cat, self.alg
        sums = alg.rs.sums
        table = [[{} for _ in range(self.dim)] for _ in range(self.dim)]

        def put(i, j, vec):
            table[i][j] = vec
            table[j][i] = {k: -v for k, v in vec.items()}

        def step(ix, iy):
            """(L, gamma_{XY}^L); gamma is 0 where the class sum is not a
            root (L is None)."""
            il = sums[ix].get(iy)
            return il, alg._gamma_to(ix, iy, il)

        def vec(xi, *terms):
            """The sum of sign g beta_L, or of sign g xi_L with xi_TL =
            -xi_L, over the terms (sign, (L, g))."""
            return {m + (l | 1 if xi else l & ~1): -sign * g if xi and l & 1
                    else sign * g for sign, (l, g) in terms if g}

        for ix in range(0, alg.n_u, 2):  # the parity-0 objects
            x, bx, xx = alg.objects[ix], m + ix, m + ix + 1
            for i, s in enumerate(cat.simples):
                a = cat.A(s, x)
                if a:
                    put(i, bx, {xx: -a})
                    put(i, xx, {bx: a})
            put(bx, xx, {j: -2 * c for j, c in self.alpha_coords(x).items()})
            row = sums[ix]
            for iy in range(ix + 2, alg.n_u, 2):
                if iy not in row and iy ^ 1 not in row:
                    continue  # every bracket of the two roots is 0
                by, xy = m + iy, m + iy + 1
                l, mm = step(ix, iy), step(ix, iy ^ 1)
                put(bx, by, vec(False, (1, l), (1, mm)))
                put(xy, xx, vec(False, (1, l), (-1, mm)))
                put(bx, xy, vec(True, (1, l), (-1, mm)))
                put(by, xx, vec(True, (1, step(iy, ix)), (-1, step(iy, ix ^ 1))))
        return table

    def bracket(self, a, b):
        return table_bracket(self._brackets, a, b)

    def jacobi_check(self):
        return jacobi_sweep(self._brackets)

    # -- the complexification map ------------------------------------------

    def phi_matrix(self):
        """Columns: alpha_j -> i H'_j, beta_r -> u_{r,0}+u_{r,1},
        xi_r -> i(u_{r,0} - u_{r,1}); a QI matrix into the integer-form basis."""
        i_ = QI.i
        mat = {}

        def put(r, c, v):
            mat.setdefault(r, {})[c] = v

        for j in range(self.m):
            put(self.alg.n_u + j, j, i_)
        for k in range(self.npos):
            u0, u1 = 2 * k, 2 * k + 1  # the objects over the root
            put(u0, self.m + 2 * k, GaussianRational(1))
            put(u1, self.m + 2 * k, GaussianRational(1))
            put(u0, self.m + 2 * k + 1, i_)
            put(u1, self.m + 2 * k + 1, GaussianRational(0) - i_)
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
        the product of the pivots Delta_{j+1} / (scale Delta_j) of the
        `Bareiss.of` elimination of -G_c at indices below k, over every
        component c."""
        gram = self.killing_gram()
        pivot = {}
        for idx in components(self.dim, [sp_from_dense(gram, QQ)]):
            fac = Bareiss.of([[-gram[r][c] for c in idx] for r in idx])
            mnr = fac.minors
            pivot.update((g, Fraction(mnr[j + 1], fac.scale * mnr[j]))
                         for j, g in enumerate(idx[:len(mnr) - 1]))
        minors, prod = [], Fraction(1)
        for k in range(self.dim):
            # a component's elimination stops after its first pivot <= 0, so
            # every index up to the first such pivot has one
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
                    f = Fraction(vec[p], bv[p])
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

def exp_alpha_matrix(cf: CompactForm, x):
    """exp(t ad alpha_X) as a sparse TrigPoly matrix."""
    cat, m = cf.cat, cf.m
    one = TrigPoly.const(1)
    mat = {j: {j: one} for j in range(m)}
    for iy in range(0, cf.alg.n_u, 2):
        a = cat.A(x, cf.alg.objects[iy])
        bi, xi_ = m + iy, m + iy + 1
        ca, sa = trig_multiple(a)
        mat[bi] = {c: v for c, v in ((bi, ca), (xi_, sa)) if v}
        mat[xi_] = {c: v for c, v in ((bi, -sa), (xi_, ca)) if v}
    return mat


def _fixed_columns(cf, ix, sign):
    """The alpha-, own- and partner-columns of exp(t ad g) for the parity-0
    object X of index ix: g = beta_X with partner p = xi_X for sign 1,
    g = xi_X with p = beta_X for sign -1.  alpha_j -> alpha_j
    + (A_{S_j,X}/2) [(cos2t - 1) alpha_X + sign * sin2t * p], g -> g, and
    p -> cos2t p - sign * sin2t alpha_X.  In normal form
    (A/2)(cos2t - 1) = A c^2 - A and (A/2) sin2t = A s c."""
    cat, x = cf.cat, cf.alg.objects[ix]
    one = TrigPoly.const(1)
    cos2, sin2 = trig_multiple(2)
    ax = cf.alpha_coords(x)
    bx, xx = cf.m + ix, cf.m + ix + 1
    own, partner = (bx, xx) if sign == 1 else (xx, bx)
    cols = {}
    for j in range(cf.m):
        a = cat.A(cat.simples[j], x)
        col = {j: one}
        if a:
            for k, v in ax.items():
                col[k] = col.get(k, TrigPoly()) + TrigPoly(
                    {(0, 2): a * v, (0, 0): -a * v})
            col[partner] = col.get(partner, TrigPoly()) + TrigPoly(
                {(1, 1): sign * a})
        cols[j] = {k: v for k, v in col.items() if v}
    turn = {partner: cos2, **{k: sin2.scale(-sign * v) for k, v in ax.items()}}
    for k in (bx, xx):
        cols[k] = {own: one} if k == own else turn
    return cols


def _from_columns(cols):
    """The matrix with columns `cols`; chain terms may cancel, and the
    matrix keeps no zero entries."""
    return sp_transpose({c: {r: v for r, v in col.items() if v}
                         for c, col in cols.items()})


def exp_beta_matrix(cf: CompactForm, x, chain=None):
    """exp(t ad beta_X); beta_{TX} = beta_X so only the root of X matters.
    `chain` is `_chain_terms(cf, ix)` for the parity-0 index ix of X, if the
    caller has it."""
    ix, m = cf.cat.index(x) & ~1, cf.m
    cols = _fixed_columns(cf, ix, 1)
    for iy, k, il, dk in _chain_terms(cf, ix) if chain is None else chain:
        bcol = cols.setdefault(m + iy, {})
        xcol = cols.setdefault(m + iy + 1, {})
        bi, xi_ = m + (il & ~1), m + (il | 1)
        bcol[bi] = bcol.get(bi, TrigPoly()) + dk
        xcol[xi_] = xcol.get(xi_, TrigPoly()) + (-dk if il & 1 else dk)
    return _from_columns(cols)


def exp_xi_matrix(cf: CompactForm, x, chain=None):
    """exp(t ad xi_X) for parity-0 X; for TX substitute t -> -t.  `chain`
    is as for `exp_beta_matrix`."""
    ix, m = cf.cat.index(x), cf.m
    cols = _fixed_columns(cf, ix & ~1, -1)
    for iy, k, il, dk in _chain_terms(cf, ix & ~1) if chain is None else chain:
        bcol = cols.setdefault(m + iy, {})
        xcol = cols.setdefault(m + iy + 1, {})
        bi, xi_ = m + (il & ~1), m + (il | 1)
        xsign = -1 if il & 1 else 1
        if k % 2 == 0:
            s = 1 if (k // 2) % 2 == 0 else -1
            bcol[bi] = bcol.get(bi, TrigPoly()) + dk.scale(s)
            xcol[xi_] = xcol.get(xi_, TrigPoly()) + dk.scale(s * xsign)
        else:
            sb = 1 if ((k - 1) // 2) % 2 == 0 else -1
            sx = 1 if ((k + 1) // 2) % 2 == 0 else -1
            bcol[xi_] = bcol.get(xi_, TrigPoly()) + dk.scale(sb * xsign)
            xcol[bi] = xcol.get(bi, TrigPoly()) + dk.scale(sx)
    mat = _from_columns(cols)
    return sp_map(mat, _flip_sin) if ix & 1 else mat


def closed_forms(cf):
    """[(gen, X, vector, exp(t ad vector))] for every closed-form
    one-parameter subgroup, in the order alpha_{S_j} over the simples, then
    beta_X, xi_X and xi_TX for each positive root (X of parity 0).
    xi_TX = -xi_X, so its matrix is xi_X's at -t.  The list is built on the
    first call and kept on `cf`; its consumers only read it."""
    if cf._forms is None:
        forms = [("alpha", x, cf.alpha_coords(x), exp_alpha_matrix(cf, x))
                 for x in cf.cat.simples]
        for ix in range(0, cf.alg.n_u, 2):
            x, tx = cf.alg.objects[ix], cf.alg.objects[ix + 1]
            chain = _chain_terms(cf, ix)
            xi = exp_xi_matrix(cf, x, chain)
            forms += [("beta", x, cf.beta_coords(x),
                       exp_beta_matrix(cf, x, chain)),
                      ("xi", x, cf.xi_coords(x), xi),
                      ("xi", tx, cf.xi_coords(tx), sp_map(xi, _flip_sin))]
        cf._forms = forms
    return cf._forms


def _chain_terms(cf, ix):
    """(Y, k, L_k, D_{X,Y,k}) by index, for the parity-0 object X of index
    ix, Y of parity 0 over every positive root other than X's and every k
    in [-p_XY, q_XY] with D nonzero; L_k is the object of class
    zeta_Y + k zeta_X."""
    out = []
    for iy in range(0, cf.alg.n_u, 2):
        if iy != ix:
            objs, d = _d_string(cf.alg, ix, iy)
            out += [(iy, k, il, dk) for il, (k, dk) in zip(objs, d.items())
                    if dk]
    return out


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
        img = cf.bracket(vec, {j: 1})
        for i, v in img.items():
            out[i, j] = float(v)
    return out


def closed_form_vs_expm(cf, ts=(0.3, 0.7, 1.9)):
    """Compare every closed-form exponential with scipy's expm at sample
    angles; returns max absolute deviation."""
    import numpy as np
    from scipy.linalg import expm
    worst = 0.0
    for _, _, vec, sym in closed_forms(cf):
        ad = ad_matrix_numeric(cf, vec)
        for t in ts:
            ref = expm(t * ad)
            got = trig_matrix_numeric(sym, cf.dim, t)
            worst = max(worst, float(np.abs(got - ref).max()))
    return worst


def gram_preservation_deviation(cf, words=24, max_len=6, seed=20240819):
    """Random words in the closed-form exponentials of parity-0 objects
    must preserve the compact Gram matrix; returns the worst
    |W^T G W - G| entry."""
    import random as _random
    import numpy as np
    rng = _random.Random(seed)
    gram = np.array([[float(v) for v in row] for row in cf.killing_gram()])
    syms = [sym for _, x, _, sym in closed_forms(cf) if not x.parity]
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
# the closed forms decided exactly by the differential equation

def closed_form_ode_check(cf):
    """Every closed form F of `closed_forms` is exp(t ad vec), decided
    exactly: F = I at t = 0 (s = 0, c = 1), and F' = ad(vec) F as TrigPoly
    matrices.  exp(tA) is the unique solution of F' = A F with F(0) = I
    (Hall, *Lie Groups, Lie Algebras, and Representations*, 2.1), and the
    ring embeds in the functions on |t| < pi/2, so the two identities hold
    iff F = exp(t ad vec).  ad(vec) F scales rows of F by the ints of
    `cf._brackets`.  Returns (ok, witness), the witness (gen, X, "initial"
    or "ode", row) at the first failing row of the first failing form."""
    table, dim = cf._brackets, cf.dim
    for gen, x, vec, mat in closed_forms(cf):
        ad = {}  # ad(vec) by rows: ad[i][k] = coefficient of e_i in [vec, e_k]
        for a, va in vec.items():
            for k, img in enumerate(table[a]):
                for i, v in img.items():
                    row = ad.setdefault(i, {})
                    row[k] = row.get(k, 0) + va * v
        for i in range(dim):
            row = mat.get(i, {})
            at0 = {j: w for j, tp in row.items()
                   if (w := sum(v for (sd, _), v in tp.c.items() if not sd))}
            if at0 != {i: 1}:
                return False, (gen, x, "initial", i)
            want = {}
            for k, v in ad.get(i, {}).items():
                for j, tp in mat.get(k, {}).items():
                    for (sd, cd), w in tp.c.items():
                        want[j, sd, cd] = want.get((j, sd, cd), 0) + v * w
            got = {(j, sd, cd): w for j, tp in row.items()
                   for (sd, cd), w in tp.derivative().c.items()}
            if got != _finish_row(want, None):
                return False, (gen, x, "ode", i)
    return True, None


# ---------------------------------------------------------------------------
# the factorization of exp(t ad(u_X + u_TX)) through the Chevalley generators

def _phi_turns(cf):
    """phi by rows, {row: [(col, q)]}, the entry being i^q: phi has at most
    two entries per row, each 1, i or -i."""
    turn = {QI.one: 0, QI.i: 1, -QI.one: 2, -QI.i: 3}
    return {r: [(c, turn[v]) for c, v in row.items()]
            for r, row in cf.phi_matrix().items()}


def _put(acc, key, v, q):
    """Add v i^q at `key` + (part,) of `acc`, a Gaussian coefficient being
    held as its real (part 0) and imaginary (part 1) parts."""
    k = key + (q & 1,)
    acc[k] = acc.get(k, 0) + (-v if q & 2 else v)


def _phi_times(phi, mat):
    """phi . mat for a TrigPoly matrix `mat`: row r is the sum of at most two
    rows of `mat`, times 1, i or -i, held as {(col, s_deg, c_deg, part):
    coeff}."""
    out = {}
    for r, prow in phi.items():
        acc = {}
        for c, q in prow:
            for col, tp in mat.get(c, {}).items():
                for (sd, cd), v in tp.c.items():
                    _put(acc, (col, sd, cd), v, q)
        if acc := _finish_row(acc, None):
            out[r] = acc
    return out


def _sin_powers(n):
    """s^n in normal form as [(s_deg, c_deg, coeff)], by the flat sum
    s^(2h+r) = sum_l (-1)^l C(h, l) s^r c^(2l)."""
    h, r = divmod(n, 2)
    return [(r, 2 * l, (-1) ** l * math.comb(h, l)) for l in range(h + 1)]


def _times_phi(prod, phi, base, xi):
    """R . phi in the form of `_phi_times`, for the exponent-keyed product
    (see `ek_mul`) R = E_X(t u^-1) h_X(u^-1) E_TX(t^base u^-1), u standing
    for c = cos and t counting the powers: its key (col, k1 + base k2, b),
    from the k1-th power of E_X and the k2-th of E_TX, stands for
    s^(k1 + k2) c^b, times i^k1 (-i)^k2 when `xi` is set.  Each term is
    brought to normal form once and relabelled through phi's row `col`."""
    sin_powers = {}
    out = {}
    for r, row in prod.items():
        acc = {}
        for (col, et, cd), v in row.items():
            k2, k1 = divmod(et, base)
            q0 = k1 - k2 if xi else 0
            n = k1 + k2
            red = sin_powers.get(n)
            if red is None:
                red = sin_powers[n] = _sin_powers(n)
            for c, q in phi[col]:
                for sd, dc, w in red:
                    _put(acc, (c, sd, cd + dc), w * v, q + q0)
        if acc := _finish_row(acc, None):
            out[r] = acc
    return out


def exp_beta_factorization_check(alg, cf=None):
    """exp(t ad(u_X+u_TX)) = E_X(tan t) h_X(1/cos t) E_TX(tan t), and the
    Gaussian twin exp(t ad i(u_X - u_TX)) = E_X(i tan t) h_X(1/cos t)
    E_TX(-i tan t), for every parity-0 X.  The closed form S of beta_X or
    xi_X is carried through phi as phi S = R phi, which holds iff
    phi S phi^-1 = R, as phi is invertible.  R comes from one integer
    exponent-keyed product per root, with tan = s c^-1 and sec = c^-1, whose
    keys keep the powers of E_X and E_TX apart (`_times_phi`), so the beta
    and xi sides read the same product.  No TrigPoly is multiplied by
    another.  Returns (ok, witness), the witness (gen, root)."""
    if cf is None:
        cf = CompactForm(alg)
    lg = LaurentGroup(ChevalleyGroup(alg))
    phi = _phi_turns(cf)
    for gen, x, _, sym in closed_forms(cf):
        if gen == "alpha" or x.parity:
            continue
        if gen == "beta":
            ix = cf.cat.index(x)
            base = len(lg.grp.exp_table(ix))  # above every power of E_X
            prod = lg.mul(lg.E(ix, 1, 1, -1), lg.h(ix, 0, -1),
                          lg.E(ix ^ 1, 1, base, -1))
        if _phi_times(phi, sym) != _times_phi(prod, phi, base, gen == "xi"):
            return False, (gen, x.pos_root)
    return True, None
