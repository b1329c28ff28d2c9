"""The compact form's single routines against the twins they replaced.

`first_bracket_failure` sweeps one basis row i at a time: ad_i = [M e_i, -]
is summed once over the nonzero cells of the target table, and two sparse
products give M[e_i, e_j] and [M e_i, M e_j] for every j > i, compared with
`dom.eq`.  It has two references: the sweep over `bracket_over`, which
reduced every product in the domain, and the per-pair sweep it replaced,
which took [M e_i, M e_j] with `table_bracket` and M[e_i, e_j] as a one-row
`sp_mul` for each pair.  `CompactForm.phi_inverse` is D phi^H; the reference
is the hand-built inverse.

The compact form walks root strings by object index through `alg.chev.sums`
and `alg.gamma`, and holds every coefficient as an int; `closed_forms`
builds its list once per `CompactForm`.  The references are the object
walks over `Fraction`s they replaced: the chains by `chain_object` and
`gamma_of`, the bracket table by `_gamma_terms` and one-row `sp_add`s, the
fixed columns with (A/2)(cos 2t - 1), and the closed forms built afresh on
every call.  The tables, the D coefficients and the closed forms must be
equal, each TrigPoly's terms in the same order, so that they evaluate to
the same floats.  The checks must give the same verdicts and witnesses on
every single gamma flip of A2, B2 and G2 and on every single gamma of B2
doubled; the D coefficients must be equal with any one gamma of B2 or G2
doubled or raised by 1, which makes some of them proper Fractions.
"""

import math
import random
from fractions import Fraction

import pytest

from liekit.chevgroup import ChevalleyGroup, random_group_element
from liekit.compactform import (TRIG_QI, CompactForm, TrigPoly, _flip_sin,
                                _fixed_columns, _gaussian, closed_form_vs_expm,
                                closed_forms, d_coefficients,
                                d_coefficients_dual, d_equals_dual_check,
                                exp_beta_factorization_check,
                                gamma_string_product_check,
                                gram_preservation_deviation)
from liekit.exact import (QI, QQ, ZZ, GaussianRational, PrimeField, sp_add,
                          sp_eq, sp_map, sp_mul, sp_mul_many, sp_transpose)
from liekit.liealg import (first_bracket_failure, jacobi_sweep, lie_algebra,
                           table_bracket)
from liekit.rootcat import RootCatObject


# ---------------------------------------------------------------------------
# the references

def reference_bracket_over(table, a, b, dom):
    """Bilinear bracket of dict vectors with coefficients in `dom`."""
    out = {}
    for i, ca in a.items():
        row = table[i]
        for j, cb in b.items():
            for k, v in row[j].items():
                w = dom.mul(dom.mul(ca, cb), dom.embed(v))
                out[k] = dom.add(out[k], w) if k in out else w
    return {k: v for k, v in out.items() if not dom.is_zero(v)}


def reference_first_bracket_failure(src, dst, mat, dom):
    cols = sp_transpose(mat)
    n = len(src)
    for i in range(n):
        for j in range(i + 1, n):
            img = {}
            for k, v in src[i][j].items():
                v = dom.embed(v)
                for r, w in cols.get(k, {}).items():
                    z = dom.mul(v, w)
                    img[r] = dom.add(img[r], z) if r in img else z
            img = {r: z for r, z in img.items() if not dom.is_zero(z)}
            got = reference_bracket_over(dst, cols.get(i, {}), cols.get(j, {}),
                                         dom)
            if img != got and any(
                    not dom.eq(img.get(k, dom.zero), got.get(k, dom.zero))
                    for k in set(img) | set(got)):
                return i, j
    return None


def pairwise_first_bracket_failure(src, dst, mat, dom):
    """The per-pair sweep: one `table_bracket` and one one-row `sp_mul` for
    each basis pair i < j."""
    cols = sp_transpose(mat)
    n = len(src)
    for i in range(n):
        for j in range(i + 1, n):
            img = sp_mul({0: src[i][j]}, cols, dom).get(0, {})
            got = table_bracket(dst, cols.get(i, {}), cols.get(j, {}))
            if any(not dom.eq(img.get(k, dom.zero), got.get(k, dom.zero))
                   for k in img.keys() | got.keys()):
                return i, j
    return None


def reference_phi_inverse(cf):
    """u_{r,0} = (beta - i xi)/2, u_{r,1} = (beta + i xi)/2, H'_j = -i alpha_j."""
    cat = cf.cat
    i_ = QI.i
    half = GaussianRational(Fraction(1, 2))
    mih = GaussianRational(0, Fraction(-1, 2))
    mat = {}

    def put(r, c, v):
        mat.setdefault(r, {})[c] = v

    for j in range(cf.m):
        put(j, cf.alg.n_u + j, GaussianRational(0) - i_)
    for k, r in enumerate(cf.positive):
        u0 = cat.index(RootCatObject(r, 0))
        u1 = cat.index(RootCatObject(r, 1))
        put(cf.m + 2 * k, u0, half)
        put(cf.m + 2 * k + 1, u0, mih)
        put(cf.m + 2 * k, u1, half)
        put(cf.m + 2 * k + 1, u1, GaussianRational(0) - mih)
    return mat


# The object walks over Fractions that the index walks over ints replaced,
# kept as they were: the chains by `chain_object` and `gamma_of`, the
# bracket table by `_gamma_terms` and one-row `sp_add`s, and the closed
# forms with Fraction coefficients.

_SIN = TrigPoly({(1, 0): Fraction(1)})
_COS = TrigPoly({(0, 1): Fraction(1)})


def reference_trig_multiple(a):
    """(cos(a*t), sin(a*t)) as TrigPolys, integer a."""
    cosk, sink = TrigPoly.const(Fraction(1)), TrigPoly()
    c, s = _COS, _SIN
    for _ in range(abs(a)):
        cosk, sink = c * cosk - s * sink, s * cosk + c * sink
    return cosk, (-sink if a < 0 else sink)


def _chain(alg, x, y, n):
    """The n steps gamma_{X, L_l}^{L_{l+1}} of the X-chain from L_0 = Y."""
    cat = alg.cat
    out = []
    for _ in range(n):
        nxt = cat.chain_object(x, y, 1, 1)
        out.append(alg.gamma_of(x, y, nxt))
        y = nxt
    return out


def _chain_coeff(steps):
    """C_{X,Y,j,1} = (1/j!) prod_{l<j} gamma_{X, L_l}^{L_{l+1}} from the j
    steps of the X-chain from Y."""
    return Fraction(math.prod(steps), math.factorial(len(steps)))


def reference_d_coefficients(alg, x, y):
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


def reference_d_coefficients_dual(alg, x, y):
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


def reference_gamma_string_product_check(alg):
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


def reference_d_equals_dual_check(alg):
    cat = alg.cat
    for x in cat.objects:
        for y in cat.objects:
            if x.pos_root == y.pos_root:
                continue
            dual = reference_d_coefficients_dual(alg, x, y)
            for k, d in reference_d_coefficients(alg, x, y).items():
                if d != dual[k]:
                    return False, (x, y, k)
    return True, None


def reference_alpha_coords(cf, x):
    return {j: Fraction(c) for j, c in enumerate(cf.alg.hprime_coords(x)) if c}


def reference_beta_coords(cf, x):
    return {cf.beta_index(x.pos_root): Fraction(1)}


def reference_xi_coords(cf, x):
    return {cf.xi_index(x.pos_root): Fraction(-1 if x.parity else 1)}


def _gamma_sum(terms, coords, sign):
    """coords(L, g) + sign coords(M, h) for the terms (L, g), (M, h) of
    `_gamma_terms`, as one sparse add of one-row matrices."""
    a, b = ({0: coords(l, g)} if g else {} for l, g in terms)
    return sp_add(a, b, ZZ, sign).get(0, {})


def _gamma_terms(cf, x, y):
    """(L, gamma_{XY}^L) and (M, gamma_{X,TY}^M); gamma is 0 where the
    class sum is not a root."""
    out = []
    for other in (y, cf.cat.shift(y)):
        l = cf.cat.chain_object(x, other, 1, 1)
        out.append((l, cf.alg.gamma_of(x, other, l) if l else 0))
    return out


def reference_brackets(cf):
    """table[i][j] = {k: coeff} for the basis bracket [e_i, e_j]."""
    m, cat = cf.m, cf.cat
    table = [[{} for _ in range(cf.dim)] for _ in range(cf.dim)]

    def put(i, j, vec):
        table[i][j] = {k: Fraction(v) for k, v in vec.items() if v}
        table[j][i] = {k: -Fraction(v) for k, v in vec.items() if v}

    x0 = [RootCatObject(r, 0) for r in cf.positive]
    for i in range(m):
        si = cat.simples[i]
        for y in x0:
            a = cat.A(si, y)
            put(i, cf.beta_index(y.pos_root), {cf.xi_index(y.pos_root): -a})
            put(i, cf.xi_index(y.pos_root), {cf.beta_index(y.pos_root): a})
    # g beta_L and g xi_L, with xi_TL = -xi_L
    beta = lambda l, g: {cf.beta_index(l.pos_root): g}
    xi = lambda l, g: {cf.xi_index(l.pos_root): -g if l.parity else g}
    for k, x in enumerate(x0):
        bx, xx = cf.beta_index(x.pos_root), cf.xi_index(x.pos_root)
        put(bx, xx, {j: -2 * c for j, c in reference_alpha_coords(cf, x).items()})
        for y in x0[k + 1:]:
            by, xy = cf.beta_index(y.pos_root), cf.xi_index(y.pos_root)
            terms = _gamma_terms(cf, x, y)
            put(bx, by, _gamma_sum(terms, beta, 1))
            put(xy, xx, _gamma_sum(terms, beta, -1))
            put(bx, xy, _gamma_sum(terms, xi, -1))
            put(by, xx, _gamma_sum(_gamma_terms(cf, y, x), xi, -1))
    return table


def _parity0(x):
    return RootCatObject(x.pos_root, 0)


def reference_exp_alpha_matrix(cf, x):
    """exp(t ad alpha_X) as a sparse TrigPoly matrix."""
    cat = cf.cat
    one = TrigPoly.const(Fraction(1))
    mat = {j: {j: one} for j in range(cf.m)}
    for r in cf.positive:
        y = RootCatObject(r, 0)
        a = cat.A(x, y)
        bi, xi_ = cf.beta_index(r), cf.xi_index(r)
        ca, sa = reference_trig_multiple(a)
        mat[bi] = {bi: ca, xi_: sa}
        mat[xi_] = {bi: -sa, xi_: ca}
        for k in (bi, xi_):
            mat[k] = {c: v for c, v in mat[k].items() if v}
    return mat


def reference_fixed_columns(cf, x, sign):
    """The alpha-, own- and partner-columns of exp(t ad g) for parity-0 X:
    g = beta_X with partner p = xi_X for sign 1, g = xi_X with p = beta_X
    for sign -1.  alpha_j -> alpha_j + (A_{S_j,X}/2) [(cos2t - 1) alpha_X
    + sign * sin2t * p], g -> g, and p -> cos2t p - sign * sin2t alpha_X."""
    cat = cf.cat
    one = TrigPoly.const(Fraction(1))
    cos2, sin2 = reference_trig_multiple(2)
    cos2m1 = cos2 - one
    ax = reference_alpha_coords(cf, x)
    bx, xx = cf.beta_index(x.pos_root), cf.xi_index(x.pos_root)
    own, partner = (bx, xx) if sign == 1 else (xx, bx)
    cols = {}
    for j in range(cf.m):
        a = Fraction(cat.A(cat.simples[j], x), 2)
        col = {j: one}
        if a:
            for k, v in ax.items():
                col[k] = col.get(k, TrigPoly()) + cos2m1.scale(a * v)
            col[partner] = col.get(partner, TrigPoly()) + sin2.scale(sign * a)
        cols[j] = {k: v for k, v in col.items() if v}
    turn = {partner: cos2, **{k: sin2.scale(-sign * v) for k, v in ax.items()}}
    for k in (bx, xx):
        cols[k] = {own: one} if k == own else turn
    return cols


def _from_columns(cols):
    return sp_transpose({c: {r: v for r, v in col.items() if v}
                         for c, col in cols.items()})


def reference_chain_terms(cf, x):
    """(r, k, L_k, D_{X,Y,k}) for Y = (r, parity 0) over every positive root
    r other than X's and every k in [-p_XY, q_XY] with D nonzero; L_k is the
    object of class zeta_Y + k zeta_X."""
    cat = cf.cat
    for r in cf.positive:
        if r == x.pos_root:
            continue
        y = RootCatObject(r, 0)
        for k, dk in reference_d_coefficients(cf.alg, x, y).items():
            if dk:
                yield r, k, cat.chain_object(x, y, k, 1), dk


def reference_exp_beta_matrix(cf, x, chain=None):
    x = _parity0(x)
    cols = reference_fixed_columns(cf, x, 1)
    for r, k, lk, dk in reference_chain_terms(cf, x) if chain is None else chain:
        bcol = cols.setdefault(cf.beta_index(r), {})
        xcol = cols.setdefault(cf.xi_index(r), {})
        bi, xi_ = cf.beta_index(lk.pos_root), cf.xi_index(lk.pos_root)
        bcol[bi] = bcol.get(bi, TrigPoly()) + dk
        xcol[xi_] = xcol.get(xi_, TrigPoly()) + (-dk if lk.parity else dk)
    return _from_columns(cols)


def reference_exp_xi_matrix(cf, x, chain=None):
    flip = x.parity == 1
    x = _parity0(x)
    cols = reference_fixed_columns(cf, x, -1)
    for r, k, lk, dk in reference_chain_terms(cf, x) if chain is None else chain:
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
    mat = _from_columns(cols)
    return sp_map(mat, _flip_sin) if flip else mat


def reference_closed_forms(cf):
    """[(gen, X, vector, exp(t ad vector))], built afresh on every call."""
    out = []
    for x in cf.cat.simples:
        out.append(("alpha", x, reference_alpha_coords(cf, x),
                    reference_exp_alpha_matrix(cf, x)))
    for r in cf.positive:
        x = RootCatObject(r, 0)
        tx = cf.cat.shift(x)
        chain = list(reference_chain_terms(cf, x))
        out.append(("beta", x, reference_beta_coords(cf, x),
                    reference_exp_beta_matrix(cf, x, chain)))
        xi = reference_exp_xi_matrix(cf, x, chain)
        out.append(("xi", x, reference_xi_coords(cf, x), xi))
        out.append(("xi", tx, reference_xi_coords(cf, tx), sp_map(xi, _flip_sin)))
    return out


def reference_exp_beta_factorization_check(alg, cf):
    grp = ChevalleyGroup(alg)
    phi = sp_map(cf.phi_matrix(), TrigPoly.const)
    phiinv = sp_map(cf.phi_inverse(), TrigPoly.const)
    tan = TrigPoly({(1, -1): GaussianRational(1)})
    itan = TrigPoly({(1, -1): QI.i})
    sec = TrigPoly({(0, -1): GaussianRational(1)})
    args = {"beta": (tan, tan), "xi": (itan, -itan)}
    for gen, x, _, sym in reference_closed_forms(cf):
        if gen == "alpha" or x.parity:
            continue
        lhs = sp_mul_many([phi, sp_map(sym, _gaussian), phiinv], TRIG_QI)
        a, b = args[gen]
        rhs = sp_mul_many([
            grp.E(x, a, TRIG_QI),
            grp.h(x, sec, TRIG_QI),
            grp.E(cf.cat.shift(x), b, TRIG_QI)], TRIG_QI)
        if not sp_eq(lhs, rhs, TRIG_QI):
            return False, (gen, x.pos_root)
    return True, None


# ---------------------------------------------------------------------------
# the comparisons

def _flipped(series, rank, key):
    alg = lie_algebra(series, rank)
    il, g = alg.gamma[key]
    return alg.with_gamma({key: (il, -g)})


def _phi_failure(alg):
    cf = CompactForm(alg)
    args = (cf._brackets, alg._brackets, cf.phi_matrix(), QI)
    return first_bracket_failure(*args), reference_first_bracket_failure(*args)


PHI_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]


@pytest.mark.parametrize("series,rank", PHI_TYPES)
def test_phi_sweep_matches_reference(series, rank):
    got, want = _phi_failure(lie_algebra(series, rank))
    assert got == want is None


@pytest.mark.parametrize("series,rank,key", [("B", 2, (7, 4)),
                                             ("D", 4, (0, 4))])
def test_phi_sweep_matches_reference_on_flipped_gamma(series, rank, key):
    """phi with one flipped structure constant in both tables."""
    got, want = _phi_failure(_flipped(series, rank, key))
    assert got == want


@pytest.mark.parametrize("series,rank", [("B", 2), ("D", 4)])
def test_phi_sweep_matches_reference_on_a_planted_fault(series, rank):
    """One compact bracket changed: both sweeps stop at the same pair."""
    cf = CompactForm(lie_algebra(series, rank))
    table = [[dict(c) for c in row] for row in cf._brackets]
    i, j = cf.beta_index(cf.positive[0]), cf.beta_index(cf.positive[-1])
    table[i][j][cf.m] = table[i][j].get(cf.m, 0) + 1
    args = (table, cf.alg._brackets, cf.phi_matrix(), QI)
    got = first_bracket_failure(*args)
    assert got is not None
    assert got == reference_first_bracket_failure(*args)


def _word(alg, rng, dom, length):
    return random_group_element(ChevalleyGroup(alg), dom, rng, length,
                                list(range(1, dom.p)))


@pytest.mark.parametrize("series,rank", [("F", 4), ("E", 6), ("E", 7)])
def test_prime_field_sweep_matches_reference(series, rank):
    """F_101 words: the same verdict, and with one entry changed the same
    first failing pair."""
    alg = lie_algebra(series, rank)
    dom = PrimeField(101)
    rng = random.Random(f"sweep oracle {series}{rank}")
    word = _word(alg, rng, dom, 10)
    table = alg._brackets
    assert first_bracket_failure(table, table, word, dom) is None
    assert reference_first_bracket_failure(table, table, word, dom) is None
    r = rng.choice(sorted(word))
    c = rng.randrange(alg.dim)
    row = dict(word[r])
    row[c] = dom.add(row.get(c, dom.zero), dom.one)
    changed = {**word, r: {k: v for k, v in row.items() if v}}
    got = first_bracket_failure(table, table, changed, dom)
    assert got is not None
    assert got == reference_first_bracket_failure(table, table, changed, dom)


def _all_three(src, dst, mat, dom):
    return (first_bracket_failure(src, dst, mat, dom),
            reference_first_bracket_failure(src, dst, mat, dom),
            pairwise_first_bracket_failure(src, dst, mat, dom))


def _small_word(series, rank, dom, scalars):
    alg = lie_algebra(series, rank)
    rng = random.Random(f"row sweep {series}{rank} {dom.p}")
    return alg, random_group_element(ChevalleyGroup(alg), dom, rng, 6, scalars)


SMALL_WORDS = [("A", 2, PrimeField(7), range(1, 7)),
               ("B", 2, PrimeField(7), range(1, 7)),
               ("G", 2, PrimeField(7), range(1, 7)),
               ("A", 2, QQ, [Fraction(k, 3) for k in (-4, -1, 2, 5)])]


@pytest.mark.parametrize("series,rank,dom,scalars", SMALL_WORDS,
                         ids=["A2-F7", "B2-F7", "G2-F7", "A2-QQ"])
def test_row_sweep_matches_both_references_on_every_single_change(
        series, rank, dom, scalars):
    """Every entry of the word, one at a time, increased by 1 (absent
    entries included): the same verdict and first failing pair as both
    references."""
    alg, word = _small_word(series, rank, dom, list(scalars))
    table = alg._brackets
    assert _all_three(table, table, word, dom) == (None, None, None)
    failed = 0
    for r in range(alg.dim):
        for c in range(alg.dim):
            row = dict(word.get(r, {}))
            row[c] = dom.add(row.get(c, dom.zero), dom.one)
            changed = {**word, r: {k: v for k, v in row.items()
                                   if not dom.is_zero(v)}}
            got, want, pairwise = _all_three(table, table, changed, dom)
            assert got == want == pairwise
            failed += got is not None
    assert failed > alg.dim ** 2 // 2


def test_row_sweep_on_an_all_zero_column():
    """M with column c zero maps e_c to 0; the zero matrix preserves every
    bracket."""
    alg, word = _small_word("B", 2, PrimeField(7), list(range(1, 7)))
    table, dom = alg._brackets, PrimeField(7)
    assert _all_three(table, table, {}, dom) == (None, None, None)
    for c in range(alg.dim):
        zeroed = {r: {k: v for k, v in row.items() if k != c}
                  for r, row in word.items()}
        got, want, pairwise = _all_three(table, table, zeroed, dom)
        assert got is not None
        assert got == want == pairwise


@pytest.mark.parametrize("side", ["src", "dst"])
def test_row_sweep_finds_a_fault_in_the_last_pair_only(side):
    """One bracket [e_{n-2}, e_{n-1}] planted in the source or the target
    table, M the identity: only the last pair fails, once from the source
    side of the comparison and once from the target side."""
    alg = lie_algebra("A", 2)
    dom, n = PrimeField(7), alg.dim
    planted = [[dict(c) for c in row] for row in alg._brackets]
    planted[n - 2][n - 1] = {0: 1}
    src, dst = ((planted, alg._brackets) if side == "src"
                else (alg._brackets, planted))
    identity = {k: {k: 1} for k in range(n)}
    assert _all_three(src, dst, identity, dom) == ((n - 2, n - 1),) * 3


def test_row_sweep_returns_the_least_failing_j_of_a_row():
    """Two faults in row 0, at j = 2 and j = 9 of a 10-dimensional zero
    table, whose indices a set of ints holds as 9 before 2: the witness is
    still (0, 2)."""
    n, dom = 10, PrimeField(7)
    zero = [[{} for _ in range(n)] for _ in range(n)]
    planted = [[{} for _ in range(n)] for _ in range(n)]
    planted[0][2] = planted[0][9] = {0: 1}
    identity = {k: {k: 1} for k in range(n)}
    assert _all_three(planted, zero, identity, dom) == ((0, 2),) * 3


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)])
def test_phi_inverse_is_the_hand_built_inverse(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    got, want = cf.phi_inverse(), reference_phi_inverse(cf)
    assert got == want
    assert all(isinstance(v, GaussianRational)
               for row in got.values() for v in row.values())


def _items(mat):
    """Every entry of a TrigPoly matrix with its terms in stored order: the
    order `TrigPoly.evaluate` sums them in, so equal items give equal
    floats."""
    return {i: {j: list(v.c.items()) for j, v in row.items()}
            for i, row in mat.items()}


def _same_forms(got, want):
    assert len(got) == len(want)
    for (gen, x, vec, mat), (wgen, wx, wvec, wmat) in zip(got, want):
        assert (gen, x, vec) == (wgen, wx, wvec)
        assert _items(mat) == _items(wmat), (gen, x)


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2), ("D", 4)])
def test_closed_forms_match_the_earlier_lists(series, rank):
    """Entries and order; the Gram words draw on the parity-0 entries."""
    cf = CompactForm(lie_algebra(series, rank))
    seq = closed_forms(cf)
    _same_forms(seq, reference_closed_forms(cf))
    assert [(gen, x) for gen, x, _, _ in seq[:cf.m + 3]] == (
        [("alpha", s) for s in cf.cat.simples]
        + [("beta", RootCatObject(cf.positive[0], 0)),
           ("xi", RootCatObject(cf.positive[0], 0)),
           ("xi", RootCatObject(cf.positive[0], 1))])


INDEX_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
               + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
               + [("G", 2), ("F", 4), ("E", 6), ("E", 7)])


def _ids(types):
    return [f"{s}{r}" for s, r in types]


@pytest.mark.parametrize("series,rank", INDEX_TYPES + [
    pytest.param("E", 8, marks=pytest.mark.slow)], ids=_ids(INDEX_TYPES) + ["E8"])
def test_index_walks_match_the_object_walks(series, rank):
    """The bracket table, every fixed column pair and every closed form are
    equal to the object walks over Fractions, term order included; the
    chain and D coefficients of every pair with X of parity 0 as well."""
    cf = CompactForm(lie_algebra(series, rank))
    alg, cat = cf.alg, cf.cat
    assert cf._brackets == reference_brackets(cf)
    for ix in range(0, alg.n_u, 2):
        x = alg.objects[ix]
        for sign in (1, -1):
            got = _fixed_columns(cf, ix, sign)
            want = reference_fixed_columns(cf, x, sign)
            assert _items(got) == _items(want)
        for iy in range(alg.n_u):
            if ix >> 1 != iy >> 1:
                y = alg.objects[iy]
                assert d_coefficients(alg, ix, iy) == reference_d_coefficients(
                    alg, x, y)
                assert d_coefficients_dual(alg, ix, iy) == (
                    reference_d_coefficients_dual(alg, x, y))
    _same_forms(closed_forms(cf), reference_closed_forms(cf))


def _ints(mat):
    return [v for row in mat.values() for tp in row.values()
            for v in tp.c.values()]


@pytest.mark.parametrize("series,rank", INDEX_TYPES, ids=_ids(INDEX_TYPES))
def test_coefficients_are_ints(series, rank):
    """No Fraction creeps in: every compact bracket entry, every closed-form
    vector and matrix coefficient, and every D coefficient is an int."""
    cf = CompactForm(lie_algebra(series, rank))
    assert all(type(v) is int for row in cf._brackets for d in row
               for v in d.values())
    for _, _, vec, mat in closed_forms(cf):
        assert all(type(v) is int for v in vec.values())
        assert all(type(v) is int for v in _ints(mat))
    alg = cf.alg
    assert all(type(v) is int for ix in range(0, alg.n_u, 2)
               for iy in range(alg.n_u) if ix >> 1 != iy >> 1
               for d in d_coefficients(alg, ix, iy).values()
               for v in d.c.values())


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ArithmeticError it raised
    (the exponential table of a changed algebra may not be integral)."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return False, (type(exc), str(exc))


def _verdicts(alg):
    """The four checks, each by the index walk and by the object walk."""
    cf = CompactForm(alg)
    got = (cf.jacobi_check(), d_equals_dual_check(alg),
           gamma_string_product_check(alg),
           _outcome(exp_beta_factorization_check, alg, cf))
    want = (jacobi_sweep(reference_brackets(cf)),
            reference_d_equals_dual_check(alg),
            reference_gamma_string_product_check(alg),
            _outcome(reference_exp_beta_factorization_check, alg, cf))
    return got, want


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_flips_give_the_object_walks_verdicts(series, rank):
    """Every single gamma flip: the same verdicts and witnesses, and every
    flip fails at least one of the four checks."""
    alg = lie_algebra(series, rank)
    got, want = _verdicts(alg)
    assert got == want
    assert all(ok for ok, _ in got)
    for key in sorted(alg.gamma):
        flip = _flipped(series, rank, key)
        got, want = _verdicts(flip)
        assert got == want, key
        assert not all(ok for ok, _ in got), key


def _changed(series, rank, key, fn):
    alg = lie_algebra(series, rank)
    il, g = alg.gamma[key]
    return alg.with_gamma({key: (il, fn(g))})


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2)])
def test_changed_magnitudes_keep_exact_coefficients(series, rank):
    """gamma doubled, or raised by 1, on every key in turn: the D
    coefficients of every pair with X of parity 0 equal the object walk's
    Fractions, and on B2 with gamma doubled the four checks give its
    verdicts.  Raising by 1 breaks the integrality of some chain
    coefficient (1/j!) prod gamma, so some D coefficient is a Fraction with
    denominator > 1, which no truncation may round."""
    split = 0
    for key in sorted(lie_algebra(series, rank).gamma):
        for doubled in (True, False):
            alg = _changed(series, rank, key,
                           (lambda g: 2 * g) if doubled else (lambda g: g + 1))
            for ix in range(0, alg.n_u, 2):
                for iy in range(alg.n_u):
                    if ix >> 1 == iy >> 1:
                        continue
                    x, y = alg.objects[ix], alg.objects[iy]
                    got = d_coefficients(alg, ix, iy)
                    assert got == reference_d_coefficients(alg, x, y)
                    assert d_coefficients_dual(alg, ix, iy) == (
                        reference_d_coefficients_dual(alg, x, y))
                    split += any(type(v) is Fraction
                                 for d in got.values() for v in d.c.values())
            if doubled and series == "B":
                got, want = _verdicts(alg)
                assert got == want, key
    assert split


def test_cached_forms_survive_their_consumers():
    """perfbench's order on one form: the factorization, the expm comparison
    and the Gram words read the forms built once; afterwards they still
    equal a fresh build, entry by entry, and hold ints only (a Gaussian
    copy of an entry made in place would still compare equal)."""
    alg = lie_algebra("B", 3)
    cf = CompactForm(alg)
    assert exp_beta_factorization_check(alg, cf) == (True, None)
    forms = closed_forms(cf)
    assert closed_form_vs_expm(cf) < 1e-10
    assert gram_preservation_deviation(cf, words=6, max_len=3) < 1e-9
    assert closed_forms(cf) is forms
    _same_forms(forms, reference_closed_forms(cf))
    assert all(type(v) is int for *_, mat in forms for v in _ints(mat))


def test_a_changed_algebra_builds_its_own_forms():
    """A `with_gamma` algebra's CompactForm does not see the forms already
    built for the algebra it was derived from."""
    cf = CompactForm(lie_algebra("B", 2))
    forms = closed_forms(cf)
    flip = CompactForm(_flipped("B", 2, (7, 4)))
    got = closed_forms(flip)
    assert got is not forms
    _same_forms(got, reference_closed_forms(flip))
    assert [m for *_, m in got] != [m for *_, m in forms]
    _same_forms(closed_forms(cf), reference_closed_forms(cf))
