"""The compact form's single routines against the twins they replaced.

`first_bracket_failure` takes [M e_i, M e_j] with `table_bracket` on Python's
operators and M[e_i, e_j] as one one-row `sp_mul`, comparing with `dom.eq`;
the reference is the earlier sweep over `bracket_over`, which reduced every
product in the domain.  `CompactForm.phi_inverse` is D phi^H; the reference
is the hand-built inverse.  `closed_forms` is the one sequence of closed-form
subgroups; the reference is the earlier list built by each check for itself,
with its own beta and xi builders.  Each pair must agree exactly: the same
first failing pair, the same matrix entries, the same sequence order.
"""

import random
from fractions import Fraction

import pytest

from liekit.chevgroup import ChevalleyGroup, random_group_element
from liekit.compactform import (CompactForm, TrigPoly, _chain_terms,
                                _flip_sin, closed_forms, exp_alpha_matrix,
                                trig_multiple)
from liekit.exact import QI, GaussianRational, PrimeField, sp_transpose
from liekit.liealg import first_bracket_failure, lie_algebra
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


def _reference_alpha_columns(cf, x, partner_coords, sign):
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


def reference_exp_beta(cf, x):
    cols = _reference_alpha_columns(cf, x, cf.xi_coords(x), 1)
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
    return sp_transpose({c: {r: v for r, v in col.items() if v}
                         for c, col in cols.items()})


def reference_exp_xi(cf, x):
    """exp(t ad xi_X), built afresh for TX as well."""
    flip = x.parity == 1
    x = RootCatObject(x.pos_root, 0)
    cols = _reference_alpha_columns(cf, x, cf.beta_coords(x), -1)
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


def reference_closed_forms(cf):
    """[(vector, matrix)] in the order `closed_form_vs_expm` listed them."""
    gens = []
    for j in range(cf.m):
        gens.append(({j: Fraction(1)}, exp_alpha_matrix(cf, cf.cat.simples[j])))
    for r in cf.positive:
        y, ty = RootCatObject(r, 0), RootCatObject(r, 1)
        gens.append(({cf.beta_index(r): Fraction(1)}, reference_exp_beta(cf, y)))
        gens.append(({cf.xi_index(r): Fraction(1)}, reference_exp_xi(cf, y)))
        gens.append(({cf.xi_index(r): Fraction(-1)}, reference_exp_xi(cf, ty)))
    return gens


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


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)])
def test_phi_inverse_is_the_hand_built_inverse(series, rank):
    cf = CompactForm(lie_algebra(series, rank))
    got, want = cf.phi_inverse(), reference_phi_inverse(cf)
    assert got == want
    assert all(isinstance(v, GaussianRational)
               for row in got.values() for v in row.values())


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2), ("D", 4)])
def test_closed_forms_match_the_earlier_lists(series, rank):
    """Entries and order; the Gram words draw on the parity-0 entries, the
    earlier list without xi_TX."""
    cf = CompactForm(lie_algebra(series, rank))
    seq = list(closed_forms(cf))
    want = reference_closed_forms(cf)
    assert [(vec, mat) for _, _, vec, mat in seq] == want
    assert [sym for _, x, _, sym in seq if not x.parity] == [
        sym for k, (_, sym) in enumerate(want)
        if k < cf.m or (k - cf.m) % 3 != 2]
    assert [(gen, x) for gen, x, _, _ in seq[:cf.m + 3]] == (
        [("alpha", s) for s in cf.cat.simples]
        + [("beta", RootCatObject(cf.positive[0], 0)),
           ("xi", RootCatObject(cf.positive[0], 0)),
           ("xi", RootCatObject(cf.positive[0], 1))])
