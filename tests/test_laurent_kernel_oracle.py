"""`ek_mul` and the `LaurentGroup` generators against `sp_mul` and the
`ChevalleyGroup` generators over LAURENT.

The symbolic group proofs hold a matrix over Z[t^{+-1}, s^{+-1}] in
exponent-keyed form, {row: {(col, et, es): int}}, where they used to hold
a matrix of `LaurentPoly` entries.  The two forms convert into each other
one monomial at a time.  On seeded random matrices with negative exponents,
several monomials per entry, terms that cancel and a row that vanishes,
`ek_mul` must give the converted `sp_mul` product as an equal dict, with no
stored zero and no empty row.  On A2, B2, G2 and B2 with gamma(7, 4)
flipped, E, h, n, n^{-1} and the torus conjugation of a `LaurentGroup` must
equal the converted generators over LAURENT at t, -t, t^{-1}, s, +-t^{-A} s
and t^A s (h at those of coefficient 1), and E also at constants, at
non-unit coefficients, as the commutator constants ask for, and at t + s.

n_X(c t^a s^b) is a substitution into n_X(u), and conjugation by n_X(t)
is one pass over the entries of M.  Each must equal what it replaces:
`reference_n`, the three-factor product E_X(m) E_TX(m^{-1}) E_X(m), and
the two products n M n^{-1} of `reference_conj`, on every object at c = +-1
and (a, b) in {-2..2}^2, and on E, n and h at s for every pair of objects,
on the same four, and on a sample of pairs on F4.
M_k moves a weight by k alpha, so on any table graded by the roots the
keys of different powers never meet, even at a = b = 0; on an exp table
planted off the grading they do, and E and n there must still equal the
generic generators.
"""

import random
from itertools import product as iproduct

import pytest

from liekit.chevgroup import ChevalleyGroup, LaurentGroup
from liekit.exact import (LAURENT, LaurentDomain, LaurentPoly, ek_mul,
                          sp_mul, sp_mul_many)
from liekit.liealg import lie_algebra


def to_laurent(m):
    """The matrix of LaurentPoly entries of an exponent-keyed matrix."""
    out = {}
    for i, row in m.items():
        r = {}
        for (j, et, es), v in row.items():
            r[j] = r.get(j, LAURENT.zero) + LaurentPoly({(et, es): v})
        if r := {j: v for j, v in r.items() if v}:
            out[i] = r
    return out


def from_laurent(m):
    """The exponent-keyed form of a matrix of LaurentPoly entries."""
    return {i: {(j, et, es): v for j, p in row.items()
                for (et, es), v in p.c.items()}
            for i, row in m.items()}


def _check(got, want):
    assert got == want
    for row in got.values():
        assert row
        assert all(isinstance(v, int) and v for v in row.values())


# ---------------------------------------------------------------------------
# the product

def _entry(rng):
    """A few monomials of one entry; small exponents, so that sums cancel."""
    return {(rng.randint(-2, 1), rng.randint(-1, 1)): rng.choice([-2, -1, 1, 2])
            for _ in range(rng.randint(1, 3))}


def _matrix(rng, n, density):
    """A random n x n exponent-keyed matrix, with equal rows 0 and 1."""
    m = {}
    for i in range(n):
        row = {(j, et, es): v for j in range(n) if rng.random() < density
               for (et, es), v in _entry(rng).items()}
        if row:
            m[i] = row
    if 0 in m:
        m[1] = dict(m[0])
    else:
        m.pop(1, None)
    return m


@pytest.mark.parametrize("seed", range(8))
def test_ek_mul_matches_sp_mul(seed):
    rng = random.Random(f"ek-{seed}")
    for n, density in ((3, 0.9), (6, 0.5), (9, 0.25)):
        a, b = _matrix(rng, n, density), _matrix(rng, n, density)
        if 0 in b:
            # +v t^e on row 0 of b and -v t^e on its equal row 1: r b = 0
            e, v = (rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice([1, 3])
            a[n] = {(0, *e): v, (1, *e): -v}
        want = from_laurent(sp_mul(to_laurent(a), to_laurent(b), LAURENT))
        if 0 in b:
            assert n not in want  # the planted row vanishes
        _check(ek_mul(a, b), want)


def test_ek_mul_cancels_within_an_entry():
    """(1 + t)(1 - t) = 1 - t^2: the t terms cancel inside one entry, and
    (t^-1 s)(t s^-1) - 1 = 0 empties a row."""
    a = {0: {(0, 0, 0): 1, (0, 1, 0): 1}, 1: {(0, -1, 1): 1, (1, 0, 0): -1}}
    b = {0: {(0, 0, 0): 1, (0, 1, 0): -1, (1, 1, -1): 1}, 1: {(1, 0, 0): 1}}
    _check(ek_mul(a, b), {0: {(0, 0, 0): 1, (0, 2, 0): -1, (1, 1, -1): 1,
                              (1, 2, -1): 1},
                          1: {(0, -1, 1): 1, (0, 0, 1): -1}})
    assert ek_mul({0: {(0, -1, 1): 1, (1, 0, 0): -1}},
                  {0: {(0, 1, -1): 1}, 1: {(0, 0, 0): 1}}) == {}


# ---------------------------------------------------------------------------
# the generators

def _mono(c, a, b):
    return LaurentPoly({(a, b): c})


@pytest.fixture(scope="module", params=["A2", "B2", "G2", "B2-flip"])
def group(request):
    """A2, B2, G2, or B2 with gamma(7, 4) flipped as `verify --mutate-gamma`."""
    if request.param == "B2-flip":
        alg = lie_algebra("B", 2)
        il, g = alg.gamma[(7, 4)]
        alg = alg.with_gamma({(7, 4): (il, -g)})
    else:
        alg = lie_algebra(request.param[0], int(request.param[1]))
    return alg, ChevalleyGroup(alg)


def _monomials(alg):
    """t, -t, t^-1, -t^-1, s, and +-t^{-A} s, t^A s for every A of the type."""
    cat = alg.cat
    As = sorted({cat.A(x, y) for x, y in iproduct(cat.objects, repeat=2)})
    out = [(1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0), (1, 0, 1)]
    for A in As:
        out += [(1, -A, 1), (-1, -A, 1), (1, A, 1)]
    return list(dict.fromkeys(out))


def test_generators_match_laurent(group):
    alg, grp = group
    lg = LaurentGroup(grp)
    for (ix, x), (c, a, b) in iproduct(enumerate(alg.objects), _monomials(alg)):
        m = _mono(c, a, b)
        _check(lg.E(ix, c, a, b), from_laurent(grp.E(x, m, LAURENT)))
        if c == 1:
            _check(lg.h(ix, a, b), from_laurent(grp.h(x, m, LAURENT)))
        _check(lg.n(ix, c, a, b), from_laurent(grp.n(x, m, LAURENT)))
        _check(lg.n_inv(ix, c, a, b), from_laurent(grp.n_inv(x, m, LAURENT)))
    assert lg.identity() == from_laurent(
        grp.E(alg.objects[0], LAURENT.zero, LAURENT))


def test_E_at_constants_and_other_coefficients(group):
    """E_X(c) puts every power at the keys (col, 0, 0); E_X(c t^i s^j) with
    |c| > 1 scales M_k by c^k, as a commutator constant asks for."""
    alg, grp = group
    lg = LaurentGroup(grp)
    for (ix, x), (c, a, b) in iproduct(
            enumerate(alg.objects),
            [(1, 0, 0), (-1, 0, 0), (2, 0, 0), (2, 1, 1), (-3, 2, 1),
             (-2, 1, 2)]):
        _check(lg.E(ix, c, a, b), from_laurent(grp.E(x, _mono(c, a, b), LAURENT)))


def test_E_sum_matches_laurent(group):
    """E_X(t + s), whose powers spread each entry over binomial keys."""
    alg, grp = group
    lg = LaurentGroup(grp)
    t_plus_s = _mono(1, 1, 0) + _mono(1, 0, 1)
    for ix, x in enumerate(alg.objects):
        _check(lg.E_sum(ix), from_laurent(grp.E(x, t_plus_s, LAURENT)))


def test_conj_by_h_matches_laurent(group):
    alg, grp = group
    lg = LaurentGroup(grp)
    t = _mono(1, 1, 0)
    for ix, x in enumerate(alg.objects):
        for iy in range(len(alg.objects)):
            for mat in (lg.E(iy, 1, 0, 1), lg.n(iy, 1, 0, 1), lg.h(iy, 0, 1),
                        lg.E(iy, -1, -2, 1)):
                want = grp.conj_by_h(x, t, to_laurent(mat), LAURENT)
                _check(lg.conj_by_h(ix, mat), from_laurent(want))


# ---------------------------------------------------------------------------
# the generic torus conjugation takes one power per distinct exponent

class CountingLaurent(LaurentDomain):
    def __init__(self):
        self.powers = []

    def power(self, a, n):
        self.powers.append(n)
        return super().power(a, n)


def test_generic_conj_by_h_one_power_per_exponent(group):
    alg, grp = group
    t = _mono(1, 1, 0)
    for x in alg.objects:
        exps = grp.h_exponents(x)
        for y in alg.objects:
            dom = CountingLaurent()
            mat = grp.n(y, _mono(1, 0, 1), LAURENT)
            got = grp.conj_by_h(x, t, mat, dom)
            want = sp_mul_many([grp.h(x, t, LAURENT), mat,
                                grp.h(x, LAURENT.inv(t), LAURENT)], LAURENT)
            assert from_laurent(got) == from_laurent(want)
            shifts = {exps[i] - exps[j] for i, row in mat.items() for j in row}
            assert sorted(dom.powers) == sorted(shifts - {0})


# ---------------------------------------------------------------------------
# n by substitution and conjugation by n in one pass

def reference_n(lg, ix, c, a, b):
    """E_X(m) E_TX(m^{-1}) E_X(m) at m = c t^a s^b, by two products."""
    itx = lg.cat.index(lg.cat.shift(lg.cat.objects[ix]))
    e1 = lg.E(ix, c, a, b)
    return lg.mul(e1, lg.E(itx, c, -a, -b), e1)


def reference_conj(lg, ix, mat):
    """n_X(t) M n_X(-t) by two products of the reference n's."""
    return lg.mul(reference_n(lg, ix, 1, 1, 0), mat,
                  reference_n(lg, ix, -1, 1, 0))


def test_n_is_the_three_factor_product(group):
    alg, grp = group
    lg = LaurentGroup(grp)
    for ix, c, a, b in iproduct(range(len(alg.objects)), (1, -1),
                                range(-2, 3), range(-2, 3)):
        want = reference_n(lg, ix, c, a, b)
        _check(lg.n(ix, c, a, b), want)
        _check(lg.n_inv(ix, -c, a, b), want)


def test_conj_by_n_is_the_product(group):
    alg, grp = group
    lg = LaurentGroup(grp)
    n = len(alg.objects)
    for ix, iy in iproduct(range(n), repeat=2):
        for mat in (lg.E(iy, 1, 0, 1), lg.n(iy, 1, 0, 1), lg.h(iy, 0, 1)):
            _check(lg.conj_by_n(ix, mat), reference_conj(lg, ix, mat))


def test_conj_by_n_is_the_product_on_f4():
    """F4, whose n_X(t) has one entry on each root row and up to four on
    a Cartan row: 200 seeded pairs, on E, n and h at s."""
    alg = lie_algebra("F", 4)
    lg = LaurentGroup(ChevalleyGroup(alg))
    n = len(alg.objects)
    rng = random.Random("f4-conj")
    for _ in range(200):
        ix, iy = rng.randrange(n), rng.randrange(n)
        for mat in (lg.E(iy, 1, 0, 1), lg.n(iy, 1, 0, 1), lg.h(iy, 0, 1)):
            _check(lg.conj_by_n(ix, mat), reference_conj(lg, ix, mat))


def test_substitution_sums_keys_that_meet():
    """On A2 with 1 planted on the diagonal of M_1 of every exp table, off
    the root grading, the powers of one entry share a column, so at a = b
    = 0 their keys meet and must be summed (at u = -1 the diagonal of E_X
    is 1 - 1 = 0, a zero to drop).  E and n must still equal the generic
    generators over LAURENT."""
    alg = lie_algebra("A", 2)
    grp = ChevalleyGroup(alg)
    for ix in range(len(alg.objects)):
        table = [dict((i, dict(row)) for i, row in m.items())
                 for m in grp.exp_table(ix)]
        for i in range(alg.dim):
            table[1].setdefault(i, {})[i] = 1
        grp._exp_tables[ix] = table
    lg = LaurentGroup(grp)
    for (ix, x), c, a, b in iproduct(enumerate(alg.objects), (1, -1),
                                     range(-1, 2), range(-1, 2)):
        m = _mono(c, a, b)
        _check(lg.E(ix, c, a, b), from_laurent(grp.E(x, m, LAURENT)))
        _check(lg.n(ix, c, a, b), from_laurent(grp.n(x, m, LAURENT)))


@pytest.mark.parametrize("c", [0, 2, -3])
def test_n_needs_a_unit_coefficient(c):
    """n inverts its argument, and its substitution takes c^e as c for odd
    e: a coefficient other than +-1 is refused, not substituted wrongly."""
    lg = LaurentGroup(ChevalleyGroup(lie_algebra("A", 2)))
    with pytest.raises(ValueError):
        lg.n(0, c, 1, 0)
    with pytest.raises(ValueError):
        lg.n_inv(0, c, 1, 0)
