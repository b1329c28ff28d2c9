"""`sp_mul` and `sum_powers` against the kernels they replaced.

The kernels accumulate with the elements' own `*` and `+` and finish each
row once: zeros dropped and, over F_p, every entry reduced mod p once.  The
oracles below are the earlier kernels, kept verbatim, which call
`dom.mul`, `dom.add` and `dom.is_zero` once per term.  On seeded random
sparse matrices over every domain, with entries that cancel to zero and
rows that vanish (and, over F_p, negative and unreduced inputs), both must
give equal dicts with no stored zero, no empty row and, over F_p, every
entry in [0, p).
"""

import random
from fractions import Fraction

import pytest

from liekit.compactform import TRIG, TRIG_QI, TrigPoly
from liekit.exact import (LAURENT, QI, QQ, ZZ, GaussianRational, LaurentPoly,
                          PrimeField, sp_mul, sum_powers)


def ref_sp_mul(a, b, dom):
    """Matrix product a @ b of sparse row-dict matrices."""
    mul, add, is_zero = dom.mul, dom.add, dom.is_zero
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, av in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for j, bv in brow.items():
                t = mul(av, bv)
                if j in acc:
                    acc[j] = add(acc[j], t)
                else:
                    acc[j] = t
        acc = {j: v for j, v in acc.items() if not is_zero(v)}
        if acc:
            out[i] = acc
    return out


def ref_sum_powers(table, coeffs, dom):
    """sum_k c_k M_k over `dom` for a table [M_0, M_1, ...] of exact
    rational matrices, such as one from `divided_powers`, and coefficients
    [c_0, c_1, ...] in `dom`: `dom.powers(t, len(table))` gives the
    one-parameter element at t."""
    out = {}
    for mat, c in zip(table, coeffs):
        terms = {}  # v -> c v; a table has few distinct entries
        for i, row in mat.items():
            r = out.setdefault(i, {})
            for j, v in row.items():
                w = terms.get(v)
                if w is None:
                    w = terms[v] = dom.mul(c, dom.embed(v))
                r[j] = dom.add(r[j], w) if j in r else w
    for i in list(out):
        out[i] = {j: v for j, v in out[i].items() if not dom.is_zero(v)}
        if not out[i]:
            del out[i]
    return out


# ---------------------------------------------------------------------------
# random elements: few distinct small values, so that sums cancel often

def _small(rng):
    return rng.choice([-2, -1, 1, 2])


def _frac(rng):
    return Fraction(_small(rng), rng.choice([1, 1, 2, 3]))


def _laurent(rng):
    return LaurentPoly({(rng.randint(-1, 1), rng.randint(-1, 1)): _small(rng)
                        for _ in range(rng.randint(1, 2))})


def _trig(coeff):
    def make(rng):
        return TrigPoly({(rng.randint(0, 1), rng.randint(-1, 1)): coeff(rng)
                         for _ in range(rng.randint(1, 2))})
    return make


def _gauss(rng):
    return GaussianRational(_frac(rng), rng.choice([0, 0, _frac(rng)]))


def _residue(p):
    def make(rng):
        # a representative anywhere in [-3p, 3p], zero mod p included
        return rng.randint(-3 * p, 3 * p)
    return make


DOMAINS = {
    "ZZ": (ZZ, _small),
    "QQ": (QQ, _frac),
    "QI": (QI, _gauss),
    "F2": (PrimeField(2), _residue(2)),
    "F7": (PrimeField(7), _residue(7)),
    "F101": (PrimeField(101), _residue(101)),
    "LAURENT": (LAURENT, _laurent),
    "TRIG": (TRIG, _trig(_frac)),
    "TRIG_QI": (TRIG_QI, _trig(_gauss)),
}


def _nonzero(dom, elem, rng):
    """A random element that is stored: nonzero, and over F_p possibly a
    nonzero representative of 0 (the kernels must drop what it yields)."""
    while True:
        v = elem(rng)
        if v or dom.p:
            return v


def _matrix(dom, elem, rng, n, density):
    """A random n x n sparse matrix, with a pair of equal rows 0 and 1."""
    m = {}
    for i in range(n):
        row = {j: _nonzero(dom, elem, rng) for j in range(n)
               if rng.random() < density}
        if row:
            m[i] = row
    if 0 in m:
        m[1] = dict(m[0])
    else:
        m.pop(1, None)
    return m


def _vanishing_row(dom, elem, rng):
    """A row r with r b = 0: +v on row 0 of b and -v on its equal row 1."""
    v = _nonzero(dom, elem, rng)
    return {0: v, 1: dom.neg(v) + (7 * dom.p if dom.p else dom.zero)}


def _check(dom, got, want):
    assert got == want
    for row in got.values():
        assert row
        for v in row.values():
            if dom.p:
                assert 0 < v < dom.p
            else:
                assert v


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", DOMAINS)
def test_sp_mul_matches_reference(name, seed):
    dom, elem = DOMAINS[name]
    rng = random.Random(f"{name}-{seed}")
    for n, density in ((3, 0.9), (6, 0.5), (9, 0.25)):
        a = _matrix(dom, elem, rng, n, density)
        b = _matrix(dom, elem, rng, n, density)
        if 0 in b:
            a[n] = _vanishing_row(dom, elem, rng)
        want = ref_sp_mul(a, b, dom)
        if 0 in b:
            assert n not in want  # the planted row vanishes
        _check(dom, sp_mul(a, b, dom), want)
        # matrix times vector: one row against the transpose's rows
        vec = {0: {j: elem(rng) or dom.one for j in range(n)}}
        _check(dom, sp_mul(vec, b, dom), ref_sp_mul(vec, b, dom))


def _table_entry(dom, rng):
    """A rational table entry that `dom.embed` takes."""
    if dom is ZZ or dom.p == 2:
        return _small(rng)
    v = _frac(rng)
    return v if not dom.p or v.denominator % dom.p else v.numerator


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", DOMAINS)
def test_sum_powers_matches_reference(name, seed):
    dom, elem = DOMAINS[name]
    rng = random.Random(f"sum-{name}-{seed}")
    n, size = 7, 4
    table = [{i: {j: _table_entry(dom, rng) for j in range(n)
                  if rng.random() < 0.4} for i in range(n)}
             for _ in range(size)]
    table = [{i: row for i, row in m.items() if row} for m in table]
    # M_1 = -M_0 on row 0 and c_0 = c_1: row 0 cancels in the sum
    table[0][0] = {j: 1 for j in range(n)}
    table[1][0] = {j: -1 for j in range(n)}
    for m in table[2:]:
        m.pop(0, None)
    coeffs = [_nonzero(dom, elem, rng) for _ in range(size)]
    coeffs[1] = coeffs[0]
    want = ref_sum_powers(table, coeffs, dom)
    assert 0 not in want
    _check(dom, sum_powers(table, coeffs, dom), want)
    t = _nonzero(dom, elem, rng) if dom.p is None else rng.randint(1, 3 * dom.p)
    powers = dom.powers(t, size)
    _check(dom, sum_powers(table, powers, dom),
           ref_sum_powers(table, powers, dom))
