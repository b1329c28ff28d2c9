"""The relation checks against a reference that rebuilds every generator.

`verify_conjugation_relations` and `commutator_constants` prove their
identities on exponent-keyed integer matrices over Z[t^+-1, s^+-1] (a
`LaurentGroup`, whose E and n are memoised by index and monomial), with a
memoised A-pairing, and check the sample points fraction-free on a
`PointGroup`.  The reference here is the direct algorithm: matrices of
Laurent polynomials whose coefficients are always Fractions, A recomputed
from the Euler form, every generator rebuilt for every pair over QQ or a
`PrimeField`, torus conjugation a full product with h_X(t^-1), and every
commutator product started from the identity.  Both must give equal
reports, also on every algebra with one structure constant flipped (all
12 of A2 in tier 1, all 24 of B2 under `slow`), and equal non-empty failure
lists at points where a changed exponential table or a flipped sign must
fail.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from liekit.chevgroup import (ChevalleyGroup, PointGroup,
                              _conjugation_point_check, _steinberg_point_check,
                              steinberg_report, verify_conjugation_relations)
from liekit.exact import (QQ, LaurentDomain, LaurentPoly, PrimeField, ff_eq,
                          sp_eq, sp_identity, sp_mul, sp_mul_many)
from liekit.liealg import lie_algebra


class FractionLaurent(LaurentDomain):
    """Laurent polynomials whose coefficients are always Fractions."""

    one = LaurentPoly({(0, 0): Fraction(1)})

    def embed(self, n):
        return LaurentPoly({(0, 0): Fraction(n)} if n else {})

    def inv(self, a):
        ((et, es), v), = a.c.items()
        return LaurentPoly({(-et, -es): Fraction(1) / v})


FL = FractionLaurent()


def mono(et, es, c):
    return LaurentPoly({(et, es): Fraction(c)})


class RefGroup:
    """Generators rebuilt on every call; only the integer exp tables are shared."""

    def __init__(self, alg, grp=None):
        self.alg, self.cat = alg, alg.cat
        self.tables = (grp or ChevalleyGroup(alg)).exp_table

    def A(self, x, y):
        val = Fraction(self.cat.euler_form(x, y), self.cat.d(x))
        assert val.denominator == 1
        return int(val)

    def E(self, x, t, dom):
        out = {}
        for k, mat in enumerate(self.tables(self.cat.index(x))):
            tk = dom.power(t, k)
            for i, row in mat.items():
                r = out.setdefault(i, {})
                for j, v in row.items():
                    w = dom.mul(tk, dom.embed(v))
                    r[j] = dom.add(r[j], w) if j in r else w
        return out

    def h(self, x, t, dom):
        exps = [self.A(x, y) for y in self.cat.objects] + [0] * self.alg.m
        return {i: {i: dom.power(t, e)} for i, e in enumerate(exps)}

    def conj_by_h(self, x, t, mat, dom):
        return sp_mul_many([self.h(x, t, dom), mat,
                            self.h(x, dom.inv(t), dom)], dom)

    def n(self, x, t, dom):
        tx = self.cat.shift(x)
        return sp_mul_many([self.E(x, t, dom), self.E(tx, dom.inv(t), dom),
                            self.E(x, t, dom)], dom)

    def n_inv(self, x, t, dom):
        tx = self.cat.shift(x)
        mt, mtinv = dom.neg(t), dom.neg(dom.inv(t))
        return sp_mul_many([self.E(x, mt, dom), self.E(tx, mtinv, dom),
                            self.E(x, mt, dom)], dom)


def _point(rng):
    return (Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)),
            Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)))


def ref_conjugation(alg, samples, seed):
    grp, cat, objs = RefGroup(alg), alg.cat, alg.cat.objects
    t, s = mono(1, 0, 1), mono(0, 1, 1)
    eta, failures = {}, []
    for ix, x in enumerate(objs):
        for iy, y in enumerate(objs):
            w, A = cat.omega(x, y), grp.A(x, y)
            conj_n = lambda m: sp_mul_many(
                [grp.n(x, t, FL), m, grp.n_inv(x, t, FL)], FL)
            lhs = conj_n(grp.E(y, s, FL))
            got = next((e for e in (1, -1)
                        if sp_eq(lhs, grp.E(w, mono(-A, 1, e), FL), FL)), None)
            if got is None:
                failures.append(("n_E_conj", ix, iy))
            else:
                eta[(ix, iy)] = got
            if not sp_eq(grp.conj_by_h(x, t, grp.E(y, s, FL), FL),
                         grp.E(y, mono(A, 1, 1), FL), FL):
                failures.append(("h_E_conj", ix, iy))
            if got is not None and not sp_eq(
                    conj_n(grp.n(y, s, FL)), grp.n(w, mono(-A, 1, got), FL), FL):
                failures.append(("n_n_conj", ix, iy))
            if not sp_eq(conj_n(grp.h(y, s, FL)), grp.h(w, s, FL), FL):
                failures.append(("n_h_conj", ix, iy))
            if not sp_eq(grp.conj_by_h(x, t, grp.h(y, s, FL), FL),
                         grp.h(y, s, FL), FL):
                failures.append(("h_h_conj", ix, iy))
            if not sp_eq(grp.conj_by_h(x, t, grp.n(y, s, FL), FL),
                         grp.n(y, mono(A, 1, 1), FL), FL):
                failures.append(("h_n_conj", ix, iy))

    rng = random.Random(seed)
    points, sample_failures = [], []
    for _ in range(samples):
        t0, s0 = _point(rng)
        points.append((t0, s0))
        sample_failures += ref_conjugation_point(alg, grp, QQ, t0, s0, eta)
    return {"ok": not failures and not sample_failures, "eta": eta,
            "failures": failures, "sample_failures": sample_failures,
            "pairs": len(objs) ** 2, "sample_points": points}


def ref_conjugation_point(alg, grp, dom, t0, s0, eta):
    cat, objs, fails = alg.cat, alg.cat.objects, []
    for ix, x in enumerate(objs):
        for iy, y in enumerate(objs):
            e = eta.get((ix, iy))
            if e is None:
                continue
            w, A = cat.omega(x, y), grp.A(x, y)
            lhs = sp_mul_many([grp.n(x, t0, dom), grp.E(y, s0, dom),
                               grp.n_inv(x, t0, dom)], dom)
            arg = dom.mul(dom.embed(e), dom.mul(dom.power(t0, -A), s0))
            if not sp_eq(lhs, grp.E(w, arg, dom), dom):
                fails.append(("n_E_conj", ix, iy, t0, s0))
            lhs = grp.conj_by_h(x, t0, grp.n(y, s0, dom), dom)
            if not sp_eq(lhs, grp.n(y, dom.mul(dom.power(t0, A), s0), dom), dom):
                fails.append(("h_n_conj", ix, iy, t0, s0))
    return fails


def ref_constants(alg, grp, x, y):
    cat = alg.cat
    t, s = mono(1, 0, 1), mono(0, 1, 1)
    R = sp_mul_many([grp.E(x, t, FL), grp.E(y, s, FL),
                     grp.E(x, -t, FL), grp.E(y, -s, FL)], FL)
    out = []
    for i, j in sorted((i, j) for i in range(1, 6) for j in range(1, 6)
                       if cat.chain_object(x, y, i, j) is not None):
        lobj = cat.chain_object(x, y, i, j)
        il = cat.index(lobj)
        adl = alg.ad_matrix(il)
        coef = {(r, c): v.coeff(i, j) for r, row in R.items()
                for c, v in row.items() if v.coeff(i, j)}
        r0, row0 = next(iter(adl.items()))
        c0, v0 = next(iter(row0.items()))
        C = Fraction(coef.get((r0, c0), 0), v0)
        keys = set(coef) | {(r, c) for r, row in adl.items() for c in row}
        if any(coef.get(k, 0) != C * adl.get(k[0], {}).get(k[1], 0) for k in keys):
            raise ArithmeticError(f"commutator coefficient of t^{i}s^{j} is not "
                                  f"proportional to a root operator")
        if C.denominator != 1:
            raise ArithmeticError("non-integer commutator constant")
        if C:
            R = sp_mul(grp.E(lobj, mono(i, j, -C), FL), R, FL)
            out.append(((i, j), il, int(C)))
    if not sp_eq(R, sp_identity(alg.dim, FL), FL):
        raise ArithmeticError("commutator does not close on the chain roots")
    return out


def ref_point_check(alg, grp, dom, t0, s0, consts):
    cat, fails = alg.cat, []
    for ix, x in enumerate(cat.objects):
        if not sp_eq(sp_mul(grp.E(x, t0, dom), grp.E(x, s0, dom), dom),
                     grp.E(x, dom.add(t0, s0), dom), dom):
            fails.append(("additive", ix))
        if not sp_eq(sp_mul(grp.h(x, t0, dom), grp.h(x, s0, dom), dom),
                     grp.h(x, dom.mul(t0, s0), dom), dom):
            fails.append(("h_mult", ix))
        lhs = sp_mul_many([grp.n(x, t0, dom), grp.E(x, s0, dom),
                           grp.n_inv(x, t0, dom)], dom)
        arg = dom.mul(dom.power(t0, -2), s0)
        if not sp_eq(lhs, grp.E(cat.shift(x), arg, dom), dom):
            fails.append(("n_self", ix))
        for iy, y in enumerate(cat.objects):
            if (ix, iy) not in consts:
                continue
            lhs = sp_mul_many([grp.E(x, t0, dom), grp.E(y, s0, dom),
                               grp.E(x, dom.neg(t0), dom),
                               grp.E(y, dom.neg(s0), dom)], dom)
            rhs = sp_identity(alg.dim, dom)
            for (i, j), il, c in consts[(ix, iy)]:
                arg = dom.mul(dom.embed(c),
                              dom.mul(dom.power(t0, i), dom.power(s0, j)))
                rhs = sp_mul(rhs, grp.E(cat.objects[il], arg, dom), dom)
            if not sp_eq(lhs, rhs, dom):
                fails.append(("commutator", ix, iy))
    return fails


def ref_steinberg(alg, primes, samples, seed):
    grp, objs = RefGroup(alg), alg.cat.objects
    consts, constant_failures = {}, []
    for (ix, x), (iy, y) in iproduct(enumerate(objs), repeat=2):
        if x.pos_root != y.pos_root:
            try:
                consts[(ix, iy)] = ref_constants(alg, grp, x, y)
            except ArithmeticError as exc:
                constant_failures.append(("commutator_constants", ix, iy, str(exc)))
    rng = random.Random(seed)
    points, rational_failures = [], []
    for _ in range(samples):
        t0, s0 = _point(rng)
        points.append((t0, s0))
        rational_failures += ref_point_check(alg, grp, QQ, t0, s0, consts)
    prime_failures = {}
    for p in primes:
        dom = PrimeField(p)
        pairs = list(iproduct(dom.units(), dom.units()))
        if len(pairs) > 16:
            pairs = [(rng.choice(dom.units()), rng.choice(dom.units()))
                     for _ in range(16)]
        prime_failures[p] = [f for t0, s0 in pairs
                             for f in ref_point_check(alg, grp, dom, t0, s0, consts)]
    return {"ok": not constant_failures and not rational_failures
            and not any(prime_failures.values()),
            "constants": consts, "constant_failures": constant_failures,
            "rational_points": points, "rational_failures": rational_failures,
            "prime_failures": prime_failures}


def _algebra(case):
    """A2, B2, G2, or B2 with gamma(7, 4) flipped as `verify --mutate-gamma`."""
    if case != "B2-flip":
        return lie_algebra(case[0], int(case[1]))
    alg = lie_algebra("B", 2)
    il, g = alg.gamma[(7, 4)]
    return alg.with_gamma({(7, 4): (il, -g)})


CASES = ["A2", "B2", "G2", "B2-flip"]


@pytest.mark.parametrize("case", CASES)
def test_conjugation_matches_reference(case):
    alg = _algebra(case)
    got = verify_conjugation_relations(alg, samples=2, seed=11)
    want = ref_conjugation(alg, samples=2, seed=11)
    for key in want:
        assert got[key] == want[key], key
    assert got["ok"] is (case != "B2-flip")


@pytest.mark.parametrize("case", CASES)
def test_steinberg_matches_reference(case):
    primes, samples = ((2, 3), 1) if case == "G2" else ((2, 3, 5, 7), 2)
    alg = _algebra(case)
    got = steinberg_report(alg, primes=primes, samples=samples, seed=13)
    want = ref_steinberg(alg, primes=primes, samples=samples, seed=13)
    for key in want:
        assert got[key] == want[key], key
    assert got["ok"] is (case != "B2-flip")
    assert bool(got["constant_failures"]) is (case == "B2-flip")


def _flips(case, marks=()):
    alg = lie_algebra(case[0], int(case[1]))
    return [pytest.param(case, key, marks=marks, id=f"{case}-{key[0]},{key[1]}")
            for key in alg.gamma]


@pytest.mark.parametrize("case,key", _flips("A2")
                         + _flips("B2", marks=pytest.mark.slow))
def test_every_flip_matches_reference(case, key):
    """The symbolic reports, with gamma_key negated as `verify
    --mutate-gamma` does: every eta, failure and commutator constant, and
    every constant failure with its message."""
    alg = lie_algebra(case[0], int(case[1]))
    il, g = alg.gamma[key]
    alg = alg.with_gamma({key: (il, -g)})
    got = verify_conjugation_relations(alg, samples=0)
    want = ref_conjugation(alg, samples=0, seed=0)
    for name in want:
        assert got[name] == want[name], name
    assert got["failures"]
    got = steinberg_report(alg, primes=(), samples=0)
    want = ref_steinberg(alg, primes=(), samples=0, seed=0)
    assert got["constants"] == want["constants"]
    assert got["constant_failures"] == want["constant_failures"]
    assert got["constant_failures"]


# ---------------------------------------------------------------------------
# the point kernel alone: faults that only the sample points can see

def _changed_group(alg, ix=0, k=1):
    """A group whose exp_table(ix)[k] has its first entry raised by one."""
    grp = ChevalleyGroup(alg)
    table = [dict((i, dict(row)) for i, row in m.items())
             for m in grp.exp_table(ix)]
    i, row = next(iter(table[k].items()))
    j = next(iter(row))
    row[j] += 1
    grp._exp_tables[ix] = table
    return grp


POINTS = [(Fraction(3, 2), Fraction(-3, 2)),   # t0 + s0 = 0
          (Fraction(-7, 3), Fraction(5, 4)),
          (Fraction(2, 9), Fraction(-1, 6))]


def _field_points(p):
    units = PrimeField(p).units()
    return list(iproduct(units, units))


@pytest.fixture(scope="module")
def b2():
    alg = lie_algebra("B", 2)
    rep = steinberg_report(alg, primes=(), samples=0)
    eta = verify_conjugation_relations(alg, samples=0)["eta"]
    return alg, rep["constants"], eta


@pytest.mark.parametrize("p", [None, 3, 5])
def test_changed_table_fails_alike(b2, p):
    alg, consts, eta = b2
    bad = _changed_group(alg)
    ref, dom = RefGroup(alg, bad), QQ if p is None else PrimeField(p)
    pg = PointGroup(bad, p)
    points = POINTS if p is None else _field_points(p)
    got_st, want_st, got_cj, want_cj = [], [], [], []
    for t0, s0 in points:
        if p is None:
            pg = PointGroup(bad)
        got_st += _steinberg_point_check(alg, pg, t0, s0, consts)
        want_st += ref_point_check(alg, ref, dom, t0, s0, consts)
        got_cj += _conjugation_point_check(alg, pg, t0, s0, eta)
        want_cj += ref_conjugation_point(alg, ref, dom, t0, s0, eta)
    assert got_st and got_st == want_st
    assert got_cj and got_cj == want_cj


def test_flipped_eta_fails_alike(b2):
    alg, _, eta = b2
    key = next(iter(eta))
    flipped = dict(eta)
    flipped[key] = -flipped[key]
    grp = ChevalleyGroup(alg)
    ref = RefGroup(alg)
    for t0, s0 in POINTS:
        got = _conjugation_point_check(alg, PointGroup(grp), t0, s0, flipped)
        want = ref_conjugation_point(alg, ref, QQ, t0, s0, flipped)
        assert got and got == want
        assert {f[1:3] for f in got} == {key}


@pytest.mark.parametrize("case", ["B2", "G2"])
def test_points_pass_alike(case):
    """Healthy groups pass at t0 + s0 = 0 and at negative t0, on both."""
    alg = lie_algebra(case[0], int(case[1]))
    consts = steinberg_report(alg, primes=(), samples=0)["constants"]
    eta = verify_conjugation_relations(alg, samples=0)["eta"]
    grp, ref = ChevalleyGroup(alg), RefGroup(alg)
    for t0, s0 in POINTS[:2]:
        pg = PointGroup(grp)
        assert _steinberg_point_check(alg, pg, t0, s0, consts) == []
        assert ref_point_check(alg, ref, QQ, t0, s0, consts) == []
        assert _conjugation_point_check(alg, pg, t0, s0, eta) == []


def _as_fractions(pair):
    n, d = pair
    return {i: {j: Fraction(v, d) for j, v in row.items()} for i, row in n.items()}


@pytest.mark.parametrize("t0", [Fraction(-7, 3), Fraction(-1), Fraction(5, 2)])
def test_point_generators_match_library(t0):
    """E, h (negative exponents included), n, n^-1 and h-conjugation of a
    PointGroup equal the library generators over QQ, at negative t0 too."""
    alg = lie_algebra("G", 2)
    grp = ChevalleyGroup(alg)
    pg = PointGroup(grp)
    for ix, x in enumerate(alg.cat.objects):
        assert min(grp.h_exponents(x)) < 0
        for got, want in ((pg.E(ix, t0), grp.E(x, t0, QQ)),
                          (pg.h(ix, t0), grp.h(x, t0, QQ)),
                          (pg.n(ix, t0), grp.n(x, t0, QQ)),
                          (pg.n_inv(ix, t0), grp.n_inv(x, t0, QQ)),
                          (pg.conj_by_h(ix, t0, pg.n(0, t0)),
                           grp.conj_by_h(x, t0, grp.n(alg.cat.objects[0], t0, QQ),
                                         QQ))):
            assert sp_eq(_as_fractions(got), want, QQ)


@pytest.mark.parametrize("p", [None, 5])
def test_point_generators_at_zero(p):
    pg = PointGroup(ChevalleyGroup(lie_algebra("B", 2)), p)
    zero = Fraction(0) if p is None else p
    for gen in (pg.h, pg.n, pg.n_inv):
        with pytest.raises(ZeroDivisionError):
            gen(0, zero)
    assert pg.eq(pg.E(0, zero), pg.identity())


# ---------------------------------------------------------------------------
# PointGroup.conj_by_h scales entries; the reference is the product form

class ProductConjGroup(PointGroup):
    """A PointGroup whose h-conjugation is the product h_X(t) M h_X(t^-1)."""

    def conj_by_h(self, ix, t, mat):
        return self.mul(self.h(ix, t), mat, self.h(ix, self.dom.inv(t)))


CONJ_POINTS = {None: POINTS, 3: _field_points(3),
               7: [(3, 5), (6, 6), (2, 4), (1, 3)]}


@pytest.mark.parametrize("p", [None, 3, 7])
@pytest.mark.parametrize("case", ["A2", "B2", "G2"])
def test_point_conj_by_h_is_the_product(case, p):
    alg = _algebra(case)
    grp = ChevalleyGroup(alg)
    pg, ref = PointGroup(grp, p), ProductConjGroup(grp, p)
    objs = range(len(alg.cat.objects))
    for t0, s0 in CONJ_POINTS[p]:
        for ix, iy in iproduct(objs, objs):
            for mat in (pg.n(iy, s0), pg.E(iy, s0), pg.h(iy, s0)):
                assert ff_eq(pg.conj_by_h(ix, t0, mat),
                             ref.conj_by_h(ix, t0, mat), p)


@pytest.mark.parametrize("p", [None, 3, 7])
def test_flipped_point_conjugation_fails_as_the_product(p):
    """On B2 with gamma(7, 4) flipped, the point check gives the failure
    list of the product form.  With the signs the Laurent check found, both
    lists are empty; with sign 1 also on the pairs it found none for, the
    pairs whose n-conjugation fails symbolically fail at the points too."""
    alg = _algebra("B2-flip")
    grp = ChevalleyGroup(alg)
    found = verify_conjugation_relations(alg, samples=0, grp=grp)["eta"]
    pairs = iproduct(range(len(alg.cat.objects)), repeat=2)
    every = {key: found.get(key, 1) for key in pairs}
    for eta in (found, every):
        got, want = [], []
        for t0, s0 in CONJ_POINTS[p]:
            got += _conjugation_point_check(alg, PointGroup(grp, p), t0, s0, eta)
            want += _conjugation_point_check(alg, ProductConjGroup(grp, p),
                                             t0, s0, eta)
        assert got == want
        assert bool(got) is (eta is every)
