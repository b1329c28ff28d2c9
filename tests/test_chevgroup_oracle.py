"""The relation checks against a reference that rebuilds every generator.

`verify_conjugation_relations`, `steinberg_report` and
`commutator_constants` prove each identity once on exponent-keyed integer
matrices over Z[t^+-1, s^+-1] (a `LaurentGroup`, whose E and n are memoised
by index and monomial), with a memoised A-pairing; a sample point
evaluates only the two sides of a proof that failed.  The reference here is
the direct algorithm: matrices of Laurent polynomials whose coefficients
are always Fractions, A recomputed from the Euler form, every generator
rebuilt for every pair and every relation checked again at every point
over QQ or a `PrimeField`, torus conjugation a full product with
h_X(t^-1), and every commutator product started from the identity.  Both
must give equal reports: on healthy algebras, on every algebra with one
structure constant flipped (all 12 of A2 in tier 1, all 24 of B2 under
`slow`), on B3 and on D4 with gamma(0, 4) flipped (conjugation, under
`slow`), and on a group with a changed exponential table, whose Steinberg
failure lists at the points of Q and F_p must be non-empty.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from liekit.chevgroup import (ChevalleyGroup, steinberg_report,
                              verify_conjugation_relations)
from liekit.exact import (QQ, LaurentDomain, LaurentPoly, PrimeField, sp_eq,
                          sp_identity, sp_mul, sp_mul_many)
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


def ref_conjugation(alg, samples, seed, grp=None):
    grp, cat, objs = RefGroup(alg, grp), alg.cat, alg.cat.objects
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


def ref_steinberg(alg, primes, samples, seed, grp=None):
    grp, objs = RefGroup(alg, grp), alg.cat.objects
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


FLIPS = {"B2-flip": ("B2", (7, 4)), "D4-flip": ("D4", (0, 4))}


def _algebra(case):
    """A type such as A2, or one of `FLIPS`: a type with one gamma flipped
    as `verify --mutate-gamma` does."""
    name, key = FLIPS.get(case, (case, None))
    alg = lie_algebra(name[0], int(name[1]))
    if key is None:
        return alg
    il, g = alg.gamma[key]
    return alg.with_gamma({key: (il, -g)})


CASES = ["A2", "B2", "G2", "B2-flip"]


@pytest.mark.parametrize("case", CASES + [
    pytest.param(case, marks=pytest.mark.slow) for case in ("B3", "D4-flip")])
def test_conjugation_matches_reference(case):
    alg = _algebra(case)
    got = verify_conjugation_relations(alg, samples=2, seed=11)
    want = ref_conjugation(alg, samples=2, seed=11)
    for key in want:
        assert got[key] == want[key], key
    assert got["ok"] is (case not in FLIPS)


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
# a fault that only the sample points name

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


@pytest.mark.parametrize("p", [None, 3, 5])
def test_changed_table_fails_alike(p):
    """B2 with exp_table(0)[1] changed: over Q (p None) both reports, over
    F_p the Steinberg report, equal the reference given the same tables,
    and the Steinberg report names failures at the points."""
    alg = lie_algebra("B", 2)
    bad = _changed_group(alg)
    primes, samples = ((), 3) if p is None else ((p,), 0)
    got = steinberg_report(alg, primes=primes, samples=samples, seed=13,
                           grp=bad)
    want = ref_steinberg(alg, primes=primes, samples=samples, seed=13,
                         grp=bad)
    for key in want:
        assert got[key] == want[key], key
    assert got["rational_failures"] if p is None else got["prime_failures"][p]
    if p is None:
        got = verify_conjugation_relations(alg, samples=3, seed=11, grp=bad)
        want = ref_conjugation(alg, samples=3, seed=11, grp=bad)
        for key in want:
            assert got[key] == want[key], key
