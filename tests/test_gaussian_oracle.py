"""`GaussianRational` as integer triples against the two-Fraction class.

`RefGaussian` is the two-Fraction class that `GaussianRational` replaced,
kept as written but for its name and its own embedding of ints and
Fractions.  Seeded random expression trees are evaluated in both, and every
result must agree on its parts, equality, hash, str, repr, truth value and
complex value, and be held in lowest terms: d > 0 and gcd(a, b, d) = 1.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from liekit.compactform import TrigPoly
from liekit.exact import QI, GaussianRational


def _gaussian(tp):
    """A rational-coefficient TrigPoly with its coefficients in Q(i)."""
    return tp.scale(QI.one)


def _ref_embed(v):
    return v if isinstance(v, RefGaussian) else RefGaussian(v)


class RefGaussian:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _ref_embed(other)
        return RefGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ref_embed(other)
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _ref_embed(other) - self

    def __mul__(self, other):
        other = _ref_embed(other)
        return RefGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ref_embed(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return RefGaussian(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _ref_embed(other) / self

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def conjugate(self):
        return RefGaussian(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, RefGaussian):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"RefGaussian({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def ref_power(a, n):
    """`Domain.power` over RefGaussian."""
    if n < 0:
        a, n = RefGaussian(1) / a, -n
    out = RefGaussian(1)
    for _ in range(n):
        out = out * a
    return out


def _frac(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 35]))


def _scalar(rng):
    """An int, a Fraction or a float operand, the same in both classes."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-6, 6)
    if kind == 1:
        return _frac(rng)
    if kind == 2:
        return rng.randint(-8, 8) / 4
    return rng.choice([0.1, -2.5e-3, 3])


def _leaf(rng):
    re = _frac(rng) if rng.random() < 0.8 else 0
    im = _frac(rng) if rng.random() < 0.8 else 0
    return GaussianRational(re, im), RefGaussian(re, im)


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
UNARY = ["neg", "conj", "power", "inv"]


def _tree(rng, depth, seen):
    """A random expression over Q(i), evaluated in both classes as a pair
    (new, ref); every intermediate pair is appended to `seen`."""
    if depth == 0:
        out = _leaf(rng)
    else:
        x, xr = arg = _tree(rng, depth - 1, seen)
        op = rng.choice(list(BINARY) + UNARY)
        if op in BINARY:
            if rng.random() < 0.5:
                y, yr = _tree(rng, depth - 1, seen)
            else:
                y = yr = _scalar(rng)
            if rng.random() < 0.5:  # the other operand on the left
                x, xr, y, yr = y, yr, x, xr
            if op == "/" and not yr:
                with pytest.raises(ZeroDivisionError):
                    x / y
                with pytest.raises(ZeroDivisionError):
                    xr / yr
                return arg
            f = BINARY[op]
            out = f(x, y), f(xr, yr)
        elif op == "neg":
            out = -x, -xr
        elif op == "conj":
            out = x.conjugate(), xr.conjugate()
        elif not xr:
            with pytest.raises(ZeroDivisionError):
                QI.inv(x)
            return arg
        elif op == "inv":
            out = QI.inv(x), RefGaussian(1) / xr
        else:
            n = rng.randint(-3, 3)
            out = QI.power(x, n), ref_power(xr, n)
    seen.append(out)
    return out


def _bits(z):
    return z.real.hex(), z.imag.hex()


def check_pair(z, r):
    assert type(z) is GaussianRational and type(r) is RefGaussian
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (r.re, r.im)
    assert hash(z) == hash(r)
    assert str(z) == str(r)
    assert repr(z) == repr(r).replace("RefGaussian", "GaussianRational")
    assert bool(z) == bool(r)
    assert _bits(complex(z)) == _bits(complex(r))
    assert z == GaussianRational(r.re, r.im)
    for q in (0, 1, -2, Fraction(1, 2), r.re, r.im, 0.5):
        assert (z == q) == (r == q)
        assert (q == z) == (q == r)
        assert (z != q) == (r != q)


@pytest.mark.parametrize("seed", range(8))
def test_expression_trees_match_two_fraction_class(seed):
    rng = random.Random(seed)
    seen = []
    for _ in range(40):
        _tree(rng, rng.randint(1, 4), seen)
    assert len(seen) > 100
    for z, r in seen:
        check_pair(z, r)
    for (z1, r1), (z2, r2) in zip(seen, seen[1:] + seen[:1]):
        assert (z1 == z2) == (r1 == r2)
        assert (z1 == z1.conjugate()) == (r1 == r1.conjugate())


@pytest.mark.parametrize("zero", [0, Fraction(0), 0.0, GaussianRational(0)])
def test_division_by_zero_raises(zero):
    for x in (GaussianRational(Fraction(1, 2), -3), GaussianRational(0),
              GaussianRational(0, 1)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / QI.embed(zero)
    with pytest.raises(ZeroDivisionError):
        Fraction(2, 3) / QI.embed(zero)
    with pytest.raises(ZeroDivisionError):
        QI.inv(QI.embed(zero))
    with pytest.raises(ZeroDivisionError):
        QI.power(QI.embed(zero), -2)


RATIONALS = [0, 1, -1, 7, -2 ** 70, Fraction(1, 2), Fraction(-22, 7),
             Fraction(3, 2 ** 61 - 1), Fraction(2 ** 64 + 1, 3 ** 40)]


@pytest.mark.parametrize("q", RATIONALS, ids=str)
def test_real_values_hash_and_compare_as_the_rational(q):
    for z in (GaussianRational(q), QI.embed(q), GaussianRational(q, 0) + 0,
              GaussianRational(q, 1) - GaussianRational(0, 1)):
        assert hash(z) == hash(q)
        assert z == q and q == z
        assert not (z != q)
        check_pair(z, RefGaussian(q))
    assert {GaussianRational(q): 1}[q] == 1


def test_floats_are_read_exactly():
    for v in (0.1, -2.5, 1e-30, 3.0):
        assert QI.embed(v) == GaussianRational(Fraction(v)) == Fraction(v)
        assert GaussianRational(v, v) == GaussianRational(Fraction(v),
                                                          Fraction(v))
        check_pair(GaussianRational(1, 2) * v, RefGaussian(1, 2) * v)
        check_pair(v - GaussianRational(1, 2), v - RefGaussian(1, 2))


def test_rational_trigpoly_equals_its_gaussian_copy():
    rng = random.Random(3)
    for _ in range(50):
        p = TrigPoly({(rng.randint(0, 1), rng.randint(-2, 2)): _frac(rng)
                      for _ in range(rng.randint(0, 4))})
        p = TrigPoly({k: v for k, v in p.c.items() if v})
        p = p * p + TrigPoly.const(rng.randint(-2, 2))
        g = _gaussian(p)
        assert all(type(v) is GaussianRational for v in g.c.values())
        assert p == g and g == p
        assert hash(p) == hash(g)
