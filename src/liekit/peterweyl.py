"""Matrix coefficients, Fourier blocks, and Plancherel identities on finite
truncations, plus the numeric SU(2) Haar quadrature and the integral-form
lattice computations for the compact group.

A truncated function is stored through its Fourier side: one operator block
per highest weight, with the inner product tr(B*A)/dim per block.  All
block algebra is exact over Gaussian rationals; quadrature (Schur
orthogonality, convolution cross-check, character orthonormality) is the
independent numeric oracle at rank <= 2.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product as iproduct

from .exact import QI, GaussianRational, dense_inverse, sp_apply, sp_mul
from .hwmodules import (FreudenthalTable, WeightModule, build_irrep, dagger,
                        root_fund)
from .rootdata import build_cartan, lattice_index, root_system


# ---------------------------------------------------------------------------
# exact block algebra

class MatrixCoefficient:
    """The function u -> (u z, z')_lambda on the compact group."""

    def __init__(self, mod: WeightModule, z, zp):
        self.mod = mod
        self.lam = mod.lam
        self.z = {k: QI.embed(v) for k, v in z.items()}
        self.zp = {k: QI.embed(v) for k, v in zp.items()}


def inner_product(f: MatrixCoefficient, g: MatrixCoefficient):
    """(f_{z1,z1'}, f_{z2,z2'}) = (z1,z2)(z2',z1')/dim, 0 across blocks."""
    if f.lam != g.lam:
        return GaussianRational(0)
    mod = f.mod
    val = mod.inner(f.z, g.z) * mod.inner(g.zp, f.zp)
    return QI.embed(val) / GaussianRational(mod.dim)


def fourier_coeff(f: MatrixCoefficient):
    """The block T_{z,z'} = z (G conj(z'))^T; satisfies tr(pi(x) T) = f(x)."""
    gz = sp_apply(f.mod.gram_sparse(),
                  {c: v.conjugate() for c, v in f.zp.items()}, QI)
    out = {}
    for a, za in f.z.items():
        row = {}
        for r, w in gz.items():
            val = za * w
            if val:
                row[r] = val
        if row:
            out[a] = row
    return out


def end_inner(mod, a, b):
    """(A, B) = tr(B* A)/dim with B* the Gram adjoint; exact over Q(i).
    Only the diagonal of B* A is summed, never the whole product."""
    tot = GaussianRational(0)
    for i, row in dagger(mod, b, QI).items():
        for k, v in row.items():
            w = a.get(k, {}).get(i)
            if w is not None:
                tot = tot + v * w
    return tot / GaussianRational(mod.dim)


class OElement:
    """A truncation of O: per-weight Fourier blocks T_lambda = dim * f_hat."""

    def __init__(self, modules, blocks=None):
        self.modules = modules  # {lam: WeightModule}
        self.blocks = blocks if blocks is not None else {}

    @classmethod
    def from_coefficients(cls, modules, coeffs):
        out = cls(modules)
        for f in coeffs:
            out = out + cls(modules, {f.lam: fourier_coeff(f)})
        return out

    def __add__(self, other):
        blocks = {}
        for lam in set(self.blocks) | set(other.blocks):
            a = self.blocks.get(lam, {})
            b = other.blocks.get(lam, {})
            acc = {}
            for src in (a, b):
                for r, row in src.items():
                    dst = acc.setdefault(r, {})
                    for c, v in row.items():
                        dst[c] = dst.get(c, GaussianRational(0)) + v
            acc = {r: {c: v for c, v in row.items() if v}
                   for r, row in acc.items()}
            acc = {r: row for r, row in acc.items() if row}
            if acc:
                blocks[lam] = acc
        return OElement(self.modules, blocks)

    def scale(self, c):
        c = QI.embed(c)
        return OElement(self.modules, {
            lam: {r: {cc: v * c for cc, v in row.items()}
                  for r, row in blk.items()}
            for lam, blk in self.blocks.items()})

    def inner(self, other):
        """Function-space inner product via Parseval:
        (f, g) = sum_lambda tr(B_lambda* A_lambda)/dim."""
        tot = GaussianRational(0)
        for lam in set(self.blocks) | set(other.blocks):
            a = self.blocks.get(lam)
            b = other.blocks.get(lam)
            if a is None or b is None:
                continue
            tot = tot + end_inner(self.modules[lam], a, b)
        return tot

    def norm_sq(self):
        return self.inner(self)

    def parseval_rhs(self):
        """sum (dim)^2 ||f_hat||^2 with f_hat = T/dim, ||A||^2 = tr(A*A)/dim."""
        tot = GaussianRational(0)
        for lam, a in self.blocks.items():
            mod = self.modules[lam]
            d = GaussianRational(mod.dim)
            fhat = {r: {c: v / d for c, v in row.items()}
                    for r, row in a.items()}
            tot = tot + d * d * end_inner(mod, fhat, fhat)
        return tot

    def convolve(self, other):
        """Blockwise (1/dim) A B, the Plancherel image of convolution."""
        blocks = {}
        for lam, a in self.blocks.items():
            b = other.blocks.get(lam)
            if b is None:
                continue
            mod = self.modules[lam]
            dinv = GaussianRational(Fraction(1, mod.dim))
            prod = sp_mul(a, b, QI)
            blk = {r: {c: v * dinv for c, v in row.items()}
                   for r, row in prod.items()}
            blk = {r: {c: v for c, v in row.items() if v} for r, row in blk.items()}
            blk = {r: row for r, row in blk.items() if row}
            if blk:
                blocks[lam] = blk
        return OElement(self.modules, blocks)

    def evaluate(self, reps):
        """f(x) = sum_lambda tr(pi_lambda(x) T_lambda) with `reps` a dict of
        complex numpy matrices in module coordinates."""
        tot = 0j
        for lam, t in self.blocks.items():
            pi = reps[lam]
            for r, row in t.items():
                for c, v in row.items():
                    tot += pi[c, r] * complex(v)
        return tot


# ---------------------------------------------------------------------------
# SU(2) Haar quadrature (Euler angles, Gauss-Legendre in cos theta)

class SU2Rep:
    """The spin-(two_j/2) representation in orthonormalized coordinates."""

    def __init__(self, two_j):
        import numpy as np
        from scipy.linalg import expm
        self.two_j = two_j
        cartan = build_cartan("A", 1)
        self.mod = build_irrep(cartan, (two_j,))
        self.dim = self.mod.dim
        # Gram is diagonal (one basis vector per weight); orthonormalize
        g = np.zeros(self.dim)
        for data in self.mod.weights.values():
            gidx = data["basis"][0]
            g[gidx] = float(data["gram"][0][0])
        self.scale = np.sqrt(g)
        self.mvals = np.array([w[0] for w in self.mod.weight_of])
        e = np.zeros((self.dim, self.dim))
        f = np.zeros((self.dim, self.dim))
        for r, row in self.mod.E[0].items():
            for c, v in row.items():
                e[r, c] = float(v)
        for r, row in self.mod.F[0].items():
            for c, v in row.items():
                f[r, c] = float(v)
        s = np.diag(self.scale)
        sinv = np.diag(1.0 / self.scale)
        self._k = s @ (e - f) @ sinv
        self._expm = expm

    def rotation(self, theta):
        return self._expm(-theta / 2.0 * self._k)

    def matrix(self, phi, theta, psi):
        import numpy as np
        left = np.exp(-1j * phi * self.mvals / 2.0)
        right = np.exp(-1j * psi * self.mvals / 2.0)
        return (left[:, None] * self.rotation(theta)) * right[None, :]

    def to_orthonormal(self, vec):
        """Module coordinates -> orthonormal coordinates."""
        import numpy as np
        out = np.zeros(self.dim, dtype=complex)
        for k, v in vec.items():
            out[k] = complex(v)
        return out * self.scale


class SU2Quadrature:
    """Euler-angle Haar quadrature: phi, psi on uniform midpoint grids over
    [0,2pi) and [0,4pi); theta through u = cos theta with Gauss-Legendre
    nodes, which integrates the band-limited integrands exactly."""

    def __init__(self, grid=64):
        import numpy as np
        self.grid = grid
        self.phis = (np.arange(grid) + 0.5) * (2 * np.pi / grid)
        self.psis = (np.arange(grid) + 0.5) * (4 * np.pi / grid)
        self.us, self.ws = np.polynomial.legendre.leggauss(grid)
        self.thetas = np.arccos(self.us)

    def volume(self):
        """Total Haar mass: must be 1."""
        return float(self.ws.sum() / 2.0)

    def _coeff_grid(self, rep, w, v, rot):
        """(pi(phi,theta,psi) w, v) over the (phi, psi) grid at one theta."""
        import numpy as np
        c = np.conj(v)[:, None] * rot * w[None, :]
        phase_l = np.exp(-1j * np.outer(self.phis, rep.mvals) / 2.0)
        phase_r = np.exp(-1j * np.outer(rep.mvals, self.psis) / 2.0)
        return phase_l @ c @ phase_r

    def schur_integral(self, rep1, rep2, w1, v1, w2, v2):
        """Quadrature of (pi1 w1, v1) * conj((pi2 w2, v2))."""
        import numpy as np
        w1 = rep1.to_orthonormal(w1) if isinstance(w1, dict) else np.asarray(w1, complex)
        v1 = rep1.to_orthonormal(v1) if isinstance(v1, dict) else np.asarray(v1, complex)
        w2 = rep2.to_orthonormal(w2) if isinstance(w2, dict) else np.asarray(w2, complex)
        v2 = rep2.to_orthonormal(v2) if isinstance(v2, dict) else np.asarray(v2, complex)
        total = 0j
        n2 = self.grid * self.grid
        for u_w, theta in zip(self.ws, self.thetas):
            f1 = self._coeff_grid(rep1, w1, v1, rep1.rotation(theta))
            f2 = self._coeff_grid(rep2, w2, v2, rep2.rotation(theta))
            total += (u_w / 2.0) * np.sum(f1 * np.conj(f2)) / n2
        return complex(total)

    def convolution_check(self, f: MatrixCoefficient, g: MatrixCoefficient,
                          xs=((0.4, 1.1, 2.3), (2.9, 0.6, 5.0))):
        """(f*g)(x) by direct Haar quadrature of int f(y^-1 x) g(y) dy,
        against the Fourier-side value; returns the worst deviation."""
        import numpy as np
        rep = SU2Rep(f.lam[0])
        z1, z1p = rep.to_orthonormal(f.z), rep.to_orthonormal(f.zp)
        z2, z2p = rep.to_orthonormal(g.z), rep.to_orthonormal(g.zp)
        modules = {f.lam: f.mod}
        conv = OElement.from_coefficients(modules, [f]).convolve(
            OElement.from_coefficients(modules, [g]))
        worst = 0.0
        for x in xs:
            pix = rep.matrix(*x)
            # the Fourier blocks live in module coordinates; move pi there
            pix_mod = (pix / rep.scale[:, None]) * rep.scale[None, :]
            exact_val = conv.evaluate({f.lam: pix_mod})
            total = 0j
            n2 = self.grid * self.grid
            for u_w, theta in zip(self.ws, self.thetas):
                rot = rep.rotation(theta)
                for phi in self.phis:
                    left = np.exp(-1j * phi * rep.mvals / 2.0)
                    for psi in self.psis:
                        right = np.exp(-1j * psi * rep.mvals / 2.0)
                        piy = (left[:, None] * rot) * right[None, :]
                        arg = np.conj(piy).T @ pix
                        fv = np.dot(np.conj(z1p), arg @ z1)
                        gv = np.dot(np.conj(z2p), piy @ z2)
                        total += (u_w / 2.0) * fv * gv / n2
            worst = max(worst, abs(total - exact_val))
        return worst


# ---------------------------------------------------------------------------
# character orthonormality by torus quadrature (Weyl integration)

def weight_orbit(cartan, nu):
    """The Weyl orbit of a weight in fundamental coordinates."""
    m = len(cartan.a)
    seen = {tuple(nu)}
    frontier = [tuple(nu)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(m):
                if w[i] == 0:
                    continue
                r = tuple(w[j] - w[i] * cartan.a[j][i] for j in range(m))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def character_weights(cartan, lam):
    """{weight: multiplicity} over the full Weyl-symmetrized support."""
    table = FreudenthalTable(cartan, lam)
    out = {}
    for nu, mult in table.mult.items():
        for w in weight_orbit(cartan, nu):
            out[w] = mult
    return out


def char_orthonormality(series, rank, lam, mu, grid=24):
    """Torus quadrature of chi_lam conj(chi_mu) |Delta|^2 / |W|; close to
    the Kronecker delta for dominant weights."""
    import numpy as np
    cartan = build_cartan(series, rank)
    rs = root_system(series, rank)
    m = rank
    wl = character_weights(cartan, lam)
    wm = character_weights(cartan, mu)
    pos = [root_fund(cartan, r) for r in rs.positive]
    worder = rs.weyl_order()
    ts = [tuple((k + 0.5) / grid for k in idx)
          for idx in iproduct(range(grid), repeat=m)]
    total = 0j
    for t in ts:
        chi1 = sum(mult * cmath.exp(2j * cmath.pi * sum(tj * wj for tj, wj in zip(t, w)))
                   for w, mult in wl.items())
        chi2 = sum(mult * cmath.exp(2j * cmath.pi * sum(tj * wj for tj, wj in zip(t, w)))
                   for w, mult in wm.items())
        delta = 1.0
        for afund in pos:
            delta *= abs(cmath.exp(2j * cmath.pi * sum(
                tj * aj for tj, aj in zip(t, afund))) - 1.0) ** 2
        total += chi1 * chi2.conjugate() * delta
    return complex(total / (len(ts) * worder))


# ---------------------------------------------------------------------------
# integral forms for K

def integral_lattice_report(series, rank, box=3):
    """The analytically integral forms are exactly the root lattice Q.

    The kernel of exp on the compact torus is spanned by b_k with
    b_k/2pi = (a^T)^{-1} e_k; a weight is analytically integral iff it pairs
    integrally with every b_k, and that condition is checked against
    root-lattice membership over an exhaustive coordinate box.
    """
    from .rootcat import root_category
    cartan = build_cartan(series, rank)
    m = rank
    amat = [[Fraction(v) for v in row] for row in cartan.a]
    ainv = dense_inverse(amat)
    at_inv = [[ainv[j][i] for j in range(m)] for i in range(m)]  # (a^T)^{-1}

    # verify the kernel generators act trivially on every root operator:
    # the exponent of exp(ad b_k) on u_Y is -2*pi*i * sum_j (b_k)_j A_{S_j Y}
    cat = root_category(series, rank)
    kernel_ok = True
    for k in range(m):
        bk = [at_inv[j][k] for j in range(m)]
        for y in cat.objects:
            tot = sum(bk[j] * cat.A(cat.simples[j], y) for j in range(m))
            if Fraction(tot).denominator != 1:
                kernel_ok = False

    def analytically_integral(lamv):
        return all(
            Fraction(sum(lamv[j] * at_inv[j][k] for j in range(m))).denominator == 1
            for k in range(m))

    def in_root_lattice(lamv):
        x = [sum(ainv[i][j] * lamv[j] for j in range(m)) for i in range(m)]
        return all(v.denominator == 1 for v in x)

    mismatches = []
    for lamv in iproduct(range(-box, box + 1), repeat=m):
        if analytically_integral(lamv) != in_root_lattice(lamv):
            mismatches.append(lamv)

    report = {
        "type": f"{series}{rank}",
        "kernel_generators_trivial": kernel_ok,
        "equals_root_lattice": not mismatches,
        "mismatches": mismatches,
        "fundamental_group_order": lattice_index(cartan),
    }
    if (series, rank) == ("A", 3):
        # the half-lattice kernel element i*pi*(H'_1 + H'_3): trivial under
        # exp, yet the first fundamental weight pairs to i*pi, not 2*pi*i*Z
        b_half = [Fraction(1, 2), Fraction(0), Fraction(1, 2)]
        in_kernel = all(
            Fraction(sum(b_half[j] * cartan.a[j][k] for j in range(m))).denominator == 1
            for k in range(m))
        lam1 = (1, 0, 0)
        pairing_twice = 2 * sum(b_half[j] * lam1[j] for j in range(m))
        report["a3_counterexample"] = {
            "H": "i*pi*(H'_1 + H'_3)",
            "exp_is_identity": in_kernel,
            "lambda": lam1,
            "lambda_of_H_over_i_pi": int(pairing_twice),
            "analytically_integral": pairing_twice % 2 == 0,
        }
    return report


def q_plus_enumerate(series, rank, bound):
    """Dominant weights in the root lattice with root-height <= bound —
    the index set of K-irreducibles up to that height."""
    cartan = build_cartan(series, rank)
    m = rank
    out = []
    for x in iproduct(range(bound + 1), repeat=m):
        if sum(x) > bound:
            continue
        lam = tuple(sum(cartan.a[j][i] * x[i] for i in range(m))
                    for j in range(m))
        if all(v >= 0 for v in lam):
            out.append((lam, x))
    out.sort(key=lambda p: (sum(p[1]), p[0]))
    return out
