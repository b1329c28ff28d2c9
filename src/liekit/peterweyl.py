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

import math
from fractions import Fraction
from itertools import product as iproduct

from .exact import (QI, GaussianRational, dense_inverse, sp_add, sp_map,
                    sp_mul)
from .hwmodules import (FreudenthalTable, WeightModule, build_irrep, dagger,
                        root_fund)
from .rootdata import (build_cartan, invariant_factors, lattice_index,
                       root_system)


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
    """The block T_{z,z'} = z (G conj(z'))^T; satisfies tr(pi(x) T) = f(x).
    G is symmetric, so (G conj(z'))^T is the row conj(z')^T G."""
    gz = sp_mul({0: {c: v.conjugate() for c, v in f.zp.items()}},
                f.mod.gram_sparse(), QI)
    return sp_mul({a: {0: za} for a, za in f.z.items()}, gz, QI)


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
            blk = sp_add(self.blocks.get(lam, {}), other.blocks.get(lam, {}),
                         QI)
            if blk:
                blocks[lam] = blk
        return OElement(self.modules, blocks)

    def scale(self, c):
        c = QI.embed(c)
        return OElement(self.modules, {lam: sp_map(blk, lambda v: v * c)
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
            fhat = sp_map(a, lambda v: v / d)
            tot = tot + d * d * end_inner(mod, fhat, fhat)
        return tot

    def convolve(self, other):
        """Blockwise (1/dim) A B, the Plancherel image of convolution."""
        blocks = {}
        for lam, a in self.blocks.items():
            b = other.blocks.get(lam)
            if b is None:
                continue
            dinv = GaussianRational(Fraction(1, self.modules[lam].dim))
            blk = sp_map(sp_mul(a, b, QI), lambda v: v * dinv)
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
        self.two_j = two_j
        self.mod = build_irrep(build_cartan("A", 1), (two_j,))
        self.dim = self.mod.dim
        # the Gram is diagonal (one basis vector per weight, the highest of
        # norm 1); its entries reach (2j)!^2, so only their ratios are floats
        g = [None] * self.dim
        for data in self.mod.weights.values():
            g[data["basis"][0]] = data["gram"][0][0]
        with np.errstate(over="ignore"):
            self.scale = np.cumprod([1.0] + [math.sqrt(g[b + 1] / g[b])
                                             for b in range(self.dim - 1)])
        if not np.isfinite(self.scale).all():
            # from 2j = 171 the largest scale passes the float range
            raise ValueError(f"spin {two_j}/2: the orthonormal coordinates "
                             "overflow a float")
        self.mvals = np.array([w[0] for w in self.mod.weight_of])
        # E - F in the orthonormal coordinates, entry (r, c) times sqrt(g_r/g_c)
        self._k = np.zeros((self.dim, self.dim))
        for sign, mat in ((1.0, self.mod.E[0]), (-1.0, self.mod.F[0])):
            for r, row in mat.items():
                for c, v in row.items():
                    self._k[r, c] = sign * float(v) * math.sqrt(g[r] / g[c])

    def rotation(self, theta):
        """exp(-theta K / 2), real; an array of angles gives the stack of
        rotations from one `expm`."""
        import numpy as np
        from scipy.linalg import expm
        return expm(np.multiply.outer(-0.5 * np.asarray(theta), self._k))

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
    """Euler-angle Haar quadrature: midpoint grids of spacing 2pi/grid in phi
    over [0,2pi) and in psi over [0,4pi), and grid Gauss-Legendre nodes in
    u = cos theta; exact for a spin-j1 matrix coefficient times a spin-j2 one
    when j1 + j2 < grid."""

    def __init__(self, grid=64):
        import numpy as np
        self.grid = grid
        self.phis = (np.arange(grid) + 0.5) * (2 * np.pi / grid)
        self.psis = (np.arange(2 * grid) + 0.5) * (2 * np.pi / grid)
        self.us, self.ws = np.polynomial.legendre.leggauss(grid)
        self.thetas = np.arccos(self.us)

    def volume(self):
        """Total Haar mass: must be 1."""
        return float(self.ws.sum() / 2.0)

    def coefficient_tensor(self, rep1, rep2):
        """Q[a,b,c,d] = sum over the nodes y of w * pi1(y)_ab conj(pi2(y)_cd) in
        orthonormal coordinates, the quadrature of every product of a matrix
        coefficient of rep1 with a conjugated one of rep2.  As
        pi(phi, theta, psi)_ab = e^{-i phi m_a/2} R(theta)_ab e^{-i psi m_b/2}
        with R real, the theta nodes give the weighted sum of R1_ab R2_cd and
        the phi and psi nodes the phase sums P[a,c] and S[b,d]."""
        import numpy as np
        weighted = rep1.rotation(self.thetas) * (self.ws / 2.0)[:, None, None]
        rot = np.tensordot(weighted, rep2.rotation(self.thetas), axes=(0, 0))

        def phase_sum(nodes):
            left = np.exp(-0.5j * np.outer(nodes, rep1.mvals))
            right = np.exp(-0.5j * np.outer(nodes, rep2.mvals))
            return left.T @ right.conj() / len(nodes)

        p, s = phase_sum(self.phis), phase_sum(self.psis)
        return rot * p[:, None, :, None] * s[None, :, None, :]

    def schur_integral(self, rep1, rep2, w1, v1, w2, v2):
        """Quadrature of (pi1 w1, v1) * conj((pi2 w2, v2))."""
        import numpy as np

        def coords(rep, vec):
            return (rep.to_orthonormal(vec) if isinstance(vec, dict)
                    else np.asarray(vec, complex))

        return complex(np.einsum(
            "abcd,a,b,c,d->", self.coefficient_tensor(rep1, rep2),
            coords(rep1, v1).conj(), coords(rep1, w1), coords(rep2, v2),
            coords(rep2, w2).conj(), optimize=True))

    def convolution_check(self, f: MatrixCoefficient, g: MatrixCoefficient,
                          xs=((0.4, 1.1, 2.3), (2.9, 0.6, 5.0))):
        """(f*g)(x) by direct Haar quadrature of int f(y^-1 x) g(y) dy,
        against the Fourier-side value; returns the worst deviation.

        f(y^-1 x) g(y) = sum conj(pi(y)_ba) pi(y)_cd (pi(x) z1)_b conj(z1'_a)
        conj(z2'_c) z2_d, so the integral contracts conj(Q) of the
        representation with itself."""
        import numpy as np
        rep = SU2Rep(f.lam[0])
        z1, z1p = rep.to_orthonormal(f.z), rep.to_orthonormal(f.zp)
        z2, z2p = rep.to_orthonormal(g.z), rep.to_orthonormal(g.zp)
        modules = {f.lam: f.mod}
        conv = OElement.from_coefficients(modules, [f]).convolve(
            OElement.from_coefficients(modules, [g]))
        row = np.einsum("bacd,a,c,d->b",
                        self.coefficient_tensor(rep, rep).conj(), z1p.conj(),
                        z2p.conj(), z2, optimize=True)
        worst = 0.0
        for x in xs:
            pix = rep.matrix(*x)
            # the Fourier blocks live in module coordinates; move pi there
            pix_mod = (pix / rep.scale[:, None]) * rep.scale[None, :]
            exact_val = conv.evaluate({f.lam: pix_mod})
            worst = max(worst, abs(row @ (pix @ z1) - exact_val))
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
    the Kronecker delta for dominant weights.  The grid^rank midpoint nodes
    t are the rows of one array; a character is exp(2 pi i t.w) summed over
    its weights w with their multiplicities, and |Delta|^2 the product of
    |exp(2 pi i t.alpha) - 1|^2 over the positive roots."""
    import numpy as np
    cartan = build_cartan(series, rank)
    rs = root_system(series, rank)
    ts = (np.indices((grid,) * rank).reshape(rank, -1).T + 0.5) / grid

    def torus(weights):
        return np.exp(2j * np.pi * ts @ np.array(weights, dtype=float).T)

    def character(weight):
        table = character_weights(cartan, weight)
        return torus(list(table)) @ np.array(list(table.values()), dtype=float)

    delta = np.prod(np.abs(torus([root_fund(cartan, r) for r in rs.positive])
                           - 1.0) ** 2, axis=1)
    total = np.sum(character(lam) * character(mu).conj() * delta)
    return complex(total / (len(ts) * rs.weyl_order()))


# ---------------------------------------------------------------------------
# integral forms for K

def integral_lattice_report(series, rank):
    """The analytically integral forms of the adjoint compact form are
    exactly the root lattice Q.

    The torus acts on u_Y through the weight M[:, Y], M[j][Y] = A(S_j, Y) in
    fundamental coordinates.  The kernel of exp on the torus is the dual of
    the span of these weights, so the analytically integral lattice (the dual
    of that kernel) is the column span of M; Q is the column span of the
    Cartan matrix a.  They are equal iff a^{-1} M is integral and M has full
    rank with the Smith index of a.  `mismatches` lists the classes of the
    objects Y whose column a^{-1} M[:, Y] is not integral; with none, the
    kernel generators (a^T)^{-1} e_k act trivially on every u_Y.
    """
    from .rootcat import root_category
    cat = root_category(series, rank)
    cartan = cat.cartan
    m = rank
    ainv = dense_inverse([[Fraction(v) for v in row] for row in cartan.a])
    cols = [[cat.A(s, y) for s in cat.simples] for y in cat.objects]
    mismatches = [y.cls for y, col in zip(cat.objects, cols)
                  if any(sum(ainv[k][j] * col[j] for j in range(m)).denominator != 1
                         for k in range(m))]
    index = lattice_index(cartan)
    report = {
        "type": f"{series}{rank}",
        "kernel_generators_trivial": not mismatches,
        # a zero invariant factor (M of lower rank) makes the product 0
        "equals_root_lattice": (not mismatches
                                and math.prod(invariant_factors(cols)) == index),
        "mismatches": mismatches,
        "fundamental_group_order": index,
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
    out = []
    for x in iproduct(range(bound + 1), repeat=rank):
        if sum(x) > bound:
            continue
        lam = root_fund(cartan, x)
        if all(v >= 0 for v in lam):
            out.append((lam, x))
    out.sort(key=lambda p: (sum(p[1]), p[0]))
    return out
