"""Checks of liekit's outputs against computations made apart from it.

Every check returns a list of problems (empty when the output is right).
The reference values come from the classical tables, from this file's own
root enumeration and Weyl dimension formula, or from numpy/scipy evaluations
of properties the output must have; none comes from a stored earlier output.
"""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction
import numpy as np
from scipy.linalg import expm


# ---------------------------------------------------------------------------
# classical tables (Bourbaki, Humphreys §12): dimension, |W|, |Phi+|, the
# order of the fundamental group, and the center of the simply connected
# group over F_p

def classical(series, rank):
    n = rank
    if series == "A":
        return n * (n + 2), math.factorial(n + 1), n * (n + 1) // 2, n + 1
    if series in "BC":
        return n * (2 * n + 1), 2 ** n * math.factorial(n), n * n, 2
    if series == "D":
        return n * (2 * n - 1), 2 ** (n - 1) * math.factorial(n), n * (n - 1), 4
    return {("E", 6): (78, 51840, 36, 3), ("E", 7): (133, 2903040, 63, 2),
            ("E", 8): (248, 696729600, 120, 1), ("F", 4): (52, 1152, 24, 1),
            ("G", 2): (14, 12, 6, 1)}[(series, rank)]


def center_order(series, rank, p):
    """|Z(G_sc(F_p))|: the p-1-torsion of the fundamental group."""
    g = math.gcd
    if series == "A":
        return g(rank + 1, p - 1)
    if series in "BC" or (series, rank) == ("E", 7):
        return g(2, p - 1)
    if series == "D":
        return g(2, p - 1) ** 2 if rank % 2 == 0 else g(4, p - 1)
    if (series, rank) == ("E", 6):
        return g(3, p - 1)
    return 1


def split_type(name):
    return name[0], int(name[1:])


def cartan_matrix(series, rank):
    """a_ij = <alpha_i^vee, alpha_j> in Bourbaki numbering (0-based)."""
    n = rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    chain = {"E": [0, 2, 3, 4, 5, 6, 7][:n - 1]}.get(series, list(range(n)))
    bonds = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    if series == "D":  # nodes n-1 and n both hang off node n-2
        bonds[-1] = (n - 3, n - 1)
    if series == "E":
        bonds.append((1, 3))
    for i, j in bonds:
        a[i][j] = a[j][i] = -1
    # the long root sits on the side whose row holds -1 against a -2 or -3
    double = {"B": (n - 2, n - 1), "C": (n - 1, n - 2), "F": (1, 2)}
    if series in double:
        i, j = double[series]
        a[j][i] = -2
    if series == "G":
        a[0][1] = -3
    return a


# ---------------------------------------------------------------------------
# root systems and the Weyl dimension formula, from a Cartan matrix alone

def positive_roots(cartan):
    """Positive roots in simple-root coordinates, with a_ij = <a_i^vee, a_j>:
    s_i(b) = b - <b, a_i^vee> a_i."""
    n = len(cartan)
    simple = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    seen, todo = set(simple), list(simple)
    while todo:
        b = todo.pop()
        for i in range(n):
            c = sum(cartan[i][j] * b[j] for j in range(n))
            img = tuple(b[k] - (c if k == i else 0) for k in range(n))
            if img not in seen and all(v >= 0 for v in img) and any(img):
                seen.add(img)
                todo.append(img)
    return seen


def weyl_dimension(cartan, lam):
    """prod over positive coroots of (lam + rho, a^vee) / (rho, a^vee); the
    coroots are the positive roots of the transposed Cartan matrix."""
    n = len(cartan)
    dual = [[cartan[j][i] for j in range(n)] for i in range(n)]
    val = Fraction(1)
    for c in positive_roots(dual):
        val *= Fraction(sum((lam[i] + 1) * c[i] for i in range(n)), sum(c))
    return val


def det(mat):
    return round(np.linalg.det(np.array(mat, dtype=float)))


# ---------------------------------------------------------------------------
# numeric Lie brackets from a structure-constant list

class Brackets:
    """[e_i, e_j] = sum_k c e_k as coordinate arrays, for vectorized checks."""

    def __init__(self, dim, basis_bracket):
        rows = [(i, j, k, float(c)) for i in range(dim) for j in range(dim)
                for k, c in basis_bracket(i, j).items()]
        self.dim = dim
        self.i, self.j, self.k, self.c = (np.array(v) for v in zip(*rows))
        self.i = self.i.astype(int)
        self.j = self.j.astype(int)
        self.k = self.k.astype(int)

    def __call__(self, u, v, p=None):
        w = np.bincount(self.k, weights=self.c * u[self.i] * v[self.j],
                        minlength=self.dim)
        return np.mod(np.rint(w), p) if p else w

    def ad(self, u):
        """ad(u)[k, j]: coefficient of e_k in [u, e_j]."""
        out = np.zeros((self.dim, self.dim))
        np.add.at(out, (self.k, self.j), self.c * u[self.i])
        return out

    def flipped(self, a, b, objects):
        """Copy with the sign of [e_a, e_b] flipped on its root-vector term,
        as `liekit verify --mutate-gamma a,b` flips gamma_{ab}; the first
        `objects` basis vectors are the root vectors."""
        hit = np.flatnonzero((self.i == a) & (self.j == b) & (self.k < objects))
        if len(hit) != 1:
            raise ValueError(f"[e_{a}, e_{b}] has {len(hit)} root-vector terms")
        out = copy.copy(self)
        out.c = self.c.copy()
        out.c[hit] *= -1
        return out

    def tensor(self):
        """Dense c[a, b, :] = [e_a, e_b]."""
        out = np.zeros((self.dim,) * 3)
        np.add.at(out, (self.i, self.j, self.k), self.c)
        return out


def jacobi_problems(br, rng, label, trials=4):
    out = []
    for _ in range(trials):
        x, y, z = (rng.integers(-3, 4, br.dim).astype(float) for _ in range(3))
        s = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
        if np.abs(s).max() > 1e-9:
            out.append(f"{label}: Jacobi fails on a random triple")
    return out


def killing_problems(br, gram, rng, label, trials=4):
    """The program's invariant form equals tr(ad x ad y) on random pairs."""
    g = np.array([[float(v) for v in row] for row in gram])
    out = []
    for _ in range(trials):
        x, y = (rng.integers(-3, 4, br.dim).astype(float) for _ in range(2))
        want = np.trace(br.ad(x) @ br.ad(y))
        if abs(x @ g @ y - want) > 1e-8 * max(1.0, abs(want)):
            out.append(f"{label}: Killing form differs from tr(ad ad)")
    return out


def jacobiator(br, i, j, k):
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] as a coordinate array."""
    e = np.eye(br.dim)
    return br(br(e[i], e[j]), e[k]) + br(br(e[j], e[k]), e[i]) + br(br(e[k], e[i]), e[j])


def first_jacobi_failure(br, m):
    """First triple i < j < k, in the lexicographic order of an exhaustive
    sweep, whose Jacobiator [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    is not 0, when br differs from a Lie algebra only in brackets [e_a, e_m]:
    every failing triple then contains m, so only those are evaluated."""
    c = br.tensor()
    others = [x for x in range(br.dim) if x != m]
    for i, j, k in sorted(tuple(sorted((m, p, q)))
                          for p, q in itertools.combinations(others, 2)):
        jac = c[i, j] @ c[:, k] + c[j, k] @ c[:, i] + c[k, i] @ c[:, j]
        if np.abs(jac).max() > 0.5:
            return (i, j, k)
    return None


def conjugation_failures(br, cat, t, s):
    """The failures `verify_conjugation_relations` must report, found by
    evaluating its six identities numerically at the point (t, s), with
    E_X(t) = expm(t ad u_X), n_X(t) = E_X(t) E_TX(1/t) E_X(t) and h_X(t)
    diagonal with t^A(X, Y) on u_Y.  A Laurent identity fails exactly when it
    fails at a generic point."""
    objs = cat.objects
    no = len(objs)
    A = [[cat.A(x, y) for y in objs] for x in objs]
    omega = [[cat.index(cat.omega(x, y)) for y in objs] for x in objs]
    shift = [cat.index(cat.shift(x)) for x in objs]
    ads = []
    for ix in range(no):
        unit = np.zeros(br.dim)
        unit[ix] = 1.0
        ads.append(br.ad(unit))

    def E(ix, v):
        return expm(v * ads[ix])

    def n(ix, v):
        return E(ix, v) @ E(shift[ix], 1 / v) @ E(ix, v)

    def h(ix, v):
        return np.diag([v ** a for a in A[ix]] + [1.0] * (br.dim - no))

    def same(a, b):
        return np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(b).max())

    out = set()
    for ix in range(no):
        nx, nxi, hx = n(ix, t), np.linalg.inv(n(ix, t)), h(ix, t)
        hxi = np.linalg.inv(hx)
        for iy in range(no):
            a, w = A[ix][iy], omega[ix][iy]
            lhs = nx @ E(iy, s) @ nxi
            eta = next((e for e in (1, -1) if same(lhs, E(w, e * t ** -a * s))),
                       None)
            if eta is None:
                out.add(("n_E_conj", ix, iy))
            if not same(hx @ E(iy, s) @ hxi, E(iy, t ** a * s)):
                out.add(("h_E_conj", ix, iy))
            if eta is not None and not same(nx @ n(iy, s) @ nxi,
                                            n(w, eta * t ** -a * s)):
                out.add(("n_n_conj", ix, iy))
            if not same(nx @ h(iy, s) @ nxi, h(w, s)):
                out.add(("n_h_conj", ix, iy))
            if not same(hx @ h(iy, s) @ hxi, h(iy, s)):
                out.add(("h_h_conj", ix, iy))
            if not same(hx @ n(iy, s) @ hxi, n(iy, t ** a * s)):
                out.add(("h_n_conj", ix, iy))
    return out


def dense(mat, dim, conv=float):
    out = np.zeros((dim, dim))
    for i, row in mat.items():
        for j, v in row.items():
            out[i, j] = conv(v)
    return out


def expm_problems(label, got, t, ad, tol=1e-9):
    """A closed-form or exact exponential against scipy's expm(t * ad)."""
    want = expm(t * ad)
    dev = float(np.abs(got - want).max())
    if dev > tol * max(1.0, float(np.abs(want).max())):
        return [f"{label}: deviates from scipy expm by {dev:.3g}"]
    return []


# ---------------------------------------------------------------------------
# checks of CLI reports

def report_ok(label, code, rep):
    """The report must exist, say ok, and list no failed check."""
    if rep is None:
        return [f"{label}: no JSON report (exit {code})"]
    out = []
    if code != 0:
        out.append(f"{label}: exit code {code}")
    if rep.get("ok") is not True and rep.get("exact_equal") is not True:
        out.append(f"{label}: report is not ok")
    for c in rep.get("checks", []):
        if not c.get("ok"):
            out.append(f"{label}: check {c.get('check')} failed")
    return out


def verify_suite_problems(label, code, rep, names):
    """`liekit verify <suite>`: ok, and exactly the expected checks ran."""
    out = report_ok(label, code, rep)
    if rep is not None and sorted(c["check"] for c in rep["checks"]) != sorted(names):
        out.append(f"{label}: ran checks {[c['check'] for c in rep['checks']]}")
    return out


def chevgroup_rational_problems(label, code, rep, series, rank):
    out = report_ok(label, code, rep)
    if rep is None:
        return out
    npos = classical(series, rank)[2]
    conj = rep["relations"][0]
    if conj["cases"] != 6 * (2 * npos) ** 2:
        out.append(f"{label}: {conj['cases']} conjugation cases, "
                   f"want 6*(2*{npos})^2")
    if conj["eta_signs_pm1"] is not True or conj["failures"]:
        out.append(f"{label}: eta signs or conjugation failures")
    st = rep["relations"][1]
    if st["failures"] or st["constants_integer"] is not True:
        out.append(f"{label}: Steinberg relations failed")
    return out


def conjugation_problems(label, rep, series, rank):
    """verify_conjugation_relations: (2|Phi+|)^2 pairs, every eta is +-1."""
    npos = classical(series, rank)[2]
    out = []
    if rep["pairs"] != (2 * npos) ** 2:
        out.append(f"{label}: {rep['pairs']} pairs, want (2*{npos})^2")
    if not rep["ok"] or rep["failures"] or rep["sample_failures"]:
        out.append(f"{label}: conjugation relations failed")
    if len(rep["eta"]) != rep["pairs"] or any(v not in (1, -1)
                                              for v in rep["eta"].values()):
        out.append(f"{label}: eta is not +-1 on every pair")
    return out


def chevgroup_q_problems(label, code, rep, series, rank):
    out = report_ok(label, code, rep)
    if rep is None:
        return out
    centers = {c["p"]: c for c in rep["relations"][1]["cases"]}
    if sorted(centers) != [2, 3, 5, 7]:
        out.append(f"{label}: center orders for primes {sorted(centers)}")
    for p, c in centers.items():
        want = center_order(series, rank, p)
        if c["formula"] != want or c["bruteforce"] != want:
            out.append(f"{label}: center over F_{p} is {c}, want {want}")
    if rep["relations"][0]["failures"]:
        out.append(f"{label}: Steinberg relations failed over F_p")
    return out


def roots_problems(label, code, rep, series, rank):
    out = [] if code == 0 and rep else [f"{label}: exit {code}"]
    if rep is None:
        return out
    dim, word, npos, fund = classical(series, rank)
    cartan = rep["cartan"]
    if cartan != cartan_matrix(series, rank):
        out.append(f"{label}: Cartan matrix differs from the Bourbaki table")
    if rep["weyl_order"] != word:
        out.append(f"{label}: |W| = {rep['weyl_order']}, want {word}")
    own = positive_roots(cartan)
    if {tuple(r) for r in rep["positive"]} != own or len(own) != npos:
        out.append(f"{label}: positive roots differ from the own enumeration")
    if rank + 2 * len(rep["positive"]) != dim:
        out.append(f"{label}: rank + |Phi| = {rank + 2 * len(rep['positive'])}, "
                   f"want dim {dim}")
    if det(cartan) != fund:
        out.append(f"{label}: det Cartan = {det(cartan)}, want {fund}")
    return out


def irrep_problems(label, code, rep, lam):
    """Dimension against the own Weyl formula; multiplicities sum to the
    dimension and are invariant under the simple reflections."""
    out = [] if code == 0 and rep else [f"{label}: exit {code}"]
    if rep is None:
        return out
    series, rank = split_type(rep["type"])
    cartan = cartan_matrix(series, rank)
    want = weyl_dimension(cartan, lam)
    if rep["dim"] != want:
        out.append(f"{label}: dim {rep['dim']}, Weyl formula gives {want}")
    mults = {tuple(int(c) for c in k.split(",")): v
             for k, v in rep["weight_multiplicities"].items()}
    if sum(mults.values()) != rep["dim"]:
        out.append(f"{label}: multiplicities sum to {sum(mults.values())}")
    for mu, m in mults.items():
        for i in range(rank):
            img = tuple(mu[j] - mu[i] * cartan[j][i] for j in range(rank))
            if mults.get(img) != m:
                out.append(f"{label}: multiplicity of {mu} is not W-invariant")
                return out
    return out


def schur_cli_problems(label, code, rep):
    out = report_ok(label, code, rep)
    if rep and (rep["haar_volume_deviation"] > 1e-8
                or rep["schur_deviation"] > 1e-6):
        out.append(f"{label}: quadrature deviations {rep}")
    return out


def plancherel_cli_problems(label, code, rep):
    out = report_ok(label, code, rep)
    if rep and not (rep["norm_sq"] == rep["parseval_sum"]
                    == rep["coefficient_sum"]):
        out.append(f"{label}: the three Parseval sides differ")
    if rep and Fraction(rep["norm_sq"]) <= 0:
        out.append(f"{label}: norm {rep['norm_sq']} is not positive")
    return out


def lattice_problems(label, rep, series, rank):
    out = []
    if not (rep["equals_root_lattice"] and rep["kernel_generators_trivial"]) \
            or rep["mismatches"]:
        out.append(f"{label}: integral forms differ from the root lattice")
    fund = classical(series, rank)[3]
    if rep["fundamental_group_order"] != fund:
        out.append(f"{label}: fundamental group order "
                   f"{rep['fundamental_group_order']}, want {fund}")
    return out


# ---------------------------------------------------------------------------
# checks on library results

def word_problems(label, word, inverse, br, rng, p):
    """W W^-1 = I over F_p, and W preserves the bracket."""
    w = dense(word, br.dim, int).astype(np.int64)
    winv = dense(inverse, br.dim, int).astype(np.int64)
    out = []
    if not np.array_equal(np.mod(w @ winv, p), np.eye(br.dim, dtype=np.int64)):
        out.append(f"{label}: word times inverse word is not the identity")
    if not bracket_preserved(w, br, rng, p):
        out.append(f"{label}: word does not preserve the bracket")
    return out


def bracket_preserved(w, br, rng, p, pairs=6):
    """W[u, v] = [Wu, Wv] mod p on random vector pairs.  A map that does not
    preserve the bracket passes one pair with probability at most 2/p."""
    for _ in range(pairs):
        u, v = (rng.integers(0, p, br.dim) for _ in range(2))
        lhs = np.mod(w @ br(u, v, p).astype(np.int64), p)
        rhs = br(np.mod(w @ u, p), np.mod(w @ v, p), p)
        if not np.array_equal(lhs, rhs.astype(np.int64)):
            return False
    return True


def first_nonpositive_minor(grams):
    """(depth, k) of the first leading principal minor <= 0, scanning the
    per-weight Gram matrices in order, or None."""
    for depth, gram in grams:
        g = np.array([[float(v) for v in row] for row in gram])
        for k in range(len(g)):
            if np.linalg.det(g[:k + 1, :k + 1]) <= 0:
                return (depth, k)
    return None


def parseval_problems(label, modules, coeffs, values):
    """The three exact sides agree, and equal a float evaluation of
    sum over blocks of (z, z)(z', z')/dim."""
    lhs, norm, rhs = values
    out = []
    if not (lhs == norm == rhs):
        out.append(f"{label}: Parseval sides differ")
    want = 0.0
    for lam, z, zp in coeffs:
        mod = modules[lam]
        g = dense(mod.gram_sparse(), mod.dim)
        zv = np.array([complex(z[k]) for k in range(mod.dim)])
        zpv = np.array([complex(zp[k]) for k in range(mod.dim)])
        want += (zv @ g @ zv.conj()).real * (zpv @ g @ zpv.conj()).real / mod.dim
    if abs(complex(norm) - want) > 1e-9 * max(1.0, want):
        out.append(f"{label}: |f|^2 = {complex(norm)}, numerically {want}")
    return out


def close(label, got, want, tol):
    if abs(got - want) > tol:
        return [f"{label}: {got} is not within {tol:g} of {want}"]
    return []
