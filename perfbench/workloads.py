"""The three workloads: their set-up, their cases and the check of each case.

A workload's `plan` turns the run's seed into plain input data once per run;
`cases` binds that data to the freshly imported liekit of one round, so every
round repeats the same operations.  A case's `run` makes program calls only
(it is what `wall_s` times); its `check` compares the output with the
computations in checks.py and is not timed.

Every workload also runs rejection cases: inputs with a planted fault (a
flipped structure constant, a changed group element, a changed module) on
which the program's verifiers must report a failure, and where the benchmark
can say which failure.  A verifier that stops checking fails these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import checks as C

P_WORDS = 101  # the prime field of the random group words
WORD_LEN = 18  # generators per word; the kinds cycle E, h, n
LARGE = ("F4", "E6", "E7")  # the types of the E_X(t) and word cases
SCHUR_SPINS = ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3))  # (2j1, 2j2)

# Structure constants gamma_{ab} flipped by the rejection cases.  On E7,
# (125, 122) has the latest first failing Jacobi triple of all 4032 keys,
# (13, 122, 123), so the sweep must cover about a quarter of the triples.
FLIP_B2 = (7, 4)
FLIP_D4 = (0, 4)
FLIP_E7 = (125, 122)


@dataclass
class Case:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]
    root: str = "bench"  # layer key of the case's own glue ("cli.self" for CLI)


def cli_case(args, check, *extra):
    name = " ".join(args)
    return Case(name, lambda ctx: ctx.cli(args),
                lambda ctx, out: check(name, *out, *extra), root="cli.self")


def _types(*names):
    return [C.split_type(n) for n in names]


def _rational(rng):
    return Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))


def flipped_algebra(lk, t, key):
    """The algebra `liekit verify --mutate-gamma` builds: gamma_key negated."""
    alg = lk["liealg"].LieAlgebraZ(lk["rootcat"].root_category(*C.split_type(t)))
    il, g = alg.gamma[key]
    alg.gamma[key] = (il, -g)
    alg._brackets = alg._build_bracket_table()
    alg._ad_cache = {}
    return alg


# ---------------------------------------------------------------------------
# group-relations: chevgroup and exact over Laurent polynomials, Q and F_p

class GroupRelations:
    name = "group-relations"
    largest = "verify_conjugation_relations G2"
    lie_types = _types("A2", "B2", "G2", "F4", "E6", "E7")
    root_types = []

    def plan(self, rng):
        plan = {"cli_seed": rng.randrange(1, 2 ** 31), "exp": {}, "words": {},
                "point": (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))}
        for t in LARGE:
            s, r = C.split_type(t)
            nobj = 2 * C.classical(s, r)[2]
            plan["exp"][t] = [(rng.randrange(nobj), _rational(rng))
                              for _ in range(3)]
            plan["words"][t] = [("Ehn"[k % 3], rng.randrange(nobj),
                                 rng.randrange(1, P_WORDS)) for k in range(WORD_LEN)]
        dim = C.classical("F", 4)[0]
        plan["change"] = (rng.randrange(dim), rng.randrange(dim))
        return plan

    def cases(self, ctx, plan):
        seed = str(plan["cli_seed"])
        out = []
        for t in ("A2", "B2"):
            st = C.split_type(t)
            out.append(cli_case(["verify", "group", "--type", t, "--seed", seed],
                                C.verify_suite_problems,
                                ["conjugation_identities", "steinberg"]))
            out.append(cli_case(["chevgroup", "verify", "--type", t, "--field",
                                 "rational", "--seed", seed],
                                C.chevgroup_rational_problems, *st))
            out.append(cli_case(["chevgroup", "verify", "--type", t, "--field", "q",
                                 "--seed", seed], C.chevgroup_q_problems, *st))
        out.append(self._conjugation_case(plan["cli_seed"]))
        out += [self._exp_case(t, plan["exp"][t]) for t in LARGE]
        out += [self._words_case(t, plan["words"][t]) for t in LARGE]
        out.append(self._changed_word_case(plan["words"]["F4"], plan["change"]))
        out.append(self._flipped_conjugation_case(plan["cli_seed"], plan["point"]))
        out.append(self._flipped_commutator_case())
        return out

    def _conjugation_case(self, seed):
        """The conjugation half of `verify group --type G2`, as a library call."""
        def conj(ctx):
            return ctx.lk["chevgroup"].verify_conjugation_relations(
                ctx.alg("G2"), samples=3, seed=seed)
        return Case(self.largest, conj, lambda ctx, rep: C.conjugation_problems(
            "G2", rep, "G", 2))

    def _exp_case(self, t, points):
        def run(ctx):
            grp = ctx.lk["chevgroup"].ChevalleyGroup(ctx.alg(t))
            qq = ctx.lk["exact"].QQ
            return [grp.E_index(ix, t0, qq) for ix, t0 in points]

        def check(ctx, mats):
            br = ctx.brackets(t)
            out = []
            for (ix, t0), mat in zip(points, mats):
                unit = np.zeros(br.dim)
                unit[ix] = 1.0
                out += C.expm_problems(f"E_{ix}({t0}) on {t}", C.dense(mat, br.dim),
                                       float(t0), br.ad(unit))
            return out
        return Case(f"E_X(t) exact on {t}", run, check)

    @staticmethod
    def _word(lk, alg, word):
        """The word's matrix and that of its inverse word, over F_p."""
        grp = lk["chevgroup"].ChevalleyGroup(alg)
        dom = lk["exact"].PrimeField(P_WORDS)
        fwd, inv = [], []
        for kind, ix, s in word:
            x = alg.objects[ix]
            if kind == "E":
                fwd.append(grp.E(x, s, dom))
                inv.append(grp.E(x, dom.neg(s), dom))
            elif kind == "h":
                fwd.append(grp.h(x, s, dom))
                inv.append(grp.h(x, dom.inv(s), dom))
            else:
                fwd.append(grp.n(x, s, dom))
                inv.append(grp.n_inv(x, s, dom))
        mul = lk["exact"].sp_mul_many
        return mul(fwd, dom), mul(inv[::-1], dom), dom

    def _words_case(self, t, word):
        def run(ctx):
            alg = ctx.alg(t)
            w, winv, dom = self._word(ctx.lk, alg, word)
            return w, winv, ctx.lk["chevgroup"].preserves_bracket(alg, w, dom)

        def check(ctx, res):
            w, winv, ok = res
            label = f"F_{P_WORDS} word on {t}"
            out = [] if ok is True else [f"{label}: preserves_bracket returned {ok}"]
            return out + C.word_problems(label, w, winv, ctx.brackets(t),
                                         ctx.np_rng, P_WORDS)
        return Case(f"F_p words on {t}", run, check)

    def _changed_word_case(self, word, change):
        """preserves_bracket must reject the F4 word with one entry changed."""
        r, c = change

        def run(ctx):
            alg = ctx.alg("F4")
            w, _, dom = self._word(ctx.lk, alg, word)
            row = dict(w.get(r, {}))
            row[c] = dom.add(row.get(c, dom.zero), dom.one)
            w = {**w, r: {k: v for k, v in row.items() if v}}
            return w, ctx.lk["chevgroup"].preserves_bracket(alg, w, dom)

        def check(ctx, res):
            w, ok = res
            br = ctx.brackets("F4")
            label = f"changed F4 word, entry {r, c} + 1"
            out = [] if ok is False else [f"{label}: preserves_bracket returned {ok}"]
            if C.bracket_preserved(C.dense(w, br.dim, int).astype(np.int64), br,
                                   ctx.np_rng, P_WORDS):
                out.append(f"{label}: still preserves the bracket numerically")
            return out
        return Case("preserves_bracket on a changed F4 word", run, check)

    def _flipped_conjugation_case(self, seed, point):
        """verify_conjugation_relations on B2 with gamma_{FLIP_B2} flipped must
        report exactly the identities that fail numerically."""
        def run(ctx):
            return ctx.lk["chevgroup"].verify_conjugation_relations(
                flipped_algebra(ctx.lk, "B2", FLIP_B2), samples=3, seed=seed)

        def check(ctx, rep):
            alg = ctx.alg("B2")
            br = ctx.brackets("B2").flipped(*FLIP_B2, len(alg.objects))
            want = C.conjugation_failures(br, alg.cat, *point)
            got = {tuple(f) for f in rep["failures"]}
            label = f"conjugation on B2 with gamma{FLIP_B2} flipped"
            out = [] if rep["ok"] is False else [f"{label}: reported ok"]
            if not want:
                out.append(f"{label}: no identity fails numerically")
            if got != want:
                out.append(f"{label}: {len(got)} failures reported, {len(want)} "
                           f"fail numerically, {len(got ^ want)} differ")
            return out
        return Case(f"verify_conjugation_relations B2 gamma{FLIP_B2} flipped",
                    run, check)

    def _flipped_commutator_case(self):
        """commutator_constants of the flipped pair itself must raise: its
        commutator is not a product of root elements."""
        def run(ctx):
            alg = flipped_algebra(ctx.lk, "B2", FLIP_B2)
            x, y = (alg.objects[i] for i in FLIP_B2)
            try:
                return ctx.lk["chevgroup"].commutator_constants(alg, x, y)
            except ArithmeticError as exc:
                return exc

        def check(ctx, out):
            if isinstance(out, ArithmeticError):
                return []
            return [f"commutator_constants B2 gamma{FLIP_B2} flipped: "
                    f"accepted, constants {out}"]
        return Case(f"commutator_constants B2 gamma{FLIP_B2} flipped", run, check)


# ---------------------------------------------------------------------------
# algebra-large-rank: liealg, compactform and rootdata at F4, E6, E7

class AlgebraLargeRank:
    name = "algebra-large-rank"
    largest = "verify liealg --type E7"
    lie_types = _types("D4", "F4", "E6", "E7")
    root_types = []
    LIEALG_CHECKS = ["jacobi", "killing_equals_trace", "gamma_pair_products"]

    def plan(self, rng):
        exps = []
        for t in ("F4", "E6"):
            s, r = C.split_type(t)
            for _ in range(2):
                exps.append((t, rng.choice(["alpha", "beta", "xi"]),
                             rng.randrange(2 * C.classical(s, r)[2]),
                             rng.randint(-1500, 1500) / 1000))
        return {"exp": exps}

    def cases(self, ctx, plan):
        out = [Case(f"verify liealg --type {t}",
                    lambda ctx, t=t: ctx.cli(["verify", "liealg", "--type", t]),
                    lambda ctx, o, t=t: self._liealg_check(ctx, t, o),
                    root="cli.self") for t in ("F4", "E6", "E7")]
        flip = ["verify", "liealg", "--type", "E7", "--mutate-gamma",
                "{},{}".format(*FLIP_E7)]
        out.append(Case(" ".join(flip), lambda ctx: ctx.cli(flip),
                        self._flipped_liealg_check, root="cli.self"))
        out += self._compact_cases("D4")
        out.append(self._flipped_compact_case("D4"))
        out.append(cli_case(["roots", "--type", "E6"], C.roots_problems, "E", 6))
        for t, gen, obj, tv in plan["exp"]:
            args = ["compact", "exp", "--type", t, "--gen", gen,
                    "--obj", str(obj), "--t", repr(tv)]
            out.append(Case(" ".join(args), lambda ctx, a=args: ctx.cli(a),
                            lambda ctx, o, a=(t, gen, obj, tv):
                            self._exp_check(ctx, *a, o), root="cli.self"))
        return out

    def _liealg_check(self, ctx, t, out):
        label = f"verify liealg --type {t}"
        probs = C.verify_suite_problems(label, *out, self.LIEALG_CHECKS)
        alg = ctx.alg(t)
        dim = C.classical(*C.split_type(t))[0]
        if alg.dim != dim:
            probs.append(f"{label}: dim {alg.dim}, want {dim}")
        br = ctx.brackets(t)
        probs += C.jacobi_problems(br, ctx.np_rng, label)
        probs += C.killing_problems(br, alg.killing_gram(), ctx.np_rng, label)
        return probs

    def _flipped_liealg_check(self, ctx, out):
        """Exit 1, and the Jacobi witness is the first failing triple."""
        label = f"verify liealg --type E7 --mutate-gamma {FLIP_E7}"
        code, rep = out
        if rep is None:
            return [f"{label}: no JSON report (exit {code})"]
        out = [] if code == 1 and rep["ok"] is False else [
            f"{label}: exit {code}, ok {rep['ok']}"]
        checks = {c["check"]: c for c in rep["checks"]}
        if sorted(checks) != sorted(self.LIEALG_CHECKS):
            out.append(f"{label}: ran checks {sorted(checks)}")
        alg = ctx.alg("E7")
        want = C.first_jacobi_failure(
            ctx.brackets("E7").flipped(*FLIP_E7, len(alg.objects)), FLIP_E7[1])
        jac = checks.get("jacobi", {})
        if jac.get("ok") is not False or tuple(jac.get("witness", ())) != want:
            out.append(f"{label}: jacobi {jac}, want witness {want}")
        return out

    COMPACT_CHECKS = [
        ("phi_homomorphism_check", lambda cfm, alg, cf: cf.phi_homomorphism_check()[0]),
        ("gamma_string_product_check",
         lambda cfm, alg, cf: cfm.gamma_string_product_check(alg)[0]),
        ("d_equals_dual_check", lambda cfm, alg, cf: cfm.d_equals_dual_check(alg)[0]),
        ("exp_beta_factorization_check",
         lambda cfm, alg, cf: cfm.exp_beta_factorization_check(alg, cf)[0]),
        ("closed_form_vs_expm", lambda cfm, alg, cf: cfm.closed_form_vs_expm(cf) < 1e-9),
        ("gram_preservation_deviation",
         lambda cfm, alg, cf: cfm.gram_preservation_deviation(cf) < 1e-9),
    ]

    def _compact_cases(self, t):
        """`compact verify --type t` as its library calls, one case each."""
        def check_construct(ctx, cf):
            probs = C.close(f"compact dim {t}", cf.dim, ctx.alg(t).dim, 0)
            gram = np.array([[float(v) for v in row] for row in cf.killing_gram()])
            if np.linalg.eigvalsh(gram).max() >= 0:
                probs.append(f"compact {t}: Gram is not negative definite")
            br = C.Brackets(cf.dim, lambda i, j: cf.bracket({i: 1}, {j: 1}))
            return probs + C.jacobi_problems(br, ctx.np_rng, f"compact {t}")
        calls = [
            ("jacobi_check", lambda cfm, alg, cf: cf.jacobi_check()[0]),
            ("is_negative_definite", lambda cfm, alg, cf: cf.is_negative_definite()),
            ("generated_subalgebra_dim",
             lambda cfm, alg, cf: cf.generated_subalgebra_dim() == cf.dim),
        ] + self.COMPACT_CHECKS
        # the first case builds the CompactForm the others reuse
        out = [Case(f"CompactForm {t}", lambda ctx: ctx.compact(t), check_construct)]
        for name, call in calls:
            out.append(Case(f"{name} {t}",
                            lambda ctx, call=call: call(ctx.lk["compactform"],
                                                        ctx.alg(t), ctx.compact(t)),
                            lambda ctx, ok, name=name: [] if ok is True
                            else [f"{name} on {t} returned {ok}"]))
        return out

    def _flipped_compact_case(self, t):
        """The compact checks on t with gamma_{FLIP_D4} flipped must reject it;
        the Jacobi witness must fail numerically."""
        def run(ctx):
            cfm = ctx.lk["compactform"]
            alg = flipped_algebra(ctx.lk, t, FLIP_D4)
            cf = cfm.CompactForm(alg)
            return cf, cf.jacobi_check(), {name: call(cfm, alg, cf)
                                           for name, call in self.COMPACT_CHECKS}

        def check(ctx, res):
            cf, (ok, witness), verdicts = res
            label = f"compact checks on {t} with gamma{FLIP_D4} flipped"
            out = [f"{label}: {name} accepted it"
                   for name, v in verdicts.items() if v is not False]
            br = C.Brackets(cf.dim, lambda i, j: cf.bracket({i: 1}, {j: 1}))
            if ok is not False or witness is None:
                out.append(f"{label}: jacobi_check returned {ok, witness}")
            elif np.abs(C.jacobiator(br, *witness)).max() < 1e-9:
                out.append(f"{label}: Jacobi holds at the witness {witness}")
            return out
        return Case(f"compact checks {t} gamma{FLIP_D4} flipped", run, check)

    def _exp_check(self, ctx, t, gen, obj, tv, out):
        label = f"compact exp {gen} {obj} on {t}"
        code, rep = out
        if rep is None or code != 0:
            return [f"{label}: exit {code}"]
        cf = ctx.compact(t)
        x = ctx.alg(t).objects[obj]
        coords = {"alpha": cf.alpha_coords, "beta": cf.beta_coords,
                  "xi": cf.xi_coords}[gen](x)
        vec = np.zeros(cf.dim)
        for k, v in coords.items():
            vec[k] = float(v)
        return C.expm_problems(label, np.array(rep["matrix"]), tv,
                               ctx.compact_brackets(t).ad(vec))


# ---------------------------------------------------------------------------
# modules-peterweyl: hwmodules, peterweyl and exact over Fraction and Q(i)

class ModulesPeterWeyl:
    name = "modules-peterweyl"
    largest = "irrep --type A3 --weight 2,1,2 --emit dims"
    lie_types = _types("A2", "B2", "G2", "A3")
    root_types = _types("A1", "B3", "C3", "A4", "D4", "F4")
    IRREPS = (("A2", (6, 6)), ("G2", (2, 1)), ("B3", (0, 1, 1)), ("A3", (2, 1, 2)))
    LATTICES = ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "F4")
    PARSEVAL = (("A2", ((1, 0), (0, 1), (2, 1))), ("G2", ((1, 0), (0, 1))))
    CHARACTERS = (("A2", (1, 0), (1, 0)), ("A2", (1, 0), (0, 1)),
                  ("B2", (0, 1), (0, 1)), ("G2", (1, 0), (1, 0)))

    def plan(self, rng):
        def gauss(n):
            return [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        parseval = []
        for t, lams in self.PARSEVAL:
            cartan = C.cartan_matrix(*C.split_type(t))
            blocks = []
            for lam in lams:
                dim = int(C.weyl_dimension(cartan, lam))
                blocks.append((lam, gauss(dim), gauss(dim)))
            parseval.append((t, blocks))
        # Schur integrands: fixed spin pairs, seeded basis vectors, half of
        # them on the diagonal (where the integral is 1/dim)
        schur = []
        for tj1, tj2 in SCHUR_SPINS:
            a, b = rng.randrange(tj1 + 1), rng.randrange(tj1 + 1)
            c, d = rng.randrange(tj2 + 1), rng.randrange(tj2 + 1)
            if tj1 == tj2 and rng.random() < 0.5:
                c, d = a, b
            schur.append((tj1, tj2, (a, b, c, d)))
        conv = (2, gauss(3), gauss(3), gauss(3), gauss(3))
        return {"parseval": parseval, "schur": schur, "conv": conv}

    def cases(self, ctx, plan):
        out = []
        for t, lam in self.IRREPS:
            w = ",".join(map(str, lam))
            out.append(cli_case(["irrep", "--type", t, "--weight", w,
                                 "--emit", "dims"], C.irrep_problems, lam))
        for t in ("A2", "B2", "G2", "A3"):
            rank = int(t[1:])
            names = [f"irrep_{c}_{','.join('1' if j == i else '0' for j in range(rank))}"
                     for i in range(rank) for c in
                     ("dim", "gram_pd", "adjoint", "shapovalov",
                      "braid_torus", "unitary")]
            out.append(cli_case(["verify", "modules", "--type", t],
                                C.verify_suite_problems, names))
        out.append(self._changed_module_case())
        out.append(cli_case(["peterweyl", "plancherel", "--type", "A2",
                             "--trunc", "1,0;0,1;1,1"], C.plancherel_cli_problems))
        for t, blocks in plan["parseval"]:
            out.append(self._parseval_case(t, blocks))
        out.append(cli_case(["peterweyl", "schur", "--j1", "1/2", "--j2", "1",
                             "--grid", "32"], C.schur_cli_problems))
        out.append(self._schur_case(plan["schur"]))
        out.append(self._conv_case(plan["conv"]))
        for t, lam, mu in self.CHARACTERS:
            out.append(self._char_case(t, lam, mu))
        for t in self.LATTICES:
            out.append(Case(f"integral_lattice_report {t}",
                            lambda ctx, t=t: ctx.lk["peterweyl"].integral_lattice_report(
                                *C.split_type(t)),
                            lambda ctx, rep, t=t: C.lattice_problems(
                                f"lattice {t}", rep, *C.split_type(t))))
        return out

    def _changed_module_case(self):
        """The module checks of `verify modules` on A3 (1,0,0) with a planted
        fault: F_3 doubled on one basis vector must fail adjoint_check at
        (2, "E") and unitarity; the lowest weight's Gram negated must fail
        gram_positive_definite at the first non-positive minor."""
        def run(ctx):
            hw = ctx.lk["hwmodules"]
            mod = hw.build_irrep(ctx.lk["rootdata"].build_cartan("A", 3), (1, 0, 0))
            last = mod.m - 1
            fs = list(mod.F)
            col = next(iter(fs[last]))
            fs[last] = {**fs[last], col: {r: 2 * v for r, v in fs[last][col].items()}}
            f_changed = hw.WeightModule(mod.cartan, mod.lam, mod.dim, mod.E, fs,
                                        mod.weights, mod.weight_of)
            weights = dict(mod.weights)
            low = list(weights)[-1]
            weights[low] = {**weights[low], "gram": [
                [-v for v in row] for row in weights[low]["gram"]]}
            g_changed = hw.WeightModule(mod.cartan, mod.lam, mod.dim, mod.E, mod.F,
                                        weights, mod.weight_of)
            return (hw.adjoint_check(f_changed), hw.unitarity_deviation(f_changed),
                    g_changed.gram_positive_definite(),
                    [(d, w["gram"]) for d, w in weights.items()])

        def check(ctx, res):
            adj, dev, pd, grams = res
            label = "changed A3 (1,0,0) module"
            out = []
            if tuple(adj) != (False, (2, "E")):
                out.append(f"{label}: adjoint_check returned {adj}")
            if not dev > 1e-6:
                out.append(f"{label}: unitarity deviation {dev}")
            want = C.first_nonpositive_minor(grams)
            if want is None or tuple(pd) != (False, want):
                out.append(f"{label}: gram_positive_definite returned {pd}, "
                           f"want (False, {want})")
            return out
        return Case("module checks on a changed A3 (1,0,0)", run, check)

    def _parseval_case(self, t, blocks):
        def run(ctx):
            lk = ctx.lk
            pw, gr = lk["peterweyl"], lk["exact"].GaussianRational
            cartan = lk["rootdata"].build_cartan(*C.split_type(t))
            mods = {lam: lk["hwmodules"].build_irrep(cartan, lam)
                    for lam, _, _ in blocks}
            coeffs = [pw.MatrixCoefficient(
                mods[lam], {k: gr(*c) for k, c in enumerate(z)},
                {k: gr(*c) for k, c in enumerate(zp)}) for lam, z, zp in blocks]
            elem = pw.OElement.from_coefficients(mods, coeffs)
            lhs = sum((pw.inner_product(f, g) for f in coeffs for g in coeffs),
                      gr(0))
            return mods, (lhs, elem.norm_sq(), elem.parseval_rhs())

        def check(ctx, out):
            mods, values = out
            coeffs = [(lam, [complex(*c) for c in z], [complex(*c) for c in zp])
                      for lam, z, zp in blocks]
            return C.parseval_problems(f"Parseval on {t}", mods, coeffs, values)
        return Case(f"Parseval exact on {t} {[b[0] for b in blocks]}", run, check)

    def _schur_case(self, items):
        def run(ctx):
            pw = ctx.lk["peterweyl"]
            q = pw.SU2Quadrature(24)
            reps = {tj: pw.SU2Rep(tj) for tj in (1, 2, 3)}
            vals = []
            for tj1, tj2, (a, b, c, d) in items:
                r1, r2 = reps[tj1], reps[tj2]
                e = np.eye(max(r1.dim, r2.dim))
                vals.append(q.schur_integral(r1, r2, e[b][:r1.dim], e[a][:r1.dim],
                                             e[d][:r2.dim], e[c][:r2.dim]))
            return q.volume(), vals

        def check(ctx, out):
            vol, vals = out
            probs = C.close("Haar volume", vol, 1.0, 1e-12)
            for (tj1, tj2, (a, b, c, d)), v in zip(items, vals):
                want = 1.0 / (tj1 + 1) if (tj1 == tj2 and a == c and b == d) else 0.0
                probs += C.close(f"Schur integral {tj1, tj2, a, b, c, d}",
                                 abs(v - want), 0.0, 1e-9)
            return probs
        return Case("SU(2) Schur integrals", run, check)

    def _conv_case(self, conv):
        tj, z1, z1p, z2, z2p = conv

        def run(ctx):
            pw, gr = ctx.lk["peterweyl"], ctx.lk["exact"].GaussianRational
            mod = pw.SU2Rep(tj).mod
            vec = lambda z: {k: gr(*c) for k, c in enumerate(z)}
            f = pw.MatrixCoefficient(mod, vec(z1), vec(z1p))
            g = pw.MatrixCoefficient(mod, vec(z2), vec(z2p))
            return pw.SU2Quadrature(12).convolution_check(f, g)

        return Case(f"SU(2) convolution_check spin {tj}/2", run,
                    lambda ctx, dev: C.close("convolution", dev, 0.0, 1e-8))

    def _char_case(self, t, lam, mu):
        want = 1.0 if lam == mu else 0.0

        def run(ctx):
            return ctx.lk["peterweyl"].char_orthonormality(
                *C.split_type(t), lam, mu, grid=24)
        return Case(f"char_orthonormality {t} {lam} {mu}", run,
                    lambda ctx, v: C.close(f"character pairing {t} {lam} {mu}",
                                           abs(v - want), 0.0, 1e-6))


WORKLOADS = {w.name: w for w in (GroupRelations(), AlgebraLargeRank(),
                                 ModulesPeterWeyl())}
