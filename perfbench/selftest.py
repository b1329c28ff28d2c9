"""Shows that no check of the benchmark passes vacuously.

Run from the root of a checkout:  python3 perfbench/selftest.py

Every case of every workload runs once; its real output must pass its check,
and each planted fault in that output must fail it.  Two faults are planted
in the program itself rather than in an output: the `--mutate-gamma` fixture
of `liekit verify`, and a Lie algebra with one structure constant flipped,
whose Jacobi identity and compact form the numeric checks must reject.
Exit status 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import random
import sys
from fractions import Fraction

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
from workloads import WORKLOADS, flipped_algebra  # noqa: E402


def _bump_sparse(mat, by):
    """Copy of a sparse row-dict matrix with one stored entry changed."""
    out = copy.deepcopy(mat)
    i = next(iter(out))
    j = next(iter(out[i]))
    out[i][j] = out[i][j] + by
    return out


def _fail_report(out):
    code, rep = copy.deepcopy(out)
    rep["ok"] = False
    if isinstance(rep.get("checks"), list) and rep["checks"]:
        rep["checks"][0]["ok"] = False
    return 1, rep


def _edit(out, fn):
    out = copy.deepcopy(out)
    fn(out)
    return out


def _words(res):
    w, winv, ok = res
    return _bump_sparse(w, 1), winv, ok


def _irrep_mult(out):
    code, rep = copy.deepcopy(out)
    key = next(iter(rep["weight_multiplicities"]))
    rep["weight_multiplicities"][key] += 1
    return code, rep


def _accept_flip(out):
    """The flipped-constant report of `verify liealg` turned into a pass."""
    code, rep = copy.deepcopy(out)
    rep["ok"] = True
    for c in rep["checks"]:
        c["ok"] = True
        c.pop("witness", None)
    return 0, rep


def _other_witness(out):
    code, rep = copy.deepcopy(out)
    jac = next(c for c in rep["checks"] if c["check"] == "jacobi")
    jac["witness"] = [jac["witness"][0] + 1] + jac["witness"][1:]
    return code, rep


def _drop_failure(rep):
    rep = copy.deepcopy(rep)
    rep["failures"] = rep["failures"][:-1]
    return rep


def _module_faults():
    ok = (True, None)
    return [("adjoint_check accepts", lambda o: (ok,) + o[1:]),
            ("adjoint_check fails at an earlier index",
             lambda o: ((False, (1, "E")),) + o[1:]),
            ("unitarity deviation 0", lambda o: (o[0], 0.0) + o[2:]),
            ("gram_positive_definite accepts", lambda o: o[:2] + (ok, o[3]))]


def _compact_faults():
    def accept(name):
        return lambda o: (o[0], o[1], {**o[2], name: True})
    return [("jacobi_check accepts", lambda o: (o[0], (True, None), o[2])),
            ("phi_homomorphism_check accepts", accept("phi_homomorphism_check")),
            ("closed_form_vs_expm accepts", accept("closed_form_vs_expm"))]


# planted faults per case-name prefix, the first matching prefix applies:
# (what is planted, output -> faulty output)
FAULTS = {
    "verify liealg --type E7 --mutate-gamma": [
        ("the flipped constant accepted", _accept_flip),
        ("another Jacobi witness", _other_witness)],
    "verify ": [("report says a check failed", _fail_report)],
    "chevgroup verify --type A2 --field rational": [
        ("conjugation case count off by one pair",
         lambda o: _edit(o, lambda x: x[1]["relations"][0].update(
             cases=x[1]["relations"][0]["cases"] - 6))),
        ("an eta sign that is not +-1",
         lambda o: _edit(o, lambda x: x[1]["relations"][0].update(
             eta_signs_pm1=False)))],
    "chevgroup verify --type B2 --field rational": [
        ("a rational Steinberg failure",
         lambda o: _edit(o, lambda x: x[1]["relations"][1].update(
             failures=[["E_E", 0, 1]])))],
    "chevgroup verify --type A2 --field q": [
        ("a wrong center order",
         lambda o: _edit(o, lambda x: x[1]["relations"][1]["cases"][1].update(
             formula=2, bruteforce=2)))],
    "chevgroup verify --type B2 --field q": [
        ("a trivial center over F_3",
         lambda o: _edit(o, lambda x: x[1]["relations"][1]["cases"][1].update(
             formula=1, bruteforce=1)))],
    "verify_conjugation_relations B2 gamma": [
        ("the flipped constant accepted", lambda o: {**o, "ok": True}),
        ("one failing identity left out", _drop_failure)],
    "commutator_constants B2 gamma": [
        ("constants returned instead of a rejection", lambda o: [(1, 1, 1)])],
    "preserves_bracket on a changed": [
        ("the changed word accepted", lambda o: (o[0], True))],
    "compact checks": _compact_faults(),
    "module checks on a changed": _module_faults(),
    "verify_conjugation_relations": [
        ("an eta of 2", lambda o: _edit(o, lambda x: x["eta"].update(
            {next(iter(x["eta"])): 2}))),
        ("a pair left out", lambda o: _edit(o, lambda x: x.update(
            pairs=x["pairs"] - 1)))],
    "E_X(t) exact": [
        ("one matrix entry off by 1/7",
         lambda o: [_bump_sparse(o[0], Fraction(1, 7))] + o[1:])],
    "F_p words": [("one word entry changed", _words)],
    "CompactForm": [],  # planted in the program, see main()
    "roots": [
        ("|W| off by one", lambda o: _edit(o, lambda x: x[1].update(
            weyl_order=x[1]["weyl_order"] + 1))),
        ("a positive root dropped", lambda o: _edit(o, lambda x: x[1].update(
            positive=x[1]["positive"][:-1])))],
    "compact exp": [
        ("one matrix entry off by 1e-6", lambda o: _edit(
            o, lambda x: x[1]["matrix"][0].__setitem__(
                0, x[1]["matrix"][0][0] + 1e-6)))],
    "irrep": [
        ("module dimension off by one", lambda o: _edit(o, lambda x: x[1].update(
            dim=x[1]["dim"] + 1))),
        ("one weight multiplicity off by one", _irrep_mult)],
    "peterweyl plancherel": [
        ("|f|^2 differs from the Parseval sum", lambda o: _edit(
            o, lambda x: x[1].update(norm_sq=x[1]["norm_sq"] + "1")))],
    "Parseval": [
        ("|f|^2 off by one", lambda o: (o[0], (o[1][0], o[1][1] + 1, o[1][2]))),
        ("all three sides off by one",
         lambda o: (o[0], tuple(v + 1 for v in o[1])))],
    "peterweyl schur": [
        ("a Schur integral off by 1e-3", lambda o: _edit(
            o, lambda x: x[1].update(schur_deviation=1e-3)))],
    "SU(2) Schur": [
        ("Haar volume 0.99", lambda o: (o[0] * 0.99, o[1])),
        ("one integral off by 1e-6", lambda o: (o[0], [o[1][0] + 1e-6] + o[1][1:]))],
    "SU(2) convolution": [("deviation 1e-6", lambda o: o + 1e-6)],
    "char_orthonormality": [("pairing off by 1e-3", lambda o: o + 1e-3)],
    "integral_lattice_report": [
        ("a wrong fundamental group order", lambda o: _edit(o, lambda x: x.update(
            fundamental_group_order=x["fundamental_group_order"] + 1))),
        ("a lattice mismatch", lambda o: _edit(o, lambda x: x.update(
            mismatches=[(1,)], equals_root_lattice=False)))],
}
BOOLEAN_CASES = ("jacobi_check", "phi_homomorphism_check", "is_negative_definite",
                 "generated_subalgebra_dim", "gamma_string_product_check",
                 "d_equals_dual_check", "exp_beta_factorization_check",
                 "closed_form_vs_expm", "gram_preservation_deviation")


def faults_for(name):
    if name.startswith(BOOLEAN_CASES):
        return [("the check returns False", lambda o: False)]
    for prefix, faults in FAULTS.items():
        if name.startswith(prefix):
            return faults
    raise KeyError(f"no planted fault for case {name!r}")


def main():
    bad = []

    def expect(label, problems, want_fail):
        ok = bool(problems) == want_fail
        print(f"{'ok  ' if ok else 'BAD '} {label}"
              + (f"  [{problems[0]}]" if problems and want_fail else ""))
        if not ok:
            bad.append(label)

    for wl in WORKLOADS.values():
        lk = run.fresh_liekit()
        ctx = run.Context(lk, 0)
        ctx.setup(wl)
        for case in wl.cases(ctx, wl.plan(random.Random(0))):
            out = case.run(ctx)
            expect(f"{wl.name}: {case.name} passes", case.check(ctx, out), False)
            for what, plant in faults_for(case.name):
                expect(f"{wl.name}: {case.name} rejects {what}",
                       case.check(ctx, plant(out)), True)

    lk = run.fresh_liekit()
    ctx = run.Context(lk, 0)
    code, rep = ctx.cli(["verify", "liealg", "--type", "B2", "--mutate-gamma", "0,2"])
    expect("verify liealg --mutate-gamma 0,2 report is rejected",
           C.verify_suite_problems("mutated B2", code, rep, [
               "jacobi", "killing_equals_trace", "gamma_pair_products"]), True)
    alg = flipped_algebra(lk, "B2", (0, 2))
    br = C.Brackets(alg.dim, alg.bracket_basis)
    rng = np.random.default_rng(0)
    expect("numeric Jacobi rejects a flipped structure constant",
           C.jacobi_problems(br, rng, "mutated B2"), True)
    gram = alg.killing_gram()
    gram[0][0] += 1
    expect("numeric Killing check rejects a changed form entry",
           C.killing_problems(br, gram, rng, "B2", trials=8), True)
    algebra = WORKLOADS["algebra-large-rank"]
    ctx.setup(algebra)
    cf = lk["compactform"].CompactForm(flipped_algebra(lk, "D4", (0, 4)))
    case = next(c for c in algebra.cases(ctx, {"exp": []})
                if c.name.startswith("CompactForm"))
    expect("compact form of a flipped structure constant is rejected",
           case.check(ctx, cf), True)

    print(f"{len(bad)} checks misbehaved" if bad else "every check behaves")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
