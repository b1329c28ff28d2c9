"""Command-line front end: table emission, verification suites, irrep
inspection, and quadrature runs with machine-readable reports.

Exit codes: 0 all checks passed, 1 a check failed (witness serialized),
2 usage error.  Reports are deterministic for a fixed (options, seed) pair:
JSON keys are sorted and no timestamps are emitted.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click

from .chevgroup import (ChevalleyGroup, center_order_bruteforce,
                        center_order_formula, steinberg_report,
                        verify_conjugation_relations)
from .compactform import (CompactForm, closed_form_vs_expm, d_equals_dual_check,
                          exp_alpha_matrix, exp_beta_factorization_check,
                          exp_beta_matrix, exp_xi_matrix,
                          gamma_string_product_check,
                          gram_preservation_deviation, trig_matrix_numeric)
from .exact import GaussianRational
from .hwmodules import (DIM_CAP, adjoint_check, build_irrep,
                        shapovalov_binomial_check, unitarity_deviation,
                        weyl_dim)
from .liealg import lie_algebra
from .peterweyl import (MatrixCoefficient, OElement, SU2Quadrature, SU2Rep,
                        char_orthonormality, inner_product,
                        integral_lattice_report)
from .rootcat import root_category
from .rootdata import build_cartan, parse_type, root_system

# `peterweyl schur` builds a d1^2 x d2^2 quadrature tensor and a grid x d^2
# stack of rotations per spin: each stays under 1024^2 entries
SCHUR_DIM_CAP = 32
SCHUR_GRID_CAP = 1024


def _type(name):
    try:
        series, rank = parse_type(name)
        build_cartan(series, rank)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return series, rank


def _check_cap(cartan, lam):
    """Refuse a module larger than `build_irrep` builds, before any work."""
    dim = weyl_dim(cartan, lam)
    if dim > DIM_CAP:
        raise click.UsageError(
            f"the module of highest weight {_key(lam)} has dimension {dim}, "
            f"above the cap of {DIM_CAP}")


def _jsonable(v):
    if isinstance(v, dict):
        return {_key(k): _jsonable(w) for k, w in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(w) for w in v]
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else v.numerator
    if isinstance(v, GaussianRational):
        return str(v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


def _key(k):
    if isinstance(k, (tuple, list)):
        return ",".join(str(x) for x in k)
    return str(k)


def _emit(data, fmt):
    data = _jsonable(data)
    if fmt == "csv":
        def rows(prefix, v):
            if isinstance(v, dict):
                for k, w in sorted(v.items()):
                    yield from rows(f"{prefix}.{k}" if prefix else k, w)
            elif isinstance(v, list):
                yield (prefix, ";".join(json.dumps(_jsonable(x)) for x in v))
            else:
                yield (prefix, v)
        for key, val in rows("", data):
            click.echo(f"{key},{val}")
    else:
        click.echo(json.dumps(data, sort_keys=True, separators=(",", ":")))


_EMIT_OPT = click.option("--emit", "fmt", type=click.Choice(["json", "csv"]),
                         default="json", show_default=True)


@click.group()
def main():
    """Exact Chevalley-group, compact-form, and Peter-Weyl computations."""


@main.command()
@click.option("--type", "type_name", required=True)
@_EMIT_OPT
def roots(type_name, fmt):
    """Root system tables for a finite Dynkin type."""
    series, rank = _type(type_name)
    rs = root_system(series, rank)
    _emit({
        "type": f"{series}{rank}",
        "cartan": [list(r) for r in rs.cartan.a],
        "d": list(rs.cartan.d),
        "positive": [list(r) for r in rs.positive],
        "negative": [[-c for c in r] for r in rs.positive],
        "weyl_order": rs.weyl_order(),
    }, fmt)


@main.command()
@click.option("--type", "type_name", required=True)
@_EMIT_OPT
def rootcat(type_name, fmt):
    """Objects, involution pairing, and A-matrix of the root category."""
    series, rank = _type(type_name)
    cat = root_category(series, rank)
    objs = [{"id": i, "root": list(x.pos_root), "parity": x.parity,
             "class": list(x.cls), "d": cat.d(x)}
            for i, x in enumerate(cat.objects)]
    _emit({
        "type": f"{series}{rank}",
        "objects": objs,
        "shift": [cat.index(cat.shift(x)) for x in cat.objects],
        "A": [[cat.A(x, y) for y in cat.objects] for x in cat.objects],
    }, fmt)


@main.command(name="liealg")
@click.option("--type", "type_name", required=True)
@click.option("--emit", "what", type=click.Choice(["gamma", "killing"]),
              default="gamma", show_default=True)
def liealg_cmd(type_name, what):
    """Structure constants or the invariant form of the integral Lie algebra."""
    series, rank = _type(type_name)
    alg = lie_algebra(series, rank)
    if what == "gamma":
        table = {f"{ix},{iy}": {"L": il, "gamma": g}
                 for (ix, iy), (il, g) in sorted(alg.gamma.items())}
        _emit({"type": f"{series}{rank}", "gamma": table}, "json")
    else:
        _emit({"type": f"{series}{rank}",
               "killing": alg.killing_gram()}, "json")


@main.group()
def chevgroup():
    """Chevalley group over exact scalars."""


@chevgroup.command(name="verify")
@click.option("--type", "type_name", required=True)
@click.option("--field", type=click.Choice(["q", "rational"]),
              default="rational", show_default=True)
@click.option("--seed", type=int, default=20240817, show_default=True)
def chevgroup_verify(type_name, field, seed):
    """Conjugation and Steinberg relations; exit 1 on any failure."""
    series, rank = _type(type_name)
    alg = lie_algebra(series, rank)
    report = {"type": f"{series}{rank}", "field": field, "seed": seed,
              "relations": []}
    ok = True
    if field == "rational":
        grp = ChevalleyGroup(alg)
        conj = verify_conjugation_relations(alg, samples=3, seed=seed, grp=grp)
        report["relations"].append({
            "relation": "conjugation_identities",
            "cases": conj["pairs"] * 6,
            "failures": conj["failures"] + conj["sample_failures"],
            "eta_signs_pm1": conj["eta_values_ok"],
        })
        st = steinberg_report(alg, primes=(), samples=5, seed=seed, grp=grp)
        report["relations"].append({
            "relation": "steinberg_rational",
            "cases": len(st["rational_points"]),
            "failures": st["constant_failures"] + st["rational_failures"],
            "constants_integer": st["constants_integer"],
        })
        ok = conj["ok"] and st["ok"]
    else:
        st = steinberg_report(alg, primes=(2, 3, 5, 7), samples=0, seed=seed)
        fails = st["constant_failures"] + [
            f for v in st["prime_failures"].values() for f in v]
        report["relations"].append({
            "relation": "steinberg_prime_fields",
            "cases": sum(1 for _ in st["prime_failures"]),
            "failures": fails,
        })
        centers = []
        for p in (2, 3, 5, 7):
            a, b = center_order_formula(alg, p), center_order_bruteforce(alg, p)
            centers.append({"p": p, "formula": a, "bruteforce": b})
            ok = ok and a == b
        report["relations"].append({
            "relation": "center_order", "cases": centers,
            "failures": [c for c in centers if c["formula"] != c["bruteforce"]],
        })
        ok = ok and not fails
    report["ok"] = ok
    _emit(report, "json")
    if not ok:
        sys.exit(1)


@main.group()
def compact():
    """The compact real form and its one-parameter subgroups."""


@compact.command(name="verify")
@click.option("--type", "type_name", required=True)
def compact_verify(type_name):
    """Bracket axioms, definiteness, and closed-form exponentials."""
    series, rank = _type(type_name)
    alg = lie_algebra(series, rank)
    cf = CompactForm(alg)
    checks = {
        "jacobi": cf.jacobi_check()[0],
        "complexification_homomorphism": cf.phi_homomorphism_check()[0],
        "killing_negative_definite": cf.is_negative_definite(),
        "generates_full_algebra": cf.generated_subalgebra_dim() == cf.dim,
        "root_string_coefficients": gamma_string_product_check(alg)[0],
        "exp_coefficients_self_dual": d_equals_dual_check(alg)[0],
        "exp_beta_factorization": exp_beta_factorization_check(alg, cf)[0],
    }
    devs = {
        "closed_form_vs_expm": closed_form_vs_expm(cf),
        "gram_preservation": gram_preservation_deviation(cf),
    }
    ok = all(checks.values()) and all(d < 1e-9 for d in devs.values())
    _emit({"type": f"{series}{rank}", "checks": checks,
           "deviations": devs, "ok": ok}, "json")
    if not ok:
        sys.exit(1)


@compact.command(name="exp")
@click.option("--type", "type_name", required=True)
@click.option("--gen", type=click.Choice(["alpha", "beta", "xi"]),
              required=True)
@click.option("--obj", type=int, required=True)
@click.option("--t", "tval", type=float, required=True)
def compact_exp(type_name, gen, obj, tval):
    """Numeric matrix of exp(t * generator) in the compact-form basis."""
    series, rank = _type(type_name)
    if not math.isfinite(tval):
        raise click.UsageError(f"--t must be finite, not {tval}")
    alg = lie_algebra(series, rank)
    cf = CompactForm(alg)
    if not 0 <= obj < len(alg.objects):
        raise click.UsageError(f"object id {obj} out of range")
    x = alg.objects[obj]
    mat = {"alpha": exp_alpha_matrix, "beta": exp_beta_matrix,
           "xi": exp_xi_matrix}[gen](cf, x)
    num = trig_matrix_numeric(mat, cf.dim, tval)
    _emit({"type": f"{series}{rank}", "gen": gen, "obj": obj, "t": tval,
           "matrix": [[round(complex(v).real, 12) for v in row]
                      for row in num]}, "json")


@main.command()
@click.option("--type", "type_name", required=True)
@click.option("--weight", required=True, help="comma-separated fundamental coords")
@click.option("--emit", "what", type=click.Choice(["dims", "gram", "actions"]),
              default="dims", show_default=True)
def irrep(type_name, weight, what):
    """Inspect the irreducible module with the given highest weight."""
    series, rank = _type(type_name)
    try:
        lam = tuple(int(c) for c in weight.split(","))
        if len(lam) != rank or any(c < 0 for c in lam):
            raise ValueError
    except ValueError:
        raise click.UsageError(f"bad dominant weight {weight!r} for rank {rank}")
    cartan = build_cartan(series, rank)
    _check_cap(cartan, lam)
    mod = build_irrep(cartan, lam)
    out = {"type": f"{series}{rank}", "weight": list(lam),
           "dim": mod.dim, "weyl_dim": weyl_dim(cartan, lam)}
    if what == "dims":
        out["weight_multiplicities"] = {
            _key(d["fund"]): len(d["basis"]) for d in mod.weights.values()}
    elif what == "gram":
        out["gram_blocks"] = {
            _key(d["fund"]): d["gram"] for d in mod.weights.values()}
    else:
        out["E"] = [ {str(r): row for r, row in m.items()} for m in mod.E]
        out["F"] = [ {str(r): row for r, row in m.items()} for m in mod.F]
    _emit(out, "json")


@main.group()
def peterweyl():
    """Haar quadrature and Fourier-block identities."""


@peterweyl.command()
@click.option("--j1", required=True, help="spin, e.g. 1/2")
@click.option("--j2", required=True)
@click.option("--grid", type=click.IntRange(min=1), default=32, show_default=True)
def schur(j1, j2, grid):
    """Schur orthogonality of SU(2) matrix coefficients by quadrature."""
    import numpy as np
    try:
        tj1 = 2 * Fraction(j1)
        tj2 = 2 * Fraction(j2)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError("spins must be rational, e.g. 1/2")
    if tj1.denominator != 1 or tj2.denominator != 1:
        raise click.UsageError("spins must be half-integers, e.g. 1/2")
    if tj1 < 0 or tj2 < 0:
        raise click.UsageError("spins must be nonnegative")
    d1, d2 = int(tj1) + 1, int(tj2) + 1
    if max(d1, d2) > SCHUR_DIM_CAP:
        raise click.UsageError(
            f"spin dimensions {d1} and {d2}: each must be at most {SCHUR_DIM_CAP}")
    if grid > SCHUR_GRID_CAP:
        raise click.UsageError(f"grid {grid} is above the cap of {SCHUR_GRID_CAP}")
    if tj1 + tj2 >= 2 * grid:
        raise click.UsageError(f"the grid-{grid} rule needs j1 + j2 < {grid}")
    q = SU2Quadrature(grid)
    dev = q.coefficient_tensor(SU2Rep(d1 - 1), SU2Rep(d2 - 1))
    if d1 == d2:
        dev = dev - np.einsum("ac,bd->abcd", np.eye(d1), np.eye(d1)) / d1
    worst = float(np.abs(dev).max())
    vol_dev = abs(q.volume() - 1.0)
    ok = worst < 1e-6 and vol_dev < 1e-8
    _emit({"j1": j1, "j2": j2, "grid": grid, "haar_volume_deviation": vol_dev,
           "schur_deviation": worst, "ok": ok}, "json")
    if not ok:
        sys.exit(1)


@peterweyl.command()
@click.option("--type", "type_name", required=True)
@click.option("--trunc", required=True,
              help="semicolon-separated dominant weights, e.g. 1,0;0,1;1,1")
def plancherel(type_name, trunc):
    """Exact Parseval identity on a finite truncation."""
    series, rank = _type(type_name)
    cartan = build_cartan(series, rank)
    try:
        lams = [tuple(int(c) for c in chunk.split(","))
                for chunk in trunc.split(";")]
        if any(len(lam) != rank or min(lam) < 0 for lam in lams):
            raise ValueError
    except ValueError:
        raise click.UsageError(
            f"bad truncation {trunc!r}: want dominant weights of rank {rank}")
    for lam in lams:
        _check_cap(cartan, lam)
    modules = {lam: build_irrep(cartan, lam) for lam in lams}
    import random
    rng = random.Random(20240821)
    coeffs = []
    for lam, mod in modules.items():
        z = {k: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
             for k in range(mod.dim)}
        zp = {k: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
              for k in range(mod.dim)}
        coeffs.append(MatrixCoefficient(mod, z, zp))
    elem = OElement.from_coefficients(modules, coeffs)
    lhs = sum((inner_product(f, g) for f in coeffs for g in coeffs),
              GaussianRational(0))
    norm = elem.norm_sq()
    rhs = elem.parseval_rhs()
    ok = lhs == norm == rhs
    _emit({"type": f"{series}{rank}", "blocks": [list(l) for l in lams],
           "norm_sq": str(norm), "parseval_sum": str(rhs),
           "coefficient_sum": str(lhs), "exact_equal": ok}, "json")
    if not ok:
        sys.exit(1)


@main.command()
@click.argument("suite", type=click.Choice(
    ["all", "liealg", "group", "compact", "modules", "peterweyl"]))
@click.option("--type", "type_name", required=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--mutate-gamma", default=None,
              help="ix,iy: flip the sign of one structure constant (fault fixture)")
def verify(suite, type_name, seed, mutate_gamma):
    """Run a verification suite; exit 0 iff every check passes."""
    series, rank = _type(type_name)
    if mutate_gamma is not None and suite in ("modules", "peterweyl"):
        raise click.UsageError(
            f"--mutate-gamma changes the Lie algebra, which the {suite} "
            "suite does not read")
    cartan = build_cartan(series, rank)
    fundamental = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    if suite in ("all", "modules"):
        for lam in fundamental:
            _check_cap(cartan, lam)
    checks = []

    def record(name, ok, witness=None):
        entry = {"check": name, "ok": bool(ok)}
        if not ok and witness is not None:
            entry["witness"] = _jsonable(witness)
        checks.append(entry)

    if suite in ("all", "liealg", "group", "compact"):
        alg = lie_algebra(series, rank)
    if mutate_gamma is not None:
        try:
            ix, iy = (int(c) for c in mutate_gamma.split(","))
            il, g = alg.gamma[(ix, iy)]
        except (ValueError, KeyError):
            raise click.UsageError(f"bad gamma key {mutate_gamma!r}")
        alg = alg.with_gamma({(ix, iy): (il, -g)})

    if suite in ("all", "liealg"):
        ok, wit = alg.jacobi_check()
        record("jacobi", ok, wit)
        ok, wit = alg.killing_equals_trace_form()
        record("killing_equals_trace", ok, wit)
        record("gamma_pair_products",
               all(v in (-1, -2, -3, -4) for v in alg.gamma_pair_products()))
    if suite in ("all", "group"):
        grp = ChevalleyGroup(alg)
        conj = verify_conjugation_relations(alg, samples=3, seed=seed, grp=grp)
        record("conjugation_identities", conj["ok"],
               conj["failures"] + conj["sample_failures"])
        st = steinberg_report(alg, primes=(2, 3, 5), samples=4, seed=seed,
                              grp=grp)
        record("steinberg", st["ok"],
               {"constants": st["constant_failures"],
                "rational": st["rational_failures"],
                "prime": {p: v for p, v in st["prime_failures"].items() if v}})
    if suite in ("all", "compact"):
        cf = CompactForm(alg)
        ok, wit = cf.jacobi_check()
        record("compact_jacobi", ok, wit)
        record("compact_negative_definite", cf.is_negative_definite())
        dev = closed_form_vs_expm(cf)
        record("closed_form_exponentials", dev < 1e-10, dev)
    if suite in ("all", "modules"):
        for lam in fundamental:
            mod = build_irrep(cartan, lam)
            record(f"irrep_dim_{_key(lam)}", mod.dim == weyl_dim(cartan, lam))
            record(f"irrep_gram_pd_{_key(lam)}", mod.gram_positive_definite()[0])
            record(f"irrep_adjoint_{_key(lam)}", adjoint_check(mod)[0])
            record(f"irrep_shapovalov_{_key(lam)}",
                   shapovalov_binomial_check(mod)[0])
            gens = mod.generators()
            record(f"irrep_braid_torus_{_key(lam)}",
                   all(gens.s_second(j) == gens.s_second_sum(j)
                       for j in range(rank)))
            record(f"irrep_unitary_{_key(lam)}",
                   unitarity_deviation(mod) < 1e-10)
    if suite in ("all", "peterweyl"):
        rep = integral_lattice_report(series, rank)
        record("integral_lattice_is_root_lattice",
               rep["equals_root_lattice"] and rep["kernel_generators_trivial"],
               rep["mismatches"])
        if rank <= 2:
            lam0 = tuple([1] + [0] * (rank - 1))
            dev = abs(char_orthonormality(series, rank, lam0, lam0, grid=16) - 1)
            record("character_norm", dev < 1e-4, dev)

    ok = all(c["ok"] for c in checks)
    _emit({"type": f"{series}{rank}", "suite": suite, "seed": seed,
           "mutate_gamma": mutate_gamma, "checks": checks, "ok": ok}, "json")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
