"""Per-layer tracing by wrapping liekit's public functions from outside.

The program is not edited: `Tracer.install` replaces each listed function or
method of a freshly imported liekit with a wrapper, in every liekit module
that binds it (``from .exact import sp_mul`` copies the name, so each copy is
replaced).  A wrapper keeps a stack of open calls and, when a call ends, adds
its self time (duration minus the time of wrapped calls it made) to its layer
key.  Helpers that are not wrapped count toward the self time of their caller.

Calls that happen often (``RootCategory.A``, ``sp_mul``, the group
generators, ...) are aggregated only; the others are also kept as spans
(name, start, end, parent) for the trace file.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from math import comb

# (module, qualified name, layer key, keep spans)
WRAPPED = [
    ("rootdata", "root_system", "rootdata.root_system", False),
    ("rootdata", "RootSystem.__init__", "rootdata.root_system", True),
    ("rootdata", "RootSystem.weyl_order", "rootdata.weyl_order", True),
    ("rootdata", "build_cartan", "rootdata.other", False),
    ("rootdata", "parse_type", "rootdata.other", False),
    ("rootdata", "invariant_factors", "rootdata.other", False),
    ("rootcat", "root_category", "rootcat.construct", False),
    ("rootcat", "RootCategory.__init__", "rootcat.construct", True),
    ("rootcat", "RootCategory.A", "rootcat.A", False),
    ("rootcat", "RootCategory.omega", "rootcat.omega", False),
    ("liealg", "lie_algebra", "liealg.construct", False),
    ("liealg", "structure_constants", "liealg.construct", True),
    ("liealg", "LieAlgebraZ.__init__", "liealg.construct", True),
    ("liealg", "LieAlgebraZ.jacobi_check", "liealg.jacobi", True),
    ("liealg", "LieAlgebraZ.killing_equals_trace_form", "liealg.killing_trace", True),
    ("liealg", "LieAlgebraZ.killing_gram", "liealg.killing_trace", False),
    ("liealg", "LieAlgebraZ.trace_form", "liealg.killing_trace", False),
    ("liealg", "LieAlgebraZ.gamma_pair_products", "liealg.other", True),
    ("chevgroup", "verify_conjugation_relations", "chevgroup.conjugation", True),
    ("chevgroup", "commutator_constants", "chevgroup.commutator_constants", False),
    ("chevgroup", "steinberg_report", "chevgroup.point_checks", True),
    ("chevgroup", "ChevalleyGroup.exp_table", "chevgroup.generator", False),
    ("chevgroup", "ChevalleyGroup.E_index", "chevgroup.generator", False),
    ("chevgroup", "ChevalleyGroup.E", "chevgroup.generator", False),
    ("chevgroup", "ChevalleyGroup.h", "chevgroup.generator", False),
    ("chevgroup", "ChevalleyGroup.conj_by_h", "chevgroup.generator", False),
    ("chevgroup", "ChevalleyGroup.n", "chevgroup.generator", False),
    ("chevgroup", "ChevalleyGroup.n_inv", "chevgroup.generator", False),
    ("chevgroup", "preserves_bracket", "chevgroup.words", True),
    ("chevgroup", "random_group_element", "chevgroup.words", True),
    ("chevgroup", "center_order_formula", "chevgroup.center", True),
    ("chevgroup", "center_order_bruteforce", "chevgroup.center", True),
    ("compactform", "CompactForm.__init__", "compactform.construct", True),
    ("compactform", "CompactForm.jacobi_check", "compactform.jacobi", True),
    ("compactform", "CompactForm.is_negative_definite", "compactform.negdef", True),
    ("compactform", "CompactForm.definiteness_minors", "compactform.negdef", True),
    ("compactform", "CompactForm.killing_gram", "compactform.negdef", True),
    ("compactform", "closed_form_vs_expm", "compactform.exp_vs_expm", True),
    ("compactform", "trig_matrix_numeric", "compactform.exp_vs_expm", False),
    ("compactform", "ad_matrix_numeric", "compactform.exp_vs_expm", False),
    ("compactform", "exp_beta_factorization_check", "compactform.factorization", True),
    ("compactform", "CompactForm.phi_homomorphism_check", "compactform.other_checks", True),
    ("compactform", "CompactForm.generated_subalgebra_dim", "compactform.other_checks", True),
    ("compactform", "gamma_string_product_check", "compactform.other_checks", True),
    ("compactform", "d_equals_dual_check", "compactform.other_checks", True),
    ("compactform", "gram_preservation_deviation", "compactform.other_checks", True),
    ("hwmodules", "build_irrep", "hwmodules.build_irrep", True),
    ("hwmodules", "adjoint_check", "hwmodules.adjoint", True),
    ("hwmodules", "dagger", "hwmodules.adjoint", False),
    ("hwmodules", "WeightModule.gram_positive_definite", "hwmodules.gram_pd", True),
    ("hwmodules", "unitarity_deviation", "hwmodules.unitarity", True),
    ("hwmodules", "ModuleGenerators.__init__", "hwmodules.generators", True),
    ("hwmodules", "ModuleGenerators.x", "hwmodules.generators", False),
    ("hwmodules", "ModuleGenerators.y", "hwmodules.generators", False),
    ("hwmodules", "ModuleGenerators.s_second", "hwmodules.generators", False),
    ("hwmodules", "ModuleGenerators.s_second_sum", "hwmodules.generators", False),
    ("hwmodules", "weyl_dim", "hwmodules.other", False),
    ("hwmodules", "shapovalov_binomial_check", "hwmodules.other", True),
    ("hwmodules", "FreudenthalTable.__init__", "hwmodules.other", True),
    ("peterweyl", "inner_product", "peterweyl.parseval", False),
    ("peterweyl", "fourier_coeff", "peterweyl.parseval", False),
    ("peterweyl", "end_inner", "peterweyl.parseval", False),
    ("peterweyl", "OElement.from_coefficients", "peterweyl.parseval", True),
    ("peterweyl", "OElement.norm_sq", "peterweyl.parseval", True),
    ("peterweyl", "OElement.parseval_rhs", "peterweyl.parseval", True),
    ("peterweyl", "OElement.convolve", "peterweyl.parseval", True),
    ("peterweyl", "SU2Rep.__init__", "peterweyl.quadrature", True),
    ("peterweyl", "SU2Quadrature.__init__", "peterweyl.quadrature", True),
    ("peterweyl", "SU2Quadrature.volume", "peterweyl.quadrature", False),
    ("peterweyl", "SU2Quadrature.schur_integral", "peterweyl.quadrature", False),
    ("peterweyl", "SU2Quadrature.convolution_check", "peterweyl.quadrature", True),
    ("peterweyl", "char_orthonormality", "peterweyl.character", True),
    ("peterweyl", "integral_lattice_report", "peterweyl.lattice", True),
    ("exact", "sp_mul", "exact.sp_mul", False),
    ("exact", "solve_linear", "exact.solve_linear", False),
    ("exact", "dense_inverse", "exact.dense_inverse", False),
    ("exact", "leading_principal_minors", "exact.minors", False),
    ("exact", "dense_det", "exact.minors", False),
]

# key -> metric names; "<key>_s" is the self time, "<key>_calls" the number
# of entries into the key from outside it
TIME_KEYS = [
    "rootdata.root_system", "rootdata.weyl_order", "rootdata.other",
    "rootcat.construct", "rootcat.A", "rootcat.omega",
    "liealg.construct", "liealg.jacobi", "liealg.killing_trace", "liealg.other",
    "chevgroup.conjugation", "chevgroup.commutator_constants",
    "chevgroup.point_checks", "chevgroup.generator", "chevgroup.words",
    "chevgroup.center",
    "compactform.construct", "compactform.jacobi", "compactform.negdef",
    "compactform.exp_vs_expm", "compactform.factorization",
    "compactform.other_checks",
    "hwmodules.build_irrep", "hwmodules.adjoint", "hwmodules.gram_pd",
    "hwmodules.unitarity", "hwmodules.generators", "hwmodules.other",
    "peterweyl.parseval", "peterweyl.quadrature", "peterweyl.character",
    "peterweyl.lattice",
    "exact.sp_mul.laurent", "exact.sp_mul.prime", "exact.sp_mul.rational",
    "exact.sp_mul.gaussian", "exact.sp_mul.trig",
    "exact.solve_linear", "exact.dense_inverse", "exact.minors",
    "cli.self",
]
CALL_KEYS = [
    "rootcat.A", "chevgroup.generator",
    "exact.sp_mul.laurent", "exact.sp_mul.prime", "exact.sp_mul.rational",
    "exact.sp_mul.gaussian", "exact.sp_mul.trig", "exact.solve_linear",
]
EXTRA_COUNTS = [
    "liealg.cache_hits", "liealg.jacobi_triples", "chevgroup.conjugation_pairs",
    "hwmodules.candidates", "hwmodules.basis_built", "peterweyl.lattice_points",
]


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(k + "_s", "s")
           for k in TIME_KEYS]
    out += [(k + "_calls", "count") for k in CALL_KEYS]
    out += [(k, "count") for k in EXTRA_COUNTS]
    return out


def _domain_kind(dom):
    name = type(dom).__name__
    return {"LaurentDomain": "laurent", "PrimeField": "prime",
            "RationalDomain": "rational", "GaussianDomain": "gaussian",
            "TrigDomain": "trig"}.get(name, "other")


def _extra_counts(qualname, args, kwargs, result):
    """Work counts read off a call's arguments or result."""
    if qualname == "LieAlgebraZ.jacobi_check":
        n = args[0].dim
        ok, witness = result
        if ok:
            return {"liealg.jacobi_triples": comb(n, 3)}
        # the sweep stops at the witness: count the triples up to it
        i, j, k = witness
        return {"liealg.jacobi_triples":
                sum(comb(n - 1 - a, 2) for a in range(i))
                + sum(n - 1 - b for b in range(i + 1, j)) + k - j}
    if qualname == "verify_conjugation_relations":
        return {"chevgroup.conjugation_pairs": result["pairs"]}
    if qualname == "build_irrep":
        return {"hwmodules.candidates": sum(len(d["raw_labels"])
                                            for d in result.weights.values()),
                "hwmodules.basis_built": result.dim}
    if qualname == "integral_lattice_report":
        box = kwargs.get("box", args[2] if len(args) > 2 else 3)
        return {"peterweyl.lattice_points": (2 * box + 1) ** args[1]}
    return None


class Tracer:
    """Self time and counts per layer key, plus spans of the coarse calls."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.stack = []  # open calls: [key, start, child time, span id]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []  # [name, start, end, parent span id]

    def run(self, key, name, fn, *args, **kwargs):
        """Run fn as a root call (a case or the set-up) under `key`."""
        self.active = True
        try:
            return self._call(key, name, True, fn, args, kwargs)
        finally:
            self.active = False

    def _call(self, key, name, span, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is None or parent[0] != key:
            self.counts[key + "_calls"] += 1
        sid = parent[3] if parent else None
        start = time.perf_counter()
        if span:
            self.spans.append([name, start, None, sid])
            sid = len(self.spans) - 1
        frame = [key, start, 0.0, sid]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[key] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if span:
                self.spans[sid][2] = end

    def _wrap(self, fn, key, qualname, span):
        tracer = self
        if key == "exact.sp_mul":
            def wrapper(a, b, dom):
                if not tracer.active:
                    return fn(a, b, dom)
                return tracer._call("exact.sp_mul." + _domain_kind(dom),
                                    qualname, False, fn, (a, b, dom), {})
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                result = tracer._call(key, qualname, span, fn, args, kwargs)
                extra = _extra_counts(qualname, args, kwargs, result)
                if extra:
                    tracer.counts.update(extra)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, modules):
        """Wrap every WRAPPED entry in the given {short name: module} set."""
        for modname, qualname, key, span in WRAPPED:
            mod = modules[modname]
            if "." in qualname:
                clsname, attr = qualname.split(".")
                cls = getattr(mod, clsname)
                orig = cls.__dict__[attr]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrap(orig.__func__, key,
                                                     qualname, span))
                else:
                    wrapped = self._wrap(orig, key, qualname, span)
                setattr(cls, attr, wrapped)
                continue
            orig = getattr(mod, qualname)
            wrapped = self._wrap(orig, key, qualname, span)
            for other in modules.values():
                for name, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, name, wrapped)

    def round_metrics(self, lie_cache_hits):
        """Every per-layer metric of the calls recorded since reset()."""
        vals = {}
        for key in TIME_KEYS:
            name = key + "_s"
            vals[name] = self.self_s.get(key, 0.0)
        for key in CALL_KEYS:
            vals[key + "_calls"] = self.counts.get(key + "_calls", 0)
        for key in EXTRA_COUNTS:
            vals[key] = self.counts.get(key, 0)
        vals["liealg.cache_hits"] = lie_cache_hits
        return vals
