"""Layered benchmark of liekit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload group-relations --seed 1 --seconds 40 --trace 0

A run repeats whole rounds of the workload's cases until `--seconds` would be
exceeded.  Each round imports liekit afresh from `src/` and rebuilds its root
systems, root categories and Lie algebras (`setup_s`), then runs every case
(summed as `wall_s`), then checks every output (untimed).  The last stdout
line is the JSON result: with `--trace 0` the end-to-end metrics (medians
over the rounds), with `--trace 1` the per-layer metrics of the traced rounds
(see tracing.py; traced and untraced rounds alternate, and the spans and the
tracing overhead go to perfbench/out/).

Every time is reported in reference seconds: the measured time scaled by
REF_S over the time of `reference_kernel`, a fixed piece of pure-Python work
of this benchmark's own that is timed before the set-up and after the set-up
and every case.  On a shared 2-core VM the host's speed changes by up to 2x
over minutes; the scaling takes that out, and a change to liekit still moves
the reported time in full, since the kernel runs none of liekit's code.
"""

from __future__ import annotations

import os

# one BLAS thread; this must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("rootdata", "rootcat", "liealg", "chevgroup", "compactform",
          "hwmodules", "peterweyl", "exact", "cli")

# The unit of every reported time: a result of 1 s means that the measured
# time was 1 / REF_S times that of reference_kernel next to it.  0.020 s is
# about the kernel's time on a quiet 2-core VM with Python 3.11.
REF_S = 0.020


def reference_kernel():
    """Fixed pure-Python work of the kind liekit does: Fraction sums and
    tuple-keyed dicts of small integers."""
    acc, f = {}, Fraction(0)
    for i in range(1, 6000):
        f += Fraction(i % 7 - 3, i % 11 + 1)
        k = (i % 13, i % 17, i % 5)
        acc[k] = acc.get(k, 0) + i * 3
    s = 0
    for a in range(120):
        row = {(a, b): (a * b) % 7 for b in range(120)}
        for (x, y), v in row.items():
            if v:
                s += v * (x + y)
    return f, s, len(acc)


def time_reference():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def in_ref_s(raw, ref_before, ref_after):
    """A measured time in reference seconds, by the kernel timed around it."""
    return raw * 2 * REF_S / (ref_before + ref_after)


class CaseFailed(Exception):
    """The program raised instead of producing an output."""


def fresh_liekit():
    """Import liekit anew from src/, dropping every earlier copy."""
    for name in [m for m in sys.modules if m == "liekit" or m.startswith("liekit.")]:
        del sys.modules[name]
    mods = {"liekit": importlib.import_module("liekit")}
    for layer in LAYERS:
        mods[layer] = importlib.import_module("liekit." + layer)
    if Path(mods["liekit"].__file__).resolve().parent != SRC / "liekit":
        raise SystemExit(f"liekit imported from {mods['liekit'].__file__}, "
                         f"not from {SRC}")
    return mods


class Context:
    """One round's liekit modules, its set-up objects and check helpers."""

    def __init__(self, lk, seed):
        from click.testing import CliRunner
        import numpy as np
        self.lk = lk
        self.runner = CliRunner()
        self.np_rng = np.random.default_rng(seed)
        self._algs = {}
        self._memo = {}

    def setup(self, wl):
        rd, rc, la = self.lk["rootdata"], self.lk["rootcat"], self.lk["liealg"]
        for s, r in wl.lie_types + wl.root_types:
            rd.root_system(s, r)
            rc.root_category(s, r)
        for s, r in wl.lie_types:
            self._algs[f"{s}{r}"] = la.lie_algebra(s, r)

    def alg(self, t):
        return self._algs[t]

    def cli(self, args):
        """Run `liekit <args>` in-process; (exit code, parsed JSON or None)."""
        res = self.runner.invoke(self.lk["cli"].main, args)
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            raise CaseFailed("".join(traceback.format_exception(
                type(res.exception), res.exception, res.exception.__traceback__)))
        text = res.stdout.strip()
        try:
            rep = json.loads(text.splitlines()[-1]) if text else None
        except json.JSONDecodeError:
            rep = None
        return res.exit_code, rep

    def _cached(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def brackets(self, t):
        from checks import Brackets
        alg = self.alg(t)
        return self._cached(("br", t), lambda: Brackets(alg.dim, alg.bracket_basis))

    def compact(self, t):
        return self._cached(("cf", t), lambda: self.lk["compactform"].CompactForm(
            self.alg(t)))

    def compact_brackets(self, t):
        from checks import Brackets
        cf = self.compact(t)
        return self._cached(("cbr", t), lambda: Brackets(
            cf.dim, lambda i, j: cf.bracket({i: 1}, {j: 1})))


def run_round(wl, plan, seed, tracer):
    """Set up, run every case, check every output; returns the round record."""
    gc.collect()  # frees the previous round's liekit before the clock starts
    refs = [time_reference()]
    t0 = time.perf_counter()
    lk = fresh_liekit()
    lie_cache = lk["liealg"].lie_algebra  # the lru_cache, before any wrapping
    ctx = Context(lk, seed)
    if tracer is None:
        ctx.setup(wl)
    else:
        tracer.reset()
        tracer.install(lk)
        tracer.run("bench.setup", "setup", ctx.setup, wl)
    raw_setup = time.perf_counter() - t0
    refs.append(time_reference())
    setup_s = in_ref_s(raw_setup, *refs[-2:])

    # the checks wait until every case has run, so that the kernel timed
    # after one case is also the one timed right before the next
    times, raw, outputs, failed = {}, {}, [], 0
    for case in wl.cases(ctx, plan):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = case.run(ctx)
            else:
                out = tracer.run(case.root, case.name, case.run, ctx)
        except Exception:  # a failed operation, reported and counted
            failed += 1
            print(f"FAILED {case.name}\n{traceback.format_exc()}", file=sys.stderr)
            refs.append(time_reference())
            continue
        raw[case.name] = time.perf_counter() - start
        refs.append(time_reference())
        times[case.name] = in_ref_s(raw[case.name], *refs[-2:])
        outputs.append((case, out))
    peak_mb = peak_rss_mb()  # the program's peak, before the checks allocate
    problems = []
    for case, out in outputs:
        try:
            problems += case.check(ctx, out)
        except Exception:  # a malformed output: wrong, not a failed operation
            problems.append(f"{case.name}: the check raised on its output\n"
                            + traceback.format_exc())
    rec = {"traced": tracer is not None, "setup_s": setup_s,
           "wall_s": sum(times.values()), "case_s": times, "raw_case_s": raw,
           "kernel_s": refs, "peak_mb": peak_mb,
           "attempted": len(times) + failed, "failed": failed,
           "problems": problems, "total_s": time.perf_counter() - t0}
    if tracer is not None:
        scale = REF_S / statistics.median(refs)
        rec["layers"] = {
            name: value * scale if name.endswith("_s") else value
            for name, value in tracer.round_metrics(
                lie_cache.cache_info().hits).items()}
        rec["spans"] = tracer.spans
    return rec


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "liekit" / "__init__.py").is_file():
        print(f"no liekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  (imported once, outside every timed region)
    import scipy.linalg  # noqa: F401
    from tracing import Tracer, metric_names
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    plan = wl.plan(random.Random(args.seed))
    tracer = Tracer() if args.trace else None

    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer if (tracer and len(rounds) % 2 == 0) else None
        rounds.append(run_round(wl, plan, args.seed, traced))
        elapsed = time.perf_counter() - start
        longest = max(r["total_s"] for r in rounds)
        if len(rounds) >= (2 if tracer else 1) and elapsed + longest > args.seconds:
            break

    problems = [p for r in rounds for p in r["problems"]]
    names = dict.fromkeys(n for r in rounds for n in r["case_s"])
    plain = [r for r in rounds if not r["traced"]]
    if not tracer:
        case_s = {  # each case's median over the rounds it did not fail in
            name: statistics.median(r["case_s"][name] for r in rounds
                                    if name in r["case_s"])
            for name in names}
        metrics = {
            "setup_s": ("s", statistics.median(r["setup_s"] for r in rounds)),
            "wall_s": ("s", sum(case_s.values())),
            # the first round's: each later round leaves a little memory
            # behind, so later peaks grow with the number of rounds that fit
            "peak_rss_mb": ("MB", rounds[0]["peak_mb"]),
        }
        if wl.largest in case_s:
            metrics["largest_case_s"] = ("s", case_s[wl.largest])
        else:
            problems.append(f"{wl.largest}: failed in every round, so "
                            "largest_case_s has no value")
        result_metrics = {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}
    else:
        traced = [r for r in rounds if r["traced"]]
        metrics = {}
        for name, unit in metric_names():
            vals = [r["layers"][name] for r in traced]
            if unit == "count" and len(set(vals)) > 1:
                print(f"count {name} differs between rounds: {vals}",
                      file=sys.stderr)
            value = statistics.median_low(vals) if unit == "count" \
                else statistics.median(vals)
            metrics[name] = {"value": value, "unit": unit}
        result_metrics = metrics
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "overhead_s": overhead,
            "untraced_wall_s": [r["wall_s"] for r in plain],
            "rounds": [{k: v for k, v in r.items() if k != "problems"}
                       for r in traced],
            "span_fields": ["name", "start", "end", "parent"],
        }))
        print(f"trace written to {path}; tracing overhead {overhead:.3f} s "
              f"of wall_s", file=sys.stderr)
    shown = plain or rounds
    print("  ref s   raw s  case (medians over the rounds)", file=sys.stderr)
    for name in names:
        ref = [r["case_s"][name] for r in shown if name in r["case_s"]]
        got = [r["raw_case_s"][name] for r in shown if name in r["raw_case_s"]]
        if ref:
            print(f"{statistics.median(ref):7.3f} {statistics.median(got):7.3f}"
                  f"  {name}", file=sys.stderr)
    kernel = [t for r in rounds for t in r["kernel_s"]]
    print(f"reference kernel: median {statistics.median(kernel) * 1e3:.1f} ms, "
          f"range {min(kernel) * 1e3:.1f}-{max(kernel) * 1e3:.1f} ms "
          f"(REF_S = {REF_S * 1e3:.0f} ms)", file=sys.stderr)
    print(f"{len(rounds)} rounds in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    for p in sorted(set(problems)):
        print(f"CHECK {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
