"""The benchmark's run trace still finds every function it wraps.

`perfbench/tracing.py` wraps liekit's functions and methods by name and
classifies scalar domains by class name, so a rename in liekit would break
`perfbench/run.py --trace 1`.  The check runs in a subprocess, so that the
wrappers it installs never touch the liekit of the test process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
import run
from tracing import WRAPPED, Tracer, _domain_kind

mods = run.fresh_liekit()
Tracer().install({{name: mods[name] for name in run.LAYERS}})
missing = []
for modname, qualname, _, _ in WRAPPED:
    owner, _, attr = qualname.rpartition(".")
    scope = vars(getattr(mods[modname], owner)) if owner else vars(mods[modname])
    fn = scope.get(attr)
    fn = getattr(fn, "__func__", fn)
    if not hasattr(fn, "__wrapped__"):
        missing.append(modname + "." + qualname)
exact, cf = mods["exact"], mods["compactform"]
domains = {{"QQ": exact.QQ, "QI": exact.QI, "LAURENT": exact.LAURENT,
           "F5": exact.PrimeField(5), "TRIG": cf.TRIG, "TRIG_QI": cf.TRIG_QI}}
unclassified = [n for n, d in domains.items() if _domain_kind(d) == "other"]
print("missing", missing)
print("unclassified", unclassified)
sys.exit(1 if missing or unclassified else 0)
"""


def test_tracer_wraps_every_listed_function():
    script = SCRIPT.format(bench=str(ROOT / "perfbench"))
    res = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
