"""The benchmark's flipped-constant fixture and `verify --mutate-gamma` build
the same algebra.

`perfbench/workloads.py:flipped_algebra` negates one gamma by hand on a fresh
`LieAlgebraZ`; the CLI derives its algebra with `LieAlgebraZ.with_gamma` from
the cached one.  Both must give the same gamma table (order included),
bracket table and ad matrices.  The check runs in a subprocess, because the
benchmark re-imports liekit, which must never touch the liekit of the test
process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
import run
from workloads import flipped_algebra

lk = run.fresh_liekit()
bad = []
for t, key in (("B2", (7, 4)), ("D4", (0, 4)), ("E7", (125, 122))):
    base = lk["liealg"].lie_algebra(t[0], int(t[1:]))
    il, g = base.gamma[key]
    new = base.with_gamma({{key: (il, -g)}})
    old = flipped_algebra(lk, t, key)
    n = old.dim
    same = (list(old.gamma.items()) == list(new.gamma.items())
            and all(old.bracket_basis(i, j) == new.bracket_basis(i, j)
                    for i in range(n) for j in range(n))
            and all(old.ad_matrix(i) == new.ad_matrix(i) for i in range(n)))
    if not same:
        bad.append(t)
print("differ", bad)
sys.exit(1 if bad else 0)
"""


def test_flipped_algebra_equals_with_gamma():
    script = SCRIPT.format(bench=str(ROOT / "perfbench"))
    res = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
