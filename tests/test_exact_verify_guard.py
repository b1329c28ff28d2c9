"""`verify modules`, `verify liealg` and a passing `verify compact` are
exact: they load no float stack.

Each suite's verdicts are proved over Z or Q (the compact exponentials by
F' = ad(vec) F and F(0) = I over the trigonometric ring), so neither numpy
nor scipy should be imported to reach them; `verify compact` takes the float
distance from expm only as the witness of a failure.  A fresh interpreter
runs the three commands in process and reports which of the two packages it
loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from click.testing import CliRunner
from liekit.cli import main
codes = [CliRunner().invoke(main, args).exit_code for args in (
    ["verify", "modules", "--type", "B2"], ["verify", "liealg", "--type", "A2"],
    ["verify", "compact", "--type", "B2"])]
print(json.dumps({"codes": codes,
                  "loaded": sorted({"numpy", "scipy"} & set(sys.modules))}))
"""


def test_exact_suites_import_no_float_packages():
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, check=True, cwd=SRC,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert json.loads(out.stdout) == {"codes": [0, 0, 0], "loaded": []}
