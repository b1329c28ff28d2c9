"""The stdout bytes and exit codes of twenty-two commands, recorded in
`cli_golden.json` before the kernels they run on were rewritten.

Nine print values computed over Q(i), recorded from the two-Fraction
`GaussianRational` that the integer-triple form replaced; the floats among
them (deviations, `compact exp` entries) pin the complex values bit for
bit.  Five run the group suite, recorded from the sparse product that
called the domain's methods once per term: `verify group` and `chevgroup
verify` over Q and over the prime fields, on B2 and G2, and `verify group`
on B2 with gamma(7, 4) flipped, whose failure list and exit code 1 they
pin.  Three more were recorded from the symbolic proofs over matrices of
`LaurentPoly` entries, before they moved to exponent-keyed integer
matrices: `verify group` on G2, `chevgroup verify` on A2 over Q, and
`verify group` on A2 with gamma(0, 2) flipped, whose failure list, the
commutator-constant error strings included, and exit code 1 they pin.  The
last two were recorded from `build_irrep` over `Fraction`s, before it moved
to integers: `irrep --emit actions` on G2 (2,1), whose E and F entries have
denominators up to lcm 840, and `irrep --emit gram` on B3 (0,1,1).  Three
were recorded from the Jacobi sweep over all C(n, 3) triples, before it
visited only the triples with a nonzero term: `verify liealg` on F4, on E7
with gamma(125, 122) flipped (witness (13, 122, 123), exit 1), and `verify
compact` on D4 with gamma(0, 4) flipped (witness (0, 5, 8), exit 1).

`cli_digest.json` pins `liealg --emit gamma` and `--emit killing` on F4,
E6, E7, E8, B8, C8 and D8 by the sha256 of stdout and the exit code,
recorded from the construction that walked every object pair with
`chain_object` and rotated mixed-sign constants through `Fraction`s; the
E8 gamma table alone is 391 kB of JSON, too large to keep verbatim.  It
also pins `compact verify` on D4, F4 and E6 and two `compact exp` runs on
E6 (beta of object 17, xi of the parity-1 object 41), recorded from the
compact form that walked objects and held `Fraction` coefficients; the
`deviations` of `compact verify` print full float reprs, so a reordered
sum in `TrigPoly.evaluate` would show there."""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from liekit.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
DIGEST = json.loads((Path(__file__).parent / "cli_digest.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["args"]))
def test_cli_output_is_byte_identical(case):
    res = CliRunner().invoke(main, case["args"])
    assert res.exit_code == case["exit_code"], res.output
    assert res.stdout == case["stdout"]


@pytest.mark.parametrize("case", DIGEST, ids=lambda c: " ".join(c["args"]))
def test_cli_output_digest(case):
    res = CliRunner().invoke(main, case["args"])
    assert res.exit_code == case["exit_code"], res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == case["sha256"]
