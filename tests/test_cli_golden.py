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
compact` on D4 with gamma(0, 4) flipped (witness (0, 5, 8), exit 1)."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from liekit.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["args"]))
def test_cli_output_is_byte_identical(case):
    res = CliRunner().invoke(main, case["args"])
    assert res.exit_code == case["exit_code"], res.output
    assert res.stdout == case["stdout"]
