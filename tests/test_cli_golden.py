"""The stdout bytes and exit codes of nine commands that print values
computed over Q(i), recorded from the two-Fraction `GaussianRational` that
the integer-triple form replaced (`cli_golden.json`).  The floats among them
(deviations, `compact exp` entries) pin the complex values bit for bit."""

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
