"""The command-line front end: exit codes, determinism, report shape."""

import json

import pytest
from click.testing import CliRunner

from liekit.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_roots_json():
    res = run("roots", "--type", "A2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["type"] == "A2"
    assert len(data["positive"]) == 3
    assert data["weyl_order"] == 6


def test_invalid_type_is_usage_error():
    res = run("roots", "--type", "H3")
    assert res.exit_code == 2
    res = run("verify", "all", "--type", "Z9")
    assert res.exit_code == 2


def test_csv_emission():
    res = run("roots", "--type", "A1", "--emit", "csv")
    assert res.exit_code == 0
    assert "weyl_order,2" in res.output


def test_rootcat_report():
    res = run("rootcat", "--type", "B2")
    data = json.loads(res.output)
    assert len(data["objects"]) == 8
    # shift is an involution on ids
    sh = data["shift"]
    assert all(sh[sh[i]] == i for i in range(len(sh)))


def test_liealg_gamma_and_killing():
    res = run("liealg", "--type", "A2", "--emit", "gamma")
    data = json.loads(res.output)
    assert all(v["gamma"] in (1, -1) for v in data["gamma"].values())
    res = run("liealg", "--type", "A1", "--emit", "killing")
    data = json.loads(res.output)
    assert data["killing"][2][2] == 8  # tr(ad h ad h) = 8 for sl2


def test_irrep_dims():
    res = run("irrep", "--type", "G2", "--weight", "1,0")
    data = json.loads(res.output)
    assert data["dim"] == 7 and data["weyl_dim"] == 7
    res = run("irrep", "--type", "A2", "--weight", "1,0,0")
    assert res.exit_code == 2


def test_verify_liealg_pass_and_mutation_fail():
    res = run("verify", "liealg", "--type", "A2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["ok"] and all(c["ok"] for c in data["checks"])
    res = run("verify", "liealg", "--type", "A2", "--mutate-gamma", "0,2")
    assert res.exit_code == 1
    data = json.loads(res.output)
    jac = next(c for c in data["checks"] if c["check"] == "jacobi")
    assert not jac["ok"] and "witness" in jac


def test_verify_deterministic_output():
    a = run("verify", "group", "--type", "A2", "--seed", "5")
    b = run("verify", "group", "--type", "A2", "--seed", "5")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_chevgroup_verify_exit():
    res = run("chevgroup", "verify", "--type", "A1", "--field", "q")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["ok"]


def test_peterweyl_schur_cli():
    res = run("peterweyl", "schur", "--j1", "1/2", "--j2", "1/2",
              "--grid", "8")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["schur_deviation"] < 1e-6
    res = run("peterweyl", "schur", "--j1", "x", "--j2", "1")
    assert res.exit_code == 2
    # 2/3 is not a spin; it must not be truncated to spin 0 and pass
    res = run("peterweyl", "schur", "--j1", "1/3", "--j2", "1/3")
    assert res.exit_code == 2
    res = run("peterweyl", "schur", "--j1", "1/2", "--j2", "1/2", "--grid", "0")
    assert res.exit_code == 2


def test_peterweyl_plancherel_cli():
    res = run("peterweyl", "plancherel", "--type", "A1", "--trunc", "1;2;3")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["exact_equal"]
    # a weight of the wrong length, and a non-dominant one
    for trunc in ("1,0;5", "1,0;-1,2"):
        res = run("peterweyl", "plancherel", "--type", "A2", "--trunc", trunc)
        assert res.exit_code == 2, trunc


def test_compact_exp_cli():
    res = run("compact", "exp", "--type", "A1", "--gen", "alpha",
              "--obj", "0", "--t", "0.0")
    data = json.loads(res.output)
    n = len(data["matrix"])
    assert data["matrix"] == [[float(i == j) for j in range(n)]
                              for i in range(n)]


def test_verify_group_mutated_reports_steinberg_failure():
    """A pair whose commutator has no constants is a Steinberg failure with
    its reason as witness, not a traceback."""
    res = run("verify", "group", "--type", "B2", "--mutate-gamma", "7,4")
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["ok"] is False
    st = next(c for c in data["checks"] if c["check"] == "steinberg")
    assert st["ok"] is False
    pairs = {tuple(f[:3]) for f in st["witness"]["constants"]}
    assert ("commutator_constants", 7, 4) in pairs
    assert all(isinstance(f[3], str) and f[3] for f in st["witness"]["constants"])


def test_verify_ignores_liekit_threads():
    res = CliRunner().invoke(main, ["verify", "liealg", "--type", "A1"],
                             env={"LIEKIT_THREADS": "x"})
    assert res.exit_code == 0
    assert "threads" not in json.loads(res.output)


def test_roots_weyl_order_e7_e8():
    for name, order in (("E7", 2903040), ("E8", 696729600)):
        res = run("roots", "--type", name)
        assert res.exit_code == 0
        assert json.loads(res.output)["weyl_order"] == order


def test_over_cap_module_is_usage_error():
    """The 8645-dimensional E7 module is over the cap: a usage error that
    names the weight and its dimension, raised before anything is built."""
    res = run("irrep", "--type", "E7", "--weight", "0,0,1,0,0,0,0")
    assert res.exit_code == 2
    assert "0,0,1,0,0,0,0" in res.output and "8645" in res.output
    for suite in ("modules", "all"):
        res = run("verify", suite, "--type", "E7")
        assert res.exit_code == 2
        assert "0,0,1,0,0,0,0" in res.output and "8645" in res.output
    res = run("peterweyl", "plancherel", "--type", "A2", "--trunc", "1,0;100,0")
    assert res.exit_code == 2
    assert "100,0" in res.output and "5151" in res.output


@pytest.mark.slow
def test_verify_modules_f4():
    """Every module check passes on F4, unitarity of the 1274-dimensional
    module of the second fundamental weight included, at the 1e-10 bound."""
    res = run("verify", "modules", "--type", "F4")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True
