"""The command-line front end: exit codes, determinism, report shape."""

import json

import pytest
from click.testing import CliRunner

from liekit.cli import main
from liekit.hwmodules import ModuleGenerators
from liekit.liealg import lie_algebra, structure_constants
from liekit.rootcat import root_category


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


@pytest.mark.parametrize("name", ["A1_0", "E 6", "G+2", "A\uff12"])
def test_coerced_type_name_is_usage_error(name):
    """A rank that `int` would coerce is refused, not read as another type
    (A1_0 would run as A10)."""
    res = run("roots", "--type", name)
    assert res.exit_code == 2
    assert "bad type name" in res.output


def test_type_name_with_outer_spaces_runs():
    assert json.loads(run("roots", "--type", " g2 ").output)["type"] == "G2"


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


@pytest.mark.parametrize("suite", ["modules", "peterweyl"])
def test_mutate_gamma_refused_where_no_check_reads_it(suite):
    """The modules and peterweyl suites build no Lie algebra, so a mutated
    one would be reported without being checked."""
    res = run("verify", suite, "--type", "A2", "--mutate-gamma", "0,2")
    assert res.exit_code == 2
    assert "--mutate-gamma" in res.output and "\"checks\"" not in res.output


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


def test_peterweyl_schur_refuses_over_the_caps(monkeypatch):
    """Exit 2 just over each cap, before any module or quadrature is built;
    at the caps the run goes ahead."""
    import liekit.cli as cli

    def refuse(*args):
        raise AssertionError("built before the cap check")

    over_spin = f"{cli.SCHUR_DIM_CAP}/2"  # dimension SCHUR_DIM_CAP + 1
    with monkeypatch.context() as m:
        m.setattr(cli, "SU2Rep", refuse)
        m.setattr(cli, "SU2Quadrature", refuse)
        for args in (("--j1", over_spin, "--j2", "0"),
                     ("--j1", "0", "--j2", over_spin),
                     ("--j1", "0", "--j2", "0",
                      "--grid", str(cli.SCHUR_GRID_CAP + 1))):
            res = run("peterweyl", "schur", *args)
            assert res.exit_code == 2, args
            assert "cap" in res.output or "at most" in res.output
    res = run("peterweyl", "schur", "--j1", f"{cli.SCHUR_DIM_CAP - 1}/2",
              "--j2", "0", "--grid", "16")
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"] is True


def test_peterweyl_schur_band(monkeypatch):
    """The grid-n rule is exact for j1 + j2 < n: spins (10, 10) pass at the
    default grid 32, and j1 + j2 >= n is refused with exit 2 before any
    module or quadrature is built."""
    import liekit.cli as cli

    res = run("peterweyl", "schur", "--j1", "10", "--j2", "10")
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"] is True
    res = run("peterweyl", "schur", "--j1", "2", "--j2", "3/2", "--grid", "4")
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"] is True

    def refuse(*args):
        raise AssertionError("built before the band check")

    with monkeypatch.context() as m:
        m.setattr(cli, "SU2Rep", refuse)
        m.setattr(cli, "SU2Quadrature", refuse)
        for args in (("--j1", "2", "--j2", "2", "--grid", "4"),
                     ("--j1", "5", "--j2", "5", "--grid", "4"),
                     ("--j1", "15", "--j2", "1", "--grid", "16")):
            res = run("peterweyl", "schur", *args)
            assert res.exit_code == 2, args
            assert "j1 + j2 <" in res.output


@pytest.mark.parametrize("suite,tp", [
    ("liealg", "B4"), ("liealg", "C4"), ("liealg", "D5"), ("liealg", "F4"),
    ("liealg", "E6"), ("compact", "F4"), ("compact", "E6"), ("compact", "E7"),
    pytest.param("compact", "E8", marks=pytest.mark.slow)])
def test_verify_type_matrix(suite, tp):
    """Types past the ranks of the acceptance criteria: every check runs
    and passes (`verify compact` up to E7 in the default run, E8 `slow`)."""
    res = run("verify", suite, "--type", tp)
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["ok"] is True and data["checks"]
    assert all(c["ok"] for c in data["checks"]), data["checks"]


def test_peterweyl_plancherel_cli():
    res = run("peterweyl", "plancherel", "--type", "A1", "--trunc", "1;2;3")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["exact_equal"]
    # a weight of the wrong length, and a non-dominant one
    for trunc in ("1,0;5", "1,0;-1,2"):
        res = run("peterweyl", "plancherel", "--type", "A2", "--trunc", trunc)
        assert res.exit_code == 2, trunc


@pytest.mark.parametrize("trunc", ["1,0;1,0", "1,0;0,1;1,0"])
def test_peterweyl_plancherel_refuses_a_repeated_weight(trunc):
    """One block per weight: a repeat would be reported as two blocks while
    only one module and one coefficient are built."""
    res = run("peterweyl", "plancherel", "--type", "A2", "--trunc", trunc)
    assert res.exit_code == 2, res.output
    assert "weight 1,0 is repeated" in res.output


def test_compact_exp_cli():
    res = run("compact", "exp", "--type", "A1", "--gen", "alpha",
              "--obj", "0", "--t", "0.0")
    data = json.loads(res.output)
    n = len(data["matrix"])
    assert data["matrix"] == [[float(i == j) for j in range(n)]
                              for i in range(n)]


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_compact_exp_refuses_non_finite_t(t):
    res = run("compact", "exp", "--type", "A1", "--gen", "alpha",
              "--obj", "0", "--t", t)
    assert res.exit_code == 2
    assert "finite" in res.output


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


@pytest.mark.parametrize("type_name", ["B4", "C4", "D5", "F4", "E6", "E7", "E8"])
def test_verify_peterweyl_type_matrix(type_name):
    """The integral-lattice check passes past rank 4, E7 and E8 included."""
    res = run("verify", "peterweyl", "--type", type_name)
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["ok"] is True
    assert [c["check"] for c in data["checks"]] == ["integral_lattice_is_root_lattice"]


def test_verify_liealg_e8():
    """Jacobi, the invariant form against tr(ad ad) and the gamma pair
    products all pass on E8."""
    res = run("verify", "liealg", "--type", "E8")
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["ok"] is True
    assert [(c["check"], c["ok"]) for c in data["checks"]] == [
        ("jacobi", True), ("killing_equals_trace", True),
        ("gamma_pair_products", True)]


def test_mutate_gamma_leaves_the_cached_algebra_as_built():
    """A mutated run and then a plain one in one process: the plain run
    passes, and the cached E7 algebra still has the gamma table (order
    included), bracket table and ad matrices of a fresh build."""
    runner = CliRunner()
    res = runner.invoke(main, ["verify", "liealg", "--type", "E7",
                               "--mutate-gamma", "125,122"])
    assert res.exit_code == 1, res.output
    res = runner.invoke(main, ["verify", "liealg", "--type", "E7"])
    assert res.exit_code == 0, res.output
    alg, fresh = lie_algebra("E", 7), structure_constants(root_category("E", 7))
    assert list(alg.gamma.items()) == list(fresh.gamma.items())
    pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
    assert all(alg.bracket_basis(i, j) == fresh.bracket_basis(i, j)
               for i, j in pairs)
    assert all(alg.ad_matrix(i) == fresh.ad_matrix(i) for i in range(alg.dim))


@pytest.mark.slow
def test_verify_modules_e6():
    """Every module check passes on E6."""
    res = run("verify", "modules", "--type", "E6")
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["ok"] is True and all(c["ok"] for c in data["checks"])


def test_verify_modules_f4():
    """Every module check passes on F4, unitarity of the 1274-dimensional
    module of the second fundamental weight included."""
    res = run("verify", "modules", "--type", "F4")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True


@pytest.mark.parametrize("type_name", [
    "B3", "C3", "B4", "C4", "D4", "D5", "F4",
    pytest.param("E6", marks=pytest.mark.slow),
    pytest.param("E7", marks=pytest.mark.slow)])
def test_verify_group_rank_3_and_up(type_name):
    """Conjugation and Steinberg relations pass on B3, C3, B4, C4, D4, D5,
    F4, E6 and E7."""
    res = run("verify", "group", "--type", type_name)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True


@pytest.mark.slow
def test_compact_verify_e7():
    """Every check of `compact verify` passes on E7, the exp(t ad beta_X)
    factorization, read off integer exponent-keyed products, included."""
    res = run("compact", "verify", "--type", "E7")
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["ok"] is True and all(data["checks"].values())


def test_verify_modules_builds_generators_once_per_module(monkeypatch):
    calls = []
    init = ModuleGenerators.__init__

    def counted(self, mod):
        calls.append(mod.lam)
        init(self, mod)

    monkeypatch.setattr(ModuleGenerators, "__init__", counted)
    res = run("verify", "modules", "--type", "A2")
    assert res.exit_code == 0, res.output
    assert sorted(calls) == [(0, 1), (1, 0)]
