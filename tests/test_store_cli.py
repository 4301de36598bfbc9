import json
import re
import sys

import pytest

from treegrowth import build_atlas, catalog, cli, criterion, growth, store
from treegrowth import incompressible as inc
from treegrowth.cli import main
from treegrowth.family import validate
from treegrowth.store import ConfigError

from oracle import reference_atlas


FG_CONFIG = {"kind": "ggs", "parameters": {"d": 3, "epsilon": [1, 0]}}
# a = (1, a) swapping the root, the binary adding machine, with its inverse:
# zero-length generators of infinite order, so A is infinite.  `define`
# checks only A's root closure; listing A stops at the budget.
ADDING_MACHINE = {"kind": "custom", "parameters": {"degree": 2, "period": [[
    {"name": "a", "pseudolength": 0, "inverse": "A", "root": [1, 0],
     "children": [[], ["a"]]},
    {"name": "A", "pseudolength": 0, "inverse": "a", "root": [1, 0],
     "children": [["A"], []]},
    {"name": "b", "pseudolength": 1, "inverse": "b", "root": [0, 1],
     "children": [["a"], ["b"]]}]]}}


@pytest.fixture()
def fg_config_path(tmp_path):
    path = tmp_path / "fg.json"
    path.write_text(json.dumps(FG_CONFIG))
    return str(path)


def test_group_hash_stable():
    h1 = store.group_hash(FG_CONFIG)
    h2 = store.group_hash({"parameters": {"epsilon": [1, 0], "d": 3},
                           "kind": "ggs"})
    assert h1 == h2                      # key order must not matter
    assert len(h1) == 64
    assert h1 != store.group_hash({"kind": "ggs",
                                   "parameters": {"d": 3, "epsilon": [1, 1]}})


def test_build_spec_kinds():
    assert store.build_spec(FG_CONFIG).name.startswith("ggs")
    grig = store.build_spec({"kind": "grigorchuk_p",
                             "parameters": {"p": 2, "per": [0, 1, 2]}})
    assert grig.num_classes == 3
    nk = store.build_spec({"kind": "nekrashevych_D",
                           "parameters": {"per": [0, 1]}})
    assert nk.degree == 2
    su = store.build_spec({"kind": "sunic",
                           "parameters": {"p": 3, "m": 2, "a_coeffs": [0]}})
    assert su.degree == 3
    assert store.build_spec({"kind": "neumann6", "parameters": {}}).degree == 6
    # FG as raw spinal data: B = Z/3, omega = (b -> a, b -> 1)
    sp = store.build_spec({"kind": "spinal", "parameters": {
        "degree": 3, "orders": [3], "a_perms": [[1, 2, 0]],
        "omega_per": [[[[1, 2, 0]], [[0, 1, 2]]]]}})
    assert build_atlas(sp, 5).table(0).sphere_sizes() == \
        build_atlas(catalog.fabrykowski_gupta(), 5).table(0).sphere_sizes() == \
        [3, 18, 72, 288, 1152, 4296]


def test_build_spec_errors():
    with pytest.raises(ConfigError, match="unknown group kind"):
        store.build_spec({"kind": "nope"})
    with pytest.raises(ConfigError, match="missing parameter"):
        store.build_spec({"kind": "ggs", "parameters": {"d": 3}})


def test_custom_spec_roundtrip():
    config = {"kind": "custom", "parameters": {
        "degree": 2,
        "preperiod": [],
        "period": [[
            {"name": "a", "pseudolength": 0, "inverse": "a",
             "root": [1, 0], "children": [[], []]},
            {"name": "b", "pseudolength": 1, "inverse": "b",
             "root": [0, 1], "children": [["a"], ["b"]]},
        ]],
    }}
    spec = store.build_spec(config)
    atlas = build_atlas(spec, 4)
    assert atlas.table(0).sphere_sizes()[0] == 2


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        store.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        store.load_config(str(bad))


def test_save_load_roundtrip(tmp_path, fg_atlas6, fg_report6):
    path = str(tmp_path / "table.csv")
    table = fg_atlas6.table(0)
    header = store.save_table(path, FG_CONFIG, table, report=fg_report6)
    got_header, rows = store.load_table(path)
    assert got_header == header
    assert got_header["group_hash"] == store.group_hash(FG_CONFIG)
    # every row's radius and parent link match the per-element reference
    # loop's, every ball element once
    ref = reference_atlas(fg_atlas6.spec, 6, fg_atlas6.engine).table(0)
    assert len(rows) == table.gamma(6)
    assert sorted(r[0] for r in rows) == sorted(ref.lengths)
    for g, n, pid, name, _ in rows:
        assert n == ref.lengths[g] == table.length(g)
        assert (None if pid is None else (pid, name)) == ref.parents[g]
    # flags preserved: bit k-1 set iff the element is in the depth-k set
    by_id = {r[0]: r for r in rows}
    for g in ref.spheres[3]:
        assert by_id[g][4] == store.flags_bitfield(fg_report6, 0,
                                                   table.find(g)[0])
    b = fg_atlas6.engine.gen_id(0, "b1")
    assert by_id[b][4] == 0b111111


def test_load_table_rejects_bad_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("id,radius\n")
    with pytest.raises(ConfigError, match="header"):
        store.load_table(str(p))
    p.write_text('#{"format_version": 99}\nid,radius,parent,generator,flags\n')
    with pytest.raises(ConfigError, match="version"):
        store.load_table(str(p))


# -- command line -----------------------------------------------------------

def test_cli_define_ok(fg_config_path, capsys):
    assert main(["define", "--config", fg_config_path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_define_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "ggs",
                               "parameters": {"d": 4, "epsilon": [2, 0, 2]}}))
    assert main(["define", "--config", str(bad)]) == 1
    assert "gcd_condition" in capsys.readouterr().err


@pytest.mark.parametrize("p", [0, 1])
def test_cli_define_rejects_sunic_p_below_2(tmp_path, capsys, p):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "sunic",
                                "parameters": {"p": p, "m": 1}}))
    assert main(["define", "--config", str(path)]) == 1
    assert f"needs p at least 2, got {p}" in capsys.readouterr().err


@pytest.mark.parametrize("config,message", [
    ({"kind": "ggs", "parameters": {"d": 0, "epsilon": [1]}},
     "the tree T_d needs d at least 2, got 0"),
    ({"kind": "grigorchuk_p", "parameters": {"p": 0, "per": [0]}},
     "B = (Z/p)^2 needs p at least 2, got 0"),
], ids=["ggs-d", "grigorchuk_p-p"])
def test_cli_define_rejects_degree_below_2(tmp_path, capsys, config,
                                           message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["define", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_define_io_error(tmp_path):
    assert main(["define", "--config", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("config", [
    {"kind": "spinal", "parameters": {
        "degree": 3, "orders": [3], "a_perms": [[1, 2, 0]],
        "omega_pre": [[[[1, 2, 0]], [[0, 1, 2]]]], "omega_per": []}},
    {"kind": "grigorchuk_p", "parameters": {"p": 2, "pre": [0], "per": []}},
], ids=["spinal", "grigorchuk_p"])
def test_cli_define_rejects_empty_period(tmp_path, capsys, config):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(config))
    assert main(["define", "--config", str(path)]) == 1
    assert "period must be nonempty" in capsys.readouterr().err


def test_cli_rejects_expanding_custom_family(tmp_path, capsys):
    # c = (c, c) with |c| = 1 doubles lengths under sections
    path = tmp_path / "expanding.json"
    path.write_text(json.dumps({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[{"name": "c", "pseudolength": 1, "inverse": "c",
                     "root": [0, 1], "children": [["c"], ["c"]]}]]}}))
    assert main(["report", "--config", str(path), "--max-radius", "2",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "non_expansion" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_define_empty_omega_entry_fails_kernel_condition(tmp_path,
                                                              capsys):
    # a tuple with no homomorphism has all of B = Z/3 as its kernel
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": "spinal", "parameters": {
        "degree": 3, "orders": [3], "a_perms": [[1, 2, 0]],
        "omega_per": [[]]}}))
    assert main(["define", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: kernel_condition: homomorphisms from offset 0 onward have "
        "common kernel of size 3 > 1\n")


def _gen(name, length, inverse, root, children):
    return {"name": name, "pseudolength": length, "inverse": inverse,
            "root": root, "children": children}


FG_SPINAL = {"degree": 3, "orders": [3], "a_perms": [[1, 2, 0]],
             "omega_per": [[[[1, 2, 0]], [[0, 1, 2]]]]}


@pytest.mark.parametrize("config", [
    {"kind": "ggs", "parameters": {"d": "3", "epsilon": [1, 0]}},
    {"kind": "ggs", "parameters": {"d": 3, "epsilon": 5}},
    {"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[_gen("a", 0, "a", 5, [[], []])]]}},
    {"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [], "period": [7]}},
    {"kind": "spinal", "parameters": dict(
        FG_SPINAL, omega_per=[[[[1, 2, 0]], [[0, 1]]]])},
    {"kind": "custom", "parameters": []},
    {"kind": "custom", "parameters": "x"},
], ids=["ggs-d-string", "ggs-epsilon-int", "custom-root-int",
        "custom-period-entry-int", "spinal-image-degree-2",
        "custom-parameters-list", "custom-parameters-string"])
def test_cli_define_malformed_parameters_exit_2(tmp_path, capsys, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["define", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"error: malformed parameters for kind {config['kind']}:")


@pytest.mark.parametrize("config,message", [
    ({"kind": "sunic", "parameters": {"p": 3, "m": 2, "a_coeffs": ["x"]}},
     'a_coeffs must be a list of integers, got ["x"]'),
    ({"kind": "grigorchuk_p", "parameters": {"p": 2, "per": [0, 1, 2.5]}},
     "per must be a list of integers, got [0, 1, 2.5]"),
    ({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[_gen("a", 1.0, "a", [1, 0], [[], []])]]}},
     "pseudolength of generator a must be an integer, got 1.0"),
    ({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[_gen("a", 0, "a", [1.0, 0], [[], []])]]}},
     "root of generator a must be a list of integers, got [1.0, 0]"),
    ({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[_gen("w", 0, "w", [1, 0], ["w", "w"])]]}},
     'children of generator w must be a list of lists of strings, '
     'got ["w", "w"]'),
    ({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[_gen(7, 0, "a", [1, 0], [[], []])]]}},
     "name of generator 7 must be a string, got 7"),
    ({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[_gen("a", 0, 7, [1, 0], [[], []])]]}},
     "inverse of generator a must be a string, got 7"),
    ({"kind": "custom", "parameters": []},
     "parameters must be a JSON object, got []"),
    ({"kind": "spinal", "parameters": dict(FG_SPINAL, name=5)},
     "name must be a string, got 5"),
    ({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [], "name": 5,
        "period": [[_gen("a", 0, "a", [1, 0], [[], []])]]}},
     "name must be a string, got 5"),
], ids=["sunic-coefficient-string", "grigorchuk_p-index-float",
        "custom-pseudolength-float", "custom-root-float",
        "custom-children-strings", "custom-name-int", "custom-inverse-int",
        "custom-parameters-list", "spinal-name-int", "custom-family-name-int"])
def test_cli_define_names_the_non_integer_parameter(tmp_path, capsys, config,
                                                     message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["define", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed parameters for kind {config['kind']}: {message}\n")


@pytest.mark.parametrize("config,key", [
    ({"kind": "grigorchuk_p", "parameters": {"p": 2, "prep": [0],
                                             "per": [0, 1, 2]}}, "prep"),
    ({"kind": "ggs", "parameters": {"d": 3, "epsilon": [1, 0],
                                    "extra": "x"}}, "extra"),
    ({"kind": "neumann6", "parameters": {"x": 1}}, "x"),
], ids=["grigorchuk_p-prep", "ggs-extra", "neumann6-x"])
def test_cli_define_rejects_unknown_parameter(tmp_path, capsys, config, key):
    # a misspelt optional parameter would otherwise take its default
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["define", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: unknown parameter '{key}' for kind {config['kind']}\n")


def test_cli_define_validates_once(fg_config_path, capsys, monkeypatch):
    # define prints the report that build_spec's check made
    calls = []

    def counted(spec):
        calls.append(spec)
        return validate(spec)
    for name, module in list(sys.modules.items()):
        if (name.startswith("treegrowth")
                and getattr(module, "validate", None) is validate):
            monkeypatch.setattr(module, "validate", counted)
    assert main(["define", "--config", fg_config_path]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == validate(calls[0]).summary() + "\n"


@pytest.mark.parametrize("argv", [
    ["define", "--max-radius", "3"],
    ["define", "--budget", "5"],
    ["spheres", "--k-depth", "4"],
    ["spheres", "--epsilon", "0.3"],
    ["incompressible", "--epsilon", "0.3"],
    ["report", "--epsilon", "0.3"],
    ["report", "--levels", "1"],
    ["criterion", "--levels", "1"],
    ["incompressible", "--levels", "1"],
])
def test_cli_rejects_flags_the_subcommand_ignores(fg_config_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", fg_config_path])
    assert exc.value.code == 2


def test_cli_spheres_deterministic(tmp_path, fg_config_path, run_fresh):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["-m", "treegrowth.cli", "spheres", "--config", fg_config_path,
            "--max-radius", "5", "--out"]
    assert run_fresh(args + [str(out1)], hash_seed=0).returncode == 0
    assert run_fresh(args + [str(out2)], hash_seed=1).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    first = out1.read_text().splitlines()
    assert first[0] == "level,n,sphere_size,gamma,kappa_pointwise"
    assert first[1].startswith("0,0,3,3,")


@pytest.mark.parametrize("flags,message", [
    (["--max-radius", "-1"], "max radius must be at least 0"),
    (["--levels", "0"], "levels must be at least 1"),
    (["--budget", "-5"], "budget must be at least 1, got -5"),
])
def test_cli_spheres_rejects_nonsense(tmp_path, fg_config_path, capsys,
                                      flags, message):
    out = tmp_path / "s.csv"
    code = main(["spheres", "--config", fg_config_path, "--out", str(out)]
                + flags)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depth", ["0", "-2"])
@pytest.mark.parametrize("command", ["report", "criterion", "incompressible"])
def test_cli_rejects_nonsense_depth(tmp_path, fg_config_path, capsys,
                                    monkeypatch, command, depth):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("tables enumerated before the flags were checked")
    monkeypatch.setattr(growth, "build_atlas", enumerate_nothing)
    outdir = tmp_path / "out"
    outdir.mkdir()
    code = main([command, "--config", fg_config_path, "--max-radius", "2",
                 "--k-depth", depth, "--out", str(outdir / "r")])
    assert code == 1
    assert f"depth K must be at least 1, got {depth}" in capsys.readouterr().err
    assert not any(outdir.iterdir())


def test_cli_spheres_budget_exit(tmp_path, fg_config_path, capsys):
    code = main(["spheres", "--config", fg_config_path, "--max-radius", "8",
                 "--budget", "2000", "--out", str(tmp_path / "s.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "budget of 2000 exceeded" in err
    assert "stopped at level class 0 expanding radius 6, 14208 elements" in err
    # the budget bounds ids plus cached products, session memo writes
    # included, plus the sphere keys held
    ids, products = re.search(
        r"\((\d+) elements, (\d+) cached products\)", err).groups()
    assert int(ids) + int(products) <= 2000
    # the radii completed before the stop are written, as an unbounded run
    # to radius 5 writes them
    assert main(["spheres", "--config", fg_config_path, "--max-radius", "5",
                 "--out", str(tmp_path / "r5.csv")]) == 0
    assert (tmp_path / "s.csv").read_text() == \
        (tmp_path / "r5.csv").read_text()


def test_cli_spheres_budget_stops_infinite_zero_group(tmp_path, capsys):
    path = tmp_path / "adding.json"
    path.write_text(json.dumps(ADDING_MACHINE))
    assert main(["define", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["spheres", "--config", str(path), "--max-radius", "2",
                 "--budget", "40000", "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err.startswith(
        "error: engine state-space budget of 40000 exceeded")


def test_cli_spheres_budget_keeps_earlier_classes(tmp_path, capsys):
    # first Grigorchuk at budget 600 stops at class 2, radius 5: classes 0
    # and 1 are written whole, class 2 to radius 4
    path = tmp_path / "grig.json"
    path.write_text(json.dumps({"kind": "grigorchuk_p", "parameters": {
        "p": 2, "per": [0, 1, 2]}}))
    args = ["spheres", "--config", str(path), "--max-radius", "5"]
    assert main(args + ["--budget", "600",
                        "--out", str(tmp_path / "s.csv")]) == 3
    assert "stopped at level class 2 expanding radius 5" in \
        capsys.readouterr().err
    assert main(args + ["--out", str(tmp_path / "r5.csv")]) == 0
    whole = (tmp_path / "r5.csv").read_text().splitlines()
    assert (tmp_path / "s.csv").read_text().splitlines() == \
        whole[:1 + 6 + 6 + 5]


@pytest.mark.parametrize("command", ["spheres", "report", "criterion",
                                     "incompressible"])
def test_cli_memory_error_exit(tmp_path, fg_config_path, capsys, monkeypatch,
                               command):
    # memory running out before the budget is one error line and exit 3,
    # not a traceback; it is raised here, not provoked
    def exhaust(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(growth, "count_spheres", exhaust)
    monkeypatch.setattr(growth, "build_atlas", exhaust)
    code = main([command, "--config", fg_config_path, "--max-radius", "2",
                 "--budget", "5000", "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: out of memory before the engine budget of 5000 was reached; "
        "lower --budget\n")


# what each subcommand leaves in sys.modules, in a fresh interpreter
_IMPORTED = """
import sys
from treegrowth import cli
assert cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(sys.modules)))
"""


def test_cli_imports_only_what_the_subcommand_runs(tmp_path, fg_config_path,
                                                   run_fresh):
    def loaded(argv):
        done = run_fresh(["-c", _IMPORTED, *argv,
                          "--config", fg_config_path], hash_seed=0)
        assert done.returncode == 0, done.stderr.decode()
        return set(done.stdout.decode().split("\n")[-2].split())

    define = loaded(["define"])
    assert not define & {"hashlib", "treegrowth.growth",
                         "treegrowth.incompressible", "treegrowth.criterion"}
    assert "treegrowth.store" in define
    spheres = loaded(["spheres", "--max-radius", "3",
                      "--out", str(tmp_path / "s.csv")])
    assert "treegrowth.growth" in spheres
    assert not spheres & {"treegrowth.incompressible", "treegrowth.criterion"}


def test_package_names_resolve_on_first_use():
    import treegrowth
    for name in treegrowth.__all__:
        assert getattr(treegrowth, name) is getattr(
            sys.modules[f"treegrowth.{treegrowth._HOME[name]}"], name)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        treegrowth.nothing


def test_cli_incompressible(tmp_path, fg_config_path):
    out = str(tmp_path / "inc")
    assert main(["incompressible", "--config", fg_config_path,
                 "--max-radius", "5", "--out", out]) == 0
    payload = json.loads((tmp_path / "inc.json").read_text())
    assert payload["polynomial_bound"]["ok"]
    assert payload["derivative_audit"]["applicable"]
    assert payload["derivative_audit"]["violations"] == 0
    lines = (tmp_path / "inc.csv").read_text().splitlines()
    assert lines[0] == "level,k,n,count"


def test_cli_criterion(tmp_path, fg_config_path):
    out = tmp_path / "crit.json"
    assert main(["criterion", "--config", fg_config_path,
                 "--max-radius", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["failures"] == []
    assert payload["level_used"] == 2
    # every radius is at most 3/epsilon = 6.67, so nothing is asserted
    assert payload["verdict"] == "vacuous"


def test_cli_criterion_verdict_fail(tmp_path, fg_config_path, monkeypatch):
    monkeypatch.setattr(criterion, "check_level_reduction",
                        lambda *args: False)
    out = tmp_path / "crit.json"
    assert main(["criterion", "--config", fg_config_path,
                 "--max-radius", "3", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail"
    assert payload["small_factor_ok"] == {"1": None, "2": None, "3": None}


def test_cli_criterion_epsilon_rejected(fg_config_path):
    assert main(["criterion", "--config", fg_config_path,
                 "--epsilon", "0.6"]) == 1


def test_cli_criterion_rejects_radius_without_generators(
        tmp_path, fg_config_path, capsys, monkeypatch):
    # at radius 0 the ball is A alone, and the unit generators whose
    # membership the criterion reports are not in it
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("tables enumerated before the flags were checked")
    monkeypatch.setattr(growth, "build_atlas", enumerate_nothing)
    out = tmp_path / "crit.json"
    assert main(["criterion", "--config", fg_config_path,
                 "--max-radius", "0", "--out", str(out)]) == 1
    assert "criterion needs max radius at least 1, got 0" in \
        capsys.readouterr().err
    assert not out.exists()


def test_cli_report(tmp_path, fg_config_path):
    out = tmp_path / "rep.json"
    assert main(["report", "--config", fg_config_path,
                 "--max-radius", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spheres"]["0"] == [3, 18, 72, 288, 1152]


@pytest.mark.parametrize("command", ["criterion", "report"])
def test_cli_prints_json_without_out(tmp_path, fg_config_path, capsys,
                                     command):
    argv = [command, "--config", fg_config_path, "--max-radius", "3"]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_cli_out_in_missing_directory_exit_2(tmp_path, fg_config_path,
                                             capsys):
    out = tmp_path / "missing" / "rep.json"
    assert main(["report", "--config", fg_config_path, "--max-radius", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_cli_incompressible_counts_derivative_violations(tmp_path):
    # Gupta-Sidki is ternary spinal, and half of its depth-6 ball elements
    # to radius 4 have a derivative without the two-run property
    path = tmp_path / "gs.json"
    path.write_text(json.dumps({"kind": "ggs",
                                "parameters": {"d": 3, "epsilon": [1, 1]}}))
    out = tmp_path / "inc"
    assert main(["incompressible", "--config", str(path),
                 "--max-radius", "4", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "inc.json").read_text())
    assert payload["derivative_audit"] == {
        "applicable": True, "checked": 1296, "violations": 648}


def test_cli_criterion_fails_on_elements_without_factorization(tmp_path):
    # b = (a, 1) has length 1 and sections of total length 0, so it leaves
    # the depth-1 set, and no ball element beyond radius 0 factors additively
    # into depth-K elements
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"kind": "custom", "parameters": {
        "degree": 2, "preperiod": [],
        "period": [[_gen("a", 0, "a", [1, 0], [[], []]),
                    _gen("b", 1, "b", [0, 1], [["a"], []])]]}}))
    assert main(["define", "--config", str(path)]) == 0
    out = tmp_path / "crit.json"
    assert main(["criterion", "--config", str(path), "--max-radius", "4",
                 "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail"
    assert ("no additive factorization into depth-6 elements for 4 "
            "elements at n=1") in payload["failures"]


def test_cli_incompressible_sym3_root_group_not_applicable(tmp_path):
    # a ternary spinal group whose level-0 root group is Sym(3): the rooted
    # transposition a021 has no exponent along the full 3-cycle
    path = tmp_path / "sym3.json"
    path.write_text(json.dumps({"kind": "spinal", "parameters": dict(
        FG_SPINAL, a_perms=[[1, 2, 0], [1, 0, 2]])}))
    spec = store.build_spec(json.loads(path.read_text()))
    assert spec.meta["kind"] == "spinal" and spec.degree == 3
    assert not inc.is_ternary_spinal(spec)
    out = tmp_path / "inc"
    assert main(["incompressible", "--config", str(path),
                 "--max-radius", "3", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "inc.json").read_text())
    assert payload["polynomial_bound"] == "not applicable"
    assert payload["derivative_audit"] == {"applicable": False}
