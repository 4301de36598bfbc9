import json

import pytest

from treegrowth import build_atlas, catalog, store
from treegrowth import incompressible as inc
from treegrowth.cli import main
from treegrowth.store import ConfigError


FG_CONFIG = {"kind": "ggs", "parameters": {"d": 3, "epsilon": [1, 0]}}


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
    # every row's radius and parent link match the table, every id once
    assert sorted(r[0] for r in rows) == sorted(table.lengths)
    for g, n, pid, name, _ in rows:
        assert n == table.lengths[g]
        assert (None if pid is None else (pid, name)) == table.parents[g]
    # flags preserved: bit k-1 set iff the element is in the depth-k set
    by_id = {r[0]: r for r in rows}
    for g in table.spheres[3]:
        assert by_id[g][4] == store.flags_bitfield(fg_report6, 0, g)
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


def test_cli_define_io_error(tmp_path):
    assert main(["define", "--config", str(tmp_path / "none.json")]) == 2


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


@pytest.mark.parametrize("argv", [
    ["define", "--max-radius", "3"],
    ["define", "--budget", "5"],
    ["spheres", "--k-depth", "4"],
    ["spheres", "--epsilon", "0.3"],
    ["incompressible", "--epsilon", "0.3"],
    ["report", "--epsilon", "0.3"],
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
])
def test_cli_spheres_rejects_nonsense(tmp_path, fg_config_path, capsys,
                                      flags, message):
    out = tmp_path / "s.csv"
    code = main(["spheres", "--config", fg_config_path, "--out", str(out)]
                + flags)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_spheres_budget_exit(tmp_path, fg_config_path):
    code = main(["spheres", "--config", fg_config_path, "--max-radius", "8",
                 "--budget", "2000", "--out", str(tmp_path / "s.csv")])
    assert code == 3


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


def test_cli_criterion_epsilon_rejected(fg_config_path):
    assert main(["criterion", "--config", fg_config_path,
                 "--epsilon", "0.6"]) == 1


def test_cli_report(tmp_path, fg_config_path):
    out = tmp_path / "rep.json"
    assert main(["report", "--config", fg_config_path,
                 "--max-radius", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spheres"]["0"] == [3, 18, 72, 288, 1152]
