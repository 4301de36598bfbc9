"""Golden outputs: the `spheres` CSV, the `report` and `criterion` JSON, the
`incompressible` CSV and JSON and the `save_table` file, byte for byte, for
FG, first Grigorchuk and sunic(3,2,0) at small radii.  Element ids are part of the `save_table`
bytes, so a change that renumbers them fails here too.

Regenerate every file in tests/golden/ (only after a deliberate format or
numbering change, recorded in CHANGES.md) with:

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest -q tests/test_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from treegrowth import build_atlas, store
from treegrowth.cli import main
from treegrowth.incompressible import approximate_I_infty

GOLDEN = Path(__file__).resolve().parent / "golden"
UPDATE = os.environ.get("GOLDEN_UPDATE") == "1"

# (group, command, radius); the FG criterion at r8, where the bounds are
# asserted, is pinned by tests/test_criterion.py and by perfbench at r7
CLI_CASES = [
    (group, command, radius)
    for group, radius in (("fg", 6), ("grigorchuk", 8), ("sunic320", 3))
    for command in ("spheres", "report", "criterion")
]

# (group, radius) of the `incompressible` CSV and JSON pair, which carries
# the full depth-by-radius count matrix of every class
INCOMPRESSIBLE_CASES = [("fg", 6), ("grigorchuk", 8), ("sunic320", 3)]

# (group, radius) of the class-0 save_table file with depth-6 flags
TABLE_CASES = [("fg", 4), ("grigorchuk", 6), ("sunic320", 2)]


def _compare(produced, name):
    golden = GOLDEN / name
    if UPDATE:
        golden.write_bytes(produced.read_bytes())
    assert produced.read_bytes() == golden.read_bytes(), \
        f"{name} differs from its golden file"


@pytest.mark.parametrize("group,command,radius", CLI_CASES,
                         ids=[f"{g}-{c}-r{r}" for g, c, r in CLI_CASES])
def test_cli_output_matches_golden(tmp_path, group, command, radius):
    ext = "csv" if command == "spheres" else "json"
    out = tmp_path / f"out.{ext}"
    code = main([command, "--config", str(GOLDEN / f"{group}.json"),
                 "--max-radius", str(radius), "--out", str(out)])
    assert code == 0
    _compare(out, f"{group}_{command}_r{radius}.{ext}")


@pytest.mark.parametrize("group,radius", INCOMPRESSIBLE_CASES,
                         ids=[f"{g}-incompressible-r{r}"
                              for g, r in INCOMPRESSIBLE_CASES])
def test_incompressible_output_matches_golden(tmp_path, group, radius):
    out = tmp_path / "out"
    code = main(["incompressible", "--config", str(GOLDEN / f"{group}.json"),
                 "--max-radius", str(radius), "--out", str(out)])
    assert code == 0
    for ext in ("csv", "json"):
        _compare(tmp_path / f"out.{ext}",
                 f"{group}_incompressible_r{radius}.{ext}")


@pytest.mark.parametrize("group,radius", TABLE_CASES,
                         ids=[f"{g}-table-r{r}" for g, r in TABLE_CASES])
def test_save_table_matches_golden(tmp_path, group, radius):
    config = json.loads((GOLDEN / f"{group}.json").read_text())
    atlas = build_atlas(store.build_spec(config), radius)
    report = approximate_I_infty(atlas, 6)
    out = tmp_path / "table.csv"
    store.save_table(str(out), config, atlas.table(0), report=report)
    _compare(out, f"{group}_table_r{radius}.csv")
