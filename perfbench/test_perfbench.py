"""Tests of the benchmark itself, on tiny radii.

The tiny jobs' references are prefixes of the pinned full-size references:
sphere sizes, factorization counts and depth-K membership of an element
depend only on the ball of its own radius.
"""

import copy
import json
import math
import sys

import pytest

import run as bench

ROOT = bench.ROOT
PINNED = json.loads((bench.HERE / "references.json").read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = (
    bench.Job("fg-spheres-r3", "fg", "spheres", ("--max-radius", "3")),
    bench.Job("fg-criterion-r3", "fg", "criterion", ("--max-radius", "3")),
    bench.Job("grigorchuk-report-r4", "grigorchuk", "report",
              ("--max-radius", "4")),
)


def _prefix(per_class, n):
    return {c: sizes[:n + 1] for c, sizes in per_class.items()}


def _tiny_reference():
    ref = {name: entry for name, entry in PINNED.items()
           if name.endswith("-define")}
    ref["fg-spheres-r3"] = {"csv": PINNED["fg-spheres-r9"]["csv"][:5]}
    crit = PINNED["fg-criterion-r7"]
    ref["fg-criterion-r3"] = {
        "partition_sizes": {n: v for n, v in crit["partition_sizes"].items()
                            if int(n) <= 3},
        "small_factor_ok": {"1": None, "2": None, "3": None},
        "failures": []}
    grig = PINNED["grigorchuk-report-r12"]
    ref["grigorchuk-report-r4"] = {k: _prefix(v, 4) for k, v in grig.items()}
    return ref


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced run of the tiny workload."""
    saved = bench.SETUP_SAMPLES
    bench.SETUP_SAMPLES = 2
    try:
        out = {}
        for traced in (False, True):
            run_dir = tmp_path_factory.mktemp(f"trace{int(traced)}")
            out[traced] = bench.run_workload(TINY, 7, 0, traced,
                                             _tiny_reference(), run_dir)
            out[traced] += (run_dir,)
        return out
    finally:
        bench.SETUP_SAMPLES = saved


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        result, details, _ = runs[traced]
        assert result["correct"] and result["failed"] == 0
        assert details["error_rate"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in DECLARED[section]}
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_wrong_reference_counts_as_error(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    ref = _tiny_reference()
    wrong = copy.deepcopy(ref)
    wrong["fg-spheres-r3"]["csv"][-1] = "0,3,289,382,6.611489"
    result, details = bench.run_workload(TINY[:1], 3, 0, False, wrong, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1 and details["error_rate"] > 0
    assert details["failures"][0]["job"] == "fg-spheres-r3"


def test_span_self_times_add_up_to_traced_wall(runs):
    _, details, run_dir = runs[True]
    walls = {r["job"]: r["wall_s"] for r in details["jobs"]
             if r["tag"] == "traced"}
    assert set(walls) == {job.name for job in TINY} | \
        {"fg-define", "grigorchuk-define"}
    for name, wall in walls.items():
        record = json.loads((run_dir / f"{name}.spans.json").read_text())
        totals = bench.summarize(record)
        root = totals["cli.main"]["s"]
        assert math.isclose(sum(t["self_s"] for t in totals.values()), root,
                            rel_tol=1e-9)
        assert all(t["self_s"] > -1e-9 for t in totals.values())
        assert 0 < root < wall


def test_traced_layers_see_the_work(runs):
    result, _, _ = runs[True]
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["engine.mul.calls"] > 0
    assert value["incompressible.factorization_dp.products"] > 0
    assert value["criterion.pair_factors.calls"] == 0   # n <= 3/epsilon
    assert value["growth.enumerate_spheres.s.grigorchuk"] > 0
    assert value["growth.enumerate_spheres.s.neumann6"] == 0
    assert value["family.validate.s"] > 0


def test_pinned_fg_spheres_match_oracle():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from oracle import oracle_spheres
    finally:
        sys.path.remove(str(ROOT / "tests"))
    from treegrowth import fabrykowski_gupta

    rows = PINNED["fg-spheres-r9"]["csv"][1:]
    sizes = [int(row.split(",")[2]) for row in rows][:7]
    assert sizes == oracle_spheres(fabrykowski_gupta(), 8, 6)
    assert rows[-1] == "0,9,582000,830157,4.370660"
