"""Acceptance gate: one test per acceptance criterion, one line of output
each.  Scope notes (measured; see the repository README):

* Ball bound and generator checks on neumann6 run to radius 2 and on the
  sunic(3,2,*) groups to radius 4: their balls grow roughly 300x and 9x per
  radius, so radius 8 is out of reach of exact enumeration on any machine.
* The sunic two-run audit covers I_6 intersected with balls of radius 4.
* With a trivial zero-length subgroup the identity-padding step of the ball
  bound is unavailable; the exact decomposition count (the geometric sum) is
  used for that single case.
"""

import json

import pytest

from treegrowth import build_atlas, catalog, store
from treegrowth import criterion as cr
from treegrowth import incompressible as inc
from treegrowth.catalog import CatalogError
from treegrowth.growth import check_wreath_inequality

from conftest import audited
from oracle import oracle_spheres, reference_atlas

FG_CONFIG = {"kind": "ggs", "parameters": {"d": 3, "epsilon": [1, 0]}}


def _check(num, desc, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sunic_data():
    out = {}
    for a1 in (0, 1, 2):
        spec = catalog.sunic(3, 2, (a1,))
        atlas = audited(build_atlas(spec, 4))
        out[a1] = (spec, atlas, inc.approximate_I_infty(atlas, 6))
    return out


@pytest.fixture(scope="module")
def small_groups():
    """Radius-2 atlases with depth-6 reports for the generator checks."""
    out = {}
    for mk in (catalog.gupta_sidki, lambda: catalog.nekrashevych_D((), (0, 1)),
               catalog.neumann6):
        spec = mk()
        atlas = audited(build_atlas(spec, 2))
        out[spec.name] = (spec, atlas, inc.approximate_I_infty(atlas, 6))
    return out


def test_criterion_01_oracle_equivalence():
    ok = True
    for mk in (catalog.first_grigorchuk, catalog.fabrykowski_gupta,
               catalog.gupta_sidki, lambda: catalog.nekrashevych_D((), (0, 1))):
        spec = mk()
        atlas = audited(build_atlas(spec, 6, levels=1))
        sizes = atlas.table(0).sphere_sizes()
        ok = ok and sizes == oracle_spheres(spec, 8, 6)
        ok = ok and sizes == oracle_spheres(spec, 10, 6)
    _check(1, "sphere sizes n<=6 match the truncated-action oracle at depth "
              "8, stable at depth 10, on all four reference groups", ok)


def test_criterion_02_ball_bound(fg_atlas10, grig_atlas8, sunic_data,
                                 small_groups):
    cases = [(fg_atlas10, 8), (grig_atlas8, 8)]
    cases += [(atlas, 4) for _, atlas, _ in sunic_data.values()]
    cases += [(atlas, atlas.table(0).max_radius)
              for _, atlas, _ in small_groups.values()]
    ok = True
    for atlas, radius in cases:
        g0 = atlas.table(0).sphere_sizes()[0]
        s1 = len(atlas.spec.level(0).unit_generators)
        sizes = atlas.table(0).sphere_sizes()
        gamma = atlas.table(0).gamma()
        for n in range(radius + 1):
            # the g0 s1 g1 ... s_n g_n decomposition bounds the sphere;
            # summing over k <= n bounds the ball
            ok = ok and sizes[n] <= g0 ** (n + 1) * s1 ** n
            ok = ok and gamma[n] <= sum(g0 ** (k + 1) * s1 ** k
                                        for k in range(n + 1))
    _check(2, "|Omega(n)| <= |G0|^(n+1) |S1|^n and the summed ball bound "
              "hold on every catalog group (radius per the notes above)", ok)


def test_criterion_03_non_expansion(fg_atlas10, grig_atlas8):
    ok = True
    for atlas, radius in ((fg_atlas10, 8), (grig_atlas8, 8)):
        spec = atlas.spec
        for c in spec.classes():
            if c not in atlas.tables:
                continue
            table = atlas.table(c)
            nxt = atlas.table(spec.succ_class(c))
            # representatives cover every element: A is rooted here, so the
            # sections of a1·g·a3 are those of g permuted, with the same sum
            for n in range(min(radius, table.max_radius) + 1):
                for g in table.spheres[n]:
                    kid_sum = sum(nxt.length(x) for x in table.element(g)[1])
                    ok = ok and kid_sum <= n
        for c in spec.classes():
            for g in spec.level(c).generators:
                nxt_len = {h.name: h.pseudolength
                           for h in spec.level(spec.succ_class(c)).generators}
                positive = sum(1 for w in g.children
                               if sum(nxt_len[nm] for nm in w) > 0)
                ok = ok and positive <= 1
    _check(3, "section lengths never exceed the element length (n<=8) and "
              "generators have at most one positive-length child", ok)


def test_criterion_04_filtration(fg_atlas10, fg_report10, grig_atlas8,
                                 sunic_data, small_groups):
    ok = True
    # nesting: per-radius counts shrink with k
    per_k = fg_report10.counts[0]
    for k in range(1, len(per_k) - 1):
        ok = ok and all(per_k[k + 1][n] <= per_k[k][n]
                        for n in range(len(per_k[k])))
    # hereditary: a child may leave the filtration at most one step before
    # its parent, for every element of the radius-10 ball.  Representatives
    # cover every element: first-fail depths are constant on A×A orbits, and
    # the sections of a1·g·a3 are those of g permuted (A is rooted)
    INF = 10 ** 9
    table, ff = fg_atlas10.table(0), fg_report10.first_fail[0]
    for sphere in table.spheres:
        for g in sphere:
            fg_ = ff[g] if ff[g] > 0 else INF
            if fg_ <= 1:
                continue
            for x in table.element(g)[1]:
                ok = ok and (fg_report10.fail_depth(0, x) or INF) >= fg_ - 1
    # generators stay in the depth-6 set, on every catalog group
    cases = [(fg_atlas10, fg_report10),
             (grig_atlas8, inc.approximate_I_infty(grig_atlas8, 6))]
    cases += [(atlas, rep) for _, atlas, rep in sunic_data.values()]
    cases += [(atlas, rep) for _, atlas, rep in small_groups.values()]
    for atlas, rep in cases:
        for c in atlas.spec.classes():
            if c not in rep.first_fail:
                continue
            for g in atlas.spec.level(c).generators:
                gid = atlas.engine.gen_id(c, g.name)
                ok = ok and rep.in_Ik(c, gid, 6)
    _check(4, "depth-k sets are nested and hereditary (n<=10, k<=6) and all "
              "generators lie in the depth-6 set on every catalog group", ok)


def test_criterion_05_two_run_law(fg_atlas10, fg_report10, sunic_data):
    ok = True
    audits = [(fg_atlas10.spec, fg_atlas10.table(0), fg_report10)]
    audits += [(spec, atlas.table(0), rep)
               for spec, atlas, rep in sunic_data.values()]
    # representatives cover every element: the geodesic of a1·g·a3 is
    # a1·geodesic(g)·a3, which shifts every conjugation exponent by one
    # constant and leaves the derivative unchanged
    for spec, table, rep in audits:
        ff = rep.first_fail[0]
        for g in (g for sphere in table.spheres[1:] for g in sphere
                  if ff[g] < 0):
            ok = ok and inc.extract_ternary_data(spec, table, 0, g).two_run
    # explicit witness: b * b^a * b has length 3 but child lengths 2
    eng = fg_atlas10.engine
    w = eng.element_from_word(0, ["b1", "a120", "b1", "a201", "b1"])
    table = fg_atlas10.table(0)
    ok = ok and table.length(w) == 3
    ok = ok and sum(table.length(x) for x in eng.children(0, w)) == 2
    ok = ok and not fg_report10.in_Ik(0, w, 1)
    _check(5, "derivative two-run law holds on the depth-6 set (FG n<=10, "
              "sunic(3,2,*) n<=4); witness b b^a b compresses at level 1", ok)


def test_criterion_06_polynomial_bound(fg_atlas10, fg_report10):
    bc = inc.check_polynomial_bound(fg_atlas10.spec, fg_report10, 0)
    ok = (bc.l, bc.constant, bc.exponent) == (0, 13122, 4)
    ok = ok and [n for n, _, _ in bc.rows] == list(range(1, 11))
    ok = ok and bc.ok
    _check(6, "|I_6 n Omega(n)| <= 13122 n^4 for n in [1,10] on FG "
              "(l = 0 from the kernel condition)", ok)


def test_criterion_07_partition_machinery(fg_atlas10, fg_report10):
    res = cr.run_criterion(fg_atlas10, fg_report10, 0, 8, 0.45)
    table = fg_atlas10.table(0)
    ok = res.ok and res.level_used == 2
    ok = ok and all(sum(res.partition_sizes[n]) == table.sphere_sizes()[n]
                    for n in res.n_range)
    for n in res.n_range:
        if n > 3 / 0.45:
            ok = ok and res.small_factor_ok[n] is True
            ok = ok and res.level_reduction_ok[n] is True
    _check(7, "eps=0.45, N=8 on FG: partition exact, |S(g)| > (eps/8) n, and "
              "level-2 section sums < (8-eps)/8 n on the big part", ok)


def test_criterion_08_wreath_inequality(fg_atlas10, grig_atlas8):
    ok = True
    for atlas in (fg_atlas10, grig_atlas8):
        for c in atlas.spec.classes():
            for n in range(9):
                ok = ok and check_wreath_inequality(atlas, c, n)
    _check(8, "gamma_v(n) <= d! sum prod gamma_{v+1}(r_i) for n<=8, all "
              "classes of FG and first Grigorchuk", ok)


def test_criterion_09_determinism_persistence(tmp_path, fg_atlas6,
                                              fg_report6, run_fresh):
    cfg = tmp_path / "fg.json"
    cfg.write_text(json.dumps(FG_CONFIG))
    outs = []
    for seed in (0, 1):
        out = tmp_path / f"s{seed}.csv"
        proc = run_fresh(["-m", "treegrowth.cli", "spheres", "--config",
                          str(cfg), "--max-radius", "6", "--out", str(out)],
                         hash_seed=seed)
        outs.append((proc.returncode, out.read_bytes()))
    ok = outs[0][0] == 0 and outs[1][0] == 0 and outs[0][1] == outs[1][1]

    path = str(tmp_path / "table.csv")
    table = fg_atlas6.table(0)
    store.save_table(path, FG_CONFIG, table, report=fg_report6)
    header, rows = store.load_table(path)
    ref = reference_atlas(fg_atlas6.spec, 6, fg_atlas6.engine).table(0)
    ok = ok and sorted(r[0] for r in rows) == sorted(ref.lengths)
    ok = ok and len(rows) == table.gamma(6)
    for g, n, pid, name, flags in rows:
        ok = ok and n == ref.lengths[g] == table.length(g)
        ok = ok and (None if pid is None else (pid, name)) == ref.parents[g]
        ok = ok and flags == store.flags_bitfield(fg_report6, 0,
                                                  table.find(g)[0])
    _check(9, "two fresh processes with different hash seeds give "
              "bit-identical CSV; save/load round-trip preserves every "
              "radius, parent link and flag", ok)


def test_criterion_10_negative_controls():
    ok = True
    try:
        catalog.ggs(4, (2, 0, 2))
        ok = False
    except CatalogError as e:
        ok = ok and str(e).startswith("gcd_condition")
    try:
        catalog.grigorchuk_p(3, (), (0,))
        ok = False
    except CatalogError as e:
        ok = ok and str(e).startswith("kernel_condition")
    try:
        swap01 = ((1, 0, 2),)
        catalog.spinal(catalog.SpinalData(3, (2,), ((1, 2, 0),),
                                          (), ((swap01, swap01),)))
        ok = False
    except CatalogError as e:
        ok = ok and str(e).startswith("level_transitivity")
    _check(10, "gcd-violating, kernel-violating, and intransitive configs "
               "are rejected with the named checks", ok)
