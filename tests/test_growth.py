import tracemalloc

import pytest
from hypothesis import assume, given, settings

from treegrowth import catalog, growth, shift, store
from treegrowth.engine import BudgetExceeded, Engine
from treegrowth.growth import (Atlas, TableExhausted, build_atlas,
                               check_submultiplicative,
                               check_wreath_inequality, convolve,
                               count_spheres, enumerate_spheres,
                               kappa_estimates, level_classes)

from oracle import oracle_spheres, reference_atlas
from test_engine import CYCLIC_FAMILIES, _two_cycles
from test_incompressible import CATALOG, spinal_data, spinal_z3sq
from test_store_cli import ADDING_MACHINE, FG_CONFIG

FG_SPHERES = [3, 18, 72, 288, 1152, 4296]
GRIG_SPHERES = [2, 12, 34, 80, 190, 432, 976]


def test_fg_sphere_sizes(fg_atlas6):
    assert fg_atlas6.table(0).sphere_sizes()[:6] == FG_SPHERES


def test_grig_sphere_sizes(grig_atlas8):
    assert grig_atlas8.table(0).sphere_sizes()[:7] == GRIG_SPHERES


def test_same_group_three_ways():
    fg = build_atlas(catalog.fabrykowski_gupta(), 5, levels=1)
    su = build_atlas(catalog.sunic(3, 1), 5, levels=1)
    assert fg.table(0).sphere_sizes() == su.table(0).sphere_sizes()


@pytest.mark.parametrize("spec, radius", [
    (catalog.grigorchuk_p(2, (0,), (0, 1, 2)), 6),
    (catalog.nekrashevych_D((1,), (0, 1)), 7),
], ids=["grigorchuk_preperiod", "nekrashevych_preperiod"])
def test_families_with_preperiod_match_oracle(spec, radius):
    assert spec.preperiod
    atlas = build_atlas(spec, radius)
    atlas.engine.audit()
    for c in spec.classes():
        assert atlas.table(c).sphere_sizes() == \
            oracle_spheres(spec, 8, radius, cls=c), c


def test_budget_exceeded_names_class_radius_and_elements():
    spec = catalog.fabrykowski_gupta()
    with pytest.raises(BudgetExceeded) as exc:
        build_atlas(spec, 8, engine=Engine(spec, budget=2000))
    e = exc.value
    assert (e.cls, e.radius, e.elements) == (0, 6, 13821)
    assert str(e).endswith(
        "; stopped at level class 0 expanding radius 6, 13821 elements")


def _counted(spec, radius, levels=None):
    """count_spheres' sizes for each class `spheres` counts, and the
    engine it used."""
    eng = Engine(spec)
    return {c: count_spheres(eng, c, radius)
            for c in level_classes(spec, radius, levels)}, eng


def _assert_counts_match_tables(spec, radius):
    # with only sections interned, keys must still tell elements apart:
    # the engine stays minimal and the sizes are the tables'
    for levels in None, 1:
        sizes, eng = _counted(spec, radius, levels)
        assert eng.held == 0
        eng.audit()
        atlas = build_atlas(spec, radius, levels)
        assert sizes == {c: t.sizes for c, t in atlas.tables.items()}


@pytest.mark.parametrize("make_spec, radius", [
    (catalog.fabrykowski_gupta, 7),
    (catalog.first_grigorchuk, 10),
    (lambda: catalog.sunic(3, 2, (0,)), 4),
    (catalog.neumann6, 2),
    (lambda: catalog.grigorchuk_p(2, (0,), (0, 1, 2)), 6),
    (lambda: catalog.nekrashevych_D((1,), (0, 1)), 7),
    (spinal_z3sq, 4),
    *CYCLIC_FAMILIES.values(),
], ids=["fg-r7", "grigorchuk-r10", "sunic320-r4", "neumann6-r2",
        "grigorchuk_preperiod-r6", "nekrashevych_preperiod-r7", "z3sq-r4",
        *CYCLIC_FAMILIES])
def test_counted_sizes_match_tables(make_spec, radius):
    _assert_counts_match_tables(make_spec(), radius)


# the draws of test_theorem_holds_on_ternary_spinal_draws
@settings(max_examples=8, derandomize=True, deadline=None)
@given(spinal_data(degrees=(3,)))
def test_counted_sizes_match_tables_on_ternary_spinal_draws(data):
    try:
        spec = catalog.spinal(data)
    except catalog.CatalogError:
        assume(False)
    _assert_counts_match_tables(spec, 8)


def test_counting_retried_after_budget_is_whole():
    # the stop leaves the engine minimal and holding no key, and the same
    # engine with a larger budget counts what an unbounded run counts
    spec = catalog.fabrykowski_gupta()
    eng = Engine(spec, budget=2000)
    with pytest.raises(BudgetExceeded) as exc:
        count_spheres(eng, 0, 8)
    e = exc.value
    assert (e.cls, e.radius, e.elements) == (0, 6, 14208)
    assert e.sizes == FG_SPHERES
    assert eng.held == 0
    eng.audit()
    eng.budget = 10_000_000
    assert count_spheres(eng, 0, 8) == \
        build_atlas(spec, 8, levels=1).table(0).sizes
    eng.audit()


@pytest.mark.parametrize("make_spec, radius, budget", [
    (catalog.fabrykowski_gupta, 8, 2000),
    # stops at class 2, so classes 0 and 1 stay whole and held
    (catalog.first_grigorchuk, 8, 6500),
], ids=["fg-r8", "grigorchuk-r8"])
def test_atlas_retried_after_budget_is_whole(make_spec, radius, budget):
    # the atlas's keys count against the budget while its tables live; a
    # stop drops the class being expanded, leaves the engine minimal and
    # holding only the whole tables' keys, and the same engine with a
    # larger budget builds what an unbounded run builds
    spec = make_spec()
    eng = Engine(spec, budget=budget)
    atlas = Atlas(spec, eng)
    with pytest.raises(BudgetExceeded) as exc:
        atlas.enumerate(radius)
    assert sorted(atlas.tables) == list(range(exc.value.cls))
    assert exc.value.cls == len(spec.classes()) - 1
    assert eng.held == sum(len(t.keys) for t in atlas.tables.values())
    eng.audit()
    eng.budget = 10_000_000
    atlas.enumerate(radius)
    assert eng.held == sum(len(t.keys) for t in atlas.tables.values())
    assert {c: t.sizes for c, t in atlas.tables.items()} == \
        {c: t.sizes for c, t in build_atlas(spec, radius).tables.items()}
    eng.audit()


# A = <a>, a rooted transposition of degree 3, and b a rooted 3-cycle with a
# self-section: the representatives have two roots, so the kernel's plans
# differ by g's root, which in the catalog's families is always the identity
MIXED_ROOTS = {"kind": "custom", "parameters": {"degree": 3, "period": [[
    {"name": "a", "pseudolength": 0, "inverse": "a", "root": [1, 0, 2],
     "children": [[], [], []]},
    {"name": "b", "pseudolength": 1, "inverse": "B", "root": [1, 2, 0],
     "children": [["b"], [], []]},
    {"name": "B", "pseudolength": 1, "inverse": "b", "root": [2, 0, 1],
     "children": [[], ["B"], []]}]]}}


@pytest.mark.parametrize("spec, radius", [
    *((spec, min(radius, 3)) for spec, radius in CATALOG),
    *((make(), min(radius, 3)) for make, radius in CYCLIC_FAMILIES.values()),
    (spinal_z3sq(), 2),
    (store.build_spec(MIXED_ROOTS), 4),
], ids=[*(f"{spec.name}-catalog" for spec, _ in CATALOG), *CYCLIC_FAMILIES,
        "z3sq", "mixed_roots"])
def test_multiply_matches_products_formed_by_the_engine(spec, radius):
    # every representative below the table radius times every step a·f, f
    # a unit-length generator or a radius-1 representative: the kernel's
    # key, pairs, i1 and i3 are those of the interned product g·(a·f),
    # multiplied by the engine and brought to its canonical form
    atlas = build_atlas(spec, radius)
    eng, multiple = atlas.engine, 0
    for c, table in atlas.tables.items():
        zero, t = table.zero, eng.tables[c]
        factors = [(f, eng.root(c, f), eng.children(c, f))
                   for f in map(eng.gen_id, [c] * len(table.units),
                                table.units)]
        factors += [(h, *table.element(h)) for h in table.sphere(1)]
        ids = [eng._intern(c, root, ch) for _, root, ch in factors]
        steps = zero.steps(factors)
        for g in range(table.spheres[radius - 1].stop):
            root, sections = table.element(g)
            got = table.multiply(root, sections, steps)
            x = eng._intern(c, root, sections)
            want = []
            for k, step in enumerate(steps):
                af = eng.mul(c, zero.ids[step[0]], ids[k % len(ids)],
                             store=False)
                p = eng.mul(c, x, af, store=False)
                least, best, pairs, i1, i3 = zero.canonical(t.roots[p],
                                                            t.children[p])
                want.append((step, table.key(least, best), pairs, i1, i3))
            assert got == want, (c, g)
            multiple += sum(pairs > 1 for _, _, pairs, _, _ in got)
    # the products on the identity are reached by every pair of A×A
    assert multiple or all(t.zero.size == 1 for t in atlas.tables.values())
    eng.audit()


@pytest.mark.parametrize("make_spec, radius, skips", [
    (catalog.fabrykowski_gupta, 7, True),
    (catalog.first_grigorchuk, 9, True),
    (lambda: catalog.sunic(3, 2, (0,)), 4, True),
    # the skip table is built at radius 3, rooted A or not
    *((make, radius, radius >= 3) for make, radius in CYCLIC_FAMILIES.values()),
], ids=["fg-r7", "grigorchuk-r9", "sunic320-r4", *CYCLIC_FAMILIES])
def test_skipped_steps_land_in_the_ball(monkeypatch, make_spec, radius, skips):
    # every step the enumeration leaves out for a representative g of
    # radius m >= 2 gives a product g·a·s of length at most m
    kept = {}
    find = growth._kept_steps

    def recorded(table, units, steps, low):
        kept[table.cls] = steps, find(table, units, steps, low)
        return kept[table.cls][1]
    monkeypatch.setattr(growth, "_kept_steps", recorded)
    atlas = build_atlas(make_spec(), radius)
    eng, skipped = atlas.engine, 0
    for c, (steps, keep) in kept.items():
        table = atlas.table(c)
        dropped = {}
        for suffix, left in enumerate(keep):
            # the list for unit u and i3 is at u·|A| + i3
            u, i3 = divmod(suffix, table.zero.size)
            tried = {step[:2] for step in left}
            dropped[table.units[u], i3] = [
                (table.zero.ids[ia], s)
                for ia, s, *_ in steps if (ia, s) not in tried]
        for m in range(2, radius + 1):
            for g in table.sphere(m):
                x = eng._intern(c, *table.element(g))
                for a, s in dropped[table.link(g)[3:]]:
                    assert table.length(eng.mul(c, eng.mul(c, x, a), s)) <= m
                    skipped += 1
    assert skipped > 0 or not skips


@pytest.mark.parametrize("make_spec, radius", [
    (catalog.fabrykowski_gupta, 5),
    (catalog.first_grigorchuk, 6),
    (lambda: catalog.sunic(3, 2, (0,)), 2),
    (catalog.neumann6, 1),
    (_two_cycles, 5),
], ids=["fg", "grigorchuk", "sunic320", "neumann6", "two_cycles"])
def test_expansion_links_and_geodesics_multiply_back(make_spec, radius):
    # every element of the per-element reference loop's ball: one parent
    # link y*gen = x in save_table's pass, with |y| + |gen| = |x| and no
    # cycle, and a geodesic that evaluates to it
    atlas = build_atlas(make_spec(), radius)
    eng = atlas.engine
    ref = reference_atlas(atlas.spec, radius, eng)
    for c, table in atlas.tables.items():
        lengths = ref.table(c).lengths
        assert ref.table(c).sphere_sizes() == table.sphere_sizes()
        parents = store._parent_links(table)
        assert parents.keys() == lengths.keys()
        level = atlas.spec.level(c)
        lens = {g.name: g.pseudolength for g in level.generators}
        for x, n in lengths.items():
            assert table.length(x) == n
            word = table.geodesic(*table.find(x))
            assert sum(lens[nm] for nm in word) == n
            assert eng.element_from_word(c, word) == x
            steps = 0
            while parents[x] is not None:
                y, name = parents[x]
                assert eng.mul(c, y, eng.gen_id(c, name), store=False) == x
                assert lengths[y] + lens[name] == lengths[x]
                x, steps = y, steps + 1
                assert steps <= len(lengths)
            assert x == 0
    atlas.engine.audit()


@pytest.mark.parametrize("make_spec, radius, bound", [
    (catalog.fabrykowski_gupta, 8, 145),
    (catalog.first_grigorchuk, 10, 140),
    # A trivial and 354 unit generators: the widest link digits
    (catalog.neumann6, 2, 175),
], ids=["fg-r8", "grigorchuk-r10", "neumann6-r2"])
def test_table_bytes_per_representative(make_spec, radius, bound):
    # what the engine and the tables keep per representative: a packed key,
    # its index entry and a slot in each typed column, with only sections
    # interned.  The sizes are CPython 3.11's: 138, 134 and 166 B.  With
    # every representative an engine row they were 192, 179 and 210 B, and
    # with lengths and links in dicts keyed by representative 311, 268 and
    # 334 B.
    spec = make_spec()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        atlas = build_atlas(spec, radius)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    reps = sum(len(s) for t in atlas.tables.values() for s in t.spheres)
    assert held / reps <= bound


@pytest.mark.parametrize("make_spec, radius", [
    (catalog.fabrykowski_gupta, 8),
    (catalog.first_grigorchuk, 10),
], ids=["fg-r8", "grigorchuk-r10"])
def test_counting_bytes_per_representative(make_spec, radius):
    # the traced peak of counting every class, engine included, per
    # representative: a key in a three-sphere window instead of every
    # sphere's keys, index and columns.  CPython 3.11 gives 73 and 35 B;
    # the peak of build_atlas on the same runs is 153 and 135 B.
    spec = make_spec()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _counted(spec, radius)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    reps = sum(len(s) for t in build_atlas(spec, radius).tables.values()
               for s in t.spheres)
    assert peak / reps <= 100


def test_infinite_zero_group_stops_at_the_budget():
    # A listed up to the budget keeps one (parent, name) link per element,
    # not a word each: CPython 3.11 peaks at 8 MB here, and at 595 MB with
    # the words, whose lengths grow with A
    spec = store.build_spec(ADDING_MACHINE)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            count_spheres(Engine(spec, budget=40_000), 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32_000_000


def test_per_id_columns_hold_every_value():
    # each column's typecode is the narrowest that holds its values, a
    # list past 'q'; _two_cycles has 4 elements a sphere, so radii past
    # 127, which 'b' cannot hold, are cheap
    assert [growth._column(top, 2).typecode
            for top in (127, 128, 2 ** 15, 2 ** 31, 2 ** 63 - 1)] == \
        ["b", "h", "i", "q", "q"]
    assert growth._column(2 ** 63, 2) == [-1, -1]
    table = build_atlas(_two_cycles(), 140).table(0)
    assert table.lengths.typecode == "h"
    for n, sphere in enumerate(table.spheres):
        assert all(table.lengths[g] == n for g in sphere)
    assert table.geodesic(table.spheres[140][0]).count("b") == 140


def test_expansion_retried_after_budget_is_whole(tmp_path):
    # save_table's pass over every element stops before the file is
    # opened, leaves the engine minimal, and once retried writes the rows
    # of an unbudgeted run
    spec = catalog.fabrykowski_gupta()
    eng = Engine(spec, budget=1200)
    table = build_atlas(spec, 4, engine=eng).table(0)
    path, fresh = tmp_path / "retried.csv", tmp_path / "fresh.csv"
    with pytest.raises(BudgetExceeded):
        store.save_table(str(path), FG_CONFIG, table)
    assert not path.exists()
    eng.audit()
    eng.budget = 10_000_000
    store.save_table(str(path), FG_CONFIG, table)
    store.save_table(str(fresh), FG_CONFIG, build_atlas(spec, 4).table(0))
    assert store.load_table(str(path))[1] == store.load_table(str(fresh))[1]
    eng.audit()


def test_ids_outside_the_ball():
    atlas = build_atlas(catalog.fabrykowski_gupta(), 2)
    table = atlas.table(0)
    g = atlas.engine.element_from_word(0, ["b1", "a120"] * 3)
    for x in (g, -1, "b1", 1.5, None):
        with pytest.raises(TableExhausted):
            table.find(x)
    # ids never interned, past the engine's rows
    rows = len(atlas.engine.tables[0].roots)
    for x in (g, rows, rows + 10):
        with pytest.raises(TableExhausted):
            table.find(x)
        with pytest.raises(TableExhausted):
            table.length(x)
        with pytest.raises(TableExhausted):
            table.geodesic(*table.find(x))


def test_shift_into_preperiod():
    spec = catalog.grigorchuk_p(2, (0,), (0, 1, 2))
    shifted = shift(spec, 1)
    assert len(shifted.preperiod) == len(spec.preperiod) - 1
    assert build_atlas(shifted, 6, levels=1).table(0).sphere_sizes() == \
        build_atlas(spec, 6, levels=2).table(1).sphere_sizes()


def test_gamma_is_cumulative(fg_atlas6):
    table = fg_atlas6.table(0)
    gamma = table.gamma()
    sizes = table.sphere_sizes()
    assert gamma[0] == sizes[0]
    for n in range(1, len(sizes)):
        assert gamma[n] - gamma[n - 1] == sizes[n]
    assert table.gamma(3) == gamma[3]


def test_lengths_match_spheres(fg_atlas6):
    # every member of a representative's orbit, found back by its engine id
    table = fg_atlas6.table(0)
    for n, sphere in enumerate(table.spheres):
        assert all(table.lengths[g] == n for g in sphere)
        assert all(table.length(x) == n for g in sphere[:300]
                   for x in table.orbit(g))


def test_geodesics_evaluate_back(fg_atlas6):
    eng = fg_atlas6.engine
    table = fg_atlas6.table(0)
    level = fg_atlas6.spec.level(0)
    unit = {g.name for g in level.unit_generators}
    for g in table.spheres[4][:50]:
        word = table.geodesic(g)
        assert sum(1 for nm in word if nm in unit) == 4
        assert table.find(eng.element_from_word(0, word)) == (g, 0, 0)


def test_table_exhausted(fg_atlas6):
    table = fg_atlas6.table(0)
    with pytest.raises(TableExhausted):
        table.sphere(table.max_radius + 1)
    with pytest.raises(TableExhausted):
        table.length(-12345)
    with pytest.raises(TableExhausted):
        fg_atlas6.table(99)


def test_enumerate_idempotent(fg_atlas6):
    table = fg_atlas6.table(0)
    again = enumerate_spheres(fg_atlas6, 0, 4)
    assert again is table          # existing deeper table is kept


def test_enumeration_order_deterministic(run_fresh):
    # identical discovery order, not merely identical counts, across fresh
    # processes with different hash seeds
    code = ("from treegrowth import build_atlas, catalog\n"
            "spec = catalog.fabrykowski_gupta()\n"
            "t = build_atlas(spec, 5, levels=1).table(0)\n"
            "print(t.sphere_sizes())\n"
            "for g in t.spheres[4][:100]:\n"
            "    print(g, t.geodesic(g))\n")
    one, two = (run_fresh(["-c", code], hash_seed=s) for s in (0, 1))
    assert one.returncode == two.returncode == 0
    assert one.stdout.splitlines()[0] == b"[3, 18, 72, 288, 1152, 4296]"
    assert len(one.stdout.splitlines()) == 101
    assert one.stdout == two.stdout


def test_kappa_estimates(fg_atlas6):
    est = kappa_estimates(fg_atlas6.table(0).sizes)
    assert est[0] is None
    assert est[1] == pytest.approx(18.0)
    assert est[2] == pytest.approx(72 ** 0.5)
    assert len(est) == fg_atlas6.table(0).max_radius + 1


def test_submultiplicative(fg_atlas6, grig_atlas8):
    assert check_submultiplicative(fg_atlas6.table(0).gamma())
    assert check_submultiplicative(grig_atlas8.table(0).gamma())
    assert not check_submultiplicative([1, 2, 5])


def test_convolve():
    assert convolve([1, 1], [1, 2], 2) == [1, 3, 2]
    assert convolve([1], [1, 1, 1], 1) == [1, 1]


def test_wreath_inequality_small(fg_atlas6, grig_atlas8):
    for n in range(5):
        assert check_wreath_inequality(fg_atlas6, 0, n)
        for c in grig_atlas8.spec.classes():
            assert check_wreath_inequality(grig_atlas8, c, n)
    with pytest.raises(TableExhausted):
        check_wreath_inequality(fg_atlas6, 0, 99)
