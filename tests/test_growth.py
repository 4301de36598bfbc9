import pytest

from treegrowth import catalog, growth, shift
from treegrowth.engine import BudgetExceeded, Engine
from treegrowth.growth import (Atlas, TableExhausted, build_atlas,
                               check_submultiplicative,
                               check_wreath_inequality, convolve,
                               enumerate_spheres, kappa_estimates)

from oracle import oracle_spheres
from test_engine import CYCLIC_FAMILIES, _two_cycles

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
    assert (e.cls, e.radius, e.elements) == (0, 6, 14064)
    assert str(e).endswith(
        "; stopped at level class 0 expanding radius 6, 14064 elements")


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

    def recorded(zero, units, steps, lengths):
        kept[zero.c] = steps, find(zero, units, steps, lengths)
        return kept[zero.c][1]
    monkeypatch.setattr(growth, "_kept_steps", recorded)
    atlas = build_atlas(make_spec(), radius)
    eng, skipped = atlas.engine, 0
    for c, (steps, keep) in kept.items():
        table = atlas.table(c)
        dropped = {}
        for key, left in keep.items():
            tried = {step[:2] for step in left}
            dropped[key] = [(table.zero.ids[ia], eng.gen_id(c, name))
                            for ia, name, *_ in steps if (ia, name) not in tried]
        for m in range(2, radius + 1):
            for g in table.sphere(m):
                for a, s in dropped[table.links[g][3:]]:
                    assert table.length(eng.mul(c, eng.mul(c, g, a), s)) <= m
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
    # every element of the expansion: one parent link y*gen = x with
    # |y| + |gen| = |x| and no cycle, and a geodesic that evaluates to it
    atlas = build_atlas(make_spec(), radius)
    eng = atlas.engine
    for c, table in atlas.tables.items():
        ball = table.expand()
        assert [len(s) for s in ball.spheres] == table.sphere_sizes()
        level = atlas.spec.level(c)
        lens = {g.name: g.pseudolength for g in level.generators}
        for x, n in ball.lengths.items():
            assert table.length(x) == n
            word = table.geodesic(x)
            assert sum(lens[nm] for nm in word) == n
            assert eng.element_from_word(c, word) == x
            steps = 0
            while ball.parents[x] is not None:
                y, name = ball.parents[x]
                assert eng.mul(c, y, eng.gen_id(c, name), store=False) == x
                assert ball.lengths[y] + lens[name] == ball.lengths[x]
                x, steps = y, steps + 1
                assert steps <= len(ball.lengths)
            assert x == 0
    atlas.engine.audit()


def test_expansion_retried_after_budget_is_whole():
    spec = catalog.fabrykowski_gupta()
    eng = Engine(spec, budget=1200)
    table = build_atlas(spec, 4, engine=eng).table(0)
    with pytest.raises(BudgetExceeded):
        table.expand()
    eng.budget = 10_000_000
    ball = table.expand()
    assert [len(s) for s in ball.spheres] == table.sphere_sizes()
    eng.audit()


def test_ids_outside_the_ball():
    atlas = build_atlas(catalog.fabrykowski_gupta(), 2)
    table = atlas.table(0)
    g = atlas.engine.element_from_word(0, ["b1", "a120"] * 3)
    assert table.representative(g) is None
    with pytest.raises(TableExhausted):
        table.length(g)
    with pytest.raises(TableExhausted):
        table.geodesic(g)
    assert table.representative(-1) is None


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
    table = fg_atlas6.table(0)
    for n, sphere in enumerate(table.spheres):
        assert all(table.length(g) == n for g in sphere)


def test_geodesics_evaluate_back(fg_atlas6):
    eng = fg_atlas6.engine
    table = fg_atlas6.table(0)
    level = fg_atlas6.spec.level(0)
    unit = {g.name for g in level.unit_generators}
    for g in table.spheres[4][:50]:
        word = table.geodesic(g)
        assert sum(1 for nm in word if nm in unit) == 4
        assert eng.element_from_word(0, word) == g


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
    est = kappa_estimates(fg_atlas6.table(0))
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
