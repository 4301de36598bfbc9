import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from treegrowth import build_atlas, catalog, store
from treegrowth import incompressible as inc
from treegrowth.growth import SphereTable, TableExhausted

from oracle import oracle_spheres, reference_atlas, reference_filtration
from test_engine import CYCLIC_FAMILIES, _hidden_root, _two_cycles

FG_INCOMPRESSIBLE_COUNTS = [3, 18, 72, 216, 576, 1296, 2592]
EXAMPLES = Path(__file__).resolve().parents[1] / "examples_configs"


def test_additive_on_generators(fg_atlas6, fg_report6):
    eng = fg_atlas6.engine
    for nm in ("a120", "a201", "b1", "b2"):
        g = eng.gen_id(0, nm)
        assert fg_report6.in_Ik(0, g, 1)
        assert fg_report6.fail_depth(0, g) is None


def test_witness_word_is_compressible(fg_atlas6, fg_report6):
    # b * (a b a^-1) * b has pseudolength 3 but child lengths summing to 2
    eng = fg_atlas6.engine
    g = eng.element_from_word(0, ["b1", "a120", "b1", "a201", "b1"])
    table = fg_atlas6.table(0)
    assert table.length(g) == 3
    child_sum = sum(table.length(x) for x in eng.children(0, g))
    assert child_sum == 2
    assert not fg_report6.in_Ik(0, g, 1)
    assert fg_report6.fail_depth(0, g) == 1


def _assert_matches_reference(spec, radius):
    """Tables of representatives against the per-element reference
    enumeration on the same engine: sphere sizes, each reference sphere
    against the orbits of the representatives, acted on by A×A, and each
    orbit against its recorded size, and per class the filtration counts,
    the stabilization depth and the first-fail depth and depth-K membership
    of every orbit member."""
    atlas = build_atlas(spec, radius)
    atlas.engine.audit()
    ref = reference_atlas(spec, radius, atlas.engine)
    for c, table in atlas.tables.items():
        assert table.sphere_sizes() == ref.table(c).sphere_sizes()
        for n, sphere in enumerate(table.spheres):
            orbits = [table.orbit(rep) for rep in sphere]
            assert [len(members) for members in orbits] == \
                [table.orbits[rep] for rep in sphere]
            assert set(ref.table(c).spheres[n]) == \
                {x for members in orbits for x in members}
    atlas.engine.audit()
    for K in (1, 2, 6):
        report = inc.approximate_I_infty(atlas, K)
        counts, first_fail, depth_K, stab = reference_filtration(ref, K)
        assert report.counts == counts
        assert report.stabilization_depth == stab
        for c, table in ref.tables.items():
            for g in table.lengths:
                assert report.fail_depth(c, g) == first_fail[c].get(g)
                assert report.in_Ik(c, g, K) == (g in depth_K[c])
            _assert_level_function(atlas, report, c, table, first_fail[c])


def _assert_level_function(atlas, report, c, ref_table, first_fail):
    """level_function at every radius up to one past the table's, against
    the reference first_fail over every ball element."""
    top = atlas.table(c).max_radius
    for r in range(top + 2):
        fails = [k for g, k in first_fail.items()
                 if ref_table.length(g) <= r]
        lf = inc.level_function(atlas, report, c, r)
        assert (lf.value, lf.radius, lf.lower_bound_only, lf.empty_family) \
            == (max(fails, default=1), min(r, top), r > top, not fails)


@pytest.mark.parametrize("name", CYCLIC_FAMILIES)
def test_filtration_matches_reference_on_cyclic_families(name):
    make_spec, radius = CYCLIC_FAMILIES[name]
    _assert_matches_reference(make_spec(), radius)


# (family, radius) of the catalog, each class enumerated.  First
# Grigorchuk's r9 is the least ball with a representative whose sections
# leave the filtration at two consecutive depths, so that a representative
# dropped at round k would be dropped again at k+1 if kept in the live list.
CATALOG = [
    (catalog.fabrykowski_gupta(), 6),
    (catalog.first_grigorchuk(), 9),
    (catalog.sunic(3, 2, (0,)), 3),
    (catalog.gupta_sidki(), 5),
    (catalog.ggs(5, (1, 2, 0, 0)), 3),
    (catalog.grigorchuk_p(2, (0,), (0, 1, 2)), 6),
    (catalog.grigorchuk_p(3, (0,), (1, 2, 3)), 3),
    (catalog.nekrashevych_D((), (0, 1)), 6),
    (catalog.neumann6(), 1),
]


def test_filtration_matches_reference_on_catalog():
    for spec, radius in CATALOG:
        _assert_matches_reference(spec, radius)


@pytest.mark.parametrize("spec, radius", [
    *CATALOG, *((make(), radius) for make, radius in CYCLIC_FAMILIES.values())
], ids=[*(spec.name for spec, _ in CATALOG), *CYCLIC_FAMILIES])
def test_representative_indices_and_engine_ids_stay_apart(spec, radius):
    # a representative index i names the element its key decodes to; that
    # element's engine id finds back to (i, 0, 0), and every member of its
    # orbit, by engine id, has the depth first_fail[c][i] gives i
    atlas = build_atlas(spec, radius)
    eng = atlas.engine
    report = inc.approximate_I_infty(atlas, 6)
    for c, table in atlas.tables.items():
        for i in range(len(table.keys)):
            assert table.find(eng._intern(c, *table.element(i))) == (i, 0, 0)
            depth = max(report.first_fail[c][i], 0) or None
            assert {report.fail_depth(c, x) for x in table.orbit(i)} == \
                {depth}
    eng.audit()


CYCLE3_POWERS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
CYCLE4_POWERS = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
# the three nonzero homomorphisms (Z/2)^2 -> Sym(2); the zero one enlarges
# the joint kernel, so catalog.spinal rejects most draws containing it
NONZERO_Z2_HOMS = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 0))]


@st.composite
def spinal_data(draw, degrees=(3, 2, 4)):
    """Degree 3 over B = Z/3 with images powers of the 3-cycle, degree 4
    over B = Z/4 with images powers of the 4-cycle, or degree 2 over
    B = (Z/2)^2 with nonzero homomorphisms, for the degrees asked for; up
    to one preperiod and one to three period entries."""
    degree = draw(st.sampled_from(degrees))
    if degree == 3:
        hom = st.tuples(st.sampled_from(CYCLE3_POWERS))
        orders, a, entry = (3,), (1, 2, 0), st.tuples(hom, hom)
    elif degree == 4:
        hom = st.tuples(st.sampled_from(CYCLE4_POWERS))
        orders, a, entry = (4,), (1, 2, 3, 0), st.tuples(hom, hom, hom)
    else:
        hom = st.sampled_from(NONZERO_Z2_HOMS)
        orders, a, entry = (2, 2), (1, 0), st.tuples(hom)
    pre = draw(st.lists(entry, max_size=1))
    per = draw(st.lists(entry, min_size=1, max_size=3))
    return catalog.SpinalData(degree, orders, (a,), tuple(pre), tuple(per))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(spinal_data())
def test_filtration_matches_reference_on_generated_families(data):
    try:
        spec = catalog.spinal(data)
    except catalog.CatalogError:
        assume(False)
    radius = {2: 6, 3: 4, 4: 3}[data.degree]
    assert build_atlas(spec, radius, levels=1).table(0).sphere_sizes() == \
        oracle_spheres(spec, 8, radius)
    _assert_matches_reference(spec, radius)


def test_report_counts_frozen(fg_report6):
    assert fg_report6.counts[0][fg_report6.K] == FG_INCOMPRESSIBLE_COUNTS


def test_report_stabilizes(fg_report6):
    assert fg_report6.stabilization_depth == 2
    assert fg_report6.exact


def test_counts_nested_in_k(fg_report6):
    per_k = fg_report6.counts[0]
    for k in range(1, len(per_k) - 1):
        for n in range(len(per_k[k])):
            assert per_k[k + 1][n] <= per_k[k][n]


@pytest.mark.parametrize("name", ["fg_atlas6", "grig_atlas8"])
def test_filtration_resolves_each_section_once(name, request, monkeypatch):
    """One filtration looks up each distinct (class, section id) at most
    once, though most representatives share their sections."""
    atlas = request.getfixturevalue(name)
    calls, find = Counter(), SphereTable.find

    def counted(table, g):
        calls[table.cls, g] += 1
        return find(table, g)

    monkeypatch.setattr(SphereTable, "find", counted)
    report = inc.approximate_I_infty(atlas, 6)
    assert calls and max(calls.values()) == 1
    eng = atlas.engine
    assert set(calls) == {(eng.succ[c], x) for c in report.counts
                          for g in range(len(atlas.table(c).keys))
                          for x in atlas.table(c).element(g)[1]}


def test_membership_and_first_fail(fg_atlas6, fg_report6):
    eng = fg_atlas6.engine
    g = eng.element_from_word(0, ["b1", "a120", "b1", "a201", "b1"])
    assert not fg_report6.in_Ik(0, g, 1)
    assert fg_report6.fail_depth(0, g) == 1
    b = eng.gen_id(0, "b1")
    assert fg_report6.in_Ik(0, b, 6)


def test_membership_outside_the_ball_is_unknown():
    atlas = build_atlas(catalog.fabrykowski_gupta(), 0)
    report = inc.approximate_I_infty(atlas, 6)
    b = atlas.engine.gen_id(0, "b1")
    with pytest.raises(TableExhausted):
        report.fail_depth(0, b)
    with pytest.raises(TableExhausted):
        report.in_Ik(0, b, 6)
    assert report.in_Ik(0, atlas.engine.gen_id(0, "a120"), 6)


def test_level_function(fg_atlas6, fg_report6):
    lf = inc.level_function(fg_atlas6, fg_report6, 0, 6)
    assert lf.value == 2
    assert lf.exact and not lf.lower_bound_only
    deep = inc.level_function(fg_atlas6, fg_report6, 0, 50)
    assert deep.lower_bound_only
    assert deep.value == 2


def test_level_function_empty_family(fg_atlas6, fg_report6):
    lf = inc.level_function(fg_atlas6, fg_report6, 0, 0)
    assert lf.empty_family and lf.value == 1


def test_factorization_dp_histogram(fg_atlas6, fg_report6):
    N, back = inc.factorization_dp(fg_atlas6, fg_report6, 0, 6)
    table = fg_atlas6.table(0)
    size = table.orbits
    # every ball element is reached; A's members other than the identity
    # are one factor each
    hist = {0: 1, 1: size[0] - 1}
    for g, j in N.items():
        if g != 0:
            hist[j] = hist.get(j, 0) + size[g]
    assert sum(hist.values()) == table.gamma()[-1]
    assert hist == {0: 1, 1: 4772, 2: 13296, 3: 2736}
    # factorizations are additive and their factors are incompressible
    # factors A[ia]·h have the length and depth of h
    for g in table.spheres[5][:100]:
        factors = inc.factors_of(back, g)
        assert len(factors) == N[g]
        assert sum(table.lengths[h] for _, h in factors) == 5
        assert all(fg_report6.first_fail[0][h] < 0 for _, h in factors)


def _reference_dp(atlas, report, c, max_n):
    """The factorization DP with one wreath product per (p, h) pair, over
    the per-element reference enumeration of the ball."""
    eng = atlas.engine
    table = atlas.table(c)
    ref = reference_atlas(atlas.spec, table.max_radius, eng, [c]).table(c)
    by_len = [[] for _ in range(max_n + 1)]
    for h, n in ref.lengths.items():
        if h != 0 and n <= max_n and \
                report.first_fail[c][table.find(h)[0]] < 0:
            by_len[n].append(h)
    for bucket in by_len:
        bucket.sort()
    N = {0: 0}
    back = {0: None}
    frontier = [0]
    j = 0
    while frontier:
        j += 1
        nxt = []
        for p in frontier:
            lp = ref.length(p)
            for lh in range(0, max_n - lp + 1):
                for h in by_len[lh]:
                    q = eng.mul(c, p, h, store=False)
                    if q in N:
                        continue
                    lq = ref.lengths.get(q)
                    if lq is not None and lq == lp + lh:
                        N[q] = j
                        back[q] = (p, h)
                        nxt.append(q)
        frontier = nxt
    return N, back


def spinal_z3sq():
    """The B = (Z/3)^2 spinal draw of examples_configs/spinal_z3sq.json: 3
    level classes, |A| = 3 and 8 unit-length generators."""
    return store.build_spec(json.loads(
        (EXAMPLES / "spinal_z3sq.json").read_text(encoding="utf-8")))


def _without_length_one(atlas, report, keep=0):
    """The report with the class-0 length-1 representatives after the first
    `keep` left out of the depth-K set, so that the set is not closed under
    parent-link prefixes."""
    ff = report.first_fail[0][:]
    for h in atlas.table(0).spheres[1][keep:]:
        ff[h] = report.K
    return replace(report, first_fail={**report.first_fail, 0: ff})


def _with_one_letter(atlas, report):
    """FG's depth-K set with b1 but not b2 at length 1: the DP keeps every
    step whose first letter is b2 and prunes by those through b1."""
    return _without_length_one(atlas, report, keep=1)


# Families at table radius 2, where the DP prunes only its length-1 steps,
# by the skip rule alone
RADIUS_2 = {"neumann6": catalog.neumann6,
            "grigorchuk": catalog.first_grigorchuk, "z3sq": spinal_z3sq}

# (id, family, radius, max_n, classes or None for every class, edit of the
# report or None); "fg-beyond" asks for a larger radius than the table has.
# "hidden_root-r8" reaches a third factor with A not rooted: only there
# does the backpointer's A index compose with a frontier i3 other than 0
# (find returns i3 = 0 on layer 1), and the cyclic families' radii stop
# short of it.
DP_CASES = [
    ("fg", catalog.fabrykowski_gupta, 6, 6, [0], None),
    ("grigorchuk", catalog.first_grigorchuk, 8, 8, None, None),
    ("sunic320", lambda: catalog.sunic(3, 2, (0,)), 3, 3, [0], None),
    ("fg-beyond", catalog.fabrykowski_gupta, 5, 7, [0], None),
    ("fg-not-prefix-closed", catalog.fabrykowski_gupta, 6, 6, [0],
     _without_length_one),
    ("fg-one-letter", catalog.fabrykowski_gupta, 6, 6, [0], _with_one_letter),
    *((name, make, radius, radius, None, None)
      for name, (make, radius) in CYCLIC_FAMILIES.items()),
    ("hidden_root-r8", _hidden_root, 8, 8, None, None),
]


@pytest.mark.parametrize("make,radius,max_n,classes,edit",
                         [case[1:] for case in DP_CASES],
                         ids=[case[0] for case in DP_CASES])
def test_factorization_dp_matches_reference(make, radius, max_n, classes,
                                            edit):
    # fresh atlases: the reference interns products outside the ball
    atlas = build_atlas(make(), radius)
    atlas.engine.audit()
    eng = atlas.engine
    report = inc.approximate_I_infty(atlas, 6)
    if edit is not None:
        report = edit(atlas, report)
    for c in classes or sorted(atlas.tables):
        table = atlas.table(c)
        N, back = inc.factorization_dp(atlas, report, c, max_n)
        eng.audit()
        ref_N, _ = _reference_dp(atlas, report, c, max_n)
        def rep(x):
            return table.find(x)[0]

        # N is constant on each double coset but A, whose representative
        # is the identity
        for x, j in ref_N.items():
            if rep(x) != 0:
                assert N[rep(x)] == j
        assert set(N) == {rep(x) for x in ref_N}
        # the witness multiplies back from its factors A[ia]·h, formed
        # here as elements
        for q in N:
            factors = inc.factors_of(back, q)
            assert len(factors) == N[q]
            assert sum(table.lengths[h] for _, h in factors) == \
                table.lengths[q]
            assert all(report.first_fail[c][h] < 0 for _, h in factors)
            product = 0
            for ia, h in factors:
                member = eng.mul(c, table.zero.ids[ia],
                                 eng._intern(c, *table.element(h)),
                                 store=False)
                product = eng.mul(c, product, member, store=False)
            assert rep(product) == q


def _unpruned_dp(atlas, report, c, max_n):
    """factorization_dp without its prefix-closure pruning: every step of
    every bucket is formed for every reached representative."""
    table = atlas.table(c)
    R = min(max_n, table.max_radius)
    zero, lengths, ff = table.zero, table.lengths, report.first_fail[c]
    times = zero.times
    steps = [zero.steps([(h, *table.element(h)) for h in sphere
                         if ff[h] < 0])
             for sphere in table.spheres[1:R + 1]]
    N, back = {0: 0}, {0: None}
    frontier = [(0, 0)]
    j = 0
    while frontier:
        j += 1
        nxt = []
        for p, i3p in frontier:
            lp, row = lengths[p], times[i3p]
            for lh, bucket in enumerate(steps[:R - lp], 1):
                for step, key, _, _, i3 in table.multiply(
                        *table.element(p), bucket):
                    q = table.index[key]
                    if q in N or lengths[q] != lp + lh:
                        continue
                    N[q] = j
                    back[q] = (p, row[step[0]], step[1])
                    nxt.append((q, i3))
        frontier = nxt
    return N, back


@pytest.mark.parametrize("make,radius,max_n,classes,edit", [
    *(case[1:] for case in DP_CASES),
    (catalog.fabrykowski_gupta, 8, 8, [0], None),
    (lambda: catalog.sunic(3, 2, (0,)), 4, 4, [0], None),
    *((make, 2, 2, None, None) for make in RADIUS_2.values()),
], ids=[*(case[0] for case in DP_CASES), "fg-r8", "sunic320-r4",
        *(f"{name}-r2" for name in RADIUS_2)])
def test_factorization_dp_matches_unpruned_loop(make, radius, max_n, classes,
                                                edit):
    # pruning skips only products the loop would skip as not additive, so
    # N and back are the unpruned loop's, insertion order included
    atlas = build_atlas(make(), radius)
    report = inc.approximate_I_infty(atlas, 6)
    if edit is not None:
        report = edit(atlas, report)
    for c in classes or sorted(atlas.tables):
        N, back = inc.factorization_dp(atlas, report, c, max_n)
        ref_N, ref_back = _unpruned_dp(atlas, report, c, max_n)
        assert list(N.items()) == list(ref_N.items())
        assert list(back.items()) == list(ref_back.items())


@pytest.mark.parametrize("make,radius,edit,most", [
    (catalog.fabrykowski_gupta, 7, None, 40_000),        # 59,010 unpruned
    (catalog.fabrykowski_gupta, 3, None, None),   # the least radius that prunes
    (catalog.first_grigorchuk, 10, None, 68_000),        # 152,910 a class
    (catalog.fabrykowski_gupta, 6, _without_length_one, None),
    (catalog.fabrykowski_gupta, 6, _with_one_letter, None),
    (_hidden_root, 8, None, None),
    (_two_cycles, 5, None, None),
    *((make, 2, None, None) for make in RADIUS_2.values()),
], ids=["fg-r7", "fg-r3", "grigorchuk-r10", "fg-not-prefix-closed", "fg-one-letter",
        "hidden_root-r8", "two_cycles-r5",
        *(f"{name}-r2" for name in RADIUS_2)])
def test_factorization_dp_prunes_only_products_not_additive(
        monkeypatch, make, radius, edit, most):
    # the identity's layer is written without forming a product, and every
    # step p·A[ia]·h the DP leaves out for any other reached p, layer 1
    # included, multiplied out element by element, is shorter than |p| + |h|.
    # At radius 2 the skip rule forms no product and leaves no step out.
    atlas = build_atlas(make(), radius)
    eng = atlas.engine
    report = inc.approximate_I_infty(atlas, 6)
    if edit is not None:
        report = edit(atlas, report)
    formed, building, skip_products = [], [], []
    multiply, kept_steps = SphereTable.multiply, inc._kept_steps

    def recorded(table, root, children, steps):
        # the DP expands a representative's decoded key; the products its
        # skip rule forms from the unit-length generators are not steps of
        # the DP, and would hide the very steps they prune
        out = multiply(table, root, children, steps)
        for step, *_ in out:
            if building:
                skip_products.append(step[:2])
            else:
                formed.append((table.index[table.key(root, children)],
                               step[:2]))
        return out

    def build(*args):
        building.append(True)
        try:
            return kept_steps(*args)
        finally:
            building.pop()
    monkeypatch.setattr(SphereTable, "multiply", recorded)
    monkeypatch.setattr(inc, "_kept_steps", build)
    for c in sorted(atlas.tables):
        table = atlas.table(c)
        formed.clear()
        skip_products.clear()
        N, back = inc.factorization_dp(atlas, report, c, radius)
        assert most is None or len(formed) <= most
        tried = set(formed)
        depth_k = [[h for h in sphere if report.first_fail[c][h] < 0]
                   for sphere in table.spheres[1:]]
        layer = [h for hs in depth_k[:radius] for h in hs]
        assert layer and not any(g == 0 for g, _ in formed)
        assert list(N.items())[:len(layer) + 1] == \
            [(0, 0)] + [(h, 1) for h in layer]
        assert [q for q, j in N.items() if j == 1] == layer
        assert all(back[h] == (0, 0, h) for h in layer)
        left_out = 0
        for p in list(N)[1:]:
            lp = table.lengths[p]
            for lh, hs in enumerate(depth_k[:radius - lp], 1):
                for ia, a in enumerate(table.zero.ids):
                    pa = eng.mul(c, eng._intern(c, *table.element(p)), a,
                                 store=False)
                    for h in hs:
                        if (p, (ia, h)) not in tried:
                            q = eng.mul(c, pa,
                                        eng._intern(c, *table.element(h)),
                                        store=False)
                            assert table.length(q) < lp + lh
                            left_out += 1
        if radius == 2:
            assert left_out == 0 and not skip_products
        else:
            # the steps are pruned by length-1 factors, which one edit
            # removes
            assert left_out or edit is _without_length_one


def test_factorization_dp_interns_no_witness():
    # witnesses, step factors A[i]·h and products are formed without
    # interning, and every product's canonical form is in the ball, so the
    # DP adds no id at its class: every class of first Grigorchuk r10, and
    # class 0 of the (Z/3)^2 draw at r4
    for make, radius, classes in ((catalog.first_grigorchuk, 10, [0, 1, 2]),
                                  (spinal_z3sq, 4, [0])):
        atlas = build_atlas(make(), radius)
        eng = atlas.engine
        report = inc.approximate_I_infty(atlas, 6)
        for c in classes:
            before = len(eng.tables[c].roots)
            inc.factorization_dp(atlas, report, c, radius)
            assert len(eng.tables[c].roots) == before, (atlas.spec.name, c)
        eng.audit()


@pytest.mark.parametrize("make_spec, radius", [
    (catalog.neumann6, 2), (spinal_z3sq, 4)], ids=["neumann6-r2", "z3sq-r4"])
def test_filtration_bytes_per_representative(make_spec, radius):
    # what one filtration leaves held: the first_fail columns, a byte per
    # representative, 1.0 and 1.1 B on CPython 3.11.  A dict keyed by
    # representative costs about 50 B an entry, so the bound fails if the
    # report keeps one.
    atlas = build_atlas(make_spec(), radius)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = inc.approximate_I_infty(atlas, 6)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.counts
    reps = sum(len(s) for t in atlas.tables.values() for s in t.spheres)
    assert held / reps <= 6


def test_witness_minimal_count(fg_atlas6, fg_report6):
    eng = fg_atlas6.engine
    g = eng.element_from_word(0, ["b1", "a120", "b1", "a201", "b1"])
    N, back = inc.factorization_dp(fg_atlas6, fg_report6, 0, 6)
    q = fg_atlas6.table(0).find(g)[0]
    assert N[q] == 2
    assert sorted(fg_atlas6.table(0).lengths[h]
                  for _, h in inc.factors_of(back, q)) == [1, 2]


def test_ternary_parse_single_letter(fg_atlas6):
    eng = fg_atlas6.engine
    spec = fg_atlas6.spec
    table = fg_atlas6.table(0)
    b = table.find(eng.gen_id(0, "b1"))
    data = inc.extract_ternary_data(spec, table, 0, *b)
    assert data.beta == ["b1"]
    assert data.c == [0]
    assert data.derivative == []
    assert data.two_run
    assert data.m_c == 1


def test_ternary_parse_exponents(fg_atlas6):
    eng = fg_atlas6.engine
    spec = fg_atlas6.spec
    table = fg_atlas6.table(0)
    g = eng.element_from_word(0, ["a120", "b1", "a120", "b1", "a201"])
    data = inc.extract_ternary_data(spec, table, 0, *table.find(g))
    assert len(data.beta) == table.length(g) == 2
    # conjugation exponents are prefix sums of the rooted exponents
    assert all(x in (0, 1, 2) for x in data.c)


def test_two_run_law_on_incompressibles(fg_atlas6, fg_report6):
    spec = fg_atlas6.spec
    table = fg_atlas6.table(0)
    # representatives cover every element: the geodesic of a1·g·a3 is
    # a1·geodesic(g)·a3, which leaves the derivative unchanged
    ff = fg_report6.first_fail[0]
    for g in (g for sphere in table.spheres[1:] for g in sphere if ff[g] < 0):
        data = inc.extract_ternary_data(spec, table, 0, g)
        assert data.two_run
        assert 1 <= data.m_c <= len(data.derivative) + 1


def test_not_ternary_spinal():
    atlas = build_atlas(catalog.first_grigorchuk(), 2)
    with pytest.raises(inc.NotTernarySpinal):
        inc.extract_ternary_data(atlas.spec, atlas.table(0), 0, 0)
    with pytest.raises(inc.NotTernarySpinal):
        inc.ternary_bound_params(atlas.spec)


def test_polynomial_bound_fg(fg_report6):
    spec = catalog.fabrykowski_gupta()
    l, constant, exponent = inc.ternary_bound_params(spec)
    assert (l, constant, exponent) == (0, 13122, 4)
    bc = inc.check_polynomial_bound(spec, fg_report6, 0)
    assert bc.ok
    assert bc.rows[0] == (1, 18, 13122)


def test_in_Ik_beyond_K_requires_exactness(fg_atlas6):
    rep = inc.approximate_I_infty(fg_atlas6, 1)
    assert rep.stabilization_depth is None
    with pytest.raises(ValueError):
        rep.in_Ik(0, 0, 5)


def test_approximate_I_infty_rejects_bad_input(fg_atlas6):
    with pytest.raises(ValueError, match="depth K must be at least 1, got 0"):
        inc.approximate_I_infty(fg_atlas6, 0)
    # first Grigorchuk's class 0 has its sections at class 1
    atlas = build_atlas(catalog.first_grigorchuk(), 3, levels=1)
    with pytest.raises(ValueError,
                       match="class 1 needed for sections of class 0"):
        inc.approximate_I_infty(atlas, 6)
