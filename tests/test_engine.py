import pytest
from hypothesis import given, settings, strategies as st

from treegrowth import Engine, Group, build_atlas, catalog, store
from treegrowth.engine import BudgetExceeded

from oracle import TruncatedAction, oracle_spheres


@pytest.fixture(scope="module")
def fg():
    return Group(catalog.fabrykowski_gupta())


@pytest.fixture(scope="module")
def grig():
    return Group(catalog.first_grigorchuk())


FG_NAMES = ["a120", "a201", "b1", "b2"]
GRIG_NAMES = ["a10", "b01", "b10", "b11"]


def order_of(g, cap=64):
    acc = g
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc * g
    raise AssertionError(f"order exceeds {cap}")


def test_fg_generator_orders(fg):
    a = fg.generator("a120")
    b = fg.generator("b1")
    assert order_of(a) == 3
    assert order_of(b) == 3
    assert b.inverse() == fg.generator("b2")
    assert a.inverse() == fg.generator("a201")


def test_fg_spinal_decomposition(fg):
    b = fg.generator("b1")
    sections, root = b.decompose()
    assert root == (0, 1, 2)
    assert sections[0] == fg.generator("a120")
    assert sections[1].is_identity()
    assert sections[2] == b


def test_grig_involutions_and_products(grig):
    a = grig.generator("a10")
    bs = {nm: grig.generator(nm) for nm in ("b01", "b10", "b11")}
    for g in [a] + list(bs.values()):
        assert order_of(g) == 2
    # the three spine letters pairwise multiply to the third
    assert bs["b10"] * bs["b01"] == bs["b11"]
    assert bs["b01"] * bs["b11"] == bs["b10"]
    orders = sorted(order_of(a * b, cap=32) for b in bs.values())
    assert orders == [4, 8, 16]


def test_gupta_sidki_structure():
    gs = Group(catalog.gupta_sidki())
    a = gs.generator("a120")
    b = gs.generator("b1")
    assert order_of(a) == 3 and order_of(b) == 3
    sections, root = b.decompose()
    assert root == (0, 1, 2)
    assert sections[0] == a and sections[1] == a and sections[2] == b


def test_nekrashevych_involutions():
    nk = Group(catalog.nekrashevych_D((), (0, 1)))
    for nm in ("alpha", "beta", "gamma"):
        assert order_of(nk.generator(nm)) == 2


def test_neumann_inverse_pairs():
    nm = Group(catalog.neumann6())
    level = nm.spec.level(0)
    for g in level.generators[:20]:
        u = nm.generator(g.name)
        assert (u * nm.generator(g.inverse)).is_identity()


def test_zero_elements_sizes(fg, grig):
    for group, size in ((fg, 3), (grig, 2)):
        atlas = build_atlas(group.spec, 0, levels=1, engine=group.engine)
        assert len(atlas.table(0).sphere(0)) == size


def test_element_from_word(fg):
    w = fg.from_word(["b1", "a120", "b1"])
    manual = fg.generator("b1") * fg.generator("a120") * fg.generator("b1")
    assert w == manual


def test_section_at_matches_decompose(fg):
    g = fg.from_word(["b1", "a120", "b2", "b1"])
    sections, _ = g.decompose()
    for x in range(3):
        assert g.section_at((x,)) == sections[x]
    deep = g.section_at((1, 2))
    assert deep == sections[1].section_at((2,))


def test_portrait_depth_one(fg):
    a = fg.generator("a120")
    assert a.portrait(1) == {(): (1, 2, 0)}
    b = fg.generator("b1")
    p = b.portrait(2)
    assert p[()] == (0, 1, 2)
    assert p[(0,)] == (1, 2, 0)
    assert p[(1,)] == (0, 1, 2)


def test_budget_exceeded():
    eng = Engine(catalog.fabrykowski_gupta(), budget=5)
    with pytest.raises(BudgetExceeded):
        for w in (["b1", "a120"], ["b1", "a120", "b1"],
                  ["b2", "a201", "b1", "a120"]):
            eng.element_from_word(0, w)


def test_budget_exceeded_leaves_engine_consistent():
    spec = catalog.first_grigorchuk()
    eng = Engine(spec, budget=5)
    with pytest.raises(BudgetExceeded):
        eng.gen_id(0, "b01")
    assert all(ch is not None for t in eng.tables for ch in t.children)
    eng.budget = 10_000_000
    retried = build_atlas(spec, 6, engine=eng)
    fresh = build_atlas(spec, 6)
    assert {c: t.spheres for c, t in retried.tables.items()} == \
        {c: t.spheres for c, t in fresh.tables.items()}


# -- custom families that exercise the session directly ----------------------

def _gen(name, length, inverse, root, children):
    return {"name": name, "pseudolength": length, "inverse": inverse,
            "root": root, "children": children}


def _custom(degree, level):
    return store.build_spec({"kind": "custom", "parameters": {
        "degree": degree, "preperiod": [], "period": [level]}})


def test_two_letter_child_word():
    # GGS(3,(1,2)) written with b = (z, z z, b), z the rooted 3-cycle
    spec = _custom(3, [
        _gen("z", 0, "y", [1, 2, 0], [[], [], []]),
        _gen("y", 0, "z", [2, 0, 1], [[], [], []]),
        _gen("b", 1, "c", [0, 1, 2], [["z"], ["z", "z"], ["b"]]),
        _gen("c", 1, "b", [0, 1, 2], [["y"], ["y", "y"], ["c"]]),
    ])
    sizes = build_atlas(spec, 6).table(0).sphere_sizes()
    assert sizes == build_atlas(catalog.ggs(3, (1, 2)), 6).table(0).sphere_sizes()
    assert sizes == [3, 18, 72, 288, 1152, 4536, 17712]
    assert sizes[:5] == oracle_spheres(spec, 8, 4)


def test_session_with_two_cyclic_components():
    # b = (w, b) refers to w = (w, w)·swap: one session settles both cycles
    spec = _custom(2, [
        _gen("w", 0, "w", [1, 0], [["w"], ["w"]]),
        _gen("b", 1, "b", [0, 1], [["w"], ["b"]]),
    ])
    sizes = build_atlas(spec, 5).table(0).sphere_sizes()
    assert sizes[:3] == [2, 4, 4]
    assert sizes == oracle_spheres(spec, 8, 5)


# -- action consistency with the independent truncated oracle ---------------

def _apply_portrait(ta, pid, vertex):
    out = []
    for x in vertex:
        root, children = ta.nodes[pid]
        out.append(root[x])
        pid = children[x]
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(FG_NAMES), max_size=8),
       st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_fg_action_matches_oracle(fg, word, vertex):
    ta = TruncatedAction(fg.spec, 4)
    pid = ta.word(0, word)
    assert fg.from_word(word).apply(vertex) == \
        _apply_portrait(ta, pid, vertex)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(GRIG_NAMES), max_size=10),
       st.lists(st.integers(0, 1), min_size=5, max_size=5))
def test_grig_action_matches_oracle(grig, word, vertex):
    ta = TruncatedAction(grig.spec, 5)
    pid = ta.word(0, word)
    assert grig.from_word(word).apply(vertex) == \
        _apply_portrait(ta, pid, vertex)


# -- algebraic laws on random words -----------------------------------------

words = st.lists(st.sampled_from(FG_NAMES), max_size=10)


@settings(max_examples=80, deadline=None)
@given(words, words, words)
def test_associativity(fg, u, v, w):
    x, y, z = fg.from_word(u), fg.from_word(v), fg.from_word(w)
    assert (x * y) * z == x * (y * z)


@settings(max_examples=80, deadline=None)
@given(words)
def test_inverse_laws(fg, u):
    x = fg.from_word(u)
    assert x.inverse().inverse() == x
    assert (x * x.inverse()).is_identity()


@settings(max_examples=80, deadline=None)
@given(words, words)
def test_product_decomposition_rule(fg, u, v):
    # root(gh) = root(g) o root(h); (gh)_x = g_{root(h)(x)} h_x
    g, h = fg.from_word(u), fg.from_word(v)
    gs, gr = g.decompose()
    hs, hr = h.decompose()
    ps, pr = (g * h).decompose()
    assert pr == tuple(gr[hr[x]] for x in range(3))
    for x in range(3):
        assert ps[x] == gs[hr[x]] * hs[x]


@settings(max_examples=40, deadline=None)
@given(words)
def test_canonical_ids_are_minimal(fg, u):
    # two elements are equal iff their depth-k portraits eventually agree;
    # here: equal portraits at depth 6 on random pairs of builds
    x = fg.from_word(u)
    y = fg.from_word(u + ["b1", "b2"])   # b1*b2 = identity
    assert x == y
    assert x.portrait(3) == y.portrait(3)
