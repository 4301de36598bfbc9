import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treegrowth import Engine, Group, build_atlas, catalog, engine, store
from treegrowth.engine import BudgetExceeded

from oracle import TruncatedAction, oracle_spheres, reference_atlas


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
        assert atlas.table(0).sphere_sizes() == [size]


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
    assert {c: t.keys for c, t in retried.tables.items()} == \
        {c: t.keys for c, t in fresh.tables.items()}


@pytest.mark.parametrize("make_spec, radius", [
    (catalog.first_grigorchuk, 9),
    (lambda: catalog.nekrashevych_D((1,), (0, 1)), 8),
], ids=["grigorchuk", "nekrashevych_preperiod"])
def test_budget_bounds_ids_and_cached_products(make_spec, radius):
    # stops inside sessions too, where the products a session will record
    # count against the budget before its new ids are made
    spec = make_spec()
    for budget in range(100, 4000, 100):
        eng = Engine(spec, budget=budget)
        with pytest.raises(BudgetExceeded):
            build_atlas(spec, radius, engine=eng)
        assert eng.n_ids + len(eng.mul_memo) <= budget


@pytest.fixture()
def sessions(monkeypatch):
    """Counter of `_Session.run` calls, to tell the two product paths apart."""
    count = [0]
    run = engine._Session.run

    def counted(self, target):
        count[0] += 1
        return run(self, target)
    monkeypatch.setattr(engine._Session, "run", counted)
    return count


@pytest.mark.parametrize("left, right, via_session",
                         [("a120", "b1", 0), ("b1", "b1", 1)])
def test_mul_stores_its_key(sessions, left, right, via_session):
    eng = Engine(catalog.fabrykowski_gupta())
    u, v = eng.gen_id(0, left), eng.gen_id(0, right)
    sessions[0] = 0
    w = eng.mul(0, u, v, store=True)
    assert sessions[0] == via_session
    assert eng.mul_memo[(0, u, v)] == w


@pytest.mark.parametrize("gen", ["a120", "b1"])
def test_inv_stores_its_key(sessions, gen):
    eng = Engine(catalog.fabrykowski_gupta())
    u = eng.gen_id(0, gen)
    sessions[0] = 0
    w = eng.inv(0, u)
    assert sessions[0] == 1
    assert eng.inv_memo[(0, u)] == w
    assert eng.mul(0, u, w) == 0


def test_import_leaves_recursion_limit(run_fresh):
    code = ("import sys\n"
            "before = sys.getrecursionlimit()\n"
            "import treegrowth\n"
            "print(before, sys.getrecursionlimit())\n")
    before, after = run_fresh(["-c", code], hash_seed=0).stdout.split()
    assert after == before


# -- custom families that exercise the session directly ----------------------

def _gen(name, length, inverse, root, children):
    return {"name": name, "pseudolength": length, "inverse": inverse,
            "root": root, "children": children}


def _custom(degree, level):
    return store.build_spec({"kind": "custom", "parameters": {
        "degree": degree, "preperiod": [], "period": [level]}})


def _two_letter_ggs():
    # GGS(3,(1,2)) written with b = (z, z z, b), z the rooted 3-cycle
    return _custom(3, [
        _gen("z", 0, "y", [1, 2, 0], [[], [], []]),
        _gen("y", 0, "z", [2, 0, 1], [[], [], []]),
        _gen("b", 1, "c", [0, 1, 2], [["z"], ["z", "z"], ["b"]]),
        _gen("c", 1, "b", [0, 1, 2], [["y"], ["y", "y"], ["c"]]),
    ])


def test_two_letter_child_word():
    spec = _two_letter_ggs()
    sizes = build_atlas(spec, 6).table(0).sphere_sizes()
    assert sizes == build_atlas(catalog.ggs(3, (1, 2)), 6).table(0).sphere_sizes()
    assert sizes == [3, 18, 72, 288, 1152, 4536, 17712]
    assert sizes[:5] == oracle_spheres(spec, 8, 4)


def _two_cycles():
    # b = (w, b) refers to w = (w, w)·swap: one session settles both cycles
    return _custom(2, [
        _gen("w", 0, "w", [1, 0], [["w"], ["w"]]),
        _gen("b", 1, "b", [0, 1], [["w"], ["b"]]),
    ])


def _cycle3():
    # A = <z> with z = (z, z, z)·(0 1 2) is not rooted
    return _custom(3, [
        _gen("z", 0, "y", [1, 2, 0], [["z"], ["z"], ["z"]]),
        _gen("y", 0, "z", [2, 0, 1], [["y"], ["y"], ["y"]]),
        _gen("b", 1, "c", [0, 1, 2], [["z"], ["y"], ["b"]]),
        _gen("c", 1, "b", [0, 1, 2], [["y"], ["z"], ["c"]]),
    ])


def _hidden_root():
    # A = <w, v> has order 4, and its roots (identity, swap) do not tell
    # its elements apart
    return _custom(2, [
        _gen("w", 0, "w", [1, 0], [["w"], ["w"]]),
        _gen("v", 0, "v", [0, 1], [["w"], ["w"]]),
        _gen("b", 1, "b", [0, 1], [["v"], ["b"]]),
    ])


def _pending_operand():
    # b = (z, y, b·z): the session multiplying b by z meets the pending
    # product b·z as an operand of a section product
    return _custom(3, [
        _gen("z", 0, "y", [1, 2, 0], [[], [], []]),
        _gen("y", 0, "z", [2, 0, 1], [[], [], []]),
        _gen("b", 1, "c", [0, 1, 2], [["z"], ["y"], ["b", "z"]]),
        _gen("c", 1, "b", [0, 1, 2], [["y"], ["z"], ["y", "c"]]),
    ])


def _two_spines():
    # the involutions b = (c, 1) and c = (b, w) refer to each other, so
    # their component needs a second bisimulation round
    return _custom(2, [
        _gen("w", 0, "w", [1, 0], [[], []]),
        _gen("b", 1, "b", [0, 1], [["c"], []]),
        _gen("c", 1, "c", [0, 1], [["b"], ["w"]]),
    ])


@pytest.mark.parametrize("make_spec, sizes", [
    (_pending_operand, [3, 18, 90, 450, 2250, 11070]),
    (_two_spines, [2, 8, 18, 36, 70, 132, 242, 432]),
], ids=["pending_operand", "two_spines"])
def test_session_branch_families_match_oracle(make_spec, sizes):
    spec = make_spec()
    atlas = build_atlas(spec, len(sizes) - 1)
    assert atlas.table(0).sphere_sizes() == sizes
    assert sizes[:5] == oracle_spheres(spec, 8, 4)
    atlas.engine.audit()


def test_session_with_two_cyclic_components():
    spec = _two_cycles()
    sizes = build_atlas(spec, 5).table(0).sphere_sizes()
    assert sizes[:3] == [2, 4, 4]
    assert sizes == oracle_spheres(spec, 8, 5)


@pytest.mark.parametrize("make_spec, radius", [
    (catalog.neumann6, 1),
    (lambda: catalog.nekrashevych_D((1,), (0, 1)), 6),
    (_two_letter_ggs, 5),
], ids=["neumann6", "nekrashevych_preperiod", "two_letter_ggs"])
def test_inverse_of_every_ball_element(make_spec, radius):
    # each family has generators whose sections refer back to themselves,
    # so inverting its ball settles cyclic components
    spec = make_spec()
    eng = build_atlas(spec, radius).engine
    for c, table in reference_atlas(spec, radius, eng).tables.items():
        for sphere in table.spheres:
            for u in sphere:
                w = eng.inv(c, u)
                assert eng.mul(c, u, w) == 0
                assert eng.inv(c, w) == u


# Families whose balls settle cyclic components.  Their ids are pinned by a
# sha256 of every class's roots/children tables and the keys of the representatives in sphere order, kept in
# tests/id_fingerprints.json; regenerate it (only after a deliberate
# renumbering, recorded in CHANGES.md) with:
#
#     GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest -q tests/test_engine.py -k fingerprint
CYCLIC_FAMILIES = {
    "neumann6-r1": (catalog.neumann6, 1),
    "nekrashevych_preperiod-r6":
        (lambda: catalog.nekrashevych_D((1,), (0, 1)), 6),
    "two_letter_ggs-r5": (_two_letter_ggs, 5),
    "two_cycles-r5": (_two_cycles, 5),
    "cycle3-r5": (_cycle3, 5),
    "hidden_root-r6": (_hidden_root, 6),
    "ggs4_102-r3": (lambda: catalog.ggs(4, (1, 0, 2)), 3),
    "pending_operand-r5": (_pending_operand, 5),
    "two_spines-r7": (_two_spines, 7),
}
FINGERPRINTS = Path(__file__).resolve().parent / "id_fingerprints.json"


def _id_fingerprint(atlas):
    tables = [[t.roots, t.children] for t in atlas.engine.tables]
    keys = [atlas.tables[c].keys for c in sorted(atlas.tables)]
    return hashlib.sha256(json.dumps([tables, keys]).encode()).hexdigest()


def test_ids_match_fingerprints():
    got = {name: _id_fingerprint(build_atlas(make_spec(), radius))
           for name, (make_spec, radius) in CYCLIC_FAMILIES.items()}
    if os.environ.get("GOLDEN_UPDATE") == "1":
        FINGERPRINTS.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    assert got == json.loads(FINGERPRINTS.read_text())


def _session_mul(eng, c, u, v, store=True):
    s = engine._Session(eng)
    return s.run(s.mul_node(c, u, v))


def _engine_state(atlas):
    eng = atlas.engine
    return ([atlas.tables[c].keys for c in sorted(atlas.tables)],
            [(t.roots, t.children) for t in eng.tables], eng.n_ids)


@pytest.mark.parametrize("make_spec, radius", [
    *CYCLIC_FAMILIES.values(),
    (catalog.neumann6, 2),
    (catalog.fabrykowski_gupta, 5),
    (catalog.first_grigorchuk, 8),
    (lambda: catalog.sunic(3, 2, (0,)), 3),
], ids=[*CYCLIC_FAMILIES, "neumann6-r2", "fg-r5", "grigorchuk-r8",
        "sunic320-r3"])
def test_one_step_products_match_session_products(monkeypatch, make_spec,
                                                  radius):
    # the session is the general product algorithm and the reference here:
    # settling every product in one must give the same ids in the same order
    spec = make_spec()
    expected = _engine_state(build_atlas(spec, radius))
    monkeypatch.setattr(Engine, "mul", _session_mul)
    assert _engine_state(build_atlas(spec, radius)) == expected


def test_self_loops_settle_without_a_session(sessions):
    # neumann6 r2 multiplies generators whose sections refer back to the
    # product itself; those products are settled in place, so the sessions
    # left are the 354 generators' and one inverse's
    eng = build_atlas(catalog.neumann6(), 2).engine
    assert sessions[0] <= 355
    eng.audit()


def _ids_on_cycles(eng):
    """(class, id) pairs on a cycle of the child-reference graph, from the
    strongly connected components found by Kosaraju's algorithm."""
    def out(v):
        c, i = v
        return [(eng.succ[c], j) for j in eng.tables[c].children[i]]

    nodes = [(c, i) for c, t in enumerate(eng.tables)
             for i in range(len(t.roots))]
    order, seen = [], set()
    for s in nodes:
        if s in seen:
            continue
        seen.add(s)
        stack = [(s, iter(out(s)))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(out(w))))
                    break
            else:
                stack.pop()
                order.append(v)
    into = {v: [] for v in nodes}
    for v in nodes:
        for w in out(v):
            into[w].append(v)
    done, on_cycle = set(), set()
    for s in reversed(order):
        if s in done:
            continue
        done.add(s)
        comp = [s]
        for v in comp:
            for w in into[v]:
                if w not in done:
                    done.add(w)
                    comp.append(w)
        if len(comp) > 1 or s in out(s):
            on_cycle.update(comp)
    return on_cycle


@pytest.mark.parametrize("name", CYCLIC_FAMILIES)
def test_ids_on_cycles_are_listed_by_root(name):
    # a cyclic component is matched only against the ids listed under its
    # root, so an unlisted id on a cycle would be interned a second time
    make_spec, radius = CYCLIC_FAMILIES[name]
    eng = build_atlas(make_spec(), radius).engine
    on_cycle = _ids_on_cycles(eng)
    assert len(on_cycle) > eng.nclasses   # more than the identities
    for c, i in on_cycle:
        t = eng.tables[c]
        assert i in t.cyclic[t.roots[i]]


def _two_cycles_engine():
    eng = build_atlas(_two_cycles(), 3).engine
    eng.audit()
    return eng, eng.tables[0], eng.gen_id(0, "w")


def test_audit_finds_bisimilar_ids():
    eng, t, w = _two_cycles_engine()
    # a second w = (w, w)·swap, whose sections are the copy itself
    i = len(t.roots)
    root, ch = t.roots[w], (i, i)
    t.roots.append(root)
    t.children.append(ch)
    t.intern[root][ch] = i
    t.cyclic[root].append(i)
    with pytest.raises(AssertionError,
                       match=rf"bisimilar ids \[\(0, {w}\), \(0, {i}\)\]"):
        eng.audit()


def test_audit_finds_intern_disagreement():
    eng, t, w = _two_cycles_engine()
    t.intern[t.roots[w]][t.children[w]] = 0
    with pytest.raises(AssertionError,
                       match=f"intern disagrees with the tables at id {w}"):
        eng.audit()


def test_audit_finds_id_under_wrong_root():
    eng, t, w = _two_cycles_engine()
    ch = t.children[w]
    other = next(r for r in t.intern if r != t.roots[w])
    t.intern[other][ch] = t.intern[t.roots[w]].pop(ch)
    with pytest.raises(AssertionError,
                       match=f"intern disagrees with the tables at id {w}"):
        eng.audit()


def test_audit_counts_every_key():
    eng, t, w = _two_cycles_engine()
    other = next(r for r in t.intern if r != t.roots[w])
    t.intern[other][t.children[w]] = w
    with pytest.raises(AssertionError,
                       match=rf"class 0: {len(t.roots)} ids but "
                             rf"{len(t.roots) + 1} keys"):
        eng.audit()


def test_audit_finds_unlisted_cycle():
    eng, t, w = _two_cycles_engine()
    t.cyclic[t.roots[w]].remove(w)
    with pytest.raises(AssertionError,
                       match=f"id {w} is on a reference cycle"):
        eng.audit()


@pytest.mark.parametrize("make_spec, radius", [
    (catalog.fabrykowski_gupta, 5),
    (catalog.neumann6, 1),
], ids=["fg", "neumann6"])
def test_intern_keys_share_pooled_roots(make_spec, radius):
    eng = build_atlas(make_spec(), radius).engine
    for t in eng.tables:
        assert len({id(p) for p in t.roots}) == len(set(t.roots))
        for root, ids in t.intern.items():
            for ch, i in ids.items():
                assert root is t.roots[i] and ch is t.children[i]


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
