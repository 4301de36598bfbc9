import pytest
from hypothesis import assume, given, settings

from treegrowth import build_atlas, catalog
from treegrowth import criterion as cr
from treegrowth import incompressible as inc

from test_engine import _hidden_root
from test_incompressible import spinal_data


@pytest.fixture(scope="module")
def fg_dp(fg_atlas6, fg_report6):
    return inc.factorization_dp(fg_atlas6, fg_report6, 0, 6)


def test_partition_covers_sphere(fg_atlas6, fg_dp):
    N, _ = fg_dp
    table = fg_atlas6.table(0)
    for n in range(1, 7):
        big, small = cr.partition(table, N, n, 0.45)
        assert sum(table.orbits[g] for g in big + small) == \
            table.sphere_sizes()[n]
        assert set(big).isdisjoint(small)


def test_pair_factors(fg_atlas6, fg_report6, fg_dp):
    N, back = fg_dp
    table = fg_atlas6.table(0)
    for g in table.spheres[6][:200]:
        factors = inc.factors_of(back, g)
        pairs = cr.pair_factors(fg_atlas6, 0, factors)
        assert len(pairs) == len(factors) // 2
        # a pair still additive to depth K would contradict minimality
        assert not any(fg_report6.first_fail[0][h] < 0 for h in pairs)
        # the pairs and the unpaired last factor add up to g's length
        left = table.lengths[factors[-1][1]] if len(factors) % 2 else 0
        assert sum(table.lengths[h] for h in pairs) + left == 6


def _element_pairs(atlas, report, c, factors):
    """(length, depth-K membership) of each of the factors' pairs, each
    factor built as the element A[ia]·h and each pair multiplied by
    Engine.mul."""
    eng, table = atlas.engine, atlas.table(c)
    elements = [eng.mul(c, table.zero.ids[ia],
                        eng._intern(c, *table.element(h)), store=False)
                for ia, h in factors]
    pairs = [eng.mul(c, x, y, store=False)
             for x, y in zip(elements[::2], elements[1::2])]
    return [(table.length(h), report.in_Ik(c, h, report.K)) for h in pairs]


# (id, family, radius, whole sphere): the pairs of the big part at n = 7 and
# 8.  No non-rooted family has a big part there (_hidden_root and _cycle3
# reach at most 3 factors at n = 8, _two_cycles has 4 elements), so
# _hidden_root compares every reached representative instead.
PAIR_CASES = [
    ("fg-r8", catalog.fabrykowski_gupta, 8, False),
    ("grigorchuk-r10", catalog.first_grigorchuk, 10, False),
    ("hidden_root-r8", _hidden_root, 8, True),
]


@pytest.mark.parametrize("make,radius,whole",
                         [case[1:] for case in PAIR_CASES],
                         ids=[case[0] for case in PAIR_CASES])
def test_pair_factors_match_element_products(make, radius, whole):
    atlas = build_atlas(make(), radius)
    report = inc.approximate_I_infty(atlas, 6)
    table = atlas.table(0)
    N, back = inc.factorization_dp(atlas, report, 0, 8)
    pairs = 0
    for n in (7, 8):
        big, small = cr.partition(table, N, n, 0.45)
        for g in big + small if whole else big:
            factors = inc.factors_of(back, g)
            got = cr.pair_factors(atlas, 0, factors)
            assert [(table.lengths[h], report.first_fail[0][h] < 0)
                    for h in got] == _element_pairs(atlas, report, 0, factors)
            pairs += len(got)
    assert pairs


def test_small_factor_bound_below_threshold(fg_atlas6, fg_report6, fg_dp):
    N, back = fg_dp
    big, _ = cr.partition(fg_atlas6.table(0), N, 3, 0.45)
    # n = 3 <= 3/epsilon: the bound is not asserted there
    assert cr.check_small_factor_lower_bound(
        fg_atlas6, fg_report6, 0, N, back, big, 3, 0.45) == (None, [])


def test_small_factor_bound_reports_non_minimal_pair(fg_atlas6, fg_report6):
    eng, table = fg_atlas6.engine, fg_atlas6.table(0)
    b1 = eng.gen_id(0, "b1")
    h, j1, j3 = table.find(b1)
    g = table.find(eng.mul(0, b1, b1))[0]
    # hand-built chain g ~ b1 * b1 = A[j1]·h·A[j3]·A[j1]·h·A[j3], whose pair
    # b1*b1 = b2 is a generator and so lies in the depth-K set: the
    # factorization cannot be minimal
    assert fg_report6.first_fail[0][g] < 0
    N = {0: 0, h: 1, g: 2}
    back = {0: None, h: (0, 0, h), g: (h, table.zero.times[j3][j1], h)}
    # g has length 1, so at n = 7 its pair does not add up to n
    assert cr.check_small_factor_lower_bound(
        fg_atlas6, fg_report6, 0, N, back, [g], 7, 0.45) == (False, [g])
    # at n = 1000 both fail the exact sum, and the scan goes on past b1 to
    # report g
    assert cr.check_small_factor_lower_bound(
        fg_atlas6, fg_report6, 0, N, back, [h, g], 1000, 0.45) == \
        (False, [g])


def _criterion_with_faulty_dp(monkeypatch, fault):
    """run_criterion on the FG radius-8 ball to n = 8 at epsilon = 0.45,
    after fault(atlas, report, N, back, big) has changed the DP's output.
    big is the big part at n = 8, the top radius, so no other element's
    witness runs through an element of it."""
    dp = inc.factorization_dp

    def faulty_dp(atlas, report, c, max_n):
        N, back = dp(atlas, report, c, max_n)
        fault(atlas, report, N, back,
              cr.partition(atlas.table(c), N, 8, 0.45)[0])
        return N, back

    monkeypatch.setattr(inc, "factorization_dp", faulty_dp)
    atlas = build_atlas(catalog.fabrykowski_gupta(), 8)
    report = inc.approximate_I_infty(atlas, 6)
    return cr.run_criterion(atlas, report, 0, 8, 0.45)


def test_small_factor_bound_catches_a_wrong_count(monkeypatch):
    # N one too high: the witness no longer has N factors, though the
    # element stays in the big part
    def one_too_high(atlas, report, N, back, big):
        N[big[0]] += 1

    res = _criterion_with_faulty_dp(monkeypatch, one_too_high)
    assert res.small_factor_ok[8] is False
    assert res.failures == ["small-factor bound fails at n=8"]


def test_small_factor_bound_catches_a_misread_length(monkeypatch):
    # the last backpointer of a big-part element names a depth-K
    # representative one shorter than its factor, picked so that no pair
    # lands in the depth-K set, where the not-minimal check would see it
    def misread(atlas, report, N, back, big):
        table = atlas.table(0)
        for g in big:
            p, ia, h = back[g]
            head = inc.factors_of(back, g)[:-1]
            for h2 in (h2 for sphere in table.spheres for h2 in sphere
                       if report.first_fail[0][h2] < 0):
                if table.lengths[h2] == table.lengths[h] - 1 and not any(
                        in_I for _, in_I in
                        _element_pairs(atlas, report, 0, head + [(ia, h2)])):
                    back[g] = (p, ia, h2)
                    return
        raise AssertionError("no big-part factor can be misread")

    res = _criterion_with_faulty_dp(monkeypatch, misread)
    assert res.small_factor_ok[8] is False
    assert res.failures == ["small-factor bound fails at n=8"]


@pytest.mark.parametrize("name", ["fg_atlas6", "grig_atlas8"])
def test_level_section_sum_matches_engine_sections(request, name):
    # every representative of every class, at depths 0 to 3, against its
    # level-L sections walked through the engine's children, each one's
    # length read off its own class's table; the memo is shared by all of
    # them, as by one check_level_reduction call
    atlas = request.getfixturevalue(name)
    eng, memo = atlas.engine, {}
    for c, table in atlas.tables.items():
        for g in range(len(table.keys)):
            sums = [table.lengths[g]]
            level = [(eng.succ[c], x) for x in table.element(g)[1]]
            for _ in range(3):
                sums.append(sum(atlas.table(cc).length(x) for cc, x in level))
                level = [(eng.succ[cc], y) for cc, x in level
                         for y in eng.children(cc, x)]
            assert [cr.level_section_sum(atlas, c, g, depth, memo)
                     for depth in range(4)] == sums
            assert sums == sorted(sums, reverse=True)


def test_level_reduction_monotone(fg_spec):
    # n = 7 and 8 exceed 3/epsilon, so the check is asserted there.  The
    # depth-0 "section" of g is g itself, of length n, not below
    # (8-epsilon)·n/8; from level 1 on the big part passes, and section
    # sums never increase with depth, so the pass persists below it
    atlas = build_atlas(fg_spec, 8)
    report = inc.approximate_I_infty(atlas, 6)
    N, _ = inc.factorization_dp(atlas, report, 0, 8)
    for n in (7, 8):
        big, _ = cr.partition(atlas.table(0), N, n, 0.45)
        assert big
        assert [cr.check_level_reduction(atlas, big, 0, n, 0.45, level)
                for level in range(5)] == [False, True, True, True, True]


def test_run_criterion_fg(fg_atlas6, fg_report6):
    res = cr.run_criterion(fg_atlas6, fg_report6, 0, 6, 0.45)
    table = fg_atlas6.table(0)
    assert res.ok
    assert all(sum(res.partition_sizes[n]) == table.sphere_sizes()[n]
               for n in res.n_range)
    assert res.level_used == 2
    # the 6/epsilon radius exceeds the table, so the level is a lower bound;
    # the reduction check stays conclusive because section sums are monotone
    assert not res.level_exact
    # n <= 3/epsilon has nothing to check; the rest must pass
    for n in res.n_range:
        assert res.small_factor_ok[n] is not False
        assert res.level_reduction_ok[n] is not False


# FG partition sizes (big, small) at epsilon = 0.45, n = 1..8: the golden
# criterion file stops at r6, where every n <= 3/epsilon asserts nothing
FG_PARTITION_R8 = {1: (18, 0), 2: (72, 0), 3: (72, 216), 4: (576, 576),
                   5: (288, 4008), 6: (2448, 12528), 7: (1152, 50832),
                   8: (7632, 167736)}


def test_run_criterion_fg_asserted(fg_atlas10, fg_report10):
    res = cr.run_criterion(fg_atlas10, fg_report10, 0, 8, 0.45)
    assert res.partition_sizes == FG_PARTITION_R8
    # n = 7 and 8 exceed 3/epsilon, so the small-factor bound is asserted
    assert res.small_factor_ok[7] is True
    assert res.small_factor_ok[8] is True
    assert res.level_reduction_ok[7] is True
    assert res.level_reduction_ok[8] is True
    assert res.level_used == 2
    assert res.failures == []


def test_run_criterion_interns_nothing():
    # the DP's products and the pairs checked at n = 7 and 8 all lie in the
    # ball, so the criterion adds no id at its class
    atlas = build_atlas(catalog.fabrykowski_gupta(), 8)
    report = inc.approximate_I_infty(atlas, 6)
    before = len(atlas.engine.tables[0].roots)
    res = cr.run_criterion(atlas, report, 0, 8, 0.45)
    assert res.small_factor_ok[7] is True and res.small_factor_ok[8] is True
    assert len(atlas.engine.tables[0].roots) == before


def test_run_criterion_epsilon_range(fg_atlas6, fg_report6):
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            cr.run_criterion(fg_atlas6, fg_report6, 0, 4, eps)


def test_theorem_hypotheses_fg(fg_atlas6, fg_report6):
    hyp = cr.theorem_hypotheses_report(fg_atlas6, fg_report6, 6)
    assert hyp.generators_incompressible
    assert hyp.generator_bound == 4
    assert hyp.wreath_ok
    assert hyp.poly_bound is not None and hyp.poly_bound.ok
    assert hyp.envelope[1:] == [18, 72, 216, 576, 1296, 2592]
    # the envelope grows slower than the certified degree-4 polynomial
    assert hyp.fit_exponent < 4
    assert not hyp.failures


def test_theorem_hypotheses_grig(grig_atlas8):
    rep = inc.approximate_I_infty(grig_atlas8, 6)
    hyp = cr.theorem_hypotheses_report(grig_atlas8, rep, 8)
    assert hyp.generators_incompressible
    assert hyp.wreath_ok
    assert hyp.poly_bound is None    # not a ternary spinal family


def _theorem_failures(spec):
    """What the paper's theorem forbids on a ternary spinal family, at
    radius 8 with K = 6 and epsilon = 0.45: a failure of run_criterion to
    n = 8 or of theorem_hypotheses_report, a small-factor bound left
    unasserted at n = 7 or 8, or a violated polynomial bound."""
    atlas = build_atlas(spec, 8)
    report = inc.approximate_I_infty(atlas, 6)
    res = cr.run_criterion(atlas, report, 0, 8, 0.45)
    hyp = cr.theorem_hypotheses_report(atlas, report, 8)
    failures = res.failures + hyp.failures
    failures += [f"small-factor bound not asserted at n={n}"
                 for n in (7, 8) if res.small_factor_ok[n] is None]
    if not inc.check_polynomial_bound(spec, report, 0).ok:
        failures.append("polynomial bound violated")
    return failures


# The paper proves subexponential growth for these groups, and the harness
# checks only inequalities proved for them, so any failure is a bug here.
# Eight draws, preperiodic ones and periods up to 3 among them, take about
# 11 s (2 cores, Python 3.11).
@settings(max_examples=8, derandomize=True, deadline=None)
@given(spinal_data(degrees=(3,)))
def test_theorem_holds_on_ternary_spinal_draws(data):
    try:
        spec = catalog.spinal(data)
    except catalog.CatalogError:
        assume(False)
    assert _theorem_failures(spec) == []


def test_theorem_oracle_negative_control(monkeypatch):
    # a DP that loses its deepest layer leaves elements without a
    # factorization, and the oracle must report them
    dp = inc.factorization_dp

    def drop_last_layer(*args):
        N, back = dp(*args)
        top = max(N.values())
        return {q: j for q, j in N.items() if j < top}, back

    monkeypatch.setattr(inc, "factorization_dp", drop_last_layer)
    spec = catalog.spinal(catalog.SpinalData(
        3, (3,), ((1, 2, 0),), (), ((((0, 1, 2),), ((2, 0, 1),)),)))
    assert any(f.startswith("no additive factorization")
               for f in _theorem_failures(spec))
