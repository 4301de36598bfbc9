import pytest

from treegrowth import criterion as cr
from treegrowth import incompressible as inc


@pytest.fixture(scope="module")
def fg_dp(fg_atlas6, fg_report6):
    return inc.factorization_dp(fg_atlas6, fg_report6, 0, 6)


def test_partition_covers_sphere(fg_atlas6, fg_dp):
    N, _ = fg_dp
    table = fg_atlas6.table(0)
    for n in range(1, 7):
        big, small = cr.partition(table, N, n, 0.45)
        assert len(big) + len(small) == len(table.sphere(n))
        assert set(big).isdisjoint(small)


def test_pair_factors(fg_atlas6, fg_report6, fg_dp):
    N, back = fg_dp
    table = fg_atlas6.table(0)
    for g in table.spheres[6][:200]:
        factors = inc.factors_of(back, g)
        data = cr.pair_factors(fg_atlas6, fg_report6, 0, factors, 0.45)
        assert len(data.h) == len(factors) // 2
        assert len(data.small) + len(data.large) == len(data.h)
        # a pair still additive to depth K would contradict minimality
        assert data.pairs_in_I == []
        if len(factors) % 2:
            assert data.leftover == factors[-1]
        else:
            assert data.leftover is None


def test_small_factor_bound_below_threshold(fg_atlas6, fg_report6, fg_dp):
    N, back = fg_dp
    table = fg_atlas6.table(0)
    big, _ = cr.partition(table, N, 3, 0.45)
    # n = 3 <= 3/epsilon: the bound is not asserted there
    assert cr.check_small_factor_lower_bound(
        fg_atlas6, fg_report6, 0, back, big, 3, 0.45) == (None, [])


def test_small_factor_bound_reports_non_minimal_pair(fg_atlas6, fg_report6):
    eng = fg_atlas6.engine
    b1 = eng.gen_id(0, "b1")
    g = eng.mul(0, b1, b1)
    # hand-built chain g = b1 * b1, whose pair b1*b1 = b2 is a generator and
    # so lies in the depth-K set: the factorization cannot be minimal
    assert fg_report6.in_Ik(0, g, fg_report6.K)
    back = {0: None, b1: (0, b1), g: (b1, b1)}
    assert cr.check_small_factor_lower_bound(
        fg_atlas6, fg_report6, 0, back, [g], 7, 0.45) == (True, [g])


def test_sections_at_depth(fg_atlas6):
    eng = fg_atlas6.engine
    g = eng.element_from_word(0, ["b1", "a120", "b1"])
    secs1 = cr.sections_at_depth(fg_atlas6, 0, g, 1)
    assert len(secs1) == 3
    secs2 = cr.sections_at_depth(fg_atlas6, 0, g, 2)
    assert len(secs2) == 9
    s1 = cr.level_section_sum(fg_atlas6, 0, g, 1)
    s2 = cr.level_section_sum(fg_atlas6, 0, g, 2)
    assert s2 <= s1 <= fg_atlas6.table(0).length(g)


def test_level_reduction_monotone(fg_atlas6, fg_report6, fg_dp):
    N, _ = fg_dp
    table = fg_atlas6.table(0)
    for n in (5, 6):
        big, _ = cr.partition(table, N, n, 0.45)
        for level in (2, 3):
            # section sums never increase with depth, so a pass at the
            # level-function level persists below it
            assert cr.check_level_reduction(
                fg_atlas6, big, 0, n, 0.45, level) is not False


def test_run_criterion_fg(fg_atlas6, fg_report6):
    res = cr.run_criterion(fg_atlas6, fg_report6, 0, 6, 0.45)
    table = fg_atlas6.table(0)
    assert res.ok
    assert all(sum(res.partition_sizes[n]) == len(table.sphere(n))
               for n in res.n_range)
    assert res.level_used == 2
    # the 6/epsilon radius exceeds the table, so the level is a lower bound;
    # the reduction check stays conclusive because section sums are monotone
    assert not res.level_exact
    # n <= 3/epsilon has nothing to check; the rest must pass
    for n in res.n_range:
        assert res.small_factor_ok[n] is not False
        assert res.level_reduction_ok[n] is not False


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
