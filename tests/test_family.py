import pytest

from treegrowth import catalog, validate
from treegrowth.family import (FamilyError, FamilySpec, GeneratorSpec,
                               LevelSpec, shift)


def _swap_level(children=((), ())):
    a = GeneratorSpec("a", 0, "a", (1, 0), ((), ()))
    b = GeneratorSpec("b", 1, "b", (0, 1), children)
    return LevelSpec((a, b))


def test_pseudolength_restricted():
    with pytest.raises(FamilyError):
        GeneratorSpec("x", 2, "x", (0, 1), ((), ()))


def test_duplicate_names_rejected():
    g = GeneratorSpec("a", 0, "a", (1, 0), ((), ()))
    with pytest.raises(FamilyError):
        LevelSpec((g, g))


def test_degree_and_period_constraints():
    with pytest.raises(FamilyError):
        FamilySpec(1, (), (_swap_level(),))
    with pytest.raises(FamilyError):
        FamilySpec(2, (), ())


def test_class_of_level_eventually_periodic():
    lv = _swap_level((("b",), ()))
    spec = FamilySpec(2, (lv,), (lv, lv))
    assert spec.num_classes == 3
    assert [spec.class_of_level(k) for k in range(6)] == [0, 1, 2, 1, 2, 1]
    assert spec.succ_class(0) == 1
    assert spec.succ_class(1) == 2
    assert spec.succ_class(2) == 1   # wraps into the period


def test_shift():
    lv = _swap_level((("b",), ()))
    spec = FamilySpec(2, (lv,), (lv, lv), name="x")
    assert shift(spec, 0) is spec
    s1 = shift(spec, 1)
    assert len(s1.preperiod) == 0 and len(s1.period) == 2
    s2 = shift(spec, 2)
    assert s2.period == (spec.period[1], spec.period[0])
    with pytest.raises(ValueError):
        shift(spec, -1)


def test_validate_catalog_groups():
    for spec in (catalog.first_grigorchuk(), catalog.fabrykowski_gupta(),
                 catalog.gupta_sidki(), catalog.nekrashevych_D((), (0, 1))):
        report = validate(spec)
        assert report.ok, report.summary()


@pytest.mark.parametrize("gens,detail", [
    ([("b", 1, "c", (0, 1))], "b: inverse c missing"),
    ([("b", 1, "c", (0, 1)), ("c", 1, "b", (0, 1)), ("d", 1, "c", (0, 1))],
     "d/c: pairing not an involution"),
    ([("b", 1, "c", (0, 1)), ("c", 0, "b", (0, 1))],
     "b: inverse has different pseudolength"),
    ([("b", 0, "c", (1, 0)), ("c", 0, "b", (0, 1))],
     "b: inverse root permutation mismatch"),
], ids=["inverse-missing", "not-an-involution", "pseudolength", "root"])
def test_validate_symmetry_failure(gens, detail):
    a = GeneratorSpec("a", 0, "a", (1, 0), ((), ()))
    gens = tuple(GeneratorSpec(name, length, inv, root, ((), ()))
                 for name, length, inv, root in gens)
    report = validate(FamilySpec(2, (), (LevelSpec((a,) + gens),)))
    assert [(r.check, r.detail) for r in report.failures()
            if r.check == "symmetry"] == [("symmetry", detail)]


def test_validate_child_reference_failure():
    lv = _swap_level((("nope",), ()))
    report = validate(FamilySpec(2, (), (lv,)))
    assert any(r.check == "child_references" and not r.ok
               for r in report.results)


def test_validate_non_expansion_failure():
    lv = _swap_level((("b",), ("b",)))   # two positive children
    report = validate(FamilySpec(2, (), (lv,)))
    assert any(r.check == "non_expansion" and not r.ok for r in report.results)


def test_validate_transitivity_failure():
    b = GeneratorSpec("b", 1, "b", (0, 1), (("b",), ()))
    report = validate(FamilySpec(2, (), (LevelSpec((b,)),)))
    bad = [r for r in report.results if not r.ok]
    assert [r.check for r in bad] == ["level_transitivity"]


def test_report_summary_mentions_checks():
    report = validate(catalog.fabrykowski_gupta())
    text = report.summary()
    for check in ("symmetry", "child_references", "non_expansion",
                  "zero_subgroup_finite", "level_transitivity"):
        assert check in text
