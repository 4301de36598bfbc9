"""Level-indexed presentations of non-length-expanding similar families.

A family is an eventually periodic sequence of levels.  Each level carries a
finite symmetric generating set split into zero-length generators (whose
products form a finite subgroup) and unit-length generators.  Every generator
decomposes into d child words at the next level, and the child pseudolengths
may never exceed the generator's own pseudolength.
"""

from dataclasses import dataclass, field

from . import perms


class FamilyError(ValueError):
    """A structurally invalid family description."""


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    pseudolength: int          # 0 or 1
    inverse: str               # name of the inverse generator at the same level
    root: tuple                # image tuple on {0..d-1}
    children: tuple            # d tuples of generator names at the next level

    def __post_init__(self):
        if self.pseudolength not in (0, 1):
            raise FamilyError(f"generator {self.name}: pseudolength must be 0 or 1")


@dataclass(frozen=True)
class LevelSpec:
    generators: tuple

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise FamilyError("duplicate generator names in level")

    def gen(self, name):
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    @property
    def zero_generators(self):
        return tuple(g for g in self.generators if g.pseudolength == 0)

    @property
    def unit_generators(self):
        return tuple(g for g in self.generators if g.pseudolength == 1)


@dataclass(frozen=True)
class FamilySpec:
    degree: int
    preperiod: tuple
    period: tuple
    name: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.degree < 2:
            raise FamilyError("degree must be at least 2")
        if not self.period:
            raise FamilyError("period must be nonempty")

    @property
    def num_classes(self):
        return len(self.preperiod) + len(self.period)

    def class_of_level(self, k):
        """Index into preperiod+period for tree level k >= 0."""
        p = len(self.preperiod)
        if k < p:
            return k
        return p + (k - p) % len(self.period)

    def succ_class(self, c):
        """Class of the next level down the tree."""
        return c + 1 if c + 1 < self.num_classes else len(self.preperiod)

    def level(self, c):
        """LevelSpec for class index c (0 <= c < num_classes)."""
        p = len(self.preperiod)
        return self.preperiod[c] if c < p else self.period[c - p]

    def classes(self):
        return range(self.num_classes)


def shift(spec, k):
    """Re-base the family at tree level k (the left-shift applied k times)."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    if k == 0:
        return spec
    p, q = len(spec.preperiod), len(spec.period)
    if k < p:
        pre = spec.preperiod[k:]
        per = spec.period
    else:
        start = (k - p) % q
        pre = ()
        per = spec.period[start:] + spec.period[:start]
    return FamilySpec(spec.degree, tuple(pre), tuple(per),
                      name=f"{spec.name}<<{k}" if spec.name else "")


@dataclass
class CheckResult:
    check: str
    level: int          # class index, -1 for family-wide checks
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    results: list

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.ok]

    def summary(self):
        lines = []
        for r in self.results:
            mark = "PASS" if r.ok else "FAIL"
            where = f"level {r.level}" if r.level >= 0 else "family"
            lines.append(f"[{mark}] {r.check} ({where}){': ' + r.detail if r.detail else ''}")
        return "\n".join(lines)


def validate(spec):
    """Run all definitional checks; failures are reported, never raised."""
    results = []
    d = spec.degree

    for c in spec.classes():
        level = spec.level(c)
        by_name = {g.name: g for g in level.generators}
        nxt_len = {g.name: g.pseudolength
                   for g in spec.level(spec.succ_class(c)).generators}

        # symmetry: inverse pairing is a well-formed involution
        ok, detail = True, ""
        for g in level.generators:
            h = by_name.get(g.inverse)
            if h is None:
                ok, detail = False, f"{g.name}: inverse {g.inverse} missing"
                break
            if h.inverse != g.name:
                ok, detail = False, f"{g.name}/{h.name}: pairing not an involution"
                break
            if h.pseudolength != g.pseudolength:
                ok, detail = False, f"{g.name}: inverse has different pseudolength"
                break
            if h.root != perms.inverse(g.root):
                ok, detail = False, f"{g.name}: inverse root permutation mismatch"
                break
        results.append(CheckResult("symmetry", c, ok, detail))

        # per-generator structural checks
        ok, detail = True, ""
        for g in level.generators:
            if not perms.is_perm(g.root, d):
                ok, detail = False, f"{g.name}: root is not a permutation of degree {d}"
                break
            if len(g.children) != d:
                ok, detail = False, f"{g.name}: expected {d} child words"
                break
            missing = [n for w in g.children for n in w if n not in nxt_len]
            if missing:
                ok, detail = False, f"{g.name}: unknown child generator {missing[0]}"
                break
        results.append(CheckResult("child_references", c, ok, detail))
        if not ok:
            continue

        # non-expansion: child pseudolengths sum to at most the generator's own
        ok, detail = True, ""
        for g in level.generators:
            sums = [sum(nxt_len[n] for n in w) for w in g.children]
            if sum(sums) > g.pseudolength:
                ok, detail = False, (f"{g.name}: children carry total pseudolength "
                                     f"{sum(sums)} > {g.pseudolength}")
                break
            if g.pseudolength == 1 and sum(1 for s in sums if s > 0) > 1:
                ok, detail = False, f"{g.name}: more than one child with positive length"
                break
        results.append(CheckResult("non_expansion", c, ok, detail))

        # finiteness/closure of the zero-length subgroup (root part only here;
        # the engine re-derives the full closure exactly)
        ok, detail = True, ""
        try:
            zc = perms.closure([g.root for g in level.zero_generators], d)
            detail = f"root closure size {len(zc)}"
        except RuntimeError:
            ok, detail = False, "zero-length subgroup closure exceeded cap"
        results.append(CheckResult("zero_subgroup_finite", c, ok, detail))

        # level transitivity of reachable root permutations
        roots = [g.root for g in level.generators]
        ok = perms.is_transitive(roots, d)
        detail = "" if ok else (
            f"root permutations generate an intransitive group "
            f"(orbit of 1 has size {len(perms.orbit([tuple(r) for r in roots], 0, d))})")
        results.append(CheckResult("level_transitivity", c, ok, detail))

    return ValidationReport(results)
