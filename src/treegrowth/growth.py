"""Sphere and ball enumeration for the word pseudonorm, plus the finite
counting inequalities tied to growth rates.

The zero-length generators have pseudolength 0, so every sphere is a union
of double cosets A·g·A of the finite subgroup A they generate.  A table
keeps one interned representative per double coset, with the size of its
orbit under A×A: radius-(n+1) representatives come from products g·a·s of
radius-n representatives g with a in A and unit-length generators s, each
brought to its canonical form, so each double coset is found exactly at its
minimal pseudolength.  Every representative records the product it was
found as, which gives one geodesic word for every ball element.
"""

from dataclasses import dataclass, field
from itertools import accumulate
from math import factorial
from operator import itemgetter

from . import perms
from .engine import BudgetExceeded, Engine


class TableExhausted(LookupError):
    """A length or membership query beyond the enumerated radius."""


class ZeroGroup:
    """The subgroup A generated by the zero-length generators at one level
    class, acting on ids from both sides.

    A is listed breadth first from the identity under right multiplication
    by the zero-length generators; `links[i]` is (j, name) with
    A[i] = A[j]·name, None for the identity.  The member A[i1]·g·A[i3] of
    g's orbit has root α1∘π∘α3, and section at x equal to
    (A[i1])_{π∘α3(x)} · g_{α3(x)} · (A[i3])_x.  The canonical form of an
    element is the member with the least (root, sections) key.  A is rooted
    when every zero-length generator has identity sections; then a member's
    sections are g's permuted by α3 and the key needs no product.
    Otherwise they are formed at the successor class.

    Enumeration, its skip table and the factorization DP each multiply an
    element g by a·f with a in A and read the product modulo A×A:
    `products` forms g·a·f in one wreath step, and `find(root, children)`
    gives (id, pairs, i1, i3), the canonical form A[i1]·g·A[i3] of the
    element g with that key, interned if absent, and how many of the |A|²
    pairs reach it.
    """

    def __init__(self, eng, c, names):
        self.eng, self.c = eng, c
        gens = [eng.gen_id(c, nm) for nm in names]
        self.ids, self.links = [0], [None]
        index = {0: 0}
        for u in self.ids:          # grows while it is read
            for nm, z in zip(names, gens):
                w = eng.mul(c, u, z, store=False)
                if w not in index:
                    index[w] = len(self.ids)
                    self.ids.append(w)
                    self.links.append((index[u], nm))
        self.size = len(self.ids)
        self.inverse = [index[eng.inv(c, a)] for a in self.ids]
        t = eng.tables[c]
        self.rooted = all(t.children[z] == (0,) * eng.d for z in gens)
        self.perms = [t.roots[a] for a in self.ids]
        self.sections = [t.children[a] for a in self.ids]
        self.getters = [itemgetter(*p) for p in self.perms]
        self._plans = {}

    def word(self, i):
        """Zero-length generator names whose product is A[i]."""
        out = []
        while self.links[i] is not None:
            i, nm = self.links[i]
            out.append(nm)
        out.reverse()
        return out

    def _plan(self, root):
        # the least root over the pairs, and (reader, i1, i3) for each pair
        # that reaches it
        pairs = [(perms.compose(a1, perms.compose(root, a3)), i1, i3)
                 for i3, a3 in enumerate(self.perms)
                 for i1, a1 in enumerate(self.perms)]
        least = min(r for r, _, _ in pairs)
        plan = self._plans[root] = (least, [
            (self._reader(root, i1, i3), i1, i3)
            for r, i1, i3 in pairs if r == least])
        return plan

    def _reader(self, root, i1, i3):
        # the map from the sections of a g with this root to those of
        # A[i1]·g·A[i3]; it holds the engine, not self, so plans make no
        # reference cycle
        get = self.getters[i3]
        if self.rooted:
            return get
        mul, sc = self.eng.mul, self.eng.succ[self.c]
        left = [self.sections[i1][r] for r in get(root)]
        right = self.sections[i3]
        return lambda children: tuple([
            mul(sc, mul(sc, a, u), b)
            for a, u, b in zip(left, get(children), right)])

    def canon(self, root, children):
        """Canonical key of an orbit from one member's key:
        (root, sections, pairs, i1, i3), where A[i1]·g·A[i3] has the least
        key and `pairs` of the |A|² pairs reach it."""
        least, cands = self._plans.get(root) or self._plan(root)
        best = None
        for get, j1, j3 in cands:
            ch = get(children)
            if best is None or ch < best:
                best, pairs, i1, i3 = ch, 1, j1, j3
            elif ch == best:
                pairs += 1
        return least, best, pairs, i1, i3

    def find(self, root, children):
        """(id, pairs, i1, i3) with id the canonical form A[i1]·g·A[i3] of
        the element g with this key, interned if absent, and `pairs` of the
        |A|² pairs reaching it."""
        if self.size == 1:
            return self.eng._intern(self.c, root, tuple(children)), 1, 0, 0
        root, key, pairs, i1, i3 = self.canon(root, children)
        return self.eng._intern(self.c, root, key), pairs, i1, i3

    def products(self, root, children, steps):
        """(step, root, sections) of g·a·f for each step (as made by
        `steps`), with g the element of this key: one wreath step, whose
        section products at the successor class are read from the memo or
        else multiplied."""
        eng = self.eng
        memo, mul, sc = eng.mul_memo, eng.mul, eng.succ[self.c]
        for step in steps:
            get = step[3]
            ch = []
            for u, v in zip(get(children), step[4]):
                if u and v:
                    r = memo.get((sc, u, v))
                    ch.append(mul(sc, u, v) if r is None else r)
                else:               # one of them is the identity, 0
                    ch.append(u or v)
            yield step, get(root), ch

    def steps(self, factors):
        """(ia, label, a·f, getter of its root, its children) for each a =
        A[ia] and each (label, f) in factors: what multiplying by a·f in one
        wreath step reads."""
        eng, c = self.eng, self.c
        t, out = eng.tables[c], []
        for ia, a in enumerate(self.ids):
            for label, f in factors:
                h = eng.mul(c, a, f, store=False)
                out.append((ia, label, h, itemgetter(*t.roots[h]),
                            t.children[h]))
        return out

    def act(self, i1, g, i3):
        """Interned id of A[i1]·g·A[i3]."""
        eng, c = self.eng, self.c
        t = eng.tables[c]
        root = perms.compose(self.perms[i1], self.getters[i3](t.roots[g]))
        read = self._reader(t.roots[g], i1, i3)
        return eng._intern(c, root, read(t.children[g]))


@dataclass
class Ball:
    """Every element of a table, each sphere in breadth-first order.
    `parents[x]` is (y, name) with y·name = x and |y| + |name| = |x|, None
    for the identity; the links have no cycle, so they give one geodesic
    per element."""
    spheres: list
    lengths: dict
    parents: dict


@dataclass
class SphereTable:
    cls: int                       # level class index
    spheres: list                  # per-radius lists of representative ids
    orbits: list                   # per-radius lists of their orbit sizes
    lengths: dict                  # representative -> pseudolength
    links: dict                    # representative -> (g, i1, ia, name, i3)
    zero: ZeroGroup                # with rep = A[i1]·g·A[ia]·name·A[i3]
    _located: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.sizes = [sum(orbit) for orbit in self.orbits]

    @property
    def max_radius(self):
        return len(self.spheres) - 1

    def sphere(self, n):
        """Representatives of the radius-n sphere."""
        if n > self.max_radius:
            raise TableExhausted(f"radius {n} > enumerated {self.max_radius}")
        return self.spheres[n]

    def sphere_sizes(self):
        return list(self.sizes)

    def gamma(self, n=None):
        """Cumulative ball sizes; gamma(n) = |Ball(n)|."""
        out = list(accumulate(self.sizes))
        return out if n is None else out[n]

    def locate(self, g):
        """(rep, j1, j3) with g = A[j1]·rep·A[j3] for a ball id g, None
        for any other value.  An id outside the ball has its canonical form
        interned.  Memoized: the ids looked up are mostly sections, and they
        are few."""
        if g in self.lengths:
            return g, 0, 0
        if g in self._located:
            return self._located[g]
        zero, found = self.zero, None
        t = zero.eng.tables[self.cls]
        if isinstance(g, int) and 0 <= g < len(t.roots):
            rep, _, i1, i3 = zero.find(t.roots[g], t.children[g])
            if rep in self.lengths:
                found = rep, zero.inverse[i1], zero.inverse[i3]
        self._located[g] = found
        return found

    def representative(self, g):
        """Representative of the ball id g, None outside the ball."""
        found = self.locate(g)
        return None if found is None else found[0]

    def find(self, g):
        """locate(g), with TableExhausted for an id outside the ball."""
        found = self.locate(g)
        if found is None:
            raise TableExhausted(
                f"element not within enumerated radius {self.max_radius}")
        return found

    def length(self, g):
        return self.lengths[self.find(g)[0]]

    def geodesic(self, g):
        """Generator-name word for the ball id g: rep = A[i1]·h·A[ia]·s·A[i3]
        unrolls to A[i1]·geodesic(h)·A[ia]·s·A[i3], down to the identity."""
        rep, j1, j3 = self.find(g)
        word = self.zero.word
        left, right = word(j1), []
        while rep != 0:
            rep, i1, ia, name, i3 = self.links[rep]
            left += word(i1)
            right.append(word(ia) + [name] + word(i3))
        for part in reversed(right):
            left += part
        return left + word(j3)

    def orbit(self, rep):
        """Every member A[i1]·rep·A[i3] of a representative's orbit, repeats
        removed, in (i1, i3) order."""
        act, size = self.zero.act, self.zero.size
        return list(dict.fromkeys(act(i1, rep, i3) for i1 in range(size)
                                  for i3 in range(size)))

    def expand(self):
        """Ball of every element of the table, by one breadth-first pass:
        the radius-(n-1) elements times the unit-length generators, the new
        products closed under the zero-length ones.  The first product to
        reach an element is its parent link."""
        eng, c = self.zero.eng, self.cls
        mul, level = eng.mul, eng.spec.level(c)
        lengths, parents = {0: 0}, {0: None}

        def extend(sphere, sources, gens, n):
            # with the sphere as its own sources the loop reaches the
            # appended elements too
            for u in sources:
                for name, s in gens:
                    w = mul(c, u, s, store=False)
                    if w not in lengths:
                        lengths[w] = n
                        parents[w] = (u, name)
                        sphere.append(w)

        unit = [(g.name, eng.gen_id(c, g.name)) for g in level.unit_generators]
        zero = [(g.name, eng.gen_id(c, g.name)) for g in level.zero_generators]
        spheres = [[0]]
        extend(spheres[0], spheres[0], zero, 0)
        for n in range(1, self.max_radius + 1):
            sphere = []
            extend(sphere, spheres[n - 1], unit, n)
            extend(sphere, sphere, zero, n)
            spheres.append(sphere)
        return Ball(spheres, lengths, parents)


class Atlas:
    """Sphere tables for every level class of one family, sharing an Engine."""

    def __init__(self, spec, engine=None):
        self.spec = spec
        self.engine = engine if engine is not None else Engine(spec)
        self.tables = {}

    def table(self, c):
        try:
            return self.tables[c]
        except KeyError:
            raise TableExhausted(f"no table enumerated for level class {c}")


def enumerate_spheres(atlas, c, max_radius):
    """Fill the atlas table for class c up to max_radius, one representative
    per A×A double coset.

    Each representative g of the radius-n sphere is multiplied by every
    h = a·s (a in A, s a unit-length generator) in one wreath step
    (ZeroGroup.products): only the section products at the successor class
    go through the engine, and they are memoized, being few.  The product's
    canonical form (ZeroGroup.find) is a new radius-(n+1) representative,
    whose orbit has |A|² / pairs members, unless it is in the ball already.
    Radius 0 is the one double coset A, with the identity as representative.

    From radius 3 on, steps that provably land in the ball are skipped.  A
    representative g of radius m was found as A[i1]·h·A[ia]·name·A[i3] with
    |h| = m-1, so when |name·A[i3]·a·s| ≤ 1 the product g·a·s has length at
    most m and would be discarded anyway; the table of such steps per suffix
    (name, i3) is built once, from the radius-2 ball (_kept_steps).
    Skipping changes no output, only which section products get cached.

    Deterministic: expansion follows stored sphere order, A's breadth-first
    order and the spec's generator order.  The engine's budget is the only
    limit: BudgetExceeded names the class, the radius being expanded and the
    elements enumerated (summed orbit sizes) when it stops the run.
    """
    existing = atlas.tables.get(c)
    if existing is not None and existing.max_radius >= max_radius:
        return existing
    eng = atlas.engine
    level = atlas.spec.level(c)
    zero = ZeroGroup(eng, c, [g.name for g in level.zero_generators])
    t, products, find = eng.tables[c], zero.products, zero.find
    units = [(g.name, eng.gen_id(c, g.name)) for g in level.unit_generators]
    steps = zero.steps(units)
    pairs_total = zero.size ** 2
    lengths, links = {0: 0}, {0: None}
    spheres, orbits = [[0]], [[zero.size]]
    elements = zero.size
    kept, n = None, 0
    try:
        for n in range(1, max_radius + 1):
            sphere, orbit = [], []
            if n == 3:
                kept = _kept_steps(zero, units, steps, lengths)
            for g in spheres[n - 1]:
                for step, root, ch in products(
                        t.roots[g], t.children[g],
                        steps if kept is None else kept[links[g][3:]]):
                    i, pairs, i1, i3 = find(root, ch)
                    if i in lengths:
                        continue
                    lengths[i] = n
                    links[i] = (g, i1, step[0], step[1], i3)
                    sphere.append(i)
                    orbit.append(pairs_total // pairs)
            spheres.append(sphere)
            orbits.append(orbit)
            elements += sum(orbit)
    except BudgetExceeded as e:
        elements += sum(orbit)
        raise BudgetExceeded(f"{e}; stopped at level class {c} expanding "
                             f"radius {n}, {elements} elements",
                             c, n, elements) from e

    table = SphereTable(c, spheres, orbits, lengths, links, zero)
    atlas.tables[c] = table
    return table


def _kept_steps(zero, units, steps, lengths):
    """For each link suffix (name, i3), the steps (a, s) for which
    name·A[i3]·a·s is not provably of length at most 1.  That product is
    name·(A[k]·s) with A[k] = A[i3]·a, of length at most 2, so its canonical
    form is already in the radius-2 ball and finding it interns nothing; a
    section product not yet cached is multiplied and counts against the
    budget like any other."""
    eng, c = zero.eng, zero.c
    t = eng.tables[c]
    index = {a: k for k, a in enumerate(zero.ids)}
    times = [[index[eng.mul(c, a, b, store=False)] for b in zero.ids]
             for a in zero.ids]
    kept = {}
    for name, f in units:
        short = {step[:2] for step, root, ch
                 in zero.products(t.roots[f], t.children[f], steps)
                 if lengths.get(zero.find(root, ch)[0], 2) <= 1}
        for i3, row in enumerate(times):
            kept[name, i3] = [step for step in steps
                              if (row[step[0]], step[1]) not in short]
    return kept


def build_atlas(spec, max_radius, levels=None, engine=None):
    """Enumerate tables for the first `levels` level classes (default all)."""
    if max_radius < 0:
        raise ValueError(f"max radius must be at least 0, got {max_radius}")
    if levels is not None and levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    atlas = Atlas(spec, engine=engine)
    nclasses = spec.num_classes if levels is None else min(levels, spec.num_classes)
    for c in range(nclasses):
        enumerate_spheres(atlas, c, max_radius)
    return atlas


def kappa_estimates(table):
    """Pointwise estimates |Omega(n)|^(1/n), None at n = 0."""
    sizes = table.sphere_sizes()
    pointwise = [None]
    for n in range(1, len(sizes)):
        pointwise.append(sizes[n] ** (1.0 / n) if sizes[n] > 0 else 0.0)
    return pointwise


def check_submultiplicative(gamma):
    """gamma(n+m) <= gamma(n)*gamma(m) for all n+m within the table."""
    N = len(gamma) - 1
    for n in range(N + 1):
        for m in range(N + 1 - n):
            if gamma[n + m] > gamma[n] * gamma[m]:
                return False
    return True


def convolve(a, b, upto):
    out = [0] * (upto + 1)
    for i, x in enumerate(a[:upto + 1]):
        for j, y in enumerate(b[:upto + 1 - i]):
            out[i + j] += x * y
    return out


def check_wreath_inequality(atlas, c, n):
    """gamma_c(n) <= d! * sum over r_1+..+r_d <= n of prod gamma_{c+1}(r_i).

    The right side counts the ways to pick a root permutation and d sections
    whose lengths sum to at most n; every element of the ball is such a pick.
    """
    spec = atlas.spec
    d = spec.degree
    sc = spec.succ_class(c)
    gam = atlas.table(c).gamma()
    gam_next = atlas.table(sc).gamma()
    if n >= len(gam) or n >= len(gam_next):
        raise TableExhausted(f"need radius {n} at classes {c} and {sc}")
    conv = [1] + [0] * n
    for _ in range(d):
        conv = convolve(conv, gam_next, n)
    rhs = factorial(d) * sum(conv)
    return gam[n] <= rhs
