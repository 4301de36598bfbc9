"""Sphere and ball enumeration for the word pseudonorm, plus the finite
counting inequalities tied to growth rates.

The zero-length generators have pseudolength 0, so every sphere is a union
of double cosets A·g·A of the finite subgroup A they generate.  A table
keeps one representative per double coset, a packed int key of its root
and interned sections, with the size of its orbit under A×A:
radius-(n+1) representatives come from products g·a·s of radius-n
representatives g with a in A and unit-length generators s, each brought
to its canonical form, so each double coset is found exactly at its
minimal pseudolength.  Every representative records the product it was
found as, which gives one geodesic word for every ball element.  One loop
does this for `enumerate_spheres`, which keeps every sphere, and for
`count_spheres`, which keeps three spheres at a time and only the sizes.
One kernel, `SphereTable.multiply`, forms every such product and its
canonical key, for enumeration, its skip table, the factorization DP and
the criterion's pairs alike, and `find` reads an element's key from it as
the product g·1.
"""

import sys
from array import array
from itertools import accumulate, chain, count, islice
from math import factorial
from operator import getitem, itemgetter

from . import perms
from .engine import BudgetExceeded, Engine


class TableExhausted(LookupError):
    """A length or membership query beyond the enumerated radius."""


class _Row(dict):
    """u -> u·v at class c for one id v, filled as read: row[0] = v, and a
    missing entry is the engine's product (`Engine.mul`, which reads its
    memo first and returns u for v the identity, so the memo, the order of
    interning and the budget are those of a product formed section by
    section), then kept.  A row holds at most one entry per id of class c.
    Its entries besides row[0] are memo entries (c, u, v), except in the
    identity's row, so the rows hold what the memo holds again, plus one
    entry per row and the identity row's."""
    __slots__ = ("eng", "c", "v")

    def __init__(self, eng, c, v):
        super().__init__({0: v})
        self.eng, self.c, self.v = eng, c, v

    def __missing__(self, u):
        r = self[u] = self.eng.mul(self.c, u, self.v)
        return r


class ZeroGroup:
    """The subgroup A generated by the zero-length generators at one level
    class, acting on elements from both sides.

    A is listed breadth first from the identity under right multiplication
    by the zero-length generators, and `words[i]` is the generator names
    whose product is A[i].  Its arithmetic is formed once: A[i]·A[j] is
    A[times[i][j]] and A[i]⁻¹ is A[inverse[i]].  The member A[i1]·g·A[i3] of
    g's orbit has root α1∘π∘α3, and section at x equal to
    (A[i1])_{π∘α3(x)} · g_{α3(x)} · (A[i3])_x.  The canonical form of an
    element is the member with the least (root, sections) key.  A is rooted
    when every zero-length generator has identity sections; then a member's
    sections are g's permuted by α3 and the key needs no product.
    Otherwise they are formed at the successor class.

    Elements are given by their root and sections, as a sphere table
    decodes them from its keys.  Enumeration, its skip table, the
    factorization DP, the criterion's pairs and `SphereTable.find` multiply
    an element g by a·f, a in A, and read the product modulo A×A, all
    through `SphereTable.multiply`.  `step` forms a·f once, with a reader
    of its root shared by every step of that root and a row per section
    holding the section products u·(a·f)_x, and `plan(root)` lists the
    pairs (i1, i3) that give the members of least root.
    """

    def __init__(self, eng, c, names):
        self.eng, self.c = eng, c
        gens = [eng.gen_id(c, nm) for nm in names]
        # (parent index, name) links, and words once A is whole: an infinite
        # A, stopped by the budget, would hold words of every length first
        self.ids, links = [0], []
        index = {0: 0}
        for i, u in enumerate(self.ids):    # grows while read
            for nm, z in zip(names, gens):
                w = eng.mul(c, u, z, store=False)
                if w not in index:
                    index[w] = len(self.ids)
                    self.ids.append(w)
                    links.append((i, nm))
        self.words = [[]]
        for i, nm in links:
            self.words.append(self.words[i] + [nm])
        self.size = len(self.ids)
        self.times = [[index[eng.mul(c, a, b, store=False)] for b in self.ids]
                      for a in self.ids]
        self.inverse = [row.index(0) for row in self.times]
        t = eng.tables[c]
        self.rooted = all(t.children[z] == (0,) * eng.d for z in gens)
        self.perms = [t.roots[a] for a in self.ids]
        self.sections = [t.children[a] for a in self.ids]
        self.getters = [itemgetter(*p) for p in self.perms]
        self._readers, self._rows = {}, {}

    def plan(self, root):
        """(least, candidates) for an element g with this root: the least
        root of a member A[i1]·g·A[i3], and (reader, i1, i3) for each pair
        that reaches it, the reader mapping g's sections to the member's.
        The kernel keeps them (`SphereTable.multiply`)."""
        pairs = [(perms.compose(a1, perms.compose(root, a3)), i1, i3)
                 for i3, a3 in enumerate(self.perms)
                 for i1, a1 in enumerate(self.perms)]
        least = min(r for r, _, _ in pairs)
        return least, [(self._reader(root, i1, i3), i1, i3)
                       for r, i1, i3 in pairs if r == least]

    def _reader(self, root, i1, i3):
        # the map from the sections of a g with this root to those of
        # A[i1]·g·A[i3]
        get = self.getters[i3]
        if self.rooted:
            return get
        mul, sc = self.eng.mul, self.eng.succ[self.c]
        left = [self.sections[i1][r] for r in get(root)]
        right = self.sections[i3]
        return lambda children: tuple([
            mul(sc, mul(sc, a, u), b)
            for a, u, b in zip(left, get(children), right)])

    def steps(self, factors):
        """`step(ia, *f)` for each a = A[ia], then each (label, root,
        sections) f in factors."""
        return [self.step(ia, *f) for ia in range(self.size) for f in factors]

    def step(self, ia, label, root, sections):
        """(ia, label, reader, rows) for a = A[ia] and the element f with
        this root and these sections, a·f formed by `member`, not interned.
        g·a·f has root reader(g's root) and section rows[x][u] at x, u the
        x-th of reader(g's sections).  The reader is the itemgetter of
        a·f's root, one for every step with that root, so what is keyed by
        it is bounded by A's roots, not the steps.  rows[x] is the `_Row`
        of the section (a·f)_x, one per section id."""
        root, sections = self.member(ia, root, sections, 0)
        reader = self._readers.get(root)
        if reader is None:
            reader = self._readers[root] = itemgetter(*root)
        rows, sc = self._rows, self.eng.succ[self.c]
        return ia, label, reader, [
            rows.get(v) or rows.setdefault(v, _Row(self.eng, sc, v))
            for v in sections]

    def member(self, i1, root, children, i3):
        """(root, sections) of A[i1]·g·A[i3] for the element g with this
        root and these sections, not interned.  With A rooted and i3 = 0
        the sections are g's own, shared, not copied."""
        if i3 or not self.rooted:
            children = self._reader(root, i1, i3)(children)
        return perms.compose(self.perms[i1], self.getters[i3](root)), children


class SphereTable:
    """One representative per A×A double coset of a level class, each a
    dense index i in sphere order: `spheres[n]` is the range of radius n,
    and `sizes[n]` the sum of its orbit sizes.  A representative is one
    int key: its root's index in `roots`, then its section ids, each in a
    field `width` bits wide, the bit length of the engine budget, which
    holds any id interned under it.  Only sections are interned, so equal
    keys are equal elements.  `keys[i]` is i's key, `index[key]` is i, and
    the columns (`_column`) `lengths`, `parents` (the index of the g whose
    product found i), `links` (that product's digits, read by `link`) and
    `orbits` are indexed by i.  `find` and `length` take engine ids; every
    other reader takes an index."""

    def __init__(self, eng, c):
        level = eng.spec.level(c)
        self.zero = ZeroGroup(eng, c, [g.name for g in level.zero_generators])
        self.cls = c
        self.units = [g.name for g in level.unit_generators]
        self.width = eng.budget.bit_length()
        self._mask = (1 << self.width) - 1
        self._top = eng.d * self.width
        self._shifts = range(self._top - self.width, -1, -self.width)
        # the identity, A's canonical form, has key 0
        self.roots, self._root_index = [self.zero.perms[0]], {}
        self._root_index[self.roots[0]] = 0
        self.keys, self.index, self.spheres, self.sizes = [], {}, [], []
        self._plans = {}
        # the step by the identity, whose product g·1 gives `find` g's key
        self._identity = [self.zero.step(0, None, self.roots[0],
                                         (0,) * eng.d)]

    def _root(self, root):
        # root's index in roots, the key's leading field, listed when first
        # met
        key = self._root_index.get(root)
        if key is None:
            key = self._root_index[root] = len(self.roots)
            self.roots.append(root)
        return key

    def multiply(self, root, sections, steps):
        """(step, key, pairs, i1, i3) for each step a·f (`ZeroGroup.step`),
        in order: the key of the canonical form A[i1]·(g·a·f)·A[i3] of the
        product with the element g of this root and these sections, the
        member with the least (root, sections), i1 and i3 the first pair
        reaching it, i3-major, and `pairs` of the |A|² pairs reaching it.
        It is the one place a key is packed, each section id in its field
        unchecked: one wider than the field carries into the next.

        The product is one wreath step: its sections are read off the
        step's rows, which multiply only what no row or memo holds.  With
        |A| = 1 the product's root is its key's root.  Otherwise
        `_plans[root][reader]` holds, for g's root and the step's root
        reader, the index of the least root of the product's members and
        the plan's candidates; it is bounded by the roots times the roots
        of the steps."""
        width, out = self.width, []
        if self.zero.size == 1:
            index = self._root_index
            for step in steps:
                get = step[2]
                key = index.get(get(root))
                if key is None:
                    key = self._root(get(root))
                for x in map(getitem, step[3], get(sections)):
                    key = key << width | x
                out.append((step, key, 1, 0, 0))
            return out
        plans = self._plans.get(root)
        if plans is None:
            plans = self._plans[root] = {}
        for step in steps:
            get = step[2]
            plan = plans.get(get)
            if plan is None:
                least, cands = self.zero.plan(get(root))
                plan = plans[get] = self._root(least), cands
            key, cands = plan
            children, best = list(map(getitem, step[3], get(sections))), None
            for read, j1, j3 in cands:
                ch = read(children)
                if best is None or ch < best:
                    best, pairs, i1, i3 = ch, 1, j1, j3
                elif ch == best:
                    pairs += 1
            for x in best:
                key = key << width | x
            out.append((step, key, pairs, i1, i3))
        return out

    def element(self, i):
        """(root, sections) of representative i, decoded from its key."""
        return next(self.elements([i]))

    def elements(self, reps):
        """`element` of each representative in reps, in order."""
        keys, top = [self.keys[i] for i in reps], self._top
        return zip([self.roots[k >> top] for k in keys], self._unpack(keys))

    def sections(self, reps):
        """The section tuples of the representatives reps, in order."""
        return self._unpack(map(self.keys.__getitem__, reps))

    def _unpack(self, keys):
        # field by field, 4096 keys at a time: fast, and holding little
        keys, mask, shifts = iter(keys), self._mask, self._shifts
        return chain.from_iterable(map(
            lambda chunk: zip(*[[k >> s & mask for k in chunk]
                                for s in shifts]),
            iter(lambda: list(islice(keys, 4096)), [])))

    def _grow(self, max_radius, keep):
        """Expand to max_radius, keeping every sphere with `keep`
        (enumerate_spheres) and only the sizes without (count_spheres).

        Each representative g of sphere n is multiplied by every h = a·s (a
        in A, s a unit-length generator), all at once by the kernel
        (`multiply`), whose section products are memoized, being few.  The
        product's canonical form, as its key, is a new radius-(n+1)
        representative, with |A|² / pairs orbit members, unless it is in
        the ball already.  It lies on sphere n-1, n or n+1,
        the generating set being symmetric, so only those are tested, each
        a dict from key to the link suffix u·|A| + i3.  Radius 0 is A, with
        the identity as representative.

        From radius 3 on, steps that provably land in the ball are skipped:
        g of radius m was found as A[i1]·h·A[ia]·s_u·A[i3] with |h| = m-1,
        so if |s_u·A[i3]·a·s| ≤ 1 then |g·a·s| ≤ m.  The steps kept per
        suffix (_kept_steps) are built once, from the radius-2 ball;
        skipping changes no output.

        Deterministic: sphere order, then A's and the spec's generator
        order.  Every key held counts against the budget (`Engine.held`):
        the three spheres, or with `keep` every sphere, counted while the
        table lives.  BudgetExceeded is raised before a key would exceed
        it, leaves the engine minimal and `held` as before the call, so it
        can be retried with a larger budget, and names the class, the
        radius being expanded and the elements enumerated, carrying the
        sizes of the spheres completed.
        """
        zero, c, eng = self.zero, self.cls, self.zero.eng
        multiply, check = self.multiply, eng._check_ids
        roots, top = self.roots, self._top
        units = [eng.gen_id(c, nm) for nm in self.units]
        size = zero.size
        suffixes = len(units) * size
        lead = size * suffixes
        # step k = ia·units + u fixes the link digits k·|A|, of which the
        # suffix u·|A| is read by the skip table
        steps = [step + (k * size, k % len(units) * size)
                 for k, step in enumerate(zero.steps(
                     [(f, eng.root(c, f), eng.children(c, f)) for f in units]))]
        pairs_total = size * size
        if keep:
            # each column's typecode holds all it can receive: an index is
            # below the budget, which counts its key, a length at most the
            # radius, a link below |A|·lead and an orbit at most |A|²
            ids = min(eng.budget, sys.maxsize)
            self.lengths = _column(min(max_radius, ids), 0)
            self.parents, self.links = _column(ids, 1), _column(size * lead, 1)
            self.orbits = _column(pairs_total, 1)
            self.orbits[0] = size
            parents, links, orbits = (self.parents.append, self.links.append,
                                      self.orbits.append)

        def close(sphere, total):
            # sphere is the next radius, whole, in the order found
            self.sizes.append(total)
            if keep:
                n, start = len(self.spheres), len(self.keys)
                self.spheres.append(range(start, start + len(sphere)))
                self.keys.extend(sphere)
                self.lengths.extend(array(self.lengths.typecode, [n])
                                    * len(sphere))

        # nxt is the sphere being expanded into, with its orbit sizes summed
        # in total; the identity's link is never read
        prev, cur, nxt = {}, {}, {0: -1}
        total, kept, n = size, None, 0
        held = eng.held
        try:
            check(1)
            eng.held += 1
            for n in range(1, max_radius + 1):
                close(nxt, total)
                if not keep:
                    eng.held -= len(prev)
                prev, cur, nxt, total = cur, nxt, {}, 0
                if n == 3:      # prev is the radius-1 sphere, cur radius 2
                    kept = _kept_steps(self, units, steps, {*prev, 0})
                for g, (k, suffix), ch in zip(
                        count(len(self.keys) - len(cur)), cur.items(),
                        self._unpack(cur)):
                    todo = steps if kept is None else kept[suffix]
                    for step, new, pairs, i1, i3 in multiply(
                            roots[k >> top], ch, todo):
                        if new in nxt or new in cur or new in prev:
                            continue
                        check(1)
                        nxt[new] = step[5] + i3
                        eng.held += 1
                        orbit = pairs_total // pairs
                        total += orbit
                        if keep:
                            parents(g)
                            links(step[4] + i1 * lead + i3)
                            orbits(orbit)
            close(nxt, total)
        except BudgetExceeded as e:
            eng.held = held
            elements = sum(self.sizes) + total
            raise BudgetExceeded(f"{e}; stopped at level class {c} expanding "
                                 f"radius {n}, {elements} elements",
                                 c, n, elements, self.sizes) from e
        if keep:
            prev = cur = nxt = None
            self.index = dict(zip(self.keys, range(len(self.keys))))
        else:
            eng.held = held

    def link(self, rep):
        """(g, i1, ia, name, i3) with rep = A[i1]·g·A[ia]·name·A[i3], name
        the u-th unit-length generator, from parents[rep] = g and
        links[rep] = ((i1·|A| + ia)·units + u)·|A| + i3."""
        size = self.zero.size
        rest, i3 = divmod(self.links[rep], size)
        rest, u = divmod(rest, len(self.units))
        i1, ia = divmod(rest, size)
        return self.parents[rep], i1, ia, self.units[u], i3

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

    def find(self, g):
        """(rep, j1, j3) with g = A[j1]·rep·A[j3] for an engine id g of the
        table's ball; TableExhausted for any other value, -1 and non-ints
        included.  g's key is the kernel's for g·1 (`multiply`).  Once the
        successor class has ids wider than the key fields, which a budget
        raised after the build allows, a key can match another
        representative's, so a hit stands only if the elements agree."""
        zero, eng = self.zero, self.zero.eng
        t = eng.tables[self.cls]
        if isinstance(g, int) and 0 <= g < len(t.roots):
            root, ch = t.roots[g], t.children[g]
            [(_, key, _, i1, i3)] = self.multiply(root, ch, self._identity)
            rep = self.index.get(key)
            wide = len(eng.tables[eng.succ[self.cls]].roots) > self._mask + 1
            if rep is not None and (not wide or self.element(rep) ==
                                    zero.member(i1, root, ch, i3)):
                return rep, zero.inverse[i1], zero.inverse[i3]
        raise TableExhausted(
            f"element not within enumerated radius {self.max_radius}")

    def length(self, g):
        return self.lengths[self.find(g)[0]]

    def geodesic(self, rep, j1=0, j3=0):
        """Generator-name word of A[j1]·rep·A[j3], so that
        `geodesic(*find(g))` is the ball id g's: rep = A[i1]·h·A[ia]·s·A[i3]
        unrolls to A[i1]·geodesic(h)·A[ia]·s·A[i3], down to the identity,
        with A's words read from `zero.words`."""
        words = self.zero.words
        left, right = list(words[j1]), []   # a copy: += would extend A's word
        while rep != 0:
            rep, i1, ia, name, i3 = self.link(rep)
            left += words[i1]
            right.append(words[ia] + [name] + words[i3])
        for part in reversed(right):
            left += part
        return left + words[j3]

    def orbit(self, rep):
        """The engine ids of every member A[i1]·rep·A[i3] of a
        representative's orbit, interned, repeats removed, in (i1, i3)
        order."""
        zero, intern = self.zero, self.zero.eng._intern
        root, ch = self.element(rep)
        return list(dict.fromkeys(
            intern(self.cls, *zero.member(i1, root, ch, i3))
            for i1 in range(zero.size) for i3 in range(zero.size)))


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

    def enumerate(self, max_radius, levels=None):
        """Enumerate tables for the first `levels` level classes (default
        all), in order, so a BudgetExceeded leaves the earlier ones whole."""
        for c in level_classes(self.spec, max_radius, levels):
            enumerate_spheres(self, c, max_radius)
        return self


def level_classes(spec, max_radius, levels=None):
    """The first `levels` level classes (default all), in order, to be
    enumerated to max_radius; ValueError for a negative radius or fewer
    than one level."""
    if max_radius < 0:
        raise ValueError(f"max radius must be at least 0, got {max_radius}")
    if levels is not None and levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    return range(min(levels or spec.num_classes, spec.num_classes))


def enumerate_spheres(atlas, c, max_radius):
    """The atlas table for class c to max_radius (`SphereTable._grow`),
    unless one that deep exists already."""
    existing = atlas.tables.get(c)
    if existing is not None and existing.max_radius >= max_radius:
        return existing
    table = SphereTable(atlas.engine, c)
    table._grow(max_radius, keep=True)
    if existing is not None:
        atlas.engine.held -= len(existing.keys)
    atlas.tables[c] = table
    return table


def count_spheres(eng, c, max_radius):
    """The sizes of class c's spheres, radii 0 to max_radius, from the loop
    of `enumerate_spheres` keeping only the three spheres it reads
    (`SphereTable._grow`)."""
    table = SphereTable(eng, c)
    table._grow(max_radius, keep=False)
    return table.sizes


def _column(top, n):
    """n slots of -1 in the narrowest signed array typecode that holds every
    value up to top, or a list past 'q'."""
    for code in "bhiq":
        if top < 1 << 8 * array(code).itemsize - 1:
            return array(code, [-1]) * n
    return [-1] * n


def _kept_steps(table, units, steps, low):
    """For each link suffix (u, i3), at index u·|A| + i3, the steps (a, s)
    for which s_u·A[i3]·a·s, s_u the unit-length generator with engine id
    units[u], is not provably of length at most 1: the key of its
    canonical form is not in `low`, the keys of the table's radius-1 ball.
    That product is s_u·(A[k]·s) with A[k] = A[i3]·a, read off
    `zero.times`, so it is formed once per step (k, s), by the kernel
    (`SphereTable.multiply`) from s_u's root and sections; a section
    product not yet cached is multiplied and counts against the budget
    like any other."""
    zero, kept = table.zero, []
    eng = zero.eng
    for f in units:
        drop = {step[:2] for step, key, *_
                in table.multiply(eng.root(zero.c, f), eng.children(zero.c, f),
                                  steps)
                if key in low}
        kept += [[s for s in steps if (row[s[0]], s[1]) not in drop]
                 for row in zero.times]
    return kept


def build_atlas(spec, max_radius, levels=None, engine=None):
    """An atlas with tables for the first `levels` level classes (default
    all)."""
    return Atlas(spec, engine=engine).enumerate(max_radius, levels)


def kappa_estimates(sizes):
    """Pointwise estimates |Omega(n)|^(1/n) from the sphere sizes, None at
    n = 0."""
    return [None] + [s ** (1.0 / n) if s > 0 else 0.0
                     for n, s in enumerate(sizes[1:], 1)]


def check_submultiplicative(gamma):
    """gamma(n+m) <= gamma(n)*gamma(m) for all n+m within the table."""
    N = len(gamma) - 1
    return all(gamma[n + m] <= gamma[n] * gamma[m]
               for n in range(N + 1) for m in range(N + 1 - n))


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
