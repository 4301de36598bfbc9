"""Independent truncated-action oracle.

Elements are represented by their action on the depth-D truncated tree,
stored as interned truncated portraits: (root permutation, child portrait
ids).  Products are computed by the textbook recursion on truncated
portraits.  Nothing here touches the package's arithmetic engine; word
enumeration is naive breadth-first search with dedup by truncated action.

`reference_atlas` and `reference_filtration` are the exceptions: the first
enumerates every ball element with the package's engine by the plain
per-element loop, and the second recomputes the depth-k filtration from such
tables by the plain layered set loop.
"""


class TruncatedAction:
    """Interned depth-D truncated portraits over one family spec."""

    LEAF = 0   # the unique depth-0 portrait

    def __init__(self, spec, depth):
        self.spec = spec
        self.depth = depth
        self.nodes = [None]                   # id -> (root, children ids)
        self.intern = {}
        self.mul_memo = {}
        self.gen_memo = {}

    def _intern_node(self, root, children):
        key = (root, children)
        got = self.intern.get(key)
        if got is None:
            got = len(self.nodes)
            self.nodes.append(key)
            self.intern[key] = got
        return got

    def identity(self, t=None):
        if t is None:
            t = self.depth
        if t == 0:
            return self.LEAF
        ident = tuple(range(self.spec.degree))
        return self._intern_node(ident, (self.identity(t - 1),) * self.spec.degree)

    def gen(self, c, name, t=None):
        if t is None:
            t = self.depth
        if t == 0:
            return self.LEAF
        key = (c, name, t)
        got = self.gen_memo.get(key)
        if got is not None:
            return got
        g = self.spec.level(c).gen(name)
        sc = self.spec.succ_class(c)
        children = tuple(self.word(sc, g.children[x], t - 1)
                         for x in range(self.spec.degree))
        got = self._intern_node(g.root, children)
        self.gen_memo[key] = got
        return got

    def mul(self, p, q):
        """Product of two same-depth portraits: (gh)(x) = g(h(x))."""
        if p == self.LEAF:
            return self.LEAF                    # same depth forces q == LEAF
        key = (p, q)
        got = self.mul_memo.get(key)
        if got is not None:
            return got
        root_p, ch_p = self.nodes[p]
        root_q, ch_q = self.nodes[q]
        root = tuple(root_p[root_q[x]] for x in range(len(root_p)))
        children = tuple(self.mul(ch_p[root_q[x]], ch_q[x])
                         for x in range(len(root_p)))
        got = self._intern_node(root, children)
        self.mul_memo[key] = got
        return got

    def word(self, c, names, t=None):
        if t is None:
            t = self.depth
        acc = self.identity(t)
        for name in names:
            acc = self.mul(acc, self.gen(c, name, t))
        return acc


def oracle_spheres(spec, depth, max_radius, cls=0):
    """Sphere sizes of the word pseudonorm, with elements identified by their
    action on the depth-`depth` tree.  Mirrors the pseudonorm convention:
    radius n+1 elements are products of radius-n elements with unit-length
    generators, and every sphere is closed under the zero-length generators.
    """
    ta = TruncatedAction(spec, depth)
    level = spec.level(cls)
    zero = [ta.gen(cls, g.name) for g in level.zero_generators]
    unit = [ta.gen(cls, g.name) for g in level.unit_generators]

    ball = {ta.identity()}
    sphere = [ta.identity()]
    # saturate under zero-length generators
    frontier = list(sphere)
    while frontier:
        nxt = []
        for u in frontier:
            for z in zero:
                w = ta.mul(u, z)
                if w not in ball:
                    ball.add(w)
                    sphere.append(w)
                    nxt.append(w)
        frontier = nxt
    sizes = [len(sphere)]

    for _ in range(max_radius):
        prev = sphere
        sphere = []
        for u in prev:
            for s in unit:
                w = ta.mul(u, s)
                if w not in ball:
                    ball.add(w)
                    sphere.append(w)
        frontier = list(sphere)
        while frontier:
            nxt = []
            for u in frontier:
                for z in zero:
                    w = ta.mul(u, z)
                    if w not in ball:
                        ball.add(w)
                        sphere.append(w)
                        nxt.append(w)
            frontier = nxt
        sizes.append(len(sphere))
    return sizes


class ReferenceTable:
    """Every element of one class's ball: per-radius lists of ids, with the
    length and one parent link (u, generator name) of each."""

    def __init__(self, spheres, lengths, parents):
        self.spheres, self.lengths, self.parents = spheres, lengths, parents

    @property
    def max_radius(self):
        return len(self.spheres) - 1

    def sphere_sizes(self):
        return [len(s) for s in self.spheres]

    def length(self, g):
        return self.lengths[g]


class ReferenceAtlas:
    def __init__(self, spec, engine, tables):
        self.spec, self.engine, self.tables = spec, engine, tables

    def table(self, c):
        return self.tables[c]


def reference_atlas(spec, max_radius, engine, classes=None):
    """Every ball element of each class (default all) up to max_radius, by
    the per-element loop: the products of the radius-n elements with the
    unit-length generators that are not yet enumerated, closed breadth first
    under the zero-length generators.  Interns every element in `engine`,
    so its ids compare with the tables of representatives built there."""
    tables = {}
    for c in spec.classes() if classes is None else classes:
        level = spec.level(c)
        unit = [(g.name, engine.gen_id(c, g.name))
                for g in level.unit_generators]
        zero = [(g.name, engine.gen_id(c, g.name))
                for g in level.zero_generators]
        lengths, parents = {0: 0}, {0: None}

        def extend(sphere, sources, gens, n):
            # with the sphere as its own sources the loop reaches the
            # appended elements too
            for u in sources:
                for name, s in gens:
                    w = engine.mul(c, u, s, store=False)
                    if w not in lengths:
                        lengths[w] = n
                        parents[w] = (u, name)
                        sphere.append(w)

        spheres = [[0]]
        extend(spheres[0], spheres[0], zero, 0)
        for n in range(1, max_radius + 1):
            sphere = []
            extend(sphere, spheres[n - 1], unit, n)
            extend(sphere, sphere, zero, n)
            spheres.append(sphere)
        tables[c] = ReferenceTable(spheres, lengths, parents)
    return ReferenceAtlas(spec, engine, tables)


def reference_filtration(atlas, K):
    """The depth-k filtration by the plain layered set loop, for comparison
    with `incompressible.approximate_I_infty`: a fresh set per class and
    round, and one recount of every set by radius.

    Returns (counts, first_fail, depth_K, stabilization_depth) over every
    element: counts and stabilization_depth in the layout of
    IncompressibilityReport, first_fail per class as a dict holding only the
    elements that leave some depth-k set, and depth_K per class as the set
    of elements in the depth-K set.  It reads the sphere tables of a
    `reference_atlas` and the engine's section ids, not the truncated
    action above.
    """
    spec = atlas.spec
    eng = atlas.engine
    classes = [c for c in spec.classes() if c in atlas.tables]

    def radial_counts(table, ids):
        out = [0] * (table.max_radius + 1)
        for g in ids:
            out[table.length(g)] += 1
        return out

    counts, first_fail, cur = {}, {c: {} for c in classes}, {}
    for c in classes:
        table = atlas.table(c)
        nxt = atlas.table(spec.succ_class(c))
        cur[c] = set()
        for sphere in table.spheres:
            for g in sphere:
                if sum(nxt.length(x) for x in eng.children(c, g)) \
                        == table.length(g):
                    cur[c].add(g)
                else:
                    first_fail[c][g] = 1
        counts[c] = [table.sphere_sizes(), radial_counts(table, cur[c])]

    stab = None
    for k in range(2, K + 1):
        nxt = {}
        for c in classes:
            sc = spec.succ_class(c)
            nxt[c] = set()
            for g in cur[c]:
                if all(x in cur[sc] for x in eng.children(c, g)):
                    nxt[c].add(g)
                else:
                    first_fail[c][g] = k
        changed = any(len(nxt[c]) != len(cur[c]) for c in classes)
        cur = nxt
        for c in classes:
            counts[c].append(radial_counts(atlas.table(c), cur[c]))
        if not changed:
            stab = k - 1
            break
    for c in classes:
        counts[c].extend([counts[c][-1]] * (K + 1 - len(counts[c])))
    return counts, first_fail, cur, stab
