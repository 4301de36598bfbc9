"""Exact arithmetic for tree automorphisms defined by an eventually periodic
family of wreath recursions.

Elements are hash-consed on their wreath decomposition: two interned ids are
equal automorphisms iff they are the same id.  An element is stored as its
root permutation plus the tuple of interned section ids at the next level
class, so equality, identity testing and composition are all exact with no
depth truncation.

A product takes one wreath step when every child product is trivial,
already memoized, or the product itself (a self-loop, settled as a session
would settle it); any other product, and every inverse and generator, is
handed to a session.  A session materializes the closure of pending wreath
nodes and settles it in one pass of Tarjan's strongly-connected-components
algorithm.  Tarjan emits components sinks first, so every node a component
refers to outside itself already has an id: a lone node without a
self-reference is interned directly, and any other component is partitioned
by bisimulation and matched against already-interned elements through a
root-keyed index of the ids on reference cycles.  The invariant maintained
throughout is minimality: no two distinct ids at the same level class are
equal as automorphisms.  One budget bounds the state: interned ids plus
cached products, with the nodes of a running session counted as products to
come, plus the entries a caller holds outside the engine and counts in
`held` (the packed representative keys of `growth`'s sphere tables).
"""

from . import perms


class BudgetExceeded(RuntimeError):
    """The configured state-space budget was hit; raise it and retry.

    From enumerate_spheres and count_spheres it carries the level class
    `cls`, the `radius` being expanded, the `elements` enumerated and the
    `sizes` of the spheres it completed, radii 0 to radius - 1; from the
    engine alone they are None.
    """

    def __init__(self, message, cls=None, radius=None, elements=None,
                 sizes=None):
        super().__init__(message)
        self.cls, self.radius, self.elements = cls, radius, elements
        self.sizes = sizes


class _ClassTable:
    # intern: root -> {children: id}, each key the tuple `children` holds
    __slots__ = ("roots", "children", "intern", "cyclic")

    def __init__(self):
        self.roots = []
        self.children = []
        self.intern = {}
        self.cyclic = {}


class _Node:
    __slots__ = ("kind", "cls", "a", "b", "name", "root", "children", "id", "seq")

    def __init__(self, kind, cls, seq, a=None, b=None, name=None, root=None):
        self.kind = kind
        self.cls = cls
        self.seq = seq
        self.a = a
        self.b = b
        self.name = name
        self.root = root
        self.children = None
        self.id = None


class Engine:
    """Canonical-form arithmetic bound to one FamilySpec."""

    def __init__(self, spec, budget=10_000_000):
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        self.spec = spec
        self.d = spec.degree
        self.nclasses = spec.num_classes
        self.budget = budget
        self.held = 0       # entries held outside the engine, budgeted
        self.n_ids = 0
        self.tables = [_ClassTable() for _ in range(self.nclasses)]
        self.mul_memo = {}
        self.inv_memo = {}
        self.gen_ids = [dict() for _ in range(self.nclasses)]
        self._perm_pool = {}
        self.succ = [spec.succ_class(c) for c in range(self.nclasses)]
        ident = self._pool_perm(perms.identity(self.d))
        idch = (0,) * self.d
        for t in self.tables:
            t.roots.append(ident)
            t.children.append(idch)
            t.intern[ident] = {idch: 0}
            t.cyclic[ident] = [0]   # the identity's sections are identities
            self.n_ids += 1

    # -- bookkeeping -------------------------------------------------------

    def root(self, c, i):
        return self.tables[c].roots[i]

    def children(self, c, i):
        return self.tables[c].children[i]

    def _intern(self, c, root, ch, pending=0):
        # Invariant: every id on a reference cycle is listed in `cyclic`
        # under its root.  An id made here is on none when its children are
        # older ids, whose children never change.  Ids on cycles come only
        # from a session settlement or a self-loop (_settle_loop), which
        # list them.
        t = self.tables[c]
        ids = t.intern.get(root)
        i = None if ids is None else ids.get(ch)
        if i is None:
            self._check_ids(pending + 1)
            i = len(t.roots)
            root = self._pool_perm(root)
            t.roots.append(root)
            t.children.append(ch)
            t.intern.setdefault(root, {})[ch] = i
            self.n_ids += 1
        return i

    def _check_ids(self, n):
        # runs before any table or memo is mutated, so a raise leaves no
        # partial row
        if self.n_ids + len(self.mul_memo) + self.held + n > self.budget:
            held = f" and {self.held} sphere keys" if self.held else ""
            raise BudgetExceeded(
                f"engine state-space budget of {self.budget} exceeded "
                f"({self.n_ids} elements, {len(self.mul_memo)} cached "
                f"products){held}")

    def _pool_perm(self, p):
        q = self._perm_pool.get(p)
        if q is None:
            self._perm_pool[p] = p
            return p
        return q

    # -- products and inverses --------------------------------------------

    def mul(self, c, u, v, store=True):
        """Interned id of the product u*v at class c.  When every child
        product is trivial or memoized this is one wreath step, which stores
        (c, u, v) in mul_memo only if `store` is true; a self-loop, where
        the other child products are the product itself, and any other
        product are settled and recorded as a session would."""
        if u == 0:
            return v
        if v == 0:
            return u
        key = (c, u, v)
        memo = self.mul_memo
        r = memo.get(key)
        if r is not None:
            return r
        t = self.tables[c]
        sc = self.succ[c]
        pv = t.roots[v]
        cu = t.children[u]
        cv = t.children[v]
        ch = []
        loop = False
        for x in range(self.d):
            a = cu[pv[x]]
            b = cv[x]
            if a == 0:
                ch.append(b)
            elif b == 0:
                ch.append(a)
            else:
                r = memo.get((sc, a, b))
                if r is None:
                    if (sc, a, b) != key:
                        s = _Session(self)
                        return s.run(s.mul_node(c, u, v))
                    loop = True
                ch.append(r)
        pu = t.roots[u]
        root = tuple([pu[y] for y in pv])
        if loop:
            return self._settle_loop(c, key, root, ch)
        i = self._intern(c, root, tuple(ch))
        if store:
            self._check_ids(1)
            memo[key] = i
        return i

    def _settle_loop(self, c, key, root, ch):
        # A product whose one unmemoized child product is itself (None in
        # ch): what a session does with that one-node component, without
        # the session.  It counts the pending product, matches the ids on
        # cycles under its root, or else interns and lists a fresh id.
        self._check_ids(1)
        t = self.tables[c]
        for i in t.cyclic.get(root, ()):
            if all(e == (i if r is None else r)
                   for e, r in zip(t.children[i], ch)):
                break
        else:
            new = len(t.roots)
            i = self._intern(c, root,
                             tuple(new if r is None else r for r in ch), 1)
            t.cyclic.setdefault(t.roots[i], []).append(i)
        self.mul_memo[key] = i
        return i

    def inv(self, c, u):
        """Interned id of the inverse of u at class c."""
        s = _Session(self)
        return s.run(s.inv_node(c, u))

    # -- generators and words ---------------------------------------------

    def gen_id(self, c, name):
        s = _Session(self)
        return s.run(s.gen_node(c, name))

    def element_from_word(self, c, names):
        cur = 0
        for name in names:
            cur = self.mul(c, cur, self.gen_id(c, name))
        return cur

    # -- sections, actions, portraits -------------------------------------

    def section_at(self, c, i, vertex):
        cur, cc = i, c
        for x in vertex:
            cur = self.tables[cc].children[cur][x]
            cc = self.succ[cc]
        return cur, cc

    def apply(self, c, i, vertex):
        """Image of a vertex (tuple over 0..d-1) under the automorphism."""
        out = []
        cur, cc = i, c
        for x in vertex:
            out.append(self.tables[cc].roots[cur][x])
            cur = self.tables[cc].children[cur][x]
            cc = self.succ[cc]
        return tuple(out)

    def portrait(self, c, i, depth):
        """Map from vertices of length < depth to section root permutations."""
        out = {}
        stack = [((), i, c)]
        while stack:
            v, cur, cc = stack.pop()
            if len(v) >= depth:
                continue
            out[v] = self.tables[cc].roots[cur]
            ch = self.tables[cc].children[cur]
            sc = self.succ[cc]
            for x in range(self.d):
                stack.append((v + (x,), ch[x], sc))
        return out

    # -- invariants ---------------------------------------------------------

    def audit(self):
        """Assert the engine's invariants over every id of every class:
        `intern` agrees with `roots` and `children`, no two ids are
        bisimilar (minimality), and every id on a reference cycle is listed
        in `cyclic` under its root.  The check lives in treegrowth.audit,
        which no command imports, so it costs the command line nothing."""
        from .audit import audit
        audit(self)


def _components(out):
    """Strongly connected components of the graph q -> out[q] over states
    0..len(out)-1, yielded sinks first (Tarjan 1972, iterative)."""
    n = len(out)
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(out[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(out[w])))
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    yield comp
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])


class _Session:
    """One resolution episode: materializes the closure of pending wreath
    nodes, then settles it component by component in Tarjan's emission
    order, interning acyclic nodes directly and settling cyclic components
    by bisimulation partitioning plus matching against interned elements."""

    def __init__(self, eng):
        self.eng = eng
        self.nodes = []
        self.index = {}

    def _new(self, key, kind, cls, a=None, b=None, name=None, root=None):
        # a pending node counts as the product the session will record
        self.eng._check_ids(len(self.nodes) + 1)
        n = _Node(kind, cls, len(self.nodes), a=a, b=b, name=name, root=root)
        self.nodes.append(n)
        self.index[key] = n
        return n

    def _root_of(self, c, r):
        return self.eng.tables[c].roots[r] if isinstance(r, int) else r.root

    def gen_node(self, c, name):
        gid = self.eng.gen_ids[c].get(name)
        if gid is not None:
            return gid
        key = ("g", c, name)
        n = self.index.get(key)
        if n is None:
            g = self.eng.spec.level(c).gen(name)
            n = self._new(key, "gen", c, name=name, root=tuple(g.root))
        return n

    def mul_node(self, c, a, b):
        if isinstance(a, int) and a == 0:
            return b
        if isinstance(b, int) and b == 0:
            return a
        if isinstance(a, int) and isinstance(b, int):
            m = self.eng.mul_memo.get((c, a, b))
            if m is not None:
                return m
        key = ("m", c, a, b)
        n = self.index.get(key)
        if n is None:
            root = perms.compose(self._root_of(c, a), self._root_of(c, b))
            n = self._new(key, "mul", c, a=a, b=b, root=root)
        return n

    def inv_node(self, c, a):
        if isinstance(a, int):
            if a == 0:
                return 0
            m = self.eng.inv_memo.get((c, a))
            if m is not None:
                return m
        key = ("v", c, a)
        n = self.index.get(key)
        if n is None:
            n = self._new(key, "inv", c, a=a,
                          root=perms.inverse(self._root_of(c, a)))
        return n

    def run(self, target):
        """Settle the closure of the session's nodes; the id of `target`,
        which is returned unchanged when it is already an id."""
        if isinstance(target, int):
            return target
        eng = self.eng
        i = 0
        while i < len(self.nodes):
            self._ensure(self.nodes[i])
            i += 1
        # the reference graph over session nodes; ids are not followed
        out = [[r.seq for r in n.children if isinstance(r, _Node)]
               for n in self.nodes]
        for seqs in _components(out):
            comp = [self.nodes[q] for q in seqs]
            # children outside the component were settled by earlier ones
            for n in comp:
                n.children = [r.id if isinstance(r, _Node) and r.id is not None
                              else r for r in n.children]
            n = comp[0]
            if len(comp) == 1 and all(isinstance(r, int) for r in n.children):
                n.id = eng._intern(n.cls, n.root, tuple(n.children),
                                   len(self.nodes))
            else:
                self._settle_component(comp)
        self._record_memos()
        return target.id

    def _ensure(self, n):
        """Materialize the child refs of a pending node (one wreath step)."""
        eng = self.eng
        d = eng.d
        sc = eng.succ[n.cls]

        def opchild(r, x):
            # operands precede n in `run`'s order, so their children are set
            if isinstance(r, int):
                return eng.tables[n.cls].children[r][x]
            return r.children[x]

        if n.kind == "gen":
            g = eng.spec.level(n.cls).gen(n.name)
            ch = []
            for x in range(d):
                cur = 0
                for letter in g.children[x]:
                    cur = self.mul_node(sc, cur, self.gen_node(sc, letter))
                ch.append(cur)
            n.children = ch
        elif n.kind == "mul":
            pv = self._root_of(n.cls, n.b)
            n.children = [self.mul_node(sc, opchild(n.a, pv[x]), opchild(n.b, x))
                          for x in range(d)]
        else:
            q = n.root
            n.children = [self.inv_node(sc, opchild(n.a, q[x]))
                          for x in range(d)]

    # -- cyclic dependency sets -------------------------------------------

    def _settle_component(self, comp):
        eng = self.eng
        # bisimulation partition of the component
        block = {}
        for n in comp:
            block[n.seq] = (n.cls, n.root)
        while True:
            sig = {}
            for n in comp:
                sig[n.seq] = (block[n.seq], tuple(
                    ("i", r) if isinstance(r, int) else ("b", block[r.seq])
                    for r in n.children))
            if len(set(sig.values())) == len(set(block.values())):
                block = sig
                break
            block = sig
        reps = {}
        for n in comp:
            reps.setdefault(block[n.seq], n)

        # try to match the component against already-interned elements
        probe = comp[0]
        for cand in eng.tables[probe.cls].cyclic.get(probe.root, ()):
            assign = self._try_match(probe, cand, block)
            if assign is not None:
                for n in comp:
                    n.id = assign[block[n.seq]]
                return

        # fresh elements, one per bisimulation class
        eng._check_ids(len(self.nodes) + len(reps))
        fresh = {}
        for b, rep in reps.items():
            t = eng.tables[rep.cls]
            fresh[b] = len(t.roots)
            t.roots.append(eng._pool_perm(rep.root))
            t.children.append(None)
            eng.n_ids += 1
        for b, rep in reps.items():
            ch = tuple(r if isinstance(r, int) else fresh[block[r.seq]]
                       for r in rep.children)
            t = eng.tables[rep.cls]
            i = fresh[b]
            root = t.roots[i]
            t.children[i] = ch
            ids = t.intern.setdefault(root, {})
            assert ch not in ids, "cyclic class duplicates an interned key"
            ids[ch] = i
            t.cyclic.setdefault(root, []).append(i)
        for n in comp:
            n.id = fresh[block[n.seq]]

    def _try_match(self, n0, e0, block):
        """Map from bisimulation block to interned id that embeds the
        component at e0, or None."""
        eng = self.eng
        hyp = {block[n0.seq]: e0}
        stack = [(n0, e0)]
        checked = set()
        while stack:
            n, e = stack.pop()
            if (n.seq, e) in checked:
                continue
            checked.add((n.seq, e))
            t = eng.tables[n.cls]
            if t.roots[e] != n.root:
                return None
            ech = t.children[e]
            for x, r in enumerate(n.children):
                if isinstance(r, int):
                    if r != ech[x]:
                        return None
                else:
                    b = block[r.seq]
                    if b in hyp:
                        if hyp[b] != ech[x]:
                            return None
                    else:
                        hyp[b] = ech[x]
                    stack.append((r, ech[x]))
        return hyp

    def _record_memos(self):
        eng = self.eng

        def ref(r):
            return r.id if isinstance(r, _Node) else r

        for n in self.nodes:
            if n.kind == "gen":
                eng.gen_ids[n.cls][n.name] = n.id
            elif n.kind == "mul":
                eng.mul_memo[(n.cls, ref(n.a), ref(n.b))] = n.id
            else:
                eng.inv_memo[(n.cls, ref(n.a))] = n.id
