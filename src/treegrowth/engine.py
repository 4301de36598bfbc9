"""Exact arithmetic for tree automorphisms defined by an eventually periodic
family of wreath recursions.

Elements are hash-consed on their wreath decomposition: two interned ids are
equal automorphisms iff they are the same id.  An element is stored as its
root permutation plus the tuple of interned section ids at the next level
class, so equality, identity testing and composition are all exact with no
depth truncation.

Products and inverses are computed recursively through the decomposition.
The recursion can revisit itself (e.g. squaring a generator whose section is
itself); such a request is handed to a session, which materializes the
closure of pending wreath nodes and settles it in one pass of Tarjan's
strongly-connected-components algorithm.  Tarjan emits components sinks
first, so every node a component refers to outside itself already has an
id: a lone node without a self-reference is interned directly, and any other
component is partitioned by bisimulation and matched against already-interned
elements through a shallow-portrait index.  The invariant maintained
throughout is minimality: no two distinct ids at the same level class are
equal as automorphisms.
"""

import sys

from . import perms

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))


class BudgetExceeded(RuntimeError):
    """The configured state-space budget was hit; raise it and retry."""


class _Cycle(Exception):
    pass


class _ClassTable:
    __slots__ = ("roots", "children", "intern", "fp_index")

    def __init__(self):
        self.roots = []
        self.children = []
        self.intern = {}
        self.fp_index = {}


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
        self.spec = spec
        self.d = spec.degree
        self.nclasses = spec.num_classes
        self.budget = budget
        self.n_ids = 0
        self.tables = [_ClassTable() for _ in range(self.nclasses)]
        self.mul_memo = {}
        self.inv_memo = {}
        self.gen_ids = [dict() for _ in range(self.nclasses)]
        self._perm_pool = {}
        ident = perms.identity(self.d)
        idch = (0,) * self.d
        for c in range((self.nclasses)):
            t = self.tables[c]
            t.roots.append(ident)
            t.children.append(idch)
            t.intern[(ident, idch)] = 0
            self.n_ids += 1
        for c in range(self.nclasses):
            t = self.tables[c]
            t.fp_index.setdefault(self._fp(c, ident, idch), []).append(0)

    # -- bookkeeping -------------------------------------------------------

    def succ(self, c):
        return self.spec.succ_class(c)

    def root(self, c, i):
        return self.tables[c].roots[i]

    def children(self, c, i):
        return self.tables[c].children[i]

    def _charge(self, n=1):
        if self.n_ids + len(self.mul_memo) + n > self.budget:
            raise BudgetExceeded(
                f"engine state-space budget of {self.budget} exceeded "
                f"({self.n_ids} elements, {len(self.mul_memo)} cached products)")

    def _fp(self, c, root, ch):
        """Shallow portrait (depth 2) used to index candidate matches.  The
        children are ids at the next class or pending session nodes."""
        sc = self.succ(c)
        t1, t2 = self.tables[sc], self.tables[self.succ(sc)]
        chroots = []
        gch = []
        for r in ch:
            if isinstance(r, int):
                chroots.append(t1.roots[r])
                gch.extend(t2.roots[g] for g in t1.children[r])
            else:
                chroots.append(r.root)
                gch.extend(t2.roots[g] if isinstance(g, int) else g.root
                           for g in r.children)
        return (root, tuple(chroots), tuple(gch))

    def _intern(self, c, root, ch):
        # fp_index is deliberately not updated here: an id whose reference
        # graph is acyclic can never be the target of a cyclic-component
        # match (a cycle of equal elements must have been created by a
        # session settlement, which does index its ids)
        t = self.tables[c]
        key = (root, ch)
        i = t.intern.get(key)
        if i is None:
            self._check_ids(1)
            i = len(t.roots)
            t.roots.append(self._pool_perm(root))
            t.children.append(ch)
            t.intern[key] = i
            self.n_ids += 1
        return i

    def _check_ids(self, n):
        # runs before any table is mutated, so a raise leaves no partial row
        if self.n_ids + n > self.budget:
            raise BudgetExceeded(
                f"engine state-space budget of {self.budget} exceeded")

    def _pool_perm(self, p):
        q = self._perm_pool.get(p)
        if q is None:
            self._perm_pool[p] = p
            return p
        return q

    # -- products and inverses --------------------------------------------

    def mul(self, c, u, v, store=True):
        """Interned id of the product u*v at class c."""
        if u == 0:
            return v
        if v == 0:
            return u
        key = (c, u, v)
        r = self.mul_memo.get(key)
        if r is not None:
            return r
        try:
            stack = set()
            res = self._mul_rec(c, u, v, stack, key if not store else None)
        except _Cycle:
            s = _Session(self)
            res = s.run(s.mul_node(c, u, v))
        if store and key not in self.mul_memo:
            self._charge()
            self.mul_memo[key] = res
        return res

    def _mul_rec(self, c, u, v, stack, skip_key):
        if u == 0:
            return v
        if v == 0:
            return u
        key = (c, u, v)
        r = self.mul_memo.get(key)
        if r is not None:
            return r
        if key in stack:
            raise _Cycle
        stack.add(key)
        t = self.tables[c]
        sc = self.succ(c)
        pu = t.roots[u]
        pv = t.roots[v]
        cu = t.children[u]
        cv = t.children[v]
        ch = tuple(self._mul_rec(sc, cu[pv[x]], cv[x], stack, skip_key)
                   for x in range(self.d))
        root = tuple(pu[pv[x]] for x in range(self.d))
        i = self._intern(c, root, ch)
        if key != skip_key:
            self._charge()
            self.mul_memo[key] = i
        stack.discard(key)
        return i

    def inv(self, c, u):
        """Interned id of the inverse of u at class c."""
        if u == 0:
            return 0
        key = (c, u)
        r = self.inv_memo.get(key)
        if r is not None:
            return r
        try:
            res = self._inv_rec(c, u, set())
        except _Cycle:
            s = _Session(self)
            res = s.run(s.inv_node(c, u))
        self.inv_memo[key] = res
        return res

    def _inv_rec(self, c, u, stack):
        if u == 0:
            return 0
        key = (c, u)
        r = self.inv_memo.get(key)
        if r is not None:
            return r
        if key in stack:
            raise _Cycle
        stack.add(key)
        t = self.tables[c]
        sc = self.succ(c)
        q = perms.inverse(t.roots[u])
        cu = t.children[u]
        ch = tuple(self._inv_rec(sc, cu[q[x]], stack) for x in range(self.d))
        i = self._intern(c, q, ch)
        self.inv_memo[key] = i
        stack.discard(key)
        return i

    # -- generators and words ---------------------------------------------

    def gen_id(self, c, name):
        gid = self.gen_ids[c].get(name)
        if gid is not None:
            return gid
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
            cc = self.succ(cc)
        return cur, cc

    def apply(self, c, i, vertex):
        """Image of a vertex (tuple over 0..d-1) under the automorphism."""
        out = []
        cur, cc = i, c
        for x in vertex:
            out.append(self.tables[cc].roots[cur][x])
            cur = self.tables[cc].children[cur][x]
            cc = self.succ(cc)
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
            sc = self.succ(cc)
            for x in range(self.d):
                stack.append((v + (x,), ch[x], sc))
        return out


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
        n = _Node(kind, cls, len(self.nodes), a=a, b=b, name=name, root=root)
        self.nodes.append(n)
        if len(self.nodes) > 1_000_000:
            raise BudgetExceeded("pending-node closure exceeded cap")
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
        """Settle the closure of the session's nodes; the id of `target`.
        Callers check the memos first, so `target` is always a node."""
        eng = self.eng
        i = 0
        while i < len(self.nodes):
            self._ensure(self.nodes[i])
            i += 1
        for comp in self._tarjan():
            # children outside the component were settled by earlier ones
            for n in comp:
                n.children = [r.id if isinstance(r, _Node) and r.id is not None
                              else r for r in n.children]
            n = comp[0]
            if len(comp) == 1 and all(isinstance(r, int) for r in n.children):
                n.id = eng._intern(n.cls, n.root, tuple(n.children))
            else:
                self._settle_component(comp)
        self._record_memos()
        return target.id

    def _ensure(self, n):
        """Materialize the child refs of a pending node (one wreath step)."""
        if n.children is not None:
            return
        eng = self.eng
        d = eng.d
        sc = eng.succ(n.cls)

        def opchild(r, x):
            if isinstance(r, int):
                return eng.tables[n.cls].children[r][x]
            self._ensure(r)
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

    def _tarjan(self):
        """Strongly connected components of the reference graph over all
        session nodes, yielded sinks first (Tarjan 1972)."""
        size = len(self.nodes)
        index = [None] * size
        low = [0] * size
        onstack = [False] * size
        stack = []
        counter = 0
        for start in self.nodes:
            if index[start.seq] is not None:
                continue
            index[start.seq] = low[start.seq] = counter
            counter += 1
            stack.append(start)
            onstack[start.seq] = True
            work = [(start, iter(start.children))]
            while work:
                v, it = work[-1]
                for w in it:
                    if not isinstance(w, _Node):
                        continue
                    if index[w.seq] is None:
                        index[w.seq] = low[w.seq] = counter
                        counter += 1
                        stack.append(w)
                        onstack[w.seq] = True
                        work.append((w, iter(w.children)))
                        break
                    if onstack[w.seq]:
                        low[v.seq] = min(low[v.seq], index[w.seq])
                else:
                    work.pop()
                    if low[v.seq] == index[v.seq]:
                        comp = []
                        while True:
                            w = stack.pop()
                            onstack[w.seq] = False
                            comp.append(w)
                            if w is v:
                                break
                        yield comp
                    if work:
                        u = work[-1][0]
                        low[u.seq] = min(low[u.seq], low[v.seq])

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
        fp = eng._fp(probe.cls, probe.root, probe.children)
        for cand in eng.tables[probe.cls].fp_index.get(fp, []):
            assign = self._try_match(probe, cand, block)
            if assign is not None:
                for n in comp:
                    n.id = assign[block[n.seq]]
                return

        # fresh elements, one per bisimulation class
        eng._check_ids(len(reps))
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
            t.children[i] = ch
            key = (rep.root, ch)
            assert key not in t.intern, "cyclic class duplicates an interned key"
            t.intern[key] = i
            # bisimilar nodes share roots, so the node portrait is the id's
            t.fp_index.setdefault(eng._fp(rep.cls, rep.root, rep.children),
                                  []).append(i)
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
