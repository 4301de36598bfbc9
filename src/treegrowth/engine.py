"""Exact arithmetic for tree automorphisms defined by an eventually periodic
family of wreath recursions.

Elements are hash-consed on their wreath decomposition: two interned ids are
equal automorphisms iff they are the same id.  An element is stored as its
root permutation plus the tuple of interned section ids at the next level
class, so equality, identity testing and composition are all exact with no
depth truncation.

Products and inverses are computed recursively through the decomposition.
The recursion can revisit itself (e.g. squaring a generator whose section is
itself); those cases are resolved by collecting the cyclic dependency set,
partitioning it by bisimulation, and matching the resulting classes against
already-interned elements through a shallow-portrait index.  The invariant
maintained throughout is minimality: no two distinct ids at the same level
class are equal as automorphisms.
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
            t.fp_index.setdefault(self._fp(c, 0), []).append(0)

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

    def _fp(self, c, i):
        """Shallow portrait (depth 2) used to index candidate matches."""
        sc = self.succ(c)
        ssc = self.succ(sc)
        t1, t2 = self.tables[sc], self.tables[ssc]
        ch = self.tables[c].children[i]
        chroots = tuple(t1.roots[r] for r in ch)
        gch = tuple(t2.roots[g] for r in ch for g in t1.children[r])
        return (self.tables[c].roots[i], chroots, gch)

    def _intern(self, c, root, ch):
        # fp_index is deliberately not updated here: an id whose reference
        # graph is acyclic can never be the target of a cyclic-component
        # match (a cycle of equal elements must have been created by a
        # session settlement, which does index its ids)
        t = self.tables[c]
        key = (root, ch)
        i = t.intern.get(key)
        if i is None:
            i = len(t.roots)
            t.roots.append(self._pool_perm(root))
            t.children.append(ch)
            t.intern[key] = i
            self.n_ids += 1
            if self.n_ids > self.budget:
                raise BudgetExceeded(
                    f"engine state-space budget of {self.budget} exceeded")
        return i

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
            node = s.mul_node(c, u, v)
            if isinstance(node, int):
                return node
            s.run()
            res = node.id
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
            node = s.inv_node(c, u)
            if isinstance(node, int):
                return node
            s.run()
            res = node.id
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
        node = s.gen_node(c, name)
        if isinstance(node, int):
            return node
        s.run()
        return node.id

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
    """One resolution episode: builds the closure of pending wreath nodes,
    resolves acyclic ones directly, and settles cyclic dependency sets by
    bisimulation partitioning plus matching against interned elements."""

    def __init__(self, eng):
        self.eng = eng
        self.nodes = []
        self.index = {}

    def _new(self, kind, cls, a=None, b=None, name=None, root=None, key=None):
        n = _Node(kind, cls, len(self.nodes), a=a, b=b, name=name, root=root)
        self.nodes.append(n)
        if len(self.nodes) > 1_000_000:
            raise BudgetExceeded("pending-node closure exceeded cap")
        if key is not None:
            self.index[key] = n
        return n

    def _refkey(self, r):
        return ("i", r) if isinstance(r, int) else ("n", r.seq)

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
            n = self._new("gen", c, name=name, root=tuple(g.root), key=key)
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
        key = ("m", c, self._refkey(a), self._refkey(b))
        n = self.index.get(key)
        if n is None:
            root = perms.compose(self._root_of(c, a), self._root_of(c, b))
            n = self._new("mul", c, a=a, b=b, root=root, key=key)
        return n

    def inv_node(self, c, a):
        if isinstance(a, int):
            if a == 0:
                return 0
            m = self.eng.inv_memo.get((c, a))
            if m is not None:
                return m
        key = ("v", c, self._refkey(a))
        n = self.index.get(key)
        if n is None:
            n = self._new("inv", c, a=a, root=perms.inverse(self._root_of(c, a)),
                          key=key)
        return n

    def run(self):
        eng = self.eng
        i = 0
        while i < len(self.nodes):
            self._ensure(self.nodes[i])
            i += 1
        pending = [n for n in self.nodes if n.id is None]
        while pending:
            progress = False
            for n in pending:
                n.children = [
                    (r.id if isinstance(r, _Node) and r.id is not None else r)
                    for r in n.children]
                if all(isinstance(r, int) for r in n.children):
                    n.id = eng._intern(n.cls, n.root, tuple(n.children))
                    progress = True
            pending = [n for n in pending if n.id is None]
            if pending and not progress:
                self._resolve_cycles(pending)
        self._record_memos()

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
            self._ensure_full(r)
            ch = r.children[x]
            return ch.id if isinstance(ch, _Node) and ch.id is not None else ch

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

    def _resolve_cycles(self, pending):
        sccs = self._tarjan(pending)
        in_pending = set(id(n) for n in pending)
        resolved_any = False
        for comp in sccs:
            comp_ids = set(id(n) for n in comp)
            ready = True
            for n in comp:
                for r in n.children:
                    if isinstance(r, _Node) and r.id is None and id(r) not in comp_ids:
                        ready = False
                        break
                if not ready:
                    break
            if ready:
                self._settle_component(comp, comp_ids)
                resolved_any = True
                break
        if not resolved_any:
            raise AssertionError("no ready strongly connected component")

    def _tarjan(self, pending):
        index = {}
        low = {}
        onstack = set()
        stack = []
        sccs = []
        counter = [0]
        pend_ids = {id(n): n for n in pending}

        def edges(n):
            for r in n.children:
                if isinstance(r, _Node) and r.id is None and id(r) in pend_ids:
                    yield r

        def strongconnect(n):
            work = [(n, iter(edges(n)))]
            index[id(n)] = low[id(n)] = counter[0]
            counter[0] += 1
            stack.append(n)
            onstack.add(id(n))
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if id(w) not in index:
                        index[id(w)] = low[id(w)] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        onstack.add(id(w))
                        work.append((w, iter(edges(w))))
                        advanced = True
                        break
                    elif id(w) in onstack:
                        low[id(v)] = min(low[id(v)], index[id(w)])
                if advanced:
                    continue
                work.pop()
                if low[id(v)] == index[id(v)]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack.discard(id(w))
                        comp.append(w)
                        if w is v:
                            break
                    sccs.append(comp)
                if work:
                    u, _ = work[-1]
                    low[id(u)] = min(low[id(u)], low[id(v)])

        for n in pending:
            if id(n) not in index:
                strongconnect(n)
        return sccs

    def _settle_component(self, comp, comp_ids):
        eng = self.eng
        # bisimulation partition of the component
        block = {}
        for n in comp:
            block[id(n)] = (n.cls, n.root)
        while True:
            sig = {}
            for n in comp:
                sig[id(n)] = (block[id(n)], tuple(
                    ("i", r) if isinstance(r, int) else ("b", block[id(r)])
                    for r in n.children))
            if len(set(sig.values())) == len(set(block.values())):
                block = sig
                break
            block = sig
        reps = {}
        for n in comp:
            reps.setdefault(block[id(n)], n)

        # try to match the component against already-interned elements
        probe = comp[0]
        assign = None
        for cand in eng.tables[probe.cls].fp_index.get(self._node_fp(probe), []):
            h = {}
            if self._try_match(probe, cand, h, block):
                assign = h
                break
        if assign is not None:
            for n in comp:
                n.id = assign[block[id(n)]]
            return

        # fresh elements, one per bisimulation class
        fresh = {}
        for b, rep in reps.items():
            t = eng.tables[rep.cls]
            i = len(t.roots)
            t.roots.append(eng._pool_perm(rep.root))
            t.children.append(None)
            fresh[b] = i
            eng.n_ids += 1
            if eng.n_ids > eng.budget:
                raise BudgetExceeded(
                    f"engine state-space budget of {eng.budget} exceeded")
        for b, rep in reps.items():
            ch = tuple(r if isinstance(r, int) else fresh[block[id(r)]]
                       for r in rep.children)
            t = eng.tables[rep.cls]
            i = fresh[b]
            t.children[i] = ch
            key = (rep.root, ch)
            assert key not in t.intern, "cyclic class duplicates an interned key"
            t.intern[key] = i
        for b, rep in reps.items():
            i = fresh[b]
            t = eng.tables[rep.cls]
            t.fp_index.setdefault(eng._fp(rep.cls, i), []).append(i)
        for n in comp:
            n.id = fresh[block[id(n)]]

    def _node_fp(self, n):
        eng = self.eng
        sc = eng.succ(n.cls)
        ssc = eng.succ(sc)
        chroots = []
        gchroots = []
        for r in n.children:
            if isinstance(r, int):
                chroots.append(eng.tables[sc].roots[r])
                for g in eng.tables[sc].children[r]:
                    gchroots.append(eng.tables[ssc].roots[g])
            else:
                chroots.append(r.root)
                for rr in r.children:
                    if isinstance(rr, int):
                        gchroots.append(eng.tables[ssc].roots[rr])
                    else:
                        gchroots.append(rr.root)
        return (n.root, tuple(chroots), tuple(gchroots))

    def _try_match(self, n0, e0, hyp, block):
        eng = self.eng
        hyp[block[id(n0)]] = e0
        stack = [(n0, e0)]
        checked = set()
        while stack:
            n, e = stack.pop()
            if (id(n), e) in checked:
                continue
            checked.add((id(n), e))
            t = eng.tables[n.cls]
            if t.roots[e] != n.root:
                return False
            ech = t.children[e]
            for x, r in enumerate(n.children):
                if isinstance(r, int):
                    if r != ech[x]:
                        return False
                else:
                    b = block[id(r)]
                    if b in hyp:
                        if hyp[b] != ech[x]:
                            return False
                    else:
                        hyp[b] = ech[x]
                    stack.append((r, ech[x]))
        return True

    def _record_memos(self):
        eng = self.eng
        for n in self.nodes:
            if n.id is None:
                continue
            if n.kind == "gen":
                eng.gen_ids[n.cls][n.name] = n.id
            elif n.kind == "mul":
                a = n.a.id if isinstance(n.a, _Node) else n.a
                b = n.b.id if isinstance(n.b, _Node) else n.b
                if a is not None and b is not None:
                    eng.mul_memo[(n.cls, a, b)] = n.id
            else:
                a = n.a.id if isinstance(n.a, _Node) else n.a
                if a is not None:
                    eng.inv_memo[(n.cls, a)] = n.id
