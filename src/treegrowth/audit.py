"""The engine's invariants, asserted on demand by `Engine.audit()`.

Minimality is checked by partition refinement over all ids of every
class (Hopcroft 1971), intern agreement by a pass over each class table,
and the cyclic index against the strongly connected components of the
reference graph.
"""

from .engine import _components


def audit(eng):
    """Raise AssertionError unless `intern`, root -> {children: id}, agrees
    with `roots` and `children`, no two ids are bisimilar, and every id on
    a reference cycle is listed in `cyclic` under its root.  The checks
    raise explicitly, so they hold under `python -O` too."""
    offset, n = [], 0
    for c, t in enumerate(eng.tables):
        keys = sum(map(len, t.intern.values()))
        if not len(t.roots) == len(t.children) == keys:
            raise AssertionError(
                f"class {c}: {len(t.roots)} ids but {keys} keys")
        for i, (root, ch) in enumerate(zip(t.roots, t.children)):
            if t.intern.get(root, {}).get(ch) != i:
                raise AssertionError(
                    f"class {c}: intern disagrees with the tables at id {i}")
        offset.append(n)
        n += len(t.roots)
    # the reference graph over global states offset[c] + i
    delta = [[] for _ in range(eng.d)]
    for c, t in enumerate(eng.tables):
        base = offset[eng.succ[c]]
        for ch in t.children:
            for x in range(eng.d):
                delta[x].append(base + ch[x])
    where = [(c, i) for c, t in enumerate(eng.tables)
             for i in range(len(t.roots))]
    blocks = _coarsest_bisimulation(
        [(c, eng.tables[c].roots[i]) for c, i in where], delta)
    for members in blocks:
        if len(members) > 1:
            raise AssertionError(
                f"bisimilar ids {sorted(where[q] for q in members)}")
    out = [[targets[q] for targets in delta] for q in range(n)]
    for comp in _components(out):
        if len(comp) == 1 and comp[0] not in out[comp[0]]:
            continue    # on no cycle
        for q in comp:
            c, i = where[q]
            t = eng.tables[c]
            if i not in t.cyclic.get(t.roots[i], ()):
                raise AssertionError(
                    f"class {c}: id {i} is on a reference cycle but not "
                    f"listed in cyclic")


def _coarsest_bisimulation(labels, delta):
    """Blocks (sets of states) of the coarsest partition that refines the
    partition by label and is stable under every transition list in
    `delta`: Hopcroft's (1971) algorithm, which splits on the smaller half."""
    n = len(labels)
    first = {}
    blk = [first.setdefault(lab, len(first)) for lab in labels]
    members = [set() for _ in first]
    for q, b in enumerate(blk):
        members[b].add(q)
    # preimages per letter, as states sorted by target with offsets
    pre = []
    for targets in delta:
        start = [0] * (n + 1)
        for t in targets:
            start[t + 1] += 1
        for q in range(n):
            start[q + 1] += start[q]
        fill = start[:-1]
        order = [0] * n
        for p, t in enumerate(targets):
            order[fill[t]] = p
            fill[t] += 1
        pre.append((order, start))
    waiting = list(range(len(members)))
    queued = [True] * len(members)
    while waiting:
        s = waiting.pop()
        queued[s] = False
        splitter = list(members[s])
        for order, start in pre:
            hit = {}
            for q in splitter:
                for p in order[start[q]:start[q + 1]]:
                    hit.setdefault(blk[p], []).append(p)
            for b, part in hit.items():
                if len(part) == len(members[b]):
                    continue
                nb = len(members)
                members.append(set(part))
                members[b].difference_update(part)
                for p in part:
                    blk[p] = nb
                if queued[b]:
                    queued.append(True)
                    waiting.append(nb)
                else:
                    queued.append(False)
                    small = nb if len(part) <= len(members[b]) else b
                    queued[small] = True
                    waiting.append(small)
    return members
