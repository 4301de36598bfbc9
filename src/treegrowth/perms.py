"""Small helpers for permutations of {0..d-1}, stored as image tuples."""

from itertools import permutations


def identity(d):
    return tuple(range(d))


def compose(p, q):
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def is_perm(p, d):
    return len(p) == d and sorted(p) == list(range(d))


def closure(gens, d, cap=100000):
    """Subgroup of Sym(d) generated by `gens`, as a set of image tuples."""
    seen = {identity(d)}
    frontier = [identity(d)]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > cap:
                        raise RuntimeError("permutation closure exceeded cap")
        frontier = nxt
    return seen


def orbit(gens, point, d):
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def is_transitive(gens, d):
    return len(orbit([tuple(g) for g in gens], 0, d)) == d


def all_perms(d):
    return [p for p in permutations(range(d))]
