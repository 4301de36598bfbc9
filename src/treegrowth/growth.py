"""Sphere and ball enumeration for the word pseudonorm, plus the finite
counting inequalities tied to growth rates.

Radius-(n+1) elements are found by multiplying radius-n elements by the
unit-length generators and closing under the zero-length generators, so each
element is discovered exactly at its minimal pseudolength.  Tables record a
parent link per element, giving one geodesic word per element.
"""

from dataclasses import dataclass
from math import factorial

from .engine import BudgetExceeded, Engine


class TableExhausted(LookupError):
    """A length or membership query beyond the enumerated radius."""


@dataclass
class SphereTable:
    cls: int                       # level class index
    spheres: list                  # per-radius lists of interned ids
    lengths: dict                  # id -> pseudolength
    parents: dict                  # id -> (parent id, generator name) or None

    @property
    def max_radius(self):
        return len(self.spheres) - 1

    def sphere(self, n):
        if n > self.max_radius:
            raise TableExhausted(f"radius {n} > enumerated {self.max_radius}")
        return self.spheres[n]

    def sphere_sizes(self):
        return [len(s) for s in self.spheres]

    def gamma(self, n=None):
        """Cumulative ball sizes; gamma(n) = |Ball(n)|."""
        sizes = self.sphere_sizes()
        out = []
        acc = 0
        for s in sizes:
            acc += s
            out.append(acc)
        return out if n is None else out[n]

    def length(self, g):
        try:
            return self.lengths[g]
        except KeyError:
            raise TableExhausted(
                f"element not within enumerated radius {self.max_radius}")

    def geodesic(self, g):
        """Generator-name word for g from the recorded parent links."""
        word = []
        while g != 0:
            g, name = self.parents[g]
            word.append(name)
        word.reverse()
        return word


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
    """Fill the atlas table for class c up to max_radius.

    Deterministic: expansion follows stored sphere order, generator order of
    the spec, and breadth-first saturation by zero-length generators.  The
    radius-0 sphere is the subgroup generated by the zero-length generators,
    in that breadth-first order from the identity.  The engine's budget is
    the only limit: BudgetExceeded names the class, the radius being
    expanded and the elements enumerated when it stops the run.
    """
    eng = atlas.engine
    spec = atlas.spec
    level = spec.level(c)
    unit = [g.name for g in level.unit_generators]
    zero = [g.name for g in level.zero_generators]
    unit_ids = [eng.gen_id(c, nm) for nm in unit]
    zero_ids = [eng.gen_id(c, nm) for nm in zero]

    existing = atlas.tables.get(c)
    if existing is not None and existing.max_radius >= max_radius:
        return existing

    lengths = {0: 0}
    parents = {0: None}

    def extend(sphere, sources, names, ids, n):
        # append to the sphere, at radius n, every product of a source with
        # a generator that is not yet enumerated; with the sphere as its own
        # sources the loop reaches the appended elements too, which closes
        # it under zero-length generators breadth first
        for u in sources:
            for nm, s in zip(names, ids):
                w = eng.mul(c, u, s, store=False)
                if w not in lengths:
                    lengths[w] = n
                    parents[w] = (u, nm)
                    sphere.append(w)

    spheres = [[0]]
    n = 0
    try:
        extend(spheres[0], spheres[0], zero, zero_ids, 0)
        for n in range(1, max_radius + 1):
            sphere = []
            extend(sphere, spheres[n - 1], unit, unit_ids, n)
            extend(sphere, sphere, zero, zero_ids, n)
            spheres.append(sphere)
    except BudgetExceeded as e:
        raise BudgetExceeded(f"{e}; stopped at level class {c} expanding "
                             f"radius {n}, {len(lengths)} elements",
                             c, n, len(lengths)) from e

    table = SphereTable(c, spheres, lengths, parents)
    atlas.tables[c] = table
    return table


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
