"""Incompressible elements: the depth-k filtration, its stabilization on
enumerated balls, minimal incompressible factorizations, the level function,
and the ternary geodesic normal-form analysis.

The depth-k set at one level class contains the elements whose section
lengths are additive down to k levels.  The infinite intersection is
approximated from above by the depth-K set; when consecutive depths agree on
every enumerated ball the approximation is exact there, because sections of
ball elements stay inside the next ball.

Everything here runs on the A×A double-coset representatives of the sphere
tables, by their dense index.  The factorization DP expands each reached
representative from its decoded key through the table's kernel
(`SphereTable.multiply`), one wreath step a product, so it holds no
witness, reads no engine internals and interns no step factor.
"""

from array import array
from dataclasses import dataclass, field
from itertools import compress, filterfalse

from .growth import _column, _kept_steps


class NotTernarySpinal(ValueError):
    pass


@dataclass
class IncompressibilityReport:
    K: int
    counts: dict                 # class -> list over k of per-radius counts
    first_fail: dict             # class -> index column: least k out of I_k
    stabilization_depth: int = None   # least k with I_k = I_{k+1} on all balls
    tables: dict = None          # class -> SphereTable the reps belong to

    @property
    def exact(self):
        """True when the depth-K sets equal the incompressible sets on the
        enumerated balls."""
        return self.stabilization_depth is not None

    def fail_depth(self, c, g):
        """first_fail of a ball id, read at its representative's slot; None
        when the id is in every depth-k set computed.  TableExhausted for
        an id outside the table's ball, whose depth is unknown."""
        return max(self.first_fail[c][self.tables[c].find(g)[0]], 0) or None

    def in_Ik(self, c, g, k):
        if k > self.K and not self.exact:
            raise ValueError(f"membership only known up to depth {self.K}")
        return (self.fail_depth(c, g) or k + 1) > k


def approximate_I_infty(atlas, K):
    """The depth-k filtration of every enumerated table, k = 1..K, held as
    first_fail[c], a column over class c's representatives: the least k
    with it outside the depth-k set, -1 for one in all of them.

    It runs on representatives.  With A rooted the sections of a1·g·a3 are
    those of g permuted, and in general they are b·g_x·b' with b, b' in the
    successor class's A, because zero-length generators have zero-length
    sections.  So section lengths, and by induction on k membership in
    every depth-k set, are the same on the whole orbit, and a section's
    depth is read through its own representative.

    Round 1 drops the representatives whose section lengths do not add up,
    resolving each distinct section id once, in the order first met, and
    lists the rest per class.  Round k drops a listed g with a section out
    of the depth-(k-1) set; as g's sections were all in the depth-(k-2)
    set, that is one with first_fail k-1.  So a class with none is
    skipped, and the k that a drop writes is read by no test of round k.
    The first round that drops nothing gives stabilization_depth = k-1.
    counts[c][k][n] is the radius-n sphere size less the orbit sizes of the
    radius-n representatives with first_fail at most k.
    """
    if K < 1:
        raise ValueError(f"depth K must be at least 1, got {K}")
    classes = [c for c in atlas.spec.classes() if c in atlas.tables]
    succ = atlas.engine.succ
    for c in classes:
        if succ[c] not in atlas.tables:
            raise ValueError(
                f"class {succ[c]} needed for sections of class {c}")

    first_fail, live, sections = {}, {}, {}
    for c in classes:
        table, nxt = atlas.table(c), atlas.table(succ[c])
        rep = sections[c] = {}  # section id -> its representative
        size = {}               # section id -> the representative's length
        ff = first_fail[c] = _column(K, len(table.keys))
        alive = live[c] = _column(len(table.keys), 0)  # no int per index
        for n, sphere in enumerate(table.spheres):
            for g, xs in zip(sphere, table.sections(sphere)):
                try:
                    total = sum(map(size.__getitem__, xs))
                except KeyError:
                    for x in filterfalse(size.__contains__, xs):
                        rep[x] = r = nxt.find(x)[0]
                        size[x] = nxt.lengths[r]
                    total = sum(map(size.__getitem__, xs))
                if total != n:
                    ff[g] = 1
                else:
                    alive.append(g)

    stab = None
    for k in range(2, K + 1):
        dropped = False
        for c in classes:
            out, ff = first_fail[succ[c]], first_fail[c]
            dead = {x for x, r in sections[c].items() if out[r] == k - 1}
            if dead:
                for g, xs in zip(live[c], atlas.table(c).sections(live[c])):
                    if not dead.isdisjoint(xs):
                        ff[g] = k
                        dropped = True
                live[c] = array(live[c].typecode,
                                [g for g in live[c] if ff[g] < 0])
        if not dropped:
            stab = k - 1
            break

    counts = {}
    for c in classes:
        table, ff = atlas.table(c), first_fail[c]
        drops = [[0] * len(table.spheres) for _ in range(-1, K + 1)]
        for n, sphere in enumerate(table.spheres):
            for g in sphere:
                drops[ff[g]][n] += table.orbits[g]
        counts[c] = [table.sphere_sizes()]
        for k in range(1, K + 1):
            counts[c].append([m - d for m, d in zip(counts[c][-1], drops[k])])
    return IncompressibilityReport(K, counts, first_fail, stab,
                                   {c: atlas.table(c) for c in classes})


@dataclass
class LevelFunctionResult:
    value: int
    radius: int                  # ball radius actually inspected
    exact: bool                  # filtration stabilized, so value is exact
    lower_bound_only: bool       # requested radius exceeded the tables
    empty_family: bool = False   # no compressible element in the ball


def level_function(atlas, report, c, r):
    """Deepest level needed before every compressible element of the radius-r
    ball shows a section-length drop.

    When no compressible element exists in the ball, the value is 1 by
    convention and flagged.  When r exceeds the enumerated radius, the value
    computed on the available ball is a lower bound for the true one; any
    check monotone in the level stays conclusive with it.
    """
    counts, r_eff = report.counts[c], min(int(r), atlas.table(c).max_radius)
    m = max(r_eff + 1, 0)       # a count drops at k where some first_fail is k
    top = max((k for k in range(1, report.K + 1)
               if counts[k][:m] != counts[k - 1][:m]), default=-1)
    return LevelFunctionResult(max(top, 1), r_eff, report.exact,
                               r_eff < int(r), empty_family=top < 0)


def factorization_dp(atlas, report, c, max_n):
    """Minimal counts N of additive factorizations into depth-K elements,
    keyed by representative, for the whole radius-max_n ball, with one
    backpointer per representative.

    N is constant on every A×A double coset but A itself: if g = h1⋯hm is
    additive, so is a1·g·a3 = (a1·h1)⋯(hm·a3), and the depth-K set is a
    union of double cosets.  On A, N[0] = 0 stands for the identity alone.

    Layered BFS over double cosets: the j-th layer holds those of minimal
    count j, and every additive factorization has additive prefixes.  Each
    reached representative p is expanded from its key by p·a·h, a in A
    and h a depth-K representative of positive length, shortest h first,
    each bucket of steps in one call of the kernel (`SphereTable.multiply`),
    whose keys are read back through the table's index.
    For w = A[x]·p·A[y], w·A·h = A[x]·p·A·h, so these reach x·y's double
    coset for all x in p's and y in the depth-K set.  Only |p| + |h| <= R =
    min(max_n, table radius) is additive in the ball, so no representative
    found is new.  No witness is held: frontier entry (q, i3) has
    q = A[i1]·w_q·A[i3], w_q the product of `factors_of(back, q)`.  If
    the canonical form gives q as A[i1]·(p·A[ia]·h)·A[i3], back[q] =
    (p, times[i3_p][ia], h), for then w_q = w_p·A[i3_p]·A[ia]·h =
    A[i1_p]⁻¹·p·A[ia]·h keeps i3.  The identity's layer is written, not
    formed: A[ia]·h lies in h's own double coset and is first found at
    ia = 0 as h itself, so layer 1 is the depth-K set in sphere order, each
    h with back[h] = (0, 0, h) and frontier entry (h, 0).

    Prefix closure prunes the products that cannot be additive.  If
    |p·x| = |p| + |x| and x = y·z with |x| = |y| + |z|, then
    |p·y| >= |p·x| - |z| = |p| + |y|, so p·y is additive too.  Every
    depth-K h of length at least 2 has a geodesic A[j]·s·(rest), s a
    unit-length generator, and s = A[j1]·h1·A[j3] with h1 its
    representative, so A[ia]·h = (A[ia·j·j1]·h1)·(A[j3]·rest) with lengths
    1 and |h| - 1.  Hence p·A[ia]·h is formed only when the length-1
    product p·A[ia·j·j1]·h1 was additive; where h1 is not depth-K that
    product is never formed, and the step is always kept.  The length-1
    products themselves skip, from R = 3 on, by enumeration's rule
    (`_kept_steps`) for p's link suffix (u, i3): a step (a, h1) with
    |s_u·A[i3]·a·h1| <= 1 has |p·a·h1| <= |p|, so it is not additive
    (`_prefix_filters` says why not at R = 2).  Each bucket is filtered in
    its own order, and a pruned product is one the loop would have formed
    and then skipped as not additive, so N and back, insertion order
    included, are those of the unpruned loop.
    """
    table = atlas.table(c)
    R = min(max_n, table.max_radius)
    zero, lengths, links = table.zero, table.lengths, table.links
    multiply, index, times = table.multiply, table.index, zero.times
    ff = report.first_fail[c]
    factors = [[h for h in sphere if ff[h] < 0]
               for sphere in table.spheres[1:R + 1]]
    layer = [h for hs in factors for h in hs]
    N = {0: 0, **dict.fromkeys(layer, 1)}
    back = {0: None, **{h: (0, 0, h) for h in layer}}
    frontier = [(h, 0) for h in layer]
    # every other p has |p| >= 1, so only buckets 1 to R - 1 are stepped
    steps = [zero.steps([(h, *e) for h, e in zip(hs, table.elements(hs))])
             for hs in factors[:-1]]
    if steps:
        by_suffix, deps = _prefix_filters(table, factors, steps[0])
        # bits[b]: p times the b-th length-1 step is additive; the last
        # bit, always set, keeps the steps that depend on none
        bits0 = [False] * len(steps[0]) + [True]

    j = 1
    while frontier:
        j += 1
        nxt = []
        for (p, i3p), (root_p, ch_p) in zip(
                frontier, table.elements([p for p, _ in frontier])):
            lp, row = lengths[p], times[i3p]
            for lh in range(1, R - lp + 1):
                if lh == 1:
                    bits = bits0[:]
                    todo = by_suffix[links[p] % len(by_suffix)]
                else:
                    todo = compress(steps[lh - 1],
                                    map(bits.__getitem__, deps[lh - 2]))
                for step, key, _, _, i3 in multiply(root_p, ch_p, todo):
                    q = index[key]
                    # |q| <= |p| + |h| <= R: q is a representative
                    if lengths[q] != lp + lh:
                        continue
                    if lh == 1:
                        bits[step[4]] = True
                    if q in N:
                        continue
                    N[q] = j
                    back[q] = (p, row[step[0]], step[1])
                    nxt.append((q, i3))
        frontier = nxt
    return N, back


def _prefix_filters(table, factors, steps1):
    """What factorization_dp prunes by: per link suffix, the length-1 steps
    that enumeration's skip rule (`_kept_steps`) keeps, each numbered
    b = 0, 1, ... in its order as step[4]; and for the buckets of length 2
    to R - 1, the b each step depends on.  `after[name][x]` is the b of
    A[x]·name, or len(steps1), the always-set bit, when the generator's
    representative is not depth-K.

    At R = 2 every p is a length-1 factor, so what the rule prunes is
    among the loop's |L1|·|A|·|L1| products, L1 the length-1 factors,
    and the rule forms |units|·|A|·|L1|, no fewer: there one list keeps
    every step and no product is formed.  From R = 3 on it pays."""
    first = [step + (b,) for b, step in enumerate(steps1)]
    if len(factors) == 2:
        return [first], []
    zero, times = table.zero, table.zero.times
    place = {h: k for k, h in enumerate(factors[0])}
    none, after, units = len(steps1), {}, []
    for name in table.units:
        s = zero.eng.gen_id(table.cls, name)
        h1, j1, _ = table.find(s)           # s = A[j1]·h1·A[j3]
        k = place.get(h1)
        after[name] = [none if k is None else times[x][j1] * len(place) + k
                       for x in range(zero.size)]
        units.append(s)

    def letter(h):
        # after[name] and j for h's geodesic A[j]·name⋯, read off its links
        j = 0
        while True:
            h, i1, ia, name, _ = table.link(h)
            j = times[j][i1]
            if h == 0:
                return after[name], times[j][ia]

    deps = []
    for hs in factors[1:-1]:
        lead = [letter(h) for h in hs]
        deps.append([bs[times[ia][j]] for ia in range(zero.size)
                     for bs, j in lead])
    low = set(table.keys[:table.spheres[1].stop])
    return _kept_steps(table, units, first, low), deps


def factors_of(back, g):
    """The factors of g's witness, in order, as (ia, h) for the factor
    A[ia]·h with h a depth-K representative; none is interned."""
    out = []
    while g != 0:
        g, ia, h = back[g]
        out.append((ia, h))
    return out[::-1]


# -- ternary spinal geodesic data ------------------------------------------

# rooted exponent e of each power (0 1 2)^e of the full 3-cycle, e = 1, 2
_CYCLE_EXPONENTS = {(1, 2, 0): 1, (2, 0, 1): 2}


def is_ternary_spinal(spec):
    """The normal-form analysis and the polynomial bound apply only here: every
    class-0 zero-length generator must have a rooted exponent."""
    return (spec.degree == 3 and spec.meta.get("kind") == "spinal"
            and all(g.root in _CYCLE_EXPONENTS
                    for g in spec.level(0).zero_generators))


@dataclass
class TernaryGeodesicData:
    beta: list                   # spine letter names, in word order
    c: list                      # conjugation exponents mod 3
    s: int                       # trailing rooted exponent mod 3
    derivative: list             # successive differences of c, mod 3
    m_c: int = None              # switch position when the two-run law holds

    @property
    def two_run(self):
        """No zero differences and never a 1 followed by a 2."""
        dv = self.derivative
        return 0 not in dv and (1, 2) not in zip(dv, dv[1:])


def _rooted_exponent(spec, c, name):
    e = _CYCLE_EXPONENTS.get(spec.level(c).gen(name).root)
    if e is None:
        raise NotTernarySpinal(
            f"root of {name} is not a power of the full cycle")
    return e


def extract_ternary_data(spec, table, spec_cls, g, j1=0, j3=0):
    """Parse the stored geodesic of A[j1]·g·A[j3], g a representative, into
    conjugate normal form.

    The word a^{k_0} b_1 a^{k_1} ... b_m a^{k_m} is rewritten (with the
    convention x^y = y x y^{-1}) as b_1^{a^{c_1}} ... b_m^{a^{c_m}} a^s where
    c_j is the prefix sum of rooted exponents and s the total sum, mod 3.
    """
    if not is_ternary_spinal(spec):
        raise NotTernarySpinal(f"{spec.name or 'family'} is not ternary spinal")
    level = spec.level(spec_cls)
    beta, cs = [], []
    t = 0
    for name in table.geodesic(g, j1, j3):
        gen = level.gen(name)
        if gen.pseudolength == 0:
            t = (t + _rooted_exponent(spec, spec_cls, name)) % 3
        else:
            beta.append(name)
            cs.append(t)
    dv = [(cs[i + 1] - cs[i]) % 3 for i in range(len(cs) - 1)]
    data = TernaryGeodesicData(beta, cs, t, dv)
    if data.two_run:
        ones = [i for i, x in enumerate(dv) if x == 1]
        # positions are 1-based; all-2 runs put the switch past the end
        data.m_c = ones[0] + 1 if ones else len(dv) + 1
    return data


# -- polynomial bound on incompressible counts -----------------------------

@dataclass
class BoundCheck:
    l: int
    constant: int
    exponent: int
    rows: list = field(default_factory=list)  # (n, count, bound)

    @property
    def ok(self):
        return all(count <= bound for _, count, bound in self.rows)


def ternary_bound_params(spec):
    """Constant and exponent of the polynomial bound, from the least l with
    trivial joint kernel and the order of the defining group B."""
    if not is_ternary_spinal(spec):
        raise NotTernarySpinal(f"{spec.name or 'family'} is not ternary spinal")
    l = spec.meta.get("kernel_depth")
    if l is None:
        raise NotTernarySpinal("no finite joint-kernel depth")
    sizeB = 1
    for n in spec.meta["orders"]:
        sizeB *= n
    constant = 3 ** (3 ** (l + 2) - 1) * (sizeB - 1) ** ((3 ** (l + 1) - 1) // 2)
    exponent = (3 ** (l + 2) - 1) // 2
    return l, constant, exponent


def check_polynomial_bound(spec, report, c):
    l, constant, exponent = ternary_bound_params(spec)
    counts = report.counts[c][report.K]
    rows = [(n, counts[n], constant * n ** exponent)
            for n in range(1, len(counts))]
    return BoundCheck(l, constant, exponent, rows)
